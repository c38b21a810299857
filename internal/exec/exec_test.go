package exec

import (
	"testing"

	"hetgrid/internal/can"
	"hetgrid/internal/resource"
	"hetgrid/internal/sim"
)

// testCaps builds a node with a CPU (clock, cores, 8 GB) and optional
// GPUs.
func testCaps(clock float64, cores int, gpus ...resource.CE) *resource.NodeCaps {
	return &resource.NodeCaps{
		CEs:  append([]resource.CE{{Type: resource.TypeCPU, Clock: clock, Cores: cores, Memory: 8}}, gpus...),
		Disk: 100,
	}
}

func gpuCE(t resource.CEType, clock float64, cores int) resource.CE {
	return resource.CE{Type: t, Dedicated: true, Clock: clock, Cores: cores, Memory: 4}
}

func cpuJob(id JobID, cores int, dur sim.Duration) *Job {
	return &Job{
		ID:           id,
		Req:          resource.JobReq{CE: []resource.CEReq{{Type: resource.TypeCPU, Cores: cores}}},
		Dominant:     resource.TypeCPU,
		BaseDuration: dur,
	}
}

func gpuJob(id JobID, t resource.CEType, dur sim.Duration) *Job {
	return &Job{
		ID: id,
		Req: resource.JobReq{CE: []resource.CEReq{
			{Type: resource.TypeCPU, Cores: 1},
			{Type: t, Cores: 1},
		}},
		Dominant:     t,
		BaseDuration: dur,
	}
}

func newTestCluster(gamma float64) (*sim.Engine, *Cluster) {
	eng := sim.New()
	return eng, NewCluster(eng, Config{Gamma: gamma})
}

func TestJobRunsForScaledDuration(t *testing.T) {
	eng, c := newTestCluster(0)
	c.AddNode(1, testCaps(2.0, 4))
	j := cpuJob(1, 1, 100*sim.Second)
	if err := c.Submit(j, 1); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if j.State != Finished {
		t.Fatalf("job state = %v", j.State)
	}
	// 100 nominal seconds on a clock-2.0 CPU: 50 s.
	if j.Finished_ != sim.Time(50*sim.Second) {
		t.Fatalf("finished at %v, want 50 s", j.Finished_.Seconds())
	}
	if j.WaitTime() != 0 {
		t.Fatalf("wait time %v, want 0 on an empty node", j.WaitTime())
	}
}

func TestFIFOQueueing(t *testing.T) {
	eng, c := newTestCluster(0)
	c.AddNode(1, testCaps(1.0, 1)) // single core: jobs serialize
	j1 := cpuJob(1, 1, 100*sim.Second)
	j2 := cpuJob(2, 1, 100*sim.Second)
	c.Submit(j1, 1)
	c.Submit(j2, 1)
	if j1.State != Running || j2.State != Queued {
		t.Fatalf("states = %v, %v", j1.State, j2.State)
	}
	eng.Run()
	if j2.Started != sim.Time(100*sim.Second) {
		t.Fatalf("j2 started at %v, want 100 s", j2.Started.Seconds())
	}
	if j2.WaitTime() != 100*sim.Second {
		t.Fatalf("j2 wait = %v, want 100 s", j2.WaitTime().Seconds())
	}
}

func TestParallelJobsOnMultiCore(t *testing.T) {
	eng, c := newTestCluster(0)
	c.AddNode(1, testCaps(1.0, 4))
	j1 := cpuJob(1, 2, 100*sim.Second)
	j2 := cpuJob(2, 2, 100*sim.Second)
	c.Submit(j1, 1)
	c.Submit(j2, 1)
	if j1.State != Running || j2.State != Running {
		t.Fatal("both jobs should run in parallel on 4 cores")
	}
	eng.Run()
	if j1.Finished_ != j2.Finished_ {
		t.Fatal("equal jobs started together should finish together")
	}
}

func TestHeadOfLineBlocking(t *testing.T) {
	// Strict FIFO: a blocked head prevents later jobs from starting
	// even if their resources are free.
	eng, c := newTestCluster(0)
	c.AddNode(1, testCaps(1.0, 4, gpuCE(1, 1.0, 128)))
	g1 := gpuJob(1, 1, 200*sim.Second)
	g2 := gpuJob(2, 1, 100*sim.Second) // blocked: GPU busy
	c1 := cpuJob(3, 1, 50*sim.Second)  // CPU free, but behind g2
	c.Submit(g1, 1)
	c.Submit(g2, 1)
	c.Submit(c1, 1)
	if g1.State != Running {
		t.Fatal("g1 should run")
	}
	if g2.State != Queued || c1.State != Queued {
		t.Fatal("g2 and c1 should queue behind the busy GPU")
	}
	eng.Run()
	if c1.Started.Seconds() < 200 {
		t.Fatalf("c1 started at %v, should wait for g2's start at 200 s", c1.Started.Seconds())
	}
}

func TestDedicatedCERunsOneJob(t *testing.T) {
	eng, c := newTestCluster(0)
	c.AddNode(1, testCaps(1.0, 8, gpuCE(1, 2.0, 448)))
	g1 := gpuJob(1, 1, 100*sim.Second)
	g2 := gpuJob(2, 1, 100*sim.Second)
	c.Submit(g1, 1)
	c.Submit(g2, 1)
	if g2.State != Queued {
		t.Fatal("a dedicated CE must not run two jobs")
	}
	eng.Run()
	// Each runs 100/2.0 = 50 s, serialized.
	if g2.Finished_ != sim.Time(100*sim.Second) {
		t.Fatalf("g2 finished at %v, want 100 s", g2.Finished_.Seconds())
	}
}

func TestContentionSlowsCoRunners(t *testing.T) {
	eng, c := newTestCluster(0.5)
	c.AddNode(1, testCaps(1.0, 4))
	j1 := cpuJob(1, 2, 100*sim.Second)
	c.Submit(j1, 1)
	eng.RunUntil(sim.Time(10 * sim.Second))
	j2 := cpuJob(2, 2, 100*sim.Second)
	c.Submit(j2, 1)
	eng.Run()
	// Alone, j1 would finish at 100 s. With j2 occupying 2 of 4 cores
	// from t=10, both slow to rate 1/(1+0.5*2/4) = 0.8.
	// j1: 10 s at rate 1 (90 work left), then 90/0.8 = 112.5 s → 122.5.
	want := sim.FromSeconds(122.5)
	if j1.Finished_ != sim.Time(want) {
		t.Fatalf("j1 finished at %.2f s, want 122.5", j1.Finished_.Seconds())
	}
	// j2 slows while j1 runs, then speeds up after j1 finishes:
	// from 10 to 122.5 at 0.8 (90 work done), then 10 left at rate 1 → 132.5.
	if j2.Finished_ != sim.Time(sim.FromSeconds(132.5)) {
		t.Fatalf("j2 finished at %.2f s, want 132.5", j2.Finished_.Seconds())
	}
}

func TestNoContentionAcrossCEs(t *testing.T) {
	// A GPU job and a CPU job share the node but not a CE: neither
	// slows the other (the paper's measured result).
	eng, c := newTestCluster(0.5)
	c.AddNode(1, testCaps(1.0, 4, gpuCE(1, 1.0, 128)))
	g := gpuJob(1, 1, 100*sim.Second)
	j := cpuJob(2, 2, 100*sim.Second)
	c.Submit(g, 1)
	c.Submit(j, 1)
	eng.Run()
	// g's CPU control core occupies 1 core; j sees 1 other busy core:
	// rate = 1/(1+0.5*1/4) = 0.888..; g is GPU-dominant: full speed.
	if g.Finished_ != sim.Time(100*sim.Second) {
		t.Fatalf("GPU job finished at %v, want 100 s (no cross-CE contention)", g.Finished_.Seconds())
	}
	if j.Finished_ <= sim.Time(100*sim.Second) {
		t.Fatal("CPU job should feel contention from the GPU job's control core")
	}
}

func TestIsFreeAndAcceptable(t *testing.T) {
	eng, c := newTestCluster(0)
	r := c.AddNode(1, testCaps(1.0, 2, gpuCE(1, 1.0, 128)))
	if !r.IsFree() {
		t.Fatal("empty node must be free")
	}
	cpuReq := resource.JobReq{CE: []resource.CEReq{{Type: resource.TypeCPU, Cores: 1}}}
	if !r.IsAcceptable(cpuReq) {
		t.Fatal("empty node must be acceptable")
	}
	g := gpuJob(1, 1, 100*sim.Second)
	c.Submit(g, 1)
	if r.IsFree() {
		t.Fatal("node with a running job is not free")
	}
	// CPU has 1 free core left: still acceptable for a 1-core CPU job.
	if !r.IsAcceptable(cpuReq) {
		t.Fatal("node with a spare core should accept a 1-core CPU job")
	}
	gpuReq := resource.JobReq{CE: []resource.CEReq{{Type: 1, Cores: 1}}}
	if r.IsAcceptable(gpuReq) {
		t.Fatal("busy dedicated GPU must not be acceptable")
	}
	two := resource.JobReq{CE: []resource.CEReq{{Type: resource.TypeCPU, Cores: 2}}}
	if r.IsAcceptable(two) {
		t.Fatal("2-core job must not be acceptable with 1 free core")
	}
	eng.Run()
	if !r.IsFree() {
		t.Fatal("node must be free again after all jobs finish")
	}
}

func TestAcceptableRequiresEmptyQueue(t *testing.T) {
	_, c := newTestCluster(0)
	r := c.AddNode(1, testCaps(1.0, 1))
	c.Submit(cpuJob(1, 1, 100*sim.Second), 1)
	c.Submit(cpuJob(2, 1, 100*sim.Second), 1) // queued
	req := resource.JobReq{CE: []resource.CEReq{{Type: resource.TypeCPU, Cores: 1}}}
	if r.IsAcceptable(req) {
		t.Fatal("node with a non-empty queue is never acceptable")
	}
}

func TestScoreFunctions(t *testing.T) {
	_, c := newTestCluster(0)
	r := c.AddNode(1, testCaps(2.0, 4, gpuCE(1, 1.0, 128)))
	if r.Score(resource.TypeCPU) != 0 {
		t.Fatal("idle CPU score must be 0")
	}
	c.Submit(cpuJob(1, 2, 1000*sim.Second), 1)
	// Eq 2: (2/4)/2.0 = 0.25.
	if got := r.Score(resource.TypeCPU); got != 0.25 {
		t.Fatalf("CPU score = %v, want 0.25", got)
	}
	c.Submit(gpuJob(2, 1, 1000*sim.Second), 1)
	// Eq 1 for the GPU: 1 running job / clock 1.0 = 1.
	if got := r.Score(1); got != 1.0 {
		t.Fatalf("GPU score = %v, want 1", got)
	}
	// Queue a second GPU job: queue size 2.
	c.Submit(gpuJob(3, 1, 1000*sim.Second), 1)
	if got := r.Score(1); got != 2.0 {
		t.Fatalf("GPU score with queued job = %v, want 2", got)
	}
	if r.Score(resource.CEType(7)) < 1e17 {
		t.Fatal("missing CE type must score huge")
	}
}

func TestDemandOn(t *testing.T) {
	_, c := newTestCluster(0)
	r := c.AddNode(1, testCaps(1.0, 4))
	c.Submit(cpuJob(1, 2, 1000*sim.Second), 1)
	c.Submit(cpuJob(2, 3, 1000*sim.Second), 1) // queued (only 2 free)
	req, cores, ok := r.DemandOn(resource.TypeCPU)
	if !ok || cores != 4 {
		t.Fatalf("DemandOn: cores=%d ok=%v", cores, ok)
	}
	if req != 5 {
		t.Fatalf("required cores = %d, want 5 (2 running + 3 queued)", req)
	}
	if _, _, ok := r.DemandOn(3); ok {
		t.Fatal("DemandOn for missing CE must report !ok")
	}
}

func TestSubmitErrors(t *testing.T) {
	_, c := newTestCluster(0)
	c.AddNode(1, testCaps(1.0, 2))
	if err := c.Submit(cpuJob(1, 1, sim.Second), 99); err == nil {
		t.Fatal("submit to unknown node did not error")
	}
	big := cpuJob(2, 8, sim.Second)
	if err := c.Submit(big, 1); err == nil {
		t.Fatal("submit of unsatisfiable job did not error")
	}
}

func TestDuplicateNodePanics(t *testing.T) {
	_, c := newTestCluster(0)
	c.AddNode(1, testCaps(1.0, 2))
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate AddNode did not panic")
		}
	}()
	c.AddNode(1, testCaps(1.0, 2))
}

func TestClusterCounters(t *testing.T) {
	eng, c := newTestCluster(0)
	c.AddNode(1, testCaps(1.0, 4))
	var finished []JobID
	c.OnFinish = func(j *Job) { finished = append(finished, j.ID) }
	for i := 1; i <= 3; i++ {
		c.Submit(cpuJob(JobID(i), 1, sim.Duration(i)*100*sim.Second), 1)
	}
	if c.Submitted() != 3 {
		t.Fatalf("submitted = %d", c.Submitted())
	}
	eng.Run()
	if c.Finished() != 3 || len(finished) != 3 {
		t.Fatalf("finished = %d / callback %d", c.Finished(), len(finished))
	}
	if finished[0] != 1 || finished[2] != 3 {
		t.Fatalf("finish order %v, want shortest-first by duration", finished)
	}
	if c.Runtime(1).FinishedJobs() != 3 {
		t.Fatal("runtime finished counter wrong")
	}
}

func TestManyJobsConserved(t *testing.T) {
	// Sanity under load: every submitted job finishes exactly once and
	// CE occupancy returns to zero.
	eng, c := newTestCluster(0.3)
	for i := 1; i <= 5; i++ {
		caps := testCaps(1.0+float64(i)*0.2, 2+i%4)
		if i%2 == 0 {
			caps.CEs = append(caps.CEs, gpuCE(1, 1.0, 128))
		}
		c.AddNode(can.NodeID(i), caps)
	}
	jobs := make([]*Job, 0, 200)
	for i := 0; i < 200; i++ {
		var j *Job
		node := can.NodeID(1 + i%5)
		if i%4 == 0 {
			node = can.NodeID(2 + 2*((i/4)%2)) // nodes 2 and 4 have GPUs
			j = gpuJob(JobID(1000+i), 1, sim.Duration(60+i)*sim.Second)
		} else {
			j = cpuJob(JobID(1000+i), 1+i%2, sim.Duration(30+i)*sim.Second)
		}
		jobs = append(jobs, j)
		if err := c.Submit(j, node); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	eng.Run()
	if c.Finished() != 200 {
		t.Fatalf("finished %d of 200", c.Finished())
	}
	for _, j := range jobs {
		if j.State != Finished {
			t.Fatalf("job %d in state %v", j.ID, j.State)
		}
		if j.Started < j.Placed || j.Finished_ < j.Started {
			t.Fatalf("job %d has inconsistent timeline", j.ID)
		}
	}
	for i := 1; i <= 5; i++ {
		r := c.Runtime(can.NodeID(i))
		if !r.IsFree() {
			t.Fatalf("node %d not free after drain", i)
		}
		if len(r.run) != 0 {
			t.Fatalf("node %d running set not empty after drain", i)
		}
		for _, ce := range r.ces {
			if ce.usedCor != 0 || ce.runJobs != 0 {
				t.Fatalf("node %d CE %v occupancy not zero after drain", i, ce.ce.Type)
			}
		}
	}
}

func TestRemoveNodeReturnsOrphans(t *testing.T) {
	eng, c := newTestCluster(0)
	c.AddNode(1, testCaps(1.0, 2))
	running := cpuJob(1, 2, 1000*sim.Second)
	queued := cpuJob(2, 1, 100*sim.Second)
	c.Submit(running, 1)
	c.Submit(queued, 1)
	eng.RunUntil(sim.Time(100 * sim.Second))

	orphans := c.RemoveNode(1)
	if len(orphans) != 2 {
		t.Fatalf("orphans = %d, want 2", len(orphans))
	}
	for _, j := range orphans {
		if j.State != Queued {
			t.Fatalf("orphan %d in state %v, want queued", j.ID, j.State)
		}
	}
	if c.Runtime(1) != nil {
		t.Fatal("removed node still registered")
	}
	// The cancelled completion event must not fire.
	eng.Run()
	if running.State == Finished {
		t.Fatal("job finished on a removed node")
	}
	if c.Finished() != 0 {
		t.Fatal("finished counter incremented for preempted job")
	}
}

func TestRemoveNodeThenResubmitElsewhere(t *testing.T) {
	eng, c := newTestCluster(0)
	c.AddNode(1, testCaps(1.0, 2))
	c.AddNode(2, testCaps(1.0, 2))
	j := cpuJob(1, 1, 600*sim.Second)
	c.Submit(j, 1)
	eng.RunUntil(sim.Time(300 * sim.Second)) // halfway
	orphans := c.RemoveNode(1)
	if len(orphans) != 1 {
		t.Fatalf("orphans = %d", len(orphans))
	}
	if err := c.Submit(j, 2); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if j.State != Finished {
		t.Fatal("resubmitted job did not finish")
	}
	// Restarted from scratch at t=300: finishes at 900, not 600.
	if j.Finished_ != sim.Time(900*sim.Second) {
		t.Fatalf("finished at %v, want 900 s (progress discarded)", j.Finished_.Seconds())
	}
}

func TestRemoveUnknownNodeNil(t *testing.T) {
	_, c := newTestCluster(0)
	if got := c.RemoveNode(42); got != nil {
		t.Fatal("unknown node returned orphans")
	}
}

func TestBusyCoreSecondsAccumulates(t *testing.T) {
	eng, c := newTestCluster(0)
	r := c.AddNode(1, testCaps(2.0, 4))
	// 2 cores for 100 nominal seconds on a 2.0 clock: 50 s wall.
	c.Submit(cpuJob(1, 2, 100*sim.Second), 1)
	eng.Run()
	if got := r.BusyCoreSeconds(); got != 100 { // 50 s × 2 cores
		t.Fatalf("BusyCoreSeconds = %v, want 100", got)
	}
	// A second 1-core job adds 50 more.
	c.Submit(cpuJob(2, 1, 100*sim.Second), 1)
	eng.Run()
	if got := r.BusyCoreSeconds(); got != 150 {
		t.Fatalf("BusyCoreSeconds = %v, want 150", got)
	}
}

// TestRuntimeUnknownIDs pins the dense runtime index's edges: IDs never
// added, removed, beyond the highest ID seen, and negative all read as
// nil, and Runtimes lists only live nodes in ID order.
func TestRuntimeUnknownIDs(t *testing.T) {
	_, c := newTestCluster(0)
	c.AddNode(2, testCaps(1.0, 4))
	c.AddNode(5, testCaps(1.0, 4))
	c.AddNode(7, testCaps(1.0, 4))
	c.RemoveNode(5)
	for _, tc := range []struct {
		name string
		id   can.NodeID
		live bool
	}{
		{"live", 2, true},
		{"live highest", 7, true},
		{"never added below a live id", 1, false},
		{"never added between live ids", 3, false},
		{"removed", 5, false},
		{"beyond range", 8, false},
		{"far beyond range", 1 << 40, false},
		{"negative", -1, false},
	} {
		r := c.Runtime(tc.id)
		if tc.live && (r == nil || r.ID != tc.id) {
			t.Errorf("%s: Runtime(%d) = %v, want the live runtime", tc.name, tc.id, r)
		}
		if !tc.live && r != nil {
			t.Errorf("%s: Runtime(%d) = node %d, want nil", tc.name, tc.id, r.ID)
		}
	}
	if got := c.RemoveNode(5); got != nil {
		t.Fatalf("second RemoveNode(5) = %v, want nil", got)
	}
	rs := c.Runtimes()
	if len(rs) != 2 || rs[0].ID != 2 || rs[1].ID != 7 {
		t.Fatalf("Runtimes() = %v, want nodes 2 and 7", rs)
	}
	if err := c.Submit(cpuJob(1, 1, sim.Second), 5); err == nil {
		t.Fatal("Submit to a removed node succeeded")
	}
	// A removed id can be registered again.
	if r := c.AddNode(5, testCaps(1.0, 4)); c.Runtime(5) != r {
		t.Fatal("re-added node 5 not returned by Runtime")
	}
}
