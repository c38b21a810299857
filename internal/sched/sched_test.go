package sched

import (
	"testing"

	"hetgrid/internal/can"
	"hetgrid/internal/exec"
	"hetgrid/internal/resource"
	"hetgrid/internal/rng"
	"hetgrid/internal/sim"
	"hetgrid/internal/workload"
)

// testGrid builds an overlay + cluster with n synthetic nodes and
// returns the wired context.
func testGrid(t *testing.T, n int, gpuSlots int, seed int64) (*Context, *can.Overlay, *exec.Cluster) {
	t.Helper()
	eng := sim.New()
	space := resource.NewSpace(gpuSlots)
	ov := can.NewOverlay(space.Dims())
	cl := exec.NewCluster(eng, exec.DefaultConfig())
	gen := workload.NewNodeGen(space, seed)
	redraw := rng.NewSplit(seed, "redraw")
	for i := 0; i < n; i++ {
		caps := gen.One()
		node, err := can.JoinRedraw(ov.Join, space, caps, redraw)
		if err != nil {
			t.Fatal(err)
		}
		cl.AddNode(node.ID, caps)
	}
	return NewContext(eng, ov, cl, space, seed), ov, cl
}

func cpuReq(cores int) resource.JobReq {
	return resource.JobReq{CE: []resource.CEReq{{Type: resource.TypeCPU, Cores: cores}}}
}

func cpuJob(id int, cores int) *exec.Job {
	return &exec.Job{
		ID:           exec.JobID(id),
		Req:          cpuReq(cores),
		Dominant:     resource.TypeCPU,
		BaseDuration: sim.Hour,
	}
}

func gpuJob(id int, slot resource.CEType) *exec.Job {
	req := resource.JobReq{CE: []resource.CEReq{
		{Type: resource.TypeCPU, Cores: 1},
		{Type: slot, Cores: 32},
	}}
	return &exec.Job{
		ID:           exec.JobID(id),
		Req:          req,
		Dominant:     slot,
		BaseDuration: sim.Hour,
	}
}

// TestAggMatchesBruteForce cross-checks the suffix-sum aggregation
// against a direct O(n²) computation.
func TestAggMatchesBruteForce(t *testing.T) {
	ctx, ov, cl := testGrid(t, 80, 2, 1)
	// Load a few nodes so demands are non-zero.
	i := 0
	for _, n := range ov.Nodes() {
		if i%3 == 0 {
			j := cpuJob(1000+i, 1)
			if resource.Satisfies(n.Caps, j.Req) {
				cl.Submit(j, n.ID)
			}
		}
		i++
	}
	ctx.Agg.Refresh(ov, cl)

	for _, n := range ov.Nodes() {
		for d := 0; d < ov.Dims(); d++ {
			wantNodes := 0
			var wantLoad [3]CELoad
			for _, m := range ov.Nodes() {
				if m.Zone.Lo[d] < n.Zone.Hi[d] {
					continue
				}
				wantNodes++
				rt := cl.Runtime(m.ID)
				for ty := 0; ty < 3; ty++ {
					if req, cores, ok := rt.DemandOn(resource.CEType(ty)); ok {
						wantLoad[ty].SumRequiredCores += float64(req)
						wantLoad[ty].SumCores += float64(cores)
					}
				}
			}
			got := ctx.Agg.At(n.ID, d)
			if got.Nodes != wantNodes {
				t.Fatalf("node %d dim %d: Nodes=%d want %d", n.ID, d, got.Nodes, wantNodes)
			}
			for ty := 0; ty < 3; ty++ {
				if got.Load(resource.CEType(ty)) != wantLoad[ty] {
					t.Fatalf("node %d dim %d type %d: %+v want %+v",
						n.ID, d, ty, got.Load(resource.CEType(ty)), wantLoad[ty])
				}
			}
		}
	}
}

func TestAggEmptyBeforeRefresh(t *testing.T) {
	a := NewAggTable(5, 1)
	row := a.At(7, 3)
	if row.Nodes != 0 || row.Load(0) != (CELoad{}) {
		t.Fatal("unrefreshed table must return empty aggregates")
	}
}

func TestObjectivePrefersProvisionedRegions(t *testing.T) {
	// Equation 3 must rank a region with more cores and less demand
	// lower (better).
	a := resource.PushObjective(10, 100)
	b := resource.PushObjective(10, 10)
	if a >= b {
		t.Fatal("objective should prefer core-rich regions")
	}
}

func TestCentralPrefersFreeFastNode(t *testing.T) {
	ctx, ov, cl := testGrid(t, 50, 2, 2)
	s := NewCentral(ctx)
	id, err := s.Place(cpuJob(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	// All nodes are free: central must pick a fastest-CPU satisfier.
	best := 0.0
	for _, n := range ov.Nodes() {
		if resource.Satisfies(n.Caps, cpuReq(1)) && n.Caps.CPU().Clock > best {
			best = n.Caps.CPU().Clock
		}
	}
	if got := ov.Node(id).Caps.CPU().Clock; got != best {
		t.Fatalf("central picked clock %v, fastest free is %v", got, best)
	}
	if s.Stats.FreePicks != 1 {
		t.Fatalf("stats = %+v", s.Stats)
	}
	_ = cl
}

func TestCentralUnmatchable(t *testing.T) {
	ctx, _, _ := testGrid(t, 20, 1, 3)
	s := NewCentral(ctx)
	impossible := &exec.Job{
		ID:       1,
		Req:      resource.JobReq{CE: []resource.CEReq{{Type: resource.TypeCPU, Cores: 64}}},
		Dominant: resource.TypeCPU,
	}
	if _, err := s.Place(impossible); err != ErrUnmatchable {
		t.Fatalf("err = %v, want ErrUnmatchable", err)
	}
	if s.Stats.Unmatchable != 1 {
		t.Fatal("unmatchable not counted")
	}
}

func TestCanHetPlacesEveryMatchableJob(t *testing.T) {
	ctx, ov, cl := testGrid(t, 120, 2, 4)
	s := NewCanHet(ctx)
	central := NewCentral(ctx)
	placed := 0
	for i := 0; i < 300; i++ {
		var j *exec.Job
		if i%3 == 0 {
			j = gpuJob(i, resource.CEType(1+i%2))
		} else {
			j = cpuJob(i, 1+i%4)
		}
		_, cerr := central.Place(j)
		id, herr := s.Place(j)
		if cerr == nil && herr != nil {
			t.Fatalf("job %d: central placed it but can-het failed: %v", i, herr)
		}
		if herr == nil {
			if !resource.Satisfies(ov.Node(id).Caps, j.Req) {
				t.Fatalf("job %d placed on unsatisfying node %d", i, id)
			}
			placed++
		}
	}
	if placed == 0 {
		t.Fatal("nothing placed")
	}
	_ = cl
}

func TestCanHetPrefersAcceptableOverQueued(t *testing.T) {
	// Saturate every node except one acceptable GPU node; a GPU job
	// must land on the acceptable node, not queue elsewhere.
	ctx, ov, cl := testGrid(t, 60, 1, 5)
	s := NewCanHet(ctx)

	// Occupy all CPUs with big jobs so no node is free.
	id := 10000
	for _, n := range ov.Nodes() {
		rt := cl.Runtime(n.ID)
		cores := n.Caps.CPU().Cores
		j := cpuJob(id, cores)
		id++
		if resource.Satisfies(n.Caps, j.Req) {
			rt := rt
			_ = rt
			cl.Submit(j, n.ID)
		}
	}
	g := gpuJob(1, 1)
	node, err := s.Place(g)
	if err != nil {
		t.Skip("no GPU nodes in this population draw")
	}
	rt := cl.Runtime(node)
	// The chosen node must have been able to start the job at once
	// (its GPU idle and a CPU core free) or, if none was acceptable,
	// be a minimum-score pick; in either case it must satisfy.
	if !resource.Satisfies(ov.Node(node).Caps, g.Req) {
		t.Fatal("GPU job on unsatisfying node")
	}
	_ = rt
}

func TestCanHomIgnoresGPUQueues(t *testing.T) {
	// Construct a two-node scenario: node A has a fast CPU and a GPU
	// already hammered with queued GPU jobs; node B has an idle GPU but
	// a slower, busy CPU. can-hom (CPU-oblivious... GPU-oblivious)
	// should be willing to send a GPU job to A, while can-het must see
	// A's GPU queue and prefer B.
	eng := sim.New()
	space := resource.NewSpace(1)
	ov := can.NewOverlay(space.Dims())
	cl := exec.NewCluster(eng, exec.DefaultConfig())

	mk := func(cpuClock float64, cores int, gpuClock float64, virtual float64) *can.Node {
		caps := &resource.NodeCaps{
			CEs: []resource.CE{
				{Type: resource.TypeCPU, Clock: cpuClock, Cores: cores, Memory: 8},
				{Type: 1, Dedicated: true, Clock: gpuClock, Cores: 128, Memory: 4},
			},
			Disk: 500, Virtual: virtual,
		}
		n, err := ov.Join(space.NodePoint(caps), caps)
		if err != nil {
			t.Fatal(err)
		}
		cl.AddNode(n.ID, caps)
		return n
	}
	a := mk(3.0, 8, 1.5, 0.2)
	b := mk(1.0, 2, 1.0, 0.7)

	// Hammer A's GPU with queued jobs; keep A's CPU mostly free.
	for i := 0; i < 5; i++ {
		cl.Submit(gpuJob(100+i, 1), a.ID)
	}
	// B runs one small CPU job (so B is not free either).
	cl.Submit(cpuJob(200, 1), b.ID)

	ctx := NewContext(eng, ov, cl, space, 6)
	het := NewCanHet(ctx)
	hom := NewCanHom(ctx)

	g := gpuJob(1, 1)
	hetNode, err := het.Place(g)
	if err != nil {
		t.Fatal(err)
	}
	if hetNode != b.ID {
		t.Fatalf("can-het placed the GPU job on node %d, want B (%d) whose GPU is idle", hetNode, b.ID)
	}
	g2 := gpuJob(2, 1)
	homNode, err := hom.Place(g2)
	if err != nil {
		t.Fatal(err)
	}
	// can-hom ranks by CPU state only: A's mostly-idle fast CPU makes
	// it the minimum-CPU-score pick despite the deep GPU queue.
	if homNode != a.ID {
		t.Fatalf("can-hom placed the GPU job on node %d; expected the GPU-blind pick A (%d)", homNode, a.ID)
	}
}

func TestFallbackCountsAndPlaces(t *testing.T) {
	ctx, ov, _ := testGrid(t, 40, 1, 7)
	var st Stats
	// A requirement only few nodes meet.
	req := resource.JobReq{CE: []resource.CEReq{
		{Type: resource.TypeCPU, Clock: 3.0, Cores: 8, Memory: 16},
	}}
	n := ctx.fallback(req, resource.TypeCPU, &st)
	any := false
	for _, m := range ov.Nodes() {
		if resource.Satisfies(m.Caps, req) {
			any = true
		}
	}
	if any && n == nil {
		t.Fatal("fallback missed an existing satisfier")
	}
	if !any && n != nil {
		t.Fatal("fallback invented a satisfier")
	}
	if n != nil && st.Fallbacks != 1 {
		t.Fatal("fallback not counted")
	}
}

func TestSchedulerDeterminism(t *testing.T) {
	run := func() []can.NodeID {
		ctx, _, cl := testGrid(t, 60, 2, 8)
		s := NewCanHet(ctx)
		var ids []can.NodeID
		for i := 0; i < 100; i++ {
			j := cpuJob(i, 1+i%2)
			id, err := s.Place(j)
			if err != nil {
				ids = append(ids, -1)
				continue
			}
			cl.Submit(j, id)
			ids = append(ids, id)
		}
		return ids
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("placement %d diverged: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestStatsString(t *testing.T) {
	s := Stats{Placed: 3, RouteHops: 5, Fallbacks: 1}
	str := s.String()
	if str == "" || len(str) < 20 {
		t.Fatalf("Stats.String() = %q", str)
	}
}

func TestSchedulerNames(t *testing.T) {
	ctx, _, _ := testGrid(t, 20, 1, 9)
	if NewCanHet(ctx).Name() != "can-het" ||
		NewCanHom(ctx).Name() != "can-hom" ||
		NewCentral(ctx).Name() != "central" {
		t.Fatal("scheduler names wrong")
	}
}

func TestCanHomPlacesJobs(t *testing.T) {
	ctx, ov, cl := testGrid(t, 100, 2, 10)
	s := NewCanHom(ctx)
	placed := 0
	for i := 0; i < 200; i++ {
		var j *exec.Job
		if i%3 == 0 {
			j = gpuJob(i, resource.CEType(1+i%2))
		} else {
			j = cpuJob(i, 1+i%3)
		}
		id, err := s.Place(j)
		if err != nil {
			continue
		}
		if !resource.Satisfies(ov.Node(id).Caps, j.Req) {
			t.Fatalf("can-hom placed job %d on unsatisfying node", i)
		}
		cl.Submit(j, id)
		placed++
	}
	if placed < 150 {
		t.Fatalf("can-hom placed only %d of 200", placed)
	}
	if s.Stats.Placed != placed {
		t.Fatalf("stats placed=%d, want %d", s.Stats.Placed, placed)
	}
	// can-hom only ever uses free picks or score picks: the
	// acceptable-node notion requires CE awareness.
	if s.Stats.AcceptPicks != 0 {
		t.Fatalf("can-hom made %d acceptable picks", s.Stats.AcceptPicks)
	}
}

func TestCanHomUnmatchable(t *testing.T) {
	ctx, _, _ := testGrid(t, 20, 1, 11)
	s := NewCanHom(ctx)
	impossible := &exec.Job{
		ID:       1,
		Req:      resource.JobReq{CE: []resource.CEReq{{Type: resource.TypeCPU, Cores: 64}}},
		Dominant: resource.TypeCPU,
	}
	if _, err := s.Place(impossible); err != ErrUnmatchable {
		t.Fatalf("err = %v, want ErrUnmatchable", err)
	}
}

func TestVirtualSpreadAblationChangesRouting(t *testing.T) {
	// With virtual spread disabled, identical jobs route to the same
	// virtual coordinate; the two configurations must consume the same
	// random draws yet can differ in placements.
	ctx, _, _ := testGrid(t, 60, 1, 12)
	ctx.DisableVirtualSpread = true
	if v := ctx.jobVirtual(); v != 0 {
		t.Fatalf("disabled virtual spread returned %v, want 0", v)
	}
	ctx.DisableVirtualSpread = false
	if v := ctx.jobVirtual(); v == 0 {
		t.Fatal("enabled virtual spread returned 0 (vanishingly unlikely)")
	}
}

func TestEmptyOverlayPlacement(t *testing.T) {
	eng := sim.New()
	space := resource.NewSpace(1)
	ov := can.NewOverlay(space.Dims())
	cl := exec.NewCluster(eng, exec.DefaultConfig())
	ctx := NewContext(eng, ov, cl, space, 13)
	for _, s := range []Scheduler{NewCanHet(ctx), NewCanHom(ctx), NewCentral(ctx)} {
		if _, err := s.Place(cpuJob(1, 1)); err == nil {
			t.Fatalf("%s placed a job on an empty overlay", s.Name())
		}
	}
}
