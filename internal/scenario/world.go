package scenario

// The execution engine behind a scenario: one virtual clock drives the
// protocol plane (heartbeats, failures, repairs via proto.Sim), the
// execution plane (job queues via exec.Cluster + a sched placement
// scheme) and the fault plane (netsim link faults). Everything is
// deterministic per seed — victim selection, join points and workload
// all draw from labeled rng splits, and same-time events fire in file
// order through the engine's sequence numbers — so a scenario's report
// is byte-identical across runs.

import (
	"fmt"

	"hetgrid/internal/can"
	"hetgrid/internal/exec"
	"hetgrid/internal/metrics"
	"hetgrid/internal/metricsreg"
	"hetgrid/internal/netsim"
	"hetgrid/internal/proto"
	"hetgrid/internal/resource"
	"hetgrid/internal/rng"
	"hetgrid/internal/sched"
	"hetgrid/internal/sim"
	"hetgrid/internal/stats"
	"hetgrid/internal/workload"
)

// protoPlane is the protocol-simulation surface a world drives. Both
// engines satisfy it: *proto.Sim (serial) and *proto.ShardedSim
// (`engine: sharded` — churn on the control plane, heartbeats in
// parallel conservative windows).
type protoPlane interface {
	proto.ChurnSim
	Overlay() *can.Overlay
	MeanViewSize() float64
	BrokenLinks() (missing, stale int)
}

// protoNet is the transport surface a world needs: fault injection for
// the partition plane and drop accounting for the report. *netsim.Net
// and *netsim.ShardedNet both satisfy it.
type protoNet interface {
	metricsreg.NetReader
	SetLinkFault(f func(src, dst can.NodeID) bool)
	LinkDrops() int64
}

// World is the live state of one scenario run.
type World struct {
	spec    *Spec
	eng     *sim.Engine // event/checkpoint/workload plane (global plane when sharded)
	space   *resource.Space
	psim    protoPlane
	pnet    protoNet
	ssim    *proto.ShardedSim // non-nil iff spec.Engine == "sharded"
	cluster *exec.Cluster
	sched   sched.Scheduler
	part    *netsim.Partition

	ngen    *workload.NodeGen
	jgen    *workload.JobGen
	redraw  *rng.Stream // virtual-coordinate redraws on duplicate join points
	victims *rng.Stream // fault-injection victim selection

	rack     map[can.NodeID]int
	nextRack int

	// Telemetry: always attached (see telemetry.go), so the report's
	// timeline and the checkpoint assertions exist whether or not the
	// driver exports the stream.
	plane    *metrics.Plane
	timeline []string

	// Ledger: every job and node transition the scenario caused.
	placed      int
	placeFailed int
	requeued    int
	lost        int
	fails       int
	leaves      int
	joins       int
	waits       *stats.Sample

	violations []string
}

// NewWorld builds the grid, fleet and workload for a spec. The engine
// is positioned at time zero with the initial fleet joined and the job
// stream scheduled; Run executes the timeline.
func NewWorld(spec *Spec) (*World, error) { return newWorld(spec, 0) }

func newWorld(spec *Spec, sampleEvery sim.Duration) (*World, error) {
	space := resource.NewSpace(spec.Grid.GPUSlots)

	pcfg := proto.DefaultConfig(protoScheme(spec.Grid.Protocol))
	pcfg.HeartbeatPeriod = spec.Grid.Heartbeat
	pcfg.Seed = spec.Seed

	// Engine selection. The sharded core runs heartbeat traffic in
	// parallel conservative windows; churn, events, checkpoints, the
	// workload stream and telemetry all stay on its global control
	// plane, which quiesces the shards before every firing — the same
	// total order a serial engine gives them. Strict (non-batched)
	// admission keeps reports byte-identical to the serial engine.
	var (
		eng  *sim.Engine
		psim protoPlane
		pnet protoNet
		ssim *proto.ShardedSim
	)
	if spec.Sharded() {
		if pcfg.HeartbeatPeriod <= pcfg.Latency {
			return nil, fmt.Errorf("scenario %s: engine sharded requires grid.heartbeat > %s", spec.Name, fmtDur(pcfg.Latency))
		}
		pcfg.BatchedAdmission = spec.BatchedAdmission()
		ssim = proto.NewShardedSim(spec.ShardCount(), spec.Workers, space.Dims(), pcfg)
		if spec.AdaptiveWindows() {
			ssim.SE.SetWindowPolicy(sim.WindowAdaptive)
		}
		eng = ssim.SE.Global()
		psim, pnet = ssim, ssim.Net
	} else {
		eng = sim.New()
		s := proto.NewSimOn(eng, space.Dims(), pcfg)
		psim, pnet = s, s.Net
	}

	w := &World{
		spec:    spec,
		eng:     eng,
		space:   space,
		psim:    psim,
		pnet:    pnet,
		ssim:    ssim,
		cluster: exec.NewCluster(eng, exec.DefaultConfig()),
		part:    netsim.NewPartition(),
		ngen:    workload.NewNodeGen(space, rng.Split(spec.Seed, "scenario.nodes")),
		redraw:  rng.NewSplit(spec.Seed, "scenario.redraw"),
		victims: rng.NewSplit(spec.Seed, "scenario.victims"),
		rack:    make(map[can.NodeID]int),
		waits:   &stats.Sample{},
	}
	w.pnet.SetLinkFault(w.part.Blocked)

	ctx := sched.NewContext(eng, w.psim.Overlay(), w.cluster, space, spec.Seed)
	ctx.RefreshPeriod = spec.Grid.Refresh
	switch spec.Grid.Scheduler {
	case "can-het":
		w.sched = sched.NewCanHet(ctx)
	case "can-hom":
		w.sched = sched.NewCanHom(ctx)
	case "central":
		w.sched = sched.NewCentral(ctx)
	default:
		return nil, fmt.Errorf("scenario %s: unknown scheduler %q", spec.Name, spec.Grid.Scheduler)
	}

	w.cluster.OnFinish = func(j *exec.Job) {
		w.waits.Add(j.WaitTime().Seconds())
	}
	w.attachTelemetry(sampleEvery)

	for i := 0; i < spec.Grid.Nodes; i++ {
		if _, err := w.admit(w.ngen.One()); err != nil {
			return nil, fmt.Errorf("scenario %s: initial join %d: %w", spec.Name, i, err)
		}
	}

	if spec.Workload.Jobs > 0 {
		w.jgen = workload.NewJobGen(space, rng.Split(spec.Seed, "scenario.jobs"))
		w.jgen.MeanInterArrival = spec.Workload.MeanGap
		w.jgen.GPUJobFraction = spec.Workload.GPUFraction
		w.jgen.ConstraintRatio = spec.Workload.ConstraintRatio
		w.jgen.MinRuntime = spec.Workload.MinRun
		w.jgen.MaxRuntime = spec.Workload.MaxRun
		remaining := spec.Workload.Jobs
		var arrive func(now sim.Time)
		arrive = func(now sim.Time) {
			if remaining == 0 {
				return
			}
			remaining--
			_, gap := w.submitNext(now)
			if remaining > 0 {
				eng.After(gap, arrive)
			}
		}
		eng.At(0, arrive)
	}

	for i := range spec.Events {
		w.scheduleEvent(&spec.Events[i], i)
	}
	// Checkpoints schedule after events so a checkpoint sharing an
	// instant with an event fires second and observes its consequences.
	for i := range spec.Checkpoints {
		w.scheduleCheckpoint(&spec.Checkpoints[i], i)
	}
	return w, nil
}

// admit joins one node to both planes and assigns its rack.
func (w *World) admit(caps *resource.NodeCaps) (*can.Node, error) {
	for try := 0; ; try++ {
		node, err := w.psim.JoinNode(w.space.NodePoint(caps), caps)
		if err == nil {
			w.track(node.ID, caps)
			return node, nil
		}
		if err != can.ErrDuplicatePoint || try >= 8 {
			return nil, err
		}
		caps.Virtual = w.redraw.Float64() * 0.999999
	}
}

// track registers an admitted node with the execution plane and the
// rack map. Racks are assigned round-robin in admission order, so a
// rack is a stable correlated-failure domain of the fleet.
func (w *World) track(id can.NodeID, caps *resource.NodeCaps) {
	w.cluster.AddNode(id, caps)
	w.rack[id] = w.nextRack
	w.nextRack = (w.nextRack + 1) % w.spec.Grid.Racks
	w.joins++
}

// submitNext draws the next workload job and places it.
func (w *World) submitNext(now sim.Time) (*exec.Job, sim.Duration) {
	j, gap := w.jgen.Next()
	j.Submitted = now
	w.place(j)
	return j, gap
}

func (w *World) place(j *exec.Job) {
	node, err := w.sched.Place(j)
	if err != nil {
		w.placeFailed++
		return
	}
	if err := w.cluster.Submit(j, node); err != nil {
		w.placeFailed++
		return
	}
	w.placed++
}

// requeue re-matches jobs displaced by an injected failure. Jobs no
// remaining node can satisfy are counted lost — never silently dropped.
func (w *World) requeue(orphans []*exec.Job) {
	for _, j := range orphans {
		node, err := w.sched.Place(j)
		if err != nil {
			w.lost++
			continue
		}
		if err := w.cluster.Submit(j, node); err != nil {
			w.lost++
			continue
		}
		w.requeued++
	}
}

// failNode injects one silent node failure: the protocol plane loses
// the host (repair runs after the liveness timeout), the execution
// plane drains its jobs, and the orphans are re-matched. The job
// conservation invariant is asserted immediately — a failure path that
// drops work is a scenario violation, not a silent statistic.
func (w *World) failNode(id can.NodeID) {
	// Overlay/protocol departure first, runtime drain second: the
	// ordering that cannot strand drained jobs on an overlay error.
	if err := w.psim.Fail(id); err != nil {
		w.violate("fail_node %d: %v", id, err)
		return
	}
	w.fails++
	delete(w.rack, id)
	w.requeue(w.cluster.RemoveNode(id))
	w.checkConservation(fmt.Sprintf("after fail of node %d", id))
}

func (w *World) checkConservation(when string) {
	if err := w.cluster.CheckConservation(); err != nil {
		w.violate("%s: %v", when, err)
	}
}

func (w *World) violate(format string, args ...any) {
	w.violations = append(w.violations, fmt.Sprintf(format, args...))
}

// aliveIDs returns the live host ids in ascending order.
func (w *World) aliveIDs() []can.NodeID { return w.psim.HostIDs() }

// pickVictims draws k distinct random victims from the live set,
// deterministically from the victim stream.
func (w *World) pickVictims(k int) []can.NodeID {
	ids := w.aliveIDs()
	if k > len(ids) {
		k = len(ids)
	}
	// Partial Fisher–Yates over the sorted id list.
	for i := 0; i < k; i++ {
		j := i + w.victims.Intn(len(ids)-i)
		ids[i], ids[j] = ids[j], ids[i]
	}
	return ids[:k]
}

// rackMembers returns the live members of one rack in ascending order.
func (w *World) rackMembers(rack int) []can.NodeID {
	var out []can.NodeID
	for _, id := range w.aliveIDs() {
		if w.rack[id] == rack {
			out = append(out, id)
		}
	}
	return out
}

func protoScheme(name string) proto.Scheme {
	switch name {
	case "vanilla":
		return proto.Vanilla
	case "adaptive":
		return proto.Adaptive
	default:
		return proto.Compact
	}
}

// Run executes the timeline to the horizon, evaluates the assertions
// and renders the deterministic report. It returns the result even when
// assertions fail; Violations is non-empty in that case.
func Run(spec *Spec) (*Result, error) { return RunSampled(spec, 0) }

// RunSampled is Run with an explicit telemetry sampling interval
// (0 = the 60 s default). The interval shapes only the exported
// stream (Result.Telemetry); the report — timeline rows, checkpoint
// values, metrics — is byte-identical for every interval.
func RunSampled(spec *Spec, sampleEvery sim.Duration) (*Result, error) {
	w, err := newWorld(spec, sampleEvery)
	if err != nil {
		return nil, err
	}
	if w.ssim != nil {
		// The sharded run loop drains all planes — global events fire
		// with every shard quiesced — and the pool shuts down before the
		// end-state sweep reads protocol state.
		w.ssim.RunUntil(sim.Time(spec.Duration))
		w.ssim.Close()
	} else {
		w.eng.RunUntil(sim.Time(spec.Duration))
	}
	w.assertEndState()
	return w.result(), nil
}
