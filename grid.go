package hetgrid

import (
	"fmt"

	"hetgrid/internal/can"
	"hetgrid/internal/exec"
	"hetgrid/internal/resource"
	"hetgrid/internal/rng"
	"hetgrid/internal/sched"
	"hetgrid/internal/sim"
	"hetgrid/internal/trace"
	"hetgrid/internal/workload"
)

// Scheme selects the matchmaking algorithm.
type Scheme string

// The three matchmakers of the paper's evaluation.
const (
	// SchemeCanHet is the paper's contribution: heterogeneity-aware
	// decentralized matchmaking (Algorithm 1).
	SchemeCanHet Scheme = "can-het"
	// SchemeCanHom is the prior heterogeneity-oblivious decentralized
	// scheme, kept as a baseline.
	SchemeCanHom Scheme = "can-hom"
	// SchemeCentral is a greedy online centralized matchmaker with
	// global knowledge, an upper-bound comparator.
	SchemeCentral Scheme = "central"
)

// Options configures a Grid.
type Options struct {
	// GPUSlots is the number of distinct accelerator types the CAN can
	// express (0–3 give the paper's 5/8/11/14-dimensional CANs).
	// Default 2.
	GPUSlots int
	// Scheme picks the matchmaker. Default SchemeCanHet.
	Scheme Scheme
	// Seed drives all randomness. Default 1.
	Seed int64
	// Gamma is the CPU contention coefficient. Default 0.3.
	Gamma float64
	// StoppingFactor is Equation 4's SF. Default 2.
	StoppingFactor float64
	// RefreshSeconds is the aggregated-load refresh cadence (the
	// heartbeat period). Default 60.
	RefreshSeconds float64
}

func (o Options) withDefaults() Options {
	if o.GPUSlots == 0 {
		o.GPUSlots = 2
	}
	if o.Scheme == "" {
		o.Scheme = SchemeCanHet
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Gamma == 0 {
		o.Gamma = 0.3
	}
	if o.StoppingFactor == 0 {
		o.StoppingFactor = 2
	}
	if o.RefreshSeconds == 0 {
		o.RefreshSeconds = 60
	}
	return o
}

// NodeID identifies a node added to the grid.
type NodeID int64

// Grid is a simulated heterogeneous P2P desktop grid: a CAN overlay of
// nodes, a decentralized matchmaker, and an execution model with FIFO
// queues, dedicated accelerators and CPU contention. All methods are
// single-threaded; the grid advances virtual time only inside Run and
// RunFor.
type Grid struct {
	opts      Options
	eng       *sim.Engine
	space     *resource.Space
	ov        *can.Overlay
	cluster   *exec.Cluster
	ctx       *sched.Context
	scheduler sched.Scheduler
	virtuals  *rng.Stream
	jobs      []*JobHandle
	nextJob   exec.JobID
	tracer    *TraceBuffer
	metrics   *Metrics
}

// New creates an empty grid.
func New(opts Options) (*Grid, error) {
	opts = opts.withDefaults()
	if opts.GPUSlots < 0 || opts.GPUSlots > resource.MaxGPUSlots {
		return nil, fmt.Errorf("hetgrid: GPUSlots %d outside 0..%d", opts.GPUSlots, resource.MaxGPUSlots)
	}
	eng := sim.New()
	space := resource.NewSpace(opts.GPUSlots)
	ov := can.NewOverlay(space.Dims())
	cluster := exec.NewCluster(eng, exec.Config{Gamma: opts.Gamma})
	ctx := sched.NewContext(eng, ov, cluster, space, opts.Seed)
	ctx.StoppingFactor = opts.StoppingFactor
	ctx.RefreshPeriod = sim.FromSeconds(opts.RefreshSeconds)
	g := &Grid{
		opts:     opts,
		eng:      eng,
		space:    space,
		ov:       ov,
		cluster:  cluster,
		ctx:      ctx,
		virtuals: rng.NewSplit(opts.Seed, "grid.virtual"),
		nextJob:  1,
	}
	var err error
	if g.scheduler, err = sched.New(string(opts.Scheme), ctx); err != nil {
		return nil, fmt.Errorf("hetgrid: %w", err)
	}
	return g, nil
}

// AddNode admits a node to the overlay.
func (g *Grid) AddNode(spec NodeSpec) (NodeID, error) {
	caps, err := spec.toCaps(g.opts.GPUSlots, g.virtuals.Float64()*0.999999)
	if err != nil {
		return 0, err
	}
	return g.admit(caps)
}

// AddRandomNodes admits n nodes drawn from the synthetic population of
// the paper's evaluation (Section V-A): skewed-low desktop CPUs, 0–2
// GPUs of distinct types.
func (g *Grid) AddRandomNodes(n int) ([]NodeID, error) {
	gen := workload.NewNodeGen(g.space, rng.Split(g.opts.Seed, "grid.nodes"))
	ids := make([]NodeID, 0, n)
	for i := 0; i < n; i++ {
		id, err := g.admit(gen.One())
		if err != nil {
			return ids, err
		}
		ids = append(ids, id)
	}
	return ids, nil
}

// admit joins a node to the overlay and the cluster.
func (g *Grid) admit(caps *resource.NodeCaps) (NodeID, error) {
	node, err := can.JoinRedraw(g.ov.Join, g.space, caps, g.virtuals)
	if err != nil {
		return 0, err
	}
	g.cluster.AddNode(node.ID, caps)
	g.record(trace.NodeJoin, NodeID(node.ID), -1, 0)
	return NodeID(node.ID), nil
}

// RemoveNode withdraws a node from the grid: its CAN zone is taken over
// per the split-history plan, and any jobs queued or running on it are
// re-matched to other nodes (running jobs restart from scratch, as a
// desktop grid restarts preempted work). Jobs that no remaining node
// can satisfy are returned as lost handles; their status stays queued.
func (g *Grid) RemoveNode(id NodeID) (requeued, lost []*JobHandle, err error) {
	if g.ov.Node(can.NodeID(id)) == nil {
		return nil, nil, fmt.Errorf("hetgrid: unknown node %d", id)
	}
	// Leave the overlay before draining the runtime: if the overlay
	// rejects the departure we have mutated nothing, whereas draining
	// first would strand the orphaned jobs — removed from the cluster's
	// books but never re-matched — on the error return.
	if _, err := g.ov.Leave(can.NodeID(id)); err != nil {
		return nil, nil, err
	}
	orphans := g.cluster.RemoveNode(can.NodeID(id))
	g.record(trace.NodeLeave, id, -1, float64(len(orphans)))
	for _, j := range orphans {
		h := g.handleFor(j)
		node, perr := g.scheduler.Place(j)
		if perr != nil {
			g.record(trace.JobLost, id, int64(j.ID), 0)
			lost = append(lost, h)
			continue
		}
		g.record(trace.JobRequeue, NodeID(node), int64(j.ID), 0)
		if serr := g.cluster.Submit(j, node); serr != nil {
			g.record(trace.JobLost, id, int64(j.ID), 0)
			lost = append(lost, h)
			continue
		}
		requeued = append(requeued, h)
	}
	g.pokeMetrics()
	return requeued, lost, nil
}

func (g *Grid) handleFor(j *exec.Job) *JobHandle {
	for _, h := range g.jobs {
		if h.job == j {
			return h
		}
	}
	return &JobHandle{job: j}
}

// Nodes returns the number of live nodes.
func (g *Grid) Nodes() int { return g.ov.Len() }

// Dims returns the CAN dimensionality.
func (g *Grid) Dims() int { return g.space.Dims() }

// Submit matches a job to a run node at the current virtual time and
// queues it there. The returned handle tracks the job through the
// simulation.
func (g *Grid) Submit(spec JobSpec) (*JobHandle, error) {
	req, err := spec.toReq(g.opts.GPUSlots)
	if err != nil {
		return nil, err
	}
	j := &exec.Job{
		ID:           g.nextJob,
		Req:          req,
		Dominant:     resource.DominantCE(req),
		BaseDuration: sim.FromSeconds(spec.DurationHours * 3600),
		Submitted:    g.eng.Now(),
	}
	g.nextJob++
	node, err := g.scheduler.Place(j)
	if err != nil {
		return nil, err
	}
	g.record(trace.JobSubmit, NodeID(node), int64(j.ID), 0)
	if err := g.cluster.Submit(j, node); err != nil {
		return nil, err
	}
	h := &JobHandle{job: j}
	g.jobs = append(g.jobs, h)
	g.pokeMetrics()
	return h, nil
}

// RunFor advances virtual time by the given number of seconds,
// executing queued work.
func (g *Grid) RunFor(seconds float64) {
	g.eng.RunUntil(g.eng.Now().Add(sim.FromSeconds(seconds)))
}

// Run executes until all submitted jobs have finished.
func (g *Grid) Run() { g.eng.Run() }

// NowSeconds returns the current virtual time in seconds.
func (g *Grid) NowSeconds() float64 { return g.eng.Now().Seconds() }

// Jobs returns handles for every submitted job, in submission order.
func (g *Grid) Jobs() []*JobHandle { return append([]*JobHandle(nil), g.jobs...) }

// SchedulerName reports the active matchmaker.
func (g *Grid) SchedulerName() string { return g.scheduler.Name() }
