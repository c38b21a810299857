// Package experiments contains one driver per figure in the paper's
// evaluation (Section V): the load-balancing comparisons of Figures 5
// and 6, the failure-resilience run of Figure 7, and the scalability
// sweep of Figure 8. Each driver returns structured results plus a
// plain-text rendering of the same rows/series the paper plots.
package experiments

import (
	"fmt"

	"hetgrid/internal/can"
	"hetgrid/internal/exec"
	"hetgrid/internal/metrics"
	"hetgrid/internal/metricsreg"
	"hetgrid/internal/resource"
	"hetgrid/internal/rng"
	"hetgrid/internal/sched"
	"hetgrid/internal/sim"
	"hetgrid/internal/spans"
	"hetgrid/internal/stats"
	"hetgrid/internal/trace"
	"hetgrid/internal/workload"
)

// SchemeName selects a matchmaking scheme for load-balancing runs.
type SchemeName string

// The three matchmakers compared in Figures 5 and 6.
const (
	CanHet  SchemeName = "can-het"
	CanHom  SchemeName = "can-hom"
	Central SchemeName = "central"
)

// LBSchemes lists the schemes in the order the figures present them.
var LBSchemes = []SchemeName{CanHet, CanHom, Central}

// LBConfig parameterizes one load-balancing simulation.
type LBConfig struct {
	Scheme           SchemeName
	Nodes            int
	Jobs             int
	GPUSlots         int // 2 → the 11-dimensional CAN of the evaluation
	MeanInterArrival sim.Duration
	ConstraintRatio  float64
	GPUJobFraction   float64
	StoppingFactor   float64
	Gamma            float64
	RefreshPeriod    sim.Duration
	Seed             int64
	// DisableVirtualSpread disables the virtual dimension's random job
	// coordinate (ablation): jobs then route with virtual coordinate 0.
	DisableVirtualSpread bool
	// ConcurrentGPUs generates accelerators that run multiple
	// simultaneous jobs — the paper's anticipated future GPUs — instead
	// of dedicated ones (extension experiment).
	ConcurrentGPUs bool
	// MeanFailGap is the mean time between node failures (exponential)
	// for the churn extension: a failed node's jobs are re-matched
	// (running work restarts from scratch, as a desktop grid restarts
	// preempted work) and a fresh node joins in its place, keeping the
	// population stationary. Zero, the paper's static population,
	// disables failures.
	MeanFailGap sim.Duration
	// Cancel, when non-nil, is polled at every event boundary of the
	// simulation loop; once it returns true the run stops and reports an
	// error wrapping ErrCanceled. ReplicateLB wires this to the sweep's
	// CancelFlag so a failing replica halts its in-flight siblings.
	Cancel func() bool
	// Metrics, when non-nil, is attached to the run's engine and samples
	// the standard grid gauge/counter set on the virtual clock.
	// Telemetry-only: results are byte-identical with or without it.
	Metrics *metrics.Plane
	// Trace, when non-nil, receives job lifecycle events and placement
	// spans (place.route / place.push / place.match).
	Trace trace.Recorder
}

// DefaultLBConfig returns the evaluation's setup: 1000 nodes, 20000
// jobs, 11-dimensional CAN, constraint ratio 0.8, 3 s inter-arrival.
func DefaultLBConfig(scheme SchemeName) LBConfig {
	return LBConfig{
		Scheme:           scheme,
		Nodes:            1000,
		Jobs:             20000,
		GPUSlots:         2,
		MeanInterArrival: 3 * sim.Second,
		ConstraintRatio:  0.8,
		GPUJobFraction:   0.4,
		StoppingFactor:   2,
		Gamma:            0.3,
		RefreshPeriod:    60 * sim.Second,
		Seed:             1,
	}
}

// LBResult holds the outcome of one load-balancing run.
type LBResult struct {
	Config    LBConfig
	WaitTimes *stats.Sample // seconds, one per completed job
	Placed    int
	Failed    int // jobs no node could satisfy
	Makespan  sim.Duration
	Sched     sched.Stats
	// Imbalance summarizes how evenly completed work (busy
	// core-seconds) spread across nodes.
	Imbalance Imbalance
	// Events is the run's own event-queue accounting.
	Events sim.Stats
	// Churn effects; all zero when MeanFailGap is zero.
	Fails    int
	Joins    int
	Requeued int // jobs displaced by a failure and re-matched
	Lost     int // displaced jobs no remaining node could satisfy
}

// Imbalance captures load-distribution quality across nodes.
type Imbalance struct {
	Gini        float64 // 0 = even, →1 = concentrated
	CV          float64 // coefficient of variation
	MaxOverMean float64 // classic imbalance factor (1 = even)
}

// validate rejects the parameter values the run cannot simulate, so a
// bad CLI flag becomes an error rather than a panic deep in the stack
// or a silently wrong run (a negative job count never reaches zero).
func (c *LBConfig) validate() error {
	if err := workload.CheckParams(c.Jobs, c.GPUSlots, c.MeanInterArrival, c.ConstraintRatio, c.GPUJobFraction); err != nil {
		return fmt.Errorf("experiments: %w", err)
	}
	if err := sched.CheckName(string(c.Scheme)); err != nil {
		return fmt.Errorf("experiments: %w", err)
	}
	switch {
	case c.Nodes < 0:
		return fmt.Errorf("experiments: node count %d is negative", c.Nodes)
	case !(c.StoppingFactor >= 0):
		return fmt.Errorf("experiments: stopping factor %g must be non-negative", c.StoppingFactor)
	case !(c.Gamma >= 0):
		return fmt.Errorf("experiments: contention coefficient %g must be non-negative", c.Gamma)
	case c.MeanFailGap < 0:
		return fmt.Errorf("experiments: mean failure gap %gs is negative", c.MeanFailGap.Seconds())
	}
	return nil
}

// RunLoadBalance executes one configuration to completion: it builds
// the grid, streams the job arrivals through the chosen matchmaker, and
// runs until every placed job has finished or, under churn, been lost.
func RunLoadBalance(cfg LBConfig) (*LBResult, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	eng := sim.New()
	space := resource.NewSpace(cfg.GPUSlots)
	ov := can.NewOverlay(space.Dims())
	cluster := exec.NewCluster(eng, exec.Config{Gamma: cfg.Gamma})

	// Population.
	ngen := workload.NewNodeGen(space, rng.Split(cfg.Seed, "nodes"))
	ngen.ConcurrentGPUs = cfg.ConcurrentGPUs
	redraw := rng.NewSplit(cfg.Seed, "virtual-redraw")
	join := func() error {
		caps := ngen.One()
		node, err := can.JoinRedraw(ov.Join, space, caps, redraw)
		if err != nil {
			return err
		}
		cluster.AddNode(node.ID, caps)
		return nil
	}
	for i := 0; i < cfg.Nodes; i++ {
		if err := join(); err != nil {
			return nil, fmt.Errorf("experiments: join node %d: %w", i, err)
		}
	}

	// Scheduler.
	ctx := sched.NewContext(eng, ov, cluster, space, cfg.Seed)
	ctx.StoppingFactor = cfg.StoppingFactor
	ctx.RefreshPeriod = cfg.RefreshPeriod
	ctx.DisableVirtualSpread = cfg.DisableVirtualSpread
	scheduler, err := sched.New(string(cfg.Scheme), ctx)
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	if cfg.Trace != nil {
		ctx.Probe = spans.New(eng, cfg.Trace)
	}
	if m := cfg.Metrics; m != nil {
		m.Attach(eng)
		metricsreg.RegisterGridGauges(m, ov, cluster, ctx.Agg, space.Dims(), cfg.GPUSlots)
		if st := sched.StatsOf(scheduler); st != nil {
			metricsreg.RegisterSchedCounters(m, st)
		}
		metricsreg.RegisterClusterCounters(m, cluster)
		m.Poke()
	}

	// Job stream.
	jgen := workload.NewJobGen(space, rng.Split(cfg.Seed, "jobs"))
	jgen.ConstraintRatio = cfg.ConstraintRatio
	jgen.MeanInterArrival = cfg.MeanInterArrival
	jgen.GPUJobFraction = cfg.GPUJobFraction

	res := &LBResult{Config: cfg, WaitTimes: &stats.Sample{}}
	place := func(j *exec.Job) bool {
		node, err := scheduler.Place(j)
		return err == nil && cluster.Submit(j, node) == nil
	}
	remaining := cfg.Jobs
	inFlight := 0 // placed, neither finished nor lost
	var arrive func(now sim.Time)
	arrive = func(now sim.Time) {
		if remaining == 0 {
			return
		}
		remaining--
		j, gap := jgen.Next()
		j.Submitted = now
		if cfg.Trace != nil {
			cfg.Trace.Record(trace.Event{T: now.Seconds(), Kind: trace.JobSubmit, Node: -1, Job: int64(j.ID)})
		}
		if place(j) {
			res.Placed++
			inFlight++
		} else {
			res.Failed++
		}
		if remaining > 0 {
			eng.After(gap, arrive)
		}
	}
	if cfg.Trace != nil {
		cluster.OnStart = func(j *exec.Job) {
			cfg.Trace.Record(trace.Event{
				T: eng.Now().Seconds(), Kind: trace.JobStart,
				Node: int64(j.RunNode), Job: int64(j.ID),
				Value: j.WaitTime().Seconds(),
			})
		}
	}
	var lastFinish sim.Time
	cluster.OnFinish = func(j *exec.Job) {
		res.WaitTimes.Add(j.WaitTime().Seconds())
		lastFinish = eng.Now()
		inFlight--
		if cfg.Trace != nil {
			cfg.Trace.Record(trace.Event{
				T: eng.Now().Seconds(), Kind: trace.JobFinish,
				Node: int64(j.RunNode), Job: int64(j.ID),
				Value: j.WaitTime().Seconds(),
			})
		}
	}
	eng.At(0, arrive)
	if cfg.MeanFailGap > 0 {
		// Failure process: fail a random node, re-match its jobs and admit
		// a replacement. It stops once every job has finished or been
		// lost, so the engine drains.
		churn := rng.NewSplit(cfg.Seed, "churnlb")
		nextFailure := func() sim.Duration { return sim.FromSeconds(churn.Exp(cfg.MeanFailGap.Seconds())) }
		var fail func(now sim.Time)
		fail = func(sim.Time) {
			if remaining == 0 && inFlight == 0 {
				return
			}
			if nodes := ov.Nodes(); len(nodes) > 2 {
				victim := nodes[churn.Intn(len(nodes))]
				// Overlay departure first: a rejected Leave must not strand
				// the victim's jobs outside the cluster's books.
				if _, err := ov.Leave(victim.ID); err == nil {
					res.Fails++
					for _, j := range cluster.RemoveNode(victim.ID) {
						if place(j) {
							res.Requeued++
						} else {
							res.Lost++
							inFlight--
						}
					}
					if join() == nil {
						res.Joins++
					}
				}
			}
			eng.After(nextFailure(), fail)
		}
		eng.After(nextFailure(), fail)
	}
	if cfg.Cancel == nil {
		eng.Run()
	} else {
		// Stepped run: the cancellation flag is polled between events, so
		// a canceled replica halts at the next event boundary instead of
		// simulating its full horizon.
		for {
			if cfg.Cancel() {
				return nil, fmt.Errorf("experiments: load-balance run (scheme %s, seed %d): %w",
					cfg.Scheme, cfg.Seed, ErrCanceled)
			}
			if !eng.Step() {
				break
			}
		}
	}

	// Makespan is the last job completion, not the drained-queue clock:
	// telemetry sampling appends aligned events past the last finish, and
	// eng.Now() would make the reported makespan depend on whether a
	// sampler was attached.
	res.Makespan = sim.Duration(lastFinish)
	var work []float64
	for _, n := range ov.Nodes() {
		if rt := cluster.Runtime(n.ID); rt != nil {
			work = append(work, rt.BusyCoreSeconds())
		}
	}
	res.Imbalance = Imbalance{
		Gini:        stats.Gini(work),
		CV:          stats.CoefficientOfVariation(work),
		MaxOverMean: stats.MaxOverMean(work),
	}
	if st := sched.StatsOf(scheduler); st != nil {
		res.Sched = *st
	}
	res.Events = eng.Stats()
	if res.WaitTimes.N()+res.Lost != res.Placed {
		return nil, fmt.Errorf("experiments: %d jobs placed but %d finished and %d lost",
			res.Placed, res.WaitTimes.N(), res.Lost)
	}
	return res, nil
}
