package experiments

import (
	"fmt"
	"io"

	"hetgrid/internal/can"
	"hetgrid/internal/exec"
	"hetgrid/internal/metricsreg"
	"hetgrid/internal/resource"
	"hetgrid/internal/rng"
	"hetgrid/internal/sched"
	"hetgrid/internal/sim"
	"hetgrid/internal/spans"
	"hetgrid/internal/stats"
	"hetgrid/internal/workload"
)

// The paper evaluates the two planes separately: load balancing on a
// static population (Figures 5–6) and membership maintenance without
// jobs (Figures 7–8). This extension runs them together: nodes fail and
// join while the job stream flows, failed nodes' jobs are re-matched
// (running work restarts from scratch, as a desktop grid restarts
// preempted work), and the cost shows up as extra waiting.

// ChurnLBConfig parameterizes a load-balancing run under churn.
type ChurnLBConfig struct {
	LB LBConfig
	// MeanFailGap is the mean time between node failures (exponential).
	// Each failure is paired with a join of a fresh node, keeping the
	// population stationary. Zero disables churn.
	MeanFailGap sim.Duration
}

// ChurnLBResult extends the load-balancing outcome with churn effects.
type ChurnLBResult struct {
	*LBResult
	Fails    int
	Joins    int
	Requeued int // jobs displaced by a failure and re-matched
	Lost     int // displaced jobs no remaining node could satisfy
}

// RunChurnLB executes a load-balancing run with node failures.
func RunChurnLB(cfg ChurnLBConfig) (*ChurnLBResult, error) {
	lb := cfg.LB
	if err := lb.validate(); err != nil {
		return nil, err
	}
	eng := sim.New()
	space := resource.NewSpace(lb.GPUSlots)
	ov := can.NewOverlay(space.Dims())
	cluster := exec.NewCluster(eng, exec.Config{Gamma: lb.Gamma})

	ngen := workload.NewNodeGen(space, rng.Split(lb.Seed, "nodes"))
	ngen.ConcurrentGPUs = lb.ConcurrentGPUs
	redraw := rng.NewSplit(lb.Seed, "virtual-redraw")
	join := func() error {
		caps := ngen.One()
		for try := 0; ; try++ {
			node, err := ov.Join(space.NodePoint(caps), caps)
			if err == nil {
				cluster.AddNode(node.ID, caps)
				return nil
			}
			if try >= 8 {
				return err
			}
			caps.Virtual = redraw.Float64() * 0.999999
		}
	}
	for i := 0; i < lb.Nodes; i++ {
		if err := join(); err != nil {
			return nil, fmt.Errorf("experiments: initial join %d: %w", i, err)
		}
	}

	ctx := sched.NewContext(eng, ov, cluster, space, lb.Seed)
	ctx.StoppingFactor = lb.StoppingFactor
	ctx.RefreshPeriod = lb.RefreshPeriod
	ctx.DisableVirtualSpread = lb.DisableVirtualSpread
	var scheduler sched.Scheduler
	switch lb.Scheme {
	case CanHet:
		scheduler = sched.NewCanHet(ctx)
	case CanHom:
		scheduler = sched.NewCanHom(ctx)
	case Central:
		scheduler = sched.NewCentral(ctx)
	default:
		return nil, fmt.Errorf("experiments: unknown scheme %q", lb.Scheme)
	}
	if lb.Trace != nil {
		ctx.Probe = spans.New(eng, lb.Trace)
	}
	if m := lb.Metrics; m != nil {
		m.Attach(eng)
		metricsreg.RegisterGridGauges(m, ov, cluster, ctx.Agg, space.Dims(), lb.GPUSlots)
		if st := sched.StatsOf(scheduler); st != nil {
			metricsreg.RegisterSchedCounters(m, st)
		}
		metricsreg.RegisterClusterCounters(m, cluster)
		m.Poke()
	}

	jgen := workload.NewJobGen(space, rng.Split(lb.Seed, "jobs"))
	jgen.ConstraintRatio = lb.ConstraintRatio
	jgen.MeanInterArrival = lb.MeanInterArrival
	jgen.GPUJobFraction = lb.GPUJobFraction

	res := &ChurnLBResult{LBResult: &LBResult{Config: lb, WaitTimes: &stats.Sample{}}}
	churnRnd := rng.NewSplit(lb.Seed, "churnlb")
	remaining := lb.Jobs
	inFlight := 0

	// Node failure process: fail a random node, re-match its jobs, and
	// admit a replacement. Stops once the job stream has drained so the
	// run terminates.
	jobsDone := false
	var failEvent func(now sim.Time)
	failEvent = func(now sim.Time) {
		if jobsDone {
			return
		}
		nodes := ov.Nodes()
		if len(nodes) > 2 {
			victim := nodes[churnRnd.Intn(len(nodes))]
			// Overlay departure first: a rejected Leave must not strand
			// the victim's jobs outside the cluster's books.
			if _, err := ov.Leave(victim.ID); err == nil {
				orphans := cluster.RemoveNode(victim.ID)
				res.Fails++
				for _, j := range orphans {
					node, perr := scheduler.Place(j)
					if perr != nil {
						res.Lost++
						inFlight-- // will never finish
						continue
					}
					if cluster.Submit(j, node) != nil {
						res.Lost++
						inFlight--
						continue
					}
					res.Requeued++
				}
				if join() == nil {
					res.Joins++
				}
			}
		}
		eng.After(sim.FromSeconds(churnRnd.Exp(cfg.MeanFailGap.Seconds())), failEvent)
	}

	var arrive func(now sim.Time)
	arrive = func(now sim.Time) {
		if remaining == 0 {
			return
		}
		remaining--
		j, gap := jgen.Next()
		j.Submitted = now
		node, err := scheduler.Place(j)
		if err != nil {
			res.Failed++
		} else if err := cluster.Submit(j, node); err != nil {
			res.Failed++
		} else {
			res.Placed++
			inFlight++
		}
		if remaining > 0 {
			eng.After(gap, arrive)
		}
	}
	var lastFinish sim.Time
	cluster.OnFinish = func(j *exec.Job) {
		res.WaitTimes.Add(j.WaitTime().Seconds())
		lastFinish = eng.Now()
		inFlight--
		if remaining == 0 && inFlight == 0 {
			jobsDone = true // stops the failure process; engine drains
		}
	}
	eng.At(0, arrive)
	if cfg.MeanFailGap > 0 {
		eng.After(sim.FromSeconds(churnRnd.Exp(cfg.MeanFailGap.Seconds())), failEvent)
	}
	eng.Run()

	// Last completion, not eng.Now(): telemetry events may outlive the
	// final finish (see RunLoadBalance).
	res.Makespan = sim.Duration(lastFinish)
	return res, nil
}

// AblationChurnLB sweeps the node-failure rate under a flowing job
// stream: the cost of churn shows up as restarts (requeued work) and
// longer waits, and can-het's advantage over can-hom persists.
func AblationChurnLB(w io.Writer, scale Scale, seed int64) error {
	fmt.Fprintln(w, "Extension: load balancing under node churn (mean wait seconds)")
	tab := stats.NewTable("mean-fail-gap", "scheme", "mean(s)", "p99(s)", "requeued", "lost", "fails")
	for _, gap := range []sim.Duration{0, 600 * sim.Second, 120 * sim.Second} {
		for _, scheme := range []SchemeName{CanHet, CanHom} {
			lb := DefaultLBConfig(scheme)
			lb.Nodes = scale.nodes(lb.Nodes)
			lb.Jobs = scale.jobs(lb.Jobs)
			lb.MeanInterArrival = sim.Duration(float64(lb.MeanInterArrival) / float64(scale))
			lb.Seed = seed
			r, err := RunChurnLB(ChurnLBConfig{LB: lb, MeanFailGap: gap})
			if err != nil {
				return err
			}
			label := "none"
			if gap > 0 {
				label = fmt.Sprintf("%.0fs", gap.Seconds())
			}
			tab.AddRow(label, string(scheme),
				fmt.Sprintf("%.0f", r.WaitTimes.Mean()),
				fmt.Sprintf("%.0f", r.WaitTimes.Quantile(0.99)),
				r.Requeued, r.Lost, r.Fails)
		}
	}
	tab.Fprint(w)
	return nil
}
