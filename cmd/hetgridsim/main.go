// Command hetgridsim runs one load-balancing simulation with custom
// parameters and prints the job wait-time distribution — the quickest
// way to explore the matchmaking schemes outside the fixed figure
// configurations.
//
//	hetgridsim -scheme can-het -nodes 500 -jobs 5000 -arrival 3
//	hetgridsim -scheme can-hom -constraint 0.6 -gpuslots 3
//	hetgridsim -nodes 200 -jobs 2000 -metrics m.jsonl -trace t.jsonl
//
// The `run` and `validate` subcommands execute declarative scenario
// files (fault injection + end-state assertions, see internal/scenario
// and examples/scenarios/); `run` exits non-zero when an assertion
// fails:
//
//	hetgridsim run examples/scenarios/rack_failure.yaml
//	hetgridsim validate examples/scenarios/*.yaml
//
// -metrics samples per-node gauges and scheduler counters on the
// virtual clock and writes them as JSONL; -trace records the job
// lifecycle plus placement spans (route/push/match) for cmd/traceview.
// Both are telemetry-only: the printed results are identical with or
// without them. -perfstats prints the run's own event-queue counts
// (sim.Stats) to stderr; -pprof writes a CPU profile.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"hetgrid/internal/experiments"
	"hetgrid/internal/metrics"
	"hetgrid/internal/perf"
	"hetgrid/internal/resource"
	"hetgrid/internal/sim"
	"hetgrid/internal/stats"
	"hetgrid/internal/trace"
)

func main() {
	if dispatchScenario(os.Args[1:]) {
		return
	}
	scheme := flag.String("scheme", "can-het", "matchmaker: can-het, can-hom or central")
	nodes := flag.Int("nodes", 1000, "grid population")
	jobs := flag.Int("jobs", 20000, "jobs to submit")
	arrival := flag.Float64("arrival", 3, "mean job inter-arrival time in seconds")
	constraint := flag.Float64("constraint", 0.8, "job constraint ratio (0..1)")
	gpuslots := flag.Int("gpuslots", 2, "accelerator type slots (0..3 give 5/8/11/14-dim CANs)")
	gpufrac := flag.Float64("gpufrac", 0.4, "fraction of GPU-dominant jobs")
	sf := flag.Float64("sf", 2, "stopping factor (Equation 4)")
	gamma := flag.Float64("gamma", 0.3, "CPU contention coefficient")
	seed := flag.Int64("seed", 1, "random seed")
	seeds := flag.Int("seeds", 1, "replicate over this many consecutive seeds (parallel) and report mean±std")
	metricsPath := flag.String("metrics", "", "write sampled telemetry (JSONL) to this file")
	metricsEvery := flag.Float64("metrics-interval", 60, "telemetry sampling interval in virtual seconds")
	tracePath := flag.String("trace", "", "write the event trace with placement spans (JSONL) to this file")
	pprofPath := flag.String("pprof", "", "write a CPU profile to this file")
	perfStats := flag.Bool("perfstats", false, "print the run's event-queue stats (scheduled, fired, cancelled) to stderr")
	flag.Parse()

	stopProfile, err := perf.StartCPUProfile(*pprofPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hetgridsim:", err)
		os.Exit(1)
	}
	defer func() {
		if err := stopProfile(); err != nil {
			fmt.Fprintln(os.Stderr, "hetgridsim: stopping cpu profile:", err)
		}
	}()

	cfg := experiments.LBConfig{
		Scheme:           experiments.SchemeName(*scheme),
		Nodes:            *nodes,
		Jobs:             *jobs,
		GPUSlots:         *gpuslots,
		MeanInterArrival: sim.FromSeconds(*arrival),
		ConstraintRatio:  *constraint,
		GPUJobFraction:   *gpufrac,
		StoppingFactor:   *sf,
		Gamma:            *gamma,
		RefreshPeriod:    60 * sim.Second,
		Seed:             *seed,
	}
	if *seeds > 1 {
		if *metricsPath != "" || *tracePath != "" || *perfStats {
			fmt.Fprintln(os.Stderr, "hetgridsim: -metrics/-trace/-perfstats apply to single runs only; ignored with -seeds > 1")
		}
		rep, err := experiments.ReplicateLB(cfg, *seeds, func(r *experiments.LBResult) float64 {
			return r.WaitTimes.Mean()
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "hetgridsim:", err)
			os.Exit(1)
		}
		fmt.Printf("scheme=%s nodes=%d jobs=%d seeds=%d\n", cfg.Scheme, cfg.Nodes, cfg.Jobs, *seeds)
		fmt.Printf("mean job wait across seeds: %.0fs ± %.0fs (per-seed: %v)\n",
			rep.Mean, rep.StdDev, fmtMeans(rep.Means))
		return
	}

	var plane *metrics.Plane
	if *metricsPath != "" {
		plane = metrics.New(sim.FromSeconds(*metricsEvery), 0)
		cfg.Metrics = plane
	}
	var tbuf *trace.Buffer
	if *tracePath != "" {
		tbuf = &trace.Buffer{}
		cfg.Trace = tbuf
	}

	res, err := experiments.RunLoadBalance(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hetgridsim:", err)
		os.Exit(1)
	}
	if plane != nil {
		if err := writeJSONL(*metricsPath, func(w io.Writer) error { return plane.WriteJSONL(w, "") }); err != nil {
			fmt.Fprintln(os.Stderr, "hetgridsim:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "hetgridsim: wrote %d metric points to %s\n", plane.Len(), *metricsPath)
	}
	if tbuf != nil {
		if err := writeJSONL(*tracePath, tbuf.WriteJSONL); err != nil {
			fmt.Fprintln(os.Stderr, "hetgridsim:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "hetgridsim: wrote %d trace events to %s\n", tbuf.Len(), *tracePath)
	}
	if *perfStats {
		ev := res.Events
		fmt.Fprintf(os.Stderr, "hetgridsim: events scheduled=%d fired=%d cancelled=%d\n", ev.Scheduled, ev.Fired, ev.Cancelled)
	}

	fmt.Printf("scheme=%s nodes=%d jobs=%d dims=%d arrival=%.1fs constraint=%.0f%%\n",
		cfg.Scheme, cfg.Nodes, cfg.Jobs, resource.NewSpace(cfg.GPUSlots).Dims(), *arrival, *constraint*100)
	fmt.Printf("placed=%d failed=%d makespan=%.0fs\n", res.Placed, res.Failed, res.Makespan.Seconds())
	fmt.Printf("matchmaking: %v\n\n", res.Sched)

	w := res.WaitTimes
	fmt.Printf("job wait time: mean=%.0fs median=%.0fs p90=%.0fs p99=%.0fs max=%.0fs zero-wait=%.1f%%\n\n",
		w.Mean(), w.Quantile(0.5), w.Quantile(0.9), w.Quantile(0.99), w.Max(), 100*w.CDF(0))

	tab := stats.NewTable("wait<=s", "jobs(%)")
	for _, x := range stats.Grid(50000, 10) {
		tab.AddRow(fmt.Sprintf("%.0f", x), fmt.Sprintf("%.2f", 100*w.CDF(x)))
	}
	tab.Fprint(os.Stdout)
}

func writeJSONL(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func fmtMeans(vs []float64) string {
	out := "["
	for i, v := range vs {
		if i > 0 {
			out += " "
		}
		out += fmt.Sprintf("%.0f", v)
	}
	return out + "]"
}
