package experiments

import (
	"fmt"
	"io"

	"hetgrid/internal/proto"
	"hetgrid/internal/sim"
	"hetgrid/internal/stats"
)

// The ablations probe design choices the paper states but does not
// sweep: the stopping factor SF (Equation 4), the virtual dimension's
// load-spreading role (Section II-B), aggregated-load staleness (the
// heartbeat refresh period), the contention coefficient, the graceful
// vs silent departure mix, and the extension to concurrent-kernel GPUs
// the paper anticipates. Each produces one table.

// ablationLB runs one scaled configuration, can-het unless tweak picks
// another scheme, and returns its result.
func ablationLB(scale Scale, seed int64, tweak func(*LBConfig)) (*LBResult, error) {
	cfg := DefaultLBConfig(CanHet)
	cfg.Nodes = scale.nodes(cfg.Nodes)
	cfg.Jobs = scale.jobs(cfg.Jobs)
	cfg.MeanInterArrival = sim.Duration(float64(cfg.MeanInterArrival) / float64(scale))
	cfg.Seed = seed
	tweak(&cfg)
	return RunLoadBalance(cfg)
}

func lbRow(tab *stats.Table, label string, r *LBResult) {
	tab.AddRow(label,
		fmt.Sprintf("%.0f", r.WaitTimes.Mean()),
		fmt.Sprintf("%.0f", r.WaitTimes.Quantile(0.9)),
		fmt.Sprintf("%.0f", r.WaitTimes.Quantile(0.99)),
		fmt.Sprintf("%.1f%%", 100*r.WaitTimes.CDF(0)),
		r.Sched.PushHops,
		r.Failed)
}

// AblationStoppingFactor sweeps Equation 4's SF: low factors push jobs
// far (more hops, better spreading), high factors stop early.
func AblationStoppingFactor(w io.Writer, scale Scale, seed int64) error {
	fmt.Fprintln(w, "Ablation: stopping factor SF (Equation 4), can-het")
	tab := stats.NewTable("SF", "mean(s)", "p90(s)", "p99(s)", "zero-wait", "push-hops", "failed")
	for _, sf := range []float64{0.5, 1, 2, 4, 8} {
		r, err := ablationLB(scale, seed, func(cfg *LBConfig) { cfg.StoppingFactor = sf })
		if err != nil {
			return err
		}
		lbRow(tab, fmt.Sprintf("%.1f", sf), r)
	}
	tab.Fprint(w)
	return nil
}

// AblationVirtualDimension compares routing with and without the
// virtual dimension's random job coordinate.
func AblationVirtualDimension(w io.Writer, scale Scale, seed int64) error {
	fmt.Fprintln(w, "Ablation: virtual-dimension load spreading, can-het")
	tab := stats.NewTable("virtual", "mean(s)", "p90(s)", "p99(s)", "zero-wait", "push-hops", "failed")
	for _, off := range []bool{false, true} {
		r, err := ablationLB(scale, seed, func(cfg *LBConfig) { cfg.DisableVirtualSpread = off })
		if err != nil {
			return err
		}
		label := "random"
		if off {
			label = "disabled"
		}
		lbRow(tab, label, r)
	}
	tab.Fprint(w)
	return nil
}

// AblationStaleness sweeps the aggregated-load refresh period: longer
// periods mean staler Equation 3 inputs.
func AblationStaleness(w io.Writer, scale Scale, seed int64) error {
	fmt.Fprintln(w, "Ablation: aggregated-load staleness (refresh period), can-het")
	tab := stats.NewTable("period(s)", "mean(s)", "p90(s)", "p99(s)", "zero-wait", "push-hops", "failed")
	for _, p := range []sim.Duration{15 * sim.Second, 60 * sim.Second, 240 * sim.Second, 960 * sim.Second} {
		r, err := ablationLB(scale, seed, func(cfg *LBConfig) { cfg.RefreshPeriod = p })
		if err != nil {
			return err
		}
		lbRow(tab, fmt.Sprintf("%.0f", p.Seconds()), r)
	}
	tab.Fprint(w)
	return nil
}

// AblationContention sweeps the CPU contention coefficient gamma.
func AblationContention(w io.Writer, scale Scale, seed int64) error {
	fmt.Fprintln(w, "Ablation: contention coefficient gamma, can-het")
	tab := stats.NewTable("gamma", "mean(s)", "p90(s)", "p99(s)", "zero-wait", "push-hops", "failed")
	for _, g := range []float64{0, 0.3, 0.6, 1.0} {
		r, err := ablationLB(scale, seed, func(cfg *LBConfig) { cfg.Gamma = g })
		if err != nil {
			return err
		}
		lbRow(tab, fmt.Sprintf("%.1f", g), r)
	}
	tab.Fprint(w)
	return nil
}

// AblationConcurrentGPUs compares the evaluation's dedicated GPUs with
// the concurrent-kernel GPUs the paper anticipates, under each
// decentralized scheme.
func AblationConcurrentGPUs(w io.Writer, scale Scale, seed int64) error {
	fmt.Fprintln(w, "Extension: dedicated vs concurrent-kernel GPUs")
	tab := stats.NewTable("scheme", "GPUs", "mean(s)", "p90(s)", "p99(s)", "zero-wait", "push-hops", "failed")
	for _, scheme := range []SchemeName{CanHet, CanHom} {
		for _, conc := range []bool{false, true} {
			cfg := DefaultLBConfig(scheme)
			cfg.Nodes = scale.nodes(cfg.Nodes)
			cfg.Jobs = scale.jobs(cfg.Jobs)
			cfg.MeanInterArrival = sim.Duration(float64(cfg.MeanInterArrival) / float64(scale))
			cfg.Seed = seed
			cfg.ConcurrentGPUs = conc
			r, err := RunLoadBalance(cfg)
			if err != nil {
				return err
			}
			label := "dedicated"
			if conc {
				label = "concurrent"
			}
			tab.AddRow(string(scheme), label,
				fmt.Sprintf("%.0f", r.WaitTimes.Mean()),
				fmt.Sprintf("%.0f", r.WaitTimes.Quantile(0.9)),
				fmt.Sprintf("%.0f", r.WaitTimes.Quantile(0.99)),
				fmt.Sprintf("%.1f%%", 100*r.WaitTimes.CDF(0)),
				r.Sched.PushHops,
				r.Failed)
		}
	}
	tab.Fprint(w)
	return nil
}

// AblationNeighborBound compares bounded per-face neighbor tracking
// (the default, DESIGN.md §3) against full face-sharing adjacency: the
// maintenance cost of the unbounded CAN in the evaluation's n ≪ 2^d
// regime is what motivates the bound.
func AblationNeighborBound(w io.Writer, scale Scale, seed int64) error {
	fmt.Fprintln(w, "Ablation: bounded vs full neighbor tracking (vanilla, 11-dim CAN)")
	tab := stats.NewTable("tracking", "msgs/node/min", "KB/node/min", "avg-gt-neighbors")
	for _, bound := range []int{1, 2, -1} {
		cfg := DefaultScalabilityConfig(proto.Vanilla, 11, scale.nodes(1000))
		cfg.Warmup = scale.dur(cfg.Warmup)
		cfg.Measure = scale.dur(cfg.Measure)
		cfg.Seed = seed
		cfg.MaxPerFace = bound
		r := RunScalability(cfg)
		label := fmt.Sprintf("per-face %d", bound)
		if bound < 0 {
			label = "full adjacency"
		}
		tab.AddRow(label,
			fmt.Sprintf("%.1f", r.MsgsPerNodeMin),
			fmt.Sprintf("%.1f", r.KBytesPerNodeMin),
			fmt.Sprintf("%.1f", r.AvgNeighbors))
	}
	tab.Fprint(w)
	return nil
}

// AblationFailureFraction sweeps the graceful-leave vs silent-failure
// mix under high churn and reports mean broken links per scheme.
func AblationFailureFraction(w io.Writer, scale Scale, seed int64) error {
	fmt.Fprintln(w, "Ablation: silent-failure fraction under high churn (mean broken links)")
	tab := stats.NewTable("fail-fraction", "vanilla", "compact", "adaptive")
	for _, ff := range []float64{0, 0.5, 1} {
		row := []any{fmt.Sprintf("%.0f%%", ff*100)}
		for _, scheme := range MaintSchemes {
			cfg := DefaultResilienceConfig(scheme)
			cfg.Nodes = scale.nodes(cfg.Nodes)
			cfg.Horizon = scale.dur(cfg.Horizon)
			cfg.SampleEvery = scale.dur(cfg.SampleEvery)
			cfg.FailFraction = ff
			cfg.Seed = seed
			row = append(row, fmt.Sprintf("%.1f", RunResilience(cfg).MeanBroken()))
		}
		tab.AddRow(row...)
	}
	tab.Fprint(w)
	return nil
}

// AblationChurnLB runs the two planes the paper evaluates separately
// together: it sweeps the node-failure rate under a flowing job stream.
// The cost of churn shows up as restarts (requeued work) and longer
// waits, and can-het's advantage over can-hom persists.
func AblationChurnLB(w io.Writer, scale Scale, seed int64) error {
	fmt.Fprintln(w, "Extension: load balancing under node churn (mean wait seconds)")
	tab := stats.NewTable("mean-fail-gap", "scheme", "mean(s)", "p99(s)", "requeued", "lost", "fails")
	for _, gap := range []sim.Duration{0, 600 * sim.Second, 120 * sim.Second} {
		for _, scheme := range []SchemeName{CanHet, CanHom} {
			r, err := ablationLB(scale, seed, func(cfg *LBConfig) {
				cfg.Scheme = scheme
				cfg.MeanFailGap = gap
			})
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

// Ablations runs the full suite.
func Ablations(w io.Writer, scale Scale, seed int64) error {
	for _, f := range []func(io.Writer, Scale, int64) error{
		AblationStoppingFactor,
		AblationVirtualDimension,
		AblationStaleness,
		AblationContention,
		AblationConcurrentGPUs,
		AblationNeighborBound,
		AblationFailureFraction,
		AblationChurnLB,
	} {
		if err := f(w, scale, seed); err != nil {
			return err
		}
		fmt.Fprintln(w)
	}
	return nil
}
