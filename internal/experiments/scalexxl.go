package experiments

import "hetgrid/internal/sim"

// ScaleXXLNodes is the population of the churn-regime scaling
// configuration: two orders of magnitude past the paper's 1000-node
// evaluation. At this size any O(n) response to a single membership
// event dominates the run, so the configuration exists to exercise —
// and the `make bench-xxl` smoke to enforce — the incremental churn
// path: delta-maintained snapshots, stamp-synchronized aggregation
// orders and binary-search candidate-index splices.
const ScaleXXLNodes = 100000

// ScaleXXLLBConfig returns the 100,000-node load-balance configuration
// behind `make bench-xxl`. It is DefaultLBConfig stretched to
// ScaleXXLNodes with the arrival rate scaled by the same population
// factor (MeanInterArrival 3 s → 30 ms), keeping the per-node arrival
// density at the evaluation's operating point. Jobs stays at the
// caller's discretion: the bench smoke lowers it so one full run fits
// a CI budget while still pushing every placement and aggregation
// structure to six-figure population.
func ScaleXXLLBConfig(scheme SchemeName) LBConfig {
	cfg := DefaultLBConfig(scheme)
	cfg.Nodes = ScaleXXLNodes
	cfg.MeanInterArrival = 30 * sim.Millisecond
	return cfg
}
