package experiments

import "hetgrid/internal/sim"

// ScaleXXXLNodes is the population of the million-node scaling
// configuration: three orders of magnitude past the paper's 1000-node
// evaluation, the regime the sharded simulation core exists for. At
// this size even O(log n) per-event work adds up, so the configuration
// exercises — and the `make bench-xxxl` smoke enforces — the end-to-end
// composition of every incremental path at once: delta-maintained
// snapshots, stamp-synchronized aggregation orders and candidate-index
// splices.
const ScaleXXXLNodes = 1000000

// ScaleXXXLLBConfig returns the 1,000,000-node load-balance
// configuration behind `make bench-xxxl`. It is DefaultLBConfig
// stretched to ScaleXXXLNodes with the arrival rate scaled by the same
// population factor (MeanInterArrival 3 s → 3 ms), keeping the per-node
// arrival density at the evaluation's operating point. Jobs stays at
// the caller's discretion, as with ScaleXXLLBConfig.
func ScaleXXXLLBConfig(scheme SchemeName) LBConfig {
	cfg := DefaultLBConfig(scheme)
	cfg.Nodes = ScaleXXXLNodes
	cfg.MeanInterArrival = 3 * sim.Millisecond
	return cfg
}
