package experiments

import (
	"fmt"
	"io"

	"hetgrid/internal/metrics"
	"hetgrid/internal/proto"
)

// FigureSharded runs one adaptive Figure 8 cell on the sharded
// simulation core with telemetry attached — the smoke-test driver for
// telemetry on the sharded engine (`figures -fig sharded`). The plane
// carries the serial Figure 8 registrations, sampled at window barriers
// over readers that sum per-shard state in shard order. Shards and
// workers follow GOMAXPROCS; by the engine's determinism contract,
// neither the printed cell nor the exported stream depends on that
// choice, so the output is a pure function of (scale, seed).
func FigureSharded(w io.Writer, scale Scale, seed int64, m *metrics.Plane) (*ScalabilityResult, error) {
	cfg := DefaultScalabilityConfig(proto.Adaptive, 5, scale.nodes(1000))
	cfg.Warmup = scale.dur(cfg.Warmup)
	cfg.Measure = scale.dur(cfg.Measure)
	cfg.Seed = seed
	cfg.Metrics = m
	res := RunScalabilitySharded(cfg, 0, 0)
	// The figure text never mentions telemetry: output stays
	// byte-identical with the plane on or off, like every other figure.
	fmt.Fprintf(w, "sharded core: %s\n", res)
	return res, nil
}
