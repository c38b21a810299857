package experiments

import (
	"bytes"
	"runtime"
	"testing"

	"hetgrid/internal/proto"
	"hetgrid/internal/sim"
)

// TestGoldenHBVolume locks the heartbeat-volume figure to a golden
// byte stream (same determinism contract as the other figures).
// Regenerate with: go test ./internal/experiments -run GoldenHB -update
func TestGoldenHBVolume(t *testing.T) {
	var buf bytes.Buffer
	if _, err := FigureHB(&buf, goldenScale, 1, nil); err != nil {
		t.Fatalf("FigureHB: %v", err)
	}
	checkGolden(t, "golden_hbvolume.txt", buf.Bytes())
}

// TestMetricsByteIdentity is the telemetry plane's central contract:
// attaching metrics to every simulation of a figure must not change a
// single output byte, while the collector itself must actually have
// sampled something.
func TestMetricsByteIdentity(t *testing.T) {
	var plain bytes.Buffer
	if _, err := FigureHB(&plain, goldenScale, 1, nil); err != nil {
		t.Fatalf("FigureHB without metrics: %v", err)
	}
	mc := &MetricsCollector{Interval: 30 * sim.Second}
	var metered bytes.Buffer
	if _, err := FigureHB(&metered, goldenScale, 1, mc); err != nil {
		t.Fatalf("FigureHB with metrics: %v", err)
	}
	if !bytes.Equal(plain.Bytes(), metered.Bytes()) {
		t.Fatalf("metrics changed figure output:\n%s", firstDiff(metered.Bytes(), plain.Bytes()))
	}
	if mc.Len() == 0 {
		t.Fatal("collector sampled nothing — the byte-identity check proved nothing")
	}
}

// TestMetricsByteIdentityLB repeats the contract on the scheduling
// side: a load-balancing run with gauges, scheduler counters, and
// placement-span tracing attached must report identical results.
func TestMetricsByteIdentityLB(t *testing.T) {
	base := func(mc *MetricsCollector) *LBResult {
		cfg := DefaultLBConfig(CanHet)
		cfg.Nodes = 40
		cfg.Jobs = 200
		cfg.MeanInterArrival = 40 * sim.Second
		cfg.Seed = 7
		cfg.Metrics = mc.Plane("lb")
		res, err := RunLoadBalance(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	plain := base(nil)
	mc := &MetricsCollector{Interval: 120 * sim.Second}
	metered := base(mc)
	if plain.Sched != metered.Sched || plain.Placed != metered.Placed ||
		plain.Makespan != metered.Makespan ||
		plain.WaitTimes.Mean() != metered.WaitTimes.Mean() ||
		plain.Imbalance != metered.Imbalance {
		t.Fatalf("metrics changed LB results:\nplain:   %+v sched=%v\nmetered: %+v sched=%v",
			plain.Imbalance, plain.Sched, metered.Imbalance, metered.Sched)
	}
	if mc.Len() == 0 {
		t.Fatal("collector sampled nothing")
	}
}

// TestSamplerParallelDeterminism: the collector's JSONL export must be
// byte-identical whether the sweep's cells run serially or across all
// cores (the sampler reads only its own run's state and export order
// is label-sorted).
func TestSamplerParallelDeterminism(t *testing.T) {
	render := func(workers int) []byte {
		mc := &MetricsCollector{Interval: 60 * sim.Second}
		type cell struct {
			scheme proto.Scheme
			dims   int
		}
		var cells []cell
		for _, scheme := range MaintSchemes {
			for _, dims := range []int{2, 8} {
				cells = append(cells, cell{scheme, dims})
			}
		}
		planes := make([]*ScalabilityConfig, len(cells))
		for i, c := range cells {
			cfg := DefaultScalabilityConfig(c.scheme, c.dims, 40)
			cfg.Warmup = 2 * sim.Minute
			cfg.Measure = 4 * sim.Minute
			cfg.Seed = 11
			cfg.Metrics = mc.Plane("cell-" + fig8Key(c.scheme, 40, c.dims))
			planes[i] = &cfg
		}
		ParallelMap(len(cells), workers, func(i int) *ScalabilityResult {
			return RunScalability(*planes[i])
		})
		var buf bytes.Buffer
		if err := mc.WriteJSONL(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	serial := render(1)
	parallel := render(runtime.NumCPU())
	if len(serial) == 0 {
		t.Fatal("no telemetry exported")
	}
	if !bytes.Equal(serial, parallel) {
		t.Fatalf("workers=1 and workers=%d telemetry differ:\n%s",
			runtime.NumCPU(), firstDiff(serial, parallel))
	}
}

// TestHBVolumeGrowthSeparation checks the paper's Section IV claim on
// measured data at a moderate population: vanilla heartbeat volume
// grows clearly faster in d than compact's, which stays sub-quadratic.
func TestHBVolumeGrowthSeparation(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-cell sweep")
	}
	exponent := func(scheme proto.Scheme) float64 {
		xs := make([]float64, 0, len(HBDims))
		ys := make([]float64, 0, len(HBDims))
		for _, dims := range HBDims {
			cfg := DefaultScalabilityConfig(scheme, dims, 300)
			cfg.Warmup = 2 * sim.Minute
			cfg.Measure = 6 * sim.Minute
			cfg.Seed = 1
			r := RunScalability(cfg)
			xs = append(xs, float64(dims))
			ys = append(ys, r.KBytesPerNodeMin)
		}
		return fitLogLog(xs, ys)
	}
	van := exponent(proto.Vanilla)
	com := exponent(proto.Compact)
	if van <= com+0.3 {
		t.Errorf("vanilla exponent %.2f not clearly above compact %.2f", van, com)
	}
	if com >= 2 {
		t.Errorf("compact exponent %.2f is not sub-quadratic", com)
	}
	if van <= 1.2 {
		t.Errorf("vanilla exponent %.2f does not show super-linear growth", van)
	}
}
