package experiments

import (
	"math"
	"strings"
	"testing"

	"hetgrid/internal/perf"
	"hetgrid/internal/proto"
	"hetgrid/internal/sim"
)

// smallLB returns a quick configuration preserving the paper's shape
// parameters.
func smallLB(scheme SchemeName, seed int64) LBConfig {
	cfg := DefaultLBConfig(scheme)
	cfg.Nodes = 120
	cfg.Jobs = 1200
	cfg.MeanInterArrival = 25 * sim.Second
	cfg.Seed = seed
	return cfg
}

func TestRunLoadBalanceCompletes(t *testing.T) {
	for _, scheme := range LBSchemes {
		res, err := RunLoadBalance(smallLB(scheme, 1))
		if err != nil {
			t.Fatalf("%s: %v", scheme, err)
		}
		if res.Placed+res.Failed != 1200 {
			t.Fatalf("%s: placed %d + failed %d != 1200", scheme, res.Placed, res.Failed)
		}
		if res.WaitTimes.N() != res.Placed {
			t.Fatalf("%s: %d waits for %d placed jobs", scheme, res.WaitTimes.N(), res.Placed)
		}
		if res.Makespan <= 0 {
			t.Fatalf("%s: non-positive makespan", scheme)
		}
	}
}

func TestRunLoadBalanceRejectsUnknownScheme(t *testing.T) {
	cfg := smallLB("nonsense", 1)
	if _, err := RunLoadBalance(cfg); err == nil {
		t.Fatal("unknown scheme accepted")
	}
}

// TestRunLoadBalanceRejectsBadConfig pins the values hetgridsim's flags
// can reach that the run cannot simulate: each must come back as an
// error, never a panic or a silently wrong run.
func TestRunLoadBalanceRejectsBadConfig(t *testing.T) {
	cases := []struct {
		name string
		edit func(*LBConfig)
	}{
		{"zero arrival", func(c *LBConfig) { c.MeanInterArrival = 0 }},
		{"negative arrival", func(c *LBConfig) { c.MeanInterArrival = sim.FromSeconds(-1) }},
		{"negative gpu slots", func(c *LBConfig) { c.GPUSlots = -1 }},
		{"negative jobs", func(c *LBConfig) { c.Jobs = -3 }},
		{"negative nodes", func(c *LBConfig) { c.Nodes = -1 }},
		{"constraint above one", func(c *LBConfig) { c.ConstraintRatio = 2 }},
		{"negative constraint", func(c *LBConfig) { c.ConstraintRatio = -0.1 }},
		{"NaN constraint", func(c *LBConfig) { c.ConstraintRatio = math.NaN() }},
		{"negative gpu fraction", func(c *LBConfig) { c.GPUJobFraction = -1 }},
		{"gpu fraction above one", func(c *LBConfig) { c.GPUJobFraction = 2 }},
		{"NaN gpu fraction", func(c *LBConfig) { c.GPUJobFraction = math.NaN() }},
		{"negative stopping factor", func(c *LBConfig) { c.StoppingFactor = -1 }},
		{"negative gamma", func(c *LBConfig) { c.Gamma = -1 }},
		{"NaN gamma", func(c *LBConfig) { c.Gamma = math.NaN() }},
		{"negative fail gap", func(c *LBConfig) { c.MeanFailGap = -sim.Second }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := smallLB(CanHet, 1)
			tc.edit(&cfg)
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panicked: %v", r)
				}
			}()
			if res, err := RunLoadBalance(cfg); err == nil {
				t.Fatalf("accepted: placed=%d failed=%d", res.Placed, res.Failed)
			}
			if cfg.MeanFailGap == 0 {
				cfg.MeanFailGap = 200 * sim.Second
			}
			if _, err := RunLoadBalance(cfg); err == nil {
				t.Fatal("churn run accepted")
			}
		})
	}
}

// TestEventsFiredMatchesRegistry pins the process-wide sim.events_fired
// count, which the end-to-end benchmark reads as its per-layer
// sim.events, to the run's own Stats: over one serial run the registry
// moves by exactly res.Events.Fired. Not parallel, so no other engine
// fires in between.
func TestEventsFiredMatchesRegistry(t *testing.T) {
	before := firedCount()
	res, err := RunLoadBalance(smallLB(CanHet, 1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Events.Fired == 0 {
		t.Fatal("run reports no fired events")
	}
	if got := firedCount() - before; got != int64(res.Events.Fired) {
		t.Fatalf("registry moved by %d, run fired %d", got, res.Events.Fired)
	}
}

func firedCount() int64 {
	for _, s := range perf.Snapshot() {
		if s.Name == "sim.events_fired" {
			return s.Count
		}
	}
	return 0
}

// TestSchemeOrderingUnderLoad is the paper's headline claim (Figures 5
// and 6): can-het tracks central and beats can-hom, with the gap most
// visible in the CDF tail.
func TestSchemeOrderingUnderLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("full comparison run")
	}
	means := map[SchemeName]float64{}
	p95 := map[SchemeName]float64{}
	for _, scheme := range LBSchemes {
		cfg := smallLB(scheme, 3)
		cfg.MeanInterArrival = 18 * sim.Second // load the system
		res, err := RunLoadBalance(cfg)
		if err != nil {
			t.Fatal(err)
		}
		means[scheme] = res.WaitTimes.Mean()
		p95[scheme] = res.WaitTimes.Quantile(0.95)
	}
	t.Logf("means: %v  p95: %v", means, p95)
	if means[CanHom] <= means[CanHet] {
		t.Errorf("can-hom mean %.0f should exceed can-het %.0f", means[CanHom], means[CanHet])
	}
	if means[CanHet] > 6*means[Central]+60 {
		t.Errorf("can-het mean %.0f too far from central %.0f", means[CanHet], means[Central])
	}
}

func TestConstraintRatioMonotonicity(t *testing.T) {
	if testing.Short() {
		t.Skip("full comparison run")
	}
	// Lower constraint ratios make matchmaking easier: can-het's mean
	// wait should not grow as the ratio drops (Figure 6's trend).
	var prev float64 = -1
	for _, q := range []float64{0.8, 0.4} {
		cfg := smallLB(CanHet, 5)
		cfg.ConstraintRatio = q
		res, err := RunLoadBalance(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if prev >= 0 && res.WaitTimes.Mean() > prev*1.5+30 {
			t.Errorf("wait grew when constraints relaxed: %.0f -> %.0f", prev, res.WaitTimes.Mean())
		}
		prev = res.WaitTimes.Mean()
	}
}

func TestRunResilienceProducesSamples(t *testing.T) {
	cfg := DefaultResilienceConfig(proto.Compact)
	cfg.Nodes = 60
	cfg.HeartbeatPeriod = 10 * sim.Second
	cfg.MeanEventGap = 3 * sim.Second
	cfg.Horizon = 600 * sim.Second
	cfg.SampleEvery = 50 * sim.Second
	res := RunResilience(cfg)
	if len(res.Samples) < 10 {
		t.Fatalf("only %d samples", len(res.Samples))
	}
	if res.Joins == 0 || res.Fails+res.Leaves == 0 {
		t.Fatal("no churn recorded")
	}
	if res.MeanBroken() < 0 {
		t.Fatal("negative mean broken links")
	}
}

func TestRunScalabilityMeasuresCosts(t *testing.T) {
	cfg := DefaultScalabilityConfig(proto.Vanilla, 8, 60)
	cfg.HeartbeatPeriod = 10 * sim.Second
	cfg.Warmup = 60 * sim.Second
	cfg.Measure = 120 * sim.Second
	res := RunScalability(cfg)
	if res.MsgsPerNodeMin <= 0 || res.KBytesPerNodeMin <= 0 {
		t.Fatalf("no cost measured: %+v", res)
	}
	if res.AvgNeighbors <= 0 {
		t.Fatal("no neighbor statistics")
	}
}

func TestScalabilityVolumeOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep")
	}
	run := func(scheme proto.Scheme, dims int) *ScalabilityResult {
		// Enough nodes that the per-face neighbor structure is not
		// saturated by the population's split depth.
		cfg := DefaultScalabilityConfig(scheme, dims, 250)
		cfg.HeartbeatPeriod = 10 * sim.Second
		cfg.Warmup = 60 * sim.Second
		cfg.Measure = 200 * sim.Second
		return RunScalability(cfg)
	}
	van5, van14 := run(proto.Vanilla, 5), run(proto.Vanilla, 14)
	com5, com14 := run(proto.Compact, 5), run(proto.Compact, 14)
	// Figure 8(b): vanilla volume grows much faster with d than compact.
	vanGrowth := van14.KBytesPerNodeMin / van5.KBytesPerNodeMin
	comGrowth := com14.KBytesPerNodeMin / com5.KBytesPerNodeMin
	t.Logf("volume growth 5→14 dims: vanilla %.2f×, compact %.2f×", vanGrowth, comGrowth)
	if vanGrowth < 1.5*comGrowth {
		t.Errorf("vanilla growth %.2f should far exceed compact growth %.2f", vanGrowth, comGrowth)
	}
	// Figure 8(a): message counts are scheme-insensitive.
	r := van14.MsgsPerNodeMin / com14.MsgsPerNodeMin
	if r < 0.8 || r > 1.3 {
		t.Errorf("message counts diverge across schemes: %.2f", r)
	}
}

func TestScaleHelpers(t *testing.T) {
	s := Scale(0.1)
	if s.nodes(1000) != 100 {
		t.Fatalf("nodes scaling wrong: %d", s.nodes(1000))
	}
	if s.nodes(10) != 20 {
		t.Fatal("node floor not applied")
	}
	if s.jobs(100) != 200 {
		t.Fatal("job floor not applied")
	}
	if s.dur(10*sim.Second) != sim.Minute {
		t.Fatal("duration floor not applied")
	}
}

func TestFigureRunnersRenderTables(t *testing.T) {
	if testing.Short() {
		t.Skip("figure regeneration")
	}
	var b strings.Builder
	if _, err := Figure5(&b, 0.03, 2, nil); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"Figure 5(a)", "can-het", "can-hom", "central", "wait<=s"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Figure5 output missing %q", want)
		}
	}
	b.Reset()
	if _, err := Figure7(&b, 0.03, 2, nil); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "vanilla") || !strings.Contains(b.String(), "time(s)") {
		t.Fatal("Figure7 output malformed")
	}
}

func TestAblationsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("ablation sweep")
	}
	var b strings.Builder
	if err := AblationVirtualDimension(&b, 0.02, 3); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "disabled") || !strings.Contains(b.String(), "random") {
		t.Fatalf("virtual ablation output malformed:\n%s", b.String())
	}
	b.Reset()
	if err := AblationConcurrentGPUs(&b, 0.02, 3); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "concurrent") {
		t.Fatal("GPU ablation output malformed")
	}
	b.Reset()
	if err := AblationFailureFraction(&b, 0.02, 3); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "fail-fraction") {
		t.Fatal("failure ablation output malformed")
	}
}

// TestRunLoadBalanceWithFailures checks a churn run's accounting and
// that it fills the same result fields as a static run.
func TestRunLoadBalanceWithFailures(t *testing.T) {
	if testing.Short() {
		t.Skip("churn run")
	}
	lb := smallLB(CanHet, 8)
	lb.MeanFailGap = 200 * sim.Second
	res, err := RunLoadBalance(lb)
	if err != nil {
		t.Fatal(err)
	}
	if res.Fails == 0 {
		t.Fatal("no failures injected")
	}
	// Every placed job either finished or was lost to a failure.
	if res.WaitTimes.N()+res.Lost != res.Placed {
		t.Fatalf("accounting: finished %d + lost %d != placed %d",
			res.WaitTimes.N(), res.Lost, res.Placed)
	}
	if res.Joins == 0 {
		t.Fatal("replacement joins missing")
	}
	if res.Sched.RouteHops == 0 || res.Events.Fired == 0 {
		t.Fatalf("churn run left Sched.RouteHops=%d Events.Fired=%d", res.Sched.RouteHops, res.Events.Fired)
	}
	if res.Imbalance.MaxOverMean < 1 {
		t.Fatalf("churn run left Imbalance unfilled: %+v", res.Imbalance)
	}
}

func TestScalabilityMaxPerFaceOverride(t *testing.T) {
	base := DefaultScalabilityConfig(proto.Vanilla, 8, 60)
	base.HeartbeatPeriod = 10 * sim.Second
	base.Warmup = 60 * sim.Second
	base.Measure = 120 * sim.Second

	bounded := base
	bounded.MaxPerFace = 1
	full := base
	full.MaxPerFace = -1

	rb := RunScalability(bounded)
	rf := RunScalability(full)
	if rf.MsgsPerNodeMin <= rb.MsgsPerNodeMin {
		t.Fatalf("full adjacency (%.1f msgs) should cost more than per-face 1 (%.1f)",
			rf.MsgsPerNodeMin, rb.MsgsPerNodeMin)
	}
}

func TestImbalanceComputed(t *testing.T) {
	res, err := RunLoadBalance(smallLB(CanHet, 9))
	if err != nil {
		t.Fatal(err)
	}
	im := res.Imbalance
	if im.Gini < 0 || im.Gini > 1 {
		t.Fatalf("gini out of range: %v", im.Gini)
	}
	if im.MaxOverMean < 1 {
		t.Fatalf("max/mean below 1: %v", im.MaxOverMean)
	}
	if im.CV < 0 {
		t.Fatalf("negative CV: %v", im.CV)
	}
}
