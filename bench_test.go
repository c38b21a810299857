package hetgrid

// The benchmark harness regenerates every figure of the paper's
// evaluation at a reduced scale (population, job count and horizon
// shrink; dimensionalities, ratios and periods stay at paper values so
// the shapes are preserved):
//
//	Figure 5 — BenchmarkFig5InterArrival: wait-time CDFs vs job
//	  inter-arrival time, schemes can-het / can-hom / central.
//	Figure 6 — BenchmarkFig6ConstraintRatio: wait-time CDFs vs job
//	  constraint ratio.
//	Figure 7 — BenchmarkFig7BrokenLinks: broken links under high churn,
//	  schemes vanilla / compact / adaptive.
//	Figure 8 — BenchmarkFig8Messages / BenchmarkFig8Volume: maintenance
//	  message count and volume per node per minute vs dimensionality.
//
// The full-scale regeneration (1000–2000 nodes, 20000 jobs, 30000 s
// horizons) is cmd/figures; these benchmarks exercise the identical
// code paths and report the figure's headline numbers as custom
// metrics. Note that Figure 8's per-dimension growth saturates at small
// populations (a node's zone is only split along ~log₂(n) dimensions,
// bounding its face count), so the bench-scale message counts flatten
// past d≈8 while the full-scale run keeps growing.
//
// Micro-benchmarks below them cover the underlying substrates (CAN
// join/leave/routing, heartbeat rounds, matchmaking, aggregation).

import (
	"fmt"
	"runtime"
	"testing"

	"hetgrid/internal/can"
	"hetgrid/internal/exec"
	"hetgrid/internal/experiments"
	"hetgrid/internal/geom"
	"hetgrid/internal/metrics"
	"hetgrid/internal/metricsreg"
	"hetgrid/internal/proto"
	"hetgrid/internal/resource"
	"hetgrid/internal/rng"
	"hetgrid/internal/sched"
	"hetgrid/internal/sim"
	"hetgrid/internal/workload"
)

const benchScale = experiments.Scale(0.04)

// BenchmarkFig5InterArrival regenerates Figure 5 (one sub-benchmark per
// inter-arrival time, one LB run per scheme per iteration).
func BenchmarkFig5InterArrival(b *testing.B) {
	for _, ia := range []float64{2, 3, 4} {
		b.Run(fmt.Sprintf("arrival=%.0fs", ia), func(b *testing.B) {
			var meanHet, meanHom, meanCentral float64
			for i := 0; i < b.N; i++ {
				for _, scheme := range experiments.LBSchemes {
					cfg := experiments.DefaultLBConfig(scheme)
					cfg.Nodes = 150
					cfg.Jobs = 1500
					cfg.MeanInterArrival = sim.FromSeconds(ia / float64(benchScale) / 25)
					cfg.Seed = int64(i + 1)
					res, err := experiments.RunLoadBalance(cfg)
					if err != nil {
						b.Fatal(err)
					}
					switch scheme {
					case experiments.CanHet:
						meanHet = res.WaitTimes.Mean()
					case experiments.CanHom:
						meanHom = res.WaitTimes.Mean()
					case experiments.Central:
						meanCentral = res.WaitTimes.Mean()
					}
				}
			}
			b.ReportMetric(meanHet, "canhet-wait-s")
			b.ReportMetric(meanHom, "canhom-wait-s")
			b.ReportMetric(meanCentral, "central-wait-s")
			reportJobsPerSec(b, 1500*len(experiments.LBSchemes))
		})
	}
}

// BenchmarkFig6ConstraintRatio regenerates Figure 6.
func BenchmarkFig6ConstraintRatio(b *testing.B) {
	for _, q := range []float64{0.8, 0.6, 0.4} {
		b.Run(fmt.Sprintf("ratio=%.0f%%", q*100), func(b *testing.B) {
			var meanHet, meanHom, meanCentral float64
			for i := 0; i < b.N; i++ {
				for _, scheme := range experiments.LBSchemes {
					cfg := experiments.DefaultLBConfig(scheme)
					cfg.Nodes = 150
					cfg.Jobs = 1500
					cfg.ConstraintRatio = q
					cfg.MeanInterArrival = 20 * sim.Second
					cfg.Seed = int64(i + 1)
					res, err := experiments.RunLoadBalance(cfg)
					if err != nil {
						b.Fatal(err)
					}
					switch scheme {
					case experiments.CanHet:
						meanHet = res.WaitTimes.Mean()
					case experiments.CanHom:
						meanHom = res.WaitTimes.Mean()
					case experiments.Central:
						meanCentral = res.WaitTimes.Mean()
					}
				}
			}
			b.ReportMetric(meanHet, "canhet-wait-s")
			b.ReportMetric(meanHom, "canhom-wait-s")
			b.ReportMetric(meanCentral, "central-wait-s")
			reportJobsPerSec(b, 1500*len(experiments.LBSchemes))
		})
	}
}

// BenchmarkFig7BrokenLinks regenerates Figure 7: broken links under
// high churn per heartbeat scheme.
func BenchmarkFig7BrokenLinks(b *testing.B) {
	for _, scheme := range experiments.MaintSchemes {
		b.Run(scheme.String(), func(b *testing.B) {
			var mean float64
			for i := 0; i < b.N; i++ {
				cfg := experiments.DefaultResilienceConfig(scheme)
				cfg.Nodes = 120
				cfg.HeartbeatPeriod = 20 * sim.Second
				cfg.MeanEventGap = 5 * sim.Second
				cfg.Horizon = 3000 * sim.Second
				cfg.SampleEvery = 100 * sim.Second
				cfg.Seed = int64(i + 1)
				mean = experiments.RunResilience(cfg).MeanBroken()
			}
			b.ReportMetric(mean, "broken-links")
		})
	}
}

// BenchmarkFig8Messages regenerates Figure 8(a): messages per node per
// minute vs dimensionality, per scheme.
func BenchmarkFig8Messages(b *testing.B) {
	benchFig8(b, func(r *experiments.ScalabilityResult) (float64, string) {
		return r.MsgsPerNodeMin, "msgs/node/min"
	})
}

// BenchmarkFig8Volume regenerates Figure 8(b): message volume per node
// per minute vs dimensionality, per scheme.
func BenchmarkFig8Volume(b *testing.B) {
	benchFig8(b, func(r *experiments.ScalabilityResult) (float64, string) {
		return r.KBytesPerNodeMin, "KB/node/min"
	})
}

func benchFig8(b *testing.B, pick func(*experiments.ScalabilityResult) (float64, string)) {
	for _, scheme := range experiments.MaintSchemes {
		for _, dims := range experiments.Figure8Dims {
			b.Run(fmt.Sprintf("%s/dims=%d", scheme, dims), func(b *testing.B) {
				var metric float64
				var unit string
				for i := 0; i < b.N; i++ {
					cfg := experiments.DefaultScalabilityConfig(scheme, dims, 120)
					cfg.Warmup = 2 * sim.Minute
					cfg.Measure = 6 * sim.Minute
					cfg.Seed = int64(i + 1)
					metric, unit = pick(experiments.RunScalability(cfg))
				}
				b.ReportMetric(metric, unit)
			})
		}
	}
}

// --- substrate micro-benchmarks ---

// BenchmarkCANJoin measures overlay join cost as the population grows.
func BenchmarkCANJoin(b *testing.B) {
	for _, dims := range []int{5, 11} {
		b.Run(fmt.Sprintf("dims=%d", dims), func(b *testing.B) {
			s := rng.New(1)
			ov := can.NewOverlay(dims)
			pts := make([]geom.Point, b.N)
			for i := range pts {
				p := make(geom.Point, dims)
				for d := range p {
					p[d] = s.Float64() * 0.999
				}
				pts[i] = p
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ov.Join(pts[i], nil)
			}
		})
	}
}

// BenchmarkCANRoute measures greedy routing in a 1000-node overlay.
func BenchmarkCANRoute(b *testing.B) {
	for _, dims := range []int{5, 11} {
		b.Run(fmt.Sprintf("dims=%d", dims), func(b *testing.B) {
			s := rng.New(2)
			ov := can.NewOverlay(dims)
			randomPt := func() geom.Point {
				p := make(geom.Point, dims)
				for d := range p {
					p[d] = s.Float64() * 0.999
				}
				return p
			}
			for i := 0; i < 1000; i++ {
				ov.Join(randomPt(), nil)
			}
			nodes := ov.Nodes()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				from := nodes[i%len(nodes)]
				if _, err := ov.Route(from.ID, randomPt()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCANChurn measures a leave+join pair in a 500-node overlay.
func BenchmarkCANChurn(b *testing.B) {
	s := rng.New(3)
	dims := 11
	ov := can.NewOverlay(dims)
	randomPt := func() geom.Point {
		p := make(geom.Point, dims)
		for d := range p {
			p[d] = s.Float64() * 0.999
		}
		return p
	}
	for i := 0; i < 500; i++ {
		ov.Join(randomPt(), nil)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nodes := ov.Nodes()
		ov.Leave(nodes[s.Intn(len(nodes))].ID)
		ov.Join(randomPt(), nil)
	}
}

// BenchmarkHeartbeatRound measures one full heartbeat period for a
// 200-node overlay under each scheme.
func BenchmarkHeartbeatRound(b *testing.B) {
	for _, scheme := range experiments.MaintSchemes {
		b.Run(scheme.String(), func(b *testing.B) {
			cfg := proto.DefaultConfig(scheme)
			s := proto.NewSim(11, cfg)
			d := proto.NewChurnDriver(s, proto.ChurnConfig{InitialNodes: 200, JoinGap: 100 * sim.Millisecond, Seed: 1})
			d.Start()
			s.Eng.RunUntil(d.ChurnStart + sim.Time(2*cfg.HeartbeatPeriod))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Eng.RunUntil(s.Eng.Now() + sim.Time(cfg.HeartbeatPeriod))
			}
		})
	}
}

// BenchmarkChurnRound measures one heartbeat period for a 200-node
// overlay under heavy churn (mean one membership event per 5 s against
// the 60 s heartbeat — 3× the intensity of Figure 7's high-churn
// regime), for each maintenance scheme. The churn-path handlers (join
// intro, leave handoff, takeover union) run through the pooled message
// machinery; b.ReportAllocs keeps their allocs/op honest.
func BenchmarkChurnRound(b *testing.B) {
	for _, scheme := range experiments.MaintSchemes {
		b.Run(scheme.String(), func(b *testing.B) {
			cfg := proto.DefaultConfig(scheme)
			s := proto.NewSim(11, cfg)
			cc := proto.DefaultChurnConfig(200, 5*sim.Second)
			cc.JoinGap = 100 * sim.Millisecond
			cc.MinNodes = 150
			d := proto.NewChurnDriver(s, cc)
			d.Start()
			s.Eng.RunUntil(d.ChurnStart + sim.Time(2*cfg.HeartbeatPeriod))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Eng.RunUntil(s.Eng.Now() + sim.Time(cfg.HeartbeatPeriod))
			}
		})
	}
}

// BenchmarkScaleXLLoadBalance runs the 10,000-node ScaleXL
// configuration end to end with a reduced job count — an order of
// magnitude past the paper's evaluation, the regime the incremental
// aggregation plane exists for. One iteration is a full run; `make
// bench-xl` runs it once as the CI smoke.
func BenchmarkScaleXLLoadBalance(b *testing.B) {
	cfg := experiments.ScaleXLLBConfig(experiments.CanHet)
	cfg.Jobs = 4000
	var wait float64
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		res, err := experiments.RunLoadBalance(cfg)
		if err != nil {
			b.Fatal(err)
		}
		wait = res.WaitTimes.Mean()
	}
	b.ReportMetric(wait, "wait-s")
	reportJobsPerSec(b, cfg.Jobs)
}

// BenchmarkPlacement measures single-job matchmaking in a 500-node grid
// for each scheme.
func BenchmarkPlacement(b *testing.B) {
	for _, name := range []Scheme{SchemeCanHet, SchemeCanHom, SchemeCentral} {
		b.Run(string(name), func(b *testing.B) {
			g, err := New(Options{Scheme: name, Seed: 8})
			if err != nil {
				b.Fatal(err)
			}
			if _, err := g.AddRandomNodes(500); err != nil {
				b.Fatal(err)
			}
			spec := JobSpec{CPU: &CEReqSpec{Cores: 1}, DurationHours: 1}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := g.Submit(spec); err != nil {
					b.Fatal(err)
				}
				if i%100 == 99 {
					b.StopTimer()
					g.Run() // drain so queues do not grow unboundedly
					b.StartTimer()
				}
			}
			reportJobsPerSec(b, 1)
		})
	}
}

// BenchmarkPlaceSteadyState measures the pure matchmaking walk — Place
// only, no job execution — in a 500-node grid once the overlay's read
// caches and the scheduler's scratch buffers are warm. Steady state is
// the claim: b.ReportAllocs must show 0 allocs/op for both CAN schemes.
func BenchmarkPlaceSteadyState(b *testing.B) {
	eng := sim.New()
	space := resource.NewSpace(2)
	ov := can.NewOverlay(space.Dims())
	cl := exec.NewCluster(eng, exec.DefaultConfig())
	gen := workload.NewNodeGen(space, 8)
	redraw := rng.New(88)
	for i := 0; i < 500; i++ {
		caps := gen.One()
		n, err := can.JoinRedraw(ov.Join, space, caps, redraw)
		if err != nil {
			b.Fatal(err)
		}
		cl.AddNode(n.ID, caps)
	}
	jgen := workload.NewJobGen(space, 9)
	jobs := make([]*exec.Job, 256)
	for i := range jobs {
		jobs[i], _ = jgen.Next()
	}
	// Build every node's cached view up front: with no churn the views
	// never rebuild, so the measured loop sees the true steady state
	// rather than amortized one-time lazy builds.
	for _, n := range ov.Nodes() {
		ov.NeighborView(n.ID)
		ov.OutwardView(n.ID)
	}
	for _, tc := range []struct {
		name  string
		build func(*sched.Context) sched.Scheduler
	}{
		{"canhet", func(c *sched.Context) sched.Scheduler { return sched.NewCanHet(c) }},
		{"canhom", func(c *sched.Context) sched.Scheduler { return sched.NewCanHom(c) }},
	} {
		b.Run(tc.name, func(b *testing.B) {
			s := tc.build(sched.NewContext(eng, ov, cl, space, 8))
			// Warm the view caches, the aggregate table and every
			// scratch buffer before measuring.
			for i := 0; i < 64; i++ {
				if _, err := s.Place(jobs[i%len(jobs)]); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.Place(jobs[i%len(jobs)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPlaceSteadyStateMetricsOn repeats the steady-state walk with
// a telemetry plane attached and a full sampling sweep every 64
// placements — the densest realistic cadence (one sweep per virtual
// heartbeat covers thousands of placements). The ISSUE's budget: the
// probe-free Place stays 0 allocs/op, and the amortized sampling cost
// must stay within the benchjson gate of the plain variant.
func BenchmarkPlaceSteadyStateMetricsOn(b *testing.B) {
	eng := sim.New()
	space := resource.NewSpace(2)
	ov := can.NewOverlay(space.Dims())
	cl := exec.NewCluster(eng, exec.DefaultConfig())
	gen := workload.NewNodeGen(space, 8)
	redraw := rng.New(88)
	for i := 0; i < 500; i++ {
		caps := gen.One()
		n, err := can.JoinRedraw(ov.Join, space, caps, redraw)
		if err != nil {
			b.Fatal(err)
		}
		cl.AddNode(n.ID, caps)
	}
	jgen := workload.NewJobGen(space, 9)
	jobs := make([]*exec.Job, 256)
	for i := range jobs {
		jobs[i], _ = jgen.Next()
	}
	for _, n := range ov.Nodes() {
		ov.NeighborView(n.ID)
		ov.OutwardView(n.ID)
	}
	ctx := sched.NewContext(eng, ov, cl, space, 8)
	s := sched.NewCanHet(ctx)
	plane := metrics.New(60*sim.Second, 0)
	plane.Attach(eng)
	metricsreg.RegisterGridGauges(plane, ov, cl, ctx.Agg, space.Dims(), 2)
	if st := sched.StatsOf(s); st != nil {
		metricsreg.RegisterSchedCounters(plane, st)
	}
	metricsreg.RegisterClusterCounters(plane, cl)
	// Warm scratch buffers and the sampling rings before measuring.
	for i := 0; i < 64; i++ {
		if _, err := s.Place(jobs[i%len(jobs)]); err != nil {
			b.Fatal(err)
		}
	}
	plane.SampleNow()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Place(jobs[i%len(jobs)]); err != nil {
			b.Fatal(err)
		}
		if i%64 == 63 {
			plane.SampleNow()
		}
	}
}

// reportJobsPerSec reports simulated job throughput: jobsPerOp jobs are
// placed and executed per benchmark iteration, over the timed portion
// of the run.
func reportJobsPerSec(b *testing.B, jobsPerOp int) {
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(jobsPerOp*b.N)/secs, "jobs/s")
	}
}

// BenchmarkAggRefresh measures the full aggregated-load recomputation
// for the evaluation's 1000-node, 11-dimensional configuration.
// MarkAllDirty forces the pre-incremental full-rebuild path every
// iteration, so this series keeps measuring the same work across the
// benchmark trajectory now that a plain Refresh with no dirty nodes is
// nearly free; the incremental path has its own benchmark below.
func BenchmarkAggRefresh(b *testing.B) {
	eng := sim.New()
	space := resource.NewSpace(2)
	ov := can.NewOverlay(space.Dims())
	cl := exec.NewCluster(eng, exec.DefaultConfig())
	gen := workload.NewNodeGen(space, 1)
	redraw := rng.New(9)
	for i := 0; i < 1000; i++ {
		caps := gen.One()
		n, err := can.JoinRedraw(ov.Join, space, caps, redraw)
		if err != nil {
			b.Fatal(err)
		}
		cl.AddNode(n.ID, caps)
	}
	agg := sched.NewAggTable(space.Dims(), space.GPUSlots)
	agg.Refresh(ov, cl) // pay the one-time topology build outside the loop
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cl.MarkAllDirty()
		agg.Refresh(ov, cl)
	}
}

// BenchmarkAggRefreshIncremental measures the aggregation plane at the
// 10,000-node population the incremental rewrite targets (d = 4,
// CPU-only capabilities, matching the ISSUE's acceptance criterion):
//
//	sparse16 — a refresh after 16 nodes changed load, the steady
//	  heartbeat case. Must be ≥ 10× faster than alldirty and allocate
//	  nothing (b.ReportAllocs).
//	alldirty — the full O(n·d) load rebuild at identical size: the
//	  pre-incremental baseline the speedup is measured against.
//	churn — a refresh right after a leave+join pair: a membership
//	  sync of the handful of changed nodes plus the linear Fenwick
//	  reconstruction (BenchmarkChurnStorm measures it against the
//	  full-rebuild baseline it replaced).
func BenchmarkAggRefreshIncremental(b *testing.B) {
	const (
		dims = 4
		n    = 10000
	)
	eng := sim.New()
	ov := can.NewOverlay(dims)
	cl := exec.NewCluster(eng, exec.DefaultConfig())
	pts := rng.New(7)
	randomPt := func() geom.Point {
		p := make(geom.Point, dims)
		for d := range p {
			p[d] = pts.Float64() * 0.999999
		}
		return p
	}
	newCaps := func(i int) *resource.NodeCaps {
		return &resource.NodeCaps{CEs: []resource.CE{{Type: resource.TypeCPU, Clock: 1, Cores: 1 + i%4}}}
	}
	for i := 0; i < n; i++ {
		caps := newCaps(i)
		nd, err := ov.Join(randomPt(), caps)
		for err != nil {
			nd, err = ov.Join(randomPt(), caps)
		}
		cl.AddNode(nd.ID, caps)
	}
	agg := sched.NewAggTable(dims, 0)
	// Jobs never finish (the engine is not stepped), so every Submit is
	// a durable DemandOn change on its node: first cores occupied, then
	// queue growth.
	jobID := 0
	submit := func(b *testing.B, node can.NodeID) {
		jobID++
		j := &exec.Job{
			ID:           exec.JobID(jobID),
			Req:          resource.JobReq{CE: []resource.CEReq{{Type: resource.TypeCPU, Cores: 1}}},
			Dominant:     resource.TypeCPU,
			BaseDuration: sim.FromSeconds(1e9),
		}
		if err := cl.Submit(j, node); err != nil {
			b.Fatal(err)
		}
	}
	// First use rebuilds from scratch, the initial non-enumerable drain
	// rebuilds once more, and from then on Refresh is incremental.
	warm := func() {
		agg.Refresh(ov, cl)
		agg.Refresh(ov, cl)
		agg.Refresh(ov, cl)
	}
	b.Run("sparse16", func(b *testing.B) {
		warm()
		nodes := ov.Nodes()
		next := 0
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			for k := 0; k < 16; k++ {
				submit(b, nodes[next%len(nodes)].ID)
				next++
			}
			b.StartTimer()
			agg.Refresh(ov, cl)
		}
	})
	b.Run("alldirty", func(b *testing.B) {
		warm()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			cl.MarkAllDirty()
			agg.Refresh(ov, cl)
		}
	})
	b.Run("churn", func(b *testing.B) {
		warm()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			nodes := ov.Nodes()
			victim := nodes[pts.Intn(len(nodes))]
			cl.RemoveNode(victim.ID)
			ov.Leave(victim.ID)
			caps := newCaps(i)
			nd, err := ov.Join(randomPt(), caps)
			for err != nil {
				nd, err = ov.Join(randomPt(), caps)
			}
			cl.AddNode(nd.ID, caps)
			b.StartTimer()
			agg.Refresh(ov, cl)
		}
	})
}

// benchChurnStorm measures what one sustained-churn round costs the
// aggregation plane at population n: every iteration departs one node
// and admits another (two overlay versions), then brings a table up to
// date. The incremental sub-bench takes the membership sync — a
// binary search per changed node, one merge pass per dimension and one
// linear Fenwick reconstruction — while fullrebuild pays the
// per-dimension re-sort plus load sweep the sync replaced. The mutation
// itself runs outside the timer, so the two sub-benches compare exactly
// the refresh cost.
func benchChurnStorm(b *testing.B, n int) {
	const dims = 4
	eng := sim.New()
	ov := can.NewOverlay(dims)
	cl := exec.NewCluster(eng, exec.DefaultConfig())
	pts := rng.New(11)
	randomPt := func() geom.Point {
		p := make(geom.Point, dims)
		for d := range p {
			p[d] = pts.Float64() * 0.999999
		}
		return p
	}
	newCaps := func(i int) *resource.NodeCaps {
		return &resource.NodeCaps{CEs: []resource.CE{{Type: resource.TypeCPU, Clock: 1, Cores: 1 + i%4}}}
	}
	for i := 0; i < n; i++ {
		caps := newCaps(i)
		nd, err := ov.Join(randomPt(), caps)
		for err != nil {
			nd, err = ov.Join(randomPt(), caps)
		}
		cl.AddNode(nd.ID, caps)
	}
	churnRound := func(i int) {
		nodes := ov.Nodes()
		victim := nodes[pts.Intn(len(nodes))]
		cl.RemoveNode(victim.ID)
		if _, err := ov.Leave(victim.ID); err != nil {
			b.Fatal(err)
		}
		caps := newCaps(i)
		nd, err := ov.Join(randomPt(), caps)
		for err != nil {
			nd, err = ov.Join(randomPt(), caps)
		}
		cl.AddNode(nd.ID, caps)
	}
	b.Run("incremental", func(b *testing.B) {
		agg := sched.NewAggTable(dims, 0)
		agg.Refresh(ov, cl)
		agg.Refresh(ov, cl)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			churnRound(i)
			b.StartTimer()
			agg.Refresh(ov, cl)
		}
		b.StopTimer()
		if st := agg.Stats(); st.ChurnRefreshes < int64(b.N) {
			b.Fatalf("only %d of %d refreshes synchronized membership", st.ChurnRefreshes, b.N)
		}
	})
	b.Run("fullrebuild", func(b *testing.B) {
		agg := sched.NewAggTable(dims, 0)
		agg.RefreshFull(ov, cl)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			churnRound(i)
			b.StartTimer()
			agg.RefreshFull(ov, cl)
		}
	})
}

// BenchmarkChurnStorm is the gated steady-churn benchmark at the
// 10,000-node population (d = 4): the acceptance bar is incremental ≥
// 10× faster than fullrebuild per churn round.
func BenchmarkChurnStorm(b *testing.B) {
	benchChurnStorm(b, 10000)
}

// BenchmarkChurnStormXXL repeats the churn-storm comparison at the
// 100,000-node ScaleXXL population. Run via `make bench-xxl`; at this
// size the full-rebuild baseline is two decimal orders slower than the
// membership sync, so the benchmark is ungated and excluded from the
// default `make bench` wall-clock budget.
func BenchmarkChurnStormXXL(b *testing.B) {
	benchChurnStorm(b, experiments.ScaleXXLNodes)
}

// BenchmarkScaleXXLLoadBalance runs the 100,000-node ScaleXXL
// configuration end to end with a reduced job count: the CI smoke
// proving that a six-figure grid — join storm, placement walks,
// incremental aggregation and candidate indexes — completes inside the
// bench-xxl timeout. One iteration is a full run.
func BenchmarkScaleXXLLoadBalance(b *testing.B) {
	cfg := experiments.ScaleXXLLBConfig(experiments.CanHet)
	cfg.Jobs = 2000
	var wait float64
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		res, err := experiments.RunLoadBalance(cfg)
		if err != nil {
			b.Fatal(err)
		}
		wait = res.WaitTimes.Mean()
	}
	b.ReportMetric(wait, "wait-s")
	reportJobsPerSec(b, cfg.Jobs)
}

// BenchmarkWorkloadGen measures job-stream generation.
func BenchmarkWorkloadGen(b *testing.B) {
	space := resource.NewSpace(2)
	jg := workload.NewJobGen(space, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		jg.Next()
	}
}

// shardBenchLookahead is the engine benchmark's delivery latency: every
// cross-shard message arrives exactly one lookahead after it is sent,
// the same discipline netsim imposes.
const shardBenchLookahead = 10

// shardBenchMsg is one in-flight cross-shard message of the engine
// benchmark: it folds the arrival time into the destination actor's
// checksum. Its field is written by the sending actor before Post and
// read on the destination shard's worker after the flush barrier; each
// sender reuses messages through a ring far longer (64 sends, ≥ 1 tick
// apart) than the delivery delay, so a message is never rewritten while
// a mailbox or destination queue still references it.
type shardBenchMsg struct {
	dst *shardBenchActor
}

func (m *shardBenchMsg) Call(now sim.Time) { m.dst.sum += uint64(now) }

// shardBenchActor is a self-rescheduling actor whose behavior is a pure
// function of its seed: an LCG drives its delays and its occasional
// sends to pseudo-random actors on pseudo-random shards, so the
// workload is identical across shard and worker counts.
type shardBenchActor struct {
	se    *sim.ShardedEngine
	peers [][]*shardBenchActor
	shard int
	id    int
	state uint64
	sum   uint64
	next  int
	ring  [64]shardBenchMsg
}

func (a *shardBenchActor) Call(now sim.Time) {
	a.state = a.state*6364136223846793005 + 1442695040888963407
	r := a.state >> 33
	a.sum += r
	if r&3 == 0 {
		ds := int(r>>2) % len(a.peers)
		row := a.peers[ds]
		m := &a.ring[a.next]
		a.next = (a.next + 1) % len(a.ring)
		m.dst = row[int(r>>8)%len(row)]
		a.se.Post(a.shard, ds, now.Add(shardBenchLookahead), uint64(a.shard)<<16|uint64(a.id), m)
	}
	a.se.Shard(a.shard).AfterCall(sim.Duration(1+r%13), a)
}

// benchShardedEngine runs a fixed 64-actor message-passing workload to
// a fixed horizon on S shards. The total event count is independent of
// S (actors are dealt round-robin), so the S=1 and S=4 entries measure
// the engine's partitioning overhead and parallel speedup over the
// same work.
func benchShardedEngine(b *testing.B, shards int) {
	const totalActors = 64
	const horizon = 5000 * sim.Time(sim.Millisecond)
	workers := runtime.GOMAXPROCS(0)
	if workers > shards {
		workers = shards
	}
	b.ReportAllocs()
	var sum uint64
	for i := 0; i < b.N; i++ {
		se := sim.NewSharded(shards, shardBenchLookahead)
		se.SetWorkers(workers)
		peers := make([][]*shardBenchActor, shards)
		actors := make([]*shardBenchActor, totalActors)
		for j := range actors {
			sh := j % shards
			a := &shardBenchActor{se: se, peers: peers, shard: sh, id: j, state: uint64(j)*0x9e3779b97f4a7c15 + 1}
			peers[sh] = append(peers[sh], a)
			actors[j] = a
		}
		for _, a := range actors {
			se.Shard(a.shard).AfterCall(sim.Duration(1+a.state%7), a)
		}
		se.RunUntil(horizon)
		se.Close()
		for _, a := range actors {
			sum += a.sum
		}
	}
	if sum == 0 {
		b.Fatal("workload fired no events")
	}
}

// BenchmarkShardedEngine is the gated cost entry for the conservative
// time-window engine: S=1 pins the sequential overhead of the sharded
// path (mailboxes, window computation) and S=4 its parallel profile.
// The BENCH gate compares entries only within the same GOMAXPROCS (see
// cmd/benchjson), so the parallel entry is never judged against a
// serial baseline.
func BenchmarkShardedEngine(b *testing.B) {
	for _, s := range []int{1, 4} {
		b.Run(fmt.Sprintf("S=%d", s), func(b *testing.B) { benchShardedEngine(b, s) })
	}
}

// benchShardedHeartbeat measures steady-state heartbeat rounds at a
// large population on the sharded protocol simulation: the join storm
// and warmup run untimed, then three 10-second heartbeat periods of
// the full population are timed. Churn is disabled so the timed window
// is pure parallel-phase work — the component the worker count
// accelerates.
func benchShardedHeartbeat(b *testing.B, nodes, shards, workers int) {
	benchShardedHeartbeatEvery(b, nodes, shards, workers, 0)
}

// benchShardedHeartbeatEvery is benchShardedHeartbeat with an optional
// telemetry plane: a non-zero sampleEvery attaches a plane with the
// full proto + per-kind transport registration the figure driver wires,
// sampling at barriers at that cadence through the timed window, so the
// metrics-on/off pair prices the shard-order reads the telemetry plane
// adds per sample.
func benchShardedHeartbeatEvery(b *testing.B, nodes, shards, workers int, sampleEvery sim.Duration) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		cfg := proto.DefaultConfig(proto.Adaptive)
		cfg.HeartbeatPeriod = 10 * sim.Second
		cfg.Seed = int64(i + 1)
		ss := proto.NewShardedSim(shards, workers, 3, cfg)
		churn := proto.DefaultChurnConfig(nodes, 0)
		churn.JoinGap = sim.Millisecond
		churn.Seed = int64(i + 1)
		d := proto.NewChurnDriver(ss, churn)
		d.Start()
		var m *metrics.Plane
		if sampleEvery > 0 {
			m = metrics.New(sampleEvery, 0)
			m.Attach(ss.SE)
			metricsreg.RegisterProtoGauges(m, ss)
			metricsreg.RegisterNetCounters(m, ss.Net, "net")
			m.Poke()
		}
		ss.RunUntil(d.ChurnStart.Add(5 * sim.Second))
		// Flush the join storm's garbage (and any prior sub-benchmark's
		// lingering heap) before timing, so the measured window reflects
		// heartbeat work rather than inherited GC debt.
		runtime.GC()
		b.StartTimer()
		ss.RunUntil(ss.SE.Now().Add(30 * sim.Second))
		b.StopTimer()
		alive := ss.AliveHosts()
		ss.Close()
		if alive < nodes*9/10 {
			b.Fatalf("population collapsed: %d of %d alive", alive, nodes)
		}
		if m != nil && m.Samples() == 0 {
			b.Fatal("telemetry plane took no samples in the timed window")
		}
		b.StartTimer()
	}
}

// BenchmarkShardedHeartbeatMetricsOverhead prices the sharded
// telemetry plane: the identical modest-scale heartbeat workload with
// no plane and with a 5-second sampling cadence at barriers. The
// off/on ns/op gap is the whole cost of telemetry — the determinism
// contract guarantees the event history itself is unchanged, so any
// difference is shard-order reads and ring writes at barriers.
func BenchmarkShardedHeartbeatMetricsOverhead(b *testing.B) {
	const nodes, shards = 2000, 4
	workers := runtime.GOMAXPROCS(0)
	if workers > shards {
		workers = shards
	}
	b.Run("metrics=off", func(b *testing.B) {
		benchShardedHeartbeatEvery(b, nodes, shards, workers, 0)
	})
	b.Run("metrics=on", func(b *testing.B) {
		benchShardedHeartbeatEvery(b, nodes, shards, workers, 5*sim.Second)
	})
}

// BenchmarkShardedHeartbeat100k is the bench-xxl speedup smoke for the
// sharded core: the identical 100,000-node heartbeat workload (S=8 is
// a model parameter — the engine's determinism contract makes the
// event history independent of it) executed by one worker and by all
// of them. The W=1 / W=max ns/op ratio read off the bench-xxl log is
// the engine's parallel speedup on the runner; on a single-core
// machine the two entries simply coincide.
func BenchmarkShardedHeartbeat100k(b *testing.B) {
	const shards = 8
	b.Run("W=1", func(b *testing.B) {
		benchShardedHeartbeat(b, experiments.ScaleXXLNodes, shards, 1)
	})
	b.Run("W=max", func(b *testing.B) {
		benchShardedHeartbeat(b, experiments.ScaleXXLNodes, shards, runtime.GOMAXPROCS(0))
	})
}

// benchChurnStormSharded measures the sharded core under sustained
// churn: the join storm and warmup run untimed, then 30 virtual seconds
// of the full population heartbeating WHILE the churn driver keeps
// injecting joins, leaves and silent failures on the control plane.
// Unlike benchShardedHeartbeat, the timed window includes admission
// work and the control-plane quiesces it costs.
func benchChurnStormSharded(b *testing.B, nodes, shards, workers int) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		cfg := proto.DefaultConfig(proto.Adaptive)
		cfg.HeartbeatPeriod = 10 * sim.Second
		cfg.Seed = int64(i + 1)
		ss := proto.NewShardedSim(shards, workers, 3, cfg)
		churn := proto.DefaultChurnConfig(nodes, 50*sim.Millisecond)
		churn.JoinGap = sim.Millisecond
		churn.MinEventGap = 10 * sim.Millisecond
		churn.Seed = int64(i + 1)
		d := proto.NewChurnDriver(ss, churn)
		d.Start()
		ss.RunUntil(d.ChurnStart.Add(5 * sim.Second))
		runtime.GC()
		b.StartTimer()
		ss.RunUntil(ss.SE.Now().Add(30 * sim.Second))
		b.StopTimer()
		alive := ss.AliveHosts()
		fails := d.Fails
		ss.Close()
		if alive < nodes*8/10 {
			b.Fatalf("population collapsed: %d of %d alive", alive, nodes)
		}
		if fails == 0 {
			b.Fatal("churn driver injected no failures — the storm never ran")
		}
		b.StartTimer()
	}
}

// BenchmarkChurnStormSharded is the gated churn-storm pair: the
// identical modest-scale churn-storm workload executed by one worker
// and by all of them (S=4). Entries carry GOMAXPROCS in BENCH_*.json
// and gate only against baselines at the same parallelism, so the pair
// pins the churn path's cost without judging parallel against serial.
func BenchmarkChurnStormSharded(b *testing.B) {
	const nodes, shards = 2000, 4
	wmax := runtime.GOMAXPROCS(0)
	if wmax > shards {
		wmax = shards
	}
	b.Run("W=1", func(b *testing.B) { benchChurnStormSharded(b, nodes, shards, 1) })
	b.Run("W=max", func(b *testing.B) { benchChurnStormSharded(b, nodes, shards, wmax) })
}

// BenchmarkChurnStormSharded100k is the bench-xxl speedup smoke under
// churn: the 100,000-node churn storm (S=8) at one worker and at
// GOMAXPROCS. The W=1 / W=max ns/op ratio read off the bench-xxl log is
// the parallel speedup on exactly the regime the paper cares about; on
// a single-core machine the two entries simply coincide.
func BenchmarkChurnStormSharded100k(b *testing.B) {
	const shards = 8
	b.Run("W=1", func(b *testing.B) {
		benchChurnStormSharded(b, experiments.ScaleXXLNodes, shards, 1)
	})
	b.Run("W=max", func(b *testing.B) {
		benchChurnStormSharded(b, experiments.ScaleXXLNodes, shards, runtime.GOMAXPROCS(0))
	})
}

// BenchmarkScaleXXXLLoadBalance runs the 1,000,000-node ScaleXXXL
// configuration end to end with a reduced job count: the bench-xxxl CI
// smoke proving that a seven-figure grid — join storm, placement
// walks, incremental aggregation, candidate indexes and the carry-over
// rebuild — completes inside the timeout. One iteration is a full run.
func BenchmarkScaleXXXLLoadBalance(b *testing.B) {
	cfg := experiments.ScaleXXXLLBConfig(experiments.CanHet)
	cfg.Jobs = 2000
	var wait float64
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		res, err := experiments.RunLoadBalance(cfg)
		if err != nil {
			b.Fatal(err)
		}
		wait = res.WaitTimes.Mean()
	}
	b.ReportMetric(wait, "wait-s")
	reportJobsPerSec(b, cfg.Jobs)
}
