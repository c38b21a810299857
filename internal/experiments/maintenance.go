package experiments

import (
	"fmt"
	"runtime"

	"hetgrid/internal/metrics"
	"hetgrid/internal/metricsreg"
	"hetgrid/internal/netsim"
	"hetgrid/internal/proto"
	"hetgrid/internal/sim"
)

// MaintSchemes lists the heartbeat schemes in figure order.
var MaintSchemes = []proto.Scheme{proto.Vanilla, proto.Compact, proto.Adaptive}

// ResilienceConfig parameterizes the Figure 7 run: broken links over
// time under high churn (events faster than the heartbeat period).
type ResilienceConfig struct {
	Scheme          proto.Scheme
	Nodes           int
	Dims            int
	HeartbeatPeriod sim.Duration
	// MeanEventGap controls churn intensity; the high-churn regime uses
	// a gap well under the heartbeat period.
	MeanEventGap sim.Duration
	FailFraction float64
	// Horizon is how long to run after the initial joins.
	Horizon sim.Duration
	// SampleEvery sets the broken-link sampling cadence.
	SampleEvery sim.Duration
	Seed        int64
	// Metrics, when non-nil, samples protocol health and per-kind
	// traffic on the run's virtual clock (telemetry-only).
	Metrics *metrics.Plane
}

// DefaultResilienceConfig mirrors the paper's Figure 7 setup: the
// 11-dimensional CAN with 1000 nodes under high churn, run past 30000
// simulated seconds.
func DefaultResilienceConfig(scheme proto.Scheme) ResilienceConfig {
	return ResilienceConfig{
		Scheme:          scheme,
		Nodes:           1000,
		Dims:            11,
		HeartbeatPeriod: 60 * sim.Second,
		MeanEventGap:    15 * sim.Second,
		FailFraction:    0.5,
		Horizon:         30000 * sim.Second,
		SampleEvery:     500 * sim.Second,
		Seed:            1,
	}
}

// ResilienceResult is one Figure 7 series.
type ResilienceResult struct {
	Config  ResilienceConfig
	Samples []proto.SamplePoint
	Joins   int
	Leaves  int
	Fails   int
}

// MeanBroken returns the time-averaged missing-link count over the
// sampled run.
func (r *ResilienceResult) MeanBroken() float64 {
	if len(r.Samples) == 0 {
		return 0
	}
	sum := 0.0
	for _, s := range r.Samples {
		sum += float64(s.Missing)
	}
	return sum / float64(len(r.Samples))
}

// RunResilience executes one Figure 7 configuration.
func RunResilience(cfg ResilienceConfig) *ResilienceResult {
	pcfg := proto.DefaultConfig(cfg.Scheme)
	pcfg.HeartbeatPeriod = cfg.HeartbeatPeriod
	pcfg.Seed = cfg.Seed
	s := proto.NewSim(cfg.Dims, pcfg)

	cc := proto.DefaultChurnConfig(cfg.Nodes, cfg.MeanEventGap)
	cc.FailFraction = cfg.FailFraction
	cc.Seed = cfg.Seed
	d := proto.NewChurnDriver(s, cc)
	d.Start()
	attachProtoMetrics(cfg.Metrics, s.Eng, s, s.Net)

	res := &ResilienceResult{Config: cfg}
	proto.SampleBrokenLinks(s, d.ChurnStart, cfg.SampleEvery, &res.Samples)
	s.Eng.RunUntil(d.ChurnStart.Add(cfg.Horizon))
	res.Joins, res.Leaves, res.Fails = d.Joins, d.Leaves, d.Fails
	return res
}

// ScalabilityConfig parameterizes one cell of the Figure 8 sweep:
// steady-state maintenance cost for a scheme × dimension × population.
type ScalabilityConfig struct {
	Scheme          proto.Scheme
	Nodes           int
	Dims            int
	HeartbeatPeriod sim.Duration
	// MeanEventGap drives the equilibrium join/leave process during the
	// measurement (the paper's second stage).
	MeanEventGap sim.Duration
	FailFraction float64
	// Warmup runs after the initial joins before measuring; Measure is
	// the measurement window length.
	Warmup  sim.Duration
	Measure sim.Duration
	// MaxPerFace overrides the protocol's tracked-neighbor bound when
	// positive; negative disables the bound (full adjacency tracking);
	// zero keeps the default.
	MaxPerFace int
	Seed       int64
	// Metrics, when non-nil, samples protocol health and per-kind
	// traffic on the run's virtual clock (telemetry-only).
	Metrics *metrics.Plane
}

// DefaultScalabilityConfig returns one Figure 8 cell.
func DefaultScalabilityConfig(scheme proto.Scheme, dims, nodes int) ScalabilityConfig {
	return ScalabilityConfig{
		Scheme:          scheme,
		Nodes:           nodes,
		Dims:            dims,
		HeartbeatPeriod: 60 * sim.Second,
		MeanEventGap:    90 * sim.Second,
		FailFraction:    0.5,
		Warmup:          5 * 60 * sim.Second,
		Measure:         20 * 60 * sim.Second,
		Seed:            1,
	}
}

// ScalabilityResult is one Figure 8 cell: average messages and volume
// per node per minute, in aggregate and split by message kind (indexed
// by netsim.Kind).
type ScalabilityResult struct {
	Config           ScalabilityConfig
	MsgsPerNodeMin   float64
	KBytesPerNodeMin float64
	AvgNeighbors     float64
	ByKind           map[netsim.Kind]KindRate
}

// KindRate is one message kind's measured steady-state cost.
type KindRate struct {
	MsgsPerNodeMin   float64
	KBytesPerNodeMin float64
}

// protoConfig returns the protocol configuration of one Figure 8 cell,
// shared by the serial and sharded drivers.
func (cfg ScalabilityConfig) protoConfig() proto.Config {
	pcfg := proto.DefaultConfig(cfg.Scheme)
	pcfg.HeartbeatPeriod = cfg.HeartbeatPeriod
	if cfg.MaxPerFace > 0 {
		pcfg.MaxPerFace = cfg.MaxPerFace
	} else if cfg.MaxPerFace < 0 {
		pcfg.MaxPerFace = 0
	}
	pcfg.Seed = cfg.Seed
	return pcfg
}

// churnConfig returns the churn process of one Figure 8 cell.
func (cfg ScalabilityConfig) churnConfig() proto.ChurnConfig {
	cc := proto.DefaultChurnConfig(cfg.Nodes, cfg.MeanEventGap)
	cc.FailFraction = cfg.FailFraction
	cc.Seed = cfg.Seed
	return cc
}

// RunScalability executes one Figure 8 cell.
func RunScalability(cfg ScalabilityConfig) *ScalabilityResult {
	s := proto.NewSim(cfg.Dims, cfg.protoConfig())
	d := proto.NewChurnDriver(s, cfg.churnConfig())
	d.Start()
	attachProtoMetrics(cfg.Metrics, s.Eng, s, s.Net)

	s.Eng.RunUntil(d.ChurnStart.Add(cfg.Warmup))
	s.Net.ResetWindow()
	start := s.Eng.Now()
	s.Eng.RunUntil(start.Add(cfg.Measure))

	return summarizeScalability(cfg, s.Ov.AvgNeighbors(), s.AliveHosts(), s.Net.Window(), s.Net.KindWindow)
}

// summarizeScalability folds one measured window into the per-node
// per-minute rates a Figure 8 cell reports, shared by the serial and
// sharded drivers so the two produce comparable (and, for an identical
// event history, identical) results.
func summarizeScalability(cfg ScalabilityConfig, avgNeighbors float64, alive int, w netsim.Counters, kindWindow func(netsim.Kind) netsim.Counters) *ScalabilityResult {
	minutes := cfg.Measure.Minutes()
	nodes := float64(alive)
	res := &ScalabilityResult{Config: cfg, AvgNeighbors: avgNeighbors}
	if nodes > 0 && minutes > 0 {
		res.MsgsPerNodeMin = float64(w.MsgsSent) / nodes / minutes
		res.KBytesPerNodeMin = float64(w.BytesSent) / 1024 / nodes / minutes
		res.ByKind = make(map[netsim.Kind]KindRate, len(netsim.AllKinds))
		for _, k := range netsim.AllKinds {
			kw := kindWindow(k)
			res.ByKind[k] = KindRate{
				MsgsPerNodeMin:   float64(kw.MsgsSent) / nodes / minutes,
				KBytesPerNodeMin: float64(kw.BytesSent) / 1024 / nodes / minutes,
			}
		}
	}
	return res
}

// RunScalabilitySharded executes one Figure 8 cell on the sharded
// simulation core: the same protocol, churn process and measurement
// window as RunScalability, with the keyspace partitioned into shards
// whose heartbeat phases execute on workers worker goroutines under
// the conservative time-window protocol. The sharded engine's
// determinism contract makes the result a pure function of the
// configuration — independent of both shards and workers — so drivers
// can pick the parallelism that fits the machine without perturbing
// the figures (shards and workers ≤ 0 select GOMAXPROCS).
//
// cfg.Metrics, when non-nil, samples the run with the same series
// registrations as RunScalability. The sampler runs on the serial
// control plane at window barriers, with all shards quiesced, and the
// sharded readers sum per-shard state in stable shard order, so the
// exported stream is byte-identical for any (shards, workers) pair and
// the cell's figures are byte-identical to a metrics-off run.
func RunScalabilitySharded(cfg ScalabilityConfig, shards, workers int) *ScalabilityResult {
	if shards <= 0 {
		shards = runtime.GOMAXPROCS(0)
	}
	ss := proto.NewShardedSim(shards, workers, cfg.Dims, cfg.protoConfig())
	defer ss.Close()

	d := proto.NewChurnDriver(ss, cfg.churnConfig())
	d.Start()
	attachProtoMetrics(cfg.Metrics, ss.SE, ss, ss.Net)

	ss.RunUntil(d.ChurnStart.Add(cfg.Warmup))
	ss.Net.ResetWindow()
	start := ss.SE.Now()
	ss.RunUntil(start.Add(cfg.Measure))

	return summarizeScalability(cfg, ss.Ov.AvgNeighbors(), ss.AliveHosts(), ss.Net.Window(), ss.Net.KindWindow)
}

// attachProtoMetrics wires a maintenance run's plane: protocol health
// gauges plus per-kind transport counters. Serial and sharded runs
// register through this one function; on a sharded engine the plane
// samples at window barriers.
func attachProtoMetrics(m *metrics.Plane, eng metrics.Engine, h metricsreg.ProtoHealth, net metricsreg.NetReader) {
	if m == nil {
		return
	}
	m.Attach(eng)
	metricsreg.RegisterProtoGauges(m, h)
	metricsreg.RegisterNetCounters(m, net, "net")
	m.Poke()
}

func (r *ScalabilityResult) String() string {
	return fmt.Sprintf("%s d=%d n=%d: %.1f msgs/node/min, %.1f KB/node/min",
		r.Config.Scheme, r.Config.Dims, r.Config.Nodes, r.MsgsPerNodeMin, r.KBytesPerNodeMin)
}
