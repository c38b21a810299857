package proto

import (
	"fmt"
	"strings"
	"testing"

	"hetgrid/internal/can"
	"hetgrid/internal/netsim"
	"hetgrid/internal/sim"
)

// shardedBatteryConfig is the scenario shared by every run in the
// determinism battery: initial joins, then mixed join/leave/fail churn
// with heartbeats, measured by the broken-link oracle and the traffic
// counters.
func shardedBatteryConfig(scheme Scheme, seed int64) (Config, ChurnConfig) {
	cfg := DefaultConfig(scheme)
	cfg.HeartbeatPeriod = 2 * sim.Second
	cfg.Seed = seed
	churn := DefaultChurnConfig(48, 300*sim.Millisecond)
	churn.JoinGap = 50 * sim.Millisecond
	churn.Seed = seed
	return cfg, churn
}

// batterySim is what the report generator needs from either simulation
// flavor.
type batterySim interface {
	linkOracle
	Overlay() *can.Overlay
	MeanViewSize() float64
}

// shardedBatteryReport renders every observable the experiment drivers
// consume — population, oracle counts, per-kind traffic, per-node
// traffic digest — into one comparable string.
func shardedBatteryReport(s batterySim, total, window netsim.Counters, kind func(netsim.Kind) netsim.Counters, d *ChurnDriver, samples []SamplePoint) string {
	var b strings.Builder
	ids := liveIDs(s.Overlay())
	missing, stale := s.BrokenLinks()
	fmt.Fprintf(&b, "alive=%d mean_view=%.6f missing=%d stale=%d\n", s.AliveHosts(), s.MeanViewSize(), missing, stale)
	fmt.Fprintf(&b, "churn joins=%d leaves=%d fails=%d start=%d\n", d.Joins, d.Leaves, d.Fails, d.ChurnStart)
	fmt.Fprintf(&b, "total=%+v window=%+v\n", total, window)
	for _, k := range netsim.AllKinds {
		fmt.Fprintf(&b, "kind[%s]=%+v\n", k, kind(k))
	}
	var sent, recv int64
	for _, id := range ids {
		c := nodeCounters(s, id)
		sent += c.MsgsSent + int64(id)*c.BytesSent
		recv += c.MsgsRecv + int64(id)*c.BytesRecv
	}
	fmt.Fprintf(&b, "nodes=%d per_node_digest sent=%x recv=%x\n", len(ids), sent, recv)
	for _, sp := range samples {
		fmt.Fprintf(&b, "sample at=%d missing=%d stale=%d nodes=%d\n", sp.At, sp.Missing, sp.Stale, sp.Nodes)
	}
	return b.String()
}

func nodeCounters(s batterySim, id can.NodeID) netsim.Counters {
	switch v := s.(type) {
	case *Sim:
		return v.Net.Node(id)
	case *ShardedSim:
		return v.Net.Node(id)
	}
	panic("unknown sim flavor")
}

func runSerialBattery(scheme Scheme, seed int64, horizon sim.Time) string {
	cfg, churnCfg := shardedBatteryConfig(scheme, seed)
	s := NewSim(3, cfg)
	d := NewChurnDriver(s, churnCfg)
	var samples []SamplePoint
	SampleBrokenLinks(s, 5*sim.Time(sim.Second), 5*sim.Duration(sim.Second), &samples)
	d.Start()
	s.Eng.RunUntil(horizon)
	return shardedBatteryReport(s, s.Net.Total(), s.Net.Window(), s.Net.KindTotal, d, samples)
}

func runShardedBattery(t *testing.T, scheme Scheme, seed int64, shards, workers int, horizon sim.Time) string {
	t.Helper()
	cfg, churnCfg := shardedBatteryConfig(scheme, seed)
	ss := NewShardedSim(shards, workers, 3, cfg)
	defer ss.Close()
	d := NewChurnDriver(ss, churnCfg)
	var samples []SamplePoint
	SampleBrokenLinks(ss, 5*sim.Time(sim.Second), 5*sim.Duration(sim.Second), &samples)
	d.Start()
	ss.RunUntil(horizon)
	return shardedBatteryReport(ss, ss.Net.Total(), ss.Net.Window(), ss.Net.KindTotal, d, samples)
}

// TestShardedSimDeterminism is the protocol-level determinism battery:
// for each heartbeat scheme and seed, the full observable report must
// be byte-identical across every (S, W) combination of the sharded
// engine — S=1 vs S=N and W=1 vs W=N alike. The serial engine is a
// slightly different model at the tie-break level (a control-plane
// delivery and a shard-queue delivery landing on one host at the same
// instant order globally-first under sharding, but by schedule sequence
// serially), so it is compared on the membership observables, which the
// tie order cannot affect, rather than byte-for-byte.
func TestShardedSimDeterminism(t *testing.T) {
	const horizon = 40 * sim.Time(sim.Second)
	combos := [][2]int{{2, 1}, {2, 2}, {4, 1}, {4, 3}, {8, 2}}
	for _, scheme := range []Scheme{Vanilla, Compact, Adaptive} {
		for _, seed := range []int64{1, 7} {
			want := runShardedBattery(t, scheme, seed, 1, 1, horizon)
			if !strings.Contains(want, "joins=") || strings.Contains(want, "alive=0 ") {
				t.Fatalf("%v/seed=%d: degenerate battery:\n%s", scheme, seed, want)
			}
			for _, c := range combos {
				got := runShardedBattery(t, scheme, seed, c[0], c[1], horizon)
				if got != want {
					t.Fatalf("%v/seed=%d: S=%d W=%d diverged from S=1:\n--- S=1\n%s\n--- S=%d W=%d\n%s",
						scheme, seed, c[0], c[1], want, c[0], c[1], got)
				}
			}
			// Churn runs on the control plane off the same seed streams in
			// both flavors, so membership history (and the heartbeat phase
			// draws behind mean view size) must agree with serial exactly.
			serial := runSerialBattery(scheme, seed, horizon)
			if serialHead(serial) != serialHead(want) {
				t.Fatalf("%v/seed=%d: sharded membership diverged from serial:\n--- serial\n%s\n--- sharded\n%s",
					scheme, seed, serial, want)
			}
		}
	}
}

// serialHead extracts the membership lines (alive/view/churn) that the
// serial and sharded models must share verbatim.
func serialHead(report string) string {
	lines := strings.SplitN(report, "\n", 3)
	return strings.Join(lines[:2], "\n")
}

// TestShardedSimCrossShardTraffic guards against a degenerate battery:
// at S=4 the slice partition must actually split the population so the
// run exercises cross-shard heartbeat routing.
func TestShardedSimCrossShardTraffic(t *testing.T) {
	cfg, churnCfg := shardedBatteryConfig(Compact, 1)
	ss := NewShardedSim(4, 2, 3, cfg)
	defer ss.Close()
	d := NewChurnDriver(ss, churnCfg)
	d.Start()
	ss.RunUntil(20 * sim.Time(sim.Second))
	populated := 0
	for i := 0; i < ss.Shards(); i++ {
		if ss.Shard(i).AliveHosts() > 0 {
			populated++
		}
	}
	if populated < 3 {
		t.Fatalf("only %d of 4 shards populated — battery is not exercising cross-shard traffic", populated)
	}
	if _, ok := d.s.(*ShardedSim); !ok {
		t.Fatalf("driver not bound to the sharded sim")
	}
}
