package proto

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"hetgrid/internal/can"
	"hetgrid/internal/geom"
	"hetgrid/internal/netsim"
	"hetgrid/internal/sim"
)

// liveIDs returns the overlay's live node IDs in ascending order, as a
// fresh slice the caller may keep across churn.
func liveIDs(ov *can.Overlay) []can.NodeID {
	nodes := ov.Nodes()
	ids := make([]can.NodeID, len(nodes))
	for i, n := range nodes {
		ids[i] = n.ID
	}
	return ids
}

// referenceVictimPool is the victim-draw population as it was computed
// before the overlay snapshot took over: a walk of every live host and
// a sort of the IDs. Kept frozen as the oracle for the snapshot draw.
func referenceVictimPool(s ChurnSim) []can.NodeID {
	var t *hostTable
	switch v := s.(type) {
	case *Sim:
		t = v.hosts
	case *ShardedSim:
		t = v.hosts
	default:
		panic("unknown sim flavor")
	}
	var ids []can.NodeID
	for _, h := range t.byID {
		if h != nil {
			ids = append(ids, h.id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// referenceDriver replays the churn driver's event stream with the
// reference draw: the same rng streams consumed in the same order, so
// its victims are what the driver drew before the snapshot change.
type referenceDriver struct {
	d       *ChurnDriver
	victims []can.NodeID
}

func (r *referenceDriver) depart() {
	d := r.d
	ids := referenceVictimPool(d.s)
	if len(ids) == 0 {
		return
	}
	id := ids[d.events.Intn(len(ids))]
	r.victims = append(r.victims, id)
	if d.events.Bool(d.cfg.FailFraction) {
		if d.s.Fail(id) == nil {
			d.Fails++
		}
	} else if d.s.LeaveVoluntary(id) == nil {
		d.Leaves++
	}
}

func (r *referenceDriver) churnEvent(sim.Time) {
	d := r.d
	if d.s.AliveHosts() <= d.cfg.MinNodes || d.events.Bool(0.5) {
		d.join()
	} else {
		r.depart()
	}
	gap := sim.FromSeconds(d.events.Exp(d.cfg.MeanEventGap.Seconds()))
	if gap < d.cfg.MinEventGap {
		gap = d.cfg.MinEventGap
	}
	if gap < sim.Millisecond {
		gap = sim.Millisecond
	}
	d.s.ctl().After(gap, r.churnEvent)
}

// stormConfig is a short, dense churn storm: the population hovers near
// its floor, so victim draws index a small, fast-moving live set.
func stormConfig(seed int64) (Config, ChurnConfig) {
	cfg := DefaultConfig(Compact)
	cfg.HeartbeatPeriod = 2 * sim.Second
	cfg.Seed = seed
	churn := DefaultChurnConfig(40, 20*sim.Millisecond)
	churn.JoinGap = 10 * sim.Millisecond
	churn.MinNodes = 12
	churn.Seed = seed
	return cfg, churn
}

// newStormSim builds the engine under test: serial when shards is 0.
func newStormSim(t *testing.T, shards int, cfg Config) (ChurnSim, func(sim.Time)) {
	if shards == 0 {
		s := NewSim(3, cfg)
		return s, s.Eng.RunUntil
	}
	ss := NewShardedSim(shards, 2, 3, cfg)
	t.Cleanup(ss.Close)
	return ss, ss.RunUntil
}

// TestChurnVictimDrawMatchesReference pins the snapshot draw to the
// frozen map-walk-and-sort draw: a seeded churn storm, run once with
// the driver and once with the reference replay, must depart the same
// victims in the same order, on the serial engine and at S=3.
func TestChurnVictimDrawMatchesReference(t *testing.T) {
	const horizon = 12 * sim.Time(sim.Second)
	for _, shards := range []int{0, 3} {
		for _, seed := range []int64{1, 4, 9} {
			cfg, churn := stormConfig(seed)

			s, run := newStormSim(t, shards, cfg)
			d := NewChurnDriver(s, churn)
			var got []can.NodeID
			d.OnLeave = func(id can.NodeID, _ bool) { got = append(got, id) }
			d.Start()
			run(horizon)

			rs, rrun := newStormSim(t, shards, cfg)
			ref := &referenceDriver{d: NewChurnDriver(rs, churn)}
			ref.d.Start()
			// Start scheduled the driver's own churn process; stop it and
			// run the reference process at the same instant instead.
			ref.d.Stop()
			rs.ctl().At(ref.d.ChurnStart, ref.churnEvent)
			rrun(horizon)

			if len(got) < 50 {
				t.Fatalf("S=%d seed=%d: only %d departures; the storm is too short", shards, seed, len(got))
			}
			if fmt.Sprint(got) != fmt.Sprint(ref.victims) {
				t.Fatalf("S=%d seed=%d: victims diverged from the reference draw\n got %v\nwant %v",
					shards, seed, got, ref.victims)
			}
		}
	}
}

// TestChurnMembershipInvariant asserts the host table and the overlay
// agree after every churn event of a storm, on both engines.
func TestChurnMembershipInvariant(t *testing.T) {
	for _, shards := range []int{0, 3} {
		cfg, churn := stormConfig(2)
		s, run := newStormSim(t, shards, cfg)
		check := s.(interface{ CheckMembership() error })
		d := NewChurnDriver(s, churn)
		events := 0
		assert := func(what string, id can.NodeID) {
			events++
			if err := check.CheckMembership(); err != nil {
				t.Fatalf("S=%d: after %s of %d: %v", shards, what, id, err)
			}
		}
		d.OnJoin = func(id can.NodeID) { assert("join", id) }
		d.OnLeave = func(id can.NodeID, failed bool) {
			assert(map[bool]string{true: "fail", false: "leave"}[failed], id)
		}
		d.Start()
		run(8 * sim.Time(sim.Second))
		if d.Leaves == 0 || d.Fails == 0 || events < 100 {
			t.Fatalf("S=%d: storm too thin: %d events, %d leaves, %d fails", shards, events, d.Leaves, d.Fails)
		}
		if err := check.CheckMembership(); err != nil {
			t.Fatalf("S=%d: at the horizon: %v", shards, err)
		}
	}
}

// TestCheckMembershipCatchesDrift removes one host behind the overlay's
// back and expects each invariant check to name the drift.
func TestCheckMembershipCatchesDrift(t *testing.T) {
	build := func(shards int) (ChurnSim, *hostTable, func() error) {
		cfg, churn := stormConfig(3)
		churn.MeanEventGap = 0
		s, run := newStormSim(t, shards, cfg)
		NewChurnDriver(s, churn).Start()
		run(sim.Time(sim.Second))
		if ss, ok := s.(*ShardedSim); ok {
			return s, ss.hosts, ss.CheckMembership
		}
		return s, s.(*Sim).hosts, s.(*Sim).CheckMembership
	}
	for _, shards := range []int{0, 3} {
		s, table, check := build(shards)
		if err := check(); err != nil {
			t.Fatalf("S=%d: clean run fails the check: %v", shards, err)
		}
		victim := s.Overlay().Nodes()[5].ID
		table.byID[victim] = nil
		err := check()
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("overlay node %d has no host", victim)) {
			t.Fatalf("S=%d: removed host %d, check returned %v", shards, victim, err)
		}
	}

	// A host on the wrong shard and a host the overlay no longer has.
	s, table, check := build(3)
	ss := s.(*ShardedSim)
	id := s.Overlay().Nodes()[2].ID
	h := table.get(id)
	home := h.s
	h.s = ss.shards[(home.shard+1)%3]
	if err := check(); err == nil || !strings.Contains(err.Error(), "assigned shard") {
		t.Fatalf("misplaced host %d: check returned %v", id, err)
	}
	h.s = home
	if _, err := ss.Ov.Leave(id); err != nil {
		t.Fatal(err)
	}
	if err := check(); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("host %d has no live overlay node", id)) {
		t.Fatalf("host %d left only the overlay: check returned %v", id, err)
	}
}

// TestHostTableEdges covers the dense table's out-of-range lookups: an
// ID past the end and the -1 no-merge sentinel both read as absent.
func TestHostTableEdges(t *testing.T) {
	s := NewSim(2, fastConfig(Compact))
	if s.Host(0) != nil || s.Host(-1) != nil {
		t.Fatal("empty table returned a host")
	}
	n, err := s.Join(geom.Point{0.5, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if s.Host(n.ID) == nil {
		t.Fatalf("joined node %d has no host", n.ID)
	}
	for _, id := range []can.NodeID{n.ID + 1, n.ID + 1000, -1} {
		if h := s.hosts.get(id); h != nil {
			t.Fatalf("get(%d) = host %d, want nil", id, h.id)
		}
	}

	ss := NewShardedSim(3, 1, 2, fastConfig(Compact))
	defer ss.Close()
	if ss.Host(-1) != nil || ss.shardID(-1) != 0 || ss.shardID(7) != 0 {
		t.Fatal("sharded table resolved an ID that was never admitted")
	}
}

// probeMsg records its delivery.
type probeMsg struct{ delivered *bool }

func (m probeMsg) Deliver(sim.Time) { *m.delivered = true }

// TestShardedSendToDepartedNode checks a message to a departed node
// still routes to the node's old shard (its assignment outlives it) and
// is dropped there by the liveness check, as for an unknown node on the
// serial engine.
func TestShardedSendToDepartedNode(t *testing.T) {
	cfg := fastConfig(Compact)
	// No heartbeat or takeover fires inside the test's few seconds, so
	// the probe is the only event on the departed node's shard.
	cfg.HeartbeatPeriod = sim.Hour
	ss := NewShardedSim(3, 1, 2, cfg)
	defer ss.Close()
	// One node per shard slice of dimension 0, the middle one alone.
	for _, x := range []float64{0.1, 0.5, 0.9, 0.8} {
		if _, err := ss.Join(geom.Point{x, 0.5}); err != nil {
			t.Fatal(err)
		}
	}
	ss.RunUntil(sim.Time(sim.Second))
	victim := ss.Ov.Owner(geom.Point{0.5, 0.5}).ID
	src := ss.Ov.Owner(geom.Point{0.1, 0.5}).ID
	const home = 1
	if ss.shardID(victim) != home || ss.Shard(home).AliveHosts() != 1 {
		t.Fatalf("node %d on shard %d with %d hosts there; want it alone on shard %d",
			victim, ss.shardID(victim), ss.Shard(home).AliveHosts(), home)
	}
	if err := ss.Fail(victim); err != nil {
		t.Fatal(err)
	}
	if ss.shardID(victim) != home {
		t.Fatalf("departed node %d moved from shard %d to %d", victim, home, ss.shardID(victim))
	}

	delivered := false
	g := ss.SE.Global()
	g.At(g.Now(), func(sim.Time) {
		ss.simOf(src).Net.SendMsg(src, victim, 10, netsim.KindOther, probeMsg{&delivered})
	})
	before, recv := ss.SE.Shard(home).Stats().Fired, ss.Net.Node(victim).MsgsRecv
	ss.RunUntil(g.Now() + sim.Time(sim.Second))
	if delivered || ss.Net.Node(victim).MsgsRecv != recv {
		t.Fatalf("message to departed node %d was delivered", victim)
	}
	if fired := ss.SE.Shard(home).Stats().Fired - before; fired != 1 {
		t.Fatalf("shard %d fired %d events, want exactly the dropped probe", home, fired)
	}
}
