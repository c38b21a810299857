package can

import (
	"slices"
	"sort"
	"testing"

	"hetgrid/internal/geom"
	"hetgrid/internal/rng"
)

// TestSnapshotDeltaProperty drives random churn and, after every single
// mutation, compares the delta-maintained Nodes() snapshot against a
// from-scratch rebuild of the membership (map sweep + ID sort) and
// checks the zone cover/disjointness invariants through the exported
// oracles. This is the satellite property test for the append/splice
// maintenance: a missed splice, a broken sort order or a stale pointer
// shows up on the very next comparison.
func TestSnapshotDeltaProperty(t *testing.T) {
	const dims = 3
	for _, seed := range []int64{11, 12, 13} {
		o := NewOverlay(dims)
		s := rng.New(seed)
		var live []NodeID
		// Materialize the snapshot up front so every subsequent churn
		// event exercises the delta maintenance rather than the first
		// lazy build.
		_ = o.Nodes()
		for step := 0; step < 200; step++ {
			if len(live) < 2 || s.Float64() < 0.55 {
				n, err := o.Join(randomPoint(s, dims), nil)
				if err != nil {
					continue
				}
				live = append(live, n.ID)
			} else {
				i := s.Intn(len(live))
				id := live[i]
				live[i] = live[len(live)-1]
				live = live[:len(live)-1]
				if _, err := o.Leave(id); err != nil {
					t.Fatalf("seed %d step %d: leave(%d): %v", seed, step, id, err)
				}
			}
			got := o.Nodes()
			want := make([]*Node, 0, o.Len())
			for _, n := range o.nodes {
				want = append(want, n)
			}
			sort.Slice(want, func(i, j int) bool { return want[i].ID < want[j].ID })
			if len(got) != len(want) {
				t.Fatalf("seed %d step %d: snapshot has %d nodes, rebuild has %d", seed, step, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("seed %d step %d: snapshot[%d] = node %d, rebuild has %d",
						seed, step, i, got[i].ID, want[i].ID)
				}
			}
			if err := o.CheckSnapshot(); err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
			if err := o.CheckZoneCover(); err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
		}
	}
}

// stampSnapshot is the membership a consumer synchronized at version v
// would hold: every live node's zone, copied.
type stampSnapshot struct {
	v     uint64
	zones map[NodeID]geom.Zone
}

func takeStampSnapshot(o *Overlay) stampSnapshot {
	sn := stampSnapshot{v: o.Version(), zones: make(map[NodeID]geom.Zone, o.Len())}
	for _, n := range o.Nodes() {
		sn.zones[n.ID] = n.Zone.Clone()
	}
	return sn
}

// checkChanged asserts the AppendChanged contract against snapshot sn:
// the result is strictly ascending and contains every ID that joined
// after sn.v (joinedAt records each ID's join version), every ID that
// was live at sn.v and has since left, and every surviving ID whose
// zone differs from its snapshot.
func checkChanged(t *testing.T, o *Overlay, sn stampSnapshot, joinedAt map[NodeID]uint64) {
	t.Helper()
	got := o.AppendChanged(nil, sn.v)
	in := make(map[NodeID]bool, len(got))
	for i, id := range got {
		if i > 0 && got[i-1] >= id {
			t.Fatalf("AppendChanged(%d) not ascending at %d: %v", sn.v, i, got)
		}
		in[id] = true
	}
	for id, v := range joinedAt {
		if v > sn.v && !in[id] {
			t.Fatalf("node %d joined at version %d, missing from AppendChanged(%d)", id, v, sn.v)
		}
	}
	for id, z := range sn.zones {
		n := o.Node(id)
		switch {
		case n == nil && !in[id]:
			t.Fatalf("node %d left after version %d, missing from AppendChanged", id, sn.v)
		case n != nil && !n.Zone.Equal(z) && !in[id]:
			t.Fatalf("node %d changed zone after version %d, missing from AppendChanged", id, sn.v)
		}
	}
}

// TestChangeStampProperty drives random joins and leaves — plus, per
// seed, a chained-point phase that keeps producing deepest-pair
// take-overs (the TestLeaveDuringMergeChain geometry) and a full drain
// through the root leave — while holding zone snapshots taken at random
// synchronization versions. After every mutation, AppendChanged from
// each held version must cover every join, leave and zone rewrite since
// then, and AppendChanged from the current version must be empty.
func TestChangeStampProperty(t *testing.T) {
	const dims = 2
	chain := []geom.Point{
		{0.05, 0.5}, {0.95, 0.5}, {0.55, 0.5}, {0.75, 0.5},
		{0.65, 0.5}, {0.85, 0.5}, {0.60, 0.5}, {0.70, 0.5},
	}
	for _, seed := range []int64{3, 4, 5} {
		o := NewOverlay(dims)
		s := rng.New(seed)
		joinedAt := make(map[NodeID]uint64)
		var snaps []stampSnapshot
		merged, rootLeaves := 0, 0
		step := func(k int) {
			t.Helper()
			if len(snaps) < 6 && s.Bool(0.2) {
				snaps = append(snaps, takeStampSnapshot(o))
			} else if len(snaps) > 0 && s.Bool(0.1) {
				snaps = slices.Delete(snaps, 0, 1)
			}
			for _, sn := range snaps {
				checkChanged(t, o, sn, joinedAt)
			}
			if got := o.AppendChanged(nil, o.Version()); len(got) != 0 {
				t.Fatalf("seed %d step %d: AppendChanged(Version()) = %v, want empty", seed, k, got)
			}
		}
		join := func(p geom.Point) {
			if n, err := o.Join(p, nil); err == nil {
				joinedAt[n.ID] = o.Version()
			}
		}
		leave := func(id NodeID) {
			t.Helper()
			plan, err := o.Leave(id)
			if err != nil {
				t.Fatalf("seed %d: leave(%d): %v", seed, id, err)
			}
			if plan.Merged != nil {
				merged++
			}
			if plan.Taker == nil {
				rootLeaves++
			}
		}
		k := 0
		// Phase 1: random churn around a growing population.
		for ; k < 150; k++ {
			if o.Len() < 3 || s.Bool(0.6) {
				join(randomPoint(s, dims))
			} else {
				nodes := o.Nodes()
				leave(nodes[s.Intn(len(nodes))].ID)
			}
			step(k)
		}
		// Phase 2: a chain of collinear joins, then drain the chain
		// members shallowest-first so take-overs come from deep pairs.
		first := NodeID(len(o.changedAt))
		for _, p := range chain {
			join(p)
			step(k)
			k++
		}
		for id := first; id < NodeID(len(o.changedAt)); id++ {
			if o.Node(id) != nil {
				leave(id)
				step(k)
				k++
			}
		}
		// Phase 3: drain everything, down through the root leave.
		for o.Len() > 0 {
			nodes := o.Nodes()
			leave(nodes[s.Intn(len(nodes))].ID)
			step(k)
			k++
		}
		if merged == 0 || rootLeaves == 0 {
			t.Fatalf("seed %d: %d deepest-pair take-overs, %d root leaves; the property is not exercising them",
				seed, merged, rootLeaves)
		}
	}
}

// TestLeaveRootNeverSplit is the regression test for leaving nodes
// whose leaf has no parent — the root/never-split geometry: a
// single-node overlay empties, accepts a fresh join, and the change
// stamps and snapshot stay coherent through the empty state.
func TestLeaveRootNeverSplit(t *testing.T) {
	o := NewOverlay(2)
	_ = o.Nodes() // force delta maintenance from the start
	n, err := o.Join(geom.Point{0.5, 0.5}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n.leaf.parent != nil {
		t.Fatal("single node's leaf must be the root")
	}
	plan, err := o.Leave(n.ID)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Taker != nil || plan.Merged != nil {
		t.Fatalf("last-node leave returned a non-empty plan %+v", plan)
	}
	if len(o.Nodes()) != 0 {
		t.Fatal("snapshot not empty after last leave")
	}
	if err := o.Validate(); err != nil {
		t.Fatal(err)
	}
	// The stamps must carry the join and the drain: the node changed at
	// version 1 (its join) and again at version 2 (its leave).
	if got := o.AppendChanged(nil, 0); len(got) != 1 || got[0] != n.ID {
		t.Fatalf("AppendChanged(0) = %v, want [%d]", got, n.ID)
	}
	if got := o.AppendChanged(nil, 1); len(got) != 1 || got[0] != n.ID {
		t.Fatalf("AppendChanged(1) = %v, want the leave of node %d", got, n.ID)
	}
	if got := o.AppendChanged(nil, o.Version()); len(got) != 0 {
		t.Fatalf("AppendChanged(Version()) = %v, want empty", got)
	}
	m, err := o.Join(geom.Point{0.25, 0.75}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := o.Nodes(); len(got) != 1 || got[0] != m {
		t.Fatalf("snapshot after rebirth = %v", got)
	}
	if !m.Zone.Equal(geom.UnitZone(2)) {
		t.Fatal("reborn overlay's first node must own the whole space")
	}
	if err := o.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestLeaveDuringMergeChain drains a deep one-sided overlay node by
// node. Chained point geometry keeps producing deepest-pair take-overs
// (plan.Merged != nil), so consecutive leaves repeatedly hit the
// merge-then-move path — including leaves of nodes that were themselves
// just relocated by a previous merge — down through the two-node
// direct-sibling case and the final root leave.
func TestLeaveDuringMergeChain(t *testing.T) {
	o := NewOverlay(2)
	_ = o.Nodes()
	pts := []geom.Point{
		{0.05, 0.5}, {0.95, 0.5}, {0.55, 0.5}, {0.75, 0.5},
		{0.65, 0.5}, {0.85, 0.5}, {0.60, 0.5}, {0.70, 0.5},
	}
	var ids []NodeID
	for _, p := range pts {
		n, err := o.Join(p, nil)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, n.ID)
	}
	mergedLeaves := 0
	// Leave shallowest-first (node 0 sits across the first split from
	// everyone else), so take-overs keep coming from the deep chain.
	for _, id := range ids {
		predicted, hadPlan := o.Takeover(id)
		plan, err := o.Leave(id)
		if err != nil {
			t.Fatalf("leave(%d): %v", id, err)
		}
		if hadPlan && (plan.Taker != predicted.Taker || plan.Merged != predicted.Merged) {
			t.Fatalf("leave(%d) executed %+v, Takeover predicted %+v", id, plan, predicted)
		}
		if plan.Merged != nil {
			mergedLeaves++
			if plan.Merged == plan.Taker {
				t.Fatalf("leave(%d): merge partner equals taker", id)
			}
			if o.Node(plan.Merged.ID) == nil || o.Node(plan.Taker.ID) == nil {
				t.Fatalf("leave(%d): plan references departed nodes", id)
			}
		}
		if err := o.Validate(); err != nil {
			t.Fatalf("after leave(%d): %v", id, err)
		}
	}
	if mergedLeaves == 0 {
		t.Fatal("chain geometry produced no deepest-pair take-over; regression target unexercised")
	}
	if o.Len() != 0 {
		t.Fatalf("%d nodes left after full drain", o.Len())
	}
}

// TestTakeoverOfTakerAfterMerge pins the edge where the node departing
// next is the taker that just moved in a deepest-pair take-over: its
// leaf pointer was rewritten to the vacated leaf, and a stale pointer
// would derail the second plan.
func TestTakeoverOfTakerAfterMerge(t *testing.T) {
	o := NewOverlay(2)
	pts := []geom.Point{
		{0.1, 0.5}, {0.9, 0.5}, {0.6, 0.5}, {0.75, 0.5},
	}
	var nodes []*Node
	for _, p := range pts {
		n, err := o.Join(p, nil)
		if err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, n)
	}
	plan, err := o.Leave(nodes[0].ID)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Merged == nil {
		t.Fatalf("geometry no longer yields a deepest-pair move: %+v", plan)
	}
	// Immediately remove the relocated taker.
	if _, err := o.Leave(plan.Taker.ID); err != nil {
		t.Fatalf("leave of relocated taker: %v", err)
	}
	if err := o.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := o.CheckZoneCover(); err != nil {
		t.Fatal(err)
	}
}
