package can

import (
	"testing"

	"hetgrid/internal/geom"
	"hetgrid/internal/rng"
)

// TestNeighborViewMatchesNeighbors checks the cached view against the
// fresh-copy accessor on a static overlay.
func TestNeighborViewMatchesNeighbors(t *testing.T) {
	o := buildOverlay(t, 3, 40, 7)
	for _, n := range o.Nodes() {
		view := o.NeighborView(n.ID)
		want := o.Neighbors(n.ID)
		if len(view) != len(want) {
			t.Fatalf("node %d: view has %d neighbors, want %d", n.ID, len(view), len(want))
		}
		for i := range view {
			if view[i] != want[i] {
				t.Fatalf("node %d: view[%d] = %d, want %d", n.ID, i, view[i].ID, want[i].ID)
			}
		}
	}
}

// TestOutwardViewSemantics checks every outward pair abuts on the high
// side along the recorded dimension, and that no qualifying neighbor is
// missing.
func TestOutwardViewSemantics(t *testing.T) {
	o := buildOverlay(t, 4, 30, 11)
	for _, n := range o.Nodes() {
		want := 0
		for _, nb := range o.NeighborView(n.ID) {
			dim, dir, ok := n.Zone.Abuts(nb.Zone)
			if !ok {
				t.Fatalf("node %d: cached neighbor %d does not abut", n.ID, nb.ID)
			}
			if dir > 0 {
				want++
				_ = dim
			}
		}
		if got := len(o.OutwardView(n.ID)); got != want {
			t.Fatalf("node %d: OutwardView has %d pairs, want %d", n.ID, got, want)
		}
		for _, ow := range o.OutwardView(n.ID) {
			dim, dir, ok := n.Zone.Abuts(ow.Node.Zone)
			if !ok || dir <= 0 || dim != int(ow.Dim) {
				t.Fatalf("node %d: outward pair (%d, dim %d) invalid (abuts dim %d dir %d ok %v)",
					n.ID, ow.Node.ID, ow.Dim, dim, dir, ok)
			}
		}
	}
}

// TestNodesSnapshotSharing pins the delta-maintained snapshot contract:
// Nodes() returns the same backing slice while the version is
// unchanged; a join appends to the shared backing (so a previously
// returned slice header still shows its old, unmutated prefix); a leave
// splices the shared backing in place, so slices held across a leave go
// stale and callers must re-fetch once Version() moves.
func TestNodesSnapshotSharing(t *testing.T) {
	o := buildOverlay(t, 3, 20, 13)
	a := o.Nodes()
	b := o.Nodes()
	if &a[0] != &b[0] {
		t.Fatal("Nodes() reallocated with no intervening churn")
	}
	held := append([]*Node(nil), a...)
	if _, err := o.Join(geom.Point{0.123, 0.456, 0.789}, nil); err != nil {
		t.Fatalf("join: %v", err)
	}
	c := o.Nodes()
	if len(c) != len(a)+1 {
		t.Fatalf("snapshot has %d nodes after join, want %d", len(c), len(a)+1)
	}
	// Joins append: the pre-join slice header still sees its old
	// contents (the shared prefix is untouched).
	for i := range held {
		if a[i] != held[i] {
			t.Fatalf("old snapshot mutated at index %d after join", i)
		}
	}
	// The post-join snapshot shares the same backing array, maintained by
	// delta rather than rebuilt.
	if &c[0] != &a[0] && cap(a) > len(a) {
		t.Fatal("join reallocated the snapshot despite spare capacity")
	}
	// Leaves splice in place: the shared backing mutates, and a fresh
	// fetch sees the departed node gone with ID order preserved.
	victim := c[len(c)/2].ID
	if _, err := o.Leave(victim); err != nil {
		t.Fatalf("leave: %v", err)
	}
	d := o.Nodes()
	if len(d) != len(c)-1 {
		t.Fatalf("snapshot has %d nodes after leave, want %d", len(d), len(c)-1)
	}
	if &d[0] != &c[0] {
		t.Fatal("leave reallocated the snapshot instead of splicing in place")
	}
	for i, n := range d {
		if n.ID == victim {
			t.Fatalf("departed node %d still in snapshot", victim)
		}
		if i > 0 && d[i-1].ID >= n.ID {
			t.Fatalf("snapshot order broken at index %d after splice", i)
		}
	}
}

// TestChurnCacheConsistency interleaves joins and leaves with cached-view
// reads, cross-validating the incremental caches against brute-force
// recomputation (Overlay.Validate) after every single mutation. This is
// the ground-truth check for the selective invalidation scheme: a missed
// invalidation shows up as a stale neighbor list or outward pair on the
// very next read.
func TestChurnCacheConsistency(t *testing.T) {
	const dims = 3
	for _, seed := range []int64{1, 2, 3} {
		o := NewOverlay(dims)
		s := rng.New(seed)
		var live []NodeID
		for step := 0; step < 160; step++ {
			if len(live) < 2 || s.Float64() < 0.6 {
				n, err := o.Join(randomPoint(s, dims), nil)
				if err != nil {
					continue
				}
				live = append(live, n.ID)
			} else {
				idx := s.Intn(len(live))
				id := live[idx]
				live[idx] = live[len(live)-1]
				live = live[:len(live)-1]
				if _, err := o.Leave(id); err != nil {
					t.Fatalf("seed %d step %d: leave(%d): %v", seed, step, id, err)
				}
			}
			// Touch the caches the way the schedulers do, so stale
			// entries would be materialized before validation, and check
			// every outward pair's Pos indexes its neighbor in the view.
			for _, id := range live {
				view := o.NeighborView(id)
				for _, ow := range o.OutwardView(id) {
					if int(ow.Pos) >= len(view) || view[ow.Pos] != ow.Node {
						t.Fatalf("seed %d step %d: node %d outward pair to %d has Pos %d outside its view slot",
							seed, step, id, ow.Node.ID, ow.Pos)
					}
				}
			}
			nodes := o.Nodes()
			if len(nodes) > 1 {
				from := nodes[s.Intn(len(nodes))]
				target := nodes[s.Intn(len(nodes))]
				if _, err := o.Route(from.ID, target.Point); err != nil {
					t.Fatalf("seed %d step %d: route: %v", seed, step, err)
				}
			}
			if err := o.Validate(); err != nil {
				t.Fatalf("seed %d step %d (%d live): %v", seed, step, len(live), err)
			}
		}
	}
}

// TestRouteAppendReusesBuffer checks that RouteAppend routes into the
// caller's buffer without reallocating when capacity suffices.
func TestRouteAppendReusesBuffer(t *testing.T) {
	o := buildOverlay(t, 3, 50, 17)
	nodes := o.Nodes()
	buf := make([]*Node, 0, 4*len(nodes))
	for i := 0; i < 20; i++ {
		from := nodes[i%len(nodes)]
		target := nodes[(i*7+3)%len(nodes)]
		path, err := o.RouteAppend(buf, from.ID, target.Point)
		if err != nil {
			t.Fatalf("route %d: %v", i, err)
		}
		if cap(path) != cap(buf) {
			t.Fatalf("route %d: buffer reallocated (cap %d -> %d)", i, cap(buf), cap(path))
		}
		if path[0] != from || !path[len(path)-1].Zone.Contains(target.Point) {
			t.Fatalf("route %d: bad endpoints", i)
		}
		buf = path
	}
}
