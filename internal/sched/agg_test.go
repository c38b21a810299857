package sched

import (
	"testing"

	"hetgrid/internal/can"
	"hetgrid/internal/exec"
	"hetgrid/internal/geom"
	"hetgrid/internal/resource"
	"hetgrid/internal/sim"
)

// buildTiedGrid joins nodes on a regular lattice so that many zones
// share identical Lo coordinates in every dimension — the tie-prone
// configuration the sort in rebuildTopology must order deterministically
// by node ID.
func buildTiedGrid(t *testing.T, dims, perDim int) (*can.Overlay, *exec.Cluster, *sim.Engine) {
	t.Helper()
	eng := sim.New()
	ov := can.NewOverlay(dims)
	cl := exec.NewCluster(eng, exec.DefaultConfig())
	var pts []geom.Point
	var walk func(prefix geom.Point)
	walk = func(prefix geom.Point) {
		if len(prefix) == dims {
			pts = append(pts, prefix.Clone())
			return
		}
		for i := 0; i < perDim; i++ {
			walk(append(prefix, (float64(i)+0.5)/float64(perDim)))
		}
	}
	walk(geom.Point{})
	for i, p := range pts {
		caps := &resource.NodeCaps{
			CEs:  []resource.CE{{Type: resource.TypeCPU, Clock: 1, Cores: 1 + i%4}},
			Disk: 100,
		}
		n, err := ov.Join(p, caps)
		if err != nil {
			t.Fatalf("join %v: %v", p, err)
		}
		cl.AddNode(n.ID, caps)
	}
	return ov, cl, eng
}

// bruteAgg recomputes one node's aggregate along one dimension from the
// definition: sum over all nodes whose zone starts at or past this
// node's zone end.
func bruteAgg(ov *can.Overlay, cl *exec.Cluster, id can.NodeID, dim, ntypes int) DimAgg {
	me := ov.Node(id)
	out := DimAgg{ByType: make([]CELoad, ntypes)}
	for _, nd := range ov.Nodes() {
		if nd.Zone.Lo[dim] < me.Zone.Hi[dim] {
			continue
		}
		out.Nodes++
		if rt := cl.Runtime(nd.ID); rt != nil {
			for t := 0; t < ntypes; t++ {
				if req, cores, ok := rt.DemandOn(resource.CEType(t)); ok {
					out.ByType[t] = out.ByType[t].add(CELoad{float64(req), float64(cores)})
				}
			}
		}
	}
	return out
}

// TestAggRefreshTiedZoneCoordinates is the regression test for the
// unstable sort in Refresh: a lattice population has massively tied
// Zone.Lo values in every dimension, and the computed aggregates must
// equal the brute-force definition exactly (not approximately — the
// sums are integer-valued and order-independent).
func TestAggRefreshTiedZoneCoordinates(t *testing.T) {
	const dims, perDim = 3, 3
	ov, cl, _ := buildTiedGrid(t, dims, perDim)
	agg := NewAggTable(dims, 0)
	agg.Refresh(ov, cl)
	for _, nd := range ov.Nodes() {
		for d := 0; d < dims; d++ {
			got := agg.At(nd.ID, d)
			want := bruteAgg(ov, cl, nd.ID, d, 1)
			if got.Nodes != want.Nodes {
				t.Fatalf("node %d dim %d: Nodes = %d, want %d", nd.ID, d, got.Nodes, want.Nodes)
			}
			for ty := 0; ty < 1; ty++ {
				if got.Load(resource.CEType(ty)) != want.ByType[ty] {
					t.Fatalf("node %d dim %d type %d: %+v, want %+v",
						nd.ID, d, ty, got.Load(resource.CEType(ty)), want.ByType[ty])
				}
			}
		}
	}

	// With ties everywhere, the sorted order must still be a pure
	// function of the zone state: (Lo ascending, ID ascending).
	for d := 0; d < dims; d++ {
		order := agg.order[d]
		for i := 1; i < len(order); i++ {
			a, b := agg.nodes[order[i-1]], agg.nodes[order[i]]
			if a.Zone.Lo[d] > b.Zone.Lo[d] ||
				(a.Zone.Lo[d] == b.Zone.Lo[d] && a.ID >= b.ID) {
				t.Fatalf("dim %d: order not (Lo, ID)-sorted at %d: node %d (Lo=%v) before node %d (Lo=%v)",
					d, i, a.ID, a.Zone.Lo[d], b.ID, b.Zone.Lo[d])
			}
		}
	}
}

// TestAggRefreshReuseAcrossChurn verifies the cached topology refreshes
// correctly when membership changes, and that two tables (one warm, one
// cold) agree exactly.
func TestAggRefreshReuseAcrossChurn(t *testing.T) {
	ov, cl, _ := buildTiedGrid(t, 2, 4)
	warm := NewAggTable(2, 0)
	warm.Refresh(ov, cl)
	warm.Refresh(ov, cl) // exercise the reuse path

	// Churn: remove a middle node, then compare warm (incrementally
	// revalidated) against a cold table.
	victim := ov.Nodes()[5].ID
	cl.RemoveNode(victim)
	if _, err := ov.Leave(victim); err != nil {
		t.Fatal(err)
	}
	warm.Refresh(ov, cl)
	cold := NewAggTable(2, 0)
	cold.Refresh(ov, cl)
	for _, nd := range ov.Nodes() {
		for d := 0; d < 2; d++ {
			w, c := warm.At(nd.ID, d), cold.At(nd.ID, d)
			if w.Nodes != c.Nodes || w.Load(0) != c.Load(0) {
				t.Fatalf("node %d dim %d: warm %+v vs cold %+v", nd.ID, d, w, c)
			}
		}
	}
	if warm.At(victim, 0).Nodes != 0 || warm.At(victim, 0).ByType != nil {
		t.Fatalf("departed node still in table: %+v", warm.At(victim, 0))
	}
}

// TestAggAtUnknownIDs pins the dense id index's edges: a departed node,
// a node that joined after the last refresh, IDs beyond any ever issued
// and negative IDs all read as the empty aggregate, whether the table
// last refreshed by splice or by full rebuild, and before any refresh.
func TestAggAtUnknownIDs(t *testing.T) {
	ov, cl, _ := buildTiedGrid(t, 2, 4)
	empty := func(a DimAgg) bool { return a.Nodes == 0 && a.ByType == nil }
	cold := NewAggTable(2, 0)
	if a := cold.At(ov.Nodes()[0].ID, 0); !empty(a) {
		t.Fatalf("unrefreshed table: At = %+v, want empty", a)
	}
	spliced := NewAggTable(2, 0)
	spliced.Refresh(ov, cl)
	victim := ov.Nodes()[5].ID
	cl.RemoveNode(victim)
	if _, err := ov.Leave(victim); err != nil {
		t.Fatal(err)
	}
	spliced.Refresh(ov, cl)
	rebuilt := NewAggTable(2, 0)
	rebuilt.RefreshFull(ov, cl)
	// A node that joins after both refreshes is unseen by both tables.
	caps := &resource.NodeCaps{CEs: []resource.CE{{Type: resource.TypeCPU, Clock: 1, Cores: 2}}, Disk: 100}
	late, err := ov.Join(geom.Point{0.3, 0.3}, caps)
	if err != nil {
		t.Fatal(err)
	}
	cl.AddNode(late.ID, caps)
	live := ov.Nodes()[0].ID
	for name, a := range map[string]*AggTable{"spliced": spliced, "rebuilt": rebuilt} {
		if got := a.At(live, 0); got.Nodes == 0 {
			t.Fatalf("%s: live node %d reads empty", name, live)
		}
		for _, tc := range []struct {
			what string
			id   can.NodeID
			dim  int
		}{
			{"departed", victim, 0},
			{"never seen", late.ID, 1},
			{"beyond range", 1 << 40, 0},
			{"negative", -1, 0},
			{"dim out of range", live, 2},
			{"negative dim", live, -1},
		} {
			if got := a.At(tc.id, tc.dim); !empty(got) {
				t.Errorf("%s: %s At(%d, %d) = %+v, want empty", name, tc.what, tc.id, tc.dim, got)
			}
		}
	}
}

// TestAggRefreshSteadyStateAllocFree pins the tentpole optimization: a
// steady-state refresh (no churn) must not allocate.
func TestAggRefreshSteadyStateAllocFree(t *testing.T) {
	ov, cl, _ := buildTiedGrid(t, 3, 3)
	agg := NewAggTable(3, 0)
	agg.Refresh(ov, cl)
	allocs := testing.AllocsPerRun(10, func() {
		agg.Refresh(ov, cl)
	})
	if allocs > 0 {
		t.Fatalf("steady-state Refresh allocates %.1f objects/op, want 0", allocs)
	}
}
