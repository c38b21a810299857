package can

import (
	"fmt"
	"runtime"
	"sync"
)

// parallelRows runs check(i) for every row i in [0, n) across
// GOMAXPROCS goroutines (rows dealt round-robin, which balances the
// triangular sweeps below) and returns the error of the LOWEST failing
// row — the same error a serial ascending sweep would report, so
// parallelism never changes which violation a test sees. The callback
// must only read shared state.
func parallelRows(n int, check func(i int) error) error {
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := check(i); err != nil {
				return err
			}
		}
		return nil
	}
	errRow := make([]int, workers)
	errVal := make([]error, workers)
	var wg sync.WaitGroup
	wg.Add(workers)
	for k := 0; k < workers; k++ {
		go func(k int) {
			defer wg.Done()
			errRow[k] = n
			for i := k; i < n; i += workers {
				if err := check(i); err != nil {
					errRow[k], errVal[k] = i, err
					return
				}
			}
		}(k)
	}
	wg.Wait()
	best, bestRow := error(nil), n
	for k := 0; k < workers; k++ {
		if errVal[k] != nil && errRow[k] < bestRow {
			best, bestRow = errVal[k], errRow[k]
		}
	}
	return best
}

// Validate exhaustively checks the overlay's invariants. It is O(n²) and
// intended for tests and debugging, not for use inside simulations:
//
//  1. Every leaf zone contains its owner's coordinate, and the leaf
//     zones exactly partition each internal zone (and hence the space).
//  2. The nodes map and the tree agree on membership and zones.
//  3. The incrementally maintained adjacency equals the brute-force
//     face-sharing relation.
func (o *Overlay) Validate() error {
	if o.root == nil {
		if len(o.nodes) != 0 {
			return fmt.Errorf("empty tree but %d nodes registered", len(o.nodes))
		}
		return nil
	}

	seen := make(map[NodeID]*Node)
	var walk func(t *treeNode) error
	walk = func(t *treeNode) error {
		if !t.zone.Valid() {
			return fmt.Errorf("invalid zone %v", t.zone)
		}
		if t.isLeaf() {
			n := t.owner
			if !n.Moved && !t.zone.Contains(n.Point) {
				return fmt.Errorf("node %d: zone %v does not contain point %v", n.ID, t.zone, n.Point)
			}
			if n.Moved && t.zone.Contains(n.Point) {
				return fmt.Errorf("node %d: marked moved but zone contains its point", n.ID)
			}
			if !n.Zone.Equal(t.zone) {
				return fmt.Errorf("node %d: cached zone %v differs from tree zone %v", n.ID, n.Zone, t.zone)
			}
			if n.leaf != t {
				return fmt.Errorf("node %d: stale leaf pointer", n.ID)
			}
			if seen[n.ID] != nil {
				return fmt.Errorf("node %d owns two leaves", n.ID)
			}
			seen[n.ID] = n
			return nil
		}
		lo, hi := t.zone.Split(t.dim, t.plane)
		if !t.low.zone.Equal(lo) || !t.high.zone.Equal(hi) {
			return fmt.Errorf("children zones do not partition parent %v at dim %d plane %v", t.zone, t.dim, t.plane)
		}
		if t.low.parent != t || t.high.parent != t {
			return fmt.Errorf("broken parent pointers under zone %v", t.zone)
		}
		if err := walk(t.low); err != nil {
			return err
		}
		return walk(t.high)
	}
	if err := walk(o.root); err != nil {
		return err
	}

	if len(seen) != len(o.nodes) {
		return fmt.Errorf("tree has %d owners, nodes map has %d", len(seen), len(o.nodes))
	}
	for id := range o.nodes {
		if seen[id] == nil {
			return fmt.Errorf("node %d registered but owns no leaf", id)
		}
	}

	// Direct (tree-independent) zone cover/disjointness over the live
	// node set.
	if err := o.CheckZoneCover(); err != nil {
		return err
	}

	// Brute-force adjacency, sharded across workers by row (read-only
	// over the overlay; minutes of single-core time at 100k nodes).
	nodes := o.Nodes()
	if err := parallelRows(len(nodes), func(i int) error {
		a := nodes[i]
		for _, b := range nodes[i+1:] {
			_, _, abuts := a.Zone.Abuts(b.Zone)
			linked := o.IsNeighbor(a.ID, b.ID)
			if abuts != linked {
				return fmt.Errorf("nodes %d and %d: abuts=%v but linked=%v (zones %v / %v)",
					a.ID, b.ID, abuts, linked, a.Zone, b.Zone)
			}
			if linked != o.IsNeighbor(b.ID, a.ID) {
				return fmt.Errorf("asymmetric adjacency between %d and %d", a.ID, b.ID)
			}
		}
		return nil
	}); err != nil {
		return err
	}

	return o.validateCaches()
}

// CheckSnapshot verifies the delta-maintained Nodes() snapshot against
// the membership ground truth: when the snapshot is marked valid it
// must be stamped with the current version and hold exactly the live
// nodes in strictly ascending ID order. Those three properties pin the
// slice bit-for-bit to what a from-scratch rebuild (map sweep + sort
// by ID) would produce, since the sorted order of a fixed node set is
// unique. Exported as a reusable oracle for property tests in other
// packages; a stale (invalid) snapshot carries no claim.
func (o *Overlay) CheckSnapshot() error {
	if !o.snapValid {
		return nil
	}
	if o.snapVersion != o.Version() {
		return fmt.Errorf("snapshot marked valid at version %d, overlay at %d", o.snapVersion, o.Version())
	}
	if len(o.snap) != len(o.nodes) {
		return fmt.Errorf("snapshot has %d nodes, overlay has %d", len(o.snap), len(o.nodes))
	}
	for i, n := range o.snap {
		if i > 0 && o.snap[i-1].ID >= n.ID {
			return fmt.Errorf("snapshot not strictly ID-sorted at index %d", i)
		}
		if o.nodes[n.ID] != n {
			return fmt.Errorf("snapshot entry %d is not the live node", n.ID)
		}
	}
	return nil
}

// CheckZoneCover verifies the space-partition invariant directly on the
// live node set, independent of the split tree: the zones' volumes sum
// to the unit volume (within float tolerance) and no two zones overlap.
// O(n²); exported as a reusable oracle for churn property tests.
func (o *Overlay) CheckZoneCover() error {
	if len(o.nodes) == 0 {
		return nil
	}
	nodes := o.Nodes()
	total := 0.0
	for _, n := range nodes {
		total += n.Zone.Volume()
	}
	if total < 0.999999 || total > 1.000001 {
		return fmt.Errorf("zone volumes sum to %v, want 1", total)
	}
	return parallelRows(len(nodes), func(i int) error {
		a := nodes[i]
		for _, b := range nodes[i+1:] {
			overlap := true
			for d := 0; d < o.dims; d++ {
				if a.Zone.Lo[d] >= b.Zone.Hi[d] || b.Zone.Lo[d] >= a.Zone.Hi[d] {
					overlap = false
					break
				}
			}
			if overlap {
				return fmt.Errorf("zones of nodes %d and %d overlap (%v / %v)", a.ID, b.ID, a.Zone, b.Zone)
			}
		}
		return nil
	})
}

// validateCaches cross-checks the version-keyed read caches against
// brute-force recomputation: the shared membership snapshot, and every
// cached per-node view that is currently marked valid (stale entries are
// rebuilt lazily, so their contents carry no claim).
func (o *Overlay) validateCaches() error {
	if err := o.CheckSnapshot(); err != nil {
		return err
	}

	for id := range o.nodes {
		if o.view(id) == nil {
			return fmt.Errorf("live node %d has no view slot", id)
		}
	}
	for i, v := range o.views {
		id := NodeID(i)
		if v == nil {
			continue
		}
		if o.nodes[id] == nil {
			return fmt.Errorf("cached view for dead node %d", id)
		}
		if !v.valid {
			continue
		}
		n := o.nodes[id]
		// Neighbor list: exactly the adjacency set, strictly ID-sorted.
		if len(v.neighbors) != len(o.neighbors[id]) {
			return fmt.Errorf("node %d: cached view has %d neighbors, adjacency has %d",
				id, len(v.neighbors), len(o.neighbors[id]))
		}
		wantOut := 0
		for i, nb := range v.neighbors {
			if i > 0 && v.neighbors[i-1].ID >= nb.ID {
				return fmt.Errorf("node %d: cached neighbor view not strictly ID-sorted", id)
			}
			if o.nodes[nb.ID] != nb {
				return fmt.Errorf("node %d: cached view holds stale pointer for neighbor %d", id, nb.ID)
			}
			if !o.IsNeighbor(id, nb.ID) {
				return fmt.Errorf("node %d: cached view lists non-neighbor %d", id, nb.ID)
			}
			dim, dir, ok := n.Zone.Abuts(nb.Zone)
			if !ok {
				return fmt.Errorf("node %d: cached neighbor %d no longer abuts", id, nb.ID)
			}
			if dir > 0 {
				if wantOut >= len(v.outward) || v.outward[wantOut].Node != nb ||
					v.outward[wantOut].Dim != int32(dim) || v.outward[wantOut].Pos != int32(i) {
					return fmt.Errorf("node %d: cached outward pairs disagree with Abuts at neighbor %d", id, nb.ID)
				}
				wantOut++
			}
		}
		if wantOut != len(v.outward) {
			return fmt.Errorf("node %d: cached view has %d outward pairs, brute force finds %d",
				id, len(v.outward), wantOut)
		}
	}
	return nil
}

// Stats summarizes overlay shape for diagnostics.
type Stats struct {
	Nodes         int
	AvgNeighbors  float64
	MaxNeighbors  int
	Joins, Leaves int
	TakeoverMoves int
}

// Stats returns current overlay statistics.
func (o *Overlay) Stats() Stats {
	s := Stats{Nodes: len(o.nodes), Joins: o.joins, Leaves: o.leaves, TakeoverMoves: o.takeoverMoves}
	total := 0
	for _, set := range o.neighbors {
		total += len(set)
		if len(set) > s.MaxNeighbors {
			s.MaxNeighbors = len(set)
		}
	}
	if len(o.nodes) > 0 {
		s.AvgNeighbors = float64(total) / float64(len(o.nodes))
	}
	return s
}
