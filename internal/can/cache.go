package can

import "sort"

// Version-keyed read caches.
//
// The schedulers and the maintenance plane read the same overlay state
// over and over between churn events: a placement walk asks for a
// node's sorted neighbor list and its outward (push-direction) pairs at
// every hop, and every heartbeat round re-reads membership. Zones and
// adjacency only change inside Join/Leave, so all of these reads are
// pure functions of the overlay version. The overlay therefore keeps:
//
//   - a per-node cached view: the ID-sorted neighbor slice plus the
//     precomputed (neighbor, dim, position) outward pairs derived from
//     Zone.Abuts. Views live in a slice indexed by NodeID (IDs are
//     sequential and never reused), so a read is a bounds check and a
//     load, not a map probe; a node's slot is filled at join and
//     emptied at removal. Views are invalidated selectively — only for
//     nodes whose adjacency or zone geometry actually changed — by the
//     incremental rewire paths, which already know the dirty set;
//   - a shared, version-keyed membership snapshot served by Nodes().
//
// Invalidation invariant: a node's cached view stays correct across a
// mutation unless (a) an edge incident to it was added or removed
// (link/unlink/removeNodeState fire on every such edge), or (b) its own
// zone or a neighbor's zone changed. For (b): on a leave, every node
// whose zone changes (taker, merge partner) has all of its edges
// dropped and rebuilt, so every kept or new neighbor sees a link or
// unlink; on a join, the splitting owner's zone only shrinks along the
// split dimension, and a kept neighbor's abutting face — its touching
// dimension and direction — is unchanged (the touch coordinates did not
// move, and gaining a second touching dimension would make the pair
// corner-contact, i.e. no longer neighbors, which unlinks them). The
// churn fuzz test cross-validates all of this against the brute-force
// recomputation after every mutation.
//
// Cached slices are shared and MUST NOT be modified by callers. They
// remain internally consistent until the next Join/Leave; callers that
// hold them across churn must revalidate against Version().

// Outward is one push direction out of a node: a neighbor on the high
// side of the node's zone along dimension Dim. Pos is the neighbor's
// index in the owner's NeighborView, so a caller that computed a
// per-neighbor result over that view can look it up without a search.
// The int32 fields keep a pair at 16 bytes; a d=11 overlay caches about
// fifty pairs per node.
type Outward struct {
	Node *Node
	Dim  int32
	Pos  int32
}

// nodeView is the cached per-node read view. Invalidation keeps the
// struct (and its slices' capacity) for reuse; only node removal drops
// the entry.
type nodeView struct {
	valid     bool
	neighbors []*Node
	outward   []Outward
}

// addView gives a joining node an (invalid) view slot. IDs are dense
// and never reused, so the slot is normally the next one appended.
func (o *Overlay) addView(id NodeID) {
	for NodeID(len(o.views)) <= id {
		o.views = append(o.views, nil)
	}
	o.views[id] = &nodeView{}
}

// view returns node id's view slot: nil for unknown, departed and
// out-of-range IDs, which doubles as the liveness test of the view
// readers.
func (o *Overlay) view(id NodeID) *nodeView {
	if id < 0 || id >= NodeID(len(o.views)) {
		return nil
	}
	return o.views[id]
}

// invalidateView marks node id's cached view stale. Cheap and
// idempotent; called from every adjacency or zone mutation.
func (o *Overlay) invalidateView(id NodeID) {
	if v := o.view(id); v != nil {
		v.valid = false
	}
}

// dropView discards node id's cached view entirely (node removal).
func (o *Overlay) dropView(id NodeID) {
	if o.view(id) != nil {
		o.views[id] = nil
	}
}

// viewOf returns node id's up-to-date cached view, rebuilding it lazily
// if a mutation invalidated it, or nil when id is not live.
func (o *Overlay) viewOf(id NodeID) *nodeView {
	v := o.view(id)
	if v != nil && !v.valid {
		o.buildView(id, v)
	}
	return v
}

// buildView recomputes the sorted neighbor slice and the outward pairs
// for node id into v, reusing the slices' capacity.
func (o *Overlay) buildView(id NodeID, v *nodeView) {
	v.neighbors = v.neighbors[:0]
	for nbID := range o.neighbors[id] {
		v.neighbors = append(v.neighbors, o.nodes[nbID])
	}
	sort.Slice(v.neighbors, func(i, j int) bool { return v.neighbors[i].ID < v.neighbors[j].ID })
	n := o.nodes[id]
	v.outward = v.outward[:0]
	for i, nb := range v.neighbors {
		if dim, dir, ok := n.Zone.Abuts(nb.Zone); ok && dir > 0 {
			v.outward = append(v.outward, Outward{Node: nb, Dim: int32(dim), Pos: int32(i)})
		}
	}
	v.valid = true
}

// WarmViews rebuilds every live node's cached view that a mutation
// invalidated. After it returns — and until the next Join or Leave —
// view reads (NeighborView, OutwardView, BoundedNeighborIDs) touch no
// cache state, so several goroutines may read disjoint or even
// overlapping node sets concurrently. Parallel oracle sweeps run this
// warm pass serially first for exactly that guarantee.
func (o *Overlay) WarmViews() {
	for id := range o.views {
		o.viewOf(NodeID(id))
	}
}

// NeighborView returns node id's neighbors sorted by ID as a shared
// cached slice: the same contents as Neighbors, without the per-call
// allocation and sort. The slice must not be modified and is valid
// until the next Join or Leave.
func (o *Overlay) NeighborView(id NodeID) []*Node {
	if v := o.viewOf(id); v != nil {
		return v.neighbors
	}
	return nil
}

// OutwardView returns the cached (neighbor, dim) pairs where the
// neighbor sits on node id's high side along dim — the push directions
// of the matchmaking walk. Pairs appear in neighbor-ID order. The slice
// must not be modified and is valid until the next Join or Leave.
func (o *Overlay) OutwardView(id NodeID) []Outward {
	if v := o.viewOf(id); v != nil {
		return v.outward
	}
	return nil
}
