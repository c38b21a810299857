// Package can implements the variant of a Content-Addressable Network
// (CAN) DHT used by the P2P grid (Section II-A and IV of the paper).
//
// Node resource capabilities map to coordinates in a d-dimensional
// space; each node owns a hyper-rectangular zone containing its own
// coordinate, and the zones of all live nodes partition the space. Nodes
// whose zones share a face are neighbors and exchange periodic
// heartbeats.
//
// Because coordinates are real resource attributes rather than hashes, a
// zone cannot always be split in half on a join: the split plane is
// placed between the two owners' coordinates along the dimension where
// they are farthest apart (relative to the zone extent), giving the
// distributed-KD-tree structure the paper describes. The split history
// predetermines the take-over node used when a node leaves or fails.
//
// The Overlay type is the simulator's ground truth: zone ownership and
// adjacency are always exact here. Per-node protocol views — which can
// go stale and develop broken links — are layered on top by the proto
// package.
package can

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"hetgrid/internal/geom"
	"hetgrid/internal/resource"
	"hetgrid/internal/rng"
)

// NodeID identifies a node in the overlay. IDs are assigned sequentially
// and never reused, so they double as join order.
type NodeID int64

// Node is a member of the overlay. Point and Zone are maintained by the
// Overlay; Caps is optional application payload (nil in protocol-only
// simulations).
type Node struct {
	ID    NodeID
	Point geom.Point
	Zone  geom.Zone
	Caps  *resource.NodeCaps

	// Moved is set when the node has taken over a zone that does not
	// contain its own coordinate (the deepest-pair take-over of
	// Section IV-B / Figure 3). A moved node still routes and splits
	// correctly; its effective position for splitting is its coordinate
	// clamped into its zone.
	Moved bool

	leaf *treeNode
}

// setZone updates the node's zone and derives the Moved flag.
func (n *Node) setZone(z geom.Zone) {
	n.Zone = z
	n.Moved = !z.Contains(n.Point)
}

// effectivePoint is the node's coordinate clamped into its current
// zone: identical to Point unless the node has moved.
func (n *Node) effectivePoint() geom.Point {
	if n.Zone.Contains(n.Point) {
		return n.Point
	}
	p := n.Point.Clone()
	for i := range p {
		if p[i] < n.Zone.Lo[i] {
			p[i] = n.Zone.Lo[i]
		} else if p[i] >= n.Zone.Hi[i] {
			p[i] = math.Nextafter(n.Zone.Hi[i], n.Zone.Lo[i])
		}
	}
	return p
}

// treeNode is a node of the global KD-style split tree. Leaves own
// zones; internal nodes record the split that partitioned their zone.
type treeNode struct {
	zone   geom.Zone
	parent *treeNode

	// Internal nodes:
	dim       int
	plane     float64
	low, high *treeNode

	// Leaves:
	owner *Node
}

func (t *treeNode) isLeaf() bool { return t.owner != nil }

// Overlay is the CAN ground truth. It is not safe for concurrent use;
// the simulation is single-threaded for determinism.
type Overlay struct {
	dims      int
	root      *treeNode
	nodes     map[NodeID]*Node
	neighbors map[NodeID]map[NodeID]struct{}
	nextID    NodeID

	// Version-keyed read caches (cache.go): per-node neighbor/outward
	// views, invalidated selectively by the rewire paths, and the shared
	// membership snapshot served by Nodes(). Once built, the snapshot is
	// maintained by delta — appended on join, spliced on leave — so it
	// never needs an O(n log n) rebuild (snapJoin/snapLeave).
	views       []*nodeView // indexed by NodeID; nil once departed
	snap        []*Node
	snapVersion uint64
	snapValid   bool

	// changedAt holds, indexed by NodeID, the version of that node's
	// last join, zone rewrite or leave. IDs are dense and never reused,
	// so a consumer that last synchronized at version v finds every
	// membership change since then in one scan (AppendChanged).
	changedAt []uint64

	// Counters for diagnostics.
	joins, leaves, takeoverMoves int
}

// NewOverlay creates an empty overlay over the d-dimensional unit space.
func NewOverlay(dims int) *Overlay {
	if dims <= 0 {
		panic("can: dims must be positive")
	}
	return &Overlay{
		dims:      dims,
		nodes:     make(map[NodeID]*Node),
		neighbors: make(map[NodeID]map[NodeID]struct{}),
	}
}

// Dims returns the dimensionality of the overlay's space.
func (o *Overlay) Dims() int { return o.dims }

// Version is a monotonic membership version: it advances on every join
// and leave. Zones only ever change as part of a join or leave (splits,
// take-overs and merges all happen inside those operations), so a cache
// keyed on Version pins both the node set and every node's zone. The
// schedulers use it to reuse sorted indexes between churn events, and
// AppendChanged to catch them up across churn.
func (o *Overlay) Version() uint64 { return uint64(o.joins) + uint64(o.leaves) }

// stamp records that node id joined, left or had its zone rewritten in
// the version step just completed (o.Version() already reflects it).
func (o *Overlay) stamp(id NodeID) {
	for NodeID(len(o.changedAt)) <= id {
		o.changedAt = append(o.changedAt, 0)
	}
	o.changedAt[id] = o.Version()
}

// AppendChanged appends to dst, in ascending order, the ID of every
// node that joined, left or had its zone rewritten after version since,
// and returns the extended slice. A node that joined and left within
// the window is included although it is no longer live; since ==
// Version() yields nothing, and since == 0 yields every ID ever
// admitted.
func (o *Overlay) AppendChanged(dst []NodeID, since uint64) []NodeID {
	for id, v := range o.changedAt {
		if v > since {
			dst = append(dst, NodeID(id))
		}
	}
	return dst
}

// Len returns the number of live nodes.
func (o *Overlay) Len() int { return len(o.nodes) }

// Node returns the live node with the given id, or nil.
func (o *Overlay) Node(id NodeID) *Node { return o.nodes[id] }

// Nodes returns all live nodes sorted by ID as a shared, version-keyed
// snapshot: repeated calls between churn events return the same slice
// without allocating. The slice must not be modified, and it is only
// guaranteed intact until the next Join or Leave: the snapshot is
// maintained by delta — a join appends (IDs are assigned monotonically,
// so the sort order is preserved and a previously returned prefix is
// untouched), a leave splices the departed entry out of the shared
// backing array in place. Callers that hold a snapshot across churn
// must re-fetch it once Version() moves; the old slice header may then
// show shifted or truncated contents. This trades the former
// fresh-array-per-version guarantee for O(1)/O(n) allocation-free
// maintenance instead of an O(n log n) rebuild per churn event — every
// in-tree consumer either re-fetches per use or revalidates against
// Version() (the ID order itself is load-bearing: scheduler entry-point
// and churn-victim draws index this slice with seeded RNG streams).
// It is the sole live-membership list: the protocol simulations keep
// no sorted ID list of their own, and their host tables are checked
// against this snapshot, not the other way round.
func (o *Overlay) Nodes() []*Node {
	if o.snapValid && o.snapVersion == o.Version() {
		return o.snap
	}
	ns := make([]*Node, 0, len(o.nodes))
	for _, n := range o.nodes {
		ns = append(ns, n)
	}
	sort.Slice(ns, func(i, j int) bool { return ns[i].ID < ns[j].ID })
	o.snap, o.snapVersion, o.snapValid = ns, o.Version(), true
	return ns
}

// snapJoin folds a just-admitted node into the shared snapshot. IDs are
// assigned monotonically and never reused, so appending preserves the
// strict ID sort. Before the first Nodes() call there is nothing to
// maintain; the first call builds the snapshot from the map.
func (o *Overlay) snapJoin(n *Node) {
	if !o.snapValid {
		return
	}
	o.snap = append(o.snap, n)
	o.snapVersion = o.Version()
}

// snapLeave splices a departed node out of the shared snapshot in
// place: binary search by ID, then one memmove. Allocation-free; the
// vacated tail slot is nil-ed so the departed node can be collected.
func (o *Overlay) snapLeave(id NodeID) {
	if !o.snapValid {
		return
	}
	i := sort.Search(len(o.snap), func(k int) bool { return o.snap[k].ID >= id })
	if i >= len(o.snap) || o.snap[i].ID != id {
		// Unreachable while the snapshot invariant holds; fall back to a
		// rebuild rather than corrupt the slice.
		o.snapValid = false
		return
	}
	copy(o.snap[i:], o.snap[i+1:])
	o.snap[len(o.snap)-1] = nil
	o.snap = o.snap[:len(o.snap)-1]
	o.snapVersion = o.Version()
}

// ErrDuplicatePoint is returned by Join when the joining coordinate
// collides exactly with the owner of the zone it lands in; the caller
// should redraw the virtual coordinate and retry.
var ErrDuplicatePoint = errors.New("can: joining point coincides with zone owner's point")

// JoinRedraw admits a node at caps' point through join (Overlay.Join,
// or a protocol simulator's JoinNode). On ErrDuplicatePoint it redraws
// caps.Virtual from redraw and retries, at most eight times; any other
// error returns at once.
func JoinRedraw(join func(geom.Point, *resource.NodeCaps) (*Node, error), space *resource.Space, caps *resource.NodeCaps, redraw *rng.Stream) (*Node, error) {
	for try := 0; ; try++ {
		node, err := join(space.NodePoint(caps), caps)
		if !errors.Is(err, ErrDuplicatePoint) || try >= 8 {
			return node, err
		}
		caps.Virtual = redraw.Float64() * 0.999999
	}
}

// Join inserts a node at the given coordinate and returns it. The zone
// containing the point is split between its current owner and the new
// node. caps may be nil.
func (o *Overlay) Join(p geom.Point, caps *resource.NodeCaps) (*Node, error) {
	if len(p) != o.dims {
		return nil, fmt.Errorf("can: point has %d dims, overlay has %d", len(p), o.dims)
	}
	for i, v := range p {
		if v < 0 || v >= 1 {
			return nil, fmt.Errorf("can: coordinate %d = %v outside [0,1)", i, v)
		}
	}
	n := &Node{ID: o.nextID, Point: p.Clone(), Caps: caps}

	if o.root == nil {
		n.Zone = geom.UnitZone(o.dims)
		o.root = &treeNode{zone: n.Zone.Clone(), owner: n}
		n.leaf = o.root
		o.nextID++
		o.nodes[n.ID] = n
		o.neighbors[n.ID] = make(map[NodeID]struct{})
		o.addView(n.ID)
		o.joins++
		o.snapJoin(n)
		o.stamp(n.ID)
		return n, nil
	}

	leaf := o.locate(p)
	owner := leaf.owner
	ownerPt := owner.effectivePoint()
	dim, plane, ok := chooseSplit(leaf.zone, ownerPt, p)
	if !ok {
		return nil, ErrDuplicatePoint
	}

	lowZone, highZone := leaf.zone.Split(dim, plane)
	lowLeaf := &treeNode{zone: lowZone, parent: leaf}
	highLeaf := &treeNode{zone: highZone, parent: leaf}
	if ownerPt[dim] < plane {
		lowLeaf.owner, highLeaf.owner = owner, n
	} else {
		lowLeaf.owner, highLeaf.owner = n, owner
	}
	leaf.owner = nil
	leaf.dim, leaf.plane = dim, plane
	leaf.low, leaf.high = lowLeaf, highLeaf

	owner.setZone(ownerZone(lowLeaf, highLeaf, owner))
	n.setZone(ownerZone(lowLeaf, highLeaf, n))
	owner.leaf = leafOf(lowLeaf, highLeaf, owner)
	n.leaf = leafOf(lowLeaf, highLeaf, n)

	o.nextID++
	o.nodes[n.ID] = n
	o.neighbors[n.ID] = make(map[NodeID]struct{})
	o.addView(n.ID)
	o.rewireAfterJoin(owner, n)
	o.joins++
	o.snapJoin(n)
	o.stamp(owner.ID)
	o.stamp(n.ID)
	return n, nil
}

func ownerZone(a, b *treeNode, n *Node) geom.Zone {
	if a.owner == n {
		return a.zone.Clone()
	}
	return b.zone.Clone()
}

func leafOf(a, b *treeNode, n *Node) *treeNode {
	if a.owner == n {
		return a
	}
	return b
}

// chooseSplit picks the split dimension and plane for admitting point b
// into the zone owned by the node at point a. Among the dimensions
// where the two points differ (only those can separate them with an
// axis-aligned plane), it prefers the one where the zone is widest —
// the original CAN's cycling discipline, which keeps zones close to
// cubic so the average neighbor count stays O(d) rather than blowing up
// with elongated sliver zones. Width ties (common with catalog-valued
// coordinates) break toward larger point separation. The plane lies
// midway between the two points. ok is false when the points coincide
// in every dimension.
func chooseSplit(z geom.Zone, a, b geom.Point) (dim int, plane float64, ok bool) {
	bestWidth, bestSep := 0.0, 0.0
	dim = -1
	for i := range a {
		sep := a[i] - b[i]
		if sep < 0 {
			sep = -sep
		}
		if sep == 0 {
			continue
		}
		w := z.Width(i)
		if w > bestWidth || (w == bestWidth && sep > bestSep) {
			bestWidth, bestSep, dim = w, sep, i
		}
	}
	if dim < 0 {
		return 0, 0, false
	}
	lo, hi := a[dim], b[dim]
	if lo > hi {
		lo, hi = hi, lo
	}
	return dim, (lo + hi) / 2, true
}

// locate descends the tree to the leaf whose zone contains p.
func (o *Overlay) locate(p geom.Point) *treeNode {
	t := o.root
	for !t.isLeaf() {
		if p[t.dim] < t.plane {
			t = t.low
		} else {
			t = t.high
		}
	}
	return t
}

// Owner returns the node whose zone contains p, or nil when the overlay
// is empty.
func (o *Overlay) Owner(p geom.Point) *Node {
	if o.root == nil {
		return nil
	}
	return o.locate(p).owner
}

// TakeoverPlan describes how a node's departure is absorbed, as
// predetermined by the split tree (Section IV-B, Figure 3).
type TakeoverPlan struct {
	// Taker is the node that assumes the departing node's zone.
	Taker *Node
	// Merged, when non-nil, is the node that absorbs Taker's former
	// zone: Taker was one of the deepest pair of sibling leaves in the
	// departing node's sibling subtree, and Merged (its pair partner)
	// merges the pair's zones before Taker moves. Nil when the departing
	// node's direct sibling is a leaf and simply grows.
	Merged *Node
}

// Takeover reports the take-over plan for node id without mutating the
// overlay, or ok=false when the node is the only member (no one to take
// over) or unknown.
func (o *Overlay) Takeover(id NodeID) (TakeoverPlan, bool) {
	n := o.nodes[id]
	if n == nil || n.leaf.parent == nil {
		return TakeoverPlan{}, false
	}
	sib := sibling(n.leaf)
	if sib.isLeaf() {
		return TakeoverPlan{Taker: sib.owner}, true
	}
	pair := deepestLeafPair(sib)
	return TakeoverPlan{Taker: pair.high.owner, Merged: pair.low.owner}, true
}

// Leave removes node id from the overlay, executing the take-over plan:
// the taker assumes the departing zone (first merging its own zone into
// its pair partner's when it comes from deeper in the sibling subtree).
// It returns the plan that was executed. Removing the last node empties
// the overlay.
func (o *Overlay) Leave(id NodeID) (TakeoverPlan, error) {
	n := o.nodes[id]
	if n == nil {
		return TakeoverPlan{}, fmt.Errorf("can: leave of unknown node %d", id)
	}
	o.leaves++
	if n.leaf.parent == nil {
		// Last node: the overlay becomes empty.
		o.root = nil
		o.removeNodeState(id)
		o.stamp(id)
		return TakeoverPlan{}, nil
	}

	plan, _ := o.Takeover(id)
	affectedBefore := o.adjacencyFrontier(n, plan)

	if plan.Merged != nil {
		// The taker leaves its own leaf: its pair partner absorbs the
		// pair's parent zone.
		pairParent := plan.Taker.leaf.parent
		collapse(pairParent, plan.Merged)
		plan.Merged.setZone(pairParent.zone.Clone())
		plan.Merged.leaf = pairParent
		o.takeoverMoves++
	} else {
		// Direct sibling grows over the vacated zone: collapse the
		// departing node's parent into a single leaf owned by the taker.
		parent := n.leaf.parent
		collapse(parent, plan.Taker)
		plan.Taker.setZone(parent.zone.Clone())
		plan.Taker.leaf = parent
		o.removeNodeState(id)
		o.rewireAfterLeave(affectedBefore, plan)
		o.stamp(id)
		o.stamp(plan.Taker.ID)
		return plan, nil
	}

	// The taker moves into the vacated leaf.
	vacated := n.leaf
	vacated.owner = plan.Taker
	plan.Taker.setZone(vacated.zone.Clone())
	plan.Taker.leaf = vacated
	o.removeNodeState(id)
	o.rewireAfterLeave(affectedBefore, plan)
	o.stamp(id)
	o.stamp(plan.Taker.ID)
	o.stamp(plan.Merged.ID)
	return plan, nil
}

// collapse turns internal node t into a leaf owned by n, discarding its
// subtree (whose zones the caller has already reassigned).
func collapse(t *treeNode, n *Node) {
	t.owner = n
	t.low, t.high = nil, nil
	t.dim, t.plane = 0, 0
}

func sibling(t *treeNode) *treeNode {
	p := t.parent
	if p.low == t {
		return p.high
	}
	return p.low
}

// deepestLeafPair returns the deepest internal node in t's subtree whose
// children are both leaves, breaking depth ties toward the low child so
// the choice is deterministic. Plain recursion (no closure): Takeover
// runs once per heartbeat tick per node, and an escaping closure here
// would allocate on every call.
func deepestLeafPair(t *treeNode) *treeNode {
	best, _ := deepestLeafPairIn(t, 0, nil, -1)
	return best
}

func deepestLeafPairIn(x *treeNode, depth int, best *treeNode, bestDepth int) (*treeNode, int) {
	if x.isLeaf() {
		return best, bestDepth
	}
	if x.low.isLeaf() && x.high.isLeaf() && depth > bestDepth {
		best, bestDepth = x, depth
	}
	best, bestDepth = deepestLeafPairIn(x.low, depth+1, best, bestDepth)
	return deepestLeafPairIn(x.high, depth+1, best, bestDepth)
}

func (o *Overlay) removeNodeState(id NodeID) {
	for nb := range o.neighbors[id] {
		delete(o.neighbors[nb], id)
		o.invalidateView(nb)
	}
	delete(o.neighbors, id)
	delete(o.nodes, id)
	o.dropView(id)
	o.snapLeave(id)
}

// SplitHistory returns the sequence of splits that carved node id's
// current zone, oldest first. Each entry reports the dimension, plane
// and whether the node's zone lies on the low side of that split. This
// is the state a real node would persist locally (Section IV-B).
func (o *Overlay) SplitHistory(id NodeID) []SplitRecord {
	n := o.nodes[id]
	if n == nil {
		return nil
	}
	var recs []SplitRecord
	for t := n.leaf; t.parent != nil; t = t.parent {
		p := t.parent
		recs = append(recs, SplitRecord{Dim: p.dim, Plane: p.plane, Low: p.low == t})
	}
	// Reverse to oldest-first.
	for i, j := 0, len(recs)-1; i < j; i, j = i+1, j-1 {
		recs[i], recs[j] = recs[j], recs[i]
	}
	return recs
}

// SplitRecord is one entry of a node's zone split history.
type SplitRecord struct {
	Dim   int
	Plane float64
	Low   bool // the node's zone is on the low side of the plane
}
