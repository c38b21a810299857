// Package sched implements the matchmaking and load-balancing
// algorithms of Sections II-B and III-B: the heterogeneity-aware
// decentralized scheme (can-het, Algorithm 1), the prior
// heterogeneity-oblivious scheme (can-hom), and the greedy online
// centralized comparator (central).
package sched

import (
	"cmp"
	"slices"
	"sort"

	"hetgrid/internal/can"
	"hetgrid/internal/exec"
	"hetgrid/internal/perf"
	"hetgrid/internal/resource"
)

var tmrAggRefresh = perf.NewTimer("sched.agg_refresh")

// CELoad is the aggregated load information for one CE type in a region
// of the CAN: the inputs to Equation 3.
type CELoad struct {
	SumRequiredCores float64 // cores demanded by running + queued jobs
	SumCores         float64 // cores installed
}

func (a CELoad) add(b CELoad) CELoad {
	return CELoad{a.SumRequiredCores + b.SumRequiredCores, a.SumCores + b.SumCores}
}

func (a CELoad) sub(b CELoad) CELoad {
	return CELoad{a.SumRequiredCores - b.SumRequiredCores, a.SumCores - b.SumCores}
}

// DimAgg is the aggregate over the region beyond a node along one
// dimension (toward higher resource values). ByType is indexed by
// resource.CEType (0 = CPU, then accelerator slots).
type DimAgg struct {
	Nodes  int // all nodes in the region (Equation 4's NumberOfNodes)
	ByType []CELoad
}

// Load returns the aggregate for CE type t (zero when out of range).
func (d DimAgg) Load(t resource.CEType) CELoad {
	if int(t) < len(d.ByType) {
		return d.ByType[t]
	}
	return CELoad{}
}

// AggStats counts the aggregation plane's refresh work, so drivers and
// the metrics plane can show the incremental path operating: how often
// the table fell back to a full recompute, how many dirty nodes each
// delta refresh consumed, how many Fenwick node updates they cost, and
// how much churn the membership sync absorbed.
type AggStats struct {
	Refreshes      int64 // Refresh + RefreshFull calls
	FullRebuilds   int64 // refreshes that recomputed every node (first use, foreign overlay, all-dirty)
	IncRefreshes   int64 // refreshes whose load deltas came through the dirty drain
	ChurnRefreshes int64 // refreshes that synchronized membership from the overlay's change stamps
	ChurnNodes     int64 // cumulative changed node IDs absorbed by membership syncs
	DirtyDrained   int64 // cumulative dirty-node notifications processed
	FenwickUpdates int64 // cumulative Fenwick tree-node updates applied
	LastDirty      int   // dirty nodes consumed by the most recent refresh
}

// nodeIndex maps node IDs to membership indexes. Overlay IDs are
// sequential, non-negative and never reused, so a slice indexed by ID
// stays dense and a lookup is a bounds check and a load. Entries hold
// index+1, so the zero value means "not tracked" and clear resets the
// whole index.
type nodeIndex []int32

// get returns id's index, or ok=false for untracked and out-of-range IDs.
func (x nodeIndex) get(id can.NodeID) (i int32, ok bool) {
	if id < 0 || id >= can.NodeID(len(x)) {
		return 0, false
	}
	v := x[id]
	return v - 1, v != 0
}

// set records index i for id, growing the index to cover it.
func (x *nodeIndex) set(id can.NodeID, i int32) {
	for can.NodeID(len(*x)) <= id {
		*x = append(*x, 0)
	}
	(*x)[id] = i + 1
}

// del forgets id.
func (x nodeIndex) del(id can.NodeID) {
	if id >= 0 && id < can.NodeID(len(x)) {
		x[id] = 0
	}
}

// AggTable holds, for every node and dimension, the aggregated load
// information over the outer region. In the real system this data rides
// on heartbeats, one hop per period; the simulator recomputes it exactly
// on the heartbeat cadence, which preserves the staleness the paper's
// scheme lives with (decisions between refreshes use old data).
//
// The table is maintained incrementally along both axes of change:
//
//   - Load deltas: the cluster records which nodes had a job start,
//     finish or queue change since the last refresh
//     (exec.Cluster.DrainDirty), and a steady-state Refresh applies
//     only those nodes' load deltas as point updates to per-dimension
//     Fenwick (binary-indexed) trees over the cached sorted orders —
//     O(k·d·log n) for k dirty nodes instead of an O(n·d) sweep.
//   - Membership deltas: on an overlay version change, Refresh asks the
//     overlay which node IDs joined, left or had their zone rewritten
//     since the table's version (can.Overlay.AppendChanged), drops every
//     tracked one and re-admits those still live with their current
//     zone and load — one merge pass per dimension over the sorted
//     orders plus one linear Fenwick reconstruction, O(d·(n+Δ·log n))
//     for Δ changed IDs, instead of the O(d·n·log n) re-sort plus load
//     sweep. The stamps cover any gap, so after first use on an overlay
//     churn never forces a rebuild.
//
// Per-(node, dimension) results are materialized lazily: Refresh bumps
// an epoch, and At fills a row from the Fenwick trees (one binary
// search for the region cut plus one O(log n) prefix query) the first
// time it is read in an epoch. The placement walk touches a handful of
// rows per job, so a read is an ID-indexed slice load plus, at most
// once per epoch, that fill; a steady-state refresh-plus-reads cycle
// allocates nothing.
//
// All sums are exact: loads are integer-valued float64s, far below the
// 2^53 exactness horizon, so every Fenwick tree node, every delta and
// every total-minus-prefix difference is the exact integer it denotes.
// The accumulation order therefore cannot perturb a single output bit.
// The sorted orders are equally canonical: (Zone.Lo[d], ID) is a total
// order, so merging and re-sorting produce the identical permutation.
// Both properties together make the synchronized table bit-identical
// to a from-scratch rebuild (the differential tests assert this).
type AggTable struct {
	dims   int
	ntypes int

	// Topology cache, valid while ov/version match the overlay. nodes
	// is an owned copy of the membership (swap-delete maintained across
	// syncs), not an alias of the overlay's shared snapshot, which
	// mutates in place on churn.
	ov      *can.Overlay
	version uint64
	nodes   []*can.Node // owned membership copy, unordered after syncs
	order   [][]int     // per dim: node indexes sorted by (Zone.Lo[d], ID)
	los     [][]float64 // per dim: the sorted zone starts
	idx     nodeIndex   // node ID → index into nodes
	pos     [][]int32   // per dim: sorted position of node i at pos[d][i]

	// Load state, incrementally maintained between full rebuilds.
	loads []CELoad   // n×ntypes current per-node loads
	tot   []CELoad   // ntypes grid-wide totals
	fen   [][]CELoad // per dim: (n+1)×ntypes Fenwick tree (1-indexed; entry 0 unused)

	// Lazily materialized results. dimAggs[r].ByType points into the
	// byTypes backing; rowEpoch[r] says which epoch filled it.
	epoch    uint64
	rowEpoch []uint64 // n×dims
	dimAggs  []DimAgg // n×dims
	byTypes  []CELoad // n×dims×ntypes

	onDirty   func(can.NodeID) // applyDirty, bound once so Refresh allocates no closure
	onDiscard func(can.NodeID) // no-op drain sink for the first-use rebuild
	cl        *exec.Cluster    // the cluster being drained, valid during Refresh only
	changed   bool             // a drained delta was nonzero (epoch must advance)

	// Membership-sync scratch (syncMembership), reused across refreshes.
	changedIDs []can.NodeID // IDs the overlay stamped since version
	dropped    []int32      // membership indexes of tracked changed IDs
	admitted   []*can.Node  // live changed nodes, in ID order
	dropPos    []int        // per dim: sorted positions of the dropped entries
	ins        []insertion  // per dim: admitted entries in sorted order
	ordMerge   []int        // merged order double-buffer
	losMerge   []float64    // merged zone-start double-buffer

	stats AggStats
}

// insertion is one admitted node's entry in a dimension's sorted order:
// its key, its insertion point in the pre-sync order (the number of
// pre-sync entries sorting before it) and its membership index.
type insertion struct {
	lo float64
	id can.NodeID
	p  int
	i  int
}

// NewAggTable creates an empty table for a d-dimensional CAN with CE
// types 0..gpuSlots.
func NewAggTable(dims int, gpuSlots int) *AggTable {
	a := &AggTable{dims: dims, ntypes: gpuSlots + 1}
	a.onDirty = a.applyDirty
	a.onDiscard = func(can.NodeID) {}
	return a
}

// Stats returns cumulative refresh-cost counters (see AggStats).
func (a *AggTable) Stats() AggStats { return a.stats }

// At returns the aggregate beyond node id along dim. Missing entries
// (before the first refresh, or for departed nodes) return an empty
// aggregate.
//
// Aliasing contract: the returned DimAgg.ByType aliases table-owned
// storage that the next Refresh invalidates — the same backing row is
// refilled in place, so a retained DimAgg silently starts showing the
// new epoch's values. Callers must consume the row (or copy it) before
// the next refresh; TestAggAtAliasing pins this contract.
func (a *AggTable) At(id can.NodeID, dim int) DimAgg {
	i, ok := a.idx.get(id)
	if !ok || dim < 0 || dim >= a.dims {
		return DimAgg{}
	}
	r := int(i)*a.dims + dim
	if a.rowEpoch[r] != a.epoch {
		a.fillRow(r, dim)
	}
	return a.dimAggs[r]
}

// fillRow materializes one (node, dim) aggregate from the Fenwick tree.
// The region beyond the node is the set of nodes whose zone starts at
// or past the node's zone end, i.e. the sorted-order suffix from the
// cut position (found by binary search over the cached zone starts);
// its load is the grid total minus the Fenwick prefix before the cut.
// Totals, tree nodes and the subtraction chain are all exact integers,
// so the result equals a direct suffix sum bit for bit.
func (a *AggTable) fillRow(r, dim int) {
	n := len(a.nodes)
	nt := a.ntypes
	nd := a.nodes[r/a.dims]
	c := sort.SearchFloat64s(a.los[dim], nd.Zone.Hi[dim])
	row := a.byTypes[r*nt : (r+1)*nt]
	copy(row, a.tot)
	fen := a.fen[dim]
	for p := c; p > 0; p &= p - 1 {
		node := fen[p*nt : (p+1)*nt]
		for t := 0; t < nt; t++ {
			row[t] = row[t].sub(node[t])
		}
	}
	a.dimAggs[r] = DimAgg{Nodes: n - c, ByType: row}
	a.rowEpoch[r] = a.epoch
}

// grow returns s resized to n elements, reusing its backing array when
// the capacity allows. Contents are unspecified; callers overwrite (or,
// for rowEpoch, rely on stale values predating the current epoch).
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// rebuildTopology re-sorts the per-dimension orders after churn and
// derives everything that depends on membership alone: the owned node
// copy, the id→index table and each node's sorted position per dimension.
// Ties on the (tie-prone, float-valued) zone starts break by node ID,
// the same discipline as can/bounded.go, so the permutation is a pure
// function of the overlay state rather than of sort.Slice's unstable
// internals — and therefore also of whether churn arrived here or via
// syncMembership.
func (a *AggTable) rebuildTopology(ov *can.Overlay) {
	a.ov, a.version = ov, ov.Version()
	a.nodes = append(a.nodes[:0], ov.Nodes()...)
	nodes := a.nodes
	n := len(nodes)
	if a.order == nil {
		a.order = make([][]int, a.dims)
		a.los = make([][]float64, a.dims)
		a.pos = make([][]int32, a.dims)
		a.fen = make([][]CELoad, a.dims)
	}
	clear(a.idx)
	for i, nd := range nodes {
		a.idx.set(nd.ID, int32(i))
	}
	for d := 0; d < a.dims; d++ {
		idx := grow(a.order[d], n)
		for i := range idx {
			idx[i] = i
		}
		sort.Slice(idx, func(x, y int) bool {
			lx, ly := nodes[idx[x]].Zone.Lo[d], nodes[idx[y]].Zone.Lo[d]
			if lx != ly {
				return lx < ly
			}
			return nodes[idx[x]].ID < nodes[idx[y]].ID
		})
		los := grow(a.los[d], n)
		pos := grow(a.pos[d], n)
		for p, i := range idx {
			los[p] = nodes[i].Zone.Lo[d]
			pos[i] = int32(p)
		}
		a.order[d], a.los[d], a.pos[d] = idx, los, pos
	}

	a.rowEpoch = grow(a.rowEpoch, n*a.dims)
	a.dimAggs = grow(a.dimAggs, n*a.dims)
	a.byTypes = grow(a.byTypes, n*a.dims*a.ntypes)
	// rowEpoch entries (reused or zeroed) all predate the epoch bump in
	// rebuildLoads, so every row reads as stale afterwards; dimAggs and
	// byTypes are overwritten by fillRow before any read.
}

// rebuildLoads recomputes every node's load, the grid totals and the
// per-dimension Fenwick trees from scratch against the cached topology,
// then advances the epoch. O(n·d) — the path for first use and a
// non-enumerable dirty set.
func (a *AggTable) rebuildLoads(cl *exec.Cluster) {
	nodes := a.nodes
	n := len(nodes)
	nt := a.ntypes

	a.loads = grow(a.loads, n*nt)
	a.tot = grow(a.tot, nt)
	for t := range a.tot {
		a.tot[t] = CELoad{}
	}
	for i, nd := range nodes {
		row := a.loads[i*nt : (i+1)*nt]
		for t := range row {
			row[t] = CELoad{}
		}
		if rt := cl.Runtime(nd.ID); rt != nil {
			for t := 0; t < nt; t++ {
				if req, cores, ok := rt.DemandOn(resource.CEType(t)); ok {
					row[t] = CELoad{SumRequiredCores: float64(req), SumCores: float64(cores)}
				}
			}
		}
		for t := 0; t < nt; t++ {
			a.tot[t] = a.tot[t].add(row[t])
		}
	}

	for d := 0; d < a.dims; d++ {
		a.buildFenwick(d)
	}
	a.epoch++
}

// buildFenwick linearly reconstructs dimension d's Fenwick tree from
// the current loads and sorted order: seed each tree node with its
// position's load, then fold every node into its parent. O(n·ntypes).
func (a *AggTable) buildFenwick(d int) {
	n := len(a.nodes)
	nt := a.ntypes
	fen := grow(a.fen[d], (n+1)*nt)
	for t := 0; t < nt; t++ {
		fen[t] = CELoad{}
	}
	order := a.order[d]
	for p := 1; p <= n; p++ {
		i := order[p-1]
		copy(fen[p*nt:(p+1)*nt], a.loads[i*nt:(i+1)*nt])
	}
	for p := 1; p <= n; p++ {
		if q := p + p&-p; q <= n {
			fq := fen[q*nt : (q+1)*nt]
			fp := fen[p*nt : (p+1)*nt]
			for t := 0; t < nt; t++ {
				fq[t] = fq[t].add(fp[t])
			}
		}
	}
	a.fen[d] = fen
}

// applyDirty folds one drained node's load change into the table: the
// delta against the stored load goes to the totals and, per dimension,
// to the Fenwick tree at the node's sorted position — O(d·log n) per
// changed node, nothing at all when the net change is zero.
func (a *AggTable) applyDirty(id can.NodeID) {
	a.stats.LastDirty++
	a.stats.DirtyDrained++
	i, ok := a.idx.get(id)
	if !ok {
		// Not in the tracked membership: either removed from the cluster
		// (the matching overlay leave was synchronized) or never part of
		// the overlay.
		return
	}
	n := len(a.nodes)
	nt := a.ntypes
	row := a.loads[int(i)*nt : (int(i)+1)*nt]
	rt := a.cl.Runtime(id)
	for t := 0; t < nt; t++ {
		var nl CELoad
		if rt != nil {
			if req, cores, ok := rt.DemandOn(resource.CEType(t)); ok {
				nl = CELoad{SumRequiredCores: float64(req), SumCores: float64(cores)}
			}
		}
		if nl == row[t] {
			continue
		}
		d := nl.sub(row[t])
		row[t] = nl
		a.tot[t] = a.tot[t].add(d)
		for dim := 0; dim < a.dims; dim++ {
			fen := a.fen[dim]
			for p := int(a.pos[dim][i]) + 1; p <= n; p += p & -p {
				fen[p*nt+t] = fen[p*nt+t].add(d)
				a.stats.FenwickUpdates++
			}
		}
		a.changed = true
	}
}

// syncMembership brings the topology from a.version up to the overlay's
// current version. Every ID the overlay stamped since then is dropped
// if tracked (its stored load leaves the totals) and re-admitted if
// still live, with its current zone and load; a node that joined and
// left inside the window is neither. Surviving nodes the stamps do not
// name kept their zones, so their keys are unchanged and one merge pass
// per dimension yields the sorted order. The load rows read here are
// current, so a dirty notification for a re-admitted node drained later
// in this refresh nets to a zero delta.
//
// The steps are ordered so every write is O(Δ) except the per-dimension
// merge copy and the position re-file from the first edit onward:
//   - insertion points are binary-searched in the pre-sync order, whose
//     entries still name the nodes they were filed under;
//   - dropped entries are swap-deleted from the membership arrays, and
//     each moved node carries its order entries and positions along;
//   - the merge copies unchanged runs with copy() and re-files pos only
//     from the first edited position, since earlier positions hold.
func (a *AggTable) syncMembership(ov *can.Overlay, cl *exec.Cluster) {
	a.changedIDs = ov.AppendChanged(a.changedIDs[:0], a.version)
	a.version = ov.Version()
	a.stats.ChurnNodes += int64(len(a.changedIDs))
	nt := a.ntypes
	dropped, admitted := a.dropped[:0], a.admitted[:0]
	for _, id := range a.changedIDs {
		if i, ok := a.idx.get(id); ok {
			dropped = append(dropped, i)
			row := a.loads[int(i)*nt : (int(i)+1)*nt]
			for t := range row {
				a.tot[t] = a.tot[t].sub(row[t])
			}
		}
		if nd := ov.Node(id); nd != nil {
			admitted = append(admitted, nd)
		}
	}
	a.dropped, a.admitted = dropped, admitted
	base := len(a.nodes) - len(dropped)
	n := base + len(admitted)

	// Edits per dimension, against the pre-sync arrays.
	nd, na := len(dropped), len(admitted)
	dropPos := grow(a.dropPos, nd*a.dims)
	ins := grow(a.ins, na*a.dims)
	a.dropPos, a.ins = dropPos, ins
	for d := 0; d < a.dims; d++ {
		dp := dropPos[d*nd : (d+1)*nd]
		for k, i := range dropped {
			dp[k] = int(a.pos[d][i])
		}
		slices.Sort(dp)
		in := ins[d*na : (d+1)*na]
		for k, node := range admitted {
			in[k] = insertion{lo: node.Zone.Lo[d], id: node.ID, i: base + k}
		}
		slices.SortFunc(in, func(x, y insertion) int {
			if c := cmp.Compare(x.lo, y.lo); c != 0 {
				return c
			}
			return cmp.Compare(x.id, y.id)
		})
		ord, los := a.order[d], a.los[d]
		for k := range in {
			lo, id := in[k].lo, in[k].id
			in[k].p = sort.Search(len(ord), func(x int) bool {
				if los[x] != lo {
					return los[x] > lo
				}
				return a.nodes[ord[x]].ID > id
			})
		}
	}

	// Swap-delete, highest index first so the moved last entry is never
	// itself one still to be dropped.
	slices.Sort(dropped)
	for k := nd - 1; k >= 0; k-- {
		i, last := int(dropped[k]), len(a.nodes)-1
		a.idx.del(a.nodes[i].ID)
		if i != last {
			moved := a.nodes[last]
			a.nodes[i] = moved
			copy(a.loads[i*nt:(i+1)*nt], a.loads[last*nt:(last+1)*nt])
			a.idx.set(moved.ID, int32(i))
			for d := 0; d < a.dims; d++ {
				p := a.pos[d][last]
				a.pos[d][i] = p
				a.order[d][p] = i
			}
		}
		a.nodes[last] = nil
		a.nodes = a.nodes[:last]
	}
	a.loads = a.loads[:base*nt]
	for k, node := range admitted {
		a.nodes = append(a.nodes, node)
		a.idx.set(node.ID, int32(base+k))
		rt := cl.Runtime(node.ID)
		for t := 0; t < nt; t++ {
			var nl CELoad
			if rt != nil {
				if req, cores, ok := rt.DemandOn(resource.CEType(t)); ok {
					nl = CELoad{SumRequiredCores: float64(req), SumCores: float64(cores)}
				}
			}
			a.loads = append(a.loads, nl)
			a.tot[t] = a.tot[t].add(nl)
		}
	}

	// Merge each dimension's surviving runs with its sorted insertions.
	for d := 0; d < a.dims; d++ {
		dp, in := dropPos[d*nd:(d+1)*nd], ins[d*na:(d+1)*na]
		src, srcLos := a.order[d], a.los[d]
		dst, dstLos := grow(a.ordMerge, n), grow(a.losMerge, n)
		w, r, first := 0, 0, n
		for len(dp) > 0 || len(in) > 0 {
			insert := len(in) > 0 && (len(dp) == 0 || in[0].p <= dp[0])
			p := 0
			if insert {
				p = in[0].p
			} else {
				p = dp[0]
			}
			copy(dst[w:], src[r:p])
			copy(dstLos[w:], srcLos[r:p])
			w, r = w+p-r, p
			first = min(first, w)
			if insert {
				dst[w], dstLos[w] = in[0].i, in[0].lo
				w++
				in = in[1:]
			} else {
				r++
				dp = dp[1:]
			}
		}
		copy(dst[w:], src[r:])
		copy(dstLos[w:], srcLos[r:])
		a.order[d], a.ordMerge = dst, src
		a.los[d], a.losMerge = dstLos, srcLos
		// slices.Grow keeps the prefix that the re-file below relies on
		// (grow would hand back a zeroed array once capacity runs out).
		pos := slices.Grow(a.pos[d][:base], n-base)[:n]
		for k := first; k < n; k++ {
			pos[dst[k]] = int32(k)
		}
		a.pos[d] = pos
	}

	a.rowEpoch = grow(a.rowEpoch, n*a.dims)
	a.dimAggs = grow(a.dimAggs, n*a.dims)
	a.byTypes = grow(a.byTypes, n*a.dims*nt)
	for d := 0; d < a.dims; d++ {
		a.buildFenwick(d)
	}
	// Stale rowEpoch entries (including reused-capacity junk) all hold
	// epochs at or before the pre-bump value, so every row reads as
	// stale after the bump.
	a.epoch++
}

// Refresh brings the table up to date: for each dimension D, the region
// beyond node N is the set of nodes whose zone starts at or past N's
// zone end (zone.Lo[D] ≥ N.zone.Hi[D]) — the nodes reachable by pushing
// further out along D.
//
// The first refresh against an overlay rebuilds from scratch
// (O(d·n·log n) sort plus O(d·n) load sweep). After that a membership
// version change is absorbed by syncMembership, whatever the size of
// the gap, and load changes by draining the cluster's dirty set and
// point-updating the Fenwick trees, O(k·d·log n) for k dirty nodes; a
// non-enumerable dirty set falls back to the O(d·n) load rebuild.
// Refresh is the dirty set's single consumer; a second table over the
// same cluster must use RefreshFull.
func (a *AggTable) Refresh(ov *can.Overlay, cl *exec.Cluster) {
	defer tmrAggRefresh.Start()()
	a.stats.Refreshes++
	a.stats.LastDirty = 0
	if a.ov != ov {
		// Every load is read fresh below, so pending notifications
		// (and a pending all-dirty poison) are consumed unread.
		cl.DrainDirty(a.onDiscard)
		a.rebuildTopology(ov)
		a.rebuildLoads(cl)
		a.stats.FullRebuilds++
		return
	}
	if a.version != ov.Version() {
		a.syncMembership(ov, cl)
		a.stats.ChurnRefreshes++
	}
	a.cl = cl
	a.changed = false
	enumerable := cl.DrainDirty(a.onDirty)
	a.cl = nil
	if !enumerable {
		a.rebuildLoads(cl)
		a.stats.FullRebuilds++
		return
	}
	a.stats.IncRefreshes++
	if a.changed {
		// Invalidate materialized rows; At refills on demand. When every
		// delta was net zero the old rows are still exact, so the epoch
		// (and with it the whole read cache) is left alone.
		a.epoch++
	}
}

// RefreshFull recomputes the table entirely from current cluster state,
// ignoring — and never consuming — the dirty set. It is the reference
// path the differential tests compare the incremental table against,
// and the safe choice for any additional table sharing a cluster whose
// dirty channel is already claimed.
func (a *AggTable) RefreshFull(ov *can.Overlay, cl *exec.Cluster) {
	defer tmrAggRefresh.Start()()
	a.stats.Refreshes++
	a.stats.LastDirty = 0
	if a.ov != ov || a.version != ov.Version() {
		a.rebuildTopology(ov)
	}
	a.rebuildLoads(cl)
	a.stats.FullRebuilds++
}

// Objective evaluates Equation 3 for the region beyond node id along
// dim, for CE type c.
func (a *AggTable) Objective(id can.NodeID, dim int, c resource.CEType) float64 {
	l := a.At(id, dim).Load(c)
	return resource.PushObjective(l.SumRequiredCores, l.SumCores)
}
