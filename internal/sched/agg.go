// Package sched implements the matchmaking and load-balancing
// algorithms of Sections II-B and III-B: the heterogeneity-aware
// decentralized scheme (can-het, Algorithm 1), the prior
// heterogeneity-oblivious scheme (can-hom), and the greedy online
// centralized comparator (central).
package sched

import (
	"slices"
	"sort"

	"hetgrid/internal/can"
	"hetgrid/internal/exec"
	"hetgrid/internal/perf"
	"hetgrid/internal/resource"
)

var (
	cntAggRefresh     = perf.NewCounter("sched.agg_refreshes")
	cntAggRebuild     = perf.NewCounter("sched.agg_topology_rebuilds")
	cntAggInc         = perf.NewCounter("sched.agg_incremental_refreshes")
	cntAggDirty       = perf.NewCounter("sched.agg_dirty_nodes")
	cntAggFenUpdates  = perf.NewCounter("sched.agg_fenwick_updates")
	cntAggChurnSplice = perf.NewCounter("sched.agg_churn_splice_refreshes")
	cntAggChurnBatch  = perf.NewCounter("sched.agg_churn_batch_refreshes")
	cntAggChurnEvents = perf.NewCounter("sched.agg_churn_events")
	cntAggCarried     = perf.NewCounter("sched.agg_loads_carried")
	tmrAggRefresh     = perf.NewTimer("sched.agg_refresh")
)

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
// how much churn was absorbed by splicing instead of re-sorting.
type AggStats struct {
	Refreshes      int64 // Refresh + RefreshFull calls
	FullRebuilds   int64 // refreshes that recomputed every node (first use, churn gap, all-dirty)
	IncRefreshes   int64 // refreshes whose load deltas came through the dirty drain
	ChurnRefreshes int64 // refreshes that spliced membership deltas instead of re-sorting
	ChurnBatches   int64 // churn refreshes that took the batch compact+merge path
	ChurnEvents    int64 // cumulative journal events absorbed by splices
	DirtyDrained   int64 // cumulative dirty-node notifications processed
	FenwickUpdates int64 // cumulative Fenwick tree-node updates applied
	CarriedLoads   int64 // full-rebuild load rows reused instead of re-queried
	LastDirty      int   // dirty nodes consumed by the most recent refresh
}

// maxSpliceEvents bounds how many journal events one refresh will
// absorb on the per-event splice path. Each per-event splice costs
// O(d·n) in the worst case (an ordered insert/remove memmoves the tail
// of every per-dimension order), so a backlog replayed one event at a
// time goes quadratic. 256 keeps heartbeat-cadence consumers at small
// populations (a handful of events per refresh) on the cheapest path;
// larger batches — steady churn at XXL populations delivers thousands
// of events per heartbeat poll — take the batch compact+merge path
// (batchSplice), which handles the whole backlog in one O(d·(n+Δ·logΔ))
// pass and is bounded only by the journal's adaptive retained window.
const maxSpliceEvents = 256

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
//   - Membership deltas: on an overlay version change, Refresh replays
//     the overlay's churn journal (can.Overlay.ChurnSince) and splices
//     each joined/left/zone-changed node into or out of the sorted
//     orders — an O(d·log n) search plus an O(d·n) tail memmove per
//     event, followed by one linear O(d·n) Fenwick reconstruction —
//     instead of the former full re-sort (O(d·n·log n)) plus load
//     sweep. When the journal gap exceeds the retained window, the
//     batch exceeds maxSpliceEvents, or the table has never seen this
//     overlay, it falls back to the full rebuild, so correctness never
//     depends on the journal's capacity.
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
// order, so splicing and re-sorting produce the identical permutation.
// Both properties together make the churn-spliced table bit-identical
// to a from-scratch rebuild (the differential tests assert this).
type AggTable struct {
	dims   int
	ntypes int

	// Topology cache, valid while ov/version match the overlay. nodes
	// is an owned copy of the membership (swap-delete maintained across
	// splices), not an alias of the overlay's shared snapshot — the
	// snapshot mutates in place on churn, while splice replay needs the
	// pre-churn membership to interpret each journal event against.
	ov      *can.Overlay
	version uint64
	nodes   []*can.Node // owned membership copy, unordered after splices
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

	onDirty   func(can.NodeID)     // applyDirty, bound once so Refresh allocates no closure
	onChurn   func(can.ChurnEvent) // applyChurn, bound once for the same reason
	onCollect func(can.ChurnEvent) // collectChurn, bound once for the batch path
	onDiscard func(can.NodeID)     // no-op drain sink for the full-rebuild path
	onStale   func(can.NodeID)     // stale-set collector for the carry-over rebuild
	cl        *exec.Cluster        // the cluster being drained, valid during Refresh only
	changed   bool                 // a drained delta was nonzero (epoch must advance)

	// Carry-over state for the full-rebuild fallback (rebuildDelta): the
	// previous generation's id→index table and load rows, double-buffered
	// with idx/loads across rebuilds so surviving nodes' loads can be
	// copied instead of re-queried, plus the drained stale-node set that
	// says which survivors must be re-queried anyway.
	prevIdx   nodeIndex
	prevLoads []CELoad
	staleSet  map[can.NodeID]struct{}

	// Batch-splice scratch (batchSplice), reused across refreshes.
	batchIDs   []can.NodeID // affected ids collected from the journal
	remapBuf   []int32      // old membership index → compacted index (-1 dropped)
	ordScratch []int        // per-dim sorted re-admission batch
	ordMerge   []int        // merged order double-buffer
	losScratch []float64    // merged zone-start key double-buffer

	stats AggStats
}

// NewAggTable creates an empty table for a d-dimensional CAN with CE
// types 0..gpuSlots.
func NewAggTable(dims int, gpuSlots int) *AggTable {
	a := &AggTable{dims: dims, ntypes: gpuSlots + 1}
	a.onDirty = a.applyDirty
	a.onChurn = a.applyChurn
	a.onCollect = a.collectChurn
	a.onDiscard = func(can.NodeID) {}
	a.staleSet = make(map[can.NodeID]struct{})
	a.onStale = func(id can.NodeID) { a.staleSet[id] = struct{}{} }
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
// the splice path.
func (a *AggTable) rebuildTopology(ov *can.Overlay) {
	cntAggRebuild.Inc()
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
// then advances the epoch. O(n·d) — the fallback for first use and a
// non-enumerable dirty set; a churn-journal gap with an enumerable
// dirty set takes rebuildDelta instead, which skips the per-node
// DemandOn queries for unchanged survivors.
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

// rebuildDelta is the full-rebuild fallback with the O(n) DemandOn
// sweep removed: membership still re-sorts from scratch (the journal
// could not cover the gap), but load rows are carried over from the
// previous generation for every surviving node the cluster did not
// mark dirty, so only joined or load-changed nodes pay the
// Runtime+DemandOn lookups. The drained dirty set is exactly the set
// of nodes whose DemandOn-relevant state changed since the loads were
// last read (exec.Cluster's channel contract), so a carried row equals
// what the query would return, bit for bit; totals are re-summed in
// the same index order as rebuildLoads over the same exact-integer
// rows, so the Fenwick input — and hence every aggregate — is
// bit-identical to the sweep it replaces.
//
// Call order matters: the dirty set must be drained into staleSet and
// idx/loads swapped into prevIdx/prevLoads BEFORE rebuildTopology
// overwrites them; rebuildFull below owns that sequence.
func (a *AggTable) rebuildDelta(cl *exec.Cluster) {
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
		if oi, ok := a.prevIdx.get(nd.ID); ok {
			if _, stale := a.staleSet[nd.ID]; !stale {
				copy(row, a.prevLoads[int(oi)*nt:(int(oi)+1)*nt])
				a.stats.CarriedLoads++
				cntAggCarried.Inc()
				for t := 0; t < nt; t++ {
					a.tot[t] = a.tot[t].add(row[t])
				}
				continue
			}
		}
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

// rebuildFull is Refresh's fallback when the churn journal cannot
// cover the membership gap. It drains the dirty set first (the old
// path discarded it after the sweep; the new one needs its contents),
// swaps the current id→index table and load rows into the prev buffers,
// re-sorts the topology, and then rebuilds loads — carrying unchanged
// survivors' rows over (rebuildDelta) when the dirty set enumerated
// and the table has prior state for this overlay, re-querying every
// node (rebuildLoads) otherwise.
func (a *AggTable) rebuildFull(ov *can.Overlay, cl *exec.Cluster) {
	clear(a.staleSet)
	enumerable := cl.DrainDirty(a.onStale)
	carry := enumerable && a.ov == ov && len(a.nodes) > 0

	// Swap the generations: prevIdx/prevLoads hold the pre-rebuild
	// mapping; rebuildTopology clears and refills the other buffer.
	a.idx, a.prevIdx = a.prevIdx, a.idx
	a.loads, a.prevLoads = a.prevLoads, a.loads

	a.rebuildTopology(ov)
	if carry {
		a.rebuildDelta(cl)
	} else {
		a.rebuildLoads(cl)
	}
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
	cntAggDirty.Inc()
	i, ok := a.idx.get(id)
	if !ok {
		// Not in the tracked membership: either removed from the cluster
		// (the matching overlay leave was spliced or will force a
		// rebuild) or never part of the overlay.
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
				cntAggFenUpdates.Inc()
			}
		}
		a.changed = true
	}
}

// applyChurn folds one journal event into the topology. Within an
// event the departed node is spliced out first, then surviving nodes
// whose zones were rewritten are repositioned, then the admitted node
// is spliced in; every intermediate array stays sorted with respect to
// its stored keys, so the order of operations cannot change the final
// permutation. References to nodes that a later event in the same
// batch removes (join-then-leave, zone change of a node about to
// depart) resolve to skips — the later event settles them.
func (a *AggTable) applyChurn(ev can.ChurnEvent) {
	a.stats.ChurnEvents++
	cntAggChurnEvents.Inc()
	if ev.Left != can.NoneID {
		a.spliceOut(ev.Left)
	}
	for _, zid := range ev.ZoneChanged {
		if zid != can.NoneID {
			a.reposition(zid)
		}
	}
	if ev.Joined != can.NoneID {
		a.spliceIn(ev.Joined)
	}
}

// spliceOut removes a departed node: its load leaves the totals, its
// entry leaves every per-dimension order, and the membership arrays
// swap-delete (the moved last node's index entry and order entries are
// patched). The per-dimension arrays stay ID-tie-sorted because only
// the departed entry is removed; everything else keeps its key.
func (a *AggTable) spliceOut(id can.NodeID) {
	i32, ok := a.idx.get(id)
	if !ok {
		return // joined and left within the same delta window; never inserted
	}
	i := int(i32)
	nt := a.ntypes
	last := len(a.nodes) - 1
	row := a.loads[i*nt : (i+1)*nt]
	for t := 0; t < nt; t++ {
		a.tot[t] = a.tot[t].sub(row[t])
	}
	for d := 0; d < a.dims; d++ {
		a.removeOrder(d, int(a.pos[d][i]))
	}
	if i != last {
		moved := a.nodes[last]
		a.nodes[i] = moved
		copy(row, a.loads[last*nt:(last+1)*nt])
		a.idx.set(moved.ID, int32(i))
		for d := 0; d < a.dims; d++ {
			p := a.pos[d][last]
			a.pos[d][i] = p
			a.order[d][p] = i
		}
	}
	a.nodes[last] = nil
	a.nodes = a.nodes[:last]
	a.loads = a.loads[:last*nt]
	for d := 0; d < a.dims; d++ {
		a.pos[d] = a.pos[d][:last]
	}
	a.idx.del(id)
}

// spliceIn admits a joined node: appended to the membership arrays,
// its current cluster load added to the totals, and an ordered insert
// into every per-dimension order at its (Zone.Lo[d], ID) position. The
// load row is read from the cluster at splice time, so a dirty
// notification for the same node drained later in this refresh nets to
// a zero delta — exactness is preserved either way.
func (a *AggTable) spliceIn(id can.NodeID) {
	if _, dup := a.idx.get(id); dup {
		return
	}
	nd := a.ov.Node(id)
	if nd == nil {
		return // joined then left within the same delta window
	}
	i := len(a.nodes)
	nt := a.ntypes
	a.nodes = append(a.nodes, nd)
	a.idx.set(id, int32(i))
	rt := a.cl.Runtime(id)
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
	for d := 0; d < a.dims; d++ {
		a.pos[d] = append(a.pos[d], 0)
		a.insertOrder(d, i, nd)
	}
}

// reposition re-files a surviving node whose zone was rewritten by a
// take-over or split: along each dimension where its stored zone start
// differs from the current one, remove at the old sorted position and
// re-insert at the new key. Dimensions whose start did not move keep
// their position (the key is unchanged, so the sorted invariant
// already holds).
func (a *AggTable) reposition(id can.NodeID) {
	i32, ok := a.idx.get(id)
	if !ok {
		return // join was skipped (node already gone) — nothing tracked
	}
	nd := a.ov.Node(id)
	if nd == nil {
		return // a later event in this batch removes it; the splice-out settles it
	}
	i := int(i32)
	a.nodes[i] = nd
	for d := 0; d < a.dims; d++ {
		p := int(a.pos[d][i])
		if a.los[d][p] == nd.Zone.Lo[d] {
			continue
		}
		a.removeOrder(d, p)
		a.insertOrder(d, i, nd)
	}
}

// removeOrder deletes sorted position p from dimension d's order and
// key arrays and re-files the shifted tail's positions. O(n−p).
func (a *AggTable) removeOrder(d, p int) {
	ord, los := a.order[d], a.los[d]
	copy(ord[p:], ord[p+1:])
	copy(los[p:], los[p+1:])
	ord = ord[:len(ord)-1]
	los = los[:len(los)-1]
	a.order[d], a.los[d] = ord, los
	pos := a.pos[d]
	for k := p; k < len(ord); k++ {
		pos[ord[k]] = int32(k)
	}
}

// insertOrder files node index i (zones from nd) into dimension d's
// order at its (Zone.Lo[d], ID) position: binary search plus one tail
// memmove, then re-file the shifted positions. O(log n + (n−p)).
func (a *AggTable) insertOrder(d, i int, nd *can.Node) {
	lo := nd.Zone.Lo[d]
	ord, los := a.order[d], a.los[d]
	p := sort.Search(len(ord), func(k int) bool {
		if los[k] != lo {
			return los[k] > lo
		}
		return a.nodes[ord[k]].ID > nd.ID
	})
	ord = append(ord, 0)
	los = append(los, 0)
	copy(ord[p+1:], ord[p:])
	copy(los[p+1:], los[p:])
	ord[p] = i
	los[p] = lo
	a.order[d], a.los[d] = ord, los
	pos := a.pos[d]
	for k := p; k < len(ord); k++ {
		pos[ord[k]] = int32(k)
	}
}

// collectChurn is the batch path's journal callback: it only gathers
// the ids an event touched. Presence is resolved against the current
// overlay afterwards, so a node that joined and left (or changed zone
// and then departed) within the window settles to its final state
// without replaying the intermediate steps.
func (a *AggTable) collectChurn(ev can.ChurnEvent) {
	a.stats.ChurnEvents++
	cntAggChurnEvents.Inc()
	if ev.Joined != can.NoneID {
		a.batchIDs = append(a.batchIDs, ev.Joined)
	}
	if ev.Left != can.NoneID {
		a.batchIDs = append(a.batchIDs, ev.Left)
	}
	for _, zid := range ev.ZoneChanged {
		if zid != can.NoneID {
			a.batchIDs = append(a.batchIDs, zid)
		}
	}
}

// batchSplice absorbs a large churn backlog in one compact+merge pass
// instead of Δ individual splices. The journal is replayed only to
// collect the affected ids; every affected node that is still tracked
// is dropped from the membership and order arrays (one linear
// compaction per dimension), every affected node still in the overlay
// is re-admitted with its current zone and load, and the re-admitted
// batch — sorted per dimension by (Zone.Lo[d], ID) — merges into the
// compacted order in the same pass. Total cost O(d·(n+Δ·logΔ)) for Δ
// events over n nodes, versus O(Δ·d·n) for per-event splices — the
// difference between a heartbeat-cadence poll surviving steady churn
// at 100k nodes and every poll degenerating to a rebuild.
//
// Bit-identity with the rebuild is preserved by the same two facts the
// per-event path relies on: (Zone.Lo[d], ID) is a canonical total
// order (so the merged permutation equals the re-sorted one), and the
// per-event path also resolves zones and loads against the *current*
// overlay and cluster state, so collapsing a window to its endpoints
// changes nothing the table stores.
func (a *AggTable) batchSplice(ov *can.Overlay, cl *exec.Cluster) bool {
	a.batchIDs = a.batchIDs[:0]
	if !ov.ChurnSince(a.version, a.onCollect) {
		// All-or-nothing: nothing was collected, nothing was mutated.
		return false
	}
	slices.Sort(a.batchIDs)
	a.batchIDs = slices.Compact(a.batchIDs)
	nt := a.ntypes
	nodes := a.nodes
	oldN := len(nodes)

	// Phase 1: drop every affected id that is currently tracked,
	// subtracting its stored load from the totals, and compact the
	// membership arrays (preserving relative order so the per-dimension
	// walk below can reuse old sorted positions).
	remap := grow(a.remapBuf, oldN)
	for i := range remap {
		remap[i] = 0
	}
	for _, id := range a.batchIDs {
		if i, ok := a.idx.get(id); ok {
			remap[i] = -1
			row := a.loads[int(i)*nt : (int(i)+1)*nt]
			for t := 0; t < nt; t++ {
				a.tot[t] = a.tot[t].sub(row[t])
			}
			a.idx.del(id)
		}
	}
	a.remapBuf = remap
	w := 0
	for i := 0; i < oldN; i++ {
		if remap[i] < 0 {
			continue
		}
		remap[i] = int32(w)
		if w != i {
			nodes[w] = nodes[i]
			copy(a.loads[w*nt:(w+1)*nt], a.loads[i*nt:(i+1)*nt])
			a.idx.set(nodes[w].ID, int32(w))
		}
		w++
	}
	a.nodes = nodes[:w]
	a.loads = a.loads[:w*nt]

	// Phase 2: re-admit every affected node still in the overlay with
	// its current zone and load (fresh reads, as spliceIn does).
	for _, id := range a.batchIDs {
		nd := ov.Node(id)
		if nd == nil {
			continue
		}
		i := len(a.nodes)
		a.nodes = append(a.nodes, nd)
		a.idx.set(id, int32(i))
		rt := cl.Runtime(id)
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
	n := len(a.nodes)
	for i := n; i < oldN; i++ {
		nodes[i] = nil // release departed node pointers promptly
	}

	// Phase 3: per dimension, walk the old order skipping dropped
	// entries and merge the sorted re-admitted batch; then rebuild the
	// position index. Surviving entries kept their zones (any zone
	// change put the node in the batch), so the walk's keys are exactly
	// the old ones and the merged sequence is sorted by construction.
	for d := 0; d < a.dims; d++ {
		add := a.ordScratch[:0]
		for i := w; i < n; i++ {
			add = append(add, i)
		}
		sort.Slice(add, func(x, y int) bool {
			lx, ly := a.nodes[add[x]].Zone.Lo[d], a.nodes[add[y]].Zone.Lo[d]
			if lx != ly {
				return lx < ly
			}
			return a.nodes[add[x]].ID < a.nodes[add[y]].ID
		})
		oldOrd, oldLos := a.order[d], a.los[d]
		mergedOrd := grow(a.ordMerge, n)
		mergedLos := grow(a.losScratch, n)
		m, ai := 0, 0
		emitAdds := func(limitLo float64, limitID can.NodeID, all bool) {
			for ai < len(add) {
				i := add[ai]
				lo := a.nodes[i].Zone.Lo[d]
				if !all && (lo > limitLo || (lo == limitLo && a.nodes[i].ID > limitID)) {
					return
				}
				mergedOrd[m], mergedLos[m] = i, lo
				m++
				ai++
			}
		}
		for p, oi := range oldOrd {
			ni := remap[oi]
			if ni < 0 {
				continue
			}
			emitAdds(oldLos[p], a.nodes[ni].ID, false)
			mergedOrd[m], mergedLos[m] = int(ni), oldLos[p]
			m++
		}
		emitAdds(0, 0, true)
		a.ordScratch = add
		// Swap: the merged arrays become dimension d's order/keys, and
		// the previous backing arrays become scratch for the next
		// dimension (grow() re-extends them if this dimension's batch
		// made the membership larger than they were).
		a.order[d], a.ordMerge = mergedOrd, oldOrd
		a.los[d], a.losScratch = mergedLos, oldLos
		pos := grow(a.pos[d], n)
		for p, i := range mergedOrd {
			pos[i] = int32(p)
		}
		a.pos[d] = pos
	}
	return true
}

// tryChurnSplice brings the topology up to the overlay's current
// version by replaying the churn journal, returning false (leaving the
// table untouched) when the table has never seen this overlay or the
// journal cannot cover the gap. Small batches (≤ maxSpliceEvents)
// replay event by event; larger ones — up to the journal's adaptive
// retained window — take the batch compact+merge path. On success the
// Fenwick trees are linearly reconstructed over the spliced orders,
// the result epoch advances, and the caller proceeds to the normal
// dirty drain.
func (a *AggTable) tryChurnSplice(ov *can.Overlay, cl *exec.Cluster) bool {
	if a.ov != ov || ov.Version() < a.version {
		return false
	}
	gap := ov.Version() - a.version
	var ok bool
	a.cl = cl
	if gap <= maxSpliceEvents {
		ok = ov.ChurnSince(a.version, a.onChurn)
	} else {
		ok = a.batchSplice(ov, cl)
		if ok {
			a.stats.ChurnBatches++
			cntAggChurnBatch.Inc()
		}
	}
	a.cl = nil
	if !ok {
		// All-or-nothing: a failed ChurnSince invoked no callbacks, so
		// the table still matches a.version exactly.
		return false
	}
	a.version = ov.Version()
	n := len(a.nodes)
	a.rowEpoch = grow(a.rowEpoch, n*a.dims)
	a.dimAggs = grow(a.dimAggs, n*a.dims)
	a.byTypes = grow(a.byTypes, n*a.dims*a.ntypes)
	for d := 0; d < a.dims; d++ {
		a.buildFenwick(d)
	}
	// Stale rowEpoch entries (including reused-capacity junk) all hold
	// epochs at or before the pre-bump value, so every row reads as
	// stale after the bump.
	a.epoch++
	return true
}

// Refresh brings the table up to date: for each dimension D, the region
// beyond node N is the set of nodes whose zone starts at or past N's
// zone end (zone.Lo[D] ≥ N.zone.Hi[D]) — the nodes reachable by pushing
// further out along D.
//
// Between churn events the refresh is incremental: it drains the
// cluster's dirty set and point-updates the Fenwick trees, O(k·d·log n)
// for k dirty nodes. On a membership version change it replays the
// overlay's churn journal and splices the affected nodes, O(Δ·d·n)
// worst case for Δ events, falling back to the full rebuild
// (O(d·n·log n) re-sort plus O(d·n) load sweep) when the journal
// cannot cover the gap or the dirty set is not enumerable. Refresh is
// the dirty set's single consumer; a second table over the same
// cluster must use RefreshFull.
func (a *AggTable) Refresh(ov *can.Overlay, cl *exec.Cluster) {
	defer tmrAggRefresh.Start()()
	cntAggRefresh.Inc()
	a.stats.Refreshes++
	a.stats.LastDirty = 0
	if a.ov != ov || a.version != ov.Version() {
		if !a.tryChurnSplice(ov, cl) {
			// rebuildFull consumes the dirty set up front (it needs the
			// stale ids to decide which rows to carry), so a pending
			// all-dirty poison is absorbed here rather than forcing a
			// second rebuild next round.
			a.rebuildFull(ov, cl)
			a.stats.FullRebuilds++
			return
		}
		a.stats.ChurnRefreshes++
		cntAggChurnSplice.Inc()
		// Membership is current; fall through to drain load deltas.
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
	cntAggInc.Inc()
	if a.changed {
		// Invalidate materialized rows; At refills on demand. When every
		// delta was net zero the old rows are still exact, so the epoch
		// (and with it the whole read cache) is left alone.
		a.epoch++
	}
}

// RefreshFull recomputes the table entirely from current cluster state,
// ignoring — and never consuming — the dirty set or the churn journal.
// It is the reference path the differential tests compare the
// incremental table against, and the safe choice for any additional
// table sharing a cluster whose dirty channel is already claimed.
func (a *AggTable) RefreshFull(ov *can.Overlay, cl *exec.Cluster) {
	defer tmrAggRefresh.Start()()
	cntAggRefresh.Inc()
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
