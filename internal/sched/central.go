package sched

import (
	"slices"
	"sort"

	"hetgrid/internal/can"
	"hetgrid/internal/exec"
	"hetgrid/internal/resource"
)

// Central is the greedy online centralized comparator of Section V-A:
// it sees the complete, instantaneous load state of every node. It
// greedily assigns each job to the most capable node — the fastest free
// node for the job's dominant CE, else the fastest acceptable node,
// else the node minimizing the score function — possibly
// over-provisioning, as the paper notes, to stay comparable to the
// online decentralized schemes.
//
// Placement is served from an incremental candidate index instead of a
// full population scan per job. Each fact has one delta source: load
// and idleness come from the cluster's dirty set, drained once per
// placement, and membership from the overlay's per-node change stamps,
// which key the static capability ranking. The index changes only how
// candidates are enumerated — the chosen node, and therefore every
// simulation output byte, is identical to the full scan (the selection
// rules are order-independent argmax/argmin with ID tie-breaks).
type Central struct {
	ctx   *Context
	Stats Stats
	idx   *centralIndex
}

// NewCentral builds the centralized comparator. Its candidate index
// becomes the single consumer of the cluster's dirty set.
func NewCentral(ctx *Context) *Central {
	return &Central{ctx: ctx, idx: newCentralIndex(ctx.Ov, ctx.Cluster)}
}

// Name returns the label used in the paper's figures.
func (s *Central) Name() string { return "central" }

// Place assigns a job with perfect information, without rescanning all
// nodes: free and acceptable candidates come from the incrementally
// maintained idle / empty-queue sets, ranked by the static per-CE-type
// clock order; only the last-resort score pick walks the population.
func (s *Central) Place(j *exec.Job) (can.NodeID, error) {
	ix := s.idx
	ix.ensure()
	s.ctx.probeBegin(j)
	if id, ok := ix.bestFree(j.Req, j.Dominant); ok {
		s.Stats.FreePicks++
		s.Stats.Placed++
		s.ctx.probeMatch(id, "free")
		return id, nil
	}
	if id, ok := ix.bestAcceptable(j.Req, j.Dominant); ok {
		s.Stats.AcceptPicks++
		s.Stats.Placed++
		s.ctx.probeMatch(id, "accept")
		return id, nil
	}
	sat := ix.satisfying(j.Req)
	if len(sat) > 0 {
		s.Stats.ScorePicks++
		s.Stats.Placed++
		id := s.ctx.pickMinScore(sat, j.Dominant).ID
		s.ctx.probeMatch(id, "score")
		return id, nil
	}
	s.Stats.Unmatchable++
	s.ctx.probeUnmatched()
	return 0, ErrUnmatchable
}

// centralIndex maintains the comparator's candidate sets:
//
//   - idle: nodes with no running or queued jobs (the paper's free
//     nodes), refiled from the cluster's dirty set;
//   - emptyQ: nodes with an empty FIFO queue (the superset that can
//     contain acceptable nodes), refiled the same way;
//   - ranked: per CE type, all capable overlay nodes ordered by (clock
//     desc, ID asc) — exactly pickFastest's preference order — synced
//     from the overlay's change stamps.
type centralIndex struct {
	ov *can.Overlay
	cl *exec.Cluster

	valid   bool
	version uint64
	nodes   []*can.Node // ov.Nodes() snapshot, ID ascending
	ranked  map[resource.CEType][]*can.Node
	changed []can.NodeID // AppendChanged scratch, ID ascending

	idle    map[can.NodeID]*exec.Runtime
	emptyQ  map[can.NodeID]*exec.Runtime
	scratch []*can.Node

	rebuilds, syncs int // ranked-list rebuilds and stamp syncs
}

func newCentralIndex(ov *can.Overlay, cl *exec.Cluster) *centralIndex {
	return &centralIndex{
		ov:     ov,
		cl:     cl,
		ranked: make(map[resource.CEType][]*can.Node),
		idle:   make(map[can.NodeID]*exec.Runtime),
		emptyQ: make(map[can.NodeID]*exec.Runtime),
	}
}

// ensure brings the index up to date before a placement. Load first:
// the dirty drain refiles each changed node; a non-enumerable drain
// (first use, MarkAllDirty) refiles every runtime. Then membership: on
// first use the ranked lists are built by one full sort; afterwards,
// whenever the overlay's version has moved, sync catches them up.
func (ix *centralIndex) ensure() {
	if !ix.cl.DrainDirty(ix.refile) || !ix.valid {
		clear(ix.idle)
		clear(ix.emptyQ)
		for _, rt := range ix.cl.Runtimes() {
			ix.refile(rt.ID)
		}
	}
	switch {
	case !ix.valid:
		ix.rebuild()
	case ix.version != ix.ov.Version():
		ix.sync()
	}
}

// refile files a node in the idle and empty-queue sets by its current
// runtime state; a node the cluster no longer holds leaves both.
func (ix *centralIndex) refile(id can.NodeID) {
	r := ix.cl.Runtime(id)
	if r != nil && r.IsFree() {
		ix.idle[id] = r
	} else {
		delete(ix.idle, id)
	}
	if r != nil && r.QueueLen() == 0 {
		ix.emptyQ[id] = r
	} else {
		delete(ix.emptyQ, id)
	}
}

// rebuild files every live overlay node into the ranked lists by one
// sort per CE type.
func (ix *centralIndex) rebuild() {
	ix.rebuilds++
	ix.nodes = ix.ov.Nodes()
	ix.version = ix.ov.Version()
	ix.valid = true
	for t := range ix.ranked {
		ix.ranked[t] = ix.ranked[t][:0]
	}
	for _, n := range ix.nodes {
		if n.Caps == nil {
			continue
		}
		for _, ce := range n.Caps.CEs {
			ix.ranked[ce.Type] = append(ix.ranked[ce.Type], n)
		}
	}
	for t, list := range ix.ranked {
		ty := t
		sort.Slice(list, func(i, j int) bool {
			ci, cj := list[i].Caps.CE(ty).Clock, list[j].Caps.CE(ty).Clock
			if ci != cj {
				return ci > cj
			}
			return list[i].ID < list[j].ID
		})
	}
}

// sync catches the ranked lists up with every node the overlay stamped
// since the index's version: each stamped ID's entries are dropped,
// and each stamped ID that is still live is re-inserted by binary
// search under its current capabilities. A departed node is found by
// its ID, so the sync needs no side table and cannot fail, and because
// (clock desc, ID asc) is a total order the lists come out as the
// exact permutation a full rebuild would give.
func (ix *centralIndex) sync() {
	ix.syncs++
	ix.changed = ix.ov.AppendChanged(ix.changed[:0], ix.version)
	ix.version = ix.ov.Version()
	ix.nodes = ix.ov.Nodes()
	stamped := func(n *can.Node) bool {
		_, found := slices.BinarySearch(ix.changed, n.ID)
		return found
	}
	for t, list := range ix.ranked {
		ix.ranked[t] = slices.DeleteFunc(list, stamped)
	}
	for _, id := range ix.changed {
		if n := ix.ov.Node(id); n != nil {
			ix.rankedInsert(n)
		}
	}
}

// rankedInsert files a node into every ranked list its capabilities
// belong to, at its (clock desc, ID asc) position.
func (ix *centralIndex) rankedInsert(n *can.Node) {
	if n.Caps == nil {
		return
	}
	for _, ce := range n.Caps.CEs {
		ty, clock := ce.Type, ce.Clock
		list := ix.ranked[ty]
		p := sort.Search(len(list), func(k int) bool {
			ck := list[k].Caps.CE(ty).Clock
			if ck != clock {
				return ck < clock
			}
			return list[k].ID >= n.ID
		})
		ix.ranked[ty] = slices.Insert(list, p, n)
	}
}

// bestFree returns the fastest idle node (dominant-CE clock, ties to
// the lowest ID) that statically satisfies the job: the same node
// pickFastest would select from the full free list.
func (ix *centralIndex) bestFree(req resource.JobReq, dom resource.CEType) (can.NodeID, bool) {
	ranked := ix.ranked[dom]
	if len(ix.idle) == 0 || len(ranked) == 0 {
		return 0, false
	}
	if len(ix.idle)*8 > len(ranked) {
		// Densely idle grid: the first ranked node that is idle and
		// satisfying is the argmax.
		for _, n := range ranked {
			if _, ok := ix.idle[n.ID]; ok && resource.Satisfies(n.Caps, req) {
				return n.ID, true
			}
		}
		return 0, false
	}
	// Sparsely idle grid: argmax over the small idle set.
	var bestID can.NodeID
	bestClock := -1.0
	found := false
	for id, rt := range ix.idle {
		if !resource.Satisfies(rt.Caps, req) {
			continue
		}
		clock := 0.0
		if ce := rt.Caps.CE(dom); ce != nil {
			clock = ce.Clock
		}
		if !found || clock > bestClock || (clock == bestClock && id < bestID) {
			bestID, bestClock, found = id, clock, true
		}
	}
	return bestID, found
}

// bestAcceptable returns the fastest node where the job would start
// immediately (empty queue, every required CE available), matching
// pickFastest over the full acceptable list.
func (ix *centralIndex) bestAcceptable(req resource.JobReq, dom resource.CEType) (can.NodeID, bool) {
	ranked := ix.ranked[dom]
	if len(ix.emptyQ) == 0 || len(ranked) == 0 {
		return 0, false
	}
	if len(ix.emptyQ)*8 > len(ranked) {
		for _, n := range ranked {
			if rt, ok := ix.emptyQ[n.ID]; ok && rt.IsAcceptable(req) {
				return n.ID, true
			}
		}
		return 0, false
	}
	var bestID can.NodeID
	bestClock := -1.0
	found := false
	for id, rt := range ix.emptyQ {
		if !rt.IsAcceptable(req) {
			continue
		}
		clock := 0.0
		if ce := rt.Caps.CE(dom); ce != nil {
			clock = ce.Clock
		}
		if !found || clock > bestClock || (clock == bestClock && id < bestID) {
			bestID, bestClock, found = id, clock, true
		}
	}
	return bestID, found
}

// satisfying collects every node that could ever run the job (the
// score-pick candidate set), reusing the scratch slice.
func (ix *centralIndex) satisfying(req resource.JobReq) []*can.Node {
	ix.scratch = ix.scratch[:0]
	for _, n := range ix.nodes {
		if n.Caps == nil || !resource.Satisfies(n.Caps, req) {
			continue
		}
		if ix.cl.Runtime(n.ID) == nil {
			continue
		}
		ix.scratch = append(ix.scratch, n)
	}
	return ix.scratch
}
