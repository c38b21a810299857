package sched

import (
	"maps"
	"slices"
	"testing"

	"hetgrid/internal/can"
	"hetgrid/internal/exec"
	"hetgrid/internal/resource"
	"hetgrid/internal/rng"
	"hetgrid/internal/sim"
	"hetgrid/internal/workload"
)

// referenceCentralPlace is the seed's full-population scan, kept
// verbatim as the specification the incremental index must match
// decision-for-decision.
func referenceCentralPlace(c *Context, st *Stats, j *exec.Job) (can.NodeID, error) {
	var sat, acceptable, free []*can.Node
	for _, n := range c.Ov.Nodes() {
		if n.Caps == nil || !resource.Satisfies(n.Caps, j.Req) {
			continue
		}
		rt := c.Cluster.Runtime(n.ID)
		if rt == nil {
			continue
		}
		sat = append(sat, n)
		if rt.IsAcceptable(j.Req) {
			acceptable = append(acceptable, n)
			if rt.IsFree() {
				free = append(free, n)
			}
		}
	}
	switch {
	case len(free) > 0:
		st.FreePicks++
		st.Placed++
		return pickFastest(free, j.Dominant).ID, nil
	case len(acceptable) > 0:
		st.AcceptPicks++
		st.Placed++
		return pickFastest(acceptable, j.Dominant).ID, nil
	case len(sat) > 0:
		st.ScorePicks++
		st.Placed++
		return c.pickMinScore(sat, j.Dominant).ID, nil
	default:
		st.Unmatchable++
		return 0, ErrUnmatchable
	}
}

// TestCentralIndexMatchesFullScan drives the indexed Central and the
// reference full scan over the same evolving grid — submissions filling
// queues, completions draining them, and churn invalidating the
// membership caches — and requires identical placements and stats at
// every step. The reference scan is read-only, so both deciders observe
// exactly the same state.
func TestCentralIndexMatchesFullScan(t *testing.T) {
	ctx, ov, cl := testGrid(t, 60, 2, 7)
	s := NewCentral(ctx)
	var refStats Stats
	r := rng.NewSplit(7, "central-equiv")
	jobs := workload.NewJobGen(ctx.Space, 7)
	nodeGen := workload.NewNodeGen(ctx.Space, 7001)

	nextID := exec.JobID(1)
	place := func(j *exec.Job) {
		wantID, wantErr := referenceCentralPlace(ctx, &refStats, j)
		gotID, gotErr := s.Place(j)
		if gotErr != wantErr {
			t.Fatalf("job %d: err=%v, reference err=%v", j.ID, gotErr, wantErr)
		}
		if gotErr == nil {
			if gotID != wantID {
				t.Fatalf("job %d: indexed central picked node %d, full scan picked %d",
					j.ID, gotID, wantID)
			}
			if err := cl.Submit(j, gotID); err != nil {
				t.Fatalf("submit: %v", err)
			}
		}
		if s.Stats != refStats {
			t.Fatalf("job %d: stats diverged: %+v vs reference %+v", j.ID, s.Stats, refStats)
		}
	}

	for step := 0; step < 400; step++ {
		j, _ := jobs.Next()
		j.ID = nextID
		nextID++
		place(j)

		// Let some work complete so the idle/empty-queue sets shrink and
		// regrow across the run.
		if step%7 == 3 {
			ctx.Eng.RunUntil(ctx.Eng.Now().Add(sim.FromSeconds(90 * r.Float64())))
		}

		// Churn: withdraw a node (execution plane first, then overlay,
		// mirroring the experiment drivers) and re-place its orphans.
		if step%41 == 17 {
			nodes := ov.Nodes()
			victim := nodes[r.Intn(len(nodes))]
			orphans := cl.RemoveNode(victim.ID)
			ov.Leave(victim.ID)
			for _, oj := range orphans {
				place(oj)
			}
		}

		// Churn the other way: admit fresh nodes so the ranked lists
		// splice entries in as well as out across the run.
		if step%29 == 11 {
			caps := nodeGen.One()
			if node, err := ov.Join(ctx.Space.NodePoint(caps), caps); err == nil {
				cl.AddNode(node.ID, caps)
			}
		}
	}
	if s.Stats.Placed == 0 || s.Stats.ScorePicks == 0 {
		t.Fatalf("test never exercised the score tier: %+v", s.Stats)
	}
	if s.Stats != refStats {
		t.Fatalf("final stats diverged: %+v vs reference %+v", s.Stats, refStats)
	}
}

// checkCentralIndex requires the synced index to equal one built from
// scratch: every ranked list entry by entry against a fresh rebuild(),
// and the idle and empty-queue sets against sets recomputed from the
// cluster's runtimes.
func checkCentralIndex(tb testing.TB, ix *centralIndex, step string) {
	tb.Helper()
	ref := newCentralIndex(ix.ov, ix.cl)
	ref.rebuild()
	for _, m := range []map[resource.CEType][]*can.Node{ix.ranked, ref.ranked} {
		for ty := range m {
			if got, want := ix.ranked[ty], ref.ranked[ty]; !slices.Equal(got, want) {
				tb.Fatalf("%s: ranked[%d] has %d entries %v, rebuild gives %d %v",
					step, ty, len(got), nodeIDs(got), len(want), nodeIDs(want))
			}
		}
	}
	idle := make(map[can.NodeID]*exec.Runtime)
	emptyQ := make(map[can.NodeID]*exec.Runtime)
	for _, rt := range ix.cl.Runtimes() {
		if rt.IsFree() {
			idle[rt.ID] = rt
		}
		if rt.QueueLen() == 0 {
			emptyQ[rt.ID] = rt
		}
	}
	if !maps.Equal(ix.idle, idle) {
		tb.Fatalf("%s: idle set has %d nodes, the cluster has %d idle", step, len(ix.idle), len(idle))
	}
	if !maps.Equal(ix.emptyQ, emptyQ) {
		tb.Fatalf("%s: empty-queue set has %d nodes, the cluster has %d", step, len(ix.emptyQ), len(emptyQ))
	}
}

func nodeIDs(ns []*can.Node) []can.NodeID {
	ids := make([]can.NodeID, len(ns))
	for i, n := range ns {
		ids[i] = n.ID
	}
	return ids
}

// joinNode admits a fresh node to the overlay and then to the cluster,
// redrawing the virtual coordinate on a point collision.
func joinNode(ctx *Context, gen *workload.NodeGen, redraw *rng.Stream) can.NodeID {
	caps := gen.One()
	node, err := can.JoinRedraw(ctx.Ov.Join, ctx.Space, caps, redraw)
	if err != nil {
		panic(err)
	}
	ctx.Cluster.AddNode(node.ID, caps)
	return node.ID
}

// TestCentralIndexMatchesRebuild drives the index through the churn
// interleavings its two delta sources must absorb — several joins and
// leaves in one window, a join and leave of the same node in one
// window, a placement while the cluster and the overlay disagree about
// a departing node (in both orders), take-overs that re-stamp
// survivors with unchanged capabilities, and a poisoned dirty set —
// and requires after every placement that the synced ranked lists
// equal a fresh rebuild and the idle sets equal a recomputation. The
// index must rebuild once and only sync after that.
func TestCentralIndexMatchesRebuild(t *testing.T) {
	ctx, ov, cl := testGrid(t, 60, 2, 17)
	s := NewCentral(ctx)
	jobs := workload.NewJobGen(ctx.Space, 17)
	gen := workload.NewNodeGen(ctx.Space, 1701)
	r := rng.NewSplit(17, "central-rebuild")

	nextID := exec.JobID(1)
	lastVersion, wantSyncs := ov.Version(), 0
	place := func(step string) {
		t.Helper()
		if ov.Version() != lastVersion && s.idx.valid {
			wantSyncs++
		}
		lastVersion = ov.Version()
		j, _ := jobs.Next()
		j.ID = nextID
		nextID++
		id, err := s.Place(j)
		checkCentralIndex(t, s.idx, step)
		if err == nil {
			if err := cl.Submit(j, id); err != nil {
				t.Fatalf("%s: submit: %v", step, err)
			}
		}
	}
	survivors := 0 // live nodes a leave stamped: take-over zone rewrites
	overlayLeave := func(id can.NodeID) {
		t.Helper()
		v := ov.Version()
		if _, err := ov.Leave(id); err != nil {
			t.Fatalf("leave %d: %v", id, err)
		}
		for _, c := range ov.AppendChanged(nil, v) {
			if c != id && ov.Node(c) != nil {
				survivors++
			}
		}
	}
	victim := func() can.NodeID {
		nodes := ov.Nodes()
		return nodes[r.Intn(len(nodes))].ID
	}
	leave := func(id can.NodeID) {
		t.Helper()
		cl.RemoveNode(id)
		overlayLeave(id)
	}

	place("first placement")
	for round := 0; round < 8; round++ {
		for k := 0; k < 6; k++ {
			place("load")
		}
		ctx.Eng.RunUntil(ctx.Eng.Now().Add(sim.FromSeconds(120 * r.Float64())))
		place("after completions")

		for k := 0; k < 3; k++ {
			joinNode(ctx, gen, r)
			leave(victim())
		}
		joinNode(ctx, gen, r)
		place("several joins and leaves")

		leave(joinNode(ctx, gen, r))
		place("join and leave of one node")

		v := victim()
		cl.RemoveNode(v)
		place("cluster left, overlay not yet")
		overlayLeave(v)
		place("overlay caught up")

		v = victim()
		overlayLeave(v)
		place("overlay left, cluster not yet")
		cl.RemoveNode(v)
		place("cluster caught up")

		if round%3 == 1 {
			cl.MarkAllDirty()
			place("dirty set poisoned")
		}
	}
	if survivors == 0 {
		t.Fatal("no leave stamped a surviving node: take-overs never exercised")
	}
	if s.idx.rebuilds != 1 || s.idx.syncs != wantSyncs {
		t.Fatalf("index rebuilt %d times and synced %d, want 1 rebuild and %d syncs",
			s.idx.rebuilds, s.idx.syncs, wantSyncs)
	}
}

// runCentralScript interprets a byte script as an interleaving of
// placements, direct submissions, time advances, joins, leaves and
// dirty-set poisoning over a small heterogeneous grid. Every placement
// must match referenceCentralPlace in node, error and Stats, and leave
// the index equal to a rebuild. Leaves withdraw a node from both
// planes before the next placement, so the reference (which reads the
// overlay) and the index see one membership.
func runCentralScript(t *testing.T, seed int64, data []byte) {
	ctx, ov, cl := testGrid(t, 24, 2, seed)
	s := NewCentral(ctx)
	var refStats Stats
	jobs := workload.NewJobGen(ctx.Space, seed)
	gen := workload.NewNodeGen(ctx.Space, seed+1)
	redraw := rng.NewSplit(seed, "central-fuzz")
	nextID := exec.JobID(1)
	nextJob := func() *exec.Job {
		j, _ := jobs.Next()
		j.ID = nextID
		nextID++
		return j
	}
	place := func(k int) {
		j := nextJob()
		wantID, wantErr := referenceCentralPlace(ctx, &refStats, j)
		gotID, gotErr := s.Place(j)
		if gotErr != wantErr || (gotErr == nil && gotID != wantID) {
			t.Fatalf("op %d: placed on %d (err %v), reference %d (err %v)", k, gotID, gotErr, wantID, wantErr)
		}
		if s.Stats != refStats {
			t.Fatalf("op %d: stats %+v, reference %+v", k, s.Stats, refStats)
		}
		checkCentralIndex(t, s.idx, "placement")
		if gotErr == nil {
			if err := cl.Submit(j, gotID); err != nil {
				t.Fatalf("op %d: submit: %v", k, err)
			}
		}
	}

	for k, op := range data {
		switch op % 8 {
		case 0, 6: // place through the index and the reference scan
			place(k)
		case 1: // submit straight to a node, bypassing the scheduler
			nodes := ov.Nodes()
			n := nodes[int(op>>3)%len(nodes)]
			if j := nextJob(); resource.Satisfies(n.Caps, j.Req) {
				if err := cl.Submit(j, n.ID); err != nil {
					t.Fatalf("op %d: submit: %v", k, err)
				}
			}
		case 2: // let jobs finish and queues drain
			ctx.Eng.RunUntil(ctx.Eng.Now().Add(sim.FromSeconds(float64(1+op>>3) * 30)))
		case 3:
			joinNode(ctx, gen, redraw)
		case 4: // leave, in either plane order
			nodes := ov.Nodes()
			if len(nodes) <= 2 {
				continue
			}
			id := nodes[int(op>>3)%len(nodes)].ID
			if op&0x80 != 0 {
				cl.RemoveNode(id)
			}
			if _, err := ov.Leave(id); err != nil {
				t.Fatalf("op %d: leave %d: %v", k, id, err)
			}
			cl.RemoveNode(id)
		case 5:
			cl.MarkAllDirty()
		case 7: // a short time advance
			ctx.Eng.RunUntil(ctx.Eng.Now().Add(sim.FromSeconds(float64(1 + op>>5))))
		}
	}
	place(len(data))
}

// FuzzCentralIndex lets the fuzzer choose the interleaving of load
// changes, churn and placements that the central index's two delta
// sources must absorb.
func FuzzCentralIndex(f *testing.F) {
	f.Add(int64(1), []byte{0x00, 0x03, 0x0c, 0x00, 0x01, 0x09, 0x02, 0x06, 0x84, 0x00, 0x0b, 0x05, 0x06, 0x1a, 0x00})
	f.Fuzz(func(t *testing.T, seed int64, data []byte) {
		if len(data) > 256 {
			data = data[:256]
		}
		runCentralScript(t, seed, data)
	})
}
