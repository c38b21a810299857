package sched

import (
	"testing"

	"hetgrid/internal/can"
	"hetgrid/internal/exec"
	"hetgrid/internal/geom"
	"hetgrid/internal/resource"
	"hetgrid/internal/rng"
	"hetgrid/internal/sim"
)

// runChurnStormScript interprets a byte script as an interleaving of
// churn, load changes and — crucially — explicit refresh boundaries, so
// the fuzzer controls how many overlay versions batch up between
// refreshes. That is the surface runAggScript (refresh after every op)
// cannot reach: multi-version membership syncs, join-then-leave of the
// same node inside one window, zone changes of nodes about to depart,
// and the all-dirty fallback landing on a freshly synchronized topology.
// Overlay.Validate() runs after every mutation, and every refresh
// boundary compares the incremental table bit-for-bit against the
// full-recompute reference. Returns the incremental table's stats so
// tests can assert which maintenance paths actually ran.
func runChurnStormScript(tb testing.TB, data []byte) AggStats {
	const dims = 2
	eng := sim.New()
	ov := can.NewOverlay(dims)
	cl := exec.NewCluster(eng, exec.DefaultConfig())
	for i := 0; i < 12; i++ {
		caps := &resource.NodeCaps{
			CEs:  []resource.CE{{Type: resource.TypeCPU, Clock: 1, Cores: 1 + i%4}},
			Disk: 100,
		}
		p := geom.Point{(float64(i%4) + 0.5) / 4, (float64(i/4) + 0.5) / 3}
		n, err := ov.Join(p, caps)
		if err != nil {
			tb.Fatalf("seed join %v: %v", p, err)
		}
		cl.AddNode(n.ID, caps)
	}

	inc := NewAggTable(dims, 0)
	ref := NewAggTable(dims, 0)
	nextJob := exec.JobID(1)

	validate := func(k int) {
		tb.Helper()
		if err := ov.Validate(); err != nil {
			tb.Fatalf("op %d: %v", k, err)
		}
	}
	join := func(k int, op byte) {
		caps := &resource.NodeCaps{
			CEs:  []resource.CE{{Type: resource.TypeCPU, Clock: 1, Cores: 1 + k%4}},
			Disk: 100,
		}
		p := geom.Point{
			(float64(op>>3&7) + 0.37) / 8,
			(float64(op>>6|op&3<<2) + 0.61) / 16,
		}
		if n, err := ov.Join(p, caps); err == nil {
			cl.AddNode(n.ID, caps)
			validate(k)
		}
	}
	leave := func(k int, op byte) {
		nodes := ov.Nodes()
		if len(nodes) <= 2 {
			return
		}
		victim := nodes[int(op>>3)%len(nodes)].ID
		if _, err := ov.Leave(victim); err == nil {
			cl.RemoveNode(victim)
			validate(k)
		}
	}

	for k, op := range data {
		switch op % 8 {
		case 0: // submit a job (oversized requests are skipped)
			nodes := ov.Nodes()
			j := &exec.Job{
				ID:           nextJob,
				Req:          cpuReq(1 + int(op>>6)),
				Dominant:     resource.TypeCPU,
				BaseDuration: sim.Duration(1+int(op>>3)%8) * 10 * sim.Second,
			}
			if err := cl.Submit(j, nodes[int(op>>3)%len(nodes)].ID); err == nil {
				nextJob++
			}
		case 1: // let time pass: running jobs finish, queues drain
			eng.RunUntil(eng.Now().Add(sim.Duration(1+int(op>>3)) * 5 * sim.Second))
		case 2: // departure
			leave(k, op)
		case 3: // admission
			join(k, op)
		case 4: // refresh boundary: both tables converge, then compare
			inc.Refresh(ov, cl)
			ref.RefreshFull(ov, cl)
			compareAggTables(tb, ov, inc, ref, dims)
		case 5: // poison the dirty set: next refresh takes the load fallback
			cl.MarkAllDirty()
		case 6: // churn pulse: a leave and a join inside the same window
			leave(k, op)
			join(k, op^0xff)
		case 7: // a short time advance
			eng.RunUntil(eng.Now().Add(sim.Duration(1+int(op>>5)) * sim.Second))
		}
	}
	inc.Refresh(ov, cl)
	ref.RefreshFull(ov, cl)
	compareAggTables(tb, ov, inc, ref, dims)
	return inc.Stats()
}

// TestChurnStormDifferential drives randomized churn storms with
// batched refreshes: sustained join/leave bursts, overlapping load
// changes, and refresh boundaries landing at arbitrary points. Across
// the seeds the membership sync must both run (ChurnRefreshes) and
// absorb several changed nodes per sync (ChurnNodes > ChurnRefreshes),
// or the test is no longer exercising what it claims to.
func TestChurnStormDifferential(t *testing.T) {
	var total AggStats
	for seed := int64(1); seed <= 6; seed++ {
		r := rng.NewSplit(seed, "churn-storm")
		data := make([]byte, 200)
		for i := range data {
			data[i] = byte(r.Intn(256))
		}
		st := runChurnStormScript(t, data)
		total.ChurnRefreshes += st.ChurnRefreshes
		total.ChurnNodes += st.ChurnNodes
		total.FullRebuilds += st.FullRebuilds
	}
	if total.ChurnRefreshes == 0 {
		t.Fatal("no refresh synchronized membership; the storm is not exercising the sync")
	}
	if total.ChurnNodes <= total.ChurnRefreshes {
		t.Fatalf("syncs averaged ≤1 changed node (%d nodes over %d syncs); batching is not happening",
			total.ChurnNodes, total.ChurnRefreshes)
	}
}

// TestChurnSpliceFallbacks pins which path each refresh takes: the first
// refresh against an overlay rebuilds; every later membership change,
// two versions or thousands, is absorbed by one sync without a rebuild;
// and a poisoned dirty set forces the load fallback on top of a
// successful sync. Each arm must still match the reference exactly.
func TestChurnSpliceFallbacks(t *testing.T) {
	const dims = 2
	eng := sim.New()
	ov := can.NewOverlay(dims)
	cl := exec.NewCluster(eng, exec.DefaultConfig())
	s := rng.NewSplit(3, "splice-fallbacks")
	addOne := func() {
		caps := &resource.NodeCaps{
			CEs:  []resource.CE{{Type: resource.TypeCPU, Clock: 1, Cores: 2}},
			Disk: 100,
		}
		for try := 0; try < 8; try++ {
			p := geom.Point{s.Float64(), s.Float64()}
			if n, err := ov.Join(p, caps); err == nil {
				cl.AddNode(n.ID, caps)
				return
			}
		}
		t.Fatal("could not place a new node")
	}
	removeOne := func(k int) {
		victim := ov.Nodes()[k].ID
		if _, err := ov.Leave(victim); err != nil {
			t.Fatal(err)
		}
		cl.RemoveNode(victim)
	}
	for i := 0; i < 20; i++ {
		addOne()
	}
	inc := NewAggTable(dims, 0)
	ref := NewAggTable(dims, 0)
	check := func() {
		t.Helper()
		inc.Refresh(ov, cl)
		ref.RefreshFull(ov, cl)
		compareAggTables(t, ov, inc, ref, dims)
	}
	check() // first use: full rebuild
	if got := inc.Stats(); got.FullRebuilds != 1 || got.ChurnRefreshes != 0 {
		t.Fatalf("first refresh: %+v, want one full rebuild", got)
	}

	// A two-event window syncs: the victim, its taker, the joiner and
	// the owner it split from.
	removeOne(7)
	addOne()
	check()
	if got := inc.Stats(); got.ChurnRefreshes != 1 || got.FullRebuilds != 1 || got.ChurnNodes < 3 {
		t.Fatalf("two-event window: %+v, want one sync of its changed nodes", got)
	}

	// Backlogs of more than 256 and more than 1024 versions still sync;
	// no backlog size forces a rebuild.
	for arm, backlog := range []int{300, 1100} {
		before := ov.Version()
		for k := 0; ov.Version()-before < uint64(backlog); k++ {
			if k%3 == 2 {
				removeOne(k % ov.Len())
			} else {
				addOne()
			}
		}
		check()
		if got := inc.Stats(); got.ChurnRefreshes != int64(arm+2) || got.FullRebuilds != 1 {
			t.Fatalf("%d-version backlog: %+v, want a sync and no new rebuild", backlog, got)
		}
	}

	// A sync whose dirty set was poisoned still needs the load fallback
	// — both counters move on one refresh.
	removeOne(3)
	cl.MarkAllDirty()
	check()
	if got := inc.Stats(); got.ChurnRefreshes != 4 || got.FullRebuilds != 2 {
		t.Fatalf("poisoned sync: %+v, want a sync and the load fallback on the same refresh", got)
	}
}

// FuzzChurnIncremental lets the fuzzer search for a churn/refresh
// interleaving where the sync-maintained table diverges from the
// full recompute or the overlay invariants break. Seed corpus in
// testdata/fuzz/FuzzChurnIncremental.
func FuzzChurnIncremental(f *testing.F) {
	f.Add([]byte{0x04, 0x13, 0x02, 0x0b, 0x1e, 0x04, 0x06, 0x2c, 0x05, 0x04, 0x63, 0x1a, 0x04})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 256 {
			data = data[:256]
		}
		runChurnStormScript(t, data)
	})
}
