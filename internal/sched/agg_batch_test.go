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

// batchWorld is the shared scaffolding for the large-backlog sync
// tests: an overlay/cluster pair with helpers that keep the two
// membership views in lockstep while a seeded stream picks join points
// and victims.
type batchWorld struct {
	tb  testing.TB
	eng *sim.Engine
	ov  *can.Overlay
	cl  *exec.Cluster
	s   *rng.Stream
	job exec.JobID
}

func newBatchWorld(tb testing.TB, dims int, seed int64, label string) *batchWorld {
	eng := sim.New()
	return &batchWorld{
		tb:  tb,
		eng: eng,
		ov:  can.NewOverlay(dims),
		cl:  exec.NewCluster(eng, exec.DefaultConfig()),
		s:   rng.NewSplit(seed, label),
		job: 1,
	}
}

func (w *batchWorld) join() {
	w.tb.Helper()
	caps := &resource.NodeCaps{
		CEs:  []resource.CE{{Type: resource.TypeCPU, Clock: 1, Cores: 1 + w.s.Intn(4)}},
		Disk: 100,
	}
	for try := 0; try < 8; try++ {
		p := make(geom.Point, w.ov.Dims())
		for d := range p {
			p[d] = w.s.Float64()
		}
		if n, err := w.ov.Join(p, caps); err == nil {
			w.cl.AddNode(n.ID, caps)
			return
		}
	}
	w.tb.Fatal("could not place a join")
}

func (w *batchWorld) leave() {
	w.tb.Helper()
	nodes := w.ov.Nodes()
	victim := nodes[w.s.Intn(len(nodes))].ID
	if _, err := w.ov.Leave(victim); err != nil {
		w.tb.Fatalf("leave(%d): %v", victim, err)
	}
	w.cl.RemoveNode(victim)
}

func (w *batchWorld) submit() {
	nodes := w.ov.Nodes()
	j := &exec.Job{
		ID:           w.job,
		Req:          cpuReq(1 + w.s.Intn(2)),
		Dominant:     resource.TypeCPU,
		BaseDuration: sim.Duration(1+w.s.Intn(8)) * 10 * sim.Second,
	}
	if err := w.cl.Submit(j, nodes[w.s.Intn(len(nodes))].ID); err == nil {
		w.job++
	}
}

// TestChurnBatchSpliceDifferential drives refresh windows whose churn
// backlog runs to about 400 versions — mixed joins, leaves and load
// changes, including join-then-leave of the same node inside one
// window — and compares the synchronized table bit-for-bit against the
// full recompute after every poll. The storm tests keep their windows
// to a few versions, so this is the large-backlog differential
// coverage: every poll must sync, none may rebuild.
func TestChurnBatchSpliceDifferential(t *testing.T) {
	const dims = 2
	w := newBatchWorld(t, dims, 17, "batch-splice")
	for i := 0; i < 40; i++ {
		w.join()
	}
	for i := 0; i < 60; i++ {
		w.submit()
	}
	inc := NewAggTable(dims, 0)
	ref := NewAggTable(dims, 0)
	inc.Refresh(w.ov, w.cl)

	const polls = 4
	for poll := 0; poll < polls; poll++ {
		before := w.ov.Version()
		for w.ov.Version()-before < 406 {
			switch {
			case w.ov.Len() > 30 && w.s.Bool(0.45):
				w.leave()
			default:
				w.join()
			}
			if w.s.Bool(0.3) {
				w.submit()
			}
		}
		w.eng.RunUntil(w.eng.Now().Add(20 * sim.Second))
		inc.Refresh(w.ov, w.cl)
		ref.RefreshFull(w.ov, w.cl)
		compareAggTables(t, w.ov, inc, ref, dims)
		if err := w.ov.Validate(); err != nil {
			t.Fatalf("poll %d: %v", poll, err)
		}
	}
	st := inc.Stats()
	if st.ChurnRefreshes != polls {
		t.Fatalf("stats %+v: want every poll to sync membership (%d syncs)", st, polls)
	}
	if st.FullRebuilds != 1 {
		t.Fatalf("stats %+v: large backlogs fell back to full rebuilds", st)
	}
}

// TestChurnStorm100k is the large-population regression for the
// membership sync: a 100,000-node grid under steady churn, polled at
// heartbeat cadence, each polling interval accruing ~1,500 membership
// events. Every poll must absorb its backlog incrementally: exactly one
// full rebuild (the first use), zero thereafter. The final table is
// checked bit-for-bit against a from-scratch reference.
func TestChurnStorm100k(t *testing.T) {
	if testing.Short() {
		t.Skip("100k-node storm skipped in -short mode")
	}
	const (
		dims          = 2
		population    = 100_000
		polls         = 3
		eventsPerPoll = 1_500
	)
	w := newBatchWorld(t, dims, 23, "storm-100k")
	for i := 0; i < population; i++ {
		w.join()
	}
	for i := 0; i < 500; i++ {
		w.submit()
	}

	inc := NewAggTable(dims, 0)
	inc.Refresh(w.ov, w.cl)

	for poll := 0; poll < polls; poll++ {
		for i := 0; i < eventsPerPoll; i++ {
			if w.s.Bool(0.5) {
				w.leave()
			} else {
				w.join()
			}
		}
		w.eng.RunUntil(w.eng.Now().Add(30 * sim.Second))
		inc.Refresh(w.ov, w.cl)
		if st := inc.Stats(); st.FullRebuilds != 1 {
			t.Fatalf("poll %d: stats %+v — a heartbeat-cadence poll fell back to a full rebuild", poll, st)
		}
	}
	st := inc.Stats()
	if st.ChurnRefreshes != polls {
		t.Fatalf("stats %+v: want %d membership syncs", st, polls)
	}
	if st.ChurnNodes < polls*eventsPerPoll {
		t.Fatalf("stats %+v: syncs absorbed fewer changed nodes than events injected", st)
	}
	ref := NewAggTable(dims, 0)
	ref.RefreshFull(w.ov, w.cl)
	compareAggTables(t, w.ov, inc, ref, dims)
}
