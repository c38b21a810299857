package proto

import (
	"testing"

	"hetgrid/internal/can"
	"hetgrid/internal/sim"
)

// testView builds a view holding records for the given ids.
func testView(ids ...can.NodeID) *view {
	v := newView()
	for _, id := range ids {
		v.put(entry{rec: Record{ID: id}})
	}
	return v
}

// put stores e under its id, replacing any entry already there — the
// test-side way to plant view state directly.
func (v *view) put(e entry) {
	if i, ok := v.search(e.rec.ID); ok {
		v.entries[i] = e
	} else {
		v.insertAt(i, e)
	}
}

// TestReplyTableRetention: buffers requested within one latency window
// of each other must be distinct (the earlier payload is still aliased
// by an in-flight fullMsg); once strictly past busyUntil the buffer is
// reused.
func TestReplyTableRetention(t *testing.T) {
	s := NewSim(2, DefaultConfig(Adaptive)) // 100ms latency
	v := testView(3, 1, 2)

	lat := sim.Time(s.Net.Latency())
	t0 := sim.Time(1000)
	a := s.replyTable(t0, v)
	b := s.replyTable(t0, v)       // same instant: a still busy
	c := s.replyTable(t0+lat, v)   // now == busyUntil: still busy (seq hazard)
	d := s.replyTable(t0+lat+1, v) // strictly past: reuse allowed
	if &a[0] == &b[0] || &a[0] == &c[0] {
		t.Fatal("reply buffer reused while still in flight")
	}
	if &d[0] != &a[0] {
		t.Fatal("reply buffer not reused after the latency window")
	}
	if live := len(s.replyPool) - s.replyHead; live != 3 {
		t.Fatalf("pool grew to %d live buffers, want 3", live)
	}
}

// TestReplyTableOrder: pooled replies carry the view in ascending-id
// wire order, whatever order the records were inserted in.
func TestReplyTableOrder(t *testing.T) {
	s := NewSim(2, DefaultConfig(Adaptive))
	v := testView(9, 4, 7, 1)
	for trial := 0; trial < 20; trial++ {
		recs := s.replyTable(sim.Time(trial)*sim.Time(sim.Second), v)
		want := []can.NodeID{1, 4, 7, 9}
		if len(recs) != len(want) {
			t.Fatalf("len = %d, want %d", len(recs), len(want))
		}
		for i, id := range want {
			if recs[i].ID != id {
				t.Fatalf("trial %d: recs[%d].ID = %d, want %d", trial, i, recs[i].ID, id)
			}
		}
	}
}

// TestReplyTableSteadyStateAllocs: after warmup, building a reply from
// the pool must not allocate.
func TestReplyTableSteadyStateAllocs(t *testing.T) {
	s := NewSim(2, DefaultConfig(Adaptive))
	v := testView(1, 2, 3, 4, 5, 6, 7, 8)
	now := sim.Time(0)
	step := sim.Time(s.Net.Latency()) + 1
	for i := 0; i < 4; i++ {
		now += step
		s.replyTable(now, v)
	}
	avg := testing.AllocsPerRun(100, func() {
		now += step
		s.replyTable(now, v)
	})
	if avg != 0 {
		t.Fatalf("allocs per reply = %v, want 0", avg)
	}
}
