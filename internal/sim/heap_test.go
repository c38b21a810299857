package sim

import (
	"container/heap"
	"math/rand/v2"
	"testing"
)

// refEvent and refQueue are the container/heap event queue the typed
// 4-ary heap replaced, kept as the differential reference of
// TestEventQueueMatchesContainerHeap.
type refEvent struct {
	at    Time
	seq   uint64
	index int
}

type refQueue []*refEvent

func (q refQueue) Len() int { return len(q) }
func (q refQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q refQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].index = i
	q[j].index = j
}
func (q *refQueue) Push(x any) {
	ev := x.(*refEvent)
	ev.index = len(*q)
	*q = append(*q, ev)
}
func (q *refQueue) Pop() any {
	old := *q
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	ev.index = -1
	*q = old[:n-1]
	return ev
}

// firing is one fired event: its time and its scheduling sequence.
type firing struct {
	at  Time
	seq uint64
}

// seqCaller logs its own firing.
type seqCaller struct {
	seq uint64
	log *[]firing
}

func (c *seqCaller) Call(now Time) { *c.log = append(*c.log, firing{now, c.seq}) }

// TestEventQueueMatchesContainerHeap drives random At / AfterCall /
// Cancel / Step sequences through the engine and the container/heap
// reference. Times are drawn from a narrow window so same-instant ties
// are common, and cancels pick any id ever issued — pending ones deep
// inside the heap, fired ones and already-cancelled ones. The firing
// order, every Cancel result and every id's Valid must agree throughout.
func TestEventQueueMatchesContainerHeap(t *testing.T) {
	for seed := uint64(0); seed < 100; seed++ {
		rng := rand.New(rand.NewPCG(seed, 3))
		e := New()
		var ref refQueue
		var got, want []firing
		var ids []EventID
		var refs []*refEvent
		for step := 0; step < 2000; step++ {
			switch op := rng.IntN(10); {
			case op < 5:
				at := e.Now() + Time(rng.IntN(8))
				seq := uint64(len(ids))
				if op%2 == 0 {
					ids = append(ids, e.At(at, func(now Time) { got = append(got, firing{now, seq}) }))
				} else {
					ids = append(ids, e.AfterCall(at.Sub(e.Now()), &seqCaller{seq, &got}))
				}
				r := &refEvent{at: at, seq: seq}
				heap.Push(&ref, r)
				refs = append(refs, r)
			case op < 7:
				if len(ids) == 0 {
					continue
				}
				k := rng.IntN(len(ids))
				pending := refs[k].index >= 0
				if pending {
					heap.Remove(&ref, refs[k].index)
				}
				if c := e.Cancel(ids[k]); c != pending {
					t.Fatalf("seed %d step %d: Cancel(#%d) = %v, want %v", seed, step, k, c, pending)
				}
			default:
				stepped := e.Step()
				if stepped != (len(ref) > 0) {
					t.Fatalf("seed %d step %d: Step = %v with %d reference events", seed, step, stepped, len(ref))
				}
				if stepped {
					r := heap.Pop(&ref).(*refEvent)
					want = append(want, firing{r.at, r.seq})
				}
			}
			if len(got) != len(want) || (len(got) > 0 && got[len(got)-1] != want[len(want)-1]) {
				t.Fatalf("seed %d step %d: fired %v, want %v", seed, step, got[max(0, len(got)-3):], want[max(0, len(want)-3):])
			}
			if e.Pending() != len(ref) {
				t.Fatalf("seed %d step %d: %d pending, want %d", seed, step, e.Pending(), len(ref))
			}
			for k, id := range ids {
				if id.Valid() != (refs[k].index >= 0) {
					t.Fatalf("seed %d step %d: id #%d Valid = %v", seed, step, k, id.Valid())
				}
			}
		}
	}
}

// rescheduler re-arms itself on every call: a steady-state periodic
// event like a heartbeat tick.
type rescheduler struct{ e *Engine }

func (r *rescheduler) Call(Time) { r.e.AfterCall(7, r) }

// TestStepAfterCallAllocFree pins the steady state of the queue: once
// the event pool holds the peak population, a Step that fires a caller
// which schedules its successor allocates nothing.
func TestStepAfterCallAllocFree(t *testing.T) {
	e := New()
	r := &rescheduler{e}
	for i := 0; i < 64; i++ {
		e.AfterCall(Duration(i), r)
	}
	e.Step()
	if allocs := testing.AllocsPerRun(1000, func() { e.Step() }); allocs != 0 {
		t.Fatalf("Step + AfterCall allocates %v times per event, want 0", allocs)
	}
}
