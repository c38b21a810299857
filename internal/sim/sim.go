// Package sim implements a deterministic discrete-event simulation engine.
//
// The engine maintains a virtual clock and a priority queue of events.
// Events scheduled for the same instant fire in the order they were
// scheduled, so a run is fully deterministic given deterministic event
// handlers. Time is kept in integer Ticks (milliseconds) to avoid
// floating-point ordering hazards.
package sim

import (
	"fmt"

	"hetgrid/internal/perf"
)

// cntFired is the one process-wide count left on the engine hot path:
// the end-to-end benchmark reads it. It sums over every engine in the
// process, so it must never be read back as one engine's count; that is
// Engine.Stats.
var cntFired = perf.NewCounter("sim.events_fired")

// Stats is one engine's lifetime event-queue accounting, scoped to that
// engine: two engines in one process, or one process' worth of shard
// engines, never cross-contaminate each other's counts. Every fired or
// cancelled event returns to the engine's pool, so pool returns are
// Fired + Cancelled.
type Stats struct {
	Scheduled uint64
	Fired     uint64
	Cancelled uint64
}

// add accumulates other into s (the deterministic shard-merge).
func (s *Stats) add(o Stats) {
	s.Scheduled += o.Scheduled
	s.Fired += o.Fired
	s.Cancelled += o.Cancelled
}

// Time is a point in virtual time, measured in Ticks since the start of
// the simulation.
type Time int64

// Duration is a span of virtual time in Ticks.
type Duration int64

// Common durations, mirroring the time package at millisecond resolution.
const (
	Millisecond Duration = 1
	Second               = 1000 * Millisecond
	Minute               = 60 * Second
	Hour                 = 60 * Minute
)

// Seconds reports d as a floating-point number of seconds.
func (d Duration) Seconds() float64 { return float64(d) / float64(Second) }

// Minutes reports d as a floating-point number of minutes.
func (d Duration) Minutes() float64 { return float64(d) / float64(Minute) }

// FromSeconds converts a floating-point number of seconds to a Duration,
// rounding to the nearest tick.
func FromSeconds(s float64) Duration {
	if s < 0 {
		return 0
	}
	return Duration(s*float64(Second) + 0.5)
}

// Seconds reports t as a floating-point number of seconds since the
// start of the simulation.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Add returns the time d after t.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration elapsed from u to t.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Handler is the callback invoked when an event fires. It runs with the
// engine clock set to the event's time and may schedule further events.
type Handler func(now Time)

// Caller is the allocation-free counterpart of Handler: a long-lived
// object whose Call method fires when the event does. Scheduling a
// method value (eng.After(d, h.onTick)) allocates a closure per event;
// scheduling the object itself via AtCall/AfterCall does not, which is
// what keeps periodic machinery (heartbeat ticks, message deliveries)
// off the allocator.
type Caller interface {
	Call(now Time)
}

type event struct {
	at      Time
	seq     uint64 // insertion order; breaks time ties deterministically
	gen     uint64 // recycle generation; invalidates stale EventIDs
	handler Handler
	caller  Caller // fires instead of handler when non-nil
	index   int    // heap index, -1 when cancelled or popped
}

// EventID identifies a scheduled event so that it can be cancelled.
// The zero EventID is invalid. Fired and cancelled events return to an
// engine-local pool; the generation stamp keeps a retained EventID from
// ever touching the event's next incarnation.
type EventID struct {
	ev  *event
	gen uint64
}

// Valid reports whether the id refers to an event that was scheduled and
// has not yet fired or been cancelled.
func (id EventID) Valid() bool {
	return id.ev != nil && id.ev.gen == id.gen && id.ev.index >= 0
}

// At returns the scheduled time of the event the id refers to, with
// ok false when the event has already fired, been cancelled, or was
// never scheduled. Like Cancel, it must only be called by code allowed
// to touch the owning engine (the event horizon of a shard is shard
// state).
func (id EventID) At() (Time, bool) {
	if !id.Valid() {
		return 0, false
	}
	return id.ev.at, true
}

// before reports whether a fires ahead of b: earlier time first, then
// earlier scheduling. seq is unique per engine, so this is a total order
// and the pop sequence does not depend on the heap's shape.
func (a *event) before(b *event) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// eventQueue is a 4-ary min-heap of events under before, with each
// event's index kept current so Cancel can remove it in O(log n). The
// wider fan-out halves the tree depth of a binary heap, and the typed
// comparisons avoid container/heap's interface dispatch.
type eventQueue []*event

const heapArity = 4

func (q *eventQueue) push(ev *event) {
	ev.index = len(*q)
	*q = append(*q, ev)
	q.up(ev.index)
}

// remove deletes and returns the event at heap index i, marking it
// unqueued (index -1).
func (q *eventQueue) remove(i int) *event {
	h := *q
	n := len(h) - 1
	ev := h[i]
	if i != n {
		h[i] = h[n]
		h[i].index = i
	}
	h[n] = nil
	*q = h[:n]
	if i < n && !q.down(i) {
		q.up(i)
	}
	ev.index = -1
	return ev
}

// up sifts the event at index i toward the root.
func (q eventQueue) up(i int) {
	ev := q[i]
	for i > 0 {
		p := (i - 1) / heapArity
		if !ev.before(q[p]) {
			break
		}
		q[i] = q[p]
		q[i].index = i
		i = p
	}
	q[i] = ev
	ev.index = i
}

// down sifts the event at index i toward the leaves and reports whether
// it moved.
func (q eventQueue) down(i int) bool {
	ev := q[i]
	start, n := i, len(q)
	for {
		c := heapArity*i + 1
		if c >= n {
			break
		}
		m := c
		for j, end := c+1, min(c+heapArity, n); j < end; j++ {
			if q[j].before(q[m]) {
				m = j
			}
		}
		if !q[m].before(ev) {
			break
		}
		q[i] = q[m]
		q[i].index = i
		i = m
	}
	q[i] = ev
	ev.index = i
	return i > start
}

// Engine is a discrete-event simulation engine. The zero value is ready
// to use. Engine is not safe for concurrent use; the simulation model is
// single-threaded by design so that runs are reproducible.
type Engine struct {
	now     Time
	queue   eventQueue
	pool    []*event // recycled events; bounded by peak queue length
	nextSeq uint64
	stopped bool
	stats   Stats
}

// New returns a new engine with the clock at zero.
func New() *Engine { return &Engine{} }

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Fired returns the number of events executed so far.
func (e *Engine) Fired() uint64 { return e.stats.Fired }

// Stats returns this engine's own event accounting (see Stats).
func (e *Engine) Stats() Stats { return e.stats }

// Pending returns the number of events currently scheduled.
func (e *Engine) Pending() int { return len(e.queue) }

// At schedules h to run at absolute time at. Scheduling in the past
// (before Now) panics: it would silently reorder causality.
func (e *Engine) At(at Time, h Handler) EventID {
	if h == nil {
		panic("sim: nil handler")
	}
	return e.schedule(at, h, nil)
}

// AtCall schedules c.Call to run at absolute time at. Unlike At with a
// method value, it allocates nothing beyond the pooled event.
func (e *Engine) AtCall(at Time, c Caller) EventID {
	if c == nil {
		panic("sim: nil caller")
	}
	return e.schedule(at, nil, c)
}

// AfterCall schedules c.Call to run d ticks from now (negative d is 0).
func (e *Engine) AfterCall(d Duration, c Caller) EventID {
	if d < 0 {
		d = 0
	}
	return e.AtCall(e.now.Add(d), c)
}

func (e *Engine) schedule(at Time, h Handler, c Caller) EventID {
	if at < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %d before now %d", at, e.now))
	}
	var ev *event
	if n := len(e.pool); n > 0 {
		ev = e.pool[n-1]
		e.pool[n-1] = nil
		e.pool = e.pool[:n-1]
		ev.at, ev.handler, ev.caller = at, h, c
	} else {
		ev = &event{at: at, handler: h, caller: c}
	}
	ev.seq = e.nextSeq
	e.nextSeq++
	e.queue.push(ev)
	e.stats.Scheduled++
	return EventID{ev: ev, gen: ev.gen}
}

// recycle returns a popped or cancelled event to the pool. Bumping the
// generation first invalidates every EventID still pointing at it.
func (e *Engine) recycle(ev *event) {
	ev.gen++
	ev.handler = nil // release the closure promptly
	ev.caller = nil
	e.pool = append(e.pool, ev)
}

// After schedules h to run d ticks from now. Negative d is treated as 0.
func (e *Engine) After(d Duration, h Handler) EventID {
	if d < 0 {
		d = 0
	}
	return e.At(e.now.Add(d), h)
}

// Cancel removes a scheduled event. It reports whether the event was
// still pending. Cancelling an already-fired or already-cancelled event
// is a no-op.
func (e *Engine) Cancel(id EventID) bool {
	if !id.Valid() {
		return false
	}
	e.recycle(e.queue.remove(id.ev.index))
	e.stats.Cancelled++
	return true
}

// Stop makes the current Run call return after the in-flight handler
// completes. Pending events remain queued.
func (e *Engine) Stop() { e.stopped = true }

// Step fires the single earliest pending event. It reports false when no
// events remain.
func (e *Engine) Step() bool {
	if len(e.queue) == 0 {
		return false
	}
	ev := e.queue.remove(0)
	e.now = ev.at
	e.stats.Fired++
	cntFired.Inc()
	// Capture the handler, then recycle before invoking it: the handler
	// may schedule new events, which are welcome to reuse this slot.
	h, c := ev.handler, ev.caller
	e.recycle(ev)
	if c != nil {
		c.Call(e.now)
	} else {
		h(e.now)
	}
	return true
}

// Run fires events until the queue drains or Stop is called.
func (e *Engine) Run() {
	e.stopped = false
	for !e.stopped && e.Step() {
	}
}

// NextAt reports the time of the earliest pending event, or ok=false
// when the queue is empty. It is the lookahead probe of the sharded
// engine's window computation.
func (e *Engine) NextAt() (Time, bool) {
	if len(e.queue) == 0 {
		return 0, false
	}
	return e.queue[0].at, true
}

// RunBefore fires every pending event with time strictly before end, in
// (time, seq) order, and reports how many fired. Events at or beyond
// end stay queued and the clock is left at the last fired event (it is
// not advanced to end). This is the per-shard body of one conservative
// time window: end is chosen so that no event below it can still be
// influenced from outside the shard.
func (e *Engine) RunBefore(end Time) int {
	fired := 0
	for len(e.queue) > 0 && e.queue[0].at < end {
		e.Step()
		fired++
	}
	return fired
}

// AdvanceTo moves the clock forward to t without firing anything.
// Advancing past a pending event panics — it would silently reorder
// causality — and a t at or before the current clock is a no-op.
func (e *Engine) AdvanceTo(t Time) {
	if t <= e.now {
		return
	}
	if len(e.queue) > 0 && e.queue[0].at < t {
		panic(fmt.Sprintf("sim: advancing clock to %d past pending event at %d", t, e.queue[0].at))
	}
	e.now = t
}

// RunUntil fires events with time ≤ deadline, then advances the clock to
// the deadline (if it is later than the last event). Events scheduled
// beyond the deadline remain queued.
func (e *Engine) RunUntil(deadline Time) {
	e.stopped = false
	for !e.stopped {
		if len(e.queue) == 0 || e.queue[0].at > deadline {
			break
		}
		e.Step()
	}
	if e.now < deadline {
		e.now = deadline
	}
}
