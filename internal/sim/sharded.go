package sim

import (
	"fmt"
	"sort"
	"sync"
)

// ShardedEngine runs S per-shard Engines plus one serial control-plane
// Engine under conservative (Chandy–Misra style) time-window
// synchronization, on up to W worker goroutines.
//
// # Model
//
// The shard count S is a model parameter, fixed by configuration like a
// seed: it determines which engine every event lands on and therefore
// the exact event interleavings of a run. The worker count W is purely
// an execution parameter. A run's output is a function of (config,
// seed, S) and byte-identical for every W — the determinism contract —
// because nothing observable depends on how shards are dealt to
// workers:
//
//   - Intra-shard order is the per-shard engine's (time, seq) heap
//     order, assigned and consumed by one goroutine at a time.
//   - Cross-shard sends are buffered in per-(src,dst) mailboxes, each
//     written only by the goroutine executing src, and flushed at
//     window barriers sorted by (arrival time, sender key, per-sender
//     emission order) — so destination-side seq assignment (the
//     tie-break among same-time arrivals) is identical regardless of W,
//     and, when the key identifies the logical sender rather than its
//     shard, regardless of S as well (see Post).
//   - Control-plane (global) events run with every shard quiesced, on
//     the single caller goroutine, in the global engine's own
//     (time, seq) order. Ties between a global event and shard events
//     at the same instant resolve global-first.
//
// # Windows and lookahead
//
// Every cross-shard interaction carries at least the lookahead L (the
// fixed netsim latency): a message sent at time t arrives at t+L. Let m
// be the earliest pending shard event and g the earliest pending global
// event. All shard events in [m, end) with end = min(m+L, g) are safe
// to execute in parallel: any cross-shard message that could influence
// an event at t < end would have to have been sent at t−L < m, i.e. by
// an event that already executed, and its arrival is already flushed
// into the destination queue. Mail posted during the window has arrival
// ≥ window start + L ≥ end, so it lands in a strictly later window —
// which also means the barrier's happens-before edge covers everything
// the sender wrote before sending. Post enforces the invariant.
type ShardedEngine struct {
	shards []*Engine
	global *Engine
	look   Duration

	// mail[src*(S+1)+dst] buffers cross-shard sends; column S is the
	// global engine. Row block src is written only by the goroutine
	// executing shard src (or the serial control phase). flushBuf is
	// barrier-local scratch for the per-destination merge sort.
	mail     [][]mailEntry
	flushBuf []mailEntry

	wstats    WindowStats
	windowEnd Time // exclusive bound of the current/last window

	// rowOrdered is true while posts must be ordered by (key, own mailbox
	// row) rather than by a global emission counter: window bodies and
	// ParallelShards fan-outs. It is written only by the caller goroutine
	// at barriers; workers observe it through the channel-send
	// happens-before edge. serialSub counts serially-ordered posts (it is
	// touched only when rowOrdered is false, i.e. on the caller
	// goroutine) and tie-breaks equal-(at, key) mail across source rows;
	// see windowSub.
	rowOrdered bool
	serialSub  uint64

	workers int
	started bool
	work    []chan workItem
	wg      sync.WaitGroup
}

// workItem is one barrier dispatch to a worker: a window sweep (fn nil,
// run shard events before end) or a per-shard task fan-out (fn non-nil,
// called once per owned shard). A small struct keeps the hot window
// path allocation-free.
type workItem struct {
	end Time
	fn  func(shard int)
}

// WindowStats counts the engine's synchronization structure. The
// counters are observational and must never feed back into model
// state.
type WindowStats struct {
	Windows  int64    // conservative windows executed (one barrier each)
	Quiesces int64    // control-phase single-event quiesces
	SpanSum  Duration // total virtual-time span of all windows
}

type mailEntry struct {
	at  Time
	key uint64 // sender identity; orders same-instant deliveries
	sub uint64 // serial emission counter, or windowSub for window sends
	c   Caller
	h   Handler
}

// windowSub is the sub-key stamped on row-ordered posts (window bodies
// and ParallelShards fan-outs). Global-phase and pre-run posts get an increasing counter instead, so at
// equal (at, key) a global-phase emission always precedes a row-ordered
// one — the order those phases themselves run in — and two global-phase
// emissions order by the serial schedule even when they were buffered
// into different source rows (a control event may send on behalf of
// node X through any shard's facet, so equal keys do NOT imply one
// row). Row-ordered posts carry no counter: within one window their
// order is the sender's own row order, kept by the stable flush sort.
const windowSub = ^uint64(0)

// NewSharded creates a sharded engine with the given shard count and
// lookahead (the minimum virtual-time distance every cross-shard send
// must cover — the netsim latency). Workers defaults to 1; SetWorkers
// raises it.
func NewSharded(shards int, lookahead Duration) *ShardedEngine {
	if shards < 1 {
		panic("sim: sharded engine needs at least one shard")
	}
	if lookahead < 1 {
		panic("sim: sharded engine needs positive lookahead")
	}
	se := &ShardedEngine{
		shards:  make([]*Engine, shards),
		global:  New(),
		look:    lookahead,
		mail:    make([][]mailEntry, shards*(shards+1)),
		workers: 1,
	}
	for i := range se.shards {
		se.shards[i] = New()
	}
	return se
}

// Shards returns the shard count S.
func (se *ShardedEngine) Shards() int { return len(se.shards) }

// Shard returns shard i's engine. Outside a Run/RunUntil call it may be
// used freely; during one it must only be touched by the goroutine
// currently executing shard i or by global-phase handlers.
func (se *ShardedEngine) Shard(i int) *Engine { return se.shards[i] }

// Global returns the serial control-plane engine. Events scheduled on
// it (churn, takeover continuations, measurement sweeps) run with every
// shard quiesced and advanced to the event's time, so they may touch
// any shard's state.
func (se *ShardedEngine) Global() *Engine { return se.global }

// Lookahead returns the conservative lookahead L.
func (se *ShardedEngine) Lookahead() Duration { return se.look }

// Workers returns the worker-goroutine count W.
func (se *ShardedEngine) Workers() int { return se.workers }

// SetWorkers sets the worker count, clamped to [1, S]. It must be
// called before the first Run/RunUntil; W never affects results, only
// wall-clock time.
func (se *ShardedEngine) SetWorkers(w int) {
	if se.started {
		panic("sim: SetWorkers after the sharded engine started running")
	}
	if w < 1 {
		w = 1
	}
	if w > len(se.shards) {
		w = len(se.shards)
	}
	se.workers = w
}

// Now returns the control-plane clock (all clocks agree at barriers and
// after Run/RunUntil returns).
func (se *ShardedEngine) Now() Time { return se.global.Now() }

// Pending returns the total number of scheduled events across all
// queues (including unflushed mail).
func (se *ShardedEngine) Pending() int {
	n := se.global.Pending()
	for _, sh := range se.shards {
		n += sh.Pending()
	}
	for _, row := range se.mail {
		n += len(row)
	}
	return n
}

// AtCall schedules c.Call(at) on the serial control plane: the event
// fires with every shard quiesced and advanced to at, so the callee may
// read any shard's state. It must be called before the engine runs or
// from a control-phase handler (never from parallel-window code — shard
// events reach the control plane through PostGlobal). This is what lets
// a control-plane actor with an ordinary engine dependency — the
// telemetry sampler — run unchanged on the sharded core.
func (se *ShardedEngine) AtCall(at Time, c Caller) EventID {
	return se.global.AtCall(at, c)
}

// AfterCall schedules c.Call on the control plane d after the
// control-plane clock. Same calling rules as AtCall.
func (se *ShardedEngine) AfterCall(d Duration, c Caller) EventID {
	return se.global.AfterCall(d, c)
}

// Stats returns the deterministic merge of every engine's Stats, in
// shard order then the global engine.
func (se *ShardedEngine) Stats() Stats {
	var s Stats
	for _, sh := range se.shards {
		s.add(sh.Stats())
	}
	s.add(se.global.Stats())
	return s
}

// WindowStats returns the synchronization counters accumulated so far.
func (se *ShardedEngine) WindowStats() WindowStats { return se.wstats }

// Post buffers a message event: c.Call fires at time at on shard dst
// (src == dst is allowed and routes through the same mailbox — a model
// whose every message takes the mailbox path gets delivery order that
// is independent of the shard partition). It must be called from the
// goroutine currently executing shard src (workers own disjoint src
// rows) or from a global-phase handler.
//
// key identifies the logical sender (e.g. the sending node's id) and
// must be a partition-independent property of the model: same-instant
// deliveries at a destination fire in (key, per-sender emission) order,
// which is what makes a run's tie-breaks — and therefore its output — a
// function of (config, seed) alone rather than of which shard each
// sender happens to live on.
//
// Posting below the current window bound panics — it would mean a
// cross-shard message carried less than one lookahead, breaking the
// conservative execution invariant.
func (se *ShardedEngine) Post(src, dst int, at Time, key uint64, c Caller) {
	if at < se.windowEnd {
		panic(fmt.Sprintf("sim: cross-shard post at %d below window bound %d (message carried less than one lookahead)", at, se.windowEnd))
	}
	i := src*(len(se.shards)+1) + dst
	se.mail[i] = append(se.mail[i], mailEntry{at: at, key: key, sub: se.emitSub(), c: c})
}

// emitSub stamps a post's tie-break sub-key. Row-ordered posts come
// from the sender's own row and keep their row order (windowSub + the
// stable flush sort); global-phase posts take a global counter so that
// equal-(at, key) entries emitted through different shard facets — as
// control-phase code sending on behalf of arbitrary nodes does — still
// order by the serial schedule, independent of the partition.
func (se *ShardedEngine) emitSub() uint64 {
	if se.rowOrdered {
		return windowSub
	}
	se.serialSub++
	return se.serialSub
}

// PostGlobal buffers a handler for the serial control plane: h fires at
// time at on the global engine, with every shard quiesced. Same calling
// rules, key semantics and window-bound invariant as Post.
func (se *ShardedEngine) PostGlobal(src int, at Time, key uint64, h Handler) {
	if at < se.windowEnd {
		panic(fmt.Sprintf("sim: global post at %d below window bound %d (message carried less than one lookahead)", at, se.windowEnd))
	}
	i := src*(len(se.shards)+1) + len(se.shards)
	se.mail[i] = append(se.mail[i], mailEntry{at: at, key: key, sub: se.emitSub(), h: h})
}

// flushMail drains every mailbox into its destination queue. Each
// destination's entries are gathered across source rows (ascending) and
// stable-sorted by (arrival time, sender key, sub): window-context
// entries with equal keys come from one sender's single row (a worker
// only sends as nodes it owns), so the stable sort preserves their
// emission order; serial-context entries may share a key across rows —
// control code sends on behalf of arbitrary nodes through whichever
// shard facet is handy — and their sub counter restores the serial
// emission order the single-shard engine would have used. Destination
// seq assignment — the same-time tie-break — is therefore a pure
// function of the model: independent of worker scheduling, and of the
// shard partition itself whenever keys identify logical senders.
//
// Window boundaries are themselves partition-independent (the window
// bound is a min over every pending shard event, however the shards are
// drawn), so the interleaving of flushed arrivals with locally
// scheduled events is too: everything scheduled during window k
// precedes everything flushed at barrier k.
func (se *ShardedEngine) flushMail() {
	for dst := 0; dst <= len(se.shards); dst++ {
		se.flushDst(dst)
	}
}

// flushDst drains destination dst's mailbox column into its engine.
func (se *ShardedEngine) flushDst(dst int) {
	S := len(se.shards)
	buf := se.flushBuf[:0]
	for src := 0; src < S; src++ {
		i := src*(S+1) + dst
		row := se.mail[i]
		if len(row) == 0 {
			continue
		}
		buf = append(buf, row...)
		clear(row)
		se.mail[i] = row[:0]
	}
	if len(buf) == 0 {
		return
	}
	sort.SliceStable(buf, func(i, j int) bool {
		a, b := &buf[i], &buf[j]
		if a.at != b.at {
			return a.at < b.at
		}
		aw, bw := a.sub == windowSub, b.sub == windowSub
		if aw != bw {
			// Mixed: the serial phases at instant t run before the
			// window containing t, so their emissions precede.
			return bw
		}
		if !aw {
			// Both serial-context: pure emission order — exactly the
			// serial engine's same-instant seq tie-break, whatever rows
			// the emissions were buffered into.
			return a.sub < b.sub
		}
		// Both window-context: sender key, then row order (stable) —
		// equal keys come from one worker's row.
		return a.key < b.key
	})
	eng := se.global
	if dst < S {
		eng = se.shards[dst]
	}
	for _, m := range buf {
		if m.c != nil {
			eng.AtCall(m.at, m.c)
		} else {
			eng.At(m.at, m.h)
		}
	}
	clear(buf)
	se.flushBuf = buf[:0]
}

// minShardNext returns the earliest pending event time across shards.
func (se *ShardedEngine) minShardNext() (Time, bool) {
	var m Time
	ok := false
	for _, sh := range se.shards {
		if t, has := sh.NextAt(); has && (!ok || t < m) {
			m, ok = t, true
		}
	}
	return m, ok
}

// Run fires events until every queue (and mailbox) drains.
func (se *ShardedEngine) Run() { se.run(0, false) }

// RunUntil fires events with time ≤ deadline, then advances every clock
// to the deadline. Events beyond the deadline remain queued.
func (se *ShardedEngine) RunUntil(deadline Time) { se.run(deadline, true) }

func (se *ShardedEngine) run(deadline Time, bounded bool) {
	se.ensureWorkers()
	for {
		se.flushMail()
		m, okm := se.minShardNext()
		g, okg := se.global.NextAt()
		if !okm && !okg {
			break
		}
		if okg && (!okm || g <= m) {
			// Control phase: the earliest work is a global event (ties with
			// shard events resolve global-first). Quiesce and align every
			// shard clock so the handler sees one consistent instant, then
			// fire exactly one event — it may schedule shard events, post
			// mail, or enqueue more global events, so everything is
			// recomputed next iteration.
			if bounded && g > deadline {
				break
			}
			for _, sh := range se.shards {
				sh.AdvanceTo(g)
			}
			se.global.Step()
			se.wstats.Quiesces++
			continue
		}
		if bounded && m > deadline {
			break
		}
		end := m.Add(se.look)
		if okg && g < end {
			end = g
		}
		if bounded && deadline+1 < end {
			end = deadline + 1
		}
		se.windowEnd = end
		se.wstats.Windows++
		se.wstats.SpanSum += end.Sub(m)
		se.runWindow(end)
	}
	if bounded {
		for _, sh := range se.shards {
			sh.AdvanceTo(deadline)
		}
		se.global.AdvanceTo(deadline)
	}
}

// runWindow executes every shard's events strictly before end. With one
// worker (or one active shard) it runs inline; otherwise shards are
// dealt round-robin to the persistent workers and the caller acts as
// worker 0. The deal is static, but since each shard's execution and
// each mailbox row are self-contained, the partition cannot influence
// results.
func (se *ShardedEngine) runWindow(end Time) {
	se.rowOrdered = true
	defer func() { se.rowOrdered = false }()
	active, last := 0, -1
	for i, sh := range se.shards {
		if t, ok := sh.NextAt(); ok && t < end {
			active++
			last = i
		}
	}
	switch {
	case active == 0:
		return
	case active == 1:
		se.shards[last].RunBefore(end)
		return
	case se.workers == 1:
		for _, sh := range se.shards {
			sh.RunBefore(end)
		}
		return
	}
	se.wg.Add(se.workers - 1)
	for k := 1; k < se.workers; k++ {
		se.work[k] <- workItem{end: end}
	}
	se.runWorker(0, end)
	se.wg.Wait()
}

func (se *ShardedEngine) runWorker(k int, end Time) {
	for i := k; i < len(se.shards); i += se.workers {
		se.shards[i].RunBefore(end)
	}
}

// ParallelShards calls fn once per shard, dealing shards to the worker
// pool exactly as runWindow does: worker k owns shards k, k+W, ... and
// the caller acts as worker 0, so fn may touch shard i's engine, state
// and mailbox row when called with i. It must only be called at a
// barrier (from control-phase code or with the engine idle), never
// from inside a window. Which worker runs which shard can never
// affect results for the same reason the window deal cannot: per-shard
// work is self-contained and mail merges deterministically.
func (se *ShardedEngine) ParallelShards(fn func(shard int)) {
	// Posts from fn are row-ordered (each call sends only as shard i's
	// nodes, from shard i's row) — flagged here even on the inline paths
	// so the sub-key is identical for every W.
	prev := se.rowOrdered
	se.rowOrdered = true
	defer func() { se.rowOrdered = prev }()
	if se.workers == 1 || !se.started {
		for i := range se.shards {
			fn(i)
		}
		return
	}
	se.wg.Add(se.workers - 1)
	for k := 1; k < se.workers; k++ {
		se.work[k] <- workItem{fn: fn}
	}
	for i := 0; i < len(se.shards); i += se.workers {
		fn(i)
	}
	se.wg.Wait()
}

// ensureWorkers lazily starts the W−1 persistent worker goroutines (the
// caller is worker 0). Channel send/receive and the barrier WaitGroup
// provide the happens-before edges: workers see all mail flushed before
// a window, and the caller sees all shard state after it.
func (se *ShardedEngine) ensureWorkers() {
	if se.started {
		return
	}
	se.started = true
	if se.workers <= 1 {
		return
	}
	se.work = make([]chan workItem, se.workers)
	for k := 1; k < se.workers; k++ {
		ch := make(chan workItem)
		se.work[k] = ch
		go func(k int, ch chan workItem) {
			for it := range ch {
				if it.fn != nil {
					for i := k; i < len(se.shards); i += se.workers {
						it.fn(i)
					}
				} else {
					se.runWorker(k, it.end)
				}
				se.wg.Done()
			}
		}(k, ch)
	}
}

// Close stops the worker goroutines. The engine remains usable with a
// single worker afterwards; Close is idempotent and safe on an engine
// that never ran.
func (se *ShardedEngine) Close() {
	for k := 1; k < len(se.work); k++ {
		if se.work[k] != nil {
			close(se.work[k])
			se.work[k] = nil
		}
	}
	se.work = nil
	se.workers = 1
}
