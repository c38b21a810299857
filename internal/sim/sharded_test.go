package sim

import (
	"fmt"
	"strings"
	"testing"
)

// splitmix64 is the per-event op generator of the synthetic workloads:
// every decision is a pure function of (seed, actor, event index), so
// what a run does is independent of how same-instant events interleave.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// shardTestActor is a self-rescheduling Caller that logs every firing
// into its shard's log, posts cross-shard mail, occasionally posts a
// global event, and exercises Cancel by scheduling a decoy each round
// and cancelling it the next.
type shardTestActor struct {
	se      *ShardedEngine
	shard   int
	id      int
	k       int
	state   uint64
	horizon Time
	logs    *[][]string
	decoy   EventID
}

// shardTestMsg logs into the DESTINATION shard's log: it executes on
// that shard's worker, and each shard log must have a single writer.
type shardTestMsg struct {
	logs    *[][]string
	dst     int
	src, id int
	payload uint64
}

func (m *shardTestMsg) Call(now Time) {
	(*m.logs)[m.dst] = append((*m.logs)[m.dst], fmt.Sprintf("t=%d msg src=%d.%d payload=%x", now, m.src, m.id, m.payload))
}

func (a *shardTestActor) Call(now Time) {
	r := splitmix64(uint64(a.shard)<<32 ^ uint64(a.id)<<16 ^ uint64(a.k))
	a.state = splitmix64(a.state ^ r)
	log := &(*a.logs)[a.shard]
	*log = append(*log, fmt.Sprintf("t=%d actor=%d.%d k=%d state=%x", now, a.shard, a.id, a.k, a.state))
	a.k++

	if a.decoy.Valid() {
		a.se.Shard(a.shard).Cancel(a.decoy)
	}
	if now >= a.horizon {
		return
	}
	eng := a.se.Shard(a.shard)
	// Self event with a sub-lookahead delay (intra-shard, lock-free);
	// the decoy's delay is always longer, so the next firing reliably
	// cancels it before it can go off.
	eng.AfterCall(Duration(1+r%7), a)
	a.decoy = eng.After(Duration(9+r%11), func(Time) {
		*log = append(*log, fmt.Sprintf("t? decoy %d.%d leaked", a.shard, a.id))
	})
	// Cross-shard mail carrying exactly one lookahead, keyed by the
	// sending actor's identity.
	key := uint64(a.shard<<8 | a.id)
	dst := int(r>>8) % a.se.Shards()
	a.se.Post(a.shard, dst, now.Add(a.se.Lookahead()), key, &shardTestMsg{
		logs: a.logs, dst: dst, src: a.shard, id: a.id, payload: r,
	})
	if r%5 == 0 {
		src, id, k := a.shard, a.id, a.k
		a.se.PostGlobal(a.shard, now.Add(a.se.Lookahead()), key, func(gnow Time) {
			*log = append(*log, fmt.Sprintf("t=%d global from=%d.%d k=%d", gnow, src, id, k))
		})
	}
}

// runShardTestWorkload runs the synthetic workload at the given shard
// and worker counts and returns the per-shard logs joined in shard
// order plus the merged engine stats — the run's "report".
func runShardTestWorkload(t *testing.T, shards, workers int, seed uint64, horizon Time) string {
	t.Helper()
	se := NewSharded(shards, 10)
	se.SetWorkers(workers)
	defer se.Close()

	logs := make([][]string, shards)
	for sh := 0; sh < shards; sh++ {
		for id := 0; id < 2; id++ {
			a := &shardTestActor{
				se: se, shard: sh, id: id,
				state:   splitmix64(seed ^ uint64(sh*31+id)),
				horizon: horizon,
				logs:    &logs,
			}
			se.Shard(sh).AtCall(Time(1+int64(splitmix64(seed^uint64(sh<<8|id))%5)), a)
		}
	}
	se.Run()

	var b strings.Builder
	for sh, l := range logs {
		fmt.Fprintf(&b, "== shard %d (%d events)\n", sh, len(l))
		for _, line := range l {
			b.WriteString(line)
			b.WriteByte('\n')
		}
	}
	st := se.Stats()
	fmt.Fprintf(&b, "stats scheduled=%d fired=%d cancelled=%d pooled=%d pending=%d now=%d\n",
		st.Scheduled, st.Fired, st.Cancelled, st.Pooled, se.Pending(), se.Now())
	return b.String()
}

// TestShardedWorkerInvariance is the core determinism contract: at a
// fixed shard count S, the run's full event log is byte-identical for
// every worker count W.
func TestShardedWorkerInvariance(t *testing.T) {
	const shards = 5
	want := runShardTestWorkload(t, shards, 1, 42, 200)
	if !strings.Contains(want, "msg src=") {
		t.Fatalf("workload produced no cross-shard traffic:\n%s", want)
	}
	if strings.Contains(want, "leaked") {
		t.Fatalf("cancelled decoy fired:\n%s", want)
	}
	for _, w := range []int{2, 3, shards} {
		got := runShardTestWorkload(t, shards, w, 42, 200)
		if got != want {
			t.Fatalf("W=%d diverged from W=1 at S=%d:\n--- W=1\n%s\n--- W=%d\n%s", w, shards, want, w, got)
		}
	}
}

// TestShardedCrossShardTieOrder pins the tie-break rule across shard
// boundaries: same-timestamp arrivals at one shard fire in mailbox
// flush order — (src shard ascending, emission order) — and a global
// event at the same instant fires before any of them. The order must
// not depend on the worker count.
func TestShardedCrossShardTieOrder(t *testing.T) {
	for _, workers := range []int{1, 4} {
		se := NewSharded(4, 10)
		se.SetWorkers(workers)
		var log []string
		for src := 0; src < 4; src++ {
			src := src
			se.Shard(src).At(0, func(now Time) {
				for k := 0; k < 2; k++ {
					k := k
					se.Post(src, 0, now.Add(se.Lookahead()), uint64(src), callerFunc(func(at Time) {
						log = append(log, fmt.Sprintf("t=%d src=%d k=%d", at, src, k))
					}))
				}
			})
		}
		se.Shard(0).At(0, func(now Time) {
			se.PostGlobal(0, now.Add(se.Lookahead()), 0, func(at Time) {
				log = append(log, fmt.Sprintf("t=%d global", at))
			})
		})
		se.Run()
		se.Close()

		want := []string{
			"t=10 global",
			"t=10 src=0 k=0", "t=10 src=0 k=1",
			"t=10 src=1 k=0", "t=10 src=1 k=1",
			"t=10 src=2 k=0", "t=10 src=2 k=1",
			"t=10 src=3 k=0", "t=10 src=3 k=1",
		}
		if len(log) != len(want) {
			t.Fatalf("W=%d: got %d events, want %d: %v", workers, len(log), len(want), log)
		}
		for i := range want {
			if log[i] != want[i] {
				t.Fatalf("W=%d: event %d = %q, want %q (full: %v)", workers, i, log[i], want[i], log)
			}
		}
	}
}

type callerFunc func(Time)

func (f callerFunc) Call(now Time) { f(now) }

// TestShardedPostBelowWindowPanics enforces the conservative-execution
// invariant: a cross-shard post that carries less than one lookahead
// (landing inside the current window) must panic rather than silently
// violate causality.
func TestShardedPostBelowWindowPanics(t *testing.T) {
	se := NewSharded(2, 10)
	defer se.Close()
	se.Shard(0).At(5, func(now Time) {
		defer func() {
			if recover() == nil {
				t.Error("Post below the window bound did not panic")
			}
		}()
		se.Post(0, 1, now.Add(1), 0, callerFunc(func(Time) {}))
	})
	se.Run()
}

// TestShardedRunUntil checks deadline semantics: events at the deadline
// fire, events beyond it stay queued, and every clock ends aligned.
func TestShardedRunUntil(t *testing.T) {
	se := NewSharded(3, 10)
	defer se.Close()
	var fired []string
	se.Shard(1).At(50, func(now Time) { fired = append(fired, fmt.Sprintf("at50 t=%d", now)) })
	se.Shard(2).At(51, func(now Time) { fired = append(fired, fmt.Sprintf("at51 t=%d", now)) })
	se.Global().At(50, func(now Time) { fired = append(fired, fmt.Sprintf("g50 t=%d", now)) })
	se.RunUntil(50)
	if want := []string{"g50 t=50", "at50 t=50"}; fmt.Sprint(fired) != fmt.Sprint(want) {
		t.Fatalf("fired %v, want %v", fired, want)
	}
	if se.Pending() != 1 {
		t.Fatalf("pending = %d, want the t=51 event queued", se.Pending())
	}
	if se.Now() != 50 {
		t.Fatalf("Now = %d, want 50", se.Now())
	}
	for i := 0; i < se.Shards(); i++ {
		if got := se.Shard(i).Now(); got != 50 {
			t.Fatalf("shard %d clock = %d, want 50", i, got)
		}
	}
	se.RunUntil(60)
	if len(fired) != 3 || fired[2] != "at51 t=51" {
		t.Fatalf("second RunUntil fired %v", fired)
	}
}

// TestEngineScopedStats guards the satellite bugfix: two engines in one
// process keep independent event accounting (the package-level perf
// counters aggregate process-wide by design, but Stats must not).
func TestEngineScopedStats(t *testing.T) {
	e1, e2 := New(), New()
	for i := 0; i < 3; i++ {
		e1.At(Time(i), func(Time) {})
	}
	id := e2.At(7, func(Time) {})
	e2.Cancel(id)
	e1.Run()
	s1, s2 := e1.Stats(), e2.Stats()
	if s1.Scheduled != 3 || s1.Fired != 3 || s1.Cancelled != 0 {
		t.Fatalf("e1 stats = %+v, want 3 scheduled / 3 fired / 0 cancelled", s1)
	}
	if s2.Scheduled != 1 || s2.Fired != 0 || s2.Cancelled != 1 {
		t.Fatalf("e2 stats = %+v, want 1 scheduled / 0 fired / 1 cancelled", s2)
	}
}

// fuzzActor is the FuzzShardedDeterminism workload: a population of
// actors dealt round-robin onto however many shards the run uses — an
// active set scheduled at t≈0 plus a dormant reserve activated mid-run
// by join-wave events. Every op is a pure function of (seed, actor,
// event index) and every actor→actor message carries exactly one
// lookahead, so the aggregate report below is invariant across BOTH
// the worker count and the shard count. Cross-actor effects use two
// accumulators: `inbox` is commutative (different shard counts
// legitimately interleave same-instant events of DIFFERENT actors
// differently), while `chain` is order-sensitive — one actor's
// mailbox deliveries fire in (at, key, sub) order by contract, so
// hash-chaining them pins the delivery order itself, which is what
// the serial-emission sub key exists to keep partition-independent.
type fuzzActor struct {
	se      *ShardedEngine
	shards  int
	id      int
	actors  int
	k       int
	horizon Time
	period  Duration // 0: dense sub-lookahead self-delays; else a steady-state tick period

	events uint64 // own firings
	inbox  uint64 // commutative hash-sum of received (time, payload)
	chain  uint64 // order-sensitive hash-chain of mailbox deliveries
	last   Time
}

type fuzzMsg struct {
	dst     *fuzzActor
	payload uint64
}

func (m *fuzzMsg) Call(now Time) {
	m.dst.inbox += splitmix64(uint64(now) ^ m.payload)
	m.dst.chain = splitmix64(m.dst.chain ^ m.payload ^ uint64(now))
	if now > m.dst.last {
		m.dst.last = now
	}
}

func (a *fuzzActor) Call(now Time) {
	a.events++
	if now > a.last {
		a.last = now
	}
	r := splitmix64(uint64(a.id)<<40 ^ uint64(a.k)<<8 ^ 0xfa27)
	a.k++
	if now >= a.horizon {
		return
	}
	myShard := a.id % a.shards
	// Self event: a dense sub-lookahead delay, or — when the run carries
	// a heartbeat-like period — a steady-state gap of several lookaheads.
	if a.period > 0 {
		a.se.Shard(myShard).AfterCall(a.period+Duration(r%9), a)
	} else {
		a.se.Shard(myShard).AfterCall(Duration(1+r%9), a)
	}
	// Message to a derived peer, carrying exactly one lookahead so the
	// send is legal at every shard count (self-sends included).
	if r%3 != 0 {
		dst := int(r>>16) % a.actors
		a.se.Post(myShard, dst%a.shards, now.Add(a.se.Lookahead()), uint64(a.id), &fuzzMsg{payload: r, dst: fuzzPeers[dst]})
	}
	// Occasional global event bumping a shared control counter.
	if r%7 == 0 {
		a.se.PostGlobal(myShard, now.Add(a.se.Lookahead()), uint64(a.id), func(gnow Time) {
			fuzzGlobal += splitmix64(uint64(gnow) ^ r)
		})
	}
	// Mid-window join wave: wake a reserve actor by posting its first
	// firing through the mailbox. Activation needs no coordination —
	// the actor is its own Caller, and a double activation just splits
	// it into two deterministic self-event chains — and the arrival at
	// now + L typically lands mid-window on the destination shard.
	if r%5 == 1 {
		w := int(r>>12) % a.actors
		a.se.Post(myShard, w%a.shards, now.Add(a.se.Lookahead()), uint64(a.id), fuzzPeers[w])
	}
	// Serial fan-out with a shared key: a control-phase handler sending
	// on behalf of this actor through two different shard facets, the
	// shape of join introductions. Equal (at, key) entries land in
	// different mailbox rows, so only the emission-order sub key keeps
	// their flush order — and the receivers' chains — off the partition.
	if r%13 == 5 {
		d1, d2 := int(r>>20)%a.actors, int(r>>28)%a.actors
		a.se.PostGlobal(myShard, now.Add(a.se.Lookahead()), uint64(a.id), func(gnow Time) {
			at := gnow.Add(a.se.Lookahead())
			a.se.Post(d1%a.shards, d1%a.shards, at, uint64(a.id), &fuzzMsg{payload: splitmix64(r ^ 0x5e41), dst: fuzzPeers[d1]})
			a.se.Post(d2%a.shards, d2%a.shards, at, uint64(a.id), &fuzzMsg{payload: splitmix64(r ^ 0x5e42), dst: fuzzPeers[d2]})
		})
	}
}

// fuzzPeers / fuzzGlobal are per-run scratch for the fuzz workload
// (reset before each run; tests in this package run serially).
var (
	fuzzPeers  []*fuzzActor
	fuzzGlobal uint64
)

// runFuzzWorkload runs the workload and returns its report, which must
// be a pure model property: identical for every W at fixed S, and for
// every S when the model is partition-independent.
func runFuzzWorkload(shards, workers, actors int, seed uint64, horizon Time, period Duration) string {
	se := NewSharded(shards, 10)
	se.SetWorkers(workers)
	defer se.Close()

	// Population = active set + a dormant reserve. Reserve actors are
	// never scheduled here: they fire only if a join-wave event wakes
	// them (possibly more than once), or sit dark absorbing messages.
	total := actors + 1 + actors/2
	fuzzPeers = make([]*fuzzActor, total)
	fuzzGlobal = 0
	for i := range fuzzPeers {
		fuzzPeers[i] = &fuzzActor{
			se: se, shards: shards, id: i, actors: total, horizon: horizon, period: period,
		}
	}
	for i := 0; i < actors; i++ {
		se.Shard(i%shards).AtCall(Time(1+int64(splitmix64(seed^uint64(i))%13)), fuzzPeers[i])
	}
	// Bound the run one period past the actors' horizon, so the deadline
	// clipping of the last window is exercised while every workload
	// event still fires (self-delays never exceed period+8).
	se.RunUntil(horizon.Add(period + 20))

	var b strings.Builder
	for i, a := range fuzzPeers {
		fmt.Fprintf(&b, "actor=%d events=%d inbox=%x chain=%x last=%d\n", i, a.events, a.inbox, a.chain, a.last)
	}
	fmt.Fprintf(&b, "global=%x now=%d pending=%d\n", fuzzGlobal, se.Now(), se.Pending())
	return b.String()
}

// FuzzShardedDeterminism drives a random actor workload (derived from
// the fuzz input) at S ∈ {1, 2, 4, 8} with W ∈ {1, S} and requires
// byte-identical reports across every combination. The period input
// sets the workload's self-delay regime as a multiple of the lookahead
// (0 = dense sub-lookahead churn; higher ratios give heartbeat-like
// steady states with windows far apart).
func FuzzShardedDeterminism(f *testing.F) {
	f.Add(uint64(1), uint8(6), uint8(0))
	f.Add(uint64(0xdeadbeef), uint8(12), uint8(0))
	f.Add(uint64(31337), uint8(3), uint8(0))
	// More dense-workload (period 0) seeds.
	f.Add(uint64(0xba7c4), uint8(15), uint8(0))
	f.Add(uint64(0x9e3779b9), uint8(11), uint8(0))
	// Churn corpus: seeds dense in join waves (r%5) and serial fan-outs
	// (r%13) — reserve wake-ups mid-window, double activations, and
	// equal-(at, key) cross-row emissions whose chain ordering only the
	// serial sub key keeps partition-independent.
	f.Add(uint64(0x7e57ab1e), uint8(9), uint8(0))
	f.Add(uint64(0xc0ffee11), uint8(14), uint8(0))
	f.Add(uint64(0x1234fedc), uint8(7), uint8(0))
	// Steady-state corpus: heartbeat-like periods (period/lookahead
	// ratios 2–7) with global events (r%7) and join waves (r%5) landing
	// between sparse windows.
	f.Add(uint64(0x5ead57a7e), uint8(6), uint8(3))
	f.Add(uint64(0x7e4b0a7d), uint8(10), uint8(7))
	f.Add(uint64(0xadab7), uint8(13), uint8(5))
	f.Fuzz(func(t *testing.T, seed uint64, nactors, period uint8) {
		actors := 1 + int(nactors%16)
		horizon := Time(60 + splitmix64(seed)%140)
		per := Duration(period%8) * 10 // multiples of the lookahead
		want := runFuzzWorkload(1, 1, actors, seed, horizon, per)
		for _, s := range []int{1, 2, 4, 8} {
			for _, w := range []int{1, s} {
				if s == 1 && w == 1 {
					continue // the baseline itself
				}
				got := runFuzzWorkload(s, w, actors, seed, horizon, per)
				if got != want {
					t.Fatalf("S=%d W=%d diverged from S=1 W=1 (seed=%#x actors=%d period=%d):\n--- baseline\n%s\n--- S=%d W=%d\n%s",
						s, w, seed, actors, per, want, s, w, got)
				}
			}
		}
	})
}
