package experiments

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"hetgrid/internal/sim"
)

func TestParallelMapPreservesOrder(t *testing.T) {
	got := ParallelMap(100, 8, func(i int) int { return i * i })
	for i, v := range got {
		if v != i*i {
			t.Fatalf("index %d: got %d", i, v)
		}
	}
}

func TestParallelMapRunsAll(t *testing.T) {
	var count int64
	ParallelMap(250, 0, func(i int) struct{} {
		atomic.AddInt64(&count, 1)
		return struct{}{}
	})
	if count != 250 {
		t.Fatalf("ran %d of 250", count)
	}
}

func TestParallelMapEmptyAndSingle(t *testing.T) {
	if out := ParallelMap(0, 4, func(int) int { return 1 }); len(out) != 0 {
		t.Fatal("empty map produced output")
	}
	if out := ParallelMap(1, 4, func(int) int { return 7 }); out[0] != 7 {
		t.Fatal("single-element map wrong")
	}
}

func TestParallelMapMatchesSerial(t *testing.T) {
	serial := ParallelMap(20, 1, func(i int) int { return 3*i + 1 })
	parallel := ParallelMap(20, 6, func(i int) int { return 3*i + 1 })
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Fatal("parallel result differs from serial")
		}
	}
}

func TestReplicateLB(t *testing.T) {
	cfg := DefaultLBConfig(CanHet)
	cfg.Nodes = 60
	cfg.Jobs = 300
	cfg.MeanInterArrival = 30 * sim.Second
	cfg.Seed = 10
	rep, err := ReplicateLB(cfg, 4, func(r *LBResult) float64 { return r.WaitTimes.Mean() })
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Means) != 4 || len(rep.Seeds) != 4 {
		t.Fatalf("replication shape: %+v", rep)
	}
	if rep.Seeds[0] != 10 || rep.Seeds[3] != 13 {
		t.Fatalf("seeds: %v", rep.Seeds)
	}
	if rep.StdDev < 0 {
		t.Fatal("negative stddev")
	}
	// Different seeds should give (slightly) different means.
	same := true
	for _, m := range rep.Means[1:] {
		if m != rep.Means[0] {
			same = false
		}
	}
	if same {
		t.Fatal("all replicas identical across seeds; seeding broken")
	}
	// The grand mean is the mean of the per-seed means.
	sum := 0.0
	for _, m := range rep.Means {
		sum += m
	}
	if diff := rep.Mean - sum/4; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("grand mean mismatch: %v vs %v", rep.Mean, sum/4)
	}
}

func TestReplicateLBPropagatesErrors(t *testing.T) {
	cfg := DefaultLBConfig("bogus")
	cfg.Nodes = 30
	cfg.Jobs = 200
	if _, err := ReplicateLB(cfg, 2, func(r *LBResult) float64 { return 0 }); err == nil {
		t.Fatal("error not propagated")
	}
}

func TestStddev(t *testing.T) {
	if stddev([]float64{5}, 5) != 0 {
		t.Fatal("single-value stddev should be 0")
	}
	got := stddev([]float64{2, 4, 4, 4, 5, 5, 7, 9}, 5)
	// Sample stddev of this classic set is ≈2.138.
	if got < 2.13 || got > 2.15 {
		t.Fatalf("stddev = %v", got)
	}
}

func TestParallelMapErrSuccess(t *testing.T) {
	for _, workers := range []int{1, 6} {
		got, err := ParallelMapErr(30, workers, func(i int) (int, error) { return i * 2, nil })
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, v := range got {
			if v != i*2 {
				t.Fatalf("workers=%d index %d: got %d", workers, i, v)
			}
		}
	}
}

// TestParallelMapErrFirstErrorDeterministic checks that when several
// indices fail, the reported error is always the lowest failing index's,
// regardless of worker count or goroutine scheduling.
func TestParallelMapErrFirstErrorDeterministic(t *testing.T) {
	failAt := map[int]bool{7: true, 11: true, 23: true}
	for _, workers := range []int{1, 2, 8} {
		for rep := 0; rep < 20; rep++ {
			_, err := ParallelMapErr(40, workers, func(i int) (int, error) {
				if failAt[i] {
					return 0, fmt.Errorf("fail-%d", i)
				}
				return i, nil
			})
			if err == nil || err.Error() != "fail-7" {
				t.Fatalf("workers=%d: err = %v, want fail-7", workers, err)
			}
		}
	}
}

// TestParallelMapErrCancelsAfterFailure checks both cancellation
// behaviors: the serial path stops exactly at the failure, and the
// parallel path stops dispatching new indices once a failure has been
// observed (indices already handed out may still run).
func TestParallelMapErrCancelsAfterFailure(t *testing.T) {
	// Serial: nothing past the failing index runs.
	var serialRan int64
	_, err := ParallelMapErr(100, 1, func(i int) (int, error) {
		atomic.AddInt64(&serialRan, 1)
		if i == 4 {
			return 0, fmt.Errorf("boom")
		}
		return i, nil
	})
	if err == nil || err.Error() != "boom" {
		t.Fatalf("serial err = %v", err)
	}
	if serialRan != 5 {
		t.Fatalf("serial ran %d calls, want 5 (indices 0..4)", serialRan)
	}

	// Parallel: with a failure at index 0 and workers blocked until it
	// lands, the vast majority of the sweep must never start.
	var parallelRan int64
	_, err = ParallelMapErr(10_000, 2, func(i int) (int, error) {
		atomic.AddInt64(&parallelRan, 1)
		if i == 0 {
			return 0, fmt.Errorf("early")
		}
		return i, nil
	})
	if err == nil || err.Error() != "early" {
		t.Fatalf("parallel err = %v", err)
	}
	if ran := atomic.LoadInt64(&parallelRan); ran == 10_000 {
		t.Fatalf("parallel ran the full sweep (%d calls) despite an index-0 failure", ran)
	}
}

func TestParallelMapErrEmpty(t *testing.T) {
	out, err := ParallelMapErr(0, 4, func(int) (int, error) { return 0, fmt.Errorf("never") })
	if err != nil || len(out) != 0 {
		t.Fatalf("empty: out=%v err=%v", out, err)
	}
}

func TestCancelFlagOnlyHaltsHigherIndices(t *testing.T) {
	c := newCancelFlag()
	for _, i := range []int{0, 3, 9} {
		if c.CanceledFor(i) {
			t.Fatalf("fresh flag cancels index %d", i)
		}
	}
	c.fail(3)
	if c.CanceledFor(2) || c.CanceledFor(3) {
		t.Fatal("failure at 3 must not cancel indices ≤ 3 (determinism)")
	}
	if !c.CanceledFor(4) {
		t.Fatal("failure at 3 must cancel index 4")
	}
	c.fail(7) // higher failure must not raise the low-water mark
	if c.CanceledFor(3) {
		t.Fatal("later higher-index failure moved the mark up")
	}
	var nilFlag *CancelFlag
	if nilFlag.CanceledFor(0) {
		t.Fatal("nil flag canceled")
	}
}

// TestRunLoadBalanceCancel checks the event-boundary cancellation in the
// simulation loop itself: a run whose Cancel predicate trips partway
// through stops with ErrCanceled instead of simulating its horizon.
func TestRunLoadBalanceCancel(t *testing.T) {
	for _, gap := range []sim.Duration{0, 200 * sim.Second} {
		polls := 0
		cfg := DefaultLBConfig(CanHet)
		cfg.Nodes = 40
		cfg.Jobs = 500
		cfg.MeanFailGap = gap
		cfg.Cancel = func() bool { polls++; return polls > 100 }
		res, err := RunLoadBalance(cfg)
		if res != nil || err == nil {
			t.Fatalf("gap %v: canceled run returned res=%v err=%v", gap, res, err)
		}
		if !errors.Is(err, ErrCanceled) {
			t.Fatalf("gap %v: err = %v, want ErrCanceled", gap, err)
		}
		if polls != 101 {
			t.Fatalf("gap %v: run continued past the cancellation poll (%d polls)", gap, polls)
		}
	}
}

// TestSlowReplicaObservesCancellation drives the full chain: replica 0
// fails (only after replica 1 is simulating), the sweep's flag flips,
// and the in-flight replica 1 aborts at an event boundary with
// ErrCanceled — while the sweep still reports replica 0's genuine error.
func TestSlowReplicaObservesCancellation(t *testing.T) {
	boom := fmt.Errorf("boom")
	started := make(chan struct{})
	var slowErr error
	_, err := ParallelMapErrCancel(2, 2, func(i int, cancel *CancelFlag) (int, error) {
		if i == 0 {
			<-started // replica 1 is inside its simulation loop
			return 0, boom
		}
		cfg := DefaultLBConfig(CanHet)
		cfg.Nodes = 60
		cfg.Jobs = 200_000 // far longer than replica 0's turnaround
		signaled := false
		cfg.Cancel = func() bool {
			if !signaled {
				signaled = true
				close(started)
			}
			return cancel.CanceledFor(i)
		}
		_, runErr := RunLoadBalance(cfg)
		slowErr = runErr
		if runErr == nil {
			return 0, fmt.Errorf("slow replica ran to completion without observing cancellation")
		}
		return 0, runErr
	})
	if !errors.Is(err, boom) {
		t.Fatalf("sweep error = %v, want the genuine failure (boom)", err)
	}
	if !errors.Is(slowErr, ErrCanceled) {
		t.Fatalf("slow replica error = %v, want ErrCanceled", slowErr)
	}
}
