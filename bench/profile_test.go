package bench

import (
	"math"
	"os"
	"strings"
	"testing"
	"time"
)

func fixtureSamples(t *testing.T) []Sample {
	t.Helper()
	f, err := os.Open("testdata/traces.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	samples, err := ParseTraces(f)
	if err != nil {
		t.Fatal(err)
	}
	return samples
}

func TestParseTraces(t *testing.T) {
	samples := fixtureSamples(t)
	if len(samples) != 15 {
		t.Fatalf("parsed %d samples, want 15", len(samples))
	}
	first := samples[0]
	if first.Value != 300*time.Millisecond || first.Stack[0] != "runtime.scanobject" || len(first.Stack) != 5 {
		t.Fatalf("first sample = %+v", first)
	}
	var total time.Duration
	for _, s := range samples {
		total += s.Value
		for _, f := range s.Stack {
			if strings.Contains(f, " ") {
				t.Fatalf("frame %q kept its inline marker", f)
			}
		}
	}
	if total != 1770*time.Millisecond {
		t.Fatalf("total %v, want the header's 1.77s", total)
	}
}

func TestParseTracesRejectsBadValue(t *testing.T) {
	in := "-----------+------\n      lots   runtime.main\n"
	if _, err := ParseTraces(strings.NewReader(in)); err == nil {
		t.Fatal("want an error for a non-duration value")
	}
}

// The fixture's blocks in order, with the layer each must land in.
var fixtureBuckets = []string{
	"runtime.gc",    // background mark worker
	"runtime.gc",    // GC assist inside mallocgc: GC wins over allocation
	"runtime.alloc", // mallocgc under netsim and proto frames
	"sim.queue",     // container/heap under (*Engine).Step on a shard worker
	"sim.queue",     // heap push by (*Engine).schedule during a mailbox flush
	"sim.sharded",   // sort.SliceStable charged to (*ShardedEngine).flushDstFrom
	"proto",         // runtime map access charged to its proto caller
	"netsim",
	"can",   // geom helper charged to its can caller
	"sched", // under an experiments frame: the innermost layer decides
	"exec",  // math.Exp charged to exec
	"other", // workload is not a layer
	"other", // scheduler idle: no hetgrid frame
	"other", // the profiler's own goroutine
	"other", // the benchmark harness itself
}

func TestBucket(t *testing.T) {
	samples := fixtureSamples(t)
	if len(samples) != len(fixtureBuckets) {
		t.Fatalf("%d samples for %d expectations", len(samples), len(fixtureBuckets))
	}
	for i, s := range samples {
		if got := Bucket(s.Stack); got != fixtureBuckets[i] {
			t.Errorf("block %d (%s): bucket %q, want %q", i+1, s.Stack[0], got, fixtureBuckets[i])
		}
	}
}

func TestLayerCPU(t *testing.T) {
	got := LayerCPU(fixtureSamples(t))
	want := map[string]float64{
		"sim.queue": 0.41, "sim.sharded": 0.12, "netsim": 0.09, "proto": 0.33,
		"can": 0.07, "sched": 0.14, "exec": 0.06, "runtime.gc": 0.34,
		"runtime.alloc": 0.11, "other": 0.10,
	}
	if len(got) != len(Layers) {
		t.Fatalf("LayerCPU has %d entries, want one per layer (%d)", len(got), len(Layers))
	}
	for _, l := range Layers {
		if math.Abs(got[l]-want[l]) > 1e-9 {
			t.Errorf("%s = %g s, want %g s", l, got[l], want[l])
		}
	}
}
