package perf

import (
	"sync"
	"testing"
)

func count(name string) int64 {
	for _, s := range Snapshot() {
		if s.Name == name {
			return s.Count
		}
	}
	return -1
}

func TestCounterRegistryIdempotent(t *testing.T) {
	a := NewCounter("test.reg")
	b := NewCounter("test.reg")
	if a != b {
		t.Fatal("NewCounter with the same name returned distinct counters")
	}
	a.Inc()
	b.Inc()
	if got := count("test.reg"); got != 2 {
		t.Fatalf("counter = %d, want 2", got)
	}
}

func TestCounterConcurrent(t *testing.T) {
	c := NewCounter("test.concurrent")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := count("test.concurrent"); got != 8000 {
		t.Fatalf("counter = %d, want 8000", got)
	}
}

func TestSnapshotSorted(t *testing.T) {
	NewCounter("test.b").Inc()
	NewCounter("test.a").Inc()
	stats := Snapshot()
	for i := 1; i < len(stats); i++ {
		if stats[i-1].Name > stats[i].Name {
			t.Fatalf("snapshot not sorted: %q before %q", stats[i-1].Name, stats[i].Name)
		}
	}
	if count("test.a") != 1 {
		t.Fatalf("snapshot missing test.a: %v", stats)
	}
}
