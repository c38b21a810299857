// Package perf holds the two process-wide counters the end-to-end
// benchmark (bench/) still reads — sim.events_fired and
// proto.heartbeat_ticks — and the CPU-profile helper behind the
// drivers' -pprof flags. Every other count lives in the engine that
// owns it (sim.Stats, netsim counters, sched and exec stats), scoped to
// one engine rather than summed over the process.
//
// A later benchmark change moves bench/'s two reads to those per-engine
// stats; the package is then deleted.
//
// The counters are telemetry only: they never feed back into simulation
// state, so the determinism guarantee of DESIGN.md §3 is unaffected.
package perf

import (
	"os"
	"runtime/pprof"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a named monotonic counter. Create with NewCounter at
// package init; Inc is safe for concurrent use.
type Counter struct {
	name string
	v    atomic.Int64
}

var (
	mu       sync.Mutex
	counters = map[string]*Counter{}
)

// NewCounter registers (or retrieves) the counter with the given name.
// Names are dotted paths, e.g. "sim.events_fired".
func NewCounter(name string) *Counter {
	mu.Lock()
	defer mu.Unlock()
	if c := counters[name]; c != nil {
		return c
	}
	c := &Counter{name: name}
	counters[name] = c
	return c
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Stat is one registry entry in a Snapshot.
type Stat struct {
	Name  string
	Count int64
}

// Snapshot returns all registered counters sorted by name.
func Snapshot() []Stat {
	mu.Lock()
	defer mu.Unlock()
	out := make([]Stat, 0, len(counters))
	for _, c := range counters {
		out = append(out, Stat{Name: c.name, Count: c.v.Load()})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// StartCPUProfile begins writing a CPU profile to path and returns the
// stop function. Drivers wire this to a -pprof flag; an empty path
// profiles nothing and returns a no-op stop.
func StartCPUProfile(path string) (stop func() error, err error) {
	if path == "" {
		return func() error { return nil }, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() error {
		pprof.StopCPUProfile()
		return f.Close()
	}, nil
}
