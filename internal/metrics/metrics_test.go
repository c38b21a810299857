package metrics

import (
	"bytes"
	"strings"
	"testing"

	"hetgrid/internal/sim"
)

// TestRingWrap fills a series past capacity and checks the retained
// window is the most recent points in chronological order.
func TestRingWrap(t *testing.T) {
	s := &Series{Name: "x", pts: make([]Point, 0, 4)}
	for i := 0; i < 10; i++ {
		s.record(Point{T: float64(i), Node: -1, V: float64(i)})
	}
	if s.Len() != 4 {
		t.Fatalf("Len = %d, want 4", s.Len())
	}
	got := s.Points()
	for i, p := range got {
		want := float64(6 + i)
		if p.T != want || p.V != want {
			t.Fatalf("point %d = %+v, want T=V=%v", i, p, want)
		}
	}
}

// TestCounterDelta checks counters export per-interval deltas with the
// baseline taken at Attach, or at registration on an attached plane —
// canonical and auxiliary counters alike.
func TestCounterDelta(t *testing.T) {
	for _, tc := range []struct {
		name          string
		registerFirst bool
	}{
		{"register-before-attach", true},
		{"register-after-attach", false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng := sim.New()
			var total int64 = 100 // earlier activity must not appear
			p := New(10*sim.Second, 0)
			register := func() {
				p.RegisterCounter("c", func() int64 { return total })
				p.RegisterAuxCounter("a", func() int64 { return total })
			}
			if tc.registerFirst {
				register()
				p.Attach(eng)
			} else {
				p.Attach(eng)
				register()
			}

			total += 7
			p.SampleNow()
			total += 5
			p.SampleNow()
			p.SampleNow()

			want := []float64{7, 5, 0}
			for _, s := range []*Series{p.SeriesByName("c"), p.AuxSeriesByName("a")} {
				pts := s.Points()
				if len(pts) != len(want) {
					t.Fatalf("%s: got %d points, want %d", s.Name, len(pts), len(want))
				}
				for i, w := range want {
					if pts[i].V != w || pts[i].Node != -1 {
						t.Fatalf("%s point %d = %+v, want V=%v Node=-1", s.Name, i, pts[i], w)
					}
				}
			}
		})
	}
}

// nopCaller keeps the engine queue non-empty without doing anything.
type nopCaller struct{}

func (nopCaller) Call(sim.Time) {}

// TestDormancy: the sampler ticks while other events are pending, then
// goes dormant when it would be the only event left, so Run() drains.
// Poke re-arms it on an interval boundary.
func TestDormancy(t *testing.T) {
	eng := sim.New()
	p := New(10*sim.Second, 0)
	p.RegisterGauge("g", func(k *Sink) { k.Emit(0, 1) })
	p.Attach(eng)

	// Work pending until t=35s: the sampler ticks at t=10,20,30, and at
	// the t=40 tick it finds the queue otherwise empty, so it samples
	// once more and disarms.
	eng.AfterCall(35*sim.Second, nopCaller{})
	p.Poke()
	eng.Run() // must terminate

	if got := p.Samples(); got != 4 {
		t.Fatalf("samples = %d, want 4 (t=10,20,30,40)", got)
	}
	if p.armed {
		t.Fatal("sampler still armed after drain")
	}

	// Re-poke at t=40s: next aligned boundary is t=50s.
	eng.AfterCall(1*sim.Second, nopCaller{})
	p.Poke()
	eng.Run()
	if got := p.Samples(); got != 5 {
		t.Fatalf("samples after re-poke = %d, want 5", got)
	}
	pts := p.SeriesByName("g").Points()
	if last := pts[len(pts)-1]; last.T != 50 {
		t.Fatalf("last sample at t=%v, want 50", last.T)
	}
}

// TestPlaneOnShardedEngine runs the plane against a real
// ShardedEngine: the sampler lives on the serial control plane, ticks
// at window barriers while shard work is pending, observes shard-local
// mutations made inside parallel windows, and goes dormant so Run()
// drains.
func TestPlaneOnShardedEngine(t *testing.T) {
	se := sim.NewSharded(3, 100*sim.Millisecond)
	defer se.Close()
	se.SetWorkers(3)

	counts := make([]int64, 3)
	for sh := 0; sh < 3; sh++ {
		sh := sh
		se.Shard(sh).AfterCall(5*sim.Second, callerFunc(func(sim.Time) {
			counts[sh] += int64(sh + 1)
		}))
		se.Shard(sh).AfterCall(15*sim.Second, callerFunc(func(sim.Time) {
			counts[sh] += 10 * int64(sh+1)
		}))
	}

	p := New(10*sim.Second, 0)
	p.Attach(se)
	p.RegisterCounter("c", func() int64 { return counts[0] + counts[1] + counts[2] })
	p.Poke()
	se.Run() // must terminate: the sampler disarms once shards drain

	// t=10: deltas 1+2+3; t=20: 10+20+30; the sampler found the queues
	// empty at t=20 and went dormant.
	pts := p.SeriesByName("c").Points()
	want := []float64{6, 60}
	if len(pts) != len(want) {
		t.Fatalf("got %d points, want %d: %+v", len(pts), len(want), pts)
	}
	for i, w := range want {
		if pts[i].V != w {
			t.Fatalf("point %d = %+v, want V=%v", i, pts[i], w)
		}
	}
	if p.armed {
		t.Fatal("sampler still armed after drain")
	}
}

// callerFunc adapts a func to sim.Caller for shard-local test events.
type callerFunc func(sim.Time)

func (f callerFunc) Call(now sim.Time) { f(now) }

// TestPokeIdempotent: double-Poke must not double-schedule.
func TestPokeIdempotent(t *testing.T) {
	eng := sim.New()
	p := New(10*sim.Second, 0)
	p.Attach(eng)
	p.Poke()
	p.Poke()
	if got := eng.Pending(); got != 1 {
		t.Fatalf("pending = %d, want 1", got)
	}
}

// TestExportFormats checks JSONL and CSV shapes and ordering.
func TestExportFormats(t *testing.T) {
	eng := sim.New()
	p := New(10*sim.Second, 0)
	p.RegisterGauge("g", func(k *Sink) {
		k.Emit(1, 2.5)
		k.Emit(2, 3)
	})
	var c int64
	p.RegisterCounter("c", func() int64 { return c })
	p.Attach(eng)
	c = 4
	p.SampleNow()

	var jb bytes.Buffer
	if err := p.WriteJSONL(&jb, "run1"); err != nil {
		t.Fatal(err)
	}
	wantJSON := `{"run":"run1","series":"g","t":0,"node":1,"v":2.5}
{"run":"run1","series":"g","t":0,"node":2,"v":3}
{"run":"run1","series":"c","t":0,"node":-1,"v":4}
`
	if jb.String() != wantJSON {
		t.Fatalf("JSONL:\n%s\nwant:\n%s", jb.String(), wantJSON)
	}

	var cb bytes.Buffer
	if err := p.WriteCSV(&cb); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(cb.String()), "\n")
	if lines[0] != "series,t,node,v" {
		t.Fatalf("CSV header = %q", lines[0])
	}
	if len(lines) != 4 {
		t.Fatalf("CSV lines = %d, want 4", len(lines))
	}
	if lines[1] != "g,0.000,1,2.5" {
		t.Fatalf("CSV row = %q", lines[1])
	}
}

// TestSamplingAllocs: a steady-state sampling pass over pre-warmed
// rings must not allocate.
func TestSamplingAllocs(t *testing.T) {
	eng := sim.New()
	p := New(10*sim.Second, 64)
	p.RegisterGauge("g", func(k *Sink) {
		for n := int64(0); n < 16; n++ {
			k.Emit(n, float64(n))
		}
	})
	var c int64
	p.RegisterCounter("c", func() int64 { c++; return c })
	p.Attach(eng)
	// Warm the rings to full so record() never appends.
	for i := 0; i < 8; i++ {
		p.SampleNow()
	}
	avg := testing.AllocsPerRun(100, func() { p.SampleNow() })
	if avg != 0 {
		t.Fatalf("allocs per sampling pass = %v, want 0", avg)
	}
}
