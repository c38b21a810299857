// Package metrics is the deterministic telemetry plane of the
// simulator: a virtual-clock-driven sampler that snapshots registered
// per-node gauges and cumulative counters into ring-buffered time
// series, exportable as JSONL or CSV.
//
// The plane is strictly read-only with respect to the simulation.
// Gauge and counter callbacks must observe state without mutating it,
// draw no randomness, and trigger no lazy recomputation that feeds
// back into scheduling or protocol decisions — under that contract a
// run with metrics enabled produces byte-identical figure output to a
// run with metrics disabled (the sampler's events interleave into the
// engine's queue, but the relative order of all other events is
// preserved, and nothing the sampler reads changes behavior).
//
// Unlike internal/perf's process-global counters, a Plane is instance
// scoped: parallel experiment sweeps attach one plane per simulation
// engine, so concurrent cells never share telemetry state and a sweep
// samples identically at any worker count.
package metrics

import (
	"encoding/csv"
	"encoding/json"
	"io"
	"strconv"

	"hetgrid/internal/sim"
)

// DefaultMaxPoints bounds each series' ring buffer when the caller does
// not choose a capacity.
const DefaultMaxPoints = 1 << 14

// Point is one sample: virtual time in seconds, the node it describes
// (-1 for plane-wide scalars), and the value.
type Point struct {
	T    float64
	Node int64
	V    float64
}

// Series is a named ring buffer of points. Once the ring is full the
// oldest points are overwritten, so steady-state sampling allocates
// nothing and memory stays bounded regardless of horizon.
type Series struct {
	Name string
	pts  []Point // ring storage, capacity fixed at registration
	head int     // next overwrite position once full
	full bool
}

func (s *Series) record(p Point) {
	if !s.full {
		s.pts = append(s.pts, p)
		if len(s.pts) == cap(s.pts) {
			s.full = true
		}
		return
	}
	s.pts[s.head] = p
	s.head++
	if s.head == len(s.pts) {
		s.head = 0
	}
}

// Len returns the number of retained points.
func (s *Series) Len() int { return len(s.pts) }

// Last returns the most recently recorded point, if any.
func (s *Series) Last() (Point, bool) {
	if len(s.pts) == 0 {
		return Point{}, false
	}
	i := len(s.pts) - 1
	if s.full {
		i = s.head - 1
		if i < 0 {
			i = len(s.pts) - 1
		}
	}
	return s.pts[i], true
}

// Points returns the retained points in chronological order (a copy).
func (s *Series) Points() []Point {
	out := make([]Point, 0, len(s.pts))
	if s.full {
		out = append(out, s.pts[s.head:]...)
		return append(out, s.pts[:s.head]...)
	}
	return append(out, s.pts...)
}

// each visits the retained points in chronological order.
func (s *Series) each(f func(Point) error) error {
	if s.full {
		for _, p := range s.pts[s.head:] {
			if err := f(p); err != nil {
				return err
			}
		}
		for _, p := range s.pts[:s.head] {
			if err := f(p); err != nil {
				return err
			}
		}
		return nil
	}
	for _, p := range s.pts {
		if err := f(p); err != nil {
			return err
		}
	}
	return nil
}

// Sink receives gauge emissions during one sampling pass. It is reused
// across passes so emitting costs no allocation.
type Sink struct {
	s *Series
	t float64
}

// Emit records one per-node value at the current sample time.
func (k *Sink) Emit(node int64, v float64) {
	k.s.record(Point{T: k.t, Node: node, V: v})
}

// GaugeFunc reports instantaneous per-node values by calling
// sink.Emit once per node (or once with node -1 for a scalar). It must
// emit in a deterministic order and must not mutate simulation state.
type GaugeFunc func(sink *Sink)

// CounterFunc reports a cumulative count. The plane converts it to a
// per-interval delta (see RegisterCounter for the first interval).
type CounterFunc func() int64

// Engine is the scheduling surface a plane samples on: the serial
// sim.Engine, or a sim.ShardedEngine — whose AtCall/AfterCall schedule
// on the serial control plane, so every sampling pass runs at a window
// barrier with all shards quiesced and all clocks aligned. Pending
// must count every queue (a sharded engine includes shard queues and
// unflushed mailboxes), so dormancy decisions are a pure model
// property, independent of the shard partition and the worker count.
type Engine interface {
	Now() sim.Time
	Pending() int
	AtCall(at sim.Time, c sim.Caller) sim.EventID
	AfterCall(d sim.Duration, c sim.Caller) sim.EventID
}

type gaugeReg struct {
	series *Series
	fn     GaugeFunc
}

type counterReg struct {
	series *Series
	fn     CounterFunc
	last   int64
}

// Plane is one simulation's telemetry plane. Register gauges and
// counters, Attach it to the engine, and it samples every interval
// while the simulation has work pending. A Plane is single-threaded,
// like the engine it watches.
type Plane struct {
	eng      Engine
	interval sim.Duration
	maxPts   int

	series   []*Series
	gauges   []gaugeReg
	counters []counterReg

	// Auxiliary registrations: sampled on every pass like the canonical
	// ones, but excluded from Series/WriteJSONL/WriteCSV. They hold
	// diagnostics whose values legitimately depend on the engine — the
	// sharded core's window counters, which the serial engine lacks — and
	// so must never enter the canonical stream, whose contract is
	// byte-identity across engines.
	auxSeries   []*Series
	auxGauges   []gaugeReg
	auxCounters []counterReg

	sink    Sink
	armed   bool // a sampler event is currently scheduled
	stopped bool // Stop called: ignore pending events, refuse re-arming
	samples int
}

// New creates a plane sampling at the given interval. maxPoints bounds
// each series' ring (0 means DefaultMaxPoints).
func New(interval sim.Duration, maxPoints int) *Plane {
	if interval <= 0 {
		interval = 60 * sim.Second
	}
	if maxPoints <= 0 {
		maxPoints = DefaultMaxPoints
	}
	return &Plane{interval: interval, maxPts: maxPoints}
}

// Interval returns the sampling cadence.
func (p *Plane) Interval() sim.Duration { return p.interval }

func (p *Plane) newSeries(name string) *Series {
	s := &Series{Name: name, pts: make([]Point, 0, p.maxPts)}
	p.series = append(p.series, s)
	return s
}

// RegisterGauge adds a named gauge. Registration order is export order,
// so callers must register deterministically.
func (p *Plane) RegisterGauge(name string, fn GaugeFunc) {
	p.gauges = append(p.gauges, gaugeReg{series: p.newSeries(name), fn: fn})
}

// RegisterCounter adds a named cumulative counter source; the plane
// records the per-interval delta at each sample (node -1). The first
// delta is measured from Attach, or from registration on a plane that
// is already attached.
func (p *Plane) RegisterCounter(name string, fn CounterFunc) {
	p.counters = append(p.counters, p.newCounter(p.newSeries(name), fn))
}

// newCounter pairs a counter source with its series, taking the
// baseline now when the plane is attached (Attach takes it otherwise).
func (p *Plane) newCounter(s *Series, fn CounterFunc) counterReg {
	c := counterReg{series: s, fn: fn}
	if p.eng != nil {
		c.last = fn()
	}
	return c
}

func (p *Plane) newAuxSeries(name string) *Series {
	s := &Series{Name: name, pts: make([]Point, 0, p.maxPts)}
	p.auxSeries = append(p.auxSeries, s)
	return s
}

// RegisterAuxGauge adds a gauge to the auxiliary stream: sampled on the
// same passes as canonical series but kept out of Series, WriteJSONL
// and WriteCSV — export it via AuxSeries/WriteAuxJSONL. Use it for
// diagnostics that depend on the engine (window counters exist only on
// the sharded core) and therefore must not perturb the byte-compared
// canonical stream.
func (p *Plane) RegisterAuxGauge(name string, fn GaugeFunc) {
	p.auxGauges = append(p.auxGauges, gaugeReg{series: p.newAuxSeries(name), fn: fn})
}

// RegisterAuxCounter adds a cumulative counter source to the auxiliary
// stream; per-interval deltas, node -1, same exclusion rules as
// RegisterAuxGauge.
func (p *Plane) RegisterAuxCounter(name string, fn CounterFunc) {
	p.auxCounters = append(p.auxCounters, p.newCounter(p.newAuxSeries(name), fn))
}

// Attach binds the plane to an engine and initializes counter baselines
// so the first sample reports only post-Attach activity; counters
// registered later take their baseline at registration. It does not
// schedule a sampler event: call Poke to arm it (this keeps an attached
// but idle plane from pinning the event queue open).
func (p *Plane) Attach(eng Engine) {
	p.eng = eng
	for i := range p.counters {
		p.counters[i].last = p.counters[i].fn()
	}
	for i := range p.auxCounters {
		p.auxCounters[i].last = p.auxCounters[i].fn()
	}
}

// Stop permanently silences the plane: pending and future sampler
// events become no-ops and Poke stops re-arming. Recorded points are
// kept and stay exportable.
func (p *Plane) Stop() { p.stopped = true }

// Poke arms the sampler if it is attached and dormant. Drivers call it
// whenever new work enters the simulation; the sampler re-disarms
// itself when it finds the event queue otherwise empty, so a draining
// Run() terminates instead of ticking forever.
func (p *Plane) Poke() {
	if p.eng == nil || p.armed || p.stopped {
		return
	}
	p.armed = true
	now := p.eng.Now()
	// Align samples to interval boundaries so the sample times are a
	// function of the interval alone, not of when work arrived.
	next := now - now%sim.Time(p.interval) + sim.Time(p.interval)
	p.eng.AtCall(next, p)
}

// Call fires one sampling pass. Plane is its own sim.Caller so the
// periodic reschedule allocates nothing.
func (p *Plane) Call(now sim.Time) {
	if p.stopped {
		p.armed = false
		return
	}
	p.sampleAt(now)
	// Dormancy: if the sampler's own event was the last one, rearming
	// would keep the queue non-empty forever and Run() would never
	// drain. Go dormant instead; Poke re-arms on new work.
	if p.eng.Pending() == 0 {
		p.armed = false
		return
	}
	p.eng.AfterCall(p.interval, p)
}

// SampleNow takes one sampling pass at the engine's current time,
// outside the periodic schedule (benchmarks and smoke tests).
func (p *Plane) SampleNow() {
	if p.eng != nil {
		p.sampleAt(p.eng.Now())
	}
}

func (p *Plane) sampleAt(now sim.Time) {
	p.samples++
	t := now.Seconds()
	for i := range p.gauges {
		g := &p.gauges[i]
		p.sink.s, p.sink.t = g.series, t
		g.fn(&p.sink)
	}
	for i := range p.counters {
		c := &p.counters[i]
		cur := c.fn()
		c.series.record(Point{T: t, Node: -1, V: float64(cur - c.last)})
		c.last = cur
	}
	for i := range p.auxGauges {
		g := &p.auxGauges[i]
		p.sink.s, p.sink.t = g.series, t
		g.fn(&p.sink)
	}
	for i := range p.auxCounters {
		c := &p.auxCounters[i]
		cur := c.fn()
		c.series.record(Point{T: t, Node: -1, V: float64(cur - c.last)})
		c.last = cur
	}
}

// Samples returns the number of sampling passes taken.
func (p *Plane) Samples() int { return p.samples }

// Len returns the total number of retained points across all series.
func (p *Plane) Len() int {
	n := 0
	for _, s := range p.series {
		n += s.Len()
	}
	return n
}

// Series returns the plane's series in registration order.
func (p *Plane) Series() []*Series { return p.series }

// SeriesByName returns the named series, or nil.
func (p *Plane) SeriesByName(name string) *Series {
	for _, s := range p.series {
		if s.Name == name {
			return s
		}
	}
	return nil
}

// AuxSeries returns the auxiliary series in registration order. They
// never appear in Series or the canonical exports.
func (p *Plane) AuxSeries() []*Series { return p.auxSeries }

// AuxSeriesByName returns the named auxiliary series, or nil.
func (p *Plane) AuxSeriesByName(name string) *Series {
	for _, s := range p.auxSeries {
		if s.Name == name {
			return s
		}
	}
	return nil
}

// exportPoint is the JSONL line schema.
type exportPoint struct {
	Run    string  `json:"run,omitempty"`
	Series string  `json:"series"`
	T      float64 `json:"t"`
	Node   int64   `json:"node"`
	V      float64 `json:"v"`
}

// WriteJSONL exports every series (registration order, chronological
// points) as one JSON object per line. A non-empty run label is stamped
// on every line so collected multi-run streams stay attributable.
func (p *Plane) WriteJSONL(w io.Writer, run string) error {
	return writeSeriesJSONL(w, run, p.series)
}

// WriteAuxJSONL exports the auxiliary series in the same line schema as
// WriteJSONL, to a separate stream — auxiliary values depend on
// execution knobs, so they must never interleave into the canonical
// byte-compared export.
func (p *Plane) WriteAuxJSONL(w io.Writer, run string) error {
	return writeSeriesJSONL(w, run, p.auxSeries)
}

func writeSeriesJSONL(w io.Writer, run string, series []*Series) error {
	enc := json.NewEncoder(w)
	for _, s := range series {
		name := s.Name
		if err := s.each(func(pt Point) error {
			return enc.Encode(exportPoint{Run: run, Series: name, T: pt.T, Node: pt.Node, V: pt.V})
		}); err != nil {
			return err
		}
	}
	return nil
}

// WriteCSV exports every series as CSV with a header row.
func (p *Plane) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"series", "t", "node", "v"}); err != nil {
		return err
	}
	for _, s := range p.series {
		name := s.Name
		if err := s.each(func(pt Point) error {
			return cw.Write([]string{
				name,
				strconv.FormatFloat(pt.T, 'f', 3, 64),
				strconv.FormatInt(pt.Node, 10),
				strconv.FormatFloat(pt.V, 'g', -1, 64),
			})
		}); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
