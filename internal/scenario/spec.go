package scenario

// The declarative schema: a scenario file defines the grid and fleet, a
// workload, a timeline of injected faults and load events, and the
// end-state assertions the run must satisfy. Load parses and validates
// a file without running anything, so `hetgridsim validate` can check a
// corpus cheaply.

import (
	"fmt"
	"os"
	"sort"
	"strconv"
	"time"

	"hetgrid/internal/proto"
	"hetgrid/internal/sched"
	"hetgrid/internal/sim"
	"hetgrid/internal/workload"
)

// Spec is a fully decoded scenario.
type Spec struct {
	Name        string
	Seed        int64
	Duration    sim.Duration // run horizon (virtual time)
	Engine      string       // serial (default) | sharded
	Shards      int          // sharded engine: shard count (0 = default 4)
	Workers     int          // sharded engine: worker goroutines (0 = GOMAXPROCS)
	Grid        GridSpec
	Workload    WorkloadSpec
	Events      []Event
	Checkpoints []Checkpoint
	Assert      AssertSpec
}

// Sharded reports whether the spec selects the sharded parallel core.
func (s *Spec) Sharded() bool { return s.Engine == "sharded" }

// maxShards bounds a spec's shard count: the sharded engine's mailbox
// grid grows as S².
const maxShards = 256

// ShardCount resolves the effective shard count S.
func (s *Spec) ShardCount() int {
	if s.Shards > 0 {
		return s.Shards
	}
	return 4
}

// GridSpec describes the fleet and the maintenance protocol.
type GridSpec struct {
	Nodes     int
	Racks     int          // correlated-failure domains, round-robin by join order
	GPUSlots  int          // accelerator slot count of the resource space
	Protocol  string       // vanilla | compact | adaptive
	Heartbeat sim.Duration // protocol heartbeat period
	Scheduler string       // can-het | can-hom | central
	Refresh   sim.Duration // aggregation refresh cadence (default: heartbeat)
}

// WorkloadSpec describes the background job stream started at time 0.
type WorkloadSpec struct {
	Jobs            int
	MeanGap         sim.Duration // Poisson arrival mean
	GPUFraction     float64
	ConstraintRatio float64
	MinRun, MaxRun  sim.Duration // uniform nominal-runtime range
}

// Event is one timed scenario event. Kind selects which of the
// remaining fields are meaningful.
type Event struct {
	At   sim.Duration
	Kind string // fail_nodes | fail_rack | partition | heal | burst | join_wave | churn

	Count        int          // fail_nodes victims, burst jobs, join_wave nodes
	Rack         int          // fail_rack, partition{rack}
	Fraction     float64      // partition{fraction}
	Gap          sim.Duration // join_wave spacing, churn mean event gap
	FailFraction float64      // churn: silent-failure share of departures
	Until        sim.Duration // churn: stop time (0 = run to horizon)
}

// Checkpoint is an `at:`-timed mid-run assertion over one sampled
// telemetry series: the world forces a sampling pass at the instant and
// bounds the observed value. Gauge series (proto.*) check the sampled
// instantaneous value; counter series (jobs.*, net.*) check the
// cumulative total since the scenario started, so the check never
// depends on the sampling interval. A checkpoint firing at the same
// instant as an event evaluates after it — it observes the event's
// consequences.
type Checkpoint struct {
	At       sim.Duration
	Series   string
	Min, Max float64
	HasMin   bool
	HasMax   bool
}

// Bound is a numeric assertion over one report metric.
type Bound struct {
	Metric   string
	Min, Max float64
	HasMin   bool
	HasMax   bool
}

// AssertSpec is the end-state contract checked after the horizon.
type AssertSpec struct {
	JobsAccounted   bool // submitted == finished + queued + running (conservation)
	AllJobsFinished bool // queues and run sets drained
	ZoneCover       bool // overlay invariants + exact zone cover
	NoOrphans       bool // cluster membership == overlay membership
	MaxLost         int  // ceiling on jobs lost to failures (-1 = unchecked)
	MinFinished     int  // floor on finished jobs (0 = unchecked)
	MaxBrokenLinks  int  // ceiling on missing neighbor links at the horizon (-1 = unchecked)
	Bounds          []Bound
}

var eventKinds = map[string]bool{
	"fail_nodes": true, "fail_rack": true, "partition": true,
	"heal": true, "burst": true, "join_wave": true, "churn": true,
}

// LoadFile reads and decodes one scenario file.
func LoadFile(path string) (*Spec, error) {
	src, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	spec, err := Load(string(src))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return spec, nil
}

// Load decodes a scenario document and validates it.
func Load(src string) (*Spec, error) {
	root, err := parseYAML(src)
	if err != nil {
		return nil, err
	}
	d := &decoder{}
	top := d.mapping(root, "scenario")

	spec := &Spec{
		Name:     d.str(top, "name", ""),
		Seed:     d.int64(top, "seed", 1),
		Duration: d.dur(top, "duration", 0),
		Engine:   d.str(top, "engine", "serial"),
		Shards:   d.count(top, "shards", 0),
		Workers:  d.count(top, "workers", 0),
	}

	g := d.mapping(top["grid"], "grid")
	spec.Grid = GridSpec{
		Nodes:     d.count(g, "nodes", 0),
		Racks:     d.count(g, "racks", 1),
		GPUSlots:  d.count(g, "gpu_slots", 0),
		Protocol:  d.str(g, "protocol", "compact"),
		Heartbeat: d.dur(g, "heartbeat", 10*sim.Second),
		Scheduler: d.str(g, "scheduler", "can-het"),
	}
	spec.Grid.Refresh = d.dur(g, "refresh", spec.Grid.Heartbeat)

	w := d.mapping(top["workload"], "workload")
	spec.Workload = WorkloadSpec{
		Jobs:            d.count(w, "jobs", 0),
		MeanGap:         d.dur(w, "mean_gap", 3*sim.Second),
		GPUFraction:     d.float(w, "gpu_fraction", 0.4),
		ConstraintRatio: d.float(w, "constraint_ratio", 0.8),
		MinRun:          d.dur(w, "min_run", 2*sim.Minute),
		MaxRun:          d.dur(w, "max_run", 10*sim.Minute),
	}
	d.rejectUnknown(w, "workload", "jobs", "mean_gap", "gpu_fraction", "constraint_ratio", "min_run", "max_run")

	if evs, ok := top["events"]; ok {
		seq, isSeq := evs.([]any)
		if !isSeq {
			d.fail("events: expected a sequence")
		}
		for i, item := range seq {
			spec.Events = append(spec.Events, d.event(item, i))
		}
	}

	if cv, ok := top["checkpoints"]; ok {
		seq, isSeq := cv.([]any)
		if !isSeq {
			d.fail("checkpoints: expected a sequence")
		}
		for i, item := range seq {
			spec.Checkpoints = append(spec.Checkpoints, d.checkpoint(item, i))
		}
	}

	spec.Assert = AssertSpec{MaxLost: -1, MaxBrokenLinks: -1}
	if av, ok := top["assert"]; ok {
		a := d.mapping(av, "assert")
		spec.Assert.JobsAccounted = d.boolean(a, "jobs_accounted", false)
		spec.Assert.AllJobsFinished = d.boolean(a, "all_jobs_finished", false)
		spec.Assert.ZoneCover = d.boolean(a, "zone_cover", false)
		spec.Assert.NoOrphans = d.boolean(a, "no_orphans", false)
		spec.Assert.MaxLost = d.count(a, "max_lost", -1)
		spec.Assert.MinFinished = d.count(a, "min_finished", 0)
		spec.Assert.MaxBrokenLinks = d.count(a, "max_broken_links", -1)
		if bv, ok := a["bounds"]; ok {
			seq, isSeq := bv.([]any)
			if !isSeq {
				d.fail("assert.bounds: expected a sequence")
			}
			for i, item := range seq {
				spec.Assert.Bounds = append(spec.Assert.Bounds, d.bound(item, i))
			}
		}
		d.rejectUnknown(a, "assert", "jobs_accounted", "all_jobs_finished", "zone_cover",
			"no_orphans", "max_lost", "min_finished", "max_broken_links", "bounds")
	}

	d.rejectUnknown(top, "scenario", "name", "seed", "duration", "engine", "shards", "workers", "grid", "workload", "events", "checkpoints", "assert")
	d.rejectUnknown(g, "grid", "nodes", "racks", "gpu_slots", "protocol", "heartbeat", "scheduler", "refresh")

	if d.err != nil {
		return nil, d.err
	}
	return spec, spec.validate()
}

func (s *Spec) validate() error {
	switch {
	case s.Name == "":
		return fmt.Errorf("scenario: name is required")
	case s.Duration <= 0:
		return fmt.Errorf("scenario %s: duration must be positive", s.Name)
	case s.Grid.Nodes < 1:
		return fmt.Errorf("scenario %s: grid.nodes must be at least 1", s.Name)
	case s.Grid.Racks < 1:
		return fmt.Errorf("scenario %s: grid.racks must be at least 1", s.Name)
	}
	switch s.Engine {
	case "", "serial", "sharded":
	default:
		return fmt.Errorf("scenario %s: unknown engine %q (serial or sharded)", s.Name, s.Engine)
	}
	if s.Shards < 0 {
		return fmt.Errorf("scenario %s: shards must be non-negative", s.Name)
	}
	if s.Shards > maxShards {
		return fmt.Errorf("scenario %s: shards must be at most %d", s.Name, maxShards)
	}
	if s.Workers < 0 {
		return fmt.Errorf("scenario %s: workers must be non-negative", s.Name)
	}
	if (s.Shards > 0 || s.Workers > 0) && !s.Sharded() {
		return fmt.Errorf("scenario %s: shards/workers require `engine: sharded`", s.Name)
	}
	if _, err := proto.ParseScheme(s.Grid.Protocol); err != nil {
		return fmt.Errorf("scenario %s: %w", s.Name, err)
	}
	if err := sched.CheckName(s.Grid.Scheduler); err != nil {
		return fmt.Errorf("scenario %s: %w", s.Name, err)
	}
	if s.Grid.Heartbeat <= 0 {
		return fmt.Errorf("scenario %s: grid.heartbeat must be positive", s.Name)
	}
	wl := s.Workload
	if err := workload.CheckParams(wl.Jobs, s.Grid.GPUSlots, wl.MeanGap, wl.ConstraintRatio, wl.GPUFraction); err != nil {
		return fmt.Errorf("scenario %s: %w", s.Name, err)
	}
	if wl.MinRun < 0 || wl.MaxRun < wl.MinRun {
		return fmt.Errorf("scenario %s: workload needs 0 <= min_run <= max_run", s.Name)
	}
	for i, ev := range s.Events {
		if !eventKinds[ev.Kind] {
			return fmt.Errorf("scenario %s: events[%d]: unknown kind %q", s.Name, i, ev.Kind)
		}
		if ev.At < 0 || ev.At > s.Duration {
			return fmt.Errorf("scenario %s: events[%d] (%s): at %s outside the horizon", s.Name, i, ev.Kind, fmtDur(ev.At))
		}
		switch ev.Kind {
		case "fail_nodes", "burst", "join_wave":
			if ev.Count < 1 {
				return fmt.Errorf("scenario %s: events[%d] (%s): count must be positive", s.Name, i, ev.Kind)
			}
		case "fail_rack":
			if ev.Rack < 0 || ev.Rack >= s.Grid.Racks {
				return fmt.Errorf("scenario %s: events[%d]: rack %d out of range [0,%d)", s.Name, i, ev.Rack, s.Grid.Racks)
			}
		case "partition":
			if ev.Rack < 0 && (ev.Fraction <= 0 || ev.Fraction >= 1) {
				return fmt.Errorf("scenario %s: events[%d]: partition needs rack or fraction in (0,1)", s.Name, i)
			}
		case "churn":
			if ev.Gap <= 0 {
				return fmt.Errorf("scenario %s: events[%d]: churn needs a positive mean_gap", s.Name, i)
			}
		}
	}
	for i, cp := range s.Checkpoints {
		if !validSeries(cp.Series) {
			return fmt.Errorf("scenario %s: checkpoints[%d]: unknown series %q (known: %v)", s.Name, i, cp.Series, telemetrySeries())
		}
		if cp.At <= 0 || cp.At > s.Duration {
			return fmt.Errorf("scenario %s: checkpoints[%d] (%s): at %s outside the horizon", s.Name, i, cp.Series, fmtDur(cp.At))
		}
		if !cp.HasMin && !cp.HasMax {
			return fmt.Errorf("scenario %s: checkpoints[%d]: %s has neither min nor max", s.Name, i, cp.Series)
		}
	}
	for _, b := range s.Assert.Bounds {
		if !validMetric(b.Metric) {
			return fmt.Errorf("scenario %s: assert.bounds: unknown metric %q (known: %v)", s.Name, b.Metric, knownMetrics())
		}
		if !b.HasMin && !b.HasMax {
			return fmt.Errorf("scenario %s: assert.bounds: %s has neither min nor max", s.Name, b.Metric)
		}
	}
	return nil
}

// decoder accumulates the first decode error while letting the happy
// path read fields without per-call error plumbing.
type decoder struct {
	err error
}

func (d *decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("scenario: "+format, args...)
	}
}

func (d *decoder) mapping(v any, what string) map[string]any {
	if v == nil {
		return map[string]any{}
	}
	m, ok := v.(map[string]any)
	if !ok {
		d.fail("%s: expected a mapping", what)
		return map[string]any{}
	}
	return m
}

func (d *decoder) rejectUnknown(m map[string]any, what string, known ...string) {
	allowed := make(map[string]bool, len(known))
	for _, k := range known {
		allowed[k] = true
	}
	var bad []string
	for k := range m {
		if !allowed[k] {
			bad = append(bad, k)
		}
	}
	if len(bad) > 0 {
		sort.Strings(bad)
		d.fail("%s: unknown field %q (known: %v)", what, bad[0], known)
	}
}

func (d *decoder) scalar(m map[string]any, key string) (string, bool) {
	v, ok := m[key]
	if !ok || v == nil {
		return "", false
	}
	s, isStr := v.(string)
	if !isStr {
		d.fail("%s: expected a scalar", key)
		return "", false
	}
	return s, true
}

func (d *decoder) str(m map[string]any, key, def string) string {
	if s, ok := d.scalar(m, key); ok {
		return s
	}
	return def
}

func (d *decoder) int64(m map[string]any, key string, def int64) int64 {
	s, ok := d.scalar(m, key)
	if !ok {
		return def
	}
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		d.fail("%s: %q is not an integer", key, s)
		return def
	}
	return n
}

func (d *decoder) count(m map[string]any, key string, def int) int {
	return int(d.int64(m, key, int64(def)))
}

func (d *decoder) float(m map[string]any, key string, def float64) float64 {
	s, ok := d.scalar(m, key)
	if !ok {
		return def
	}
	f, err := strconv.ParseFloat(s, 64)
	if err != nil {
		d.fail("%s: %q is not a number", key, s)
		return def
	}
	return f
}

func (d *decoder) boolean(m map[string]any, key string, def bool) bool {
	s, ok := d.scalar(m, key)
	if !ok {
		return def
	}
	switch s {
	case "true", "yes", "on":
		return true
	case "false", "no", "off":
		return false
	}
	d.fail("%s: %q is not a boolean", key, s)
	return def
}

// dur parses durations in Go syntax ("10s", "5m", "1h30m", "200ms") at
// the engine's millisecond resolution.
func (d *decoder) dur(m map[string]any, key string, def sim.Duration) sim.Duration {
	s, ok := d.scalar(m, key)
	if !ok {
		return def
	}
	td, err := time.ParseDuration(s)
	if err != nil || td < 0 {
		d.fail("%s: %q is not a duration", key, s)
		return def
	}
	return sim.Duration(td.Milliseconds()) * sim.Millisecond
}

func (d *decoder) event(item any, i int) Event {
	m := d.mapping(item, fmt.Sprintf("events[%d]", i))
	ev := Event{At: d.dur(m, "at", 0), Rack: -1}
	for _, kind := range []string{"fail_nodes", "fail_rack", "partition", "heal", "burst", "join_wave", "churn"} {
		if _, ok := m[kind]; !ok {
			continue
		}
		if ev.Kind != "" {
			d.fail("events[%d]: both %q and %q given", i, ev.Kind, kind)
			continue
		}
		ev.Kind = kind
		switch kind {
		case "fail_nodes":
			ev.Count = d.count(m, kind, 0)
		case "fail_rack":
			ev.Rack = d.count(m, kind, -1)
		case "heal":
			if s, _ := d.scalar(m, kind); s != "all" {
				d.fail("events[%d]: heal must be `heal: all`", i)
			}
		case "partition":
			p := d.mapping(m[kind], "partition")
			ev.Rack = d.count(p, "rack", -1)
			ev.Fraction = d.float(p, "fraction", 0)
			d.rejectUnknown(p, "partition", "rack", "fraction")
		case "burst":
			b := d.mapping(m[kind], "burst")
			ev.Count = d.count(b, "jobs", 0)
			d.rejectUnknown(b, "burst", "jobs")
		case "join_wave":
			w := d.mapping(m[kind], "join_wave")
			ev.Count = d.count(w, "nodes", 0)
			ev.Gap = d.dur(w, "gap", 500*sim.Millisecond)
			d.rejectUnknown(w, "join_wave", "nodes", "gap")
		case "churn":
			c := d.mapping(m[kind], "churn")
			ev.Gap = d.dur(c, "mean_gap", 0)
			ev.FailFraction = d.float(c, "fail_fraction", 0.5)
			ev.Until = d.dur(c, "until", 0)
			d.rejectUnknown(c, "churn", "mean_gap", "fail_fraction", "until")
		}
		delete(m, kind)
	}
	// Unknown-field first: `reboot: 3` should read as an unknown field,
	// not as a missing kind.
	d.rejectUnknown(m, fmt.Sprintf("events[%d]", i), "at")
	if ev.Kind == "" {
		d.fail("events[%d]: no event kind given", i)
	}
	return ev
}

func (d *decoder) checkpoint(item any, i int) Checkpoint {
	m := d.mapping(item, fmt.Sprintf("checkpoints[%d]", i))
	cp := Checkpoint{At: d.dur(m, "at", 0), Series: d.str(m, "series", "")}
	if _, ok := m["min"]; ok {
		cp.Min, cp.HasMin = d.float(m, "min", 0), true
	}
	if _, ok := m["max"]; ok {
		cp.Max, cp.HasMax = d.float(m, "max", 0), true
	}
	d.rejectUnknown(m, fmt.Sprintf("checkpoints[%d]", i), "at", "series", "min", "max")
	return cp
}

func (d *decoder) bound(item any, i int) Bound {
	m := d.mapping(item, fmt.Sprintf("assert.bounds[%d]", i))
	b := Bound{Metric: d.str(m, "metric", "")}
	if _, ok := m["min"]; ok {
		b.Min, b.HasMin = d.float(m, "min", 0), true
	}
	if _, ok := m["max"]; ok {
		b.Max, b.HasMax = d.float(m, "max", 0), true
	}
	d.rejectUnknown(m, fmt.Sprintf("assert.bounds[%d]", i), "metric", "min", "max")
	return b
}

func fmtDur(d sim.Duration) string {
	return (time.Duration(d) * time.Millisecond).String()
}
