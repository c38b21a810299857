package proto

import (
	"hetgrid/internal/can"
	"hetgrid/internal/geom"
	"hetgrid/internal/resource"
	"hetgrid/internal/rng"
	"hetgrid/internal/sim"
)

// ChurnConfig drives the membership scenario of Section V-B: n nodes
// join sequentially, then join and leave events occur with equal
// probability so the population hovers around n. The gap between events
// relative to the heartbeat period selects the regime: gaps longer than
// a period mean no simultaneous events (no lasting broken links); gaps
// shorter than a period are the high-churn regime of Figure 7.
type ChurnConfig struct {
	InitialNodes int
	// JoinGap spaces the initial sequential joins.
	JoinGap sim.Duration
	// MeanEventGap is the mean of the exponential gap between churn
	// events after the initial stage. Zero disables churn.
	MeanEventGap sim.Duration
	// MinEventGap floors the gap between events. The paper's
	// no-simultaneous-events regime needs gaps longer than the full
	// repair transient (heartbeat timeout plus announcement
	// propagation), not merely a long mean: an exponential gap puts
	// substantial mass near zero.
	MinEventGap sim.Duration
	// FailFraction is the fraction of departures that are silent
	// failures rather than graceful leaves.
	FailFraction float64
	// MinNodes guards the population floor: below it every event is a
	// join.
	MinNodes int
	Seed     int64
}

// DefaultChurnConfig returns a scenario with n initial nodes and the
// given mean event gap.
func DefaultChurnConfig(n int, gap sim.Duration) ChurnConfig {
	return ChurnConfig{
		InitialNodes: n,
		JoinGap:      500 * sim.Millisecond,
		MeanEventGap: gap,
		FailFraction: 0.5,
		MinNodes:     8,
		Seed:         1,
	}
}

// ChurnSim is the surface the churn driver needs from a protocol
// simulation: membership operations, the ground-truth overlay — whose
// ID-sorted Nodes() snapshot is the one live-membership list, indexed
// by victim draws — plus two hooks: ctl() for the engine churn belongs
// on (the serial engine or the sharded control plane) and dims() for
// drawing join points. Both *Sim and *ShardedSim implement it; external
// drivers (scenario engines) program against it so one driver covers
// every engine.
type ChurnSim interface {
	JoinNode(p geom.Point, caps *resource.NodeCaps) (*can.Node, error)
	LeaveVoluntary(id can.NodeID) error
	Fail(id can.NodeID) error
	Overlay() *can.Overlay
	AliveHosts() int
	dims() int
	ctl() *sim.Engine
}

// ChurnDriver injects joins, voluntary leaves and failures into a
// protocol simulation.
type ChurnDriver struct {
	s       ChurnSim
	cfg     ChurnConfig
	points  *rng.Stream
	events  *rng.Stream
	stopped bool

	// ChurnStart is the time the initial joins complete and random
	// churn begins.
	ChurnStart sim.Time
	Joins      int
	Leaves     int
	Fails      int

	// OnJoin, when non-nil, is called after each successful join with
	// the admitted host's id. Incremental consumers (aggregation tables,
	// candidate indexes) hang their membership tracking here instead of
	// polling the population.
	OnJoin func(id can.NodeID)
	// OnLeave, when non-nil, is called after each successful departure
	// with the departed host's id; failed reports a silent failure (the
	// repair transient runs) rather than a graceful leave.
	OnLeave func(id can.NodeID, failed bool)
	// JoinPoint, when non-nil, supplies the overlay point and node
	// capabilities for each join instead of the driver's own point
	// stream — scenario engines use it to couple churn-admitted nodes
	// to a heterogeneous fleet. When nil the driver draws uniform
	// points and joins capability-less hosts, exactly as before.
	JoinPoint func() (geom.Point, *resource.NodeCaps)
}

// NewChurnDriver prepares a driver over any protocol simulation; Start
// schedules its events. On a *ShardedSim churn runs on the control
// plane, so the event sequence for a given (cfg, S) is one
// deterministic stream regardless of worker count.
func NewChurnDriver(s ChurnSim, cfg ChurnConfig) *ChurnDriver {
	return &ChurnDriver{
		s:      s,
		cfg:    cfg,
		points: rng.NewSplit(cfg.Seed, "churn.points"),
		events: rng.NewSplit(cfg.Seed, "churn.events"),
	}
}

// Start schedules the initial sequential joins and, if MeanEventGap is
// positive, the subsequent churn process. Scheduling is relative to the
// engine's current time, so a driver can be started mid-scenario (at
// time zero this is identical to the original absolute schedule).
func (d *ChurnDriver) Start() {
	eng := d.s.ctl()
	base := eng.Now()
	for i := 0; i < d.cfg.InitialNodes; i++ {
		at := base + sim.Time(int64(i)*int64(d.cfg.JoinGap))
		eng.At(at, func(sim.Time) { d.join() })
	}
	d.ChurnStart = base + sim.Time(int64(d.cfg.InitialNodes)*int64(d.cfg.JoinGap))
	if d.cfg.MeanEventGap > 0 {
		eng.At(d.ChurnStart, d.churnEvent)
	}
}

// Stop halts further churn events (already scheduled protocol activity
// continues).
func (d *ChurnDriver) Stop() { d.stopped = true }

func (d *ChurnDriver) randomPoint() geom.Point {
	p := make(geom.Point, d.s.dims())
	for i := range p {
		p[i] = d.points.Float64() * 0.999999
	}
	return p
}

func (d *ChurnDriver) join() {
	for try := 0; try < 4; try++ {
		var (
			p    geom.Point
			caps *resource.NodeCaps
		)
		if d.JoinPoint != nil {
			p, caps = d.JoinPoint()
		} else {
			p = d.randomPoint()
		}
		if n, err := d.s.JoinNode(p, caps); err == nil {
			d.Joins++
			if d.OnJoin != nil {
				d.OnJoin(n.ID)
			}
			return
		}
	}
}

func (d *ChurnDriver) depart() {
	nodes := d.s.Overlay().Nodes()
	if len(nodes) == 0 {
		return
	}
	id := nodes[d.events.Intn(len(nodes))].ID
	if d.events.Bool(d.cfg.FailFraction) {
		if d.s.Fail(id) == nil {
			d.Fails++
			if d.OnLeave != nil {
				d.OnLeave(id, true)
			}
		}
	} else {
		if d.s.LeaveVoluntary(id) == nil {
			d.Leaves++
			if d.OnLeave != nil {
				d.OnLeave(id, false)
			}
		}
	}
}

func (d *ChurnDriver) churnEvent(sim.Time) {
	if d.stopped {
		return
	}
	if d.s.AliveHosts() <= d.cfg.MinNodes || d.events.Bool(0.5) {
		d.join()
	} else {
		d.depart()
	}
	gap := sim.FromSeconds(d.events.Exp(d.cfg.MeanEventGap.Seconds()))
	if gap < d.cfg.MinEventGap {
		gap = d.cfg.MinEventGap
	}
	if gap < sim.Millisecond {
		gap = sim.Millisecond
	}
	d.s.ctl().After(gap, d.churnEvent)
}

// SamplePoint is one broken-link measurement.
type SamplePoint struct {
	At      sim.Time
	Missing int
	Stale   int
	Nodes   int
}

// linkOracle is the surface SampleBrokenLinks needs; both *Sim and
// *ShardedSim provide it. The sweep reads every host's view, so under a
// sharded simulation it runs on the control plane (shards quiesced).
type linkOracle interface {
	BrokenLinks() (missing, stale int)
	AliveHosts() int
	ctl() *sim.Engine
}

// SampleBrokenLinks installs a periodic oracle measurement from start
// until the engine stops, appending to the returned slice.
func SampleBrokenLinks(s linkOracle, start sim.Time, every sim.Duration, out *[]SamplePoint) {
	eng := s.ctl()
	var tick func(now sim.Time)
	tick = func(now sim.Time) {
		missing, stale := s.BrokenLinks()
		*out = append(*out, SamplePoint{At: now, Missing: missing, Stale: stale, Nodes: s.AliveHosts()})
		eng.After(every, tick)
	}
	eng.At(start, tick)
}
