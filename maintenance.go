package hetgrid

import (
	"fmt"

	"hetgrid/internal/proto"
	"hetgrid/internal/sim"
)

// HeartbeatScheme selects the CAN maintenance protocol (Section IV).
type HeartbeatScheme string

// The three heartbeat schemes of the paper.
const (
	// HeartbeatVanilla sends full neighbor tables to every neighbor:
	// most resilient, O(d²) volume per node.
	HeartbeatVanilla HeartbeatScheme = "vanilla"
	// HeartbeatCompact sends full tables only to the predetermined
	// take-over node: O(d) volume, least resilient under churn.
	HeartbeatCompact HeartbeatScheme = "compact"
	// HeartbeatAdaptive is compact plus on-demand full updates when a
	// node detects a broken link: near-vanilla resilience at
	// near-compact cost.
	HeartbeatAdaptive HeartbeatScheme = "adaptive"
)

func (s HeartbeatScheme) internal() (proto.Scheme, error) {
	if s == "" {
		s = HeartbeatVanilla
	}
	scheme, err := proto.ParseScheme(string(s))
	if err != nil {
		return 0, fmt.Errorf("hetgrid: %w", err)
	}
	return scheme, nil
}

// MaintenanceOptions configures a maintenance simulation.
type MaintenanceOptions struct {
	// Dims is the CAN dimensionality (the paper evaluates 5, 8, 11,
	// 14). Default 11.
	Dims int
	// Scheme picks the heartbeat protocol. Default vanilla.
	Scheme HeartbeatScheme
	// HeartbeatSeconds is the heartbeat period. Default 60.
	HeartbeatSeconds float64
	// MaxPerFace bounds the actively tracked neighbors per zone face
	// (see DESIGN.md); 0 uses the default (2). Negative values disable
	// the bound entirely (full adjacency tracking — expensive in high
	// dimensions).
	MaxPerFace int
	// Seed drives all randomness. Default 1.
	Seed int64
}

// Maintenance simulates the overlay-upkeep plane: churn, heartbeats,
// take-overs, broken links and message costs.
type Maintenance struct {
	sim    *proto.Sim
	driver *proto.ChurnDriver
	churn  proto.ChurnConfig
}

// NewMaintenance creates a maintenance simulation with n initial nodes
// joining sequentially. meanEventGapSeconds sets the churn intensity
// after the initial joins (0 disables churn); gaps shorter than the
// heartbeat period are the paper's high-churn regime.
func NewMaintenance(opts MaintenanceOptions, n int, meanEventGapSeconds float64) (*Maintenance, error) {
	scheme, err := opts.Scheme.internal()
	if err != nil {
		return nil, err
	}
	if opts.Dims == 0 {
		opts.Dims = 11
	}
	if opts.Dims < 2 {
		return nil, fmt.Errorf("hetgrid: dims %d too small", opts.Dims)
	}
	if opts.HeartbeatSeconds == 0 {
		opts.HeartbeatSeconds = 60
	}
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	cfg := proto.DefaultConfig(scheme)
	cfg.HeartbeatPeriod = sim.FromSeconds(opts.HeartbeatSeconds)
	if opts.MaxPerFace > 0 {
		cfg.MaxPerFace = opts.MaxPerFace
	} else if opts.MaxPerFace < 0 {
		cfg.MaxPerFace = 0
	}
	cfg.Seed = opts.Seed
	s := proto.NewSim(opts.Dims, cfg)
	cc := proto.DefaultChurnConfig(n, sim.FromSeconds(meanEventGapSeconds))
	cc.Seed = opts.Seed
	d := proto.NewChurnDriver(s, cc)
	d.Start()
	return &Maintenance{sim: s, driver: d, churn: cc}, nil
}

// RunForSeconds advances the simulation.
func (m *Maintenance) RunForSeconds(seconds float64) {
	m.sim.Eng.RunUntil(m.sim.Eng.Now().Add(sim.FromSeconds(seconds)))
}

// StopChurn halts further join/leave events; protocol activity
// continues.
func (m *Maintenance) StopChurn() { m.driver.Stop() }

// NowSeconds returns the current virtual time in seconds.
func (m *Maintenance) NowSeconds() float64 { return m.sim.Eng.Now().Seconds() }

// AliveNodes returns the current population.
func (m *Maintenance) AliveNodes() int { return m.sim.AliveHosts() }

// BrokenLinks returns the current number of ground-truth adjacencies
// missing from node views (the paper's Figure 7 metric) and the number
// present but stale.
func (m *Maintenance) BrokenLinks() (missing, stale int) { return m.sim.BrokenLinks() }

// Traffic summarizes cumulative protocol traffic.
type Traffic struct {
	Messages int64
	Bytes    int64
}

// TotalTraffic returns cumulative message counts and volume.
func (m *Maintenance) TotalTraffic() Traffic {
	t := m.sim.Net.Total()
	return Traffic{Messages: t.MsgsSent, Bytes: t.BytesSent}
}

// ResetTrafficWindow starts a fresh measurement window.
func (m *Maintenance) ResetTrafficWindow() { m.sim.Net.ResetWindow() }

// WindowTraffic returns traffic since the last ResetTrafficWindow.
func (m *Maintenance) WindowTraffic() Traffic {
	t := m.sim.Net.Window()
	return Traffic{Messages: t.MsgsSent, Bytes: t.BytesSent}
}

// Churn reports the number of joins, graceful leaves and silent
// failures injected so far.
func (m *Maintenance) Churn() (joins, leaves, fails int) {
	return m.driver.Joins, m.driver.Leaves, m.driver.Fails
}
