package proto

import (
	"runtime"

	"hetgrid/internal/can"
	"hetgrid/internal/geom"
	"hetgrid/internal/netsim"
	"hetgrid/internal/resource"
	"hetgrid/internal/rng"
	"hetgrid/internal/sim"
)

// ShardedSim runs the maintenance protocol over a sharded engine: the
// CAN keyspace is partitioned into S contiguous slices along dimension
// 0, each owning a per-shard Sim (hosts, message pools, transport facet
// and event queue), executed in parallel under conservative time
// windows bounded by the netsim latency.
//
// The shard count S is a model parameter like the seed: it fixes which
// shard every node lands on and therefore the run's exact event
// interleavings. The worker count W is an execution parameter only —
// reports are byte-identical for every W (see sim.ShardedEngine).
//
// What runs where:
//
//   - Steady-state heartbeat traffic (ticks, full/compact/request/
//     announce deliveries) is shard-local or neighbor-local and runs in
//     parallel windows. CAN neighbors are geometrically adjacent, so
//     with contiguous shard slices the cross-shard fraction is the
//     boundary surface, not the volume.
//   - Churn (join/leave/fail), takeover continuations and oracle sweeps
//     run on the control plane with all shards quiesced: they mutate
//     the shared overlay and hosts across shards.
//
// The protocol requires HeartbeatPeriod > Latency (also what the
// heartbeat double-buffer requires): it keeps every in-flight alias of
// sender-owned buffers at least one full window away from its rebuild.
type ShardedSim struct {
	SE  *sim.ShardedEngine
	Net *netsim.ShardedNet
	Ov  *can.Overlay
	Cfg Config

	shards []*Sim
	hosts  *hostTable // shared by every shard; written on the control plane only
	// nodeShard is indexed by node ID like the host table: assigned at
	// join, retained past departure (messages to a departed node still
	// route to its old shard and are dropped there).
	nodeShard []int32
}

// NewShardedSim creates an S-shard protocol simulation of a
// d-dimensional CAN. workers ≤ 0 uses GOMAXPROCS (results do not depend
// on it).
func NewShardedSim(shards, workers, dims int, cfg Config) *ShardedSim {
	if cfg.HeartbeatPeriod <= cfg.Latency {
		panic("proto: sharded simulation requires HeartbeatPeriod > Latency")
	}
	se := sim.NewSharded(shards, cfg.Latency)
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	se.SetWorkers(workers)
	snet := netsim.NewSharded(se, cfg.Latency)
	ss := &ShardedSim{
		SE:     se,
		Net:    snet,
		Ov:     can.NewOverlay(dims),
		Cfg:    cfg,
		shards: make([]*Sim, shards),
		hosts:  &hostTable{},
	}
	// One phase stream shared by every shard, with the serial Sim's
	// split label. It is drawn from only inside completeJoin — a
	// control-plane procedure, so draws happen in join order, which is
	// fixed by config and seed alone. That makes every host's heartbeat
	// phase independent of S (and of W): a node gets the same phase it
	// would get in any other shard partition of the same run.
	phase := rng.NewSplit(cfg.Seed, "proto.phase")
	for i := range ss.shards {
		ss.shards[i] = &Sim{
			Eng:    se.Shard(i),
			Net:    snet.Facet(i),
			Ov:     ss.Ov,
			Cfg:    cfg,
			hosts:  ss.hosts,
			phase:  phase,
			parent: ss,
			shard:  i,
		}
	}
	snet.SetShardOf(ss.shardID)
	snet.SetDeliverable(func(dst can.NodeID) bool {
		h := ss.hosts.get(dst)
		return h != nil && h.alive
	})
	return ss
}

// Shards returns the shard count S.
func (ss *ShardedSim) Shards() int { return len(ss.shards) }

// Shard returns shard i's Sim (tests and telemetry).
func (ss *ShardedSim) Shard(i int) *Sim { return ss.shards[i] }

// Close stops the engine's worker goroutines.
func (ss *ShardedSim) Close() { ss.SE.Close() }

// shardOfPoint maps an overlay point to its shard: S contiguous slices
// of dimension 0. The assignment is made once at join and never
// migrates, so it is a pure function of the join coordinate.
func (ss *ShardedSim) shardOfPoint(p geom.Point) int {
	sh := int(p[0] * float64(len(ss.shards)))
	if sh < 0 {
		sh = 0
	}
	if sh >= len(ss.shards) {
		sh = len(ss.shards) - 1
	}
	return sh
}

// shardID returns the shard owning node id (0 for ids never admitted —
// the facet's liveness check then drops the message, mirroring the
// serial unknown-destination path).
func (ss *ShardedSim) shardID(id can.NodeID) int {
	if id < 0 || id >= can.NodeID(len(ss.nodeShard)) {
		return 0
	}
	return int(ss.nodeShard[id])
}

// simOf returns the Sim owning id's shard.
func (ss *ShardedSim) simOf(id can.NodeID) *Sim {
	return ss.shards[ss.shardID(id)]
}

// Host returns the protocol host for a live node, or nil.
func (ss *ShardedSim) Host(id can.NodeID) *Host { return ss.hosts.get(id) }

// Overlay returns the shared ground-truth overlay (scenario engines and
// telemetry hang capability lookups off it).
func (ss *ShardedSim) Overlay() *can.Overlay { return ss.Ov }

// AliveHosts returns the number of live protocol hosts across shards.
func (ss *ShardedSim) AliveHosts() int {
	n := 0
	for _, s := range ss.shards {
		n += s.live
	}
	return n
}

// CheckMembership verifies that the shared host table and the overlay
// agree: the same IDs, every host alive and owned by the shard
// nodeShard names. Tests and scenario assertions call it.
func (ss *ShardedSim) CheckMembership() error {
	return ss.hosts.check(ss.Ov, ss.simOf, ss.AliveHosts())
}

// MeanViewSize reports the mean believed-neighbor count across all live
// hosts: the same computation over the shared host table as
// Sim.MeanViewSize. Control-plane (or quiesced-engine) use only.
func (ss *ShardedSim) MeanViewSize() float64 { return ss.hosts.meanView() }

// Join admits a capability-less node at point p (control plane).
func (ss *ShardedSim) Join(p geom.Point) (*can.Node, error) {
	return ss.JoinNode(p, nil)
}

// JoinNode admits a node at point p: the overlay splits, the node is
// assigned its shard (before any message routes by it), and the owning
// shard's Sim runs the protocol side of the admission. Control-plane
// only.
func (ss *ShardedSim) JoinNode(p geom.Point, caps *resource.NodeCaps) (*can.Node, error) {
	owner := ss.Ov.Owner(p)
	node, err := ss.Ov.Join(p, caps)
	if err != nil {
		return nil, err
	}
	sh := ss.shardOfPoint(p)
	for can.NodeID(len(ss.nodeShard)) <= node.ID {
		ss.nodeShard = append(ss.nodeShard, 0)
	}
	ss.nodeShard[node.ID] = int32(sh)
	return ss.shards[sh].completeJoin(node, owner), nil
}

// LeaveVoluntary removes a node gracefully (control plane).
func (ss *ShardedSim) LeaveVoluntary(id can.NodeID) error {
	return ss.simOf(id).LeaveVoluntary(id)
}

// Fail removes a node silently (control plane); the takeover
// continuation is scheduled on the control plane too.
func (ss *ShardedSim) Fail(id can.NodeID) error {
	return ss.simOf(id).Fail(id)
}

// BrokenLinks runs the Figure 7 oracle sweep, shards in parallel: after
// a serial cache-warm pass every input (overlay views, host views, the
// shard map) is read-only, each worker sweeps only nodes of shards it
// owns, and the partial sums merge in shard order — so the count equals
// the serial sweep's exactly. Control-plane (or quiesced-engine) use
// only.
func (ss *ShardedSim) BrokenLinks() (missing, stale int) {
	nodes := ss.Ov.Nodes()
	ss.Ov.WarmViews()
	perFace := ss.Cfg.MaxPerFace
	type part struct{ missing, stale int }
	parts := make([]part, len(ss.shards))
	ss.SE.ParallelShards(func(sh int) {
		var miss, st int
		for _, n := range nodes {
			if ss.shardID(n.ID) != sh {
				continue
			}
			h := ss.hosts.get(n.ID)
			nbrs := ss.Ov.BoundedNeighborIDs(n.ID, perFace)
			if h == nil {
				miss += len(nbrs)
				continue
			}
			for _, nbID := range nbrs {
				nb := ss.Ov.Node(nbID)
				z, ok := h.view.zoneOf(nbID)
				switch {
				case !ok:
					miss++
				case !z.Equal(nb.Zone):
					st++
				}
			}
		}
		parts[sh] = part{miss, st}
	})
	for _, p := range parts {
		missing += p.missing
		stale += p.stale
	}
	return missing, stale
}

// ctl implements the churn-driver hook: churn belongs on the control
// plane.
func (ss *ShardedSim) ctl() *sim.Engine { return ss.SE.Global() }

// dims implements the churn-driver hook.
func (ss *ShardedSim) dims() int { return ss.Ov.Dims() }

// Run drains every event queue.
func (ss *ShardedSim) Run() { ss.SE.Run() }

// RunUntil fires events with time ≤ deadline and aligns all clocks to
// it.
func (ss *ShardedSim) RunUntil(deadline sim.Time) { ss.SE.RunUntil(deadline) }
