package netsim

import (
	"hetgrid/internal/can"
	"hetgrid/internal/sim"
)

// ShardedNet is the transport of a sharded simulation: one Net facet
// per shard, each bound to that shard's engine, sharing one latency.
// During parallel windows a facet's counters, per-node map, envelope
// pool and reply machinery are touched only by its own shard's worker;
// cross-shard sends travel through the ShardedEngine's mailboxes with
// exactly one latency of lookahead. Merged totals are sums taken in
// shard order, so every report is deterministic and — since integer
// sums are order-independent — equal to what a single Net carrying the
// same traffic would have counted.
type ShardedNet struct {
	se      *sim.ShardedEngine
	latency sim.Duration
	shardOf func(can.NodeID) int
	facets  []*Net
}

// NewSharded creates a facet transport over the sharded engine. The
// latency must equal the engine's lookahead — it is what makes the
// conservative windows sound.
func NewSharded(se *sim.ShardedEngine, latency sim.Duration) *ShardedNet {
	if latency != se.Lookahead() {
		panic("netsim: sharded transport latency must equal the engine lookahead")
	}
	sn := &ShardedNet{se: se, latency: latency, facets: make([]*Net, se.Shards())}
	for i := range sn.facets {
		f := New(se.Shard(i), latency)
		f.parent, f.shard = sn, i
		sn.facets[i] = f
	}
	return sn
}

// SetShardOf installs the node→shard map. It must be set before any
// traffic flows and must be stable for a node's lifetime (assigned at
// join, never migrated), and safe for concurrent reads during parallel
// windows — i.e. backed by state mutated only in control phases.
func (sn *ShardedNet) SetShardOf(f func(can.NodeID) int) { sn.shardOf = f }

// Facet returns shard i's transport facet; protocol hosts on shard i
// send through it.
func (sn *ShardedNet) Facet(i int) *Net { return sn.facets[i] }

// Shards returns the facet count S.
func (sn *ShardedNet) Shards() int { return len(sn.facets) }

// Latency returns the one-way delivery latency.
func (sn *ShardedNet) Latency() sim.Duration { return sn.latency }

// SetDeliverable installs one liveness check on every facet. The check
// runs on the destination shard's worker (envelope path) or the control
// plane (closure path), so it must only read state that parallel-phase
// code never writes.
func (sn *ShardedNet) SetDeliverable(f func(dst can.NodeID) bool) {
	for _, fc := range sn.facets {
		fc.SetDeliverable(f)
	}
}

// SetLinkFault installs one link-level fault oracle on every facet,
// with the same delivery-time drop semantics as Net.SetLinkFault. The
// oracle runs on whichever goroutine delivers (a shard worker for
// envelopes, the control plane for closures), so it must only read
// state that parallel-phase code never writes — partition schedules
// mutated in control phases qualify.
func (sn *ShardedNet) SetLinkFault(f func(src, dst can.NodeID) bool) {
	for _, fc := range sn.facets {
		fc.SetLinkFault(f)
	}
}

// LinkDrops reports messages lost to link faults, summed across facets.
func (sn *ShardedNet) LinkDrops() int64 {
	var n int64
	for _, f := range sn.facets {
		n += f.linkDrops
	}
	return n
}

// Total returns cumulative counters summed across facets.
func (sn *ShardedNet) Total() Counters { return sn.sum((*Net).Total) }

// Window returns the measurement-window counters summed across facets.
func (sn *ShardedNet) Window() Counters { return sn.sum((*Net).Window) }

// KindTotal returns one kind's cumulative counters across facets.
func (sn *ShardedNet) KindTotal(k Kind) Counters {
	return sn.sum(func(f *Net) Counters { return f.kindTotal[k] })
}

// KindWindow returns one kind's window counters across facets.
func (sn *ShardedNet) KindWindow(k Kind) Counters {
	return sn.sum(func(f *Net) Counters { return f.kindWindow[k] })
}

// ResetWindow zeroes every facet's measurement window. Control-phase
// (or quiesced-engine) use only.
func (sn *ShardedNet) ResetWindow() {
	for _, f := range sn.facets {
		f.ResetWindow()
	}
}

// Node returns one node's cumulative counters summed across facets
// (sends count on the facet whose host sent; receives on the facet that
// delivered — the sum is the node's true traffic).
func (sn *ShardedNet) Node(id can.NodeID) Counters {
	return sn.sum(func(f *Net) Counters { return f.Node(id) })
}

// sum adds one read of every facet in shard order.
func (sn *ShardedNet) sum(read func(*Net) Counters) Counters {
	var c Counters
	for _, f := range sn.facets {
		c.add(read(f))
	}
	return c
}
