// Package metricsreg wires the simulator's subsystems into a metrics
// plane. internal/metrics itself depends only on the event engine;
// this package owns the gauge and counter definitions so that every
// driver (the public Grid API, the experiment runners, the CLIs)
// registers the same series under the same names.
//
// All gauges honor the telemetry-only contract: they read overlay,
// cluster, aggregation and transport state without perturbing results,
// and iterate nodes in the overlay's sorted snapshot order so exports
// are deterministic. The aggregation gauges may fill a lazily
// materialized AggTable row on first read in an epoch; that is pure
// value memoization — the fill computes exactly what any later reader
// would compute — so attaching metrics still cannot change a run's
// outputs (the byte-identity determinism tests cover this).
package metricsreg

import (
	"fmt"

	"hetgrid/internal/can"
	"hetgrid/internal/exec"
	"hetgrid/internal/metrics"
	"hetgrid/internal/netsim"
	"hetgrid/internal/resource"
	"hetgrid/internal/sched"
	"hetgrid/internal/sim"
)

// RegisterGridGauges registers the per-node gauges of a scheduling
// grid: queue depth, running jobs, per-CE-type utilization, neighbor
// count, and the per-dimension aggregated view (region node count and
// dominant-load fraction) the pushing walk steers by. agg may be nil
// when the caller has no aggregation table (central scheduler).
func RegisterGridGauges(p *metrics.Plane, ov *can.Overlay, cl *exec.Cluster, agg *sched.AggTable, dims, gpuSlots int) {
	p.RegisterGauge("node.queue", func(k *metrics.Sink) {
		for _, n := range ov.Nodes() {
			if rt := cl.Runtime(n.ID); rt != nil {
				k.Emit(int64(n.ID), float64(rt.QueueLen()))
			}
		}
	})
	p.RegisterGauge("node.running", func(k *metrics.Sink) {
		for _, n := range ov.Nodes() {
			if rt := cl.Runtime(n.ID); rt != nil {
				k.Emit(int64(n.ID), float64(rt.RunningJobs()))
			}
		}
	})
	for t := resource.CEType(0); int(t) <= gpuSlots; t++ {
		ct := t
		p.RegisterGauge("node.util."+ct.String(), func(k *metrics.Sink) {
			for _, n := range ov.Nodes() {
				rt := cl.Runtime(n.ID)
				if rt == nil {
					continue
				}
				if u, ok := rt.UtilizationOn(ct); ok {
					k.Emit(int64(n.ID), u)
				}
			}
		})
	}
	p.RegisterGauge("node.neighbors", func(k *metrics.Sink) {
		for _, n := range ov.Nodes() {
			k.Emit(int64(n.ID), float64(len(ov.NeighborView(n.ID))))
		}
	})
	if agg == nil {
		return
	}
	// Aggregation refresh-cost series: cumulative counters from
	// AggTable.Stats (the plane emits per-interval deltas), showing the
	// incremental plane at work — how many dirty nodes each interval
	// drained, the Fenwick updates they cost, how often the table fell
	// back to a full rebuild, and how many changed nodes the membership
	// syncs absorbed.
	p.RegisterCounter("agg.refreshes", func() int64 { return agg.Stats().Refreshes })
	p.RegisterCounter("agg.incremental_refreshes", func() int64 { return agg.Stats().IncRefreshes })
	p.RegisterCounter("agg.full_rebuilds", func() int64 { return agg.Stats().FullRebuilds })
	p.RegisterCounter("agg.dirty_drained", func() int64 { return agg.Stats().DirtyDrained })
	p.RegisterCounter("agg.fenwick_updates", func() int64 { return agg.Stats().FenwickUpdates })
	p.RegisterCounter("agg.churn_syncs", func() int64 { return agg.Stats().ChurnRefreshes })
	p.RegisterCounter("agg.churn_nodes", func() int64 { return agg.Stats().ChurnNodes })
	p.RegisterGauge("agg.last_dirty", func(k *metrics.Sink) {
		k.Emit(-1, float64(agg.Stats().LastDirty))
	})
	for d := 0; d < dims; d++ {
		dim := d
		p.RegisterGauge(fmt.Sprintf("node.aggnodes.d%d", dim), func(k *metrics.Sink) {
			for _, n := range ov.Nodes() {
				k.Emit(int64(n.ID), float64(agg.At(n.ID, dim).Nodes))
			}
		})
		p.RegisterGauge(fmt.Sprintf("node.aggload.d%d", dim), func(k *metrics.Sink) {
			for _, n := range ov.Nodes() {
				var req, cores float64
				da := agg.At(n.ID, dim)
				for t := range da.ByType {
					l := da.Load(resource.CEType(t))
					req += l.SumRequiredCores
					cores += l.SumCores
				}
				if cores > 0 {
					k.Emit(int64(n.ID), req/cores)
				} else {
					k.Emit(int64(n.ID), 0)
				}
			}
		})
	}
}

// RegisterSchedCounters registers the matchmaking activity counters
// (per-interval deltas of the scheduler's cumulative Stats).
func RegisterSchedCounters(p *metrics.Plane, st *sched.Stats) {
	p.RegisterCounter("sched.placed", func() int64 { return int64(st.Placed) })
	p.RegisterCounter("sched.route_hops", func() int64 { return int64(st.RouteHops) })
	p.RegisterCounter("sched.push_hops", func() int64 { return int64(st.PushHops) })
	p.RegisterCounter("sched.free_picks", func() int64 { return int64(st.FreePicks) })
	p.RegisterCounter("sched.accept_picks", func() int64 { return int64(st.AcceptPicks) })
	p.RegisterCounter("sched.score_picks", func() int64 { return int64(st.ScorePicks) })
	p.RegisterCounter("sched.fallbacks", func() int64 { return int64(st.Fallbacks) })
	p.RegisterCounter("sched.unmatchable", func() int64 { return int64(st.Unmatchable) })
}

// RegisterClusterCounters registers job throughput counters.
func RegisterClusterCounters(p *metrics.Plane, cl *exec.Cluster) {
	p.RegisterCounter("jobs.submitted", func() int64 { return int64(cl.Submitted()) })
	p.RegisterCounter("jobs.finished", func() int64 { return int64(cl.Finished()) })
}

// NetReader is the transport-counter surface RegisterNetCounters
// reads. Both *netsim.Net and *netsim.ShardedNet satisfy it; sharded
// totals are shard-order sums over the per-shard facets, so sampled at
// window barriers one registration gives the same series on either
// engine, at any shard or worker count.
type NetReader interface {
	Total() netsim.Counters
	KindTotal(netsim.Kind) netsim.Counters
}

// RegisterNetCounters registers transport volume counters split by
// message kind, plus the aggregate. prefix namespaces the series (e.g.
// "net" → "net.full.msgs_sent").
func RegisterNetCounters(p *metrics.Plane, net NetReader, prefix string) {
	p.RegisterCounter(prefix+".msgs_sent", func() int64 { return net.Total().MsgsSent })
	p.RegisterCounter(prefix+".bytes_sent", func() int64 { return net.Total().BytesSent })
	p.RegisterCounter(prefix+".msgs_recv", func() int64 { return net.Total().MsgsRecv })
	p.RegisterCounter(prefix+".bytes_recv", func() int64 { return net.Total().BytesRecv })
	for _, k := range netsim.AllKinds {
		kind := k
		p.RegisterCounter(fmt.Sprintf("%s.%s.msgs_sent", prefix, kind), func() int64 {
			return net.KindTotal(kind).MsgsSent
		})
		p.RegisterCounter(fmt.Sprintf("%s.%s.bytes_sent", prefix, kind), func() int64 {
			return net.KindTotal(kind).BytesSent
		})
	}
}

// ProtoHealth is the protocol-health surface RegisterProtoGauges
// reads. *proto.Sim and *proto.ShardedSim both satisfy it: the sharded
// alive count is a shard-order sum and the mean view size is computed
// over the host table all shards share.
type ProtoHealth interface {
	AliveHosts() int
	MeanViewSize() float64
}

// RegisterProtoGauges registers maintenance-protocol health gauges.
func RegisterProtoGauges(p *metrics.Plane, s ProtoHealth) {
	p.RegisterGauge("proto.alive_hosts", func(k *metrics.Sink) {
		k.Emit(-1, float64(s.AliveHosts()))
	})
	p.RegisterGauge("proto.mean_view", func(k *metrics.Sink) {
		k.Emit(-1, s.MeanViewSize())
	})
}

// RegisterWindowAux registers the sharded engine's synchronization
// diagnostics as auxiliary series — sampled alongside the canonical
// stream but exported separately (Plane.WriteAuxJSONL), because the
// serial engine has no windows and the canonical byte-compared stream
// must be identical under either engine:
//
//	sim.windows      conservative windows (barriers) per interval
//	sim.quiesces     control-phase single-event quiesces per interval
//	sim.window_span  mean virtual-time span per window over the run so
//	                 far, in seconds
func RegisterWindowAux(p *metrics.Plane, se *sim.ShardedEngine) {
	p.RegisterAuxCounter("sim.windows", func() int64 { return se.WindowStats().Windows })
	p.RegisterAuxCounter("sim.quiesces", func() int64 { return se.WindowStats().Quiesces })
	p.RegisterAuxGauge("sim.window_span", func(k *metrics.Sink) {
		ws := se.WindowStats()
		if ws.Windows == 0 {
			k.Emit(-1, 0)
			return
		}
		k.Emit(-1, ws.SpanSum.Seconds()/float64(ws.Windows))
	})
}
