package scenario

// The scenario's telemetry plane and what reads it: per-event metric
// snapshots (the report's timeline) and `at:`-timed checkpoint
// assertions. Every world carries a plane — whether or not the caller
// exports the stream — so the report is identical with telemetry
// export on or off, and checkpoints always have series to read. The
// plane samples on the scenario's single engine and obeys the
// telemetry-only contract, so attaching it cannot change a run's
// outcome.

import (
	"fmt"

	"hetgrid/internal/metrics"
	"hetgrid/internal/metricsreg"
	"hetgrid/internal/netsim"
	"hetgrid/internal/sim"
)

// defaultSampleInterval is the scenario plane's sampling cadence when
// the driver does not choose one (`hetgridsim run -metrics-interval`).
// The interval shapes only the exported stream: timeline snapshots and
// checkpoint values come from forced sampling passes at event and
// checkpoint instants, so the report never depends on it.
const defaultSampleInterval = 60 * sim.Second

// telemetrySeries lists the series every scenario world registers, in
// registration (= export) order. It is the vocabulary `checkpoints:`
// may reference; spec validation rejects anything else.
func telemetrySeries() []string {
	names := []string{
		"proto.alive_hosts", "proto.mean_view",
		"jobs.submitted", "jobs.finished",
		"net.msgs_sent", "net.bytes_sent", "net.msgs_recv", "net.bytes_recv",
	}
	for _, k := range netsim.AllKinds {
		names = append(names, fmt.Sprintf("net.%s.msgs_sent", k), fmt.Sprintf("net.%s.bytes_sent", k))
	}
	return names
}

func validSeries(name string) bool {
	for _, s := range telemetrySeries() {
		if s == name {
			return true
		}
	}
	return false
}

// counterSeries reports whether a scenario series is counter-backed
// (per-interval deltas in the stream; checkpoints read the cumulative
// sum) rather than a gauge (checkpoints read the latest sample).
func counterSeries(name string) bool {
	return name != "proto.alive_hosts" && name != "proto.mean_view"
}

// attachTelemetry builds and arms the world's plane. Registration
// order is fixed — it is the export order and the contract behind
// byte-identical streams across runs.
func (w *World) attachTelemetry(interval sim.Duration) {
	if interval <= 0 {
		interval = defaultSampleInterval
	}
	w.plane = metrics.New(interval, 0)
	if w.ssim != nil {
		// Attach the sharded engine, not its global plane: sampling still
		// runs on the control plane, but dormancy decisions must see every
		// queue — heartbeats live on shard engines, and a plane attached
		// to the global engine alone would doze off once the last global
		// event (job, checkpoint) fires, truncating the exported stream.
		w.plane.Attach(w.ssim.SE)
	} else {
		w.plane.Attach(w.eng)
	}
	metricsreg.RegisterProtoGauges(w.plane, w.psim)
	metricsreg.RegisterClusterCounters(w.plane, w.cluster)
	metricsreg.RegisterNetCounters(w.plane, w.pnet, "net")
	if w.ssim != nil {
		// Aux stream only: the serial engine has no windows, so the
		// synchronization counters stay out of the canonical
		// byte-compared export (see metrics.Plane aux series).
		metricsreg.RegisterWindowAux(w.plane, w.ssim.SE)
	}
	w.plane.Poke()
}

// snapshot takes a forced sampling pass and appends one timeline row:
// the injected event (or checkpoint) plus the grid health and job
// ledger at that instant. Rows render with fixed precision so reports
// stay byte-stable.
func (w *World) snapshot(now sim.Time, label string) {
	w.plane.SampleNow()
	queued, running := w.cluster.Totals()
	w.timeline = append(w.timeline, fmt.Sprintf(
		"t=%-8s %s: alive=%d mean_view=%.2f submitted=%d finished=%d queued=%d running=%d lost=%d",
		fmtDur(sim.Duration(now)), label,
		w.psim.AliveHosts(), w.psim.MeanViewSize(),
		w.cluster.Submitted(), w.cluster.Finished(), queued, running, w.lost))
}

// scheduleCheckpoint arms one `at:`-timed assertion. Checkpoints are
// scheduled after all events, so a checkpoint sharing an instant with
// an event observes the event's consequences.
func (w *World) scheduleCheckpoint(cp *Checkpoint, idx int) {
	w.eng.At(sim.Time(cp.At), func(sim.Time) {
		w.evalCheckpoint(cp, idx)
	})
}

func (w *World) evalCheckpoint(cp *Checkpoint, idx int) {
	s := w.plane.SeriesByName(cp.Series)
	if s == nil {
		w.violate("checkpoints[%d]: series %s not registered", idx, cp.Series)
		return
	}
	w.plane.SampleNow()
	var v float64
	if counterSeries(cp.Series) {
		// Cumulative since scenario start: the sum of recorded deltas,
		// closed out by the sampling pass above — independent of the
		// sampling interval.
		for _, p := range s.Points() {
			v += p.V
		}
	} else if last, ok := s.Last(); ok {
		v = last.V
	}
	w.timeline = append(w.timeline, fmt.Sprintf(
		"t=%-8s checkpoint %s=%s", fmtDur(cp.At), cp.Series, fmtMetric(v)))
	if cp.HasMin && v < cp.Min {
		w.violate("checkpoints[%d]: %s = %s below min %s at %s",
			idx, cp.Series, fmtMetric(v), fmtMetric(cp.Min), fmtDur(cp.At))
	}
	if cp.HasMax && v > cp.Max {
		w.violate("checkpoints[%d]: %s = %s above max %s at %s",
			idx, cp.Series, fmtMetric(v), fmtMetric(cp.Max), fmtDur(cp.At))
	}
}
