package scenario

// Timed fault and load injection. Events are scheduled at world-build
// time in file order; the engine's sequence numbers preserve that order
// for events sharing a timestamp, so a scenario file is a total order
// of what happens.

import (
	"fmt"

	"hetgrid/internal/can"
	"hetgrid/internal/geom"
	"hetgrid/internal/proto"
	"hetgrid/internal/resource"
	"hetgrid/internal/rng"
	"hetgrid/internal/sim"
)

func (w *World) scheduleEvent(ev *Event, idx int) {
	at := sim.Time(ev.At)
	switch ev.Kind {
	case "fail_nodes":
		w.eng.At(at, func(now sim.Time) {
			for _, id := range w.pickVictims(ev.Count) {
				w.failNode(id)
			}
			w.snapshot(now, fmt.Sprintf("fail_nodes(%d)", ev.Count))
		})
	case "fail_rack":
		// A correlated failure: every live member of the rack fails at
		// once — the grid sees the simultaneous-events regime the paper's
		// high-churn analysis is about, plus the orphan re-match burst.
		w.eng.At(at, func(now sim.Time) {
			for _, id := range w.rackMembers(ev.Rack) {
				w.failNode(id)
			}
			w.snapshot(now, fmt.Sprintf("fail_rack(%d)", ev.Rack))
		})
	case "partition":
		w.eng.At(at, func(now sim.Time) {
			if ev.Rack >= 0 {
				w.part.Isolate(w.rackMembers(ev.Rack)...)
			} else {
				n := int(float64(w.psim.AliveHosts())*ev.Fraction + 0.5)
				w.part.Isolate(w.pickVictims(n)...)
			}
			w.snapshot(now, "partition")
		})
	case "heal":
		w.eng.At(at, func(now sim.Time) {
			w.part.HealAll()
			w.snapshot(now, "heal")
		})
	case "burst":
		// A flash crowd: Count jobs arrive back-to-back from the shared
		// workload generator (shared so job ids stay unique), all at the
		// event instant.
		w.eng.At(at, func(now sim.Time) {
			if w.jgen == nil {
				w.violate("events[%d]: burst without a workload section", idx)
				return
			}
			for i := 0; i < ev.Count; i++ {
				w.submitNext(now)
			}
			w.snapshot(now, fmt.Sprintf("burst(%d)", ev.Count))
		})
	case "join_wave":
		w.eng.At(at, func(now sim.Time) {
			for i := 0; i < ev.Count; i++ {
				w.eng.After(sim.Duration(i)*ev.Gap, func(sim.Time) {
					if _, err := w.admit(w.ngen.One()); err != nil {
						w.violate("events[%d]: join_wave admission: %v", idx, err)
					}
				})
			}
			w.snapshot(now, fmt.Sprintf("join_wave(%d)", ev.Count))
		})
	case "churn":
		// Sustained background churn through the protocol driver: joins
		// come from the scenario fleet generator, departures split
		// between silent failures and graceful leaves, and every
		// execution-plane consequence (orphan re-match, conservation)
		// rides the driver's hooks.
		d := proto.NewChurnDriver(w.psim, proto.ChurnConfig{
			MeanEventGap: ev.Gap,
			FailFraction: ev.FailFraction,
			MinNodes:     minChurnPopulation(w.spec.Grid.Nodes),
			Seed:         rng.Split(w.spec.Seed, fmt.Sprintf("scenario.churn.%d", idx)),
		})
		d.JoinPoint = func() (geom.Point, *resource.NodeCaps) {
			caps := w.ngen.One()
			return w.space.NodePoint(caps), caps
		}
		d.OnJoin = func(id can.NodeID) {
			w.track(id, w.psim.Overlay().Node(id).Caps)
		}
		d.OnLeave = func(id can.NodeID, failed bool) {
			if failed {
				w.fails++
			} else {
				w.leaves++
			}
			delete(w.rack, id)
			w.requeue(w.cluster.RemoveNode(id))
			w.checkConservation(fmt.Sprintf("after churn departure of node %d", id))
		}
		w.eng.At(at, func(now sim.Time) {
			d.Start()
			w.snapshot(now, "churn_start")
		})
		if ev.Until > 0 {
			w.eng.At(sim.Time(ev.Until), func(now sim.Time) {
				d.Stop()
				w.snapshot(now, "churn_stop")
			})
		}
	}
}

// minChurnPopulation floors the churn driver's population so sustained
// churn hovers around the fleet size rather than draining it.
func minChurnPopulation(fleet int) int {
	if fleet/2 > 4 {
		return fleet / 2
	}
	return 4
}
