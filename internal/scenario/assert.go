package scenario

// End-state assertions, evaluated once the engine reaches the horizon.
// Each failed assertion appends a violation; the run still produces a
// full report so a failing scenario shows every broken contract at
// once, not just the first.

func (w *World) assertEndState() {
	a := &w.spec.Assert

	if a.JobsAccounted {
		w.checkConservation("at the horizon")
	}
	if a.AllJobsFinished {
		if queued, running := w.cluster.Totals(); queued+running != 0 {
			w.violate("all_jobs_finished: %d queued and %d running at the horizon", queued, running)
		}
	}
	if a.ZoneCover {
		if err := w.psim.Overlay().Validate(); err != nil {
			w.violate("zone_cover: overlay invariants: %v", err)
		} else if err := w.psim.Overlay().CheckZoneCover(); err != nil {
			w.violate("zone_cover: %v", err)
		}
	}
	if a.NoOrphans {
		w.assertNoOrphans()
	}
	if a.MaxLost >= 0 && w.lost > a.MaxLost {
		w.violate("max_lost: %d jobs lost, ceiling %d", w.lost, a.MaxLost)
	}
	if a.MinFinished > 0 {
		if finished := w.cluster.Finished(); finished < a.MinFinished {
			w.violate("min_finished: %d jobs finished, floor %d", finished, a.MinFinished)
		}
	}
	if a.MaxBrokenLinks >= 0 {
		if missing, _ := w.psim.BrokenLinks(); missing > a.MaxBrokenLinks {
			w.violate("max_broken_links: %d missing links, ceiling %d", missing, a.MaxBrokenLinks)
		}
	}
	if len(a.Bounds) > 0 {
		m := w.metrics()
		for _, b := range a.Bounds {
			v := m[b.Metric]
			if b.HasMin && v < b.Min {
				w.violate("bounds: %s = %s below min %s", b.Metric, fmtMetric(v), fmtMetric(b.Min))
			}
			if b.HasMax && v > b.Max {
				w.violate("bounds: %s = %s above max %s", b.Metric, fmtMetric(v), fmtMetric(b.Max))
			}
		}
	}
}

// assertNoOrphans checks that the three membership views agree: the
// protocol hosts match the overlay (the protocol plane's own check),
// every runtime corresponds to a live overlay node, and vice versa. A
// mismatch means a failure path tore down one plane but not the other.
func (w *World) assertNoOrphans() {
	if err := w.psim.CheckMembership(); err != nil {
		w.violate("no_orphans: %v", err)
	}
	ov := w.psim.Overlay()
	for _, r := range w.cluster.Runtimes() {
		if ov.Node(r.ID) == nil {
			w.violate("no_orphans: runtime %d has no live overlay node", r.ID)
		}
	}
	for _, n := range ov.Nodes() {
		if w.cluster.Runtime(n.ID) == nil {
			w.violate("no_orphans: overlay node %d has no runtime", n.ID)
		}
	}
}
