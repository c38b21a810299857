package proto

import (
	"slices"

	"hetgrid/internal/can"
	"hetgrid/internal/geom"
	"hetgrid/internal/perf"
	"hetgrid/internal/sim"
)

var cntHeartbeatTicks = perf.NewCounter("proto.heartbeat_ticks")

// Host is the protocol state machine of one live node. It owns the
// node's believed zone, its neighbor view, and the retained copies of
// neighbors' tables used for take-over notification.
type Host struct {
	id   can.NodeID
	zone geom.Zone // the zone this node believes it owns
	view *view
	s    *Sim

	// lastTables holds the most recent full neighbor table received
	// from each node. Under Vanilla every heartbeat refreshes these;
	// under Compact/Adaptive only full messages addressed to this node
	// as a take-over target (or full-update replies) do.
	lastTables map[can.NodeID]*savedTable

	lastRequest sim.Time // last adaptive full-update request
	tick        sim.EventID
	alive       bool

	// selfRec is the host's advertised record, rebuilt only when the
	// zone changes. Zones are immutable by convention (always replaced
	// via Clone, never mutated in place), so sharing it with receivers
	// is safe and saves the two point clones per tick selfRecord used
	// to cost.
	selfRec Record

	// targetsBuf is the per-round heartbeat target list (ranked ∪
	// reciprocals), rebuilt into the same backing array every tick.
	targetsBuf []can.NodeID

	// tableBuf double-buffers the advertised table: messages sent this
	// round alias one buffer while it is in flight, and the other is
	// rebuilt next round. Safe while the network latency is below the
	// heartbeat period (onTick falls back to allocating otherwise).
	tableBuf  [2][]Record
	tableFlip int
}

func newHost(s *Sim, id can.NodeID, zone geom.Zone) *Host {
	h := &Host{
		id:          id,
		zone:        zone.Clone(),
		view:        newView(),
		s:           s,
		lastTables:  make(map[can.NodeID]*savedTable),
		lastRequest: -1 << 60,
		alive:       true,
	}
	h.selfRec = Record{ID: id, Zone: h.zone}
	return h
}

// ID returns the host's node id.
func (h *Host) ID() can.NodeID { return h.id }

// Zone returns the zone the host believes it owns.
func (h *Host) Zone() geom.Zone { return h.zone }

// Knows reports whether the host's view contains the given node.
func (h *Host) Knows(id can.NodeID) bool { return h.view.has(id) }

// ViewSize returns the number of believed neighbors.
func (h *Host) ViewSize() int { return len(h.view.entries) }

// selfRecord is the record the host advertises about itself. The zone
// is shared, not cloned: zones are never mutated in place.
func (h *Host) selfRecord() Record { return h.selfRec }

// scheduleFirstTick starts the heartbeat loop with a random phase in
// [0, period) so the population's heartbeats interleave.
func (h *Host) scheduleFirstTick(phase sim.Duration) {
	h.tick = h.s.Eng.AfterCall(phase, h)
}

// Call fires the heartbeat tick; Host is its own sim.Caller so the
// periodic reschedule does not allocate a closure per round.
func (h *Host) Call(now sim.Time) { h.onTick(now) }

func (h *Host) onTick(now sim.Time) {
	if !h.alive {
		return
	}
	cntHeartbeatTicks.Inc()
	cfg := &h.s.Cfg

	// 1. Expire neighbors that have gone silent. A silent disappearance
	// (no take-over announcement explained it) is itself a broken-link
	// signal for the adaptive scheme. Deadlines are exclusive (see
	// view.expire): a record heard exactly timeout ago survives this
	// tick, matching the half-timeout grace rule for indirect entries.
	passiveDeadline := now - sim.Time(cfg.passiveTTL())
	if cfg.PassiveTTLPeriods <= 0 {
		passiveDeadline = -1 << 60 // no passive expiry
	}
	expired := h.view.expire(now-sim.Time(cfg.timeout()), passiveDeadline, now.Add(cfg.tombstoneTTL()))
	// Retained third-party tables from senders we no longer hear are
	// equally stale; prune them on the same horizon.
	for id, st := range h.lastTables {
		if st.at < passiveDeadline {
			delete(h.lastTables, id)
		}
	}

	// 2. Send heartbeats to the tracked neighbor set: the per-face
	// top-overlap abutters plus reciprocal links (anyone who recently
	// heartbeated us). Under bounded tracking this is what keeps both
	// the send list and the advertised table O(d).
	takerID := can.NodeID(-1)
	if plan, ok := h.s.Ov.Takeover(h.id); ok {
		takerID = plan.Taker.ID
	}
	d := h.s.Ov.Dims()
	self := h.selfRecord()
	ranked := h.view.ranked(h.zone, cfg.MaxPerFace)
	h.view.markRanked(ranked)
	reciprocalSince := now - sim.Time(float64(cfg.HeartbeatPeriod)*1.5)
	targets := mergeSortedIDs(h.targetsBuf[:0], ranked, h.view.reciprocals(reciprocalSince))
	h.targetsBuf = targets

	// Messages sent below alias table until they deliver; the double
	// buffer hands them a round's exclusive ownership, which is enough
	// while latency stays under the heartbeat period.
	var table []Record
	if sim.Duration(cfg.Latency) < cfg.HeartbeatPeriod {
		buf := h.tableBuf[h.tableFlip][:0]
		h.tableFlip ^= 1
		table = h.view.recordsOfInto(buf, targets)
		h.tableBuf[h.tableFlip^1] = table
	} else {
		table = h.view.recordsOfInto(make([]Record, 0, len(targets)), targets)
	}

	// ranked and targets are both ascending, so ranked membership is a
	// single merged walk rather than a per-round set.
	ri := 0
	isRanked := func(nb can.NodeID) bool {
		for ri < len(ranked) && ranked[ri] < nb {
			ri++
		}
		return ri < len(ranked) && ranked[ri] == nb
	}

	switch cfg.Scheme {
	case Vanilla:
		for _, nb := range targets {
			h.s.sendFull(h.id, nb, self, table, isRanked(nb))
		}
	case Compact, Adaptive:
		sentToTaker := false
		for _, nb := range targets {
			if nb == takerID {
				h.s.sendFull(h.id, nb, self, table, isRanked(nb))
				sentToTaker = true
			} else {
				h.s.sendCompact(h.id, nb, self, d, isRanked(nb))
			}
		}
		// The take-over node is determined by split history and is
		// normally a neighbor; when take-over duty has migrated deeper
		// into the sibling subtree it may not be, and the full update
		// is sent as an extra message.
		if !sentToTaker && takerID >= 0 {
			_, found := slices.BinarySearch(ranked, takerID)
			h.s.sendFull(h.id, takerID, self, table, found)
		}
	}

	// 3. Adaptive broken-link detection: if a face of our zone has lost
	// its known abutters (or, under unbounded tracking, is not fully
	// covered), ask everyone (including the take-over target, our one
	// guaranteed contact) for their tables.
	if cfg.Scheme == Adaptive &&
		now.Sub(h.lastRequest) >= cfg.requestMinGap() &&
		(len(expired) > 0 || h.detectBrokenLink()) {
		h.lastRequest = now
		asked := false
		for _, nb := range targets {
			h.s.sendRequest(h.id, nb, self)
			if nb == takerID {
				asked = true
			}
		}
		if !asked && takerID >= 0 {
			h.s.sendRequest(h.id, takerID, self)
		}
	}

	// 4. Next round.
	h.tick = h.s.Eng.AfterCall(cfg.HeartbeatPeriod, h)
}

// mergeSortedIDs appends the sorted, deduplicated union of two ascending
// id lists into dst — the allocation-free unionIDs for the tick path.
func mergeSortedIDs(dst, a, b []can.NodeID) []can.NodeID {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			dst = append(dst, a[i])
			i++
		case b[j] < a[i]:
			dst = append(dst, b[j])
			j++
		default:
			dst = append(dst, a[i])
			i++
			j++
		}
	}
	dst = append(dst, a[i:]...)
	return append(dst, b[j:]...)
}

// detectBrokenLink is the adaptive scheme's local test: under bounded
// tracking, some inner face with no known abutter; under unbounded
// tracking, some inner face not fully covered by known zones.
func (h *Host) detectBrokenLink() bool {
	if h.s.Cfg.MaxPerFace > 0 {
		return h.view.emptyFace(h.zone)
	}
	return h.view.uncoveredFace(h.zone)
}

// graceTime is the liveness credit granted to indirectly learned
// entries: half a timeout from now, so they expire soon unless the node
// confirms itself directly. The credit interacts with expiry through
// the same strict-deadline rule as direct records: a graced entry's
// lastHeard of now − timeout/2 keeps it alive through every tick whose
// deadline is ≤ that instant (half a timeout of slack), and the first
// strictly later deadline removes it.
func (h *Host) graceTime(now sim.Time) sim.Time {
	return now - sim.Time(h.s.Cfg.timeout()/2)
}

// receiveFull handles a heartbeat (or full-update reply) carrying the
// sender's complete table. ranked reports whether the sender declared
// that it ranks this node in its bounded tracked set.
func (h *Host) receiveFull(now sim.Time, from Record, table []Record, ranked bool) {
	if !h.alive {
		return
	}
	// Direct evidence about the sender.
	h.integrateSender(now, from)
	if ranked {
		h.view.rankedBy(from.ID, now)
	}
	// Retain the table for take-over duty in a receiver-owned copy: the
	// sender's slice is a double-buffered scratch it will overwrite, so
	// the retained records must live in this host's own buffer (reused
	// across refreshes from the same sender). The zone is aliased, not
	// cloned — zones are immutable by convention.
	st := h.lastTables[from.ID]
	if st == nil {
		st = &savedTable{}
		h.lastTables[from.ID] = st
	}
	st.zone = from.Zone
	st.recs = append(st.recs[:0], table...)
	st.at = now
	// Redundant neighbor information repairs broken links (Figure 2):
	// any record whose zone abuts ours is a neighbor we may be missing.
	h.view.merge(h.id, h.zone, table, now, h.graceTime(now))
}

// receiveCompact handles a compact heartbeat: sender record plus
// aggregated load only.
func (h *Host) receiveCompact(now sim.Time, from Record, ranked bool) {
	if !h.alive {
		return
	}
	h.integrateSender(now, from)
	if ranked {
		h.view.rankedBy(from.ID, now)
	}
}

// integrateSender applies first-hand evidence about a message's sender.
func (h *Host) integrateSender(now sim.Time, from Record) {
	if _, _, ok := h.zone.Abuts(from.Zone); ok {
		h.view.direct(from, now)
	} else if h.view.has(from.ID) {
		// The sender's zone no longer touches ours: drop it.
		h.view.remove(from.ID)
	}
}

// receiveAnnounce handles a take-over or join announcement: gone (if
// ≥ 0) has departed and owner now covers the affected region.
func (h *Host) receiveAnnounce(now sim.Time, gone can.NodeID, owner Record) {
	if !h.alive {
		return
	}
	if gone >= 0 {
		h.view.bury(gone, now.Add(h.s.Cfg.tombstoneTTL()))
		delete(h.lastTables, gone)
	}
	if owner.ID == h.id {
		return
	}
	if _, _, ok := h.zone.Abuts(owner.Zone); ok {
		h.view.direct(owner, now)
	} else if h.view.has(owner.ID) {
		h.view.remove(owner.ID)
	}
}

// receiveRequest answers an adaptive full-update request with this
// host's complete table.
func (h *Host) receiveRequest(now sim.Time, from Record) {
	if !h.alive {
		return
	}
	h.integrateSender(now, from)
	h.s.sendFull(h.id, from.ID, h.selfRecord(), h.s.replyTable(now, h.view), false)
}

// adoptZone switches the host to a new zone (join split, take-over or
// merge) and filters the view down to records that still abut it.
func (h *Host) adoptZone(z geom.Zone) {
	h.zone = z.Clone()
	h.selfRec = Record{ID: h.id, Zone: h.zone}
	h.view.keepAbutting(h.zone)
}

// absorb merges foreign records (for example a departed neighbor's
// table) into the view, keeping those that abut the current zone.
func (h *Host) absorb(now sim.Time, recs []Record) {
	h.view.merge(h.id, h.zone, recs, now, h.graceTime(now))
}
