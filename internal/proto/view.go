package proto

import (
	"slices"

	"hetgrid/internal/can"
	"hetgrid/internal/geom"
	"hetgrid/internal/sim"
)

// Record is what one node knows about another: identity and zone. It is
// the unit of heartbeat payloads.
type Record struct {
	ID   can.NodeID
	Zone geom.Zone
}

// entry is a view slot for one believed neighbor.
//
// Entries are either active — we rank the node in our bounded tracked
// set, or it ranks us (reciprocal), so heartbeats flow and liveness is
// monitored — or passive: cached records learned from tables,
// announcements and joins. Passive entries cost no messages and are not
// liveness-checked; they serve as ranking candidates so that a face
// whose active neighbor disappears can promote a replacement, and they
// are dropped when contradicted (announce, zone change) or when a
// promotion goes unanswered.
type entry struct {
	rec        Record
	lastHeard  sim.Time
	lastDirect sim.Time // last first-hand message from the node itself
	// lastRankedBy is the last time the node itself told us it ranks us
	// in its bounded tracked set. Reciprocal heartbeats flow only to
	// peers that actively rank us; otherwise unranked pairs would keep
	// each other alive forever and the per-face bound would be void.
	lastRankedBy sim.Time
	// rankedByUs marks entries we ranked at the last heartbeat round.
	rankedByUs bool
}

// view is a node's local neighbor table plus the tombstones that stop
// stale third-party records from resurrecting known-dead nodes.
//
// entries is kept sorted by rec.ID and stores entries by value. A view
// holds a few dozen records and is read far more often than its
// membership changes, so a binary search per lookup and an O(n) shift
// per insert or delete beat hashing: every whole-view read (tables,
// expiry, ranking, face tests) is an ordered walk that needs no sort,
// and every id list the view hands out is ascending. A pointer returned
// by get dies at the next insert or delete.
//
// The *Buf fields are per-view scratch reused by the once-per-round
// computations (expire, ranked, reciprocals): each heartbeat tick runs
// them once and consumes the results within the tick, so recycling the
// backing arrays makes the steady-state round allocation-free. The
// slices they return are valid only until the same method runs again.
type view struct {
	entries    []entry
	tombstones map[can.NodeID]sim.Time // expiry time

	goneBuf   []can.NodeID
	rankedBuf []can.NodeID
	recipBuf  []can.NodeID
	scoredBuf []faceScored
}

// faceScored is one (face, candidate) pair during bounded ranking.
type faceScored struct {
	dim, dir int
	id       can.NodeID
	overlap  float64
}

func newView() *view {
	return &view{tombstones: make(map[can.NodeID]sim.Time)}
}

// search returns the index of id in entries, or the index where it
// would be inserted, and whether it is present. Hand-written because
// slices.BinarySearchFunc would copy every probed entry into its
// comparison closure.
func (v *view) search(id can.NodeID) (int, bool) {
	lo, hi := 0, len(v.entries)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if v.entries[m].rec.ID < id {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < len(v.entries) && v.entries[lo].rec.ID == id
}

// get returns the entry for id, or nil. The pointer aliases entries and
// dies at the next insert or delete.
func (v *view) get(id can.NodeID) *entry {
	if i, ok := v.search(id); ok {
		return &v.entries[i]
	}
	return nil
}

// insertAt places e at index i, which must keep entries sorted.
func (v *view) insertAt(i int, e entry) {
	v.entries = append(v.entries, entry{})
	copy(v.entries[i+1:], v.entries[i:])
	v.entries[i] = e
}

// truncate drops entries[n:], clearing them so dropped zones can be
// collected.
func (v *view) truncate(n int) {
	clear(v.entries[n:])
	v.entries = v.entries[:n]
}

// appendIDs appends the believed-neighbor ids to dst in ascending order.
func (v *view) appendIDs(dst []can.NodeID) []can.NodeID {
	for i := range v.entries {
		dst = append(dst, v.entries[i].rec.ID)
	}
	return dst
}

// recordsInto appends every record of the view to recs in ascending id
// order — the wire order of full tables.
func (v *view) recordsInto(recs []Record) []Record {
	for i := range v.entries {
		recs = append(recs, v.entries[i].rec)
	}
	return recs
}

// recordsOfInto appends the records for ids, which must be ascending
// (as every id list the view hands out is), in one merged walk, skipping
// ids that are no longer present.
func (v *view) recordsOfInto(recs []Record, ids []can.NodeID) []Record {
	j := 0
	for _, id := range ids {
		for j < len(v.entries) && v.entries[j].rec.ID < id {
			j++
		}
		if j == len(v.entries) {
			break
		}
		if v.entries[j].rec.ID == id {
			recs = append(recs, v.entries[j].rec)
		}
	}
	return recs
}

func (v *view) has(id can.NodeID) bool {
	_, ok := v.search(id)
	return ok
}

func (v *view) zoneOf(id can.NodeID) (geom.Zone, bool) {
	if e := v.get(id); e != nil {
		return e.rec.Zone, true
	}
	return geom.Zone{}, false
}

func (v *view) tombstoned(id can.NodeID, now sim.Time) bool {
	exp, ok := v.tombstones[id]
	if !ok {
		return false
	}
	if now >= exp {
		delete(v.tombstones, id)
		return false
	}
	return true
}

func (v *view) bury(id can.NodeID, until sim.Time) {
	v.remove(id)
	v.tombstones[id] = until
}

func (v *view) remove(id can.NodeID) {
	if i, ok := v.search(id); ok {
		copy(v.entries[i:], v.entries[i+1:])
		v.truncate(len(v.entries) - 1)
	}
}

// direct records first-hand evidence (a message from the node itself):
// it refreshes lastHeard, lastDirect and the zone.
func (v *view) direct(rec Record, now sim.Time) {
	delete(v.tombstones, rec.ID)
	i, ok := v.search(rec.ID)
	if ok {
		e := &v.entries[i]
		e.rec = rec
		e.lastHeard = now
		e.lastDirect = now
		return
	}
	v.insertAt(i, entry{rec: rec, lastHeard: now, lastDirect: now})
}

// indirect records third-party evidence (a record inside somebody
// else's table). It may add a missing entry or correct a zone, but does
// not refresh liveness: an indirectly learned node must confirm itself
// with a direct message before the timeout or it expires again. This
// prevents two stale tables from keeping a dead node alive forever.
// graceTime is the lastHeard assigned to newly added entries.
func (v *view) indirect(rec Record, now, graceTime sim.Time) {
	if v.tombstoned(rec.ID, now) {
		return
	}
	i, ok := v.search(rec.ID)
	if ok {
		v.entries[i].rec.Zone = rec.Zone
		return
	}
	v.insertAt(i, entry{rec: rec, lastHeard: graceTime})
}

// merge applies a third-party table as indirect evidence: every record
// other than self's own whose zone abuts selfZone is integrated, except
// that a record already present with an unchanged zone is skipped
// without a geometry test — the steady-state fast path. That skip is
// the same as indirect because a present entry never has a tombstone:
// direct clears it, and bury and expire remove the entry. Tables on the
// wire are id-ascending, so the lookups share one merged walk over the
// view; an out-of-order record falls back to a binary search, so any
// order gives the same result.
func (v *view) merge(self can.NodeID, selfZone geom.Zone, table []Record, now, graceTime sim.Time) {
	j := 0 // every entry before j has an id below the current record's
	for _, rec := range table {
		if rec.ID == self {
			continue
		}
		if j > 0 && v.entries[j-1].rec.ID >= rec.ID {
			j, _ = v.search(rec.ID)
		}
		for j < len(v.entries) && v.entries[j].rec.ID < rec.ID {
			j++
		}
		found := j < len(v.entries) && v.entries[j].rec.ID == rec.ID
		if found && v.entries[j].rec.Zone.Equal(rec.Zone) {
			continue
		}
		if _, _, ok := selfZone.Abuts(rec.Zone); !ok || v.tombstoned(rec.ID, now) {
			continue
		}
		if found {
			v.entries[j].rec.Zone = rec.Zone
		} else {
			v.insertAt(j, entry{rec: rec, lastHeard: graceTime})
		}
	}
}

// keepAbutting drops every entry whose zone does not abut z.
func (v *view) keepAbutting(z geom.Zone) {
	n := 0
	for i := range v.entries {
		if _, _, ok := z.Abuts(v.entries[i].rec.Zone); ok {
			if n != i {
				v.entries[n] = v.entries[i]
			}
			n++
		}
	}
	v.truncate(n)
}

// expire removes active entries (ranked by us at the previous round, or
// recently ranking us) that have gone silent past the deadline, and
// buries them. Passive entries are cached hints, not monitored links;
// they persist until contradicted, promoted, or older than the (much
// longer) passive deadline — without that TTL, views grow monotonically
// under churn as dead hints accumulate. Passive removals are silent (no
// tombstone, no broken-link signal). Returns the removed active ids in
// ascending order.
//
// Boundary rule: every deadline comparison is strict. An entry whose
// lastHeard equals the deadline exactly — a record timestamped
// precisely timeout ago — is still live this round and expires only
// once it is strictly older; symmetrically, lastRankedBy == deadline
// still counts as "recently ranking us" (>=) and keeps the entry
// active. The same convention makes the half-timeout grace horizon
// consistent: an entry admitted at graceTime (lastHeard = now −
// timeout/2) survives ticks whose deadline has not passed that instant,
// and expires on the first tick where it is strictly older — the
// deadline-exact record and the grace-exact record behave identically.
func (v *view) expire(deadline, passiveDeadline, buryUntil sim.Time) []can.NodeID {
	gone := v.goneBuf[:0]
	n := 0
	for i := range v.entries {
		e := &v.entries[i]
		active := e.rankedByUs || e.lastRankedBy >= deadline
		switch {
		case active && e.lastHeard < deadline:
			gone = append(gone, e.rec.ID)
			v.tombstones[e.rec.ID] = buryUntil
			continue
		case !active && e.lastHeard < passiveDeadline:
			continue
		}
		if n != i {
			v.entries[n] = *e
		}
		n++
	}
	v.truncate(n)
	v.goneBuf = gone
	return gone
}

// markRanked records which entries we ranked this round (the liveness
// expectation used by the next round's expiry). ids must be ascending,
// as ranked returns them.
func (v *view) markRanked(ids []can.NodeID) {
	j := 0
	for i := range v.entries {
		e := &v.entries[i]
		for j < len(ids) && ids[j] < e.rec.ID {
			j++
		}
		e.rankedByUs = j < len(ids) && ids[j] == e.rec.ID
	}
}

// uncoveredFace reports whether some face of selfZone that lies strictly
// inside the unit space is not fully covered by the believed neighbors'
// zones — the locally detectable signature of a broken link
// (Section IV-C). Coverage is tested by comparing the face area against
// the summed overlap areas of abutting view zones, added in id order so
// the float sum (and the verdict near the tolerance) is reproducible;
// current (disjoint) zones make this exact, while overlapping stale
// records can mask a hole until they expire.
func (v *view) uncoveredFace(selfZone geom.Zone) bool {
	d := selfZone.Dims()
	for dim := 0; dim < d; dim++ {
		for _, side := range []int{-1, +1} {
			// Outer faces of the unit cube have no neighbors.
			if side < 0 && selfZone.Lo[dim] <= 0 {
				continue
			}
			if side > 0 && selfZone.Hi[dim] >= 1 {
				continue
			}
			need := selfZone.FaceArea(dim)
			got := 0.0
			for i := range v.entries {
				z := v.entries[i].rec.Zone
				adim, adir, ok := selfZone.Abuts(z)
				if ok && adim == dim && adir == side {
					got += selfZone.FaceOverlap(z, dim)
				}
			}
			if got < need*(1-1e-9) {
				return true
			}
		}
	}
	return false
}

// ranked returns the bounded neighbor set the node actively ranks: for
// each face of selfZone, the up-to-perFace view entries with the
// largest shared-face measure (ties toward lower id). perFace ≤ 0
// returns every entry. The result is sorted by id.
func (v *view) ranked(selfZone geom.Zone, perFace int) []can.NodeID {
	if perFace <= 0 {
		v.rankedBuf = v.appendIDs(v.rankedBuf[:0])
		return v.rankedBuf
	}
	// Scratch-based equivalent of per-face bucketing: score every
	// abutting entry, sort by (face, overlap desc, id asc), then take the
	// first perFace of each face group. A zone abuts on exactly one face,
	// so no entry can be selected twice and the result needs only the
	// final id sort.
	scored := v.scoredBuf[:0]
	for i := range v.entries {
		rec := &v.entries[i].rec
		dim, dir, ok := selfZone.Abuts(rec.Zone)
		if !ok {
			continue
		}
		scored = append(scored, faceScored{dim, dir, rec.ID, selfZone.FaceOverlap(rec.Zone, dim)})
	}
	v.scoredBuf = scored
	slices.SortFunc(scored, func(a, b faceScored) int {
		switch {
		case a.dim != b.dim:
			return a.dim - b.dim
		case a.dir != b.dir:
			return a.dir - b.dir
		case a.overlap != b.overlap:
			if a.overlap > b.overlap {
				return -1
			}
			return 1
		default:
			return int(a.id - b.id)
		}
	})
	out := v.rankedBuf[:0]
	taken := 0
	for i, s := range scored {
		if i > 0 && (s.dim != scored[i-1].dim || s.dir != scored[i-1].dir) {
			taken = 0
		}
		if taken < perFace {
			out = append(out, s.id)
			taken++
		}
	}
	slices.Sort(out)
	v.rankedBuf = out
	return out
}

// reciprocals returns, in ascending id order, the entries whose owners
// told us — since the given time — that they rank us in their tracked
// set. We keep heartbeating them so asymmetric rankings stay alive in
// both directions, without unranked pairs sustaining each other forever.
func (v *view) reciprocals(since sim.Time) []can.NodeID {
	out := v.recipBuf[:0]
	for i := range v.entries {
		if e := &v.entries[i]; e.lastRankedBy >= since {
			out = append(out, e.rec.ID)
		}
	}
	v.recipBuf = out
	return out
}

// rankedBy records that the node itself declared it ranks us.
func (v *view) rankedBy(id can.NodeID, now sim.Time) {
	if e := v.get(id); e != nil {
		e.lastRankedBy = now
	}
}

// emptyFace reports whether some inner face of selfZone has no abutting
// view entry at all — the broken-link signature under bounded tracking,
// where full face coverage is not expected.
func (v *view) emptyFace(selfZone geom.Zone) bool {
	d := selfZone.Dims()
	// Per-direction coverage bitmasks (one bit per dimension; the space
	// never has anywhere near 64 dimensions). This runs on every adaptive
	// heartbeat tick, so it must not allocate.
	var covLo, covHi uint64
	for i := range v.entries {
		if dim, dir, ok := selfZone.Abuts(v.entries[i].rec.Zone); ok {
			if dir < 0 {
				covLo |= 1 << dim
			} else {
				covHi |= 1 << dim
			}
		}
	}
	for dim := 0; dim < d; dim++ {
		if selfZone.Lo[dim] > 0 && covLo&(1<<dim) == 0 {
			return true
		}
		if selfZone.Hi[dim] < 1 && covHi&(1<<dim) == 0 {
			return true
		}
	}
	return false
}

// savedTable is a retained copy of another node's full neighbor table,
// kept so a take-over node can notify the departed node's neighborhood.
type savedTable struct {
	zone geom.Zone
	recs []Record
	at   sim.Time
}
