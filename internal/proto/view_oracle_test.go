package proto

import (
	"fmt"
	"maps"
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"hetgrid/internal/can"
	"hetgrid/internal/geom"
	"hetgrid/internal/sim"
)

// mapView is the map-keyed view the id-sorted slice view replaced, kept
// as the differential oracle of TestViewMatchesMapOracle and
// FuzzViewOps. Each operation is written the way the map version wrote
// it; wherever map iteration order would show in a result, the result
// is sorted (or, for the coverage sum, taken in id order).
type mapView struct {
	entries    map[can.NodeID]*entry
	tombstones map[can.NodeID]sim.Time
}

func newMapView() *mapView {
	return &mapView{entries: map[can.NodeID]*entry{}, tombstones: map[can.NodeID]sim.Time{}}
}

func (m *mapView) ids() []can.NodeID {
	out := make([]can.NodeID, 0, len(m.entries))
	for id := range m.entries {
		out = append(out, id)
	}
	slices.Sort(out)
	return out
}

func (m *mapView) tombstoned(id can.NodeID, now sim.Time) bool {
	exp, ok := m.tombstones[id]
	if !ok {
		return false
	}
	if now >= exp {
		delete(m.tombstones, id)
		return false
	}
	return true
}

func (m *mapView) bury(id can.NodeID, until sim.Time) {
	delete(m.entries, id)
	m.tombstones[id] = until
}

func (m *mapView) direct(rec Record, now sim.Time) {
	delete(m.tombstones, rec.ID)
	if e := m.entries[rec.ID]; e != nil {
		e.rec, e.lastHeard, e.lastDirect = rec, now, now
		return
	}
	m.entries[rec.ID] = &entry{rec: rec, lastHeard: now, lastDirect: now}
}

func (m *mapView) indirect(rec Record, now, graceTime sim.Time) {
	if m.tombstoned(rec.ID, now) {
		return
	}
	if e := m.entries[rec.ID]; e != nil {
		e.rec.Zone = rec.Zone
		return
	}
	m.entries[rec.ID] = &entry{rec: rec, lastHeard: graceTime}
}

// merge is receiveFull's per-record loop from the map version.
func (m *mapView) merge(self can.NodeID, selfZone geom.Zone, table []Record, now, graceTime sim.Time) {
	for _, rec := range table {
		if rec.ID == self {
			continue
		}
		if e := m.entries[rec.ID]; e != nil && e.rec.Zone.Equal(rec.Zone) {
			continue
		}
		if _, _, ok := selfZone.Abuts(rec.Zone); ok {
			m.indirect(rec, now, graceTime)
		}
	}
}

// keepAbutting is adoptZone's filter from the map version.
func (m *mapView) keepAbutting(z geom.Zone) {
	for id, e := range m.entries {
		if _, _, ok := z.Abuts(e.rec.Zone); !ok {
			delete(m.entries, id)
		}
	}
}

func (m *mapView) expire(deadline, passiveDeadline, buryUntil sim.Time) []can.NodeID {
	var gone, stale []can.NodeID
	for id, e := range m.entries {
		active := e.rankedByUs || e.lastRankedBy >= deadline
		switch {
		case active && e.lastHeard < deadline:
			gone = append(gone, id)
		case !active && e.lastHeard < passiveDeadline:
			stale = append(stale, id)
		}
	}
	slices.Sort(gone)
	for _, id := range gone {
		m.bury(id, buryUntil)
	}
	for _, id := range stale {
		delete(m.entries, id)
	}
	return gone
}

func (m *mapView) markRanked(ids []can.NodeID) {
	for _, e := range m.entries {
		e.rankedByUs = false
	}
	for _, id := range ids {
		if e := m.entries[id]; e != nil {
			e.rankedByUs = true
		}
	}
}

func (m *mapView) ranked(selfZone geom.Zone, perFace int) []can.NodeID {
	if perFace <= 0 {
		return m.ids()
	}
	type cand struct {
		id      can.NodeID
		overlap float64
	}
	faces := map[[2]int][]cand{}
	for id, e := range m.entries {
		if dim, dir, ok := selfZone.Abuts(e.rec.Zone); ok {
			faces[[2]int{dim, dir}] = append(faces[[2]int{dim, dir}], cand{id, selfZone.FaceOverlap(e.rec.Zone, dim)})
		}
	}
	var out []can.NodeID
	for _, cs := range faces {
		slices.SortFunc(cs, func(a, b cand) int {
			switch {
			case a.overlap > b.overlap:
				return -1
			case a.overlap < b.overlap:
				return 1
			default:
				return int(a.id - b.id)
			}
		})
		for i := 0; i < len(cs) && i < perFace; i++ {
			out = append(out, cs[i].id)
		}
	}
	slices.Sort(out)
	return out
}

func (m *mapView) reciprocals(since sim.Time) []can.NodeID {
	var out []can.NodeID
	for id, e := range m.entries {
		if e.lastRankedBy >= since {
			out = append(out, id)
		}
	}
	slices.Sort(out)
	return out
}

func (m *mapView) rankedBy(id can.NodeID, now sim.Time) {
	if e := m.entries[id]; e != nil {
		e.lastRankedBy = now
	}
}

func (m *mapView) uncoveredFace(selfZone geom.Zone) bool {
	for dim := 0; dim < selfZone.Dims(); dim++ {
		for _, side := range []int{-1, +1} {
			if (side < 0 && selfZone.Lo[dim] <= 0) || (side > 0 && selfZone.Hi[dim] >= 1) {
				continue
			}
			got := 0.0
			for _, id := range m.ids() {
				z := m.entries[id].rec.Zone
				if adim, adir, ok := selfZone.Abuts(z); ok && adim == dim && adir == side {
					got += selfZone.FaceOverlap(z, dim)
				}
			}
			if got < selfZone.FaceArea(dim)*(1-1e-9) {
				return true
			}
		}
	}
	return false
}

func (m *mapView) emptyFace(selfZone geom.Zone) bool {
	covered := map[[2]int]bool{}
	for _, e := range m.entries {
		if dim, dir, ok := selfZone.Abuts(e.rec.Zone); ok {
			covered[[2]int{dim, dir}] = true
		}
	}
	for dim := 0; dim < selfZone.Dims(); dim++ {
		if (selfZone.Lo[dim] > 0 && !covered[[2]int{dim, -1}]) || (selfZone.Hi[dim] < 1 && !covered[[2]int{dim, +1}]) {
			return true
		}
	}
	return false
}

// opReader hands out the bytes of a fuzz input one at a time, then
// zeros once it is exhausted.
type opReader struct{ data []byte }

func (r *opReader) next() int {
	if len(r.data) == 0 {
		return 0
	}
	b := r.data[0]
	r.data = r.data[1:]
	return int(b)
}

// id draws from a small id space (0 is the view's owner) so operations
// collide on the same entries often.
func (r *opReader) id() can.NodeID { return can.NodeID(r.next() % 12) }

// zone draws a 2-d box on the quarter grid, so that boxes abut the
// owner's zone, overlap each other and repeat exactly.
func (r *opReader) zone() geom.Zone {
	var lo, hi geom.Point
	for d := 0; d < 2; d++ {
		b := r.next()
		a := b % 4
		w := 1 + (b/4)%(4-a)
		lo = append(lo, float64(a)/4)
		hi = append(hi, float64(a+w)/4)
	}
	return geom.Zone{Lo: lo, Hi: hi}
}

// idSet draws an ascending id set from a 12-bit mask.
func (r *opReader) idSet() []can.NodeID {
	mask := r.next() | r.next()<<8
	var out []can.NodeID
	for id := 0; id < 12; id++ {
		if mask&(1<<id) != 0 {
			out = append(out, can.NodeID(id))
		}
	}
	return out
}

// runViewOps decodes data into an operation sequence and applies every
// operation to the slice view and to the map oracle, failing at the
// first difference in a result, in the entries (all fields, in id
// order) or in the tombstones.
func runViewOps(t *testing.T, label string, data []byte) {
	t.Helper()
	const self = can.NodeID(0)
	r := &opReader{data: data}
	v, m := newView(), newMapView()
	selfZone := zone2(0.25, 0.25, 0.5, 0.75)
	now := sim.Time(100)
	for step := 0; len(r.data) > 0; step++ {
		op := r.next() % 13
		now += sim.Time(r.next() % 6)
		fail := func(format string, args ...any) {
			t.Helper()
			t.Fatalf("%s step %d op %d: "+format, append([]any{label, step, op}, args...)...)
		}
		switch op {
		case 0:
			rec := Record{ID: r.id(), Zone: r.zone()}
			v.direct(rec, now)
			m.direct(rec, now)
		case 1:
			rec := Record{ID: r.id(), Zone: r.zone()}
			grace := now - sim.Time(r.next()%8)
			v.indirect(rec, now, grace)
			m.indirect(rec, now, grace)
		case 2:
			id, until := r.id(), now+sim.Time(r.next()%24)
			v.bury(id, until)
			m.bury(id, until)
		case 3:
			id := r.id()
			v.remove(id)
			delete(m.entries, id)
		case 4:
			// Deadlines near now hit lastHeard and lastRankedBy exactly,
			// exercising the strict-boundary rule on both sides.
			deadline := now - sim.Time(r.next()%16)
			passive := sim.Time(-1 << 60)
			if b := r.next(); b%2 == 1 {
				passive = deadline - sim.Time(b%12)
			}
			until := now + sim.Time(r.next()%24)
			got, want := v.expire(deadline, passive, until), m.expire(deadline, passive, until)
			if !slices.Equal(got, want) {
				fail("expire = %v, want %v", got, want)
			}
		case 5:
			ids := r.idSet()
			v.markRanked(ids)
			m.markRanked(ids)
		case 6:
			perFace := r.next() % 4
			got, want := v.ranked(selfZone, perFace), m.ranked(selfZone, perFace)
			if !slices.Equal(got, want) {
				fail("ranked(%d) = %v, want %v", perFace, got, want)
			}
			v.markRanked(got)
			m.markRanked(want)
		case 7:
			since := now - sim.Time(r.next()%16)
			if got, want := v.reciprocals(since), m.reciprocals(since); !slices.Equal(got, want) {
				fail("reciprocals = %v, want %v", got, want)
			}
		case 8:
			selfZone = r.zone()
			v.keepAbutting(selfZone)
			m.keepAbutting(selfZone)
		case 9:
			// An id-ascending table, as on the wire; about half its records
			// repeat the view's current record (the fast path). One table in
			// four is reversed: merge must land out-of-order records too.
			var table []Record
			for _, id := range r.idSet() {
				z, ok := v.zoneOf(id)
				if b := r.next(); !ok || b%2 == 0 {
					z = r.zone()
				}
				table = append(table, Record{ID: id, Zone: z})
			}
			if r.next()%4 == 0 {
				slices.Reverse(table)
			}
			grace := now - sim.Time(r.next()%8)
			v.merge(self, selfZone, table, now, grace)
			m.merge(self, selfZone, table, now, grace)
		case 10:
			id := r.id()
			v.rankedBy(id, now)
			m.rankedBy(id, now)
		case 11:
			if got, want := v.uncoveredFace(selfZone), m.uncoveredFace(selfZone); got != want {
				fail("uncoveredFace = %v, want %v", got, want)
			}
			if got, want := v.emptyFace(selfZone), m.emptyFace(selfZone); got != want {
				fail("emptyFace = %v, want %v", got, want)
			}
		case 12:
			id := r.id()
			if got, want := v.tombstoned(id, now), m.tombstoned(id, now); got != want {
				fail("tombstoned(%d) = %v, want %v", id, got, want)
			}
		}
		ids := m.ids()
		if len(v.entries) != len(ids) {
			fail("view holds %v, oracle %v", v.appendIDs(nil), ids)
		}
		for i, id := range ids {
			got, want := v.entries[i], *m.entries[id]
			if got.rec.ID != id || !got.rec.Zone.Equal(want.rec.Zone) || got.lastHeard != want.lastHeard ||
				got.lastDirect != want.lastDirect || got.lastRankedBy != want.lastRankedBy || got.rankedByUs != want.rankedByUs {
				fail("entry %d = %+v, want %+v", i, got, want)
			}
		}
		if !maps.Equal(v.tombstones, m.tombstones) {
			fail("tombstones %v, want %v", v.tombstones, m.tombstones)
		}
	}
}

// TestViewMatchesMapOracle drives random operation sequences through
// the slice view and the map oracle.
func TestViewMatchesMapOracle(t *testing.T) {
	for seed := uint64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewPCG(seed, 1))
		data := make([]byte, 600)
		for i := range data {
			data[i] = byte(rng.Uint32())
		}
		runViewOps(t, fmt.Sprintf("seed %d", seed), data)
	}
}

// FuzzViewOps is runViewOps on fuzzer input. The seeds spell out one
// operation per row: op, clock step, then the op's own bytes. The owner
// starts at x [¼,½] × y [¼,¾]; zone bytes (0,5), (2,5), (1,3) and (1,0)
// are its left, right, top and bottom neighbors.
func FuzzViewOps(f *testing.F) {
	f.Add([]byte{})
	// Fill and rank a view, then expire it at the exact deadline (all
	// survive) and one tick past it (all are buried).
	f.Add([]byte{
		0, 1, 3, 0, 5, // direct 3, left, at 101
		0, 0, 4, 2, 5, // direct 4, right
		1, 0, 5, 1, 3, 0, // indirect 5, top, grace 101
		6, 0, 1, // ranked, one per face: 3, 4, 5
		4, 4, 4, 0, 20, // expire at 105, deadline 101: none gone
		4, 1, 4, 0, 20, // expire at 106, deadline 102: 3, 4, 5 gone
		12, 0, 3, // 3 is tombstoned
	})
	// A table that fast-paths, corrects, inserts and skips, then an
	// adoptZone that drops the neighbor it no longer abuts.
	f.Add([]byte{
		0, 0, 3, 0, 5, // direct 3, left
		0, 0, 4, 1, 0, // direct 4, bottom
		9, 1, 0xd8, 0x00, // table of 3, 4, 6, 7
		1,       // 3: the zone it has (fast path)
		0, 4, 0, // 4: widened to x [0,½] (correction)
		0, 2, 5, // 6: right (insert)
		0, 15, 15, // 7: the far corner, not abutting (skipped)
		1, 0, // in order, grace now
		8, 0, 1, 2, // adopt x [¼,½] × y [½,¾]: 4 no longer abuts
		11, 0, // face tests
	})
	// Tombstones: bury, a blocked indirect, then a reversed table after
	// the tombstone expires.
	f.Add([]byte{
		0, 0, 3, 0, 5, // direct 3, left
		2, 0, 3, 10, // bury 3 until 110
		1, 1, 3, 0, 5, 0, // indirect 3 at 101: blocked
		12, 5, 3, // 3 is still tombstoned at 106
		9, 5, 0x48, 0x00, // at 111, table of 3 and 6
		0, 0, 5, // 3: left
		0, 2, 5, // 6: right
		4, 0, // reversed, grace now
		12, 0, 3, // 3's tombstone is gone
	})
	f.Fuzz(func(t *testing.T, data []byte) {
		runViewOps(t, "fuzz", data)
	})
}

// TestUncoveredFaceSumsInIDOrder pins the coverage verdict on
// overlapping stale records whose overlaps, summed in different orders,
// land on different sides of the need·(1−1e-9) cut. The map-keyed view
// summed in random map order, so such a face could flip between runs;
// the ordered walk sums in id order, whatever order the records arrived
// in.
func TestUncoveredFaceSumsInIDOrder(t *testing.T) {
	// Self owns the right half; its only inner face is x = 0.5 (low
	// side), with need = 1. Every record abuts that face with the y
	// extent [0, top), so its overlap is exactly top.
	self := zone2(0.5, 0, 1, 1)
	cut := self.FaceArea(0) * (1 - 1e-9)
	// big is the largest float below cut with an even mantissa, so big
	// plus half an ulp rounds back to big; four half-ulp slivers added
	// to big one by one leave it below the cut, while the slivers summed
	// first reach it.
	below := math.Nextafter(cut, 0)
	big := below
	if math.Float64bits(big)&1 == 1 {
		big = math.Nextafter(big, 0)
	}
	sliver := (cut - below) / 2
	if !(((big+sliver)+sliver)+sliver+sliver < cut && big+(sliver+sliver+sliver+sliver) >= cut) {
		t.Fatal("test premise: summation order does not straddle the cut")
	}
	rec := func(id can.NodeID, top float64) Record {
		return Record{ID: id, Zone: zone2(0.25, 0, 0.5, top)}
	}
	cases := []struct {
		name string
		recs []Record
		want bool
	}{
		// big first in id order: the slivers vanish, the face reads open.
		{"big first", []Record{rec(1, big), rec(2, sliver), rec(3, sliver), rec(4, sliver), rec(5, sliver)}, true},
		// big last: the slivers add up first and close the face.
		{"big last", []Record{rec(1, sliver), rec(2, sliver), rec(3, sliver), rec(4, sliver), rec(9, big)}, false},
	}
	for _, c := range cases {
		got := 0.0
		for _, r := range c.recs { // the id-order sum
			got += self.FaceOverlap(r.Zone, 0)
		}
		if (got < cut) != c.want {
			t.Fatalf("%s: id-order sum %v vs cut %v does not give %v", c.name, got, cut, c.want)
		}
		rng := rand.New(rand.NewPCG(7, 7))
		for trial := 0; trial < 50; trial++ {
			v := newView()
			for _, i := range rng.Perm(len(c.recs)) {
				v.direct(c.recs[i], 0)
			}
			if v.uncoveredFace(self) != c.want {
				t.Fatalf("%s trial %d: uncoveredFace = %v, want %v", c.name, trial, !c.want, c.want)
			}
		}
	}
}
