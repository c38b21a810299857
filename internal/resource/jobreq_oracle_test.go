package resource

import (
	"math/rand/v2"
	"sort"
	"testing"

	"hetgrid/internal/geom"
)

// mapReq is the reference representation the type-sorted slice
// replaced: requirements keyed by CE type. The oracle functions below
// are the map-keyed Satisfies, CoresOn, DominantCE and JobPointInto,
// kept verbatim so the slice versions can be compared against them.
type mapReq struct {
	CE   map[CEType]CEReq
	Disk float64
}

func toMapReq(r JobReq) mapReq {
	m := mapReq{CE: map[CEType]CEReq{}, Disk: r.Disk}
	for _, q := range r.CE {
		m.CE[q.Type] = q
	}
	return m
}

func (r mapReq) types() []CEType {
	ts := make([]CEType, 0, len(r.CE))
	for t := range r.CE {
		ts = append(ts, t)
	}
	sort.Slice(ts, func(i, j int) bool { return ts[i] < ts[j] })
	return ts
}

func (r mapReq) coresOn(t CEType) int {
	q, ok := r.CE[t]
	if !ok {
		return 0
	}
	if q.Cores < 1 {
		return 1
	}
	return q.Cores
}

func oracleSatisfies(n *NodeCaps, r mapReq) bool {
	if n.Disk < r.Disk {
		return false
	}
	for t, q := range r.CE {
		ce := n.CE(t)
		if ce == nil {
			return false
		}
		if ce.Clock < q.Clock || ce.Memory < q.Memory || ce.Cores < r.coresOn(t) {
			return false
		}
	}
	return true
}

func oracleDominantCE(r mapReq) CEType {
	if len(r.CE) == 0 {
		return TypeCPU
	}
	best := CEType(-1)
	bestScore := -1.0
	for _, t := range r.types() {
		q := r.CE[t]
		score := q.Memory + float64(r.coresOn(t))
		if score > bestScore || (score == bestScore && t > best) {
			best, bestScore = t, score
		}
	}
	return best
}

func oracleJobPointInto(s *Space, p geom.Point, r mapReq, virtual float64) geom.Point {
	for i := range p {
		p[i] = 0
	}
	if q, ok := r.CE[TypeCPU]; ok {
		p[0] = normCoord(q.Clock, s.Norms.CPUClock)
		p[1] = normCoord(q.Memory, s.Norms.Memory)
		p[3] = normCoord(float64(r.coresOn(TypeCPU)), float64(s.Norms.CPUCores))
	}
	p[2] = normCoord(r.Disk, s.Norms.Disk)
	for slot := 1; slot <= s.GPUSlots; slot++ {
		q, ok := r.CE[CEType(slot)]
		if !ok {
			continue
		}
		base := s.ceBase(CEType(slot))
		p[base] = normCoord(q.Clock, s.Norms.GPUClock)
		p[base+1] = normCoord(q.Memory, s.Norms.GPUMemory)
		p[base+2] = normCoord(float64(r.coresOn(CEType(slot))), float64(s.Norms.GPUCores))
	}
	if virtual < 0 {
		virtual = 0
	}
	if virtual > maxCoord {
		virtual = maxCoord
	}
	p[s.VirtualDim()] = virtual
	return p
}

// byteSrc hands out fuzz bytes, then zeros once the input runs out, so
// every input decodes to some case.
type byteSrc []byte

func (b *byteSrc) next() int {
	if len(*b) == 0 {
		return 0
	}
	v := (*b)[0]
	*b = (*b)[1:]
	return int(v)
}

// maxReqType is one past the highest CE type a decoded request may
// name: type 4 never exists on a node (at most 3 GPU slots), so it
// exercises the missing-type path even on fully equipped nodes.
const maxReqType = 5

// decodeNode builds a valid node with 0–3 GPU slots from the source.
// Amounts sit on coarse grids shared with decodeReq so that exact
// equality (a node meeting a requirement on the nose) is common.
func decodeNode(b *byteSrc) (*NodeCaps, int) {
	slots := b.next() % 4
	n := &NodeCaps{
		CEs: []CE{{
			Type:   TypeCPU,
			Clock:  0.5 * float64(1+b.next()%8),
			Cores:  1 + b.next()%8,
			Memory: float64(b.next() % 17),
		}},
		Disk:    float64(b.next()%5) * 250,
		Virtual: float64(b.next()%256) / 256,
	}
	for t := 1; t <= slots; t++ {
		flags := b.next()
		if flags&1 == 0 {
			continue // the node lacks this accelerator type
		}
		n.CEs = append(n.CEs, CE{
			Type:      CEType(t),
			Dedicated: flags&2 == 0,
			Clock:     0.25 * float64(1+b.next()%8),
			Cores:     32 * (1 + b.next()%8),
			Memory:    float64(b.next() % 7),
		})
	}
	return n, slots
}

// decodeReq builds a valid (type-sorted) request naming any subset of
// CE types 0..maxReqType-1. Zero amounts are frequent: Cores 0 counts as
// one core, and small memory/core grids make DominantCE ties common.
func decodeReq(b *byteSrc) JobReq {
	present := b.next()
	r := JobReq{Disk: float64(b.next()%5) * 250}
	for t := CEType(0); t < maxReqType; t++ {
		if present&(1<<t) == 0 {
			continue
		}
		q := CEReq{
			Type:   t,
			Clock:  0.25 * float64(b.next()%9),
			Memory: float64(b.next() % 9),
			Cores:  b.next() % 10,
		}
		if t != TypeCPU && b.next()%2 == 0 {
			q.Cores *= 32 // accelerator-sized demand
		}
		r.CE = append(r.CE, q)
	}
	return r
}

// checkJobReqCase decodes one node and one request and compares every
// slice-backed query with its map-keyed oracle.
func checkJobReqCase(t *testing.T, data []byte) {
	t.Helper()
	b := byteSrc(data)
	n, slots := decodeNode(&b)
	if err := n.Validate(); err != nil {
		t.Fatalf("decoder built an invalid node: %v", err)
	}
	r := decodeReq(&b)
	if err := r.Validate(); err != nil {
		t.Fatalf("decoder built an invalid request %+v: %v", r, err)
	}
	m := toMapReq(r)

	if got, want := Satisfies(n, r), oracleSatisfies(n, m); got != want {
		t.Fatalf("Satisfies(%v, %+v) = %v, oracle %v", n, r, got, want)
	}
	for ty := CEType(0); ty < maxReqType; ty++ {
		q, ok := r.Req(ty)
		_, want := m.CE[ty]
		cores := 0
		if ok {
			cores = q.CoresNeeded()
		}
		if ok != want || cores != m.coresOn(ty) {
			t.Fatalf("Req(%v) on %+v = (%d cores, %v), oracle (%d, %v)", ty, r, cores, ok, m.coresOn(ty), want)
		}
	}
	if got, want := DominantCE(r), oracleDominantCE(m); got != want {
		t.Fatalf("DominantCE(%+v) = %v, oracle %v", r, got, want)
	}
	s := NewSpace(slots)
	virtual := float64(b.next()%300)/256 - 0.1 // exercises both clamps
	got := s.JobPointInto(make(geom.Point, s.Dims()), r, virtual)
	want := oracleJobPointInto(s, make(geom.Point, s.Dims()), m, virtual)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("JobPointInto(%+v) dim %d (%s) = %v, oracle %v", r, i, s.DimName(i), got[i], want[i])
		}
	}
	c := r.Clone()
	if len(c.CE) != len(r.CE) || c.Disk != r.Disk || (len(c.CE) > 0 && &c.CE[0] == &r.CE[0]) {
		t.Fatalf("Clone(%+v) = %+v", r, c)
	}
}

// TestJobReqMatchesMapOracle compares the slice-backed requirement
// queries with their map-keyed oracles on random nodes and requests.
func TestJobReqMatchesMapOracle(t *testing.T) {
	for seed := uint64(0); seed < 5000; seed++ {
		rng := rand.New(rand.NewPCG(seed, 13))
		data := make([]byte, 48)
		for i := range data {
			data[i] = byte(rng.Uint32())
		}
		checkJobReqCase(t, data)
	}
}

// FuzzJobReq is checkJobReqCase on fuzzer input. Bytes decode as: GPU
// slot count, CPU clock/cores/memory, disk, virtual coordinate, then per
// slot a presence/dedicated flag byte and clock/cores/memory; then the
// request's type bitmask, disk and per named type clock/memory/cores
// (plus an accelerator scaling byte); then the job's virtual value.
func FuzzJobReq(f *testing.F) {
	f.Add([]byte{})
	// A CUDA-style job on a two-slot node: CPU control thread plus a
	// gpu1 demand met exactly.
	f.Add([]byte{2, 3, 3, 8, 2, 128, 1, 3, 3, 4, 0, 0b011, 1, 2, 1, 1, 2, 3, 4, 0, 128})
	// A DominantCE tie (memory + cores equal on cpu and gpu1): the
	// accelerator must win.
	f.Add([]byte{1, 7, 7, 16, 4, 0, 1, 7, 7, 6, 0b011, 0, 0, 2, 2, 0, 2, 2, 1})
	// Zero cores everywhere (each counts as one) and a type the node
	// lacks (gpu4 never exists).
	f.Add([]byte{3, 1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0, 0, 0, 0b10001, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		checkJobReqCase(t, data)
	})
}
