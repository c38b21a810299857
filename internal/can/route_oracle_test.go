package can_test

import (
	"fmt"
	"math"
	"testing"

	"hetgrid/internal/can"
	"hetgrid/internal/geom"
	"hetgrid/internal/resource"
	"hetgrid/internal/rng"
	"hetgrid/internal/workload"
)

// refBoundaryEps and refZoneDistance freeze the distance the greedy
// router has always used, so the reference below does not follow future
// edits of the code under test.
const refBoundaryEps = 1e-9

func refZoneDistance(z geom.Zone, p geom.Point) float64 {
	sum := 0.0
	for i := range p {
		var gap float64
		switch {
		case p[i] < z.Lo[i]:
			gap = z.Lo[i] - p[i]
		case p[i] >= z.Hi[i]:
			gap = p[i] - z.Hi[i] + refBoundaryEps
		}
		sum += gap * gap
	}
	return math.Sqrt(sum)
}

// refRoute is the unpruned greedy router: at every hop it tests each
// neighbor with Contains, then with the full zone distance, keeping the
// first strict minimum in ID order.
func refRoute(o *can.Overlay, from can.NodeID, target geom.Point) ([]*can.Node, error) {
	cur := o.Node(from)
	if cur == nil {
		return nil, fmt.Errorf("can: route from unknown node %d", from)
	}
	if len(target) != o.Dims() {
		return nil, fmt.Errorf("can: target has %d dims, overlay has %d", len(target), o.Dims())
	}
	path := []*can.Node{cur}
	maxHops := 10*o.Len() + 10
	for !cur.Zone.Contains(target) {
		curDist := refZoneDistance(cur.Zone, target)
		var next *can.Node
		bestDist := math.Inf(1)
		for _, nb := range o.NeighborView(cur.ID) {
			if nb.Zone.Contains(target) {
				next, bestDist = nb, 0
				break
			}
			if d := refZoneDistance(nb.Zone, target); d < bestDist {
				bestDist, next = d, nb
			}
		}
		if next == nil || bestDist >= curDist {
			return path, fmt.Errorf("can: routing stuck at node %d (dist %g): adjacency violated", cur.ID, curDist)
		}
		cur = next
		path = append(path, cur)
		if len(path) > maxHops {
			return path, fmt.Errorf("can: routing exceeded %d hops", maxHops)
		}
	}
	return path, nil
}

// checkRoute asserts that RouteAppend and the reference agree on the
// whole path and on the error.
func checkRoute(t *testing.T, o *can.Overlay, buf []*can.Node, from can.NodeID, target geom.Point) []*can.Node {
	t.Helper()
	got, gotErr := o.RouteAppend(buf, from, target)
	want, wantErr := refRoute(o, from, target)
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("route %d → %v: error %v, reference %v", from, target, gotErr, wantErr)
	}
	if len(got) != len(want) {
		t.Fatalf("route %d → %v: %d hops, reference %d", from, target, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("route %d → %v: hop %d is node %d, reference %d", from, target, i, got[i].ID, want[i].ID)
		}
	}
	if got != nil {
		return got
	}
	return buf
}

// boundaryTarget draws a target whose coordinates sit on zone faces:
// each dimension takes the Lo or Hi of a random node's zone (split
// planes and Hi faces), with an occasional interior value mixed in.
func boundaryTarget(s *rng.Stream, nodes []*can.Node, dims int) geom.Point {
	p := make(geom.Point, dims)
	for i := range p {
		z := nodes[s.Intn(len(nodes))].Zone
		switch s.Intn(5) {
		case 0:
			p[i] = s.Float64()
		case 1, 2:
			p[i] = z.Lo[i]
		default:
			p[i] = z.Hi[i]
		}
	}
	return p
}

// churnOverlay joins up to n nodes drawn by point (skipping collisions,
// within a bounded number of draws) and lets about a fifth of them leave
// again, so the routes run over views rebuilt after take-overs and
// merges.
func churnOverlay(t testing.TB, dims, n int, s *rng.Stream, point func() geom.Point) *can.Overlay {
	o := can.NewOverlay(dims)
	var live []can.NodeID
	for draws := 0; len(live) < n && draws < 20*n; draws++ {
		nd, err := o.Join(point(), nil)
		if err != nil {
			continue
		}
		live = append(live, nd.ID)
		if len(live) > 4 && s.Intn(5) == 0 {
			k := s.Intn(len(live))
			if _, err := o.Leave(live[k]); err != nil {
				t.Fatalf("leave %d: %v", live[k], err)
			}
			live[k] = live[len(live)-1]
			live = live[:len(live)-1]
		}
	}
	return o
}

// TestRouteMatchesReference routes between random nodes of random
// overlays (d = 2, 3, 5 and 11; uniform and coarse-lattice coordinates)
// to random, face-aligned and out-of-space targets, and over a Fig 5
// fleet to the fleet's own job points, asserting every path and error
// equals the unpruned reference router's.
func TestRouteMatchesReference(t *testing.T) {
	var buf []*can.Node
	for _, dims := range []int{2, 3, 5, 11} {
		for seed := int64(1); seed <= 3; seed++ {
			s := rng.New(seed*100 + int64(dims))
			uniform := func() geom.Point {
				p := make(geom.Point, dims)
				for i := range p {
					p[i] = s.Float64() * 0.999
				}
				return p
			}
			// A coarse lattice makes zone faces, gaps and distance ties
			// recur, which is where tie-breaking mistakes show.
			lattice := func() geom.Point {
				p := make(geom.Point, dims)
				for i := range p {
					p[i] = float64(s.Intn(8)) / 8
				}
				return p
			}
			for _, gen := range []func() geom.Point{uniform, lattice} {
				o := churnOverlay(t, dims, 150, s, gen)
				if err := o.Validate(); err != nil {
					t.Fatalf("d=%d seed %d: %v", dims, seed, err)
				}
				nodes := o.Nodes()
				for k := 0; k < 300; k++ {
					from := nodes[s.Intn(len(nodes))].ID
					var target geom.Point
					switch k % 4 {
					case 0:
						target = uniform()
					case 1:
						target = gen()
					case 2:
						target = boundaryTarget(s, nodes, dims)
					default:
						target = nodes[s.Intn(len(nodes))].Zone.Hi.Clone()
					}
					buf = checkRoute(t, o, buf, from, target)
				}
				// Off-space and malformed requests take the error paths.
				from := nodes[0].ID
				buf = checkRoute(t, o, buf, from, make(geom.Point, dims+1))
				buf = checkRoute(t, o, buf, -1, make(geom.Point, dims))
				for _, v := range []float64{1, -0.5, math.Inf(1), math.NaN()} {
					target := uniform()
					target[s.Intn(dims)] = v
					buf = checkRoute(t, o, buf, from, target)
				}
			}
		}
	}

	// A Fig 5 fleet: the 11-dimensional space with two accelerator
	// slots, joined the way the load-balance experiments join it, routed
	// to the job points its workload generator produces.
	space := resource.NewSpace(2)
	o := can.NewOverlay(space.Dims())
	ngen := workload.NewNodeGen(space, 1)
	s := rng.New(5)
	for i := 0; i < 400; i++ {
		if _, err := can.JoinRedraw(o.Join, space, ngen.One(), s); err != nil {
			t.Fatal(err)
		}
	}
	jgen := workload.NewJobGen(space, 1)
	nodes := o.Nodes()
	for k := 0; k < 2000; k++ {
		j, _ := jgen.Next()
		virtual := s.Float64()
		if k%10 == 0 {
			virtual = 0
		}
		buf = checkRoute(t, o, buf, nodes[s.Intn(len(nodes))].ID, space.JobPoint(j.Req, virtual))
	}
}

// FuzzRoute builds a small overlay from a seed and routes to targets
// decoded from raw bytes — each coordinate is either a zone face of
// some node, a fraction, or an arbitrary float64 bit pattern (NaN,
// infinities, negatives, subnormals) — asserting agreement with the
// unpruned reference router.
func FuzzRoute(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed int64, dimSel, size uint8, raw []byte) {
		dims := []int{2, 3, 5, 11}[dimSel%4]
		s := rng.New(seed)
		o := churnOverlay(t, dims, 2+int(size)%64, s, func() geom.Point {
			p := make(geom.Point, dims)
			for i := range p {
				if seed%2 == 0 {
					p[i] = float64(s.Intn(16)) / 16
				} else {
					p[i] = s.Float64() * 0.999
				}
			}
			return p
		})
		nodes := o.Nodes()
		var buf []*can.Node
		for len(raw) >= 9*dims {
			target := make(geom.Point, dims)
			for i := range target {
				chunk := raw[9*i : 9*i+9]
				var bits uint64
				for _, b := range chunk[1:] {
					bits = bits<<8 | uint64(b)
				}
				z := nodes[int(bits%uint64(len(nodes)))].Zone
				switch chunk[0] % 4 {
				case 0:
					target[i] = z.Lo[i]
				case 1:
					target[i] = z.Hi[i]
				case 2:
					target[i] = float64(bits>>11) / (1 << 53)
				default:
					target[i] = math.Float64frombits(bits)
				}
			}
			raw = raw[9*dims:]
			from := nodes[s.Intn(len(nodes))].ID
			buf = checkRoute(t, o, buf, from, target)
		}
	})
}
