package can

import (
	"fmt"
	"math"

	"hetgrid/internal/geom"
)

// boundaryEps charges a tiny distance for sitting exactly on a zone's
// high boundary. Zones are half-open, so a point with p[i] == Hi[i] is
// not contained; without the epsilon such a point would be at distance
// zero from zones that merely touch it, stalling greedy routing on the
// plateau (job coordinates frequently coincide with split planes since
// both come from the same discrete resource catalogs). With it,
// distance zero holds exactly when the zone contains the point, and
// each touching dimension resolved strictly decreases the distance.
const boundaryEps = 1e-9

// zoneDistance is the Euclidean distance from point p to the zone as a
// half-open set: the per-dimension gap between p and z's extent,
// squared and summed. Zero exactly when z contains p.
func zoneDistance(z geom.Zone, p geom.Point) float64 {
	sum := 0.0
	for i := range p {
		var gap float64
		switch {
		case p[i] < z.Lo[i]:
			gap = z.Lo[i] - p[i]
		case p[i] >= z.Hi[i]:
			gap = p[i] - z.Hi[i] + boundaryEps
		}
		sum += gap * gap
	}
	return math.Sqrt(sum)
}

// Route performs greedy CAN routing from the node from toward the node
// owning target: at each hop it forwards to the neighbor whose zone is
// closest to the target (ties broken by lowest ID for determinism). It
// returns the full path including both endpoints. Because zones
// partition the space, greedy forwarding makes strict progress and
// always terminates at the owner.
func (o *Overlay) Route(from NodeID, target geom.Point) ([]*Node, error) {
	return o.RouteAppend(nil, from, target)
}

// RouteAppend is Route with a caller-supplied path buffer: the path is
// appended to path[:0], so a scheduler placing jobs in a loop can reuse
// one buffer and route without allocating. The returned slice aliases
// the buffer (grown if needed).
func (o *Overlay) RouteAppend(path []*Node, from NodeID, target geom.Point) ([]*Node, error) {
	path = path[:0]
	cur := o.nodes[from]
	if cur == nil {
		return nil, fmt.Errorf("can: route from unknown node %d", from)
	}
	if len(target) != o.dims {
		return nil, fmt.Errorf("can: target has %d dims, overlay has %d", len(target), o.dims)
	}
	path = append(path, cur)
	maxHops := 10*len(o.nodes) + 10
	for !cur.Zone.Contains(target) {
		curDist := zoneDistance(cur.Zone, target)
		next, bestDist := o.closestNeighbor(cur.ID, target)
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

// closestNeighbor picks one greedy routing hop from node id toward p:
// the first neighbor in ID order whose zone contains p, else the first
// neighbor at the strictly smallest zoneDistance. It returns nil when
// every neighbor is at infinite distance.
//
// The result is exactly that of testing Contains and then zoneDistance
// on every neighbor, at a fraction of the cost:
//
//   - Containment falls out of the distance loop: a zone contains p
//     exactly when no dimension contributes a gap.
//   - A neighbor is abandoned as soon as its partial squared-gap sum
//     reaches the best full sum so far. Float addition of non-negative
//     terms never decreases a sum and math.Sqrt is monotone, so its
//     distance could not have been strictly smaller than the best.
//   - Survivors are still compared as sqrt(sum) < bestDist. Distinct
//     sums can share a square root, so comparing the sums themselves
//     would break the first-wins tie rule.
func (o *Overlay) closestNeighbor(id NodeID, p geom.Point) (*Node, float64) {
	var best *Node
	bestDist, bestSum := math.Inf(1), math.Inf(1)
neighbors:
	for _, nb := range o.NeighborView(id) {
		lo, hi := nb.Zone.Lo[:len(p)], nb.Zone.Hi[:len(p)]
		sum, outside := 0.0, false
		for i, x := range p {
			var gap float64
			switch {
			case x < lo[i]:
				gap = lo[i] - x
			case x >= hi[i]:
				gap = x - hi[i] + boundaryEps
			default:
				continue
			}
			outside = true
			sum += gap * gap
			if sum >= bestSum {
				continue neighbors
			}
		}
		if !outside {
			return nb, 0
		}
		if d := math.Sqrt(sum); d < bestDist {
			best, bestDist, bestSum = nb, d, sum
		}
	}
	return best, bestDist
}
