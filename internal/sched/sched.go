package sched

import (
	"errors"
	"fmt"

	"hetgrid/internal/can"
	"hetgrid/internal/exec"
	"hetgrid/internal/geom"
	"hetgrid/internal/resource"
	"hetgrid/internal/rng"
	"hetgrid/internal/sim"
)

// Scheduler assigns a run node to each job. Place returns the chosen
// node; the caller then submits the job to the cluster.
type Scheduler interface {
	Name() string
	Place(j *exec.Job) (can.NodeID, error)
}

// ErrUnmatchable is returned when no reachable node satisfies a job's
// requirements.
var ErrUnmatchable = errors.New("sched: no node satisfies the job")

// maxPushHops caps the pushing walk; in a healthy CAN the stop
// probability terminates walks long before this.
const maxPushHops = 128

// Stats accumulates matchmaking telemetry.
type Stats struct {
	Placed       int
	RouteHops    int // CAN routing hops to the job's coordinate
	PushHops     int // job-pushing hops after routing
	FreePicks    int // run node chosen because it was a free node
	AcceptPicks  int // run node chosen as an acceptable (non-free) node
	ScorePicks   int // run node chosen by the score function
	Unmatchable  int
	BoostedWalks int // hops spent escaping a non-satisfying region
	Fallbacks    int // placements that needed the expanding-search fallback
}

func (s Stats) String() string {
	return fmt.Sprintf("placed=%d route=%d push=%d free=%d accept=%d score=%d fallback=%d unmatchable=%d",
		s.Placed, s.RouteHops, s.PushHops, s.FreePicks, s.AcceptPicks, s.ScorePicks, s.Fallbacks, s.Unmatchable)
}

// StatsOf exposes a scheduler's Stats for telemetry, or nil for
// scheduler types that keep none.
func StatsOf(s Scheduler) *Stats {
	switch t := s.(type) {
	case *CanHet:
		return &t.Stats
	case *CanHom:
		return &t.Stats
	case *Central:
		return &t.Stats
	}
	return nil
}

// Probe observes the causal steps of one placement — submit, route
// path, push hops, and the final match — for span tracing. Probes are
// telemetry-only: they must not mutate scheduling state, and a nil
// Context.Probe costs nothing on the placement hot path.
type Probe interface {
	// PlaceBegin opens a span for the job about to be placed.
	PlaceBegin(j *exec.Job)
	// RoutePath reports the CAN routing path (entry first). The slice
	// aliases scheduler scratch and is valid only during the call.
	RoutePath(path []*can.Node)
	// PushHop reports one pushing (or boosting) hop to n.
	PushHop(n *can.Node)
	// Match closes the span with the chosen node and the pick kind:
	// "free", "accept", "score", or "fallback".
	Match(node can.NodeID, kind string)
	// Unmatched closes the span with no placement.
	Unmatched()
}

func (c *Context) probeBegin(j *exec.Job) {
	if c.Probe != nil {
		c.Probe.PlaceBegin(j)
	}
}

func (c *Context) probeRoute(path []*can.Node) {
	if c.Probe != nil {
		c.Probe.RoutePath(path)
	}
}

func (c *Context) probePush(n *can.Node) {
	if c.Probe != nil {
		c.Probe.PushHop(n)
	}
}

func (c *Context) probeMatch(node can.NodeID, kind string) {
	if c.Probe != nil {
		c.Probe.Match(node, kind)
	}
}

func (c *Context) probeUnmatched() {
	if c.Probe != nil {
		c.Probe.Unmatched()
	}
}

// Context bundles what every decentralized scheduler needs.
type Context struct {
	Eng     *sim.Engine
	Ov      *can.Overlay
	Cluster *exec.Cluster
	Space   *resource.Space
	Agg     *AggTable

	// StoppingFactor is Equation 4's SF.
	StoppingFactor float64
	// RefreshPeriod is the aggregation cadence (the heartbeat period).
	RefreshPeriod sim.Duration
	// DisableVirtualSpread routes every job with virtual coordinate 0
	// instead of a random draw — the ablation for the virtual
	// dimension's load-spreading role (Section II-B).
	DisableVirtualSpread bool

	// Probe, when non-nil, observes each placement's causal steps for
	// span tracing. Telemetry-only: it never alters decisions.
	Probe Probe

	rnd         *rng.Stream
	lastRefresh sim.Time
	refreshed   bool

	// Per-placement scratch. A Context serves one placement at a time;
	// these buffers are recycled across Place calls so a steady-state
	// placement allocates nothing. satBuf and satMask describe satNode's
	// neighborhood and are overwritten when satisfying() moves to another
	// node, so they are valid only until the next hop.
	satBuf      []*can.Node
	satMask     []bool    // satMask[i]: NeighborView(satNode)[i] satisfies the job
	satNode     *can.Node // node satBuf/satMask describe; nil at placement start
	acceptBuf   []*can.Node
	freeBuf     []*can.Node
	fallbackBuf []*can.Node
	pathBuf     []*can.Node
	jobPtBuf    geom.Point
}

// NewContext wires a scheduling context. Aggregated load information is
// refreshed lazily on the heartbeat cadence: a placement uses the table
// as of the last period boundary, exactly the staleness a real node
// sees between heartbeats.
func NewContext(eng *sim.Engine, ov *can.Overlay, cl *exec.Cluster, space *resource.Space, seed int64) *Context {
	return &Context{
		Eng:            eng,
		Ov:             ov,
		Cluster:        cl,
		Space:          space,
		Agg:            NewAggTable(space.Dims(), space.GPUSlots),
		StoppingFactor: 2,
		RefreshPeriod:  60 * sim.Second,
		rnd:            rng.NewSplit(seed, "sched"),
	}
}

// beginPlacement opens one Place call: it refreshes the aggregate
// table on its cadence, forgets the previous job's satisfying() result
// and opens the probe span.
func (c *Context) beginPlacement(j *exec.Job) {
	c.maybeRefresh()
	c.satNode = nil
	c.probeBegin(j)
}

// maybeRefresh recomputes the aggregate table when a full refresh
// period has elapsed since the last recomputation.
func (c *Context) maybeRefresh() {
	now := c.Eng.Now()
	if !c.refreshed || now.Sub(c.lastRefresh) >= c.RefreshPeriod {
		c.Agg.Refresh(c.Ov, c.Cluster)
		// Align to period boundaries so the refresh instant does not
		// drift with arrival times.
		period := sim.Time(c.RefreshPeriod)
		if period > 0 {
			c.lastRefresh = now - now%period
		} else {
			c.lastRefresh = now
		}
		c.refreshed = true
	}
}

// jobVirtual draws the virtual-dimension coordinate assigned to a job
// for routing (random, to spread placements across equivalent nodes),
// or 0 under the virtual-spread ablation.
func (c *Context) jobVirtual() float64 {
	v := c.rnd.Float64()
	if c.DisableVirtualSpread {
		return 0
	}
	return v
}

// jobPoint computes the job's routing coordinate into the per-Context
// scratch point (same contents as Space.JobPoint, without the
// allocation). The point is overwritten by the next placement.
func (c *Context) jobPoint(req resource.JobReq) geom.Point {
	if len(c.jobPtBuf) != c.Space.Dims() {
		c.jobPtBuf = make(geom.Point, c.Space.Dims())
	}
	return c.Space.JobPointInto(c.jobPtBuf, req, c.jobVirtual())
}

// route runs CAN routing into the per-Context path buffer. The returned
// path is valid until the next placement.
func (c *Context) route(from can.NodeID, target geom.Point) ([]*can.Node, error) {
	path, err := c.Ov.RouteAppend(c.pathBuf, from, target)
	if path != nil {
		c.pathBuf = path
	}
	return path, err
}

// randomEntry picks the node a client submits through (uniformly random,
// as in the evaluation).
func (c *Context) randomEntry() *can.Node {
	nodes := c.Ov.Nodes()
	if len(nodes) == 0 {
		return nil
	}
	return nodes[c.rnd.Intn(len(nodes))]
}

// satisfying filters cur and its neighbors down to nodes that statically
// satisfy the job, returned in deterministic (ID) order with cur first
// when it qualifies. It also records, per position in cur's
// NeighborView, whether that neighbor satisfies (satMask), so the push
// loops can test an Outward pair by its Pos instead of evaluating
// Satisfies again. A repeated call for the same node within one
// placement returns the recorded result (boost hands its last node to
// the push walk, which rescans it). The result aliases per-Context
// scratch and is valid only until satisfying moves to another node; the
// neighborhood comes from the overlay's cached view, so no scan or
// allocation happens here.
func (c *Context) satisfying(cur *can.Node, req resource.JobReq) []*can.Node {
	if cur == c.satNode {
		return c.satBuf
	}
	out := c.satBuf[:0]
	if cur.Caps != nil && resource.Satisfies(cur.Caps, req) {
		out = append(out, cur)
	}
	mask := c.satMask[:0]
	for _, nb := range c.Ov.NeighborView(cur.ID) {
		ok := nb.Caps != nil && resource.Satisfies(nb.Caps, req)
		mask = append(mask, ok)
		if ok {
			out = append(out, nb)
		}
	}
	c.satBuf, c.satMask, c.satNode = out, mask, cur
	return out
}

// pickFastest returns the node whose CE of type t has the highest clock
// speed (ties to the lowest ID). Nodes lacking the type rank last.
func pickFastest(nodes []*can.Node, t resource.CEType) *can.Node {
	var best *can.Node
	bestClock := -1.0
	for _, n := range nodes {
		clock := 0.0
		if ce := n.Caps.CE(t); ce != nil {
			clock = ce.Clock
		}
		if clock > bestClock || (clock == bestClock && best != nil && n.ID < best.ID) {
			best, bestClock = n, clock
		}
	}
	return best
}

// pickMinScore returns the node minimizing the Section III-B score
// function for dominant CE type t (ties to the lowest ID).
func (c *Context) pickMinScore(nodes []*can.Node, t resource.CEType) *can.Node {
	var best *can.Node
	bestScore := 0.0
	for _, n := range nodes {
		rt := c.Cluster.Runtime(n.ID)
		if rt == nil {
			continue
		}
		s := rt.Score(t)
		if best == nil || s < bestScore || (s == bestScore && n.ID < best.ID) {
			best, bestScore = n, s
		}
	}
	return best
}

// outwardNeighbors lists (neighbor, dimension) pairs where the neighbor
// sits on cur's high side — the directions a job can be pushed toward
// more capable regions. Served straight from the overlay's cached view:
// the Abuts tests ran once when the view was built, so a hop no longer
// re-scans the neighborhood (previously both satisfying and this helper
// walked Neighbors, scanning every hop's neighborhood twice).
func (c *Context) outwardNeighbors(cur *can.Node) []can.Outward {
	return c.Ov.OutwardView(cur.ID)
}

// boost walks the job out of a region whose nodes cannot satisfy it:
// it follows the dimension with the largest requirement deficit toward
// higher capability. Used when routing lands the job among
// under-provisioned nodes. Returns the first node reached that has a
// satisfying node in its neighborhood (possibly itself).
func (c *Context) boost(cur *can.Node, req resource.JobReq, jobPt []float64, st *Stats) (*can.Node, error) {
	for hop := 0; hop < maxPushHops; hop++ {
		if len(c.satisfying(cur, req)) > 0 {
			return cur, nil
		}
		// Move outward along the dimension where cur's zone is farthest
		// below the job's coordinate.
		var best *can.Outward
		bestDeficit := 0.0
		outs := c.outwardNeighbors(cur)
		for i := range outs {
			o := &outs[i]
			deficit := jobPt[o.Dim] - cur.Zone.Hi[o.Dim]
			if deficit < 0 {
				// Already past the requirement in this dimension; an
				// outward hop may still help reach capable nodes, but
				// prefer true deficits.
				deficit = 1e-9
			}
			if best == nil || deficit > bestDeficit ||
				(deficit == bestDeficit && o.Node.ID < best.Node.ID) {
				best, bestDeficit = o, deficit
			}
		}
		if best == nil {
			return nil, ErrUnmatchable
		}
		cur = best.Node
		st.BoostedWalks++
		c.probePush(cur)
	}
	return nil, ErrUnmatchable
}

// fallback is the expanding-search last resort a real CAN deploys when
// greedy walks dead-end: scan for any satisfying node and take the one
// with the minimum score for CE type t. Its use is counted in
// Stats.Fallbacks so experiments can report how often the greedy
// machinery needed rescuing; a nil return means the job is genuinely
// unmatchable anywhere in the grid.
func (c *Context) fallback(req resource.JobReq, t resource.CEType, st *Stats) *can.Node {
	sat := c.fallbackBuf[:0]
	for _, n := range c.Ov.Nodes() {
		if n.Caps != nil && resource.Satisfies(n.Caps, req) {
			sat = append(sat, n)
		}
	}
	c.fallbackBuf = sat
	if len(sat) == 0 {
		return nil
	}
	st.Fallbacks++
	return c.pickMinScore(sat, t)
}
