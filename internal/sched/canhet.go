package sched

import (
	"hetgrid/internal/can"
	"hetgrid/internal/exec"
	"hetgrid/internal/resource"
)

// CanHet is the paper's contribution (Algorithm 1): heterogeneity-aware
// decentralized matchmaking. The job routes to its coordinate, then is
// pushed toward less-loaded regions chosen by the dominant-CE objective
// (Equation 3), stopping probabilistically (Equation 4); at every hop
// an acceptable node — one that can start the job now on the CEs it
// needs — short-circuits the walk, with free nodes preferred and the
// fastest dominant-CE clock breaking ties.
type CanHet struct {
	ctx   *Context
	Stats Stats
}

// NewCanHet builds the heterogeneity-aware scheduler.
func NewCanHet(ctx *Context) *CanHet { return &CanHet{ctx: ctx} }

// Name returns the label used in the paper's figures.
func (s *CanHet) Name() string { return "can-het" }

// Place runs Algorithm 1 for one job.
func (s *CanHet) Place(j *exec.Job) (can.NodeID, error) {
	c := s.ctx
	c.beginPlacement(j)
	entry := c.randomEntry()
	if entry == nil {
		c.probeUnmatched()
		return 0, ErrUnmatchable
	}
	jobPt := c.jobPoint(j.Req)

	// Step 1: CAN routing to the job's coordinate.
	path, err := c.route(entry.ID, jobPt)
	if err != nil {
		return 0, err
	}
	s.Stats.RouteHops += len(path) - 1
	c.probeRoute(path)
	cur := path[len(path)-1]

	// If the landing region cannot satisfy the job at all, climb toward
	// capability first.
	cur, err = c.boost(cur, j.Req, jobPt, &s.Stats)
	if err != nil {
		if n := c.fallback(j.Req, j.Dominant, &s.Stats); n != nil {
			s.Stats.Placed++
			c.probeMatch(n.ID, "fallback")
			return n.ID, nil
		}
		s.Stats.Unmatchable++
		c.probeUnmatched()
		return 0, ErrUnmatchable
	}

	dom := j.Dominant
	for hop := 0; hop < maxPushHops; hop++ {
		cands := c.satisfying(cur, j.Req)

		// Steps 3–9: an acceptable node ends the walk; free nodes win,
		// then the fastest dominant-CE clock.
		acceptable, free := c.acceptBuf[:0], c.freeBuf[:0]
		for _, n := range cands {
			rt := c.Cluster.Runtime(n.ID)
			if rt == nil || !rt.IsAcceptable(j.Req) {
				continue
			}
			acceptable = append(acceptable, n)
			if rt.IsFree() {
				free = append(free, n)
			}
		}
		c.acceptBuf, c.freeBuf = acceptable, free
		if len(free) > 0 {
			s.Stats.FreePicks++
			s.Stats.Placed++
			id := pickFastest(free, dom).ID
			c.probeMatch(id, "free")
			return id, nil
		}
		if len(acceptable) > 0 {
			s.Stats.AcceptPicks++
			s.Stats.Placed++
			id := pickFastest(acceptable, dom).ID
			c.probeMatch(id, "accept")
			return id, nil
		}

		// Step 11: choose the push target minimizing Equation 3 over
		// outward neighbors that can host the job.
		var target *can.Outward
		bestObj := 0.0
		outs := c.outwardNeighbors(cur)
		for i := range outs {
			o := &outs[i]
			if !c.satMask[o.Pos] {
				continue
			}
			obj := c.Agg.Objective(o.Node.ID, int(o.Dim), dom)
			if target == nil || obj < bestObj ||
				(obj == bestObj && o.Node.ID < target.Node.ID) {
				target, bestObj = o, obj
			}
		}

		// Step 12: stop probabilistically based on how many nodes remain
		// beyond along the target dimension (Equation 4).
		stop := target == nil
		if !stop {
			p := resource.StopProbability(c.Agg.At(cur.ID, int(target.Dim)).Nodes, c.StoppingFactor)
			stop = c.rnd.Bool(p)
		}
		if stop {
			if len(cands) == 0 {
				break
			}
			// Step 14: the minimum-score node among neighbors (Eq 1/2).
			s.Stats.ScorePicks++
			s.Stats.Placed++
			id := c.pickMinScore(cands, dom).ID
			c.probeMatch(id, "score")
			return id, nil
		}

		cur = target.Node
		s.Stats.PushHops++
		c.probePush(cur)
	}

	// Walk exhausted without a candidate: place at the best scoring
	// satisfier around the current position if any.
	if cands := c.satisfying(cur, j.Req); len(cands) > 0 {
		s.Stats.ScorePicks++
		s.Stats.Placed++
		id := c.pickMinScore(cands, dom).ID
		c.probeMatch(id, "score")
		return id, nil
	}
	if n := c.fallback(j.Req, dom, &s.Stats); n != nil {
		s.Stats.Placed++
		c.probeMatch(n.ID, "fallback")
		return n.ID, nil
	}
	s.Stats.Unmatchable++
	c.probeUnmatched()
	return 0, ErrUnmatchable
}
