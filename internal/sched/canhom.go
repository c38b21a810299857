package sched

import (
	"hetgrid/internal/can"
	"hetgrid/internal/exec"
	"hetgrid/internal/resource"
)

// CanHom is the prior, heterogeneity-oblivious matchmaker (the can-hom
// baseline of Section V): it still routes and pushes in the same CAN,
// but treats every node as a plain multi-core CPU machine. It looks for
// free nodes only (the acceptable-node notion needs CE awareness),
// ranks nodes by CPU clock and CPU utilization regardless of the job's
// dominant CE, and pushes on CPU-demand aggregates — so GPU queue
// pressure is invisible to it, which is exactly why its decisions
// degrade on heterogeneous workloads.
type CanHom struct {
	ctx   *Context
	Stats Stats
}

// NewCanHom builds the heterogeneity-oblivious baseline.
func NewCanHom(ctx *Context) *CanHom { return &CanHom{ctx: ctx} }

// Name returns the label used in the paper's figures.
func (s *CanHom) Name() string { return "can-hom" }

// Place performs the prior scheme's matchmaking for one job.
func (s *CanHom) Place(j *exec.Job) (can.NodeID, error) {
	c := s.ctx
	c.beginPlacement(j)
	entry := c.randomEntry()
	if entry == nil {
		c.probeUnmatched()
		return 0, ErrUnmatchable
	}
	jobPt := c.jobPoint(j.Req)

	path, err := c.route(entry.ID, jobPt)
	if err != nil {
		return 0, err
	}
	s.Stats.RouteHops += len(path) - 1
	c.probeRoute(path)
	cur := path[len(path)-1]

	cur, err = c.boost(cur, j.Req, jobPt, &s.Stats)
	if err != nil {
		if n := c.fallback(j.Req, resource.TypeCPU, &s.Stats); n != nil {
			s.Stats.Placed++
			c.probeMatch(n.ID, "fallback")
			return n.ID, nil
		}
		s.Stats.Unmatchable++
		c.probeUnmatched()
		return 0, ErrUnmatchable
	}

	for hop := 0; hop < maxPushHops; hop++ {
		cands := c.satisfying(cur, j.Req)

		// Free nodes only: the oblivious scheme cannot tell that a busy
		// node still has an idle CE of the right kind.
		free := c.freeBuf[:0]
		for _, n := range cands {
			if rt := c.Cluster.Runtime(n.ID); rt != nil && rt.IsFree() {
				free = append(free, n)
			}
		}
		c.freeBuf = free
		if len(free) > 0 {
			s.Stats.FreePicks++
			s.Stats.Placed++
			id := pickFastest(free, resource.TypeCPU).ID
			c.probeMatch(id, "free")
			return id, nil
		}

		// Push on CPU aggregates regardless of what the job needs.
		var target *can.Outward
		bestObj := 0.0
		outs := c.outwardNeighbors(cur)
		for i := range outs {
			o := &outs[i]
			if !c.satMask[o.Pos] {
				continue
			}
			obj := c.Agg.Objective(o.Node.ID, int(o.Dim), resource.TypeCPU)
			if target == nil || obj < bestObj ||
				(obj == bestObj && o.Node.ID < target.Node.ID) {
				target, bestObj = o, obj
			}
		}

		stop := target == nil
		if !stop {
			p := resource.StopProbability(c.Agg.At(cur.ID, int(target.Dim)).Nodes, c.StoppingFactor)
			stop = c.rnd.Bool(p)
		}
		if stop {
			if len(cands) == 0 {
				break
			}
			s.Stats.ScorePicks++
			s.Stats.Placed++
			id := c.pickMinScore(cands, resource.TypeCPU).ID
			c.probeMatch(id, "score")
			return id, nil
		}

		cur = target.Node
		s.Stats.PushHops++
		c.probePush(cur)
	}

	if cands := c.satisfying(cur, j.Req); len(cands) > 0 {
		s.Stats.ScorePicks++
		s.Stats.Placed++
		id := c.pickMinScore(cands, resource.TypeCPU).ID
		c.probeMatch(id, "score")
		return id, nil
	}
	if n := c.fallback(j.Req, resource.TypeCPU, &s.Stats); n != nil {
		s.Stats.Placed++
		c.probeMatch(n.ID, "fallback")
		return n.ID, nil
	}
	s.Stats.Unmatchable++
	c.probeUnmatched()
	return 0, ErrUnmatchable
}
