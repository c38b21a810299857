package exec

import (
	"fmt"
	"math/rand/v2"
	"strings"
	"testing"

	"hetgrid/internal/can"
	"hetgrid/internal/resource"
	"hetgrid/internal/sim"
)

// refCE is one CE's occupancy as the reference recomputes it.
type refCE struct {
	ce                                        resource.CE
	usedCor, runJobs, queuedJobs, queuedCores int
}

// refReq is the map-keyed requirement representation the type-sorted
// slice replaced, with its CoresOn rule.
type refReq map[resource.CEType]resource.CEReq

func toRefReq(r resource.JobReq) refReq {
	m := refReq{}
	for _, q := range r.CE {
		m[q.Type] = q
	}
	return m
}

func (m refReq) coresOn(t resource.CEType) int {
	q, ok := m[t]
	if !ok {
		return 0
	}
	if q.Cores < 1 {
		return 1
	}
	return q.Cores
}

// refOccupancy recomputes a node's per-CE occupancy from scratch out of
// its running set and FIFO queue, keyed by type in a map — no
// incremental tallies, no parallel slice.
func refOccupancy(r *Runtime) map[resource.CEType]*refCE {
	st := make(map[resource.CEType]*refCE)
	for _, ce := range r.Caps.CEs {
		st[ce.Type] = &refCE{ce: ce}
	}
	for _, j := range r.run {
		m := toRefReq(j.Req)
		for t := range m {
			st[t].usedCor += m.coresOn(t)
			st[t].runJobs++
		}
	}
	for _, j := range r.queue {
		m := toRefReq(j.Req)
		for t := range m {
			st[t].queuedCores += m.coresOn(t)
			st[t].queuedJobs++
		}
	}
	return st
}

func refCanStart(st map[resource.CEType]*refCE, req resource.JobReq) bool {
	m := toRefReq(req)
	for t := range m {
		c := st[t]
		if c == nil {
			return false
		}
		cores := m.coresOn(t)
		if c.ce.Dedicated {
			if c.runJobs != 0 || cores > c.ce.Cores {
				return false
			}
		} else if cores > c.ce.Cores-c.usedCor {
			return false
		}
	}
	return true
}

func refScore(st map[resource.CEType]*refCE, t resource.CEType) float64 {
	c := st[t]
	if c == nil {
		return 1e18
	}
	if c.ce.Dedicated {
		return float64(c.runJobs+c.queuedJobs) / c.ce.Clock
	}
	return float64(c.usedCor+c.queuedCores) / float64(c.ce.Cores) / c.ce.Clock
}

func refDemandOn(st map[resource.CEType]*refCE, t resource.CEType) (int, int, bool) {
	c := st[t]
	if c == nil {
		return 0, 0, false
	}
	return c.usedCor + c.queuedCores, c.ce.Cores, true
}

func refRate(st map[resource.CEType]*refCE, gamma float64, j *Job) float64 {
	c := st[j.Dominant]
	if c == nil {
		c = st[resource.TypeCPU]
	}
	if c.ce.Dedicated {
		return c.ce.Clock
	}
	others := c.usedCor - toRefReq(j.Req).coresOn(j.Dominant)
	if others < 0 {
		others = 0
	}
	return c.ce.Clock / (1 + gamma*float64(others)/float64(c.ce.Cores))
}

// randCaps builds a valid node with a CPU and 0–3 GPU slots, some
// absent, some shared (non-dedicated).
func randCaps(rng *rand.Rand) *resource.NodeCaps {
	n := &resource.NodeCaps{
		CEs:  []resource.CE{{Type: resource.TypeCPU, Clock: 0.5 * float64(1+rng.IntN(6)), Cores: 1 + rng.IntN(8), Memory: 8}},
		Disk: 500,
	}
	slots := rng.IntN(4)
	for t := 1; t <= slots; t++ {
		if rng.IntN(3) == 0 {
			continue
		}
		n.CEs = append(n.CEs, resource.CE{
			Type:      resource.CEType(t),
			Dedicated: rng.IntN(4) != 0,
			Clock:     0.25 * float64(1+rng.IntN(6)),
			Cores:     32 * (1 + rng.IntN(8)),
			Memory:    4,
		})
	}
	return n
}

// randReq builds a type-sorted request over CE types 0..4 (type 4 never
// exists), with zero core counts (one core) common.
func randReq(rng *rand.Rand) resource.JobReq {
	var r resource.JobReq
	for t := resource.CEType(0); t < 5; t++ {
		if rng.IntN(3) != 0 {
			continue
		}
		q := resource.CEReq{Type: t, Cores: rng.IntN(5), Memory: float64(rng.IntN(3))}
		if t != resource.TypeCPU && rng.IntN(2) == 0 {
			q.Cores *= 32
		}
		r.CE = append(r.CE, q)
	}
	return r
}

// checkRuntime compares canStart, Score, DemandOn and the running jobs'
// rates with the from-scratch map-keyed reference.
func checkRuntime(t *testing.T, where string, c *Cluster, r *Runtime, rng *rand.Rand) {
	t.Helper()
	st := refOccupancy(r)
	for ty := resource.CEType(0); ty < 5; ty++ {
		if got, want := r.Score(ty), refScore(st, ty); got != want {
			t.Fatalf("%s: node %d Score(%v) = %v, reference %v", where, r.ID, ty, got, want)
		}
		gr, gc, gok := r.DemandOn(ty)
		wr, wc, wok := refDemandOn(st, ty)
		if gr != wr || gc != wc || gok != wok {
			t.Fatalf("%s: node %d DemandOn(%v) = (%d, %d, %v), reference (%d, %d, %v)",
				where, r.ID, ty, gr, gc, gok, wr, wc, wok)
		}
	}
	for k := 0; k < 4; k++ {
		req := randReq(rng)
		if got, want := r.canStart(req), refCanStart(st, req); got != want {
			t.Fatalf("%s: node %d canStart(%+v) = %v, reference %v", where, r.ID, req, got, want)
		}
	}
	for _, j := range r.run {
		if got, want := c.rate(r, j), refRate(st, c.cfg.Gamma, j); got != want {
			t.Fatalf("%s: node %d job %d rate = %v, reference %v", where, r.ID, j.ID, got, want)
		}
	}
}

// TestRuntimeMatchesMapOracle drives random submissions, completions
// and node removals through a cluster and, after every step, checks the
// slice-backed CE bookkeeping against a map-keyed reference recomputed
// from the queue and running set.
func TestRuntimeMatchesMapOracle(t *testing.T) {
	for seed := uint64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewPCG(seed, 13))
		eng, c := newTestCluster(0.3)
		const nodes = 6
		for id := can.NodeID(0); id < nodes; id++ {
			c.AddNode(id, randCaps(rng))
		}
		nextID := JobID(1)
		for step := 0; step < 200; step++ {
			where := fmt.Sprintf("seed %d step %d", seed, step)
			id := can.NodeID(rng.IntN(nodes))
			switch op := rng.IntN(10); {
			case op < 6:
				req := randReq(rng)
				j := &Job{ID: nextID, Req: req, Dominant: resource.DominantCE(req),
					BaseDuration: sim.Duration(1+rng.IntN(200)) * sim.Second}
				nextID++
				r := c.Runtime(id)
				err := c.Submit(j, id)
				if ok := resource.Satisfies(r.Caps, req); (err == nil) != ok {
					t.Fatalf("%s: Submit err = %v, Satisfies = %v", where, err, ok)
				}
			case op < 9:
				eng.RunUntil(eng.Now().Add(sim.Duration(1+rng.IntN(60)) * sim.Second))
			default:
				c.RemoveNode(id)
				c.AddNode(id, randCaps(rng))
			}
			for _, r := range c.Runtimes() {
				checkRuntime(t, where, c, r, rng)
			}
			if err := c.CheckConservation(); err != nil {
				t.Fatalf("%s: %v", where, err)
			}
		}
	}
}

// TestSubmitRejectsInvalidReq pins the sorted-slice contract at the
// execution boundary: an out-of-order, duplicated or negative request
// is refused by the contract check, not mistaken for a node that lacks
// capacity, and never queued.
func TestSubmitRejectsInvalidReq(t *testing.T) {
	_, c := newTestCluster(0)
	c.AddNode(1, testCaps(2.0, 4, gpuCE(1, 1.0, 128)))
	bad := []resource.JobReq{
		{CE: []resource.CEReq{{Type: 1, Cores: 1}, {Type: resource.TypeCPU, Cores: 1}}},
		{CE: []resource.CEReq{{Type: resource.TypeCPU}, {Type: resource.TypeCPU}}},
		{CE: []resource.CEReq{{Type: resource.TypeCPU, Cores: -1}}},
	}
	for i, req := range bad {
		err := c.Submit(&Job{ID: JobID(i + 1), Req: req, BaseDuration: sim.Second}, 1)
		if err == nil || strings.Contains(err.Error(), "cannot satisfy") {
			t.Errorf("Submit(%+v) = %v, want a contract error", req, err)
		}
	}
	if c.Submitted() != 0 || c.Runtime(1).QueueLen() != 0 || c.Runtime(1).RunningJobs() != 0 {
		t.Fatal("a rejected job reached the node")
	}
}
