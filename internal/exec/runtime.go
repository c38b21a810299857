package exec

import (
	"sort"

	"hetgrid/internal/can"
	"hetgrid/internal/resource"
)

// ceState tracks the live occupancy of one CE and the demand waiting
// for it in the FIFO queue. The queued tallies are maintained on queue
// transitions so that Score and DemandOn (called per node per
// aggregation refresh and per score evaluation) never walk the queue.
type ceState struct {
	ce          resource.CE
	usedCor     int // sum of required cores of running jobs using this CE
	runJobs     int // running jobs using this CE
	queuedJobs  int // queued jobs requiring this CE
	queuedCores int // sum of required cores of queued jobs on this CE
}

func (c *ceState) freeCores() int { return c.ce.Cores - c.usedCor }

// canHost reports whether a job needing cores on this CE could start
// right now: a dedicated CE must be completely idle; a non-dedicated CE
// needs enough free cores (jobs never share a core).
func (c *ceState) canHost(cores int) bool {
	if c.ce.Dedicated {
		return c.runJobs == 0 && cores <= c.ce.Cores
	}
	return cores <= c.freeCores()
}

// Runtime is the execution state of one grid node: its FIFO queue and
// the occupancy of each CE.
type Runtime struct {
	ID   can.NodeID
	Caps *resource.NodeCaps

	queue []*Job    // strictly FIFO: only the head may start
	ces   []ceState // parallel to Caps.CEs
	run   []*Job    // running jobs, kept sorted by id
	// dirty marks membership in the cluster's dirty list (the delta
	// channel consumed by the scheduler's candidate index);
	// maintained by Cluster.notifyLoad / Cluster.DrainDirty only.
	dirty bool
	done  int
	// busyCoreSeconds accumulates, over completed jobs, execution
	// wall-time × cores occupied — the per-node work metric used by
	// the load-imbalance statistics.
	busyCoreSeconds float64
}

func newRuntime(id can.NodeID, caps *resource.NodeCaps) *Runtime {
	r := &Runtime{ID: id, Caps: caps, ces: make([]ceState, len(caps.CEs))}
	for i, ce := range caps.CEs {
		r.ces[i].ce = ce
	}
	return r
}

// ceOf returns the state of the node's CE of type t, or nil. A node has
// at most a handful of CEs, so a scan beats any index.
func (r *Runtime) ceOf(t resource.CEType) *ceState {
	for i := range r.ces {
		if r.ces[i].ce.Type == t {
			return &r.ces[i]
		}
	}
	return nil
}

// QueueLen returns the number of jobs waiting in the FIFO queue.
func (r *Runtime) QueueLen() int { return len(r.queue) }

// RunningJobs returns the number of jobs currently executing. A job
// using several CEs counts once.
func (r *Runtime) RunningJobs() int { return len(r.run) }

// running returns the node's running jobs sorted by id. The returned
// slice is the runtime's own bookkeeping; callers must not mutate it or
// hold it across occupy/release.
func (r *Runtime) running() []*Job { return r.run }

// noteQueued maintains the per-CE queue tallies as jobs enter
// (sign = +1) and leave (sign = -1) the FIFO queue. Submit admits only
// jobs the node satisfies, so every required CE exists.
func (r *Runtime) noteQueued(j *Job, sign int) {
	for _, q := range j.Req.CE {
		c := r.ceOf(q.Type)
		c.queuedJobs += sign
		c.queuedCores += sign * q.CoresNeeded()
	}
}

// FinishedJobs returns the number of jobs this node has completed.
func (r *Runtime) FinishedJobs() int { return r.done }

// BusyCoreSeconds returns the accumulated work this node has completed:
// per finished job, execution wall-time times the cores it occupied.
func (r *Runtime) BusyCoreSeconds() float64 { return r.busyCoreSeconds }

// totalCores sums a job's core occupancy across its required CEs.
func totalCores(j *Job) int {
	n := 0
	for _, q := range j.Req.CE {
		n += q.CoresNeeded()
	}
	return n
}

// IsFree reports whether the node is a free-node in the paper's sense:
// no running or waiting jobs at all, so any matching job starts
// immediately.
func (r *Runtime) IsFree() bool {
	return len(r.queue) == 0 && len(r.run) == 0
}

// IsAcceptable reports whether a job with requirements req would start
// without waiting if placed here now (Section III-B's acceptable node):
// the node statically satisfies the job, its FIFO queue is empty, and
// every required CE can host the job immediately.
func (r *Runtime) IsAcceptable(req resource.JobReq) bool {
	if len(r.queue) > 0 {
		return false
	}
	if !resource.Satisfies(r.Caps, req) {
		return false
	}
	return r.canStart(req)
}

// canStart checks CE availability only (queue discipline is the
// caller's concern).
func (r *Runtime) canStart(req resource.JobReq) bool {
	for _, q := range req.CE {
		c := r.ceOf(q.Type)
		if c == nil || !c.canHost(q.CoresNeeded()) {
			return false
		}
	}
	return true
}

// Score is the job-assignment score of Section III-B for dominant CE
// type t: Equation 1 for dedicated CEs (queue size over clock),
// Equation 2 for non-dedicated CEs (core utilization over clock). Lower
// is better. Nodes lacking the CE type score +Inf-like.
func (r *Runtime) Score(t resource.CEType) float64 {
	c := r.ceOf(t)
	if c == nil {
		return 1e18
	}
	if c.ce.Dedicated {
		return resource.ScoreDedicated(c.runJobs+c.queuedJobs, c.ce.Clock)
	}
	return resource.ScoreNonDedicated(c.usedCor+c.queuedCores, c.ce.Cores, c.ce.Clock)
}

// DemandOn returns the load-aggregation inputs for CE type t: the cores
// required by running and waiting jobs (Equation 3's
// SumOfRequiredCores) and the CE's core count. ok is false when the
// node has no CE of that type.
func (r *Runtime) DemandOn(t resource.CEType) (requiredCores, cores int, ok bool) {
	c := r.ceOf(t)
	if c == nil {
		return 0, 0, false
	}
	return c.usedCor + c.queuedCores, c.ce.Cores, true
}

// UtilizationOn reports the fraction of CE t's cores occupied by
// running jobs (queued demand excluded). ok is false when the node has
// no CE of that type.
func (r *Runtime) UtilizationOn(t resource.CEType) (util float64, ok bool) {
	c := r.ceOf(t)
	if c == nil {
		return 0, false
	}
	if c.ce.Cores == 0 {
		return 0, true
	}
	return float64(c.usedCor) / float64(c.ce.Cores), true
}

// CE returns the capability record of the node's CE of type t, or nil.
func (r *Runtime) CE(t resource.CEType) *resource.CE { return r.Caps.CE(t) }

// occupy reserves CEs for a starting job and enters it into the
// id-sorted running set.
func (r *Runtime) occupy(j *Job) {
	for _, q := range j.Req.CE {
		c := r.ceOf(q.Type)
		c.usedCor += q.CoresNeeded()
		c.runJobs++
	}
	i := sort.Search(len(r.run), func(i int) bool { return r.run[i].ID >= j.ID })
	r.run = append(r.run, nil)
	copy(r.run[i+1:], r.run[i:])
	r.run[i] = j
}

// release frees a running job's CEs (on completion or preemption).
func (r *Runtime) release(j *Job) {
	for _, q := range j.Req.CE {
		c := r.ceOf(q.Type)
		c.usedCor -= q.CoresNeeded()
		c.runJobs--
	}
	i := sort.Search(len(r.run), func(i int) bool { return r.run[i].ID >= j.ID })
	if i < len(r.run) && r.run[i] == j {
		r.run = append(r.run[:i], r.run[i+1:]...)
	}
}
