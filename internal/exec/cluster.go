package exec

import (
	"fmt"

	"hetgrid/internal/can"
	"hetgrid/internal/resource"
	"hetgrid/internal/sim"
)

// Config holds execution-model parameters.
type Config struct {
	// Gamma is the contention coefficient for non-dedicated CEs: a
	// running job's rate is clock / (1 + Gamma·otherBusyCores/cores).
	// Zero disables contention.
	Gamma float64
}

// DefaultConfig returns the execution parameters used in the evaluation.
func DefaultConfig() Config { return Config{Gamma: 0.3} }

// Cluster owns the runtime state of every grid node and drives job
// execution through the event engine.
type Cluster struct {
	eng *sim.Engine
	cfg Config
	// nodes is indexed by node ID: overlay IDs are sequential,
	// non-negative and never reused, so the slice stays dense and a
	// lookup is a bounds check and a load. Removed nodes leave nil.
	nodes []*Runtime

	// OnStart, when non-nil, is called as each job begins executing.
	OnStart func(*Job)
	// OnFinish, when non-nil, is called as each job completes.
	OnFinish func(*Job)

	// dirty is the cluster's one delta channel: the runtimes whose
	// load-relevant state (queue contents, running occupancy, idleness,
	// membership) changed since the last DrainDirty, in event order,
	// each listed at most once (Runtime.dirty dedupes). allDirty marks
	// the set as not enumerable — set at construction (events before
	// the first drain predate any consumer) and by MarkAllDirty —
	// forcing the consumer onto its full-recompute path.
	dirty    []*Runtime
	allDirty bool

	submitted int
	finished  int
}

// notifyLoad marks a node dirty after every operation that may change
// its queue, occupancy or membership (AddNode, Submit, a job finishing,
// RemoveNode).
func (c *Cluster) notifyLoad(r *Runtime) {
	if !r.dirty {
		r.dirty = true
		c.dirty = append(c.dirty, r)
	}
}

// DrainDirty empties the dirty set, invoking fn for each node whose
// load-relevant execution state (queue contents, running occupancy,
// membership) changed since the previous drain, in event order. It
// returns false when the set is not enumerable — on first use, and
// after MarkAllDirty — in which case fn is never called and the caller
// must treat every node as dirty. Either way the set is cleared.
//
// The channel is single-consumer: draining is destructive, so exactly
// one component may rely on it — the candidate index of the cluster's
// one scheduler (the aggregation table of CAN-het/CAN-hom, or the
// central comparator's idle and empty-queue sets).
// Job start events are deliberately not tracked on their own: a
// queue→running transition moves cores between the queued tally and
// the running occupancy of the same CE, leaving DemandOn unchanged,
// and the submit/finish notifications around it already mark the node.
func (c *Cluster) DrainDirty(fn func(can.NodeID)) bool {
	enumerable := !c.allDirty
	c.allDirty = false
	for i, r := range c.dirty {
		r.dirty = false
		c.dirty[i] = nil
		if enumerable {
			fn(r.ID)
		}
	}
	c.dirty = c.dirty[:0]
	return enumerable
}

// MarkAllDirty poisons the dirty set: the next DrainDirty reports it
// as not enumerable, so the consumer refiles every node. For callers
// that bypassed the notifications (bulk mutations, external state
// restores), and for benchmarking the all-dirty fallback.
func (c *Cluster) MarkAllDirty() { c.allDirty = true }

// NewCluster creates an empty cluster on the engine.
func NewCluster(eng *sim.Engine, cfg Config) *Cluster {
	return &Cluster{eng: eng, cfg: cfg, allDirty: true}
}

// AddNode registers a node's capabilities. It panics on duplicate or
// negative ids — that is a programming error in the driver.
func (c *Cluster) AddNode(id can.NodeID, caps *resource.NodeCaps) *Runtime {
	if id < 0 {
		panic(fmt.Sprintf("exec: negative node id %d", id))
	}
	if c.Runtime(id) != nil {
		panic(fmt.Sprintf("exec: duplicate node %d", id))
	}
	for can.NodeID(len(c.nodes)) <= id {
		c.nodes = append(c.nodes, nil)
	}
	r := newRuntime(id, caps)
	c.nodes[id] = r
	c.notifyLoad(r)
	return r
}

// Runtime returns the runtime state of a node, or nil for unknown,
// removed and out-of-range ids.
func (c *Cluster) Runtime(id can.NodeID) *Runtime {
	if id < 0 || id >= can.NodeID(len(c.nodes)) {
		return nil
	}
	return c.nodes[id]
}

// Runtimes returns every node's runtime state sorted by id. It is meant
// for index seeding and diagnostics, not hot paths — it allocates.
func (c *Cluster) Runtimes() []*Runtime {
	out := make([]*Runtime, 0, len(c.nodes))
	for _, r := range c.nodes {
		if r != nil {
			out = append(out, r)
		}
	}
	return out
}

// Submitted and Finished report cluster-wide job counts.
func (c *Cluster) Submitted() int { return c.submitted }

// Finished reports how many jobs have completed.
func (c *Cluster) Finished() int { return c.finished }

// Totals counts the jobs currently queued and running across every
// node. It walks all runtimes — diagnostics and invariant checks, not
// hot paths.
func (c *Cluster) Totals() (queued, running int) {
	for _, r := range c.nodes {
		if r == nil {
			continue
		}
		queued += len(r.queue)
		running += len(r.run)
	}
	return queued, running
}

// CheckConservation verifies the cluster-wide job-accounting invariant:
// every job ever accepted by Submit is either finished, still queued,
// or still running. RemoveNode deducts its orphans from the submitted
// count precisely so that this holds while they await re-submission —
// a failure here means a failure path silently dropped work.
func (c *Cluster) CheckConservation() error {
	queued, running := c.Totals()
	if c.submitted != c.finished+queued+running {
		return fmt.Errorf("exec: job conservation violated: submitted %d != finished %d + queued %d + running %d",
			c.submitted, c.finished, queued, running)
	}
	return nil
}

// Submit places a job in the FIFO queue of its run node (the output of
// matchmaking). The job may start immediately if the queue is empty and
// its CEs are available.
func (c *Cluster) Submit(j *Job, node can.NodeID) error {
	r := c.Runtime(node)
	if r == nil {
		return fmt.Errorf("exec: submit to unknown node %d", node)
	}
	if err := j.Req.Validate(); err != nil {
		return fmt.Errorf("exec: job %d: %w", j.ID, err)
	}
	if !resource.Satisfies(r.Caps, j.Req) {
		return fmt.Errorf("exec: node %d cannot satisfy job %d", node, j.ID)
	}
	now := c.eng.Now()
	j.State = Queued
	j.RunNode = node
	j.Placed = now
	r.queue = append(r.queue, j)
	r.noteQueued(j, +1)
	c.submitted++
	c.advance(r, now)
	c.notifyLoad(r)
	return nil
}

// rate computes a running job's current service rate (nominal seconds
// of work per second) from its dominant CE on its run node.
func (c *Cluster) rate(r *Runtime, j *Job) float64 {
	ce := r.ceOf(j.Dominant)
	if ce == nil {
		// Dominant CE unspecified (pure disk/none job): run at nominal
		// speed on the CPU.
		ce = r.ceOf(resource.TypeCPU)
	}
	if ce.ce.Dedicated {
		return ce.ce.Clock
	}
	others := ce.usedCor
	if q, ok := j.Req.Req(j.Dominant); ok {
		others -= q.CoresNeeded()
	}
	if others < 0 {
		others = 0
	}
	slow := 1 + c.cfg.Gamma*float64(others)/float64(ce.ce.Cores)
	return ce.ce.Clock / slow
}

// advance starts every queue-head job that can run, then refreshes the
// rates and completion times of all running jobs on the node (their
// contention may have changed).
func (c *Cluster) advance(r *Runtime, now sim.Time) {
	for len(r.queue) > 0 && r.canStart(r.queue[0].Req) {
		j := r.queue[0]
		r.queue = r.queue[1:]
		r.noteQueued(j, -1)
		r.occupy(j)
		j.State = Running
		j.Started = now
		j.remaining = j.BaseDuration.Seconds()
		j.rateSince = now
		if c.OnStart != nil {
			c.OnStart(j)
		}
	}
	c.refreshRates(r, now)
}

// refreshRates recomputes every running job's rate and reschedules its
// completion event. Jobs on dedicated CEs never change rate but are
// cheap to refresh; nodes run at most a handful of jobs. Jobs are
// processed in id order so event scheduling stays deterministic.
func (c *Cluster) refreshRates(r *Runtime, now sim.Time) {
	for _, j := range r.running() {
		j.syncWork(now)
		j.rate = c.rate(r, j)
		c.eng.Cancel(j.completion)
		left := sim.FromSeconds(j.remaining / j.rate)
		job := j
		j.completion = c.eng.After(left, func(t sim.Time) { c.finish(r, job, t) })
	}
}

// RemoveNode withdraws a node from the cluster (a departure or failure
// in the execution plane) and returns the jobs that were queued or
// running there, with their completion events cancelled and their
// state reset to Queued so the caller can re-match them elsewhere.
// Running jobs lose their progress — a desktop grid restarts preempted
// work from scratch.
func (c *Cluster) RemoveNode(id can.NodeID) []*Job {
	r := c.Runtime(id)
	if r == nil {
		return nil
	}
	c.nodes[id] = nil
	var orphans []*Job
	// release mutates the running set in place, so drain it from the
	// front rather than ranging over it.
	for len(r.run) > 0 {
		j := r.run[0]
		c.eng.Cancel(j.completion)
		r.release(j)
		j.State = Queued
		j.remaining = 0
		j.rate = 0
		orphans = append(orphans, j)
	}
	for _, j := range r.queue {
		r.noteQueued(j, -1)
		orphans = append(orphans, j)
	}
	r.queue = nil
	c.submitted -= len(orphans) // re-submission will recount them
	c.notifyLoad(r)
	return orphans
}

func (c *Cluster) finish(r *Runtime, j *Job, now sim.Time) {
	j.syncWork(now)
	r.release(j)
	r.done++
	r.busyCoreSeconds += now.Sub(j.Started).Seconds() * float64(totalCores(j))
	j.State = Finished
	j.Finished_ = now
	c.finished++
	c.advance(r, now)
	c.notifyLoad(r)
	if c.OnFinish != nil {
		c.OnFinish(j)
	}
}
