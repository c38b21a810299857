// Package exec models job execution on heterogeneous grid nodes
// (Sections II-B and III-B): each node has a FIFO queue; a job starts
// when every CE it requires is available — a dedicated CE (GPU) must be
// idle, a non-dedicated CE (CPU) must have enough free cores. Jobs on a
// shared non-dedicated CE suffer a contention slowdown; separate CEs do
// not interfere (the paper measured no significant cross-CE contention).
//
// The paper predicts contention by interpolating measured curves from
// prior work; those measurements are not published, so we substitute the
// parametric model rate = clock / (1 + gamma·otherBusyCores/totalCores),
// which preserves the property the scheduler relies on: co-located jobs
// slow each other down in proportion to how crowded the CE is.
package exec

import (
	"fmt"

	"hetgrid/internal/can"
	"hetgrid/internal/resource"
	"hetgrid/internal/sim"
)

// JobID identifies a submitted job.
type JobID int64

// JobState tracks a job through its lifecycle.
type JobState int

const (
	// Queued means the job sits in its run node's FIFO queue.
	Queued JobState = iota
	// Running means the job occupies CEs and is executing.
	Running
	// Finished means the job has completed.
	Finished
)

func (s JobState) String() string {
	switch s {
	case Queued:
		return "queued"
	case Running:
		return "running"
	case Finished:
		return "finished"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// Job is one unit of work. BaseDuration is the execution time on a
// nominal (clock = 1.0) uncontended dominant CE; the realized duration
// scales inversely with the run node's dominant-CE clock and stretches
// under contention.
type Job struct {
	ID           JobID
	Req          resource.JobReq
	Dominant     resource.CEType
	BaseDuration sim.Duration

	State     JobState
	RunNode   can.NodeID
	Submitted sim.Time
	Placed    sim.Time // entered the run node's queue (after matchmaking)
	Started   sim.Time
	Finished_ sim.Time

	// Execution bookkeeping.
	remaining  float64 // nominal seconds of work left
	rate       float64 // nominal seconds of work retired per second
	rateSince  sim.Time
	completion sim.EventID
}

// WaitTime is the paper's reported metric: time from placement on the
// run node to execution start. It is only meaningful once the job has
// started.
func (j *Job) WaitTime() sim.Duration { return j.Started.Sub(j.Placed) }

// Turnaround is the time from placement to completion.
func (j *Job) Turnaround() sim.Duration { return j.Finished_.Sub(j.Placed) }

// syncWork folds elapsed execution into the remaining-work counter.
func (j *Job) syncWork(now sim.Time) {
	if j.State != Running {
		return
	}
	elapsed := now.Sub(j.rateSince).Seconds()
	j.remaining -= elapsed * j.rate
	if j.remaining < 0 {
		j.remaining = 0
	}
	j.rateSince = now
}
