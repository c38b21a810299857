package workload

import (
	"fmt"

	"hetgrid/internal/resource"
	"hetgrid/internal/sim"
)

// CheckParams rejects fleet and job-stream settings the generators
// cannot draw from, so a bad flag or spec field is an error rather than
// a panic deep in the stack or a silently wrong run: a negative job or
// GPU-slot count, a non-positive mean inter-arrival, or a constraint
// ratio or GPU-job fraction outside [0,1] (NaN included).
func CheckParams(jobs, gpuSlots int, meanInterArrival sim.Duration, constraintRatio, gpuJobFraction float64) error {
	switch {
	case jobs < 0:
		return fmt.Errorf("workload: job count %d is negative", jobs)
	case gpuSlots < 0:
		return fmt.Errorf("workload: GPU slot count %d is negative", gpuSlots)
	case gpuSlots > resource.MaxGPUSlots:
		return fmt.Errorf("workload: GPU slot count %d above %d", gpuSlots, resource.MaxGPUSlots)
	case meanInterArrival <= 0:
		return fmt.Errorf("workload: mean inter-arrival %gs must be positive", meanInterArrival.Seconds())
	case !(constraintRatio >= 0 && constraintRatio <= 1):
		return fmt.Errorf("workload: constraint ratio %g outside [0,1]", constraintRatio)
	case !(gpuJobFraction >= 0 && gpuJobFraction <= 1):
		return fmt.Errorf("workload: GPU-job fraction %g outside [0,1]", gpuJobFraction)
	}
	return nil
}
