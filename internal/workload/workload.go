// Package workload synthesizes the evaluation's grid population and job
// stream (Section V-A): heterogeneous nodes with 1/2/4/8-core CPUs and
// up to several distinct GPU types; Poisson job arrivals with a
// configurable mean inter-arrival time; base runtimes uniform between
// 0.5 and 1.5 hours; and a job constraint ratio giving the probability
// that each resource requirement of a job is actually specified.
//
// The paper does not publish its exact catalogs, so the distributions
// here are seeded reconstructions with the stated qualitative shape: a
// high percentage of nodes and jobs have relatively low capabilities
// and requirements, a low percentage have high ones.
package workload

import (
	"hetgrid/internal/exec"
	"hetgrid/internal/resource"
	"hetgrid/internal/rng"
	"hetgrid/internal/sim"
)

// NodeGen generates heterogeneous node capability vectors.
type NodeGen struct {
	space *resource.Space
	rnd   *rng.Stream

	// ConcurrentGPUs generates accelerators that run multiple
	// simultaneous jobs (non-dedicated) — the future GPUs the paper
	// anticipates — instead of the evaluation's dedicated ones.
	ConcurrentGPUs bool

	cpuClock *rng.Discrete
	cores    *rng.Discrete
	memory   *rng.Discrete
	disk     *rng.Discrete
	gpuCount *rng.Discrete
	gpuClock *rng.Discrete
	gpuMem   *rng.Discrete
	gpuCores *rng.Discrete
}

// NewNodeGen builds a node generator for the space's accelerator slots.
func NewNodeGen(space *resource.Space, seed int64) *NodeGen {
	return &NodeGen{
		space: space,
		rnd:   rng.NewSplit(seed, "workload.nodes"),
		// Skewed-low catalogs: most machines are modest desktops.
		cpuClock: rng.NewDiscrete(
			[]float64{1.0, 1.4, 1.8, 2.2, 2.6, 3.0, 3.4},
			[]float64{22, 20, 18, 14, 12, 8, 6}),
		cores: rng.NewDiscrete(
			[]float64{1, 2, 4, 8},
			[]float64{30, 35, 25, 10}),
		memory: rng.NewDiscrete(
			[]float64{1, 2, 4, 8, 16},
			[]float64{15, 30, 30, 17, 8}),
		disk: rng.NewDiscrete(
			[]float64{40, 80, 160, 320, 640, 1000},
			[]float64{20, 25, 25, 15, 10, 5}),
		gpuCount: rng.NewDiscrete(
			[]float64{0, 1, 2},
			[]float64{45, 35, 20}),
		gpuClock: rng.NewDiscrete(
			[]float64{0.6, 0.9, 1.2, 1.5},
			[]float64{35, 30, 22, 13}),
		gpuMem: rng.NewDiscrete(
			[]float64{0.5, 1, 2, 4},
			[]float64{30, 30, 25, 15}),
		gpuCores: rng.NewDiscrete(
			[]float64{64, 128, 240, 448},
			[]float64{30, 30, 25, 15}),
	}
}

// Generate produces n node capability vectors.
func (g *NodeGen) Generate(n int) []*resource.NodeCaps {
	out := make([]*resource.NodeCaps, n)
	for i := range out {
		out[i] = g.One()
	}
	return out
}

// One produces a single node.
func (g *NodeGen) One() *resource.NodeCaps {
	caps := &resource.NodeCaps{
		CEs: []resource.CE{{
			Type:   resource.TypeCPU,
			Clock:  g.cpuClock.Sample(g.rnd),
			Cores:  int(g.cores.Sample(g.rnd)),
			Memory: g.memory.Sample(g.rnd),
		}},
		Disk:    g.disk.Sample(g.rnd),
		Virtual: g.rnd.Float64() * 0.999999,
	}
	slots := g.space.GPUSlots
	want := int(g.gpuCount.Sample(g.rnd))
	if want > slots {
		want = slots
	}
	if want > 0 {
		// Pick distinct accelerator types (slots) for the node's GPUs.
		perm := g.rnd.Perm(slots)
		chosen := append([]int(nil), perm[:want]...)
		// CEs must be sorted by type.
		for i := 0; i < len(chosen); i++ {
			for j := i + 1; j < len(chosen); j++ {
				if chosen[j] < chosen[i] {
					chosen[i], chosen[j] = chosen[j], chosen[i]
				}
			}
		}
		for _, slot := range chosen {
			caps.CEs = append(caps.CEs, resource.CE{
				Type:      resource.CEType(slot + 1),
				Dedicated: !g.ConcurrentGPUs,
				Clock:     g.gpuClock.Sample(g.rnd),
				Cores:     int(g.gpuCores.Sample(g.rnd)),
				Memory:    g.gpuMem.Sample(g.rnd),
			})
		}
	}
	return caps
}

// JobGen generates the job stream.
type JobGen struct {
	space *resource.Space
	rnd   *rng.Stream

	// ConstraintRatio is the probability that each resource type a job
	// cares about is actually specified in its requirements (Section
	// V-A). Lower ratios make jobs easier to match.
	ConstraintRatio float64
	// MeanInterArrival is the mean of the Poisson arrival process.
	MeanInterArrival sim.Duration
	// GPUJobFraction is the fraction of jobs whose dominant CE is an
	// accelerator (when the space has accelerator slots).
	GPUJobFraction float64
	// MinRuntime and MaxRuntime bound the uniform base-duration draw.
	MinRuntime, MaxRuntime sim.Duration

	nextID exec.JobID

	cpuClockReq *rng.Discrete
	cpuMemReq   *rng.Discrete
	cpuCoreReq  *rng.Discrete
	diskReq     *rng.Discrete
	gpuClockReq *rng.Discrete
	gpuMemReq   *rng.Discrete
	gpuCoreReq  *rng.Discrete
}

// NewJobGen builds a job generator with the evaluation's defaults:
// constraint ratio 0.8, 3-second mean inter-arrival, 40% GPU jobs,
// runtimes uniform in [0.5 h, 1.5 h].
func NewJobGen(space *resource.Space, seed int64) *JobGen {
	return &JobGen{
		space:            space,
		rnd:              rng.NewSplit(seed, "workload.jobs"),
		ConstraintRatio:  0.8,
		MeanInterArrival: 3 * sim.Second,
		GPUJobFraction:   0.4,
		MinRuntime:       sim.Duration(0.5 * float64(sim.Hour)),
		MaxRuntime:       sim.Duration(1.5 * float64(sim.Hour)),
		nextID:           1,
		// Requirement catalogs, skewed low so that most jobs match many
		// nodes and a few match only the most capable.
		cpuClockReq: rng.NewDiscrete(
			[]float64{0.8, 1.0, 1.4, 1.8, 2.2},
			[]float64{35, 25, 20, 12, 8}),
		cpuMemReq: rng.NewDiscrete(
			[]float64{0.5, 1, 2, 4, 8},
			[]float64{30, 30, 20, 13, 7}),
		cpuCoreReq: rng.NewDiscrete(
			[]float64{1, 2, 4, 8},
			[]float64{55, 25, 15, 5}),
		diskReq: rng.NewDiscrete(
			[]float64{10, 20, 40, 100, 200},
			[]float64{40, 25, 20, 10, 5}),
		gpuClockReq: rng.NewDiscrete(
			[]float64{0.5, 0.6, 0.9, 1.2},
			[]float64{35, 30, 22, 13}),
		gpuMemReq: rng.NewDiscrete(
			[]float64{0.25, 0.5, 1, 2},
			[]float64{30, 30, 25, 15}),
		gpuCoreReq: rng.NewDiscrete(
			[]float64{32, 64, 128, 240},
			[]float64{30, 30, 25, 15}),
	}
}

// keep applies the constraint ratio to one requirement value.
func (g *JobGen) keep(v float64) float64 {
	if g.rnd.Bool(g.ConstraintRatio) {
		return v
	}
	return 0
}

// Next generates the next job and the gap until the following arrival.
func (g *JobGen) Next() (*exec.Job, sim.Duration) {
	var req resource.JobReq

	gpuJob := g.space.GPUSlots > 0 && g.rnd.Bool(g.GPUJobFraction)

	cpu := resource.CEReq{
		Type:   resource.TypeCPU,
		Clock:  g.keep(g.cpuClockReq.Sample(g.rnd)),
		Memory: g.keep(g.cpuMemReq.Sample(g.rnd)),
		Cores:  int(g.keep(g.cpuCoreReq.Sample(g.rnd))),
	}
	var gq resource.CEReq
	if gpuJob {
		// A CUDA-style job: the CPU hosts a control thread only.
		cpu = resource.CEReq{Type: resource.TypeCPU, Clock: g.keep(0.8), Memory: g.keep(0.5), Cores: 1}
		slot := 1 + g.rnd.Intn(g.space.GPUSlots)
		gq = resource.CEReq{
			Type:   resource.CEType(slot),
			Clock:  g.keep(g.gpuClockReq.Sample(g.rnd)),
			Memory: g.keep(g.gpuMemReq.Sample(g.rnd)),
			Cores:  int(g.keep(g.gpuCoreReq.Sample(g.rnd))),
		}
	}
	// A requirement whose amounts were all dropped is not a requirement.
	// The CPU precedes any accelerator, keeping the vector type-sorted.
	req.CE = make([]resource.CEReq, 0, 2)
	if cpu != (resource.CEReq{Type: resource.TypeCPU}) {
		req.CE = append(req.CE, cpu)
	}
	if gpuJob && gq != (resource.CEReq{Type: gq.Type}) {
		req.CE = append(req.CE, gq)
	}
	req.Disk = g.keep(g.diskReq.Sample(g.rnd))
	if len(req.CE) == 0 {
		// Everything was dropped by the constraint ratio: the job still
		// needs somewhere to run.
		req.CE = append(req.CE, resource.CEReq{Type: resource.TypeCPU, Cores: 1})
	}

	base := sim.Duration(g.rnd.Uniform(float64(g.MinRuntime), float64(g.MaxRuntime)))
	j := &exec.Job{
		ID:           g.nextID,
		Req:          req,
		Dominant:     resource.DominantCE(req),
		BaseDuration: base,
	}
	g.nextID++
	gap := sim.FromSeconds(g.rnd.Exp(g.MeanInterArrival.Seconds()))
	return j, gap
}
