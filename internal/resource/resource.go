// Package resource models heterogeneous computing elements (CEs), node
// capabilities, and job resource requirements, following Section III of
// the paper.
//
// A node contains one or more CEs: always a CPU (a non-dedicated CE,
// which can run several jobs at once on separate cores, with contention)
// and optionally accelerators such as GPUs (dedicated CEs, which run at
// most one job at a time). Each CE type occupies a fixed group of CAN
// dimensions, so the resource vectors of nodes and jobs map to points in
// the CAN coordinate space (see Space).
package resource

import (
	"fmt"
	"math"
	"strings"
)

// CEType identifies a class of computing element. Type 0 is always the
// CPU; types 1..N are accelerator types (distinct GPU architectures in
// the paper's evaluation), each with its own group of CAN dimensions.
type CEType int

// TypeCPU is the CE type of the (single) CPU in every node.
const TypeCPU CEType = 0

// String returns "cpu" for the CPU and "gpuK" for accelerator type K.
func (t CEType) String() string {
	if t == TypeCPU {
		return "cpu"
	}
	return fmt.Sprintf("gpu%d", int(t))
}

// CE describes one computing element of a node.
//
// Dedicated CEs run at most one job at a time — the GPUs of the paper's
// evaluation ("current GPUs can run only a single job at a time").
// Non-dedicated CEs run several jobs on separate cores with contention:
// every CPU, and optionally accelerators modeling the concurrent-kernel
// GPUs the paper anticipates ("the next version of Nvidia GPUs will run
// multiple simultaneous jobs").
type CE struct {
	Type      CEType
	Dedicated bool    // true: runs at most one job at a time (GPU-like)
	Clock     float64 // clock speed relative to the nominal clock (1.0)
	Cores     int     // number of cores in the CE
	Memory    float64 // memory dedicated to this CE, in GB
}

// NodeCaps is the static capability vector of a grid node.
type NodeCaps struct {
	CEs     []CE    // CEs[0] is the CPU; accelerators follow, sorted by Type
	Disk    float64 // available disk space in GB (node-level resource)
	Virtual float64 // random coordinate in [0,1) for the virtual dimension
}

// CE returns the node's CE of the given type, or nil if the node has
// none.
func (n *NodeCaps) CE(t CEType) *CE {
	for i := range n.CEs {
		if n.CEs[i].Type == t {
			return &n.CEs[i]
		}
	}
	return nil
}

// CPU returns the node's CPU CE. Every well-formed node has one.
func (n *NodeCaps) CPU() *CE { return n.CE(TypeCPU) }

// Validate checks structural invariants: a CPU in slot 0, accelerators
// sorted by type with no duplicates, positive clocks and core counts.
func (n *NodeCaps) Validate() error {
	if len(n.CEs) == 0 {
		return fmt.Errorf("node has no CEs")
	}
	if n.CEs[0].Type != TypeCPU {
		return fmt.Errorf("CEs[0] has type %v, want cpu", n.CEs[0].Type)
	}
	if n.CEs[0].Dedicated {
		return fmt.Errorf("CPU must be non-dedicated")
	}
	prev := CEType(-1)
	for i, ce := range n.CEs {
		if ce.Type <= prev {
			return fmt.Errorf("CEs[%d]: type %v out of order or duplicated", i, ce.Type)
		}
		prev = ce.Type
		if ce.Clock <= 0 {
			return fmt.Errorf("CEs[%d] (%v): clock %v must be positive", i, ce.Type, ce.Clock)
		}
		if ce.Cores <= 0 {
			return fmt.Errorf("CEs[%d] (%v): cores %d must be positive", i, ce.Type, ce.Cores)
		}
		if ce.Memory < 0 {
			return fmt.Errorf("CEs[%d] (%v): negative memory", i, ce.Type)
		}
	}
	if n.Disk < 0 {
		return fmt.Errorf("negative disk")
	}
	if n.Virtual < 0 || n.Virtual >= 1 {
		return fmt.Errorf("virtual coordinate %v outside [0,1)", n.Virtual)
	}
	return nil
}

func (n *NodeCaps) String() string {
	var b strings.Builder
	for i, ce := range n.CEs {
		if i > 0 {
			b.WriteString(" + ")
		}
		fmt.Fprintf(&b, "%v(%.1fx,%dc,%.0fGB)", ce.Type, ce.Clock, ce.Cores, ce.Memory)
	}
	fmt.Fprintf(&b, " disk=%.0fGB", n.Disk)
	return b.String()
}

// CEReq is a job's requirement on one CE type. Zero amounts mean "any
// amount is acceptable" (the paper's omitted requirement).
type CEReq struct {
	Type   CEType  // the CE type the requirement names
	Clock  float64 // minimum clock speed, relative to nominal
	Memory float64 // minimum CE memory in GB
	Cores  int     // cores the job occupies on this CE (≥1 once specified)
}

// CoresNeeded returns the number of cores the job occupies on the CE:
// the specified requirement, but at least 1 (a job that names a CE uses
// at least one of its cores).
func (q CEReq) CoresNeeded() int {
	if q.Cores < 1 {
		return 1
	}
	return q.Cores
}

// JobReq is a job's full requirement vector. CE mirrors NodeCaps.CEs:
// one entry per required type, ascending by type (Validate checks it);
// an absent type is not needed.
type JobReq struct {
	CE   []CEReq
	Disk float64 // minimum disk space in GB; 0 = unspecified
}

// Clone returns a deep copy of r.
func (r JobReq) Clone() JobReq {
	return JobReq{CE: append([]CEReq(nil), r.CE...), Disk: r.Disk}
}

// Req returns the requirement on CE type t, and false if the job does
// not need t.
func (r JobReq) Req(t CEType) (CEReq, bool) {
	for _, q := range r.CE {
		if q.Type == t {
			return q, true
		}
	}
	return CEReq{}, false
}

// Validate checks the vector's contract: CE types non-negative and
// strictly ascending, amounts non-negative. Satisfies trusts the order,
// so an unsorted vector would be mis-matched rather than rejected.
func (r JobReq) Validate() error {
	prev := CEType(-1)
	for i, q := range r.CE {
		if q.Type <= prev {
			return fmt.Errorf("CE[%d]: type %v out of order, duplicated or negative", i, q.Type)
		}
		prev = q.Type
		if !(q.Clock >= 0) || !(q.Memory >= 0) || q.Cores < 0 {
			return fmt.Errorf("CE[%d] (%v): negative requirement", i, q.Type)
		}
	}
	if !(r.Disk >= 0) {
		return fmt.Errorf("negative disk requirement")
	}
	return nil
}

// Satisfies reports whether node n can ever run a job with requirements
// r: every required CE type exists on the node with sufficient clock,
// memory and cores, and the node has sufficient disk. Availability (idle
// vs busy) is a separate, dynamic question answered by the exec package.
// Both CE lists are sorted by type, so the check is one merge walk.
func Satisfies(n *NodeCaps, r JobReq) bool {
	if n.Disk < r.Disk {
		return false
	}
	i := 0
	for _, q := range r.CE {
		for i < len(n.CEs) && n.CEs[i].Type < q.Type {
			i++
		}
		if i == len(n.CEs) || n.CEs[i].Type != q.Type {
			return false
		}
		ce := &n.CEs[i]
		if ce.Clock < q.Clock || ce.Memory < q.Memory || ce.Cores < q.CoresNeeded() {
			return false
		}
		i++
	}
	return true
}

// DominantCE returns the job's dominant CE type: among the required CE
// types, the one demanding the most secondary resources (Section
// III-B's rule, applied literally: the sum of the requested memory in
// GB and core count). Raw amounts — not normalized fractions — are
// compared, so a many-core GPU demand dominates a single CPU control
// thread, matching the paper's CUDA example. Ties go to the higher CE
// type so an accelerator wins over the CPU. A job with no CE
// requirement defaults to the CPU.
func DominantCE(r JobReq) CEType {
	best, bestScore := TypeCPU, -1.0
	for _, q := range r.CE {
		score := q.Memory + float64(q.CoresNeeded())
		if score >= bestScore { // r.CE ascends, so ties go to the higher type
			best, bestScore = q.Type, score
		}
	}
	return best
}

// Norms holds the reference maxima used to normalize resource amounts —
// both for dominant-CE selection and for mapping values into [0,1) CAN
// coordinates.
type Norms struct {
	CPUClock  float64
	Memory    float64 // main memory
	Disk      float64
	CPUCores  int
	GPUClock  float64
	GPUMemory float64
	GPUCores  int
}

// DefaultNorms are reference maxima matching the synthetic workload
// catalogs in the workload package.
func DefaultNorms() Norms {
	return Norms{
		CPUClock:  4.0,
		Memory:    16,
		Disk:      1000,
		CPUCores:  8,
		GPUClock:  2.0,
		GPUMemory: 6,
		GPUCores:  512,
	}
}

// ScoreDedicated is Equation 1: the score of a dedicated CE is its job
// queue size (running + queued jobs) divided by its clock speed. Lower
// is better.
func ScoreDedicated(queueSize int, clock float64) float64 {
	return float64(queueSize) / clock
}

// ScoreNonDedicated is Equation 2: the score of a non-dedicated CE is
// its core utilization (required cores of running and waiting jobs over
// the CE's core count) divided by its clock speed. Lower is better.
func ScoreNonDedicated(requiredCores, cores int, clock float64) float64 {
	return float64(requiredCores) / float64(cores) / clock
}

// PushObjective is Equation 3: the objective for pushing toward neighbor
// N along a dimension, for the job's dominant CE type C —
// SumOfRequiredCores / NumberOfCores² over the aggregated load
// information beyond N. Lower means a less-loaded, better-provisioned
// region. A region with no cores of type C is useless for the job, so
// the objective is +Inf there (returned as a very large finite value to
// keep comparisons total).
func PushObjective(sumRequiredCores float64, numberOfCores float64) float64 {
	if numberOfCores <= 0 {
		return 1e18
	}
	return sumRequiredCores / (numberOfCores * numberOfCores)
}

// StopProbability is Equation 4: the probability that the push stops at
// the current node, 1/(1+nodesBeyond)^SF, where nodesBeyond is the
// number of nodes in the aggregated load information along the chosen
// target dimension and sf is the stopping factor.
func StopProbability(nodesBeyond int, sf float64) float64 {
	if nodesBeyond < 0 {
		nodesBeyond = 0
	}
	return math.Pow(1.0/(1.0+float64(nodesBeyond)), sf)
}
