package hetgrid

import (
	"fmt"

	"hetgrid/internal/resource"
)

// NodeSpec describes a grid node's hardware for AddNode.
type NodeSpec struct {
	// CPU is required: every node has one non-dedicated multi-core CPU.
	CPU CPUSpec
	// GPUs lists the node's dedicated accelerators, at most one per
	// slot, slots numbered from 1.
	GPUs []GPUSpec
	// DiskGB is the node's available disk space.
	DiskGB float64
}

// CPUSpec describes a node's CPU.
type CPUSpec struct {
	Clock    float64 // relative to the nominal clock (1.0)
	Cores    int
	MemoryGB float64
}

// GPUSpec describes one accelerator. Accelerators are dedicated (one
// job at a time) unless Concurrent is set, which models the
// concurrent-kernel GPUs the paper anticipates: several jobs share the
// GPU's cores like a CPU.
type GPUSpec struct {
	Slot       int // accelerator type slot, 1..GPUSlots
	Clock      float64
	Cores      int
	MemoryGB   float64
	Concurrent bool
}

// toCaps converts the public spec to the internal capability vector.
func (n NodeSpec) toCaps(gpuSlots int, virtual float64) (*resource.NodeCaps, error) {
	caps := &resource.NodeCaps{
		CEs: []resource.CE{{
			Type:   resource.TypeCPU,
			Clock:  n.CPU.Clock,
			Cores:  n.CPU.Cores,
			Memory: n.CPU.MemoryGB,
		}},
		Disk:    n.DiskGB,
		Virtual: virtual,
	}
	seen := make(map[int]bool)
	for _, g := range n.GPUs {
		if g.Slot < 1 || g.Slot > gpuSlots {
			return nil, fmt.Errorf("hetgrid: GPU slot %d outside 1..%d", g.Slot, gpuSlots)
		}
		if seen[g.Slot] {
			return nil, fmt.Errorf("hetgrid: duplicate GPU slot %d", g.Slot)
		}
		seen[g.Slot] = true
		caps.CEs = append(caps.CEs, resource.CE{
			Type:      resource.CEType(g.Slot),
			Dedicated: !g.Concurrent,
			Clock:     g.Clock,
			Cores:     g.Cores,
			Memory:    g.MemoryGB,
		})
	}
	// CEs must be sorted by type.
	for i := 1; i < len(caps.CEs); i++ {
		for j := i; j > 1 && caps.CEs[j].Type < caps.CEs[j-1].Type; j-- {
			caps.CEs[j], caps.CEs[j-1] = caps.CEs[j-1], caps.CEs[j]
		}
	}
	if err := caps.Validate(); err != nil {
		return nil, fmt.Errorf("hetgrid: invalid node spec: %w", err)
	}
	return caps, nil
}

// JobSpec describes a job for Submit. Zero-valued requirement fields
// mean "any amount acceptable", the paper's omitted requirement.
type JobSpec struct {
	// CPU requirements (optional).
	CPU *CEReqSpec
	// GPU requirements (optional): the accelerator slot the job targets
	// plus its demands. A CUDA-style job sets both CPU (control thread)
	// and GPU, and the GPU will be its dominant CE.
	GPU     *CEReqSpec
	GPUSlot int
	// DiskGB is the minimum disk space.
	DiskGB float64
	// DurationHours is the job's execution time on a nominal
	// (clock 1.0) uncontended CE. Required.
	DurationHours float64
}

// CEReqSpec is a requirement against one CE.
type CEReqSpec struct {
	Clock    float64
	Cores    int
	MemoryGB float64
}

func (j JobSpec) toReq(gpuSlots int) (resource.JobReq, error) {
	req := resource.JobReq{Disk: j.DiskGB}
	if j.CPU != nil {
		req.CE = append(req.CE, resource.CEReq{
			Type: resource.TypeCPU, Clock: j.CPU.Clock, Cores: j.CPU.Cores, Memory: j.CPU.MemoryGB,
		})
	}
	if j.GPU != nil {
		slot := j.GPUSlot
		if slot == 0 {
			slot = 1
		}
		if slot < 1 || slot > gpuSlots {
			return resource.JobReq{}, fmt.Errorf("hetgrid: GPU slot %d outside 1..%d", slot, gpuSlots)
		}
		req.CE = append(req.CE, resource.CEReq{
			Type: resource.CEType(slot), Clock: j.GPU.Clock, Cores: j.GPU.Cores, Memory: j.GPU.MemoryGB,
		})
	}
	if len(req.CE) == 0 {
		req.CE = append(req.CE, resource.CEReq{Type: resource.TypeCPU, Cores: 1})
	}
	if err := req.Validate(); err != nil {
		return resource.JobReq{}, fmt.Errorf("hetgrid: invalid job spec: %w", err)
	}
	if j.DurationHours <= 0 {
		return resource.JobReq{}, fmt.Errorf("hetgrid: job needs a positive DurationHours")
	}
	return req, nil
}
