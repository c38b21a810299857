package resource

import (
	"fmt"

	"hetgrid/internal/geom"
)

// Space defines the CAN dimension layout for a grid with a given number
// of accelerator type slots, and maps node capabilities and job
// requirements to CAN coordinates.
//
// Layout (Section III-A): 4 CPU/node dimensions (clock, memory, disk,
// cores), then 3 dimensions per accelerator slot (clock, memory, cores),
// then one virtual dimension. GPUSlots of 0, 1, 2 and 3 give the 5-, 8-,
// 11- and 14-dimensional CANs of the evaluation.
type Space struct {
	GPUSlots int   // number of accelerator type slots (CE types 1..GPUSlots)
	Norms    Norms // per-resource normalization maxima
}

// NewSpace returns a Space with the given accelerator slots and the
// default norms.
func NewSpace(gpuSlots int) *Space {
	if gpuSlots < 0 {
		panic("resource: negative GPU slots")
	}
	return &Space{GPUSlots: gpuSlots, Norms: DefaultNorms()}
}

// Dims returns the CAN dimensionality: 4 + 3·GPUSlots + 1.
func (s *Space) Dims() int { return 4 + 3*s.GPUSlots + 1 }

// VirtualDim returns the index of the virtual dimension (the last one).
func (s *Space) VirtualDim() int { return s.Dims() - 1 }

// ceBase returns the first dimension index of CE type t's group.
func (s *Space) ceBase(t CEType) int {
	if t == TypeCPU {
		return 0
	}
	return 4 + 3*(int(t)-1)
}

// DimName returns a human-readable name for dimension i.
func (s *Space) DimName(i int) string {
	switch {
	case i == 0:
		return "cpu.clock"
	case i == 1:
		return "memory"
	case i == 2:
		return "disk"
	case i == 3:
		return "cpu.cores"
	case i == s.VirtualDim():
		return "virtual"
	default:
		slot := (i-4)/3 + 1
		switch (i - 4) % 3 {
		case 0:
			return fmt.Sprintf("gpu%d.clock", slot)
		case 1:
			return fmt.Sprintf("gpu%d.mem", slot)
		default:
			return fmt.Sprintf("gpu%d.cores", slot)
		}
	}
}

// DimCEType returns the CE type whose resource group contains dimension
// i, and false for the virtual dimension.
func (s *Space) DimCEType(i int) (CEType, bool) {
	switch {
	case i < 0 || i >= s.Dims():
		panic(fmt.Sprintf("resource: dimension %d out of range", i))
	case i == s.VirtualDim():
		return 0, false
	case i < 4:
		return TypeCPU, true
	default:
		return CEType((i-4)/3 + 1), true
	}
}

// normCoord maps a resource amount to a CAN coordinate in [0, maxCoord]
// using the reference maximum. The mapping is strictly monotone on
// [0, max], so capability comparisons are preserved. Values above the
// reference maximum saturate.
const maxCoord = 0.999999

func normCoord(v, max float64) float64 {
	if max <= 0 || v <= 0 {
		return 0
	}
	c := v / max * maxCoord
	if c > maxCoord {
		c = maxCoord
	}
	return c
}

// NodePoint maps a node's capabilities to its CAN coordinate. Nodes
// lacking an accelerator type sit at the origin of that type's
// dimensions, so only jobs that leave those requirements unspecified can
// route to them.
func (s *Space) NodePoint(n *NodeCaps) geom.Point {
	p := make(geom.Point, s.Dims())
	cpu := n.CPU()
	p[0] = normCoord(cpu.Clock, s.Norms.CPUClock)
	p[1] = normCoord(cpu.Memory, s.Norms.Memory)
	p[2] = normCoord(n.Disk, s.Norms.Disk)
	p[3] = normCoord(float64(cpu.Cores), float64(s.Norms.CPUCores))
	for slot := 1; slot <= s.GPUSlots; slot++ {
		ce := n.CE(CEType(slot))
		if ce == nil {
			continue
		}
		base := s.ceBase(CEType(slot))
		p[base] = normCoord(ce.Clock, s.Norms.GPUClock)
		p[base+1] = normCoord(ce.Memory, s.Norms.GPUMemory)
		p[base+2] = normCoord(float64(ce.Cores), float64(s.Norms.GPUCores))
	}
	p[s.VirtualDim()] = n.Virtual
	return p
}

// JobPoint maps a job's requirements to the CAN coordinate it is routed
// to. Unspecified requirements map to 0 ("any amount acceptable").
// virtual is the random virtual-dimension value assigned to the job to
// spread placements across equivalent nodes.
func (s *Space) JobPoint(r JobReq, virtual float64) geom.Point {
	return s.JobPointInto(make(geom.Point, s.Dims()), r, virtual)
}

// JobPointInto is JobPoint writing into a caller-supplied point of
// length Dims(), so a scheduler placing jobs in a loop can reuse one
// buffer. The point is zeroed first: JobPoint only writes the
// dimensions the request names.
func (s *Space) JobPointInto(p geom.Point, r JobReq, virtual float64) geom.Point {
	for i := range p {
		p[i] = 0
	}
	p[2] = normCoord(r.Disk, s.Norms.Disk)
	for _, q := range r.CE {
		switch {
		case q.Type == TypeCPU:
			p[0] = normCoord(q.Clock, s.Norms.CPUClock)
			p[1] = normCoord(q.Memory, s.Norms.Memory)
			p[3] = normCoord(float64(q.CoresNeeded()), float64(s.Norms.CPUCores))
		case q.Type > TypeCPU && int(q.Type) <= s.GPUSlots:
			base := s.ceBase(q.Type)
			p[base] = normCoord(q.Clock, s.Norms.GPUClock)
			p[base+1] = normCoord(q.Memory, s.Norms.GPUMemory)
			p[base+2] = normCoord(float64(q.CoresNeeded()), float64(s.Norms.GPUCores))
		}
	}
	if virtual < 0 {
		virtual = 0
	}
	if virtual > maxCoord {
		virtual = maxCoord
	}
	p[s.VirtualDim()] = virtual
	return p
}
