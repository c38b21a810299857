package resource

import (
	"testing"
	"testing/quick"
)

func TestSpaceDims(t *testing.T) {
	// The evaluation's 5-, 8-, 11- and 14-dimensional CANs correspond to
	// 0, 1, 2 and 3 accelerator slots.
	for slots, want := range map[int]int{0: 5, 1: 8, 2: 11, 3: 14} {
		if got := NewSpace(slots).Dims(); got != want {
			t.Errorf("Dims(%d slots) = %d, want %d", slots, got, want)
		}
	}
}

func TestVirtualDimIsLast(t *testing.T) {
	s := NewSpace(2)
	if s.VirtualDim() != 10 {
		t.Fatalf("VirtualDim = %d, want 10", s.VirtualDim())
	}
	if s.DimName(s.VirtualDim()) != "virtual" {
		t.Fatal("virtual dim name wrong")
	}
}

func TestDimNames(t *testing.T) {
	s := NewSpace(2)
	want := []string{
		"cpu.clock", "memory", "disk", "cpu.cores",
		"gpu1.clock", "gpu1.mem", "gpu1.cores",
		"gpu2.clock", "gpu2.mem", "gpu2.cores",
		"virtual",
	}
	for i, w := range want {
		if got := s.DimName(i); got != w {
			t.Errorf("DimName(%d) = %q, want %q", i, got, w)
		}
	}
}

func TestDimCEType(t *testing.T) {
	s := NewSpace(2)
	for i := 0; i < 4; i++ {
		if ty, ok := s.DimCEType(i); !ok || ty != TypeCPU {
			t.Errorf("dim %d: type %v ok %v, want cpu", i, ty, ok)
		}
	}
	for i := 4; i < 7; i++ {
		if ty, ok := s.DimCEType(i); !ok || ty != 1 {
			t.Errorf("dim %d: type %v ok %v, want gpu1", i, ty, ok)
		}
	}
	for i := 7; i < 10; i++ {
		if ty, ok := s.DimCEType(i); !ok || ty != 2 {
			t.Errorf("dim %d: type %v ok %v, want gpu2", i, ty, ok)
		}
	}
	if _, ok := s.DimCEType(10); ok {
		t.Error("virtual dim must report no CE type")
	}
}

func TestNodePointInUnitSpace(t *testing.T) {
	s := NewSpace(2)
	n := testNode(gpu(1, 1.2, 240, 4), gpu(2, 1.5, 448, 6))
	p := s.NodePoint(n)
	if len(p) != s.Dims() {
		t.Fatalf("point has %d dims, want %d", len(p), s.Dims())
	}
	for i, v := range p {
		if v < 0 || v >= 1 {
			t.Fatalf("coordinate %d = %v outside [0,1)", i, v)
		}
	}
}

func TestNodePointMissingGPUAtOrigin(t *testing.T) {
	s := NewSpace(2)
	p := s.NodePoint(testNode()) // no GPUs
	for i := 4; i < 10; i++ {
		if p[i] != 0 {
			t.Fatalf("GPU dim %d = %v for GPU-less node, want 0", i, p[i])
		}
	}
}

func TestNodePointSaturatesAboveNorms(t *testing.T) {
	s := NewSpace(0)
	n := testNode()
	n.CEs[0].Clock = 100 // way above the reference max
	p := s.NodePoint(n)
	if p[0] >= 1 {
		t.Fatalf("saturated coordinate %v must stay below 1", p[0])
	}
}

func TestJobPointUnspecifiedIsZero(t *testing.T) {
	s := NewSpace(1)
	p := s.JobPoint(JobReq{}, 0.25)
	for i := 0; i < s.Dims()-1; i++ {
		if p[i] != 0 {
			t.Fatalf("dim %d = %v for empty requirement, want 0", i, p[i])
		}
	}
	if p[s.VirtualDim()] != 0.25 {
		t.Fatal("virtual coordinate not applied")
	}
}

func TestJobPointVirtualClamped(t *testing.T) {
	s := NewSpace(0)
	if v := s.JobPoint(JobReq{}, 1.5)[s.VirtualDim()]; v >= 1 {
		t.Fatalf("virtual coordinate %v not clamped below 1", v)
	}
	if v := s.JobPoint(JobReq{}, -0.5)[s.VirtualDim()]; v != 0 {
		t.Fatalf("negative virtual coordinate %v not clamped to 0", v)
	}
}

// The central consistency property tying the space to matchmaking: a
// node's point dominates a job's point (ignoring the virtual dimension)
// if and only if the node statically satisfies the job.
func TestDominationMatchesSatisfies(t *testing.T) {
	s := NewSpace(2)
	f := func(clockR, memR, coreR, gclockR, gmemR, gcoreR uint8, hasGPU bool) bool {
		n := testNode()
		if hasGPU {
			n.CEs = append(n.CEs, gpu(1, 1.2, 240, 4))
		}
		req := JobReq{CE: []CEReq{{
			Type:   TypeCPU,
			Clock:  float64(clockR) / 64, // 0..4
			Memory: float64(memR) / 16,   // 0..16
			Cores:  int(coreR)%9 + 0,     // 0..8
		}}}
		if gclockR%2 == 0 {
			req.CE = append(req.CE, CEReq{
				Type:   1,
				Clock:  float64(gclockR) / 128,
				Memory: float64(gmemR) / 42,
				Cores:  int(gcoreR) * 2,
			})
		}
		nodePt := s.NodePoint(n)
		jobPt := s.JobPoint(req, 0)
		// Compare ignoring the virtual dimension.
		vd := s.VirtualDim()
		dom := true
		for i := range nodePt {
			if i == vd {
				continue
			}
			if nodePt[i] < jobPt[i] {
				dom = false
				break
			}
		}
		return dom == Satisfies(n, req)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestNormCoordMonotone(t *testing.T) {
	f := func(a, b uint16) bool {
		x, y := float64(a)/1000, float64(b)/1000
		if x > y {
			x, y = y, x
		}
		return normCoord(x, 10) <= normCoord(y, 10)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDimCETypePanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("DimCEType out of range did not panic")
		}
	}()
	NewSpace(0).DimCEType(99)
}

func TestNewSpacePanicsOnNegativeSlots(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewSpace(-1) did not panic")
		}
	}()
	NewSpace(-1)
}
