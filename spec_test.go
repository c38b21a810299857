package hetgrid

import (
	"testing"
	"testing/quick"
)

func TestNodeSpecRoundTrip(t *testing.T) {
	spec := NodeSpec{
		CPU:    CPUSpec{Clock: 2.4, Cores: 4, MemoryGB: 8},
		GPUs:   []GPUSpec{{Slot: 2, Clock: 1.1, Cores: 240, MemoryGB: 4}, {Slot: 1, Clock: 0.9, Cores: 128, MemoryGB: 2}},
		DiskGB: 320,
	}
	caps, err := spec.toCaps(2, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if err := caps.Validate(); err != nil {
		t.Fatal(err)
	}
	// GPUs must come out sorted by slot even when specified out of order.
	if caps.CEs[1].Type != 1 || caps.CEs[2].Type != 2 {
		t.Fatalf("CE order: %v, %v", caps.CEs[1].Type, caps.CEs[2].Type)
	}
	if caps.CEs[1].Clock != 0.9 || caps.CEs[2].Clock != 1.1 {
		t.Fatal("GPU fields shuffled during sort")
	}
	cpu := caps.CPU()
	if cpu.Clock != 2.4 || cpu.Cores != 4 || cpu.Memory != 8 || caps.Disk != 320 {
		t.Fatal("CPU/disk fields lost in conversion")
	}
}

func TestNodeSpecConcurrentGPU(t *testing.T) {
	spec := NodeSpec{
		CPU:    CPUSpec{Clock: 1, Cores: 2, MemoryGB: 2},
		GPUs:   []GPUSpec{{Slot: 1, Clock: 1, Cores: 64, MemoryGB: 1, Concurrent: true}},
		DiskGB: 10,
	}
	caps, err := spec.toCaps(1, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if caps.CE(1).Dedicated {
		t.Fatal("Concurrent GPU converted as dedicated")
	}
}

// Property: any structurally plausible spec either converts to a
// capability vector that passes Validate, or is rejected — toCaps never
// produces an invalid vector.
func TestNodeSpecNeverProducesInvalidCaps(t *testing.T) {
	f := func(clockR, coresR, memR uint8, slotR, gclockR uint8, virtR uint16) bool {
		spec := NodeSpec{
			CPU: CPUSpec{
				Clock:    float64(clockR) / 32,
				Cores:    int(coresR) % 12,
				MemoryGB: float64(memR) / 8,
			},
			DiskGB: float64(memR),
		}
		if slotR%3 != 0 {
			spec.GPUs = []GPUSpec{{
				Slot:     int(slotR) % 5,
				Clock:    float64(gclockR) / 64,
				Cores:    int(gclockR) % 300,
				MemoryGB: float64(gclockR) / 40,
			}}
		}
		caps, err := spec.toCaps(2, float64(virtR)/65536)
		if err != nil {
			return true // rejected is fine
		}
		return caps.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestJobSpecDefaultsGPUSlot(t *testing.T) {
	spec := JobSpec{GPU: &CEReqSpec{Cores: 32}, DurationHours: 1}
	req, err := spec.toReq(2)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := req.Req(1); !ok {
		t.Fatal("GPU requirement without a slot should default to slot 1")
	}
}

func TestJobSpecEmptyGetsMinimalCPU(t *testing.T) {
	req, err := JobSpec{DurationHours: 1}.toReq(2)
	if err != nil {
		t.Fatal(err)
	}
	if q, ok := req.Req(0); !ok || q.CoresNeeded() != 1 {
		t.Fatal("empty job spec should require one CPU core")
	}
}

func TestJobSpecRejectsNegativeRequirements(t *testing.T) {
	bad := []JobSpec{
		{CPU: &CEReqSpec{Clock: -1}, DurationHours: 1},
		{CPU: &CEReqSpec{Cores: -2}, DurationHours: 1},
		{GPU: &CEReqSpec{MemoryGB: -0.5}, DurationHours: 1},
		{DiskGB: -10, DurationHours: 1},
	}
	for _, spec := range bad {
		if _, err := spec.toReq(2); err == nil {
			t.Errorf("toReq accepted %+v", spec)
		}
	}
	req, err := JobSpec{CPU: &CEReqSpec{Cores: 1}, GPU: &CEReqSpec{Cores: 32}, GPUSlot: 2, DurationHours: 1}.toReq(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(req.CE) != 2 || req.CE[0].Type != 0 || req.CE[1].Type != 2 {
		t.Fatalf("CUDA-style spec built %+v, want [cpu gpu2] in type order", req.CE)
	}
}
