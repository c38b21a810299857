package workload

import (
	"testing"

	"hetgrid/internal/resource"
	"hetgrid/internal/sim"
)

func TestNodeGenProducesValidNodes(t *testing.T) {
	space := resource.NewSpace(2)
	g := NewNodeGen(space, 1)
	for i, caps := range g.Generate(500) {
		if err := caps.Validate(); err != nil {
			t.Fatalf("node %d invalid: %v (%v)", i, err, caps)
		}
	}
}

func TestNodeGenPopulationShape(t *testing.T) {
	space := resource.NewSpace(2)
	g := NewNodeGen(space, 2)
	nodes := g.Generate(2000)
	gpus := 0
	lowClock := 0
	coreCounts := map[int]int{}
	for _, n := range nodes {
		if len(n.CEs) > 1 {
			gpus++
		}
		if n.CPU().Clock <= 1.8 {
			lowClock++
		}
		coreCounts[n.CPU().Cores]++
	}
	// Roughly 55% of nodes carry at least one GPU (the catalog's 35%+20%).
	frac := float64(gpus) / float64(len(nodes))
	if frac < 0.45 || frac > 0.65 {
		t.Fatalf("GPU-bearing fraction = %.2f", frac)
	}
	// Skewed low: a majority of CPUs at or below 1.8x clock.
	if float64(lowClock)/float64(len(nodes)) < 0.5 {
		t.Fatalf("low-clock fraction = %.2f; population should be skewed low", float64(lowClock)/float64(len(nodes)))
	}
	// All four core counts appear.
	for _, c := range []int{1, 2, 4, 8} {
		if coreCounts[c] == 0 {
			t.Fatalf("no %d-core nodes in 2000 draws", c)
		}
	}
}

func TestNodeGenRespectsSlotLimit(t *testing.T) {
	space := resource.NewSpace(1) // only one accelerator slot
	g := NewNodeGen(space, 3)
	for _, n := range g.Generate(300) {
		if len(n.CEs) > 2 {
			t.Fatalf("node has %d CEs with only 1 slot", len(n.CEs))
		}
		for _, ce := range n.CEs[1:] {
			if ce.Type != 1 {
				t.Fatalf("GPU in slot %v with 1 slot configured", ce.Type)
			}
		}
	}
}

func TestNodeGenZeroSlots(t *testing.T) {
	space := resource.NewSpace(0)
	g := NewNodeGen(space, 4)
	for _, n := range g.Generate(100) {
		if len(n.CEs) != 1 {
			t.Fatal("GPU generated with zero slots")
		}
	}
}

func TestNodeGenDeterministic(t *testing.T) {
	space := resource.NewSpace(2)
	a := NewNodeGen(space, 7).Generate(50)
	b := NewNodeGen(space, 7).Generate(50)
	for i := range a {
		if a[i].String() != b[i].String() {
			t.Fatalf("node %d differs across identically seeded generators", i)
		}
	}
}

func TestJobGenValidJobs(t *testing.T) {
	space := resource.NewSpace(2)
	g := NewJobGen(space, 1)
	seenIDs := map[int64]bool{}
	for i := 0; i < 1000; i++ {
		j, gap := g.Next()
		if seenIDs[int64(j.ID)] {
			t.Fatal("duplicate job id")
		}
		seenIDs[int64(j.ID)] = true
		if gap < 0 {
			t.Fatal("negative inter-arrival gap")
		}
		if len(j.Req.CE) == 0 {
			t.Fatal("job requires no CE at all")
		}
		if j.BaseDuration < g.MinRuntime || j.BaseDuration > g.MaxRuntime {
			t.Fatalf("duration %v outside [%v, %v]", j.BaseDuration, g.MinRuntime, g.MaxRuntime)
		}
		if _, ok := j.Req.Req(j.Dominant); !ok {
			t.Fatalf("dominant CE %v not among requirements %v", j.Dominant, j.Req.CE)
		}
		if err := j.Req.Validate(); err != nil {
			t.Fatalf("job %d: %v", j.ID, err)
		}
	}
}

func TestJobGenGPUFraction(t *testing.T) {
	space := resource.NewSpace(2)
	g := NewJobGen(space, 2)
	g.ConstraintRatio = 1 // keep everything so GPU jobs stay GPU jobs
	gpu := 0
	const n = 5000
	for i := 0; i < n; i++ {
		j, _ := g.Next()
		if j.Dominant != resource.TypeCPU {
			gpu++
		}
	}
	frac := float64(gpu) / n
	if frac < 0.35 || frac > 0.45 {
		t.Fatalf("GPU-dominant fraction = %.2f, want ≈0.40", frac)
	}
}

func TestJobGenNoGPUJobsWithoutSlots(t *testing.T) {
	space := resource.NewSpace(0)
	g := NewJobGen(space, 3)
	for i := 0; i < 200; i++ {
		j, _ := g.Next()
		if j.Dominant != resource.TypeCPU {
			t.Fatal("GPU job generated in a CPU-only space")
		}
	}
}

func TestConstraintRatioControlsSpecification(t *testing.T) {
	space := resource.NewSpace(2)
	count := func(q float64, seed int64) int {
		g := NewJobGen(space, seed)
		g.ConstraintRatio = q
		specified := 0
		for i := 0; i < 2000; i++ {
			j, _ := g.Next()
			for _, r := range j.Req.CE {
				if r.Clock > 0 {
					specified++
				}
				if r.Memory > 0 {
					specified++
				}
				if r.Cores > 0 {
					specified++
				}
			}
			if j.Req.Disk > 0 {
				specified++
			}
		}
		return specified
	}
	high := count(0.9, 4)
	low := count(0.3, 4)
	if high <= low {
		t.Fatalf("specified requirements: ratio 0.9 → %d, ratio 0.3 → %d; should increase with ratio", high, low)
	}
}

func TestJobGenArrivalMean(t *testing.T) {
	space := resource.NewSpace(1)
	g := NewJobGen(space, 5)
	g.MeanInterArrival = 4 * sim.Second
	total := sim.Duration(0)
	const n = 20000
	for i := 0; i < n; i++ {
		_, gap := g.Next()
		total += gap
	}
	mean := total.Seconds() / n
	if mean < 3.8 || mean > 4.2 {
		t.Fatalf("mean inter-arrival = %.2fs, want ≈4", mean)
	}
}

func TestJobGenMostJobsMatchable(t *testing.T) {
	// Consistency of the two catalogs: on a reasonable population, the
	// vast majority of generated jobs must be satisfiable somewhere.
	space := resource.NewSpace(2)
	nodes := NewNodeGen(space, 6).Generate(300)
	g := NewJobGen(space, 6)
	unmatchable := 0
	const n = 2000
	for i := 0; i < n; i++ {
		j, _ := g.Next()
		ok := false
		for _, caps := range nodes {
			if resource.Satisfies(caps, j.Req) {
				ok = true
				break
			}
		}
		if !ok {
			unmatchable++
		}
	}
	if frac := float64(unmatchable) / n; frac > 0.05 {
		t.Fatalf("unmatchable fraction = %.3f, want ≤ 0.05", frac)
	}
}
