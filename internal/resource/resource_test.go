package resource

import (
	"math"
	"testing"
	"testing/quick"
)

// testNode builds a node with a 4-core 2.0x CPU, 8 GB RAM, 500 GB disk,
// and the given extra accelerators.
func testNode(gpus ...CE) *NodeCaps {
	n := &NodeCaps{
		CEs:     append([]CE{{Type: TypeCPU, Clock: 2.0, Cores: 4, Memory: 8}}, gpus...),
		Disk:    500,
		Virtual: 0.5,
	}
	return n
}

func gpu(t CEType, clock float64, cores int, mem float64) CE {
	return CE{Type: t, Dedicated: true, Clock: clock, Cores: cores, Memory: mem}
}

func TestValidateAcceptsWellFormed(t *testing.T) {
	n := testNode(gpu(1, 1.2, 240, 4))
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejectsBadNodes(t *testing.T) {
	cases := []struct {
		name string
		node NodeCaps
	}{
		{"no CEs", NodeCaps{}},
		{"first not CPU", NodeCaps{CEs: []CE{{Type: 1, Dedicated: true, Clock: 1, Cores: 1}}}},
		{"dedicated CPU", NodeCaps{CEs: []CE{{Type: TypeCPU, Dedicated: true, Clock: 1, Cores: 1}}}},
		{"zero clock", NodeCaps{CEs: []CE{{Type: TypeCPU, Clock: 0, Cores: 1}}}},
		{"zero cores", NodeCaps{CEs: []CE{{Type: TypeCPU, Clock: 1, Cores: 0}}}},
		{"duplicate type", NodeCaps{CEs: []CE{
			{Type: TypeCPU, Clock: 1, Cores: 1},
			{Type: 1, Dedicated: true, Clock: 1, Cores: 1},
			{Type: 1, Dedicated: true, Clock: 1, Cores: 1}}}},
		{"out of order", NodeCaps{CEs: []CE{
			{Type: TypeCPU, Clock: 1, Cores: 1},
			{Type: 2, Dedicated: true, Clock: 1, Cores: 1},
			{Type: 1, Dedicated: true, Clock: 1, Cores: 1}}}},
		{"negative disk", NodeCaps{CEs: []CE{{Type: TypeCPU, Clock: 1, Cores: 1}}, Disk: -1}},
		{"virtual out of range", NodeCaps{CEs: []CE{{Type: TypeCPU, Clock: 1, Cores: 1}}, Virtual: 1}},
	}
	for _, c := range cases {
		if err := c.node.Validate(); err == nil {
			t.Errorf("%s: Validate accepted invalid node", c.name)
		}
	}
}

func TestValidateAcceptsConcurrentGPU(t *testing.T) {
	// The paper's anticipated concurrent-kernel GPUs: a non-dedicated
	// accelerator is legal and shares cores like a CPU.
	n := NodeCaps{CEs: []CE{
		{Type: TypeCPU, Clock: 1, Cores: 2, Memory: 4},
		{Type: 1, Dedicated: false, Clock: 1.2, Cores: 240, Memory: 4},
	}, Disk: 100}
	if err := n.Validate(); err != nil {
		t.Fatalf("concurrent GPU rejected: %v", err)
	}
}

func TestCELookup(t *testing.T) {
	n := testNode(gpu(2, 1.0, 128, 2))
	if n.CPU() == nil || n.CPU().Type != TypeCPU {
		t.Fatal("CPU lookup failed")
	}
	if n.CE(2) == nil || n.CE(2).Cores != 128 {
		t.Fatal("GPU lookup failed")
	}
	if n.CE(1) != nil {
		t.Fatal("lookup of absent CE type returned non-nil")
	}
}

func TestSatisfiesCPUOnly(t *testing.T) {
	n := testNode()
	ok := JobReq{CE: []CEReq{{Type: TypeCPU, Clock: 1.5, Memory: 4, Cores: 2}}}
	if !Satisfies(n, ok) {
		t.Fatal("satisfiable requirement rejected")
	}
	tooFast := JobReq{CE: []CEReq{{Type: TypeCPU, Clock: 2.5}}}
	if Satisfies(n, tooFast) {
		t.Fatal("clock requirement above capability accepted")
	}
	tooManyCores := JobReq{CE: []CEReq{{Type: TypeCPU, Cores: 8}}}
	if Satisfies(n, tooManyCores) {
		t.Fatal("core requirement above capability accepted")
	}
	tooMuchMem := JobReq{CE: []CEReq{{Type: TypeCPU, Memory: 16}}}
	if Satisfies(n, tooMuchMem) {
		t.Fatal("memory requirement above capability accepted")
	}
}

func TestSatisfiesDisk(t *testing.T) {
	n := testNode()
	if !Satisfies(n, JobReq{Disk: 500}) {
		t.Fatal("exact disk requirement rejected")
	}
	if Satisfies(n, JobReq{Disk: 501}) {
		t.Fatal("excess disk requirement accepted")
	}
}

func TestSatisfiesMissingGPU(t *testing.T) {
	n := testNode() // no GPU
	req := JobReq{CE: []CEReq{{Type: 1, Clock: 0.5}}}
	if Satisfies(n, req) {
		t.Fatal("node without the required CE type accepted")
	}
	withGPU := testNode(gpu(1, 1.0, 240, 4))
	if !Satisfies(withGPU, req) {
		t.Fatal("node with the required CE type rejected")
	}
}

func TestSatisfiesEmptyRequirementMatchesAnything(t *testing.T) {
	if !Satisfies(testNode(), JobReq{}) {
		t.Fatal("empty requirement must match any node")
	}
}

func TestCoresOnDefaultsToOne(t *testing.T) {
	r := JobReq{CE: []CEReq{{Type: TypeCPU, Clock: 1.0}}}
	if q, ok := r.Req(TypeCPU); !ok || q.CoresNeeded() != 1 {
		t.Fatal("a required CE must occupy at least one core")
	}
	if _, ok := r.Req(1); ok {
		t.Fatal("an unrequired CE must not be found")
	}
	if (CEReq{Type: TypeCPU, Cores: 3}).CoresNeeded() != 3 {
		t.Fatal("explicit core requirement ignored")
	}
}

func TestDominantCECUDAExample(t *testing.T) {
	// The paper's CUDA example: the job needs a CPU (1 core, control
	// thread) and a GPU (many cores, most of the memory demand). The
	// GPU must dominate.
	r := JobReq{CE: []CEReq{
		{Type: TypeCPU, Cores: 1, Memory: 1},
		{Type: 1, Cores: 128, Memory: 2},
	}}
	if got := DominantCE(r); got != 1 {
		t.Fatalf("DominantCE = %v, want gpu1", got)
	}
}

func TestDominantCECPUHeavyJob(t *testing.T) {
	r := JobReq{CE: []CEReq{
		{Type: TypeCPU, Cores: 8, Memory: 16},
		{Type: 1, Cores: 1, Memory: 0.1},
	}}
	if got := DominantCE(r); got != TypeCPU {
		t.Fatalf("DominantCE = %v, want cpu", got)
	}
}

func TestDominantCEDefaultsToCPU(t *testing.T) {
	if got := DominantCE(JobReq{}); got != TypeCPU {
		t.Fatalf("DominantCE of empty req = %v, want cpu", got)
	}
}

func TestDominantCETieGoesToAccelerator(t *testing.T) {
	// Equal absolute demand on both CEs: the accelerator wins.
	r := JobReq{CE: []CEReq{
		{Type: TypeCPU, Cores: 4, Memory: 2},
		{Type: 1, Cores: 4, Memory: 2},
	}}
	if got := DominantCE(r); got != 1 {
		t.Fatalf("DominantCE tie = %v, want gpu1", got)
	}
}

func TestScoreDedicated(t *testing.T) {
	if got := ScoreDedicated(4, 2.0); got != 2.0 {
		t.Fatalf("ScoreDedicated(4, 2.0) = %v, want 2", got)
	}
	// Faster clock gives lower (better) score for equal queues.
	if ScoreDedicated(3, 2.0) >= ScoreDedicated(3, 1.0) {
		t.Fatal("dedicated score must prefer faster clocks")
	}
}

func TestScoreNonDedicated(t *testing.T) {
	// 4 required cores on an 8-core 2.0x CPU: utilization 0.5, score 0.25.
	if got := ScoreNonDedicated(4, 8, 2.0); got != 0.25 {
		t.Fatalf("ScoreNonDedicated = %v, want 0.25", got)
	}
	if ScoreNonDedicated(4, 8, 2.0) >= ScoreNonDedicated(4, 4, 2.0) {
		t.Fatal("more cores must lower the utilization score")
	}
}

func TestPushObjective(t *testing.T) {
	// Equation 3: SumRequiredCores / NumberOfCores².
	if got := PushObjective(8, 4); got != 0.5 {
		t.Fatalf("PushObjective(8,4) = %v, want 0.5", got)
	}
	if got := PushObjective(5, 0); got < 1e17 {
		t.Fatalf("PushObjective with zero cores = %v, want huge", got)
	}
	// A region with more cores and less demand scores lower.
	if PushObjective(2, 16) >= PushObjective(8, 4) {
		t.Fatal("push objective ordering wrong")
	}
}

func TestStopProbability(t *testing.T) {
	if got := StopProbability(0, 2); got != 1 {
		t.Fatalf("StopProbability(0,2) = %v, want 1 (nowhere further to go)", got)
	}
	if got := StopProbability(3, 2); math.Abs(got-1.0/16) > 1e-12 {
		t.Fatalf("StopProbability(3,2) = %v, want 1/16", got)
	}
	if got := StopProbability(-5, 2); got != 1 {
		t.Fatalf("negative count must clamp to 0, got %v", got)
	}
	// Property: more nodes beyond means lower stop probability.
	f := func(a, b uint8) bool {
		x, y := int(a), int(b)
		if x > y {
			x, y = y, x
		}
		return StopProbability(y, 2) <= StopProbability(x, 2)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestJobReqClone(t *testing.T) {
	r := JobReq{CE: []CEReq{{Type: TypeCPU, Cores: 2}}, Disk: 10}
	c := r.Clone()
	c.CE[0].Cores = 9
	if r.CE[0].Cores != 2 {
		t.Fatal("Clone shares the CE slice")
	}
}

func TestJobReqValidate(t *testing.T) {
	good := []JobReq{
		{},
		{Disk: 10},
		{CE: []CEReq{{Type: TypeCPU}}},
		{CE: []CEReq{{Type: TypeCPU, Cores: 2}, {Type: 1, Cores: 32, Memory: 1}}},
		{CE: []CEReq{{Type: 2, Clock: 0.5}}},
		{CE: []CEReq{{Type: TypeCPU}, {Type: 3}}},
	}
	for _, r := range good {
		if err := r.Validate(); err != nil {
			t.Errorf("%+v rejected: %v", r, err)
		}
	}
	nan := math.NaN()
	bad := []struct {
		name string
		req  JobReq
	}{
		{"unsorted", JobReq{CE: []CEReq{{Type: 1}, {Type: TypeCPU}}}},
		{"unsorted gpus", JobReq{CE: []CEReq{{Type: TypeCPU}, {Type: 2}, {Type: 1}}}},
		{"duplicate cpu", JobReq{CE: []CEReq{{Type: TypeCPU}, {Type: TypeCPU, Cores: 1}}}},
		{"duplicate gpu", JobReq{CE: []CEReq{{Type: 1}, {Type: 1}}}},
		{"negative type", JobReq{CE: []CEReq{{Type: -1}}}},
		{"negative clock", JobReq{CE: []CEReq{{Type: TypeCPU, Clock: -1}}}},
		{"negative memory", JobReq{CE: []CEReq{{Type: 1, Memory: -0.5}}}},
		{"negative cores", JobReq{CE: []CEReq{{Type: TypeCPU, Cores: -2}}}},
		{"NaN clock", JobReq{CE: []CEReq{{Type: TypeCPU, Clock: nan}}}},
		{"negative disk", JobReq{Disk: -1}},
		{"NaN disk", JobReq{Disk: nan}},
	}
	for _, c := range bad {
		if err := c.req.Validate(); err == nil {
			t.Errorf("%s: Validate accepted %+v", c.name, c.req)
		}
	}
}

// TestUnsortedReqWouldMismatch pins why Validate exists: the merge walk
// in Satisfies trusts the order, so a reversed vector that the node can
// in fact serve is refused rather than matched.
func TestUnsortedReqWouldMismatch(t *testing.T) {
	n := testNode(gpu(1, 1.0, 240, 4))
	sorted := JobReq{CE: []CEReq{{Type: TypeCPU}, {Type: 1}}}
	reversed := JobReq{CE: []CEReq{{Type: 1}, {Type: TypeCPU}}}
	if !Satisfies(n, sorted) {
		t.Fatal("sorted vector rejected")
	}
	if Satisfies(n, reversed) || reversed.Validate() == nil {
		t.Fatal("reversed vector must be mis-matched by Satisfies and rejected by Validate")
	}
}

func TestCETypeString(t *testing.T) {
	if TypeCPU.String() != "cpu" || CEType(2).String() != "gpu2" {
		t.Fatal("CEType.String wrong")
	}
}
