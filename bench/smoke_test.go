package bench

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"slices"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for hetbench: Run starts
// children as `<executable> child ...`.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "child" {
		os.Exit(ChildMain(os.Args[2:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

func toyOptions(t *testing.T, args ...string) Options {
	t.Helper()
	o, err := ParseArgs(args, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	o.Toy, o.Exe, o.Nproc, o.Out = true, os.Args[0], 2, t.TempDir()
	return o
}

type result struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

func decode(t *testing.T, rep *Report) result {
	t.Helper()
	line, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var r result
	if err := json.Unmarshal(line, &r); err != nil {
		t.Fatal(err)
	}
	return r
}

// TestSmoke runs every workload at toy scale through Run, two
// reps each: the children's checks must pass and each engine's digest
// must repeat across reps.
func TestSmoke(t *testing.T) {
	var out bytes.Buffer
	rep, err := Run(toyOptions(t, "-seed", "1", "-reps", "2"), &out)
	if err != nil {
		t.Fatal(err)
	}
	t.Log(out.String())
	r := decode(t, rep)
	if !r.Correct || r.Failed != 0 || r.Attempted != 14 {
		t.Fatalf("correct=%v attempted=%d failed=%d, want 14 clean ops\n%s", r.Correct, r.Attempted, r.Failed, out.String())
	}
	for _, w := range Workloads {
		for _, m := range EndToEnd {
			v, ok := r.Metrics[w.Name+"."+m.Name]
			if !ok || v.Unit != m.Unit || v.Value <= 0 {
				t.Errorf("%s.%s = %+v, want a positive value in %s", w.Name, m.Name, v, m.Unit)
			}
		}
		if !strings.Contains(out.String(), w.Name+" digest ") {
			t.Errorf("no digest printed for %s", w.Name)
		}
	}
}

func TestShardedDigestIndependentOfWorkers(t *testing.T) {
	for _, w := range Workloads {
		if w.Proto == nil {
			continue
		}
		var digests []string
		for _, workers := range []int{1, 2} {
			res, err := RunOp(Op{Workload: w.Name, Engine: Sharded, Workers: workers, Seed: 3, Toy: true})
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Failures) > 0 {
				t.Fatalf("%s W=%d: %v", w.Name, workers, res.Failures)
			}
			digests = append(digests, res.Summary)
		}
		if digests[0] != digests[1] {
			t.Errorf("%s: W=1 and W=2 differ:\n%s\n%s", w.Name, digests[0], digests[1])
		}
	}
}

// TestTracedSmoke runs the traced set of one protocol workload: every
// per-layer metric is reported once and the layer table is printed.
func TestTracedSmoke(t *testing.T) {
	var out bytes.Buffer
	rep, err := Run(toyOptions(t, "-workload", "churn_2k", "-trace", "1"), &out)
	if err != nil {
		t.Fatal(err)
	}
	t.Log(out.String())
	r := decode(t, rep)
	if !r.Correct || r.Attempted != 4 {
		t.Fatalf("correct=%v attempted=%d, want 4 clean ops\n%s", r.Correct, r.Attempted, out.String())
	}
	if len(r.Metrics) != len(PerLayer) {
		t.Errorf("%d metrics, want the %d per-layer metrics", len(r.Metrics), len(PerLayer))
	}
	for _, m := range PerLayer {
		if v, ok := r.Metrics[m.Name]; !ok || v.Unit != m.Unit {
			t.Errorf("per-layer metric %s missing or not in %s: %+v", m.Name, m.Unit, v)
		}
	}
	for _, name := range []string{"sim.events", "proto.churn_events", "sim.sharded.speedup_vs_serial", "sim.sharded.w1_over_serial"} {
		if r.Metrics[name].Value <= 0 {
			t.Errorf("%s = %g, want > 0", name, r.Metrics[name].Value)
		}
	}
	if !strings.Contains(out.String(), "churn_2k layer table") {
		t.Errorf("no layer table printed:\n%s", out.String())
	}
}

func TestBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "nope"},
		{"-reps", "0"},
		{"-seed", "-1"},
		{"-trace", "2"},
		{"-seconds", "-1"},
		{"-bogus"},
		{"stray"},
	} {
		if _, err := ParseArgs(args, io.Discard); err == nil {
			t.Errorf("ParseArgs(%q) accepted", args)
		}
	}
	for _, args := range [][]string{
		{"-workload", "nope", "-engine", "serial"},
		{"-workload", "lb_fig5", "-engine", "sharded"},
		{"-workload", "churn_2k", "-engine", "sharded", "-workers", "0"},
		{"-bogus"},
	} {
		if code := ChildMain(append(args, "-toy"), io.Discard, io.Discard); code == 0 {
			t.Errorf("child %q exited 0", args)
		}
	}
}

func TestReportJSONSingleWorkload(t *testing.T) {
	rep := &Report{Attempted: 2, Metrics: []Metric{{Workload: "lb_fig5", Name: "run_s", Value: 1.5, Unit: "s"}}}
	r := decode(t, rep)
	if !r.Correct || r.Metrics["run_s"].Value != 1.5 || len(r.Metrics) != 1 {
		t.Fatalf("single-workload report = %+v, want unprefixed run_s", r)
	}
	rep.Failed = 1
	if decode(t, rep).Correct {
		t.Fatal("a report with a failed op is correct")
	}
}

// TestBenchmarkJSON keeps the repository's BENCHMARK.json in step with
// the workloads and metrics this package reports.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []MetricDef `json:"end_to_end"`
		PerLayer  []MetricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range Workloads {
		want = append(want, w.Name)
	}
	if !slices.Equal(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, want %v", names, want)
	}
	if !slices.Equal(spec.EndToEnd, EndToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %v, want %v", spec.EndToEnd, EndToEnd)
	}
	if !slices.Equal(spec.PerLayer, PerLayer) {
		t.Errorf("BENCHMARK.json per_layer %v, want %v", spec.PerLayer, PerLayer)
	}
}
