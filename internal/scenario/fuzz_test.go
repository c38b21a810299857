package scenario

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// FuzzScenarioLoad feeds arbitrary documents through Load — YAML
// parse, decode and validate — seeded from the example corpus. Scenario
// files are untrusted input: every malformed document must come back as
// an error, never a panic, and an accepted one must stay valid. An
// accepted spec of at most 64 nodes is also built by NewWorld, which
// must not panic either.
func FuzzScenarioLoad(f *testing.F) {
	paths, err := filepath.Glob("../../examples/scenarios/*.yaml")
	if err != nil || len(paths) == 0 {
		f.Fatalf("no scenario corpus: %v", err)
	}
	for _, p := range paths {
		src, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(src))
	}
	// Out-of-range values that once passed validation and then panicked
	// or hung in the run.
	rack, err := os.ReadFile("../../examples/scenarios/rack_failure.yaml")
	if err != nil {
		f.Fatal(err)
	}
	for _, edit := range [][2]string{
		{"gpu_slots: 2", "gpu_slots: -1"},
		{"mean_gap: 1s", "mean_gap: 0s"},
		{"heartbeat: 10s", "heartbeat: 0s"},
		{"jobs: 300", "jobs: -5"},
		{"gpu_fraction: 0.3", "gpu_fraction: 2"},
	} {
		f.Add(strings.Replace(string(rack), edit[0], edit[1], 1))
	}
	f.Fuzz(func(t *testing.T, src string) {
		spec, err := Load(src)
		if err != nil {
			return
		}
		if err := spec.validate(); err != nil {
			t.Fatalf("accepted spec fails revalidation: %v", err)
		}
		if spec.Grid.Nodes > 64 {
			return
		}
		w, err := NewWorld(spec)
		if err == nil && w.ssim != nil {
			w.ssim.Close()
		}
	})
}
