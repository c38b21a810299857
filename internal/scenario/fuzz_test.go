package scenario

import (
	"os"
	"path/filepath"
	"testing"
)

// FuzzScenarioLoad feeds arbitrary documents through Load — YAML
// parse, decode and validate — seeded from the example corpus. Scenario
// files are untrusted input: every malformed document must come back as
// an error, never a panic, and an accepted one must stay valid.
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
	f.Fuzz(func(t *testing.T, src string) {
		spec, err := Load(src)
		if err != nil {
			return
		}
		if err := spec.validate(); err != nil {
			t.Fatalf("accepted spec fails revalidation: %v", err)
		}
	})
}
