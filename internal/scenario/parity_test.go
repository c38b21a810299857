package scenario

import (
	"bytes"
	"path/filepath"
	"runtime"
	"testing"

	"hetgrid/internal/sim"
)

// parityInterval keeps the exported stream dense enough to catch
// sampling divergence (dormancy bugs truncate streams, not reports).
const parityInterval = 30 * sim.Second

func runCorpusWith(t *testing.T, path, engine string, shards, workers int) (report, stream string) {
	t.Helper()
	spec, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	spec.Engine = engine
	spec.Shards = shards
	spec.Workers = workers
	res, err := RunSampled(spec, parityInterval)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.Telemetry.WriteJSONL(&buf, spec.Name); err != nil {
		t.Fatal(err)
	}
	return res.Report, buf.String()
}

// TestCorpusEngineParity is the sharded scenario engine's acceptance
// contract as a test: every shipped scenario must produce a report AND
// a sampled telemetry stream byte-identical to the serial engine's
// under `engine: sharded` for (S, W) ∈ {(1,1), (4,1), (4, max)} — the
// sharded core is a pure wall-clock substitution, never an accuracy
// trade. Serial-vs-strict parity rests on the mailbox emission-order
// contract (sim.ShardedEngine's sub key, DESIGN.md §14); S=1 vs S=4
// additionally exercises cross-row gather and window placement.
func TestCorpusEngineParity(t *testing.T) {
	if testing.Short() {
		t.Skip("parity runs the corpus four times per scenario")
	}
	paths, err := filepath.Glob("../../examples/scenarios/*.yaml")
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) < 6 {
		t.Fatalf("found %d corpus scenarios, want at least 6", len(paths))
	}
	for _, path := range paths {
		path := path
		t.Run(filepath.Base(path), func(t *testing.T) {
			t.Parallel()
			wantReport, wantStream := runCorpusWith(t, path, "serial", 0, 0)
			combos := [][2]int{{1, 1}, {4, 1}, {4, runtime.GOMAXPROCS(0)}}
			for _, c := range combos {
				gotReport, gotStream := runCorpusWith(t, path, "sharded", c[0], c[1])
				if gotReport != wantReport {
					t.Fatalf("S=%d W=%d report diverged from serial:\n--- serial\n%s\n--- sharded\n%s",
						c[0], c[1], wantReport, gotReport)
				}
				if gotStream != wantStream {
					t.Fatalf("S=%d W=%d telemetry stream diverged from serial (reports identical)", c[0], c[1])
				}
			}
		})
	}
}
