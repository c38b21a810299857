package experiments

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"hetgrid/internal/sim"
)

var updateGolden = flag.Bool("update", false, "rewrite golden determinism files")

// goldenScale keeps the golden runs fast while exercising every figure
// driver end to end (populations and horizons clamp to the driver
// minimums at this scale).
const goldenScale = Scale(0.04)

// renderAllFigures regenerates every figure at the golden scale into one
// byte stream. This is the paper's entire evaluation surface: any
// optimization that changes a scheduling decision, an aggregate, or a
// protocol message anywhere shows up here.
func renderAllFigures(tb testing.TB, mc *MetricsCollector) []byte {
	var buf bytes.Buffer
	if _, err := Figure5(&buf, goldenScale, 1, mc); err != nil {
		tb.Fatalf("Figure5: %v", err)
	}
	if _, err := Figure6(&buf, goldenScale, 1, mc); err != nil {
		tb.Fatalf("Figure6: %v", err)
	}
	if _, err := Figure7(&buf, goldenScale, 1, mc); err != nil {
		tb.Fatalf("Figure7: %v", err)
	}
	if _, err := Figure8(&buf, goldenScale, 1, mc); err != nil {
		tb.Fatalf("Figure8: %v", err)
	}
	return buf.Bytes()
}

// TestGoldenFigureDeterminism locks in DESIGN.md §3's guarantee (same
// seed ⇒ byte-identical output) against the committed golden: the file
// was rendered by the pre-optimization seed tree, so a passing run
// proves the hot-path optimizations did not change a single output byte.
// Regenerate deliberately with: go test ./internal/experiments -run
// Golden -update
func TestGoldenFigureDeterminism(t *testing.T) {
	checkGolden(t, "golden_figures.txt", renderAllFigures(t, nil))
}

// TestGoldenChurnLB pins the churn-extension table (load balancing while
// nodes fail and rejoin) to its golden, the same way.
func TestGoldenChurnLB(t *testing.T) {
	var buf bytes.Buffer
	if err := AblationChurnLB(&buf, goldenScale, 1); err != nil {
		t.Fatalf("AblationChurnLB: %v", err)
	}
	checkGolden(t, "golden_churnlb.txt", buf.Bytes())
}

// checkGolden compares got with testdata/name byte for byte, or rewrites
// the file under -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("output diverged from golden %s:\n%s", path, firstDiff(got, want))
	}
}

// TestGoldenRunTwice guards against hidden global state: two renders in
// the same process must agree byte for byte.
func TestGoldenRunTwice(t *testing.T) {
	a := renderAllFigures(t, nil)
	b := renderAllFigures(t, nil)
	if !bytes.Equal(a, b) {
		t.Fatalf("two in-process renders differ:\n%s", firstDiff(a, b))
	}
}

// TestCrossWorkerDeterminism is the safety net for every parallel sweep:
// a small Figure 5 and Figure 8 style configuration fanned out through
// ParallelMap must render byte-identically with workers=1 and
// workers=NumCPU.
func TestCrossWorkerDeterminism(t *testing.T) {
	render := func(workers int) []byte {
		var buf bytes.Buffer

		// Figure 5 style cells: scheme × inter-arrival grid.
		type lbCell struct {
			scheme SchemeName
			ia     sim.Duration
		}
		var lbCells []lbCell
		for _, scheme := range LBSchemes {
			for _, ia := range []sim.Duration{40 * sim.Second, 80 * sim.Second} {
				lbCells = append(lbCells, lbCell{scheme, ia})
			}
		}
		lbResults := ParallelMap(len(lbCells), workers, func(i int) *LBResult {
			c := lbCells[i]
			cfg := DefaultLBConfig(c.scheme)
			cfg.Nodes = 40
			cfg.Jobs = 200
			cfg.MeanInterArrival = c.ia
			cfg.Seed = 11
			res, err := RunLoadBalance(cfg)
			if err != nil {
				panic(err)
			}
			return res
		})
		for i, r := range lbResults {
			fmt.Fprintf(&buf, "lb[%d] %s ia=%v placed=%d failed=%d mean=%.6f p99=%.6f gini=%.6f sched=%v\n",
				i, lbCells[i].scheme, lbCells[i].ia, r.Placed, r.Failed,
				r.WaitTimes.Mean(), r.WaitTimes.Quantile(0.99), r.Imbalance.Gini, r.Sched)
		}

		// Figure 8 style cells: scheme × dims grid.
		type scCell struct {
			scheme int
			dims   int
		}
		var scCells []scCell
		for si := range MaintSchemes {
			for _, dims := range []int{5, 11} {
				scCells = append(scCells, scCell{si, dims})
			}
		}
		scResults := ParallelMap(len(scCells), workers, func(i int) *ScalabilityResult {
			c := scCells[i]
			cfg := DefaultScalabilityConfig(MaintSchemes[c.scheme], c.dims, 40)
			cfg.Warmup = 2 * sim.Minute
			cfg.Measure = 4 * sim.Minute
			cfg.Seed = 11
			return RunScalability(cfg)
		})
		for i, r := range scResults {
			fmt.Fprintf(&buf, "sc[%d] %s dims=%d msgs=%.6f kb=%.6f\n",
				i, MaintSchemes[scCells[i].scheme], scCells[i].dims,
				r.MsgsPerNodeMin, r.KBytesPerNodeMin)
		}
		return buf.Bytes()
	}

	serial := render(1)
	parallel := render(runtime.NumCPU())
	if !bytes.Equal(serial, parallel) {
		t.Fatalf("workers=1 and workers=%d renders differ:\n%s",
			runtime.NumCPU(), firstDiff(serial, parallel))
	}
}

// firstDiff renders the first divergent region of two byte streams.
func firstDiff(a, b []byte) string {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	i := 0
	for i < n && a[i] == b[i] {
		i++
	}
	lo := i - 80
	if lo < 0 {
		lo = 0
	}
	end := func(s []byte) int {
		if i+80 < len(s) {
			return i + 80
		}
		return len(s)
	}
	return fmt.Sprintf("lengths %d vs %d, first difference at byte %d:\n got: %q\nwant: %q",
		len(a), len(b), i, a[lo:end(a)], b[lo:end(b)])
}
