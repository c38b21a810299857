package scenario

import (
	"fmt"
	"strings"
	"testing"
)

const smokeScenario = `
name: smoke
seed: 7
duration: 20m

grid:
  nodes: 32
  racks: 4
  gpu_slots: 2
  protocol: compact
  heartbeat: 10s
  scheduler: can-het

workload:
  jobs: 80
  mean_gap: 2s
  gpu_fraction: 0.3
  min_run: 30s
  max_run: 3m

events:
  - at: 1m
    fail_nodes: 3
  - at: 2m
    burst: {jobs: 40}
  - at: 3m
    partition: {rack: 1}
  - at: 4m
    heal: all
  - at: 5m
    join_wave: {nodes: 6, gap: 1s}
  - at: 6m
    fail_rack: 2

assert:
  jobs_accounted: true
  zone_cover: true
  no_orphans: true
  all_jobs_finished: true
  max_lost: 10
  min_finished: 100
`

func mustLoad(t *testing.T, src string) *Spec {
	t.Helper()
	spec, err := Load(src)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	return spec
}

func mustRun(t *testing.T, src string) *Result {
	t.Helper()
	res, err := Run(mustLoad(t, src))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return res
}

// TestScenarioSmoke exercises every event kind in one timeline and
// requires the full assertion battery to hold.
func TestScenarioSmoke(t *testing.T) {
	res := mustRun(t, smokeScenario)
	if !res.Passed() {
		t.Fatalf("scenario failed:\n%s", res.Report)
	}
	if res.Metrics["fails"] != 3+8 { // 3 singles + rack 2 of a 32/4 fleet
		t.Errorf("fails = %v, want 11", res.Metrics["fails"])
	}
	if got := res.Metrics["placed"] + res.Metrics["place_failed"]; got != 120 {
		t.Errorf("placed+place_failed = %v, want 120 (80 stream + 40 burst)", got)
	}
	if res.Metrics["link_drops"] == 0 {
		t.Error("partition dropped no messages")
	}
	if got := res.Metrics["finished"] + res.Metrics["queued"] + res.Metrics["running"]; got != res.Metrics["submitted"] {
		t.Errorf("conservation: submitted %v != finished+queued+running %v", res.Metrics["submitted"], got)
	}
}

// TestScenarioDeterministic runs the same spec twice and requires
// byte-identical reports — the contract the CI corpus depends on.
func TestScenarioDeterministic(t *testing.T) {
	a := mustRun(t, smokeScenario)
	b := mustRun(t, smokeScenario)
	if a.Report != b.Report {
		t.Fatalf("reports differ between runs:\n--- first\n%s\n--- second\n%s", a.Report, b.Report)
	}
}

// TestScenarioSeedSensitivity: a different seed must change the
// timeline (otherwise the seed is not actually wired through).
func TestScenarioSeedSensitivity(t *testing.T) {
	a := mustRun(t, smokeScenario)
	b := mustRun(t, strings.Replace(smokeScenario, "seed: 7", "seed: 8", 1))
	if a.Report == b.Report {
		t.Fatal("seed change produced an identical report")
	}
}

// TestScenarioChurn drives sustained churn through the protocol driver
// and requires conservation plus plane agreement afterwards.
func TestScenarioChurn(t *testing.T) {
	res := mustRun(t, `
name: churn
seed: 11
duration: 12m
grid:
  nodes: 24
  heartbeat: 10s
workload:
  jobs: 60
  mean_gap: 2s
  min_run: 20s
  max_run: 2m
events:
  - at: 30s
    churn: {mean_gap: 3s, fail_fraction: 0.5, until: 5m}
assert:
  jobs_accounted: true
  zone_cover: true
  no_orphans: true
`)
	if !res.Passed() {
		t.Fatalf("churn scenario failed:\n%s", res.Report)
	}
	if res.Metrics["joins"] <= 24 {
		t.Errorf("joins = %v, want > 24 (churn admitted nobody)", res.Metrics["joins"])
	}
	if res.Metrics["fails"]+res.Metrics["leaves"] == 0 {
		t.Error("churn departed nobody")
	}
}

// TestScenarioViolationsReported: a failing assertion must surface in
// Violations and flip the report to FAIL, not abort the run.
func TestScenarioViolationsReported(t *testing.T) {
	res := mustRun(t, `
name: impossible
seed: 1
duration: 2m
grid:
  nodes: 8
workload:
  jobs: 5
  mean_gap: 1s
  min_run: 10s
  max_run: 20s
assert:
  min_finished: 99999
  bounds:
    - metric: lost
      max: -1
`)
	if res.Passed() {
		t.Fatal("impossible assertions passed")
	}
	if len(res.Violations) != 2 {
		t.Fatalf("violations = %v, want 2", res.Violations)
	}
	if !strings.Contains(res.Report, "FAIL (2 violations)") {
		t.Errorf("report lacks FAIL banner:\n%s", res.Report)
	}
}

// TestNoOrphansChecksEveryPlane breaks membership behind the planes'
// backs and requires no_orphans to name each drift, on both engines:
// a runtime the overlay lacks, an overlay node with no runtime, and a
// protocol host the overlay no longer has.
func TestNoOrphansChecksEveryPlane(t *testing.T) {
	for _, engine := range []string{"serial", "sharded"} {
		w, err := NewWorld(mustLoad(t, `
name: orphans
seed: 3
duration: 1m
engine: `+engine+`
grid:
  nodes: 12
assert:
  no_orphans: true
`))
		if err != nil {
			t.Fatal(err)
		}
		if w.ssim != nil {
			defer w.ssim.Close()
		}
		w.assertNoOrphans()
		if len(w.violations) != 0 {
			t.Fatalf("%s: clean world reports %v", engine, w.violations)
		}
		nodes := w.psim.Overlay().Nodes()
		drained, gone := nodes[2].ID, nodes[5].ID
		w.cluster.RemoveNode(drained)
		if _, err := w.psim.Overlay().Leave(gone); err != nil {
			t.Fatal(err)
		}
		w.assertNoOrphans()
		got := strings.Join(w.violations, "\n")
		for _, want := range []string{
			fmt.Sprintf("host %d has no live overlay node", gone),
			fmt.Sprintf("runtime %d has no live overlay node", gone),
			fmt.Sprintf("overlay node %d has no runtime", drained),
		} {
			if !strings.Contains(got, want) {
				t.Errorf("%s: violations lack %q:\n%s", engine, want, got)
			}
		}
	}
}
