package scenario

import (
	"strings"
	"testing"

	"hetgrid/internal/sim"
)

func TestLoadFullDocument(t *testing.T) {
	spec := mustLoad(t, smokeScenario)
	if spec.Name != "smoke" || spec.Seed != 7 || spec.Duration != 20*sim.Minute {
		t.Errorf("header = %q/%d/%v", spec.Name, spec.Seed, spec.Duration)
	}
	if spec.Grid.Nodes != 32 || spec.Grid.Racks != 4 || spec.Grid.GPUSlots != 2 {
		t.Errorf("grid = %+v", spec.Grid)
	}
	if spec.Grid.Heartbeat != 10*sim.Second || spec.Grid.Refresh != 10*sim.Second {
		t.Errorf("heartbeat/refresh = %v/%v (refresh should default to heartbeat)", spec.Grid.Heartbeat, spec.Grid.Refresh)
	}
	if spec.Workload.Jobs != 80 || spec.Workload.GPUFraction != 0.3 {
		t.Errorf("workload = %+v", spec.Workload)
	}
	if len(spec.Events) != 6 {
		t.Fatalf("got %d events, want 6", len(spec.Events))
	}
	kinds := make([]string, len(spec.Events))
	for i, ev := range spec.Events {
		kinds[i] = ev.Kind
	}
	want := []string{"fail_nodes", "burst", "partition", "heal", "join_wave", "fail_rack"}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("kinds = %v, want %v", kinds, want)
		}
	}
	if spec.Events[2].Rack != 1 || spec.Events[4].Count != 6 || spec.Events[4].Gap != sim.Second {
		t.Errorf("event payloads decoded wrong: %+v", spec.Events)
	}
	if !spec.Assert.JobsAccounted || spec.Assert.MaxLost != 10 || spec.Assert.MinFinished != 100 {
		t.Errorf("assert = %+v", spec.Assert)
	}
}

func TestLoadDefaults(t *testing.T) {
	spec := mustLoad(t, "name: minimal\nduration: 1m\ngrid:\n  nodes: 4\n")
	if spec.Seed != 1 || spec.Grid.Protocol != "compact" || spec.Grid.Scheduler != "can-het" {
		t.Errorf("defaults = seed %d, protocol %q, scheduler %q", spec.Seed, spec.Grid.Protocol, spec.Grid.Scheduler)
	}
	if spec.Grid.Heartbeat != 10*sim.Second || spec.Grid.Racks != 1 {
		t.Errorf("defaults = heartbeat %v, racks %d", spec.Grid.Heartbeat, spec.Grid.Racks)
	}
	if spec.Assert.MaxLost != -1 || spec.Assert.MaxBrokenLinks != -1 {
		t.Errorf("assert defaults should be unchecked: %+v", spec.Assert)
	}
}

func TestLoadErrors(t *testing.T) {
	valid := "name: x\nduration: 1m\ngrid:\n  nodes: 4\n"
	cases := []struct {
		name, src, want string
	}{
		{"missing name", "duration: 1m\ngrid:\n  nodes: 4\n", "name is required"},
		{"missing duration", "name: x\ngrid:\n  nodes: 4\n", "duration must be positive"},
		{"no nodes", "name: x\nduration: 1m\ngrid:\n  nodes: 0\n", "grid.nodes"},
		{"unknown top field", valid + "bogus: 1\n", `unknown field "bogus"`},
		{"unknown grid field", "name: x\nduration: 1m\ngrid:\n  nodes: 4\n  cores: 8\n", `unknown field "cores"`},
		{"bad duration", "name: x\nduration: fast\ngrid:\n  nodes: 4\n", "not a duration"},
		{"bad protocol", "name: x\nduration: 1m\ngrid:\n  nodes: 4\n  protocol: quantum\n", "unknown protocol"},
		{"bad scheduler", "name: x\nduration: 1m\ngrid:\n  nodes: 4\n  scheduler: oracle\n", "unknown scheduler"},
		{"unknown event kind", valid + "events:\n  - at: 1s\n    reboot: 3\n", `unknown field "reboot"`},
		{"two kinds", valid + "events:\n  - at: 1s\n    fail_nodes: 1\n    heal: all\n", "both"},
		{"no kind", valid + "events:\n  - at: 1s\n", "no event kind"},
		{"event past horizon", valid + "events:\n  - at: 2m\n    fail_nodes: 1\n", "outside the horizon"},
		{"zero count", valid + "events:\n  - at: 1s\n    fail_nodes: 0\n", "count must be positive"},
		{"rack range", valid + "events:\n  - at: 1s\n    fail_rack: 5\n", "out of range"},
		{"partition empty", valid + "events:\n  - at: 1s\n    partition: {}\n", "rack or fraction"},
		{"heal syntax", valid + "events:\n  - at: 1s\n    heal: some\n", "heal: all"},
		{"churn no gap", valid + "events:\n  - at: 1s\n    churn: {fail_fraction: 0.5}\n", "positive mean_gap"},
		{"bound unknown metric", valid + "assert:\n  bounds:\n    - metric: happiness\n      max: 1\n", "unknown metric"},
		{"bound no limits", valid + "assert:\n  bounds:\n    - metric: lost\n", "neither min nor max"},
		{"bad bool", valid + "assert:\n  zone_cover: maybe\n", "not a boolean"},
		{"bad int", "name: x\nduration: 1m\ngrid:\n  nodes: many\n", "not an integer"},
		{"unknown engine", "name: x\nduration: 1m\nengine: quantum\ngrid:\n  nodes: 4\n", "unknown engine"},
		{"shards without sharded", "name: x\nduration: 1m\nshards: 4\ngrid:\n  nodes: 4\n", "require `engine: sharded`"},
		{"workers without sharded", "name: x\nduration: 1m\nengine: serial\nworkers: 2\ngrid:\n  nodes: 4\n", "require `engine: sharded`"},
		{"negative shards", "name: x\nduration: 1m\nengine: sharded\nshards: -1\ngrid:\n  nodes: 4\n", "shards must be non-negative"},
		{"negative gpu slots", "name: x\nduration: 1m\ngrid:\n  nodes: 4\n  gpu_slots: -1\n", "GPU slot count -1 is negative"},
		{"too many gpu slots", "name: x\nduration: 1m\ngrid:\n  nodes: 4\n  gpu_slots: 9\n", "GPU slot count 9 above 8"},
		{"zero heartbeat", "name: x\nduration: 1m\ngrid:\n  nodes: 4\n  heartbeat: 0s\n", "grid.heartbeat must be positive"},
		{"too many shards", "name: x\nduration: 1m\nengine: sharded\nshards: 257\ngrid:\n  nodes: 4\n", "shards must be at most 256"},
		{"zero mean gap", valid + "workload:\n  jobs: 5\n  mean_gap: 0s\n", "mean inter-arrival 0s must be positive"},
		{"negative jobs", valid + "workload:\n  jobs: -5\n", "job count -5 is negative"},
		{"gpu fraction above one", valid + "workload:\n  jobs: 5\n  gpu_fraction: 2\n", "GPU-job fraction 2 outside [0,1]"},
		{"constraint NaN", valid + "workload:\n  jobs: 5\n  constraint_ratio: NaN\n", "outside [0,1]"},
		{"min_run above max_run", valid + "workload:\n  jobs: 5\n  min_run: 5m\n  max_run: 1m\n", "min_run <= max_run"},
		// window: and admission: are not spec keys: every value, on
		// either engine, is rejected as an unknown field.
		{"unknown window", "name: x\nduration: 1m\nengine: sharded\nwindow: elastic\ngrid:\n  nodes: 4\n", `unknown field "window"`},
		{"unknown admission", "name: x\nduration: 1m\nengine: sharded\nadmission: eager\ngrid:\n  nodes: 4\n", `unknown field "admission"`},
		{"window without sharded", "name: x\nduration: 1m\nwindow: adaptive\ngrid:\n  nodes: 4\n", `unknown field "window"`},
		{"admission without sharded", "name: x\nduration: 1m\nengine: serial\nadmission: batched\ngrid:\n  nodes: 4\n", `unknown field "admission"`},
		{"removed window key", "name: x\nduration: 1m\nengine: sharded\nwindow: adaptive\ngrid:\n  nodes: 4\n", `unknown field "window"`},
		{"removed admission key", "name: x\nduration: 1m\nengine: sharded\nadmission: batched\ngrid:\n  nodes: 4\n", `unknown field "admission"`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Load(tc.src)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want substring %q", err, tc.want)
			}
		})
	}
}

func TestLoadEngineKeys(t *testing.T) {
	spec := mustLoad(t, "name: x\nduration: 1m\nengine: sharded\nshards: 8\nworkers: 3\ngrid:\n  nodes: 4\n")
	if !spec.Sharded() || spec.Shards != 8 || spec.Workers != 3 {
		t.Errorf("engine keys = %q/%d/%d, want sharded/8/3", spec.Engine, spec.Shards, spec.Workers)
	}
	if spec.ShardCount() != 8 {
		t.Errorf("ShardCount() = %d, want 8", spec.ShardCount())
	}
	// Defaults: serial engine, S defaults to 4 once sharded is selected.
	spec = mustLoad(t, "name: x\nduration: 1m\ngrid:\n  nodes: 4\n")
	if spec.Sharded() || spec.Engine != "serial" {
		t.Errorf("default engine = %q, want serial", spec.Engine)
	}
	spec = mustLoad(t, "name: x\nduration: 1m\nengine: sharded\ngrid:\n  nodes: 4\n")
	if spec.ShardCount() != 4 || spec.Workers != 0 {
		t.Errorf("sharded defaults = S=%d W=%d, want S=4 W=0 (GOMAXPROCS)", spec.ShardCount(), spec.Workers)
	}
}

func TestBoundsVocabularyMatchesReport(t *testing.T) {
	// Every name validate() accepts must actually appear in the metric
	// map, or a bound would silently compare against zero.
	w := &World{}
	for _, name := range knownMetrics() {
		if !validMetric(name) {
			t.Errorf("knownMetrics lists %q but validMetric rejects it", name)
		}
	}
	_ = w
	res := mustRun(t, "name: tiny\nseed: 3\nduration: 30s\ngrid:\n  nodes: 4\n")
	for _, name := range knownMetrics() {
		if _, ok := res.Metrics[name]; !ok {
			t.Errorf("metric %q validates in bounds but is absent from the report map", name)
		}
	}
	for name := range res.Metrics {
		if !validMetric(name) {
			t.Errorf("report emits %q but bounds cannot reference it", name)
		}
	}
}
