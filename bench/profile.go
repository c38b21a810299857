package bench

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os/exec"
	"strings"
	"time"
)

// Layers lists the CPU buckets of the layer table in display order. Each
// is reported as the per-layer metric <layer>.cpu_s.
var Layers = []string{
	"sim.queue", "sim.sharded", "netsim", "proto", "can", "sched", "exec",
	"runtime.gc", "runtime.alloc", "other",
}

// layerPackages are the hetgrid/internal packages that are layers of
// their own; sim is split between sim.queue and sim.sharded.
var layerPackages = map[string]bool{
	"netsim": true, "proto": true, "can": true, "sched": true, "exec": true,
}

// helperPackages are libraries the layers call (coordinates, random
// streams, capability vectors, statistics, counters). Like the standard
// library, their frames are charged to the nearest layer that called
// them.
var helperPackages = map[string]bool{
	"geom": true, "rng": true, "resource": true, "stats": true, "perf": true,
}

const internalPrefix = "hetgrid/internal/"

// Sample is one stack of a CPU profile with the CPU time charged to it.
// Stack[0] is the innermost frame.
type Sample struct {
	Value time.Duration
	Stack []string
}

// ParseTraces reads the output of `go tool pprof -traces`: a header,
// then one block per distinct stack, each opened by a separator line
// and starting with "<value>   <innermost frame>".
func ParseTraces(r io.Reader) ([]Sample, error) {
	var out []Sample
	var cur *Sample
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			out = append(out, Sample{})
			cur = &out[len(out)-1]
			continue
		}
		if cur == nil || strings.TrimSpace(line) == "" {
			continue // header
		}
		fields := strings.Fields(line)
		if len(cur.Stack) == 0 {
			if len(fields) < 2 {
				return nil, fmt.Errorf("bench: malformed trace line %q", line)
			}
			d, err := time.ParseDuration(fields[0])
			if err != nil {
				return nil, fmt.Errorf("bench: trace value in %q: %w", line, err)
			}
			cur.Value = d
			fields = fields[1:]
		}
		cur.Stack = append(cur.Stack, fields[0]) // drops the " (inline)" marker
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	// The last separator closes the final block and opens none.
	if n := len(out); n > 0 && len(out[n-1].Stack) == 0 {
		out = out[:n-1]
	}
	return out, nil
}

// Bucket assigns a stack to one entry of Layers, by the first rule that
// applies:
//
//  1. a GC mark worker or GC assist frame anywhere: runtime.gc;
//  2. a mallocgc frame anywhere: runtime.alloc;
//  3. the innermost frame of a layer package decides, with
//     (*ShardedEngine) frames in sim.sharded and the rest of sim in
//     sim.queue. Standard-library and helper-package frames are skipped,
//     so they are charged to their caller; a frame of any other hetgrid
//     package, or no hetgrid frame at all, gives other.
func Bucket(stack []string) string {
	alloc := false
	for _, f := range stack {
		if strings.HasPrefix(f, "runtime.gcBgMarkWorker") || strings.HasPrefix(f, "runtime.gcAssistAlloc") {
			return "runtime.gc"
		}
		if strings.HasPrefix(f, "runtime.mallocgc") {
			alloc = true
		}
	}
	if alloc {
		return "runtime.alloc"
	}
	for _, f := range stack {
		if !strings.HasPrefix(f, internalPrefix) {
			if strings.HasPrefix(f, "hetgrid/") || strings.HasPrefix(f, "hetgrid.") {
				return "other"
			}
			continue
		}
		pkg := f[len(internalPrefix):]
		if i := strings.IndexAny(pkg, "./"); i >= 0 {
			pkg = pkg[:i]
		}
		switch {
		case pkg == "sim" && strings.Contains(f, "(*ShardedEngine)"):
			return "sim.sharded"
		case pkg == "sim":
			return "sim.queue"
		case layerPackages[pkg]:
			return pkg
		case helperPackages[pkg]:
			continue
		default:
			return "other"
		}
	}
	return "other"
}

// LayerCPU sums the samples into per-layer CPU seconds; the result has
// an entry for every name in Layers.
func LayerCPU(samples []Sample) map[string]float64 {
	out := make(map[string]float64, len(Layers))
	for _, l := range Layers {
		out[l] = 0
	}
	for _, s := range samples {
		out[Bucket(s.Stack)] += s.Value.Seconds()
	}
	return out
}

// ProfileLayers reads a CPU profile with `go tool pprof -traces` and
// returns its per-layer CPU seconds.
func ProfileLayers(path string) (map[string]float64, error) {
	var stdout, stderr bytes.Buffer
	cmd := exec.Command("go", "tool", "pprof", "-traces", path)
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("bench: go tool pprof -traces %s: %w: %s", path, err, strings.TrimSpace(stderr.String()))
	}
	samples, err := ParseTraces(&stdout)
	if err != nil {
		return nil, err
	}
	return LayerCPU(samples), nil
}
