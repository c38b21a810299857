package bench

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"text/tabwriter"
	"time"
)

// MetricDef names a reported metric and its unit.
type MetricDef struct{ Name, Unit string }

// EndToEnd lists the metrics of a timed run (trace off).
var EndToEnd = []MetricDef{
	{"setup_s", "s"},
	{"run_s", "s"},
	{"serial_run_s", "s"},
	{"peak_rss_mb", "MB"},
}

// PerLayer lists the metrics of a traced run. Every workload reports
// all of them; a layer the workload does not exercise reads 0.
var PerLayer = []MetricDef{
	{"sim.events", "count"},
	{"sim.events_per_s", "1/s"},
	{"sim.queue.cpu_s", "s"},
	{"sim.sharded.cpu_s", "s"},
	{"sim.sharded.windows", "count"},
	{"sim.sharded.quiesces", "count"},
	{"sim.sharded.cpu_util", "ratio"},
	{"sim.sharded.shard_imbalance", "ratio"},
	{"sim.sharded.speedup_vs_serial", "ratio"},
	{"sim.sharded.w1_over_serial", "ratio"},
	{"netsim.cpu_s", "s"},
	{"netsim.msgs", "count"},
	{"netsim.bytes", "bytes"},
	{"proto.cpu_s", "s"},
	{"proto.heartbeat_ticks", "count"},
	{"proto.mean_view", "count"},
	{"proto.churn_events", "count"},
	{"can.cpu_s", "s"},
	{"can.join_s", "s"},
	{"sched.cpu_s", "s"},
	{"sched.route_hops", "count"},
	{"sched.push_hops", "count"},
	{"sched.canhet_s", "s"},
	{"sched.canhom_s", "s"},
	{"sched.central_s", "s"},
	{"exec.cpu_s", "s"},
	{"runtime.gc.cpu_s", "s"},
	{"runtime.alloc.cpu_s", "s"},
	{"runtime.alloc_mb", "MB"},
	{"runtime.alloc_objects", "count"},
	{"runtime.heap_live_mb", "MB"},
	{"other.cpu_s", "s"},
	{"profile.cpu_s", "s"},
	{"trace.overhead", "ratio"},
}

// Metric is one reported value: a median over a timed run's samples, or
// the value of a single traced run.
type Metric struct {
	Workload string
	Name     string
	Value    float64
	Unit     string
}

// Report is the outcome of one benchmark invocation. An op is one child
// run; it fails on a non-zero exit, a timeout, a failed check or a
// digest that differs from its engine's other runs.
type Report struct {
	Attempted int
	Failed    int
	Metrics   []Metric
}

// Options configures one benchmark invocation.
type Options struct {
	Workloads []string // in Workloads order
	Seed      int64
	Reps      int     // timed reps per workload, at least
	Seconds   float64 // after Reps reps, add reps while they fit in this budget
	Trace     bool
	Out       string // directory for CPU profiles and span files
	Toy       bool
	Exe       string // executable run as `Exe child ...`
	Nproc     int    // GOMAXPROCS of every child; W = min(Nproc, S)
}

// ParseArgs parses hetbench's flags. Flag errors and usage go to
// usage.
func ParseArgs(args []string, usage io.Writer) (Options, error) {
	fs := flag.NewFlagSet("hetbench", flag.ContinueOnError)
	fs.SetOutput(usage)
	o := Options{}
	name := fs.String("workload", "", "workload to run (default: all)")
	fs.Int64Var(&o.Seed, "seed", 1, "workload seed (≥ 0)")
	fs.IntVar(&o.Reps, "reps", 2, "timed reps per workload, at least")
	fs.Float64Var(&o.Seconds, "seconds", 0, "after -reps reps, keep adding reps while they fit in this many seconds")
	trace := fs.Int("trace", 0, "1 runs the traced set and prints the layer table")
	fs.StringVar(&o.Out, "out", filepath.Join(".bench_build", "out"), "directory for CPU profiles and span files")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	switch {
	case fs.NArg() > 0:
		return o, fmt.Errorf("bench: unexpected argument %q", fs.Arg(0))
	case o.Seed < 0:
		return o, fmt.Errorf("bench: negative seed %d", o.Seed)
	case o.Reps < 1:
		return o, fmt.Errorf("bench: reps %d < 1", o.Reps)
	case o.Seconds < 0:
		return o, fmt.Errorf("bench: negative seconds %g", o.Seconds)
	case *trace != 0 && *trace != 1:
		return o, fmt.Errorf("bench: trace %d is not 0 or 1", *trace)
	}
	o.Trace = *trace == 1
	if *name == "" {
		for _, w := range Workloads {
			o.Workloads = append(o.Workloads, w.Name)
		}
	} else {
		if _, err := Lookup(*name, false); err != nil {
			return o, err
		}
		o.Workloads = []string{*name}
	}
	return o, nil
}

// workloadTimeout bounds the child runs of one workload, so a hung
// child cannot hold the benchmark past its time limit.
const workloadTimeout = 170 * time.Second

// Run executes the workloads in o, one child process at a time, and
// prints one line per metric (workload, name, value, unit, n) plus
// digests and diagnostics to out.
func Run(o Options, out io.Writer) (*Report, error) {
	if o.Trace {
		if err := os.MkdirAll(o.Out, 0o755); err != nil {
			return nil, err
		}
	}
	d := &driver{o: o, out: out, rep: &Report{}}
	for _, name := range o.Workloads {
		w, err := Lookup(name, o.Toy)
		if err != nil {
			return nil, err
		}
		ctx, cancel := context.WithTimeout(context.Background(), workloadTimeout)
		if o.Trace {
			d.traced(ctx, w)
		} else {
			d.timed(ctx, w)
		}
		cancel()
	}
	return d.rep, nil
}

type driver struct {
	o   Options
	out io.Writer
	rep *Report
}

// childRun is one finished child process.
type childRun struct {
	op    Op
	res   *OpResult // nil when the child reported nothing usable
	rssMB float64
	err   error
}

func (d *driver) spawn(ctx context.Context, op Op) childRun {
	cmd := exec.CommandContext(ctx, d.o.Exe, op.args()...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(d.o.Nproc))
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	cr := childRun{op: op}
	if ps := cmd.ProcessState; ps != nil {
		if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
			cr.rssMB = float64(ru.Maxrss) / 1024 // KiB on Linux
		}
	}
	if err != nil {
		cr.err = fmt.Errorf("%s: %w: %s", op, err, lastLine(stderr.Bytes()))
		return cr
	}
	var res OpResult
	if err := json.Unmarshal(lastLine(stdout.Bytes()), &res); err != nil {
		cr.err = fmt.Errorf("%s: decoding result: %w", op, err)
		return cr
	}
	cr.res = &res
	if len(res.Failures) > 0 {
		cr.err = fmt.Errorf("%s: check failed: %s", op, strings.Join(res.Failures, "; "))
	}
	return cr
}

func lastLine(b []byte) []byte {
	b = bytes.TrimSpace(b)
	if i := bytes.LastIndexByte(b, '\n'); i >= 0 {
		return b[i+1:]
	}
	return b
}

// account counts runs as ops, reports each failure and prints the
// workload's op counts.
func (d *driver) account(w Workload, runs []childRun) {
	failed := 0
	for _, r := range runs {
		if r.err != nil {
			failed++
			fmt.Fprintf(d.out, "FAIL %v\n", r.err)
		}
	}
	d.rep.Attempted += len(runs)
	d.rep.Failed += failed
	fmt.Fprintf(d.out, "%s ops %d count; ops_failed %d count\n", w.Name, len(runs), failed)
}

func (d *driver) op(w Workload, engine string, workers int) Op {
	return Op{Workload: w.Name, Engine: engine, Workers: workers, Seed: d.o.Seed, Toy: d.o.Toy}
}

func (d *driver) emit(w Workload, name string, v float64, unit string, n int) {
	d.rep.Metrics = append(d.rep.Metrics, Metric{Workload: w.Name, Name: name, Value: v, Unit: unit})
	fmt.Fprintf(d.out, "%s %s %s %s %d\n", w.Name, name, strconv.FormatFloat(v, 'g', -1, 64), unit, n)
}

// checkDigests fails every run whose digest differs from the first
// successful run of the same engine and worker count, and prints the
// digest it expects.
func (d *driver) checkDigests(w Workload, runs []childRun) {
	for i := range runs {
		r := &runs[i]
		if r.res == nil {
			continue
		}
		for _, first := range runs[:i] {
			if first.res == nil || first.op.Engine != r.op.Engine || first.op.Workers != r.op.Workers {
				continue
			}
			if first.res.Digest != r.res.Digest && r.err == nil {
				r.err = fmt.Errorf("%s: digest %s differs from %s (%s vs %s)", r.op, r.res.Digest,
					first.res.Digest, r.res.Summary, first.res.Summary)
			}
			break
		}
	}
	seen := map[string]string{}
	for _, r := range runs {
		key := fmt.Sprintf("%s w%d", r.op.Engine, r.op.Workers)
		if r.res == nil || seen[key] != "" {
			continue
		}
		seen[key] = r.res.Digest
		fmt.Fprintf(d.out, "%s digest %s %s %s\n", w.Name, key, r.res.Digest, r.res.Summary)
	}
	// Strict sharded output is meant to match serial; a known divergence
	// under bulk admission is a diagnostic here, not a failure (see the
	// README).
	var serial, sharded string
	for _, r := range runs {
		if r.res == nil {
			continue
		}
		if r.op.Engine == Serial && serial == "" {
			serial = r.res.Digest
		}
		if r.op.Engine == Sharded && sharded == "" {
			sharded = r.res.Digest
		}
	}
	if serial != "" && sharded != "" {
		verdict := "identical"
		if serial != sharded {
			verdict = "differs"
		}
		fmt.Fprintf(d.out, "%s parity serial-vs-sharded %s\n", w.Name, verdict)
	}
}

// timed runs the workload's reps: one child per engine per rep, with
// serial-first and primary-first order alternating, and reports the
// end-to-end metrics. Reps past o.Reps run only while another one,
// taken 15% longer than the mean so far, still ends within o.Seconds.
func (d *driver) timed(ctx context.Context, w Workload) {
	engines := w.Engines()
	workers := w.Workers(d.o.Nproc)
	var runs []childRun
	start := time.Now()
	for rep := 0; ; rep++ {
		if rep >= max(d.o.Reps, 1) {
			spent := time.Since(start).Seconds()
			if spent+1.15*spent/float64(rep) > d.o.Seconds || ctx.Err() != nil {
				break
			}
		}
		order := slices.Clone(engines)
		if rep%2 == 1 {
			slices.Reverse(order)
		}
		for _, e := range order {
			wk := 1
			if e == Sharded {
				wk = workers
			}
			runs = append(runs, d.spawn(ctx, d.op(w, e, wk)))
		}
	}
	d.checkDigests(w, runs)
	d.account(w, runs)

	var setup, run, serial []float64
	rssByEngine := map[string][]float64{}
	for _, r := range runs {
		rssByEngine[r.op.Engine] = append(rssByEngine[r.op.Engine], r.rssMB)
		if r.err != nil {
			continue
		}
		if r.op.Engine == w.Primary() {
			setup = append(setup, r.res.SetupS)
			run = append(run, r.res.SlicesS...)
		}
		if r.op.Engine == Serial {
			serial = append(serial, r.res.SlicesS...)
		}
	}
	d.emit(w, "setup_s", Median(setup), "s", len(setup))
	d.emit(w, "run_s", Median(run), "s", len(run))
	d.emit(w, "serial_run_s", Median(serial), "s", len(serial))
	// A child's maxrss depends on when its GC cycles fell, so the peak is
	// the larger of the engines' medians, not the largest single child.
	rss := 0.0
	for _, xs := range rssByEngine {
		rss = max(rss, Median(xs))
	}
	d.emit(w, "peak_rss_mb", rss, "MB", len(runs))
	for _, t := range []struct {
		name string
		xs   []float64
	}{{"setup_s", setup}, {"run_s", run}, {"serial_run_s", serial}} {
		if p, v, ok := HighestTail(t.xs); ok {
			fmt.Fprintf(d.out, "%s %s.p%g %s s %d\n", w.Name, t.name, p, strconv.FormatFloat(v, 'g', -1, 64), len(t.xs))
		}
		fmt.Fprintf(d.out, "%s %s.samples %s\n", w.Name, t.name, strings.Trim(fmt.Sprint(t.xs), "[]"))
	}
	if w.Proto != nil && len(run) > 0 && len(serial) > 0 {
		fmt.Fprintf(d.out, "%s speedup_vs_serial %.3f ratio (W=%d, nproc=%d)\n", w.Name, Median(serial)/Median(run), workers, d.o.Nproc)
	}
}

// traced runs one traced child per engine (plus the sharded engine at
// W=1) and one untraced child of the primary engine, buckets each
// profile into layers, prints the layer table and reports the per-layer
// metrics of the primary engine's traced run.
func (d *driver) traced(ctx context.Context, w Workload) {
	workers := w.Workers(d.o.Nproc)
	base := d.op(w, w.Primary(), workers)
	traced := func(engine string, wk int) Op {
		op := d.op(w, engine, wk)
		stem := filepath.Join(d.o.Out, fmt.Sprintf("%s.%s.w%d", w.Name, engine, wk))
		op.Profile, op.Spans = stem+".pprof", stem+".spans.jsonl"
		return op
	}
	// ops[0] is the untraced primary run and ops[1] the traced serial
	// run; protocol workloads add the traced sharded runs at W (ops[2])
	// and at W=1 (ops[3]).
	ops := []Op{base, traced(Serial, 1)}
	if w.Proto != nil {
		ops = append(ops, traced(Sharded, workers), traced(Sharded, 1))
	}
	runs := make([]childRun, len(ops))
	layers := make([]map[string]float64, len(ops))
	for i, op := range ops {
		runs[i] = d.spawn(ctx, op)
		if runs[i].err == nil && op.Profile != "" {
			l, err := ProfileLayers(op.Profile)
			if err != nil {
				runs[i].err = err
			}
			layers[i] = l
		}
	}
	// Sharded output must not depend on W.
	if w.Proto != nil && runs[2].res != nil && runs[3].res != nil && runs[2].res.Digest != runs[3].res.Digest && runs[3].err == nil {
		runs[3].err = fmt.Errorf("%s: digest %s differs from W=%d digest %s", runs[3].op, runs[3].res.Digest, workers, runs[2].res.Digest)
	}
	d.checkDigests(w, runs)
	d.account(w, runs)
	d.layerTable(w, runs[1:], layers[1:])

	p := 1 // the primary engine's traced run
	if w.Proto != nil {
		p = 2
	}
	m := map[string]float64{}
	if r := runs[p]; r.err == nil {
		for k, v := range r.res.Counters {
			m[k] = v
		}
		total := 0.0
		for _, l := range Layers {
			m[l+".cpu_s"] = layers[p][l]
			total += layers[p][l]
		}
		m["profile.cpu_s"] = total
		m["sim.events_per_s"] = m["sim.events"] / r.res.WindowS
		if runs[0].err == nil {
			m["trace.overhead"] = r.res.WindowS / runs[0].res.WindowS
		}
		if w.Proto != nil {
			m["sim.sharded.cpu_util"] = r.res.CPUS / (r.res.WindowS * float64(workers))
			if runs[1].err == nil {
				m["sim.sharded.speedup_vs_serial"] = runs[1].res.WindowS / r.res.WindowS
				if runs[3].err == nil {
					m["sim.sharded.w1_over_serial"] = runs[3].res.WindowS / runs[1].res.WindowS
				}
			}
		}
	}
	for _, def := range PerLayer {
		d.emit(w, def.Name, m[def.Name], def.Unit, 1)
	}
}

// layerTable prints each traced run's profiled CPU per layer with its
// share of the run's profile.
func (d *driver) layerTable(w Workload, runs []childRun, layers []map[string]float64) {
	fmt.Fprintf(d.out, "%s layer table: profiled CPU seconds of the timed window (share of profile)\n", w.Name)
	tw := tabwriter.NewWriter(d.out, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprint(tw, "layer\t")
	for _, r := range runs {
		fmt.Fprintf(tw, "%s w%d\t", r.op.Engine, r.op.Workers)
	}
	fmt.Fprintln(tw)
	totals := make([]float64, len(runs))
	for i, l := range layers {
		for _, v := range l {
			totals[i] += v
		}
	}
	for _, name := range Layers {
		fmt.Fprintf(tw, "%s\t", name)
		for i, l := range layers {
			if l == nil || totals[i] == 0 {
				fmt.Fprint(tw, "-\t")
				continue
			}
			fmt.Fprintf(tw, "%.3f (%4.1f%%)\t", l[name], 100*l[name]/totals[i])
		}
		fmt.Fprintln(tw)
	}
	fmt.Fprint(tw, "profile\t")
	for _, t := range totals {
		fmt.Fprintf(tw, "%.3f\t", t)
	}
	fmt.Fprint(tw, "\nwindow_s\t")
	for _, r := range runs {
		if r.res == nil {
			fmt.Fprint(tw, "-\t")
			continue
		}
		fmt.Fprintf(tw, "%.3f\t", r.res.WindowS)
	}
	fmt.Fprintln(tw)
	tw.Flush()
}

// JSON renders the report as the benchmark's result line. Metric names
// carry a "<workload>." prefix when the report covers several
// workloads.
func (r *Report) JSON() ([]byte, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	workloads := map[string]bool{}
	for _, m := range r.Metrics {
		workloads[m.Workload] = true
	}
	metrics := map[string]value{}
	for _, m := range r.Metrics {
		name := m.Name
		if len(workloads) > 1 {
			name = m.Workload + "." + name
		}
		metrics[name] = value{m.Value, m.Unit}
	}
	return json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Failed == 0 && r.Attempted > 0, r.Attempted, r.Failed, metrics})
}
