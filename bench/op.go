package bench

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/metrics"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"hetgrid/internal/can"
	"hetgrid/internal/experiments"
	"hetgrid/internal/geom"
	"hetgrid/internal/netsim"
	"hetgrid/internal/perf"
	"hetgrid/internal/proto"
	"hetgrid/internal/resource"
	"hetgrid/internal/rng"
	"hetgrid/internal/sim"
	"hetgrid/internal/workload"
)

// Op is one child run: one workload on one engine.
type Op struct {
	Workload string
	Engine   string
	Workers  int // sharded worker count W; 1 on the serial engine
	Seed     int64
	Toy      bool
	Profile  string // CPU profile of exactly the timed window; "" = untraced
	Spans    string // JSONL file the spans are written to; "" = none
}

func (op Op) String() string { return fmt.Sprintf("%s/%s/w%d", op.Workload, op.Engine, op.Workers) }

// args renders op as the arguments of a `hetbench child` process.
func (op Op) args() []string {
	a := []string{"child", "-workload", op.Workload, "-engine", op.Engine,
		"-workers", strconv.Itoa(op.Workers), "-seed", strconv.FormatInt(op.Seed, 10)}
	if op.Toy {
		a = append(a, "-toy")
	}
	if op.Profile != "" {
		a = append(a, "-profile", op.Profile)
	}
	if op.Spans != "" {
		a = append(a, "-spans", op.Spans)
	}
	return a
}

// OpResult is what one child run reports.
type OpResult struct {
	SetupS  float64 `json:"setup_s"`
	WindowS float64 `json:"window_s"` // the whole timed window
	// SlicesS holds the wall time of each slice of the timed window, the
	// samples run_s and serial_run_s are medians of.
	SlicesS []float64 `json:"slices_s"`
	CPUS    float64   `json:"cpu_s"` // process CPU time over the timed window
	// Summary lists the run's simulated outputs; Digest hashes it. A
	// change that only makes the program faster leaves both unchanged.
	Summary  string             `json:"summary"`
	Digest   string             `json:"digest"`
	Failures []string           `json:"failures,omitempty"`
	Counters map[string]float64 `json:"counters"`
}

// Span is one interval of a child run, in seconds since the child
// started. Parent names the span that contains it.
type Span struct {
	Op     string  `json:"op"`
	Name   string  `json:"name"`
	Parent string  `json:"parent,omitempty"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
}

type tracer struct {
	op     string
	origin time.Time
	spans  []Span
}

func (t *tracer) begin(name, parent string) int {
	t.spans = append(t.spans, Span{Op: t.op, Name: name, Parent: parent, Start: time.Since(t.origin).Seconds()})
	return len(t.spans) - 1
}

// end closes span i and returns its duration in seconds.
func (t *tracer) end(i int) float64 {
	s := &t.spans[i]
	s.End = time.Since(t.origin).Seconds()
	return s.End - s.Start
}

// ChildMain is `hetbench child`: it runs one op and prints its OpResult
// as a JSON line.
func ChildMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("child", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var op Op
	fs.StringVar(&op.Workload, "workload", "", "workload name")
	fs.StringVar(&op.Engine, "engine", "", "serial or sharded")
	fs.IntVar(&op.Workers, "workers", 1, "sharded worker count")
	fs.Int64Var(&op.Seed, "seed", 1, "workload seed")
	fs.BoolVar(&op.Toy, "toy", false, "toy scale")
	fs.StringVar(&op.Profile, "profile", "", "CPU profile path")
	fs.StringVar(&op.Spans, "spans", "", "span JSONL path")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	res, err := RunOp(op)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	if err := json.NewEncoder(stdout).Encode(res); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	return 0
}

// RunOp executes op in this process.
func RunOp(op Op) (*OpResult, error) {
	w, err := Lookup(op.Workload, op.Toy)
	if err != nil {
		return nil, err
	}
	if !slices.Contains(w.Engines(), op.Engine) {
		return nil, fmt.Errorf("bench: workload %s has no %q engine", w.Name, op.Engine)
	}
	if op.Workers < 1 {
		return nil, fmt.Errorf("bench: workers %d < 1", op.Workers)
	}
	r := &opRun{
		op:  op,
		tr:  &tracer{op: op.String(), origin: time.Now()},
		res: &OpResult{Counters: map[string]float64{}},
	}
	if w.Proto != nil {
		err = r.proto(*w.Proto)
	} else {
		err = r.lb(*w.LB)
	}
	if err != nil {
		return nil, fmt.Errorf("bench: %s: %w", op, err)
	}
	sum := sha256.Sum256([]byte(r.res.Summary))
	r.res.Digest = hex.EncodeToString(sum[:8])
	if op.Spans != "" {
		if err := writeSpans(op.Spans, r.tr.spans); err != nil {
			return nil, err
		}
	}
	return r.res, nil
}

type opRun struct {
	op  Op
	tr  *tracer
	res *OpResult
}

func (r *opRun) fail(format string, a ...any) {
	r.res.Failures = append(r.res.Failures, fmt.Sprintf(format, a...))
}

// timed runs fn as the "run" span. The CPU profile, when asked for, is
// started and stopped right around it, so it covers exactly the timed
// window.
func (r *opRun) timed(fn func() error) error {
	var stop func() error
	if r.op.Profile != "" {
		var err error
		if stop, err = perf.StartCPUProfile(r.op.Profile); err != nil {
			return err
		}
	}
	cpu0 := processCPU()
	i := r.tr.begin("run", "")
	err := fn()
	r.res.WindowS = r.tr.end(i)
	r.res.CPUS = processCPU() - cpu0
	if stop != nil {
		if serr := stop(); err == nil {
			err = serr
		}
	}
	return err
}

// protoSim is what the benchmark calls on both protocol engines.
type protoSim interface {
	proto.ChurnSim
	MeanViewSize() float64
	BrokenLinks() (missing, stale int)
}

type protoEngine struct {
	ps       protoSim
	runUntil func(sim.Time)
	stats    func() sim.Stats
	net      interface {
		Total() netsim.Counters
		KindTotal(netsim.Kind) netsim.Counters
	}
	se *sim.ShardedEngine // nil on the serial engine
}

func newProtoEngine(op Op, shards, dims int, cfg proto.Config) *protoEngine {
	if op.Engine == Serial {
		s := proto.NewSim(dims, cfg)
		return &protoEngine{ps: s, runUntil: s.Eng.RunUntil, stats: s.Eng.Stats, net: s.Net}
	}
	ss := proto.NewShardedSim(shards, op.Workers, dims, cfg)
	return &protoEngine{ps: ss, runUntil: ss.RunUntil, stats: ss.SE.Stats, net: ss.Net, se: ss.SE}
}

func (e *protoEngine) close() {
	if e.se != nil {
		e.se.Close()
	}
}

type protoSnap struct {
	stats  sim.Stats
	shards []uint64
	win    sim.WindowStats
	net    netsim.Counters
	ticks  int64
	rt     rtStats
}

func (e *protoEngine) snapshot() protoSnap {
	s := protoSnap{stats: e.stats(), net: e.net.Total(), ticks: perfCount("proto.heartbeat_ticks"), rt: readRuntime()}
	if e.se != nil {
		s.win = e.se.WindowStats()
		for i := 0; i < e.se.Shards(); i++ {
			s.shards = append(s.shards, e.se.Shard(i).Stats().Fired)
		}
	}
	return s
}

func (r *opRun) proto(p ProtoSpec) error {
	cfg := proto.DefaultConfig(proto.Adaptive)
	cfg.HeartbeatPeriod = 10 * sim.Second
	cfg.Seed = r.op.Seed
	var space *resource.Space
	dims := 3
	if p.Fleet {
		space = resource.NewSpace(0)
		dims = space.Dims()
	}
	e := newProtoEngine(r.op, p.Shards, dims, cfg)
	defer e.close()

	setup := r.tr.begin("setup", "")
	join := r.tr.begin("setup.join", "setup")
	if err := admit(e.ps, p.Nodes, space, r.op.Seed); err != nil {
		return err
	}
	r.res.Counters["can.join_s"] = r.tr.end(join)
	warm := r.tr.begin("setup.warm", "setup")
	e.runUntil(sim.Time(p.Warm))
	runtime.GC()
	r.tr.end(warm)
	r.res.SetupS = r.tr.end(setup)

	var churn *proto.ChurnDriver
	if p.Churn {
		churn = proto.NewChurnDriver(e.ps, proto.ChurnConfig{
			MeanEventGap: 10 * sim.Millisecond,
			MinEventGap:  3 * sim.Millisecond, // 2.5 ms at the engine's 1 ms tick
			FailFraction: 0.5,
			MinNodes:     8,
			Seed:         r.op.Seed,
		})
		churn.Start()
	}
	pre := e.snapshot()
	err := r.timed(func() error {
		for i := 1; i <= p.Slices; i++ {
			start := time.Now()
			e.runUntil(sim.Time(p.Warm + sim.Duration(i)*p.Slice))
			r.res.SlicesS = append(r.res.SlicesS, time.Since(start).Seconds())
		}
		return nil
	})
	if err != nil {
		return err
	}
	post := e.snapshot()

	c := r.res.Counters
	c["sim.events"] = float64(post.stats.Fired - pre.stats.Fired)
	c["netsim.msgs"] = float64(post.net.MsgsSent - pre.net.MsgsSent)
	c["netsim.bytes"] = float64(post.net.BytesSent - pre.net.BytesSent)
	c["proto.heartbeat_ticks"] = float64(post.ticks - pre.ticks)
	runtimeCounters(c, pre.rt, post.rt)
	if e.se != nil {
		c["sim.sharded.windows"] = float64(post.win.Windows - pre.win.Windows)
		c["sim.sharded.quiesces"] = float64(post.win.Quiesces - pre.win.Quiesces)
		var hi, total uint64
		for i := range post.shards {
			d := post.shards[i] - pre.shards[i]
			total += d
			hi = max(hi, d)
		}
		if total > 0 {
			c["sim.sharded.shard_imbalance"] = float64(hi) * float64(len(post.shards)) / float64(total)
		}
	}

	chk := r.tr.begin("check", "")
	defer r.tr.end(chk)
	alive := e.ps.AliveHosts()
	view := e.ps.MeanViewSize()
	c["proto.mean_view"] = view
	missing, stale := e.ps.BrokenLinks()
	var b strings.Builder
	fmt.Fprintf(&b, "alive=%d view=%s missing=%d stale=%d events=%d", alive,
		strconv.FormatFloat(view, 'g', -1, 64), missing, stale, post.stats.Fired)
	for _, k := range netsim.AllKinds {
		t := e.net.KindTotal(k)
		fmt.Fprintf(&b, " %s=%d/%d", k, t.MsgsSent, t.BytesSent)
	}
	if churn == nil {
		if alive != p.Nodes {
			r.fail("%d of %d hosts alive, want all", alive, p.Nodes)
		}
	} else {
		fmt.Fprintf(&b, " joins=%d leaves=%d fails=%d", churn.Joins, churn.Leaves, churn.Fails)
		c["proto.churn_events"] = float64(churn.Joins + churn.Leaves + churn.Fails)
		if alive*5 < p.Nodes*4 {
			r.fail("%d of %d hosts alive, want at least 80%%", alive, p.Nodes)
		}
		if churn.Fails == 0 {
			r.fail("churn storm injected no failure")
		}
	}
	r.res.Summary = b.String()
	return nil
}

// admit joins n nodes in bulk. Uniform nodes get capability-less points
// in [0,1)^3; fleet nodes come from workload.NodeGen and sit at
// space.NodePoint(caps). A duplicate point redraws the coordinate (the
// virtual one for fleet nodes, as the scenario engine does).
func admit(s protoSim, n int, space *resource.Space, seed int64) error {
	points := rng.NewSplit(seed, "bench.points")
	redraw := rng.NewSplit(seed, "bench.redraw")
	var ngen *workload.NodeGen
	if space != nil {
		ngen = workload.NewNodeGen(space, rng.Split(seed, "bench.nodes"))
	}
	for i := 0; i < n; i++ {
		var caps *resource.NodeCaps
		if ngen != nil {
			caps = ngen.One()
		}
		for try := 0; ; try++ {
			var p geom.Point
			if caps != nil {
				p = space.NodePoint(caps)
			} else {
				p = geom.Point{points.Float64() * 0.999999, points.Float64() * 0.999999, points.Float64() * 0.999999}
			}
			_, err := s.JoinNode(p, caps)
			if err == nil {
				break
			}
			if !errors.Is(err, can.ErrDuplicatePoint) || try >= 8 {
				return fmt.Errorf("join node %d: %w", i, err)
			}
			if caps != nil {
				caps.Virtual = redraw.Float64() * 0.999999
			}
		}
	}
	return nil
}

func (r *opRun) lb(l LBSpec) error {
	config := func(s experiments.SchemeName, jobs int) experiments.LBConfig {
		cfg := experiments.DefaultLBConfig(s)
		cfg.Nodes, cfg.Jobs, cfg.MeanInterArrival, cfg.Seed = l.Nodes, jobs, l.MeanInterArrival, r.op.Seed
		return cfg
	}
	setup := r.tr.begin("setup", "")
	warm := r.tr.begin("setup.warm", "setup")
	for _, s := range experiments.LBSchemes {
		if _, err := experiments.RunLoadBalance(config(s, l.WarmJobs)); err != nil {
			return err
		}
	}
	runtime.GC()
	r.tr.end(warm)
	r.res.SetupS = r.tr.end(setup)

	events0, rt0 := perfCount("sim.events_fired"), readRuntime()
	var results []*experiments.LBResult
	err := r.timed(func() error {
		for _, s := range experiments.LBSchemes {
			i := r.tr.begin("lb."+string(s), "run")
			res, err := experiments.RunLoadBalance(config(s, l.Jobs))
			r.res.Counters["sched."+strings.ReplaceAll(string(s), "-", "")+"_s"] = r.tr.end(i)
			if err != nil {
				return err
			}
			results = append(results, res)
		}
		return nil
	})
	if err != nil {
		return err
	}
	r.res.SlicesS = []float64{r.res.WindowS}
	c := r.res.Counters
	c["sim.events"] = float64(perfCount("sim.events_fired") - events0)
	runtimeCounters(c, rt0, readRuntime())

	chk := r.tr.begin("check", "")
	defer r.tr.end(chk)
	var b strings.Builder
	for i, res := range results {
		s := experiments.LBSchemes[i]
		c["sched.route_hops"] += float64(res.Sched.RouteHops)
		c["sched.push_hops"] += float64(res.Sched.PushHops)
		fmt.Fprintf(&b, "%s: placed=%d failed=%d wait=%s makespan=%d %s; ", s, res.Placed, res.Failed,
			strconv.FormatFloat(res.WaitTimes.Mean(), 'g', -1, 64), res.Makespan, res.Sched)
		if res.Placed+res.Failed != l.Jobs {
			r.fail("%s: placed %d + failed %d != %d jobs", s, res.Placed, res.Failed, l.Jobs)
		}
	}
	r.res.Summary = strings.TrimSuffix(b.String(), "; ")
	return nil
}

type rtStats struct{ allocBytes, allocObjects, liveBytes uint64 }

func readRuntime() rtStats {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/heap/live:bytes"},
	}
	metrics.Read(s)
	return rtStats{s[0].Value.Uint64(), s[1].Value.Uint64(), s[2].Value.Uint64()}
}

const mb = 1 << 20

func runtimeCounters(c map[string]float64, pre, post rtStats) {
	c["runtime.alloc_mb"] = float64(post.allocBytes-pre.allocBytes) / mb
	c["runtime.alloc_objects"] = float64(post.allocObjects - pre.allocObjects)
	c["runtime.heap_live_mb"] = float64(post.liveBytes) / mb
}

func perfCount(name string) int64 {
	for _, s := range perf.Snapshot() {
		if s.Name == name {
			return s.Count
		}
	}
	return 0
}

// processCPU returns this process's user plus system CPU seconds.
func processCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

func writeSpans(path string, spans []Span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}
