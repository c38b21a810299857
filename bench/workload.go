package bench

import (
	"fmt"

	"hetgrid/internal/sim"
)

// Engine names.
const (
	Serial  = "serial"
	Sharded = "sharded"
)

// Workload is one benchmark input. Every workload is a closed batch
// job: a fixed amount of virtual work, timed to completion.
type Workload struct {
	Name  string
	Proto *ProtoSpec // protocol plane on the serial and sharded engines
	LB    *LBSpec    // matchmaking plane on the serial engine
}

// ProtoSpec sizes a protocol workload: the adaptive heartbeat scheme
// with a 10 s period and the default 100 ms latency, nodes admitted in
// bulk with JoinNode at time 0, Warm virtual seconds of warm-up and one
// runtime.GC() as set-up, then Slices consecutive slices of Slice
// virtual seconds, each timed on its own.
type ProtoSpec struct {
	Nodes  int
	Fleet  bool // paper fleet over resource.NewSpace(0) (d=5); else uniform d=3 points
	Shards int  // S of the sharded engine
	Warm   sim.Duration
	Slice  sim.Duration
	Slices int
	Churn  bool // run the churn storm through the timed window
}

// LBSpec sizes the Fig 5 load-balance workload: the three schemes run
// back to back through experiments.RunLoadBalance with DefaultLBConfig
// otherwise. Set-up runs the same sequence once with WarmJobs jobs.
type LBSpec struct {
	Nodes            int
	Jobs             int
	WarmJobs         int
	MeanInterArrival sim.Duration
}

// Workloads is the benchmark's workload set, sized so that two reps of
// every workload fit a 30 s run on a 2-core machine.
//
// After bulk admission the adaptive scheme settles into a cycle of two
// heartbeat periods: a quiet period, then a request storm once stale
// neighbors time out (2.5 periods). The first two cycles still carry
// the join transient: they allocate ten times more and run up to 40%
// slower than later ones. The heartbeat workloads therefore warm up for
// 60 virtual s and time whole cycles, so every slice does nearly the same
// work (events vary by 1–3% across slices and seeds) and none depends on
// where a storm starts. Why each workload is here is recorded in
// BENCHMARK.json and the README.
var Workloads = []Workload{
	// The heartbeat plane on balanced shards.
	{Name: "hb_uniform_5k", Proto: &ProtoSpec{Nodes: 5000, Shards: 8,
		Warm: 60 * sim.Second, Slice: 20 * sim.Second, Slices: 8}},
	// The same protocol on the paper's skewed fleet: unbalanced shards.
	{Name: "hb_fleet_2500", Proto: &ProtoSpec{Nodes: 2500, Fleet: true, Shards: 8,
		Warm: 60 * sim.Second, Slice: 20 * sim.Second, Slices: 8}},
	// Membership writes: overlay mutation and control-plane quiesces.
	{Name: "churn_2k", Proto: &ProtoSpec{Nodes: 2000, Shards: 4,
		Warm: 20 * sim.Second, Slice: 10 * sim.Second, Slices: 6, Churn: true}},
	// The matchmaking plane alone; bypasses the heartbeat plane.
	{Name: "lb_fig5", LB: &LBSpec{Nodes: 1000, Jobs: 20000, WarmJobs: 1000,
		MeanInterArrival: 2 * sim.Second}},
}

// Lookup returns the named workload, scaled down to toy size (about 200
// nodes and two slices of 2.5 virtual seconds) when toy is set. The toy
// scale runs the same code path as the full one; the smoke test uses it.
func Lookup(name string, toy bool) (Workload, error) {
	for _, w := range Workloads {
		if w.Name != name {
			continue
		}
		if !toy {
			return w, nil
		}
		if w.Proto != nil {
			p := *w.Proto
			p.Nodes, p.Warm, p.Slice, p.Slices = 200, 5*sim.Second, 2500*sim.Millisecond, 2
			w.Proto = &p
		}
		if w.LB != nil {
			l := *w.LB
			l.Nodes, l.Jobs, l.WarmJobs = 200, 400, 50
			w.LB = &l
		}
		return w, nil
	}
	return Workload{}, fmt.Errorf("bench: unknown workload %q", name)
}

// Engines returns the engines the workload runs on; the last one is the
// primary engine, whose timings are run_s and setup_s.
func (w Workload) Engines() []string {
	if w.Proto != nil {
		return []string{Serial, Sharded}
	}
	return []string{Serial}
}

// Primary returns the engine run_s and setup_s are measured on.
func (w Workload) Primary() string {
	e := w.Engines()
	return e[len(e)-1]
}

// Workers returns the sharded worker count W = min(nproc, S).
func (w Workload) Workers(nproc int) int {
	if w.Proto == nil {
		return 1
	}
	return min(nproc, w.Proto.Shards)
}
