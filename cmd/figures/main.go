// Command figures regenerates the paper's evaluation figures
// (Section V) as plain-text tables: the same series the paper plots.
//
//	figures -fig all            # everything at the paper's scale
//	figures -fig 5 -scale 0.1   # a quick 10%-scale Figure 5
//	figures -fig 8a             # only the message-count sweep
//	figures -fig hb -metrics m.jsonl   # measured heartbeat volume + telemetry
//
// At -scale 1 the runs use the paper's populations (1000–2000 nodes,
// 20000 jobs, 30000 s churn horizons) and take minutes; smaller scales
// shrink populations and horizons while keeping dimensionalities,
// ratios and periods fixed, so the qualitative shapes persist.
//
// -metrics attaches a telemetry plane to every simulation and writes
// the collected time series as labeled JSONL. Telemetry never alters
// results: figure output is byte-identical with or without it.
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strings"

	"hetgrid/internal/experiments"
	"hetgrid/internal/metrics"
	"hetgrid/internal/perf"
	"hetgrid/internal/sim"
)

func main() {
	fig := flag.String("fig", "all", "figure to regenerate: 5, 6, 7, 8, 8a, 8b, hb, sharded or all")
	scale := flag.Float64("scale", 1.0, "experiment scale (1.0 = paper size)")
	seed := flag.Int64("seed", 1, "root random seed")
	out := flag.String("out", "", "output file (default stdout)")
	metricsPath := flag.String("metrics", "", "write sampled telemetry (JSONL) to this file")
	metricsCSV := flag.String("metrics-csv", "", "write sampled telemetry (CSV) to this file (-fig sharded only)")
	metricsEvery := flag.Float64("metrics-interval", 60, "telemetry sampling interval in virtual seconds")
	pprofPath := flag.String("pprof", "", "write a CPU profile to this file")
	flag.Parse()

	if *scale <= 0 || math.IsNaN(*scale) || math.IsInf(*scale, 0) {
		fatal(fmt.Errorf("-scale must be a positive number, got %v", *scale))
	}
	stopProfile, err := perf.StartCPUProfile(*pprofPath)
	if err != nil {
		fatal(err)
	}
	defer func() {
		if err := stopProfile(); err != nil {
			fmt.Fprintln(os.Stderr, "figures: stopping cpu profile:", err)
		}
	}()

	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		w = io.MultiWriter(os.Stdout, f)
	}

	var mc *experiments.MetricsCollector
	if *metricsPath != "" {
		mc = &experiments.MetricsCollector{Interval: sim.FromSeconds(*metricsEvery)}
	}

	s := experiments.Scale(*scale)
	run := func(name string, f func() error) {
		fmt.Fprintf(w, "==== %s (scale %.2f, seed %d) ====\n", name, *scale, *seed)
		if err := f(); err != nil {
			fatal(err)
		}
		fmt.Fprintln(w)
	}

	want := strings.ToLower(*fig)
	if want == "sharded" {
		// The sharded-core cell manages its own plane (one simulation,
		// sampled at window barriers) rather than the per-figure
		// collector.
		runSharded(w, s, *seed, *metricsPath, *metricsCSV, *metricsEvery)
		return
	}
	matched := false
	if want == "all" || want == "5" {
		matched = true
		run("Figure 5", func() error { _, err := experiments.Figure5(w, s, *seed, mc); return err })
	}
	if want == "all" || want == "6" {
		matched = true
		run("Figure 6", func() error { _, err := experiments.Figure6(w, s, *seed, mc); return err })
	}
	if want == "all" || want == "7" {
		matched = true
		run("Figure 7", func() error { _, err := experiments.Figure7(w, s, *seed, mc); return err })
	}
	if want == "all" || want == "8" || want == "8a" || want == "8b" {
		matched = true
		run("Figure 8", func() error { _, err := experiments.Figure8(w, s, *seed, mc); return err })
	}
	if want == "all" || want == "hb" {
		matched = true
		run("Figure HB", func() error { _, err := experiments.FigureHB(w, s, *seed, mc); return err })
	}
	if !matched {
		fatal(fmt.Errorf("unknown -fig %q (want 5, 6, 7, 8, hb, sharded or all)", *fig))
	}

	if mc != nil {
		f, err := os.Create(*metricsPath)
		if err != nil {
			fatal(err)
		}
		if err := mc.WriteJSONL(f); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "figures: wrote %d metric points to %s\n", mc.Len(), *metricsPath)
	}
}

// runSharded drives the sharded-telemetry figure: one Figure 8 cell on
// the sharded core, with the merged stream exported as JSONL and/or
// CSV. The figure text and both exports are byte-identical for any
// shard/worker count (and the text for telemetry on/off) — the sharded
// plane's determinism contract.
func runSharded(w io.Writer, s experiments.Scale, seed int64, jsonlPath, csvPath string, every float64) {
	var plane *metrics.Plane
	if jsonlPath != "" || csvPath != "" {
		plane = metrics.New(sim.FromSeconds(every), 0)
	}
	fmt.Fprintf(w, "==== Figure 8 on the sharded core (scale %.2f, seed %d) ====\n", float64(s), seed)
	if _, err := experiments.FigureSharded(w, s, seed, plane); err != nil {
		fatal(err)
	}
	fmt.Fprintln(w)
	if plane == nil {
		return
	}
	if jsonlPath != "" {
		writeExport(jsonlPath, func(f io.Writer) error { return plane.WriteJSONL(f, "sharded") })
	}
	if csvPath != "" {
		writeExport(csvPath, plane.WriteCSV)
	}
	fmt.Fprintf(os.Stderr, "figures: wrote %d metric points (%d series)\n", plane.Len(), len(plane.Series()))
}

func writeExport(path string, write func(io.Writer) error) {
	f, err := os.Create(path)
	if err != nil {
		fatal(err)
	}
	if err := write(f); err != nil {
		fatal(err)
	}
	if err := f.Close(); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "figures:", err)
	os.Exit(1)
}
