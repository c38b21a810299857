// Command ablations sweeps the design choices DESIGN.md calls out —
// stopping factor, virtual dimension, aggregation staleness, contention
// coefficient, failure mix — and runs the concurrent-kernel GPU
// extension experiment.
//
//	ablations                 # everything at 20% scale
//	ablations -scale 1        # paper-sized populations (slow)
//	ablations -only sf        # a single ablation
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"

	"hetgrid/internal/experiments"
	"hetgrid/internal/perf"
)

func main() {
	scale := flag.Float64("scale", 0.2, "experiment scale (1.0 = paper-sized populations)")
	seed := flag.Int64("seed", 1, "root random seed")
	only := flag.String("only", "all", "ablation to run: sf, virtual, staleness, gamma, gpus, bound, failures, churnlb or all")
	out := flag.String("out", "", "output file (default stdout)")
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
			fmt.Fprintln(os.Stderr, "ablations: stopping cpu profile:", err)
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

	s := experiments.Scale(*scale)
	suite := map[string]func(io.Writer, experiments.Scale, int64) error{
		"sf":        experiments.AblationStoppingFactor,
		"virtual":   experiments.AblationVirtualDimension,
		"staleness": experiments.AblationStaleness,
		"gamma":     experiments.AblationContention,
		"gpus":      experiments.AblationConcurrentGPUs,
		"bound":     experiments.AblationNeighborBound,
		"failures":  experiments.AblationFailureFraction,
		"churnlb":   experiments.AblationChurnLB,
	}
	if *only == "all" {
		if err := experiments.Ablations(w, s, *seed); err != nil {
			fatal(err)
		}
		return
	}
	f, ok := suite[*only]
	if !ok {
		fatal(fmt.Errorf("unknown ablation %q", *only))
	}
	if err := f(w, s, *seed); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ablations:", err)
	os.Exit(1)
}
