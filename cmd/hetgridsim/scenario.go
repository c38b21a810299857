package main

// Scenario subcommands:
//
//	hetgridsim run [-metrics out.jsonl] scenario.yaml [more.yaml...]
//	hetgridsim validate scenario.yaml [more.yaml...]
//
// `run` prints each scenario's deterministic report and exits non-zero
// if any assertion fails — the contract the CI corpus gate relies on.
// `-metrics` additionally exports every scenario's sampled telemetry
// stream as JSONL, each line stamped with the scenario name; the
// stream is as deterministic as the report, and the report itself is
// byte-identical with or without the export. `validate` decodes and
// validates without running anything, so a whole corpus can be linted
// cheaply.

import (
	"flag"
	"fmt"
	"io"
	"os"

	"hetgrid/internal/scenario"
	"hetgrid/internal/sim"
)

// dispatchScenario handles the subcommand forms; it returns false when
// the invocation is the legacy flag mode.
func dispatchScenario(args []string) bool {
	if len(args) == 0 {
		return false
	}
	switch args[0] {
	case "run":
		os.Exit(runScenarios(args[1:]))
	case "validate":
		os.Exit(validateScenarios(args[1:]))
	}
	return false
}

func runScenarios(args []string) int {
	fs := flag.NewFlagSet("hetgridsim run", flag.ExitOnError)
	metricsPath := fs.String("metrics", "", "write every scenario's sampled telemetry (JSONL, run = scenario name) to this file")
	metricsEvery := fs.Float64("metrics-interval", 60, "telemetry sampling interval in virtual seconds")
	engine := fs.String("engine", "", "override the spec's engine: serial or sharded")
	shards := fs.Int("shards", 0, "override the spec's shard count (implies -engine sharded)")
	workers := fs.Int("workers", 0, "override the spec's worker count, 0 = GOMAXPROCS (implies -engine sharded)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch *engine {
	case "", "serial", "sharded":
	default:
		fmt.Fprintf(os.Stderr, "hetgridsim run: unknown -engine %q (serial or sharded)\n", *engine)
		return 2
	}
	paths := fs.Args()
	if len(paths) == 0 {
		fmt.Fprintln(os.Stderr, "hetgridsim run: no scenario files given")
		return 2
	}
	var export io.WriteCloser
	if *metricsPath != "" {
		f, err := os.Create(*metricsPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "hetgridsim run:", err)
			return 1
		}
		export = f
	}
	status := 0
	points := 0
	for i, path := range paths {
		if i > 0 {
			fmt.Println()
		}
		spec, err := scenario.LoadFile(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "hetgridsim run:", err)
			status = 1
			continue
		}
		// Flag overrides: -shards/-workers select the sharded core even
		// when the spec does not; an explicit -engine always wins. The
		// engines produce byte-identical reports, so an override changes
		// wall-clock behavior only.
		if *shards > 0 || *workers > 0 {
			spec.Engine = "sharded"
		}
		if *engine != "" {
			spec.Engine = *engine
		}
		if *shards > 0 {
			spec.Shards = *shards
		}
		if *workers > 0 {
			spec.Workers = *workers
		}
		res, err := scenario.RunSampled(spec, sim.FromSeconds(*metricsEvery))
		if err != nil {
			fmt.Fprintln(os.Stderr, "hetgridsim run:", err)
			status = 1
			continue
		}
		fmt.Print(res.Report)
		if !res.Passed() {
			status = 1
		}
		if export != nil {
			if err := res.Telemetry.WriteJSONL(export, spec.Name); err != nil {
				fmt.Fprintln(os.Stderr, "hetgridsim run:", err)
				status = 1
			}
			points += res.Telemetry.Len()
		}
	}
	if export != nil {
		if err := export.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "hetgridsim run:", err)
			status = 1
		}
		fmt.Fprintf(os.Stderr, "hetgridsim run: wrote %d metric points to %s\n", points, *metricsPath)
	}
	return status
}

func validateScenarios(paths []string) int {
	if len(paths) == 0 {
		fmt.Fprintln(os.Stderr, "hetgridsim validate: no scenario files given")
		return 2
	}
	status := 0
	for _, path := range paths {
		spec, err := scenario.LoadFile(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "hetgridsim validate:", err)
			status = 1
			continue
		}
		fmt.Printf("ok %s (%s, %d nodes, %d events)\n", path, spec.Name, spec.Grid.Nodes, len(spec.Events))
	}
	return status
}
