// Command hetbench is hetgrid's end-to-end benchmark. It runs each
// workload as a sequence of child processes (this binary, invoked as
// `hetbench child ...`), one at a time, prints one line per metric and
// ends with a one-line JSON result:
//
//	hetbench -seed 1                                  # every workload, 2 reps
//	hetbench -workload churn_2k -seed 7 -seconds 20   # one workload
//	hetbench -seed 1 -trace 1                         # traced set, layer table
//
// It exits non-zero when any child run fails. See bench/README.md.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"

	"hetgrid/bench"
)

func main() { os.Exit(run(os.Args[1:])) }

func run(args []string) int {
	if len(args) > 0 && args[0] == "child" {
		return bench.ChildMain(args[1:], os.Stdout, os.Stderr)
	}
	o, err := bench.ParseArgs(args, os.Stderr)
	if err != nil {
		if !errors.Is(err, flag.ErrHelp) {
			fmt.Fprintln(os.Stderr, err)
		}
		return 2
	}
	if o.Exe, err = os.Executable(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	o.Nproc = runtime.NumCPU()
	rep, err := bench.Run(o, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	line, err := rep.JSON()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	fmt.Println(string(line))
	if rep.Failed > 0 {
		return 1
	}
	return 0
}
