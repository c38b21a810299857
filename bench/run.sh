#!/usr/bin/env bash
# Builds hetbench from source and runs it. Run from the repository root:
#
#   bash bench/run.sh --workload hb_fleet_2500 --seed 1 --seconds 30 --trace 0
#   bash bench/run.sh -seed 1             # every workload, 2 reps each
#   bash bench/run.sh -seed 1 -trace 1    # traced set and layer tables
#
# Everything the build and the runs write stays under .bench_build/ in
# the current directory: the Go build cache, the binary, CPU profiles and
# span files. The build needs the hetgrid module one directory above
# bench/, so it fails outside a repository checkout.
set -euo pipefail

build="$(pwd)/.bench_build"
mkdir -p "$build/tmp" "$build/home"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" \
	GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" HOME="$build/home" \
	XDG_CONFIG_HOME="$build/home/.config" XDG_CACHE_HOME="$build/home/.cache" \
	GOENV=off GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off

go -C bench build -o "$build/hetbench" ./cmd/hetbench
exec "$build/hetbench" "$@"
