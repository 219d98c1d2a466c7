#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it runs in, then
# runs it with the given arguments. Run from the repository root:
#
#	bash perfbench/run.sh --workload catalog --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# current directory: the Go build cache and the toolchain's own files (HOME
# points there for the build), the binary, the stream workload's disk
# catalogue and the traced runs' span files.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/home"
(
	export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" GOPATH="$out/home/go"
	export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/home/go/pkg/mod"
	export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
	cd "$root/perfbench"
	go build -o "$out/perfbench" .
) >&2
exec "$out/perfbench" "$@"
