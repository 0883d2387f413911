#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload.
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run it from the repository root. Every file it writes (Go build cache,
# the benchmark binary, span traces, run-health records) stays under
# .bench_build/perfbench in the current directory. Without the module
# sources next to perfbench/ the build fails and the script exits non-zero.
set -euo pipefail
out="$PWD/.bench_build/perfbench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" TMPDIR="$out/tmp" GOTMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off
go build -C perfbench -o "$out/perfbench" . >&2
exec "$out/perfbench" -out "$out" "$@"
