#!/usr/bin/env bash
# Builds the binaries the benchmark drives, then runs it. Run from the
# repository root:
#
#   bash benchmark/run.sh --workload serve-cold --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in
# the working tree: the Go build cache, temporary files, the binaries
# and the traced runs' spans. The binaries are rebuilt whenever a Go
# source or go.mod is newer than the last build.
set -euo pipefail

root=$(pwd)
if [[ ! -f go.mod || ! -d benchmark ]]; then
	echo "benchmark/run.sh: run from the repository root (go.mod not found)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/bin"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off CGO_ENABLED=0

stamp="$out/bin/.built"
if [[ ! -f "$stamp" ]] || [[ -n "$(find . -path ./.bench_build -prune -o \( -name '*.go' -o -name go.mod \) -newer "$stamp" -print -quit)" ]]; then
	go build -o "$out/bin/" ./cmd/attrserve ./cmd/attrrouter ./cmd/experiments \
		./cmd/gencorpus ./cmd/attr ./cmd/gptdetect ./benchmark >&2
	touch "$stamp"
fi
exec "$out/bin/benchmark" --bin "$out/bin" --work "$out/tmp" "$@"
