#!/usr/bin/env bash
# Builds d3cd and the benchmark from the sources of this checkout and runs the
# benchmark. Everything it writes — Go's build cache included — stays under
# .bench_build/ in the checkout.
#
#   run.sh test [go test flags]   vets and tests the benchmark's own module,
#                                 which the repository's ./... does not reach
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/gocache" "$build/gopath" "$build/tmp" "$build/run"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOFLAGS= GOTOOLCHAIN=local GOWORK=off GOPROXY=off
if [ "${1:-}" = test ]; then
	shift
	cd "$root/benchmark"
	go vet ./...
	exec go test -count=1 "$@" ./...
fi
(cd "$root" && go build -o "$build/bin/d3cd" ./cmd/d3cd)
(cd "$root/benchmark" && go build -o "$build/bin/benchmark" .)
exec "$build/bin/benchmark" -d3cd "$build/bin/d3cd" -workdir "$build/run" "$@"
