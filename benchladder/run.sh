#!/usr/bin/env bash
# Builds the layer-ladder benchmark from source and runs it once, from the
# root of a checkout:
#
#   bash benchladder/run.sh --workload bko-sparse --seed 1 --seconds 20 --trace 0
#
# The binary, the Go build cache and every scratch file live in .bench_build/
# under the current directory; nothing is written elsewhere and nothing is
# fetched (no network). The build fails, and so does the run, when the
# repository's module is not next to this directory.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$PWD/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go -C "$here" build -o "$out/benchladder" .
exec "$out/benchladder" "$@"
