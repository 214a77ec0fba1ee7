#!/usr/bin/env bash
# Builds the layer-ladder benchmark from the checkout this script sits in
# and runs it with the given arguments, for example from the repository
# root:
#
#   bash ladderbench/run.sh --workload grid-narrow --seed 1 --seconds 10 --trace 0
#
# The binary, the Go build cache and the spans of traced runs go under
# $CARGO_TARGET_DIR (default .bench_build in the working directory), so a
# run writes nothing outside the checkout. The benchmark module reaches
# the program under test through a replace directive to its parent
# directory, so it builds only inside a repository checkout.
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$PWD/$out ;;
esac
mkdir -p "$out/go-cache" "$out/go-tmp"
export GOCACHE="$out/go-cache" GOTMPDIR="$out/go-tmp" GOMODCACHE="$out/go-mod" \
	GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd "$here" && go build -o "$out/ladderbench.bin" .)
exec "$out/ladderbench.bin" --out "$out" "$@"
