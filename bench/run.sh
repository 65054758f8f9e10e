#!/usr/bin/env bash
# Builds the benchmark and kokod from the checkout's source, then runs the
# benchmark with the arguments given, from the caller's directory. Everything
# the build and the run write stays under bench/out/ (build cache included),
# which .gitignore names.
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
out="$here/out"
mkdir -p "$out/bin" "$out/gotmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOTOOLCHAIN=local GOPROXY=off GOWORK=off
(cd "$here" && go build -o "$out/bin/bench" .) >&2
(cd "$here/.." && go build -o "$out/bin/kokod" ./cmd/kokod) >&2
exec "$out/bin/bench" -kokod "$out/bin/kokod" -root "$here/.." -out "$out" -aa-out "$here/AA.json" "$@"
