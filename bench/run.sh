#!/usr/bin/env bash
# Builds the benchmark into .bench_build/ at the root of the checkout and
# runs it there with the arguments given. The Go build cache is kept in
# .bench_build/ too, so a run reads and writes nothing outside the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
mkdir -p .bench_build
export GOCACHE="$root/.bench_build/gocache" GOTOOLCHAIN=local
go -C bench build -o "$root/.bench_build/embellish-bench" .
exec "$root/.bench_build/embellish-bench" "$@"
