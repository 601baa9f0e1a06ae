#!/usr/bin/env bash
# Builds the benchmark harness from source and runs it. Run from the root of
# a checkout:
#
#   bash perfbench/run.sh --workload count-hot --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run leave behind goes under the build
# directory ($CARGO_TARGET_DIR when set, else .bench_build), including the Go
# build cache, so the run reads and writes nothing outside the checkout
# except the Go toolchain itself. Without the repository's sources next to
# perfbench/ the build fails and the script exits non-zero.
set -euo pipefail
root="$(pwd)"
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
  /*) ;;
  *) build="$root/$build" ;;
esac
mkdir -p "$build"
# The Go command's caches, its config directory (where it keeps local
# telemetry) and GOPATH all go under the build directory; the build needs
# no network (GOPROXY=off, GOTOOLCHAIN=local).
export GOCACHE="$build/gocache" GOMODCACHE="$build/gopath/pkg/mod" GOPATH="$build/gopath" \
  XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
commit=unknown
if [ -e "$root/.git" ]; then commit="$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)"; fi
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" -workdir "$build" -commit "$commit" "$@"
