#!/usr/bin/env bash
# Builds the perfbench binary from the checkout's sources and runs it with
# the given arguments. Run from the root of the checkout:
#
#   bash perfbench/run.sh --workload serve_mix --seed 1 --seconds 10 --trace 0
#
# Every build artifact (Go build cache, module cache, binary) stays under
# .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache"
export GOMODCACHE="$out/gomodcache"
export GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOFLAGS=-mod=mod
export GOWORK=off

if [ ! -f "$root/go.mod" ]; then
	echo "perfbench: no go.mod at the checkout root; run from the repository root" >&2
	exit 2
fi
(cd "$root/perfbench" && go build -o "$out/perfbench" .)

commit=unknown
if [ -d "$root/.git" ] && command -v git >/dev/null 2>&1; then
	commit=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
fi
exec "$out/perfbench" --commit "$commit" "$@"
