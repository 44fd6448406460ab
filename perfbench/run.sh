#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run from and
# runs it, passing every argument through:
#
#   bash perfbench/run.sh --workload hd2-dense --seed 1 --seconds 16 --trace 0
#
# Run it from the repository root. Build outputs, the Go build and module
# caches, the go command's own config and telemetry, results and span dumps
# all go to .bench_build/ in that root; nothing is fetched.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOWORK=off GOFLAGS= GOPROXY=off

commit=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo none)
source_digest=$( (find "$root" -path "$out" -prune -o -type f \( -name '*.go' -o -name go.mod \) -print0 \
	| LC_ALL=C sort -z | xargs -0 sha256sum | sed "s|$root/||" | sha256sum | cut -c1-16) 2>/dev/null || echo unknown)

(cd "$root/perfbench" && go build -o "$out/perfbench" \
	-ldflags "-X main.commit=$commit -X main.sourceDigest=$source_digest" .) >&2

exec "$out/perfbench" "$@"
