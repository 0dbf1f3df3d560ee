#!/usr/bin/env bash
# Builds whpcd and the whpcbench load generator from the checkout whose root
# is the current directory, then runs one benchmark workload:
#
#   bash _whpcbench/run.sh --workload paper_reader --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout: the Go build cache, both binaries, and each run's scratch
# directory (snapshots, whpcd logs), which is removed when the run ends.
set -euo pipefail

root="$(pwd)"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
if [[ ! -f "$root/go.mod" || ! -f "$root/cmd/whpcd/main.go" || ! -f "$here/go.mod" ]]; then
	echo "whpcbench: run from the repository root: whpcd sources not found under $root" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/bin" "$out/work"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOENV=off GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOTELEMETRY=off CGO_ENABLED=0
export XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache"

(cd "$root" && go build -o "$out/bin/whpcd" ./cmd/whpcd)
(cd "$here" && go build -o "$out/bin/whpcbench" .)

exec "$out/bin/whpcbench" -whpcd "$out/bin/whpcd" -work "$out/work" "$@"
