#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it with the given
# arguments (see README.md). Everything the build and the run write stays
# under .bench_build/ at the repository root: the Go build cache, the go
# command's config and telemetry directory, temp files and the sweep run
# directories. GOPROXY=off keeps the build offline; the benchmark needs
# nothing beyond the standard library and this repository.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/gopath" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$here" && go build -o "$out/e2ebench" .)
cd "$root"
exec "$out/e2ebench" "$@"
