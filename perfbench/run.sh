#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload:
#
#   bash perfbench/run.sh --workload serve_write --seed 1 --seconds 10 --trace 0
#
# Run it from anywhere; it works from the repository root. Everything it
# builds or writes (binaries, the Go build cache, result and trace files)
# goes under .bench_build/ in the repository. A traced run (--trace 1) also
# validates its Chrome trace with the repository's own `gcstats check`.
set -euo pipefail
cd "$(dirname "$0")/.."
root=$PWD
out=$root/.bench_build/perfbench
mkdir -p "$out"
# Keep every file the go command writes (build cache, module cache, its
# telemetry counters under the user config directory) inside .bench_build.
export GOCACHE=$root/.bench_build/gocache GOPATH=$root/.bench_build/gopath
export XDG_CONFIG_HOME=$root/.bench_build/config
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go -C perfbench build -o "$out/perfbench" .
go build -o "$out/gcstats" ./cmd/gcstats

workload= seed=1 trace=0
args=("$@")
for ((i = 0; i < ${#args[@]}; i++)); do
	case ${args[i]#-} in
	-workload | workload) workload=${args[i + 1]-} ;;
	-seed | seed) seed=${args[i + 1]-} ;;
	-trace | trace) trace=${args[i + 1]-} ;;
	esac
done

"$out/perfbench" "$@"
if [[ $trace == 1 ]]; then
	"$out/gcstats" check -trace "$out/$workload-seed$seed-trace1.trace.json" >&2
fi
