#!/usr/bin/env bash
# Profiling harness for the repository benchmark: samples one short
# `hpabench` run and prints where its CPU time goes, so a per-layer
# metric that moved in an A/B (tools/ab.sh) can be followed up with
# "which function inside that layer".
#
# The sampler is tools/ptrace_sample.py: a python3 script that stops
# every running thread of the run about once a millisecond with ptrace
# and resolves the sampled addresses with `addr2line -f -i -C`, so the
# inlined frames of the fat-LTO build are reported too, by innermost
# function, by enclosing `phase_*` frame and by source line. `perf` is
# typically absent and the kernel's perf_event interface often locked
# down; gprofng, where present, has been seen to sample the main thread
# only and almost nothing at that (0.27 s over a 27 s run), without
# inline frames. The script skips cleanly (exit 0, a message on stderr)
# where ptrace is refused.
#
# Usage: tools/profile.sh [--top N] WORKLOAD
#   WORKLOAD  a BENCHMARK.json workload: paper-matrix, sampled-long or
#             serve-mixed (run with --seed 1 --seconds 1 --trace 0)
#   --top     number of rows to print per table (default: 15)
set -euo pipefail
cd "$(dirname "$0")/.."

usage="usage: tools/profile.sh [--top N] WORKLOAD"
workload=
top=15
while [ $# -gt 0 ]; do
  case "$1" in
    --top) top="${2:?--top needs a value}"; shift 2 ;;
    -*) echo "$usage" >&2; exit 2 ;;
    *) workload="$1"; shift ;;
  esac
done
[ -n "$workload" ] || { echo "$usage" >&2; exit 2; }

# The benchmark's release profile carries line tables (debug = 1), so the
# samples attribute to source lines and inlined frames, not just symbols.
echo "== building hpabench (release) =="
cargo build --release -q --offline --manifest-path hpabench/Cargo.toml

echo "== ptrace sampler (workload=$workload) =="
exec python3 tools/ptrace_sample.py --top "$top" -- \
  hpabench/target/release/hpabench --workload "$workload" --seed 1 --seconds 1 --trace 0
