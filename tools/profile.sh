#!/usr/bin/env bash
# Profiling harness for the repository benchmark: collects a CPU profile
# of one short `hpabench` run and prints the hottest functions, so a
# per-layer metric that moved in an A/B (tools/ab.sh) can be followed up
# with "which function inside that layer".
#
# Uses gprofng (binutils) — the containers this repo grows in ship it,
# while `perf` is typically absent and the kernel's perf_event interface
# is often locked down. Skips cleanly (exit 0, a message on stderr) when
# no profiler is available. hpabench runs its cells on worker threads,
# and gprofng 2.40 has been seen to record clock samples from the main
# thread only: check the <Total> line against the run's wall time before
# reading the shares.
#
# Usage: tools/profile.sh [--top N] [--keep] WORKLOAD
#   WORKLOAD  a BENCHMARK.json workload: paper-matrix, sampled-long or
#             serve-mixed (run with --seed 1 --seconds 1 --trace 0)
#   --top     number of hottest functions to print (default: 15)
#   --keep    keep the experiment directory and print its path
set -euo pipefail
cd "$(dirname "$0")/.."

usage="usage: tools/profile.sh [--top N] [--keep] WORKLOAD"
workload=
top=15
keep=0
while [ $# -gt 0 ]; do
  case "$1" in
    --top) top="${2:?--top needs a value}"; shift 2 ;;
    --keep) keep=1; shift ;;
    -*) echo "$usage" >&2; exit 2 ;;
    *) workload="$1"; shift ;;
  esac
done
[ -n "$workload" ] || { echo "$usage" >&2; exit 2; }

if ! command -v gprofng >/dev/null 2>&1; then
  echo "profile.sh: gprofng not found; skipping (install binutils-gprofng to enable)" >&2
  exit 0
fi

# The benchmark's release profile carries line tables (debug = 1), so the
# collected samples attribute to source lines, not just symbols.
echo "== building hpabench (release) =="
cargo build --release -q --offline --manifest-path hpabench/Cargo.toml

expdir="$(mktemp -d /tmp/hpa-profile.XXXXXX)"
exp="$expdir/hpabench.er"
cleanup() { [ "$keep" -eq 1 ] || rm -rf "$expdir"; }
trap cleanup EXIT

echo "== collecting profile (workload=$workload) =="
if ! gprofng collect app -o "$exp" hpabench/target/release/hpabench \
  --workload "$workload" --seed 1 --seconds 1 --trace 0 >"$expdir/run.txt" 2>&1; then
  # Some hardened hosts refuse the collector's ptrace/LD_PRELOAD hooks;
  # that is an environment limitation, not a repo failure. A benchmark
  # that itself fails shows in the run output.
  echo "profile.sh: gprofng collect failed on this host; skipping" >&2
  tail -n 5 "$expdir/run.txt" >&2
  exit 0
fi

echo "== hottest functions (exclusive CPU, top $top) =="
gprofng display text -metrics e.totalcpu -sort e.totalcpu -functions "$exp" |
  awk 'NR > 5 && $1 + 0 > 0 { print } NR > 5 + '"$top"' { exit }'

if [ "$keep" -eq 1 ]; then
  echo "experiment kept at: $exp"
  echo "drill down with: gprofng display text -lines $exp"
  echo "             or: gprofng display text -source <function> $exp"
fi
