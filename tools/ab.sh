#!/usr/bin/env bash
# Interleaved A/B of the repository benchmark: the working tree against a
# base commit, on the same host, with the same benchmark settings.
#
#   tools/ab.sh [--base REV] [--pairs N] [--seed S] [--work DIR] WORKLOAD...
#
# REV defaults to HEAD^ (the parent of a committed change; pass
# `--base HEAD` to measure uncommitted edits). The base commit is exported
# with `git archive` into DIR/base-<sha> (default DIR: target/ab) and both
# sides build `hpabench` once, offline. For each workload the script then
# runs N pairs (default 10) of
#
#   hpabench --workload W --seed S --seconds T --trace 0
#
# with T the `run_seconds` of BENCHMARK.json, alternating which side runs
# first, and prints for every end-to-end metric named in BENCHMARK.json
# each side's median and quartiles, the number of pairs the working tree
# won (ties count for neither side) and a verdict:
#
#   wrong result    a run of this workload reported "correct":false, on
#                   either side; its numbers prove nothing;
#   better / worse  one side won at least 9 of 10 pairs and the medians
#                   differ by more than the base's interquartile range;
#   within noise    otherwise;
#   too few pairs   fewer than 10 pairs ran (no verdict is drawn).
#
# The script exits 1 if any workload got `wrong result`, and stops at the
# first run that exits non-zero. Every run's full output is kept under
# DIR/logs/. The script only runs the benchmark; it never edits hpabench/
# or BENCHMARK.json.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"

base_rev="HEAD^"
pairs=10
seed=1
work="$root/target/ab"
workloads=()
while [ $# -gt 0 ]; do
  case "$1" in
    --base) base_rev="$2"; shift 2 ;;
    --pairs) pairs="$2"; shift 2 ;;
    --seed) seed="$2"; shift 2 ;;
    --work) work="$2"; shift 2 ;;
    -h | --help) sed -n '2,30p' "$0" | sed 's/^# \{0,1\}//'; exit 0 ;;
    -*) echo "ab.sh: unknown flag $1" >&2; exit 2 ;;
    *) workloads+=("$1"); shift ;;
  esac
done
if [ ${#workloads[@]} -eq 0 ]; then
  echo "usage: tools/ab.sh [--base REV] [--pairs N] [--seed S] [--work DIR] WORKLOAD..." >&2
  exit 2
fi

sha="$(git rev-parse --verify "$base_rev^{commit}")"
base_dir="$work/base-${sha:0:12}"
logs="$work/logs"
mkdir -p "$logs"
if [ ! -d "$base_dir" ]; then
  mkdir -p "$base_dir.tmp"
  git archive "$sha" | tar -x -C "$base_dir.tmp"
  mv "$base_dir.tmp" "$base_dir"
fi

build() {
  echo "== building hpabench in $1 ==" >&2
  cargo build --release --quiet --offline --manifest-path "$1/hpabench/Cargo.toml" >&2
}
build "$base_dir"
build "$root"
base_bin="$base_dir/hpabench/target/release/hpabench"
change_bin="$root/hpabench/target/release/hpabench"

# The run length, then `name better` per end-to-end metric in
# BENCHMARK.json order.
spec="$(awk '
  /"run_seconds"/ { gsub(/[^0-9.]/, "", $2); seconds = $2 }
  /"end_to_end"/ { inside = 1 }
  inside && /\]/ { inside = 0 }
  inside && /"name"/ { gsub(/[",]/, "", $2); name = $2 }
  inside && /"better"/ { gsub(/[",]/, "", $2); metrics = metrics name " " $2 "\n" }
  END { printf "%s\n%s", seconds, metrics }
' BENCHMARK.json)"
seconds="${spec%%$'\n'*}"
metrics="${spec#*$'\n'}"
if [ -z "$seconds" ]; then
  echo "ab.sh: BENCHMARK.json has no run_seconds" >&2
  exit 2
fi

# Runs one side once and prints `metric value` lines from its result line,
# plus `wrong_result 1` if the run reported a wrong result.
run_side() { # bin side workload index
  local log="$logs/$3-$2-$4.txt"
  "$1" --workload "$3" --seed "$seed" --seconds "$seconds" --trace 0 >"$log" 2>&1 || {
    echo "ab.sh: $2 run $4 of $3 exited non-zero; see $log" >&2
    return 1
  }
  local line
  line="$(tail -n 1 "$log")"
  case "$line" in
    *'"correct":true'* | *'"correct": true'*) ;;
    *)
      echo "ab.sh: $2 run $4 of $3 reported a wrong result; see $log" >&2
      echo "wrong_result 1"
      ;;
  esac
  while read -r name _; do
    printf '%s %s\n' "$name" \
      "$(printf '%s' "$line" | grep -o "\"$name\": *{\"value\": *[^,}]*" | sed 's/.*: *//')"
  done <<<"$metrics"
}

status=0
for w in "${workloads[@]}"; do
  results="$logs/$w-seed$seed.tsv"
  : >"$results"
  for i in $(seq 1 "$pairs"); do
    if [ $((i % 2)) -eq 1 ]; then order="base change"; else order="change base"; fi
    for side in $order; do
      if [ "$side" = base ]; then bin="$base_bin"; else bin="$change_bin"; fi
      run_side "$bin" "$side" "$w" "$i" | sed "s/^/$i $side /" >>"$results"
    done
    echo "$w: pair $i/$pairs done ($order)" >&2
  done

  echo
  echo "== $w, seed $seed, $pairs pairs, --seconds $seconds: base ${sha:0:12} vs working tree =="
  printf '%-14s %-6s %12s %12s %12s   %12s %12s %12s   %5s  %s\n' \
    metric better base_q1 base_med base_q3 chg_q1 chg_med chg_q3 wins verdict
  while read -r name better; do
    awk -v name="$name" -v better="$better" -v pairs="$pairs" '
      $3 == name { v[$2, $1] = $4; n[$2]++; vals[$2, n[$2]] = $4 }
      $3 == "wrong_result" { wrong++ }
      function sort_side(s,    i, j, t) {
        for (i = 1; i <= n[s]; i++) sorted[s, i] = vals[s, i] + 0
        for (i = 2; i <= n[s]; i++)
          for (j = i; j > 1 && sorted[s, j - 1] > sorted[s, j]; j--) {
            t = sorted[s, j]; sorted[s, j] = sorted[s, j - 1]; sorted[s, j - 1] = t
          }
      }
      # Linear interpolation between order statistics (type 7).
      function q(s, p,    h, lo) {
        h = (n[s] - 1) * p + 1; lo = int(h)
        if (lo >= n[s]) return sorted[s, n[s]]
        return sorted[s, lo] + (h - lo) * (sorted[s, lo + 1] - sorted[s, lo])
      }
      END {
        if (n["base"] == 0 || n["change"] == 0) { printf "%-14s no values\n", name; exit }
        sort_side("base"); sort_side("change")
        wins = 0; losses = 0
        for (i = 1; i <= pairs; i++) {
          if (!((("base", i) in v) && (("change", i) in v))) continue
          d = v["change", i] - v["base", i]
          if (better == "lower") d = -d
          if (d > 0) wins++; else if (d < 0) losses++
        }
        gap = q("change", 0.5) - q("base", 0.5)
        if (better == "lower") gap = -gap
        iqr = q("base", 0.75) - q("base", 0.25)
        need = 0.9 * pairs
        verdict = "within noise"
        if (wrong) verdict = "wrong result"
        else if (pairs < 10) verdict = "too few pairs"
        else if (wins >= need && gap > iqr) verdict = "better"
        else if (losses >= need && -gap > iqr) verdict = "worse"
        printf "%-14s %-6s %12.4g %12.4g %12.4g   %12.4g %12.4g %12.4g   %2d/%-2d  %s\n",
          name, better, q("base", 0.25), q("base", 0.5), q("base", 0.75),
          q("change", 0.25), q("change", 0.5), q("change", 0.75), wins, pairs, verdict
      }
    ' "$results"
  done <<<"$metrics"
  if grep -q ' wrong_result ' "$results"; then status=1; fi
done
exit "$status"
