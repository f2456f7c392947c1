#!/usr/bin/env bash
# Pre-merge gate: formatting, lints, the full offline test suite and a
# benchmark smoke run. Everything here works with no network access.
set -euo pipefail
cd "$(dirname "$0")/.."
. tools/lib.sh

echo "== shell helper tests =="
tools/test_check_lib.sh

echo "== cargo fmt --check =="
cargo fmt --all --check

echo "== cargo clippy (-D warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo doc (-D warnings) =="
# Moving items between modules breaks intra-doc links silently: an
# unresolved link, or a public doc linking a private item, fails here.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --offline

echo "== cargo build --release =="
cargo build --release --workspace

echo "== cargo test (workspace) =="
cargo test -q --workspace

echo "== hpa report smoke =="
# The paper report end to end on all 12 programs at both widths: one job
# list feeds every section, so a view that stops rendering drops its
# heading. At --scale tiny the Long-scale sampled
# section prints its heading and a skip line, so this takes seconds.
report="$(mktemp /tmp/hpa-reproduce.XXXXXX.md)"
target/release/hpa report --scale tiny --jobs 2 --out "$report"
for heading in "### Table 2:" "### Figure 2:" "### Figure 3:" "### Figure 4:" "### Figure 6:" \
  "### Table 3:" "### Figure 7:" "### Figure 10:" "### Figure 14:" "### Figure 15:" \
  "### Figure 16:" "### CPI stack:" "### Circuit claims" "### Wakeup delay sweep" \
  "### Register file access time sweep" "## Sampled simulation accuracy" \
  "## Divergence notes"; do
  grep -qF "$heading" "$report" || {
    echo "ERROR: hpa report lacks the section \"$heading\" ($report)" >&2
    exit 1
  }
done
rm -f "$report"
echo "hpa report: every section rendered"

echo "== hpa extensions smoke =="
# The experiments beyond the paper on one program and width: each of the
# three tables must print.
extensions_out="$(target/release/hpa extensions --scale tiny --bench gcc --width 4 --jobs 2)"
for title in "Recovery ablation [4-wide]" \
  "Sequential wakeup IPC vs last-arrival predictor size [4-wide]" \
  "Future-work extensions: half-price rename & bypass [4-wide]"; do
  grep -qF "$title" <<< "$extensions_out" || {
    echo "ERROR: hpa extensions printed no table \"$title\"" >&2
    exit 1
  }
done
echo "hpa extensions: all three tables printed"

echo "== benchmark smoke =="
# hpabench has a [workspace] of its own, so the --workspace build and
# clippy above never compile it. Build it offline and run the traced
# serve-mixed battery once: `--trace 1` calls every layer the benchmark
# uses (run_prepared and its observed and phase-timed variants, the
# sampled runner with snapshot and restore, journal, cache key and result
# cache, JSON, ELF load and translate). A public-API change that breaks
# the benchmark, or makes it compute a wrong result, fails here.
cargo build --release -q --offline --manifest-path hpabench/Cargo.toml
bench_line="$(hpabench/target/release/hpabench --workload serve-mixed --seed 1 --seconds 1 \
  --trace 1 | tail -n 1)"
if [ "$(json_scalar "$bench_line" correct)" != "true" ] ||
   [ "$(json_scalar "$bench_line" failed)" != "0" ]; then
  echo "ERROR: hpabench serve-mixed did not report a correct run with 0 failed: $bench_line" >&2
  exit 1
fi
echo "hpabench serve-mixed: correct, $(json_scalar "$bench_line" attempted) attempted, 0 failed"
# The sampled runner end to end at Long scale: all 12 programs through
# pipelined windows (each detailed window on a worker thread while the
# main emulator fast-forwards on); the benchmark checks every program's
# checksum against its host reference.
bench_line="$(hpabench/target/release/hpabench --workload sampled-long --seed 1 --seconds 1 \
  --trace 0 | tail -n 1)"
if [ "$(json_scalar "$bench_line" correct)" != "true" ] ||
   [ "$(json_scalar "$bench_line" failed)" != "0" ]; then
  echo "ERROR: hpabench sampled-long did not report a correct run with 0 failed: $bench_line" >&2
  exit 1
fi
echo "hpabench sampled-long: correct, $(json_scalar "$bench_line" attempted) attempted, 0 failed"

echo "== fuzz smoke (fixed seed) =="
# Differential fuzzing gate: 200 random programs under base + three
# half-price schemes. Per scheme, each program runs whole in lockstep with
# the shadow emulator, as a detailed window restored from a midpoint
# snapshot and lockstep-checked against an independently advanced shadow,
# and through the sampled runner; every final state must agree with
# base's. Any divergence exits non-zero and leaves a shrunk reproducer in
# tests/corpus/.
cargo run --release -q --bin hpa -- fuzz --iters 200 --seed 42

echo "== fault-injection mini campaign (fixed seed) =="
# Resilience gate: 140 injected runs (5 seeded programs x 4 schemes x 7
# fault classes) against the lockstep oracle. Each cell runs once. Exits
# non-zero on any SDC (code 4, reproducer shrunk into tests/corpus/) or on
# any cell whose run panicked (code 3, reported as an aborted cell with
# its panic message), so zero silent corruption and zero panics are
# enforced here.
resilience="$(mktemp /tmp/hpa-resilience.XXXXXX.json)"
cargo run --release -q --bin hpa -- faults --campaign mini --seed 42 --out "$resilience"
echo "resilience report written to $resilience"
# Every fault class must fire in at least one run. A class whose runs are
# all dormant has a trigger site that no longer fires (say, a phase that
# moved without its injector call), and its runs would otherwise pass as
# clean.
never_fired="$(never_fired_classes "$(cat "$resilience")")"
if [ -n "$never_fired" ]; then
  echo "ERROR: fault class(es) fired in no mini-campaign run:" $never_fired >&2
  exit 1
fi
echo "every fault class fired in the mini campaign"

echo "== corpus replay =="
# Replay every checked-in reproducer through the full differential check.
cargo run --release -q --bin hpa -- verify tests/corpus

echo "== real-binary fixture gate (emu vs sim) =="
# The hpa-rv frontend end to end through real processes: a checked-in
# RISC-V fixture ELF must (a) run to completion in the functional
# emulator with the host model's checksum in the guest a1 register,
# (b) hold commit-by-commit lockstep against that same emulator under
# all four schemes, and (c) produce a detailed-sim stats digest from
# the on-disk ELF that is bit-identical to the registry's `rv-sieve`
# workload — the two decode paths must yield the same program.
rv_elf="crates/rv/fixtures/sieve.elf"
rv_run="$(cargo run --release -q --bin hpa -- run "$rv_elf")"
printf '%s\n' "$rv_run" | grep -q '^Halted' || {
  echo "ERROR: $rv_elf did not halt in the emulator:" >&2
  printf '%s\n' "$rv_run" >&2
  exit 1
}
rv_sum="$(printf '%s\n' "$rv_run" | awk '$1 == "r10" {print $3}')"
if [ "$rv_sum" != "0x1295f" ]; then  # sum of the primes below 1000
  echo "ERROR: $rv_elf emulator checksum ($rv_sum) != host model (0x1295f)" >&2
  exit 1
fi
cargo run --release -q --bin hpa -- verify "$rv_elf" | grep -q 'agree in lockstep' || {
  echo "ERROR: $rv_elf diverged under the lockstep oracle" >&2
  exit 1
}
rv_elf_digest="$(cargo run --release -q --bin hpa -- sim "$rv_elf" |
  awk '/^stats digest/ {print $3}')"
rv_reg_digest="$(cargo run --release -q --bin hpa -- bench rv-sieve |
  awk '/^stats digest/ {print $3}')"
if [ -z "$rv_elf_digest" ] || [ "$rv_elf_digest" != "$rv_reg_digest" ]; then
  echo "ERROR: ELF sim digest ($rv_elf_digest) != rv-sieve workload digest ($rv_reg_digest)" >&2
  exit 1
fi
echo "hpa-rv: emu checksum $rv_sum, lockstep clean, sim digest $rv_elf_digest matches registry"

echo "== cycle-accounting smoke =="
# The observability layer end to end: run one benchmark with counters on
# and check the books balance — the run record's counters must report the
# CPI stack summing to cycles x width (the integration suites prove this
# exhaustively; this gate proves the CLI path stays wired).
counters_json="$(cargo run --release -q --bin hpa -- sim gcc --scale tiny --scheme combined \
  --counters --json)"
total="$(json_scalar "$counters_json" cpi_total_slots)"
if [ -z "$total" ] || [ "$total" -eq 0 ]; then
  echo "ERROR: hpa sim --counters --json reported no attributed issue slots" >&2
  exit 1
fi
echo "hpa sim --counters --json: $total issue slots attributed"

echo "== serve flag check =="
# A misspelt flag is a usage error before anything runs: `--journal_dir`
# must exit 2, not start a daemon without a journal.
misspelt_dir="$(mktemp -d /tmp/hpa-serve-misspelt.XXXXXX)"
misspelt_code=0
misspelt="$(timeout 20 target/release/hpa serve --addr 127.0.0.1:0 \
  --journal_dir "$misspelt_dir" 2>&1)" || misspelt_code=$?
if [ "$misspelt_code" -ne 2 ] || grep -q 'listening on' <<< "$misspelt"; then
  echo "ERROR: hpa serve --journal_dir exited $misspelt_code instead of 2:" >&2
  printf '%s\n' "$misspelt" >&2
  exit 1
fi
rm -rf "$misspelt_dir"
echo "hpa serve --journal_dir: usage error (exit 2), no daemon started"

echo "== serve smoke =="
# Simulation-as-a-service gate, end to end through real processes: start
# the daemon on an ephemeral port, submit the same tiny workload twice,
# and require (a) the resubmission is served from the content-addressed
# result cache, (b) both payloads carry the exact stats digest a direct
# in-process run prints, and (c) `serve --stop` drains the daemon to a
# clean exit 0.
serve_log="$(mktemp /tmp/hpa-serve-smoke.XXXXXX.log)"
serve_cache="$(mktemp -d /tmp/hpa-serve-smoke-cache.XXXXXX)"
cargo run --release -q --bin hpa -- serve --addr 127.0.0.1:0 --cache-dir "$serve_cache" \
  > "$serve_log" 2>&1 &
serve_pid=$!
for _ in $(seq 1 100); do
  grep -q 'listening on' "$serve_log" 2>/dev/null && break
  sleep 0.1
done
serve_addr="$(sed -n 's/.*listening on \([0-9.:]*\) .*/\1/p' "$serve_log" | head -1)"
if [ -z "$serve_addr" ]; then
  echo "ERROR: hpa serve did not come up:" >&2
  cat "$serve_log" >&2
  kill "$serve_pid" 2>/dev/null || true
  exit 1
fi
first="$(cargo run --release -q --bin hpa -- submit gcc --scale tiny --addr "$serve_addr" --json)"
second="$(cargo run --release -q --bin hpa -- submit gcc --scale tiny --addr "$serve_addr" --json)"
if [ "$(json_scalar "$first" cached)" != "false" ]; then
  echo "ERROR: first submission reported a cache hit on an empty cache: $first" >&2
  exit 1
fi
if [ "$(json_scalar "$second" cached)" != "true" ]; then
  echo "ERROR: resubmission was not served from the result cache: $second" >&2
  exit 1
fi
first_digest="$(json_scalar "$first" stats_digest)"
second_digest="$(json_scalar "$second" stats_digest)"
direct_digest="$(cargo run --release -q --bin hpa -- bench gcc --scale tiny |
  awk '/^stats digest/ {print $3}')"
if [ -z "$first_digest" ] || [ "$first_digest" != "$direct_digest" ] ||
   [ "$second_digest" != "$direct_digest" ]; then
  echo "ERROR: daemon stats digests ($first_digest, $second_digest) != direct run ($direct_digest)" >&2
  exit 1
fi
# Raw-binary jobs through the same daemon: submit a checked-in fixture
# ELF twice and require the resubmission to be a bit-identical cache
# hit — the content-addressed key is the *translated* program, so the
# same bytes must land on the same entry — with both payloads carrying
# the exact digest the direct-ELF simulation printed above.
bin_first="$(cargo run --release -q --bin hpa -- submit "$rv_elf" --addr "$serve_addr" --json)"
bin_second="$(cargo run --release -q --bin hpa -- submit "$rv_elf" --addr "$serve_addr" --json)"
if [ "$(json_scalar "$bin_first" cached)" != "false" ]; then
  echo "ERROR: first binary submission reported a cache hit on an empty cache: $bin_first" >&2
  exit 1
fi
if [ "$(json_scalar "$bin_second" cached)" != "true" ]; then
  echo "ERROR: binary resubmission was not served from the result cache: $bin_second" >&2
  exit 1
fi
bin_first_digest="$(json_scalar "$bin_first" stats_digest)"
bin_second_digest="$(json_scalar "$bin_second" stats_digest)"
if [ -z "$bin_first_digest" ] || [ "$bin_first_digest" != "$rv_elf_digest" ] ||
   [ "$bin_second_digest" != "$rv_elf_digest" ]; then
  echo "ERROR: binary-job digests ($bin_first_digest, $bin_second_digest) != direct ELF run ($rv_elf_digest)" >&2
  exit 1
fi
# Re-attach: a fresh cell submitted without waiting, then collected with
# `hpa job`, whose `/result` call waits on the daemon until the job is
# done and must carry the direct run's digest.
detached="$(cargo run --release -q --bin hpa -- submit gzip --scale tiny \
  --addr "$serve_addr" --no-wait --json)"
detached_job="$(json_scalar "$detached" job_id)"
if [ -z "$detached_job" ] || [ "$(json_scalar "$detached" status)" != "queued" ]; then
  echo "ERROR: --no-wait submit of a fresh cell returned no queued job: $detached" >&2
  exit 1
fi
attached="$(cargo run --release -q --bin hpa -- job "$detached_job" --addr "$serve_addr" --json)"
attached_digest="$(json_scalar "$attached" stats_digest)"
gzip_digest="$(cargo run --release -q --bin hpa -- bench gzip --scale tiny |
  awk '/^stats digest/ {print $3}')"
if [ "$(json_scalar "$attached" status)" != "done" ] || [ -z "$attached_digest" ] ||
   [ "$attached_digest" != "$gzip_digest" ]; then
  echo "ERROR: re-attached job is not done with the direct run's digest ($gzip_digest): $attached" >&2
  exit 1
fi
cargo run --release -q --bin hpa -- serve --stop --addr "$serve_addr"
wait "$serve_pid"
rm -rf "$serve_cache"
echo "hpa serve: cache hit on resubmission, digest $direct_digest matches direct run, clean shutdown"
echo "hpa serve: binary job cache hit on resubmission, digest $bin_first_digest matches direct ELF run"
echo "hpa serve: --no-wait job $detached_job re-attached done, digest $attached_digest matches direct run"

echo "== serve crash-recovery gate =="
# Durability gate, end to end through real processes and a real SIGKILL:
# start a journaled daemon, submit a job without waiting, kill -9 the
# daemon, restart it on the same journal, and require the replayed job to
# finish with the exact digest a direct in-process run prints. This is
# the contract the write-ahead journal exists for.
recover_log="$(mktemp /tmp/hpa-serve-recover.XXXXXX.log)"
recover_cache="$(mktemp -d /tmp/hpa-serve-recover-cache.XXXXXX)"
recover_journal="$(mktemp -d /tmp/hpa-serve-recover-journal.XXXXXX)"
cargo run --release -q --bin hpa -- serve --addr 127.0.0.1:0 --jobs 1 \
  --journal-dir "$recover_journal" --cache-dir "$recover_cache" \
  > "$recover_log" 2>&1 &
recover_pid=$!
for _ in $(seq 1 100); do
  grep -q 'listening on' "$recover_log" 2>/dev/null && break
  sleep 0.1
done
recover_addr="$(sed -n 's/.*listening on \([0-9.:]*\) .*/\1/p' "$recover_log" | head -1)"
if [ -z "$recover_addr" ]; then
  echo "ERROR: journaled hpa serve did not come up:" >&2
  cat "$recover_log" >&2
  kill "$recover_pid" 2>/dev/null || true
  exit 1
fi
receipt="$(cargo run --release -q --bin hpa -- submit mcf --scale tiny \
  --addr "$recover_addr" --no-wait --json)"
recover_job="$(json_scalar "$receipt" job_id)"
if [ -z "$recover_job" ]; then
  echo "ERROR: --no-wait submit returned no job_id: $receipt" >&2
  exit 1
fi
# The 200 is out, so the journal holds the job: SIGKILL, no grace.
kill -9 "$recover_pid"
wait "$recover_pid" 2>/dev/null || true
cargo run --release -q --bin hpa -- serve --addr 127.0.0.1:0 --jobs 1 \
  --journal-dir "$recover_journal" --cache-dir "$recover_cache" \
  > "$recover_log" 2>&1 &
recover_pid=$!
for _ in $(seq 1 100); do
  grep -q 'listening on' "$recover_log" 2>/dev/null && break
  sleep 0.1
done
recover_addr="$(sed -n 's/.*listening on \([0-9.:]*\) .*/\1/p' "$recover_log" | head -1)"
recovered="$(cargo run --release -q --bin hpa -- job "$recover_job" \
  --addr "$recover_addr" --wait-secs 180 --json)"
recovered_digest="$(json_scalar "$recovered" stats_digest)"
mcf_digest="$(cargo run --release -q --bin hpa -- bench mcf --scale tiny |
  awk '/^stats digest/ {print $3}')"
if [ -z "$recovered_digest" ] || [ "$recovered_digest" != "$mcf_digest" ]; then
  echo "ERROR: recovered job digest ($recovered_digest) != direct run ($mcf_digest)" >&2
  cat "$recover_log" >&2
  kill "$recover_pid" 2>/dev/null || true
  exit 1
fi
cargo run --release -q --bin hpa -- serve --stop --addr "$recover_addr"
wait "$recover_pid"
rm -rf "$recover_cache" "$recover_journal"
echo "hpa serve: kill -9 mid-job, journal replay, digest $recovered_digest matches direct run"

echo "== chaos smoke (fixed seeds) =="
# Fault-injection proxy between SDK and daemon: seeded drops, delays,
# truncations and bit flips on the wire. The retry loop must carry the
# submissions through, and the daemon must never wedge.
cargo test -q --release --test serve_chaos chaos_proxy

echo "== sampled-accuracy check (non-fatal) =="
# SMARTS-style sampling vs full detailed simulation on two workloads at
# the default scale, fixed seed. Non-fatal: sampling only warms branch
# tables during fast-forward (caches start cold in each window), so
# cache-sensitive workloads legitimately drift; a >10% error on these two
# stable ones usually means the estimator or snapshot path regressed.
sampled_units="2000:10000:88000"
for b in gcc perl; do
  full="$(cargo run --release -q --bin hpa -- bench "$b" --scale default | awk '/^IPC/ {print $2}')"
  sampled="$(cargo run --release -q --bin hpa -- bench "$b" --scale default \
    --sampled "$sampled_units" --seed 42 | awk '/^mean IPC/ {print $3}')"
  echo "$b (default): full IPC $full, sampled mean IPC $sampled"
  if awk -v f="$full" -v s="$sampled" \
    'BEGIN { d = s - f; if (d < 0) d = -d; exit !(f > 0 && d > 0.10 * f) }'; then
    echo "WARNING: sampled IPC off by >10% vs full detailed on $b ($sampled vs $full)" >&2
  fi
done

echo "== coverage report (non-fatal) =="
# Line-coverage summary via cargo-llvm-cov when the host has it; purely
# informational — the container images don't ship it, so absence skips.
if command -v cargo-llvm-cov >/dev/null 2>&1; then
  cargo llvm-cov --workspace --summary-only -q || \
    echo "WARNING: cargo llvm-cov failed (non-fatal)" >&2
else
  echo "cargo-llvm-cov not installed; skipping"
fi

echo "== check.sh: all gates passed =="
