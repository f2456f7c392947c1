//! Before/after stats equivalence for scheduler-core rewrites.
//!
//! The golden tables in `hpa_core::model` pin an FNV-1a digest of the
//! full `SimStats` debug formatting — every counter, histogram and
//! predictor-accuracy field — for three workloads under every scheme at
//! both widths, plus the observability registry, the RISC-V fixtures and
//! one sampled run. Any rewrite of wakeup/select, the LSQ walk or the
//! PC-indexed tables must keep all of them bit-identical.
//!
//! Regenerate (only after an *intentional* timing change) with
//! `cargo run --release --example golden_stats_digest`; re-pinning moves
//! the model fingerprint, which retires every cached result.

use half_price::model::{COUNTER_GOLDEN, GOLDEN, GOLDEN_8W, RISCV_GOLDEN, SAMPLED_GOLDEN};
use half_price::obs::digest::debug_digest as digest;
use half_price::sim::SampleUnits;
use half_price::workloads::{workload, Scale};
use half_price::{run, run_workload, MachineWidth, Mode, RunSpec, Scheme};

/// Every scheme's full statistics stay bit-identical to the pre-rewrite
/// scheduler, for a compute-bound, a memory-bound and a branchy workload.
#[test]
fn stats_match_pre_rewrite_golden_digests() {
    let mut failures = Vec::new();
    for &(name, scheme, expected) in &GOLDEN {
        let r = run_workload(name, Scale::Tiny, MachineWidth::Four, scheme)
            .unwrap_or_else(|e| panic!("{e}"));
        let got = digest(&r.stats);
        if got != expected {
            failures.push(format!("{name}/{scheme:?}: {got:#018x} != {expected:#018x}"));
        }
    }
    assert!(failures.is_empty(), "stats diverged from golden:\n{}", failures.join("\n"));
}

/// The same cells on the 8-wide machine: its 128-slot window is the only
/// one whose ready set and wakeup-matrix rows span two bitset words, so
/// these rows are what pins the second word of every scan.
#[test]
fn eight_wide_stats_match_golden_digests() {
    let mut failures = Vec::new();
    for &(name, scheme, expected) in &GOLDEN_8W {
        let r = run_workload(name, Scale::Tiny, MachineWidth::Eight, scheme)
            .unwrap_or_else(|e| panic!("{e}"));
        let got = digest(&r.stats);
        if got != expected {
            failures.push(format!("{name}/{scheme:?}: {got:#018x} != {expected:#018x}"));
        }
    }
    assert!(failures.is_empty(), "8-wide stats diverged from golden:\n{}", failures.join("\n"));
}

/// The translated real-binary workloads are as pinned as the hand-written
/// kernels: every fixture × scheme cell must stay bit-identical (and
/// `run_workload` itself verifies the architectural checksum against the
/// host-side reference model on every run).
#[test]
fn riscv_stats_match_golden_digests() {
    let mut failures = Vec::new();
    for &(name, scheme, expected) in &RISCV_GOLDEN {
        let r = run_workload(name, Scale::Tiny, MachineWidth::Four, scheme)
            .unwrap_or_else(|e| panic!("{e}"));
        let got = digest(&r.stats);
        if got != expected {
            failures.push(format!("{name}/{scheme:?}: {got:#018x} != {expected:#018x}"));
        }
    }
    assert!(failures.is_empty(), "riscv stats diverged from golden:\n{}", failures.join("\n"));
}

/// Enabling the observability registry changes no stats digest — the
/// counters are pure observation — and the registry's own contents are
/// pinned, so attribution changes are as visible as timing changes.
#[test]
fn observed_runs_keep_stats_digests_and_pin_counter_digests() {
    let mut failures = Vec::new();
    for &(name, scheme, expected) in &COUNTER_GOLDEN {
        let w = workload(name, Scale::Tiny).expect("known workload");
        let r =
            run(&RunSpec { counters: true, ..RunSpec::workload(&w, scheme, MachineWidth::Four) })
                .unwrap_or_else(|e| panic!("{e}"));
        let stats_expected = GOLDEN
            .iter()
            .find(|&&(n, s, _)| n == name && s == scheme)
            .map(|&(_, _, d)| d)
            .expect("counter cells are a subset of the stats cells");
        let got_stats = digest(&r.stats);
        if got_stats != stats_expected {
            failures.push(format!(
                "{name}/{scheme:?}: stats with counters on {got_stats:#018x} != \
                 {stats_expected:#018x}"
            ));
        }
        let c = r.counters.expect("observed run records counters");
        let got = digest(&c);
        if got != expected {
            failures.push(format!("{name}/{scheme:?}: counters {got:#018x} != {expected:#018x}"));
        }
    }
    assert!(failures.is_empty(), "observability diverged from golden:\n{}", failures.join("\n"));
}

/// The sampled-mode walk is deterministic and pinned: same program, units
/// and seed always place the same windows and measure the same cycles.
#[test]
fn sampled_run_matches_golden_digest() {
    let units = SampleUnits::parse("500:2000:7500").expect("valid units");
    let w = workload("gcc", Scale::Tiny).expect("known workload");
    let mode = Mode::Sampled { units, seed: 42 };
    let r = run(&RunSpec { mode, ..RunSpec::workload(&w, Scheme::Base, MachineWidth::Four) })
        .unwrap_or_else(|e| panic!("{e}"));
    let est = r.sampled.expect("sampled run records an estimate");
    let got = digest(&est);
    assert_eq!(
        got,
        SAMPLED_GOLDEN,
        "sampled estimate diverged from golden: {got:#018x} != {SAMPLED_GOLDEN:#018x} \
         ({} samples, mean IPC {:.4} ± {:.4})",
        est.samples.len(),
        est.mean_ipc,
        est.ci_half_width
    );
}
