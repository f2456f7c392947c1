//! Snapshot round-trip properties over fuzzed programs.
//!
//! Two layers, both driven by the deterministic workspace generator:
//!
//! * **functional round trip** — snapshot an emulator mid-run, rebuild a
//!   fresh machine from the snapshot, and require bit-identical
//!   architectural state both at the restore point and after running both
//!   machines to completion;
//! * **detailed-window cross-check** — start a detailed simulation window
//!   from the same snapshot and let the lockstep oracle
//!   ([`verify::run_lockstep_window`]) replay every commit on an
//!   independently advanced shadow emulator, so any state the snapshot
//!   failed to carry surfaces as a divergence.
//!
//! A third test checks that snapshots and the machines restored from
//! them are isolated from one another's later writes, since memory pages
//! are shared copy-on-write between them.
//!
//! Each test sweeps fixed seeds; failures reproduce exactly.

use half_price::emu::{Emulator, RunOutcome, PAGE_BYTES};
use half_price::sim::SimConfig;
use half_price::verify::{run_lockstep_window, ArchState, GenProgram};
use half_price::workloads::SplitMix64;

/// Generous bound for tiny generated programs.
const BUDGET: u64 = 10_000_000;

/// Runs a fresh emulator to completion and returns the total dynamic
/// instruction count.
fn total_executed(program: &half_price::asm::Program, seed: u64) -> u64 {
    let mut emu = Emulator::new(program);
    match emu.run(BUDGET) {
        Ok(RunOutcome::Halted { .. }) => emu.executed(),
        other => panic!("seed {seed}: reference emulation did not halt cleanly: {other:?}"),
    }
}

#[test]
fn snapshot_round_trips_architecturally_on_fuzzed_programs() {
    for seed in 0..24u64 {
        let mut rng = SplitMix64::new(0xF00D_0000 + seed);
        let gen = GenProgram::random(&mut rng);
        let program = gen.lower();
        let total = total_executed(&program, seed);

        // Snapshot at a pseudo-random point strictly inside the run.
        let cut = 1 + rng.below(total.max(2) - 1);
        let mut original = Emulator::new(&program);
        original.run(cut).expect("pre-snapshot run is clean");
        let snap = original.snapshot();

        let mut restored = Emulator::from_snapshot(&program, &snap);
        assert_eq!(restored.pc(), original.pc(), "seed {seed}: pc after restore");
        assert_eq!(
            restored.executed(),
            original.executed(),
            "seed {seed}: executed count after restore"
        );
        assert_eq!(
            ArchState::capture(&restored),
            ArchState::capture(&original),
            "seed {seed}: architectural state at the restore point"
        );
        assert_eq!(restored.snapshot(), snap, "seed {seed}: re-snapshot is not a fixed point");

        // Both machines must finish the program identically.
        original.run(BUDGET).expect("original finishes");
        restored.run(BUDGET).expect("restored finishes");
        assert!(original.halted() && restored.halted(), "seed {seed}: both halt");
        assert_eq!(
            ArchState::capture(&restored),
            ArchState::capture(&original),
            "seed {seed}: final architectural state"
        );
        assert_eq!(restored.executed(), original.executed(), "seed {seed}: final executed");
    }
}

#[test]
fn snapshots_and_restored_machines_are_isolated_from_later_writes() {
    let mut wrote_after_cut = 0;
    for seed in 0..24u64 {
        let mut rng = SplitMix64::new(0xC0_0000 + seed);
        let program = GenProgram::random(&mut rng).lower();
        let total = total_executed(&program, seed);
        let cut = 1 + rng.below(total.max(2) - 1);

        // An unshared reference for the state at the cut and at the end.
        let mut at_cut = Emulator::new(&program);
        at_cut.run(cut).expect("reference run is clean");
        let mut at_end = Emulator::new(&program);
        at_end.run(BUDGET).expect("reference run finishes");

        let mut original = Emulator::new(&program);
        original.run(cut).expect("pre-snapshot run is clean");
        let snap = original.snapshot();
        // The original runs on, writing pages the snapshot shares.
        original.run(BUDGET).expect("original finishes");
        if original.memory() != at_cut.memory() {
            wrote_after_cut += 1;
        }
        assert_eq!(snap, at_cut.snapshot(), "seed {seed}: snapshot saw the original's writes");
        assert_eq!(
            Emulator::from_snapshot(&program, &snap).snapshot(),
            at_cut.snapshot(),
            "seed {seed}: restore after the original ran on"
        );

        // Two machines restored from one snapshot diverge independently:
        // one overwrites every resident page, the other runs to the end.
        let mut poisoned = Emulator::from_snapshot(&program, &snap);
        let mut finisher = Emulator::from_snapshot(&program, &snap);
        let pages: Vec<u64> = poisoned
            .memory()
            .pages_sorted()
            .iter()
            .map(|&(page_no, _)| page_no * PAGE_BYTES as u64)
            .collect();
        for &page in &pages {
            poisoned.memory_mut().write_u64(page, u64::MAX);
        }
        finisher.run(BUDGET).expect("restored machine finishes");
        assert_eq!(finisher.snapshot(), at_end.snapshot(), "seed {seed}: finisher saw poison");
        for &page in &pages {
            assert_eq!(poisoned.memory().read_u64(page), u64::MAX, "seed {seed}");
        }
        assert_eq!(
            snap,
            at_cut.snapshot(),
            "seed {seed}: snapshot saw a restored machine's writes"
        );
    }
    assert!(wrote_after_cut > 0, "the sweep must write memory after some cut");
}

#[test]
fn detailed_windows_from_snapshots_pass_the_lockstep_oracle() {
    for seed in 0..12u64 {
        let mut rng = SplitMix64::new(0xBEEF_0000 + seed);
        let gen = GenProgram::random(&mut rng);
        let program = gen.lower();
        let total = total_executed(&program, seed);

        let cut = 1 + rng.below(total.max(2) - 1);
        let mut emu = Emulator::new(&program);
        emu.run(cut).expect("pre-snapshot run is clean");
        let snap = emu.snapshot();

        // A bounded window (warmup + measured detail), as the sampled
        // runner opens them...
        let bounded = SimConfig::four_wide().with_warmup(8).with_max_insts(40);
        run_lockstep_window(&program, bounded, &snap)
            .unwrap_or_else(|d| panic!("seed {seed}: bounded window diverged: {d}"));

        // ...and an unbounded one that must retire the whole remainder.
        let out = run_lockstep_window(&program, SimConfig::eight_wide(), &snap)
            .unwrap_or_else(|d| panic!("seed {seed}: unbounded window diverged: {d}"));
        assert!(out.cycles > 0, "seed {seed}: window simulated no cycles");
    }
}
