//! Mutation test: the verification net must actually catch a planted
//! scheduler bug (ISSUE 3 acceptance criterion). A spurious wakeup —
//! an operand marked ready with no producer broadcast and no ready-list
//! enqueue — is injected into an otherwise healthy run; the oracle's
//! strict-invariant sweep must convert it into a localized
//! first-divergence report, not a silent pass or a generic panic.

use hpa_core::asm::Asm;
use hpa_core::isa::Reg;
use hpa_core::sim::FaultInjection;
use hpa_core::{MachineWidth, Scheme};
use hpa_verify::{run_lockstep, run_lockstep_injected};

/// A loop dense with load→use chains, so wakeup deliveries with pending
/// second operands (the injection's trigger window) are plentiful.
fn chain_heavy_program() -> hpa_core::asm::Program {
    let mut a = Asm::new();
    a.li(Reg::R1, 0x1_0000);
    a.li(Reg::R9, 40);
    a.label("loop");
    a.ldq(Reg::R2, Reg::R1, 0);
    a.add(Reg::R3, Reg::R2, Reg::R3);
    a.stq(Reg::R3, Reg::R1, 8);
    a.ldq(Reg::R4, Reg::R1, 8);
    a.add(Reg::R5, Reg::R4, Reg::R2);
    a.add(Reg::R6, Reg::R5, Reg::R3);
    a.add(Reg::R1, Reg::R1, 64i16);
    a.sub(Reg::R9, Reg::R9, 1i16);
    a.bgt(Reg::R9, "loop");
    a.halt();
    a.assemble().expect("assembles")
}

#[test]
fn clean_run_passes_lockstep() {
    let p = chain_heavy_program();
    for scheme in [Scheme::Base, Scheme::Combined] {
        let out = run_lockstep(&p, scheme.configure(MachineWidth::Four))
            .expect("healthy simulator passes the oracle");
        assert!(out.committed > 0);
    }
}

#[test]
fn planted_wakeup_bug_is_caught_and_localized() {
    let p = chain_heavy_program();
    let config = Scheme::Base.configure(MachineWidth::Four);
    let d = run_lockstep_injected(&p, config, FaultInjection::SpuriousWakeup { nth: 3 }, u64::MAX)
        .expect_err("the planted bug must be detected");
    // Localized: the report names the violated invariant and the exact
    // instruction, and carries a pipeline dump for debugging.
    assert!(d.reason.contains("pipeline invariant violated"), "wrong channel: {}", d.reason);
    assert!(
        d.reason.contains("unavailable producer") || d.reason.contains("not on the ready list"),
        "not localized to the wakeup defect: {}",
        d.reason
    );
    assert!(d.reason.contains("seq "), "no sequence number: {}", d.reason);
    assert!(d.cycle > 0);
    assert!(d.dump.contains("window"), "missing pipeline dump: {}", d.dump);
}

#[test]
fn planted_bug_is_caught_under_half_price_schemes_too() {
    let p = chain_heavy_program();
    for scheme in [Scheme::SeqWakeupPredictor, Scheme::Combined] {
        let config = scheme.configure(MachineWidth::Four);
        let d =
            run_lockstep_injected(&p, config, FaultInjection::SpuriousWakeup { nth: 5 }, u64::MAX)
                .expect_err("detected under every scheme");
        assert!(d.reason.contains("pipeline invariant violated"), "{}", d.reason);
    }
}
