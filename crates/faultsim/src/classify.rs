//! AVF-style classification of one injected run.

use hpa_core::asm::Program;
use hpa_core::sim::{FaultInjection, SimConfig};
use hpa_verify::{run_lockstep_injected, Divergence};

/// What one injected run did to the architecture, in the AVF taxonomy.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Classification {
    /// The verification net fired: the lockstep oracle, the strict
    /// invariant sweep, an emulator fault, or the deadlock watchdog.
    Detected {
        /// The divergence, rendered.
        reason: String,
    },
    /// The fault fired, the run completed, and the final architectural
    /// state is identical to the reference emulation — the fault was
    /// absorbed.
    Masked,
    /// The run completed cleanly and the planted fault never fired (its
    /// trigger never came up), so the run says nothing about resilience.
    Dormant,
    /// Silent data corruption: the run completed cleanly but the final
    /// architectural state differs from the reference. Must never happen
    /// for the speculation-free fault classes.
    Sdc {
        /// First architectural difference found.
        reason: String,
    },
}

impl Classification {
    /// Stable textual key (used in `RESILIENCE.json`).
    #[must_use]
    pub fn key(&self) -> &'static str {
        match self {
            Classification::Detected { .. } => "detected",
            Classification::Masked => "masked",
            Classification::Dormant => "dormant",
            Classification::Sdc { .. } => "sdc",
        }
    }
}

/// Runs `program` under `config` with `injection` planted through
/// [`run_lockstep_injected`] — lockstep oracle, strict invariants, a
/// `cycle_budget` watchdog and the final-state cross-check — and
/// classifies the outcome.
///
/// The watchdog is what makes hang-class faults (e.g. a dropped wakeup)
/// terminate: a run that exceeds the budget comes back as a structured
/// deadlock, i.e. **Detected**.
#[must_use]
pub fn classify_injected(
    program: &Program,
    config: SimConfig,
    injection: FaultInjection,
    cycle_budget: u64,
) -> Classification {
    match run_lockstep_injected(program, config, injection, cycle_budget) {
        Ok(outcome) if outcome.fired => Classification::Masked,
        Ok(_) => Classification::Dormant,
        Err(Divergence { final_state: Some(reason), .. }) => Classification::Sdc { reason },
        Err(d) => Classification::Detected { reason: d.reason },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpa_core::workloads::SplitMix64;
    use hpa_core::{MachineWidth, Scheme};
    use hpa_verify::GenProgram;

    fn gen_program(seed: u64) -> Program {
        GenProgram::random(&mut SplitMix64::new(seed)).lower()
    }

    #[test]
    fn clean_run_is_masked() {
        // A storm that fires and is absorbed as a stall.
        let c = classify_injected(
            &gen_program(3),
            Scheme::Combined.configure(MachineWidth::Four),
            FaultInjection::ReadPortStorm { from_cycle: 5, cycles: 16 },
            200_000,
        );
        assert_eq!(c, Classification::Masked);
    }

    #[test]
    fn fault_that_never_fires_is_dormant() {
        // The base machine reads two register ports: there are no `now`
        // bits to go stale.
        let c = classify_injected(
            &gen_program(3),
            Scheme::Base.configure(MachineWidth::Four),
            FaultInjection::StaleNowBits { nth: 1 },
            200_000,
        );
        assert_eq!(c, Classification::Dormant);
        // Nor does a storm scheduled far past the program's lifetime.
        let c = classify_injected(
            &gen_program(3),
            Scheme::Combined.configure(MachineWidth::Four),
            FaultInjection::ReadPortStorm { from_cycle: u64::MAX / 2, cycles: 1 },
            200_000,
        );
        assert_eq!(c, Classification::Dormant);
    }

    #[test]
    fn spurious_wakeup_is_detected() {
        // The PR 3 mutation-test fault: strict invariants or the oracle
        // must fire on a wrongly-ready operand.
        let c = classify_injected(
            &gen_program(3),
            Scheme::Combined.configure(MachineWidth::Four),
            FaultInjection::SpuriousWakeup { nth: 3 },
            200_000,
        );
        assert!(matches!(c, Classification::Detected { .. }), "got {c:?}");
    }

    #[test]
    fn premature_halt_is_silent_corruption() {
        // The classifier's own mutation test: a silently-truncated run
        // must be filed as SDC, not masked.
        let c = classify_injected(
            &gen_program(3),
            Scheme::Base.configure(MachineWidth::Four),
            FaultInjection::PrematureHalt { at_commit: 3 },
            200_000,
        );
        assert!(matches!(c, Classification::Sdc { .. }), "got {c:?}");
    }

    #[test]
    fn watchdog_converts_a_hang_into_detected() {
        // An impossibly small cycle budget: the watchdog must fire and
        // classify the run as detected rather than spinning.
        let c = classify_injected(
            &gen_program(3),
            Scheme::Base.configure(MachineWidth::Four),
            FaultInjection::ReadPortStorm { from_cycle: 0, cycles: u64::MAX / 2 },
            64,
        );
        match c {
            Classification::Detected { reason } => {
                assert!(reason.contains("cycle budget"), "reason: {reason}");
            }
            other => panic!("expected detected deadlock, got {other:?}"),
        }
    }
}
