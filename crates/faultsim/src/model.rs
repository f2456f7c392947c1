//! The fault taxonomy: which scheduler structures a campaign corrupts,
//! and how a class is instantiated into concrete injection parameters.

use hpa_core::sim::FaultInjection;
use hpa_core::workloads::SplitMix64;

/// A class of hardware fault the campaign engine can inject. Each class
/// targets one of the structures the paper's speculation-free claim rests
/// on; a concrete [`FaultInjection`] is derived deterministically from the
/// campaign seed via [`FaultClass::instantiate`], so any cell is
/// reproducible from the seed and its row-major position in the
/// campaign matrix alone.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum FaultClass {
    /// A spurious fast-bus wakeup: an operand is marked ready with no
    /// producer broadcast behind it.
    SpuriousWakeup,
    /// A dropped fast-bus wakeup: a consumer never hears the tag.
    DroppedWakeup,
    /// A slow-bus rebroadcast delayed by one extra cycle.
    DelayedSlowBus,
    /// A bit-flip in the last-arriving operand predictor table.
    LastArrivalFlip,
    /// Stale `nowL`/`nowR` bypass-match bits under sequential RF access.
    StaleNowBits,
    /// A register-file read-port conflict storm.
    ReadPortStorm,
    /// A single-bit corruption of an in-flight destination tag.
    TagBitFlip,
    /// Classifier self-test only (not a campaign default): silently halt
    /// early, producing genuine silent data corruption that only the
    /// final-state cross-check can see.
    PrematureHalt,
}

impl FaultClass {
    /// The default campaign classes — every fault model the tentpole
    /// taxonomy names. [`FaultClass::PrematureHalt`] is deliberately
    /// excluded: it exists to prove the SDC classifier works, not to
    /// exercise the pipeline.
    pub const CAMPAIGN: [FaultClass; 7] = [
        FaultClass::SpuriousWakeup,
        FaultClass::DroppedWakeup,
        FaultClass::DelayedSlowBus,
        FaultClass::LastArrivalFlip,
        FaultClass::StaleNowBits,
        FaultClass::ReadPortStorm,
        FaultClass::TagBitFlip,
    ];

    /// Stable textual key (used in campaign specs and `RESILIENCE.json`).
    #[must_use]
    pub fn key(self) -> &'static str {
        match self {
            FaultClass::SpuriousWakeup => "spurious-wakeup",
            FaultClass::DroppedWakeup => "dropped-wakeup",
            FaultClass::DelayedSlowBus => "delayed-slow-bus",
            FaultClass::LastArrivalFlip => "last-arrival-flip",
            FaultClass::StaleNowBits => "stale-now-bits",
            FaultClass::ReadPortStorm => "read-port-storm",
            FaultClass::TagBitFlip => "tag-bit-flip",
            FaultClass::PrematureHalt => "premature-halt",
        }
    }

    /// Parses a key produced by [`FaultClass::key`].
    #[must_use]
    pub fn from_key(key: &str) -> Option<FaultClass> {
        match key {
            "spurious-wakeup" => Some(FaultClass::SpuriousWakeup),
            "dropped-wakeup" => Some(FaultClass::DroppedWakeup),
            "delayed-slow-bus" => Some(FaultClass::DelayedSlowBus),
            "last-arrival-flip" => Some(FaultClass::LastArrivalFlip),
            "stale-now-bits" => Some(FaultClass::StaleNowBits),
            "read-port-storm" => Some(FaultClass::ReadPortStorm),
            "tag-bit-flip" => Some(FaultClass::TagBitFlip),
            "premature-halt" => Some(FaultClass::PrematureHalt),
            _ => None,
        }
    }

    /// May this class silently corrupt architectural state? Classes built
    /// on the speculation-free structures must never — a campaign treats
    /// any SDC from them as a simulator bug.
    #[must_use]
    pub fn sdc_expected(self) -> bool {
        matches!(self, FaultClass::PrematureHalt)
    }

    /// Draws concrete injection parameters from the cell's seeded stream.
    /// Trigger counts are kept small so the injection lands inside the
    /// short generated programs.
    #[must_use]
    pub fn instantiate(self, rng: &mut SplitMix64) -> FaultInjection {
        match self {
            FaultClass::SpuriousWakeup => FaultInjection::SpuriousWakeup { nth: 1 + rng.below(60) },
            FaultClass::DroppedWakeup => FaultInjection::DroppedWakeup { nth: 1 + rng.below(60) },
            FaultClass::DelayedSlowBus => FaultInjection::DelayedSlowBus { nth: 1 + rng.below(60) },
            FaultClass::LastArrivalFlip => {
                FaultInjection::LastArrivalFlip { nth: 1 + rng.below(40) }
            }
            FaultClass::StaleNowBits => FaultInjection::StaleNowBits { nth: 1 + rng.below(20) },
            FaultClass::ReadPortStorm => FaultInjection::ReadPortStorm {
                from_cycle: 5 + rng.below(120),
                cycles: 1 + rng.below(32),
            },
            FaultClass::TagBitFlip => {
                FaultInjection::TagBitFlip { nth: 1 + rng.below(60), bit: rng.below(6) as u32 }
            }
            FaultClass::PrematureHalt => {
                FaultInjection::PrematureHalt { at_commit: 2 + rng.below(12) }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_round_trip() {
        for class in FaultClass::CAMPAIGN.into_iter().chain([FaultClass::PrematureHalt]) {
            assert_eq!(FaultClass::from_key(class.key()), Some(class));
        }
        assert_eq!(FaultClass::from_key("nonesuch"), None);
    }

    #[test]
    fn instantiation_is_deterministic() {
        for class in FaultClass::CAMPAIGN {
            let a = class.instantiate(&mut SplitMix64::new(7));
            let b = class.instantiate(&mut SplitMix64::new(7));
            assert_eq!(a, b);
        }
    }

    #[test]
    fn only_the_self_test_class_may_produce_sdc() {
        assert!(FaultClass::CAMPAIGN.iter().all(|c| !c.sdc_expected()));
        assert!(FaultClass::PrematureHalt.sdc_expected());
    }
}
