//! Functional-unit pool with per-unit occupancy.

use crate::config::FuCounts;
use hpa_isa::FuClass;

/// Tracks when each functional unit is free. Pipelined units are busy for
/// one cycle per operation (an issue-port constraint); non-pipelined units
/// (dividers) are busy for the operation's full latency.
#[derive(Clone, Debug)]
pub struct FuPool {
    units: [Vec<u64>; 5],
}

fn class_index(class: FuClass) -> usize {
    match class {
        FuClass::IntAlu => 0,
        FuClass::IntMulDiv => 1,
        FuClass::FpAlu => 2,
        FuClass::FpMulDiv => 3,
        FuClass::MemPort => 4,
    }
}

impl FuPool {
    /// Builds the pool from the configured counts.
    #[must_use]
    pub fn new(counts: &FuCounts) -> FuPool {
        let make = |class: FuClass| vec![0u64; counts.of(class) as usize];
        FuPool {
            units: [
                make(FuClass::IntAlu),
                make(FuClass::IntMulDiv),
                make(FuClass::FpAlu),
                make(FuClass::FpMulDiv),
                make(FuClass::MemPort),
            ],
        }
    }

    /// Acquires a unit of `class` for an operation issued this cycle.
    /// Returns `false` (no change) if every unit is busy.
    pub fn acquire(&mut self, class: FuClass, cycle: u64, latency: u32, pipelined: bool) -> bool {
        let units = &mut self.units[class_index(class)];
        if let Some(unit) = units.iter_mut().find(|busy_until| **busy_until <= cycle) {
            *unit = cycle + if pipelined { 1 } else { u64::from(latency) };
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl FuPool {
        /// Whether a unit of `class` is free this cycle (without acquiring).
        fn available(&self, class: FuClass, cycle: u64) -> bool {
            self.units[class_index(class)].iter().any(|&busy_until| busy_until <= cycle)
        }
    }

    #[test]
    fn pipelined_units_free_next_cycle() {
        let mut pool = FuPool::new(&FuCounts {
            int_alu: 1,
            int_muldiv: 1,
            fp_alu: 1,
            fp_muldiv: 1,
            mem_ports: 1,
        });
        assert!(pool.acquire(FuClass::IntAlu, 10, 1, true));
        assert!(!pool.available(FuClass::IntAlu, 10), "only one ALU");
        assert!(!pool.acquire(FuClass::IntAlu, 10, 1, true));
        assert!(pool.available(FuClass::IntAlu, 11));
    }

    #[test]
    fn divider_blocks_for_full_latency() {
        let mut pool = FuPool::new(&FuCounts::four_wide());
        assert!(pool.acquire(FuClass::IntMulDiv, 0, 20, false));
        assert!(pool.acquire(FuClass::IntMulDiv, 0, 20, false), "second divider");
        assert!(!pool.acquire(FuClass::IntMulDiv, 5, 20, false), "both busy");
        assert!(pool.acquire(FuClass::IntMulDiv, 20, 3, true), "free after 20");
    }

    #[test]
    fn classes_are_independent() {
        let mut pool = FuPool::new(&FuCounts::four_wide());
        for _ in 0..4 {
            assert!(pool.acquire(FuClass::IntAlu, 0, 1, true));
        }
        assert!(!pool.available(FuClass::IntAlu, 0));
        assert!(pool.available(FuClass::MemPort, 0));
    }
}
