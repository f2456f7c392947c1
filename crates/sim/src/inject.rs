//! Fault injection: deliberately planted hardware faults, for
//! mutation-testing the verification subsystem and for the campaign
//! engine (`hpa-faultsim`).
//!
//! [`FaultInjection`] says what to corrupt and when, and
//! `Simulator::inject_fault` plants it; [`Injector`] holds the armed
//! fault, its trigger counter and whether it fired. The cycle
//! loop calls one `Injector` method per trigger point and acts on the
//! answer; the nth-counting and fire-once rules live here alone. A
//! disarmed injector (every production run) answers each call with one
//! predictable branch.

use crate::dyninst::IState;
use crate::pipeline::Simulator;
use crate::sched::Scheduler;
use crate::window::Window;
use hpa_bpred::Side;

/// A deliberately planted hardware fault, for mutation-testing the
/// verification subsystem and for the fault-injection campaign engine
/// (`hpa-faultsim`): each variant corrupts one internal scheduler
/// structure at a deterministic trigger point, so a run is reproducible
/// from its parameters alone. Not part of the simulator's public contract.
///
/// The variants cover the structures the paper's speculation-free claim
/// rests on: the fast/slow wakeup buses, the last-arriving predictor, the
/// `now` bypass-match bits, the register-file read ports and the
/// destination-tag broadcast network.
#[doc(hidden)]
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FaultInjection {
    /// Starting with the `nth` wakeup delivery, the first delivery whose
    /// consumer still has another pending operand wrongly marks that
    /// operand ready too — a spurious wakeup with no producer broadcast.
    SpuriousWakeup {
        /// Delivery count (1-based) at which the injection arms.
        nth: u64,
    },
    /// The `nth` fast-bus wakeup delivery is lost: the consumer never
    /// hears the tag. Unless a later squash recompute re-derives the
    /// readiness, the consumer waits forever — the watchdog's job.
    DroppedWakeup {
        /// Delivery count (1-based) at which the pulse is dropped.
        nth: u64,
    },
    /// Starting with the `nth` delivery, the first slow-bus rebroadcast
    /// arrives one cycle later than architected (+2 instead of +1). A
    /// timing-only fault: sequential wakeup must absorb it as a stall.
    DelayedSlowBus {
        /// Delivery count (1-based) at which the injection arms.
        nth: u64,
    },
    /// The `nth` last-arriving predictor lookup returns the opposite side
    /// (a bit-flip in the PC-indexed table). Sequential wakeup pays at
    /// most one slow-bus cycle; never a wrong result.
    LastArrivalFlip {
        /// Lookup count (1-based) at which the prediction flips.
        nth: u64,
    },
    /// Starting with the `nth` two-source issue under sequential register
    /// access, the first issue whose `now` bits claim a bypass match has
    /// them read as stale (no match): the port is read twice and the slot
    /// blocks — the bypass-miss penalty, never a wrong value.
    StaleNowBits {
        /// Two-source SeqRegAccess issue count (1-based) at which the
        /// injection arms.
        nth: u64,
    },
    /// A register-file read-port conflict storm: for `cycles` cycles
    /// starting at `from_cycle`, all but one issue slot (and all but one
    /// crossbar read port) are unavailable.
    ReadPortStorm {
        /// First stormy cycle.
        from_cycle: u64,
        /// Storm length in cycles.
        cycles: u64,
    },
    /// The `nth` destination-tag broadcast has bit `bit` of its tag
    /// flipped in flight: the true consumers never hear it, and an
    /// aliased in-flight instruction may be wrongly marked as having
    /// broadcast.
    TagBitFlip {
        /// Broadcast count (1-based) at which the tag is corrupted.
        nth: u64,
        /// Which tag bit flips (kept low so the corrupted tag lands near
        /// the window).
        bit: u32,
    },
    /// The machine silently stops fetching and committing after
    /// `at_commit` commits, leaving the program's tail unexecuted — the
    /// one planted fault that produces genuine silent data corruption
    /// (no oracle fires; only the final-state cross-check can see it).
    /// Exists to mutation-test the campaign engine's SDC classifier.
    PrematureHalt {
        /// Total commit count after which the machine halts.
        at_commit: u64,
    },
}

/// The armed fault and its trigger state.
#[derive(Clone, Debug, Default)]
pub(crate) struct Injector {
    /// The fault still waiting to fire; `None` once it has fired (or when
    /// none was planted).
    armed: Option<FaultInjection>,
    /// Trigger events counted so far (wakeup deliveries, broadcasts,
    /// predictor lookups, ...; which ones depends on the armed kind).
    events: u64,
    /// Whether the planted fault corrupted anything.
    fired: bool,
}

impl Simulator {
    /// Plants a scheduler bug (mutation testing of the verification
    /// subsystem).
    #[doc(hidden)]
    pub fn inject_fault(&mut self, fault: FaultInjection) {
        self.injector.armed = Some(fault);
    }

    /// Whether the fault planted by [`Simulator::inject_fault`] has fired
    /// (corrupted anything) so far.
    #[doc(hidden)]
    #[must_use]
    pub fn injection_fired(&self) -> bool {
        self.injector.fired
    }
}

impl Injector {
    fn fire(&mut self) {
        self.armed = None;
        self.fired = true;
    }

    /// Counts one trigger event; fires at the `nth`.
    fn count_to(&mut self, nth: u64) -> bool {
        self.events += 1;
        let due = self.events >= nth;
        if due {
            self.fire();
        }
        due
    }

    /// A destination tag leaves the broadcast wheel; returns the tag the
    /// wakeup network sees (`TagBitFlip` flips one bit of the nth).
    #[inline]
    pub(crate) fn broadcast_tag(&mut self, seq: u64) -> u64 {
        let Some(FaultInjection::TagBitFlip { nth, bit }) = self.armed else { return seq };
        seq ^ (u64::from(self.count_to(nth)) << bit)
    }

    /// A wakeup pulse reaches a resident consumer (`waiting`: it still
    /// waits to issue); false when the pulse is lost (`DroppedWakeup`).
    /// Also counts the deliveries `DelayedSlowBus` (all) and
    /// `SpuriousWakeup` (to waiting consumers) arm on.
    #[inline]
    pub(crate) fn wakeup_delivery(&mut self, waiting: bool) -> bool {
        match self.armed {
            Some(FaultInjection::DroppedWakeup { nth }) => return !self.count_to(nth),
            Some(FaultInjection::DelayedSlowBus { .. }) => self.events += 1,
            Some(FaultInjection::SpuriousWakeup { .. }) => self.events += u64::from(waiting),
            _ => {}
        }
        true
    }

    /// A slow-bus rebroadcast wakes an operand; returns the extra delay
    /// in cycles (`DelayedSlowBus`: 1, once the nth delivery was seen).
    #[inline]
    pub(crate) fn slow_bus_delay(&mut self) -> u64 {
        let Some(FaultInjection::DelayedSlowBus { nth }) = self.armed else { return 0 };
        if self.events < nth {
            return 0;
        }
        self.fire();
        1
    }

    /// The last-arriving predictor answers a lookup; returns the side the
    /// scheduler uses (`LastArrivalFlip` inverts the nth).
    #[inline]
    pub(crate) fn last_arrival(&mut self, side: Side) -> Side {
        let Some(FaultInjection::LastArrivalFlip { nth }) = self.armed else { return side };
        if self.count_to(nth) {
            side.other()
        } else {
            side
        }
    }

    /// A two-source issue under sequential register access finds its
    /// `now` bits claiming a bypass match; true when the bits read stale
    /// (`StaleNowBits`, the nth such issue).
    #[inline]
    pub(crate) fn stale_now_bits(&mut self) -> bool {
        let Some(FaultInjection::StaleNowBits { nth }) = self.armed else { return false };
        self.count_to(nth)
    }

    /// Select opens at `cycle`; true while a `ReadPortStorm` holds issue
    /// to one slot and one read port. The storm disarms once it is over.
    #[inline]
    pub(crate) fn read_port_storm(&mut self, cycle: u64) -> bool {
        let Some(FaultInjection::ReadPortStorm { from_cycle, cycles }) = self.armed else {
            return false;
        };
        if cycle >= from_cycle + cycles {
            self.armed = None;
            return false;
        }
        let stormy = cycle >= from_cycle;
        self.fired |= stormy;
        stormy
    }

    /// An instruction commits, `committed` in total; true when the
    /// machine halts here (`PrematureHalt`).
    #[inline]
    pub(crate) fn premature_halt(&mut self, committed: u64) -> bool {
        let Some(FaultInjection::PrematureHalt { at_commit }) = self.armed else { return false };
        let halt = committed >= at_commit;
        if halt {
            self.fire();
        }
        halt
    }

    /// The cycle ends. Once armed and past its delivery count, a
    /// `SpuriousWakeup` marks one genuinely pending operand ready — its
    /// producer has not broadcast and the consumer is not a select
    /// candidate — with no enqueue, exactly the kind of missed-wakeup
    /// scheduler bug the strict invariant sweep exists to catch. Running
    /// at the end of the cycle keeps a same-cycle broadcast of the chosen
    /// producer from legitimizing the marking.
    #[inline]
    pub(crate) fn spurious_wakeup(&mut self, window: &mut Window, sched: &Scheduler, cycle: u64) {
        let Some(FaultInjection::SpuriousWakeup { nth }) = self.armed else { return };
        if self.events < nth {
            return;
        }
        let target = window.iter().find_map(|i| {
            if window.state_of(i.seq) != Some(IState::Waiting)
                || sched.listed(window.slot_of(i.seq))
            {
                return None;
            }
            let k = i.srcs.iter().position(|s| {
                s.is_some_and(|s| {
                    !s.ready
                        && s.producer
                            .is_some_and(|p| window.get(p).is_some_and(|pi| !pi.broadcast_done))
                })
            })?;
            Some((i.seq, k))
        });
        let Some((seq, k)) = target else { return };
        let src = window.get_mut(seq).and_then(|c| c.srcs[k].as_mut()).expect("target operand");
        src.ready = true;
        src.effective_cycle = cycle;
        src.broadcast_cycle = cycle;
        self.fire();
    }
}

#[cfg(test)]
mod tests {
    //! Each class armed at nth = 3 and driven past its trigger: it fires
    //! exactly once, at the third event, sets `fired` and disarms.

    use super::*;
    use crate::config::SimConfig;
    use crate::dyninst::DynInst;
    use crate::SimFault;
    use hpa_emu::StepRecord;
    use hpa_isa::{AluOp, Inst, Reg};

    const K: u64 = 3;

    /// Drives `trigger` six times; returns the 1-based events that fired.
    fn drive(inj: &mut Injector, mut trigger: impl FnMut(&mut Injector) -> bool) -> Vec<u64> {
        (1..=2 * K).filter(|_| trigger(inj)).collect()
    }

    fn armed(fault: FaultInjection) -> Injector {
        Injector { armed: Some(fault), ..Injector::default() }
    }

    fn assert_fired_once_at_k(inj: &Injector, fired_at: &[u64]) {
        assert_eq!(fired_at, [K], "fires exactly once, at the kth event");
        assert!(inj.fired);
        assert_eq!(inj.armed, None, "disarmed afterwards");
    }

    #[test]
    fn tag_bit_flip_corrupts_the_kth_broadcast() {
        let mut inj = armed(FaultInjection::TagBitFlip { nth: K, bit: 2 });
        let fired = drive(&mut inj, |i| i.broadcast_tag(8) != 8);
        assert_fired_once_at_k(&inj, &fired);
        let mut inj = armed(FaultInjection::TagBitFlip { nth: 1, bit: 2 });
        assert_eq!(inj.broadcast_tag(8), 12);
    }

    #[test]
    fn dropped_wakeup_loses_the_kth_delivery() {
        let mut inj = armed(FaultInjection::DroppedWakeup { nth: K });
        // Deliveries count whether or not the consumer still waits.
        let fired = drive(&mut inj, |i| !i.wakeup_delivery(false));
        assert_fired_once_at_k(&inj, &fired);
    }

    #[test]
    fn delayed_slow_bus_delays_the_first_slow_wake_from_the_kth_delivery() {
        let mut inj = armed(FaultInjection::DelayedSlowBus { nth: K });
        let fired = drive(&mut inj, |i| {
            i.wakeup_delivery(false);
            i.slow_bus_delay() == 1
        });
        assert_fired_once_at_k(&inj, &fired);
        // Armed past nth, it waits for a slow wake to fire.
        let mut inj = armed(FaultInjection::DelayedSlowBus { nth: 1 });
        inj.wakeup_delivery(true);
        inj.wakeup_delivery(true);
        assert!(!inj.fired);
        assert_eq!(inj.slow_bus_delay(), 1);
        assert_eq!(inj.slow_bus_delay(), 0);
    }

    #[test]
    fn last_arrival_flip_inverts_the_kth_lookup() {
        let mut inj = armed(FaultInjection::LastArrivalFlip { nth: K });
        let fired = drive(&mut inj, |i| i.last_arrival(Side::Left) == Side::Right);
        assert_fired_once_at_k(&inj, &fired);
    }

    #[test]
    fn stale_now_bits_fire_on_the_kth_bypass_match() {
        let mut inj = armed(FaultInjection::StaleNowBits { nth: K });
        let fired = drive(&mut inj, Injector::stale_now_bits);
        assert_fired_once_at_k(&inj, &fired);
    }

    #[test]
    fn premature_halt_stops_at_the_kth_commit() {
        let mut inj = armed(FaultInjection::PrematureHalt { at_commit: K });
        let mut committed = 0;
        let fired = drive(&mut inj, |i| {
            committed += 1;
            i.premature_halt(committed)
        });
        assert_fired_once_at_k(&inj, &fired);
    }

    #[test]
    fn read_port_storm_covers_exactly_its_cycle_window() {
        let mut inj = armed(FaultInjection::ReadPortStorm { from_cycle: K, cycles: 2 });
        let stormy: Vec<u64> = (0..3 * K).filter(|&c| inj.read_port_storm(c)).collect();
        assert_eq!(stormy, [K, K + 1]);
        assert!(inj.fired);
        assert_eq!(inj.armed, None, "disarmed once the window has passed");
        // A window that never opens leaves the injector unfired.
        let mut inj = armed(FaultInjection::ReadPortStorm { from_cycle: 100, cycles: 2 });
        assert!((0..100).all(|c| !inj.read_port_storm(c)));
        assert!(!inj.fired);
    }

    #[test]
    fn injected_spurious_wakeup_is_caught_by_strict_invariants() {
        let p = crate::pipeline::replay_program(30);
        let mut sim = Simulator::new(&p, SimConfig::four_wide());
        sim.set_strict_invariants(true);
        sim.inject_fault(FaultInjection::SpuriousWakeup { nth: 3 });
        let fault = sim.try_run().expect_err("planted wakeup bug must be caught");
        match fault {
            SimFault::Invariant { reason, .. } => {
                assert!(
                    reason.contains("unavailable producer")
                        || reason.contains("not on the ready list"),
                    "localized to the wakeup invariant: {reason}"
                );
            }
            other => panic!("wrong fault: {other}"),
        }
    }

    #[test]
    fn spurious_wakeup_fires_at_the_end_of_the_kth_delivery_cycle() {
        // A producer that has not broadcast and a waiting consumer of it
        // that is not a select candidate: the target the fault needs.
        let config = SimConfig::four_wide();
        let mut window = Window::new(config.ruu_size);
        let sched = Scheduler::new(&config);
        let add = |seq: u64| {
            let step = StepRecord {
                pc: 0x40 + 4 * seq,
                inst: Inst::op(AluOp::Add, Reg::R1, Reg::R2, Reg::R1),
                next_pc: 0x44 + 4 * seq,
                taken: false,
                mem_addr: None,
            };
            DynInst::from_step(seq, &step)
        };
        window.push_back(add(0));
        let mut consumer = add(1);
        let src = consumer.srcs[0].as_mut().expect("two sources");
        src.producer = Some(0);
        src.ready = false;
        window.push_back(consumer);
        let pending = |w: &Window| !w.get(1).unwrap().srcs[0].unwrap().ready;

        let mut inj = armed(FaultInjection::SpuriousWakeup { nth: K });
        // Deliveries to instructions that no longer wait do not count.
        inj.wakeup_delivery(false);
        let mut fired = Vec::new();
        for cycle in 1..=2 * K {
            inj.wakeup_delivery(true);
            let before = pending(&window);
            inj.spurious_wakeup(&mut window, &sched, cycle);
            if before && !pending(&window) {
                fired.push(cycle);
            }
        }
        assert_fired_once_at_k(&inj, &fired);
        assert_eq!(window.get(1).unwrap().srcs[0].unwrap().effective_cycle, K);
    }
}
