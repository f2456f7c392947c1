//! The scheduler: tag broadcast, wakeup, the select candidates and replay.
//!
//! [`Scheduler`] owns the destination-tag broadcast wheel, the bitset
//! wakeup matrix, the ready-candidate bitset with its per-slot
//! ready-cycle cache, the select-order candidate list, and the issue
//! gating (slots blocked by sequential register reads, the post-squash
//! restart). The window records stay in [`Window`]; the pipeline walks
//! them and tells the scheduler what changed.
//!
//! [`ready_cycle`] is the one readiness rule: an instruction is a select
//! candidate exactly while it waits and [`ready_cycle`] returns `Some`,
//! and the ready bit is the only record of candidacy.

use crate::config::{SimConfig, WakeupScheme};
use crate::dyninst::{DynInst, IState};
use crate::wheel::EventWheel;
use crate::window::{slot_flags, SlotBitset, WakeupMatrix, Window};

/// The scheme-level wakeup condition, as the cycle from which it holds:
/// the latest effective wakeup cycle over the operands the scheme watches
/// (tag elimination before a misfire watches only the fast side), or
/// `None` while one of them has not woken. It ignores per-cycle gating
/// (FU availability, LSQ state), which select re-checks every cycle, so
/// once `Some` it stays `Some` until the instruction issues or is
/// squashed.
#[inline]
pub(crate) fn ready_cycle(i: &DynInst, wakeup: WakeupScheme) -> Option<u64> {
    if matches!(wakeup, WakeupScheme::TagElimination { .. })
        && i.is_two_source()
        && !i.te_verified_wait
    {
        return i.srcs[i.fast_slot].filter(|s| s.ready).map(|s| s.effective_cycle);
    }
    let mut at = 0;
    for s in i.srcs.iter().flatten() {
        if !s.ready {
            return None;
        }
        at = at.max(s.effective_cycle);
    }
    Some(at)
}

/// Wakeup, select and replay state (see the module docs).
#[derive(Clone, Debug)]
pub(crate) struct Scheduler {
    wakeup: WakeupScheme,
    /// Tag broadcasts `(seq, epoch)` by cycle, and the ones due this cycle.
    broadcasts: EventWheel<(u64, u32)>,
    due: Vec<(u64, u32)>,
    /// The paper's CAM rows, transposed: per producer slot and operand
    /// index, one bit per consumer slot whose that operand names the
    /// producer. Registered at rename, walked at tag broadcast, cleared
    /// when the producer's slot is released.
    matrix: WakeupMatrix,
    /// One bit per window slot whose instruction is a select candidate:
    /// set while it waits and [`ready_cycle`] is `Some`, cleared at issue
    /// and whenever [`ready_cycle`] returns to `None`.
    ready: SlotBitset,
    /// Per-slot cache of the candidate's [`ready_cycle`], so the select
    /// scan compares one word per candidate. Meaningful only while the
    /// slot's bit is set.
    ready_at: Box<[u64]>,
    /// This cycle's candidates in select order: loads and branches first,
    /// then the rest (collected in `low` during the scan), each oldest
    /// first (paper §2.1).
    cands: Vec<u64>,
    low: Vec<u64>,
    /// Squash: the replay root and its transitive dependents, ascending.
    deps: Vec<u64>,
    /// Issue slots the previous select's sequential register reads
    /// disabled for one cycle (Figure 11b).
    blocked_slots: u32,
    /// Issue is suppressed until this cycle after a squash: the
    /// 21264-style pullback restart, during which re-inserted
    /// instructions re-arbitrate.
    issue_stall_until: u64,
}

impl Scheduler {
    pub(crate) fn new(config: &SimConfig) -> Scheduler {
        let slots = config.ruu_size.next_power_of_two();
        Scheduler {
            wakeup: config.wakeup,
            broadcasts: EventWheel::new(),
            due: Vec::new(),
            matrix: WakeupMatrix::new(slots),
            ready: SlotBitset::new(slots),
            ready_at: vec![u64::MAX; slots].into_boxed_slice(),
            cands: Vec::new(),
            low: Vec::new(),
            deps: Vec::new(),
            blocked_slots: 0,
            issue_stall_until: 0,
        }
    }

    pub(crate) fn schedule_broadcast(&mut self, cycle: u64, seq: u64, epoch: u32) {
        self.broadcasts.schedule(cycle, (seq, epoch));
    }

    /// Drains the broadcasts due at `cycle`; returns how many, each read
    /// with [`Scheduler::broadcast`].
    pub(crate) fn pop_broadcasts(&mut self, cycle: u64) -> usize {
        self.broadcasts.pop_into(cycle, &mut self.due);
        self.due.len()
    }

    pub(crate) fn broadcast(&self, k: usize) -> (u64, u32) {
        self.due[k]
    }

    /// Registers `consumer_slot`'s operand `src` as fed by `producer_slot`.
    pub(crate) fn register(&mut self, producer_slot: usize, src: usize, consumer_slot: usize) {
        self.matrix.register(producer_slot, src, consumer_slot);
    }

    /// Words per wakeup-matrix row: the word count of a ring walk over a
    /// producer's consumers, each word read with
    /// [`Scheduler::consumer_words`].
    #[inline]
    pub(crate) fn matrix_words(&self) -> usize {
        self.matrix.words()
    }

    /// Word `wi` of the src0 and src1 rows of the producer in `slot`.
    #[inline]
    pub(crate) fn consumer_words(&self, slot: usize, wi: usize) -> (u64, u64) {
        self.matrix.consumer_words(slot, wi)
    }

    /// Whether the instruction in `slot` is a select candidate.
    pub(crate) fn listed(&self, slot: usize) -> bool {
        self.ready.test(slot)
    }

    /// Re-derives the candidacy of the waiting instruction `i` in `slot`
    /// after its operands or its wakeup rule changed: listed with its
    /// cached cycle while [`ready_cycle`] holds, unlisted otherwise.
    #[inline]
    pub(crate) fn update(&mut self, slot: usize, i: &DynInst) {
        match ready_cycle(i, self.wakeup) {
            Some(at) => {
                self.ready.set(slot);
                self.ready_at[slot] = at;
            }
            None => self.ready.clear(slot),
        }
    }

    /// Select issued the instruction in `slot`: it leaves the candidates.
    #[inline]
    pub(crate) fn issue(&mut self, slot: usize) {
        self.ready.clear(slot);
    }

    /// Releases a committed instruction's slot, so a later instruction
    /// reusing it starts clean. Its consumer bits in *other* rows are
    /// already gone: every producer it depends on is older and released
    /// its rows first. A committed instruction left the candidates when
    /// it issued.
    pub(crate) fn release(&mut self, slot: usize) {
        debug_assert!(!self.ready.test(slot), "committing slot {slot} is still listed");
        self.matrix.clear_rows(slot);
    }

    /// One ring-order (= oldest-first) pass over the ready bits, reading
    /// only the window's flat columns: splits the candidates that pass
    /// this cycle's timing check and are not `held` into the two priority
    /// classes. Returns the candidate count, each read with
    /// [`Scheduler::candidate`].
    pub(crate) fn collect_candidates(
        &mut self,
        window: &Window,
        cycle: u64,
        held: impl Fn(usize, u64) -> bool,
    ) -> usize {
        let (ready_at, cands, low) = (&self.ready_at, &mut self.cands, &mut self.low);
        cands.clear();
        low.clear();
        self.ready.for_each_from(window.head_slot(), |slot| {
            if cycle < ready_at[slot] {
                return;
            }
            let seq = window.seq_at(slot).expect("listed slot is resident");
            if !held(slot, seq) {
                if window.flags[slot] & slot_flags::HIGH_PRIORITY != 0 {
                    cands.push(seq);
                } else {
                    low.push(seq);
                }
            }
        });
        cands.append(low);
        cands.len()
    }

    pub(crate) fn candidate(&self, k: usize) -> u64 {
        self.cands[k]
    }

    /// Select opens at `cycle`: `None` while a post-squash restart
    /// suppresses it, else the issue slots blocked by the previous
    /// select's sequential register reads.
    pub(crate) fn open_select(&mut self, cycle: u64) -> Option<u32> {
        let blocked = std::mem::take(&mut self.blocked_slots);
        (cycle >= self.issue_stall_until).then_some(blocked)
    }

    /// Select issued `reads` sequential register reads; each blocks its
    /// slot for the next cycle.
    pub(crate) fn block_slots(&mut self, reads: u32) {
        self.blocked_slots = reads;
    }

    /// Squashes instructions issued in `(t0, cycle]` back to waiting and
    /// returns how many replay. With `dep_root`, only instructions
    /// transitively dependent on it replay (selective recovery, Figure 5);
    /// otherwise the whole shadow replays (non-selective). `also` forces
    /// one extra instruction (the TE misfire itself) into the replay set.
    pub(crate) fn squash(
        &mut self,
        window: &mut Window,
        cycle: u64,
        t0: u64,
        also: Option<u64>,
        dep_root: Option<u64>,
    ) -> u64 {
        self.deps.clear();
        self.deps.extend(dep_root);
        let mut replayed = 0;
        for seq in window.head_seq()..window.head_seq() + window.len() as u64 {
            if Some(seq) == dep_root {
                continue;
            }
            let slot = window.slot_of(seq);
            let issued = window.state[slot] != IState::Waiting;
            let i = window.get_mut(seq).expect("resident");
            let in_shadow = issued && i.issue_cycle > t0 && i.issue_cycle <= cycle;
            let deps = &self.deps;
            let selected = in_shadow
                && (dep_root.is_none()
                    || i.srcs_iter()
                        .any(|s| s.producer.is_some_and(|p| deps.binary_search(&p).is_ok())));
            if !selected && Some(seq) != also {
                continue;
            }
            if dep_root.is_some() {
                self.deps.push(seq); // seqs ascend; stays sorted
            }
            i.broadcast_done = false;
            i.epoch += 1;
            i.replays += 1;
            i.load_stalled = false;
            if i.is_store() {
                i.addr_resolved = false;
            }
            window.state[slot] = IState::Waiting;
            replayed += 1;
        }
        if replayed > 0 {
            // Pulled-back instructions re-arbitrate after a 1-cycle
            // scheduler restart (21264 mini-restart).
            self.issue_stall_until = self.issue_stall_until.max(cycle + 2);
        }
        self.recompute(window, cycle);
        replayed
    }

    /// Re-derives every waiting instruction's operand readiness from
    /// producer availability, and its candidacy (after squashes — the one
    /// remaining O(window) scheduler path, paid only on replay events,
    /// never in the steady state). Issued instructions are unlisted
    /// already.
    fn recompute(&mut self, window: &mut Window, cycle: u64) {
        for seq in window.head_seq()..window.head_seq() + window.len() as u64 {
            let slot = window.slot_of(seq);
            if window.state[slot] != IState::Waiting {
                continue;
            }
            let i = window.get(seq).expect("resident");
            // A producer is available once committed or broadcast.
            let avail = i.srcs.map(|s| {
                s.and_then(|s| s.producer).map(|p| window.get(p).is_none_or(|p| p.broadcast_done))
            });
            let i = window.get_mut(seq).expect("resident");
            for (src, avail) in i.srcs.iter_mut().zip(avail) {
                let (Some(src), Some(a)) = (src.as_mut(), avail) else { continue };
                if src.ready && !a {
                    src.ready = false;
                } else if !src.ready && a {
                    // The tag fired while this instruction was issued (e.g.
                    // a tag-elimination misfire); the value now comes from
                    // the register file.
                    src.ready = true;
                    src.effective_cycle = cycle;
                    src.broadcast_cycle = cycle;
                }
            }
            self.update(slot, i);
        }
    }

    /// The scheduler's invariants against the window.
    pub(crate) fn check_invariants(&self, window: &Window) -> Result<(), String> {
        // Every ready bit names a waiting instruction (issue clears it;
        // a stale bit would alias the slot's next occupant).
        let mut err = None;
        self.ready.for_each_from(0, |slot| {
            if err.is_none() && window.seq_at(slot).is_none() {
                err = Some(format!("ready bit set on empty slot {slot}"));
            } else if err.is_none() && window.state[slot] != IState::Waiting {
                err = Some(format!("ready bit set on slot {slot}, which is not waiting"));
            }
        });
        if let Some(e) = err {
            return Err(e);
        }
        for i in window.iter() {
            let slot = window.slot_of(i.seq);
            if window.state[slot] != IState::Waiting {
                continue;
            }
            let at = ready_cycle(i, self.wakeup);
            if self.ready.test(slot) {
                ensure!(
                    Some(self.ready_at[slot]) == at,
                    "cached ready cycle of slot {slot} ({}) diverges from seq {} ({at:?})",
                    self.ready_at[slot],
                    i.seq
                );
            } else {
                ensure!(
                    at.is_none(),
                    "waiting seq {} is wakeup-ready but not on the ready list",
                    i.seq
                );
            }
        }
        // The wakeup matrix and the renamed operands agree exactly: an
        // operand's registered bit exists iff its producer is resident,
        // and every registered bit names a live consumer whose that
        // operand points back at the producer.
        for i in window.iter() {
            for (k, s) in i.srcs.iter().enumerate() {
                let Some(p) = s.and_then(|s| s.producer) else { continue };
                if window.get(p).is_some() {
                    ensure!(
                        self.matrix.is_registered(window.slot_of(p), k, window.slot_of(i.seq)),
                        "seq {} src{k} depends on resident {p} but is not in its matrix row",
                        i.seq
                    );
                }
            }
        }
        for p in window.iter() {
            self.matrix.for_each_consumer(window.slot_of(p.seq), 0, |c_slot, k| {
                let ok = window
                    .seq_at(c_slot)
                    .and_then(|c| window.get(c))
                    .is_some_and(|c| c.srcs[k].is_some_and(|s| s.producer == Some(p.seq)));
                if err.is_none() && !ok {
                    err = Some(format!(
                        "matrix row of seq {} src{k} names slot {c_slot} which does not \
                         depend on it",
                        p.seq
                    ));
                }
            });
        }
        err.map_or(Ok(()), Err)
    }

    /// Candidate count, for state dumps.
    pub(crate) fn listed_count(&self) -> usize {
        self.ready.count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dyninst::SrcState;
    use hpa_emu::StepRecord;
    use hpa_isa::{AluOp, Inst, Reg};

    impl Scheduler {
        /// Test access to the wakeup matrix.
        pub(crate) fn matrix(&self) -> &WakeupMatrix {
            &self.matrix
        }
    }

    /// A two-source add whose left operand woke at `left` and right one at
    /// `right` (`None`: still pending), watching the right side.
    fn add(left: Option<u64>, right: Option<u64>) -> DynInst {
        let step = StepRecord {
            pc: 0x40,
            inst: Inst::op(AluOp::Add, Reg::R1, Reg::R2, Reg::R3),
            next_pc: 0x44,
            taken: false,
            mem_addr: None,
        };
        let mut i = DynInst::from_step(0, &step);
        for (src, woke) in i.srcs.iter_mut().zip([left, right]) {
            let src: &mut SrcState = src.as_mut().expect("two sources");
            src.ready = woke.is_some();
            src.effective_cycle = woke.unwrap_or(0);
        }
        i
    }

    #[test]
    fn ready_cycle_is_the_last_watched_wakeup() {
        let conventional = WakeupScheme::Conventional;
        assert_eq!(ready_cycle(&add(Some(4), Some(7)), conventional), Some(7));
        assert_eq!(ready_cycle(&add(Some(4), None), conventional), None);
        // Tag elimination watches only the fast side until a misfire...
        let te = WakeupScheme::TagElimination { predictor_entries: 16 };
        assert_eq!(ready_cycle(&add(None, Some(7)), te), Some(7));
        assert_eq!(ready_cycle(&add(Some(4), None), te), None);
        // ...and both sides after one.
        let mut verified = add(None, Some(7));
        verified.te_verified_wait = true;
        assert_eq!(ready_cycle(&verified, te), None);
    }
}
