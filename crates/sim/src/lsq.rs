//! The load/store queue: entry accounting, the in-flight store queue,
//! store-to-load disambiguation, loads parked on an older store, and the
//! store-wait bits.

use crate::config::SimConfig;
use crate::dyninst::IState;
use crate::window::{slot_flags, Window};
use hpa_bpred::PcTable;
use hpa_isa::Inst;
use std::collections::VecDeque;

/// What disambiguation against the older stores decided for a load.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum LsqOutcome {
    /// An older store blocks the access (unknown address, partial overlap
    /// or data not ready).
    Blocked,
    /// A covering older store forwards its data (DL1-hit timing).
    Forward,
    /// No conflict; access the cache.
    Normal,
}

/// Load/store queue state (see the module docs).
#[derive(Clone, Debug)]
pub(crate) struct Lsq {
    size: usize,
    /// Entries held by loads and stores in the window.
    used: usize,
    /// In-flight store sequence numbers in program order, so
    /// disambiguation walks only stores instead of the whole window.
    stores: VecDeque<u64>,
    /// Loads parked on an older store, retried every cycle; `retrying`
    /// holds the previous cycle's list during the retry pass.
    stalled: Vec<u64>,
    retrying: Vec<u64>,
    /// 21264-style store-wait bits, PC-indexed: loads that previously
    /// replayed on an older-store conflict are held at select until the
    /// conflict clears, preventing load-hit-store replay storms.
    stwait: PcTable<bool>,
}

impl Lsq {
    pub(crate) fn new(config: &SimConfig) -> Lsq {
        Lsq {
            size: config.lsq_size,
            used: 0,
            stores: VecDeque::with_capacity(config.lsq_size),
            stalled: Vec::new(),
            retrying: Vec::new(),
            stwait: PcTable::new(config.pc_table_entries, false),
        }
    }

    pub(crate) fn is_full(&self) -> bool {
        self.used >= self.size
    }

    /// Allocates the entry of a dispatched load or store.
    pub(crate) fn insert(&mut self, seq: u64, is_store: bool) {
        self.used += 1;
        if is_store {
            self.stores.push_back(seq);
        }
    }

    /// Frees the entry of a committed load or store.
    pub(crate) fn retire(&mut self, seq: u64, is_store: bool) {
        if is_store {
            let queued = self.stores.pop_front();
            debug_assert_eq!(queued, Some(seq), "store-queue head mismatch");
        }
        self.used -= 1;
    }

    /// Disambiguates the resident load `load_seq` against the older
    /// in-flight stores; the walk is bounded by the store queue.
    pub(crate) fn check(&self, window: &Window, load_seq: u64) -> LsqOutcome {
        let load = window.get(load_seq).expect("load in window");
        let la = load.mem_addr.expect("load address");
        let lw = match load.inst {
            Inst::Load { width, .. } => width.bytes(),
            _ => 8, // FLoad
        };
        let mut decision = LsqOutcome::Normal;
        for &store_seq in &self.stores {
            if store_seq >= load_seq {
                break;
            }
            let i = window.get(store_seq).expect("queued store in window");
            if !i.addr_resolved {
                // Unknown older store address: conservative stall
                // (sim-outorder's policy).
                return LsqOutcome::Blocked;
            }
            let sa = i.mem_addr.expect("resolved store address");
            let sw = match i.inst {
                Inst::Store { width, .. } => width.bytes(),
                _ => 8, // FStore
            };
            let overlap = sa < la + lw && la < sa + sw;
            if !overlap {
                continue;
            }
            let covers = sa <= la && la + lw <= sa + sw;
            if !covers {
                decision = LsqOutcome::Blocked; // partial overlap
                continue;
            }
            let data_ready = match i.store_data_producer {
                None => true,
                Some(p) => p < window.head_seq() || window.state_of(p) == Some(IState::Completed),
            };
            decision = if data_ready { LsqOutcome::Forward } else { LsqOutcome::Blocked };
        }
        decision
    }

    /// Whether select holds the instruction in `slot`: a load whose PC
    /// replayed on an older-store conflict before (its store-wait bit is
    /// set) waits while the conflict is still there.
    pub(crate) fn holds(&self, window: &Window, slot: usize, seq: u64) -> bool {
        window.flags[slot] & slot_flags::LOAD != 0
            && *self.stwait.get(window.pcs[slot])
            && self.check(window, seq) == LsqOutcome::Blocked
    }

    /// Parks a load an older store blocked, and sets its PC's store-wait
    /// bit so the next instance holds at select instead.
    pub(crate) fn stall(&mut self, seq: u64, pc: u64) {
        *self.stwait.get_mut(pc) = true;
        self.stalled.push(seq);
    }

    /// Starts a cycle's retry pass over the parked loads; returns how many,
    /// each read with [`Lsq::retrying`]. A load still blocked is parked
    /// again with [`Lsq::park`]. The two lists ping-pong, so re-parking
    /// never reallocates.
    pub(crate) fn begin_retry(&mut self) -> usize {
        std::mem::swap(&mut self.stalled, &mut self.retrying);
        self.stalled.clear();
        self.retrying.len()
    }

    pub(crate) fn retrying(&self, k: usize) -> u64 {
        self.retrying[k]
    }

    pub(crate) fn park(&mut self, seq: u64) {
        self.stalled.push(seq);
    }

    /// Occupied entries, for state dumps.
    pub(crate) fn used(&self) -> usize {
        self.used
    }

    /// The LSQ's invariants against the window.
    pub(crate) fn check_invariants(&self, window: &Window) -> Result<(), String> {
        ensure!(self.used <= self.size, "LSQ overfull");
        let mem_in_window = window.iter().filter(|i| i.is_mem()).count();
        ensure!(
            mem_in_window == self.used,
            "LSQ accounting drift: {mem_in_window} mem ops in window, lsq_used {}",
            self.used
        );
        // The store queue mirrors the window's stores, in program order.
        let window_stores: Vec<u64> =
            window.iter().filter(|i| i.is_store()).map(|i| i.seq).collect();
        ensure!(
            self.stores.iter().eq(&window_stores),
            "store queue out of sync with window stores: {:?} vs {window_stores:?}",
            self.stores
        );
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    //! White-box tests of the store-queue disambiguation walk: an [`Lsq`]
    //! and its [`Window`] are staged by hand so each `LsqOutcome` branch is
    //! pinned down exactly (forwarding, partial overlap, unknown address,
    //! store data not ready), independent of pipeline timing.

    use super::*;
    use crate::dyninst::DynInst;
    use hpa_emu::StepRecord;
    use hpa_isa::{AluOp, MemWidth, Reg};

    /// An empty window and LSQ of the four-wide machine.
    fn staged() -> (Window, Lsq) {
        let config = SimConfig::four_wide();
        (Window::new(config.ruu_size), Lsq::new(&config))
    }

    /// Inserts a hand-built instruction through the same window and LSQ
    /// bookkeeping as `phase_insert`.
    fn stage(w: &mut Window, lsq: &mut Lsq, inst: Inst, mem_addr: Option<u64>) -> u64 {
        let seq = w.head_seq() + w.len() as u64;
        let step = StepRecord {
            pc: 0x40 + seq * 4,
            inst,
            next_pc: 0x44 + seq * 4,
            taken: false,
            mem_addr,
        };
        let di = DynInst::from_step(seq, &step);
        if di.is_mem() {
            lsq.insert(seq, di.is_store());
        }
        w.push_back(di);
        seq
    }

    fn store(w: &mut Window, lsq: &mut Lsq, addr: u64, width: MemWidth) -> u64 {
        let inst = Inst::Store { width, rt: Reg::R1, base: Reg::R2, disp: 0 };
        let seq = stage(w, lsq, inst, Some(addr));
        w.back_mut().unwrap().addr_resolved = true;
        seq
    }

    fn load(w: &mut Window, lsq: &mut Lsq, addr: u64, width: MemWidth) -> u64 {
        let inst = Inst::Load { width, rt: Reg::R3, base: Reg::R2, disp: 0 };
        stage(w, lsq, inst, Some(addr))
    }

    /// A covering older store with ready data forwards (DL1-hit timing).
    #[test]
    fn covering_store_forwards() {
        let (mut w, mut lsq) = staged();
        store(&mut w, &mut lsq, 0x1000, MemWidth::Quad);
        let ld = load(&mut w, &mut lsq, 0x1000, MemWidth::Quad);
        assert_eq!(lsq.check(&w, ld), LsqOutcome::Forward);
        lsq.check_invariants(&w).unwrap();

        // A narrower load inside the stored quadword also forwards.
        let narrow = load(&mut w, &mut lsq, 0x1004, MemWidth::Long);
        assert_eq!(lsq.check(&w, narrow), LsqOutcome::Forward);
    }

    /// A store that only partially overlaps the load blocks it.
    #[test]
    fn partial_overlap_blocks() {
        let (mut w, mut lsq) = staged();
        store(&mut w, &mut lsq, 0x1004, MemWidth::Long);
        let ld = load(&mut w, &mut lsq, 0x1000, MemWidth::Quad);
        assert_eq!(lsq.check(&w, ld), LsqOutcome::Blocked);
        lsq.check_invariants(&w).unwrap();
    }

    /// An older store whose address is still unresolved blocks every
    /// younger load conservatively (sim-outorder's policy).
    #[test]
    fn unknown_store_address_blocks() {
        let (mut w, mut lsq) = staged();
        let st = store(&mut w, &mut lsq, 0x2000, MemWidth::Quad);
        w.back_mut().unwrap().addr_resolved = false;
        let ld = load(&mut w, &mut lsq, 0x1000, MemWidth::Quad); // disjoint address
        assert_eq!(lsq.check(&w, ld), LsqOutcome::Blocked);

        // Once the address resolves (and doesn't overlap), the load is free.
        w.get_mut(st).unwrap().addr_resolved = true;
        assert_eq!(lsq.check(&w, ld), LsqOutcome::Normal);
        lsq.check_invariants(&w).unwrap();
    }

    /// A covering store whose data operand is still in flight blocks the
    /// load until the producer completes.
    #[test]
    fn store_data_not_ready_blocks() {
        let (mut w, mut lsq) = staged();
        let add = Inst::op(AluOp::Add, Reg::R1, Reg::R2, Reg::R1);
        let producer = stage(&mut w, &mut lsq, add, None);
        let st = store(&mut w, &mut lsq, 0x1000, MemWidth::Quad);
        w.get_mut(st).unwrap().store_data_producer = Some(producer);
        let ld = load(&mut w, &mut lsq, 0x1000, MemWidth::Quad);
        assert_eq!(lsq.check(&w, ld), LsqOutcome::Blocked);

        let p_slot = w.slot_of(producer);
        w.state[p_slot] = IState::Completed;
        assert_eq!(lsq.check(&w, ld), LsqOutcome::Forward);
        lsq.check_invariants(&w).unwrap();
        w.check_invariants().unwrap();
    }

    /// The walk consults only queued stores: intervening non-store
    /// instructions are never touched, and younger stores are cut off by
    /// the ascending-seq bound.
    #[test]
    fn walk_is_bounded_by_older_stores() {
        let (mut w, mut lsq) = staged();
        store(&mut w, &mut lsq, 0x3000, MemWidth::Quad); // disjoint older store
        for _ in 0..4 {
            stage(&mut w, &mut lsq, Inst::op(AluOp::Add, Reg::R1, Reg::R2, Reg::R1), None);
        }
        let ld = load(&mut w, &mut lsq, 0x1000, MemWidth::Quad);
        // A younger store to the same address must not affect the load.
        store(&mut w, &mut lsq, 0x1000, MemWidth::Quad);
        w.back_mut().unwrap().addr_resolved = false;
        assert_eq!(lsq.check(&w, ld), LsqOutcome::Normal);
        // The younger store is queued all the same.
        lsq.check_invariants(&w).unwrap();
    }
}
