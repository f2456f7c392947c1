//! The structure-of-arrays instruction window: a fixed-capacity slot
//! arena plus flat bitset columns for the scheduler's hot state.
//!
//! # Layout
//!
//! The window holds the contiguous sequence range `[head_seq,
//! head_seq + len)`. Capacity is rounded up to a power of two and every
//! instruction lives in the arena slot `seq & (capacity - 1)` — since the
//! resident range never exceeds the capacity, the mapping is injective
//! and a lookup is one mask and one bounds check (no per-window linear
//! walk, no `VecDeque` offset arithmetic).
//!
//! Alongside the arena, per-slot *columns* carry the fields the wakeup
//! and select phases scan every cycle:
//!
//! * [`SlotBitset`] — one bit per slot, stored as `u64` words. The ready
//!   set and each wakeup-matrix row are this type, so "find the
//!   candidates" is word-wide AND/OR plus count-trailing-zeros iteration.
//! * [`WakeupMatrix`] — the paper's CAM rows, transposed into bitset
//!   form: row `(producer slot, operand index)` holds one bit per
//!   consumer slot whose that operand names the producer, so a tag
//!   broadcast walks two rows.
//!
//! # Ordering
//!
//! Select and wakeup delivery are oldest-first ordered, and the stats and
//! fault-injection layers count events in that order, so bit iteration
//! must yield slots in *sequence* order — which is ring order starting at
//! the head's slot, not plain ascending-slot order. [`SlotBitset::
//! for_each_from`] iterates the two contiguous slot spans `[head_slot,
//! capacity)` then `[0, head_slot)` with masked words and trailing-zero
//! scans, which visits resident instructions exactly in ascending `seq`.

use crate::dyninst::{DynInst, IState};

/// Bits of the per-slot classification column ([`Window::flags`]).
pub(crate) mod slot_flags {
    /// The instruction is a load (select must consult the stWait table).
    pub(crate) const LOAD: u8 = 1;
    /// Select's high-priority class (loads and control transfers).
    pub(crate) const HIGH_PRIORITY: u8 = 2;
}

/// The classification-column bits of an instruction.
fn flags_of(i: &DynInst) -> u8 {
    u8::from(i.is_load()) * slot_flags::LOAD
        + u8::from(i.high_priority()) * slot_flags::HIGH_PRIORITY
}

/// The words of a `capacity`-slot bitset in ring order from slot `from`
/// — the spans `[from, capacity)` then `[0, from)` — each with the mask
/// of its bits inside the span.
fn ring_masks(from: usize, capacity: usize) -> impl Iterator<Item = (usize, u64)> {
    [(from, capacity), (0, from)].into_iter().filter(|(lo, hi)| lo < hi).flat_map(|(lo, hi)| {
        let (w0, w1) = (lo / 64, (hi - 1) / 64);
        (w0..=w1).map(move |wi| {
            let mut mask = !0u64;
            if wi == w0 {
                mask &= !0u64 << (lo % 64);
            }
            if wi == w1 && !hi.is_multiple_of(64) {
                mask &= !0u64 >> (64 - hi % 64);
            }
            (wi, mask)
        })
    })
}

/// One bit per window slot, packed into `u64` words.
#[derive(Clone, Debug)]
pub(crate) struct SlotBitset {
    words: Box<[u64]>,
    capacity: usize,
}

impl SlotBitset {
    /// An empty set over `capacity` slots (`capacity` must be a multiple
    /// of 64 or less than 64; the window rounds to a power of two).
    pub(crate) fn new(capacity: usize) -> SlotBitset {
        SlotBitset { words: vec![0u64; capacity.div_ceil(64)].into_boxed_slice(), capacity }
    }

    #[inline]
    pub(crate) fn set(&mut self, slot: usize) {
        debug_assert!(slot < self.capacity);
        self.words[slot / 64] |= 1u64 << (slot % 64);
    }

    #[inline]
    pub(crate) fn clear(&mut self, slot: usize) {
        debug_assert!(slot < self.capacity);
        self.words[slot / 64] &= !(1u64 << (slot % 64));
    }

    #[inline]
    pub(crate) fn test(&self, slot: usize) -> bool {
        debug_assert!(slot < self.capacity);
        self.words[slot / 64] & (1u64 << (slot % 64)) != 0
    }

    pub(crate) fn clear_all(&mut self) {
        self.words.fill(0);
    }

    pub(crate) fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Calls `f` for every set slot in ring order starting at `from`:
    /// slots `[from, capacity)` first, then `[0, from)`. With `from` the
    /// head's slot this is exactly ascending sequence order over the
    /// resident window — a masked word walk with trailing-zero scans.
    pub(crate) fn for_each_from(&self, from: usize, mut f: impl FnMut(usize)) {
        debug_assert!(from < self.capacity.max(1));
        for (wi, mask) in ring_masks(from, self.capacity) {
            let mut w = self.words[wi] & mask;
            while w != 0 {
                f(wi * 64 + w.trailing_zeros() as usize);
                w &= w - 1;
            }
        }
    }

    /// [`SlotBitset::for_each_from`] that clears every slot for which
    /// `keep` returns false.
    pub(crate) fn retain_from(&mut self, from: usize, mut keep: impl FnMut(usize) -> bool) {
        debug_assert!(from < self.capacity.max(1));
        for (wi, mask) in ring_masks(from, self.capacity) {
            let mut w = self.words[wi] & mask;
            while w != 0 {
                let b = w.trailing_zeros();
                w &= w - 1;
                if !keep(wi * 64 + b as usize) {
                    self.words[wi] &= !(1u64 << b);
                }
            }
        }
    }
}

/// The wakeup CAM transposed into bitset rows: for each producer slot and
/// operand index, one bit per consumer slot whose that operand names the
/// producer. Rows are registered at rename, walked at tag broadcast, and
/// cleared when the producer's slot is released — a consumer always
/// outlives none of its producers (producers are strictly older and the
/// window retires in order), so released rows can never orphan a live
/// consumer bit.
#[derive(Clone, Debug)]
pub(crate) struct WakeupMatrix {
    /// `2 * capacity` rows of `words_per_row` words each, producer-major:
    /// row `(slot, src)` starts at `(slot * 2 + src) * words_per_row`.
    rows: Box<[u64]>,
    words_per_row: usize,
}

impl WakeupMatrix {
    pub(crate) fn new(capacity: usize) -> WakeupMatrix {
        let words_per_row = capacity.div_ceil(64);
        WakeupMatrix {
            rows: vec![0u64; 2 * capacity * words_per_row].into_boxed_slice(),
            words_per_row,
        }
    }

    #[inline]
    fn row_range(&self, producer_slot: usize, src: usize) -> std::ops::Range<usize> {
        let start = (producer_slot * 2 + src) * self.words_per_row;
        start..start + self.words_per_row
    }

    /// Registers `consumer_slot`'s operand `src` as fed by `producer_slot`.
    #[inline]
    pub(crate) fn register(&mut self, producer_slot: usize, src: usize, consumer_slot: usize) {
        let r = self.row_range(producer_slot, src).start;
        self.rows[r + consumer_slot / 64] |= 1u64 << (consumer_slot % 64);
    }

    #[inline]
    pub(crate) fn is_registered(
        &self,
        producer_slot: usize,
        src: usize,
        consumer_slot: usize,
    ) -> bool {
        let r = self.row_range(producer_slot, src).start;
        self.rows[r + consumer_slot / 64] & (1u64 << (consumer_slot % 64)) != 0
    }

    /// Clears both operand rows of a producer slot (on slot release).
    pub(crate) fn clear_rows(&mut self, producer_slot: usize) {
        for src in 0..2 {
            let range = self.row_range(producer_slot, src);
            self.rows[range].fill(0);
        }
    }

    /// Walks the producer's consumers in ring order from `from` (the
    /// head's slot, i.e. ascending sequence order), calling
    /// `f(consumer_slot, src)` once per registered operand — for a
    /// consumer with both operands on this producer, `src = 0` then
    /// `src = 1`, exactly the order rename registered them.
    pub(crate) fn for_each_consumer(
        &self,
        producer_slot: usize,
        from: usize,
        mut f: impl FnMut(usize, usize),
    ) {
        let r0 = self.row_range(producer_slot, 0).start;
        let r1 = self.row_range(producer_slot, 1).start;
        for (wi, mask) in ring_masks(from, self.words_per_row * 64) {
            let (word0, word1) = (self.rows[r0 + wi] & mask, self.rows[r1 + wi] & mask);
            let mut union = word0 | word1;
            while union != 0 {
                let b = union.trailing_zeros() as usize;
                union &= union - 1;
                if word0 >> b & 1 != 0 {
                    f(wi * 64 + b, 0);
                }
                if word1 >> b & 1 != 0 {
                    f(wi * 64 + b, 1);
                }
            }
        }
    }
}

/// The fixed-capacity structure-of-arrays instruction window (see the
/// module docs for the layout).
#[derive(Clone, Debug)]
pub(crate) struct Window {
    slots: Box<[Option<DynInst>]>,
    /// Lifecycle column: the [`IState`] of the instruction in each slot,
    /// the only record of it. `push_back_with` starts a slot `Waiting`;
    /// select, completion and squash move it on. A released slot keeps a
    /// stale value, which nothing reads: every reader reaches a slot
    /// through a resident seq or a bit that release clears. One byte per
    /// slot, so the select scan never touches the records.
    pub(crate) state: Box<[IState]>,
    /// Static classification column ([`slot_flags`] bits), written at
    /// insert; read by the select scan for priority and stWait routing.
    pub(crate) flags: Box<[u8]>,
    /// Fetch-address column: the resident instruction's PC, for stWait
    /// table lookups without touching the arena record.
    pub(crate) pcs: Box<[u64]>,
    mask: u64,
    head_seq: u64,
    len: usize,
}

impl Window {
    /// A window able to hold `ruu_size` instructions; the arena is
    /// rounded up to the next power of two so `seq & mask` is the slot.
    pub(crate) fn new(ruu_size: usize) -> Window {
        let cap = ruu_size.next_power_of_two().max(1);
        Window {
            slots: std::iter::repeat_with(|| None).take(cap).collect(),
            state: vec![IState::Waiting; cap].into_boxed_slice(),
            flags: vec![0u8; cap].into_boxed_slice(),
            pcs: vec![0u64; cap].into_boxed_slice(),
            mask: cap as u64 - 1,
            head_seq: 0,
            len: 0,
        }
    }

    /// The arena slot of a sequence number.
    #[inline]
    pub(crate) fn slot_of(&self, seq: u64) -> usize {
        (seq & self.mask) as usize
    }

    /// The slot holding the oldest resident instruction.
    #[inline]
    pub(crate) fn head_slot(&self) -> usize {
        self.slot_of(self.head_seq)
    }

    /// The oldest resident sequence number (== the next to commit).
    #[inline]
    pub(crate) fn head_seq(&self) -> u64 {
        self.head_seq
    }

    /// The sequence number resident in `slot`, if any — pure ring
    /// arithmetic, no arena access: the slot's distance from the head
    /// slot equals its seq's distance from the head seq.
    #[inline]
    pub(crate) fn seq_at(&self, slot: usize) -> Option<u64> {
        let dist = (slot as u64).wrapping_sub(self.head_seq) & self.mask;
        (dist < self.len as u64).then(|| self.head_seq + dist)
    }

    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    #[inline]
    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    fn resident(&self, seq: u64) -> bool {
        seq >= self.head_seq && seq - self.head_seq < self.len as u64
    }

    /// The lifecycle state of instruction `seq`, if resident.
    #[inline]
    pub(crate) fn state_of(&self, seq: u64) -> Option<IState> {
        self.resident(seq).then(|| self.state[self.slot_of(seq)])
    }

    /// The instruction with sequence number `seq`, if resident.
    #[inline]
    pub(crate) fn get(&self, seq: u64) -> Option<&DynInst> {
        if self.resident(seq) {
            self.slots[self.slot_of(seq)].as_ref()
        } else {
            None
        }
    }

    /// Mutable access by sequence number, if resident.
    #[inline]
    pub(crate) fn get_mut(&mut self, seq: u64) -> Option<&mut DynInst> {
        if self.resident(seq) {
            let slot = self.slot_of(seq);
            self.slots[slot].as_mut()
        } else {
            None
        }
    }

    /// The oldest resident instruction.
    #[inline]
    pub(crate) fn front(&self) -> Option<&DynInst> {
        self.get(self.head_seq)
    }

    /// Appends the next-youngest instruction, built by `f` directly into
    /// the arena slot. `f` must return a record whose `seq` is the next in
    /// sequence; the arena must have room.
    ///
    /// The closure-shaped API lets the insert path construct the ~300-byte
    /// record once, in place, instead of building it on the stack and
    /// moving it in. Returns the resident record so the caller can finish
    /// scheme-dependent setup (ready-list enqueue) against the final copy.
    pub(crate) fn push_back_with(&mut self, seq: u64, f: impl FnOnce() -> DynInst) -> &mut DynInst {
        debug_assert_eq!(seq, self.head_seq + self.len as u64, "window seqs are contiguous");
        debug_assert!(self.len < self.slots.len(), "arena overfull");
        let slot = self.slot_of(seq);
        debug_assert!(self.slots[slot].is_none(), "slot not released");
        self.slots[slot] = Some(f());
        self.len += 1;
        let di = self.slots[slot].as_mut().expect("just written");
        debug_assert_eq!(di.seq, seq, "record seq matches the reserved slot");
        self.state[slot] = IState::Waiting;
        self.flags[slot] = flags_of(di);
        self.pcs[slot] = di.pc;
        di
    }

    /// Releases the oldest instruction in place, advancing `head_seq`.
    ///
    /// The commit path reads the handful of fields it needs through
    /// [`Window::front`] and then drops the slot here; unlike a
    /// `pop_front().take()` would, this never moves the ~300-byte record
    /// out of the arena (`DynInst` has no drop glue, so the overwrite
    /// compiles to a discriminant store).
    pub(crate) fn drop_front(&mut self) {
        debug_assert!(self.len > 0, "drop_front on empty window");
        let slot = self.head_slot();
        debug_assert!(self.slots[slot].is_some(), "head slot occupied");
        self.slots[slot] = None;
        self.head_seq += 1;
        self.len -= 1;
    }

    /// Iterates residents oldest-first (ascending `seq`).
    pub(crate) fn iter(&self) -> impl Iterator<Item = &DynInst> {
        (0..self.len as u64).map(move |k| {
            self.slots[self.slot_of(self.head_seq + k)].as_ref().expect("resident slot occupied")
        })
    }

    /// The window's invariants: contiguous residents, and flags and pc
    /// columns that mirror the resident records exactly (the select scan
    /// decides from the columns alone, so any drift is a scheduling
    /// divergence waiting to happen).
    pub(crate) fn check_invariants(&self) -> Result<(), String> {
        for (k, i) in self.iter().enumerate() {
            ensure!(i.seq == self.head_seq + k as u64, "window seq gap at {k}");
            let slot = self.slot_of(i.seq);
            ensure!(
                self.seq_at(slot) == Some(i.seq),
                "slot {slot} ring arithmetic disagrees with resident seq {}",
                i.seq
            );
            ensure!(
                self.flags[slot] == flags_of(i),
                "flags column of slot {slot} diverges for seq {}",
                i.seq
            );
            ensure!(self.pcs[slot] == i.pc, "pc column of slot {slot} diverges for seq {}", i.seq);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Test-only staging and inspection helpers (crate-visible, so other
    // modules' tests stage windows through them too).
    impl SlotBitset {
        pub(crate) fn is_empty(&self) -> bool {
            self.words.iter().all(|&w| w == 0)
        }

        /// The set slots in ring order from `from`, collected (test helper).
        pub(crate) fn collect_from(&self, from: usize) -> Vec<usize> {
            let mut v = Vec::new();
            self.for_each_from(from, |s| v.push(s));
            v
        }
    }

    impl Window {
        /// The arena capacity (a power of two, >= the RUU size).
        pub(crate) fn arena_capacity(&self) -> usize {
            self.slots.len()
        }

        /// The youngest resident instruction (test staging helper).
        pub(crate) fn back_mut(&mut self) -> Option<&mut DynInst> {
            if self.len == 0 {
                None
            } else {
                let slot = self.slot_of(self.head_seq + self.len as u64 - 1);
                self.slots[slot].as_mut()
            }
        }

        /// Appends the next-youngest instruction. Its `seq` must be the next
        /// in sequence and the arena must have room.
        pub(crate) fn push_back(&mut self, di: DynInst) {
            let seq = di.seq;
            self.push_back_with(seq, || di);
        }
    }

    #[test]
    fn bitset_word_boundary_slots_63_and_64() {
        let mut b = SlotBitset::new(128);
        b.set(63);
        b.set(64);
        assert!(b.test(63) && b.test(64));
        assert_eq!(b.count(), 2);
        assert_eq!(b.collect_from(0), vec![63, 64]);
        // Ring order from 64: 64 first (span [64,128)), then 63.
        assert_eq!(b.collect_from(64), vec![64, 63]);
        b.clear(63);
        assert!(!b.test(63) && b.test(64));
        b.clear(64);
        assert!(b.is_empty());
    }

    #[test]
    fn bitset_ring_order_is_sequence_order() {
        // Slots as seqs 60..68 map onto a 64-slot arena: seq 60..63 keep
        // their slots, 64..67 wrap to 0..3. Ring order from head slot 60
        // must visit 60,61,62,63,0,1,2,3 — ascending seq.
        let mut b = SlotBitset::new(64);
        for seq in 60u64..68 {
            b.set((seq & 63) as usize);
        }
        assert_eq!(b.collect_from(60), vec![60, 61, 62, 63, 0, 1, 2, 3]);
    }

    #[test]
    fn bitset_full_and_single_word() {
        let mut b = SlotBitset::new(64);
        for s in 0..64 {
            b.set(s);
        }
        assert_eq!(b.count(), 64);
        let order = b.collect_from(17);
        assert_eq!(order.len(), 64);
        assert_eq!(order[0], 17);
        assert_eq!(order[63], 16);
        b.clear_all();
        assert!(b.is_empty());
    }

    #[test]
    fn matrix_broadcast_crosses_word_boundary() {
        let mut m = WakeupMatrix::new(128);
        // Producer in slot 5 feeds src0 of consumers at slots 63 and 64
        // (either side of the word boundary) and both operands of 100.
        m.register(5, 0, 63);
        m.register(5, 0, 64);
        m.register(5, 0, 100);
        m.register(5, 1, 100);
        assert!(m.is_registered(5, 0, 63));
        assert!(!m.is_registered(5, 1, 63));
        let mut seen = Vec::new();
        m.for_each_consumer(5, 0, |slot, src| seen.push((slot, src)));
        assert_eq!(seen, vec![(63, 0), (64, 0), (100, 0), (100, 1)]);
        // Ring order from slot 100: 100 first, then the wrapped tail.
        seen.clear();
        m.for_each_consumer(5, 100, |slot, src| seen.push((slot, src)));
        assert_eq!(seen, vec![(100, 0), (100, 1), (63, 0), (64, 0)]);
    }

    #[test]
    fn matrix_rows_clear_on_release() {
        let mut m = WakeupMatrix::new(64);
        m.register(7, 0, 9);
        m.register(7, 1, 10);
        m.register(8, 0, 9);
        m.clear_rows(7);
        assert!(!m.is_registered(7, 0, 9));
        assert!(!m.is_registered(7, 1, 10));
        assert!(m.is_registered(8, 0, 9), "other rows untouched");
        let mut count = 0;
        m.for_each_consumer(7, 0, |_, _| count += 1);
        assert_eq!(count, 0);
    }

    #[test]
    fn matrix_dual_operand_consumer_delivers_src0_then_src1() {
        // A consumer with both operands on one producer must be visited
        // twice, src0 before src1 — the fault-injection layer counts
        // deliveries, so the visit count and order are load-bearing.
        let mut m = WakeupMatrix::new(64);
        m.register(3, 1, 40);
        m.register(3, 0, 40);
        let mut seen = Vec::new();
        m.for_each_consumer(3, 0, |slot, src| seen.push((slot, src)));
        assert_eq!(seen, vec![(40, 0), (40, 1)]);
    }

    /// Property: the bitset ring scan reproduces the old `VecDeque`
    /// scheduler's select order exactly. The AoS implementation walked the
    /// queue front-to-back — ascending seq — splitting candidates into the
    /// high-priority (loads/branches) and low-priority classes and
    /// concatenating. Over fuzzed windows (random capacity, a head that
    /// has wrapped the arena arbitrarily, random residents/ready bits and
    /// priority classes), the ring scan from the head slot plus the
    /// arithmetic slot→seq recovery must yield byte-for-byte that order.
    #[test]
    fn select_order_matches_aos_oldest_first() {
        use hpa_workloads::SplitMix64;
        for seed in 0..256u64 {
            let mut rng = SplitMix64::new(seed);
            let ruu = [8usize, 21, 48, 64, 128][rng.below(5) as usize];
            let mut w = Window::new(ruu);
            let cap = w.arena_capacity();
            // Age the window: advance head_seq far enough to wrap the
            // arena and cross word boundaries at odd offsets.
            let aged = rng.below(4 * cap as u64 + 7);
            for seq in 0..aged {
                w.push_back(test_inst(seq));
                w.drop_front();
            }
            // Residents: a random fill level.
            let len = rng.below(ruu as u64 + 1);
            for k in 0..len {
                w.push_back(test_inst(aged + k));
            }
            // Random ready subset with random priority classes.
            let mut ready = SlotBitset::new(cap);
            let mut hi_seqs = Vec::new();
            let mut lo_seqs = Vec::new();
            for k in 0..len {
                let seq = aged + k;
                if rng.below(2) == 0 {
                    continue;
                }
                ready.set(w.slot_of(seq));
                if rng.below(2) == 0 {
                    hi_seqs.push(seq);
                } else {
                    lo_seqs.push(seq);
                }
            }
            let hi_set: std::collections::BTreeSet<u64> = hi_seqs.iter().copied().collect();
            // The scan under test: ring order from the head slot, classes
            // split on the fly, exactly as `phase_select` does.
            let mut hi_scan = Vec::new();
            let mut lo_scan = Vec::new();
            ready.for_each_from(w.head_slot(), |slot| {
                let seq = w.seq_at(slot).expect("ready slot is resident");
                if hi_set.contains(&seq) {
                    hi_scan.push(seq);
                } else {
                    lo_scan.push(seq);
                }
            });
            hi_scan.append(&mut lo_scan);
            // The AoS reference order: ascending seq per class (push order
            // already ascends), high class first.
            let mut reference = hi_seqs;
            reference.extend(lo_seqs);
            assert_eq!(
                hi_scan, reference,
                "seed {seed}: ruu {ruu} aged {aged} len {len} — scan order diverged"
            );
        }
    }

    /// A minimal resident record for window staging in tests.
    fn test_inst(seq: u64) -> DynInst {
        use hpa_emu::StepRecord;
        use hpa_isa::{AluOp, Inst, Reg};
        let step = StepRecord {
            pc: 0x40 + seq * 4,
            inst: Inst::op(AluOp::Add, Reg::R1, Reg::R2, Reg::R3),
            next_pc: 0x44 + seq * 4,
            taken: false,
            mem_addr: None,
        };
        DynInst::from_step(seq, &step)
    }
}
