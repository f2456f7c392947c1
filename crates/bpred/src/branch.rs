//! Branch direction prediction, BTB and return-address stack.

/// Increments/decrements a 2-bit saturating counter.
fn bump(counter: &mut u8, up: bool) {
    if up {
        *counter = (*counter + 1).min(3);
    } else {
        *counter = counter.saturating_sub(1);
    }
}

fn pc_index(pc: u64, entries: usize) -> usize {
    // Instructions are 4-byte aligned; drop the low bits before indexing.
    ((pc >> 2) as usize) & (entries - 1)
}

/// A table of 2-bit saturating counters predicting taken/not-taken, indexed
/// either by PC (bimodal) or by PC XOR global history (gshare).
#[derive(Clone, Debug)]
pub struct DirectionPredictor {
    table: Vec<u8>,
    history_bits: u32,
    history: u64,
}

impl DirectionPredictor {
    /// A PC-indexed bimodal predictor with `entries` counters
    /// (power of two).
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a power of two.
    #[must_use]
    pub fn bimodal(entries: usize) -> DirectionPredictor {
        assert!(entries.is_power_of_two(), "table size must be a power of two");
        DirectionPredictor { table: vec![1; entries], history_bits: 0, history: 0 }
    }

    /// A gshare predictor with `entries` counters and
    /// `log2(entries)` bits of global history.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a power of two.
    #[must_use]
    pub fn gshare(entries: usize) -> DirectionPredictor {
        assert!(entries.is_power_of_two(), "table size must be a power of two");
        DirectionPredictor {
            table: vec![1; entries],
            history_bits: entries.trailing_zeros(),
            history: 0,
        }
    }

    fn index(&self, pc: u64) -> usize {
        let mask = self.table.len() - 1;
        (pc_index(pc, self.table.len()) ^ (self.history as usize & mask)) & mask
    }

    /// Predicts the direction of the branch at `pc`.
    #[must_use]
    pub fn predict(&self, pc: u64) -> bool {
        self.table[self.index(pc)] >= 2
    }

    /// Trains on the resolved outcome and shifts the global history
    /// (no-op history shift for bimodal).
    pub fn update(&mut self, pc: u64, taken: bool) {
        let idx = self.index(pc);
        bump(&mut self.table[idx], taken);
        if self.history_bits > 0 {
            self.history = (self.history << 1) | u64::from(taken);
        }
    }
}

/// The Table 1 direction predictor: bimodal + gshare with a PC-indexed
/// selector choosing between them.
#[derive(Clone, Debug)]
pub struct CombinedPredictor {
    bimodal: DirectionPredictor,
    gshare: DirectionPredictor,
    selector: Vec<u8>,
}

impl CombinedPredictor {
    /// Builds the predictor with the given component table sizes.
    #[must_use]
    pub fn new(bimodal_entries: usize, gshare_entries: usize, selector_entries: usize) -> Self {
        assert!(selector_entries.is_power_of_two(), "table size must be a power of two");
        CombinedPredictor {
            bimodal: DirectionPredictor::bimodal(bimodal_entries),
            gshare: DirectionPredictor::gshare(gshare_entries),
            selector: vec![1; selector_entries],
        }
    }

    /// The paper's configuration: 4k bimodal / 4k gshare / 4k selector.
    #[must_use]
    pub fn table1() -> CombinedPredictor {
        CombinedPredictor::new(4096, 4096, 4096)
    }

    /// Predicts the direction of the branch at `pc`.
    #[must_use]
    pub fn predict(&self, pc: u64) -> bool {
        let use_gshare = self.selector[pc_index(pc, self.selector.len())] >= 2;
        if use_gshare {
            self.gshare.predict(pc)
        } else {
            self.bimodal.predict(pc)
        }
    }

    /// Trains both components; the selector trains toward whichever
    /// component was correct when they disagreed.
    pub fn update(&mut self, pc: u64, taken: bool) {
        let b = self.bimodal.predict(pc);
        let g = self.gshare.predict(pc);
        if b != g {
            let idx = pc_index(pc, self.selector.len());
            bump(&mut self.selector[idx], g == taken);
        }
        self.bimodal.update(pc, taken);
        self.gshare.update(pc, taken);
    }
}

/// A set-associative branch target buffer with LRU replacement.
#[derive(Clone, Debug)]
pub struct Btb {
    ways: usize,
    entries: Vec<BtbEntry>,
    clock: u64,
}

#[derive(Clone, Copy, Debug, Default)]
struct BtbEntry {
    pc: u64,
    target: u64,
    valid: bool,
    last_use: u64,
}

impl Btb {
    /// Builds a BTB with `entries` total entries and `ways` associativity.
    ///
    /// # Panics
    ///
    /// Panics unless `entries` is a power-of-two multiple of `ways`.
    #[must_use]
    pub fn new(entries: usize, ways: usize) -> Btb {
        assert!(ways > 0 && entries.is_multiple_of(ways), "entries must divide into ways");
        assert!((entries / ways).is_power_of_two(), "set count must be a power of two");
        Btb { ways, entries: vec![BtbEntry::default(); entries], clock: 0 }
    }

    /// The paper's configuration: 1k entries, 4-way.
    #[must_use]
    pub fn table1() -> Btb {
        Btb::new(1024, 4)
    }

    fn set_range(&self, pc: u64) -> std::ops::Range<usize> {
        let sets = self.entries.len() / self.ways;
        let set = pc_index(pc, sets);
        set * self.ways..(set + 1) * self.ways
    }

    /// Looks up the predicted target for the branch at `pc`.
    #[must_use]
    pub fn lookup(&self, pc: u64) -> Option<u64> {
        self.entries[self.set_range(pc)].iter().find(|e| e.valid && e.pc == pc).map(|e| e.target)
    }

    /// Installs or refreshes the target for the branch at `pc`.
    pub fn update(&mut self, pc: u64, target: u64) {
        self.clock += 1;
        let clock = self.clock;
        let range = self.set_range(pc);
        let set = &mut self.entries[range];
        if let Some(e) = set.iter_mut().find(|e| e.valid && e.pc == pc) {
            e.target = target;
            e.last_use = clock;
            return;
        }
        let victim =
            set.iter_mut().min_by_key(|e| if e.valid { e.last_use } else { 0 }).expect("ways > 0");
        *victim = BtbEntry { pc, target, valid: true, last_use: clock };
    }
}

/// A fixed-depth return-address stack. Pushing onto a full stack discards
/// the oldest entry (circular), as in real hardware.
#[derive(Clone, Debug)]
pub struct Ras {
    slots: Vec<u64>,
    top: usize,
    depth: usize,
}

impl Ras {
    /// Builds a RAS with the given capacity.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn new(capacity: usize) -> Ras {
        assert!(capacity > 0, "RAS capacity must be positive");
        Ras { slots: vec![0; capacity], top: 0, depth: 0 }
    }

    /// The paper's configuration: 16 entries.
    #[must_use]
    pub fn table1() -> Ras {
        Ras::new(16)
    }

    /// Pushes a return address (on calls).
    pub fn push(&mut self, addr: u64) {
        self.top = (self.top + 1) % self.slots.len();
        self.slots[self.top] = addr;
        self.depth = (self.depth + 1).min(self.slots.len());
    }

    /// The return address [`Ras::pop`] would return, without popping it.
    #[must_use]
    pub fn peek(&self) -> Option<u64> {
        (self.depth > 0).then(|| self.slots[self.top])
    }

    /// Pops the predicted return address (on returns).
    pub fn pop(&mut self) -> Option<u64> {
        if self.depth == 0 {
            return None;
        }
        let addr = self.slots[self.top];
        self.top = (self.top + self.slots.len() - 1) % self.slots.len();
        self.depth -= 1;
        Some(addr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bimodal_learns_a_bias() {
        let mut p = DirectionPredictor::bimodal(16);
        for _ in 0..4 {
            p.update(0x100, true);
        }
        assert!(p.predict(0x100));
        p.update(0x100, false);
        assert!(p.predict(0x100), "2-bit hysteresis survives one anomaly");
        p.update(0x100, false);
        assert!(!p.predict(0x100));
    }

    #[test]
    fn gshare_separates_by_history() {
        let mut p = DirectionPredictor::gshare(1024);
        // Alternating branch at one PC: T,N,T,N... bimodal would flounder;
        // gshare keys on history and converges.
        let mut correct = 0;
        for i in 0..200 {
            let taken = i % 2 == 0;
            if p.predict(0x40) == taken {
                correct += 1;
            }
            p.update(0x40, taken);
        }
        assert!(correct > 150, "gshare should learn the alternation, got {correct}");
    }

    #[test]
    fn combined_beats_wrong_component() {
        let mut c = CombinedPredictor::new(64, 64, 64);
        // Strongly biased branch: both components work; selector stays sane.
        for _ in 0..8 {
            c.update(0x10, true);
        }
        assert!(c.predict(0x10));
        // Alternating branch: selector should drift to gshare.
        let mut correct = 0;
        for i in 0..400 {
            let taken = i % 2 == 0;
            if c.predict(0x20) == taken {
                correct += 1;
            }
            c.update(0x20, taken);
        }
        assert!(correct > 300, "combined should track alternation, got {correct}");
    }

    #[test]
    fn btb_stores_and_replaces() {
        let mut btb = Btb::new(8, 2); // 4 sets x 2 ways
        assert_eq!(btb.lookup(0x100), None);
        btb.update(0x100, 0x500);
        assert_eq!(btb.lookup(0x100), Some(0x500));
        btb.update(0x100, 0x600);
        assert_eq!(btb.lookup(0x100), Some(0x600));
        // Fill the set (PCs mapping to the same set: step by 4*sets = 16).
        btb.update(0x110, 0x700);
        btb.update(0x120, 0x800); // evicts LRU 0x100
        assert_eq!(btb.lookup(0x100), None);
        assert_eq!(btb.lookup(0x110), Some(0x700));
        assert_eq!(btb.lookup(0x120), Some(0x800));
    }

    #[test]
    fn ras_is_lifo_and_bounded() {
        let mut ras = Ras::new(2);
        assert_eq!(ras.pop(), None);
        ras.push(1);
        ras.push(2);
        assert_eq!(ras.pop(), Some(2));
        assert_eq!(ras.pop(), Some(1));
        assert_eq!(ras.pop(), None);

        ras.push(1);
        ras.push(2);
        ras.push(3); // overwrites oldest; depth stays capped at 2
        assert_eq!(ras.peek(), Some(3), "peek does not pop");
        assert_eq!(ras.pop(), Some(3));
        assert_eq!(ras.pop(), Some(2));
        assert_eq!(ras.peek(), None);
        assert_eq!(ras.pop(), None, "entry 1 was lost to the overflow");
    }
}
