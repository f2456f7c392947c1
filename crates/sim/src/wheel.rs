//! A cycle-indexed ring-buffer event wheel.
//!
//! The pipeline schedules every future action (tag broadcasts, cache
//! accesses, completions) a bounded number of cycles ahead — at most the
//! memory round-trip plus the deepest register-file pipe, well under the
//! wheel's 256-slot horizon. Scheduling is a direct index into a fixed
//! slot array, and [`EventWheel::pop_into`] recycles the caller's scratch
//! buffer through the slots, so the steady state performs no allocation.
//!
//! Events scheduled beyond the horizon (possible in principle, never in
//! the shipped pipeline) spill to an overflow list and migrate into slots
//! as the wheel turns, preserving schedule order within each cycle.

/// Number of slots in the wheel. Power of two, comfortably above the
/// longest schedule distance the pipeline uses (a memory-latency load plus
/// pipeline offsets, ~60 cycles).
const WHEEL_SLOTS: usize = 256;

/// A monotonic, cycle-indexed queue of `T`, drained one cycle at a time.
///
/// Semantics match a `HashMap<u64, Vec<T>>` future-event map: items
/// scheduled for the same cycle come back in schedule order, and each
/// cycle is drained exactly once, in increasing cycle order.
#[derive(Clone, Debug)]
pub(crate) struct EventWheel<T> {
    /// `slots[c % WHEEL_SLOTS]` holds the items for cycle `c` when `c` is
    /// within the horizon of the last drained cycle.
    slots: Box<[Vec<T>]>,
    /// The next cycle [`EventWheel::pop_into`] expects to drain; items for
    /// earlier cycles no longer exist.
    cursor: u64,
    /// Items scheduled `>= cursor + WHEEL_SLOTS` cycles ahead, in schedule
    /// order, migrated into slots as the cursor advances.
    overflow: Vec<(u64, T)>,
    /// Smallest cycle present in `overflow` (`u64::MAX` when empty), so
    /// the hot path skips the overflow scan with one compare.
    overflow_min: u64,
}

impl<T> Default for EventWheel<T> {
    fn default() -> Self {
        EventWheel {
            slots: (0..WHEEL_SLOTS).map(|_| Vec::new()).collect(),
            cursor: 0,
            overflow: Vec::new(),
            overflow_min: u64::MAX,
        }
    }
}

impl<T> EventWheel<T> {
    /// An empty wheel positioned at cycle 0.
    #[must_use]
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Schedules `item` for `cycle`.
    ///
    /// `cycle` must not precede the wheel's position (the pipeline only
    /// ever schedules strictly into the future); debug builds assert this.
    pub(crate) fn schedule(&mut self, cycle: u64, item: T) {
        debug_assert!(cycle >= self.cursor, "scheduling into the past: {cycle} < {}", self.cursor);
        if cycle - self.cursor < WHEEL_SLOTS as u64 {
            self.slots[(cycle as usize) % WHEEL_SLOTS].push(item);
        } else {
            self.overflow_min = self.overflow_min.min(cycle);
            self.overflow.push((cycle, item));
        }
    }

    /// Drains every item scheduled for `cycle` into `out` (cleared first),
    /// advancing the wheel to `cycle + 1`.
    ///
    /// The slot's buffer and `out` are swapped rather than copied, so a
    /// caller that reuses one scratch `Vec` per wheel keeps the whole
    /// drain loop allocation-free after warmup.
    ///
    /// Cycles must be drained in non-decreasing order; debug builds
    /// assert it. Skipped cycles (the pipeline never skips any) would
    /// leave their items in place to be mis-delivered a lap later, so the
    /// assert is load-bearing for correctness of unusual callers.
    pub(crate) fn pop_into(&mut self, cycle: u64, out: &mut Vec<T>) {
        debug_assert!(cycle >= self.cursor, "draining the past: {cycle} < {}", self.cursor);
        // Migrate overflow items that fall inside the new horizon before
        // touching the slot, so same-cycle order stays schedule order
        // (anything in-horizon was necessarily scheduled later).
        if self.overflow_min < cycle + WHEEL_SLOTS as u64 {
            let pending = std::mem::take(&mut self.overflow);
            self.overflow_min = u64::MAX;
            for (c, item) in pending {
                if c < cycle + WHEEL_SLOTS as u64 {
                    debug_assert!(c >= cycle, "overflow item expired undelivered");
                    self.slots[(c as usize) % WHEEL_SLOTS].push(item);
                } else {
                    self.overflow_min = self.overflow_min.min(c);
                    self.overflow.push((c, item));
                }
            }
        }
        self.cursor = cycle + 1;
        out.clear();
        std::mem::swap(&mut self.slots[(cycle as usize) % WHEEL_SLOTS], out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl<T> EventWheel<T> {
        /// Whether no items remain anywhere in the wheel.
        pub(crate) fn is_empty(&self) -> bool {
            self.overflow.is_empty() && self.slots.iter().all(Vec::is_empty)
        }
    }

    /// Drains one cycle into a fresh buffer.
    fn drain(w: &mut EventWheel<u32>, cycle: u64) -> Vec<u32> {
        let mut out = Vec::new();
        w.pop_into(cycle, &mut out);
        out
    }

    #[test]
    fn delivers_at_scheduled_cycle() {
        let mut w = EventWheel::new();
        w.schedule(3, 30);
        w.schedule(1, 10);
        for c in 0..6 {
            let got = drain(&mut w, c);
            match c {
                1 => assert_eq!(got, [10]),
                3 => assert_eq!(got, [30]),
                _ => assert!(got.is_empty(), "cycle {c}: {got:?}"),
            }
        }
        assert!(w.is_empty());
    }

    /// The satellite wrap-around test: scheduling and draining across many
    /// multiples of the slot count reuses slots without cross-talk.
    #[test]
    fn wraps_around_the_horizon() {
        let mut w = EventWheel::new();
        let span = (WHEEL_SLOTS as u64) * 5 + 7;
        let mut cursor = 0;
        while cursor < span {
            // From each cycle, schedule at the far edge of the horizon.
            let target = cursor + WHEEL_SLOTS as u64 - 1;
            w.schedule(target, target as u32);
            let got = drain(&mut w, cursor);
            if cursor >= WHEEL_SLOTS as u64 - 1 {
                assert_eq!(got, [cursor as u32], "cycle {cursor}");
            } else {
                assert!(got.is_empty(), "cycle {cursor}: {got:?}");
            }
            cursor += 1;
        }
    }

    /// Items scheduled for the same cycle come back in schedule order,
    /// exactly like the `HashMap<u64, Vec<T>>` it replaces.
    #[test]
    fn same_cycle_items_keep_schedule_order() {
        let mut w = EventWheel::new();
        w.schedule(5, 1);
        w.schedule(2, 99);
        w.schedule(5, 2);
        w.schedule(5, 3);
        assert!(drain(&mut w, 0).is_empty());
        assert!(drain(&mut w, 1).is_empty());
        assert_eq!(drain(&mut w, 2), [99]);
        assert!(drain(&mut w, 3).is_empty());
        assert!(drain(&mut w, 4).is_empty());
        assert_eq!(drain(&mut w, 5), [1, 2, 3]);
    }

    /// The satellite beyond-capacity test: items past the horizon spill to
    /// overflow, migrate as the wheel turns, and still deliver on the
    /// right cycle in schedule order.
    #[test]
    fn far_future_items_survive_overflow() {
        let mut w = EventWheel::new();
        let far = WHEEL_SLOTS as u64 * 3 + 11;
        w.schedule(far, 7); // beyond the horizon: overflow
        w.schedule(1, 1);
        for c in 0..=far {
            let got = drain(&mut w, c);
            match c {
                1 => assert_eq!(got, [1]),
                c if c == far => assert_eq!(got, [7]),
                _ => assert!(got.is_empty(), "cycle {c}: {got:?}"),
            }
        }
        assert!(w.is_empty());
    }

    /// Overflow + in-horizon items for one cycle interleave in schedule
    /// order across the migration.
    #[test]
    fn overflow_migration_preserves_order() {
        let mut w = EventWheel::new();
        let far = WHEEL_SLOTS as u64 + 40;
        w.schedule(far, 1); // overflow at schedule time
        let mut out = Vec::new();
        for c in 0..=60 {
            w.pop_into(c, &mut out);
            assert!(out.is_empty());
        }
        w.schedule(far, 2); // now in-horizon
        for c in 61..far {
            w.pop_into(c, &mut out);
            assert!(out.is_empty());
        }
        w.pop_into(far, &mut out);
        assert_eq!(out, [1, 2]);
        assert!(w.is_empty());
    }

    /// The watchdog scenario: a run cut off at a cycle budget stops
    /// draining mid-lap, right past a wrap of the slot array. Everything
    /// due before the budget must have been delivered on its exact cycle;
    /// items scheduled beyond the budget stay queued (visible to
    /// `is_empty`) and deliver correctly if draining resumes.
    #[test]
    fn budget_boundary_cut_mid_wrap_keeps_future_items() {
        let mut w = EventWheel::new();
        // A budget just past a slot-count multiple, so the final drained
        // cycle sits in a freshly reused slot.
        let budget = WHEEL_SLOTS as u64 * 2 + 3;
        let before = budget - 1;
        let after = budget + 5;
        let mut out = Vec::new();
        let mut delivered = Vec::new();
        for c in 0..budget {
            // Keep scheduling one-cycle-ahead traffic as the wheel turns,
            // like broadcasts do, plus the two probes around the budget.
            if c == 0 {
                w.schedule(before, 111);
                w.schedule(after, 999); // overflow at schedule time
            }
            w.schedule(c + 1, c as u32);
            w.pop_into(c, &mut out);
            delivered.extend(out.iter().copied());
        }
        // The pre-budget probe and every 1-ahead event up to the cut.
        assert!(delivered.contains(&111));
        assert_eq!(delivered.len(), budget as usize); // budget-1 ticks + probe
                                                      // The post-budget probe (and the last 1-ahead event) survive the cut.
        assert!(!w.is_empty(), "items past the budget are still queued");
        for c in budget..=after {
            w.pop_into(c, &mut out);
            if c == after {
                assert_eq!(out, [999]);
            }
        }
        assert!(w.is_empty());
    }

    /// Draining and delivering exactly at a slot-count multiple exercises
    /// the modulo index at the wrap point itself.
    #[test]
    fn delivery_exactly_on_the_wrap_cycle() {
        let mut w = EventWheel::new();
        let mut out = Vec::new();
        for lap in 1..=3u64 {
            let wrap = WHEEL_SLOTS as u64 * lap;
            w.schedule(wrap, lap as u32);
        }
        for c in 0..=WHEEL_SLOTS as u64 * 3 {
            w.pop_into(c, &mut out);
            if c % WHEEL_SLOTS as u64 == 0 && c > 0 {
                assert_eq!(out, [(c / WHEEL_SLOTS as u64) as u32], "cycle {c}");
            } else {
                assert!(out.is_empty(), "cycle {c}: {out:?}");
            }
        }
        assert!(w.is_empty());
    }

    /// The scratch buffer swap keeps capacity flowing between caller and
    /// slots — no per-cycle allocation once warm.
    #[test]
    fn pop_into_recycles_the_scratch_buffer() {
        let mut w = EventWheel::new();
        let mut out = Vec::with_capacity(64);
        w.schedule(0, 5);
        w.pop_into(0, &mut out);
        assert_eq!(out, [5]);
        // The wheel took the 64-capacity buffer; the slot hands it back
        // next lap.
        w.schedule(WHEEL_SLOTS as u64, 6);
        for c in 1..WHEEL_SLOTS as u64 {
            w.pop_into(c, &mut out);
        }
        w.pop_into(WHEEL_SLOTS as u64, &mut out);
        assert_eq!(out, [6]);
        assert!(out.capacity() >= 64, "recycled capacity came back");
    }
}
