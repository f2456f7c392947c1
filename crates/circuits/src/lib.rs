//! # hpa-circuits — analytic timing models for the wakeup logic and register file
//!
//! The paper supports its IPC results with two circuit-level claims:
//!
//! * §3.3: a 4-wide, 64-entry scheduler's wakeup delay drops from **466 ps
//!   to 374 ps** (a 24.6% speedup) when sequential wakeup removes half of
//!   the tag comparators from the fast wakeup bus;
//! * §4: a 160-entry register file's access time at 0.18 µm drops from
//!   **1.71 ns to 1.36 ns** (20.5%) when halving the read ports shrinks the
//!   port count from 24 to 16 on an 8-wide machine.
//!
//! The paper derives these from Hspice analysis (following Ernst & Austin
//! and Palacharla et al.) and a CACTI-3.0-based register-file model. Neither
//! tool is available here, so this crate substitutes analytic models with
//! the same structural scaling laws, calibrated so the published endpoints
//! are reproduced exactly (see `DESIGN.md` §2):
//!
//! * [`WakeupDelayModel`]: wakeup delay = tag drive + tag match + match OR,
//!   where the tag-drive time grows with the bus load capacitance — one
//!   comparator per *connected* operand per window entry plus per-entry wire
//!   capacitance, and entry height (hence wire length) grows with issue
//!   width;
//! * [`RegFileDelayModel`]: access time = fixed front end + RC of word
//!   lines/bit lines, whose lengths grow linearly with the per-port cell
//!   pitch, giving the classic quadratic port-count term.
//!
//! The "Circuit claims" section of `hpa report` uses both models to
//! regenerate the claims and to produce the ablation sweeps (delay vs.
//! window size, issue width, port count, entry count).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Picoseconds, the unit of every delay returned by this crate.
pub type Picos = f64;

/// Analytic wakeup-logic delay model (Palacharla-style decomposition).
///
/// `delay = t_fixed + (tag-drive RC) + per-entry match/OR growth`, with the
/// tag-drive RC proportional to the bus capacitance:
/// `C_bus = entries * (comparators_per_entry * C_comparator + C_wire(width))`.
#[derive(Clone, Copy, Debug)]
pub struct WakeupDelayModel {
    /// Fixed delay: tag match + match OR + driver intrinsic (ps).
    pub fixed_ps: Picos,
    /// Tag-drive cost per (entry × comparator) of bus load (ps).
    pub per_comparator_ps: Picos,
    /// Tag-drive cost per entry of bus wire at 4-wide entry pitch (ps).
    pub per_entry_wire_ps: Picos,
    /// Relative entry-pitch growth per additional issue slot beyond 4-wide
    /// (wider machines have taller issue-queue entries, lengthening the
    /// bus).
    pub width_pitch_factor: f64,
}

impl WakeupDelayModel {
    /// The calibrated 0.18 µm model: reproduces 466 ps for a conventional
    /// 4-wide, 64-entry scheduler (2 comparators/entry on the bus) and
    /// 374 ps for the sequential-wakeup fast bus (1 comparator/entry).
    #[must_use]
    pub fn calibrated_018um() -> WakeupDelayModel {
        // 466 = fixed + 64*2*k + 64*w ; 374 = fixed + 64*1*k + 64*w
        // => k = 92/64 = 1.4375 ps; choose w = 1.0 ps, fixed = 218 ps.
        WakeupDelayModel {
            fixed_ps: 218.0,
            per_comparator_ps: 1.4375,
            per_entry_wire_ps: 1.0,
            width_pitch_factor: 0.08,
        }
    }

    /// Wakeup delay for a window of `entries`, an `issue_width`-wide
    /// machine and `comparators_per_entry` tag comparators connected to the
    /// broadcast bus (2 = conventional, 1 = sequential wakeup fast bus /
    /// tag elimination).
    #[must_use]
    pub fn delay(&self, entries: u32, issue_width: u32, comparators_per_entry: u32) -> Picos {
        let pitch = 1.0 + self.width_pitch_factor * (f64::from(issue_width) - 4.0).max(0.0);
        let per_entry = f64::from(comparators_per_entry) * self.per_comparator_ps
            + self.per_entry_wire_ps * pitch;
        self.fixed_ps + f64::from(entries) * per_entry
    }

    /// The conventional scheduler delay (2 comparators on the bus).
    #[must_use]
    pub fn conventional(&self, entries: u32, issue_width: u32) -> Picos {
        self.delay(entries, issue_width, 2)
    }

    /// The sequential-wakeup fast-bus delay (1 comparator on the bus). The
    /// slow bus re-broadcasts over the following cycle and is off the
    /// critical path (paper Figure 8c).
    #[must_use]
    pub fn sequential_wakeup(&self, entries: u32, issue_width: u32) -> Picos {
        self.delay(entries, issue_width, 1)
    }

    /// Relative speedup of sequential wakeup over the conventional
    /// scheduler, e.g. `0.246` for the calibrated 4-wide 64-entry point.
    #[must_use]
    pub fn speedup(&self, entries: u32, issue_width: u32) -> f64 {
        let conv = self.conventional(entries, issue_width);
        let seq = self.sequential_wakeup(entries, issue_width);
        (conv - seq) / seq
    }
}

impl Default for WakeupDelayModel {
    fn default() -> WakeupDelayModel {
        WakeupDelayModel::calibrated_018um()
    }
}

/// Analytic multi-ported register-file access-time model (CACTI-3.0-shaped).
///
/// Each port adds one word line and one bit line per cell, growing the cell
/// pitch in both dimensions; word-line and bit-line RC each scale with the
/// product of wire length and capacitance per cell, producing the standard
/// quadratic dependence on port count and linear dependence on entry count.
#[derive(Clone, Copy, Debug)]
pub struct RegFileDelayModel {
    /// Fixed delay: decoder front end + sense amp + output drive (ps).
    pub fixed_ps: Picos,
    /// RC cost coefficient at the reference entry count (ps).
    pub rc_ps: Picos,
    /// Entry count at which `rc_ps` is calibrated.
    pub reference_entries: u32,
    /// Per-port pitch growth relative to the base cell.
    pub port_pitch_factor: f64,
}

impl RegFileDelayModel {
    /// The calibrated 0.18 µm model: reproduces 1.71 ns at 160 entries /
    /// 24 ports and 1.36 ns at 160 entries / 16 ports (paper §4).
    #[must_use]
    pub fn calibrated_018um() -> RegFileDelayModel {
        // t(p) = fixed + G*(1 + a*p)^2 with a = 0.5:
        // 1710 = fixed + G*13^2 ; 1360 = fixed + G*9^2
        // => G = 350/88 = 3.9773 ps, fixed = 1037.7 ps.
        RegFileDelayModel {
            fixed_ps: 1_037.840_909_090_909,
            rc_ps: 3.977_272_727_272_727,
            reference_entries: 160,
            port_pitch_factor: 0.5,
        }
    }

    /// Access time for a register file with `entries` registers and
    /// `ports` total ports (read + write).
    #[must_use]
    pub fn access_time(&self, entries: u32, ports: u32) -> Picos {
        let pitch = 1.0 + self.port_pitch_factor * f64::from(ports);
        let scale = f64::from(entries) / f64::from(self.reference_entries);
        self.fixed_ps + self.rc_ps * scale * pitch * pitch
    }

    /// Access time of the conventional configuration: 2 read ports per
    /// issue slot + 1 write port per slot.
    #[must_use]
    pub fn conventional(&self, entries: u32, issue_width: u32) -> Picos {
        self.access_time(entries, 3 * issue_width)
    }

    /// Access time under sequential register access: 1 read port per issue
    /// slot + 1 write port per slot (paper Figure 13).
    #[must_use]
    pub fn sequential_access(&self, entries: u32, issue_width: u32) -> Picos {
        self.access_time(entries, 2 * issue_width)
    }

    /// Fractional access-time reduction of halving the read ports, e.g.
    /// `0.205` at the calibrated 160-entry, 8-wide point.
    #[must_use]
    pub fn reduction(&self, entries: u32, issue_width: u32) -> f64 {
        let conv = self.conventional(entries, issue_width);
        let seq = self.sequential_access(entries, issue_width);
        (conv - seq) / conv
    }
}

impl Default for RegFileDelayModel {
    fn default() -> RegFileDelayModel {
        RegFileDelayModel::calibrated_018um()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() <= tol
    }

    #[test]
    fn wakeup_reproduces_section_3_3_claim() {
        let m = WakeupDelayModel::calibrated_018um();
        assert!(close(m.conventional(64, 4), 466.0, 0.01), "{}", m.conventional(64, 4));
        assert!(close(m.sequential_wakeup(64, 4), 374.0, 0.01));
        // "24.6% speedup over a conventional scheduler"
        assert!(close(m.speedup(64, 4), 0.246, 0.001), "{}", m.speedup(64, 4));
    }

    #[test]
    fn wakeup_scales_monotonically() {
        let m = WakeupDelayModel::default();
        assert!(m.delay(128, 4, 2) > m.delay(64, 4, 2), "bigger window is slower");
        assert!(m.delay(64, 8, 2) > m.delay(64, 4, 2), "wider machine is slower");
        assert!(m.delay(64, 4, 2) > m.delay(64, 4, 1), "more comparators are slower");
        // Window-size benefit grows with window size.
        let gain64 = m.conventional(64, 4) - m.sequential_wakeup(64, 4);
        let gain128 = m.conventional(128, 4) - m.sequential_wakeup(128, 4);
        assert!(gain128 > gain64);
    }

    #[test]
    fn regfile_reproduces_section_4_claim() {
        let m = RegFileDelayModel::calibrated_018um();
        // 8-wide: 24 ports -> 16 ports at 160 entries.
        let conv = m.conventional(160, 8);
        let seq = m.sequential_access(160, 8);
        assert!(close(conv, 1710.0, 0.01), "{conv}");
        assert!(close(seq, 1360.0, 0.01), "{seq}");
        assert!(close(m.reduction(160, 8), 0.205, 0.001), "{}", m.reduction(160, 8));
    }

    #[test]
    fn regfile_scales_monotonically() {
        let m = RegFileDelayModel::default();
        assert!(m.access_time(320, 24) > m.access_time(160, 24));
        assert!(m.access_time(160, 24) > m.access_time(160, 16));
        // Quadratic port growth: marginal cost of ports increases.
        let d1 = m.access_time(160, 17) - m.access_time(160, 16);
        let d2 = m.access_time(160, 25) - m.access_time(160, 24);
        assert!(d2 > d1);
    }

    #[test]
    fn four_wide_configuration_also_benefits() {
        let m = RegFileDelayModel::default();
        // 4-wide: 12 ports -> 8 ports.
        assert!(m.reduction(160, 4) > 0.07);
        assert!(m.reduction(160, 4) < m.reduction(160, 8), "wider machines gain more");
    }
}

/// Picojoules, the unit of the energy estimates.
pub type Picojoules = f64;

/// First-order dynamic-energy estimates for the two structures, using the
/// same capacitance scaling as the delay models: wakeup energy per
/// broadcast is proportional to the switched bus capacitance (entries ×
/// comparators + wire), and register-file energy per access grows with the
/// port-count-squared cell area. Calibrated loosely to 0.18 µm-era
/// publications (a conventional 4-wide 64-entry wakeup broadcast ≈ 50 pJ;
/// a 160-entry 24-port RF access ≈ 150 pJ); like the delay models, the
/// *ratios* between configurations are the meaningful output.
#[derive(Clone, Copy, Debug)]
pub struct EnergyModel {
    /// Energy per (entry × comparator) of driven wakeup bus (pJ).
    pub wakeup_per_comparator_pj: f64,
    /// Energy per entry of bus wire at 4-wide pitch (pJ).
    pub wakeup_per_entry_wire_pj: f64,
    /// Register-file energy coefficient at the reference geometry (pJ).
    pub rf_cell_pj: f64,
}

impl EnergyModel {
    /// The calibrated 0.18 µm model.
    #[must_use]
    pub fn calibrated_018um() -> EnergyModel {
        // 50 pJ = 64 * (2*k + w) with w = k  =>  k = 50/192.
        let k = 50.0 / 192.0;
        // 150 pJ = c * (160/160) * (1 + 0.5*24)^2  =>  c = 150/169.
        EnergyModel {
            wakeup_per_comparator_pj: k,
            wakeup_per_entry_wire_pj: k,
            rf_cell_pj: 150.0 / 169.0,
        }
    }

    /// Energy of one tag broadcast on a window of `entries` with
    /// `comparators_per_entry` comparators on the bus.
    #[must_use]
    pub fn wakeup_broadcast(&self, entries: u32, comparators_per_entry: u32) -> Picojoules {
        f64::from(entries)
            * (f64::from(comparators_per_entry) * self.wakeup_per_comparator_pj
                + self.wakeup_per_entry_wire_pj)
    }

    /// Energy of one register-file access with the given geometry.
    #[must_use]
    pub fn rf_access(&self, entries: u32, ports: u32) -> Picojoules {
        let pitch = 1.0 + 0.5 * f64::from(ports);
        self.rf_cell_pj * (f64::from(entries) / 160.0) * pitch * pitch
    }

    /// Fractional per-event energy saving of the half-price structures:
    /// `(wakeup saving, RF saving)` for a machine of the given geometry.
    /// Sequential wakeup broadcasts twice (fast + slow bus) but each bus
    /// drives half the comparators, so the *net* wakeup saving comes from
    /// the wire and from slow-bus broadcasts only firing when a slow-side
    /// operand is still pending; this returns the fast-bus-only ratio as
    /// the optimistic bound.
    #[must_use]
    pub fn half_price_savings(&self, entries: u32, issue_width: u32) -> (f64, f64) {
        let w_full = self.wakeup_broadcast(entries, 2);
        let w_half = self.wakeup_broadcast(entries, 1);
        let r_full = self.rf_access(entries * 5 / 2, 3 * issue_width);
        let r_half = self.rf_access(entries * 5 / 2, 2 * issue_width);
        (1.0 - w_half / w_full, 1.0 - r_half / r_full)
    }
}

impl Default for EnergyModel {
    fn default() -> EnergyModel {
        EnergyModel::calibrated_018um()
    }
}

#[cfg(test)]
mod energy_tests {
    use super::*;

    #[test]
    fn calibration_points() {
        let m = EnergyModel::calibrated_018um();
        assert!((m.wakeup_broadcast(64, 2) - 50.0).abs() < 1e-9);
        assert!((m.rf_access(160, 24) - 150.0).abs() < 1e-9);
    }

    #[test]
    fn energy_scales_with_structure() {
        let m = EnergyModel::default();
        assert!(m.wakeup_broadcast(128, 2) > m.wakeup_broadcast(64, 2));
        assert!(m.wakeup_broadcast(64, 2) > m.wakeup_broadcast(64, 1));
        assert!(m.rf_access(160, 24) > m.rf_access(160, 16));
        let d1 = m.rf_access(160, 17) - m.rf_access(160, 16);
        let d2 = m.rf_access(160, 25) - m.rf_access(160, 24);
        assert!(d2 > d1, "quadratic port growth");
    }

    #[test]
    fn half_price_saves_energy_on_both_structures() {
        let m = EnergyModel::default();
        let (w, r) = m.half_price_savings(64, 4);
        assert!(w > 0.2 && w < 0.5, "wakeup saving {w}");
        assert!(r > 0.2 && r < 0.6, "RF saving {r}");
    }
}
