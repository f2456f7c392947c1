//! Campaign results: aggregation, the human-readable table, and the
//! `RESILIENCE.json` document (an [`hpa_core::obs::json::Json`] value).

use crate::classify::Classification;
use crate::model::FaultClass;
use hpa_core::obs::json::Json;
use hpa_core::Scheme;
use std::fmt::Write as _;
use std::path::PathBuf;

/// The classification keys, in table and JSON column order.
const KEYS: [&str; 4] = ["detected", "masked", "dormant", "sdc"];

/// The outcome of one completed `(program, scheme, fault-class)` cell.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CellOutcome {
    /// Index of the generated program.
    pub program: u64,
    /// The scheme the cell ran under.
    pub scheme: Scheme,
    /// The injected fault class.
    pub class: FaultClass,
    /// Debug rendering of the concrete injection parameters.
    pub injection: String,
    /// AVF classification of the run.
    pub classification: Classification,
    /// Attempts consumed (1 = first try; >1 means a transient harness
    /// failure was retried with a fresh derived seed).
    pub attempts: u32,
    /// Where the shrunk reproducer was written, for SDC cells with a
    /// corpus directory configured.
    pub reproducer: Option<PathBuf>,
}

/// A panic caught at the job boundary during the campaign.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct PanicEvent {
    /// Row-major cell index within the campaign matrix.
    pub cell: usize,
    /// The attempt (0-based) that panicked.
    pub attempt: u32,
    /// The panic payload rendered as text.
    pub message: String,
    /// Whether a retry later completed the cell.
    pub recovered: bool,
}

/// Everything a campaign run produced.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CampaignReport {
    /// The campaign master seed.
    pub seed: u64,
    /// Number of generated programs.
    pub programs: u64,
    /// Every completed cell, in row-major `(program, scheme, class)` order.
    pub cells: Vec<CellOutcome>,
    /// Cells that failed every attempt (descriptors, not outcomes).
    pub aborted: Vec<(u64, Scheme, FaultClass)>,
    /// Panics caught at the job boundary (recovered or not).
    pub panics: Vec<PanicEvent>,
}

impl CampaignReport {
    /// Completed cells classified Detected.
    #[must_use]
    pub fn detected(&self) -> usize {
        self.count(|c| matches!(c, Classification::Detected { .. }))
    }

    /// Completed cells classified Masked.
    #[must_use]
    pub fn masked(&self) -> usize {
        self.count(|c| matches!(c, Classification::Masked))
    }

    /// Completed cells classified Dormant.
    #[must_use]
    pub fn dormant(&self) -> usize {
        self.count(|c| matches!(c, Classification::Dormant))
    }

    /// Completed cells classified SDC.
    #[must_use]
    pub fn sdc(&self) -> usize {
        self.count(|c| matches!(c, Classification::Sdc { .. }))
    }

    fn count(&self, pred: impl Fn(&Classification) -> bool) -> usize {
        self.cells.iter().filter(|c| pred(&c.classification)).count()
    }

    fn schemes(&self) -> Vec<Scheme> {
        let mut out: Vec<Scheme> = Vec::new();
        for c in &self.cells {
            if !out.contains(&c.scheme) {
                out.push(c.scheme);
            }
        }
        out
    }

    fn classes(&self) -> Vec<FaultClass> {
        let mut out: Vec<FaultClass> = Vec::new();
        for c in &self.cells {
            if !out.contains(&c.class) {
                out.push(c.class);
            }
        }
        out
    }

    /// One `(scheme, class)` row: the cell count per [`KEYS`] column.
    fn tally(&self, scheme: Scheme, class: FaultClass) -> [usize; 4] {
        let mut t = [0; 4];
        for c in self.cells.iter().filter(|c| c.scheme == scheme && c.class == class) {
            t[KEYS.iter().position(|&k| k == c.classification.key()).expect("known key")] += 1;
        }
        t
    }

    /// The human-readable per-scheme resilience table.
    #[must_use]
    pub fn table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "fault-injection campaign: seed {}, {} programs, {} runs \
             ({} detected, {} masked, {} dormant, {} sdc, {} aborted)",
            self.seed,
            self.programs,
            self.cells.len(),
            self.detected(),
            self.masked(),
            self.dormant(),
            self.sdc(),
            self.aborted.len(),
        );
        let classes = self.classes();
        for scheme in self.schemes() {
            let runs = self.cells.iter().filter(|c| c.scheme == scheme).count();
            let _ = writeln!(out, "\nscheme `{}` ({} runs)", scheme.key(), runs);
            let [d, m, z, s] = KEYS;
            let _ = writeln!(out, "  {:<20} {d:>8} {m:>8} {z:>8} {s:>5}", "class");
            for class in &classes {
                let [d, m, z, s] = self.tally(scheme, *class);
                if d + m + z + s > 0 {
                    let _ = writeln!(out, "  {:<20} {d:>8} {m:>8} {z:>8} {s:>5}", class.key());
                }
            }
        }
        for c in
            self.cells.iter().filter(|c| matches!(c.classification, Classification::Sdc { .. }))
        {
            let Classification::Sdc { reason } = &c.classification else { continue };
            let _ = writeln!(
                out,
                "\nSDC: program {} scheme `{}` class `{}` ({}): {}",
                c.program,
                c.scheme.key(),
                c.class.key(),
                c.injection,
                reason
            );
            if let Some(p) = &c.reproducer {
                let _ = writeln!(out, "  reproducer: {}", p.display());
            }
        }
        for p in &self.panics {
            let _ = writeln!(
                out,
                "\njob error: cell {} attempt {} panicked ({}): {}",
                p.cell,
                p.attempt,
                if p.recovered { "recovered by retry" } else { "NOT recovered" },
                p.message
            );
        }
        for (pi, scheme, class) in &self.aborted {
            let _ = writeln!(
                out,
                "\naborted cell: program {pi} scheme `{}` class `{}` failed every attempt",
                scheme.key(),
                class.key()
            );
        }
        out
    }

    /// The machine-readable `RESILIENCE.json` document.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let classes = self.classes();
        let schemes = self.schemes().into_iter().map(|scheme| {
            let rows = classes.iter().filter_map(|&class| {
                let tally = self.tally(scheme, class);
                (tally.iter().sum::<usize>() > 0).then(|| {
                    let counts = KEYS.into_iter().zip(tally).map(|(k, n)| (k, Json::from(n)));
                    Json::obj(
                        std::iter::once(("class", Json::from(class.key()))).chain(counts).collect(),
                    )
                })
            });
            Json::obj(vec![
                ("scheme", Json::from(scheme.key())),
                ("classes", Json::Arr(rows.collect())),
            ])
        });
        let sdc_cells = self.cells.iter().filter_map(|c| {
            let Classification::Sdc { reason } = &c.classification else { return None };
            Some(Json::obj(vec![
                ("program", Json::from(c.program)),
                ("scheme", Json::from(c.scheme.key())),
                ("class", Json::from(c.class.key())),
                ("injection", Json::from(c.injection.as_str())),
                ("reason", Json::from(reason.as_str())),
                (
                    "reproducer",
                    c.reproducer
                        .as_ref()
                        .map_or(Json::Null, |p| Json::from(p.display().to_string())),
                ),
            ]))
        });
        let panics = self.panics.iter().map(|p| {
            Json::obj(vec![
                ("cell", Json::from(p.cell)),
                ("attempt", Json::from(u64::from(p.attempt))),
                ("recovered", Json::from(p.recovered)),
                ("message", Json::from(p.message.as_str())),
            ])
        });
        Json::obj(vec![
            ("seed", Json::from(self.seed)),
            ("programs", Json::from(self.programs)),
            ("runs", Json::from(self.cells.len())),
            ("detected", Json::from(self.detected())),
            ("masked", Json::from(self.masked())),
            ("dormant", Json::from(self.dormant())),
            ("sdc", Json::from(self.sdc())),
            ("aborted", Json::from(self.aborted.len())),
            ("schemes", Json::Arr(schemes.collect())),
            ("sdc_cells", Json::Arr(sdc_cells.collect())),
            ("panics", Json::Arr(panics.collect())),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CampaignReport {
        CampaignReport {
            seed: 42,
            programs: 1,
            cells: vec![
                CellOutcome {
                    program: 0,
                    scheme: Scheme::Base,
                    class: FaultClass::SpuriousWakeup,
                    injection: "SpuriousWakeup { nth: 3 }".to_string(),
                    classification: Classification::Detected { reason: "oracle".to_string() },
                    attempts: 1,
                    reproducer: None,
                },
                CellOutcome {
                    program: 0,
                    scheme: Scheme::Base,
                    class: FaultClass::DelayedSlowBus,
                    injection: "DelayedSlowBus { nth: 1 }".to_string(),
                    classification: Classification::Masked,
                    attempts: 2,
                    reproducer: None,
                },
                CellOutcome {
                    program: 0,
                    scheme: Scheme::Base,
                    class: FaultClass::StaleNowBits,
                    injection: "StaleNowBits { nth: 2 }".to_string(),
                    classification: Classification::Dormant,
                    attempts: 1,
                    reproducer: None,
                },
                CellOutcome {
                    program: 0,
                    scheme: Scheme::Combined,
                    class: FaultClass::PrematureHalt,
                    injection: "PrematureHalt { at_commit: 4 }".to_string(),
                    classification: Classification::Sdc { reason: "r3 \"differs\"".to_string() },
                    attempts: 1,
                    reproducer: None,
                },
            ],
            aborted: vec![(0, Scheme::Combined, FaultClass::TagBitFlip)],
            panics: vec![PanicEvent {
                cell: 7,
                attempt: 0,
                message: "planted".to_string(),
                recovered: true,
            }],
        }
    }

    #[test]
    fn counts_and_table() {
        let r = sample();
        assert_eq!((r.detected(), r.masked(), r.dormant(), r.sdc()), (1, 1, 1, 1));
        let t = r.table();
        assert!(t.contains("stale-now-bits              0        0        1     0"), "{t}");
        assert!(t.contains("scheme `base`"));
        assert!(t.contains("spurious-wakeup"));
        assert!(t.contains("SDC: program 0 scheme `combined`"));
        assert!(t.contains("recovered by retry"));
        assert!(t.contains("aborted cell"));
    }

    #[test]
    fn json_is_well_formed_enough_to_round_trip_quotes() {
        let j = hpa_core::obs::json::parse(&sample().to_json().render()).expect("valid JSON");
        assert_eq!(j.get("seed").and_then(Json::as_u64), Some(42));
        assert_eq!(j.get("sdc").and_then(Json::as_u64), Some(1));
        assert_eq!(j.get("dormant").and_then(Json::as_u64), Some(1));
        // The embedded quote in the SDC reason survives the round trip.
        let sdc = j.get("sdc_cells").and_then(Json::as_arr).expect("sdc_cells");
        assert_eq!(sdc.len(), 1);
        assert_eq!(sdc[0].get("reason").and_then(Json::as_str), Some("r3 \"differs\""));
        assert_eq!(sdc[0].get("reproducer"), Some(&Json::Null));
    }
}
