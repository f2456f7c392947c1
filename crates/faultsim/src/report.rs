//! Campaign results: aggregation, the human-readable table, and the
//! `RESILIENCE.json` document (an [`hpa_core::obs::json::Json`] value).

use crate::classify::Classification;
use crate::model::FaultClass;
use hpa_core::obs::json::Json;
use hpa_core::sim::FaultInjection;
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
    /// The concrete injection the cell ran with (SDC shrinking re-runs
    /// it).
    pub injection: FaultInjection,
    /// AVF classification of the run.
    pub classification: Classification,
    /// Where the shrunk reproducer was written, for SDC cells with a
    /// corpus directory configured.
    pub reproducer: Option<PathBuf>,
}

/// A `(program, scheme, fault-class)` cell whose run panicked: it has no
/// classification, only the panic caught at the job boundary.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct AbortedCell {
    /// Index of the generated program.
    pub program: u64,
    /// The scheme the cell ran under.
    pub scheme: Scheme,
    /// The injected fault class.
    pub class: FaultClass,
    /// The panic payload rendered as text.
    pub message: String,
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
    /// Cells whose run panicked, in row-major order.
    pub aborted: Vec<AbortedCell>,
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
                "\nSDC: program {} scheme `{}` class `{}` ({:?}): {}",
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
        for a in &self.aborted {
            let _ = writeln!(
                out,
                "\naborted cell: program {} scheme `{}` class `{}` panicked: {}",
                a.program,
                a.scheme.key(),
                a.class.key(),
                a.message
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
                ("injection", Json::from(format!("{:?}", c.injection))),
                ("reason", Json::from(reason.as_str())),
                (
                    "reproducer",
                    c.reproducer
                        .as_ref()
                        .map_or(Json::Null, |p| Json::from(p.display().to_string())),
                ),
            ]))
        });
        let aborted_cells = self.aborted.iter().map(|a| {
            Json::obj(vec![
                ("program", Json::from(a.program)),
                ("scheme", Json::from(a.scheme.key())),
                ("class", Json::from(a.class.key())),
                ("message", Json::from(a.message.as_str())),
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
            ("aborted_cells", Json::Arr(aborted_cells.collect())),
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
                    injection: FaultInjection::SpuriousWakeup { nth: 3 },
                    classification: Classification::Detected { reason: "oracle".to_string() },
                    reproducer: None,
                },
                CellOutcome {
                    program: 0,
                    scheme: Scheme::Base,
                    class: FaultClass::DelayedSlowBus,
                    injection: FaultInjection::DelayedSlowBus { nth: 1 },
                    classification: Classification::Masked,
                    reproducer: None,
                },
                CellOutcome {
                    program: 0,
                    scheme: Scheme::Base,
                    class: FaultClass::StaleNowBits,
                    injection: FaultInjection::StaleNowBits { nth: 2 },
                    classification: Classification::Dormant,
                    reproducer: None,
                },
                CellOutcome {
                    program: 0,
                    scheme: Scheme::Combined,
                    class: FaultClass::PrematureHalt,
                    injection: FaultInjection::PrematureHalt { at_commit: 4 },
                    classification: Classification::Sdc { reason: "r3 \"differs\"".to_string() },
                    reproducer: None,
                },
            ],
            aborted: vec![AbortedCell {
                program: 0,
                scheme: Scheme::Combined,
                class: FaultClass::TagBitFlip,
                message: "planted \"panic\"".to_string(),
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
        assert!(t.contains(
            "aborted cell: program 0 scheme `combined` class `tag-bit-flip` panicked: planted"
        ));
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
        assert_eq!(
            sdc[0].get("injection").and_then(Json::as_str),
            Some("PrematureHalt { at_commit: 4 }")
        );
        assert_eq!(sdc[0].get("reproducer"), Some(&Json::Null));
        let aborted = j.get("aborted_cells").and_then(Json::as_arr).expect("aborted_cells");
        assert_eq!(aborted.len(), 1);
        assert_eq!(aborted[0].get("class").and_then(Json::as_str), Some("tag-bit-flip"));
        assert_eq!(aborted[0].get("message").and_then(Json::as_str), Some("planted \"panic\""));
    }
}
