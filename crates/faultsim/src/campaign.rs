//! Campaign specification, the hardened runner, and SDC auto-shrinking.

use crate::classify::{classify_injected, Classification};
use crate::model::FaultClass;
use crate::report::{AbortedCell, CampaignReport, CellOutcome};
use hpa_core::workloads::SplitMix64;
use hpa_core::{default_jobs, parallel_map_isolated, Scheme};
use hpa_verify::{program_rng, shrink, write_reproducer, GenProgram, Variant, FUZZ_SCHEMES};
use std::path::PathBuf;

/// At most this many SDC cells are shrunk and persisted per campaign —
/// shrinking re-simulates heavily, and one reproducer per defect is
/// normally all a debugging session needs.
const MAX_SHRUNK: usize = 4;

/// A fully-resolved campaign descriptor. Every run of the campaign is
/// reproducible from this value alone: programs and injection parameters
/// all derive from `seed` and the cell's matrix position.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CampaignSpec {
    /// Number of seeded random programs.
    pub programs: u64,
    /// Schemes each program runs under.
    pub schemes: Vec<Scheme>,
    /// Fault classes injected into each `(program, scheme)` pair.
    pub classes: Vec<FaultClass>,
    /// Master seed.
    pub seed: u64,
    /// Worker threads.
    pub jobs: usize,
    /// Watchdog cycle budget per run: a hang becomes a structured,
    /// Detected deadlock at this cycle count.
    pub cycle_budget: u64,
    /// Deliberately panic this row-major cell index (robustness
    /// self-test: the panic must surface as an aborted cell, not kill the
    /// campaign).
    pub plant_panic: Option<usize>,
    /// Where shrunk SDC reproducers are written (`None` to skip).
    pub corpus_dir: Option<PathBuf>,
}

impl CampaignSpec {
    /// The default (`mini`) campaign: 5 programs × the 4 differential
    /// schemes × all 7 fault classes = 140 injected runs.
    #[must_use]
    pub fn mini(seed: u64) -> CampaignSpec {
        CampaignSpec {
            programs: 5,
            schemes: FUZZ_SCHEMES.to_vec(),
            classes: FaultClass::CAMPAIGN.to_vec(),
            seed,
            jobs: default_jobs(),
            cycle_budget: 50_000,
            plant_panic: None,
            corpus_dir: None,
        }
    }

    /// Parses a campaign spec string: a preset (`mini`, `full`) and/or
    /// comma-separated `key=value` overrides.
    ///
    /// Keys: `programs=N`, `budget=N`, `classes=a+b+...`,
    /// `schemes=a+b+...`, `plant-panic=N`, `plant-sdc`.
    ///
    /// # Errors
    ///
    /// A message naming the offending item.
    pub fn parse(spec: &str, seed: u64) -> Result<CampaignSpec, String> {
        let mut out = CampaignSpec::mini(seed);
        for item in spec.split(',').map(str::trim).filter(|s| !s.is_empty()) {
            match item.split_once('=') {
                None => match item {
                    "mini" => {}
                    "full" => out.programs = 25,
                    // Self-test: add the one class that *does* corrupt
                    // silently, to prove the SDC classifier and shrinker
                    // react.
                    "plant-sdc" => out.classes.push(FaultClass::PrematureHalt),
                    other => return Err(format!("unknown campaign item `{other}`")),
                },
                Some((key, value)) => match key {
                    "programs" => {
                        out.programs = parse_num(key, value)?;
                        if out.programs == 0 {
                            return Err("programs must be positive".to_string());
                        }
                    }
                    "budget" => {
                        out.cycle_budget = parse_num(key, value)?;
                        if out.cycle_budget == 0 {
                            return Err("budget must be positive".to_string());
                        }
                    }
                    "plant-panic" => out.plant_panic = Some(parse_num(key, value)?),
                    "classes" => {
                        out.classes = value
                            .split('+')
                            .map(|k| {
                                FaultClass::from_key(k.trim())
                                    .ok_or_else(|| format!("unknown fault class `{k}`"))
                            })
                            .collect::<Result<_, _>>()?;
                    }
                    "schemes" => {
                        out.schemes = value
                            .split('+')
                            .map(|k| {
                                Scheme::from_key(k.trim())
                                    .ok_or_else(|| format!("unknown scheme `{k}`"))
                            })
                            .collect::<Result<_, _>>()?;
                    }
                    other => return Err(format!("unknown campaign key `{other}`")),
                },
            }
        }
        if out.schemes.is_empty() || out.classes.is_empty() {
            return Err("campaign needs at least one scheme and one fault class".to_string());
        }
        Ok(out)
    }

    /// Total cells in the campaign matrix.
    #[must_use]
    pub fn runs(&self) -> usize {
        self.programs as usize * self.schemes.len() * self.classes.len()
    }
}

fn parse_num<T: std::str::FromStr>(key: &str, value: &str) -> Result<T, String> {
    value.parse().map_err(|_| format!("bad value `{value}` for `{key}`"))
}

/// One `(program, scheme, class)` point of the campaign matrix.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct Cell {
    program: u64,
    scheme: Scheme,
    class: FaultClass,
}

/// The per-cell injection stream, keyed by the cell's row-major index.
fn cell_rng(seed: u64, cell_index: usize) -> SplitMix64 {
    SplitMix64::new(seed ^ (cell_index as u64).wrapping_mul(0xA076_1D64_78BD_642F))
}

/// Runs the campaign described by `spec`.
///
/// Every cell runs once, behind [`parallel_map_isolated`]: a panicking
/// cell becomes an [`AbortedCell`] carrying its panic message instead of
/// killing the matrix, and hangs are cut by the per-run cycle budget. All
/// cells run at the default fuzz [`Variant`]; scheme timing differences
/// come from the scheme axis itself. Any SDC cell is auto-shrunk through
/// the differential shrinker and written to the corpus directory.
#[must_use]
pub fn run_campaign(spec: &CampaignSpec) -> CampaignReport {
    let gens: Vec<GenProgram> =
        (0..spec.programs).map(|pi| GenProgram::random(&mut program_rng(spec.seed, pi))).collect();
    let programs: Vec<_> = gens.iter().map(GenProgram::lower).collect();

    let mut cells = Vec::with_capacity(spec.runs());
    for pi in 0..spec.programs {
        for &scheme in &spec.schemes {
            for &class in &spec.classes {
                cells.push(Cell { program: pi, scheme, class });
            }
        }
    }

    let outs = parallel_map_isolated(&cells, spec.jobs, |idx, cell| {
        if spec.plant_panic == Some(idx) {
            panic!("planted campaign panic in cell {idx}");
        }
        let injection = cell.class.instantiate(&mut cell_rng(spec.seed, idx));
        let classification = classify_injected(
            &programs[cell.program as usize],
            Variant::default().configure(cell.scheme),
            injection,
            spec.cycle_budget,
        );
        CellOutcome {
            program: cell.program,
            scheme: cell.scheme,
            class: cell.class,
            injection,
            classification,
            reproducer: None,
        }
    });
    let mut report =
        CampaignReport { seed: spec.seed, programs: spec.programs, cells: vec![], aborted: vec![] };
    for (cell, out) in cells.iter().zip(outs) {
        match out {
            Ok(outcome) => report.cells.push(outcome),
            Err(e) => report.aborted.push(AbortedCell {
                program: cell.program,
                scheme: cell.scheme,
                class: cell.class,
                message: e.message,
            }),
        }
    }

    // SDC post-processing: shrink the offending program while the same
    // injection still classifies as SDC, then persist a reproducer.
    let Some(dir) = &spec.corpus_dir else { return report };
    let sdc_cells = report
        .cells
        .iter_mut()
        .filter(|c| matches!(c.classification, Classification::Sdc { .. }))
        .take(MAX_SHRUNK);
    for out in sdc_cells {
        let is_sdc = |g: &GenProgram| {
            let config = Variant::default().configure(out.scheme);
            matches!(
                classify_injected(&g.lower(), config, out.injection, spec.cycle_budget),
                Classification::Sdc { .. }
            )
        };
        let gen = &gens[out.program as usize];
        let small = if is_sdc(gen) { shrink(gen, is_sdc) } else { gen.clone() };
        let stem = format!(
            "fault-{:016x}-p{}-{}-{}",
            spec.seed,
            out.program,
            out.scheme.key(),
            out.class.key()
        );
        out.reproducer =
            write_reproducer(dir, &stem, &small.lower(), out.scheme, Variant::default()).ok();
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_spec(seed: u64) -> CampaignSpec {
        CampaignSpec {
            programs: 1,
            schemes: vec![Scheme::Base, Scheme::Combined],
            classes: vec![FaultClass::SpuriousWakeup, FaultClass::ReadPortStorm],
            seed,
            jobs: 2,
            cycle_budget: 50_000,
            plant_panic: None,
            corpus_dir: None,
        }
    }

    #[test]
    fn spec_parsing_presets_and_overrides() {
        let mini = CampaignSpec::parse("mini", 42).expect("parses");
        assert_eq!(mini.programs, 5);
        assert_eq!(mini.runs(), 5 * 4 * 7);
        let full = CampaignSpec::parse("full", 1).expect("parses");
        assert_eq!(full.programs, 25);
        let custom = CampaignSpec::parse(
            "programs=2, budget=1000, classes=tag-bit-flip+dropped-wakeup, schemes=base, \
             plant-panic=0",
            9,
        )
        .expect("parses");
        assert_eq!(custom.programs, 2);
        assert_eq!(custom.cycle_budget, 1000);
        assert_eq!(custom.classes, vec![FaultClass::TagBitFlip, FaultClass::DroppedWakeup]);
        assert_eq!(custom.schemes, vec![Scheme::Base]);
        assert_eq!(custom.plant_panic, Some(0));
        assert_eq!(custom.runs(), 4);
    }

    #[test]
    fn spec_parsing_rejects_junk() {
        assert!(CampaignSpec::parse("nonesuch", 1).is_err());
        assert!(CampaignSpec::parse("programs=zero", 1).is_err());
        assert!(CampaignSpec::parse("programs=0", 1).is_err());
        assert!(CampaignSpec::parse("classes=bogus", 1).is_err());
        assert!(CampaignSpec::parse("schemes=", 1).is_err());
        assert!(CampaignSpec::parse("retries=1", 1).is_err());
    }

    #[test]
    fn campaign_is_deterministic() {
        let spec = quick_spec(11);
        let a = run_campaign(&spec);
        let b = run_campaign(&spec);
        assert_eq!(a, b);
        assert_eq!(a.cells.len(), spec.runs());
        assert!(a.aborted.is_empty());
    }

    /// Pins the `mini` campaign's outcome counts at seed 42. A squash
    /// re-derives the readiness of every waiting instruction, which is
    /// what heals a lost wakeup into a masked run; a change to that rule,
    /// or to any injector, has to move these counts on purpose.
    #[test]
    fn mini_campaign_counts_at_seed_42_are_pinned() {
        let report = run_campaign(&CampaignSpec { jobs: 2, ..CampaignSpec::mini(42) });
        let counts = (report.detected(), report.masked(), report.dormant(), report.sdc());
        assert_eq!(counts, (9, 50, 81, 0), "detected, masked, dormant, sdc");
        assert!(report.aborted.is_empty());
    }

    #[test]
    fn campaign_fault_classes_never_corrupt_silently() {
        let report = run_campaign(&quick_spec(5));
        assert_eq!(report.sdc(), 0, "speculation-free classes produced SDC: {report:?}");
    }

    #[test]
    fn planted_panic_aborts_only_that_cell_with_its_message() {
        let mut spec = quick_spec(7);
        spec.plant_panic = Some(2);
        let report = run_campaign(&spec);
        assert_eq!(report.cells.len(), spec.runs() - 1);
        // Row-major cell 2 is (program 0, scheme `combined`, first class).
        assert_eq!(report.aborted.len(), 1);
        let aborted = &report.aborted[0];
        assert_eq!(
            (aborted.program, aborted.scheme, aborted.class),
            (0, Scheme::Combined, FaultClass::SpuriousWakeup)
        );
        assert_eq!(aborted.message, "planted campaign panic in cell 2");
        // Every other cell ran its own injection, as in a campaign with
        // nothing planted.
        let clean = run_campaign(&quick_spec(7));
        let mut expected = clean.cells;
        expected.remove(2);
        assert_eq!(report.cells, expected);
    }

    #[test]
    fn planted_sdc_is_classified_shrunk_and_persisted() {
        let dir = std::env::temp_dir().join("hpa-faultsim-sdc-test");
        let _ = std::fs::remove_dir_all(&dir);
        let mut spec = quick_spec(3);
        spec.schemes = vec![Scheme::Base];
        spec.classes = vec![FaultClass::PrematureHalt];
        spec.corpus_dir = Some(dir.clone());
        let report = run_campaign(&spec);
        assert!(report.sdc() >= 1, "planted SDC not classified: {report:?}");
        let sdc_cell = report
            .cells
            .iter()
            .find(|c| matches!(c.classification, Classification::Sdc { .. }))
            .expect("sdc cell");
        let path = sdc_cell.reproducer.as_ref().expect("reproducer written");
        assert!(path.exists());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
