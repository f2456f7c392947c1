//! # hpa-bench — the experiment harness
//!
//! The library behind two `hpa` subcommands (see `DESIGN.md` §4 for the
//! index), both over one [`HarnessArgs`]:
//!
//! * `hpa report` regenerates every table and figure of the paper's
//!   evaluation, plus its circuit claims, and writes them to one report
//!   ([`write_report`]). It simulates one job list
//!   ([`ReportPrograms::jobs`]) on one pool: the sampled section's
//!   Long-scale references, then one observed sweep per selected width;
//!   every section is a view of the results;
//! * `hpa extensions` prints the experiments beyond the paper
//!   ([`extension_tables`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod experiments;
mod extensions;

pub use experiments::write_report;
pub use extensions::extension_tables;
use hpa_core::sim::SampleUnits;
use hpa_core::workloads::{workload, Scale, Workload};
use hpa_core::{run_all, MachineWidth, MatrixResult, Mode, RunResult, RunSpec, Scheme};

/// The harness options `hpa report` and `hpa extensions` share.
#[derive(Clone, Debug)]
pub struct HarnessArgs {
    /// Simulation scale.
    pub scale: Scale,
    /// Widths to simulate.
    pub widths: Vec<MachineWidth>,
    /// Benchmarks to run.
    pub benches: Vec<&'static str>,
    /// Worker threads for the simulated cells.
    pub jobs: usize,
    /// Report path ([`write_report`] writes its markdown there).
    pub out: String,
}

/// Figure 14: base, then sequential wakeup with the last-arrival
/// predictor, tag elimination and sequential wakeup's static policy.
pub const FIG14_SCHEMES: [Scheme; 4] =
    [Scheme::Base, Scheme::SeqWakeupPredictor, Scheme::TagElimination, Scheme::SeqWakeupStatic];

/// Figure 15: base, then sequential register access, an extra RF stage
/// and a half-ported crossbar file.
pub const FIG15_SCHEMES: [Scheme; 4] =
    [Scheme::Base, Scheme::SeqRegAccess, Scheme::ExtraRfStage, Scheme::HalfPortsCrossbar];

/// Figure 16: base, then the combined half-price architecture.
pub const FIG16_SCHEMES: [Scheme; 2] = [Scheme::Base, Scheme::Combined];

/// Every scheme the paper's evaluation simulates: the union of
/// [`FIG14_SCHEMES`], [`FIG15_SCHEMES`] and [`FIG16_SCHEMES`], base first.
/// [`write_report`] runs each selected width's sweep over these.
pub const PAPER_SCHEMES: [Scheme; 8] = [
    Scheme::Base,
    Scheme::SeqWakeupPredictor,
    Scheme::TagElimination,
    Scheme::SeqWakeupStatic,
    Scheme::SeqRegAccess,
    Scheme::ExtraRfStage,
    Scheme::HalfPortsCrossbar,
    Scheme::Combined,
];

/// The CPI-stack table's rows per benchmark: base, each half of the
/// half-price architecture alone, and the two combined.
pub const CPI_SCHEMES: [Scheme; 4] =
    [Scheme::Base, Scheme::SeqWakeupPredictor, Scheme::SeqRegAccess, Scheme::Combined];

/// The Long-scale workloads of the report's sampled section, longest
/// first: mcf's full-detail run takes about seven times gap's.
pub const SAMPLED_REFERENCES: [&str; 2] = ["mcf", "gap"];

/// What [`write_report`] simulates: the selected benchmarks at `--scale`
/// and, except at `--scale tiny` (the full-detail Long-scale runs alone
/// take minutes), the selected [`SAMPLED_REFERENCES`] at Long scale.
pub struct ReportPrograms {
    benches: Vec<Workload>,
    references: Vec<Workload>,
}

impl ReportPrograms {
    /// Builds the programs for `args`.
    #[must_use]
    pub fn build(args: &HarnessArgs) -> ReportPrograms {
        let build = |name, scale| workload(name, scale).expect("known name");
        let references = SAMPLED_REFERENCES
            .into_iter()
            .filter(|name| args.scale != Scale::Tiny && args.benches.contains(name));
        ReportPrograms {
            benches: args.benches.iter().map(|name| build(name, args.scale)).collect(),
            references: references.map(|name| build(name, Scale::Long)).collect(),
        }
    }

    /// The report's one job list, longest first: the references'
    /// full-detail runs, their sampled runs, then per width the selected
    /// benchmarks × [`PAPER_SCHEMES`] with counters if the width is in
    /// `--width`, else their plain base runs (Tables 2 and 3 show both).
    /// At `--scale long` a reference's full-detail run is also its
    /// benchmark's 4-wide base cell: it is listed once, at the head.
    #[must_use]
    pub fn jobs(&self, args: &HarnessArgs) -> Vec<RunSpec<'_>> {
        let base = |w| RunSpec::workload(w, Scheme::Base, MachineWidth::Four);
        // A reference that is also a sweep cell records the sweep's counters.
        let counters = args.scale == Scale::Long && args.widths.contains(&MachineWidth::Four);
        let reference = |w| RunSpec { counters, ..base(w) };
        let units = SampleUnits::new(2_000, 10_000, 488_000).expect("valid units");
        let mode = Mode::Sampled { units, seed: 42 };
        let sampled = self.references.iter().map(|w| RunSpec { mode, ..base(w) });
        let sweeps = MachineWidth::ALL.into_iter().flat_map(|width| {
            let counters = args.widths.contains(&width);
            self.benches.iter().flat_map(move |w| {
                let cell = move |&s| RunSpec { counters, ..RunSpec::workload(w, s, width) };
                let schemes = sweep_schemes(args, width).iter();
                schemes.filter(move |&&s| self.reference_of(args, w, s, width).is_none()).map(cell)
            })
        });
        self.references.iter().map(reference).chain(sampled).chain(sweeps).collect()
    }

    /// The reference whose full-detail run is the sweep cell `(w, scheme,
    /// width)`: at `--scale long` a reference's program is its
    /// benchmark's, so the 4-wide base cell is the same cell.
    fn reference_of(
        &self,
        args: &HarnessArgs,
        w: &Workload,
        scheme: Scheme,
        width: MachineWidth,
    ) -> Option<usize> {
        if args.scale != Scale::Long || (scheme, width) != (Scheme::Base, MachineWidth::Four) {
            return None;
        }
        self.references.iter().position(|r| r.name == w.name)
    }

    /// Runs [`ReportPrograms::jobs`] on one `--jobs` pool: one sweep per
    /// width of [`MachineWidth::ALL`], and each reference's `(full detail,
    /// sampled)` pair.
    ///
    /// # Panics
    ///
    /// Panics with the first failed cell's error, in list order.
    #[must_use]
    pub fn run(&self, args: &HarnessArgs) -> (Vec<MatrixResult>, Vec<(RunResult, RunResult)>) {
        let results = run_all(&self.jobs(args), args.jobs, progress);
        let mut results = results.into_iter().map(|r| r.unwrap_or_else(|e| panic!("{e}")));
        let full: Vec<_> = results.by_ref().take(self.references.len()).collect();
        let references: Vec<(RunResult, RunResult)> =
            full.into_iter().zip(results.by_ref()).collect();
        let sweeps = MachineWidth::ALL.map(|width| {
            let rows = self.benches.iter().map(|w| {
                sweep_schemes(args, width)
                    .iter()
                    .map(|&s| match self.reference_of(args, w, s, width) {
                        Some(i) => references[i].0.clone(),
                        None => results.next().expect("one result per listed cell"),
                    })
                    .collect()
            });
            MatrixResult { width, rows: rows.collect() }
        });
        (sweeps.into(), references)
    }
}

/// [`PAPER_SCHEMES`] at a width in `--width`, base alone at any other.
fn sweep_schemes(args: &HarnessArgs, width: MachineWidth) -> &'static [Scheme] {
    if args.widths.contains(&width) {
        &PAPER_SCHEMES
    } else {
        &[Scheme::Base]
    }
}

/// One stderr line per finished cell.
fn progress(r: &RunResult) {
    eprintln!(
        "  {} / {} [{}]: ipc {:.3}",
        r.workload,
        r.scheme.label(),
        r.width.label(),
        r.stats.ipc()
    );
}

/// The report's measured summary under a normalized-IPC figure: each
/// scheme's average and worst degradation against base.
#[must_use]
pub fn summary(m: &MatrixResult, schemes: &[Scheme]) -> String {
    let mut out = String::from("**Measured summary:**\n\n");
    for &s in schemes {
        let avg = m.average_degradation(s) * 100.0;
        let (wn, wd) = m.worst_degradation(s).unwrap_or(("-", 0.0));
        out.push_str(&format!(
            "- {}: average {avg:.1}% degradation, worst {:.1}% ({wn})\n",
            s.label(),
            wd * 100.0
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The report's list starts with its longest cell, the Long-scale mcf
    /// full-detail reference, and holds each cell once: at `--scale long`
    /// the references' 4-wide base cells are not listed again in the sweep.
    #[test]
    fn report_list_starts_with_the_mcf_reference_and_holds_each_cell_once() {
        for (scale, shared) in [(Scale::Default, 0), (Scale::Long, 2)] {
            let args = HarnessArgs {
                scale,
                widths: MachineWidth::ALL.to_vec(),
                benches: vec!["gap", "mcf"],
                jobs: 1,
                out: String::new(),
            };
            let programs = ReportPrograms::build(&args);
            let jobs = programs.jobs(&args);
            let key = |spec: &RunSpec<'_>| {
                let (seed, units) = match spec.mode {
                    Mode::Full => (0, None),
                    Mode::Sampled { units, seed } => (seed, Some(units)),
                };
                hpa_core::cell_key(spec.program, &spec.config, spec.scheme, seed, units)
            };
            let mcf = workload("mcf", Scale::Long).expect("known workload");
            let reference = RunSpec::workload(&mcf, Scheme::Base, MachineWidth::Four);
            assert_eq!(key(&jobs[0]), key(&reference), "{scale:?}");
            assert!(matches!(jobs[2].mode, Mode::Sampled { .. }), "then the sampled references");
            let cells = 2 * PAPER_SCHEMES.len() * MachineWidth::ALL.len();
            assert_eq!(jobs.len(), 4 + cells - shared, "{scale:?}");
            let mut keys: Vec<u64> = jobs.iter().map(key).collect();
            keys.sort_unstable();
            keys.dedup();
            assert_eq!(keys.len(), jobs.len(), "a cell is listed twice at {scale:?}");
        }
    }

    #[test]
    fn paper_schemes_are_the_union_of_the_figures_base_first() {
        assert_eq!(PAPER_SCHEMES[0], Scheme::Base);
        let figures = FIG14_SCHEMES.iter().chain(&FIG15_SCHEMES).chain(&FIG16_SCHEMES);
        for s in figures.chain(&CPI_SCHEMES) {
            assert!(PAPER_SCHEMES.contains(s), "{s:?} missing");
        }
        for (i, s) in PAPER_SCHEMES.iter().enumerate() {
            assert!(!PAPER_SCHEMES[..i].contains(s), "{s:?} twice");
            let in_a_figure =
                [&FIG14_SCHEMES[..], &FIG15_SCHEMES, &FIG16_SCHEMES].iter().any(|f| f.contains(s));
            assert!(in_a_figure, "{s:?} is in no figure");
        }
    }
}
