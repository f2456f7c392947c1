//! # hpa-bench — the experiment harness
//!
//! Two binaries (see `DESIGN.md` §4 for the index):
//!
//! * `reproduce_all` regenerates every table and figure of the paper's
//!   evaluation, plus its circuit claims, and writes them to one report.
//!   It simulates one job list ([`ReportPrograms::jobs`]) on one pool:
//!   the sampled section's Long-scale references, then one observed
//!   sweep per selected width; every section is a view of the results;
//! * `extensions` prints the experiments beyond the paper
//!   ([`extension_tables`]).
//!
//! Both accept:
//!
//! ```text
//! --scale tiny|default|large|long   simulation length per benchmark
//! --width 4|8|both             machine width(s) to simulate
//! --bench <name>...            subset of benchmarks (default: all 12)
//! --jobs N                     worker threads for the simulated cells
//!                              (default: host parallelism)
//! --out PATH                   where `reproduce_all` writes its report
//!                              (default: EXPERIMENTS.md)
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod extensions;

pub use extensions::extension_tables;
use hpa_core::sim::SampleUnits;
use hpa_core::workloads::{workload, Scale, Workload, WORKLOAD_NAMES};
use hpa_core::{run_all, MachineWidth, MatrixResult, Mode, RunResult, RunSpec, Scheme};

/// Parsed command-line options shared by both harness binaries.
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
    /// Report path (`reproduce_all` writes its markdown there).
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
/// `reproduce_all` runs each selected width's sweep over these.
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

impl HarnessArgs {
    /// Parses `std::env::args`, exiting with a usage message on errors.
    #[must_use]
    pub fn parse() -> HarnessArgs {
        let argv: Vec<String> = std::env::args().skip(1).collect();
        HarnessArgs::parse_from(&argv)
    }

    /// Parses an explicit argument list (see [`HarnessArgs::parse`]).
    #[must_use]
    pub fn parse_from(argv: &[String]) -> HarnessArgs {
        let mut args = HarnessArgs {
            scale: Scale::Default,
            widths: vec![MachineWidth::Four, MachineWidth::Eight],
            benches: WORKLOAD_NAMES.to_vec(),
            jobs: hpa_core::default_jobs(),
            out: "EXPERIMENTS.md".into(),
        };
        let mut it = argv.iter().map(String::as_str);
        let mut benches: Vec<&'static str> = Vec::new();
        while let Some(a) = it.next() {
            match a {
                "--scale" => {
                    let key = it.next();
                    args.scale = key
                        .and_then(Scale::from_key)
                        .unwrap_or_else(|| usage(&format!("bad --scale {key:?}")));
                }
                "--width" => {
                    args.widths = match it.next() {
                        Some("4") => vec![MachineWidth::Four],
                        Some("8") => vec![MachineWidth::Eight],
                        Some("both") => vec![MachineWidth::Four, MachineWidth::Eight],
                        other => usage(&format!("bad --width {other:?}")),
                    }
                }
                "--bench" => {
                    let name = it.next().unwrap_or_default();
                    match WORKLOAD_NAMES.iter().find(|n| **n == name) {
                        Some(n) => benches.push(n),
                        None => usage(&format!("unknown benchmark `{name}`")),
                    }
                }
                "--jobs" => {
                    args.jobs = match it.next().and_then(|v| v.parse().ok()) {
                        Some(n) if n >= 1 => n,
                        _ => usage("bad --jobs (want an integer >= 1)"),
                    }
                }
                "--out" => match it.next() {
                    Some(path) => args.out = path.into(),
                    None => usage("--out needs a path"),
                },
                "--help" | "-h" => usage(""),
                other => usage(&format!("unknown option `{other}`")),
            }
        }
        if !benches.is_empty() {
            args.benches = benches;
        }
        args
    }
}

fn usage(err: &str) -> ! {
    if !err.is_empty() {
        eprintln!("error: {err}");
    }
    eprintln!(
        "usage: <bin> [--scale tiny|default|large|long] [--width 4|8|both] [--bench NAME]... \
         [--jobs N] [--out PATH]"
    );
    std::process::exit(if err.is_empty() { 0 } else { 2 });
}

/// The Long-scale workloads of the report's sampled section, longest
/// first: mcf's full-detail run takes about seven times gap's.
pub const SAMPLED_REFERENCES: [&str; 2] = ["mcf", "gap"];

/// What `reproduce_all` simulates: the selected benchmarks at `--scale`
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

    fn sv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| (*s).to_string()).collect()
    }

    #[test]
    fn defaults_cover_everything() {
        let a = HarnessArgs::parse_from(&[]);
        assert_eq!(a.scale, Scale::Default);
        assert_eq!(a.widths, vec![MachineWidth::Four, MachineWidth::Eight]);
        assert_eq!(a.benches.len(), 12);
    }

    #[test]
    fn scale_width_and_bench_filters() {
        let a = HarnessArgs::parse_from(&sv(&[
            "--scale", "tiny", "--width", "8", "--bench", "mcf", "--bench", "gcc",
        ]));
        assert_eq!(a.scale, Scale::Tiny);
        assert_eq!(a.widths, vec![MachineWidth::Eight]);
        assert_eq!(a.benches, vec!["mcf", "gcc"]);
        let b = HarnessArgs::parse_from(&sv(&["--width", "both", "--scale", "large"]));
        assert_eq!(b.widths.len(), 2);
        assert_eq!(b.scale, Scale::Large);
    }

    #[test]
    fn out_flag_sets_the_report_path() {
        assert_eq!(HarnessArgs::parse_from(&[]).out, "EXPERIMENTS.md");
        let a = HarnessArgs::parse_from(&sv(&["--out", "/tmp/report.md", "--scale", "tiny"]));
        assert_eq!(a.out, "/tmp/report.md");
        assert_eq!(a.scale, Scale::Tiny, "flags after --out still parse");
    }

    #[test]
    fn jobs_flag_overrides_host_parallelism() {
        let a = HarnessArgs::parse_from(&sv(&["--jobs", "3"]));
        assert_eq!(a.jobs, 3);
        assert!(HarnessArgs::parse_from(&[]).jobs >= 1);
    }

    #[test]
    fn scale_keys_parse() {
        for scale in Scale::ALL {
            assert_eq!(HarnessArgs::parse_from(&sv(&["--scale", scale.key()])).scale, scale);
        }
    }

    /// The report's list starts with its longest cell, the Long-scale mcf
    /// full-detail reference, and holds each cell once: at `--scale long`
    /// the references' 4-wide base cells are not listed again in the sweep.
    #[test]
    fn report_list_starts_with_the_mcf_reference_and_holds_each_cell_once() {
        for (scale, shared) in [("default", 0), ("long", 2)] {
            let args = HarnessArgs::parse_from(&sv(&[
                "--scale", scale, "--bench", "gap", "--bench", "mcf",
            ]));
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
            assert_eq!(key(&jobs[0]), key(&reference), "{scale}");
            assert!(matches!(jobs[2].mode, Mode::Sampled { .. }), "then the sampled references");
            let cells = 2 * PAPER_SCHEMES.len() * MachineWidth::ALL.len();
            assert_eq!(jobs.len(), 4 + cells - shared, "{scale}");
            let mut keys: Vec<u64> = jobs.iter().map(key).collect();
            keys.sort_unstable();
            keys.dedup();
            assert_eq!(keys.len(), jobs.len(), "a cell is listed twice at {scale}");
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
