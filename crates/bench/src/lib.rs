//! # hpa-bench — shared plumbing for the experiment harness binaries
//!
//! Each `src/bin/*` binary regenerates one table or figure of the paper
//! (see `DESIGN.md` §4 for the index). All binaries accept:
//!
//! ```text
//! --scale tiny|default|large|long   simulation length per benchmark
//! --width 4|8|both             machine width(s) to simulate
//! --bench <name>...            subset of benchmarks (default: all 12)
//! --jobs N                     worker threads for matrix sweeps
//!                              (default: host parallelism)
//! --out PATH                   where `reproduce_all` writes its report
//!                              (default: EXPERIMENTS.md)
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use hpa_core::workloads::{Scale, WORKLOAD_NAMES};
use hpa_core::{run_matrix, MachineWidth, MatrixResult, RunResult, Scheme};

/// Parsed command-line options shared by every harness binary.
#[derive(Clone, Debug)]
pub struct HarnessArgs {
    /// Simulation scale.
    pub scale: Scale,
    /// Widths to simulate.
    pub widths: Vec<MachineWidth>,
    /// Benchmarks to run.
    pub benches: Vec<&'static str>,
    /// Worker threads for `benchmarks × schemes` sweeps.
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

/// The sweep `reproduce_all` builds every section from: the selected
/// benchmarks × [`PAPER_SCHEMES`] at `width`, with each cell's counters
/// recorded for the CPI stacks. A width outside `--width` gets only its
/// base column ([`base_column`]), which Tables 2 and 3 read at both
/// widths.
#[must_use]
pub fn paper_sweep(args: &HarnessArgs, width: MachineWidth) -> MatrixResult {
    if !args.widths.contains(&width) {
        return base_column(args, width);
    }
    run_matrix(&args.benches, args.scale, width, &PAPER_SCHEMES, args.jobs, true, progress)
        .unwrap_or_else(|e| panic!("{e}"))
}

/// The base machine over the selected benchmarks at one width, the input
/// of the characterization figures (read it with
/// [`MatrixResult::column`]).
#[must_use]
pub fn base_column(args: &HarnessArgs, width: MachineWidth) -> MatrixResult {
    run_matrix(&args.benches, args.scale, width, &[Scheme::Base], args.jobs, false, progress)
        .unwrap_or_else(|e| panic!("{e}"))
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
