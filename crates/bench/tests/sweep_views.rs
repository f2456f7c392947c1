//! `reproduce_all` builds every table from one job list. These tests hold
//! that list's views to the tables built from separate runs: the
//! per-figure matrices, a separate observed matrix for the CPI stacks,
//! and one plain base run per benchmark for the characterization tables.

use hpa_bench::{
    summary, HarnessArgs, ReportPrograms, CPI_SCHEMES, FIG14_SCHEMES, FIG15_SCHEMES, FIG16_SCHEMES,
};
use hpa_core::workloads::Scale;
use hpa_core::{report, run_matrix, run_workload, MachineWidth, MatrixResult, RunResult, Scheme};

fn tiny_gcc_4wide() -> HarnessArgs {
    let argv: Vec<String> = ["--scale", "tiny", "--bench", "gcc", "--width", "4", "--jobs", "2"]
        .iter()
        .map(|s| (*s).to_string())
        .collect();
    HarnessArgs::parse_from(&argv)
}

/// The report's sweeps and Long-scale references, from its one list.
fn report_runs(args: &HarnessArgs) -> (Vec<MatrixResult>, Vec<(RunResult, RunResult)>) {
    ReportPrograms::build(args).run(args)
}

fn sweep(sweeps: &[MatrixResult], width: MachineWidth) -> &MatrixResult {
    sweeps.iter().find(|m| m.width == width).expect("every width is swept")
}

fn separate(
    args: &HarnessArgs,
    width: MachineWidth,
    schemes: &[Scheme],
    observe: bool,
) -> MatrixResult {
    run_matrix(&args.benches, args.scale, width, schemes, 1, observe, |_| {}).expect("runs")
}

#[test]
fn sweep_views_render_like_separate_matrices() {
    let args = tiny_gcc_4wide();
    let (sweeps, _) = report_runs(&args);
    let sweep = sweep(&sweeps, MachineWidth::Four);
    for schemes in [&FIG14_SCHEMES[..], &FIG15_SCHEMES, &FIG16_SCHEMES] {
        let own = separate(&args, MachineWidth::Four, schemes, false);
        let figure = |m| report::normalized_ipc_figure("Figure", m, &schemes[1..]).to_markdown();
        assert_eq!(figure(sweep), figure(&own));
        assert_eq!(summary(sweep, &schemes[1..]), summary(&own, &schemes[1..]));
    }
    let cpi = separate(&args, MachineWidth::Four, &CPI_SCHEMES, true);
    let stack = report::cpi_stack_table("CPI stack", sweep, &CPI_SCHEMES).to_markdown();
    assert_eq!(stack, report::cpi_stack_table("CPI stack", &cpi, &CPI_SCHEMES).to_markdown());
    assert_eq!(stack.lines().count(), 4 + CPI_SCHEMES.len(), "one row per scheme:\n{stack}");
}

/// A width outside `--width` holds exactly the plain base runs, and both
/// widths' base columns carry the statistics of a plain base run. A tiny
/// report lists no Long-scale references.
#[test]
fn base_columns_match_plain_base_runs() {
    let args = tiny_gcc_4wide();
    let (sweeps, references) = report_runs(&args);
    assert!(references.is_empty());
    let eight = sweep(&sweeps, MachineWidth::Eight);
    assert_eq!(*eight, separate(&args, MachineWidth::Eight, &[Scheme::Base], false));
    for width in MachineWidth::ALL {
        let column = sweep(&sweeps, width).column(Scheme::Base);
        let plain = run_workload("gcc", Scale::Tiny, width, Scheme::Base).expect("runs");
        assert_eq!(column, [("gcc", &plain.stats)], "{width:?}");
    }
}
