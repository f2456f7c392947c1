//! `reproduce_all` builds every table from one observed sweep per width.
//! These tests hold that sweep's views to the tables built from separate
//! runs: the per-figure matrices the `fig14`/`fig15`/`fig16` binaries run,
//! a separate observed matrix for the CPI stacks, and one base run per
//! benchmark for the characterization tables.

use hpa_bench::{
    base_column, paper_sweep, summary, HarnessArgs, CPI_SCHEMES, FIG14_SCHEMES, FIG15_SCHEMES,
    FIG16_SCHEMES,
};
use hpa_core::workloads::Scale;
use hpa_core::{report, run_matrix, run_workload, MachineWidth, MatrixResult, Scheme};

fn tiny_gcc_4wide() -> HarnessArgs {
    let argv: Vec<String> = ["--scale", "tiny", "--bench", "gcc", "--width", "4", "--jobs", "2"]
        .iter()
        .map(|s| (*s).to_string())
        .collect();
    HarnessArgs::parse_from(&argv)
}

fn separate(args: &HarnessArgs, schemes: &[Scheme], observe: bool) -> MatrixResult {
    run_matrix(&args.benches, args.scale, MachineWidth::Four, schemes, 1, observe, |_| {})
        .expect("runs")
}

#[test]
fn sweep_views_render_like_separate_matrices() {
    let args = tiny_gcc_4wide();
    let sweep = paper_sweep(&args, MachineWidth::Four);
    for schemes in [&FIG14_SCHEMES[..], &FIG15_SCHEMES, &FIG16_SCHEMES] {
        let own = separate(&args, schemes, false);
        let figure = |m| report::normalized_ipc_figure("Figure", m, &schemes[1..]).to_markdown();
        assert_eq!(figure(&sweep), figure(&own));
        assert_eq!(summary(&sweep, &schemes[1..]), summary(&own, &schemes[1..]));
    }
    let cpi = separate(&args, &CPI_SCHEMES, true);
    let stack = report::cpi_stack_table("CPI stack", &sweep, &CPI_SCHEMES).to_markdown();
    assert_eq!(stack, report::cpi_stack_table("CPI stack", &cpi, &CPI_SCHEMES).to_markdown());
    assert_eq!(stack.lines().count(), 4 + CPI_SCHEMES.len(), "one row per scheme:\n{stack}");
}

/// A width outside `--width` gets only its base column, and both widths'
/// base columns carry the statistics of a plain base run.
#[test]
fn base_columns_match_plain_base_runs() {
    let args = tiny_gcc_4wide();
    let eight = paper_sweep(&args, MachineWidth::Eight);
    assert!(eight.rows.iter().all(|row| row.len() == 1), "8-wide is not selected");
    assert_eq!(eight, base_column(&args, MachineWidth::Eight));
    let four = paper_sweep(&args, MachineWidth::Four);
    for (m, width) in [(&four, MachineWidth::Four), (&eight, MachineWidth::Eight)] {
        let column = m.column(Scheme::Base);
        let plain = run_workload("gcc", Scale::Tiny, width, Scheme::Base).expect("runs");
        assert_eq!(column, [("gcc", &plain.stats)], "{width:?}");
    }
}
