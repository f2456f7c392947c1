//! The paper's report, written by `hpa report`: every table and figure
//! of the paper's evaluation in one pass, alongside the paper's reported
//! values, in one markdown file.
//!
//! Everything the report simulates is one job list on one pool
//! ([`ReportPrograms`]); every table and figure is a view of its results.

use crate::{
    summary, HarnessArgs, ReportPrograms, CPI_SCHEMES, FIG14_SCHEMES, FIG15_SCHEMES, FIG16_SCHEMES,
};
use hpa_core::circuits::{EnergyModel, RegFileDelayModel, WakeupDelayModel};
use hpa_core::report::{self, BaseRuns, Table};
use hpa_core::workloads::Scale;
use hpa_core::{MachineWidth, RunResult, Scheme};
use std::fmt::Write as _;
use std::time::Instant;

/// Simulates the report's job list for `args` and writes the report to
/// `args.out`; a failed cell panics ([`ReportPrograms::run`]).
pub fn write_report(args: &HarnessArgs) -> std::io::Result<()> {
    let out = &args.out;
    let t0 = Instant::now();
    let mut md = String::new();

    let _ = writeln!(
        md,
        "# EXPERIMENTS — paper vs. measured\n\n\
         Regenerated by `hpa report` (scale: {}).\n\n\
         Every row is measured on this repository's from-scratch simulator and \
         workloads; the *paper* column quotes Kim & Lipasti (ISCA 2003). \
         Workloads are stand-ins for SPEC CINT2000 (see `DESIGN.md` §2), so \
         *shapes and orderings* are the reproduction target, not absolute \
         values.\n",
        args.scale.key()
    );

    let (sweeps, references) = ReportPrograms::build(args).run(args);
    let sweep = |width| sweeps.iter().find(|m| m.width == width).expect("every width is swept");
    let four = sweep(MachineWidth::Four).column(Scheme::Base);
    let eight = sweep(MachineWidth::Eight).column(Scheme::Base);

    let push = |md: &mut String, t: &Table, paper: &str| {
        let _ = writeln!(md, "{}", t.to_markdown());
        let _ = writeln!(md, "**Paper:** {paper}\n");
    };

    push(
        &mut md,
        &report::table2(&four, &eight),
        "base IPCs 0.71 (mcf) – 2.02 (vortex) at 4-wide, 0.93–2.95 at 8-wide; \
         measured IPCs land in the same band with mcf/perl lowest and \
         vortex/twolf/eon highest.",
    );
    push(
        &mut md,
        &report::figure2(&four),
        "18–36% of dynamic instructions have 2-source format, plus stores \
         reported separately.",
    );
    push(
        &mut md,
        &report::figure3(&four),
        "6–23% of dynamic instructions are 2-source instructions (two unique \
         non-zero source registers); Alpha alignment nops appear as their own \
         slice.",
    );
    // The characterization figures that depend on the machine, at both
    // widths, like Tables 2 and 3.
    let push_widths = |md: &mut String, figure: fn(BaseRuns<'_>) -> Table, paper: &str| {
        for (base, width) in [(&four, MachineWidth::Four), (&eight, MachineWidth::Eight)] {
            let mut t = figure(base);
            t.title = format!("{} [{}]", t.title, width.label());
            let _ = writeln!(md, "{}", t.to_markdown());
        }
        let _ = writeln!(md, "**Paper:** {paper}\n");
    };

    push_widths(
        &mut md,
        report::figure4,
        "only 4–16% of 2-source instructions have both operands pending (0 \
         ready) at insert. Measured values run higher for the loop-dominated \
         stand-in kernels (hand-written kernels have shorter def-use \
         distances than compiled SPEC code) — see the divergence notes.",
    );
    push_widths(
        &mut md,
        report::figure6,
        "the vast majority of 2-pending-source instructions have >=1 cycle of \
         wakeup slack; <3% wake simultaneously.",
    );
    push(
        &mut md,
        &report::table3(&four, &eight),
        "~90% of dynamic 2-source instances repeat the previous wakeup order \
         at the same PC; last-arriving side is roughly balanced left/right.",
    );
    push_widths(
        &mut md,
        report::figure7,
        "a PC-indexed bimodal predictor reaches ~90%+ accuracy from 128 to \
         4096 entries; 1k entries is the evaluated size.",
    );
    push_widths(
        &mut md,
        report::figure10,
        "less than ~4% of dynamic instructions need two register-file read \
         ports; most 2-source instructions issue back-to-back with their \
         last wakeup and catch the bypass.",
    );

    let figures: [(&str, &[Scheme], &str); 3] = [
        (
            "Figure 14: sequential wakeup vs tag elimination",
            &FIG14_SCHEMES,
            "sequential wakeup with a 1k-entry predictor loses 0.4% (4-wide) / \
             0.6% (8-wide) on average; without a predictor 1.6% / 2.6%; tag \
             elimination is worse than sequential wakeup in most benchmarks \
             and scales worse with width (worst case 10.6% in crafty).",
        ),
        (
            "Figure 15: register file schemes",
            &FIG15_SCHEMES,
            "sequential register access loses 1.1% (4-wide) / 0.7% (8-wide) on \
             average, worst 2.2% (eon); the half-ported crossbar file nearly \
             matches base but needs global port arbitration; the extra RF \
             stage costs a little throughout.",
        ),
        (
            "Figure 16: combined half-price architecture",
            &FIG16_SCHEMES,
            "2.2% average IPC degradation; worst case 4.8% (bzip, 8-wide). \
             The combination is slightly worse than the sum of the parts \
             because slow-side/simultaneous wakeups force sequential register \
             accesses (only nowL can clear seq_reg_access).",
        ),
    ];
    for (name, schemes, paper) in figures {
        for &width in &args.widths {
            let m = sweep(width);
            let title = format!("{name} [{}]", width.label());
            push(&mut md, &report::normalized_ipc_figure(&title, m, &schemes[1..]), paper);
            let _ = writeln!(md, "{}", summary(m, &schemes[1..]));
        }
    }

    for &width in &args.widths {
        let m = sweep(width);
        let title =
            format!("CPI stack: issue-slot attribution, % of cycles x width [{}]", width.label());
        push(
            &mut md,
            &report::cpi_stack_table(&title, m, &CPI_SCHEMES),
            "not reported as a table, but Figures 10-14 attribute the \
             schemes' IPC losses to the same sources measured here: the \
             seq_wakeup/la_mispredict columns are sequential wakeup's rare \
             +1 (simultaneous or slow-side last arrival), rf_reread is \
             sequential register access's double read, and both are zero \
             on the base machine. Every row sums to 100% — the invariant \
             suite holds the books to cycles x width exactly.",
        );
    }

    push(
        &mut md,
        &report::circuit_claims(),
        "wakeup logic 466 ps -> 374 ps (24.6% speedup) for a 4-wide 64-entry \
         scheduler; register file access 1.71 ns -> 1.36 ns (20.5%) at 160 \
         entries when 24 ports drop to 16 (0.18 um). Reproduced exactly by \
         construction: the analytic models are calibrated to these endpoints \
         (DESIGN.md §2); the sweeps below show the scaling trends.",
    );
    circuit_sweeps(&mut md);

    let _ = writeln!(
        md,
        "\n## Extensions beyond the paper's evaluation\n\n\
         `hpa extensions` runs three experiments the paper does not: \
         selective vs non-selective replay, sequential wakeup's IPC against \
         the last-arrival predictor's size, and the paper's §6 half-price \
         rename & bypass. It takes this report's `--scale`, `--width`, \
         `--bench` and `--jobs` and prints its tables to stdout; they are \
         not part of this report.\n"
    );
    sampled_accuracy(&mut md, args, &references);

    let _ = writeln!(md, "\n## Divergence notes\n");
    let _ = writeln!(md, "{}", DIVERGENCES.trim());
    let _ = writeln!(
        md,
        "\n*Total regeneration time: {:.1} minutes with {} worker thread(s).*",
        t0.elapsed().as_secs_f64() / 60.0,
        args.jobs
    );

    std::fs::write(out, md)?;
    eprintln!("wrote {out} in {:.1}s", t0.elapsed().as_secs_f64());
    Ok(())
}

/// Emits the sampled-simulation accuracy table: per Long-scale reference,
/// the full detailed IPC against the sampled estimate and its error.
fn sampled_accuracy(md: &mut String, args: &HarnessArgs, references: &[(RunResult, RunResult)]) {
    let heading = "\n## Sampled simulation accuracy (tiered backend)\n";
    let Some((_, first)) = references.first() else {
        let skipped = if args.scale == Scale::Tiny {
            "Skipped at `--scale tiny`: the full-detail Long-scale runs take minutes."
        } else {
            "Skipped: neither gap nor mcf is among the selected benchmarks."
        };
        let _ = writeln!(md, "{heading}\n{skipped}\n");
        return;
    };
    let est = first.sampled.as_ref().expect("sampled run records an estimate");
    let _ = writeln!(
        md,
        "{heading}\n\
         Systematic sampling (units {}, seed {}, 4-wide base, \
         `--scale long`): fast-forward runs in the functional emulator with \
         branch-table warming, only short detailed windows are simulated \
         cycle by cycle, and per-window CPIs aggregate to a mean IPC with a \
         95% Student-t interval. Caches start cold in each window, so the \
         residual error is cache-warmth bias, bounded by the interval on \
         these workloads. The benchmark's `sampled-long` workload \
         (`hpabench/`) measures sampled throughput.\n",
        est.units, est.seed
    );
    let _ = writeln!(md, "| bench | full IPC | sampled IPC ± 95% CI | rel. error |");
    let _ = writeln!(md, "|---|---|---|---|");
    let mut rows: Vec<_> = references.iter().collect();
    rows.sort_by_key(|(full, _)| full.workload);
    for (full, sampled) in rows {
        let (ipc, est) = (full.stats.ipc(), sampled.sampled.as_ref().expect("sampled estimate"));
        let (mean, ci, err) = (est.mean_ipc, est.ci_half_width, est.rel_error(ipc) * 100.0);
        let _ = writeln!(md, "| {} | {ipc:.3} | {mean:.3} ± {ci:.3} | {err:.1}% |", full.workload);
    }
    let _ = writeln!(md);
}

/// The analytic circuit models beyond the two calibrated claims: wakeup
/// delay over window size and width, register-file access time over
/// entries and ports, and first-order dynamic energy per event.
fn circuit_sweeps(md: &mut String) {
    const PORTS: [u32; 5] = [8, 12, 16, 24, 32];
    let w = WakeupDelayModel::calibrated_018um();
    let mut t = Table::new(
        "Wakeup delay sweep (ps): window x width, conventional -> sequential",
        &["entries", "width", "conventional", "sequential", "speedup"],
    );
    for entries in [32u32, 64, 128, 256] {
        for width in [4u32, 8] {
            t.push_row(vec![
                entries.to_string(),
                format!("{width}-wide"),
                format!("{:.0}", w.conventional(entries, width)),
                format!("{:.0}", w.sequential_wakeup(entries, width)),
                format!("{:.1}%", w.speedup(entries, width) * 100.0),
            ]);
        }
    }
    let _ = writeln!(md, "{}", t.to_markdown());

    let r = RegFileDelayModel::calibrated_018um();
    let mut headers = vec!["entries".to_string()];
    headers.extend(PORTS.iter().map(|p| format!("{p} ports")));
    let mut t = Table {
        title: "Register file access time sweep (ns): entries x ports".into(),
        headers,
        rows: Vec::new(),
    };
    for entries in [80u32, 160, 320] {
        let mut row = vec![entries.to_string()];
        row.extend(PORTS.iter().map(|&p| format!("{:.2}", r.access_time(entries, p) / 1000.0)));
        t.push_row(row);
    }
    let _ = writeln!(md, "{}", t.to_markdown());

    let e = EnergyModel::calibrated_018um();
    let _ = writeln!(md, "**Per-event dynamic energy (first-order, 0.18um):**\n");
    let _ = writeln!(
        md,
        "- wakeup broadcast, 64-entry: {:.1} pJ -> {:.1} pJ (fast bus)",
        e.wakeup_broadcast(64, 2),
        e.wakeup_broadcast(64, 1)
    );
    let _ = writeln!(
        md,
        "- RF access, 160 entries: {:.1} pJ (24 ports) -> {:.1} pJ (16 ports)",
        e.rf_access(160, 24),
        e.rf_access(160, 16)
    );
    for (entries, width) in [(64u32, 4u32), (128, 8)] {
        let (w, rf) = e.half_price_savings(entries, width);
        let _ = writeln!(
            md,
            "- half-price savings at {entries}-entry/{width}-wide: wakeup {:.0}%, RF {:.0}%",
            w * 100.0,
            rf * 100.0
        );
    }
    let _ = writeln!(md);
}

const DIVERGENCES: &str = "
* **Workloads.** Hand-written kernels stand in for compiled SPEC binaries.
  They reproduce each program's algorithmic character, but have shorter
  def-use distances and denser 2-source inner loops than DEC-cc output, so
  the characterization fractions (Figures 2–4, 6, 10) run above the paper's
  ranges for the loop-dominated kernels, and per-benchmark degradations
  spread wider around the paper's averages.
* **Wrong-path fetch.** Mispredicted branches stall fetch until resolution
  instead of fetching wrong-path instructions; misprediction cost is
  modeled in time, not in wrong-path cache pollution.
* **Store-wait.** The simulator implements 21264-style stWait bits (loads
  that replayed on an older-store conflict hold at select), which
  sim-outorder lacks; without it, memory-carried dependence loops exhibit
  replay storms that made results noise-dominated.
* **Extra-RF-stage costs.** The paper's Figure 15 shows modest drops for
  the pipelined two-port file; this model charges the deeper pipe through
  the branch-resolution loop and the load-miss shadow, which lands at
  3-4% average — larger than the paper's bars but the same ordering
  (crossbar < sequential access < extra stage).
* **Scale.** Default runs are 0.25–3.2M committed instructions per
  benchmark versus the paper's 0.8–5 billion, so cache warm-up effects are
  proportionally larger.
";
