//! Regenerates every table and figure of the paper's evaluation in one
//! pass and writes the results — alongside the paper's reported values —
//! to `EXPERIMENTS.md` (path via `--out`, default `./EXPERIMENTS.md`).
//!
//! Each selected width is simulated once, as one observed sweep over
//! [`hpa_bench::PAPER_SCHEMES`]; every table and figure is a view of
//! those sweeps.
//!
//! Run with `cargo run --release -p hpa-bench --bin reproduce_all`.

use hpa_bench::{
    paper_sweep, summary, HarnessArgs, CPI_SCHEMES, FIG14_SCHEMES, FIG15_SCHEMES, FIG16_SCHEMES,
};
use hpa_core::report::{self, Table};
use hpa_core::sim::SampleUnits;
use hpa_core::workloads::{workload, Scale};
use hpa_core::{run, run_workload, MachineWidth, Mode, RunSpec, Scheme};
use std::fmt::Write as _;
use std::time::Instant;

fn main() {
    let args = HarnessArgs::parse();
    let out = &args.out;
    let t0 = Instant::now();
    let mut md = String::new();

    let _ = writeln!(
        md,
        "# EXPERIMENTS — paper vs. measured\n\n\
         Regenerated by `cargo run --release -p hpa-bench --bin reproduce_all` \
         (scale: {}).\n\n\
         Every row is measured on this repository's from-scratch simulator and \
         workloads; the *paper* column quotes Kim & Lipasti (ISCA 2003). \
         Workloads are stand-ins for SPEC CINT2000 (see `DESIGN.md` §2), so \
         *shapes and orderings* are the reproduction target, not absolute \
         values.\n",
        args.scale.key()
    );

    let sweeps: Vec<_> = MachineWidth::ALL
        .into_iter()
        .map(|width| {
            eprintln!("== sweep [{}] ==", width.label());
            paper_sweep(&args, width)
        })
        .collect();
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
    push(
        &mut md,
        &report::figure4(&four),
        "only 4–16% of 2-source instructions have both operands pending (0 \
         ready) at insert. Measured values run higher for the loop-dominated \
         stand-in kernels (hand-written kernels have shorter def-use \
         distances than compiled SPEC code) — see the divergence notes.",
    );
    push(
        &mut md,
        &report::figure6(&four),
        "the vast majority of 2-pending-source instructions have >=1 cycle of \
         wakeup slack; <3% wake simultaneously.",
    );
    push(
        &mut md,
        &report::table3(&four, &eight),
        "~90% of dynamic 2-source instances repeat the previous wakeup order \
         at the same PC; last-arriving side is roughly balanced left/right.",
    );
    push(
        &mut md,
        &report::figure7(&four),
        "a PC-indexed bimodal predictor reaches ~90%+ accuracy from 128 to \
         4096 entries; 1k entries is the evaluated size.",
    );
    push(
        &mut md,
        &report::figure10(&four),
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
         (DESIGN.md §2); the sweeps in `circuits_delay` show the scaling \
         trends.",
    );

    let _ = writeln!(
        md,
        "\n## Extensions beyond the paper's evaluation\n\n\
         Regenerate with `ablation_recovery` (selective vs non-selective \
         replay), `ablation_predictor` (IPC vs last-arrival table size) and \
         `ext_future_work` (the paper's §6 half-price rename & bypass); \
         `circuits_delay` adds first-order energy estimates. Findings from \
         these runs are summarized in the committed copy of this file.\n"
    );
    eprintln!("== sampled vs full detailed (long scale) ==");
    sampled_throughput(&mut md, &args.benches);

    let _ = writeln!(md, "\n## Divergence notes\n");
    let _ = writeln!(md, "{}", DIVERGENCES.trim());
    let _ = writeln!(
        md,
        "\n*Total regeneration time: {:.1} minutes with {} worker thread(s).*",
        t0.elapsed().as_secs_f64() / 60.0,
        args.jobs
    );

    std::fs::write(out, md).unwrap_or_else(|e| panic!("writing {out}: {e}"));
    eprintln!("wrote {out} in {:.1}s", t0.elapsed().as_secs_f64());
}

/// Emits the sampled-simulation throughput table: the long-running
/// workloads gap and mcf, those of them among `benches`, measured full
/// detailed and SMARTS-style sampled, with wall-clock speedup and the
/// estimate's error against the full run.
fn sampled_throughput(md: &mut String, benches: &[&str]) {
    let names: Vec<&str> = ["gap", "mcf"].into_iter().filter(|n| benches.contains(n)).collect();
    if names.is_empty() {
        let skipped = "Skipped: neither gap nor mcf is among the selected benchmarks.";
        eprintln!("  {skipped}");
        let _ = writeln!(md, "\n## Sampled simulation throughput (tiered backend)\n\n{skipped}\n");
        return;
    }
    let units = SampleUnits::new(2_000, 10_000, 488_000).expect("valid units");
    let seed = 42u64;
    let width = MachineWidth::Four;
    let vcpus = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let _ = writeln!(
        md,
        "\n## Sampled simulation throughput (tiered backend)\n\n\
         Systematic sampling (units {units}, seed {seed}, 4-wide base, \
         `--scale long`): fast-forward runs in the functional emulator with \
         branch-table warming, only short detailed windows are simulated \
         cycle by cycle, and per-window CPIs aggregate to a mean IPC with a \
         95% Student-t interval. Caches start cold in each window, so the \
         residual error is cache-warmth bias, bounded by the interval on \
         these workloads. Each window runs on a worker thread while the \
         main emulator fast-forwards on (one window in flight), so a \
         sampled run uses up to two cores; this host has {vcpus} vCPU(s), \
         and both runs of a row are timed in the same invocation.\n"
    );
    let _ = writeln!(
        md,
        "| bench | full IPC | wall (s) | sampled IPC ± 95% CI | wall (s) | speedup | rel. error |"
    );
    let _ = writeln!(md, "|---|---|---|---|---|---|---|");
    for name in names {
        let t0 = Instant::now();
        let full =
            run_workload(name, Scale::Long, width, Scheme::Base).unwrap_or_else(|e| panic!("{e}"));
        let full_s = t0.elapsed().as_secs_f64();
        let t0 = Instant::now();
        let w = workload(name, Scale::Long).expect("known workload");
        let mode = Mode::Sampled { units, seed };
        let sampled = run(&RunSpec { mode, ..RunSpec::workload(&w, Scheme::Base, width) })
            .unwrap_or_else(|e| panic!("{e}"));
        let sampled_s = t0.elapsed().as_secs_f64();
        let est = sampled.sampled.expect("sampled run records an estimate");
        let full_ipc = full.stats.ipc();
        eprintln!(
            "  {name}: full {full_ipc:.3} in {full_s:.1}s, sampled {:.3} in {sampled_s:.1}s",
            est.mean_ipc
        );
        let _ = writeln!(
            md,
            "| {name} | {full_ipc:.3} | {full_s:.1} | {:.3} ± {:.3} | {sampled_s:.1} | \
             {:.1}x | {:.1}% |",
            est.mean_ipc,
            est.ci_half_width,
            if sampled_s > 0.0 { full_s / sampled_s } else { 0.0 },
            est.rel_error(full_ipc) * 100.0
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
