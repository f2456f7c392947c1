//! `paper-matrix`: the paper's headline experiment in full detail, then
//! the same programs in sampled mode scored against it.
//!
//! 12 SPEC stand-ins × {base, combined} × {4, 8}-wide at Default scale run
//! serially through `run_prepared` with counters off (48 cells). The same
//! 12 programs then run through `SampledRunner` (base, 4-wide, units
//! `2000:10000:88000`, seed = benchmark seed), and each estimate is scored
//! against the full base 4-wide run of the same pass. The cycle loop
//! (`sim`, with `cache` and `bpred` inside it) does nearly all the work.

use crate::measure::{ms, Better, Metrics};
use crate::{repeat_passes, repeat_setup, Ctx, Run};
use hpa_core::obs::digest::debug_digest;
use hpa_core::sim::{SampleUnits, SampledRunner, SimStats};
use hpa_core::workloads::{workload, Scale, Workload, CHECKSUM_REG, WORKLOAD_NAMES};
use hpa_core::{run_prepared, MachineWidth, Scheme};
use std::time::Instant;

/// Nominal wall time of one pass (measured on a 2-vCPU x86-64 host);
/// `--seconds` buys `floor(seconds / PASS_S)` passes, at least one.
const PASS_S: f64 = 26.0;
pub const SCHEMES: [Scheme; 2] = [Scheme::Base, Scheme::Combined];
pub const SAMPLED_UNITS: &str = "2000:10000:88000";
/// The paper's combined-scheme IPC loss over the 4- and 8-wide machines:
/// 2.2% on average, 4.8% at worst.
pub const PAPER_MEAN_LOSS_PCT: f64 = 2.2;
pub const PAPER_WORST_LOSS_PCT: f64 = 4.8;

/// Builds the 12 stand-ins at `scale`, each inside a `workloads` span.
pub fn build_all(ctx: &Ctx, scale: Scale) -> Vec<Workload> {
    WORKLOAD_NAMES
        .iter()
        .map(|name| {
            ctx.tracer.span("workloads.workload", name, || {
                workload(name, scale).expect("every WORKLOAD_NAMES entry builds")
            })
        })
        .collect()
}

/// `<program>/<scheme>/<width>w`, the request id of one cell.
pub fn cell_id(name: &str, scheme: Scheme, width: MachineWidth) -> String {
    format!("{name}/{}/{}w", scheme.key(), width.base_config().width)
}

/// One full-detail cell's outcome.
pub struct Cell {
    pub name: &'static str,
    pub scheme: Scheme,
    pub width: MachineWidth,
    pub stats: SimStats,
    pub host_s: f64,
}

/// Combined-vs-base IPC loss in percent for each (program, width) pair
/// whose two cells both completed.
pub fn losses_pct(cells: &[Cell]) -> Vec<f64> {
    let mut out = Vec::new();
    for base in cells.iter().filter(|c| c.scheme == Scheme::Base) {
        let combined = cells
            .iter()
            .find(|c| c.scheme == Scheme::Combined && c.name == base.name && c.width == base.width);
        if let Some(c) = combined {
            out.push(100.0 * (1.0 - c.stats.ipc() / base.stats.ipc()));
        }
    }
    out
}

pub fn run(ctx: &Ctx) -> Result<Run, String> {
    let mut run = Run::default();
    let programs = repeat_setup(&mut run.setup_s, || Ok(build_all(ctx, Scale::Default)))?;
    let units = SampleUnits::parse(SAMPLED_UNITS).expect("valid sampling units");
    let mut cells: Vec<Cell> = Vec::new();
    let mut sampled_err = Vec::new();
    let mut ci_misses = 0u64;
    let (loop_s, passes) = repeat_passes(ctx.seconds, PASS_S, |pass| {
        let mut pass_cells = Vec::new();
        for w in &programs {
            for width in MachineWidth::ALL {
                for scheme in SCHEMES {
                    let id = cell_id(w.name, scheme, width);
                    run.attempted += 1;
                    let t0 = Instant::now();
                    let result = ctx.tracer.span("bench.op", &id, || {
                        ctx.tracer.span("sim.run_prepared", &id, || {
                            run_prepared(w, scheme.configure(width), scheme, width)
                        })
                    });
                    let host = t0.elapsed();
                    match result {
                        Ok(r) => {
                            run.op_ms.push(ms(host));
                            run.digests.push((format!("cell/{id}"), debug_digest(&r.stats)));
                            pass_cells.push(Cell {
                                name: w.name,
                                scheme,
                                width,
                                stats: r.stats,
                                host_s: host.as_secs_f64(),
                            });
                        }
                        Err(e) => run.fail(&id, e),
                    }
                }
            }
        }
        for w in &programs {
            let id = format!("{}/sampled/seed={}", w.name, ctx.seed);
            run.attempted += 1;
            let runner = SampledRunner::new(Scheme::Base.configure(MachineWidth::Four), units)
                .with_seed(ctx.seed);
            let t0 = Instant::now();
            let outcome = ctx.tracer.span("bench.op", &id, || {
                ctx.tracer.span("sampled.run", &id, || runner.run(&w.program))
            });
            let host = t0.elapsed();
            let outcome = match outcome {
                Ok(o) => o,
                Err(fault) => {
                    run.fail(&id, fault);
                    continue;
                }
            };
            let checksum = outcome.emulator.reg(CHECKSUM_REG);
            if checksum != w.expected_checksum {
                run.fail(
                    &id,
                    format!("checksum {checksum:#x} != reference {:#x}", w.expected_checksum),
                );
                continue;
            }
            run.op_ms.push(ms(host));
            let estimate = outcome.estimate;
            run.digests.push((format!("sampled/{id}"), debug_digest(&estimate)));
            let full = pass_cells.iter().find(|c| {
                c.name == w.name && c.scheme == Scheme::Base && c.width == MachineWidth::Four
            });
            if pass == 0 {
                if let Some(full) = full {
                    let ipc = full.stats.ipc();
                    sampled_err.push(estimate.rel_error(ipc));
                    ci_misses += u64::from(!estimate.within_ci(ipc));
                }
            }
        }
        if pass == 0 {
            cells = pass_cells;
        } else {
            // Later passes only add host time; their results are checked
            // by the digests.
            for (c, later) in cells.iter_mut().zip(pass_cells) {
                c.host_s += later.host_s;
            }
        }
    });
    run.loop_s = loop_s;
    run.passes = passes;
    run.report = report(&cells, passes, &sampled_err, ci_misses);
    Ok(run)
}

fn report(cells: &[Cell], passes: usize, sampled_err: &[f64], ci_misses: u64) -> Metrics {
    let mut m = Metrics::default();
    let cycles: u64 = cells.iter().map(|c| c.stats.cycles).sum();
    let host_s: f64 = cells.iter().map(|c| c.host_s).sum();
    let n = cells.len() as u64;
    m.push(
        "detail_mcycles_per_s",
        cycles as f64 * passes as f64 / host_s / 1e6,
        "Mcycles/s",
        Better::Higher,
        n * passes as u64,
    );
    let losses = losses_pct(cells);
    let mean = losses.iter().sum::<f64>() / losses.len() as f64;
    let worst = losses.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let k = losses.len() as u64;
    m.push("paper_err_mean_pp", (mean - PAPER_MEAN_LOSS_PCT).abs(), "pp", Better::Lower, k);
    m.push("paper_err_worst_pp", (worst - PAPER_WORST_LOSS_PCT).abs(), "pp", Better::Lower, k);
    let err_max = sampled_err.iter().copied().fold(0.0, f64::max);
    let s = sampled_err.len() as u64;
    m.push("sampled_ipc_err_max", err_max, "ratio", Better::Lower, s);
    m.push("sampled_ci_misses", ci_misses as f64, "count", Better::Lower, s);
    for width in MachineWidth::ALL {
        for scheme in SCHEMES {
            let group: Vec<&SimStats> = cells
                .iter()
                .filter(|c| c.scheme == scheme && c.width == width)
                .map(|c| &c.stats)
                .collect();
            let tag = format!("{}-{}w", scheme.key(), width.base_config().width);
            for (name, value, unit, better) in crate::layers::stat_counts(&group) {
                m.count(format!("default.{name}.{tag}"), value, unit, better);
            }
        }
    }
    m
}
