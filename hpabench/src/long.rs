//! `sampled-long`: the 12 SPEC stand-ins at Long scale (8–100 M
//! instructions each) in SMARTS-style sampled mode, base 4-wide, units
//! `2000:10000:488000` (about 2.4% of instructions in detail), seed =
//! benchmark seed. Nearly every instruction goes through functional
//! fast-forward, so the emulator and snapshot/restore dominate — the
//! inverse of `paper-matrix`.
//!
//! Every program stays in the set. A run that faults or ends with the
//! wrong checksum counts as a failed operation with its error text, and
//! each program's own rate is reported, so a later fix shows as a change
//! in the program mix rather than an unexplained change in the total.

use crate::matrix::build_all;
use crate::measure::{ms, Better, Metrics};
use crate::{repeat_passes, repeat_setup, Ctx, Run};
use hpa_core::obs::digest::debug_digest;
use hpa_core::sim::{SampleUnits, SampledRunner};
use hpa_core::workloads::{Scale, CHECKSUM_REG, WORKLOAD_NAMES};
use hpa_core::{MachineWidth, Scheme};
use std::collections::BTreeMap;
use std::time::Instant;

/// Nominal wall time of one pass (measured on a 2-vCPU x86-64 host);
/// `--seconds` buys `floor(seconds / PASS_S)` passes, at least one.
const PASS_S: f64 = 25.0;
pub const UNITS: &str = "2000:10000:488000";

pub fn run(ctx: &Ctx) -> Result<Run, String> {
    let mut run = Run::default();
    let programs = repeat_setup(&mut run.setup_s, || Ok(build_all(ctx, Scale::Long)))?;
    let units = SampleUnits::parse(UNITS).expect("valid sampling units");
    let runner =
        SampledRunner::new(Scheme::Base.configure(MachineWidth::Four), units).with_seed(ctx.seed);
    // Per program: (instructions, host seconds) summed over passes.
    let mut per_program: BTreeMap<&str, (u64, f64)> = BTreeMap::new();
    let mut windows = 0u64;
    let mut detailed = 0u64;
    let (loop_s, passes) = repeat_passes(ctx.seconds, PASS_S, |_| {
        for w in &programs {
            let id = format!("{}/long/seed={}", w.name, ctx.seed);
            run.attempted += 1;
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
            let e = outcome.estimate;
            run.digests.push((format!("long/{id}"), debug_digest(&e)));
            windows += e.samples.len() as u64;
            detailed += e.detailed_insts;
            let slot = per_program.entry(w.name).or_default();
            slot.0 += e.total_insts;
            slot.1 += host.as_secs_f64();
        }
    });
    run.loop_s = loop_s;
    run.passes = passes;

    let mut m = Metrics::default();
    let insts: u64 = per_program.values().map(|p| p.0).sum();
    let host_s: f64 = per_program.values().map(|p| p.1).sum();
    let completed = run.op_ms.len() as u64;
    m.push(
        "sampled_minsts_per_s",
        insts as f64 / host_s / 1e6,
        "Minsts/s",
        Better::Higher,
        completed,
    );
    m.count("long.windows", windows as f64 / passes as f64, "count", Better::Higher);
    m.count("long.detail_fraction", detailed as f64 / insts as f64, "ratio", Better::Lower);
    for name in WORKLOAD_NAMES {
        if let Some(&(n, s)) = per_program.get(name) {
            m.push(
                format!("program.{name}.minsts_per_s"),
                n as f64 / s / 1e6,
                "Minsts/s",
                Better::Higher,
                passes as u64,
            );
        }
    }
    run.report = m;
    Ok(run)
}
