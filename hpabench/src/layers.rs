//! The traced run's per-layer metrics.
//!
//! After the workload's traced pass, a fixed battery of direct calls
//! into each layer's public functions runs on inputs that do not depend
//! on the workload, so every traced run reports every layer: program
//! builds (`workloads`), ELF loading and translation (`rv`), functional
//! execution and snapshots (`emu`), sampled runs against functional runs
//! (`sampled`), a Tiny-scale base/combined × 4/8-wide matrix untimed,
//! observed and phase-timed (`sim`, `cache`, `bpred`, `obs`), JSON on a
//! served payload (`obs`), the journal, cache key and result cache
//! (`serve`) and a small daemon session (`serve`, `sdk`). Daemon figures
//! sum over every session of the traced run, so on `serve-mixed` they
//! are dominated by the workload's own 1440 jobs.

use crate::matrix::{build_all, cell_id, SAMPLED_UNITS, SCHEMES};
use crate::measure::{median, median_us, ms, Better, Metrics};
use crate::serve;
use crate::trace::span_cost_ns;
use crate::{Ctx, Run};
use hpa_core::emu::{Emulator, RunOutcome};
use hpa_core::obs::digest::debug_digest;
use hpa_core::obs::json;
use hpa_core::sim::{PhaseTimes, SampleUnits, SampledRunner, SimStats};
use hpa_core::workloads::{Scale, Workload, CHECKSUM_REG};
use hpa_core::{
    run_prepared, run_prepared_observed, run_prepared_phase_timed, CpiCategory, MachineWidth,
    Scheme,
};
use hpa_serve::journal::{Journal, Record};
use hpa_serve::{cell_key, ResultCache};
use std::time::Instant;

/// Repetitions of each microsecond-scale probe; the median is reported.
const PROBE_REPS: usize = 41;
/// Hits per cell in the battery's daemon session.
const SESSION_REPEATS: usize = 3;
/// The last-arrival predictor size the evaluated schemes use.
const EVAL_PREDICTOR_ENTRIES: usize = 1024;
/// Layers reported with a self time, in report order.
const LAYERS: [&str; 9] =
    ["bench", "workloads", "rv", "emu", "sim", "sampled", "obs", "serve", "sdk"];

/// Exact counts over a group of cells (one scheme at one width).
pub fn stat_counts(group: &[&SimStats]) -> Vec<(&'static str, f64, &'static str, Better)> {
    use Better::{Higher, Lower};
    let sum = |f: fn(&SimStats) -> u64| group.iter().map(|s| f(s)).sum::<u64>() as f64;
    let branches = sum(|s| s.branches);
    let (mut la_correct, mut la_decided) = (0u64, 0u64);
    for s in group {
        if let Some((_, la)) = s.last_arrival.iter().find(|(n, _)| *n == EVAL_PREDICTOR_ENTRIES) {
            la_correct += la.correct;
            la_decided += la.correct + la.incorrect;
        }
    }
    vec![
        ("sim.cycles", sum(|s| s.cycles), "cycles", Lower),
        ("sim.committed", sum(|s| s.committed), "insts", Higher),
        ("sim.replayed_insts", sum(|s| s.replayed_insts), "insts", Lower),
        ("sim.simultaneous_wakeups", sum(|s| s.simultaneous_wakeups), "count", Lower),
        ("sim.seq_rf_accesses", sum(|s| s.seq_rf_accesses), "count", Lower),
        ("sim.load_miss_replays", sum(|s| s.load_miss_replays), "count", Lower),
        ("cache.dl1_misses", sum(|s| s.hierarchy.dl1.misses()), "count", Lower),
        ("cache.l2_misses", sum(|s| s.hierarchy.l2.misses()), "count", Lower),
        ("bpred.mispredict_rate", sum(|s| s.branch_mispredicts) / branches, "ratio", Lower),
        ("bpred.last_arrival_accuracy", la_correct as f64 / la_decided as f64, "ratio", Higher),
    ]
}

fn tag(scheme: Scheme, width: MachineWidth) -> String {
    format!("{}-{}w", scheme.key(), width.base_config().width)
}

/// `workloads`: one build of the 12 stand-ins at Default scale.
fn workloads_layer(ctx: &Ctx, m: &mut Metrics) -> Vec<Workload> {
    let t0 = Instant::now();
    let programs = build_all(ctx, Scale::Default);
    m.push("workloads.build_ms", ms(t0.elapsed()), "ms", Better::Lower, programs.len() as u64);
    programs
}

/// `rv`: loading and translating each checked-in fixture ELF.
fn rv_layer(ctx: &Ctx, m: &mut Metrics) {
    for f in hpa_core::rv::fixtures::all() {
        let load = ctx.tracer.span("rv.load_elf", f.name, || {
            median_us(PROBE_REPS, 100, || {
                std::hint::black_box(hpa_core::rv::load_elf(f.checked_in).ok());
            })
        });
        let image = hpa_core::rv::load_elf(f.checked_in).expect("checked-in fixture loads");
        let translate = ctx.tracer.span("rv.translate", f.name, || {
            median_us(PROBE_REPS, 10, || {
                std::hint::black_box(hpa_core::rv::translate(&image).ok());
            })
        });
        let n = PROBE_REPS as u64;
        m.push(format!("rv.load_elf_us.{}", f.name), load, "us", Better::Lower, n);
        m.push(format!("rv.translate_us.{}", f.name), translate, "us", Better::Lower, n);
    }
}

/// `emu` and `sampled`: functional runs to halt (checksum checked),
/// snapshot and restore at mid-run, and sampled runs of the same
/// programs.
fn emu_and_sampled(ctx: &Ctx, run: &mut Run, programs: &[Workload], m: &mut Metrics) {
    let (mut insts, mut emu_s) = (0u64, 0.0);
    let (mut snap_us, mut restore_us) = (Vec::new(), Vec::new());
    for w in programs {
        let mut emu = Emulator::new(&w.program);
        let t0 = Instant::now();
        let outcome = ctx.tracer.span("emu.run", w.name, || emu.run(w.budget));
        emu_s += t0.elapsed().as_secs_f64();
        match outcome {
            Ok(RunOutcome::Halted { executed }) if emu.reg(CHECKSUM_REG) == w.expected_checksum => {
                insts += executed;
            }
            other => run.mismatch(
                &format!("emu/{}", w.name),
                format!("{other:?}, wrong checksum or no halt"),
            ),
        }
        let mut half = Emulator::new(&w.program);
        let _ = half.run(emu.executed() / 2);
        let snap = ctx.tracer.span("emu.snapshot", w.name, || {
            snap_us.push(median_us(PROBE_REPS, 10, || {
                std::hint::black_box(half.snapshot());
            }));
            half.snapshot()
        });
        let mut other = Emulator::new(&w.program);
        ctx.tracer.span("emu.restore", w.name, || {
            restore_us.push(median_us(PROBE_REPS, 10, || other.restore(&snap)));
        });
    }
    let n = programs.len() as u64;
    m.push("emu.minsts_per_s", insts as f64 / emu_s / 1e6, "Minsts/s", Better::Higher, n);
    m.push("emu.snapshot_us", median(&snap_us), "us", Better::Lower, n);
    m.push("emu.restore_us", median(&restore_us), "us", Better::Lower, n);

    let units = SampleUnits::parse(SAMPLED_UNITS).expect("valid sampling units");
    let runner =
        SampledRunner::new(Scheme::Base.configure(MachineWidth::Four), units).with_seed(ctx.seed);
    let (mut sampled_s, mut windows, mut detailed, mut total) = (0.0, 0u64, 0u64, 0u64);
    for w in programs {
        let t0 = Instant::now();
        let outcome = ctx.tracer.span("sampled.run", w.name, || runner.run(&w.program));
        sampled_s += t0.elapsed().as_secs_f64();
        match outcome {
            Ok(o) if o.emulator.reg(CHECKSUM_REG) == w.expected_checksum => {
                windows += o.estimate.samples.len() as u64;
                detailed += o.estimate.detailed_insts;
                total += o.estimate.total_insts;
            }
            Ok(_) => run.mismatch(&format!("sampled/{}", w.name), "wrong checksum"),
            Err(fault) => run.mismatch(&format!("sampled/{}", w.name), fault),
        }
    }
    m.push("sampled.overhead_x", sampled_s / emu_s, "x", Better::Lower, n);
    m.count("sampled.windows", windows as f64, "count", Better::Higher);
    m.count("sampled.detail_fraction", detailed as f64 / total as f64, "ratio", Better::Lower);
}

/// `sim`, `cache`, `bpred` and `obs` counters: the Tiny-scale matrix run
/// untimed, observed and (combined 4-wide) phase-timed.
fn sim_layer(ctx: &Ctx, run: &mut Run, m: &mut Metrics) {
    let programs = build_all(ctx, Scale::Tiny);
    let n = programs.len() as u64;
    let groups: Vec<(Scheme, MachineWidth)> =
        MachineWidth::ALL.into_iter().flat_map(|w| SCHEMES.map(|s| (s, w))).collect();
    let combined_4w = (Scheme::Combined, MachineWidth::Four);

    // Untimed: host ns per simulated cycle.
    let mut untimed_c4 = f64::NAN;
    for &(scheme, width) in &groups {
        let (mut ns, mut cycles) = (0.0, 0u64);
        for w in &programs {
            let id = cell_id(w.name, scheme, width);
            let t0 = Instant::now();
            let r = ctx.tracer.span("sim.run_prepared", &id, || {
                run_prepared(w, scheme.configure(width), scheme, width)
            });
            ns += t0.elapsed().as_nanos() as f64;
            match r {
                Ok(r) => cycles += r.stats.cycles,
                Err(e) => run.mismatch(&id, e),
            }
        }
        let per_cycle = ns / cycles as f64;
        if (scheme, width) == combined_4w {
            untimed_c4 = per_cycle;
        }
        m.push(
            format!("sim.ns_per_cycle.{}", tag(scheme, width)),
            per_cycle,
            "ns",
            Better::Lower,
            n,
        );
    }

    // Observed: exact counts, CPI stacks, and the counters' host cost on
    // the combined 4-wide cells.
    let mut observed = Vec::new();
    let (mut observed_ns, mut observed_cycles) = (0.0, 0u64);
    for &(scheme, width) in &groups {
        for w in &programs {
            let id = cell_id(w.name, scheme, width);
            let t0 = Instant::now();
            let r = ctx.tracer.span("sim.run_prepared_observed", &id, || {
                run_prepared_observed(w, scheme.configure(width), scheme, width, true)
            });
            let ns = t0.elapsed().as_nanos() as f64;
            match r {
                Ok(r) => {
                    if (scheme, width) == combined_4w {
                        observed_ns += ns;
                        observed_cycles += r.stats.cycles;
                    }
                    run.digests.push((format!("layer/{id}"), debug_digest(&r.stats)));
                    observed.push(r);
                }
                Err(e) => run.mismatch(&id, e),
            }
        }
    }
    let counters_overhead = observed_ns / observed_cycles as f64 / untimed_c4;
    m.push("obs.counters_overhead", counters_overhead, "x", Better::Lower, n);
    for &(scheme, width) in &groups {
        let group: Vec<&SimStats> = observed
            .iter()
            .filter(|r| r.scheme == scheme && r.width == width)
            .map(|r| &r.stats)
            .collect();
        for (name, value, unit, better) in stat_counts(&group) {
            m.count(format!("{name}.{}", tag(scheme, width)), value, unit, better);
        }
    }
    for width in MachineWidth::ALL {
        for cat in CpiCategory::ALL {
            let slots = |scheme: Scheme| -> f64 {
                observed
                    .iter()
                    .filter(|r| r.scheme == scheme && r.width == width)
                    .filter_map(|r| r.counters.as_ref())
                    .map(|c| c.cpi.get(cat) as f64)
                    .sum()
            };
            let name = format!("cpi.{}.{}w", cat.key(), width.base_config().width);
            m.count(name, slots(Scheme::Combined) - slots(Scheme::Base), "slots", Better::Lower);
        }
    }

    // Phase-timed combined 4-wide cells.
    let (scheme, width) = combined_4w;
    let mut phases = PhaseTimes::default();
    let mut timed_ns = 0.0;
    for w in &programs {
        let id = cell_id(w.name, scheme, width);
        let t0 = Instant::now();
        let r = ctx.tracer.span("sim.run_prepared_phase_timed", &id, || {
            run_prepared_phase_timed(w, scheme.configure(width), scheme, width, false)
        });
        timed_ns += t0.elapsed().as_nanos() as f64;
        match r {
            Ok((_, t)) => phases.accumulate(&t),
            Err(e) => run.mismatch(&id, e),
        }
    }
    let cycles = phases.cycles as f64;
    for (phase, ns) in phases.entries() {
        let name = format!("sim.phase.{phase}_ns_per_cycle");
        m.push(name, ns as f64 / cycles, "ns", Better::Lower, n);
    }
    m.push("sim.phase_timing_overhead", timed_ns / cycles / untimed_c4, "x", Better::Lower, n);
}

/// `serve` direct calls and a small daemon session, then the daemon and
/// SDK figures summed over every session of the run.
fn serve_layer(ctx: &Ctx, run: &mut Run, m: &mut Metrics) -> Result<(), String> {
    let programs = serve::build_programs(ctx);
    let cells = serve::make_cells(ctx, &programs, &[Scheme::Base], &[MachineWidth::Four]);
    let dir = ctx.out_dir.join(format!("layers-journal-{}", std::process::id()));
    let mut session = Run::default();
    serve::session(ctx, &mut session, &cells, SESSION_REPEATS, ctx.seed, &dir)?;
    run.attempted += session.attempted;
    run.failures.extend(session.failures);
    run.mismatches.extend(session.mismatches);
    run.serve.absorb(session.serve);

    let n = PROBE_REPS as u64;
    let request = &cells[0].request;
    let program = &programs.tiny[0].program;
    let config = Scheme::Base.configure(MachineWidth::Four);
    let journal_dir = ctx.out_dir.join(format!("layers-direct-{}", std::process::id()));
    let (journal, _) =
        Journal::open(&journal_dir).map_err(|e| format!("opening a journal: {e}"))?;
    let mut id = 0;
    let append = ctx.tracer.span("serve.journal_append", "probe", || {
        median_us(PROBE_REPS, 1, || {
            id += 1;
            journal.append(&Record::Submitted { id, request: request.clone() }, true);
        })
    });
    drop(journal);
    let _ = std::fs::remove_dir_all(&journal_dir);
    m.push("serve.journal_append_us", append, "us", Better::Lower, n);
    let key_us = ctx.tracer.span("serve.cell_key", "probe", || {
        median_us(PROBE_REPS, 10, || {
            std::hint::black_box(cell_key(program, &config, Scheme::Base, 0, None));
        })
    });
    m.push("serve.cell_key_us", key_us, "us", Better::Lower, n);
    let payload = run.serve.sample_payload.clone().ok_or("no served payload to measure")?;
    let cache = ResultCache::open(None).map_err(|e| format!("opening a cache: {e}"))?;
    let mut key = 0u64;
    let put = ctx.tracer.span("serve.cache_put", "probe", || {
        median_us(PROBE_REPS, 1, || {
            key += 1;
            cache.put(key, &payload);
        })
    });
    let get = ctx.tracer.span("serve.cache_get", "probe", || {
        median_us(PROBE_REPS, 100, || {
            std::hint::black_box(cache.get(key));
        })
    });
    m.push("serve.cache_put_us", put, "us", Better::Lower, n);
    m.push("serve.cache_get_us", get, "us", Better::Lower, n);
    let parsed = json::parse(&payload).map_err(|e| format!("served payload is not JSON: {e}"))?;
    let render = ctx.tracer.span("obs.json_render", "probe", || {
        median_us(PROBE_REPS, 10, || {
            std::hint::black_box(parsed.render());
        })
    });
    let parse = ctx.tracer.span("obs.json_parse", "probe", || {
        median_us(PROBE_REPS, 10, || {
            std::hint::black_box(json::parse(&payload).ok());
        })
    });
    m.push("obs.json_render_us", render, "us", Better::Lower, n);
    m.push("obs.json_parse_us", parse, "us", Better::Lower, n);

    let t = &run.serve;
    for call in ["submit", "status", "result"] {
        for kind in ["hit", "cold"] {
            let times = t.calls.get(&format!("{call}.{kind}")).map_or(&[][..], Vec::as_slice);
            m.push(
                format!("serve.{call}_ms.{kind}"),
                median(times),
                "ms",
                Better::Lower,
                times.len() as u64,
            );
        }
    }
    let h = t.health;
    m.count("serve.cache_hits", h.cache_hits as f64, "count", Better::Higher);
    m.count("serve.cache_misses", h.cache_misses as f64, "count", Better::Lower);
    m.count("serve.jobs_done", h.jobs_done as f64, "count", Better::Higher);
    m.count("serve.jobs_failed", h.jobs_failed as f64, "count", Better::Lower);
    m.count("serve.jobs_rejected", h.jobs_rejected as f64, "count", Better::Lower);
    m.count("serve.queue_depth_max", h.queue_depth_max as f64, "count", Better::Lower);
    m.push(
        "sdk.polls_per_cold_job",
        t.cold_polls as f64 / t.cold_jobs as f64,
        "count",
        Better::Lower,
        t.cold_jobs,
    );
    m.count("sdk.retries", t.retries as f64, "count", Better::Lower);
    Ok(())
}

/// Runs the battery and returns its per-layer metrics.
pub fn battery(ctx: &Ctx, run: &mut Run) -> Result<Metrics, String> {
    let mut m = Metrics::default();
    let programs = workloads_layer(ctx, &mut m);
    rv_layer(ctx, &mut m);
    emu_and_sampled(ctx, run, &programs, &mut m);
    sim_layer(ctx, run, &mut m);
    serve_layer(ctx, run, &mut m)?;
    Ok(m)
}

/// Self time per layer and the cost of tracing itself. `pass_ops_per_s`
/// is the traced pass's rate, to set against the untraced `ops_per_s`.
pub fn tracing(ctx: &Ctx, pass_ops_per_s: f64, traced_wall_s: f64) -> Metrics {
    let mut m = Metrics::default();
    let self_ms = ctx.tracer.self_ms_by_layer();
    for layer in LAYERS {
        m.push(
            format!("self_ms.{layer}"),
            self_ms.get(layer).copied().unwrap_or(0.0),
            "ms",
            Better::Lower,
            1,
        );
    }
    let spans = ctx.tracer.span_count() as f64;
    let cost = span_cost_ns();
    m.count("trace.spans", spans, "count", Better::Lower);
    m.push("trace.span_cost_ns", cost, "ns", Better::Lower, 5);
    m.push("trace.overhead_ratio", spans * cost / 1e9 / traced_wall_s, "ratio", Better::Lower, 1);
    m.push("trace.pass_ops_per_s", pass_ops_per_s, "1/s", Better::Higher, 1);
    m
}
