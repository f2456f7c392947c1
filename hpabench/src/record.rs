//! Reporting: the human-readable table, the flat per-run record file, the
//! cross-run digest check and the final JSON line.

use crate::measure::{json_num, Metrics};
use crate::{Ctx, Run};
use hpa_core::obs::json::escape_into;
use std::collections::BTreeMap;
use std::fmt::Write as _;

fn write_file(path: &std::path::Path, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("writing {}: {e}", path.display()))
}

/// Compares this run's output digests with those recorded by earlier
/// runs of the same build in this checkout, then records the new ones.
/// A digest that changed is a wrong result: the run reports
/// `correct: false`.
pub fn compare_digests(ctx: &Ctx, build: u64, run: &mut Run) -> Result<(), String> {
    let path = ctx.out_dir.join(format!("digests-{}-{build:016x}.txt", ctx.workload.key()));
    let mut known: BTreeMap<String, u64> = BTreeMap::new();
    if let Ok(text) = std::fs::read_to_string(&path) {
        for line in text.lines() {
            if let Some((key, hex)) = line.rsplit_once(' ') {
                if let Ok(d) = u64::from_str_radix(hex, 16) {
                    known.insert(key.to_string(), d);
                }
            }
        }
    }
    for (key, digest) in &run.digests {
        match known.get(key) {
            Some(&before) if before != *digest => run.mismatches.push(format!(
                "{key}: digest {digest:016x} differs from {before:016x} in an earlier run of \
                 this build"
            )),
            Some(_) => {}
            None => {
                known.insert(key.clone(), *digest);
            }
        }
    }
    let mut text = String::new();
    for (key, d) in &known {
        let _ = writeln!(text, "{key} {d:016x}");
    }
    write_file(&path, &text)
}

fn metrics_json(out: &mut String, kind: &str, metrics: &Metrics, first: &mut bool) {
    for m in &metrics.0 {
        if !*first {
            out.push_str(",\n");
        }
        *first = false;
        out.push_str("{\"kind\":\"");
        out.push_str(kind);
        out.push_str("\",\"name\":\"");
        escape_into(out, &m.name);
        out.push_str("\",\"value\":");
        json_num(out, m.value);
        let _ = write!(
            out,
            ",\"unit\":\"{}\",\"better\":\"{}\",\"samples\":{}}}",
            m.unit,
            m.better.key(),
            m.samples
        );
    }
}

fn strings_json(out: &mut String, items: &[String]) {
    out.push('[');
    for (k, s) in items.iter().enumerate() {
        if k > 0 {
            out.push(',');
        }
        out.push('"');
        escape_into(out, s);
        out.push('"');
    }
    out.push(']');
}

fn print_table(title: &str, metrics: &Metrics) {
    if metrics.0.is_empty() {
        return;
    }
    println!("{title}");
    for m in &metrics.0 {
        println!(
            "  {:<44} {:>16.6} {:<10} {:<7} n={}",
            m.name,
            m.value,
            m.unit,
            m.better.key(),
            m.samples
        );
    }
}

/// Prints the report and writes the flat record (and, when traced, the
/// spans) under the output directory.
pub fn write(ctx: &Ctx, run: &Run, e2e: &Metrics, per_layer: &Metrics) -> Result<(), String> {
    let name = ctx.workload.key();
    let traced = u8::from(ctx.tracer.is_on());
    println!(
        "hpabench {name} seed={} seconds={} trace={traced} passes={} attempted={} failed={} \
         correct={}",
        ctx.seed,
        ctx.seconds,
        run.passes,
        run.attempted,
        run.failures.len(),
        run.mismatches.is_empty()
    );
    print_table("workload metrics:", &run.report);
    print_table("end-to-end metrics:", e2e);
    print_table("per-layer metrics:", per_layer);
    for f in &run.failures {
        println!("failed: {f}");
    }
    for m in &run.mismatches {
        println!("wrong result: {m}");
    }

    let mut out = String::with_capacity(16 * 1024);
    let _ = write!(
        out,
        "{{\"workload\":\"{name}\",\"seed\":{},\"seconds\":{},\"trace\":{traced},\"passes\":{},\
         \"attempted\":{},\"failed\":{},\"correct\":{},\n\"metrics\":[\n",
        ctx.seed,
        ctx.seconds,
        run.passes,
        run.attempted,
        run.failures.len(),
        run.mismatches.is_empty()
    );
    let mut first = true;
    metrics_json(&mut out, "workload", &run.report, &mut first);
    metrics_json(&mut out, "end_to_end", e2e, &mut first);
    metrics_json(&mut out, "per_layer", per_layer, &mut first);
    out.push_str("],\n\"failures\":");
    strings_json(&mut out, &run.failures);
    out.push_str(",\n\"mismatches\":");
    strings_json(&mut out, &run.mismatches);
    out.push_str("}\n");
    let stem = format!("{name}-seed{}-trace{traced}", ctx.seed);
    write_file(&ctx.out_dir.join(format!("{stem}.json")), &out)?;
    if ctx.tracer.is_on() {
        write_file(&ctx.out_dir.join(format!("{stem}-spans.json")), &ctx.tracer.to_json())?;
    }
    Ok(())
}

/// The last stdout line: `{"correct", "attempted", "failed", "metrics"}`.
pub fn final_line(run: &Run, metrics: &Metrics) -> String {
    let mut out = String::with_capacity(4096);
    let _ = write!(
        out,
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
        run.mismatches.is_empty(),
        run.attempted,
        run.failures.len()
    );
    for (k, m) in metrics.0.iter().enumerate() {
        if k > 0 {
            out.push(',');
        }
        out.push('"');
        escape_into(&mut out, &m.name);
        out.push_str("\":{\"value\":");
        json_num(&mut out, m.value);
        let _ = write!(out, ",\"unit\":\"{}\"}}", m.unit);
    }
    out.push_str("}}");
    out
}
