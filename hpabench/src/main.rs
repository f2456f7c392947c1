//! The repository benchmark: three workloads that load different layers
//! of the Half-Price Architecture reproduction, each checked for correct
//! output, with a traced variant that attributes host time to layers.
//!
//! ```text
//! cargo run --release --offline --manifest-path hpabench/Cargo.toml -- \
//!     --workload paper-matrix --seed 1 --seconds 30 --trace 0
//! ```
//!
//! Workloads (see `hpabench/README.md` for why each was chosen and which
//! metric each layer should move):
//!
//! * `paper-matrix` — 12 SPEC stand-ins × {base, combined} × {4, 8}-wide in
//!   full detail at Default scale, then the same 12 in sampled mode;
//! * `sampled-long` — the 12 stand-ins at Long scale in sampled mode;
//! * `serve-mixed` — an in-process `hpa serve` daemon driven by two SDK
//!   clients in a closed loop: 240 cold jobs and 1200 cache hits.
//!
//! The human-readable report goes to stdout first; the last stdout line
//! is one JSON object `{"correct", "attempted", "failed", "metrics"}`
//! carrying the end-to-end metrics (`--trace 0`) or the per-layer
//! metrics (`--trace 1`). A flat record of every metric, and with
//! `--trace 1` every span, is written under `hpabench/out/`.

mod heap;
mod layers;
mod long;
mod matrix;
mod measure;
mod record;
mod serve;
mod trace;

use hpa_core::obs::digest::fnv1a;
use measure::{median, quantile, Better, Metrics};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use trace::Tracer;

#[global_allocator]
static ALLOC: heap::CountingAlloc = heap::CountingAlloc;

/// Setups per run: at least `SETUP_REPS`, and more while they total under
/// `SETUP_BUDGET_S`, up to `SETUP_MAX_REPS`. `setup_s` is their median.
const SETUP_REPS: usize = 3;
const SETUP_BUDGET_S: f64 = 0.5;
const SETUP_MAX_REPS: usize = 25;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    PaperMatrix,
    SampledLong,
    ServeMixed,
}

impl Workload {
    const ALL: [Workload; 3] = [Workload::PaperMatrix, Workload::SampledLong, Workload::ServeMixed];

    pub fn key(self) -> &'static str {
        match self {
            Workload::PaperMatrix => "paper-matrix",
            Workload::SampledLong => "sampled-long",
            Workload::ServeMixed => "serve-mixed",
        }
    }
}

/// What a benchmark run is asked to do, and where it may write.
pub struct Ctx {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub tracer: Tracer,
    pub out_dir: PathBuf,
}

/// What one workload's measured passes produced.
#[derive(Default)]
pub struct Run {
    /// Wall time of each setup (building programs, translating binaries,
    /// binding the daemon), in seconds.
    pub setup_s: Vec<f64>,
    /// Host latency of every completed operation, in milliseconds.
    pub op_ms: Vec<f64>,
    /// Wall time of the measured passes, in seconds.
    pub loop_s: f64,
    pub passes: usize,
    /// Operations attempted (cells, sampled runs, jobs).
    pub attempted: u64,
    /// One line per failed operation: what failed and its error text.
    pub failures: Vec<String>,
    /// Checks that show a wrong result rather than a failed operation:
    /// any entry makes the run report `correct: false`.
    pub mismatches: Vec<String>,
    /// The workload's own named metrics (see README).
    pub report: Metrics,
    /// Digests of every deterministic output, compared across runs of
    /// the same build.
    pub digests: Vec<(String, u64)>,
    /// Daemon and SDK observations from every serve session.
    pub serve: serve::Totals,
}

impl Run {
    pub fn fail(&mut self, op: &str, error: impl std::fmt::Display) {
        self.failures.push(format!("{op}: {error}"));
    }

    pub fn mismatch(&mut self, op: &str, what: impl std::fmt::Display) {
        let line = format!("{op}: {what}");
        self.failures.push(line.clone());
        self.mismatches.push(line);
    }
}

/// Runs `setup` repeatedly (see `SETUP_REPS`), recording each wall time
/// in `setup_s`, and returns what the last one built. Earlier results are
/// dropped before the next setup starts, outside its timing.
pub fn repeat_setup<T>(
    setup_s: &mut Vec<f64>,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<T, String> {
    let mut last = None;
    while setup_s.len() < SETUP_REPS
        || (setup_s.len() < SETUP_MAX_REPS && setup_s.iter().sum::<f64>() < SETUP_BUDGET_S)
    {
        drop(last.take());
        let t0 = Instant::now();
        let built = setup()?;
        setup_s.push(t0.elapsed().as_secs_f64());
        last = Some(built);
    }
    Ok(last.expect("at least one setup ran"))
}

/// Runs `floor(seconds / pass_s)` passes, at least one, and returns their
/// wall time and count. A workload declares the nominal length of one of
/// its passes, so the pass count depends only on `--seconds`, never on
/// how fast this run happens to be.
pub fn repeat_passes(seconds: f64, pass_s: f64, mut pass: impl FnMut(usize)) -> (f64, usize) {
    let n = ((seconds / pass_s).floor() as usize).max(1);
    let t0 = Instant::now();
    for k in 0..n {
        pass(k);
    }
    (t0.elapsed().as_secs_f64(), n)
}

fn usage(err: &str) -> ExitCode {
    eprintln!("hpabench: {err}");
    eprintln!(
        "usage: hpabench --workload paper-matrix|sampled-long|serve-mixed --seed N --seconds N \
         --trace 0|1"
    );
    ExitCode::from(2)
}

fn parse_args() -> Result<Ctx, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.key() == value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value.parse::<u64>().map_err(|e| format!("--seconds: {e}"))?;
                if s == 0 {
                    return Err("--seconds must be at least 1".into());
                }
                seconds = Some(s as f64);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                });
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Ctx {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        tracer: Tracer::new(trace.ok_or("--trace is required")?),
        out_dir: PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out"),
    })
}

/// The end-to-end metrics every workload reports (the `--trace 0` JSON).
fn end_to_end(run: &Run) -> Metrics {
    let completed = run.op_ms.len() as u64;
    let mut m = Metrics::default();
    m.push("setup_s", median(&run.setup_s), "s", Better::Lower, run.setup_s.len() as u64);
    m.push("peak_heap_mb", heap::peak_mib(), "MiB", Better::Lower, 1);
    m.push("ops_per_s", completed as f64 / run.loop_s, "1/s", Better::Higher, completed);
    m.push("op_p90_ms", quantile(&run.op_ms, 0.9), "ms", Better::Lower, completed);
    m.push(
        "ok_ratio",
        completed as f64 / run.attempted as f64,
        "ratio",
        Better::Higher,
        run.attempted,
    );
    m
}

/// Identifies this build, so digests are compared only between runs of
/// the same code.
fn build_id() -> Result<u64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the executable: {e}"))?;
    let bytes = std::fs::read(&exe).map_err(|e| format!("reading {}: {e}", exe.display()))?;
    Ok(fnv1a(&bytes))
}

fn main() -> ExitCode {
    let ctx = match parse_args() {
        Ok(ctx) => ctx,
        Err(e) => return usage(&e),
    };
    match run(&ctx) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("hpabench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Runs the workload, checks and reports it; returns the final JSON line.
fn run(ctx: &Ctx) -> Result<String, String> {
    std::fs::create_dir_all(&ctx.out_dir)
        .map_err(|e| format!("creating {}: {e}", ctx.out_dir.display()))?;
    let t0 = Instant::now();
    let mut run = match ctx.workload {
        Workload::PaperMatrix => matrix::run(ctx)?,
        Workload::SampledLong => long::run(ctx)?,
        Workload::ServeMixed => serve::run(ctx)?,
    };
    let failure_ratio = run.failures.len() as f64 / run.attempted as f64;
    run.report.push("failed_ratio", failure_ratio, "ratio", Better::Lower, run.attempted);
    run.report.push("peak_rss_mb", measure::peak_rss_mib()?, "MiB", Better::Lower, 1);

    let mut per_layer = Metrics::default();
    if ctx.tracer.is_on() {
        let completed = run.op_ms.len() as f64;
        per_layer.extend(layers::battery(ctx, &mut run)?);
        per_layer.extend(layers::tracing(ctx, completed / run.loop_s, t0.elapsed().as_secs_f64()));
    }
    record::compare_digests(ctx, build_id()?, &mut run)?;
    // End-to-end metrics come only from untraced runs.
    let e2e = if ctx.tracer.is_on() { Metrics::default() } else { end_to_end(&run) };
    record::write(ctx, &run, &e2e, &per_layer)?;
    let json_metrics = if ctx.tracer.is_on() { &per_layer } else { &e2e };
    Ok(record::final_line(&run, json_metrics))
}
