//! `serve-mixed`: one in-process `hpa serve` daemon driven by two SDK
//! clients in a closed loop.
//!
//! The daemon runs with 2 workers, a memory-only result cache, the
//! write-ahead journal on a directory of the checkout (so every acked
//! submit pays its fsync) and no queue bound. Each client submits a job,
//! waits for it with `Client::wait` at the SDK's default 20 ms poll and
//! default retries, then submits the next.
//!
//! Cold jobs are 240 cells that differ by content, never by seed: 12
//! stand-ins at Tiny scale and the 3 RISC-V fixture ELFs sent as
//! `JobProgram::Binary`, each × 8 schemes × 2 widths. Each cell is then
//! resubmitted 5 more times (1200 hits), in an order set by the seed; a
//! repeat is only issued once its cell's cold job has completed. Every
//! payload's stats digest must equal a direct `run_prepared` of the same
//! cell, every hit must be byte-identical to its cold payload, and
//! `/health` must show exactly 240 misses and 1200 hits.

use crate::matrix::{build_all, cell_id};
use crate::measure::{median, ms, quantile, Better, Metrics};
use crate::{repeat_passes, repeat_setup, Ctx, Run};
use hpa_core::obs::digest::debug_digest;
use hpa_core::obs::json::Json;
use hpa_core::rv::fixtures::Fixture;
use hpa_core::workloads::{Scale, SplitMix64, Workload};
use hpa_core::{parallel_map, run_prepared, MachineWidth, Scheme};
use hpa_sdk::{Client, ClientError};
use hpa_serve::proto::{JobRequest, ResultResponse, SubmitResponse};
use hpa_serve::{JobStatus, Server, ServerConfig};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// Resubmissions of every cell after its cold job.
/// Nominal wall time of one pass (measured on a 2-vCPU x86-64 host);
/// `--seconds` buys `floor(seconds / PASS_S)` passes, at least one.
const PASS_S: f64 = 12.0;
pub const REPEATS: usize = 5;
/// Closed-loop clients.
pub const CLIENTS: usize = 2;
/// Daemon worker threads.
pub const WORKERS: usize = 2;
/// The SDK's default poll interval, which `Client::wait` uses.
const POLL: Duration = Duration::from_millis(20);
/// Generous per-job wait; a job still unfinished after it is a failure.
const WAIT_TIMEOUT: Duration = Duration::from_secs(60);

/// One distinct simulation cell and the digest a direct run gives.
pub struct Cell {
    pub id: String,
    pub request: JobRequest,
    pub reference: Result<u64, String>,
}

/// The programs one setup produces: Tiny stand-ins and translated fixtures.
pub struct Programs {
    pub tiny: Vec<Workload>,
    /// Each fixture's checked-in ELF bytes and the translated program.
    pub binaries: Vec<(Vec<u8>, Workload)>,
}

/// Loads and translates one fixture ELF, as the daemon does on submit.
pub fn translate_fixture(ctx: &Ctx, f: &Fixture) -> Workload {
    let image = ctx
        .tracer
        .span("rv.load_elf", f.name, || hpa_core::rv::load_elf(f.checked_in))
        .expect("checked-in fixture is a valid ELF");
    let program = ctx
        .tracer
        .span("rv.translate", f.name, || hpa_core::rv::translate(&image))
        .expect("checked-in fixture translates");
    Workload {
        name: f.name,
        description: f.description,
        program,
        expected_checksum: f.expected_checksum,
        budget: f.budget,
    }
}

pub fn build_programs(ctx: &Ctx) -> Programs {
    Programs {
        tiny: build_all(ctx, Scale::Tiny),
        binaries: hpa_core::rv::fixtures::all()
            .iter()
            .map(|f| (f.checked_in.to_vec(), translate_fixture(ctx, f)))
            .collect(),
    }
}

/// Every (program, scheme, width) cell over `programs`, with `schemes`
/// and `widths`, each with its reference digest from a direct run.
pub fn make_cells(
    ctx: &Ctx,
    programs: &Programs,
    schemes: &[Scheme],
    widths: &[MachineWidth],
) -> Vec<Cell> {
    let tiny = programs.tiny.iter().map(|w| (w, None));
    let binaries = programs.binaries.iter().map(|(bytes, w)| (w, Some(bytes)));
    let mut specs = Vec::new();
    for (w, bytes) in tiny.chain(binaries) {
        for &width in widths {
            for &scheme in schemes {
                specs.push((w, bytes, scheme, width));
            }
        }
    }
    // The direct runs are the reference, not the measurement: they run
    // before any daemon starts, on as many threads as the daemon has.
    parallel_map(&specs, WORKERS, |_, &(w, bytes, scheme, width)| {
        let mut request = match bytes {
            None => JobRequest::workload(w.name, Scale::Tiny, scheme),
            Some(b) => JobRequest::binary(b.clone(), scheme),
        };
        request.width = width;
        let id = cell_id(w.name, scheme, width);
        let reference = ctx
            .tracer
            .span("sim.run_prepared", &id, || {
                run_prepared(w, scheme.configure(width), scheme, width)
            })
            .map(|r| debug_digest(&r.stats))
            .map_err(|e| e.to_string());
        Cell { id, request, reference }
    })
}

/// Daemon-side counts read from `/health` after a session.
#[derive(Default, Clone, Copy)]
pub struct Health {
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub jobs_done: u64,
    pub jobs_failed: u64,
    pub jobs_rejected: u64,
    /// Largest queue depth any submission saw (the histogram's highest
    /// occupied bucket; depths of 15 or more share the last bucket).
    pub queue_depth_max: u64,
}

impl Health {
    fn parse(v: &Json) -> Result<Health, String> {
        let counters = v.get("counters").ok_or("/health has no counters")?;
        let field = |k: &str| {
            counters.get(k).and_then(Json::as_u64).ok_or_else(|| format!("/health lacks {k}"))
        };
        let depths = counters
            .get("queue_depth")
            .and_then(Json::as_arr)
            .ok_or("/health lacks queue_depth")?;
        let queue_depth_max = depths
            .iter()
            .enumerate()
            .filter(|(_, n)| n.as_u64().unwrap_or(0) > 0)
            .map(|(k, _)| k as u64)
            .max()
            .unwrap_or(0);
        Ok(Health {
            cache_hits: field("serve_cache_hits")?,
            cache_misses: field("serve_cache_misses")?,
            jobs_done: field("jobs_done")?,
            jobs_failed: field("jobs_failed")?,
            jobs_rejected: field("jobs_rejected")?,
            queue_depth_max,
        })
    }
}

/// Serve-layer observations summed over every session of a run.
#[derive(Default)]
pub struct Totals {
    /// Host ms per SDK call, keyed `<call>.<hit|cold>` (traced runs).
    pub calls: BTreeMap<String, Vec<f64>>,
    pub cold_jobs: u64,
    /// `/status` polls made for cold jobs (traced runs).
    pub cold_polls: u64,
    /// Retries the SDK reported through exhausted-retry errors.
    pub retries: u64,
    pub health: Health,
    /// One served payload, for the JSON render/parse measurement.
    pub sample_payload: Option<String>,
}

impl Totals {
    /// Adds another run's serve observations to these.
    pub fn absorb(&mut self, other: Totals) {
        for (call, times) in other.calls {
            self.calls.entry(call).or_default().extend(times);
        }
        self.cold_jobs += other.cold_jobs;
        self.cold_polls += other.cold_polls;
        self.retries += other.retries;
        let (h, o) = (&mut self.health, other.health);
        h.cache_hits += o.cache_hits;
        h.cache_misses += o.cache_misses;
        h.jobs_done += o.jobs_done;
        h.jobs_failed += o.jobs_failed;
        h.jobs_rejected += o.jobs_rejected;
        h.queue_depth_max = h.queue_depth_max.max(o.queue_depth_max);
        if self.sample_payload.is_none() {
            self.sample_payload = other.sample_payload;
        }
    }
}

/// The scheduler two clients share: the seeded job order, which cells
/// have had their cold job issued, and which have completed it.
struct Sched {
    pending: Vec<usize>,
    issued: Vec<bool>,
    done: Vec<bool>,
}

impl Sched {
    /// Takes the first pending job that may run now: a cell's first
    /// (cold) job, or a repeat whose cold job has completed. `None` when
    /// nothing may run yet; `Some(None)` when the order is exhausted.
    fn take(&mut self) -> Option<Option<(usize, bool)>> {
        if self.pending.is_empty() {
            return Some(None);
        }
        let k = self.pending.iter().position(|&c| !self.issued[c] || self.done[c])?;
        let c = self.pending.remove(k);
        let cold = !self.issued[c];
        self.issued[c] = true;
        Some(Some((c, cold)))
    }
}

/// The seeded job order: each cell `1 + repeats` times, shuffled.
fn job_order(n_cells: usize, repeats: usize, seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> =
        (0..n_cells).flat_map(|c| std::iter::repeat_n(c, 1 + repeats)).collect();
    let mut rng = SplitMix64::new(seed);
    for i in (1..order.len()).rev() {
        let j = rng.below(i as u64 + 1) as usize;
        order.swap(i, j);
    }
    order
}

/// Submits one job and waits for its result. Untraced, this is
/// `Client::submit` then `Client::wait`; traced, the same calls made one
/// by one inside spans, so each call is timed and polls are counted.
fn submit_and_wait(
    ctx: &Ctx,
    client: &Client,
    cell: &Cell,
    kind: &str,
    calls: &mut Vec<(String, f64)>,
    polls: &mut u64,
) -> Result<(SubmitResponse, ResultResponse), ClientError> {
    let tracer = &ctx.tracer;
    if !tracer.is_on() {
        let submit = client.submit(&cell.request)?;
        let result = client.wait(submit.job_id, WAIT_TIMEOUT)?;
        return Ok((submit, result));
    }
    let timed = |calls: &mut Vec<(String, f64)>, name: &'static str, f: &mut dyn FnMut()| {
        let t0 = Instant::now();
        tracer.span(name, &cell.id, f);
        calls.push((format!("{}.{kind}", name.trim_start_matches("sdk.")), ms(t0.elapsed())));
    };
    let mut submit = None;
    timed(calls, "sdk.submit", &mut || submit = Some(client.submit(&cell.request)));
    let submit = submit.expect("submit ran")?;
    let start = Instant::now();
    loop {
        let mut status = None;
        timed(calls, "sdk.status", &mut || status = Some(client.status(submit.job_id)));
        *polls += 1;
        if status.expect("status ran")?.status.is_terminal() {
            let mut result = None;
            timed(calls, "sdk.result", &mut || result = Some(client.result(submit.job_id)));
            return Ok((submit, result.expect("result ran")?));
        }
        if start.elapsed() >= WAIT_TIMEOUT {
            return Err(ClientError::Timeout { job_id: submit.job_id, waited: start.elapsed() });
        }
        tracer.span("sdk.poll_sleep", &cell.id, || std::thread::sleep(POLL));
    }
}

/// What one client saw.
#[derive(Default)]
struct ClientLog {
    cold_ms: Vec<f64>,
    hit_ms: Vec<f64>,
    failures: Vec<String>,
    mismatches: Vec<String>,
    calls: Vec<(String, f64)>,
    cold_polls: u64,
    retries: u64,
}

/// Checks one finished job; `Err` is a mismatch (a wrong result).
fn check(
    cell: &Cell,
    cold: bool,
    submit: &SubmitResponse,
    result: &ResultResponse,
    cold_payload: Option<&str>,
) -> Result<(), String> {
    let [served] = result.cells.as_slice() else {
        return Err(format!("expected 1 result cell, got {}", result.cells.len()));
    };
    let reference = cell.reference.as_ref().map_err(|e| format!("direct run failed: {e}"))?;
    if served.stats_digest() != Some(*reference) {
        return Err(format!(
            "served stats digest {:?} != direct run_prepared digest {reference:#x}",
            served.stats_digest()
        ));
    }
    if cold && submit.cached {
        return Err("cold job was answered from the cache".into());
    }
    if !cold {
        if !submit.cached {
            return Err("repeat was not answered from the cache".into());
        }
        if cold_payload != Some(served.payload_json()) {
            return Err("hit payload is not byte-identical to the cold payload".into());
        }
    }
    Ok(())
}

/// The closed loop of one client: take a job, run it, check it, repeat.
fn client_loop(
    ctx: &Ctx,
    addr: &str,
    cells: &[Cell],
    sched: &(Mutex<Sched>, Condvar),
    cold_payloads: &Mutex<Vec<Option<String>>>,
) -> ClientLog {
    let client = Client::new(addr);
    let mut log = ClientLog::default();
    loop {
        let next = {
            let mut s = sched.0.lock().expect("scheduler");
            loop {
                match s.take() {
                    Some(next) => break next,
                    None => s = sched.1.wait(s).expect("scheduler"),
                }
            }
        };
        let Some((c, cold)) = next else { return log };
        let cell = &cells[c];
        let kind = if cold { "cold" } else { "hit" };
        let op = format!("{}/{kind}", cell.id);
        let mut polls = 0;
        let t0 = Instant::now();
        let outcome = ctx.tracer.span("bench.op", &op, || {
            submit_and_wait(ctx, &client, cell, kind, &mut log.calls, &mut polls)
        });
        let latency = ms(t0.elapsed());
        match outcome {
            Err(e) => {
                if let ClientError::Exhausted { attempts, .. } = &e {
                    log.retries += u64::from(attempts - 1);
                }
                log.failures.push(format!("{op}: {e}"));
            }
            Ok((_, result)) if result.status != JobStatus::Done => {
                let error = result.error.unwrap_or_default();
                log.failures.push(format!("{op}: job ended {}: {error}", result.status.key()));
            }
            Ok((submit, result)) => {
                let checked = {
                    let mut payloads = cold_payloads.lock().expect("cold payloads");
                    let verdict = check(cell, cold, &submit, &result, payloads[c].as_deref());
                    if cold && verdict.is_ok() {
                        payloads[c] = Some(result.cells[0].payload_json().to_string());
                    }
                    verdict
                };
                match checked {
                    Ok(()) if cold => {
                        log.cold_ms.push(latency);
                        log.cold_polls += polls;
                    }
                    Ok(()) => log.hit_ms.push(latency),
                    Err(e) => {
                        log.failures.push(format!("{op}: {e}"));
                        log.mismatches.push(format!("{op}: {e}"));
                    }
                }
            }
        }
        if cold {
            // Release the repeats even after a failure: they then run as
            // misses, which the `/health` check reports.
            sched.0.lock().expect("scheduler").done[c] = true;
            sched.1.notify_all();
        }
    }
}

/// What one session measured.
pub struct Session {
    pub cold_ms: Vec<f64>,
    pub hit_ms: Vec<f64>,
    pub wall_s: f64,
}

/// Binds a fresh daemon, drives every cell once cold and `repeats` times
/// as hits from two clients, checks every result and `/health`, and
/// shuts the daemon down.
///
/// # Errors
///
/// Only when the daemon cannot be started or stopped; failed jobs are
/// recorded in `run`.
pub fn session(
    ctx: &Ctx,
    run: &mut Run,
    cells: &[Cell],
    repeats: usize,
    seed: u64,
    journal_dir: &Path,
) -> Result<Session, String> {
    let _ = std::fs::remove_dir_all(journal_dir);
    let server =
        Server::bind(server_config(journal_dir)).map_err(|e| format!("binding the daemon: {e}"))?;
    let addr = server.local_addr().map_err(|e| format!("daemon address: {e}"))?.to_string();
    let sched = (
        Mutex::new(Sched {
            pending: job_order(cells.len(), repeats, seed),
            issued: vec![false; cells.len()],
            done: vec![false; cells.len()],
        }),
        Condvar::new(),
    );
    let cold_payloads = Mutex::new(vec![None; cells.len()]);
    run.attempted += (cells.len() * (1 + repeats)) as u64;
    let (logs, wall_s, health, served) = std::thread::scope(|scope| {
        let daemon = scope.spawn(move || server.run());
        let t0 = Instant::now();
        let clients: Vec<_> = (0..CLIENTS)
            .map(|_| scope.spawn(|| client_loop(ctx, &addr, cells, &sched, &cold_payloads)))
            .collect();
        let logs: Vec<ClientLog> =
            clients.into_iter().map(|h| h.join().expect("client thread")).collect();
        let wall_s = t0.elapsed().as_secs_f64();
        let control = Client::new(addr.as_str());
        let health = control.health().map_err(|e| format!("/health: {e}"));
        let stopped = control.shutdown().map_err(|e| format!("shutdown: {e}"));
        let served = daemon.join().expect("daemon thread").map_err(|e| format!("daemon: {e}"));
        (logs, wall_s, health.and_then(|h| Health::parse(&h)), stopped.and(served))
    });
    let _ = std::fs::remove_dir_all(journal_dir);
    served?;
    let health = health?;

    let mut session = Session { cold_ms: Vec::new(), hit_ms: Vec::new(), wall_s };
    let totals = &mut run.serve;
    for log in logs {
        session.cold_ms.extend(&log.cold_ms);
        session.hit_ms.extend(&log.hit_ms);
        run.failures.extend(log.failures);
        run.mismatches.extend(log.mismatches);
        for (call, t) in log.calls {
            totals.calls.entry(call).or_default().push(t);
        }
        totals.cold_polls += log.cold_polls;
        totals.retries += log.retries;
    }
    run.op_ms.extend(session.cold_ms.iter().chain(&session.hit_ms));
    totals.cold_jobs += session.cold_ms.len() as u64;
    let t = &mut totals.health;
    t.cache_hits += health.cache_hits;
    t.cache_misses += health.cache_misses;
    t.jobs_done += health.jobs_done;
    t.jobs_failed += health.jobs_failed;
    t.jobs_rejected += health.jobs_rejected;
    t.queue_depth_max = t.queue_depth_max.max(health.queue_depth_max);
    if totals.sample_payload.is_none() {
        totals.sample_payload =
            cold_payloads.into_inner().expect("cold payloads").into_iter().flatten().next();
    }
    let (want_misses, want_hits) = (cells.len() as u64, (cells.len() * repeats) as u64);
    if (health.cache_misses, health.cache_hits) != (want_misses, want_hits) {
        run.mismatches.push(format!(
            "/health shows {} misses and {} hits, expected {want_misses} and {want_hits}",
            health.cache_misses, health.cache_hits
        ));
    }
    Ok(session)
}

/// The fixed daemon settings: 2 workers, memory-only cache, journal on,
/// no queue bound, an ephemeral localhost port.
fn server_config(journal_dir: &Path) -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: WORKERS,
        cache_dir: None,
        journal_dir: Some(journal_dir.to_path_buf()),
        max_queue: None,
        cache_max_entries: None,
        cache_max_bytes: None,
    }
}

pub fn run(ctx: &Ctx) -> Result<Run, String> {
    let mut run = Run::default();
    // Setup is what a daemon start costs: building the programs,
    // translating the binaries and binding (with journal replay).
    let probe = ctx.out_dir.join(format!("serve-setup-{}", std::process::id()));
    let (programs, server) = repeat_setup(&mut run.setup_s, || {
        let programs = build_programs(ctx);
        let server =
            Server::bind(server_config(&probe)).map_err(|e| format!("binding the daemon: {e}"))?;
        Ok((programs, server))
    })?;
    drop(server);
    let _ = std::fs::remove_dir_all(&probe);
    let cells = make_cells(ctx, &programs, &Scheme::ALL, &MachineWidth::ALL);
    for cell in &cells {
        if let Ok(d) = cell.reference {
            run.digests.push((format!("serve/{}", cell.id), d));
        }
    }
    let mut sessions = Vec::new();
    let mut fatal = None;
    let (loop_s, passes) = repeat_passes(ctx.seconds, PASS_S, |pass| {
        if fatal.is_some() {
            return;
        }
        let dir = ctx.out_dir.join(format!("serve-journal-{}-{pass}", std::process::id()));
        let seed = ctx.seed.wrapping_add(pass as u64);
        match session(ctx, &mut run, &cells, REPEATS, seed, &dir) {
            Ok(s) => sessions.push(s),
            Err(e) => fatal = Some(e),
        }
    });
    if let Some(e) = fatal {
        return Err(e);
    }
    run.loop_s = loop_s;
    run.passes = passes;

    let cold: Vec<f64> = sessions.iter().flat_map(|s| s.cold_ms.iter().copied()).collect();
    let hit: Vec<f64> = sessions.iter().flat_map(|s| s.hit_ms.iter().copied()).collect();
    let wall: f64 = sessions.iter().map(|s| s.wall_s).sum();
    let (nc, nh) = (cold.len() as u64, hit.len() as u64);
    let mut m = Metrics::default();
    m.push("serve_cold_p50_ms", median(&cold), "ms", Better::Lower, nc);
    m.push("serve_cold_p95_ms", quantile(&cold, 0.95), "ms", Better::Lower, nc);
    m.push("serve_hit_p50_ms", median(&hit), "ms", Better::Lower, nh);
    m.push("serve_hit_p99_ms", quantile(&hit, 0.99), "ms", Better::Lower, nh);
    m.push("serve_jobs_per_s", (nc + nh) as f64 / wall, "jobs/s", Better::Higher, nc + nh);
    run.report = m;
    Ok(run)
}
