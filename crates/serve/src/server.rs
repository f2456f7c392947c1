//! The daemon: a job table, worker pool and HTTP front end over the
//! result cache.
//!
//! Architecture (one paragraph): the accept loop runs on the caller's
//! thread and handles each connection inline — every handler is cheap
//! (`/submit` only validates, probes the cache and enqueues; `/status`
//! reads the job table; `/result` on an unfinished job parks its
//! connection on the job, and whichever thread moves the job to a
//! terminal state answers it) so there is no per-connection thread.
//! Simulation happens on `workers` threads that block on the
//! [`JobQueue`]; each cell of a job runs under `catch_unwind` isolation
//! (via [`hpa_core::pool::parallel_map_isolated`]) so a planted panic
//! fails one job, never the daemon, and a cycle-budget watchdog turns
//! hangs into structured deadlock faults. `POST /shutdown` drains:
//! submissions start bouncing with 503, the backlog still runs to
//! completion (or to its deadlines) and answers every parked `/result`,
//! workers exit, the cache index is flushed, and [`Server::run`]
//! returns.

use crate::cache::ResultCache;
use crate::http::{self, Request, Response};
use crate::journal::{Journal, Record, ReplayedJob};
use crate::proto::{
    CellResult, JobProgram, JobRequest, JobStatus, ResultResponse, StatusResponse, SubmitResponse,
};
use crate::queue::JobQueue;
use hpa_asm::Program;
use hpa_core::pool::parallel_map_isolated;
use hpa_core::{cell_key, run, Mode, RunSpec, Scheme};
use hpa_obs::digest::format_hex;
use hpa_obs::json::Json;
use hpa_obs::ServeCounters;
use hpa_sim::SimConfig;
use hpa_workloads::workload;
use std::collections::HashMap;
use std::io::{self, BufReader};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Server construction parameters.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Address to bind, e.g. `127.0.0.1:8080` (port 0 picks an ephemeral
    /// port; read it back with [`Server::local_addr`]).
    pub addr: String,
    /// Simulation worker threads.
    pub workers: usize,
    /// On-disk cache directory; `None` keeps the cache memory-only.
    pub cache_dir: Option<PathBuf>,
    /// Write-ahead journal directory; `None` disables durability.
    pub journal_dir: Option<PathBuf>,
    /// Admission-control bound on queued jobs; `None` is unbounded.
    pub max_queue: Option<usize>,
    /// Result-cache entry bound (insertion-order eviction past it).
    pub cache_max_entries: Option<usize>,
    /// Result-cache payload-byte bound (insertion-order eviction).
    pub cache_max_bytes: Option<u64>,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:8080".to_string(),
            workers: hpa_core::default_jobs().min(4),
            cache_dir: None,
            journal_dir: None,
            max_queue: None,
            cache_max_entries: None,
            cache_max_bytes: None,
        }
    }
}

/// The most `GET /result` connections that may wait on unfinished jobs
/// at once. Each holds a file descriptor that outside input opened; past
/// the cap, `/result` answers at once with the job's current status.
pub const MAX_PARKED: usize = 256;

/// One job's full lifecycle record.
struct Job {
    /// `None` only for journal-rehydrated terminal jobs whose `submitted`
    /// record was lost to corruption — their results still serve.
    request: Option<JobRequest>,
    status: JobStatus,
    cached: bool,
    error: Option<String>,
    cells: Vec<CellResult>,
    submitted: Instant,
    deadline: Option<Instant>,
    /// `GET /result` connections waiting for a terminal state.
    waiters: Vec<TcpStream>,
}

/// The lazy-expiry message (also journaled, so replay reproduces it).
const EXPIRY_ERROR: &str = "deadline passed before the job started";

impl Job {
    /// Lazily expires a job still queued past its deadline; returns
    /// whether this call performed the transition.
    fn expire_if_due(&mut self, now: Instant) -> bool {
        if self.status == JobStatus::Queued && self.deadline.is_some_and(|d| now >= d) {
            self.status = JobStatus::Expired;
            self.error = Some(EXPIRY_ERROR.to_string());
            return true;
        }
        false
    }

    /// The `/result` answer: cells only once `done`.
    fn result(&self, id: u64) -> ResultResponse {
        ResultResponse {
            job_id: id,
            status: self.status,
            cached: self.cached,
            error: self.error.clone(),
            cells: if self.status == JobStatus::Done { self.cells.clone() } else { Vec::new() },
        }
    }

    /// Takes the connections parked on a job that just turned terminal,
    /// with the answer they are owed.
    fn wake(&mut self, id: u64) -> Wake {
        let waiters = std::mem::take(&mut self.waiters);
        let result = (!waiters.is_empty()).then(|| self.result(id));
        Wake { waiters, result }
    }
}

/// Parked `/result` connections and their answer, taken under the jobs
/// lock and sent by [`Wake::send`] once it is released.
struct Wake {
    waiters: Vec<TcpStream>,
    result: Option<ResultResponse>,
}

impl Wake {
    fn send(self, state: &ServerState) {
        let Some(result) = self.result else { return };
        state.parked.fetch_sub(self.waiters.len(), Ordering::SeqCst);
        let response = Response::ok(result.to_json());
        for stream in self.waiters {
            respond(stream, &response);
        }
    }
}

/// Bookkeeping after a lazy expiry (caller must have released the jobs
/// lock): counter bump, a journaled terminal record, then the answer to
/// every parked `/result` connection.
fn record_expiry(state: &ServerState, id: u64, wake: Wake) {
    state.counters.lock().expect("serve counters").jobs_expired += 1;
    if let Some(journal) = &state.journal {
        journal.append(&Record::Expired { id, error: EXPIRY_ERROR.to_string() }, true);
    }
    wake.send(state);
}

struct ServerState {
    jobs: Mutex<HashMap<u64, Job>>,
    next_id: AtomicU64,
    queue: JobQueue,
    cache: ResultCache,
    counters: Mutex<ServeCounters>,
    shutdown: AtomicBool,
    /// Write-ahead journal (`None` without `--journal-dir`). Lock order:
    /// appends always happen *after* the jobs/counters locks are
    /// released; the journal's own mutex is innermost and leaf-only.
    journal: Option<Journal>,
    /// Admission-control bound on queued jobs.
    max_queue: Option<usize>,
    /// Worker-pool size, for deriving `retry_after_ms` from queue depth.
    workers: usize,
    /// Connections parked in `GET /result`, at most [`MAX_PARKED`]. Only
    /// raised under the jobs lock, so the cap holds exactly.
    parked: AtomicUsize,
}

/// The simulation daemon. [`Server::bind`] claims the socket (so the
/// caller can learn an ephemeral port before serving); [`Server::run`]
/// blocks until a graceful shutdown completes.
pub struct Server {
    listener: TcpListener,
    state: ServerState,
    workers: usize,
    /// Human-readable summary of the startup journal replay (`None`
    /// without a journal), for the CLI to print.
    replay_summary: Option<String>,
}

impl Server {
    /// Binds the listener, opens the cache, and — with a journal
    /// configured — replays it: terminal jobs rehydrate the job table and
    /// the result cache, incomplete jobs re-enqueue in original submit
    /// order (their deadline clocks restart at recovery time). Cached and
    /// journaled results from another timing model are dropped (see
    /// [`ResultCache::open_bounded`] and [`Journal::open`]) and counted
    /// in `/health`.
    ///
    /// # Errors
    ///
    /// Socket bind or cache/journal-directory creation failures. Corrupt
    /// journal *content* is never an error — damaged records are skipped
    /// and counted in `journal_records_skipped`.
    pub fn bind(config: ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let cache = ResultCache::open_bounded(
            config.cache_dir,
            config.cache_max_entries,
            config.cache_max_bytes,
        )?;
        let workers = config.workers.max(1);
        let mut server = Server {
            listener,
            state: ServerState {
                jobs: Mutex::new(HashMap::new()),
                next_id: AtomicU64::new(1),
                queue: JobQueue::new(),
                cache,
                counters: Mutex::new(ServeCounters::default()),
                shutdown: AtomicBool::new(false),
                journal: None,
                max_queue: config.max_queue,
                workers,
                parked: AtomicUsize::new(0),
            },
            workers,
            replay_summary: None,
        };
        if let Some(dir) = &config.journal_dir {
            let (journal, replay) = Journal::open(dir)?;
            let now = Instant::now();
            let mut requeued = 0u64;
            let mut rehydrated = 0u64;
            let mut jobs = server.state.jobs.lock().expect("job table");
            for (id, ReplayedJob { request, terminal }) in replay.jobs {
                let mut job = Job {
                    request,
                    status: JobStatus::Queued,
                    cached: false,
                    error: None,
                    cells: Vec::new(),
                    submitted: now,
                    deadline: None,
                    waiters: Vec::new(),
                };
                match terminal {
                    None => {
                        // The original deadline was wall-clock-relative to
                        // a process that no longer exists; restart it.
                        let ms = job.request.as_ref().and_then(|r| r.deadline_ms);
                        job.deadline = ms.map(|ms| now + Duration::from_millis(ms));
                    }
                    Some(Record::Done { cached, cells, .. }) => {
                        for cell in &cells {
                            if let Some(key) = cell.cache_key() {
                                server.state.cache.put(key, cell.payload_json());
                            }
                        }
                        (job.status, job.cached, job.cells) = (JobStatus::Done, cached, cells);
                    }
                    Some(Record::Failed { error, .. }) => {
                        (job.status, job.error) = (JobStatus::Failed, Some(error));
                    }
                    Some(Record::Expired { error, .. }) => {
                        (job.status, job.error) = (JobStatus::Expired, Some(error));
                    }
                    Some(_) => unreachable!("replay keeps only terminal records"),
                }
                let queued = job.status == JobStatus::Queued;
                jobs.insert(id, job);
                if queued {
                    requeued += 1;
                    server.state.queue.push(id);
                } else {
                    rehydrated += 1;
                }
            }
            drop(jobs);
            server.state.next_id.store(replay.next_id, Ordering::SeqCst);
            {
                let mut counters = server.state.counters.lock().expect("serve counters");
                counters.journal_records_skipped = replay.skipped;
                counters.journal_jobs_requeued = requeued;
                counters.journal_jobs_rehydrated = rehydrated;
                counters.journal_stale_dropped = replay.stale;
            }
            server.replay_summary = Some(format!(
                "journal: replayed {} record(s): {requeued} requeued, \
                 {rehydrated} rehydrated, {} skipped, {} stale",
                replay.records, replay.skipped, replay.stale
            ));
            server.state.journal = Some(journal);
        }
        Ok(server)
    }

    /// The startup journal-replay summary, when a journal is configured.
    #[must_use]
    pub fn replay_summary(&self) -> Option<&str> {
        self.replay_summary.as_deref()
    }

    /// The bound address (resolves port 0 to the actual ephemeral port).
    ///
    /// # Errors
    ///
    /// Propagates the socket's `local_addr` failure.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Serves until `POST /shutdown`: accept loop on this thread,
    /// simulation on the worker pool. On shutdown the queued backlog
    /// still runs (jobs whose deadlines pass while queued expire
    /// instead), then the cache index is flushed and the call returns.
    ///
    /// # Errors
    ///
    /// Only fatal listener errors; per-connection failures are contained.
    pub fn run(self) -> io::Result<()> {
        let state = &self.state;
        std::thread::scope(|scope| {
            for _ in 0..self.workers {
                scope.spawn(move || worker_loop(state));
            }
            for stream in self.listener.incoming() {
                match stream {
                    Ok(stream) => handle_connection(state, stream),
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(e) => {
                        // Tear down the workers before surfacing the error.
                        state.queue.drain();
                        return Err(e);
                    }
                }
                if state.shutdown.load(Ordering::SeqCst) {
                    break;
                }
            }
            state.queue.drain();
            Ok(())
        })?;
        self.state.cache.flush();
        Ok(())
    }
}

/// One worker: pop ids until drain completes, expiring overdue jobs and
/// executing the rest.
fn worker_loop(state: &ServerState) {
    while let Some(id) = state.queue.pop() {
        execute_job(state, id);
    }
}

/// Reads one request off a fresh connection, routes it, writes the
/// response (or parks the connection, for `/result`). All errors are
/// contained: a malformed or timed-out request can never take the
/// daemon down.
fn handle_connection(state: &ServerState, stream: TcpStream) {
    // A stalled peer must not wedge the accept loop.
    let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(10)));
    let mut reader = BufReader::new(match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    });
    match http::read_request(&mut reader) {
        Ok(req) => match (req.method.as_str(), parse_id(&req.path, "/result/")) {
            ("GET", Some(id)) => handle_result(state, id, stream),
            _ => respond(stream, &route(state, &req)),
        },
        // Structured rejection: 413 for oversize framing, 400 otherwise.
        Err(e) => respond(stream, &http::rejection(&e)),
    }
}

fn respond(mut stream: TcpStream, response: &Response) {
    let _ = http::write_response(&mut stream, response);
}

/// Dispatches one request to its handler.
fn route(state: &ServerState, req: &Request) -> Response {
    match (req.method.as_str(), req.path.as_str()) {
        ("POST", "/submit") => handle_submit(state, &req.body),
        ("POST", "/shutdown") => {
            // Drain first so workers start finishing the backlog, then
            // flip the accept-loop flag: this handler's own connection is
            // the one whose completion breaks the loop.
            state.queue.drain();
            state.shutdown.store(true, Ordering::SeqCst);
            Response::ok(Json::obj(vec![("ok", Json::from(true))]))
        }
        ("GET", "/health") => handle_health(state),
        ("GET", path) => {
            if let Some(id) = parse_id(path, "/status/") {
                handle_status(state, id)
            } else {
                Response::error(404, &format!("no such path `{path}`"))
            }
        }
        (method, path) => Response::error(405, &format!("{method} {path} not supported")),
    }
}

fn parse_id(path: &str, prefix: &str) -> Option<u64> {
    path.strip_prefix(prefix)?.parse().ok()
}

/// `POST /submit`: validate, probe the cache, and either answer
/// immediately (every cell cached), enqueue, or bounce with a structured
/// 429 when admission control says the queue is full.
fn handle_submit(state: &ServerState, body: &str) -> Response {
    if state.queue.is_draining() {
        return Response::error(503, "server is draining");
    }
    // Cheap admission pre-check before any parsing or journaling: an
    // overloaded daemon sheds load at the door. (The authoritative check
    // is the atomic `push_bounded` below; this one just keeps the
    // rejected path from paying for validation and an fsync.)
    if let Some(max) = state.max_queue {
        let depth = state.queue.len();
        if depth >= max {
            return reject_overflow(state, depth);
        }
    }
    let parsed = match hpa_obs::json::parse(body) {
        Ok(v) => v,
        Err(e) => return Response::error(400, &e),
    };
    let request = match JobRequest::from_json(&parsed) {
        Ok(r) => r,
        Err(e) => return Response::error(400, &e),
    };
    // Validate the program *now* so a typo'd workload name or unparsable
    // source is a 400, not a failed job found only when its result comes back.
    let resolved = match resolve_program(&request) {
        Ok(r) => r,
        Err(e) => return Response::error(400, &e),
    };

    let now = Instant::now();
    let deadline = request.deadline_ms.map(|ms| now + Duration::from_millis(ms));
    let id = state.next_id.fetch_add(1, Ordering::SeqCst);

    // Submit-time fast path: if every cell is already cached the job is
    // `done` before it is ever queued — the response itself says
    // `cached: true` and no simulation (or worker round-trip) happens.
    let mut cells = Vec::with_capacity(request.schemes.len());
    for &scheme in &request.schemes {
        let config = cell_config(&request, scheme);
        let key = cell_key(&resolved.program, &config, scheme, request.seed, request.sampled);
        match state.cache.get(key) {
            Some(payload) => cells.push(CellResult::new(scheme, true, payload)),
            None => {
                cells.clear();
                break;
            }
        }
    }
    let all_cached = !cells.is_empty();
    let n_cells = request.schemes.len() as u64;

    let status = if all_cached { JobStatus::Done } else { JobStatus::Queued };
    // Journal `submitted` (fsync'd) *before* the job becomes visible —
    // once the 200 goes out, a kill -9 cannot lose the job. Appends
    // happen outside the jobs/counters locks (lock-order discipline).
    if let Some(journal) = &state.journal {
        journal.append(&Record::Submitted { id, request: request.clone() }, true);
        if all_cached {
            journal.append(&Record::Done { id, cached: true, cells: cells.clone() }, true);
        }
    }
    let job = Job {
        request: Some(request),
        status,
        cached: all_cached,
        error: None,
        cells,
        submitted: now,
        deadline,
        waiters: Vec::new(),
    };
    state.jobs.lock().expect("job table").insert(id, job);

    if all_cached {
        let mut counters = state.counters.lock().expect("serve counters");
        counters.cache_hits += n_cells;
        counters.jobs_done += 1;
        counters.record_latency_ms(0);
        drop(counters);
        return Response::ok(
            SubmitResponse { job_id: id, status: JobStatus::Done, cached: true }.to_json(),
        );
    }

    match state.queue.push_bounded(id, state.max_queue) {
        Ok(depth) => {
            state.counters.lock().expect("serve counters").queue_depth.record(depth as u64);
            Response::ok(
                SubmitResponse { job_id: id, status: JobStatus::Queued, cached: false }.to_json(),
            )
        }
        Err(depth) => {
            // Lost the admission race after the `submitted` record was
            // already durable: retract the job. The journaled `expired`
            // record keeps replay consistent (a harmless terminal entry).
            state.jobs.lock().expect("job table").remove(&id);
            if let Some(journal) = &state.journal {
                journal
                    .append(&Record::Expired { id, error: "rejected: queue full".into() }, false);
            }
            reject_overflow(state, depth)
        }
    }
}

/// Builds the structured 429: the error plus a `retry_after_ms` hint
/// derived from the mean observed job latency and the backlog depth
/// relative to the worker pool (how many "waves" of work are queued).
fn reject_overflow(state: &ServerState, depth: usize) -> Response {
    let mut counters = state.counters.lock().expect("serve counters");
    counters.jobs_rejected += 1;
    // 500 ms before any job has finished: long enough to matter, short
    // enough that a freshly started daemon is retried promptly.
    let mean = counters.mean_latency_ms().unwrap_or(500).max(1);
    drop(counters);
    let waves = (depth as u64).div_ceil(state.workers as u64).max(1);
    let retry_after_ms = (mean * waves).clamp(100, 60_000);
    Response::json(
        429,
        Json::obj(vec![
            ("error", Json::from(format!("queue full: {depth} job(s) queued"))),
            ("retry_after_ms", Json::from(retry_after_ms)),
        ]),
    )
}

fn handle_status(state: &ServerState, id: u64) -> Response {
    let mut jobs = state.jobs.lock().expect("job table");
    let Some(job) = jobs.get_mut(&id) else {
        return Response::error(404, &format!("no job {id}"));
    };
    let expired = job.expire_if_due(Instant::now()).then(|| job.wake(id));
    let resp = StatusResponse {
        job_id: id,
        status: job.status,
        cached: job.cached,
        error: job.error.clone(),
    };
    drop(jobs);
    if let Some(wake) = expired {
        record_expiry(state, id, wake);
    }
    Response::ok(resp.to_json())
}

/// `GET /result/<id>`: a terminal or unknown job is answered at once. A
/// queued or running one parks the connection on the job, and whichever
/// thread moves the job to a terminal state answers it. At
/// [`MAX_PARKED`] parked connections, those whose client has hung up (a
/// `wait` whose read timed out, or one that gave up) are dropped first;
/// if the cap still holds, the current status goes out at once.
fn handle_result(state: &ServerState, id: u64, stream: TcpStream) {
    let mut jobs = state.jobs.lock().expect("job table");
    if state.parked.load(Ordering::SeqCst) >= MAX_PARKED {
        for job in jobs.values_mut().filter(|job| !job.waiters.is_empty()) {
            let before = job.waiters.len();
            job.waiters.retain(|w| !hung_up(w));
            state.parked.fetch_sub(before - job.waiters.len(), Ordering::SeqCst);
        }
    }
    let Some(job) = jobs.get_mut(&id) else {
        drop(jobs);
        return respond(stream, &Response::error(404, &format!("no job {id}")));
    };
    let expired = job.expire_if_due(Instant::now()).then(|| job.wake(id));
    if !job.status.is_terminal() && state.parked.load(Ordering::SeqCst) < MAX_PARKED {
        state.parked.fetch_add(1, Ordering::SeqCst);
        job.waiters.push(stream);
        drop(jobs);
        state.counters.lock().expect("serve counters").results_parked += 1;
        return;
    }
    let resp = job.result(id);
    drop(jobs);
    if let Some(wake) = expired {
        record_expiry(state, id, wake);
    }
    respond(stream, &Response::ok(resp.to_json()));
}

/// Whether a parked connection's client has closed it: a non-blocking
/// peek that finds end of stream or an error rather than no data yet.
fn hung_up(stream: &TcpStream) -> bool {
    let _ = stream.set_nonblocking(true);
    let open = matches!(stream.peek(&mut [0u8]), Err(e) if e.kind() == io::ErrorKind::WouldBlock);
    let _ = stream.set_nonblocking(false);
    !open
}

fn handle_health(state: &ServerState) -> Response {
    let counters = {
        let mut counters = state.counters.lock().expect("serve counters");
        // Eviction and reload bookkeeping live in the cache; mirror them
        // here so one endpoint reports everything.
        counters.cache_evictions = state.cache.evictions();
        counters.cache_stale_dropped = state.cache.stale_dropped();
        counters.results_parked_now = state.parked.load(Ordering::SeqCst) as u64;
        counters.to_json()
    };
    Response::ok(Json::obj(vec![
        ("ok", Json::from(true)),
        ("draining", Json::from(state.queue.is_draining())),
        ("queue_depth", Json::from(state.queue.len())),
        ("max_queue", state.max_queue.map_or(Json::Null, Json::from)),
        ("cache_entries", Json::from(state.cache.len())),
        ("cache_bytes", Json::from(state.cache.bytes())),
        ("counters", counters),
    ]))
}

/// A job's program resolved to executable form.
#[derive(Debug)]
struct ResolvedProgram {
    /// The workload name, or `source` / `binary`.
    name: &'static str,
    program: Program,
    /// The reference checksum, for built-in workloads (source programs
    /// have no oracle — they run unverified).
    checksum: Option<u64>,
}

fn resolve_program(request: &JobRequest) -> Result<ResolvedProgram, String> {
    match &request.program {
        JobProgram::Workload { name, scale } => {
            let w = workload(name, *scale)
                .ok_or_else(|| format!("unknown workload `{name}`; see `hpa list`"))?;
            Ok(ResolvedProgram {
                name: w.name,
                program: w.program,
                checksum: Some(w.expected_checksum),
            })
        }
        JobProgram::Source(text) => {
            let program = hpa_asm::parse_program(text).map_err(|e| format!("assembly: {e}"))?;
            Ok(ResolvedProgram { name: "source", program, checksum: None })
        }
        JobProgram::Binary(bytes) => {
            let image = hpa_core::rv::load_elf(bytes).map_err(|e| format!("elf: {e}"))?;
            let program = hpa_core::rv::translate(&image).map_err(|e| format!("translate: {e}"))?;
            Ok(ResolvedProgram { name: "binary", program, checksum: None })
        }
    }
}

/// The final configuration for one cell: scheme applied to the width's
/// base config, plus the request's overrides.
fn cell_config(request: &JobRequest, scheme: Scheme) -> SimConfig {
    let mut config = scheme.configure(request.width);
    if let Some(n) = request.pc_table_entries {
        config = config.with_pc_table_entries(n);
    }
    config
}

/// Runs one popped job to a terminal state.
fn execute_job(state: &ServerState, id: u64) {
    // Claim the job: skip if it expired while queued, otherwise mark it
    // running and snapshot the request (workers never hold the table
    // lock while simulating).
    let request = {
        let mut jobs = state.jobs.lock().expect("job table");
        let Some(job) = jobs.get_mut(&id) else { return };
        if job.expire_if_due(Instant::now()) {
            let wake = job.wake(id);
            drop(jobs);
            record_expiry(state, id, wake);
            return;
        }
        if job.status != JobStatus::Queued {
            return;
        }
        let Some(request) = job.request.clone() else { return };
        job.status = JobStatus::Running;
        request
    };
    let resolved = match resolve_program(&request) {
        Ok(r) => r,
        // Unreachable in practice: submit validated the program. Kept as
        // a failure path rather than a panic for defense in depth.
        Err(e) => return finish_job(state, id, Err(e)),
    };

    // Each cell runs panic-isolated (`jobs = 1` keeps the map inline on
    // this worker thread — isolation without nested fan-out; job-level
    // parallelism comes from the worker pool).
    let mut hits = 0u64;
    let mut misses = 0u64;
    let outcomes = parallel_map_isolated(&request.schemes, 1, |_, &scheme| {
        let config = cell_config(&request, scheme);
        let key = cell_key(&resolved.program, &config, scheme, request.seed, request.sampled);
        match state.cache.get(key) {
            Some(payload) => Ok((CellResult::new(scheme, true, payload), true)),
            None => run_cell(&request, &resolved, scheme, &config, key)
                .map(|payload| {
                    state.cache.put(key, &payload);
                    (CellResult::new(scheme, false, payload), false)
                })
                .map_err(|e| format!("scheme `{}`: {e}", scheme.key())),
        }
    });

    let mut cells = Vec::with_capacity(outcomes.len());
    let mut failure = None;
    for (outcome, &scheme) in outcomes.into_iter().zip(&request.schemes) {
        match outcome {
            Ok(Ok((cell, was_hit))) => {
                if was_hit {
                    hits += 1;
                } else {
                    misses += 1;
                }
                cells.push(cell);
            }
            Ok(Err(e)) => {
                failure.get_or_insert(e);
            }
            Err(panic) => {
                failure.get_or_insert(format!(
                    "scheme `{}`: cell panicked: {}",
                    scheme.key(),
                    panic.message
                ));
            }
        }
    }

    {
        let mut counters = state.counters.lock().expect("serve counters");
        counters.cache_hits += hits;
        counters.cache_misses += misses;
    }
    match failure {
        None => finish_job(state, id, Ok(cells)),
        Some(e) => finish_job(state, id, Err(e)),
    }
}

/// Records a job's terminal state, its latency, and the journal's
/// terminal record, answers the job's parked `/result` connections, then
/// rotates the journal if it has grown past the threshold.
fn finish_job(state: &ServerState, id: u64, outcome: Result<Vec<CellResult>, String>) {
    let (latency_ms, terminal, wake) = {
        let mut jobs = state.jobs.lock().expect("job table");
        let Some(job) = jobs.get_mut(&id) else { return };
        let terminal = match outcome {
            Ok(cells) => {
                job.cached = cells.iter().all(|c| c.cached);
                job.cells = cells.clone();
                job.status = JobStatus::Done;
                Record::Done { id, cached: job.cached, cells }
            }
            Err(e) => {
                job.status = JobStatus::Failed;
                job.error = Some(e.clone());
                Record::Failed { id, error: e }
            }
        };
        (job.submitted.elapsed().as_millis() as u64, terminal, job.wake(id))
    };
    let done = matches!(terminal, Record::Done { .. });
    {
        let mut counters = state.counters.lock().expect("serve counters");
        if done {
            counters.jobs_done += 1;
        } else {
            counters.jobs_failed += 1;
        }
        counters.record_latency_ms(latency_ms);
    }
    if let Some(journal) = &state.journal {
        journal.append(&terminal, true);
    }
    wake.send(state);
    if let Some(journal) = &state.journal {
        if journal.should_rotate() {
            journal.rewrite(&live_records(state));
        }
    }
}

/// Snapshots the job table as journal records (sorted by id, which is
/// submit order) for a rotation rewrite.
fn live_records(state: &ServerState) -> Vec<Record> {
    let jobs = state.jobs.lock().expect("job table");
    let mut records = Vec::with_capacity(jobs.len());
    for (&id, job) in jobs.iter() {
        let error = || job.error.clone().unwrap_or_default();
        let terminal = match job.status {
            JobStatus::Queued | JobStatus::Running => None,
            JobStatus::Done => {
                Some(Record::Done { id, cached: job.cached, cells: job.cells.clone() })
            }
            JobStatus::Failed => Some(Record::Failed { id, error: error() }),
            JobStatus::Expired => Some(Record::Expired { id, error: error() }),
        };
        // Every job keeps its `submitted` record, so a replay under
        // another timing model can re-run a done one.
        records.extend(ReplayedJob { request: job.request.clone(), terminal }.records(id));
    }
    drop(jobs);
    // Stable: a job's `submitted` stays ahead of its terminal record.
    records.sort_by_key(Record::id);
    records
}

/// Simulates one cache-missing cell and renders its payload: the run
/// record ([`hpa_core::RunResult::to_json`]) plus serve's own fields —
/// `scale` (or the `program` kind), `seed` and `cache_key`. Rendered once,
/// it is the unit of cache storage, deterministic because the record is.
fn run_cell(
    request: &JobRequest,
    resolved: &ResolvedProgram,
    scheme: Scheme,
    config: &SimConfig,
    key: u64,
) -> Result<String, String> {
    let spec = RunSpec {
        checksum: resolved.checksum,
        config: config.clone(),
        mode: request
            .sampled
            .map_or(Mode::Full, |units| Mode::Sampled { units, seed: request.seed }),
        cycle_budget: request.cycle_budget,
        ..RunSpec::new(resolved.name, &resolved.program, scheme, request.width)
    };
    let r = run(&spec).map_err(|e| e.to_string())?;
    let Json::Obj(mut fields) = r.to_json() else { unreachable!("a run record is an object") };
    let program = match &request.program {
        JobProgram::Workload { scale, .. } => ("scale", scale.key()),
        JobProgram::Source(_) => ("program", "source"),
        JobProgram::Binary(_) => ("program", "binary"),
    };
    fields.extend([
        (program.0.to_string(), Json::from(program.1)),
        ("seed".to_string(), Json::from(request.seed)),
        ("cache_key".to_string(), Json::from(format_hex(key))),
    ]);
    Ok(Json::Obj(fields).render())
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpa_workloads::Scale;

    fn tiny_request() -> JobRequest {
        JobRequest::workload("gcc", Scale::Tiny, Scheme::Base)
    }

    #[test]
    fn payload_is_valid_json_with_exact_digest() {
        let request = tiny_request();
        let resolved = resolve_program(&request).unwrap();
        let config = cell_config(&request, Scheme::Base);
        let key = cell_key(&resolved.program, &config, Scheme::Base, 0, None);
        let payload = run_cell(&request, &resolved, Scheme::Base, &config, key).unwrap();
        let v = hpa_obs::json::parse(&payload).expect("valid JSON");
        assert_eq!(v.get("workload").and_then(|x| x.as_str()), Some("gcc"));
        assert_eq!(v.get("mode").and_then(|x| x.as_str()), Some("full"));
        let cell = CellResult::new(Scheme::Base, false, payload);
        assert_eq!(cell.cache_key(), Some(key));
        // The payload digest equals a direct run's stats digest.
        let direct = hpa_core::run_workload("gcc", Scale::Tiny, request.width, Scheme::Base);
        assert_eq!(
            cell.stats_digest(),
            Some(hpa_obs::digest::debug_digest(&direct.unwrap().stats))
        );
        assert_eq!(cell.model(), Some(hpa_core::model::FINGERPRINT));
        assert!(cell.ipc().unwrap() > 0.0);
    }

    #[test]
    fn run_cell_is_deterministic() {
        let request = tiny_request();
        let resolved = resolve_program(&request).unwrap();
        let config = cell_config(&request, Scheme::Combined);
        let key = cell_key(&resolved.program, &config, Scheme::Combined, 0, None);
        let a = run_cell(&request, &resolved, Scheme::Combined, &config, key).unwrap();
        let b = run_cell(&request, &resolved, Scheme::Combined, &config, key).unwrap();
        assert_eq!(a, b, "payload is byte-identical across runs");
    }

    #[test]
    fn tiny_cycle_budget_is_a_structured_failure() {
        let mut request = tiny_request();
        request.cycle_budget = 10;
        let resolved = resolve_program(&request).unwrap();
        let config = cell_config(&request, Scheme::Base);
        let e = run_cell(&request, &resolved, Scheme::Base, &config, 0)
            .expect_err("10 cycles cannot finish gcc");
        assert!(e.contains("deadlock") || e.contains("budget") || e.contains("cycle"), "{e}");
    }

    #[test]
    fn unknown_workload_and_bad_source_fail_resolution() {
        let mut request = tiny_request();
        request.program = JobProgram::Workload { name: "nonesuch".into(), scale: Scale::Tiny };
        assert!(resolve_program(&request).unwrap_err().contains("nonesuch"));
        request.program = JobProgram::Source("this is not assembly !!".into());
        assert!(resolve_program(&request).unwrap_err().contains("assembly"));
        request.program = JobProgram::Binary(vec![0x7f, b'E', b'L', b'F', 9, 9]);
        assert!(resolve_program(&request).unwrap_err().contains("elf"));
    }

    #[test]
    fn binary_programs_resolve_and_run_without_a_checksum_oracle() {
        let mut request = tiny_request();
        request.program = JobProgram::Binary(hpa_core::rv::fixtures::SIEVE_ELF.to_vec());
        let resolved = resolve_program(&request).expect("checked-in fixture resolves");
        assert_eq!(resolved.checksum, None);
        let config = cell_config(&request, Scheme::Base);
        let key = cell_key(&resolved.program, &config, Scheme::Base, 0, None);
        let payload = run_cell(&request, &resolved, Scheme::Base, &config, key).unwrap();
        let v = hpa_obs::json::parse(&payload).unwrap();
        assert_eq!(v.get("program").and_then(|x| x.as_str()), Some("binary"));
        assert!(v.get("cycles").and_then(|x| x.as_u64()).unwrap() > 0);
    }

    #[test]
    fn source_programs_run_without_a_checksum_oracle() {
        let mut request = tiny_request();
        request.program = JobProgram::Source(
            "li r1, #5\nloop:\n  add r2, #1, r2\n  sub r1, #1, r1\n  bgt r1, loop\n  halt\n"
                .to_string(),
        );
        let resolved = resolve_program(&request).expect("valid source");
        assert_eq!(resolved.checksum, None);
        let config = cell_config(&request, Scheme::Base);
        let key = cell_key(&resolved.program, &config, Scheme::Base, 0, None);
        let payload = run_cell(&request, &resolved, Scheme::Base, &config, key).unwrap();
        let v = hpa_obs::json::parse(&payload).unwrap();
        assert_eq!(v.get("program").and_then(|x| x.as_str()), Some("source"));
        assert!(v.get("cycles").and_then(|x| x.as_u64()).unwrap() > 0);
    }
}
