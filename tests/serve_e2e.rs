//! End-to-end job lifecycle through a real daemon: an in-process
//! [`Server`] bound to an ephemeral port, driven over actual TCP by the
//! [`hpa_sdk`] client — the same wire path `hpa serve` / `hpa submit`
//! exercise, minus the process boundary.

use half_price::model::FINGERPRINT;
use half_price::obs::digest::{debug_digest, format_hex};
use half_price::obs::json::Json;
use half_price::sdk::{Client, ClientError};
use half_price::serve::http::{self, Request};
use half_price::serve::journal::{Journal, Record};
use half_price::serve::proto::{CellResult, JobProgram, JobRequest, JobStatus, ResultResponse};
use half_price::serve::server::{Server, ServerConfig, MAX_PARKED};
use half_price::sim::SampleUnits;
use half_price::workloads::Scale;
use half_price::{MachineWidth, Scheme};
use std::io::{self, BufReader};
use std::net::TcpStream;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Binds a daemon on an ephemeral port and runs it on its own thread;
/// returns a client for it plus the join handle (`run` returns once a
/// `/shutdown` drains it).
fn start_server(workers: usize) -> (Client, JoinHandle<io::Result<()>>) {
    start_server_with(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers,
        ..ServerConfig::default()
    })
}

fn start_server_with(config: ServerConfig) -> (Client, JoinHandle<io::Result<()>>) {
    let (addr, handle) = bind_server(config);
    (Client::new(addr), handle)
}

/// Like [`start_server_with`], but returns the bound address.
fn bind_server(config: ServerConfig) -> (String, JoinHandle<io::Result<()>>) {
    let server = Server::bind(config).expect("bind ephemeral port");
    let addr = server.local_addr().expect("bound socket has an address").to_string();
    (addr, std::thread::spawn(move || server.run()))
}

const WAIT: Duration = Duration::from_secs(120);

/// A source job that keeps one worker busy for a while (four million
/// instructions, simulated cycle by cycle: about a second with
/// optimizations); `seed` keeps it off the cache.
fn slow_job(seed: u64) -> JobRequest {
    JobRequest {
        program: JobProgram::Source(
            "li r1, #2000000\nloop:\n  sub r1, #1, r1\n  bgt r1, loop\n  halt\n".to_string(),
        ),
        width: MachineWidth::Four,
        schemes: vec![Scheme::Base],
        seed,
        sampled: None,
        deadline_ms: None,
        cycle_budget: half_price::serve::proto::DEFAULT_CYCLE_BUDGET,
        pc_table_entries: None,
    }
}

/// Submits `request` and returns its id once a worker has started it.
fn submit_running(client: &Client, request: &JobRequest) -> u64 {
    let id = client.submit(request).expect("submit").job_id;
    while client.status(id).expect("status").status == JobStatus::Queued {
        std::thread::sleep(Duration::from_millis(2));
    }
    id
}

/// One `/health` counter.
fn counter(client: &Client, key: &str) -> u64 {
    let health = client.health().expect("health");
    health.get("counters").and_then(|c| c.get(key)).and_then(Json::as_u64).expect("counter")
}

/// Waits until `/health` shows `n` parked `/result` connections.
fn await_parked(client: &Client, n: u64) {
    let t0 = Instant::now();
    while counter(client, "results_parked_now") < n {
        assert!(t0.elapsed() < WAIT, "fewer than {n} connections ever parked");
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// Sends `GET /result/<id>` on a raw connection without reading the reply.
fn raw_result_call(addr: &str, id: u64) -> TcpStream {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(WAIT)).expect("read timeout");
    let request =
        Request { method: "GET".into(), path: format!("/result/{id}"), body: String::new() };
    http::write_request(&mut stream, &request).expect("send");
    stream
}

fn read_result(stream: TcpStream) -> ResultResponse {
    let response = http::read_response(&mut BufReader::new(stream)).expect("response");
    assert_eq!(response.status, 200, "{}", response.body);
    let body = half_price::obs::json::parse(&response.body).expect("json body");
    ResultResponse::from_json(&body).expect("result body")
}

#[test]
fn duplicate_job_is_served_from_cache_bit_identically() {
    let (client, handle) = start_server(2);

    let request = JobRequest::workload("gcc", Scale::Tiny, Scheme::Base);
    let first = client.submit(&request).expect("first submit");
    assert!(!first.cached, "an empty cache cannot hit");
    let first = client.wait(first.job_id, WAIT).expect("first result");
    assert_eq!(first.status, JobStatus::Done);
    assert_eq!(first.cells.len(), 1);
    assert!(!first.cells[0].cached);

    // Identical request: the submit fast-path finds every cell cached and
    // completes the job without ever queueing it.
    let second = client.submit(&request).expect("second submit");
    assert_eq!(second.status, JobStatus::Done, "full cache hit completes at submit");
    assert!(second.cached);
    let second = client.result(second.job_id).expect("second result");
    assert!(second.cached && second.cells[0].cached);

    // The cached cell is bit-identical to the originally rendered one.
    assert_eq!(first.cells[0].payload_json(), second.cells[0].payload_json());

    // And the payload's digest is the digest of a direct in-process run —
    // the daemon adds transport, not noise.
    let direct = half_price::run_workload("gcc", Scale::Tiny, MachineWidth::Four, Scheme::Base)
        .expect("direct run");
    assert_eq!(first.cells[0].stats_digest(), Some(debug_digest(&direct.stats)));

    client.shutdown().expect("shutdown");
    handle.join().expect("server thread").expect("clean exit");
}

#[test]
fn zero_deadline_expires_instead_of_running() {
    let (client, handle) = start_server(1);

    let mut request = JobRequest::workload("mcf", Scale::Tiny, Scheme::Base);
    request.seed = 0xdead; // unique: must miss the cache, or it never queues
    request.deadline_ms = Some(0);
    let submit = client.submit(&request).expect("submit");
    assert_eq!(submit.status, JobStatus::Queued);
    let result = client.wait(submit.job_id, WAIT).expect("result");
    assert_eq!(result.status, JobStatus::Expired);
    assert!(result.cells.is_empty(), "an expired job never produced cells");
    assert!(result.error.is_some());

    client.shutdown().expect("shutdown");
    handle.join().expect("server thread").expect("clean exit");
}

#[test]
fn planted_panic_fails_the_job_but_not_the_server() {
    let (client, handle) = start_server(1);

    // A non-power-of-two PC table panics the simulator constructor; the
    // catch_unwind isolation must turn that into a `failed` job.
    let mut request = JobRequest::workload("gcc", Scale::Tiny, Scheme::Base);
    request.pc_table_entries = Some(3);
    let submit = client.submit(&request).expect("submit");
    let result = client.wait(submit.job_id, WAIT).expect("result");
    assert_eq!(result.status, JobStatus::Failed);
    let error = result.error.expect("failed jobs carry an error");
    assert!(error.contains("panicked"), "unexpected error: {error}");

    // The worker survived: the same server still executes jobs.
    let ok = client
        .submit(&JobRequest::workload("gcc", Scale::Tiny, Scheme::Base))
        .expect("post-panic submit");
    let ok = client.wait(ok.job_id, WAIT).expect("post-panic result");
    assert_eq!(ok.status, JobStatus::Done);

    let health = client.health().expect("health");
    assert_eq!(
        health.get("counters").and_then(|c| c.get("jobs_failed")).and_then(|v| v.as_u64()),
        Some(1)
    );

    client.shutdown().expect("shutdown");
    handle.join().expect("server thread").expect("clean exit");
}

#[test]
fn overflowing_the_queue_is_a_structured_429_with_a_retry_hint() {
    let (client, handle) = start_server_with(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 1,
        max_queue: Some(1),
        ..ServerConfig::default()
    });
    // Retries off: this test wants to *see* the 429, not ride it out.
    let client = client.with_retries(0);

    // Pin the single worker on a long-running source job, and only then
    // fill the one queue slot — the admission outcome is deterministic,
    // not a race against the worker's pop.
    let slow_id = submit_running(&client, &slow_job(0xa1));

    let mut filler = JobRequest::workload("gcc", Scale::Tiny, Scheme::Base);
    filler.seed = 0xa2;
    let filler_id = client.submit(&filler).expect("one queue slot is free").job_id;

    let mut overflow = JobRequest::workload("gcc", Scale::Tiny, Scheme::Base);
    overflow.seed = 0xa3;
    match client.submit(&overflow) {
        Err(ClientError::Server { status: 429, message, retry_after_ms }) => {
            assert!(message.contains("queue full"), "{message}");
            let hint = retry_after_ms.expect("429 carries a retry_after_ms hint");
            assert!((100..=60_000).contains(&hint), "hint {hint} outside the clamp");
        }
        other => panic!("expected a structured 429, got {other:?}"),
    }

    // Admitted work still completes, and /health reports the rejection.
    for id in [slow_id, filler_id] {
        let result = client.wait(id, WAIT).expect("admitted job result");
        assert_eq!(result.status, JobStatus::Done);
    }
    let health = client.health().expect("health");
    assert_eq!(
        health.get("counters").and_then(|c| c.get("jobs_rejected")).and_then(|v| v.as_u64()),
        Some(1)
    );
    assert_eq!(health.get("max_queue").and_then(|v| v.as_u64()), Some(1));

    client.shutdown().expect("shutdown");
    handle.join().expect("server thread").expect("clean exit");
}

#[test]
fn cache_entry_bound_evicts_and_reports_in_health() {
    let (client, handle) = start_server_with(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 1,
        cache_max_entries: Some(1),
        ..ServerConfig::default()
    });

    for seed in [0xb1, 0xb2u64] {
        let mut r = JobRequest::workload("gcc", Scale::Tiny, Scheme::Base);
        r.seed = seed;
        let submit = client.submit(&r).expect("submit");
        let result = client.wait(submit.job_id, WAIT).expect("result");
        assert_eq!(result.status, JobStatus::Done);
    }

    let health = client.health().expect("health");
    assert_eq!(
        health.get("cache_entries").and_then(|v| v.as_u64()),
        Some(1),
        "the entry bound holds"
    );
    assert_eq!(
        health.get("counters").and_then(|c| c.get("cache_evictions")).and_then(|v| v.as_u64()),
        Some(1),
        "the second fill evicted the first"
    );

    client.shutdown().expect("shutdown");
    handle.join().expect("server thread").expect("clean exit");
}

#[test]
fn source_programs_run_end_to_end() {
    let (client, handle) = start_server(1);

    let request = JobRequest {
        program: JobProgram::Source(
            "li r1, #5\nloop:\n  add r2, #1, r2\n  sub r1, #1, r1\n  bgt r1, loop\n  halt\n"
                .to_string(),
        ),
        width: MachineWidth::Four,
        schemes: vec![Scheme::Base, Scheme::Combined],
        seed: 0,
        sampled: None,
        deadline_ms: None,
        cycle_budget: half_price::serve::proto::DEFAULT_CYCLE_BUDGET,
        pc_table_entries: None,
    };
    let submit = client.submit(&request).expect("submit");
    let result = client.wait(submit.job_id, WAIT).expect("result");
    assert_eq!(result.status, JobStatus::Done);
    assert_eq!(result.cells.len(), 2, "one cell per requested scheme");
    assert_eq!(result.cells[0].scheme, Scheme::Base);
    assert_eq!(result.cells[1].scheme, Scheme::Combined);
    for cell in &result.cells {
        assert!(cell.ipc().is_some_and(|ipc| ipc > 0.0));
    }

    client.shutdown().expect("shutdown");
    handle.join().expect("server thread").expect("clean exit");
}

#[test]
fn sampled_job_without_a_confidence_interval_reports_null() {
    let (client, handle) = start_server(1);

    // A fast-forward period longer than the whole program measures no
    // window, so the estimate has no confidence interval: its half-width
    // is infinite, and the payload must still be valid JSON.
    let mut request = JobRequest::workload("gcc", Scale::Tiny, Scheme::Base);
    request.sampled = Some(SampleUnits::parse("100:1000:1000000").expect("valid units"));
    let submit = client.submit(&request).expect("submit");
    let result = client.wait(submit.job_id, WAIT).expect("result parses");
    assert_eq!(result.status, JobStatus::Done);
    let payload = result.cells[0].payload().expect("payload parses");
    let sampled = payload.get("sampled").expect("sampled block");
    assert!(sampled.get("samples").and_then(|v| v.as_u64()).is_some_and(|n| n < 2));
    assert_eq!(sampled.get("ci_half_width"), Some(&Json::Null));

    client.shutdown().expect("shutdown");
    handle.join().expect("server thread").expect("clean exit");
}

/// Results computed under another timing model are never served. A
/// daemon restarted on a cache directory and a journal whose payloads
/// name another `model` fingerprint drops them, counts them in
/// `/health`, simulates the cell again on its first submit and re-runs
/// the journaled job, while current-model entries still hit.
#[test]
fn restart_drops_cached_and_journaled_results_of_another_model() {
    let dir = std::env::temp_dir().join(format!("hpa-serve-stale-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 1,
        cache_dir: Some(dir.join("cache")),
        journal_dir: Some(dir.join("journal")),
        ..ServerConfig::default()
    };
    // Three distinct cells (the seed is part of the cache key): `cached`
    // goes stale in the cache only, `journaled` in the cache and in its
    // job's `done` record, and `current` stays current.
    let cell = |seed| JobRequest { seed, ..JobRequest::workload("gcc", Scale::Tiny, Scheme::Base) };
    let (cached, journaled, current) = (cell(1), cell(2), cell(3));

    let (client, handle) = start_server_with(config.clone());
    let mut results = Vec::new();
    for request in [&cached, &journaled, &current] {
        let id = client.submit(request).expect("submit").job_id;
        results.push(client.wait(id, WAIT).expect("result"));
    }
    client.shutdown().expect("shutdown");
    handle.join().expect("server thread").expect("clean exit");

    // Re-stamp the first two cells as another model's results.
    let model = format_hex(FINGERPRINT);
    let stale = |cell: &CellResult| {
        let payload = cell.payload_json().replace(&model, &format_hex(!FINGERPRINT));
        CellResult::new(cell.scheme, cell.cached, payload)
    };
    for r in &results[..2] {
        let key = r.cells[0].cache_key().expect("payload has a key");
        let path = dir.join("cache").join(format!("{}.json", format_hex(key)));
        std::fs::write(&path, stale(&r.cells[0]).payload_json()).expect("rewrite entry");
    }
    let (journal, _) = Journal::open(&dir.join("journal")).expect("journal opens");
    journal.rewrite(&[
        Record::Submitted { id: results[1].job_id, request: journaled.clone() },
        Record::Done {
            id: results[1].job_id,
            cached: false,
            cells: vec![stale(&results[1].cells[0])],
        },
        Record::Submitted { id: results[2].job_id, request: current.clone() },
        Record::Done { id: results[2].job_id, cached: false, cells: results[2].cells.clone() },
    ]);
    drop(journal);

    let (client, handle) = start_server_with(config);
    let health = client.health().expect("health");
    let counter =
        |key: &str| health.get("counters").and_then(|c| c.get(key)).and_then(Json::as_u64);
    assert_eq!(counter("cache_stale_dropped"), Some(2));
    assert_eq!(counter("journal_stale_dropped"), Some(1));

    // The journaled job re-runs and serves a current-model result.
    let rerun = client.wait(results[1].job_id, WAIT).expect("re-run job");
    assert_eq!(rerun.status, JobStatus::Done);
    assert!(!rerun.cells[0].cached, "the stale result was simulated again, not served");
    assert_eq!(rerun.cells[0].model(), Some(FINGERPRINT));
    assert_eq!(rerun.cells[0].stats_digest(), results[1].cells[0].stats_digest());

    // The stale cache-only cell misses on its first submit.
    let submit = client.submit(&cached).expect("submit stale cell");
    assert!(!submit.cached, "a stale entry must not hit");
    let again = client.wait(submit.job_id, WAIT).expect("result");
    assert_eq!(again.cells[0].payload_json(), results[0].cells[0].payload_json());

    // Current-model entries still hit, byte-identically.
    let submit = client.submit(&current).expect("submit current cell");
    assert!(submit.cached && submit.status == JobStatus::Done);
    let hit = client.result(submit.job_id).expect("result");
    assert_eq!(hit.cells[0].payload_json(), results[2].cells[0].payload_json());

    client.shutdown().expect("shutdown");
    handle.join().expect("server thread").expect("clean exit");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn wait_parks_on_a_running_job_and_gets_what_a_later_result_gets() {
    let (client, handle) = start_server(1);

    let id = submit_running(&client, &slow_job(0xc1));
    let parked = client.wait(id, WAIT).expect("parked wait");
    assert_eq!(parked.status, JobStatus::Done);
    let later = client.result(id).expect("later result");
    assert_eq!(parked.to_json().render(), later.to_json().render());
    assert_eq!(counter(&client, "results_parked"), 1, "the running job's wait parked once");
    assert_eq!(counter(&client, "results_parked_now"), 0);

    client.shutdown().expect("shutdown");
    handle.join().expect("server thread").expect("clean exit");
}

#[test]
fn a_short_wait_times_out_and_the_job_still_completes() {
    let (client, handle) = start_server(1);

    let id = submit_running(&client, &slow_job(0xc2));
    for _ in 0..2 {
        match client.wait(id, Duration::from_millis(50)) {
            Err(ClientError::Timeout { job_id, .. }) => assert_eq!(job_id, id),
            other => panic!("expected a timeout, got {other:?}"),
        }
    }
    // Both abandoned connections stay parked until the job finishes.
    assert_eq!(counter(&client, "results_parked"), 2);
    assert_eq!(counter(&client, "results_parked_now"), 2);
    assert_eq!(client.wait(id, WAIT).expect("result").status, JobStatus::Done);
    assert_eq!(counter(&client, "results_parked_now"), 0);

    client.shutdown().expect("shutdown");
    handle.join().expect("server thread").expect("clean exit");
}

#[test]
fn a_parked_waiter_of_a_job_that_expires_gets_expired() {
    let (client, handle) = start_server(1);

    let slow = submit_running(&client, &slow_job(0xc3));
    let mut request = JobRequest::workload("gcc", Scale::Tiny, Scheme::Base);
    request.seed = 0xc4;
    request.deadline_ms = Some(200);
    let queued = client.submit(&request).expect("submit").job_id;
    let waiter = {
        let client = client.clone();
        std::thread::spawn(move || client.wait(queued, WAIT))
    };
    assert_eq!(client.wait(slow, WAIT).expect("slow result").status, JobStatus::Done);
    let result = waiter.join().expect("waiter thread").expect("result");
    assert_eq!(result.status, JobStatus::Expired);
    assert!(result.error.is_some_and(|e| e.contains("deadline")));
    assert_eq!(counter(&client, "results_parked"), 2, "both waits parked");

    client.shutdown().expect("shutdown");
    handle.join().expect("server thread").expect("clean exit");
}

#[test]
fn shutdown_answers_every_parked_waiter() {
    let (client, handle) = start_server(1);

    let running = submit_running(&client, &slow_job(0xc5));
    let queued = client.submit(&slow_job(0xc6)).expect("submit").job_id;
    let waiters: Vec<_> = [running, queued]
        .into_iter()
        .map(|id| {
            let client = client.clone();
            std::thread::spawn(move || client.wait(id, WAIT))
        })
        .collect();
    await_parked(&client, 2);
    client.shutdown().expect("shutdown");
    for waiter in waiters {
        let result = waiter.join().expect("waiter thread").expect("result");
        assert_eq!(result.status, JobStatus::Done, "the drain ran the backlog");
    }
    handle.join().expect("server thread").expect("clean exit");
}

#[test]
fn past_the_parking_cap_result_answers_at_once_and_hung_up_clients_make_room() {
    let (addr, handle) = bind_server(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 1,
        ..ServerConfig::default()
    });
    let client = Client::new(addr.clone());

    // Park on a job queued behind a running one, so that it stays
    // unfinished for at least one slow job's time.
    submit_running(&client, &slow_job(0xc7));
    let id = client.submit(&slow_job(0xc8)).expect("submit").job_id;
    let mut parked: Vec<TcpStream> = (0..MAX_PARKED).map(|_| raw_result_call(&addr, id)).collect();
    await_parked(&client, MAX_PARKED as u64);
    let t0 = Instant::now();
    let early = read_result(raw_result_call(&addr, id));
    assert!(!early.status.is_terminal(), "past the cap: the current status at once");
    assert!(t0.elapsed() < Duration::from_secs(5));
    // Clients that hang up make room: the next wait parks.
    parked.truncate(MAX_PARKED / 2);
    let result = client.wait(id, WAIT).expect("wait past the cap");
    assert_eq!(result.status, JobStatus::Done);
    assert_eq!(counter(&client, "results_parked"), MAX_PARKED as u64 + 1);
    for stream in parked {
        assert_eq!(read_result(stream).to_json().render(), result.to_json().render());
    }
    assert_eq!(counter(&client, "results_parked_now"), 0);

    client.shutdown().expect("shutdown");
    handle.join().expect("server thread").expect("clean exit");
}

#[test]
fn an_unknown_id_is_a_404_at_once() {
    let (client, handle) = start_server(1);

    let t0 = Instant::now();
    match client.wait(4242, WAIT) {
        Err(ClientError::Server { status: 404, .. }) => {}
        other => panic!("expected a 404, got {other:?}"),
    }
    assert!(t0.elapsed() < Duration::from_secs(5));
    assert_eq!(counter(&client, "results_parked"), 0);

    client.shutdown().expect("shutdown");
    handle.join().expect("server thread").expect("clean exit");
}
