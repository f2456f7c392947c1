//! End-to-end job lifecycle through a real daemon: an in-process
//! [`Server`] bound to an ephemeral port, driven over actual TCP by the
//! [`hpa_sdk`] client — the same wire path `hpa serve` / `hpa submit`
//! exercise, minus the process boundary.

use half_price::model::FINGERPRINT;
use half_price::obs::digest::{debug_digest, format_hex};
use half_price::obs::json::Json;
use half_price::sdk::{Client, ClientError};
use half_price::serve::journal::{Journal, Record};
use half_price::serve::proto::{CellResult, JobProgram, JobRequest, JobStatus};
use half_price::serve::server::{Server, ServerConfig};
use half_price::sim::SampleUnits;
use half_price::workloads::Scale;
use half_price::{MachineWidth, Scheme};
use std::io;
use std::thread::JoinHandle;
use std::time::Duration;

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
    let server = Server::bind(config).expect("bind ephemeral port");
    let addr = server.local_addr().expect("bound socket has an address").to_string();
    let handle = std::thread::spawn(move || server.run());
    (Client::new(addr), handle)
}

const WAIT: Duration = Duration::from_secs(120);

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
    let slow = JobRequest {
        program: JobProgram::Source(
            "li r1, #500000\nloop:\n  sub r1, #1, r1\n  bgt r1, loop\n  halt\n".to_string(),
        ),
        width: MachineWidth::Four,
        schemes: vec![Scheme::Base],
        seed: 0xa1,
        sampled: None,
        deadline_ms: None,
        cycle_budget: half_price::serve::proto::DEFAULT_CYCLE_BUDGET,
        pc_table_entries: None,
    };
    let slow_id = client.submit(&slow).expect("slow submit").job_id;
    while client.status(slow_id).expect("status").status == JobStatus::Queued {
        std::thread::sleep(Duration::from_millis(2));
    }

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
