//! # hpa-sdk — typed client for the `hpa serve` daemon
//!
//! A dependency-free client over [`std::net::TcpStream`], typed against
//! the *same* request/response structs the daemon serves
//! ([`hpa_serve::proto`]) and speaking the same HTTP subset
//! ([`hpa_serve::http`]) — a protocol change is one edit, not two
//! drifting ones. [`Client::wait`] is one `GET /result` call, which the
//! daemon answers when the job finishes.
//!
//! # Example
//!
//! ```no_run
//! use hpa_sdk::Client;
//! use hpa_serve::proto::JobRequest;
//!
//! let client = Client::new("127.0.0.1:8080");
//! let submit = client.submit(&JobRequest::workload(
//!     "gcc",
//!     hpa_workloads::Scale::Tiny,
//!     hpa_core::Scheme::Base,
//! ))?;
//! let result = client.wait(submit.job_id, std::time::Duration::from_secs(60))?;
//! for cell in &result.cells {
//!     println!("{}: ipc {:?} (cached: {})", cell.scheme.key(), cell.ipc(), cell.cached);
//! }
//! # Ok::<(), hpa_sdk::ClientError>(())
//! ```
//!
//! Besides registry workloads, jobs can carry assembly text
//! ([`hpa_serve::proto::JobProgram::Source`]) or raw RISC-V ELF bytes
//! ([`JobRequest::binary`]) — the daemon translates the binary through
//! the `hpa-rv` frontend, and the result cache keys on the *translated*
//! program, so resubmitting the same bytes is a bit-identical cache hit.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use hpa_obs::digest::fnv1a;
use hpa_obs::json::Json;
use hpa_serve::http::{self, Request};
use hpa_serve::proto::{JobRequest, ResultResponse, StatusResponse, SubmitResponse};
use hpa_workloads::SplitMix64;
use std::fmt;
use std::io::BufReader;
use std::io::ErrorKind::{TimedOut, WouldBlock};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Client-side failures.
#[derive(Debug)]
pub enum ClientError {
    /// Connecting, reading or writing the socket failed.
    Io(std::io::Error),
    /// The server answered, but not with the expected shape.
    Protocol(String),
    /// The server answered with an HTTP error (the body's `error` field,
    /// or the raw body if it has none).
    Server {
        /// HTTP status code.
        status: u16,
        /// The decoded error message.
        message: String,
        /// The server's backoff hint, when it sent one (429 bodies
        /// carry `retry_after_ms` derived from observed job latency).
        retry_after_ms: Option<u64>,
    },
    /// [`Client::wait`] ran out of time before the job reached a
    /// terminal state.
    Timeout {
        /// The job still running.
        job_id: u64,
        /// How long the wait lasted.
        waited: Duration,
    },
    /// Every retry attempt failed. Wraps the final error and surfaces
    /// how many attempts the client made before giving up.
    Exhausted {
        /// Total attempts made (initial call + retries).
        attempts: u32,
        /// The last attempt's error.
        last: Box<ClientError>,
    },
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "i/o: {e}"),
            ClientError::Protocol(m) => write!(f, "protocol: {m}"),
            ClientError::Server { status, message, retry_after_ms } => {
                write!(f, "server ({status}): {message}")?;
                if let Some(ms) = retry_after_ms {
                    write!(f, " (retry after {ms} ms)")?;
                }
                Ok(())
            }
            ClientError::Timeout { job_id, waited } => {
                write!(f, "job {job_id} not finished after {waited:?}")
            }
            ClientError::Exhausted { attempts, last } => {
                write!(f, "gave up after {attempts} attempt(s): {last}")
            }
        }
    }
}

/// Whether an error class is worth retrying: transport failures and
/// damaged responses are transient network trouble, and 429/503 are the
/// server explicitly saying "try again later". A read timeout is not:
/// the daemon has the request. A retried submit that reached the daemon
/// is a second job, which simulates again unless the first is done.
fn retryable(e: &ClientError) -> bool {
    matches!(e, ClientError::Io(e) if !matches!(e.kind(), WouldBlock | TimedOut))
        || matches!(e, ClientError::Protocol(_) | ClientError::Server { status: 429 | 503, .. })
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> ClientError {
        ClientError::Io(e)
    }
}

/// A client bound to one daemon address. Each call opens a fresh
/// connection (the protocol is `Connection: close`), so a `Client` is
/// just an address plus timeouts — cheap to clone, nothing to pool.
#[derive(Clone, Debug)]
pub struct Client {
    addr: String,
    io_timeout: Duration,
    /// Retries after the initial attempt for retryable errors.
    retries: u32,
    /// First-retry backoff; doubles per attempt (with jitter).
    backoff_base: Duration,
    /// Seed for the jitter stream, so retry timing is reproducible.
    retry_seed: u64,
}

impl Client {
    /// A client for `addr` (e.g. `127.0.0.1:8080`).
    #[must_use]
    pub fn new(addr: impl Into<String>) -> Client {
        Client {
            addr: addr.into(),
            io_timeout: Duration::from_secs(30),
            retries: 3,
            backoff_base: Duration::from_millis(50),
            retry_seed: 0x5eed,
        }
    }

    /// Overrides the per-connection read/write timeout.
    #[must_use]
    pub fn with_io_timeout(mut self, timeout: Duration) -> Client {
        self.io_timeout = timeout;
        self
    }

    /// Overrides the retry budget (`0` disables retries entirely).
    #[must_use]
    pub fn with_retries(mut self, retries: u32) -> Client {
        self.retries = retries;
        self
    }

    /// Overrides the jitter seed (the backoff schedule is a pure
    /// function of this seed and the request path).
    #[must_use]
    pub fn with_retry_seed(mut self, seed: u64) -> Client {
        self.retry_seed = seed;
        self
    }

    /// One round trip: connect, send, read the reply, decode its body as
    /// JSON, and turn non-200 statuses into [`ClientError::Server`].
    fn call(&self, method: &str, path: &str, body: String) -> Result<Json, ClientError> {
        let mut stream = TcpStream::connect(&self.addr)?;
        stream.set_read_timeout(Some(self.io_timeout))?;
        stream.set_write_timeout(Some(self.io_timeout))?;
        let request = Request { method: method.to_string(), path: path.to_string(), body };
        http::write_request(&mut stream, &request)?;
        let response = http::read_response(&mut BufReader::new(stream))?;
        let parsed = hpa_obs::json::parse(&response.body)
            .map_err(|e| ClientError::Protocol(format!("{method} {path}: {e}")))?;
        if response.status != 200 {
            let message = parsed
                .get("error")
                .and_then(Json::as_str)
                .map_or_else(|| response.body.clone(), str::to_string);
            let retry_after_ms = parsed.get("retry_after_ms").and_then(Json::as_u64);
            return Err(ClientError::Server { status: response.status, message, retry_after_ms });
        }
        Ok(parsed)
    }

    /// [`Client::call`] under the retry policy: retryable errors
    /// (I/O, damaged responses, 429/503) are retried up to `retries`
    /// times with seeded-jittered exponential backoff, honoring any
    /// server-sent `retry_after_ms` hint. Non-retryable errors return
    /// immediately; an exhausted budget returns
    /// [`ClientError::Exhausted`] carrying the attempt count.
    fn call_retrying(&self, method: &str, path: &str, body: &str) -> Result<Json, ClientError> {
        // Seeded per (client, path): reproducible, but submit and result
        // streams do not march in lockstep.
        let mut rng = SplitMix64::new(self.retry_seed ^ fnv1a(path.as_bytes()));
        let mut attempts = 0u32;
        loop {
            attempts += 1;
            let err = match self.call(method, path, body.to_string()) {
                Ok(v) => return Ok(v),
                Err(e) => e,
            };
            if !retryable(&err) {
                return Err(err);
            }
            if attempts > self.retries {
                return Err(if attempts > 1 {
                    ClientError::Exhausted { attempts, last: Box::new(err) }
                } else {
                    err
                });
            }
            let hint =
                if let ClientError::Server { retry_after_ms: Some(ms), .. } = err { ms } else { 0 };
            std::thread::sleep(self.backoff(&mut rng, attempts, hint));
        }
    }

    /// The sleep before retry `attempt`: the base doubled per attempt,
    /// jittered into [base/2, base] so synchronized clients de-correlate,
    /// at least the server's `hint` and at most 10 s.
    fn backoff(&self, rng: &mut SplitMix64, attempt: u32, hint: u64) -> Duration {
        let base = (self.backoff_base.as_millis() as u64)
            .saturating_mul(1 << (attempt - 1).min(16))
            .clamp(1, 10_000);
        let jittered = base / 2 + rng.below(base / 2 + 1);
        Duration::from_millis(jittered.max(hint).min(10_000))
    }

    /// Submits a job.
    ///
    /// # Errors
    ///
    /// [`ClientError::Server`] for rejected requests (bad workload name,
    /// draining server), plus transport failures.
    pub fn submit(&self, request: &JobRequest) -> Result<SubmitResponse, ClientError> {
        let v = self.call_retrying("POST", "/submit", &request.to_json().render())?;
        SubmitResponse::from_json(&v).map_err(ClientError::Protocol)
    }

    /// Polls one job's status.
    ///
    /// # Errors
    ///
    /// [`ClientError::Server`] with status 404 for an unknown id.
    pub fn status(&self, job_id: u64) -> Result<StatusResponse, ClientError> {
        let v = self.call_retrying("GET", &format!("/status/{job_id}"), "")?;
        StatusResponse::from_json(&v).map_err(ClientError::Protocol)
    }

    /// Fetches one job's results: [`Client::wait`] up to the io timeout.
    ///
    /// # Errors
    ///
    /// As [`Client::wait`].
    pub fn result(&self, job_id: u64) -> Result<ResultResponse, ClientError> {
        self.wait(job_id, self.io_timeout)
    }

    /// Waits until the job is terminal and returns its results, or
    /// [`ClientError::Timeout`] after `timeout`. The daemon answers
    /// `GET /result` when the job finishes; a call is read within the io
    /// timeout or the time left, whichever is less, and issued again if
    /// that passes, or after the retry backoff if the daemon answered
    /// early (too many calls waiting).
    ///
    /// # Errors
    ///
    /// As [`Client::status`], plus the timeout.
    pub fn wait(&self, job_id: u64, timeout: Duration) -> Result<ResultResponse, ClientError> {
        let (start, path) = (Instant::now(), format!("/result/{job_id}"));
        let mut rng = SplitMix64::new(self.retry_seed ^ fnv1a(path.as_bytes()));
        let mut early = 0;
        while let Some(left) = timeout.checked_sub(start.elapsed()).filter(|t| !t.is_zero()) {
            let client = self.clone().with_io_timeout(left.min(self.io_timeout));
            let result = match client.call_retrying("GET", &path, "") {
                Ok(v) => ResultResponse::from_json(&v).map_err(ClientError::Protocol)?,
                // A read timeout, the one I/O error never retried.
                Err(e @ ClientError::Io(_)) if !retryable(&e) => continue,
                Err(e) => return Err(e),
            };
            if result.status.is_terminal() {
                return Ok(result);
            }
            early += 1;
            std::thread::sleep(self.backoff(&mut rng, early, 0).min(left));
        }
        Err(ClientError::Timeout { job_id, waited: start.elapsed() })
    }

    /// Fetches the daemon's health/metrics document (`/health`): the
    /// drain flag, queue depth, cache size and the serve counters.
    ///
    /// # Errors
    ///
    /// Transport or protocol failures.
    pub fn health(&self) -> Result<Json, ClientError> {
        self.call_retrying("GET", "/health", "")
    }

    /// Requests a graceful shutdown: the daemon drains its queue,
    /// flushes the cache index and exits. Deliberately *not* retried —
    /// once the daemon accepts it, subsequent attempts race its exit and
    /// would misreport a successful shutdown as an error.
    ///
    /// # Errors
    ///
    /// Transport or protocol failures.
    pub fn shutdown(&self) -> Result<(), ClientError> {
        self.call("POST", "/shutdown", String::new()).map(|_| ())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn connect_failure_is_io_not_panic() {
        // Port 1 on localhost is essentially never listening. Retries
        // off: this test pins the *undecorated* error class.
        let client =
            Client::new("127.0.0.1:1").with_io_timeout(Duration::from_millis(200)).with_retries(0);
        match client.health() {
            Err(ClientError::Io(_)) => {}
            other => panic!("expected Io error, got {other:?}"),
        }
    }

    #[test]
    fn exhausted_retries_surface_the_attempt_count() {
        let client =
            Client::new("127.0.0.1:1").with_io_timeout(Duration::from_millis(100)).with_retries(2);
        match client.health() {
            Err(ClientError::Exhausted { attempts: 3, last }) => {
                assert!(matches!(*last, ClientError::Io(_)), "{last:?}");
            }
            other => panic!("expected Exhausted after 3 attempts, got {other:?}"),
        }
    }

    #[test]
    fn retry_classification_is_precise() {
        let io = ClientError::Io(std::io::Error::other("refused"));
        let proto = ClientError::Protocol("half a response".into());
        let busy =
            ClientError::Server { status: 429, message: "full".into(), retry_after_ms: Some(100) };
        let draining =
            ClientError::Server { status: 503, message: "draining".into(), retry_after_ms: None };
        let bad = ClientError::Server {
            status: 400,
            message: "bad request".into(),
            retry_after_ms: None,
        };
        let missing =
            ClientError::Server { status: 404, message: "no job".into(), retry_after_ms: None };
        assert!(retryable(&io) && retryable(&proto) && retryable(&busy) && retryable(&draining));
        assert!(!retryable(&bad) && !retryable(&missing));
        // A read timeout means the daemon holds the request (for
        // `/result`, that the job is still running): never retried.
        for kind in [WouldBlock, TimedOut] {
            assert!(!retryable(&ClientError::Io(std::io::Error::from(kind))));
        }
        assert!(!retryable(&ClientError::Timeout { job_id: 1, waited: Duration::ZERO }));
    }

    #[test]
    fn errors_render_usefully() {
        let e =
            ClientError::Server { status: 404, message: "no job 9".into(), retry_after_ms: None };
        assert_eq!(e.to_string(), "server (404): no job 9");
        let e = ClientError::Server {
            status: 429,
            message: "queue full".into(),
            retry_after_ms: Some(250),
        };
        assert_eq!(e.to_string(), "server (429): queue full (retry after 250 ms)");
        let e = ClientError::Timeout { job_id: 3, waited: Duration::from_secs(2) };
        assert!(e.to_string().contains("job 3"));
        let e = ClientError::Exhausted {
            attempts: 4,
            last: Box::new(ClientError::Protocol("torn response".into())),
        };
        assert_eq!(e.to_string(), "gave up after 4 attempt(s): protocol: torn response");
    }
}
