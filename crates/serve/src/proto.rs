//! The wire protocol: typed request/response structs shared by the
//! daemon and the `hpa-sdk` client, with their JSON codecs.
//!
//! Every type encodes with `to_json` and decodes with `from_json` over
//! [`hpa_obs::json::Json`]; the sender renders the value once. The
//! daemon and the SDK link the *same* definitions, so a protocol change
//! is a single-crate edit and the round-trip tests below are the
//! compatibility contract. 64-bit values
//! that must survive exactly (cache keys, stats digests) travel as
//! `0x`-prefixed hex strings, never as JSON numbers.

use hpa_core::{MachineWidth, Scheme};
use hpa_obs::json::Json;
use hpa_sim::SampleUnits;
use hpa_workloads::Scale;
use std::fmt::Write as _;

/// What a job simulates: a built-in workload, assembled source text, or a
/// raw RISC-V binary.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum JobProgram {
    /// One of the twelve built-in benchmarks at a given scale.
    Workload {
        /// Benchmark name (see `hpa list`).
        name: String,
        /// Iteration scale.
        scale: Scale,
    },
    /// Assembly source text, assembled server-side.
    Source(String),
    /// A compiled RV64I(+M) ELF image, loaded and translated server-side
    /// by the `hpa-rv` frontend. Travels as plain lowercase hex.
    Binary(Vec<u8>),
}

/// A simulation job: program, machine, scheme set, seed and mode.
#[derive(Clone, PartialEq, Debug)]
pub struct JobRequest {
    /// The program to simulate.
    pub program: JobProgram,
    /// Machine width (the paper's 4- or 8-wide organization).
    pub width: MachineWidth,
    /// Schemes to simulate, one cell each.
    pub schemes: Vec<Scheme>,
    /// Seed (places sampled-mode windows; part of the cache key in every
    /// mode).
    pub seed: u64,
    /// Sampled mode (`W:D:F` units); `None` runs full detail.
    pub sampled: Option<SampleUnits>,
    /// Milliseconds after submission by which the job must have
    /// *started*; a job still queued past this is `expired`.
    pub deadline_ms: Option<u64>,
    /// Watchdog: a cell exceeding this many cycles is failed as a
    /// structured deadlock instead of wedging a worker.
    pub cycle_budget: u64,
    /// Override for the simulator's PC-indexed side-table size (must be a
    /// power of two; a bad value panics the constructor, which the
    /// fault-isolation tests exploit deliberately).
    pub pc_table_entries: Option<usize>,
}

/// Default watchdog budget: generous for every built-in workload at
/// every scale, small enough that a wedged cell fails in seconds.
pub const DEFAULT_CYCLE_BUDGET: u64 = 500_000_000;

impl JobRequest {
    /// A full-detail job for one workload under one scheme with
    /// defaults everywhere else.
    #[must_use]
    pub fn workload(name: &str, scale: Scale, scheme: Scheme) -> JobRequest {
        JobRequest {
            program: JobProgram::Workload { name: name.to_string(), scale },
            width: MachineWidth::Four,
            schemes: vec![scheme],
            seed: 0,
            sampled: None,
            deadline_ms: None,
            cycle_budget: DEFAULT_CYCLE_BUDGET,
            pc_table_entries: None,
        }
    }

    /// A full-detail job for a raw RISC-V ELF image under one scheme
    /// with defaults everywhere else.
    #[must_use]
    pub fn binary(bytes: Vec<u8>, scheme: Scheme) -> JobRequest {
        JobRequest {
            program: JobProgram::Binary(bytes),
            width: MachineWidth::Four,
            schemes: vec![scheme],
            seed: 0,
            sampled: None,
            deadline_ms: None,
            cycle_budget: DEFAULT_CYCLE_BUDGET,
            pc_table_entries: None,
        }
    }

    /// The request as JSON.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let mut fields = match &self.program {
            JobProgram::Workload { name, scale } => {
                vec![("workload", Json::from(name.as_str())), ("scale", Json::from(scale.key()))]
            }
            JobProgram::Source(text) => vec![("source", Json::from(text.as_str()))],
            JobProgram::Binary(bytes) => vec![("binary", Json::from(bytes_to_hex(bytes)))],
        };
        fields.push(("width", Json::from(u64::from(self.width.base_config().width))));
        fields.push((
            "schemes",
            Json::Arr(self.schemes.iter().map(|s| Json::from(s.key())).collect()),
        ));
        fields.push(("seed", Json::from(self.seed)));
        if let Some(units) = self.sampled {
            fields.push(("sampled", Json::from(units.to_string())));
        }
        if let Some(ms) = self.deadline_ms {
            fields.push(("deadline_ms", Json::from(ms)));
        }
        fields.push(("cycle_budget", Json::from(self.cycle_budget)));
        if let Some(n) = self.pc_table_entries {
            fields.push(("pc_table_entries", Json::from(n)));
        }
        Json::obj(fields)
    }

    /// Decodes a request.
    ///
    /// # Errors
    ///
    /// A description of the first missing or malformed field.
    pub fn from_json(v: &Json) -> Result<JobRequest, String> {
        let program = match (v.get("workload"), v.get("source"), v.get("binary")) {
            (Some(w), None, None) => {
                let name = w.as_str().ok_or_else(|| "`workload` must be a string".to_string())?;
                let scale = match v.get("scale") {
                    None => Scale::Default,
                    Some(s) => {
                        let key =
                            s.as_str().ok_or_else(|| "`scale` must be a string".to_string())?;
                        Scale::from_key(key).ok_or_else(|| format!("unknown scale `{key}`"))?
                    }
                };
                JobProgram::Workload { name: name.to_string(), scale }
            }
            (None, Some(s), None) => JobProgram::Source(
                s.as_str().ok_or_else(|| "`source` must be a string".to_string())?.to_string(),
            ),
            (None, None, Some(b)) => {
                let hex = b.as_str().ok_or_else(|| "`binary` must be a string".to_string())?;
                JobProgram::Binary(
                    bytes_from_hex(hex)
                        .ok_or_else(|| "`binary` must be an even-length hex string".to_string())?,
                )
            }
            _ => {
                return Err(
                    "exactly one of `workload` / `source` / `binary` is required".to_string()
                )
            }
        };
        let width = match v.get("width").and_then(Json::as_u64) {
            None | Some(4) => MachineWidth::Four,
            Some(8) => MachineWidth::Eight,
            Some(o) => return Err(format!("bad width {o} (want 4 or 8)")),
        };
        let schemes = match v.get("schemes") {
            None => vec![Scheme::Base],
            Some(arr) => {
                let items = arr.as_arr().ok_or_else(|| "`schemes` must be an array".to_string())?;
                if items.is_empty() {
                    return Err("`schemes` must not be empty".to_string());
                }
                items
                    .iter()
                    .map(|s| {
                        let key = s
                            .as_str()
                            .ok_or_else(|| "`schemes` entries must be strings".to_string())?;
                        Scheme::from_key(key).ok_or_else(|| format!("unknown scheme `{key}`"))
                    })
                    .collect::<Result<Vec<_>, _>>()?
            }
        };
        let sampled = match v.get("sampled") {
            None => None,
            Some(s) => {
                let text = s.as_str().ok_or_else(|| "`sampled` must be a string".to_string())?;
                Some(SampleUnits::parse(text)?)
            }
        };
        Ok(JobRequest {
            program,
            width,
            schemes,
            seed: v.get("seed").and_then(Json::as_u64).unwrap_or(0),
            sampled,
            deadline_ms: v.get("deadline_ms").and_then(Json::as_u64),
            cycle_budget: v
                .get("cycle_budget")
                .and_then(Json::as_u64)
                .unwrap_or(DEFAULT_CYCLE_BUDGET),
            pc_table_entries: v.get("pc_table_entries").and_then(Json::as_u64).map(|n| n as usize),
        })
    }
}

/// The job lifecycle state machine:
/// `queued → running → done | failed`, with `queued → expired` when the
/// deadline passes first and `queued → done` directly on a full cache
/// hit.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum JobStatus {
    /// Accepted, waiting for a worker.
    Queued,
    /// A worker is simulating it.
    Running,
    /// Finished; results available.
    Done,
    /// A cell faulted or panicked; the error is recorded.
    Failed,
    /// Still queued when the deadline passed; never ran.
    Expired,
}

impl JobStatus {
    /// The wire key.
    #[must_use]
    pub fn key(self) -> &'static str {
        match self {
            JobStatus::Queued => "queued",
            JobStatus::Running => "running",
            JobStatus::Done => "done",
            JobStatus::Failed => "failed",
            JobStatus::Expired => "expired",
        }
    }

    /// Parses a wire key.
    #[must_use]
    pub fn from_key(key: &str) -> Option<JobStatus> {
        [
            JobStatus::Queued,
            JobStatus::Running,
            JobStatus::Done,
            JobStatus::Failed,
            JobStatus::Expired,
        ]
        .into_iter()
        .find(|s| s.key() == key)
    }

    /// Whether the job can no longer change state.
    #[must_use]
    pub fn is_terminal(self) -> bool {
        matches!(self, JobStatus::Done | JobStatus::Failed | JobStatus::Expired)
    }
}

/// Response to `POST /submit`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SubmitResponse {
    /// Monotonic job id.
    pub job_id: u64,
    /// `queued`, or `done` when every cell was a cache hit.
    pub status: JobStatus,
    /// Whether the whole job was served from the result cache.
    pub cached: bool,
}

impl SubmitResponse {
    /// The response as JSON.
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::obj(job_fields(self.job_id, self.status, self.cached, None))
    }

    /// Decodes a response.
    ///
    /// # Errors
    ///
    /// A description of the first missing or malformed field.
    pub fn from_json(v: &Json) -> Result<SubmitResponse, String> {
        Ok(SubmitResponse {
            job_id: v
                .get("job_id")
                .and_then(Json::as_u64)
                .ok_or_else(|| "missing `job_id`".to_string())?,
            status: parse_status(v)?,
            cached: v.get("cached").and_then(Json::as_bool).unwrap_or(false),
        })
    }
}

/// The `job_id`, `status`, `cached` and optional `error` fields every
/// job response leads with.
fn job_fields(
    job_id: u64,
    status: JobStatus,
    cached: bool,
    error: Option<&str>,
) -> Vec<(&'static str, Json)> {
    let mut fields = vec![
        ("job_id", Json::from(job_id)),
        ("status", Json::from(status.key())),
        ("cached", Json::from(cached)),
    ];
    fields.extend(error.map(|e| ("error", Json::from(e))));
    fields
}

fn parse_status(v: &Json) -> Result<JobStatus, String> {
    let key =
        v.get("status").and_then(Json::as_str).ok_or_else(|| "missing `status`".to_string())?;
    JobStatus::from_key(key).ok_or_else(|| format!("unknown status `{key}`"))
}

/// Response to `GET /status/<id>`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct StatusResponse {
    /// The job id queried.
    pub job_id: u64,
    /// Current state.
    pub status: JobStatus,
    /// Whether the job was served entirely from the cache.
    pub cached: bool,
    /// The failure/expiry description, for terminal error states.
    pub error: Option<String>,
}

impl StatusResponse {
    /// The response as JSON.
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::obj(job_fields(self.job_id, self.status, self.cached, self.error.as_deref()))
    }

    /// Decodes a response.
    ///
    /// # Errors
    ///
    /// A description of the first missing or malformed field.
    pub fn from_json(v: &Json) -> Result<StatusResponse, String> {
        Ok(StatusResponse {
            job_id: v
                .get("job_id")
                .and_then(Json::as_u64)
                .ok_or_else(|| "missing `job_id`".to_string())?,
            status: parse_status(v)?,
            cached: v.get("cached").and_then(Json::as_bool).unwrap_or(false),
            error: v.get("error").and_then(Json::as_str).map(str::to_string),
        })
    }
}

/// One scheme cell of a finished job.
///
/// The `payload` is the cache unit: the exact JSON text stored in (and
/// served from) the content-addressed result cache, so a cache hit is
/// bit-identical to the original run by construction. `cached` lives
/// *outside* the payload — it describes this request, not the result.
#[derive(Clone, PartialEq, Debug)]
pub struct CellResult {
    /// The scheme this cell simulated.
    pub scheme: Scheme,
    /// Whether this cell was served from the result cache.
    pub cached: bool,
    /// The canonical result payload (see [`CellResult::payload_json`]).
    payload: String,
}

impl CellResult {
    /// Wraps a freshly rendered (or cache-loaded) payload.
    #[must_use]
    pub fn new(scheme: Scheme, cached: bool, payload: String) -> CellResult {
        CellResult { scheme, cached, payload }
    }

    /// The verbatim payload text — the unit of cache storage and the
    /// thing to compare for bit-identity.
    #[must_use]
    pub fn payload_json(&self) -> &str {
        &self.payload
    }

    /// Parses the payload (`None` if it is not valid JSON — never the
    /// case for daemon-produced payloads).
    #[must_use]
    pub fn payload(&self) -> Option<Json> {
        hpa_obs::json::parse(&self.payload).ok()
    }

    /// The cell as a `{scheme, cached, result}` object, embedding the
    /// parsed payload (`null` if it does not parse). Rendering is
    /// canonical, so the embedded payload renders back to the exact
    /// cached bytes. `/result` responses and the job journal's `done`
    /// records both carry arrays of these.
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("scheme", Json::from(self.scheme.key())),
            ("cached", Json::from(self.cached)),
            ("result", self.payload().unwrap_or(Json::Null)),
        ])
    }

    /// The FNV-1a digest of the full `SimStats` debug formatting, from
    /// the payload's `stats_digest` hex field.
    #[must_use]
    pub fn stats_digest(&self) -> Option<u64> {
        parse_hex(self.payload()?.get("stats_digest")?.as_str()?)
    }

    /// The cell's content-addressed cache key.
    #[must_use]
    pub fn cache_key(&self) -> Option<u64> {
        parse_hex(self.payload()?.get("cache_key")?.as_str()?)
    }

    /// The cell's IPC (full-detail) or mean IPC (sampled).
    #[must_use]
    pub fn ipc(&self) -> Option<f64> {
        self.payload()?.get("ipc")?.as_f64()
    }
}

/// Parses a `0x`-prefixed hex u64.
#[must_use]
pub fn parse_hex(s: &str) -> Option<u64> {
    u64::from_str_radix(s.strip_prefix("0x")?, 16).ok()
}

/// Renders a byte blob as plain lowercase hex (no `0x` prefix — the
/// prefix convention marks exact 64-bit values, not blobs).
#[must_use]
pub fn bytes_to_hex(bytes: &[u8]) -> String {
    let mut out = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        let _ = write!(out, "{b:02x}");
    }
    out
}

/// Parses [`bytes_to_hex`] output (either case); `None` on odd length or
/// a non-hex digit.
#[must_use]
pub fn bytes_from_hex(s: &str) -> Option<Vec<u8>> {
    if !s.len().is_multiple_of(2) {
        return None;
    }
    // from_str_radix alone would also accept `+`/`-` signs.
    if !s.bytes().all(|b| b.is_ascii_hexdigit()) {
        return None;
    }
    s.as_bytes()
        .chunks_exact(2)
        .map(|pair| {
            let text = std::str::from_utf8(pair).ok()?;
            u8::from_str_radix(text, 16).ok()
        })
        .collect()
}

/// Decodes a cell array of [`CellResult::to_json`] objects.
///
/// # Errors
///
/// A description of the first missing or malformed field.
pub fn parse_cells_json(arr: &Json) -> Result<Vec<CellResult>, String> {
    let items = arr.as_arr().ok_or_else(|| "`cells` must be an array".to_string())?;
    items
        .iter()
        .map(|c| {
            let key = c
                .get("scheme")
                .and_then(Json::as_str)
                .ok_or_else(|| "cell missing `scheme`".to_string())?;
            let scheme = Scheme::from_key(key).ok_or_else(|| format!("unknown scheme `{key}`"))?;
            let payload =
                c.get("result").ok_or_else(|| "cell missing `result`".to_string())?.render();
            Ok(CellResult {
                scheme,
                cached: c.get("cached").and_then(Json::as_bool).unwrap_or(false),
                payload,
            })
        })
        .collect()
}

/// Formats a u64 as the wire's `0x`-prefixed, zero-padded hex.
#[must_use]
pub fn format_hex(v: u64) -> String {
    format!("{v:#018x}")
}

/// Response to `GET /result/<id>`.
#[derive(Clone, PartialEq, Debug)]
pub struct ResultResponse {
    /// The job id queried.
    pub job_id: u64,
    /// Terminal state (or the current state for an unfinished job, with
    /// no cells).
    pub status: JobStatus,
    /// Whether every cell was a cache hit.
    pub cached: bool,
    /// The failure/expiry description, for terminal error states.
    pub error: Option<String>,
    /// One result per requested scheme, in request order (empty unless
    /// `done`).
    pub cells: Vec<CellResult>,
}

impl ResultResponse {
    /// The response as JSON.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let mut fields = job_fields(self.job_id, self.status, self.cached, self.error.as_deref());
        fields.push(("cells", Json::Arr(self.cells.iter().map(CellResult::to_json).collect())));
        Json::obj(fields)
    }

    /// Decodes a response.
    ///
    /// # Errors
    ///
    /// A description of the first missing or malformed field.
    pub fn from_json(v: &Json) -> Result<ResultResponse, String> {
        let cells = match v.get("cells") {
            None => Vec::new(),
            Some(arr) => parse_cells_json(arr)?,
        };
        Ok(ResultResponse {
            job_id: v
                .get("job_id")
                .and_then(Json::as_u64)
                .ok_or_else(|| "missing `job_id`".to_string())?,
            status: parse_status(v)?,
            cached: v.get("cached").and_then(Json::as_bool).unwrap_or(false),
            error: v.get("error").and_then(Json::as_str).map(str::to_string),
            cells,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip_request(r: &JobRequest) {
        let v = hpa_obs::json::parse(&r.to_json().render()).expect("valid JSON");
        assert_eq!(&JobRequest::from_json(&v).expect("decodes"), r);
    }

    #[test]
    fn job_request_round_trips() {
        round_trip_request(&JobRequest::workload("gcc", Scale::Tiny, Scheme::Base));
        round_trip_request(&JobRequest {
            program: JobProgram::Source("loop:\n  addi r1, r1, 1\n  halt\n".into()),
            width: MachineWidth::Eight,
            schemes: vec![Scheme::Combined, Scheme::TagElimination],
            seed: 99,
            sampled: Some(SampleUnits::parse("500:1000:4000").unwrap()),
            deadline_ms: Some(2_000),
            cycle_budget: 123,
            pc_table_entries: Some(256),
        });
        round_trip_request(&JobRequest::binary(
            vec![0x7f, b'E', b'L', b'F', 0, 255, 16],
            Scheme::Combined,
        ));
    }

    #[test]
    fn job_request_rejects_bad_fields() {
        let bad = |s: &str| JobRequest::from_json(&hpa_obs::json::parse(s).unwrap());
        assert!(bad("{}").is_err(), "no program");
        assert!(bad(r#"{"workload":"gcc","source":"x"}"#).is_err(), "both programs");
        assert!(bad(r#"{"workload":"gcc","binary":"7f"}"#).is_err(), "workload + binary");
        assert!(bad(r#"{"source":"x","binary":"7f"}"#).is_err(), "source + binary");
        assert!(bad(r#"{"binary":"7f4"}"#).is_err(), "odd-length hex");
        assert!(bad(r#"{"binary":"7g"}"#).is_err(), "non-hex digit");
        assert!(bad(r#"{"workload":"gcc","width":6}"#).is_err(), "bad width");
        assert!(bad(r#"{"workload":"gcc","schemes":[]}"#).is_err(), "empty schemes");
        assert!(bad(r#"{"workload":"gcc","schemes":["nonesuch"]}"#).is_err(), "bad scheme");
        assert!(bad(r#"{"workload":"gcc","scale":"huge"}"#).is_err(), "bad scale");
        assert!(bad(r#"{"workload":"gcc","sampled":"1:2"}"#).is_err(), "bad units");
    }

    #[test]
    fn job_request_defaults() {
        let v = hpa_obs::json::parse(r#"{"workload":"mcf"}"#).unwrap();
        let r = JobRequest::from_json(&v).unwrap();
        assert_eq!(r.width, MachineWidth::Four);
        assert_eq!(r.schemes, vec![Scheme::Base]);
        assert_eq!(r.seed, 0);
        assert_eq!(r.cycle_budget, DEFAULT_CYCLE_BUDGET);
        assert!(r.sampled.is_none() && r.deadline_ms.is_none() && r.pc_table_entries.is_none());
        assert!(matches!(r.program, JobProgram::Workload { scale: Scale::Default, .. }));
    }

    #[test]
    fn status_keys_round_trip_and_terminality() {
        for s in [
            JobStatus::Queued,
            JobStatus::Running,
            JobStatus::Done,
            JobStatus::Failed,
            JobStatus::Expired,
        ] {
            assert_eq!(JobStatus::from_key(s.key()), Some(s));
        }
        assert!(!JobStatus::Queued.is_terminal() && !JobStatus::Running.is_terminal());
        assert!(JobStatus::Done.is_terminal() && JobStatus::Expired.is_terminal());
    }

    #[test]
    fn responses_round_trip() {
        let submit = SubmitResponse { job_id: 7, status: JobStatus::Done, cached: true };
        let v = hpa_obs::json::parse(&submit.to_json().render()).unwrap();
        assert_eq!(SubmitResponse::from_json(&v).unwrap(), submit);

        let status = StatusResponse {
            job_id: 8,
            status: JobStatus::Failed,
            cached: false,
            error: Some("cell panicked: \"quoted\"".into()),
        };
        let v = hpa_obs::json::parse(&status.to_json().render()).unwrap();
        assert_eq!(StatusResponse::from_json(&v).unwrap(), status);

        let payload =
            r#"{"cache_key":"0x00000000000000ff","stats_digest":"0xfedcba9876543210","ipc":1.5}"#;
        let result = ResultResponse {
            job_id: 9,
            status: JobStatus::Done,
            cached: false,
            error: None,
            cells: vec![CellResult::new(Scheme::Base, true, payload.to_string())],
        };
        let text = result.to_json().render();
        assert!(text.contains(payload), "the payload is embedded byte-identically: {text}");
        let v = hpa_obs::json::parse(&text).unwrap();
        let back = ResultResponse::from_json(&v).unwrap();
        assert_eq!(back.cells.len(), 1);
        assert_eq!(back.cells[0].scheme, Scheme::Base);
        assert!(back.cells[0].cached);
        assert_eq!(back.cells[0].cache_key(), Some(0xff));
        assert_eq!(back.cells[0].stats_digest(), Some(0xfedc_ba98_7654_3210));
        assert_eq!(back.cells[0].ipc(), Some(1.5));
    }

    #[test]
    fn hex_round_trips_full_range() {
        for v in [0, 1, u64::MAX, 0x8000_0000_0000_0000] {
            assert_eq!(parse_hex(&format_hex(v)), Some(v));
        }
        assert_eq!(parse_hex("123"), None, "missing 0x prefix");
    }

    #[test]
    fn byte_hex_round_trips() {
        for bytes in [vec![], vec![0u8], vec![0x7f, 0x45, 0x4c, 0x46, 0x00, 0xff]] {
            assert_eq!(bytes_from_hex(&bytes_to_hex(&bytes)), Some(bytes));
        }
        assert_eq!(bytes_from_hex("ABcd"), Some(vec![0xab, 0xcd]), "either case");
        assert_eq!(bytes_from_hex("abc"), None, "odd length");
        assert_eq!(bytes_from_hex("zz"), None, "non-hex");
        assert_eq!(bytes_from_hex("+1"), None, "sign accepted by from_str_radix alone");
    }
}
