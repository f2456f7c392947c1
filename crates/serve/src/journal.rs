//! The write-ahead job journal: crash durability for the daemon.
//!
//! Every job transition is appended to `<dir>/journal.jsonl` as one
//! checksum-framed line *before* the transition is acknowledged to the
//! client (`submitted` records are additionally fsync'd, so an accepted
//! job survives a `kill -9` the instant the 200 goes out). On startup
//! [`Journal::open`] replays the file: completed jobs rehydrate the job
//! table and the content-addressed result cache, incomplete jobs
//! re-enqueue in their original submit order, and the whole file is then
//! compacted to the live state via temp-file + atomic rename — the same
//! rotation that also runs whenever the appended bytes pass
//! [`ROTATE_BYTES`].
//!
//! # Framing
//!
//! One record per line: `<len> <0x-fnv1a> <json>\n`, where `len` is the
//! byte length of `<json>` and the checksum is FNV-1a over exactly those
//! bytes. Replay is adversarial by construction: a truncated tail, a
//! bit-flipped byte, a merged line or plain garbage fails the length or
//! checksum test and the record is *skipped and counted*
//! ([`Replay::skipped`]) — never a panic, never a wedged daemon. The
//! torture tests below truncate a valid journal at every byte offset and
//! flip every byte in turn to pin that property.
//!
//! # Record grammar
//!
//! | `type`      | fields                      | meaning                        |
//! |-------------|-----------------------------|--------------------------------|
//! | `submitted` | `id`, `request`             | job accepted (fsync'd)         |
//! | `started`   | `id`                        | a worker claimed the job       |
//! | `done`      | `id`, `cached`, `cells`     | terminal: results (fsync'd)    |
//! | `failed`    | `id`, `error`               | terminal: fault/panic (fsync'd)|
//! | `expired`   | `id`, `error`               | terminal: never ran            |
//!
//! Replay rules: the *last intact* record per id wins; a terminal record
//! without its `submitted` line (lost to corruption) still rehydrates —
//! results are never discarded because an earlier record died. A
//! `submitted`/`started` with no terminal record re-enqueues.

use crate::proto::{format_hex, parse_cells_json, CellResult, JobRequest};
use hpa_obs::digest::fnv1a;
use hpa_obs::json::Json;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// Appended-bytes threshold past which the journal is rewritten to the
/// live job set (temp + atomic rename). Generous: terminal records carry
/// full result payloads (~1 KiB per cell), so this is thousands of jobs.
pub const ROTATE_BYTES: u64 = 8 << 20;

/// One journal record: a job id plus the transition it durably logs.
#[derive(Clone, PartialEq, Debug)]
pub enum Record {
    /// The job was accepted (always the first record for an id).
    Submitted {
        /// The job id.
        id: u64,
        /// The full request, so replay can re-run the job.
        request: JobRequest,
    },
    /// A worker claimed the job (recovery hint; not a state change).
    Started {
        /// The job id.
        id: u64,
    },
    /// The job finished with results.
    Done {
        /// The job id.
        id: u64,
        /// Whether every cell was served from the cache.
        cached: bool,
        /// One result per requested scheme, in request order.
        cells: Vec<CellResult>,
    },
    /// The job failed (cell fault or panic).
    Failed {
        /// The job id.
        id: u64,
        /// The failure description.
        error: String,
    },
    /// The job expired while queued (or was rejected at admission after
    /// its `submitted` record was already durable).
    Expired {
        /// The job id.
        id: u64,
        /// The expiry description.
        error: String,
    },
}

impl Record {
    /// The job id this record describes.
    #[must_use]
    pub fn id(&self) -> u64 {
        match *self {
            Record::Submitted { id, .. }
            | Record::Started { id }
            | Record::Done { id, .. }
            | Record::Failed { id, .. }
            | Record::Expired { id, .. } => id,
        }
    }

    /// The record's JSON body (rendered, the checksummed unit).
    #[must_use]
    pub fn to_json(&self) -> Json {
        let (kind, detail) = match self {
            Record::Submitted { request, .. } => {
                ("submitted", vec![("request", request.to_json())])
            }
            Record::Started { .. } => ("started", vec![]),
            Record::Done { cached, cells, .. } => (
                "done",
                vec![
                    ("cached", Json::from(*cached)),
                    ("cells", Json::Arr(cells.iter().map(CellResult::to_json).collect())),
                ],
            ),
            Record::Failed { error, .. } => ("failed", vec![("error", Json::from(error.as_str()))]),
            Record::Expired { error, .. } => {
                ("expired", vec![("error", Json::from(error.as_str()))])
            }
        };
        let mut fields = vec![("type", Json::from(kind)), ("id", Json::from(self.id()))];
        fields.extend(detail);
        Json::obj(fields)
    }

    /// Decodes a record from its JSON body.
    ///
    /// # Errors
    ///
    /// A description of the first missing or malformed field.
    pub fn from_json(v: &Json) -> Result<Record, String> {
        let id = v.get("id").and_then(Json::as_u64).ok_or_else(|| "missing `id`".to_string())?;
        let kind =
            v.get("type").and_then(Json::as_str).ok_or_else(|| "missing `type`".to_string())?;
        match kind {
            "submitted" => {
                let request = v.get("request").ok_or_else(|| "missing `request`".to_string())?;
                Ok(Record::Submitted { id, request: JobRequest::from_json(request)? })
            }
            "started" => Ok(Record::Started { id }),
            "done" => Ok(Record::Done {
                id,
                cached: v.get("cached").and_then(Json::as_bool).unwrap_or(false),
                cells: parse_cells_json(
                    v.get("cells").ok_or_else(|| "missing `cells`".to_string())?,
                )?,
            }),
            "failed" => Ok(Record::Failed { id, error: record_error(v)? }),
            "expired" => Ok(Record::Expired { id, error: record_error(v)? }),
            other => Err(format!("unknown record type `{other}`")),
        }
    }
}

fn record_error(v: &Json) -> Result<String, String> {
    Ok(v.get("error")
        .and_then(Json::as_str)
        .ok_or_else(|| "missing `error`".to_string())?
        .to_string())
}

/// One replayed job's effective state: the last intact record wins.
#[derive(Clone, PartialEq, Debug)]
pub enum ReplayedJob {
    /// Submitted (and possibly started) but never finished: re-enqueue.
    Pending(JobRequest),
    /// Finished with results: rehydrate the table and the cache.
    Done {
        /// Whether every cell was originally a cache hit.
        cached: bool,
        /// The job's cells, payloads verbatim.
        cells: Vec<CellResult>,
    },
    /// Failed terminally: rehydrate the terminal record.
    Failed(String),
    /// Expired terminally: rehydrate the terminal record.
    Expired(String),
}

/// What [`Journal::open`] recovered from an existing journal.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct Replay {
    /// Replayed jobs in original submit order (first-record order for
    /// orphaned terminal records).
    pub jobs: Vec<(u64, ReplayedJob)>,
    /// The next job id to allocate (max replayed id + 1, min 1).
    pub next_id: u64,
    /// Intact records replayed.
    pub records: u64,
    /// Corrupt, truncated or unparsable records skipped (never fatal).
    pub skipped: u64,
}

/// The append-only journal over one `journal.jsonl` file.
pub struct Journal {
    inner: Mutex<Inner>,
}

struct Inner {
    path: PathBuf,
    file: File,
    /// Bytes appended since the last rewrite; drives rotation.
    appended: u64,
}

/// Renders one record and frames it into its on-disk line.
fn frame(record: &Record) -> String {
    let json = record.to_json().render();
    format!("{} {} {json}\n", json.len(), format_hex(fnv1a(json.as_bytes())))
}

/// Parses one framed line (without its `\n`) back to a record body,
/// validating length and checksum. `None` for any damage.
fn unframe(line: &[u8]) -> Option<&[u8]> {
    let mut parts = line.splitn(3, |&b| b == b' ');
    let len: usize = std::str::from_utf8(parts.next()?).ok()?.parse().ok()?;
    let checksum = crate::proto::parse_hex(std::str::from_utf8(parts.next()?).ok()?)?;
    let body = parts.next()?;
    (body.len() == len && fnv1a(body) == checksum).then_some(body)
}

impl Journal {
    /// Opens (creating if needed) the journal in `dir`, replays any
    /// existing records, and compacts the file to the replayed live
    /// state. Corrupt or truncated records are skipped and counted in
    /// [`Replay::skipped`]; they can never fail the open.
    ///
    /// # Errors
    ///
    /// Directory creation or file open/rename failures only.
    pub fn open(dir: &Path) -> io::Result<(Journal, Replay)> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join("journal.jsonl");
        let replay = match std::fs::File::open(&path) {
            Ok(mut f) => {
                let mut bytes = Vec::new();
                f.read_to_end(&mut bytes)?;
                replay_bytes(&bytes)
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                Replay { next_id: 1, ..Replay::default() }
            }
            Err(e) => return Err(e),
        };
        // Compact: rewrite exactly the live state (dropping superseded
        // and corrupt records) via temp + atomic rename, so the journal
        // cannot grow without bound across restarts and a damaged file
        // is healed the moment it is replayed.
        let records: Vec<Record> = replay
            .jobs
            .iter()
            .map(|(id, job)| match job {
                ReplayedJob::Pending(request) => {
                    Record::Submitted { id: *id, request: request.clone() }
                }
                ReplayedJob::Done { cached, cells } => {
                    Record::Done { id: *id, cached: *cached, cells: cells.clone() }
                }
                ReplayedJob::Failed(e) => Record::Failed { id: *id, error: e.clone() },
                ReplayedJob::Expired(e) => Record::Expired { id: *id, error: e.clone() },
            })
            .collect();
        write_records(&path, &records)?;
        let file = OpenOptions::new().append(true).open(&path)?;
        Ok((Journal { inner: Mutex::new(Inner { path, file, appended: 0 }) }, replay))
    }

    /// Appends one record; with `durable`, fsyncs before returning so
    /// the record survives a crash of the whole machine, not just the
    /// process. Disk errors are swallowed (journaling is best-effort
    /// protection; it must never fail the job it protects).
    pub fn append(&self, record: &Record, durable: bool) {
        let line = frame(record);
        let mut inner = self.inner.lock().expect("journal");
        let _ = inner.file.write_all(line.as_bytes());
        if durable {
            let _ = inner.file.sync_data();
        }
        inner.appended += line.len() as u64;
    }

    /// Whether enough bytes have been appended since the last rewrite
    /// that the caller should [`Journal::rewrite`] with the live state.
    #[must_use]
    pub fn should_rotate(&self) -> bool {
        self.inner.lock().expect("journal").appended > ROTATE_BYTES
    }

    /// Replaces the journal with exactly `records` (temp + atomic
    /// rename) and resets the rotation counter. Failures leave the old
    /// journal in place — rotation is an optimization, not a
    /// correctness step.
    pub fn rewrite(&self, records: &[Record]) {
        let mut inner = self.inner.lock().expect("journal");
        if let Ok(file) = write_records(&inner.path, records) {
            inner.file = file;
            inner.appended = 0;
        }
    }
}

/// Writes `records` to `path` via temp + rename; returns the re-opened
/// append handle.
fn write_records(path: &Path, records: &[Record]) -> io::Result<File> {
    let tmp = path.with_extension("jsonl.tmp");
    {
        let mut f = File::create(&tmp)?;
        for r in records {
            f.write_all(frame(r).as_bytes())?;
        }
        f.sync_data()?;
    }
    std::fs::rename(&tmp, path)?;
    OpenOptions::new().append(true).open(path)
}

/// Replays raw journal bytes into per-job effective states.
fn replay_bytes(bytes: &[u8]) -> Replay {
    let mut replay = Replay { next_id: 1, ..Replay::default() };
    let mut chunks = bytes.split(|&b| b == b'\n').peekable();
    while let Some(chunk) = chunks.next() {
        let is_tail = chunks.peek().is_none();
        if chunk.is_empty() {
            continue; // the terminator after the last record
        }
        // The final chunk had no `\n`: a crash mid-append truncated it.
        // (A truncated line also fails the frame check; `is_tail` only
        // distinguishes the log message, not the outcome.)
        let record = unframe(chunk)
            .and_then(|body| std::str::from_utf8(body).ok())
            .and_then(|s| hpa_obs::json::parse(s).ok())
            .and_then(|v| Record::from_json(&v).ok());
        let Some(record) = record else {
            let _ = is_tail;
            replay.skipped += 1;
            continue;
        };
        replay.records += 1;
        replay.next_id = replay.next_id.max(record.id() + 1);
        apply(&mut replay.jobs, record);
    }
    replay
}

/// Folds one intact record into the per-job state list, preserving
/// first-record order.
fn apply(jobs: &mut Vec<(u64, ReplayedJob)>, record: Record) {
    let id = record.id();
    let state = match record {
        // A duplicate `submitted` (or one arriving after a terminal
        // record during an unclean rotation race) must not resurrect the
        // job; only a first `submitted` creates a pending entry.
        Record::Submitted { request, .. } => {
            if jobs.iter().all(|(j, _)| *j != id) {
                jobs.push((id, ReplayedJob::Pending(request)));
            }
            return;
        }
        Record::Started { .. } => return, // recovery hint only
        Record::Done { cached, cells, .. } => ReplayedJob::Done { cached, cells },
        Record::Failed { error, .. } => ReplayedJob::Failed(error),
        Record::Expired { error, .. } => ReplayedJob::Expired(error),
    };
    match jobs.iter_mut().find(|(j, _)| *j == id) {
        Some((_, slot)) => *slot = state,
        // Orphaned terminal record (its `submitted` line was lost):
        // results still rehydrate.
        None => jobs.push((id, state)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpa_core::Scheme;
    use hpa_workloads::Scale;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("hpa-journal-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn request(seed: u64) -> JobRequest {
        let mut r = JobRequest::workload("gcc", Scale::Tiny, Scheme::Base);
        r.seed = seed;
        r
    }

    fn done_record(id: u64) -> Record {
        Record::Done {
            id,
            cached: false,
            cells: vec![CellResult::new(
                Scheme::Base,
                false,
                r#"{"cache_key":"0x00000000000000ff","stats_digest":"0x0000000000000001","ipc":1.5}"#
                    .to_string(),
            )],
        }
    }

    #[test]
    fn records_round_trip_through_json() {
        let cases = [
            Record::Submitted { id: 1, request: request(7) },
            Record::Started { id: 2 },
            done_record(3),
            Record::Failed { id: 4, error: "cell panicked: \"quoted\"".into() },
            Record::Expired { id: 5, error: "deadline passed".into() },
        ];
        for r in cases {
            let v = hpa_obs::json::parse(&r.to_json().render()).expect("valid JSON");
            assert_eq!(Record::from_json(&v).expect("decodes"), r);
        }
    }

    #[test]
    fn open_replay_reenqueues_incomplete_and_rehydrates_done() {
        let dir = tmp_dir("replay");
        {
            let (journal, replay) = Journal::open(&dir).unwrap();
            assert_eq!(replay, Replay { next_id: 1, ..Replay::default() });
            journal.append(&Record::Submitted { id: 1, request: request(1) }, true);
            journal.append(&Record::Started { id: 1 }, false);
            journal.append(&done_record(1), true);
            journal.append(&Record::Submitted { id: 2, request: request(2) }, true);
            journal.append(&Record::Started { id: 2 }, false);
            journal.append(&Record::Submitted { id: 3, request: request(3) }, true);
            journal.append(&Record::Failed { id: 4, error: "boom".into() }, true);
        }
        let (_journal, replay) = Journal::open(&dir).unwrap();
        assert_eq!(replay.skipped, 0);
        assert_eq!(replay.next_id, 5);
        let ids: Vec<u64> = replay.jobs.iter().map(|(id, _)| *id).collect();
        assert_eq!(ids, vec![1, 2, 3, 4], "original submit order is preserved");
        assert!(matches!(replay.jobs[0].1, ReplayedJob::Done { .. }));
        assert!(matches!(replay.jobs[1].1, ReplayedJob::Pending(_)), "started-but-unfinished");
        assert!(matches!(replay.jobs[2].1, ReplayedJob::Pending(_)), "queued-but-unfinished");
        assert!(matches!(replay.jobs[3].1, ReplayedJob::Failed(_)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn open_compacts_the_file_to_live_state() {
        let dir = tmp_dir("compact");
        {
            let (journal, _) = Journal::open(&dir).unwrap();
            journal.append(&Record::Submitted { id: 1, request: request(1) }, true);
            journal.append(&Record::Started { id: 1 }, false);
            journal.append(&done_record(1), true);
        }
        // Second open compacts 3 records to 1 (the terminal `done`).
        let _ = Journal::open(&dir).unwrap();
        let text = std::fs::read_to_string(dir.join("journal.jsonl")).unwrap();
        assert_eq!(text.lines().count(), 1, "{text}");
        assert!(text.contains("\"type\":\"done\""), "{text}");
        // And the compacted file replays identically.
        let (_, replay) = Journal::open(&dir).unwrap();
        assert_eq!(replay.jobs.len(), 1);
        assert!(matches!(replay.jobs[0].1, ReplayedJob::Done { .. }));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncation_at_every_offset_never_panics_and_keeps_the_prefix() {
        let mut bytes = Vec::new();
        for record in [Record::Submitted { id: 1, request: request(1) }, done_record(1)] {
            bytes.extend_from_slice(frame(&record).as_bytes());
        }
        let full = replay_bytes(&bytes);
        assert_eq!(full.records, 2);
        let first_len = frame(&Record::Submitted { id: 1, request: request(1) }).len();
        for cut in 0..bytes.len() {
            let replay = replay_bytes(&bytes[..cut]);
            // The intact prefix always survives; the cut record is
            // skipped (or simply absent when cut at a line boundary).
            assert!(replay.records <= 2, "cut at {cut}");
            assert!(replay.skipped <= 1, "cut at {cut}");
            if cut >= first_len {
                // A cut at len-1 only sheds the trailing newline; the
                // second record is still a complete (unterminated) line.
                let expected = if cut >= bytes.len() - 1 { 2 } else { 1 };
                assert_eq!(replay.records, expected, "cut at {cut}");
                assert!(matches!(replay.jobs[0], (1, _)), "cut at {cut}");
            }
        }
        // A cut strictly inside the second record keeps job 1 pending.
        let replay = replay_bytes(&bytes[..first_len + 10]);
        assert_eq!(replay.records, 1);
        assert_eq!(replay.skipped, 1, "the truncated tail is counted");
        assert!(matches!(replay.jobs[0].1, ReplayedJob::Pending(_)));
    }

    #[test]
    fn every_single_bit_flip_is_skipped_never_fatal() {
        let mut bytes = Vec::new();
        bytes
            .extend_from_slice(frame(&Record::Submitted { id: 1, request: request(1) }).as_bytes());
        bytes.extend_from_slice(frame(&done_record(1)).as_bytes());
        for i in 0..bytes.len() {
            let mut damaged = bytes.clone();
            damaged[i] ^= 0x10;
            let replay = replay_bytes(&damaged); // must not panic
            assert!(replay.records + replay.skipped >= 1, "flip at byte {i}");
            assert!(replay.skipped >= 1, "flip at byte {i} went undetected");
        }
    }

    #[test]
    fn garbage_and_orphan_terminal_records_are_handled() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(b"this is not a journal line\n");
        bytes.extend_from_slice(b"12 0xnothex {}\n");
        // An orphan `done` (its `submitted` was lost) still rehydrates.
        bytes.extend_from_slice(frame(&done_record(9)).as_bytes());
        let replay = replay_bytes(&bytes);
        assert_eq!(replay.skipped, 2);
        assert_eq!(replay.records, 1);
        assert_eq!(replay.next_id, 10);
        assert!(matches!(replay.jobs[..], [(9, ReplayedJob::Done { .. })]));
    }

    #[test]
    fn rewrite_rotates_via_temp_and_rename() {
        let dir = tmp_dir("rotate");
        let (journal, _) = Journal::open(&dir).unwrap();
        for i in 0..50 {
            journal.append(&Record::Submitted { id: i, request: request(i) }, false);
            journal.append(&Record::Expired { id: i, error: "old".into() }, false);
        }
        assert!(!journal.should_rotate(), "50 tiny records are under the threshold");
        journal.rewrite(&[Record::Submitted { id: 99, request: request(99) }]);
        let text = std::fs::read_to_string(dir.join("journal.jsonl")).unwrap();
        assert_eq!(text.lines().count(), 1);
        drop(journal);
        let (_, replay) = Journal::open(&dir).unwrap();
        assert!(matches!(replay.jobs[..], [(99, ReplayedJob::Pending(_))]));
        assert!(
            !dir.join("journal.jsonl.tmp").exists(),
            "rotation must not leave a temp file behind"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
