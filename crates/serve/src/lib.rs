//! # hpa-serve — simulation-as-a-service daemon
//!
//! Every simulation in this workspace is fully deterministic from its
//! inputs — that is what the determinism/differential suites prove — so
//! simulation results are *content-addressable*: identical `(program,
//! config, scheme, seed, mode)` means identical results, bit for bit.
//! This crate turns that property into a service:
//!
//! * [`server`] — `hpa serve`: a hand-rolled HTTP/JSON daemon over
//!   [`std::net::TcpListener`] (the workspace carries no dependencies)
//!   with a job queue, a worker pool executing cells under
//!   `catch_unwind` isolation and a cycle-budget watchdog, deadlines,
//!   and graceful drain-on-shutdown;
//! * [`cache`] — the content-addressed result cache: [`cell_key`]
//!   (re-exported from `hpa-core`), an FNV-1a digest of a canonical
//!   byte encoding of the simulation inputs, keys an on-disk store (one atomically renamed file per entry) fronted by
//!   an in-memory index, so resubmitting a job answers from the cache
//!   without simulating — bit-identical by construction, because the
//!   cached value *is* the original rendered payload;
//! * [`proto`] — the typed wire protocol, shared with the `hpa-sdk`
//!   client crate so both sides cannot drift;
//! * [`queue`] — the Mutex + Condvar job FIFO with drain semantics and
//!   a bounded-admission push;
//! * [`http`] — the minimal HTTP/1.1 subset both sides speak;
//! * [`journal`] — the write-ahead job journal: checksum-framed JSONL
//!   replayed on startup so a `kill -9` loses no accepted job, torture-
//!   tested against truncation and bit flips.
//!
//! Wire protocol, job state machine, cache-key encoding and the
//! durability/degradation rules are documented in `DESIGN.md` §12.
//!
//! # Example
//!
//! ```no_run
//! use hpa_serve::server::{Server, ServerConfig};
//!
//! let server = Server::bind(ServerConfig {
//!     addr: "127.0.0.1:0".into(),
//!     ..ServerConfig::default()
//! })?;
//! println!("listening on {}", server.local_addr()?);
//! server.run()?; // blocks until POST /shutdown
//! # Ok::<(), std::io::Error>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod http;
pub mod journal;
pub mod proto;
pub mod queue;
pub mod server;

pub use cache::ResultCache;
pub use hpa_core::cell_key;
pub use journal::{Journal, Record, Replay, ReplayedJob};
pub use proto::{
    CellResult, JobProgram, JobRequest, JobStatus, ResultResponse, StatusResponse, SubmitResponse,
};
pub use queue::JobQueue;
pub use server::{Server, ServerConfig};
