//! # hpa-obs — cycle-accounting observability
//!
//! A dependency-free instrumentation layer for the Half-Price
//! Architecture simulator: CPI stacks that attribute every issue slot of
//! every cycle to exactly one cause, a counter/histogram registry with a
//! zero-overhead disabled path, and a Chrome trace-event exporter for
//! per-instruction lifetime spans.
//!
//! The crate deliberately knows nothing about the simulator: the pipeline
//! (`hpa-sim`) records into [`Counters`], the runner (`hpa-core`)
//! aggregates them, and the accounting invariant — the books must balance,
//! `cpi.total() == cycles × width` — is enforced by the property suite.
//!
//! Three generic utilities live here because every layer shares them: the
//! [`json`] value, renderer and parser — the one JSON path every emitter
//! builds a value on and every consumer parses with (the workspace
//! carries no serialization dependency) — the [`digest`] machinery (FNV-1a over
//! bytes or debug formatting) behind the golden-stats tests and the
//! serve-layer result cache, and the [`SplitMix64`] generator behind
//! every seeded input. [`ServeCounters`] is the daemon-side
//! registry (cache hits/misses, queue depth, job latency).
//!
//! See `DESIGN.md` §8 for the category taxonomy and its invariants.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chrome;
mod cpi;
pub mod digest;
pub mod json;
mod registry;
mod rng;

pub use chrome::InstSpan;
pub use cpi::{CpiCategory, CpiStack};
pub use registry::{Counters, Histogram, ServeCounters};
pub use rng::SplitMix64;
