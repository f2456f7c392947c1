//! # hpa-core — the Half-Price Architecture reproduction, in one crate
//!
//! This is the top-level library of the workspace reproducing *Half-Price
//! Architecture* (Ilhyun Kim and Mikko H. Lipasti, ISCA 2003). It ties the
//! substrate crates together and exposes the experiment API used by the
//! examples and the `hpa-bench` harness:
//!
//! * [`Scheme`] names each machine configuration the paper evaluates
//!   (base, sequential wakeup with/without predictor, tag elimination,
//!   sequential register access, extra RF stage, half-ported crossbar,
//!   combined);
//! * [`MachineWidth`] selects the paper's 4-wide or 8-wide machine
//!   (Table 1);
//! * [`run`] is the one way to simulate: a [`RunSpec`] names the program,
//!   its reference checksum, the scheme, width and machine configuration,
//!   full or sampled [`Mode`], what to record and a cycle budget; the
//!   [`RunResult`] carries the statistics, and timing must never change
//!   the architectural result; [`RunResult::to_json`] is the one record
//!   every result surface renders, stamped with the [`model`]
//!   fingerprint;
//! * [`run_workload`] resolves a benchmark name and runs it;
//! * [`run_matrix`] sweeps benchmarks × schemes, fanning the independent
//!   cells out across worker threads ([`pool`]) with results that do not
//!   depend on the thread count;
//! * [`report`] renders every figure and table of the paper's evaluation
//!   from the collected statistics.
//!
//! The underlying pieces are re-exported: the ISA (`isa`), assembler
//! (`asm`), functional emulator (`emu`), branch/operand predictors
//! (`bpred`), cache hierarchy (`cache`), circuit delay models
//! (`circuits`), the cycle-level out-of-order simulator (`sim`) and the
//! twelve SPEC CINT2000 stand-in workloads (`workloads`).
//!
//! # Example
//!
//! ```
//! use hpa_core::{run_workload, MachineWidth, Scheme};
//! use hpa_core::workloads::Scale;
//!
//! # fn main() -> Result<(), hpa_core::RunError> {
//! let base = run_workload("gcc", Scale::Tiny, MachineWidth::Four, Scheme::Base)?;
//! let half = run_workload("gcc", Scale::Tiny, MachineWidth::Four, Scheme::Combined)?;
//! let slowdown = 1.0 - half.stats.ipc() / base.stats.ipc();
//! assert!(slowdown < 0.10, "half-price costs only a few percent");
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use hpa_asm as asm;
pub use hpa_bpred as bpred;
pub use hpa_cache as cache;
pub use hpa_circuits as circuits;
pub use hpa_emu as emu;
pub use hpa_isa as isa;
pub use hpa_obs as obs;
pub use hpa_rv as rv;
pub use hpa_sim as sim;
pub use hpa_workloads as workloads;

pub mod model;
pub mod pool;
pub mod report;
mod runner;
mod scheme;

pub use hpa_obs::{Counters, CpiCategory, CpiStack};
pub use pool::{default_jobs, parallel_map, parallel_map_isolated, JobError};
pub use runner::{
    run, run_matrix, run_prepared, run_prepared_observed, run_prepared_phase_timed, run_workload,
    MatrixResult, Mode, RunError, RunResult, RunSpec,
};
pub use scheme::{MachineWidth, Scheme};
