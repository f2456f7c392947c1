//! # hpa-verify — lockstep co-simulation oracle and differential fuzzer
//!
//! The timing simulator is execution-driven: architectural values always
//! come from the functional emulator, so a timing bug cannot corrupt a
//! register — but it *can* drop, duplicate or reorder the retire stream,
//! deadlock the scheduler, or silently violate a pipeline invariant. This
//! crate closes that gap with three layers:
//!
//! * **lockstep oracle** ([`run_lockstep`]): a [`LockstepOracle`] attached
//!   to the simulator's commit hook replays every committed instruction on
//!   an independent shadow emulator and compares PC, decoded instruction,
//!   next PC, taken direction, memory address/data and destination value,
//!   reporting the *first* divergence with its sequence number, cycle and
//!   a pipeline-state dump;
//! * **differential fuzzer** ([`fuzz`]): a seeded random-program generator
//!   ([`GenProgram`]) produces short loops with dependency chains, aliasing
//!   loads/stores and forward branches, then runs each program under the
//!   base machine and the half-price schemes in lockstep and asserts all
//!   schemes produce identical architectural outcomes;
//! * **shrinker** ([`shrink`]): failing `(program, config)` pairs are
//!   minimized by instruction deletion and config simplification, and
//!   written to `tests/corpus/` as replayable `.s` reproducers
//!   ([`write_reproducer`], replayed by [`replay_dir`]).
//!
//! The oracle is deliberately redundant with the emulator the simulator
//! already carries: the shadow advances *per commit*, so any retire-stream
//! defect desynchronizes the two machines at the exact faulting sequence
//! number instead of surfacing (or not) in a final checksum.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod corpus;
mod fuzz;
mod generate;
mod oracle;
mod shrink;

pub use corpus::{load_case, replay_dir, write_reproducer, CorpusCase, ReplayReport};
pub use fuzz::{
    fuzz, run_differential, run_differential_sampled, FuzzConfig, FuzzFailure, FuzzReport, Variant,
    FUZZ_SCHEMES,
};
pub use generate::{ArchState, GenInst, GenProgram, ARENA0, ARENA1};
#[doc(hidden)]
pub use oracle::run_lockstep_injected;
pub use oracle::{run_lockstep, run_lockstep_window, LockstepOracle, LockstepOutcome};
pub use shrink::shrink;

/// A verification failure: the first point where the timing simulator's
/// retire stream (or final state) departs from the shadow emulator, or
/// where two schemes disagree architecturally.
#[derive(Clone, Debug)]
pub struct Divergence {
    /// Sequence number of the first diverging commit (0 when the failure
    /// is not tied to one commit, e.g. a deadlock or final-state check).
    pub seq: u64,
    /// Cycle at which the divergence was detected.
    pub cycle: u64,
    /// Human-readable description of the mismatch.
    pub reason: String,
    /// Pipeline-state dump captured at the point of divergence.
    pub dump: String,
    /// The first architectural difference when the run completed cleanly
    /// but ended in the wrong final state (silent data corruption);
    /// `None` for every other divergence.
    pub final_state: Option<String>,
}

impl Divergence {
    /// A divergence not tied to one commit, with no pipeline dump.
    #[must_use]
    pub fn at(cycle: u64, reason: String) -> Divergence {
        Divergence { seq: 0, cycle, reason, dump: String::new(), final_state: None }
    }
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "divergence at seq {} (cycle {}): {}", self.seq, self.cycle, self.reason)?;
        write!(f, "{}", self.dump)
    }
}

impl std::error::Error for Divergence {}
