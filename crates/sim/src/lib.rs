//! # hpa-sim — the out-of-order timing simulator
//!
//! An execution-driven, cycle-level simulator of the 12-stage speculative-
//! scheduling out-of-order pipeline from *Half-Price Architecture* (Kim &
//! Lipasti, ISCA 2003), including both of the paper's proposed techniques
//! and every comparison point its evaluation uses:
//!
//! * **wakeup schemes** ([`WakeupScheme`]): conventional two-comparator
//!   wakeup, *sequential wakeup* (fast/slow bus with a last-arriving
//!   operand predictor or the static right-side policy), and *tag
//!   elimination* (Ernst & Austin) with scoreboard verification and
//!   non-selective replay;
//! * **register-file schemes** ([`RegFileScheme`]): two read ports per
//!   slot, *sequential register access* (one port, `now`-bit bypass
//!   detection, +1 cycle and a blocked slot when two reads are needed), a
//!   pipelined extra-RF-stage file, and a half-ported file behind a shared
//!   crossbar with global port arbitration;
//! * **recovery** ([`RecoveryKind`]): non-selective (Alpha 21264 style) or
//!   selective (dependence-matrix, the paper's Figure 5) replay of the
//!   load-latency mis-speculation shadow.
//!
//! The simulator also gathers every characterization the paper reports:
//! operand counts per format (Figs. 2–3), readiness at insert (Fig. 4),
//! wakeup slack (Fig. 6), wakeup-order stability and last-arriving side
//! (Table 3), last-arriving predictor accuracy across table sizes
//! (Fig. 7) and register-read categories (Fig. 10) — see [`SimStats`].
//!
//! See `DESIGN.md` §5 for the microarchitectural details and the
//! documented divergences from the paper's SimpleScalar baseline.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Early-returns a formatted invariant violation when `cond` is false.
macro_rules! ensure {
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return Err(format!($($fmt)+));
        }
    };
}

mod arrival;
mod commit;
mod config;
mod cpi;
mod dyninst;
mod frontend;
mod fu;
mod inject;
mod lsq;
mod phases;
mod pipeline;
mod sampled;
mod sched;
mod stats;
mod trace;
mod wheel;
mod window;

pub use commit::{CommitHook, CommitRecord};
pub use config::{
    BypassScheme, FuCounts, RecoveryKind, RegFileScheme, RenameScheme, SimConfig, WakeupScheme,
};
pub use frontend::BranchWarmth;
pub use hpa_obs::{Counters, CpiCategory, CpiStack, Histogram, InstSpan};
pub use inject::FaultInjection;
pub use phases::PhaseTimes;
pub use pipeline::{SimFault, Simulator};
pub use sampled::{SampleIpc, SampleUnits, SampledEstimate, SampledOutcome, SampledRunner};
pub use stats::{FormatStats, SimStats, WakeupOrderStats};
pub use trace::{PipeTrace, TraceRecord};
