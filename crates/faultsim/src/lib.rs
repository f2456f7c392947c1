//! # hpa-faultsim — deterministic fault-injection campaign engine
//!
//! The paper's central claim is that sequential wakeup and sequential
//! register access are *speculation-free*: a mispredicted last-arriving
//! operand or a stale bypass bit costs a cycle, never a wrong result. This
//! crate turns that claim into a testable resilience property. A
//! **campaign** injects seeded hardware faults into the scheduler's
//! internal structures — the fast/slow wakeup buses, the last-arriving
//! predictor, the `now` bypass-match bits, the register-file read ports
//! and the destination-tag broadcast network ([`FaultClass`]) — and
//! classifies every injected run AVF-style ([`Classification`]):
//!
//! * **Detected** — the lockstep oracle, the strict invariant sweep, or
//!   the cycle-budget watchdog fired;
//! * **Masked** — the fault fired and the run completed with architectural
//!   state (every register and the executed count) identical to an
//!   independent reference emulation;
//! * **Dormant** — the run completed cleanly but the fault never fired
//!   (its trigger never came up), so the run says nothing about
//!   resilience;
//! * **SDC** — silent data corruption: clean run, wrong final state. For
//!   the speculation-free fault classes this must be **zero**; any SDC is
//!   auto-shrunk through the differential shrinker into a corpus
//!   reproducer.
//!
//! Each cell runs once, behind per-job panic isolation
//! ([`hpa_core::parallel_map_isolated`]): a panicking cell is reported as
//! an [`AbortedCell`] with its panic message, and hangs are converted into
//! structured deadlocks by a per-run cycle budget. Every campaign is
//! reproducible from its [`CampaignSpec`] alone — programs and injection
//! parameters all derive from the master seed.
//!
//! ```
//! use hpa_faultsim::{run_campaign, CampaignSpec};
//!
//! let spec = CampaignSpec::parse("programs=1, classes=read-port-storm, schemes=base", 42)
//!     .expect("valid spec");
//! let report = run_campaign(&spec);
//! assert_eq!(report.sdc(), 0, "speculation-free structures never corrupt silently");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod campaign;
mod classify;
mod model;
mod report;

pub use campaign::{run_campaign, CampaignSpec};
pub use classify::{classify_injected, Classification};
pub use model::FaultClass;
pub use report::{AbortedCell, CampaignReport, CellOutcome};
