//! Prints the golden digest tables of `hpa_core::model`, which
//! `tests/stats_golden.rs` checks and the model fingerprint is derived
//! from.
//!
//! The digest is an FNV-1a hash of the full `SimStats` debug formatting, so
//! any counter change — IPC, histograms, predictor accuracy — changes the
//! digest. Run after an intentional behavior change and paste the output
//! over the tables in `crates/core/src/model.rs`:
//!
//! ```text
//! cargo run --release --example golden_stats_digest
//! ```

use half_price::obs::digest::debug_digest as digest;
use half_price::sim::SampleUnits;
use half_price::workloads::{workload, Scale};
use half_price::{run, run_workload, MachineWidth, Mode, RunSpec, Scheme};

/// Schemes whose observability registry is pinned (kept in sync with
/// `COUNTER_GOLDEN` in `hpa_core::model`).
const COUNTER_SCHEMES: [Scheme; 4] =
    [Scheme::Base, Scheme::SeqWakeupPredictor, Scheme::SeqRegAccess, Scheme::Combined];

fn main() {
    println!("pub const GOLDEN: [(&str, Scheme, u64); 24] = [");
    for name in ["gap", "mcf", "perl"] {
        for scheme in Scheme::ALL {
            let r = run_workload(name, Scale::Tiny, MachineWidth::Four, scheme)
                .unwrap_or_else(|e| panic!("{e}"));
            println!("    (\"{name}\", Scheme::{scheme:?}, {:#018x}),", digest(&r.stats));
        }
    }
    println!("];\n");
    println!("pub const COUNTER_GOLDEN: [(&str, Scheme, u64); 12] = [");
    for name in ["gap", "mcf", "perl"] {
        for scheme in COUNTER_SCHEMES {
            let w = workload(name, Scale::Tiny).expect("known workload");
            let r = run(&RunSpec {
                counters: true,
                ..RunSpec::workload(&w, scheme, MachineWidth::Four)
            })
            .unwrap_or_else(|e| panic!("{e}"));
            let c = r.counters.expect("observed run records counters");
            println!("    (\"{name}\", Scheme::{scheme:?}, {:#018x}),", digest(&c));
        }
    }
    println!("];\n");
    println!("pub const RISCV_GOLDEN: [(&str, Scheme, u64); 12] = [");
    for name in half_price::workloads::RISCV_WORKLOAD_NAMES {
        for scheme in COUNTER_SCHEMES {
            let r = run_workload(name, Scale::Tiny, MachineWidth::Four, scheme)
                .unwrap_or_else(|e| panic!("{e}"));
            println!("    (\"{name}\", Scheme::{scheme:?}, {:#018x}),", digest(&r.stats));
        }
    }
    println!("];\n");
    let units = SampleUnits::parse("500:2000:7500").expect("valid units");
    let w = workload("gcc", Scale::Tiny).expect("known workload");
    let mode = Mode::Sampled { units, seed: 42 };
    let r = run(&RunSpec { mode, ..RunSpec::workload(&w, Scheme::Base, MachineWidth::Four) })
        .unwrap_or_else(|e| panic!("{e}"));
    let est = r.sampled.expect("sampled run records an estimate");
    println!("pub const SAMPLED_GOLDEN: u64 = {:#018x};", digest(&est));
}
