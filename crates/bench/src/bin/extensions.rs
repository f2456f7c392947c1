//! Runs the experiments beyond the paper's evaluation and prints their
//! tables to stdout: the recovery ablation, sequential wakeup's IPC
//! against the last-arrival predictor's size, and the paper's §6
//! half-price rename and bypass (see [`hpa_bench::extension_tables`]).
//!
//! Run with `cargo run --release -p hpa-bench --bin extensions`.

use hpa_bench::{extension_tables, HarnessArgs};

fn main() {
    let args = HarnessArgs::parse();
    for t in extension_tables(&args) {
        println!("{t}");
    }
}
