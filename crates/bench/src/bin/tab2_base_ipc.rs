//! Regenerates Table 2: instruction counts and base IPC per benchmark.
use hpa_bench::{base_column, HarnessArgs};
use hpa_core::{report, MachineWidth, Scheme};

fn main() {
    let args = HarnessArgs::parse();
    let four = base_column(&args, MachineWidth::Four);
    let eight = base_column(&args, MachineWidth::Eight);
    println!("{}", report::table2(&four.column(Scheme::Base), &eight.column(Scheme::Base)));
}
