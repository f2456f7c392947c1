//! Regenerates Table 3: wakeup-order stability and last-arriving side.
use hpa_bench::{base_column, HarnessArgs};
use hpa_core::{report, MachineWidth, Scheme};

fn main() {
    let args = HarnessArgs::parse();
    let four = base_column(&args, MachineWidth::Four);
    let eight = base_column(&args, MachineWidth::Eight);
    println!("{}", report::table3(&four.column(Scheme::Base), &eight.column(Scheme::Base)));
}
