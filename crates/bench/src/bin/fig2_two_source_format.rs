//! Regenerates Figure 2: percentage of 2-source-format instructions.
use hpa_bench::{base_column, HarnessArgs};
use hpa_core::{report, MachineWidth, Scheme};

fn main() {
    let args = HarnessArgs::parse();
    // Program characteristics: machine-independent, one width suffices.
    let base = base_column(&args, MachineWidth::Four);
    println!("{}", report::figure2(&base.column(Scheme::Base)));
}
