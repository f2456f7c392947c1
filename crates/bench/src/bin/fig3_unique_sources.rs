//! Regenerates Figure 3: 2-source-format breakdown by unique sources.
use hpa_bench::{base_column, HarnessArgs};
use hpa_core::{report, MachineWidth, Scheme};

fn main() {
    let args = HarnessArgs::parse();
    let base = base_column(&args, MachineWidth::Four);
    println!("{}", report::figure3(&base.column(Scheme::Base)));
}
