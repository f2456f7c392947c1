//! Regenerates Figure 4: operand readiness at scheduler insert.
use hpa_bench::{base_column, HarnessArgs};
use hpa_core::{report, Scheme};

fn main() {
    let args = HarnessArgs::parse();
    for &width in &args.widths {
        let base = base_column(&args, width);
        let mut t = report::figure4(&base.column(Scheme::Base));
        t.title = format!("{} [{}]", t.title, width.label());
        println!("{t}");
    }
}
