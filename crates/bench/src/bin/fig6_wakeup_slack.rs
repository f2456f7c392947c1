//! Regenerates Figure 6: wakeup slack of 2-pending-source instructions.
use hpa_bench::{base_column, HarnessArgs};
use hpa_core::{report, Scheme};

fn main() {
    let args = HarnessArgs::parse();
    for &width in &args.widths {
        let base = base_column(&args, width);
        let mut t = report::figure6(&base.column(Scheme::Base));
        t.title = format!("{} [{}]", t.title, width.label());
        println!("{t}");
    }
}
