//! Regenerates Figure 10: register-read categorization of 2-source insts.
use hpa_bench::{base_column, HarnessArgs};
use hpa_core::{report, Scheme};

fn main() {
    let args = HarnessArgs::parse();
    for &width in &args.widths {
        let base = base_column(&args, width);
        let mut t = report::figure10(&base.column(Scheme::Base));
        t.title = format!("{} [{}]", t.title, width.label());
        println!("{t}");
    }
}
