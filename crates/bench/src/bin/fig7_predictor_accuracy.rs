//! Regenerates Figure 7: last-arriving predictor accuracy vs table size
//! (128/512/1024/4096 entries, trained as shadow predictors in one run).
use hpa_bench::{base_column, HarnessArgs};
use hpa_core::{report, Scheme};

fn main() {
    let args = HarnessArgs::parse();
    for &width in &args.widths {
        let base = base_column(&args, width);
        let mut t = report::figure7(&base.column(Scheme::Base));
        t.title = format!("{} [{}]", t.title, width.label());
        println!("{t}");
    }
}
