//! Regenerates Figure 16: the combined half-price architecture
//! (sequential wakeup + sequential register access), normalized to base.
use hpa_bench::{summary, HarnessArgs, FIG16_SCHEMES};
use hpa_core::{report, run_matrix};

fn main() {
    let args = HarnessArgs::parse();
    for &width in &args.widths {
        let m =
            run_matrix(&args.benches, args.scale, width, &FIG16_SCHEMES, args.jobs, false, |r| {
                eprintln!("  {} / {} : ipc {:.3}", r.workload, r.scheme.label(), r.stats.ipc());
            })
            .unwrap_or_else(|e| panic!("{e}"));
        let title = format!("Figure 16: combined half-price architecture [{}]", width.label());
        println!("{}", report::normalized_ipc_figure(&title, &m, &FIG16_SCHEMES[1..]));
        println!("{}", summary(&m, &FIG16_SCHEMES[1..]));
    }
}
