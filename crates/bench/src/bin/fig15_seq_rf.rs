//! Regenerates Figure 15: IPC of sequential register access, an extra RF
//! stage, and a half-ported crossbar register file, normalized to base.
use hpa_bench::{HarnessArgs, FIG15_SCHEMES};
use hpa_core::{report, run_matrix};

fn main() {
    let args = HarnessArgs::parse();
    for &width in &args.widths {
        let m =
            run_matrix(&args.benches, args.scale, width, &FIG15_SCHEMES, args.jobs, false, |r| {
                eprintln!("  {} / {} : ipc {:.3}", r.workload, r.scheme.label(), r.stats.ipc());
            })
            .unwrap_or_else(|e| panic!("{e}"));
        let title = format!("Figure 15: register file schemes [{}]", width.label());
        println!("{}", report::normalized_ipc_figure(&title, &m, &FIG15_SCHEMES[1..]));
    }
}
