//! Ablation: how the last-arriving predictor's table size translates into
//! sequential-wakeup IPC — extending Figure 7 (accuracy vs size) to the
//! bottom line, and quantifying the paper's claim that performance is
//! "relatively insensitive to the predictor accuracy".
use hpa_bench::HarnessArgs;
use hpa_core::report::Table;
use hpa_core::sim::WakeupScheme;
use hpa_core::workloads::workload;
use hpa_core::{run, RunSpec, Scheme};

const SIZES: [usize; 5] = [64, 256, 1024, 4096, 16384];

fn main() {
    let args = HarnessArgs::parse();
    for &width in &args.widths {
        let mut headers = vec!["bench".to_string(), "base IPC".to_string(), "static".to_string()];
        headers.extend(SIZES.iter().map(|s| format!("{s}-entry")));
        let mut t = Table {
            title: format!(
                "Sequential wakeup IPC vs last-arrival predictor size [{}]",
                width.label()
            ),
            headers,
            rows: Vec::new(),
        };
        for name in &args.benches {
            let w = workload(name, args.scale).expect("known name");
            let ipc_with = |wakeup: WakeupScheme| {
                let config = width.base_config().with_wakeup(wakeup);
                run(&RunSpec { config, ..RunSpec::workload(&w, Scheme::Base, width) })
                    .unwrap_or_else(|e| panic!("{e}"))
                    .stats
                    .ipc()
            };
            let base = ipc_with(WakeupScheme::Conventional);
            let mut row = vec![(*name).to_string(), format!("{base:.3}")];
            let stat = ipc_with(WakeupScheme::SequentialWakeup { predictor_entries: None });
            row.push(format!("{:.3}", stat / base));
            for &entries in &SIZES {
                let ipc =
                    ipc_with(WakeupScheme::SequentialWakeup { predictor_entries: Some(entries) });
                row.push(format!("{:.3}", ipc / base));
            }
            t.push_row(row);
            eprintln!("  {name} done");
        }
        println!("{t}");
    }
}
