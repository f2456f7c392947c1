//! Ablation: selective (Figure 5 dependence-matrix) vs non-selective
//! recovery on the base machine, quantifying how much replay scope costs —
//! the design-space point the paper's Section 3.1 discussion turns on.
use hpa_bench::HarnessArgs;
use hpa_core::report::Table;
use hpa_core::sim::RecoveryKind;
use hpa_core::workloads::workload;
use hpa_core::{run, RunSpec, Scheme};

fn main() {
    let args = HarnessArgs::parse();
    for &width in &args.widths {
        let mut t = Table::new(
            format!("Recovery ablation [{}]", width.label()),
            &["bench", "IPC non-sel", "IPC selective", "replays non-sel", "replays selective"],
        );
        for name in &args.benches {
            let w = workload(name, args.scale).expect("known name");
            let mut row = vec![(*name).to_string()];
            let mut replays = Vec::new();
            for kind in [RecoveryKind::NonSelective, RecoveryKind::Selective] {
                let config = width.base_config().with_recovery(kind);
                let stats = run(&RunSpec { config, ..RunSpec::workload(&w, Scheme::Base, width) })
                    .unwrap_or_else(|e| panic!("{e}"))
                    .stats;
                row.push(format!("{:.3}", stats.ipc()));
                replays.push(stats.replayed_insts.to_string());
            }
            row.extend(replays);
            t.push_row(row);
            eprintln!("  {name} done");
        }
        println!("{t}");
    }
}
