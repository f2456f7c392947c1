//! `extension_tables` runs each distinct (benchmark, machine) cell once,
//! in parallel. This test holds its tables to the ones the serial loops
//! below build: one run per table cell, as each experiment lists its
//! machines, the base machine included every time.

use hpa_bench::{extension_tables, HarnessArgs};
use hpa_core::report::Table;
use hpa_core::sim::{BypassScheme, RecoveryKind, RenameScheme, SimConfig, SimStats, WakeupScheme};
use hpa_core::workloads::{workload, Scale};
use hpa_core::{run, MachineWidth, RunSpec, Scheme};

fn tiny_gcc_4wide() -> HarnessArgs {
    HarnessArgs {
        scale: Scale::Tiny,
        widths: vec![MachineWidth::Four],
        benches: vec!["gcc"],
        jobs: 2,
        out: String::new(),
    }
}

fn recovery(args: &HarnessArgs) -> Vec<Table> {
    let mut tables = Vec::new();
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
                    .expect("runs")
                    .stats;
                row.push(format!("{:.3}", stats.ipc()));
                replays.push(stats.replayed_insts.to_string());
            }
            row.extend(replays);
            t.push_row(row);
        }
        tables.push(t);
    }
    tables
}

fn predictor(args: &HarnessArgs) -> Vec<Table> {
    const SIZES: [usize; 5] = [64, 256, 1024, 4096, 16384];
    let mut tables = Vec::new();
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
                    .expect("runs")
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
        }
        tables.push(t);
    }
    tables
}

fn future_work(args: &HarnessArgs) -> Vec<Table> {
    let mut tables = Vec::new();
    for &width in &args.widths {
        let mut t = Table::new(
            format!("Future-work extensions: half-price rename & bypass [{}]", width.label()),
            &[
                "bench",
                "base IPC",
                "half rename",
                "half bypass",
                "all half-price",
                "rename stalls",
                "bypass defers",
            ],
        );
        for name in &args.benches {
            let w = workload(name, args.scale).expect("known name");
            let stats_with = |config: SimConfig| -> SimStats {
                run(&RunSpec { config, ..RunSpec::workload(&w, Scheme::Base, width) })
                    .expect("runs")
                    .stats
            };
            let base = stats_with(width.base_config());
            let rename = stats_with(width.base_config().with_rename(RenameScheme::HalfPorts));
            let bypass = stats_with(width.base_config().with_bypass(BypassScheme::HalfPaths));
            let all = stats_with(
                Scheme::Combined
                    .configure(width)
                    .with_rename(RenameScheme::HalfPorts)
                    .with_bypass(BypassScheme::HalfPaths),
            );
            t.push_row(vec![
                (*name).to_string(),
                format!("{:.3}", base.ipc()),
                format!("{:.3}", rename.ipc() / base.ipc()),
                format!("{:.3}", bypass.ipc() / base.ipc()),
                format!("{:.3}", all.ipc() / base.ipc()),
                rename.rename_port_stalls.to_string(),
                bypass.bypass_deferrals.to_string(),
            ]);
        }
        tables.push(t);
    }
    tables
}

#[test]
fn extension_tables_render_like_the_serial_loops() {
    let args = tiny_gcc_4wide();
    let render = |tables: Vec<Table>| tables.iter().map(ToString::to_string).collect::<Vec<_>>();
    let mut serial = recovery(&args);
    serial.extend(predictor(&args));
    serial.extend(future_work(&args));
    let serial = render(serial);
    assert_eq!(render(extension_tables(&args)), serial);
    assert_eq!(serial.len(), 3, "one table per experiment at one width");
}
