//! The experiments beyond the paper's evaluation, printed by `hpa
//! extensions`: selective vs non-selective replay, sequential wakeup's
//! IPC against the last-arrival predictor's size, and the paper's §6
//! half-price rename and bypass.
//!
//! Each experiment names the machines it compares per benchmark; several
//! of them share a machine (all three run the base machine), so
//! [`extension_tables`] simulates each distinct [`cell_key`] once, as one
//! [`run_all`] list over `--jobs`.

use crate::HarnessArgs;
use hpa_core::report::Table;
use hpa_core::sim::{BypassScheme, RecoveryKind, RenameScheme, SimConfig, SimStats, WakeupScheme};
use hpa_core::workloads::{workload, Workload};
use hpa_core::{cell_key, run_all, MachineWidth, RunSpec, Scheme};
use std::collections::HashMap;

/// Last-arrival predictor sizes of the predictor ablation.
const SIZES: [usize; 5] = [64, 256, 1024, 4096, 16384];

/// One experiment: per benchmark it simulates `machines`, and `row` turns
/// their statistics, in the same order, into the cells after the
/// benchmark's name.
struct Extension {
    /// Table title, before the width label.
    title: &'static str,
    headers: fn() -> Vec<String>,
    machines: fn(MachineWidth) -> Vec<SimConfig>,
    row: fn(&[&SimStats]) -> Vec<String>,
}

const EXTENSIONS: [Extension; 3] = [
    // Selective (Figure 5 dependence-matrix) vs non-selective recovery on
    // the base machine: how much replay scope costs, the design-space
    // point the paper's §3.1 discussion turns on.
    Extension {
        title: "Recovery ablation",
        headers: || {
            ["bench", "IPC non-sel", "IPC selective", "replays non-sel", "replays selective"]
                .map(String::from)
                .to_vec()
        },
        machines: |width| {
            [RecoveryKind::NonSelective, RecoveryKind::Selective]
                .map(|kind| width.base_config().with_recovery(kind))
                .to_vec()
        },
        row: |s| {
            vec![
                format!("{:.3}", s[0].ipc()),
                format!("{:.3}", s[1].ipc()),
                s[0].replayed_insts.to_string(),
                s[1].replayed_insts.to_string(),
            ]
        },
    },
    // Figure 7 (accuracy vs size) carried to the bottom line: how much
    // sequential wakeup's IPC depends on the predictor, the paper's claim
    // that performance is "relatively insensitive to the predictor
    // accuracy".
    Extension {
        title: "Sequential wakeup IPC vs last-arrival predictor size",
        headers: || {
            let mut h = vec!["bench".to_string(), "base IPC".to_string(), "static".to_string()];
            h.extend(SIZES.iter().map(|s| format!("{s}-entry")));
            h
        },
        machines: |width| {
            let mut wakeups = vec![
                WakeupScheme::Conventional,
                WakeupScheme::SequentialWakeup { predictor_entries: None },
            ];
            wakeups.extend(
                SIZES.map(|n| WakeupScheme::SequentialWakeup { predictor_entries: Some(n) }),
            );
            wakeups.into_iter().map(|w| width.base_config().with_wakeup(w)).collect()
        },
        row: |s| {
            let base = s[0].ipc();
            let mut row = vec![format!("{base:.3}")];
            row.extend(s[1..].iter().map(|st| format!("{:.3}", st.ipc() / base)));
            row
        },
    },
    // The paper's §6 future work: half-price register renaming and
    // half-price bypass, the two directions it names for its
    // "operand-centric" end goal, with the same methodology as Figures
    // 14–16.
    Extension {
        title: "Future-work extensions: half-price rename & bypass",
        headers: || {
            [
                "bench",
                "base IPC",
                "half rename",
                "half bypass",
                "all half-price",
                "rename stalls",
                "bypass defers",
            ]
            .map(String::from)
            .to_vec()
        },
        machines: |width| {
            vec![
                width.base_config(),
                width.base_config().with_rename(RenameScheme::HalfPorts),
                width.base_config().with_bypass(BypassScheme::HalfPaths),
                // The full "operand-centric" machine: every 2-operand
                // structure halved at once (scheduling + RF + rename +
                // bypass).
                Scheme::Combined
                    .configure(width)
                    .with_rename(RenameScheme::HalfPorts)
                    .with_bypass(BypassScheme::HalfPaths),
            ]
        },
        row: |s| {
            let [base, rename, bypass, all] = [s[0], s[1], s[2], s[3]];
            vec![
                format!("{:.3}", base.ipc()),
                format!("{:.3}", rename.ipc() / base.ipc()),
                format!("{:.3}", bypass.ipc() / base.ipc()),
                format!("{:.3}", all.ipc() / base.ipc()),
                rename.rename_port_stalls.to_string(),
                bypass.bypass_deferrals.to_string(),
            ]
        },
    },
];

/// The extension tables for the selected benchmarks, scale and widths:
/// per experiment, one table per width, in the order the experiments are
/// listed in the module docs.
///
/// # Panics
///
/// Panics if a cell fails to simulate or misses its checksum.
#[must_use]
pub fn extension_tables(args: &HarnessArgs) -> Vec<Table> {
    let workloads: Vec<_> =
        args.benches.iter().map(|name| workload(name, args.scale).expect("known name")).collect();
    let key =
        |w: &Workload, config: &SimConfig| cell_key(&w.program, config, Scheme::Base, 0, None);
    let (mut keys, mut specs) = (Vec::new(), Vec::new());
    for &width in &args.widths {
        for config in EXTENSIONS.iter().flat_map(|e| (e.machines)(width)) {
            for w in &workloads {
                let k = key(w, &config);
                if !keys.contains(&k) {
                    keys.push(k);
                    specs.push(RunSpec {
                        config: config.clone(),
                        ..RunSpec::workload(w, Scheme::Base, width)
                    });
                }
            }
        }
    }
    let results = run_all(&specs, args.jobs, |r| {
        eprintln!("  {} [{}]: ipc {:.3}", r.workload, r.width.label(), r.stats.ipc());
    });
    let stats: HashMap<u64, SimStats> = keys
        .into_iter()
        .zip(results)
        .map(|(k, r)| (k, r.unwrap_or_else(|e| panic!("{e}")).stats))
        .collect();

    let mut tables = Vec::new();
    for e in &EXTENSIONS {
        for &width in &args.widths {
            let mut t = Table {
                title: format!("{} [{}]", e.title, width.label()),
                headers: (e.headers)(),
                rows: Vec::new(),
            };
            let machines = (e.machines)(width);
            for w in &workloads {
                let cell: Vec<&SimStats> = machines.iter().map(|c| &stats[&key(w, c)]).collect();
                let mut row = vec![w.name.to_string()];
                row.extend((e.row)(&cell));
                t.push_row(row);
            }
            tables.push(t);
        }
    }
    tables
}
