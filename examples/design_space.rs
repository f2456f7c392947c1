//! Design-space exploration: where does the half-price trade pay off?
//!
//! The paper argues the techniques trade a few percent of IPC for a faster
//! clock on the wakeup and register-file paths. This example combines the
//! measured IPC cost with the analytic circuit models to estimate the
//! *net* performance (IPC × frequency) of the half-price machine across
//! scheduler window sizes, assuming the wakeup loop sets the cycle time.
//!
//! ```text
//! cargo run --release --example design_space [bench]
//! ```

use half_price::circuits::WakeupDelayModel;
use half_price::sim::{SimConfig, WakeupScheme};
use half_price::workloads::{workload, Scale};
use half_price::{default_jobs, run_all, MachineWidth, RunSpec, Scheme};

const WINDOWS: [usize; 3] = [32, 64, 128];

fn main() {
    let bench = std::env::args().nth(1).unwrap_or_else(|| "parser".to_string());
    let w = workload(&bench, Scale::Default).expect("known benchmark");
    let model = WakeupDelayModel::calibrated_018um();

    // Per window: the base machine, then sequential wakeup with a
    // 1k-entry last-arrival predictor; all six cells as one job list.
    let specs: Vec<RunSpec<'_>> = WINDOWS
        .iter()
        .flat_map(|&window| {
            let mut base = SimConfig::four_wide();
            base.ruu_size = window;
            base.lsq_size = window / 2;
            let seq = base
                .clone()
                .with_wakeup(WakeupScheme::SequentialWakeup { predictor_entries: Some(1024) });
            [(Scheme::Base, base), (Scheme::SeqWakeupPredictor, seq)].map(|(scheme, config)| {
                RunSpec { config, ..RunSpec::workload(&w, scheme, MachineWidth::Four) }
            })
        })
        .collect();
    let ipcs: Vec<f64> = run_all(&specs, default_jobs(), |_| {})
        .into_iter()
        .map(|r| r.expect("checksum verified").stats.ipc())
        .collect();

    println!("`{bench}`: net performance if the wakeup loop sets the clock\n");
    println!(
        "{:>7} {:>10} {:>10} {:>11} {:>11} {:>9}",
        "window", "IPC base", "IPC seq", "clk base", "clk seq", "net gain"
    );
    for (window, pair) in WINDOWS.into_iter().zip(ipcs.chunks(2)) {
        let (ipc_base, ipc_seq) = (pair[0], pair[1]);
        // Frequency in GHz implied by the wakeup delay (1e3/ps).
        let f_base = 1000.0 / model.conventional(window as u32, 4);
        let f_seq = 1000.0 / model.sequential_wakeup(window as u32, 4);
        let net = (ipc_seq * f_seq) / (ipc_base * f_base) - 1.0;
        println!(
            "{:>7} {:>10.3} {:>10.3} {:>8.2}GHz {:>8.2}GHz {:>+8.1}%",
            window,
            ipc_base,
            ipc_seq,
            f_base,
            f_seq,
            net * 100.0
        );
    }
    println!(
        "\nThe IPC cost of sequential wakeup stays flat while the circuit\n\
         benefit grows with window size — the paper's core trade."
    );
}
