//! Experiment execution: [`run`] simulates one program under one
//! configuration and verifies its architectural result; everything else
//! here (single workloads, the prepared-workload shims, the
//! workloads × schemes matrix) builds a [`RunSpec`] and calls it.

use crate::pool::parallel_map_isolated;
use crate::scheme::{MachineWidth, Scheme};
use hpa_asm::Program;
use hpa_obs::digest::{debug_digest, format_hex};
use hpa_obs::json::Json;
use hpa_obs::Counters;
use hpa_sim::{
    PhaseTimes, SampleUnits, SampledEstimate, SampledRunner, SimConfig, SimFault, SimStats,
    Simulator,
};
use hpa_workloads::{workload, Scale, Workload, CHECKSUM_REG};
use std::fmt;

/// Errors from [`run`] and the functions built on it.
#[derive(Clone, Debug)]
pub enum RunError {
    /// The workload name is not one of the twelve benchmarks.
    UnknownWorkload {
        /// The offending name.
        name: String,
    },
    /// The timing simulation changed the architectural result — a
    /// simulator bug, reported rather than panicking so sweeps can
    /// surface it.
    ChecksumMismatch {
        /// The workload.
        name: String,
        /// Checksum computed under the timing simulator's emulator.
        actual: u64,
        /// Reference checksum.
        expected: u64,
    },
    /// The simulation itself faulted (emulator error, deadlock, invariant
    /// or commit-hook violation) instead of running to completion.
    Sim {
        /// The workload.
        name: String,
        /// The structured fault.
        fault: SimFault,
    },
    /// A matrix cell's job panicked. The panic was caught at the job
    /// boundary, so the rest of the matrix still ran; the first panicking
    /// cell (row-major) is reported here.
    CellPanic {
        /// The workload of the panicking cell.
        name: String,
        /// The scheme of the panicking cell.
        scheme: Scheme,
        /// The panic payload rendered as text.
        message: String,
    },
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::UnknownWorkload { name } => write!(f, "unknown workload `{name}`"),
            RunError::ChecksumMismatch { name, actual, expected } => {
                write!(f, "{name}: timing run checksum {actual:#x} != reference {expected:#x}")
            }
            RunError::Sim { name, fault } => write!(f, "{name}: {fault}"),
            RunError::CellPanic { name, scheme, message } => {
                write!(f, "{name}/{}: cell panicked: {message}", scheme.key())
            }
        }
    }
}

impl std::error::Error for RunError {}

/// How [`run`] drives the program.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Mode {
    /// Cycle-level detail from the first instruction to `halt`.
    Full,
    /// SMARTS-style sampling (see `hpa_sim::SampledRunner`): functional
    /// fast-forward with branch-table warming between short detailed
    /// windows, whose placement `seed` shifts.
    Sampled {
        /// Warmup / detail / fast-forward lengths of one sampling unit.
        units: SampleUnits,
        /// Sampling seed.
        seed: u64,
    },
}

/// One simulation: which program, on which machine, in which mode, and
/// what to record. Build one with [`RunSpec::workload`] or
/// [`RunSpec::new`] and override fields with struct-update syntax:
///
/// ```
/// use hpa_core::workloads::{workload, Scale};
/// use hpa_core::{run, MachineWidth, RunSpec, Scheme};
///
/// let w = workload("gcc", Scale::Tiny).expect("known workload");
/// let spec = RunSpec::workload(&w, Scheme::Combined, MachineWidth::Four);
/// let r = run(&RunSpec { counters: true, ..spec }).expect("checksum verified");
/// assert!(r.counters.is_some());
/// ```
#[derive(Clone, Debug)]
pub struct RunSpec<'a> {
    /// Name carried into [`RunResult::workload`] and error messages.
    pub name: &'static str,
    /// The program to simulate.
    pub program: &'a Program,
    /// The value the program must leave in [`CHECKSUM_REG`]; `None` runs
    /// it unverified (source programs and binaries have no oracle).
    pub checksum: Option<u64>,
    /// Scheme label for the result (the machine itself is `config`).
    pub scheme: Scheme,
    /// Machine width label for the result.
    pub width: MachineWidth,
    /// The simulated machine.
    pub config: SimConfig,
    /// Full detail or sampled.
    pub mode: Mode,
    /// Record the observability registry into [`RunResult::counters`]
    /// (full mode only).
    pub counters: bool,
    /// Record per-phase wall time into [`RunResult::phase_times`] (full
    /// mode only). The stopwatch reads slow the run.
    pub phase_timing: bool,
    /// Cycles after which a still-active run fails with
    /// [`SimFault::Deadlock`] (full mode only; the sampled runner's own
    /// deadlock detector bounds its windows).
    pub cycle_budget: u64,
}

impl<'a> RunSpec<'a> {
    /// A full-detail, unobserved, unbounded and unverified run of
    /// `program` on `scheme`'s machine at `width`.
    #[must_use]
    pub fn new(
        name: &'static str,
        program: &'a Program,
        scheme: Scheme,
        width: MachineWidth,
    ) -> RunSpec<'a> {
        RunSpec {
            name,
            program,
            checksum: None,
            scheme,
            width,
            config: scheme.configure(width),
            mode: Mode::Full,
            counters: false,
            phase_timing: false,
            cycle_budget: u64::MAX,
        }
    }

    /// [`RunSpec::new`] for a built-in workload, verified against its
    /// reference checksum.
    #[must_use]
    pub fn workload(w: &'a Workload, scheme: Scheme, width: MachineWidth) -> RunSpec<'a> {
        RunSpec {
            checksum: Some(w.expected_checksum),
            ..RunSpec::new(w.name, &w.program, scheme, width)
        }
    }
}

/// The outcome of simulating one workload under one configuration.
#[derive(Clone, PartialEq, Debug)]
pub struct RunResult {
    /// Workload name.
    pub workload: &'static str,
    /// Scheme that was simulated.
    pub scheme: Scheme,
    /// Machine width.
    pub width: MachineWidth,
    /// Full simulator statistics.
    pub stats: SimStats,
    /// Observability registry (CPI stack, penalty histograms); present
    /// only when [`RunSpec::counters`] was set. Never affects `stats` —
    /// the differential suite holds observed and unobserved runs
    /// bit-identical.
    pub counters: Option<Counters>,
    /// Sampled-mode estimate (mean IPC ± confidence interval and the
    /// per-window samples); present only for [`Mode::Sampled`] runs.
    /// When set, `stats` holds the *summed* detailed-window statistics —
    /// cycles and commits across all measured stretches — not a
    /// whole-program simulation.
    pub sampled: Option<SampledEstimate>,
    /// Per-phase wall time; present only when [`RunSpec::phase_timing`]
    /// was set.
    pub phase_times: Option<PhaseTimes>,
}

impl RunResult {
    /// The run record, the one JSON rendering of a simulation outcome
    /// (`hpa sim --json`, serve cell payloads). Fields, in order: the
    /// spec echo (`workload`, `scheme`, `width`, `mode`), the `model`
    /// fingerprint ([`crate::model::FINGERPRINT`]), `stats_digest`,
    /// `ipc` (the sampled mean in sampled mode), `cycles` and `committed`,
    /// then `sampled` (sampled mode),
    /// `counters` (when recorded) and the full `stats`.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let mode =
            self.sampled.as_ref().map_or_else(|| "full".into(), |e| format!("sampled:{}", e.units));
        let mut fields = vec![
            ("workload", Json::from(self.workload)),
            ("scheme", Json::from(self.scheme.key())),
            ("width", Json::from(u64::from(self.width.base_config().width))),
            ("mode", Json::from(mode)),
            ("model", Json::from(format_hex(crate::model::FINGERPRINT))),
            ("stats_digest", Json::from(format_hex(debug_digest(&self.stats)))),
            (
                "ipc",
                Json::from(self.sampled.as_ref().map_or_else(|| self.stats.ipc(), |e| e.mean_ipc)),
            ),
            ("cycles", Json::from(self.stats.cycles)),
            ("committed", Json::from(self.stats.committed)),
        ];
        if let Some(e) = &self.sampled {
            fields.push((
                "sampled",
                Json::obj(vec![
                    ("mean_ipc", Json::from(e.mean_ipc)),
                    ("ci_half_width", Json::from(e.ci_half_width)),
                    ("samples", Json::from(e.samples.len())),
                    ("detailed_insts", Json::from(e.detailed_insts)),
                    ("total_insts", Json::from(e.total_insts)),
                ]),
            ));
        }
        if let Some(c) = &self.counters {
            fields.push(("counters", c.to_json()));
        }
        fields.push(("stats", self.stats.to_json()));
        Json::obj(fields)
    }
}

/// Runs one simulation and verifies its architectural result.
///
/// In sampled mode the checksum is read from the runner's main emulator,
/// which functionally executes the complete program regardless of
/// sampling — sampled timing is approximate, sampled architecture is not.
///
/// # Errors
///
/// [`RunError::Sim`] if the simulation faulted (emulator error, deadlock,
/// exhausted cycle budget) and [`RunError::ChecksumMismatch`] if the
/// program left the wrong value in [`CHECKSUM_REG`].
pub fn run(spec: &RunSpec<'_>) -> Result<RunResult, RunError> {
    let sim_fault = |fault| RunError::Sim { name: spec.name.to_string(), fault };
    let (actual, stats, counters, sampled, phase_times) = match spec.mode {
        Mode::Full => {
            let mut sim = Simulator::new(spec.program, spec.config.clone());
            sim.set_cycle_budget(spec.cycle_budget);
            if spec.counters {
                sim.enable_counters();
            }
            if spec.phase_timing {
                sim.enable_phase_timing();
            }
            sim.try_run().map_err(sim_fault)?;
            (
                sim.emulator().reg(CHECKSUM_REG),
                sim.stats().clone(),
                spec.counters.then(|| sim.counters().clone()),
                None,
                sim.phase_times().copied(),
            )
        }
        Mode::Sampled { units, seed } => {
            let runner = SampledRunner::new(spec.config.clone(), units).with_seed(seed);
            let outcome = runner.run(spec.program).map_err(sim_fault)?;
            let estimate = outcome.estimate;
            let stats = SimStats {
                committed: estimate.samples.iter().map(|s| s.committed).sum(),
                cycles: estimate.samples.iter().map(|s| s.cycles).sum(),
                ..SimStats::default()
            };
            (outcome.emulator.reg(CHECKSUM_REG), stats, None, Some(estimate), None)
        }
    };
    match spec.checksum {
        Some(expected) if actual != expected => {
            Err(RunError::ChecksumMismatch { name: spec.name.to_string(), actual, expected })
        }
        _ => Ok(RunResult {
            workload: spec.name,
            scheme: spec.scheme,
            width: spec.width,
            stats,
            counters,
            sampled,
            phase_times,
        }),
    }
}

/// Builds a named workload.
fn resolve(name: &str, scale: Scale) -> Result<Workload, RunError> {
    workload(name, scale).ok_or_else(|| RunError::UnknownWorkload { name: name.to_string() })
}

/// Simulates one workload under a named scheme, verifying the checksum.
///
/// # Errors
///
/// [`RunError::UnknownWorkload`] for a bad name, otherwise as [`run`].
pub fn run_workload(
    name: &str,
    scale: Scale,
    width: MachineWidth,
    scheme: Scheme,
) -> Result<RunResult, RunError> {
    run(&RunSpec::workload(&resolve(name, scale)?, scheme, width))
}

/// [`run`] of an already-built workload under an explicit configuration.
///
/// # Errors
///
/// As [`run`].
pub fn run_prepared(
    w: &Workload,
    config: SimConfig,
    scheme: Scheme,
    width: MachineWidth,
) -> Result<RunResult, RunError> {
    run(&RunSpec { config, ..RunSpec::workload(w, scheme, width) })
}

/// [`run_prepared`] with the observability registry enabled when
/// `observe` is set.
///
/// # Errors
///
/// As [`run`].
pub fn run_prepared_observed(
    w: &Workload,
    config: SimConfig,
    scheme: Scheme,
    width: MachineWidth,
    observe: bool,
) -> Result<RunResult, RunError> {
    run(&RunSpec { config, counters: observe, ..RunSpec::workload(w, scheme, width) })
}

/// [`run_prepared_observed`] with per-phase wall-time accounting: returns
/// the result plus its [`RunResult::phase_times`].
///
/// # Errors
///
/// As [`run`].
pub fn run_prepared_phase_timed(
    w: &Workload,
    config: SimConfig,
    scheme: Scheme,
    width: MachineWidth,
    observe: bool,
) -> Result<(RunResult, PhaseTimes), RunError> {
    run(&RunSpec {
        config,
        counters: observe,
        phase_timing: true,
        ..RunSpec::workload(w, scheme, width)
    })
    .map(|r| {
        let times = r.phase_times.expect("phase timing was enabled");
        (r, times)
    })
}

/// Results of a benchmarks × schemes sweep at one machine width.
#[derive(Clone, PartialEq, Debug)]
pub struct MatrixResult {
    /// The machine width the matrix was collected at.
    pub width: MachineWidth,
    /// One row per workload, in the order of [`run_matrix`]'s
    /// `workload_names`, each holding one result per requested scheme
    /// (same order as its `schemes`).
    pub rows: Vec<Vec<RunResult>>,
}

impl MatrixResult {
    /// The result for `(workload, scheme)`, if present.
    #[must_use]
    pub fn get(&self, workload: &str, scheme: Scheme) -> Option<&RunResult> {
        self.rows.iter().flatten().find(|r| r.workload == workload && r.scheme == scheme)
    }

    /// One scheme's column as `(workload, stats)` pairs in row order, the
    /// form of [`crate::report::BaseRuns`]; rows without the scheme are
    /// skipped.
    #[must_use]
    pub fn column(&self, scheme: Scheme) -> Vec<(&'static str, &SimStats)> {
        self.rows
            .iter()
            .filter_map(|row| row.iter().find(|r| r.scheme == scheme))
            .map(|r| (r.workload, &r.stats))
            .collect()
    }

    /// Normalized IPC (scheme / base) for one workload; requires both runs
    /// to be present.
    #[must_use]
    pub fn normalized_ipc(&self, workload: &str, scheme: Scheme) -> Option<f64> {
        let base = self.get(workload, Scheme::Base)?.stats.ipc();
        let s = self.get(workload, scheme)?.stats.ipc();
        (base > 0.0).then(|| s / base)
    }

    /// Each row's `(workload, 1 - scheme IPC / base IPC)`, for the rows
    /// holding both cells.
    fn degradations(&self, scheme: Scheme) -> impl Iterator<Item = (&'static str, f64)> + '_ {
        self.rows.iter().filter_map(move |row| {
            let cell = |s| row.iter().find(|r| r.scheme == s);
            let (s, base) = (cell(scheme)?, cell(Scheme::Base)?);
            Some((s.workload, 1.0 - s.stats.ipc() / base.stats.ipc()))
        })
    }

    /// Average IPC degradation of a scheme across the workloads that ran
    /// both it and base, as a fraction (e.g. `0.022` for the paper's
    /// headline 2.2%); `0.0` when there are none.
    #[must_use]
    pub fn average_degradation(&self, scheme: Scheme) -> f64 {
        let (n, sum) =
            self.degradations(scheme).fold((0u32, 0.0), |(n, sum), (_, d)| (n + 1, sum + d));
        if n == 0 {
            0.0
        } else {
            sum / f64::from(n)
        }
    }

    /// The worst (largest) degradation of a scheme among the workloads
    /// that ran both it and base, with the workload name.
    #[must_use]
    pub fn worst_degradation(&self, scheme: Scheme) -> Option<(&'static str, f64)> {
        self.degradations(scheme).fold(None, |worst, (w, d)| {
            if worst.is_none_or(|(_, max)| d > max) {
                Some((w, d))
            } else {
                worst
            }
        })
    }
}

/// Runs `workload_names` × `schemes` at one width, with the
/// observability registry on in every cell when `observe` is set, and the
/// independent `(workload, scheme)` cells fanned out across `jobs` worker
/// threads.
///
/// The result does not depend on `jobs`: each cell is a self-contained
/// single-threaded simulation, rows and columns keep the input order, and
/// on failure the error of the *first* failing cell (in row-major order)
/// is returned, regardless of completion order. Each cell runs
/// panic-isolated, so a panicking cell becomes [`RunError::CellPanic`]
/// while its siblings still run. The `progress` callback fires from
/// worker threads as cells complete, so its call order is
/// nondeterministic unless `jobs = 1`.
///
/// # Errors
///
/// [`RunError::UnknownWorkload`] for a bad name (checked up front, in
/// order) and the row-major-first [`RunError`] of any failed cell.
pub fn run_matrix(
    workload_names: &[&str],
    scale: Scale,
    width: MachineWidth,
    schemes: &[Scheme],
    jobs: usize,
    observe: bool,
    progress: impl Fn(&RunResult) + Sync,
) -> Result<MatrixResult, RunError> {
    let workloads =
        workload_names.iter().map(|name| resolve(name, scale)).collect::<Result<Vec<_>, _>>()?;
    let cells: Vec<(usize, usize)> =
        (0..workloads.len()).flat_map(|wi| (0..schemes.len()).map(move |si| (wi, si))).collect();
    let results = parallel_map_isolated(&cells, jobs, |_, &(wi, si)| {
        let r = run(&RunSpec {
            counters: observe,
            ..RunSpec::workload(&workloads[wi], schemes[si], width)
        });
        if let Ok(ref ok) = r {
            progress(ok);
        }
        r
    });
    let mut rows = Vec::with_capacity(workloads.len());
    let mut it = results.into_iter().zip(&cells);
    for _ in 0..workloads.len() {
        let row = it
            .by_ref()
            .take(schemes.len())
            .map(|(r, &(wi, si))| match r {
                Ok(cell) => cell,
                Err(e) => Err(RunError::CellPanic {
                    name: workloads[wi].name.to_string(),
                    scheme: schemes[si],
                    message: e.message,
                }),
            })
            .collect::<Result<Vec<_>, _>>()?;
        rows.push(row);
    }
    Ok(MatrixResult { width, rows })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The test workload, built once per call.
    fn gcc() -> Workload {
        workload("gcc", Scale::Tiny).expect("known workload")
    }

    #[test]
    fn unknown_workload_is_an_error() {
        let e = run_workload("nonesuch", Scale::Tiny, MachineWidth::Four, Scheme::Base);
        assert!(matches!(e, Err(RunError::UnknownWorkload { .. })));
        assert!(e.unwrap_err().to_string().contains("nonesuch"));
    }

    #[test]
    fn sampled_run_estimates_ipc_and_verifies_checksum() {
        let w = gcc();
        let units = SampleUnits::parse("500:1000:4000").expect("valid units");
        let spec = RunSpec {
            mode: Mode::Sampled { units, seed: 42 },
            ..RunSpec::workload(&w, Scheme::Base, MachineWidth::Four)
        };
        let sampled = run(&spec).expect("sampled run succeeds (checksum verified inside)");
        let estimate = sampled.sampled.as_ref().expect("sampled estimate present");
        assert!(estimate.mean_ipc > 0.0);
        assert!(!estimate.samples.is_empty());
        assert_eq!(
            sampled.stats.committed,
            estimate.samples.iter().map(|s| s.committed).sum::<u64>()
        );
        // Close to the full detailed run even at tiny scale.
        let full = run_workload("gcc", Scale::Tiny, MachineWidth::Four, Scheme::Base).unwrap();
        let err = estimate.rel_error(full.stats.ipc());
        assert!(err < 0.15, "sampled IPC off by {:.1}% from full", err * 100.0);
        // Deterministic: same (workload, units, seed) -> identical result.
        assert_eq!(sampled, run(&spec).unwrap());
    }

    /// A program without an oracle runs unverified: whatever it leaves in
    /// the checksum register is its result.
    #[test]
    fn source_program_without_a_checksum_runs_unverified() {
        let program = hpa_asm::parse_program(
            "li r1, #5\nloop:\n  add r2, #1, r2\n  sub r1, #1, r1\n  bgt r1, loop\n  halt\n",
        )
        .expect("valid source");
        let r = run(&RunSpec::new("source", &program, Scheme::Combined, MachineWidth::Four))
            .expect("unverified run succeeds");
        assert_eq!(r.workload, "source");
        assert!(r.stats.committed > 0 && r.stats.cycles > 0);
        assert!(r.counters.is_none() && r.sampled.is_none() && r.phase_times.is_none());
    }

    #[test]
    fn wrong_expected_checksum_is_a_mismatch() {
        let w = gcc();
        let spec = RunSpec {
            checksum: Some(w.expected_checksum ^ 1),
            ..RunSpec::workload(&w, Scheme::Base, MachineWidth::Four)
        };
        match run(&spec) {
            Err(RunError::ChecksumMismatch { name, actual, expected }) => {
                assert_eq!(name, "gcc");
                assert_eq!(actual, w.expected_checksum);
                assert_eq!(expected, w.expected_checksum ^ 1);
            }
            other => panic!("expected ChecksumMismatch, got {other:?}"),
        }
    }

    #[test]
    fn exhausted_cycle_budget_is_a_sim_fault() {
        let w = gcc();
        let spec =
            RunSpec { cycle_budget: 10, ..RunSpec::workload(&w, Scheme::Base, MachineWidth::Four) };
        match run(&spec) {
            Err(RunError::Sim { name, fault: SimFault::Deadlock { cycle, .. } }) => {
                assert_eq!(name, "gcc");
                assert_eq!(cycle, 10);
            }
            other => panic!("expected a Sim deadlock fault, got {other:?}"),
        }
    }

    /// Phase timing reads stopwatches only: the timed run's statistics
    /// equal the untimed run's.
    #[test]
    fn phase_timing_records_times_without_perturbing_stats() {
        let w = gcc();
        let config = Scheme::Combined.configure(MachineWidth::Four);
        let (timed, times) =
            run_prepared_phase_timed(&w, config, Scheme::Combined, MachineWidth::Four, false)
                .expect("runs");
        assert_eq!(timed.phase_times, Some(times));
        let plain = run_workload("gcc", Scale::Tiny, MachineWidth::Four, Scheme::Combined).unwrap();
        assert_eq!(timed.stats, plain.stats);
    }

    #[test]
    fn matrix_collects_and_normalizes() {
        let m = run_matrix(
            &["gcc"],
            Scale::Tiny,
            MachineWidth::Four,
            &[Scheme::Base, Scheme::Combined],
            1,
            false,
            |_| {},
        )
        .expect("runs");
        let norm = m.normalized_ipc("gcc", Scheme::Combined).expect("both runs present");
        assert!(norm > 0.85 && norm <= 1.01, "normalized IPC = {norm}");
        let avg = m.average_degradation(Scheme::Combined);
        let (wname, worst) = m.worst_degradation(Scheme::Combined).expect("present");
        assert_eq!(wname, "gcc");
        assert!((avg - worst).abs() < 1e-12, "single workload: avg == worst");
    }

    /// The determinism guarantee: a parallel matrix is bit-identical to
    /// the serial (`jobs = 1`) one — every `SimStats` counter, every
    /// row/column position — at both machine widths.
    #[test]
    fn parallel_matrix_is_bit_identical_to_serial() {
        let names = ["gcc", "mcf"];
        let schemes = [Scheme::Base, Scheme::Combined];
        for width in MachineWidth::ALL {
            let serial = run_matrix(&names, Scale::Tiny, width, &schemes, 1, false, |_| {})
                .expect("serial runs");
            let par = run_matrix(&names, Scale::Tiny, width, &schemes, 3, false, |_| {})
                .expect("parallel runs");
            assert_eq!(serial, par, "width={width:?}");
        }
    }

    /// Observation must be free: an observed matrix carries a balanced
    /// CPI stack per cell and exactly the same `SimStats` as an
    /// unobserved run.
    #[test]
    fn observed_matrix_balances_books_without_perturbing_stats() {
        let names = ["gcc"];
        let schemes = [Scheme::Base, Scheme::Combined];
        let plain = run_matrix(&names, Scale::Tiny, MachineWidth::Four, &schemes, 1, false, |_| {})
            .expect("runs");
        let observed =
            run_matrix(&names, Scale::Tiny, MachineWidth::Four, &schemes, 2, true, |_| {})
                .expect("runs");
        let width = u64::from(MachineWidth::Four.base_config().width);
        for (prow, orow) in plain.rows.iter().zip(&observed.rows) {
            for (p, o) in prow.iter().zip(orow) {
                assert_eq!(p.stats, o.stats, "observation perturbed timing");
                assert!(p.counters.is_none());
                let c = o.counters.as_ref().expect("observed cell has counters");
                assert_eq!(c.cpi.total(), o.stats.cycles * width, "books balance");
                if o.scheme == Scheme::Base {
                    assert_eq!(c.cpi.penalty_slots(), 0, "no penalties on the base machine");
                }
            }
        }
    }

    /// A column follows the rows' workload order and skips rows that lack
    /// the scheme.
    #[test]
    fn column_follows_row_order_and_skips_missing_cells() {
        let cell = |workload, scheme, cycles| RunResult {
            workload,
            scheme,
            width: MachineWidth::Four,
            stats: SimStats { cycles, ..SimStats::default() },
            counters: None,
            sampled: None,
            phase_times: None,
        };
        let m = MatrixResult {
            width: MachineWidth::Four,
            rows: vec![
                vec![cell("mcf", Scheme::Base, 1), cell("mcf", Scheme::Combined, 2)],
                vec![cell("gcc", Scheme::Combined, 3)],
                vec![cell("gap", Scheme::Base, 4)],
            ],
        };
        let cycles =
            |scheme| m.column(scheme).into_iter().map(|(n, s)| (n, s.cycles)).collect::<Vec<_>>();
        assert_eq!(cycles(Scheme::Base), [("mcf", 1), ("gap", 4)]);
        assert_eq!(cycles(Scheme::Combined), [("mcf", 2), ("gcc", 3)]);
        assert!(m.column(Scheme::SeqRegAccess).is_empty());
    }

    /// Error propagation is deterministic: the first failing cell in
    /// row-major order wins, regardless of completion order.
    #[test]
    fn parallel_matrix_propagates_unknown_workload() {
        let e = run_matrix(
            &["gcc", "nonesuch"],
            Scale::Tiny,
            MachineWidth::Four,
            &[Scheme::Base],
            4,
            false,
            |_| {},
        );
        assert!(matches!(e, Err(RunError::UnknownWorkload { .. })));
    }

    /// A panicking cell surfaces as a structured `CellPanic` naming the
    /// cell, while the sibling cells still run to completion.
    #[test]
    fn parallel_matrix_isolates_a_panicking_cell() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let completed = AtomicUsize::new(0);
        let e = run_matrix(
            &["gcc", "gzip"],
            Scale::Tiny,
            MachineWidth::Four,
            &[Scheme::Base, Scheme::Combined],
            2,
            false,
            |r| {
                assert!(
                    !(r.workload == "gzip" && r.scheme == Scheme::Combined),
                    "planted cell failure"
                );
                completed.fetch_add(1, Ordering::Relaxed);
            },
        );
        match e {
            Err(RunError::CellPanic { name, scheme, message }) => {
                assert_eq!(name, "gzip");
                assert_eq!(scheme, Scheme::Combined);
                assert!(message.contains("planted cell failure"), "message: {message}");
            }
            other => panic!("expected CellPanic, got {other:?}"),
        }
        assert_eq!(completed.load(Ordering::Relaxed), 3, "sibling cells all completed");
    }

    /// The progress callback fires exactly once per cell.
    #[test]
    fn parallel_progress_fires_per_cell() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let count = AtomicUsize::new(0);
        let m = run_matrix(
            &["gcc", "gzip"],
            Scale::Tiny,
            MachineWidth::Four,
            &[Scheme::Base, Scheme::SeqRegAccess],
            2,
            false,
            |_| {
                count.fetch_add(1, Ordering::Relaxed);
            },
        )
        .expect("runs");
        assert_eq!(count.load(Ordering::Relaxed), 4);
        assert_eq!(m.rows.len(), 2);
        assert!(m.rows.iter().all(|r| r.len() == 2));
    }
}
