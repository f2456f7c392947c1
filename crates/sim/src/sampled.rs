//! SMARTS-style sampled simulation: fast-forward functionally, simulate
//! short detailed windows, estimate IPC with a confidence interval.
//!
//! Full detailed simulation of long workloads is the throughput wall the
//! cycle loop cannot micro-optimize away. Systematic sampling sidesteps
//! it: the program is divided into repeating `(warmup, detail, ff)` units;
//! the `ff` stretch runs in the functional emulator (tens of times faster
//! per instruction) while *functionally warming* the branch predictor
//! tables, the `warmup` stretch runs detailed but is excluded from
//! measurement (it fills the window, caches and PcTables), and only the
//! `detail` stretch is measured. Each measured window contributes one
//! sample; samples aggregate in the *CPI* domain (every window measures
//! the same instruction count, so the mean per-window CPI is the unbiased
//! estimator of overall CPI, as in SMARTS), and a hand-rolled Student-t
//! 95% confidence interval summarizes the population. An arithmetic mean
//! of per-window IPCs would overweight high-IPC program phases — on
//! workloads with distinct phases that bias reaches tens of percent.
//!
//! Every instruction is still functionally executed exactly once by the
//! runner's main emulator, so workload checksums remain verifiable on the
//! [`SampledOutcome`]. Fast-forward is one [`Emulator::run_with`] call per
//! stretch whose observer trains the [`BranchWarmth`] tables: the
//! emulator's own run loop, with the instruction body inlined, so warmed
//! fast-forward costs about 1.14x a plain [`Emulator::run`] instead of an
//! out-of-line `step` call per instruction (1.44x). Warming more state
//! functionally is one more call in that observer.
//!
//! Windows are pipelined with fast-forward, as in FSA (Sandberg et al.,
//! "Full Speed Ahead", IISWC 2015): a window depends only on its
//! snapshot and a clone of the warmed branch tables, so it runs on a
//! worker thread while the main emulator catches up over the window's
//! stretch and fast-forwards to the next sampling point. One window is
//! in flight at a time: window *k* is joined right after snapshot *k+1*
//! is taken, so samples arrive in program order and the estimate is
//! bit-identical to running each window in turn. A fault keeps its serial
//! precedence: the window in flight is earlier in program order than the
//! main emulator, so its fault is reported ahead of one the main
//! emulator hits while the window runs. Every window pays for a thread
//! spawn and join, so the overlap wins only when the fast-forward beside
//! a window outlasts them: units with a period of tens of thousands of
//! instructions run faster than windows run in turn, units with a period
//! below about a thousand run slower.
//!
//! A window costs what it simulates, not the size of the memory image:
//! the window's emulator is built from a snapshot that shares the main
//! emulator's pages copy-on-write, so it copies only the pages it stores
//! to. While a window is in flight the main emulator shares its pages
//! with it too, so the main emulator's first write to each shared page
//! copies that page; keeping one window in flight bounds this to the
//! pages written in one sampling period.

use crate::config::SimConfig;
use crate::frontend::BranchWarmth;
use crate::pipeline::{SimFault, Simulator};
use hpa_asm::Program;
use hpa_emu::{Emulator, RunOutcome};
use hpa_obs::SplitMix64;
use std::fmt;
use std::panic;
use std::thread::{self, ScopedJoinHandle};

/// Two-sided 95% Student-t critical values for `df = 1..=30`; larger
/// sample counts fall back to the normal value 1.960.
const T_95: [f64; 30] = [
    12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228, 2.201, 2.179, 2.160,
    2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056,
    2.052, 2.048, 2.045, 2.042,
];

/// The three stretch lengths of one systematic sampling unit, in
/// instructions: functional fast-forward, detailed-but-unmeasured warmup,
/// and the measured detail window.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SampleUnits {
    /// Detailed instructions at the head of each window that fill the
    /// microarchitectural state but are excluded from measurement. May be
    /// zero (measure from the cold window).
    pub warmup: u64,
    /// Measured detailed instructions per window. Must be at least 1.
    pub detail: u64,
    /// Functionally fast-forwarded instructions between windows. Must be
    /// at least 1.
    pub ff: u64,
}

impl SampleUnits {
    /// Builds validated unit sizes.
    ///
    /// # Errors
    ///
    /// If `detail` or `ff` is zero.
    pub fn new(warmup: u64, detail: u64, ff: u64) -> Result<SampleUnits, String> {
        if detail == 0 {
            return Err("sample detail length must be at least 1".into());
        }
        if ff == 0 {
            return Err("sample fast-forward length must be at least 1".into());
        }
        Ok(SampleUnits { warmup, detail, ff })
    }

    /// Parses the `W:D:F` CLI syntax (warmup:detail:fast-forward).
    ///
    /// # Errors
    ///
    /// On malformed syntax or invalid lengths.
    pub fn parse(s: &str) -> Result<SampleUnits, String> {
        let parts: Vec<&str> = s.split(':').collect();
        let [w, d, f] = parts[..] else {
            return Err(format!("expected W:D:F (e.g. 2000:1000:30000), got {s:?}"));
        };
        let field = |name: &str, v: &str| {
            v.parse::<u64>().map_err(|_| format!("bad {name} length {v:?} in {s:?}"))
        };
        SampleUnits::new(field("warmup", w)?, field("detail", d)?, field("fast-forward", f)?)
    }

    /// Instructions covered by one full unit.
    #[must_use]
    pub fn period(&self) -> u64 {
        self.warmup + self.detail + self.ff
    }
}

impl fmt::Display for SampleUnits {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}:{}", self.warmup, self.detail, self.ff)
    }
}

/// One measured detail window.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct SampleIpc {
    /// Instructions the main emulator had executed when the window's
    /// snapshot was taken (the window start, counting nops).
    pub start_inst: u64,
    /// Instructions committed inside the measured stretch.
    pub committed: u64,
    /// Cycles the measured stretch took.
    pub cycles: u64,
    /// The sample: `committed / cycles`.
    pub ipc: f64,
}

/// The sampled-run estimate: per-sample IPCs plus their mean and 95%
/// confidence half-width.
#[derive(Clone, PartialEq, Debug)]
pub struct SampledEstimate {
    /// The unit sizes the run used.
    pub units: SampleUnits,
    /// The seed that placed the first sampling unit.
    pub seed: u64,
    /// Every measured window, in program order.
    pub samples: Vec<SampleIpc>,
    /// The IPC estimate: reciprocal of the mean per-sample CPI, which
    /// weights every sample by its (equal) instruction count rather than
    /// its cycle count (0 when no window fit).
    pub mean_ipc: f64,
    /// Half-width of the two-sided 95% Student-t confidence interval,
    /// computed over the per-sample CPIs and mapped to the IPC domain by
    /// the delta method (infinite below 2 samples).
    pub ci_half_width: f64,
    /// Instructions simulated in detail (measured + warmup stretches).
    pub detailed_insts: u64,
    /// Total instructions the workload executed (functional count).
    pub total_insts: u64,
}

impl SampledEstimate {
    /// Relative error of the estimate against a reference IPC.
    #[must_use]
    pub fn rel_error(&self, full_ipc: f64) -> f64 {
        if full_ipc == 0.0 {
            return f64::INFINITY;
        }
        (self.mean_ipc - full_ipc).abs() / full_ipc
    }

    /// Whether a reference IPC falls inside the confidence interval.
    #[must_use]
    pub fn within_ci(&self, full_ipc: f64) -> bool {
        (self.mean_ipc - full_ipc).abs() <= self.ci_half_width
    }

    /// Fraction of all executed instructions that ran in detail.
    #[must_use]
    pub fn detail_fraction(&self) -> f64 {
        if self.total_insts == 0 {
            return 0.0;
        }
        self.detailed_insts as f64 / self.total_insts as f64
    }
}

/// What a sampled run produced: the estimate plus the main emulator,
/// which has functionally executed the complete program (architectural
/// checksums read from it are exact, not sampled).
#[derive(Debug)]
pub struct SampledOutcome {
    /// The IPC estimate and its samples.
    pub estimate: SampledEstimate,
    /// The main emulator after full functional execution.
    pub emulator: Emulator,
}

/// Runs a program under systematic sampling.
///
/// The runner owns a [`SimConfig`] describing the detailed machine; each
/// window clones it with the warmup/measurement bounds of one sampling
/// unit and seeds it from a snapshot via [`Simulator::from_snapshot`].
#[derive(Clone, Debug)]
pub struct SampledRunner {
    config: SimConfig,
    units: SampleUnits,
    seed: u64,
}

impl SampledRunner {
    /// Builds a runner with seed 0 (first window starts at a deterministic
    /// offset inside the first fast-forward stretch).
    #[must_use]
    pub fn new(config: SimConfig, units: SampleUnits) -> SampledRunner {
        SampledRunner { config, units, seed: 0 }
    }

    /// Replaces the sampling seed; the seed shifts where the first unit
    /// begins, so different seeds draw different systematic populations.
    #[must_use]
    pub fn with_seed(self, seed: u64) -> SampledRunner {
        SampledRunner { seed, ..self }
    }

    /// Runs the program to completion.
    ///
    /// Window boundaries count *executed* instructions (the functional
    /// stream, including nops), while a window's measured `detail` stretch
    /// counts *committed* instructions (nops are decode-eliminated and
    /// never commit). The two drift slightly apart on nop-dense code;
    /// boundaries stay deterministic for a given (program, units, seed),
    /// which is what golden digests and the accuracy gate rely on.
    ///
    /// # Errors
    ///
    /// [`SimFault`] from any detailed window, or [`SimFault::Emu`] (at
    /// cycle 0) if the program faults during functional fast-forward. The
    /// first fault in program order wins: a window's own fault precedes
    /// the fast-forward fault of the main emulator running past it.
    pub fn run(&self, program: &Program) -> Result<SampledOutcome, SimFault> {
        let SampleUnits { warmup, detail, ff } = self.units;
        let window_config = self.config.clone().with_warmup(warmup).with_max_insts(warmup + detail);
        let mut emu = Emulator::new(program);
        let mut warmth = BranchWarmth::cold();
        let mut samples = Vec::new();
        let mut detailed_insts = 0u64;
        thread::scope(|scope| {
            let mut in_flight = None;
            // First unit starts at a seed-derived offset inside [0, ff) so
            // a seed sweep can vary the sampled population.
            let offset = SplitMix64::new(self.seed).next_u64() % ff;
            let mut ahead = fast_forward(&mut emu, &mut warmth, offset);
            while ahead.is_ok() && !emu.halted() {
                // Checkpoint this window, then land the previous one: one
                // window in flight, samples in program order.
                let start_inst = emu.executed();
                let snapshot = emu.snapshot();
                land(in_flight.take(), &mut samples)?;
                let (config, tables) = (window_config.clone(), warmth.clone());
                in_flight = Some(scope.spawn(move || {
                    let mut sim = Simulator::from_snapshot(program, config, &snapshot, tables);
                    sim.try_run()?;
                    let stats = sim.stats();
                    Ok(SampleIpc {
                        start_inst,
                        committed: stats.committed,
                        cycles: stats.cycles,
                        ipc: stats.ipc(),
                    })
                }));
                // Catch the main emulator up over the window's stretch,
                // still training the tables (the window trains only its
                // own clone), then fast-forward to the next window.
                ahead =
                    fast_forward(&mut emu, &mut warmth, warmup + detail).and_then(|caught_up| {
                        detailed_insts += caught_up;
                        fast_forward(&mut emu, &mut warmth, ff)
                    });
            }
            // The window in flight precedes the main emulator in program
            // order, so its fault wins over one the main emulator hit.
            land(in_flight, &mut samples)?;
            ahead.map(drop)
        })?;
        Ok(SampledOutcome {
            estimate: estimate(self.units, self.seed, samples, detailed_insts, emu.executed()),
            emulator: emu,
        })
    }
}

/// Waits for the detailed window running on a worker thread, if any, and
/// appends its sample, or returns its fault. A panic on the worker
/// resumes on the caller.
fn land(
    window: Option<ScopedJoinHandle<'_, Result<SampleIpc, SimFault>>>,
    samples: &mut Vec<SampleIpc>,
) -> Result<(), SimFault> {
    if let Some(window) = window {
        samples.push(window.join().unwrap_or_else(|payload| panic::resume_unwind(payload))?);
    }
    Ok(())
}

/// Runs `emu` functionally for up to `budget` instructions, training
/// `warmth` on each, and returns how many it executed (fewer only when the
/// program halts first).
fn fast_forward(
    emu: &mut Emulator,
    warmth: &mut BranchWarmth,
    budget: u64,
) -> Result<u64, SimFault> {
    match emu.run_with(budget, |step| warmth.observe(step)) {
        Ok(RunOutcome::Halted { executed } | RunOutcome::BudgetExhausted { executed }) => {
            Ok(executed)
        }
        Err(error) => Err(SimFault::Emu { cycle: 0, error }),
    }
}

/// Folds the samples into an estimate: mean per-sample CPI (equal
/// instruction weights) inverted to IPC, ± a 95% t-interval mapped to the
/// IPC domain. Truncated end-of-program windows that committed nothing
/// carry no timing information and are excluded.
fn estimate(
    units: SampleUnits,
    seed: u64,
    samples: Vec<SampleIpc>,
    detailed_insts: u64,
    total_insts: u64,
) -> SampledEstimate {
    let cpis: Vec<f64> = samples
        .iter()
        .filter(|s| s.committed > 0)
        .map(|s| s.cycles as f64 / s.committed as f64)
        .collect();
    let n = cpis.len();
    let (mean_ipc, ci_half_width) = if n == 0 {
        (0.0, f64::INFINITY)
    } else {
        let mean_cpi = cpis.iter().sum::<f64>() / n as f64;
        let mean_ipc = 1.0 / mean_cpi;
        let half = if n < 2 {
            f64::INFINITY
        } else {
            let var = cpis.iter().map(|x| (x - mean_cpi).powi(2)).sum::<f64>() / (n - 1) as f64;
            let t = T_95.get(n - 2).copied().unwrap_or(1.960);
            let cpi_half = t * (var / n as f64).sqrt();
            // Delta method: |d(1/x)/dx| = 1/x^2 at x = mean_cpi.
            cpi_half * mean_ipc * mean_ipc
        };
        (mean_ipc, half)
    };
    SampledEstimate { units, seed, samples, mean_ipc, ci_half_width, detailed_insts, total_insts }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpa_asm::Asm;
    use hpa_isa::Reg;

    fn loop_program(iters: u64) -> Program {
        let mut a = Asm::new();
        a.li(Reg::R1, iters as i64);
        a.li(Reg::R2, 0);
        a.label("loop");
        a.add(Reg::R2, Reg::R2, Reg::R1);
        a.add(Reg::R3, Reg::R2, 1);
        a.sub(Reg::R1, Reg::R1, 1);
        a.bgt(Reg::R1, "loop");
        a.halt();
        a.assemble().expect("assembles")
    }

    /// A loop that stores its running sum across several pages, so windows
    /// and the main emulator write to pages they share. With `fault` set,
    /// the program ends in a load from `-1` (outside data memory) instead
    /// of a halt.
    fn storing_program(iters: u64, fault: bool) -> Program {
        let mut a = Asm::new();
        a.li(Reg::R1, iters as i64);
        a.li(Reg::R2, 0);
        a.li(Reg::R5, 0);
        a.label("loop");
        a.add(Reg::R2, Reg::R2, Reg::R1);
        a.stq(Reg::R2, Reg::R5, 0);
        a.add(Reg::R5, Reg::R5, 8);
        a.sub(Reg::R1, Reg::R1, 1);
        a.bgt(Reg::R1, "loop");
        if fault {
            a.li(Reg::R6, -1);
            a.ldq(Reg::R3, Reg::R6, 0);
        }
        a.halt();
        a.assemble().expect("assembles")
    }

    /// [`fast_forward`] one [`Emulator::step`] at a time, so the serial
    /// loop below does not share the runner's `run_with` loop.
    fn step_forward(
        emu: &mut Emulator,
        warmth: &mut BranchWarmth,
        budget: u64,
    ) -> Result<u64, SimFault> {
        for stepped in 0..budget {
            match emu.step().map_err(|error| SimFault::Emu { cycle: 0, error })? {
                Some(step) => warmth.observe(&step),
                None => return Ok(stepped),
            }
        }
        Ok(budget)
    }

    /// The runner as it was before windows ran off the main thread: each
    /// window is simulated to the end before the main emulator catches up,
    /// and fast-forward steps one instruction at a time.
    fn serial_run(runner: &SampledRunner, program: &Program) -> Result<SampledOutcome, SimFault> {
        let SampleUnits { warmup, detail, ff } = runner.units;
        let mut emu = Emulator::new(program);
        let mut warmth = BranchWarmth::cold();
        let mut samples = Vec::new();
        let mut detailed_insts = 0u64;
        let mut ff_budget = SplitMix64::new(runner.seed).next_u64() % ff;
        loop {
            step_forward(&mut emu, &mut warmth, ff_budget)?;
            if emu.halted() {
                break;
            }
            let start_inst = emu.executed();
            let window_config =
                runner.config.clone().with_warmup(warmup).with_max_insts(warmup + detail);
            let mut sim =
                Simulator::from_snapshot(program, window_config, &emu.snapshot(), warmth.clone());
            sim.try_run()?;
            let stats = sim.stats();
            samples.push(SampleIpc {
                start_inst,
                committed: stats.committed,
                cycles: stats.cycles,
                ipc: stats.ipc(),
            });
            drop(sim);
            detailed_insts += step_forward(&mut emu, &mut warmth, warmup + detail)?;
            if emu.halted() {
                break;
            }
            ff_budget = ff;
        }
        Ok(SampledOutcome {
            estimate: estimate(runner.units, runner.seed, samples, detailed_insts, emu.executed()),
            emulator: emu,
        })
    }

    /// Instructions a program executes before its emulator faults.
    fn executed_before_fault(program: &Program) -> u64 {
        let mut emu = Emulator::new(program);
        while let Ok(Some(_)) = emu.step() {}
        assert!(emu.step().is_err(), "the program faults");
        emu.executed()
    }

    #[test]
    fn parse_accepts_and_rejects() {
        assert_eq!(
            SampleUnits::parse("2000:1000:30000").unwrap(),
            SampleUnits { warmup: 2000, detail: 1000, ff: 30000 }
        );
        assert_eq!(SampleUnits::parse("0:5:9").unwrap().period(), 14);
        assert!(SampleUnits::parse("1:2").is_err(), "two fields");
        assert!(SampleUnits::parse("1:2:3:4").is_err(), "four fields");
        assert!(SampleUnits::parse("a:2:3").is_err(), "non-numeric");
        assert!(SampleUnits::parse("1:0:3").is_err(), "zero detail");
        assert!(SampleUnits::parse("1:2:0").is_err(), "zero fast-forward");
        assert_eq!(SampleUnits::parse("10:20:30").unwrap().to_string(), "10:20:30");
    }

    #[test]
    fn sampled_run_is_deterministic_and_checksummed() {
        let program = loop_program(3000);
        let units = SampleUnits::parse("100:200:700").unwrap();
        let runner = SampledRunner::new(SimConfig::four_wide(), units).with_seed(42);
        let a = runner.run(&program).unwrap();
        let b = runner.run(&program).unwrap();
        assert_eq!(a.estimate, b.estimate, "bit-identical across runs");
        assert!(a.estimate.samples.len() > 3, "several windows fit");
        assert!(a.estimate.mean_ipc > 0.0);
        // The main emulator executed the whole program: same architectural
        // result as plain functional execution.
        let mut reference = Emulator::new(&program);
        reference.run(u64::MAX).unwrap();
        assert_eq!(a.emulator.reg(Reg::R2), reference.reg(Reg::R2));
        assert_eq!(a.emulator.executed(), reference.executed());
        assert!(a.emulator.halted());
    }

    #[test]
    fn seeds_shift_the_sample_population() {
        let program = loop_program(3000);
        let units = SampleUnits::parse("100:200:700").unwrap();
        let base = SampledRunner::new(SimConfig::four_wide(), units);
        let a = base.clone().with_seed(1).run(&program).unwrap();
        let b = base.with_seed(2).run(&program).unwrap();
        assert_ne!(
            a.estimate.samples.first().map(|s| s.start_inst),
            b.estimate.samples.first().map(|s| s.start_inst),
            "different seeds place the first window differently"
        );
    }

    #[test]
    fn estimate_matches_hand_computed_t_interval() {
        // Equal committed counts, so the per-sample CPIs are cycles/100.
        let mk = |cycles: u64| SampleIpc {
            start_inst: 0,
            committed: 100,
            cycles,
            ipc: 100.0 / cycles as f64,
        };
        let units = SampleUnits::parse("1:1:1").unwrap();
        // CPIs 1, 2, 3, 4: mean CPI 2.5 (IPC 0.4), s^2 = 5/3, t(3) = 3.182.
        let e = estimate(units, 0, vec![mk(100), mk(200), mk(300), mk(400)], 0, 0);
        assert!((e.mean_ipc - 0.4).abs() < 1e-12);
        let cpi_half = 3.182 * (5.0 / 3.0 / 4.0f64).sqrt();
        let expected = cpi_half * 0.4 * 0.4; // delta method at mean CPI 2.5
        assert!((e.ci_half_width - expected).abs() < 1e-9);
        assert!(e.within_ci(0.4 + expected * 0.99));
        assert!(!e.within_ci(0.4 + expected * 1.01));
        // Degenerate counts; zero-commit windows carry no information.
        assert_eq!(estimate(units, 0, vec![], 0, 0).mean_ipc, 0.0);
        assert_eq!(estimate(units, 0, vec![mk(100)], 0, 0).ci_half_width, f64::INFINITY);
        let truncated = SampleIpc { start_inst: 0, committed: 0, cycles: 7, ipc: 0.0 };
        let e = estimate(units, 0, vec![mk(100), mk(100), truncated], 0, 0);
        assert_eq!(e.mean_ipc, 1.0, "zero-commit window excluded from the mean");
        // Large n falls back to the normal critical value.
        let many: Vec<SampleIpc> =
            (0..40).map(|i| mk(if i % 2 == 0 { 100 } else { 200 })).collect();
        let e = estimate(units, 0, many, 0, 0);
        let s2 = (0.5f64).powi(2) * 40.0 / 39.0;
        let mean_ipc = 1.0 / 1.5;
        let expected = 1.960 * (s2 / 40.0).sqrt() * mean_ipc * mean_ipc;
        assert!((e.ci_half_width - expected).abs() < 1e-9);
    }

    #[test]
    fn sampled_ipc_tracks_full_detailed_ipc() {
        // A steady loop: the sampled estimate must land close to the full
        // detailed run (the check.sh accuracy gate asserts the same on the
        // real workloads).
        let program = loop_program(5000);
        let config = SimConfig::four_wide();
        let full = {
            let mut sim = Simulator::new(&program, config.clone());
            sim.run().ipc()
        };
        let units = SampleUnits::parse("200:500:1300").unwrap();
        let out = SampledRunner::new(config, units).with_seed(42).run(&program).unwrap();
        assert!(
            out.estimate.rel_error(full) < 0.05,
            "sampled {} vs full {full} drifted more than 5%",
            out.estimate.mean_ipc
        );
        assert!(out.estimate.detail_fraction() < 0.6, "most instructions fast-forwarded");
    }

    #[test]
    fn pipelined_windows_match_the_serial_loop() {
        let program = storing_program(3000, false);
        let total = {
            let mut emu = Emulator::new(&program);
            emu.run(u64::MAX).unwrap();
            emu.executed()
        };
        let mut halted_inside_a_window = 0;
        for units in ["0:200:700", "50:100:1", "100:200:700", "300:600:1500"] {
            let units = SampleUnits::parse(units).unwrap();
            for seed in [1, 2, 3, 42] {
                let runner = SampledRunner::new(SimConfig::four_wide(), units).with_seed(seed);
                let serial = serial_run(&runner, &program).unwrap();
                let pipelined = runner.run(&program).unwrap();
                assert_eq!(pipelined.estimate, serial.estimate, "{units} seed {seed}");
                assert_eq!(pipelined.emulator.executed(), serial.emulator.executed());
                assert_eq!(pipelined.emulator.reg(Reg::R2), serial.emulator.reg(Reg::R2));
                assert_eq!(pipelined.emulator.snapshot(), serial.emulator.snapshot());
                assert_eq!(pipelined.emulator.executed(), total);
                let last = pipelined.estimate.samples.last().expect("windows fit");
                if last.start_inst + units.warmup + units.detail > total {
                    halted_inside_a_window += 1;
                }
            }
        }
        assert!(halted_inside_a_window > 0, "some run halts inside a window");
    }

    #[test]
    fn a_window_fault_takes_precedence_over_the_main_emulators() {
        let units = SampleUnits::parse("100:200:700").unwrap();
        let seed = 7;
        let offset = SplitMix64::new(seed).next_u64() % units.ff;
        let runner = SampledRunner::new(SimConfig::four_wide(), units).with_seed(seed);
        // A program whose faulting load sits `phase` instructions into a
        // sampling unit (each loop iteration is 5 instructions).
        let program_at = |phase: std::ops::Range<u64>| {
            (1000..1200)
                .map(|iters| storing_program(iters, true))
                .find(|p| {
                    let at = (executed_before_fault(p) + units.period() - offset) % units.period();
                    phase.contains(&at)
                })
                .expect("some loop length puts the fault there")
        };
        let run = |program: &Program| {
            let serial = serial_run(&runner, program).expect_err("serial loop faults");
            let pipelined = runner.run(program).expect_err("pipelined runner faults");
            assert_eq!(pipelined.to_string(), serial.to_string());
            pipelined
        };
        // Inside a window's warmup+detail stretch: the window faults at a
        // cycle of its own, while the main emulator catching up over the
        // same stretch faults too, at cycle 0.
        let fault = run(&program_at(100..250));
        assert!(matches!(fault, SimFault::Emu { cycle, .. } if cycle > 0), "{fault}");
        // Well inside plain fast-forward, after the last window drained.
        let fault = run(&program_at(600..900));
        assert!(matches!(fault, SimFault::Emu { cycle: 0, .. }), "{fault}");
    }
}
