//! The differential fuzzer: random programs × schemes, in lockstep.

use crate::corpus::write_reproducer;
use crate::generate::{ArchState, GenProgram};
use crate::oracle::{run_lockstep, run_lockstep_window};
use crate::shrink::shrink;
use crate::Divergence;
use hpa_core::asm::Program;
use hpa_core::emu::Emulator;
use hpa_core::sim::{RecoveryKind, SampleUnits, SampledRunner, SimConfig};
use hpa_core::workloads::SplitMix64;
use hpa_core::{default_jobs, parallel_map, MachineWidth, Scheme};
use std::path::PathBuf;

/// The schemes every fuzz iteration runs and cross-compares: the base
/// machine and the paper's three headline half-price configurations.
pub const FUZZ_SCHEMES: [Scheme; 4] =
    [Scheme::Base, Scheme::SeqWakeupPredictor, Scheme::SeqRegAccess, Scheme::Combined];

/// Per-iteration configuration variation, sampled alongside the program so
/// reduced-resource corners (selective recovery, tiny predictor tables)
/// are exercised too. The same variant applies to every scheme of the
/// iteration — variants must never change architecture.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Variant {
    /// Machine width (mostly 4-wide; 8-wide one iteration in eight).
    pub width: MachineWidth,
    /// Use selective (dependence-matrix) replay instead of non-selective.
    pub selective_recovery: bool,
    /// Shrink the last-arriving predictor to 64 entries.
    pub small_pc_table: bool,
}

impl Variant {
    fn random(rng: &mut SplitMix64) -> Variant {
        Variant {
            width: if rng.below(8) == 0 { MachineWidth::Eight } else { MachineWidth::Four },
            selective_recovery: rng.below(4) == 0,
            small_pc_table: rng.below(4) == 0,
        }
    }

    /// The simulator configuration for one scheme under this variant.
    #[must_use]
    pub fn configure(self, scheme: Scheme) -> SimConfig {
        let mut c = scheme.configure(self.width);
        if self.selective_recovery {
            c = c.with_recovery(RecoveryKind::Selective);
        }
        if self.small_pc_table {
            c = c.with_pc_table_entries(64);
        }
        c
    }
}

impl Default for Variant {
    /// The plain 4-wide machine with neither tweak: what a reproducer
    /// whose header names no variant replays at.
    fn default() -> Variant {
        Variant { width: MachineWidth::Four, selective_recovery: false, small_pc_table: false }
    }
}

/// Fuzzer parameters.
#[derive(Clone, Debug)]
pub struct FuzzConfig {
    /// Number of random programs to generate.
    pub iters: u64,
    /// Master seed; every `(seed, index)` pair is an independent stream.
    pub seed: u64,
    /// Worker threads for the program fan-out.
    pub jobs: usize,
    /// Where to write shrunk reproducers (`None` to skip writing).
    pub corpus_dir: Option<PathBuf>,
}

impl Default for FuzzConfig {
    fn default() -> FuzzConfig {
        FuzzConfig { iters: 1000, seed: 42, jobs: default_jobs(), corpus_dir: None }
    }
}

/// One verified-divergent case, minimized and (optionally) persisted.
#[derive(Clone, Debug)]
pub struct FuzzFailure {
    /// Iteration index that produced the failing program.
    pub index: u64,
    /// The scheme that diverged (the base scheme for cross-scheme
    /// mismatches detected against it).
    pub scheme: Scheme,
    /// The configuration variant in effect.
    pub variant: Variant,
    /// The divergence report for the *shrunk* program.
    pub divergence: Divergence,
    /// The shrunk generator program.
    pub program: GenProgram,
    /// Where the reproducer was written, if a corpus dir was given.
    pub reproducer: Option<PathBuf>,
}

/// What a fuzzing campaign did.
#[derive(Clone, Debug)]
pub struct FuzzReport {
    /// Programs generated.
    pub iters: u64,
    /// `(program, scheme)` pairs checked by [`run_differential`].
    pub runs: u64,
    /// Divergences found (empty on a clean campaign).
    pub failures: Vec<FuzzFailure>,
}

/// The differential check: runs `program` under every fuzz scheme at
/// `variant` three ways, and requires each result to agree with the base
/// scheme's.
///
/// Per scheme it runs:
/// 1. the whole program under the lockstep oracle ([`run_lockstep`]);
/// 2. a detailed window restored from a snapshot at the midpoint of the
///    dynamic stream, under the oracle ([`run_lockstep_window`]: the
///    commit stream must match independent functional replay reaching the
///    same region);
/// 3. the whole program through [`SampledRunner`] with tiny units, whose
///    main emulator must land on the whole-program final state (sampling
///    must never execute an instruction twice or zero times).
///
/// # Errors
///
/// The first failing scheme with its [`Divergence`].
pub fn run_differential(program: &Program, variant: Variant) -> Result<(), (Scheme, Divergence)> {
    let base = run_lockstep(program, variant.configure(Scheme::Base))
        .map_err(|d| (Scheme::Base, d))?
        .state;
    // The base run reached `halt`, so its executed count is the program's.
    let mut emu = Emulator::new(program);
    emu.run(base.executed / 2).map_err(|e| {
        (Scheme::Base, Divergence::at(0, format!("fast-forward to the snapshot faulted: {e}")))
    })?;
    let snap = emu.snapshot();
    let units = SampleUnits::new(4, 12, 16).expect("static units are valid");

    let mut base_window = None;
    for scheme in FUZZ_SCHEMES {
        let config = || variant.configure(scheme);
        let fail = |d: Divergence| (scheme, d);
        if scheme != Scheme::Base {
            let whole = run_lockstep(program, config()).map_err(fail)?;
            agree(scheme, "whole-program run", &whole.state, &base)?;
        }
        let window = run_lockstep_window(program, config(), &snap).map_err(fail)?;
        agree(scheme, "snapshot window", &window.state, base_window.get_or_insert(window.state))?;
        let sampled = SampledRunner::new(config(), units)
            .with_seed(base.executed)
            .run(program)
            .map_err(|fault| fail(Divergence::at(0, format!("sampled runner fault: {fault}"))))?;
        agree(scheme, "sampled replay", &ArchState::capture(&sampled.emulator), &base)?;
    }
    Ok(())
}

/// Requires one scheme's final state from `check` to equal base's.
fn agree(
    scheme: Scheme,
    check: &str,
    state: &ArchState,
    base: &ArchState,
) -> Result<(), (Scheme, Divergence)> {
    match state.first_difference(base, &format!("`{}`", scheme.key()), "`base`") {
        None => Ok(()),
        Some(reason) => {
            Err((scheme, Divergence::at(0, format!("{check} disagrees with base: {reason}"))))
        }
    }
}

/// The seeded stream that draws program `index` of a fuzz or fault
/// campaign: the same `(seed, index)` always draws the same program,
/// however many programs the campaign runs.
#[must_use]
pub fn program_rng(seed: u64, index: u64) -> SplitMix64 {
    SplitMix64::new(seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Runs a differential fuzzing campaign.
///
/// Iterations fan out across `jobs` threads; each failure is then shrunk
/// (instruction deletion, loop and config simplification) serially and
/// written to the corpus directory if one was configured. At most four
/// failures are minimized per campaign — one reproducer is normally all a
/// debugging session needs, and shrinking re-simulates heavily.
#[must_use]
pub fn fuzz(cfg: &FuzzConfig) -> FuzzReport {
    let indices: Vec<u64> = (0..cfg.iters).collect();
    let raw = parallel_map(&indices, cfg.jobs, |_, &index| {
        let mut rng = program_rng(cfg.seed, index);
        let gen = GenProgram::random(&mut rng);
        let variant = Variant::random(&mut rng);
        run_differential(&gen.lower(), variant)
            .err()
            .map(|(scheme, divergence)| (index, gen, variant, scheme, divergence))
    });
    let runs = cfg.iters * FUZZ_SCHEMES.len() as u64;

    const MAX_SHRUNK: usize = 4;
    let mut failures = Vec::new();
    for (index, gen, variant, scheme, divergence) in raw.into_iter().flatten() {
        if failures.len() >= MAX_SHRUNK {
            break;
        }
        let (program, variant, divergence) = minimize(&gen, variant, divergence);
        let reproducer = cfg.corpus_dir.as_ref().and_then(|dir| {
            write_reproducer(
                dir,
                &format!("fuzz-{:016x}-{index}", cfg.seed),
                &program.lower(),
                scheme,
                variant,
            )
            .ok()
        });
        failures.push(FuzzFailure { index, scheme, variant, divergence, program, reproducer });
    }
    FuzzReport { iters: cfg.iters, runs, failures }
}

/// Shrinks a failing case: body deletion (via [`shrink`]), then config
/// simplification (drop the variant tweaks, fall back to 4-wide) — each
/// accepted only while [`run_differential`] still fails.
fn minimize(
    gen: &GenProgram,
    variant: Variant,
    divergence: Divergence,
) -> (GenProgram, Variant, Divergence) {
    let still_fails = |g: &GenProgram, v: Variant| run_differential(&g.lower(), v).err();
    let best = shrink(gen, |g| still_fails(g, variant).is_some());

    let mut v = variant;
    for candidate in [
        Variant { selective_recovery: false, ..v },
        Variant { small_pc_table: false, ..v },
        Variant { width: MachineWidth::Four, ..v },
    ] {
        if candidate != v && still_fails(&best, candidate).is_some() {
            v = candidate;
        }
    }
    // Re-derive the divergence for the final (program, variant) pair; if
    // simplification somehow made it pass, keep the original report.
    match still_fails(&best, v) {
        Some((_, d)) => (best, v, d),
        None => (gen.clone(), variant, divergence),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The headline guarantee: a seeded campaign over all four schemes
    /// finds no divergence in whole-program lockstep, snapshot windows or
    /// sampled replay. (The 200-iteration run is the CLI smoke gate; this
    /// keeps the unit suite quick.)
    #[test]
    fn seeded_campaign_is_clean() {
        let report = fuzz(&FuzzConfig { iters: 60, seed: 42, ..FuzzConfig::default() });
        assert_eq!(report.runs, 240);
        assert!(
            report.failures.is_empty(),
            "divergences found: {:?}",
            report.failures.iter().map(|f| f.divergence.reason.clone()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn iteration_streams_are_independent_of_iter_count() {
        // Iteration k draws the same program whether the campaign runs 10
        // or 1000 iterations — reproducers stay valid across -iters.
        let mut a = program_rng(42, 7);
        let mut b = program_rng(42, 7);
        assert_eq!(GenProgram::random(&mut a), GenProgram::random(&mut b));
    }
}
