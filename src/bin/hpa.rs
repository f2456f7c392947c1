//! `hpa` — command-line front end for the Half-Price Architecture
//! reproduction: assemble, emulate and simulate programs, run the
//! built-in benchmarks, and serve simulations over HTTP (see the
//! [`COMMANDS`] table for the full registry, which is also what `hpa`
//! with no/unknown arguments prints).
//!
//! Exit codes: `0` success, `1` operational error (I/O, bad input file,
//! a program that faults the emulator), `2` usage error, `3` a
//! fault/divergence was detected, `4` silent data corruption (SDC) was
//! detected.

use half_price::asm::{parse_program, Program};
use half_price::bench::{extension_tables, write_report, HarnessArgs};
use half_price::emu::Emulator;
use half_price::faultsim;
use half_price::isa::Reg;
use half_price::obs::digest::{debug_digest, format_hex};
use half_price::obs::json::Json;
use half_price::sdk::{Client, ClientError};
use half_price::serve::proto::{JobProgram, JobRequest, JobStatus};
use half_price::serve::server::{Server, ServerConfig};
use half_price::sim::{SampleUnits, SampledEstimate, SimFault, SimStats, Simulator};
use half_price::verify;
use half_price::workloads::{workload, Scale, CHECKSUM_REG, WORKLOAD_NAMES};
use half_price::{run, MachineWidth, MatrixResult, Mode, RunError, RunResult, RunSpec, Scheme};
use std::io::{ErrorKind, Write as _};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

// The command handlers' `print!`/`println!` (these shadow the std macros
// for the rest of this file): once the reader of stdout goes away, as in
// `hpa asm mcf | head -1`, further output is dropped quietly and the
// command finishes with its own exit code, instead of panicking on the
// broken pipe.
macro_rules! print {
    ($($arg:tt)*) => { emit(format_args!($($arg)*)) };
}
macro_rules! println {
    () => { print!("\n") };
    ($($arg:tt)*) => { print!("{}\n", format_args!($($arg)*)) };
}

/// Set once a write to stdout found the pipe closed.
static STDOUT_CLOSED: AtomicBool = AtomicBool::new(false);

/// Writes to stdout unless its reader has gone; any other write error
/// panics, as `std::print!` does.
fn emit(args: std::fmt::Arguments<'_>) {
    if STDOUT_CLOSED.load(Ordering::Relaxed) {
        return;
    }
    match std::io::stdout().write_fmt(args) {
        Err(e) if e.kind() == ErrorKind::BrokenPipe => STDOUT_CLOSED.store(true, Ordering::Relaxed),
        Err(e) => panic!("failed printing to stdout: {e}"),
        Ok(()) => {}
    }
}

/// One CLI subcommand: the single place a command's name, one-line help
/// and usage synopsis are registered. `main` dispatches from this table,
/// parses arguments against the synopsis and generates the usage text
/// from it, so adding a command is one entry here plus its handler.
struct Subcommand {
    /// The verb (`hpa <name> ...`).
    name: &'static str,
    /// One-line description for the command listing.
    help: &'static str,
    /// Usage synopsis: the one declaration of the command's arguments.
    usage: &'static str,
    /// The handler, taking the parsed arguments after the verb.
    run: fn(&Args) -> CliResult,
}

/// The subcommand registry.
const COMMANDS: &[Subcommand] = &[
    Subcommand { name: "list", help: "workloads and schemes", usage: "hpa list", run: cmd_list },
    Subcommand {
        name: "asm",
        help: "assemble + disassemble a program",
        usage: "hpa asm <file.s|file.elf|bench> [--scale K]",
        run: cmd_asm,
    },
    Subcommand {
        name: "run",
        help: "functional execution, dump registers",
        usage: "hpa run <file.s|file.elf|bench> [--scale K] [--insts N]",
        run: cmd_run,
    },
    Subcommand {
        name: "sim",
        help: "cycle-level simulation of one program (--json: the run record)",
        usage: "hpa sim <file.s|file.elf|bench> [--scale K] [--scheme S] [--width 4|8] \
                [--trace N] [--cpi-stack] [--counters] [--json] [--sampled W:D:F [--seed S]]",
        run: cmd_sim,
    },
    Subcommand {
        name: "bench",
        help: "built-in benchmarks: one name and scheme runs as `hpa sim`; `all` sweeps",
        usage: "hpa bench <name|all> [--scheme S|all] [--scale tiny|default|large|long] \
                [--width 4|8] [--jobs N] [--trace N] [--cpi-stack] [--counters] [--json] \
                [--sampled W:D:F [--seed S]]",
        run: cmd_bench,
    },
    Subcommand {
        name: "report",
        help: "every table and figure of the paper, written to one report",
        usage: "hpa report [--scale K] [--width 4|8|both] [--bench NAME]... [--jobs N] \
                [--out PATH]",
        run: cmd_report,
    },
    Subcommand {
        name: "extensions",
        help: "the experiments beyond the paper, as tables on stdout",
        usage: "hpa extensions [--scale K] [--width 4|8|both] [--bench NAME]... [--jobs N]",
        run: cmd_extensions,
    },
    Subcommand {
        name: "trace-viz",
        help: "Chrome trace-event JSON export",
        usage: "hpa trace-viz <file.s|file.elf|bench> [--scale K] [--scheme S] [--width 4|8] \
                [--insts N] [--out FILE]",
        run: cmd_trace_viz,
    },
    Subcommand {
        name: "verify",
        help: "lockstep-check a program or replay a corpus",
        usage: "hpa verify <file.s|file.elf|dir> [--scheme S|all] [--width 4|8]",
        run: cmd_verify,
    },
    Subcommand {
        name: "fuzz",
        help: "differential fuzzing campaign",
        usage: "hpa fuzz [--iters N] [--seed S] [--jobs N] [--corpus DIR]",
        run: cmd_fuzz,
    },
    Subcommand {
        name: "faults",
        help: "fault-injection campaign",
        usage: "hpa faults [--campaign SPEC] [--seed S] [--jobs N] [--out FILE] [--corpus DIR]",
        run: cmd_faults,
    },
    Subcommand {
        name: "serve",
        help: "simulation-as-a-service daemon (or --stop one)",
        usage: "hpa serve [--addr HOST:PORT] [--jobs N] [--cache-dir DIR] [--journal-dir DIR] \
                [--max-queue N] [--cache-max-entries N] [--cache-max-bytes N] [--stop]",
        run: cmd_serve,
    },
    Subcommand {
        name: "submit",
        help: "submit a job to a running daemon",
        usage:
            "hpa submit <bench|file.s|file.elf> [--addr HOST:PORT] [--scheme S|all] [--scale K] \
                [--width 4|8] [--seed N] [--sampled W:D:F] [--deadline-ms N] [--wait-secs N] \
                [--cycle-budget N] [--no-wait] [--json]",
        run: cmd_submit,
    },
    Subcommand {
        name: "job",
        help: "fetch (and wait for) a submitted job's results",
        usage: "hpa job <id> [--addr HOST:PORT] [--wait-secs N] [--json]",
        run: cmd_job,
    },
];

/// The command listing: every verb with its help line and synopsis.
fn listing() -> String {
    use std::fmt::Write as _;
    let verbs: Vec<&str> = COMMANDS.iter().map(|c| c.name).collect();
    let mut msg = format!("usage: hpa <{}> ...", verbs.join("|"));
    for c in COMMANDS {
        let _ = write!(msg, "\n\n  {:10} {}\n             {}", c.name, c.help, c.usage);
    }
    msg
}

fn usage_error(unknown: Option<&str>) -> CliError {
    match unknown {
        Some(name) => CliError::Usage(format!("unknown command `{name}`\n{}", listing())),
        None => CliError::Usage(listing()),
    }
}

/// The arguments after the verb, parsed against its synopsis.
#[derive(Default)]
struct Args {
    positional: Vec<String>,
    /// Each flag given, in order, with its value if it takes one.
    flags: Vec<(&'static str, Option<String>)>,
}

impl Args {
    /// The value of `--name`, if given.
    fn value(&self, name: &str) -> Option<&str> {
        self.flags.iter().find(|(n, _)| *n == name).and_then(|(_, v)| v.as_deref())
    }

    /// Every value given to a repeatable `--name`, in order.
    fn values<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a str> {
        self.flags.iter().filter(move |(n, _)| *n == name).filter_map(|(_, v)| v.as_deref())
    }

    /// Whether `--name` was given.
    fn has(&self, name: &str) -> bool {
        self.flags.iter().any(|(n, _)| *n == name)
    }
}

impl Subcommand {
    /// Parses `argv` against the synopsis: `[--name META]` takes a value,
    /// `[--name]` takes none, a group closed by `]...` may repeat, and
    /// each `<...>` is one positional. Anything else is a usage error
    /// naming the argument. `None` asks for the synopsis (`--help`, `-h`).
    fn parse(&self, argv: &[String]) -> Result<Option<Args>, CliError> {
        let bad = |what: String| usage(format!("{what}\nusage: {}", self.usage));
        let positionals = self.usage.split_whitespace().filter(|t| t.starts_with('<')).count();
        let mut args = Args::default();
        let mut argv = argv.iter();
        while let Some(a) = argv.next() {
            if a == "--help" || a == "-h" {
                return Ok(None);
            }
            if !a.starts_with("--") {
                if args.positional.len() == positionals {
                    return Err(bad(format!("unexpected argument `{a}`")));
                }
                args.positional.push(a.clone());
                continue;
            }
            let mut decls = self.usage.match_indices("[--").map(|(i, _)| &self.usage[i + 1..]);
            let Some(decl) = decls.find(|d| d.split([' ', ']']).next() == Some(a)) else {
                return Err(bad(format!("unknown flag `{a}`")));
            };
            let (name, rest) = decl.split_at(a.len());
            let repeats = rest.split_once(']').is_some_and(|(_, after)| after.starts_with("..."));
            if !repeats && args.has(name) {
                return Err(bad(format!("`{a}` given twice")));
            }
            let value = if rest.starts_with(' ') {
                let v = argv.next().filter(|v| !v.starts_with("--"));
                Some(v.ok_or_else(|| bad(format!("`{a}` needs a value")))?.clone())
            } else {
                None
            };
            args.flags.push((name, value));
        }
        Ok(Some(args))
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let verb = args.first().map(String::as_str);
    let result = match COMMANDS.iter().find(|c| Some(c.name) == verb) {
        Some(cmd) => cmd.parse(&args[1..]).and_then(|parsed| match parsed {
            Some(parsed) => (cmd.run)(&parsed),
            None => {
                println!("usage: {}", cmd.usage);
                Ok(())
            }
        }),
        // A help request is not a usage error: the listing, on stdout.
        None if matches!(verb, Some("--help" | "-h")) => {
            println!("{}", listing());
            Ok(())
        }
        None => Err(usage_error(verb)),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(e.code())
        }
    }
}

/// A structured CLI failure; the variant picks the process exit code.
#[derive(Debug)]
enum CliError {
    /// Bad flags or arguments (exit 2).
    Usage(String),
    /// A fault or divergence was detected by the verification layers
    /// (exit 3).
    Fault(String),
    /// Silent data corruption was detected (exit 4).
    Sdc(String),
    /// Operational failure: I/O, unparsable input file, emulator fault
    /// (exit 1).
    Other(String),
}

impl CliError {
    fn code(&self) -> u8 {
        match self {
            CliError::Other(_) => 1,
            CliError::Usage(_) => 2,
            CliError::Fault(_) => 3,
            CliError::Sdc(_) => 4,
        }
    }
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (CliError::Usage(m) | CliError::Fault(m) | CliError::Sdc(m) | CliError::Other(m)) =
            self;
        write!(f, "{m}")
    }
}

type CliResult = Result<(), CliError>;

fn usage(msg: impl Into<String>) -> CliError {
    CliError::Usage(msg.into())
}

fn other(msg: impl std::fmt::Display) -> CliError {
    CliError::Other(msg.to_string())
}

/// Maps a failed simulation onto the exit codes; every subcommand that
/// simulates reports through here. A program that faults the emulator is
/// bad input (exit 1, as `hpa run` reports it), and a deadlock, invariant
/// violation, checksum mismatch or panicked cell is a detected fault
/// (exit 3). Benchmark names are resolved before anything runs.
fn run_error(e: RunError) -> CliError {
    match e {
        RunError::Sim { fault: SimFault::Emu { .. }, .. } => other(e),
        _ => CliError::Fault(e.to_string()),
    }
}

/// [`RunSpec::name`] of a program loaded from a file.
const PROGRAM: &str = "program";

fn cmd_list(_args: &Args) -> CliResult {
    println!("workloads (SPEC CINT2000 stand-ins):");
    for name in WORKLOAD_NAMES {
        let w = workload(name, Scale::Tiny).expect("known");
        println!("  {name:8} {}", w.description);
    }
    println!("\nworkloads (real RISC-V binaries, scale-invariant):");
    for name in half_price::workloads::RISCV_WORKLOAD_NAMES {
        let w = workload(name, Scale::Tiny).expect("known");
        println!("  {name:12} {}", w.description);
    }
    println!("\nschemes:");
    for s in Scheme::ALL {
        println!("  {:22} (--scheme {})", s.label(), s.key());
    }
    Ok(())
}

fn parse_scheme(key: &str) -> Result<Scheme, CliError> {
    Scheme::from_key(key).ok_or_else(|| usage(format!("unknown scheme `{key}`; see `hpa list`")))
}

/// Parses the value of `--name` as an integer, with a usage error naming
/// the flag on failure; `None` when the flag is absent.
fn opt_num_flag<T: std::str::FromStr>(args: &Args, name: &str) -> Result<Option<T>, CliError> {
    args.value(name)
        .map(|v| v.parse().map_err(|_| usage(format!("bad {name} `{v}` (want an integer)"))))
        .transpose()
}

/// [`opt_num_flag`] with a `default` for an absent flag.
fn num_flag<T: std::str::FromStr>(args: &Args, name: &str, default: T) -> Result<T, CliError> {
    Ok(opt_num_flag(args, name)?.unwrap_or(default))
}

/// A count flag that must be at least 1 (`--jobs`, `--max-queue`);
/// `None` when absent.
fn count_flag(args: &Args, name: &str) -> Result<Option<usize>, CliError> {
    match opt_num_flag(args, name)? {
        Some(0) => Err(usage(format!("bad {name} `0` (want an integer >= 1)"))),
        n => Ok(n),
    }
}

/// `--jobs`, defaulting to one worker per core.
fn jobs_flag(args: &Args) -> Result<usize, CliError> {
    Ok(count_flag(args, "--jobs")?.unwrap_or_else(half_price::default_jobs))
}

/// Parses `--scale`, defaulting to [`Scale::Default`].
fn scale_flag(args: &Args) -> Result<Scale, CliError> {
    match args.value("--scale") {
        None => Ok(Scale::Default),
        Some(v) => Scale::from_key(v).ok_or_else(|| usage(format!("bad --scale {v}"))),
    }
}

/// A program named on the command line: a file (internal assembly or a
/// RISC-V ELF) or a built-in benchmark at `--scale`. Every subcommand
/// that takes a program resolves it through [`load_target`].
struct Target {
    /// [`RunSpec::name`]: the benchmark's name, or [`PROGRAM`] for a file.
    name: &'static str,
    program: Program,
    /// The benchmark's reference checksum; files have no oracle.
    checksum: Option<u64>,
}

impl Target {
    /// A full-detail run of the target, verified when it has an oracle.
    fn spec(&self, scheme: Scheme, width: MachineWidth) -> RunSpec<'_> {
        RunSpec { checksum: self.checksum, ..RunSpec::new(self.name, &self.program, scheme, width) }
    }
}

/// Resolves the positional `<file|bench>` argument: an existing file is
/// loaded, anything else must name a benchmark.
fn load_target(args: &Args) -> Result<Target, CliError> {
    let target = args
        .positional
        .first()
        .ok_or_else(|| usage("missing program file or benchmark name; see `hpa list`"))?;
    if !std::path::Path::new(target).is_file() {
        return bench_target(target, scale_flag(args)?);
    }
    Ok(Target { name: PROGRAM, program: load_file(target)?.0, checksum: None })
}

fn bench_target(name: &str, scale: Scale) -> Result<Target, CliError> {
    let w = workload(name, scale).ok_or_else(|| {
        usage(format!("`{name}` is neither a file nor a benchmark; see `hpa list`"))
    })?;
    Ok(Target { name: w.name, program: w.program, checksum: Some(w.expected_checksum) })
}

/// Loads a program file, returning it with its raw form for a serve job.
/// Real RISC-V binaries go through the hpa-rv frontend; anything else is
/// internal assembly text.
fn load_file(path: &str) -> Result<(Program, JobProgram), CliError> {
    let bytes = std::fs::read(path).map_err(|e| other(format_args!("{path}: {e}")))?;
    if bytes.starts_with(b"\x7fELF") {
        let image =
            half_price::rv::load_elf(&bytes).map_err(|e| other(format_args!("{path}: {e}")))?;
        let program =
            half_price::rv::translate(&image).map_err(|e| other(format_args!("{path}: {e}")))?;
        return Ok((program, JobProgram::Binary(bytes)));
    }
    let source = String::from_utf8(bytes)
        .map_err(|e| other(format_args!("{path}: not an ELF and not UTF-8 assembly: {e}")))?;
    let program = parse_program(&source).map_err(|e| other(format_args!("{path}: {e}")))?;
    Ok((program, JobProgram::Source(source)))
}

fn cmd_asm(args: &Args) -> CliResult {
    let program = load_target(args)?.program;
    print!("{program}");
    println!("; {} instructions, {} bytes encoded", program.len(), program.len() * 4);
    Ok(())
}

fn cmd_run(args: &Args) -> CliResult {
    let program = load_target(args)?.program;
    let budget: u64 = num_flag(args, "--insts", 100_000_000)?;
    let mut emu = Emulator::new(&program);
    let outcome = emu.run(budget).map_err(other)?;
    println!("{outcome:?}");
    for r in 0..32 {
        let v = emu.reg(Reg::new(r));
        if v != 0 {
            println!("  r{r:<2} = {v:#x} ({v})");
        }
    }
    Ok(())
}

fn machine_width(args: &Args) -> Result<MachineWidth, CliError> {
    match args.value("--width") {
        None | Some("4") => Ok(MachineWidth::Four),
        Some("8") => Ok(MachineWidth::Eight),
        Some(o) => Err(usage(format!("bad --width {o}"))),
    }
}

fn print_stats(s: &SimStats) {
    println!("cycles            {:>12}", s.cycles);
    println!("committed         {:>12}", s.committed);
    println!("IPC               {:>12.3}", s.ipc());
    println!("branch mispredict {:>11.2}%", s.mispredict_rate() * 100.0);
    println!("DL1 miss rate     {:>11.2}%", s.hierarchy.dl1.miss_rate() * 100.0);
    println!("load-miss replays {:>12}", s.load_miss_replays);
    println!("replayed insts    {:>12}", s.replayed_insts);
    println!("avg RUU occupancy {:>12.1}", s.avg_window_occupancy());
    let issue_dist: Vec<String> = s
        .issue_histogram
        .iter()
        .map(|n| format!("{:.0}%", *n as f64 / s.cycles.max(1) as f64 * 100.0))
        .collect();
    println!("issue width dist  {:>12}", issue_dist.join("/"));
    if s.seq_rf_accesses + s.seq_wakeup_slow_last + s.simultaneous_wakeups + s.te_misfires > 0 {
        println!("half-price events:");
        println!("  seq RF accesses      {:>9}", s.seq_rf_accesses);
        println!("  slow-side arrivals   {:>9}", s.seq_wakeup_slow_last);
        println!("  simultaneous wakeups {:>9}", s.simultaneous_wakeups);
        println!("  TE misfires          {:>9}", s.te_misfires);
    }
    // The same digest the serve payloads carry, so a direct run and a
    // daemon result can be compared by grepping one line each.
    println!("stats digest      {}", format_hex(debug_digest(s)));
}

/// Parses `--sampled W:D:F` (plus the optional `--seed`);
/// [`Mode::Full`] when the flag is absent.
fn mode_flag(args: &Args) -> Result<Mode, CliError> {
    match args.value("--sampled") {
        None => Ok(Mode::Full),
        Some(v) => {
            let units = SampleUnits::parse(v).map_err(usage)?;
            let seed: u64 = num_flag(args, "--seed", 0)?;
            Ok(Mode::Sampled { units, seed })
        }
    }
}

/// Prints a sampled-mode estimate; the `mean IPC` line is the greppable
/// contract the accuracy gate in `tools/check.sh` relies on. Below two
/// measured windows there is no confidence interval: it prints `n/a`.
fn print_sampled(est: &SampledEstimate) {
    let ci = if est.ci_half_width.is_finite() {
        format!("{:.3}", est.ci_half_width)
    } else {
        "n/a".to_string()
    };
    println!("samples           {:>12}", est.samples.len());
    println!("mean IPC          {:>12.3} ± {ci} (95% CI)", est.mean_ipc);
    println!(
        "detailed insts    {:>12} ({:.2}% of {} executed)",
        est.detailed_insts,
        est.detail_fraction() * 100.0,
        est.total_insts
    );
}

fn cmd_sim(args: &Args) -> CliResult {
    sim_target(args, &load_target(args)?)
}

/// Simulates one program under the `hpa sim` flags and prints its run
/// record (`--json`) or a text report.
fn sim_target(args: &Args, target: &Target) -> CliResult {
    let scheme = parse_scheme(args.value("--scheme").unwrap_or("base"))?;
    let width = machine_width(args)?;
    let want_cpi = args.has("--cpi-stack");
    let want_counters = args.has("--counters");
    let trace: usize = num_flag(args, "--trace", 0)?;
    let spec = RunSpec {
        mode: mode_flag(args)?,
        counters: want_cpi || want_counters,
        ..target.spec(scheme, width)
    };
    if spec.mode != Mode::Full && (spec.counters || trace > 0) {
        return Err(usage("--sampled is incompatible with --cpi-stack/--counters/--trace"));
    }
    let (r, diagram) = if trace > 0 {
        let sim = traced_sim(&spec, trace)?;
        let r = RunResult {
            workload: target.name,
            scheme,
            width,
            stats: sim.stats().clone(),
            counters: spec.counters.then(|| sim.counters().clone()),
            sampled: None,
            phase_times: None,
        };
        (r, sim.pipetrace().map(|t| t.render()))
    } else {
        (run(&spec).map_err(run_error)?, None)
    };
    if args.has("--json") {
        println!("{}", r.to_json().render());
        return Ok(());
    }
    let how = match spec.mode {
        Mode::Full => String::new(),
        Mode::Sampled { units, seed } => format!(" (sampled {units}, seed {seed})"),
    };
    println!("`{}` under {} on the {} machine{how}:", target.name, scheme.label(), width.label());
    match &r.sampled {
        Some(est) => print_sampled(est),
        None => print_stats(&r.stats),
    }
    if let Some(c) = &r.counters {
        if want_cpi {
            println!("\n{}", render_cpi_stack(c, &r.stats));
        }
        if want_counters {
            println!("\n{c}");
        }
    }
    if let Some(d) = diagram {
        println!("\npipeline diagram (first {trace} committed instructions):");
        print!("{d}");
    }
    Ok(())
}

/// Simulates `spec` in full detail, recording a pipeline trace of the
/// first `insts` committed instructions, and verifies its checksum. The
/// trace lives in the simulator, so the two trace surfaces (`sim
/// --trace`, `trace-viz`) drive it directly instead of through [`run`];
/// failures still report through [`run_error`].
fn traced_sim(spec: &RunSpec<'_>, insts: usize) -> Result<Simulator, CliError> {
    let mut sim = Simulator::new(spec.program, spec.config.clone());
    sim.enable_trace(insts);
    if spec.counters {
        sim.enable_counters();
    }
    let name = spec.name.to_string();
    sim.try_run().map_err(|fault| run_error(RunError::Sim { name: name.clone(), fault }))?;
    let actual = sim.emulator().reg(CHECKSUM_REG);
    match spec.checksum {
        Some(expected) if actual != expected => {
            Err(run_error(RunError::ChecksumMismatch { name, actual, expected }))
        }
        _ => Ok(sim),
    }
}

/// Renders the CPI stack as a per-category table: issue slots charged,
/// percentage of `cycles x width`, and CPI contribution.
fn render_cpi_stack(c: &half_price::Counters, stats: &SimStats) -> String {
    use std::fmt::Write as _;
    let mut out = String::from("CPI stack (every issue slot of every cycle charged once):\n");
    let committed = stats.committed.max(1) as f64;
    for cat in half_price::CpiCategory::ALL {
        let slots = c.cpi.get(cat);
        if slots == 0 {
            continue;
        }
        let _ = writeln!(
            out,
            "  {:14} {:>12} slots {:>6.2}% {:>8.4} CPI",
            cat.key(),
            slots,
            100.0 * c.cpi.fraction(cat),
            slots as f64 / committed
        );
    }
    let _ = write!(
        out,
        "  {:14} {:>12} slots (= {} cycles x width)",
        "total",
        c.cpi.total(),
        stats.cycles
    );
    out
}

/// Exports per-instruction lifetime spans (fetch -> dispatch -> wakeup ->
/// select -> exec -> commit) as Chrome trace-event JSON; open the file at
/// `chrome://tracing` or <https://ui.perfetto.dev>.
fn cmd_trace_viz(args: &Args) -> CliResult {
    let target = load_target(args)?;
    let scheme = parse_scheme(args.value("--scheme").unwrap_or("base"))?;
    let width = machine_width(args)?;
    let insts: usize = num_flag(args, "--insts", 4096)?;
    if insts == 0 {
        return Err(usage("bad --insts `0` (want an integer >= 1)"));
    }
    let out = args.value("--out").unwrap_or("trace.json");
    let spec = target.spec(scheme, width);
    let sim = traced_sim(&spec, insts)?;
    let trace = sim.pipetrace().expect("trace was enabled");
    let spans = trace.chrome_spans(spec.config.frontend_depth);
    std::fs::write(out, half_price::obs::chrome::to_json(&spans).render() + "\n")
        .map_err(|e| other(format_args!("writing {out}: {e}")))?;
    println!(
        "wrote {} span(s) to {out} ({} committed, {} cycles under {})",
        spans.len(),
        sim.stats().committed,
        sim.stats().cycles,
        scheme.label()
    );
    Ok(())
}

/// Built-in benchmarks. One benchmark under one scheme is `hpa sim
/// <bench>`; `all` and `--scheme all` sweep (sampled sweeps run one
/// scheme, benchmark by benchmark).
fn cmd_bench(args: &Args) -> CliResult {
    let name =
        args.positional.first().ok_or_else(|| usage("missing benchmark name; see `hpa list`"))?;
    let scheme_key = args.value("--scheme").unwrap_or("base");
    if name != "all" && scheme_key != "all" {
        return cmd_sim(args);
    }
    let scale = scale_flag(args)?;
    let names: Vec<&str> =
        if name == "all" { WORKLOAD_NAMES.to_vec() } else { vec![name.as_str()] };
    if mode_flag(args)? != Mode::Full {
        if scheme_key == "all" {
            return Err(usage("--sampled runs one scheme at a time; pick --scheme S"));
        }
        for bench in names {
            sim_target(args, &bench_target(bench, scale)?)?;
        }
        return Ok(());
    }
    if ["--trace", "--cpi-stack", "--counters", "--json"].into_iter().any(|f| args.has(f)) {
        return Err(usage("--trace/--cpi-stack/--counters/--json run one benchmark and scheme"));
    }
    let schemes =
        if scheme_key == "all" { Scheme::ALL.to_vec() } else { vec![parse_scheme(scheme_key)?] };
    bench_matrix(&names, scale, machine_width(args)?, &schemes, jobs_flag(args)?)
}

/// Checks a program (or a whole corpus directory) against the lockstep
/// oracle. A single file runs either one scheme (`--scheme S`) or the full
/// differential set; a directory replays every `.s` reproducer in it.
fn cmd_verify(args: &Args) -> CliResult {
    let target = args
        .positional
        .first()
        .ok_or_else(|| usage("missing file or directory; usage: hpa verify <file.s|dir>"))?;
    let path = std::path::Path::new(target);

    if path.is_dir() {
        let report = verify::replay_dir(path).map_err(other)?;
        for (file, scheme, d) in &report.failures {
            eprintln!("FAIL {} under `{}`:\n{d}", file.display(), scheme.key());
        }
        if !report.failures.is_empty() {
            return Err(CliError::Fault(format!(
                "{} of {} corpus case(s) diverged",
                report.failures.len(),
                report.cases
            )));
        }
        println!("corpus clean: {} case(s) replayed from {target}", report.cases);
        return Ok(());
    }

    // ELF binaries go through the hpa-rv frontend (no corpus header);
    // corpus `.s` cases keep their recorded scheme and variant.
    let is_elf = std::fs::read(path).is_ok_and(|b| b.starts_with(b"\x7fELF"));
    let case = if is_elf {
        verify::CorpusCase {
            path: path.to_path_buf(),
            program: load_file(target)?.0,
            scheme: None,
            variant: verify::Variant::default(),
        }
    } else {
        verify::load_case(path).map_err(other)?
    };
    let mut variant = case.variant;
    if args.value("--width").is_some() {
        variant.width = machine_width(args)?;
    }
    match args.value("--scheme") {
        None | Some("all") => {
            verify::run_differential(&case.program, variant).map_err(|(scheme, d)| {
                CliError::Fault(format!("{target} diverged under `{}`:\n{d}", scheme.key()))
            })?;
            println!(
                "{target}: {} scheme(s) agree in lockstep on the {} machine",
                verify::FUZZ_SCHEMES.len(),
                variant.width.label()
            );
        }
        Some(key) => {
            let scheme = parse_scheme(key)?;
            let out = verify::run_lockstep(&case.program, variant.configure(scheme))
                .map_err(|d| CliError::Fault(format!("{target} diverged under `{key}`:\n{d}")))?;
            println!(
                "{target}: lockstep clean under {} ({} committed, {} cycles)",
                scheme.label(),
                out.committed,
                out.cycles
            );
        }
    }
    Ok(())
}

/// Runs a differential fuzzing campaign; shrunk reproducers for any
/// divergence land in the corpus directory (default `tests/corpus`).
fn cmd_fuzz(args: &Args) -> CliResult {
    let mut cfg = verify::FuzzConfig::default();
    cfg.iters = num_flag(args, "--iters", cfg.iters)?;
    cfg.seed = num_flag(args, "--seed", cfg.seed)?;
    cfg.jobs = jobs_flag(args)?;
    let corpus = args.value("--corpus").unwrap_or("tests/corpus");
    cfg.corpus_dir = Some(corpus.into());

    let t0 = std::time::Instant::now();
    let report = verify::fuzz(&cfg);
    println!(
        "fuzz: {} program(s), {} (program, scheme) check(s), seed {}, {} job(s), {:.1}s",
        report.iters,
        report.runs,
        cfg.seed,
        cfg.jobs,
        t0.elapsed().as_secs_f64()
    );
    if report.failures.is_empty() {
        println!("no divergences");
        return Ok(());
    }
    for f in &report.failures {
        eprintln!(
            "FAIL iteration {} under `{}` ({} machine):\n{}",
            f.index,
            f.scheme.key(),
            f.variant.width.label(),
            f.divergence
        );
        if let Some(p) = &f.reproducer {
            eprintln!("  reproducer written to {}", p.display());
        }
    }
    Err(CliError::Fault(format!(
        "{} divergence(s); reproducers in {corpus}",
        report.failures.len()
    )))
}

/// Runs a fault-injection campaign: seeded faults in the scheduler's
/// internal structures, each run classified Detected / Masked / Dormant / SDC via
/// the lockstep oracle, with a resilience report written as JSON.
fn cmd_faults(args: &Args) -> CliResult {
    let spec_str = args.value("--campaign").unwrap_or("mini");
    let seed: u64 = num_flag(args, "--seed", 42)?;
    let mut spec = faultsim::CampaignSpec::parse(spec_str, seed).map_err(usage)?;
    spec.jobs = jobs_flag(args)?;
    let corpus = args.value("--corpus").unwrap_or("tests/corpus");
    spec.corpus_dir = Some(corpus.into());
    let out_path = args.value("--out").unwrap_or("RESILIENCE.json");

    let t0 = std::time::Instant::now();
    let report = faultsim::run_campaign(&spec);
    print!("{}", report.table());
    println!(
        "\ncampaign `{spec_str}`: {} run(s), {} job(s), {:.1}s",
        report.cells.len(),
        spec.jobs,
        t0.elapsed().as_secs_f64()
    );
    std::fs::write(out_path, report.to_json().render() + "\n")
        .map_err(|e| other(format_args!("writing {out_path}: {e}")))?;
    println!("resilience report written to {out_path}");

    if report.sdc() > 0 {
        return Err(CliError::Sdc(format!(
            "{} run(s) ended in silent data corruption; shrunk reproducer(s) in {corpus}",
            report.sdc()
        )));
    }
    if !report.aborted.is_empty() {
        return Err(CliError::Fault(format!(
            "{} campaign cell(s) aborted (see the aborted cells above)",
            report.aborted.len()
        )));
    }
    Ok(())
}

/// Sweeps `names` × `schemes` and prints an IPC table, plus each
/// scheme's average degradation when base is in the sweep. A failed cell
/// prints as `failed`; the command then fails with the first failure,
/// after one stderr line for each other one.
fn bench_matrix(
    names: &[&str],
    scale: Scale,
    width: MachineWidth,
    schemes: &[Scheme],
    jobs: usize,
) -> CliResult {
    let t0 = std::time::Instant::now();
    let targets = names.iter().map(|n| bench_target(n, scale)).collect::<Result<Vec<_>, _>>()?;
    let specs: Vec<_> =
        targets.iter().flat_map(|t| schemes.iter().map(|&s| t.spec(s, width))).collect();
    let cells = half_price::run_all(&specs, jobs, |r| {
        eprintln!("  {} / {}: ipc {:.3}", r.workload, r.scheme.label(), r.stats.ipc());
    });
    println!(
        "{} benchmark(s) x {} scheme(s) on the {} machine ({jobs} job(s), {:.1}s):",
        names.len(),
        schemes.len(),
        width.label(),
        t0.elapsed().as_secs_f64()
    );
    let col = schemes.iter().map(|&s| s.key().len()).max().unwrap_or(0).max(8);
    print!("{:10}", "bench");
    for &s in schemes {
        print!(" {:>col$}", s.key());
    }
    println!();
    let mut m = MatrixResult { width, rows: Vec::new() };
    for (t, row) in targets.iter().zip(cells.chunks(schemes.len())) {
        print!("{:10}", t.name);
        for r in row {
            let ipc = r.as_ref().map_or("failed".into(), |r| format!("{:.3}", r.stats.ipc()));
            print!(" {ipc:>col$}");
        }
        println!();
        m.rows.push(row.iter().flatten().cloned().collect());
    }
    let has_base = schemes.contains(&Scheme::Base);
    for &s in schemes.iter().filter(|&&s| has_base && s != Scheme::Base) {
        println!("{}: average degradation {:.1}%", s.label(), m.average_degradation(s) * 100.0);
    }
    let mut failures = cells.into_iter().filter_map(Result::err);
    let Some(first) = failures.next() else { return Ok(()) };
    failures.for_each(|e| eprintln!("error: {e}"));
    Err(run_error(first))
}

/// The options `hpa report` and `hpa extensions` share; by default both
/// widths and all of the paper's programs.
fn harness_args(args: &Args) -> Result<HarnessArgs, CliError> {
    let mut benches = Vec::new();
    for name in args.values("--bench") {
        let known = WORKLOAD_NAMES.iter().find(|n| **n == name);
        benches.push(*known.ok_or_else(|| usage(format!("unknown benchmark `{name}`")))?);
    }
    Ok(HarnessArgs {
        scale: scale_flag(args)?,
        widths: match args.value("--width") {
            None | Some("both") => MachineWidth::ALL.to_vec(),
            Some(_) => vec![machine_width(args)?],
        },
        benches: if benches.is_empty() { WORKLOAD_NAMES.to_vec() } else { benches },
        jobs: jobs_flag(args)?,
        out: args.value("--out").unwrap_or("EXPERIMENTS.md").into(),
    })
}

/// Writes every table and figure of the paper to one markdown report.
fn cmd_report(args: &Args) -> CliResult {
    let args = harness_args(args)?;
    write_report(&args).map_err(|e| other(format_args!("writing {}: {e}", args.out)))
}

/// Prints the experiments beyond the paper's evaluation as tables.
fn cmd_extensions(args: &Args) -> CliResult {
    for t in extension_tables(&harness_args(args)?) {
        println!("{t}");
    }
    Ok(())
}

/// Runs the simulation-as-a-service daemon (or, with `--stop`, asks a
/// running one to shut down gracefully). Blocks until drained.
fn cmd_serve(args: &Args) -> CliResult {
    let addr = args.value("--addr").unwrap_or("127.0.0.1:8080").to_string();
    if args.has("--stop") {
        Client::new(addr.clone()).shutdown().map_err(other)?;
        println!("shutdown requested; {addr} is draining");
        return Ok(());
    }
    let workers = count_flag(args, "--jobs")?.unwrap_or(half_price::default_jobs().min(4));
    let cache_dir = args.value("--cache-dir").map(std::path::PathBuf::from);
    let cache_desc =
        cache_dir.as_ref().map_or_else(|| "memory only".to_string(), |d| d.display().to_string());
    let journal_dir = args.value("--journal-dir").map(std::path::PathBuf::from);
    let server = Server::bind(ServerConfig {
        addr,
        workers,
        cache_dir,
        journal_dir,
        max_queue: count_flag(args, "--max-queue")?,
        cache_max_entries: opt_num_flag(args, "--cache-max-entries")?,
        cache_max_bytes: opt_num_flag(args, "--cache-max-bytes")?,
    })
    .map_err(other)?;
    let local = server.local_addr().map_err(other)?;
    // The `listening on` line is the contract `tools/check.sh` parses to
    // discover the bound port; keep it first and stable.
    println!("hpa serve listening on {local} ({workers} worker(s), cache: {cache_desc})");
    if let Some(summary) = server.replay_summary() {
        println!("{summary}");
    }
    server.run().map_err(other)
}

/// Maps a client-side failure onto the CLI exit-code scheme: rejected
/// requests are usage errors, everything else is operational.
fn client_err(e: ClientError) -> CliError {
    match e {
        ClientError::Server { status: 400, message, .. } => usage(message),
        e => other(e),
    }
}

/// Submits one job to a running daemon and waits for its results.
fn cmd_submit(args: &Args) -> CliResult {
    let target = args
        .positional
        .first()
        .ok_or_else(|| usage("missing benchmark name or program file; see `hpa list`"))?;
    let addr = args.value("--addr").unwrap_or("127.0.0.1:8080").to_string();
    let scheme_key = args.value("--scheme").unwrap_or("base");
    let schemes =
        if scheme_key == "all" { Scheme::ALL.to_vec() } else { vec![parse_scheme(scheme_key)?] };
    let scale = scale_flag(args)?;
    let program = if std::path::Path::new(target).is_file() {
        // Load (and assemble or translate) locally first so a bad file
        // surfaces with the usual message instead of a daemon-side 400;
        // the daemon gets the raw text or bytes and loads them itself.
        load_file(target)?.1
    } else {
        JobProgram::Workload { name: target.clone(), scale }
    };
    let sampled = args.value("--sampled").map(SampleUnits::parse).transpose().map_err(usage)?;
    let request = JobRequest {
        program,
        width: machine_width(args)?,
        schemes,
        seed: num_flag(args, "--seed", 0)?,
        sampled,
        deadline_ms: opt_num_flag(args, "--deadline-ms")?,
        cycle_budget: num_flag(
            args,
            "--cycle-budget",
            half_price::serve::proto::DEFAULT_CYCLE_BUDGET,
        )?,
        pc_table_entries: None,
    };

    let client = Client::new(addr);
    let submit = client.submit(&request).map_err(client_err)?;
    if args.has("--no-wait") && !submit.status.is_terminal() {
        // Fire-and-forget: print the submit receipt; `hpa job <id>`
        // collects the results later (even across a daemon restart,
        // with a journal).
        if args.has("--json") {
            println!("{}", submit.to_json().render());
        } else {
            println!("job {} {} (cached: {})", submit.job_id, submit.status.key(), submit.cached);
        }
        return Ok(());
    }
    report_result(&client, submit.job_id, args)
}

/// Fetches one job's results from a running daemon, waiting for a
/// terminal state first.
fn cmd_job(args: &Args) -> CliResult {
    let id: u64 = args
        .positional
        .first()
        .ok_or_else(|| usage("missing job id; see `hpa submit`"))?
        .parse()
        .map_err(|_| usage("bad job id (want an integer)"))?;
    report_result(&Client::new(args.value("--addr").unwrap_or("127.0.0.1:8080")), id, args)
}

/// Waits up to `--wait-secs` for job `id`, prints its terminal result and
/// maps its status onto the exit-code scheme (shared by `hpa submit` and
/// `hpa job`). Cell headings name the workload from the payload itself,
/// so the caller needs no context.
fn report_result(client: &Client, id: u64, args: &Args) -> CliResult {
    let timeout = Duration::from_secs(num_flag(args, "--wait-secs", 600)?);
    let result = client.wait(id, timeout).map_err(client_err)?;
    if args.has("--json") {
        println!("{}", result.to_json().render());
    } else {
        println!("job {} {} (cached: {})", result.job_id, result.status.key(), result.cached);
        for cell in &result.cells {
            let p = cell.payload().unwrap_or(Json::Null);
            let target = p.get("workload").and_then(Json::as_str).unwrap_or("source");
            println!("`{target}` under {} (cached: {}):", cell.scheme.label(), cell.cached);
            if let Some(ipc) = p.get("ipc").and_then(Json::as_f64) {
                println!("  ipc               {ipc:>12.3}");
            }
            for field in ["cycles", "committed"] {
                if let Some(v) = p.get(field).and_then(Json::as_u64) {
                    println!("  {field:<17} {v:>12}");
                }
            }
            if let Some(d) = p.get("stats_digest").and_then(Json::as_str) {
                println!("  stats digest    {d:>14}");
            }
        }
    }
    match result.status {
        JobStatus::Done => Ok(()),
        JobStatus::Failed => {
            Err(CliError::Fault(result.error.unwrap_or_else(|| "job failed".to_string())))
        }
        JobStatus::Expired => Err(other(format_args!(
            "job {} expired: {}",
            result.job_id,
            result.error.as_deref().unwrap_or("deadline passed while queued")
        ))),
        s => Err(other(format_args!("job {} still {}", result.job_id, s.key()))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The [`HarnessArgs`] `hpa <verb> argv` builds.
    fn harness(verb: &str, argv: &[&str]) -> HarnessArgs {
        let cmd = COMMANDS.iter().find(|c| c.name == verb).expect("a registered verb");
        let argv: Vec<String> = argv.iter().map(|s| (*s).to_string()).collect();
        let args = cmd.parse(&argv).expect("parses").expect("not --help");
        harness_args(&args).expect("valid options")
    }

    #[test]
    fn defaults_cover_everything() {
        for verb in ["report", "extensions"] {
            let a = harness(verb, &[]);
            assert_eq!(a.scale, Scale::Default);
            assert_eq!(a.widths, vec![MachineWidth::Four, MachineWidth::Eight]);
            assert_eq!(a.benches.len(), 12);
        }
    }

    #[test]
    fn scale_width_and_bench_filters() {
        let argv = ["--scale", "tiny", "--width", "8", "--bench", "mcf", "--bench", "gcc"];
        for verb in ["report", "extensions"] {
            let a = harness(verb, &argv);
            assert_eq!(a.scale, Scale::Tiny);
            assert_eq!(a.widths, vec![MachineWidth::Eight]);
            assert_eq!(a.benches, vec!["mcf", "gcc"]);
            let b = harness(verb, &["--width", "both", "--scale", "large"]);
            assert_eq!(b.widths.len(), 2);
            assert_eq!(b.scale, Scale::Large);
        }
    }

    #[test]
    fn out_flag_sets_the_report_path() {
        assert_eq!(harness("report", &[]).out, "EXPERIMENTS.md");
        let a = harness("report", &["--out", "/tmp/report.md", "--scale", "tiny"]);
        assert_eq!(a.out, "/tmp/report.md");
        assert_eq!(a.scale, Scale::Tiny, "flags after --out still parse");
    }

    #[test]
    fn jobs_flag_overrides_host_parallelism() {
        for verb in ["report", "extensions"] {
            assert_eq!(harness(verb, &["--jobs", "3"]).jobs, 3);
            assert!(harness(verb, &[]).jobs >= 1);
        }
    }

    #[test]
    fn scale_keys_parse() {
        for scale in Scale::ALL {
            assert_eq!(harness("report", &["--scale", scale.key()]).scale, scale);
        }
    }
}
