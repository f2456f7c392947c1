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

use half_price::asm::parse_program;
use half_price::emu::Emulator;
use half_price::faultsim;
use half_price::isa::Reg;
use half_price::obs::digest::debug_digest;
use half_price::sdk::{Client, ClientError};
use half_price::serve::proto::{JobProgram, JobRequest, JobStatus};
use half_price::serve::server::{Server, ServerConfig};
use half_price::sim::{SampleUnits, SampledEstimate, SimConfig, SimFault, SimStats, Simulator};
use half_price::verify;
use half_price::workloads::{workload, Scale, WORKLOAD_NAMES};
use half_price::{run, MachineWidth, Mode, RunError, RunSpec, Scheme};
use std::process::ExitCode;
use std::time::Duration;

/// One CLI subcommand: the single place a command's name, one-line help
/// and usage synopsis are registered. `main` dispatches from this table
/// and the global usage text is generated from it, so adding a command
/// is one entry here plus its handler.
struct Subcommand {
    /// The verb (`hpa <name> ...`).
    name: &'static str,
    /// One-line description for the command listing.
    help: &'static str,
    /// Usage synopsis (flags included).
    usage: &'static str,
    /// The handler, taking the arguments after the verb.
    run: fn(&[String]) -> CliResult,
}

/// The subcommand registry.
const COMMANDS: &[Subcommand] = &[
    Subcommand { name: "list", help: "workloads and schemes", usage: "hpa list", run: cmd_list },
    Subcommand {
        name: "asm",
        help: "assemble + disassemble a program",
        usage: "hpa asm <file.s>",
        run: cmd_asm,
    },
    Subcommand {
        name: "run",
        help: "functional execution, dump registers",
        usage: "hpa run <file.s|file.elf> [--insts N]",
        run: cmd_run,
    },
    Subcommand {
        name: "sim",
        help: "cycle-level simulation of one program",
        usage: "hpa sim <file.s> [--scheme S] [--width 4|8] [--trace N] [--cpi-stack] \
                [--counters] [--json] [--sampled W:D:F [--seed S]]",
        run: cmd_sim,
    },
    Subcommand {
        name: "bench",
        help: "built-in benchmarks (sweep with `all`)",
        usage: "hpa bench <name|all> [--scheme S|all] [--scale tiny|default|large|long] \
                [--width 4|8] [--jobs N] [--sampled W:D:F [--seed S]]",
        run: cmd_bench,
    },
    Subcommand {
        name: "counters",
        help: "cycle-accounting report",
        usage: "hpa counters <file.s|bench> [--scheme S] [--width 4|8] [--scale K] [--json]",
        run: cmd_counters,
    },
    Subcommand {
        name: "trace-viz",
        help: "Chrome trace-event JSON export",
        usage: "hpa trace-viz <file.s> [--scheme S] [--width 4|8] [--insts N] [--out FILE]",
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
        usage: "hpa fuzz [--iters N] [--seed S] [--jobs N] [--corpus DIR] [--sampled]",
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

fn usage_error(unknown: Option<&str>) -> CliError {
    use std::fmt::Write as _;
    let mut msg = String::new();
    if let Some(name) = unknown {
        let _ = writeln!(msg, "unknown command `{name}`");
    }
    let verbs: Vec<&str> = COMMANDS.iter().map(|c| c.name).collect();
    let _ = write!(msg, "usage: hpa <{}> ...", verbs.join("|"));
    for c in COMMANDS {
        let _ = write!(msg, "\n\n  {:10} {}\n             {}", c.name, c.help, c.usage);
    }
    CliError::Usage(msg)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some(name) => match COMMANDS.iter().find(|c| c.name == name) {
            Some(cmd) => (cmd.run)(&args[1..]),
            None => Err(usage_error(Some(name))),
        },
        None => Err(usage_error(None)),
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
        match self {
            CliError::Usage(m) | CliError::Fault(m) | CliError::Sdc(m) | CliError::Other(m) => {
                write!(f, "{m}")
            }
        }
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
/// bad input (exit 1, as `hpa run` reports it), an unknown benchmark is a
/// usage error, and a deadlock, invariant violation, checksum mismatch or
/// panicked cell is a detected fault (exit 3).
fn run_error(e: RunError) -> CliError {
    match e {
        RunError::UnknownWorkload { .. } => usage(format!("{e}; see `hpa list`")),
        RunError::Sim { fault: SimFault::Emu { .. }, .. } => other(e),
        _ => CliError::Fault(e.to_string()),
    }
}

/// [`RunSpec::name`] of a program loaded from a file.
const PROGRAM: &str = "program";

fn cmd_list(_args: &[String]) -> CliResult {
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

fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter().position(|a| a == name).and_then(|i| args.get(i + 1)).cloned()
}

/// Flags that take no value, so the positional-argument scan must not
/// treat their successor as a flag value.
const BOOL_FLAGS: [&str; 5] = ["--cpi-stack", "--counters", "--json", "--stop", "--no-wait"];

fn bool_flag(args: &[String], name: &str) -> bool {
    debug_assert!(BOOL_FLAGS.contains(&name));
    args.iter().any(|a| a == name)
}

/// Parses the value of `--name` as an integer, with a usage error naming
/// the flag on failure; `default` when the flag is absent.
fn num_flag<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> Result<T, CliError> {
    match flag(args, name) {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| usage(format!("bad {name} `{v}` (want an integer)"))),
    }
}

fn jobs_flag(args: &[String]) -> Result<usize, CliError> {
    let jobs = num_flag(args, "--jobs", half_price::default_jobs())?;
    if jobs == 0 {
        return Err(usage("bad --jobs `0` (want an integer >= 1)"));
    }
    Ok(jobs)
}

/// Parses `--scale`, defaulting to [`Scale::Default`].
fn scale_flag(args: &[String]) -> Result<Scale, CliError> {
    match flag(args, "--scale") {
        None => Ok(Scale::Default),
        Some(v) => Scale::from_key(&v).ok_or_else(|| usage(format!("bad --scale {v}"))),
    }
}

fn load_program(args: &[String]) -> Result<half_price::asm::Program, CliError> {
    let path = args
        .iter()
        .find(|a| !a.starts_with("--") && !is_flag_value(args, a))
        .ok_or_else(|| usage("missing program file argument"))?;
    let bytes = std::fs::read(path).map_err(|e| other(format_args!("{path}: {e}")))?;
    // Real RISC-V binaries go through the hpa-rv frontend; anything else
    // is internal assembly text.
    if bytes.starts_with(b"\x7fELF") {
        let image =
            half_price::rv::load_elf(&bytes).map_err(|e| other(format_args!("{path}: {e}")))?;
        return half_price::rv::translate(&image).map_err(|e| other(format_args!("{path}: {e}")));
    }
    let source = String::from_utf8(bytes)
        .map_err(|e| other(format_args!("{path}: not an ELF and not UTF-8 assembly: {e}")))?;
    parse_program(&source).map_err(|e| other(format_args!("{path}: {e}")))
}

fn cmd_asm(args: &[String]) -> CliResult {
    let program = load_program(args)?;
    print!("{program}");
    println!("; {} instructions, {} bytes encoded", program.len(), program.len() * 4);
    Ok(())
}

fn cmd_run(args: &[String]) -> CliResult {
    let program = load_program(args)?;
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

fn machine_width(args: &[String]) -> Result<MachineWidth, CliError> {
    match flag(args, "--width").as_deref() {
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
    println!("stats digest      {}", half_price::serve::proto::format_hex(debug_digest(s)));
}

/// Parses `--sampled W:D:F` (plus the optional `--seed`);
/// [`Mode::Full`] when the flag is absent.
fn mode_flag(args: &[String]) -> Result<Mode, CliError> {
    match flag(args, "--sampled") {
        None => Ok(Mode::Full),
        Some(v) => {
            let units = SampleUnits::parse(&v).map_err(usage)?;
            let seed: u64 = num_flag(args, "--seed", 0)?;
            Ok(Mode::Sampled { units, seed })
        }
    }
}

/// Prints a sampled-mode estimate; the `mean IPC` line is the greppable
/// contract the accuracy gate in `tools/check.sh` relies on.
fn print_sampled(est: &SampledEstimate) {
    println!("samples           {:>12}", est.samples.len());
    println!("mean IPC          {:>12.3} ± {:.3} (95% CI)", est.mean_ipc, est.ci_half_width);
    println!(
        "detailed insts    {:>12} ({:.2}% of {} executed)",
        est.detailed_insts,
        est.detail_fraction() * 100.0,
        est.total_insts
    );
}

fn cmd_sim(args: &[String]) -> CliResult {
    let program = load_program(args)?;
    let scheme = parse_scheme(&flag(args, "--scheme").unwrap_or_else(|| "base".into()))?;
    let width = machine_width(args)?;
    let want_cpi = bool_flag(args, "--cpi-stack");
    let want_counters = bool_flag(args, "--counters");
    let trace: usize = num_flag(args, "--trace", 0)?;
    let spec = RunSpec {
        mode: mode_flag(args)?,
        counters: want_cpi || want_counters,
        ..RunSpec::new(PROGRAM, &program, scheme, width)
    };
    if let Mode::Sampled { units, seed } = spec.mode {
        if spec.counters || bool_flag(args, "--json") {
            return Err(usage("--sampled is incompatible with --json/--cpi-stack/--counters"));
        }
        if trace > 0 {
            return Err(usage("--sampled is incompatible with --trace"));
        }
        let r = run(&spec).map_err(run_error)?;
        println!(
            "{} on the {} machine (sampled {units}, seed {seed}):",
            scheme.label(),
            width.label()
        );
        print_sampled(&r.sampled.expect("sampled run records an estimate"));
        return Ok(());
    }
    let (stats, counters, diagram) = if trace > 0 {
        let sim = traced_sim(&program, spec.config, trace, spec.counters)?;
        let diagram = sim.pipetrace().map(|t| t.render());
        (sim.stats().clone(), spec.counters.then(|| sim.counters().clone()), diagram)
    } else {
        let r = run(&spec).map_err(run_error)?;
        (r.stats, r.counters, None)
    };
    if bool_flag(args, "--json") {
        println!("{}", stats.to_json().render());
        return Ok(());
    }
    println!("{} on the {} machine:", scheme.label(), width.label());
    print_stats(&stats);
    if let Some(c) = &counters {
        if want_cpi {
            println!("\n{}", render_cpi_stack(c, &stats));
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

/// Simulates `program` recording a pipeline trace of the first `insts`
/// committed instructions. The trace lives in the simulator, so the two
/// trace surfaces (`sim --trace`, `trace-viz`) drive it directly instead
/// of through [`run`]; a fault still reports through [`run_error`].
fn traced_sim(
    program: &half_price::asm::Program,
    config: SimConfig,
    insts: usize,
    counters: bool,
) -> Result<Simulator, CliError> {
    let mut sim = Simulator::new(program, config);
    sim.enable_trace(insts);
    if counters {
        sim.enable_counters();
    }
    sim.try_run().map_err(|fault| run_error(RunError::Sim { name: PROGRAM.into(), fault }))?;
    Ok(sim)
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

/// Cycle-accounting report for a program file or built-in benchmark:
/// CPI stack plus the counter registry, human-readable or `--json`.
fn cmd_counters(args: &[String]) -> CliResult {
    let target = args
        .iter()
        .find(|a| !a.starts_with("--") && !is_flag_value(args, a))
        .ok_or_else(|| usage("missing program file or benchmark name; see `hpa list`"))?;
    let scheme = parse_scheme(&flag(args, "--scheme").unwrap_or_else(|| "base".into()))?;
    let width = machine_width(args)?;

    let (program, w);
    let spec = if std::path::Path::new(target).is_file() {
        program = load_program(args)?;
        RunSpec::new(PROGRAM, &program, scheme, width)
    } else {
        w = workload(target, scale_flag(args)?).ok_or_else(|| {
            usage(format!("`{target}` is neither a file nor a benchmark; see `hpa list`"))
        })?;
        RunSpec::workload(&w, scheme, width)
    };
    let r = run(&RunSpec { counters: true, ..spec }).map_err(run_error)?;
    let (counters, stats) = (r.counters.expect("counters were on"), r.stats);

    if bool_flag(args, "--json") {
        println!("{}", counters.to_json().render());
        return Ok(());
    }
    println!("`{target}` under {} on the {} machine:", scheme.label(), width.label());
    println!("{}", render_cpi_stack(&counters, &stats));
    println!("\n{counters}");
    Ok(())
}

/// Exports per-instruction lifetime spans (fetch -> dispatch -> wakeup ->
/// select -> exec -> commit) as Chrome trace-event JSON; open the file at
/// `chrome://tracing` or <https://ui.perfetto.dev>.
fn cmd_trace_viz(args: &[String]) -> CliResult {
    let program = load_program(args)?;
    let scheme = parse_scheme(&flag(args, "--scheme").unwrap_or_else(|| "base".into()))?;
    let width = machine_width(args)?;
    let insts: usize = num_flag(args, "--insts", 4096)?;
    if insts == 0 {
        return Err(usage("bad --insts `0` (want an integer >= 1)"));
    }
    let out = flag(args, "--out").unwrap_or_else(|| "trace.json".into());
    let config = scheme.configure(width);
    let frontend_depth = config.frontend_depth;
    let sim = traced_sim(&program, config, insts, false)?;
    let trace = sim.pipetrace().expect("trace was enabled");
    let spans = trace.chrome_spans(frontend_depth);
    std::fs::write(&out, half_price::obs::chrome::to_json(&spans).render() + "\n")
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

fn cmd_bench(args: &[String]) -> CliResult {
    let name = args
        .iter()
        .find(|a| !a.starts_with("--") && !is_flag_value(args, a))
        .ok_or_else(|| usage("missing benchmark name; see `hpa list`"))?;
    let scale = scale_flag(args)?;
    let width = machine_width(args)?;
    let jobs = jobs_flag(args)?;
    let scheme_key = flag(args, "--scheme").unwrap_or_else(|| "base".into());
    let names: Vec<&str> =
        if name == "all" { WORKLOAD_NAMES.to_vec() } else { vec![name.as_str()] };
    let mode = mode_flag(args)?;
    if let Mode::Sampled { units, seed } = mode {
        if scheme_key == "all" {
            return Err(usage("--sampled runs one scheme at a time; pick --scheme S"));
        }
        let scheme = parse_scheme(&scheme_key)?;
        for bench in &names {
            let w = workload(bench, scale).ok_or_else(|| {
                run_error(RunError::UnknownWorkload { name: (*bench).to_string() })
            })?;
            let r = run(&RunSpec { mode, ..RunSpec::workload(&w, scheme, width) })
                .map_err(run_error)?;
            println!(
                "`{bench}` under {} on the {} machine (sampled {units}, seed {seed}):",
                scheme.label(),
                width.label()
            );
            print_sampled(&r.sampled.expect("sampled run records an estimate"));
        }
        return Ok(());
    }
    if scheme_key == "all" {
        return bench_matrix(&names, scale, width, jobs);
    }
    let scheme = parse_scheme(&scheme_key)?;
    if names.len() > 1 {
        return bench_matrix_schemes(&names, scale, width, &[scheme], jobs);
    }
    let r = half_price::run_workload(name, scale, width, scheme).map_err(run_error)?;
    println!("`{name}` under {} on the {} machine:", scheme.label(), width.label());
    print_stats(&r.stats);
    Ok(())
}

/// Checks a program (or a whole corpus directory) against the lockstep
/// oracle. A single file runs either one scheme (`--scheme S`) or the full
/// differential set; a directory replays every `.s` reproducer in it.
fn cmd_verify(args: &[String]) -> CliResult {
    let target = args
        .iter()
        .find(|a| !a.starts_with("--") && !is_flag_value(args, a))
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
    // corpus `.s` cases keep their recorded scheme/width.
    let is_elf = std::fs::read(path).is_ok_and(|b| b.starts_with(b"\x7fELF"));
    let case = if is_elf {
        verify::CorpusCase {
            path: path.to_path_buf(),
            program: load_program(args)?,
            scheme: None,
            width: MachineWidth::Four,
        }
    } else {
        verify::load_case(path).map_err(other)?
    };
    let width = if flag(args, "--width").is_some() { machine_width(args)? } else { case.width };
    let variant = verify::Variant { width, selective_recovery: false, small_pc_table: false };
    match flag(args, "--scheme").as_deref() {
        None | Some("all") => {
            verify::run_differential(&case.program, variant).map_err(|(scheme, d)| {
                CliError::Fault(format!("{target} diverged under `{}`:\n{d}", scheme.key()))
            })?;
            println!(
                "{target}: {} scheme(s) agree in lockstep on the {} machine",
                verify::FUZZ_SCHEMES.len(),
                width.label()
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
fn cmd_fuzz(args: &[String]) -> CliResult {
    let mut cfg = verify::FuzzConfig::default();
    cfg.iters = num_flag(args, "--iters", cfg.iters)?;
    cfg.seed = num_flag(args, "--seed", cfg.seed)?;
    cfg.jobs = jobs_flag(args)?;
    // `--sampled` takes no value here: it switches the differential check
    // to the tiered variant (snapshot windows + sampled runner replay).
    cfg.sampled = args.iter().any(|a| a == "--sampled");
    let corpus = flag(args, "--corpus").unwrap_or_else(|| "tests/corpus".into());
    cfg.corpus_dir = Some(corpus.clone().into());

    let t0 = std::time::Instant::now();
    let report = verify::fuzz(&cfg);
    println!(
        "fuzz{}: {} program(s), {} lockstep run(s), seed {}, {} job(s), {:.1}s",
        if cfg.sampled { " (sampled)" } else { "" },
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
/// internal structures, each run classified Detected / Masked / SDC via
/// the lockstep oracle, with a resilience report written as JSON.
fn cmd_faults(args: &[String]) -> CliResult {
    let spec_str = flag(args, "--campaign").unwrap_or_else(|| "mini".into());
    let seed: u64 = num_flag(args, "--seed", 42)?;
    let mut spec = faultsim::CampaignSpec::parse(&spec_str, seed).map_err(usage)?;
    spec.jobs = jobs_flag(args)?;
    let corpus = flag(args, "--corpus").unwrap_or_else(|| "tests/corpus".into());
    spec.corpus_dir = Some(corpus.clone().into());
    let out_path = flag(args, "--out").unwrap_or_else(|| "RESILIENCE.json".into());

    let t0 = std::time::Instant::now();
    let report = faultsim::run_campaign(&spec);
    print!("{}", report.table());
    println!(
        "\ncampaign `{spec_str}`: {} run(s), {} job(s), {:.1}s",
        report.cells.len(),
        spec.jobs,
        t0.elapsed().as_secs_f64()
    );
    std::fs::write(&out_path, report.to_json().render() + "\n")
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
            "{} campaign cell(s) failed every attempt (see job errors above)",
            report.aborted.len()
        )));
    }
    Ok(())
}

/// Whether `a` is the value of a preceding `--flag` (so the benchmark-name
/// scan skips e.g. the `4` of `--jobs 4`).
fn is_flag_value(args: &[String], a: &String) -> bool {
    args.iter()
        .position(|x| std::ptr::eq(x, a))
        .and_then(|i| i.checked_sub(1))
        .and_then(|i| args.get(i))
        .is_some_and(|prev| prev.starts_with("--") && !BOOL_FLAGS.contains(&prev.as_str()))
}

/// Sweeps `names` × all schemes and prints an IPC table (base-normalized).
fn bench_matrix(names: &[&str], scale: Scale, width: MachineWidth, jobs: usize) -> CliResult {
    bench_matrix_schemes(names, scale, width, &Scheme::ALL, jobs)
}

fn bench_matrix_schemes(
    names: &[&str],
    scale: Scale,
    width: MachineWidth,
    schemes: &[Scheme],
    jobs: usize,
) -> CliResult {
    let t0 = std::time::Instant::now();
    let m = half_price::run_matrix(names, scale, width, schemes, jobs, false, |r| {
        eprintln!("  {} / {}: ipc {:.3}", r.workload, r.scheme.label(), r.stats.ipc());
    })
    .map_err(run_error)?;
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
    for row in &m.rows {
        print!("{:10}", row.first().map_or("-", |r| r.workload));
        for r in row {
            print!(" {:>col$.3}", r.stats.ipc());
        }
        println!();
    }
    if schemes.contains(&Scheme::Base) {
        for &s in schemes {
            if s == Scheme::Base {
                continue;
            }
            println!("{}: average degradation {:.1}%", s.label(), m.average_degradation(s) * 100.0);
        }
    }
    Ok(())
}

/// Runs the simulation-as-a-service daemon (or, with `--stop`, asks a
/// running one to shut down gracefully). Blocks until drained.
fn cmd_serve(args: &[String]) -> CliResult {
    let addr = flag(args, "--addr").unwrap_or_else(|| "127.0.0.1:8080".into());
    if bool_flag(args, "--stop") {
        Client::new(addr.clone()).shutdown().map_err(other)?;
        println!("shutdown requested; {addr} is draining");
        return Ok(());
    }
    let workers = num_flag(args, "--jobs", half_price::default_jobs().min(4))?;
    if workers == 0 {
        return Err(usage("bad --jobs `0` (want an integer >= 1)"));
    }
    let cache_dir = flag(args, "--cache-dir").map(std::path::PathBuf::from);
    let cache_desc =
        cache_dir.as_ref().map_or_else(|| "memory only".to_string(), |d| d.display().to_string());
    let journal_dir = flag(args, "--journal-dir").map(std::path::PathBuf::from);
    let max_queue = match flag(args, "--max-queue") {
        None => None,
        Some(v) => Some(
            v.parse::<usize>()
                .ok()
                .filter(|&n| n > 0)
                .ok_or_else(|| usage(format!("bad --max-queue `{v}` (want an integer >= 1)")))?,
        ),
    };
    let cache_max_entries = match flag(args, "--cache-max-entries") {
        None => None,
        Some(v) => Some(
            v.parse::<usize>()
                .map_err(|_| usage(format!("bad --cache-max-entries `{v}` (want an integer)")))?,
        ),
    };
    let cache_max_bytes = match flag(args, "--cache-max-bytes") {
        None => None,
        Some(v) => Some(
            v.parse::<u64>()
                .map_err(|_| usage(format!("bad --cache-max-bytes `{v}` (want an integer)")))?,
        ),
    };
    let server = Server::bind(ServerConfig {
        addr,
        workers,
        cache_dir,
        journal_dir,
        max_queue,
        cache_max_entries,
        cache_max_bytes,
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
fn cmd_submit(args: &[String]) -> CliResult {
    let target = args
        .iter()
        .find(|a| !a.starts_with("--") && !is_flag_value(args, a))
        .ok_or_else(|| usage("missing benchmark name or program file; see `hpa list`"))?;
    let addr = flag(args, "--addr").unwrap_or_else(|| "127.0.0.1:8080".into());
    let scheme_key = flag(args, "--scheme").unwrap_or_else(|| "base".into());
    let schemes =
        if scheme_key == "all" { Scheme::ALL.to_vec() } else { vec![parse_scheme(&scheme_key)?] };
    let scale = scale_flag(args)?;
    let program = if std::path::Path::new(target).is_file() {
        let bytes = std::fs::read(target).map_err(|e| other(format_args!("{target}: {e}")))?;
        if bytes.starts_with(b"\x7fELF") {
            // Load + translate locally first so a bad binary surfaces
            // with the usual message instead of a daemon-side 400; the
            // daemon re-translates the raw bytes itself.
            let image = half_price::rv::load_elf(&bytes)
                .map_err(|e| other(format_args!("{target}: {e}")))?;
            half_price::rv::translate(&image).map_err(|e| other(format_args!("{target}: {e}")))?;
            JobProgram::Binary(bytes)
        } else {
            let source = String::from_utf8(bytes)
                .map_err(|e| other(format_args!("{target}: not an ELF and not UTF-8: {e}")))?;
            // Assemble locally first so syntax errors surface with the
            // usual message instead of a daemon-side 400.
            parse_program(&source).map_err(|e| other(format_args!("{target}: {e}")))?;
            JobProgram::Source(source)
        }
    } else {
        JobProgram::Workload { name: target.clone(), scale }
    };
    let sampled = match flag(args, "--sampled") {
        None => None,
        Some(v) => Some(SampleUnits::parse(&v).map_err(usage)?),
    };
    let request = JobRequest {
        program,
        width: machine_width(args)?,
        schemes,
        seed: num_flag(args, "--seed", 0)?,
        sampled,
        deadline_ms: match flag(args, "--deadline-ms") {
            None => None,
            Some(v) => Some(
                v.parse()
                    .map_err(|_| usage(format!("bad --deadline-ms `{v}` (want an integer)")))?,
            ),
        },
        cycle_budget: num_flag(
            args,
            "--cycle-budget",
            half_price::serve::proto::DEFAULT_CYCLE_BUDGET,
        )?,
        pc_table_entries: None,
    };

    let client = Client::new(addr);
    let submit = client.submit(&request).map_err(client_err)?;
    if bool_flag(args, "--no-wait") && !submit.status.is_terminal() {
        // Fire-and-forget: print the submit receipt; `hpa job <id>`
        // collects the results later (even across a daemon restart,
        // with a journal).
        if bool_flag(args, "--json") {
            println!("{}", submit.to_json().render());
        } else {
            println!("job {} {} (cached: {})", submit.job_id, submit.status.key(), submit.cached);
        }
        return Ok(());
    }
    let result = if submit.status.is_terminal() {
        client.result(submit.job_id).map_err(client_err)?
    } else {
        let timeout = Duration::from_secs(num_flag(args, "--wait-secs", 600)?);
        client.wait(submit.job_id, timeout).map_err(client_err)?
    };
    report_result(result, bool_flag(args, "--json"))
}

/// Fetches one job's results from a running daemon, waiting for a
/// terminal state first.
fn cmd_job(args: &[String]) -> CliResult {
    let id: u64 = args
        .iter()
        .find(|a| !a.starts_with("--") && !is_flag_value(args, a))
        .ok_or_else(|| usage("missing job id; see `hpa submit`"))?
        .parse()
        .map_err(|_| usage("bad job id (want an integer)"))?;
    let addr = flag(args, "--addr").unwrap_or_else(|| "127.0.0.1:8080".into());
    let client = Client::new(addr);
    let timeout = Duration::from_secs(num_flag(args, "--wait-secs", 600)?);
    let result = client.wait(id, timeout).map_err(client_err)?;
    report_result(result, bool_flag(args, "--json"))
}

/// Prints a terminal job result and maps its status onto the exit-code
/// scheme (shared by `hpa submit` and `hpa job`). Cell headings name the
/// workload from the payload itself, so the caller needs no context.
fn report_result(result: half_price::serve::proto::ResultResponse, json: bool) -> CliResult {
    if json {
        println!("{}", result.to_json().render());
    } else {
        println!("job {} {} (cached: {})", result.job_id, result.status.key(), result.cached);
        for cell in &result.cells {
            let scheme = cell.scheme;
            let target = cell
                .payload()
                .and_then(|p| p.get("workload").and_then(|w| w.as_str().map(str::to_string)))
                .unwrap_or_else(|| "source".to_string());
            println!("`{target}` under {} (cached: {}):", scheme.label(), cell.cached);
            if let Some(p) = cell.payload() {
                if let Some(ipc) = cell.ipc() {
                    println!("  ipc               {ipc:>12.3}");
                }
                for field in ["cycles", "committed"] {
                    if let Some(v) = p.get(field).and_then(half_price::obs::json::Json::as_u64) {
                        println!("  {field:<17} {v:>12}");
                    }
                }
                if let Some(d) = p.get("stats_digest").and_then(half_price::obs::json::Json::as_str)
                {
                    println!("  stats digest    {d:>14}");
                }
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
