//! Integration tests for the observability layer (`hpa-obs`):
//!
//! * **differential** — enabling the cycle-accounting counters changes
//!   neither the statistics nor the retire stream, bit for bit, for
//!   corpus reproducers and real workloads under every fuzzed scheme;
//! * **books balance** — the CPI stack of an observed run sums exactly
//!   to `cycles x width`;
//! * **trace round-trip** — Chrome trace-event JSON export reparses to
//!   the same spans, with one span per retired instruction and the
//!   pipeline stages in order (fetch <= dispatch <= wakeup <= select <
//!   exec <= commit).

use half_price::asm::{parse_program, Program};
use half_price::obs::chrome;
use half_price::sim::{CommitHook, CommitRecord, SimStats, Simulator};
use half_price::verify::FUZZ_SCHEMES;
use half_price::workloads::{workload, Scale};
use half_price::{Counters, MachineWidth, Scheme};
use std::cell::RefCell;
use std::rc::Rc;

/// Records the retire stream through shared ownership, so the test can
/// inspect it after the simulator consumes the hook.
#[derive(Clone, Debug)]
struct Recorder(Rc<RefCell<Vec<CommitRecord>>>);

impl CommitHook for Recorder {
    fn on_commit(&mut self, rec: &CommitRecord) -> Result<(), String> {
        self.0.borrow_mut().push(*rec);
        Ok(())
    }

    fn box_clone(&self) -> Box<dyn CommitHook> {
        Box::new(self.clone())
    }
}

/// Runs `program` and returns (stats, retire stream, counters).
fn run_recorded(
    program: &Program,
    scheme: Scheme,
    width: MachineWidth,
    observe: bool,
) -> (SimStats, Vec<CommitRecord>, Counters) {
    let mut sim = Simulator::new(program, scheme.configure(width));
    let stream = Rc::new(RefCell::new(Vec::new()));
    sim.set_commit_hook(Box::new(Recorder(Rc::clone(&stream))));
    if observe {
        sim.enable_counters();
    }
    sim.run();
    let counters = sim.counters().clone();
    let stats = sim.stats().clone();
    drop(sim);
    let stream = Rc::try_unwrap(stream).expect("simulator dropped its hook").into_inner();
    (stats, stream, counters)
}

/// Every `.s` reproducer in the corpus directory, parsed.
fn corpus_programs() -> Vec<(String, Program)> {
    let mut out = Vec::new();
    let mut entries: Vec<_> = std::fs::read_dir("tests/corpus")
        .expect("corpus directory exists")
        .map(|e| e.expect("readable entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "s"))
        .collect();
    entries.sort();
    for path in entries {
        let src = std::fs::read_to_string(&path).expect("readable corpus file");
        let prog = parse_program(&src).expect("corpus file parses");
        out.push((path.display().to_string(), prog));
    }
    assert!(!out.is_empty(), "corpus must contain reproducers");
    out
}

/// Enabling counters is purely observational: statistics and the retire
/// stream are bit-identical with and without them, and the observed run's
/// books balance, for every corpus reproducer and a real workload under
/// every scheme the differential fuzzer exercises.
#[test]
fn counters_do_not_perturb_stats_or_retire_stream() {
    let mut programs = corpus_programs();
    programs.push(("workload:gcc".into(), workload("gcc", Scale::Tiny).expect("known").program));
    programs.push(("workload:mcf".into(), workload("mcf", Scale::Tiny).expect("known").program));

    let width = MachineWidth::Four;
    let slots_per_cycle = u64::from(width.base_config().width);
    for (name, program) in &programs {
        for scheme in FUZZ_SCHEMES {
            let (plain_stats, plain_stream, plain_counters) =
                run_recorded(program, scheme, width, false);
            let (obs_stats, obs_stream, obs_counters) = run_recorded(program, scheme, width, true);

            assert!(!plain_counters.is_enabled());
            assert_eq!(plain_counters.cpi.total(), 0, "{name}: disabled counters stay zero");
            assert_eq!(
                plain_stats,
                obs_stats,
                "{name} under `{}`: counters must not perturb stats",
                scheme.key()
            );
            assert_eq!(
                plain_stream,
                obs_stream,
                "{name} under `{}`: counters must not perturb the retire stream",
                scheme.key()
            );
            assert_eq!(
                obs_counters.cpi.total(),
                obs_stats.cycles * slots_per_cycle,
                "{name} under `{}`: observed books must balance",
                scheme.key()
            );
        }
    }
}

/// The Chrome trace export round-trips through its own parser, covers
/// every retired instruction exactly once, and orders each instruction's
/// pipeline stages.
#[test]
fn chrome_trace_round_trips_and_nests() {
    let program = workload("gcc", Scale::Tiny).expect("known").program;
    let scheme = Scheme::Combined;
    let width = MachineWidth::Four;
    let config = scheme.configure(width);
    let frontend_depth = config.frontend_depth;

    let mut sim = Simulator::new(&program, config);
    sim.enable_trace(usize::MAX);
    sim.run();
    let spans = sim.pipetrace().expect("trace enabled").chrome_spans(frontend_depth);

    // One span per retired instruction, in retirement order, unique seqs.
    assert_eq!(spans.len() as u64, sim.stats().committed, "one span per retired instruction");
    for pair in spans.windows(2) {
        assert!(pair[0].seq < pair[1].seq, "seqs strictly increase in program order");
    }

    // Stage nesting holds for every span.
    for s in &spans {
        assert!(s.fetch <= s.dispatch, "seq {}: fetch <= dispatch", s.seq);
        assert!(s.dispatch <= s.wakeup, "seq {}: dispatch <= wakeup", s.seq);
        assert!(s.wakeup <= s.select, "seq {}: wakeup <= select", s.seq);
        assert!(s.select < s.complete, "seq {}: select < exec completion", s.seq);
        assert!(s.complete <= s.commit, "seq {}: exec <= commit", s.seq);
    }

    // Render -> parse is the identity.
    let json = chrome::to_json(&spans).render();
    let back = chrome::parse(&json).expect("exported trace reparses");
    assert_eq!(back, spans, "round trip preserves every span");
}
