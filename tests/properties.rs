//! Property-style tests on the core invariants, driven by the workspace's
//! deterministic `SplitMix64` generator (proptest is unavailable offline):
//!
//! * the timing simulator and the functional emulator agree on final
//!   architectural state for arbitrary generated programs, under every
//!   scheme;
//! * instruction encode/decode and text assemble/disassemble round-trip;
//! * cache and predictor structures never violate their bounds;
//! * the circuit delay models are monotonic in their structural inputs.
//!
//! Each test sweeps a fixed set of seeds, so failures reproduce exactly:
//! re-run with the printed seed to replay a failing case.

use half_price::asm::{disassemble, parse_program, Asm, Program};
use half_price::cache::{Cache, CacheConfig};
use half_price::circuits::{RegFileDelayModel, WakeupDelayModel};
use half_price::emu::Emulator;
use half_price::isa::{decode, encode, AluOp, BranchCond, Inst, MemWidth, Reg, UnaryOp};
use half_price::sim::{RegFileScheme, SimConfig, Simulator, WakeupScheme};
use half_price::workloads::SplitMix64;

const DATA: i64 = 0x1_0000;

/// One step of a generated straight-line-with-forward-branches program.
#[derive(Clone, Debug)]
enum Step {
    Alu {
        op: AluOp,
        ra: u8,
        rb: Option<u8>,
        lit: i16,
        rc: u8,
    },
    Unary {
        op: UnaryOp,
        ra: u8,
        rc: u8,
    },
    Load {
        width: MemWidth,
        rt: u8,
        disp: i16,
    },
    Store {
        width: MemWidth,
        rt: u8,
        disp: i16,
    },
    /// Forward conditional branch skipping 1–3 instructions.
    Branch {
        cond: BranchCond,
        ra: u8,
        skip: u8,
    },
    Nop,
}

/// Registers r1..r15 are playground; r28 holds the data base.
fn gen_reg(rng: &mut SplitMix64) -> u8 {
    1 + rng.below(15) as u8
}

fn pick<T: Copy>(rng: &mut SplitMix64, items: &[T]) -> T {
    items[rng.below(items.len() as u64) as usize]
}

fn gen_step(rng: &mut SplitMix64) -> Step {
    // Weights mirror the old proptest distribution: 5 ALU, 1 unary,
    // 2 load, 2 store, 1 branch, 1 nop.
    match rng.below(12) {
        0..=4 => {
            let op = pick(rng, &AluOp::ALL);
            Step::Alu {
                op,
                ra: gen_reg(rng),
                // Literal forms only exist for the ops that encode them.
                rb: if rng.below(2) == 0 || !op.has_lit_form() { Some(gen_reg(rng)) } else { None },
                lit: rng.next_u64() as i16,
                rc: gen_reg(rng),
            }
        }
        5 => Step::Unary { op: pick(rng, &UnaryOp::ALL), ra: gen_reg(rng), rc: gen_reg(rng) },
        6 | 7 => Step::Load {
            width: pick(rng, &[MemWidth::Byte, MemWidth::Long, MemWidth::Quad]),
            rt: gen_reg(rng),
            disp: rng.below(4096) as i16,
        },
        8 | 9 => Step::Store {
            width: pick(rng, &[MemWidth::Byte, MemWidth::Long, MemWidth::Quad]),
            rt: gen_reg(rng),
            disp: rng.below(4096) as i16,
        },
        10 => Step::Branch {
            cond: pick(rng, &BranchCond::ALL),
            ra: gen_reg(rng),
            skip: 1 + rng.below(3) as u8,
        },
        _ => Step::Nop,
    }
}

fn gen_steps(rng: &mut SplitMix64, min: usize, max: usize) -> Vec<Step> {
    let n = min + rng.below((max - min) as u64) as usize;
    (0..n).map(|_| gen_step(rng)).collect()
}

/// Builds a terminating program: a prelude seeding registers, the steps,
/// then `halt`. Branches only skip forward, so termination is structural.
fn build_program(steps: &[Step]) -> Program {
    let mut a = Asm::new();
    a.li(Reg::R28, DATA);
    for (i, r) in (1u8..16).enumerate() {
        a.li(Reg::new(r), (i as i64 + 1) * 0x0123_4567 % 0x7FFF_FFFF);
    }
    for (idx, step) in steps.iter().enumerate() {
        match *step {
            Step::Alu { op, ra, rb, lit, rc } => {
                match rb {
                    Some(rb) => a.raw(Inst::op(op, Reg::new(ra), Reg::new(rb), Reg::new(rc))),
                    None => a.raw(Inst::op(op, Reg::new(ra), lit, Reg::new(rc))),
                };
            }
            Step::Unary { op, ra, rc } => {
                a.raw(Inst::Op1 { op, ra: Reg::new(ra), rc: Reg::new(rc) });
            }
            Step::Load { width, rt, disp } => {
                a.raw(Inst::Load { width, rt: Reg::new(rt), base: Reg::R28, disp });
            }
            Step::Store { width, rt, disp } => {
                a.raw(Inst::Store { width, rt: Reg::new(rt), base: Reg::R28, disp });
            }
            Step::Branch { cond, ra, skip } => {
                let skip = (skip as usize).min(steps.len() - idx - 1);
                a.raw(Inst::Branch { cond, ra: Reg::new(ra), disp: skip as i32 });
            }
            Step::Nop => {
                a.nop();
            }
        }
    }
    a.halt();
    a.assemble().expect("generated program assembles")
}

fn final_state(emu: &Emulator) -> Vec<u64> {
    (0..32).map(|r| emu.reg(Reg::new(r))).collect()
}

/// The heart of the test suite: for random programs, the out-of-order
/// timing simulator must visit exactly the functional emulator's
/// architectural states, under every scheduling/RF scheme.
#[test]
fn simulator_matches_emulator() {
    for seed in 0..48u64 {
        let mut rng = SplitMix64::new(seed);
        let steps = gen_steps(&mut rng, 1, 120);
        let program = build_program(&steps);
        let mut emu = Emulator::new(&program);
        emu.run(1_000_000).expect("terminates");
        assert!(emu.halted(), "seed {seed}");
        let want = final_state(&emu);

        for config in [
            SimConfig::four_wide(),
            SimConfig::eight_wide(),
            SimConfig::four_wide()
                .with_wakeup(WakeupScheme::SequentialWakeup { predictor_entries: Some(128) })
                .with_regfile(RegFileScheme::SequentialAccess),
            SimConfig::four_wide()
                .with_wakeup(WakeupScheme::TagElimination { predictor_entries: 128 }),
        ] {
            let mut sim = Simulator::new(&program, config);
            sim.run();
            assert_eq!(final_state(sim.emulator()), want, "seed {seed}");
            let s = sim.stats();
            assert!(s.cycles > 0, "seed {seed}");
            // Commit count = non-nop instructions executed.
            assert!(s.committed <= emu.executed(), "seed {seed}");
        }
    }
}

/// Stepping random programs cycle by cycle, the scheduler's internal
/// invariants (window sequencing, operand/producer consistency, rename
/// coherence, LSQ accounting) hold at every cycle boundary.
#[test]
fn scheduler_invariants_hold_cycle_by_cycle() {
    for seed in 100..116u64 {
        let mut rng = SplitMix64::new(seed);
        let steps = gen_steps(&mut rng, 1, 80);
        let program = build_program(&steps);
        for config in [
            SimConfig::four_wide(),
            SimConfig::four_wide()
                .with_wakeup(WakeupScheme::SequentialWakeup { predictor_entries: None })
                .with_regfile(RegFileScheme::SequentialAccess),
        ] {
            let mut sim = Simulator::new(&program, config);
            let mut guard = 0u32;
            loop {
                sim.step_cycle();
                sim.check_invariants().unwrap();
                guard += 1;
                assert!(guard < 200_000, "runaway at seed {seed}");
                // Done when everything except decode-eliminated nops
                // has committed.
                if sim.emulator().halted()
                    && sim.stats().committed + sim.stats().format.nops == sim.emulator().executed()
                {
                    break;
                }
            }
        }
    }
}

/// The cycle-accounting books always balance: every issue slot of every
/// cycle is charged to exactly one CPI-stack category, so the stack sums
/// to `cycles x width` exactly — for arbitrary programs, under every
/// scheme the differential fuzzer exercises. On the base machine the
/// half-price penalty categories and counters must all be zero.
#[test]
fn cpi_stack_books_balance_on_fuzzed_programs() {
    use half_price::verify::FUZZ_SCHEMES;
    use half_price::{MachineWidth, Scheme};

    let width = MachineWidth::Four;
    let slots_per_cycle = u64::from(width.base_config().width);
    for seed in 700..900u64 {
        let mut rng = SplitMix64::new(seed);
        let steps = gen_steps(&mut rng, 1, 100);
        let program = build_program(&steps);
        for scheme in FUZZ_SCHEMES {
            let mut sim = Simulator::new(&program, scheme.configure(width));
            sim.enable_counters();
            sim.run();
            let c = sim.counters();
            let s = sim.stats();
            assert_eq!(
                c.cpi.total(),
                s.cycles * slots_per_cycle,
                "seed {seed} under `{}`: CPI stack must sum to cycles x width",
                scheme.key()
            );
            if scheme == Scheme::Base {
                assert_eq!(
                    c.cpi.penalty_slots(),
                    0,
                    "seed {seed}: base machine has no half-price penalties"
                );
                assert_eq!(c.rf_rereads, 0, "seed {seed}: base machine never re-reads");
                assert_eq!(
                    c.slow_bus_occupancy.samples(),
                    0,
                    "seed {seed}: base machine has no slow wakeup bus"
                );
            }
        }
    }
}

#[test]
fn encode_decode_round_trips() {
    for seed in 200..232u64 {
        let mut rng = SplitMix64::new(seed);
        let steps = gen_steps(&mut rng, 1, 80);
        let program = build_program(&steps);
        for inst in program.insts() {
            let word = encode(inst);
            assert_eq!(&decode(word).unwrap(), inst, "seed {seed}");
        }
    }
}

#[test]
fn text_assembler_round_trips() {
    for seed in 300..324u64 {
        let mut rng = SplitMix64::new(seed);
        let steps = gen_steps(&mut rng, 1, 60);
        let program = build_program(&steps);
        let text = disassemble(&program);
        let back = parse_program(&text).expect("disassembly reparses");
        assert_eq!(back.insts(), program.insts(), "seed {seed}");
    }
}

#[test]
fn cache_counters_are_consistent() {
    for seed in 400..412u64 {
        let mut rng = SplitMix64::new(seed);
        let n = 1 + rng.below(299) as usize;
        let addrs: Vec<u64> = (0..n).map(|_| rng.below(65536)).collect();
        // Probing never disturbs statistics.
        let c =
            Cache::new(CacheConfig { size_bytes: 1024, line_bytes: 32, ways: 2, hit_latency: 1 });
        for &addr in &addrs {
            let _ = c.probe(addr);
        }
        assert_eq!(c.stats().accesses, 0);
        // Drive through a Hierarchy to exercise the access paths.
        let mut h = half_price::cache::Hierarchy::new(half_price::cache::HierarchyConfig::table1());
        for &addr in &addrs {
            let lat = h.data_read(addr);
            assert!(lat >= 2, "at least the DL1 hit latency (seed {seed})");
            assert!(h.dl1_would_hit(addr), "line resident after access (seed {seed})");
        }
        let s = h.stats();
        assert_eq!(s.dl1.accesses, addrs.len() as u64);
        assert!(s.dl1.hits <= s.dl1.accesses);
        assert!(s.l2.accesses <= s.dl1.accesses + s.dl1.misses());
    }
}

#[test]
fn delay_models_are_monotonic() {
    for seed in 500..532u64 {
        let mut rng = SplitMix64::new(seed);
        let entries = 16 + rng.below(496) as u32;
        let width = 2 + rng.below(14) as u32;
        let ports = 4 + rng.below(36) as u32;
        let w = WakeupDelayModel::calibrated_018um();
        assert!(w.delay(entries + 16, width, 2) > w.delay(entries, width, 2));
        assert!(w.delay(entries, width, 2) > w.delay(entries, width, 1));
        assert!(w.delay(entries, width + 1, 2) >= w.delay(entries, width, 2));
        let r = RegFileDelayModel::calibrated_018um();
        assert!(r.access_time(entries + 16, ports) > r.access_time(entries, ports));
        assert!(r.access_time(entries, ports + 1) > r.access_time(entries, ports));
    }
}

#[test]
fn last_arrival_predictor_is_bounded() {
    use half_price::bpred::{LastArrivalPredictor, Side};
    for seed in 600..608u64 {
        let mut rng = SplitMix64::new(seed);
        let mut p = LastArrivalPredictor::new(128);
        let n = rng.below(500);
        for _ in 0..n {
            let pc = rng.below(4096);
            let side = if rng.below(2) == 0 { Side::Left } else { Side::Right };
            p.update(pc * 4, side);
            // Prediction is always one of the two sides and never panics,
            // including for aliased and never-trained PCs.
            let _ = p.predict(pc * 4);
            let _ = p.predict((pc + 1) * 4);
        }
    }
}
