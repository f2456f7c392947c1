//! `twolf` stand-in: simulated-annealing standard-cell placement — the
//! pick/swap/evaluate-delta/accept loop that dominates TimberWolf.

use super::{emit_align, emit_mix, Checksum, Regions};
use crate::{Scale, Workload, CHECKSUM_REG};
use hpa_asm::Asm;
use hpa_isa::Reg;

/// Number of cells (power of two so cell picking is a mask).
const CELLS: u64 = 256;
const GRID: u64 = 256;

const R_A: Reg = Reg::R1;
const R_B: Reg = Reg::R2;
const R_T1: Reg = Reg::R9;
const R_T2: Reg = Reg::R11;
const R_T3: Reg = Reg::R12;
const R_T4: Reg = Reg::R13;
const R_ITER: Reg = Reg::R14;
const R_STATE: Reg = Reg::R15;
const R_PX: Reg = Reg::R16;
const R_PY: Reg = Reg::R17;
const R_OLD: Reg = Reg::R18;
const R_NEW: Reg = Reg::R19;
const R_THRESH: Reg = Reg::R20;
const R_ARG: Reg = Reg::R22;
const R_RET: Reg = Reg::R23;
const R_DELTA: Reg = Reg::R24;
const R_ACCEPTS: Reg = Reg::R25;

fn xorshift(mut x: u64) -> u64 {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    x
}

struct Placement {
    px: Vec<u64>,
    py: Vec<u64>,
}

fn initial_placement() -> Placement {
    let mut state = 0x7770_1F2Eu64;
    let mut next = || {
        state = xorshift(state);
        state % GRID
    };
    let px = (0..CELLS).map(|_| next()).collect();
    let py = (0..CELLS).map(|_| next()).collect();
    Placement { px, py }
}

/// Half-perimeter cost of chain net `i` (connecting cells `i` and `i+1`).
fn net_cost(p: &Placement, i: i64) -> u64 {
    if i < 0 || i as u64 >= CELLS - 1 {
        return 0;
    }
    let i = i as usize;
    p.px[i].abs_diff(p.px[i + 1]) + p.py[i].abs_diff(p.py[i + 1])
}

fn reference(iters: u64) -> u64 {
    let mut p = initial_placement();
    let mut state = 0xA11E_A11Eu64;
    let mut accepts = 0u64;
    for iter in (1..=iters).rev() {
        state = xorshift(state);
        let a = (state & (CELLS - 1)) as usize;
        state = xorshift(state);
        let b = (state & (CELLS - 1)) as usize;
        let nets = [a as i64 - 1, a as i64, b as i64 - 1, b as i64];
        let old: u64 = nets.iter().map(|&n| net_cost(&p, n)).sum();
        p.px.swap(a, b);
        p.py.swap(a, b);
        let new: u64 = nets.iter().map(|&n| net_cost(&p, n)).sum();
        let delta = new as i64 - old as i64;
        let threshold = (iter >> 3) as i64;
        if delta <= threshold {
            accepts += 1;
        } else {
            p.px.swap(a, b);
            p.py.swap(a, b);
        }
    }
    let mut total = 0u64;
    for i in 0..CELLS as i64 {
        total += net_cost(&p, i);
    }
    let mut cs = Checksum::default();
    cs.mix(accepts);
    cs.mix(total);
    cs.0
}

/// Builds the workload.
#[must_use]
pub fn build(scale: Scale) -> Workload {
    let iters = 2048 * scale.factor(4);
    let expected = reference(iters);
    let p = initial_placement();

    let mut regions = Regions::new();
    let px_base = regions.alloc(CELLS * 16); // x then y coordinates
    let py_base = px_base + CELLS * 8;

    let mut a = Asm::new();
    a.data_u64s(px_base, &p.px);
    a.data_u64s(py_base, &p.py);

    a.li(R_PX, px_base as i64);
    a.li(R_PY, py_base as i64);
    a.li(R_STATE, 0xA11E_A11E);
    a.li(R_ITER, iters as i64);
    a.li(R_ACCEPTS, 0);
    a.br("start");

    // netcost subroutine: R_ARG = net index, result in R_RET.
    // Clobbers R_T1..R_T4.
    a.label("netcost");
    a.li(R_RET, 0);
    a.blt(R_ARG, "nc_done");
    a.cmplt(R_T1, R_ARG, (CELLS - 1) as i32);
    a.beq(R_T1, "nc_done");
    a.s8add(R_T1, R_ARG, R_PX);
    a.ldq(R_T2, R_T1, 0);
    a.ldq(R_T3, R_T1, 8);
    a.sub(R_T2, R_T2, R_T3);
    a.sra(R_T3, R_T2, 63);
    a.xor(R_T2, R_T2, R_T3);
    a.sub(R_T2, R_T2, R_T3); // |px[i] - px[i+1]|
    a.s8add(R_T1, R_ARG, R_PY);
    a.ldq(R_T4, R_T1, 0);
    a.ldq(R_T3, R_T1, 8);
    a.sub(R_T4, R_T4, R_T3);
    a.sra(R_T3, R_T4, 63);
    a.xor(R_T4, R_T4, R_T3);
    a.sub(R_T4, R_T4, R_T3);
    a.add(R_RET, R_T2, R_T4);
    a.label("nc_done");
    a.ret(Reg::R26);

    // swap subroutine: exchange positions of cells R_A and R_B.
    a.label("swap");
    a.s8add(R_T1, R_A, R_PX);
    a.s8add(R_T2, R_B, R_PX);
    a.ldq(R_T3, R_T1, 0);
    a.ldq(R_T4, R_T2, 0);
    a.stq(R_T4, R_T1, 0);
    a.stq(R_T3, R_T2, 0);
    a.s8add(R_T1, R_A, R_PY);
    a.s8add(R_T2, R_B, R_PY);
    a.ldq(R_T3, R_T1, 0);
    a.ldq(R_T4, R_T2, 0);
    a.stq(R_T4, R_T1, 0);
    a.stq(R_T3, R_T2, 0);
    a.ret(Reg::R26);

    // four_nets subroutine: R_RET accumulates the cost of the four nets
    // around cells A and B into R_NEW (caller moves it).
    a.label("four_nets");
    a.mov(Reg::R27, Reg::R26); // save outer link
    a.li(R_NEW, 0);
    for (cell, off) in [(R_A, -1), (R_A, 0), (R_B, -1), (R_B, 0)] {
        a.add(R_ARG, cell, off);
        a.bsr(Reg::R26, "netcost");
        a.add(R_NEW, R_NEW, R_RET);
    }
    a.ret(Reg::R27);

    a.label("start");
    a.label("anneal");
    emit_align(&mut a, 1);
    // a = xorshift(state) & mask; b likewise.
    for reg in [R_A, R_B] {
        a.sll(R_T1, R_STATE, 13);
        a.xor(R_STATE, R_STATE, R_T1);
        a.srl(R_T1, R_STATE, 7);
        a.xor(R_STATE, R_STATE, R_T1);
        a.sll(R_T1, R_STATE, 17);
        a.xor(R_STATE, R_STATE, R_T1);
        a.and_(reg, R_STATE, (CELLS - 1) as i32);
    }
    a.bsr(Reg::R26, "four_nets");
    a.mov(R_OLD, R_NEW);
    a.bsr(Reg::R26, "swap");
    a.bsr(Reg::R26, "four_nets");
    a.sub(R_DELTA, R_NEW, R_OLD);
    a.srl(R_THRESH, R_ITER, 3);
    a.cmple(R_T1, R_DELTA, R_THRESH);
    a.beq(R_T1, "reject");
    a.add(R_ACCEPTS, R_ACCEPTS, 1);
    a.br("next");
    a.label("reject");
    a.bsr(Reg::R26, "swap"); // undo
    a.label("next");
    a.sub(R_ITER, R_ITER, 1);
    a.bgt(R_ITER, "anneal");

    // Final cost over all nets.
    a.li(R_OLD, 0); // reuse as total
    a.li(R_A, 0);
    a.label("total");
    a.mov(R_ARG, R_A);
    a.bsr(Reg::R26, "netcost");
    a.add(R_OLD, R_OLD, R_RET);
    a.add(R_A, R_A, 1);
    a.cmplt(R_T1, R_A, CELLS as i32);
    a.bne(R_T1, "total");

    a.li(CHECKSUM_REG, 0);
    emit_mix(&mut a, R_ACCEPTS);
    emit_mix(&mut a, R_OLD);
    a.halt();

    regions.seal(Workload {
        name: "twolf",
        description: "simulated-annealing placement: swap, delta-cost, accept/reject",
        program: a.assemble().expect("twolf kernel assembles"),
        expected_checksum: expected,
        budget: 400 * iters + 50_000,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn net_cost_clips_range() {
        let p = initial_placement();
        assert_eq!(net_cost(&p, -1), 0);
        assert_eq!(net_cost(&p, CELLS as i64 - 1), 0);
        assert!(net_cost(&p, 0) < 2 * GRID);
    }

    #[test]
    fn annealing_accepts_some_and_rejects_some() {
        // Run the reference bookkeeping and make sure both paths trigger.
        let mut p = initial_placement();
        let mut state = 0xA11E_A11Eu64;
        let (mut accepts, mut rejects) = (0u64, 0u64);
        for iter in (1..=2048u64).rev() {
            state = xorshift(state);
            let a = (state & (CELLS - 1)) as usize;
            state = xorshift(state);
            let b = (state & (CELLS - 1)) as usize;
            let nets = [a as i64 - 1, a as i64, b as i64 - 1, b as i64];
            let old: u64 = nets.iter().map(|&n| net_cost(&p, n)).sum();
            p.px.swap(a, b);
            p.py.swap(a, b);
            let new: u64 = nets.iter().map(|&n| net_cost(&p, n)).sum();
            if (new as i64 - old as i64) <= (iter >> 3) as i64 {
                accepts += 1;
            } else {
                p.px.swap(a, b);
                p.py.swap(a, b);
                rejects += 1;
            }
        }
        assert!(accepts > 100, "accepts={accepts}");
        assert!(rejects > 100, "rejects={rejects}");
    }
}
