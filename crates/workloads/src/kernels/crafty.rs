//! `crafty` stand-in: bitboard attack generation — the scan-bits /
//! table-lookup / popcount loop at the heart of a chess move generator.

use super::{emit_align, emit_mix, Checksum, Regions};
use crate::{Scale, SplitMix64, Workload, CHECKSUM_REG};
use hpa_asm::Asm;
use hpa_isa::Reg;

const R_P: Reg = Reg::R1; // board cursor
const R_END: Reg = Reg::R2;
const R_TBL: Reg = Reg::R3; // knight-attack table base
const R_B: Reg = Reg::R4; // remaining piece bits
const R_SQ: Reg = Reg::R5; // current square
const R_ATK: Reg = Reg::R6; // attack set of one knight
const R_ACC: Reg = Reg::R7; // union of attacks
const R_K: Reg = Reg::R8; // popcount
const R_ADDR: Reg = Reg::R9;
const R_TMP: Reg = Reg::R11;
const R_PST: Reg = Reg::R12; // piece-square table base
const R_SCORE: Reg = Reg::R13;
const R_OUT: Reg = Reg::R14; // per-board result cursor

/// Knight attack set from a square, file/rank-clipped.
fn knight_attacks(sq: u32) -> u64 {
    let (f, r) = ((sq % 8) as i32, (sq / 8) as i32);
    let mut atk = 0u64;
    for (df, dr) in [(1, 2), (2, 1), (2, -1), (1, -2), (-1, -2), (-2, -1), (-2, 1), (-1, 2)] {
        let (nf, nr) = (f + df, r + dr);
        if (0..8).contains(&nf) && (0..8).contains(&nr) {
            atk |= 1 << (nr * 8 + nf);
        }
    }
    atk
}

fn generate_boards(count: usize) -> Vec<u64> {
    let mut rng = SplitMix64::new(0xC2AF);
    // AND of two draws gives ~16 pieces per board.
    (0..count).map(|_| rng.next_u64() & rng.next_u64()).collect()
}

/// Centralization bonus per square (a piece-square table, as crafty's
/// evaluation uses).
fn pst(sq: u32) -> u8 {
    let (f, r) = ((sq % 8) as i32, (sq / 8) as i32);
    let center = (7 - (2 * f - 7).abs()) + (7 - (2 * r - 7).abs());
    center as u8
}

fn reference(boards: &[u64]) -> u64 {
    let mut cs = Checksum::default();
    for &board in boards {
        let mut b = board;
        let mut acc = 0u64;
        let mut score = 0u64;
        while b != 0 {
            let sq = b.trailing_zeros();
            acc |= knight_attacks(sq);
            score += u64::from(pst(sq));
            b &= b - 1;
        }
        let k = u64::from(acc.count_ones());
        cs.mix(k);
        cs.mix(acc);
        cs.mix(score);
    }
    cs.0
}

/// Builds the workload.
#[must_use]
pub fn build(scale: Scale) -> Workload {
    let count = 512 * scale.factor(16) as usize;
    let boards = generate_boards(count);
    let expected = reference(&boards);
    let table: Vec<u64> = (0..64).map(knight_attacks).collect();

    let pst_table: Vec<u8> = (0..64).map(pst).collect();
    let mut regions = Regions::new();
    let tbl_base = regions.alloc(64 * 8 + 64 + 16 * count as u64); // the results follow
    let pst_base = tbl_base + 64 * 8;
    let boards_base = pst_base + 64;
    let out_base = boards_base + 8 * count as u64;

    let mut a = Asm::new();
    a.data_u64s(tbl_base, &table);
    a.data_bytes(pst_base, &pst_table);
    a.data_u64s(boards_base, &boards);

    a.li(R_TBL, tbl_base as i64);
    a.li(R_PST, pst_base as i64);
    a.li(R_P, boards_base as i64);
    a.li(R_END, out_base as i64);
    a.li(R_OUT, out_base as i64);
    a.li(CHECKSUM_REG, 0);

    a.label("board");
    emit_align(&mut a, 1);
    a.ldq(R_B, R_P, 0);
    a.li(R_ACC, 0);
    a.li(R_SCORE, 0);
    a.label("bits");
    a.beq(R_B, "boarddone");
    a.cttz(R_SQ, R_B);
    a.s8add(R_ADDR, R_SQ, R_TBL);
    a.ldq(R_ATK, R_ADDR, 0);
    a.or_(R_ACC, R_ACC, R_ATK);
    // Positional evaluation: piece-square-table bonus per knight.
    a.add(R_ADDR, R_SQ, R_PST);
    a.ldbu(R_ATK, R_ADDR, 0);
    a.add(R_SCORE, R_SCORE, R_ATK);
    a.sub(R_TMP, R_B, 1);
    a.and_(R_B, R_B, R_TMP);
    a.br("bits");

    a.label("boarddone");
    a.popcnt(R_K, R_ACC);
    emit_mix(&mut a, R_K);
    emit_mix(&mut a, R_ACC);
    emit_mix(&mut a, R_SCORE);
    // Record the evaluation (transposition-table style write traffic).
    a.stq(R_SCORE, R_OUT, 0);
    a.add(R_OUT, R_OUT, 8);
    a.add(R_P, R_P, 8);
    a.cmpult(R_TMP, R_P, R_END);
    a.bne(R_TMP, "board");
    a.halt();

    regions.seal(Workload {
        name: "crafty",
        description: "bitboard knight-attack generation with scan/lookup/popcount",
        program: a.assemble().expect("crafty kernel assembles"),
        expected_checksum: expected,
        budget: 400 * count as u64 + 10_000,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn knight_attack_corners_and_center() {
        assert_eq!(knight_attacks(0).count_ones(), 2, "a1 knight has 2 moves");
        assert_eq!(knight_attacks(27).count_ones(), 8, "d4 knight has 8 moves");
        // Attacks never include the origin square.
        for sq in 0..64 {
            assert_eq!(knight_attacks(sq) & (1 << sq), 0);
        }
    }
}
