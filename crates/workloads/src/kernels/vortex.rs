//! `vortex` stand-in: an in-memory object store built on a binary search
//! tree, queried with pairs of independent, branchless fixed-depth
//! descents — the object-validation traffic of the OO7-style database
//! vortex models. Two interleaved lookup chains and branch-free descent
//! give the kernel the high ILP that makes vortex the paper's
//! highest-IPC benchmark.

use super::{emit_align, emit_mix, Checksum, Regions};
use crate::{Scale, SplitMix64, Workload, CHECKSUM_REG};
use hpa_asm::Asm;
use hpa_isa::Reg;

/// Node layout: key (8), left (8), right (8), count (8).
const NODE_BYTES: u64 = 32;
const INSERTS: usize = 1024;
const KEY_SPACE: u64 = 4096;
/// Fixed descent depth; must cover the deepest node (checked at build).
/// The store is built with median-first (balanced) insertion, like a
/// bulk-loaded database index, so 12 levels cover 1024 distinct keys.
const DEPTH: usize = 12;

// Insert-phase registers.
const R_P: Reg = Reg::R1;
const R_END: Reg = Reg::R2;
const R_KEY: Reg = Reg::R3;
const R_NODE: Reg = Reg::R4;
const R_ARENA: Reg = Reg::R5;
const R_SLOT: Reg = Reg::R6;
const R_NKEY: Reg = Reg::R7;
const R_TMP: Reg = Reg::R9;
const R_ROOT: Reg = Reg::R13;

// Lookup-phase registers (two interleaved walks A and B).
const R_KA: Reg = Reg::R14;
const R_KB: Reg = Reg::R15;
const R_NA: Reg = Reg::R16;
const R_NB: Reg = Reg::R17;
const R_FA: Reg = Reg::R18;
const R_FB: Reg = Reg::R19;
const R_T1: Reg = Reg::R20;
const R_T2: Reg = Reg::R21;
const R_T3: Reg = Reg::R22;
const R_T4: Reg = Reg::R23;
const R_T5: Reg = Reg::R24;
const R_T6: Reg = Reg::R25;
const R_D: Reg = Reg::R12;

fn generate_keys(count: usize, seed: u64) -> Vec<u64> {
    let mut rng = SplitMix64::new(seed);
    (0..count).map(|_| rng.below(KEY_SPACE)).collect()
}

/// Host-side mirror of the arena BST.
struct Bst {
    /// (key, left, right, count) per node; indices are node numbers.
    nodes: Vec<(u64, usize, usize, u64)>,
}

const NIL: usize = usize::MAX;

impl Bst {
    fn build(inserts: &[u64]) -> Bst {
        let mut nodes: Vec<(u64, usize, usize, u64)> = Vec::new();
        for &k in inserts {
            if nodes.is_empty() {
                nodes.push((k, NIL, NIL, 1));
                continue;
            }
            let mut n = 0usize;
            loop {
                let (nk, l, r, _) = nodes[n];
                if k == nk {
                    nodes[n].3 += 1;
                    break;
                }
                let child = if k < nk { l } else { r };
                if child == NIL {
                    nodes.push((k, NIL, NIL, 1));
                    let new = nodes.len() - 1;
                    if k < nk {
                        nodes[n].1 = new;
                    } else {
                        nodes[n].2 = new;
                    }
                    break;
                }
                n = child;
            }
        }
        Bst { nodes }
    }

    fn max_depth(&self) -> usize {
        fn depth(nodes: &[(u64, usize, usize, u64)], n: usize) -> usize {
            if n == NIL {
                return 0;
            }
            1 + depth(nodes, nodes[n].1).max(depth(nodes, nodes[n].2))
        }
        depth(&self.nodes, 0)
    }

    /// The branchless fixed-depth walk the kernel performs: descend
    /// [`DEPTH`] levels following key comparisons (null-safe: a missing
    /// child reads node 0-of-memory which is all zeros), accumulating the
    /// count of any node whose key matches.
    fn fixed_walk(&self, key: u64) -> u64 {
        let mut found = 0u64;
        let mut node = if self.nodes.is_empty() { NIL } else { 0 };
        for _ in 0..DEPTH {
            let (nk, l, r, c) = match node {
                NIL => (0, NIL, NIL, 0),
                n => self.nodes[n],
            };
            let hit = node != NIL && nk == key;
            if hit {
                found |= c;
            }
            node = if node == NIL {
                NIL
            } else if key < nk {
                l
            } else {
                r
            };
        }
        found
    }
}

fn reference(inserts: &[u64], lookups: &[u64]) -> u64 {
    let bst = Bst::build(inserts);
    let mut cs = Checksum::default();
    for pair in lookups.chunks(2) {
        cs.mix(bst.fixed_walk(pair[0]));
        cs.mix(bst.fixed_walk(pair[1]));
    }
    cs.mix(bst.nodes.len() as u64);
    cs.0
}

/// Orders the unique keys median-first — the insertion order of a
/// bulk-loaded balanced index.
fn balanced_insert_stream(raw: &[u64]) -> Vec<u64> {
    let mut unique: Vec<u64> = raw.to_vec();
    unique.sort_unstable();
    unique.dedup();
    fn median_first(keys: &[u64], out: &mut Vec<u64>) {
        if keys.is_empty() {
            return;
        }
        let mid = keys.len() / 2;
        out.push(keys[mid]);
        median_first(&keys[..mid], out);
        median_first(&keys[mid + 1..], out);
    }
    let mut out = Vec::with_capacity(unique.len());
    median_first(&unique, &mut out);
    out
}

/// Builds the workload.
#[must_use]
pub fn build(scale: Scale) -> Workload {
    let lookups_n = 1024 * scale.factor(8) as usize;
    let inserts = balanced_insert_stream(&generate_keys(INSERTS, 0x0B7E));
    let mut lookups = generate_keys(lookups_n, 0x0B7F);
    if lookups.len() % 2 == 1 {
        lookups.pop();
    }
    let bst = Bst::build(&inserts);
    assert!(bst.max_depth() <= DEPTH, "tree depth {} exceeds DEPTH", bst.max_depth());
    let expected = reference(&inserts, &lookups);

    let mut regions = Regions::new();
    let ins_base = regions.alloc((inserts.len() + lookups.len()) as u64 * 8);
    let look_base = ins_base + (inserts.len() as u64) * 8;
    let arena_base = regions.alloc(INSERTS as u64 * NODE_BYTES);

    let mut a = Asm::new();
    a.data_u64s(ins_base, &inserts);
    a.data_u64s(look_base, &lookups);

    a.li(R_ARENA, arena_base as i64);
    a.li(R_ROOT, 0);
    a.li(CHECKSUM_REG, 0);

    // ---- Insert phase (pointer-chasing builds the object store) ----
    a.li(R_P, ins_base as i64);
    a.li(R_END, look_base as i64);
    a.label("ins");
    emit_align(&mut a, 1);
    a.ldq(R_KEY, R_P, 0);
    a.add(R_P, R_P, 8);
    a.beq(R_ROOT, "ins_root");
    a.mov(R_NODE, R_ROOT);
    a.label("ins_walk");
    a.ldq(R_NKEY, R_NODE, 0);
    a.sub(R_TMP, R_KEY, R_NKEY);
    a.beq(R_TMP, "ins_dup");
    a.blt(R_TMP, "ins_left");
    a.add(R_SLOT, R_NODE, 16);
    a.br("ins_descend");
    a.label("ins_left");
    a.add(R_SLOT, R_NODE, 8);
    a.label("ins_descend");
    a.ldq(R_NODE, R_SLOT, 0);
    a.bne(R_NODE, "ins_walk");
    a.stq(R_KEY, R_ARENA, 0);
    a.stq(Reg::R31, R_ARENA, 8);
    a.stq(Reg::R31, R_ARENA, 16);
    a.li(R_TMP, 1);
    a.stq(R_TMP, R_ARENA, 24);
    a.stq(R_ARENA, R_SLOT, 0);
    a.add(R_ARENA, R_ARENA, NODE_BYTES as i32);
    a.br("ins_next");
    a.label("ins_dup");
    a.ldq(R_TMP, R_NODE, 24);
    a.add(R_TMP, R_TMP, 1);
    a.stq(R_TMP, R_NODE, 24);
    a.br("ins_next");
    a.label("ins_root");
    a.stq(R_KEY, R_ARENA, 0);
    a.stq(Reg::R31, R_ARENA, 8);
    a.stq(Reg::R31, R_ARENA, 16);
    a.li(R_TMP, 1);
    a.stq(R_TMP, R_ARENA, 24);
    a.mov(R_ROOT, R_ARENA);
    a.add(R_ARENA, R_ARENA, NODE_BYTES as i32);
    a.label("ins_next");
    a.cmpult(R_TMP, R_P, R_END);
    a.bne(R_TMP, "ins");

    // ---- Lookup phase: two interleaved branchless fixed-depth walks ----
    a.li(R_P, look_base as i64);
    a.li(R_END, (look_base + (lookups.len() as u64) * 8) as i64);
    a.label("look");
    emit_align(&mut a, 1);
    a.ldq(R_KA, R_P, 0);
    a.ldq(R_KB, R_P, 8);
    a.add(R_P, R_P, 16);
    a.li(R_FA, 0);
    a.li(R_FB, 0);
    a.mov(R_NA, R_ROOT);
    a.mov(R_NB, R_ROOT);
    a.li(R_D, DEPTH as i64);
    a.label("level");
    // The two walks are interleaved instruction-by-instruction, the
    // schedule a trace/list scheduler produces for two independent
    // chains; it also staggers the paired loads across the memory ports.
    let walks = [(R_NA, R_KA, R_FA), (R_NB, R_KB, R_FB)];
    let scratch = [(R_T1, R_T3, R_T5), (R_T2, R_T4, R_T6)];
    // t_nk/t_child/t_m per walk.
    for (w, s) in walks.iter().zip(scratch) {
        a.ldq(s.0, w.0, 0); // nk (null-safe: address 0 reads zero)
    }
    for (w, s) in walks.iter().zip(scratch) {
        a.ldq(s.1, w.0, 8); // left
    }
    for (w, s) in walks.iter().zip(scratch) {
        a.cmpeq(s.2, s.0, w.1); // key match?
        a.cmpult(Reg::R30, Reg::R31, w.0); // node != 0?
        a.and_(s.2, s.2, Reg::R30);
        a.sub(s.2, Reg::R31, s.2); // mask = -hit
    }
    for (w, s) in walks.iter().zip(scratch) {
        a.ldq(Reg::R30, w.0, 24); // count
        a.and_(Reg::R30, Reg::R30, s.2);
        a.or_(w.2, w.2, Reg::R30); // found |= count & mask
    }
    for (w, s) in walks.iter().zip(scratch) {
        a.ldq(Reg::R30, w.0, 16); // right
        a.cmplt(s.2, w.1, s.0); // go left?
        a.sub(s.2, Reg::R31, s.2);
        a.xor(s.1, s.1, Reg::R30); // left ^ right
        a.and_(s.1, s.1, s.2);
        a.xor(w.0, Reg::R30, s.1); // next = right ^ ((l^r) & mask)
    }
    a.sub(R_D, R_D, 1);
    a.bgt(R_D, "level");
    emit_mix(&mut a, R_FA);
    emit_mix(&mut a, R_FB);
    a.cmpult(R_TMP, R_P, R_END);
    a.bne(R_TMP, "look");

    // Distinct-key count = allocated nodes.
    a.li(R_TMP, arena_base as i64);
    a.sub(R_TMP, R_ARENA, R_TMP);
    a.srl(R_TMP, R_TMP, 5);
    emit_mix(&mut a, R_TMP);
    a.halt();

    Workload {
        name: "vortex",
        description: "BST object store: branchy inserts, interleaved branchless lookups",
        program: a.assemble().expect("vortex kernel assembles"),
        expected_checksum: expected,
        budget: 40 * DEPTH as u64 * lookups.len() as u64 + 400 * INSERTS as u64 + 50_000,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_walk_matches_map_semantics() {
        use std::collections::BTreeMap;
        let raw = generate_keys(INSERTS, 0x0B7E);
        let inserts = balanced_insert_stream(&raw);
        let bst = Bst::build(&inserts);
        assert!(bst.max_depth() <= DEPTH, "balanced depth is {}", bst.max_depth());
        let mut map: BTreeMap<u64, u64> = BTreeMap::new();
        for &k in &inserts {
            *map.entry(k).or_insert(0) += 1;
        }
        for k in generate_keys(256, 7) {
            assert_eq!(bst.fixed_walk(k), map.get(&k).copied().unwrap_or(0), "key {k}");
        }
        assert_eq!(bst.nodes.len(), map.len());
    }

    #[test]
    fn balanced_stream_builds_a_log_depth_tree() {
        let raw: Vec<u64> = (0..1000).collect();
        let bst = Bst::build(&balanced_insert_stream(&raw));
        assert!(bst.max_depth() <= 10, "depth {}", bst.max_depth());
        // Raw order would be a 1000-deep list.
        assert_eq!(Bst::build(&raw).max_depth(), 1000);
    }

    #[test]
    fn walk_of_missing_key_is_zero() {
        let bst = Bst::build(&[10, 5, 20]);
        assert_eq!(bst.fixed_walk(KEY_SPACE + 1), 0);
        assert_eq!(bst.fixed_walk(5), 1);
    }
}
