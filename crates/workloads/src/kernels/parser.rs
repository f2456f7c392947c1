//! `parser` stand-in: a chained hash-table dictionary processing a word
//! stream — the dictionary lookup/link machinery at the core of the link
//! grammar parser.

use super::{emit_align, emit_mix, Checksum, Regions};
use crate::{Scale, SplitMix64, Workload, CHECKSUM_REG};
use hpa_asm::Asm;
use hpa_isa::Reg;

const BUCKETS: u64 = 256;
const VOCAB: usize = 512;
/// Node layout: word_ptr (8), len (8), count (8), next (8).
const NODE_BYTES: u64 = 32;

const R_P: Reg = Reg::R1; // stream cursor
#[allow(dead_code)]
const R_END: Reg = Reg::R2;
const R_LEN: Reg = Reg::R3;
const R_WORD: Reg = Reg::R4; // start of current word's bytes
const R_H: Reg = Reg::R5;
const R_NODE: Reg = Reg::R6;
const R_ARENA: Reg = Reg::R7; // bump pointer
const R_BKT: Reg = Reg::R8; // bucket slot address
const R_ADDR: Reg = Reg::R9;
const R_TMP: Reg = Reg::R11;
const R_C: Reg = Reg::R12;
const R_C2: Reg = Reg::R13;
const R_K: Reg = Reg::R14;
const R_NLEN: Reg = Reg::R15;
const R_NODES: Reg = Reg::R16; // node count

fn generate_stream(words: usize) -> Vec<u8> {
    let mut rng = SplitMix64::new(0x9A25);
    let vocab: Vec<Vec<u8>> = (0..VOCAB)
        .map(|_| {
            let len = 2 + rng.below(7) as usize;
            (0..len).map(|_| b'a' + rng.byte() % 26).collect()
        })
        .collect();
    let mut out = Vec::new();
    for _ in 0..words {
        // Zipf-ish skew: min of two uniform draws.
        let idx = (rng.below(VOCAB as u64).min(rng.below(VOCAB as u64))) as usize;
        let w = &vocab[idx];
        out.push(w.len() as u8);
        out.extend_from_slice(w);
    }
    out.push(0); // terminator
    out
}

fn djb2(word: &[u8]) -> u64 {
    let mut h: u64 = 5381;
    for &c in word {
        h = (h << 5).wrapping_add(h).wrapping_add(u64::from(c));
    }
    h
}

fn reference(stream: &[u8]) -> u64 {
    struct Node {
        word: Vec<u8>,
        count: u64,
    }
    let mut buckets: Vec<Vec<usize>> = vec![Vec::new(); BUCKETS as usize]; // front = head
    let mut nodes: Vec<Node> = Vec::new();
    let mut p = 0usize;
    loop {
        let len = stream[p] as usize;
        if len == 0 {
            break;
        }
        let word = &stream[p + 1..p + 1 + len];
        p += 1 + len;
        let b = (djb2(word) & (BUCKETS - 1)) as usize;
        let found = buckets[b].iter().find(|&&n| nodes[n].word == word).copied();
        match found {
            Some(n) => nodes[n].count += 1,
            None => {
                nodes.push(Node { word: word.to_vec(), count: 1 });
                buckets[b].insert(0, nodes.len() - 1);
            }
        }
    }
    let mut cs = Checksum::default();
    for n in &nodes {
        cs.mix(n.count);
        cs.mix(n.word.len() as u64);
    }
    cs.mix(nodes.len() as u64);
    cs.0
}

/// Builds the workload.
#[must_use]
pub fn build(scale: Scale) -> Workload {
    let words = 1024 * scale.factor(8) as usize;
    let stream = generate_stream(words);
    let expected = reference(&stream);

    let mut regions = Regions::new();
    let stream_base = regions.alloc(stream.len() as u64);
    let bucket_base = regions.alloc(BUCKETS * 8); // 256 x 8B, zero = empty; the arena follows
    let arena_base = bucket_base + BUCKETS * 8;
    let arena_end_reg_hint = arena_base; // first node goes here

    let mut a = Asm::new();
    a.data_bytes(stream_base, &stream);

    a.li(R_P, stream_base as i64);
    a.li(R_ARENA, arena_end_reg_hint as i64);
    a.li(R_NODES, 0);
    a.li(CHECKSUM_REG, 0);

    a.label("word");
    emit_align(&mut a, 1);
    a.ldbu(R_LEN, R_P, 0);
    a.beq(R_LEN, "fold");
    a.add(R_WORD, R_P, 1);
    a.add(R_P, R_WORD, R_LEN);
    // djb2 hash.
    a.li(R_H, 5381);
    a.li(R_K, 0);
    a.label("hash");
    a.add(R_ADDR, R_WORD, R_K);
    a.ldbu(R_C, R_ADDR, 0);
    a.sll(R_TMP, R_H, 5);
    a.add(R_H, R_TMP, R_H);
    a.add(R_H, R_H, R_C);
    a.add(R_K, R_K, 1);
    a.cmplt(R_TMP, R_K, R_LEN);
    a.bne(R_TMP, "hash");
    // bucket slot address.
    a.and_(R_H, R_H, (BUCKETS - 1) as i32);
    a.li(R_TMP, bucket_base as i64);
    a.s8add(R_BKT, R_H, R_TMP);
    a.ldq(R_NODE, R_BKT, 0);
    // Chain walk.
    a.label("chain");
    a.beq(R_NODE, "miss");
    a.ldq(R_NLEN, R_NODE, 8);
    a.sub(R_TMP, R_NLEN, R_LEN);
    a.bne(R_TMP, "nextnode");
    // Byte-compare the stored word with the current one.
    a.ldq(R_ADDR, R_NODE, 0); // stored word ptr
    a.li(R_K, 0);
    a.label("cmp");
    a.cmplt(R_TMP, R_K, R_LEN);
    a.beq(R_TMP, "hit"); // all bytes equal
    a.add(R_TMP, R_ADDR, R_K);
    a.ldbu(R_C, R_TMP, 0);
    a.add(R_TMP, R_WORD, R_K);
    a.ldbu(R_C2, R_TMP, 0);
    a.sub(R_TMP, R_C, R_C2);
    a.bne(R_TMP, "nextnode");
    a.add(R_K, R_K, 1);
    a.br("cmp");
    a.label("nextnode");
    a.ldq(R_NODE, R_NODE, 24);
    a.br("chain");

    a.label("hit");
    a.ldq(R_TMP, R_NODE, 16);
    a.add(R_TMP, R_TMP, 1);
    a.stq(R_TMP, R_NODE, 16);
    a.br("word");

    a.label("miss");
    // Allocate a node: {word_ptr, len, count=1, next=old head}.
    a.stq(R_WORD, R_ARENA, 0);
    a.stq(R_LEN, R_ARENA, 8);
    a.li(R_TMP, 1);
    a.stq(R_TMP, R_ARENA, 16);
    a.ldq(R_TMP, R_BKT, 0);
    a.stq(R_TMP, R_ARENA, 24);
    a.stq(R_ARENA, R_BKT, 0);
    a.add(R_ARENA, R_ARENA, NODE_BYTES as i32);
    a.add(R_NODES, R_NODES, 1);
    a.br("word");

    // Fold: walk the arena in allocation order.
    a.label("fold");
    a.li(R_NODE, arena_end_reg_hint as i64);
    a.label("foldloop");
    a.cmpult(R_TMP, R_NODE, R_ARENA);
    a.beq(R_TMP, "folddone");
    a.ldq(R_TMP, R_NODE, 16);
    emit_mix(&mut a, R_TMP);
    a.ldq(R_TMP, R_NODE, 8);
    emit_mix(&mut a, R_TMP);
    a.add(R_NODE, R_NODE, NODE_BYTES as i32);
    a.br("foldloop");
    a.label("folddone");
    emit_mix(&mut a, R_NODES);
    a.halt();

    regions.seal(Workload {
        name: "parser",
        description: "chained hash-table dictionary over a skewed word stream",
        program: a.assemble().expect("parser kernel assembles"),
        expected_checksum: expected,
        budget: 600 * words as u64 + 50_000,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_counts_duplicates() {
        // Stream: "ab" twice and "cde" once.
        let stream = [2, b'a', b'b', 3, b'c', b'd', b'e', 2, b'a', b'b', 0];
        let mut cs = Checksum::default();
        cs.mix(2); // "ab" count
        cs.mix(2); // "ab" len
        cs.mix(1); // "cde" count
        cs.mix(3); // "cde" len
        cs.mix(2); // node count
        assert_eq!(reference(&stream), cs.0);
    }

    #[test]
    fn djb2_matches_known_value() {
        // djb2("a") = 5381*33 + 97
        assert_eq!(djb2(b"a"), 5381 * 33 + 97);
    }
}
