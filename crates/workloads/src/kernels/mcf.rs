//! `mcf` stand-in: Bellman–Ford edge relaxation over a sparse random
//! network. mcf's network-simplex solver is dominated by exactly this kind
//! of irregular, cache-hostile traversal of node/arc arrays, which is why
//! it has the lowest IPC in the paper's Table 2; the graph here is sized
//! past the L2 to reproduce that character.

use super::{emit_align, emit_mix, Checksum, Regions};
use crate::{Scale, SplitMix64, Workload, CHECKSUM_REG};
use hpa_asm::Asm;
use hpa_isa::Reg;

const ROUNDS: u64 = 2;
const BIG: u64 = 1 << 40;

const R_E: Reg = Reg::R1; // edge cursor (byte offset style: index)
const R_EEND: Reg = Reg::R2;
const R_SRC: Reg = Reg::R3;
const R_DST: Reg = Reg::R4;
const R_W: Reg = Reg::R5;
const R_DIST: Reg = Reg::R6; // dist array base
const R_DS: Reg = Reg::R7; // dist[src]
const R_DD: Reg = Reg::R8; // dist[dst]
const R_ADDR: Reg = Reg::R9;
const R_TMP: Reg = Reg::R11;
const R_ROUND: Reg = Reg::R12;
const R_V: Reg = Reg::R13;

struct Graph {
    v: u64,
    src: Vec<u32>,
    dst: Vec<u32>,
    w: Vec<u32>,
}

fn generate_graph(v: u64) -> Graph {
    let e = v * 4;
    let mut rng = SplitMix64::new(0x3CF0);
    let mut src = Vec::with_capacity(e as usize);
    let mut dst = Vec::with_capacity(e as usize);
    let mut w = Vec::with_capacity(e as usize);
    for i in 0..e {
        // Guarantee some edges out of node 0 so distances propagate.
        src.push(if i % 97 == 0 { 0 } else { rng.below(v) as u32 });
        dst.push(rng.below(v) as u32);
        w.push(1 + rng.below(100) as u32);
    }
    Graph { v, src, dst, w }
}

fn reference(g: &Graph) -> u64 {
    let mut dist = vec![BIG; g.v as usize];
    dist[0] = 0;
    for _ in 0..ROUNDS {
        for i in 0..g.src.len() {
            let d = dist[g.src[i] as usize] + u64::from(g.w[i]);
            if d < dist[g.dst[i] as usize] {
                dist[g.dst[i] as usize] = d;
            }
        }
    }
    let mut cs = Checksum::default();
    let mut i = 0usize;
    while i < dist.len() {
        cs.mix(dist[i]);
        i += 64;
    }
    cs.0
}

fn u32s_to_bytes(v: &[u32]) -> Vec<u8> {
    let mut out = Vec::with_capacity(v.len() * 4);
    for x in v {
        out.extend_from_slice(&x.to_le_bytes());
    }
    out
}

/// Builds the workload.
#[must_use]
pub fn build(scale: Scale) -> Workload {
    let v = 2048 * scale.factor(8);
    let g = generate_graph(v);
    let expected = reference(&g);
    let e = g.src.len() as u64;

    let mut regions = Regions::new();
    let dist_base = regions.alloc(v * 8 + e * 12); // distances, then src, dst and w
    let src_base = dist_base + v * 8;
    let dst_base = src_base + e * 4;
    let w_base = dst_base + e * 4;

    let mut dist_init = vec![BIG; v as usize];
    dist_init[0] = 0;

    let mut a = Asm::new();
    a.data_u64s(dist_base, &dist_init);
    a.data_bytes(src_base, &u32s_to_bytes(&g.src));
    a.data_bytes(dst_base, &u32s_to_bytes(&g.dst));
    a.data_bytes(w_base, &u32s_to_bytes(&g.w));

    a.li(R_DIST, dist_base as i64);
    a.li(R_ROUND, ROUNDS as i64);
    a.label("round");
    a.li(R_E, 0);
    a.li(R_EEND, e as i64);
    a.label("edge");
    emit_align(&mut a, 1);
    // src/dst/w are parallel u32 arrays indexed by R_E.
    a.s4add(R_ADDR, R_E, Reg::R31); // R_ADDR = 4*e
    a.li(R_TMP, src_base as i64);
    a.add(R_TMP, R_TMP, R_ADDR);
    a.ldl(R_SRC, R_TMP, 0);
    a.li(R_TMP, dst_base as i64);
    a.add(R_TMP, R_TMP, R_ADDR);
    a.ldl(R_DST, R_TMP, 0);
    a.li(R_TMP, w_base as i64);
    a.add(R_TMP, R_TMP, R_ADDR);
    a.ldl(R_W, R_TMP, 0);
    // d = dist[src] + w
    a.s8add(R_ADDR, R_SRC, R_DIST);
    a.ldq(R_DS, R_ADDR, 0);
    a.add(R_DS, R_DS, R_W);
    // if d < dist[dst]: dist[dst] = d
    a.s8add(R_ADDR, R_DST, R_DIST);
    a.ldq(R_DD, R_ADDR, 0);
    a.cmpult(R_TMP, R_DS, R_DD);
    a.beq(R_TMP, "norelax");
    a.stq(R_DS, R_ADDR, 0);
    a.label("norelax");
    a.add(R_E, R_E, 1);
    a.cmplt(R_TMP, R_E, R_EEND);
    a.bne(R_TMP, "edge");
    a.sub(R_ROUND, R_ROUND, 1);
    a.bgt(R_ROUND, "round");

    // Checksum every 64th distance.
    a.li(CHECKSUM_REG, 0);
    a.li(R_E, 0);
    a.li(R_V, v as i64);
    a.label("fold");
    a.s8add(R_ADDR, R_E, R_DIST);
    a.ldq(R_DS, R_ADDR, 0);
    emit_mix(&mut a, R_DS);
    a.add(R_E, R_E, 64);
    a.cmplt(R_TMP, R_E, R_V);
    a.bne(R_TMP, "fold");
    a.halt();

    regions.seal(Workload {
        name: "mcf",
        description: "Bellman-Ford relaxation over an L2-sized sparse network",
        program: a.assemble().expect("mcf kernel assembles"),
        expected_checksum: expected,
        budget: 60 * e * ROUNDS + 40 * v + 10_000,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_relaxes_from_source() {
        let g = Graph { v: 4, src: vec![0, 1], dst: vec![1, 2], w: vec![5, 7] };
        let mut dist = vec![BIG; 4];
        dist[0] = 0;
        for _ in 0..ROUNDS {
            for i in 0..g.src.len() {
                let d = dist[g.src[i] as usize] + u64::from(g.w[i]);
                if d < dist[g.dst[i] as usize] {
                    dist[g.dst[i] as usize] = d;
                }
            }
        }
        assert_eq!(dist, vec![0, 5, 12, BIG]);
        let _ = reference(&g);
    }

    #[test]
    fn default_scale_exceeds_l2_footprint() {
        let v = 2048 * Scale::Default.factor(8);
        let bytes = v * 8 + v * 4 * 12;
        assert!(bytes > 512 << 10, "working set {bytes}B must exceed the 512KB L2");
    }
}
