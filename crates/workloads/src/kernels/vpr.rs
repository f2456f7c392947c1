//! `vpr` stand-in: breadth-first maze routing on an obstructed grid — the
//! wavefront-expansion router at the heart of VPR's route phase.

use super::{emit_align, emit_mix, Checksum, Regions};
use crate::{Scale, SplitMix64, Workload, CHECKSUM_REG};
use hpa_asm::Asm;
use hpa_isa::Reg;

const W: u64 = 32;
const CELLS: u64 = W * W;

const R_ROUTE: Reg = Reg::R1; // remaining routes
const R_PAIRS: Reg = Reg::R2; // (src,dst) pair cursor
const R_SRC: Reg = Reg::R3;
const R_DST: Reg = Reg::R4;
const R_HEAD: Reg = Reg::R5; // queue head ptr
const R_TAIL: Reg = Reg::R6; // queue tail ptr
const R_CUR: Reg = Reg::R7;
const R_D: Reg = Reg::R8; // dist of current + 1
const R_ADDR: Reg = Reg::R9;
const R_TMP: Reg = Reg::R11;
const R_NBR: Reg = Reg::R12;
const R_X: Reg = Reg::R13;
const R_DIST: Reg = Reg::R14; // dist array base
const R_OBST: Reg = Reg::R15; // obstacle array base
const R_QUEUE: Reg = Reg::R16;
const R_I: Reg = Reg::R17;

struct Maze {
    obstacles: Vec<u8>,
    pairs: Vec<(u64, u64)>,
}

fn generate_maze(routes: usize) -> Maze {
    let mut rng = SplitMix64::new(0x7690);
    let mut obstacles: Vec<u8> = (0..CELLS).map(|_| u8::from(rng.below(4) == 0)).collect();
    let mut pairs = Vec::with_capacity(routes);
    for _ in 0..routes {
        let src = rng.below(CELLS);
        let dst = rng.below(CELLS);
        obstacles[src as usize] = 0;
        obstacles[dst as usize] = 0;
        pairs.push((src, dst));
    }
    Maze { obstacles, pairs }
}

/// BFS distance from src to dst, or 0 if unreachable (src==dst gives 0 too;
/// the kernel mixes dist+1 to distinguish "found at 0" from "unreachable").
fn bfs(obstacles: &[u8], src: u64, dst: u64) -> Option<u64> {
    let mut dist = vec![0u64; CELLS as usize]; // dist + 1; 0 = unvisited
    let mut queue = Vec::with_capacity(CELLS as usize);
    dist[src as usize] = 1;
    queue.push(src);
    let mut head = 0;
    while head < queue.len() {
        let cur = queue[head];
        head += 1;
        if cur == dst {
            return Some(dist[cur as usize] - 1);
        }
        let d = dist[cur as usize] + 1;
        let x = cur % W;
        let try_nbr = |n: u64, dist: &mut Vec<u64>, queue: &mut Vec<u64>| {
            if dist[n as usize] == 0 && obstacles[n as usize] == 0 {
                dist[n as usize] = d;
                queue.push(n);
            }
        };
        if cur >= W {
            try_nbr(cur - W, &mut dist, &mut queue);
        }
        if cur + W < CELLS {
            try_nbr(cur + W, &mut dist, &mut queue);
        }
        if x > 0 {
            try_nbr(cur - 1, &mut dist, &mut queue);
        }
        if x + 1 < W {
            try_nbr(cur + 1, &mut dist, &mut queue);
        }
    }
    None
}

fn reference(maze: &Maze) -> u64 {
    let mut cs = Checksum::default();
    for &(src, dst) in &maze.pairs {
        match bfs(&maze.obstacles, src, dst) {
            Some(d) => cs.mix(d + 1),
            None => cs.mix(0),
        }
    }
    cs.0
}

/// Builds the workload.
#[must_use]
pub fn build(scale: Scale) -> Workload {
    let routes = 16 * scale.factor(4) as usize;
    let maze = generate_maze(routes);
    let expected = reference(&maze);

    let mut regions = Regions::new();
    let obst_base = regions.alloc(CELLS + routes as u64 * 16);
    let pairs_base = obst_base + CELLS;
    let dist_base = regions.alloc(CELLS * 8); // the BFS queue follows
    let queue_base = dist_base + CELLS * 8;

    let mut pair_words = Vec::with_capacity(routes * 2);
    for &(s, d) in &maze.pairs {
        pair_words.push(s);
        pair_words.push(d);
    }

    let mut a = Asm::new();
    a.data_bytes(obst_base, &maze.obstacles);
    a.data_u64s(pairs_base, &pair_words);

    a.li(R_OBST, obst_base as i64);
    a.li(R_DIST, dist_base as i64);
    a.li(R_QUEUE, queue_base as i64);
    a.li(R_PAIRS, pairs_base as i64);
    a.li(R_ROUTE, routes as i64);
    a.li(CHECKSUM_REG, 0);

    a.label("route");
    emit_align(&mut a, 1);
    a.ldq(R_SRC, R_PAIRS, 0);
    a.ldq(R_DST, R_PAIRS, 8);
    a.add(R_PAIRS, R_PAIRS, 16);
    // Clear the dist array.
    a.li(R_I, 0);
    a.label("clear");
    a.s8add(R_ADDR, R_I, R_DIST);
    a.stq(Reg::R31, R_ADDR, 0);
    a.add(R_I, R_I, 1);
    a.cmplt(R_TMP, R_I, CELLS as i32);
    a.bne(R_TMP, "clear");
    // Seed the queue with src.
    a.s8add(R_ADDR, R_SRC, R_DIST);
    a.li(R_TMP, 1);
    a.stq(R_TMP, R_ADDR, 0);
    a.stq(R_SRC, R_QUEUE, 0);
    a.mov(R_HEAD, R_QUEUE);
    a.add(R_TAIL, R_QUEUE, 8);

    a.label("bfs");
    a.cmpult(R_TMP, R_HEAD, R_TAIL);
    a.beq(R_TMP, "unreachable");
    a.ldq(R_CUR, R_HEAD, 0);
    a.add(R_HEAD, R_HEAD, 8);
    // Found?
    a.sub(R_TMP, R_CUR, R_DST);
    a.beq(R_TMP, "found");
    // d = dist[cur] + 1
    a.s8add(R_ADDR, R_CUR, R_DIST);
    a.ldq(R_D, R_ADDR, 0);
    a.add(R_D, R_D, 1);
    a.and_(R_X, R_CUR, (W - 1) as i32);

    // Up neighbor: cur - W if cur >= W.
    a.cmpult(R_TMP, R_CUR, W as i32);
    a.bne(R_TMP, "no_up");
    a.sub(R_NBR, R_CUR, W as i32);
    a.bsr(Reg::R26, "try_nbr");
    a.label("no_up");
    // Down: cur + W if cur + W < CELLS.
    a.add(R_NBR, R_CUR, W as i32);
    a.cmpult(R_TMP, R_NBR, CELLS as i32);
    a.beq(R_TMP, "no_down");
    a.bsr(Reg::R26, "try_nbr");
    a.label("no_down");
    // Left: cur - 1 if x > 0.
    a.beq(R_X, "no_left");
    a.sub(R_NBR, R_CUR, 1);
    a.bsr(Reg::R26, "try_nbr");
    a.label("no_left");
    // Right: cur + 1 if x + 1 < W.
    a.sub(R_TMP, R_X, (W - 1) as i32);
    a.beq(R_TMP, "no_right");
    a.add(R_NBR, R_CUR, 1);
    a.bsr(Reg::R26, "try_nbr");
    a.label("no_right");
    a.br("bfs");

    // try_nbr: if dist[R_NBR] == 0 and not blocked, set dist and enqueue.
    a.label("try_nbr");
    a.s8add(R_ADDR, R_NBR, R_DIST);
    a.ldq(R_TMP, R_ADDR, 0);
    a.bne(R_TMP, "nbr_done");
    a.add(R_TMP, R_OBST, R_NBR);
    a.ldbu(R_TMP, R_TMP, 0);
    a.bne(R_TMP, "nbr_done");
    a.stq(R_D, R_ADDR, 0);
    a.stq(R_NBR, R_TAIL, 0);
    a.add(R_TAIL, R_TAIL, 8);
    a.label("nbr_done");
    a.ret(Reg::R26);

    a.label("found");
    a.s8add(R_ADDR, R_CUR, R_DIST);
    a.ldq(R_TMP, R_ADDR, 0); // dist + 1
    emit_mix(&mut a, R_TMP);
    a.br("route_done");
    a.label("unreachable");
    a.li(R_TMP, 0);
    emit_mix(&mut a, R_TMP);
    a.label("route_done");
    a.sub(R_ROUTE, R_ROUTE, 1);
    a.bgt(R_ROUTE, "route");
    a.halt();

    Workload {
        name: "vpr",
        description: "BFS wavefront maze routing on an obstructed grid",
        program: a.assemble().expect("vpr kernel assembles"),
        expected_checksum: expected,
        budget: routes as u64 * 80 * CELLS + 50_000,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bfs_on_open_grid_is_manhattan() {
        let open = vec![0u8; CELLS as usize];
        // src (0,0), dst (3,2) -> distance 5.
        assert_eq!(bfs(&open, 0, 2 * W + 3), Some(5));
        assert_eq!(bfs(&open, 7, 7), Some(0));
    }

    #[test]
    fn bfs_respects_walls() {
        // Wall down column x=1 blocks (0,0) from (0,2) except around edges;
        // block the whole column to make dst unreachable.
        let mut obst = vec![0u8; CELLS as usize];
        for y in 0..W {
            obst[(y * W + 1) as usize] = 1;
        }
        assert_eq!(bfs(&obst, 0, 2), None);
    }

    #[test]
    fn routes_mix_reachable_and_not() {
        let maze = generate_maze(64);
        let found =
            maze.pairs.iter().filter(|&&(s, d)| bfs(&maze.obstacles, s, d).is_some()).count();
        assert!(found > 32, "most routes complete: {found}");
    }
}
