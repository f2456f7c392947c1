//! `eon` stand-in: floating-point ray–sphere intersection testing, the
//! inner loop of a ray tracer (eon is the only C++/graphics code in
//! CINT2000; its hot loops are dense FP arithmetic like this).

use super::{emit_align, emit_mix, Checksum};
use crate::{Scale, SplitMix64, Workload, CHECKSUM_REG, DATA_BASE};
use hpa_asm::Asm;
use hpa_isa::{FReg, Reg};

const SPHERES: usize = 16;

const R_RAY: Reg = Reg::R1;
const R_RAYEND: Reg = Reg::R2;
const R_SPH: Reg = Reg::R3;
const R_SPHEND: Reg = Reg::R4;
const R_HITS: Reg = Reg::R5;
const R_SUM: Reg = Reg::R6;
const R_TMP: Reg = Reg::R11;
const R_OUT: Reg = Reg::R12;

const F_DX: FReg = FReg::F1;
const F_DY: FReg = FReg::F2;
const F_DZ: FReg = FReg::F3;
const F_DD: FReg = FReg::F4;
const F_CX: FReg = FReg::F5;
const F_CY: FReg = FReg::F6;
const F_CZ: FReg = FReg::F7;
const F_R2: FReg = FReg::F8;
const F_B: FReg = FReg::F9;
const F_C2: FReg = FReg::F10;
const F_T1: FReg = FReg::F11;
const F_T2: FReg = FReg::F12;
const F_SUM: FReg = FReg::F13;

struct Scene {
    spheres: Vec<[f64; 4]>, // cx, cy, cz, r^2
    rays: Vec<[f64; 3]>,    // direction; origin is fixed at (0,0,0)
}

fn generate_scene(ray_count: usize) -> Scene {
    let mut rng = SplitMix64::new(0xE0E0);
    let mut unit = |span: f64| (rng.below(2001) as f64 - 1000.0) / 1000.0 * span;
    let spheres = (0..SPHERES)
        .map(|_| {
            let (cx, cy, cz) = (unit(8.0), unit(8.0), unit(8.0) + 10.0);
            let r = 1.0 + unit(1.0).abs() * 2.0;
            [cx, cy, cz, r * r]
        })
        .collect();
    let mut rng2 = SplitMix64::new(0xE0E1);
    let mut unit2 = |span: f64| (rng2.below(2001) as f64 - 1000.0) / 1000.0 * span;
    let rays = (0..ray_count).map(|_| [unit2(1.0), unit2(1.0), unit2(1.0) + 1.0]).collect();
    Scene { spheres, rays }
}

/// Host-side reference with the exact operation order of the kernel, so
/// the IEEE results are bit-identical.
fn reference(scene: &Scene) -> u64 {
    let mut hits: u64 = 0;
    let mut sum: f64 = 0.0;
    for d in &scene.rays {
        let dd = d[0] * d[0] + d[1] * d[1] + d[2] * d[2];
        for s in &scene.spheres {
            let b = d[0] * s[0] + d[1] * s[1] + d[2] * s[2];
            let c2 = s[0] * s[0] + s[1] * s[1] + s[2] * s[2];
            let disc = b * b - (c2 - s[3]) * dd;
            if disc > 0.0 && b > 0.0 {
                hits += 1;
                sum += disc;
            }
        }
    }
    let mut cs = Checksum::default();
    cs.mix(hits);
    cs.mix(sum as i64 as u64);
    cs.0
}

fn pack(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// Builds the workload.
#[must_use]
pub fn build(scale: Scale) -> Workload {
    let ray_count = 256 * scale.factor(16) as usize;
    let scene = generate_scene(ray_count);
    let expected = reference(&scene);

    let sph_base = DATA_BASE;
    let ray_base = sph_base + (SPHERES * 4 * 8) as u64;

    let mut a = Asm::new();
    a.data_u64s(sph_base, &pack(&scene.spheres.concat()));
    a.data_u64s(ray_base, &pack(&scene.rays.concat()));

    let out_base = ray_base + (ray_count * 3 * 8) as u64;
    a.li(R_RAY, ray_base as i64);
    a.li(R_RAYEND, out_base as i64);
    a.li(R_OUT, out_base as i64);
    a.li(R_HITS, 0);
    a.fsub(F_SUM, FReg::ZERO, FReg::ZERO); // 0.0

    a.label("ray");
    emit_align(&mut a, 1);
    a.ldt(F_DX, R_RAY, 0);
    a.ldt(F_DY, R_RAY, 8);
    a.ldt(F_DZ, R_RAY, 16);
    // dd = dx*dx + dy*dy + dz*dz, accumulated serially — FP addition is
    // not associative, so a compiler emits exactly this dependence chain.
    a.fmul(F_DD, F_DX, F_DX);
    a.fmul(F_T1, F_DY, F_DY);
    a.fadd(F_DD, F_DD, F_T1);
    a.fmul(F_T2, F_DZ, F_DZ);
    a.fadd(F_DD, F_DD, F_T2);

    a.li(R_SPH, sph_base as i64);
    a.li(R_SPHEND, ray_base as i64);
    a.label("sphere");
    a.ldt(F_CX, R_SPH, 0);
    a.ldt(F_CY, R_SPH, 8);
    a.ldt(F_CZ, R_SPH, 16);
    a.ldt(F_R2, R_SPH, 24);
    // b = d . c (serial accumulation)
    a.fmul(F_B, F_DX, F_CX);
    a.fmul(F_T1, F_DY, F_CY);
    a.fadd(F_B, F_B, F_T1);
    a.fmul(F_T2, F_DZ, F_CZ);
    a.fadd(F_B, F_B, F_T2);
    // c2 = c . c (serial accumulation)
    a.fmul(F_C2, F_CX, F_CX);
    a.fmul(F_T1, F_CY, F_CY);
    a.fadd(F_C2, F_C2, F_T1);
    a.fmul(F_T2, F_CZ, F_CZ);
    a.fadd(F_C2, F_C2, F_T2);
    // disc = b*b - (c2 - r2)*dd
    a.fsub(F_C2, F_C2, F_R2);
    a.fmul(F_C2, F_C2, F_DD);
    a.fmul(F_T1, F_B, F_B);
    a.fsub(F_T1, F_T1, F_C2);
    a.fble(F_T1, "miss");
    a.fble(F_B, "miss");
    a.add(R_HITS, R_HITS, 1);
    a.fadd(F_SUM, F_SUM, F_T1);
    a.label("miss");
    a.add(R_SPH, R_SPH, 32);
    a.cmpult(R_TMP, R_SPH, R_SPHEND);
    a.bne(R_TMP, "sphere");

    // Emit the running shade accumulator per ray (framebuffer-style
    // memory traffic; write-only, so the checksum is unaffected).
    a.stt(F_SUM, R_OUT, 0);
    a.stl(R_HITS, R_OUT, 8);
    a.add(R_OUT, R_OUT, 16);
    a.add(R_RAY, R_RAY, 24);
    a.cmpult(R_TMP, R_RAY, R_RAYEND);
    a.bne(R_TMP, "ray");

    a.li(CHECKSUM_REG, 0);
    emit_mix(&mut a, R_HITS);
    a.ftoi(R_SUM, F_SUM);
    emit_mix(&mut a, R_SUM);
    a.halt();

    Workload {
        name: "eon",
        description: "floating-point ray-sphere intersection inner loop",
        program: a.assemble().expect("eon kernel assembles"),
        expected_checksum: expected,
        budget: 60 * (ray_count * SPHERES) as u64 + 10_000,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scene_produces_hits_and_misses() {
        let scene = generate_scene(256);
        let mut hits = 0u64;
        for d in &scene.rays {
            let dd = d[0] * d[0] + d[1] * d[1] + d[2] * d[2];
            for s in &scene.spheres {
                let b = d[0] * s[0] + d[1] * s[1] + d[2] * s[2];
                let c2 = s[0] * s[0] + s[1] * s[1] + s[2] * s[2];
                if b * b - (c2 - s[3]) * dd > 0.0 && b > 0.0 {
                    hits += 1;
                }
            }
        }
        let total = (scene.rays.len() * scene.spheres.len()) as u64;
        assert!(hits > total / 50, "some rays hit ({hits}/{total})");
        assert!(hits < total, "not everything hits");
    }
}
