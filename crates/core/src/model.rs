//! The timing model's identity: the pinned golden digests, and the model
//! fingerprint derived from them.
//!
//! The tables pin an FNV-1a digest of the full debug formatting of a
//! run's `SimStats` (every counter, histogram and predictor-accuracy
//! field), its `Counters` registry and one sampled estimate, for fixed
//! Tiny-scale cells. `tests/stats_golden.rs` holds every cell to its
//! digest, so any change to the timing model must re-pin them
//! (`cargo run --release --example golden_stats_digest` prints fresh
//! tables to paste here).
//!
//! [`FINGERPRINT`] is an FNV-1a digest over all pinned values. Re-pinning
//! any digest therefore changes the fingerprint, with no version constant
//! to bump by hand. Every [`RunResult::to_json`](crate::RunResult::to_json)
//! record carries it as `model`, and the serve cache and journal drop
//! results whose `model` differs from the running build's.

use crate::scheme::Scheme;
use hpa_obs::digest::{fnv1a_fold, FNV1A_BASIS};

/// Statistics digests, captured from the pre-event-driven scheduler: three
/// workloads (compute-bound, memory-bound, branchy) under every scheme.
/// Any rewrite of wakeup/select, the LSQ walk or the PC-indexed tables
/// must keep all of them bit-identical.
pub const GOLDEN: [(&str, Scheme, u64); 24] = [
    ("gap", Scheme::Base, 0xb63cdac63665bc31),
    ("gap", Scheme::SeqWakeupPredictor, 0xa56ef9aff220785f),
    ("gap", Scheme::SeqWakeupStatic, 0x22c87c0d608e2cd9),
    ("gap", Scheme::TagElimination, 0xca541eb69d1c3a3e),
    ("gap", Scheme::SeqRegAccess, 0x143765ed2cc76e15),
    ("gap", Scheme::ExtraRfStage, 0x3a7d317aa9cbe9b9),
    ("gap", Scheme::HalfPortsCrossbar, 0x5d554b5313a83fb3),
    ("gap", Scheme::Combined, 0x4d92144ef73e7df4),
    ("mcf", Scheme::Base, 0xa1026ee4190746b9),
    ("mcf", Scheme::SeqWakeupPredictor, 0xd951a37132153a4c),
    ("mcf", Scheme::SeqWakeupStatic, 0xda51d899da435981),
    ("mcf", Scheme::TagElimination, 0x14da699664f99aaa),
    ("mcf", Scheme::SeqRegAccess, 0xede5532b5c5b9996),
    ("mcf", Scheme::ExtraRfStage, 0x9a766e7d024059f8),
    ("mcf", Scheme::HalfPortsCrossbar, 0x42a2e0ae47cd0f9d),
    ("mcf", Scheme::Combined, 0x688767037a51ccf6),
    ("perl", Scheme::Base, 0xb2f91c3806326787),
    ("perl", Scheme::SeqWakeupPredictor, 0xaf3e24033872033d),
    ("perl", Scheme::SeqWakeupStatic, 0xb447f36a9104338b),
    ("perl", Scheme::TagElimination, 0x3b7714d59e8a8acf),
    ("perl", Scheme::SeqRegAccess, 0x25d17ec6c5ab440b),
    ("perl", Scheme::ExtraRfStage, 0x7982a9eaf7a15ba2),
    ("perl", Scheme::HalfPortsCrossbar, 0xb2f91c3806326787),
    ("perl", Scheme::Combined, 0x47b7840ad890c063),
];

/// Digests of the observability registry (`Counters` debug formatting:
/// CPI stack, delay/occupancy histograms, re-read counter) for the
/// schemes the CPI-stack evaluation reports. Captured when the
/// observability layer landed; regenerate with the same example.
pub const COUNTER_GOLDEN: [(&str, Scheme, u64); 12] = [
    ("gap", Scheme::Base, 0x1ac7b4abd9090148),
    ("gap", Scheme::SeqWakeupPredictor, 0x0b796c71d57a0945),
    ("gap", Scheme::SeqRegAccess, 0xc618fa6f5d013963),
    ("gap", Scheme::Combined, 0x5c700ff87f8d582f),
    ("mcf", Scheme::Base, 0x9d3554d8abe9af5b),
    ("mcf", Scheme::SeqWakeupPredictor, 0x6fb236d48962e52c),
    ("mcf", Scheme::SeqRegAccess, 0xe28ea24fe4e95e4f),
    ("mcf", Scheme::Combined, 0xf8bfd0dca905b07d),
    ("perl", Scheme::Base, 0x5b59ca3999032589),
    ("perl", Scheme::SeqWakeupPredictor, 0xdbda8882a38d0fed),
    ("perl", Scheme::SeqRegAccess, 0x8348ddce3a7e6045),
    ("perl", Scheme::Combined, 0x612147d326218a57),
];

/// Digests for the real-binary RISC-V workloads (checked-in fixture ELFs
/// translated by the `hpa-rv` frontend) under the base machine and the
/// paper's three headline half-price configurations. Pins the whole
/// frontend: a decode, translation or ABI-shim change moves these.
pub const RISCV_GOLDEN: [(&str, Scheme, u64); 12] = [
    ("rv-quicksort", Scheme::Base, 0x29306637d1764c41),
    ("rv-quicksort", Scheme::SeqWakeupPredictor, 0x2cb304d78713b717),
    ("rv-quicksort", Scheme::SeqRegAccess, 0xa429ab8a0446aeb0),
    ("rv-quicksort", Scheme::Combined, 0x6f3362dcb471f73f),
    ("rv-matmul", Scheme::Base, 0x4f3c4aba62bea02e),
    ("rv-matmul", Scheme::SeqWakeupPredictor, 0xa7ef0370d16be4d8),
    ("rv-matmul", Scheme::SeqRegAccess, 0x24844db3ddea91a6),
    ("rv-matmul", Scheme::Combined, 0xbcbf62fb1c83c145),
    ("rv-sieve", Scheme::Base, 0x726c8560d23f8b3e),
    ("rv-sieve", Scheme::SeqWakeupPredictor, 0xa7efadf75172edd6),
    ("rv-sieve", Scheme::SeqRegAccess, 0xc0199a50f89ff629),
    ("rv-sieve", Scheme::Combined, 0x470404a40abf7387),
];

/// Digest of one fixed sampled run (`gcc` tiny, 4-wide base, units
/// 500:2000:7500, seed 42) over the full `SampledEstimate` debug
/// formatting — window placement, every per-sample (committed, cycles)
/// pair, the mean and the confidence interval. Pins the sampling walk
/// itself: a change to snapshot placement, warmup accounting or the
/// estimator moves this digest even when full-detail digests hold.
pub const SAMPLED_GOLDEN: u64 = 0xe055df6842f1f446;

/// The model fingerprint of this build: FNV-1a over the little-endian
/// bytes of every digest in the tables above, in order.
pub const FINGERPRINT: u64 =
    fingerprint(&[&GOLDEN, &COUNTER_GOLDEN, &RISCV_GOLDEN], SAMPLED_GOLDEN);

/// FNV-1a over the little-endian bytes of every digest in `tables`, in
/// order, then `sampled`.
const fn fingerprint(tables: &[&[(&str, Scheme, u64)]], sampled: u64) -> u64 {
    let mut h = FNV1A_BASIS;
    let mut t = 0;
    while t < tables.len() {
        let mut i = 0;
        while i < tables[t].len() {
            h = fnv1a_fold(h, &tables[t][i].2.to_le_bytes());
            i += 1;
        }
        t += 1;
    }
    fnv1a_fold(h, &sampled.to_le_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A timing change that re-pins any one digest must move the
    /// fingerprint, or stale cached results would pass for current ones.
    #[test]
    fn every_pinned_digest_moves_the_fingerprint() {
        let tables: [&[(&str, Scheme, u64)]; 3] = [&GOLDEN, &COUNTER_GOLDEN, &RISCV_GOLDEN];
        assert_eq!(fingerprint(&tables, SAMPLED_GOLDEN), FINGERPRINT);
        for (t, table) in tables.iter().enumerate() {
            for i in 0..table.len() {
                for flip in [1, 1 << 63] {
                    let mut repinned = table.to_vec();
                    repinned[i].2 ^= flip;
                    let mut moved = tables;
                    moved[t] = &repinned;
                    assert_ne!(
                        fingerprint(&moved, SAMPLED_GOLDEN),
                        FINGERPRINT,
                        "table {t} row {i} re-pinned without moving the fingerprint"
                    );
                }
            }
        }
        assert_ne!(fingerprint(&tables, SAMPLED_GOLDEN ^ 1), FINGERPRINT, "sampled digest");
    }
}
