//! Regenerates the checked-in seed corpus (`tests/corpus/seed-*.s`).
//!
//! The seed cases are deterministic draws from the fuzzer's program
//! generator, written in the reproducer format so `hpa verify tests/corpus`
//! (and the `corpus_replay` integration test) always have real programs to
//! replay even before the fuzzer has ever found a divergence.
//!
//! ```text
//! cargo run --release -p hpa-verify --example seed_corpus -- tests/corpus
//! ```

use hpa_core::workloads::SplitMix64;
use hpa_core::{MachineWidth, Scheme};
use hpa_verify::{write_reproducer, GenProgram, Variant};
use std::path::Path;

fn main() {
    let dir = std::env::args().nth(1).unwrap_or_else(|| "tests/corpus".into());
    let dir = Path::new(&dir);
    // (seed, width): a handful of generator streams, one 8-wide.
    let cases = [(0xC0FFEE_u64, 4u8), (0xBEEF, 4), (0xF00D, 4), (0x5EED, 8)];
    for (i, (seed, width)) in cases.into_iter().enumerate() {
        let mut rng = SplitMix64::new(seed);
        let gen = GenProgram::random(&mut rng);
        let width = if width == 8 { MachineWidth::Eight } else { MachineWidth::Four };
        let variant = Variant { width, ..Variant::default() };
        let path = write_reproducer(
            dir,
            &format!("seed-{i}-{seed:06x}"),
            &gen.lower(),
            Scheme::Combined,
            variant,
        )
        .expect("corpus dir is writable");
        println!("wrote {}", path.display());
    }
}
