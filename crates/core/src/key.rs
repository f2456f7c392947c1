//! The one cell identity: [`cell_key`] names a simulation by its content.
//!
//! Every simulation in this workspace is fully deterministic from
//! `(program, config, scheme, seed, mode)` — the determinism suite pins
//! serial, parallel and observed runs bit-identical. The key is an
//! FNV-1a digest of a canonical byte encoding of those five inputs (spec
//! in `DESIGN.md` §12). `hpa serve` files its result cache under it, and
//! the `extensions` harness runs each distinct key once.
//!
//! The canonical encoding digests the program's *encoded instruction
//! words and data image*, never its `Debug` formatting — `Program` holds
//! a label `HashMap` whose iteration order is unstable, while the binary
//! encoding is exactly what the emulator executes. `SimConfig`'s `Debug`
//! output *is* used (it is a plain struct of scalars, deterministic) so
//! any config knob — width, RUU size, wakeup scheme, PC-table size —
//! perturbs the key without this module naming every field.

use crate::Scheme;
use hpa_asm::Program;
use hpa_obs::digest::fnv1a;
use hpa_sim::{SampleUnits, SimConfig};

/// Version tag leading the canonical encoding; bump it to invalidate
/// every existing cache entry when the encoding or payload shape changes.
const MAGIC: &[u8] = b"hpa-serve-cache-v1\n";

/// Computes the content-addressed key for one simulation cell.
///
/// `config` must be the *final* configuration the cell will run —
/// scheme and overrides already applied — so that every knob that can
/// change the result is inside the digest.
#[must_use]
pub fn cell_key(
    program: &Program,
    config: &SimConfig,
    scheme: Scheme,
    seed: u64,
    sampled: Option<SampleUnits>,
) -> u64 {
    let mut bytes = Vec::with_capacity(4096);
    bytes.extend_from_slice(MAGIC);

    // Program text: encoded instruction words, length-prefixed.
    let words = program.to_words();
    bytes.extend_from_slice(&(words.len() as u64).to_le_bytes());
    for w in &words {
        bytes.extend_from_slice(&w.to_le_bytes());
    }
    // Program data image: (base address, bytes) per segment, in the
    // program's own segment order (part of its identity).
    bytes.extend_from_slice(&(program.data_segments().len() as u64).to_le_bytes());
    for (base, data) in program.data_segments() {
        bytes.extend_from_slice(&base.to_le_bytes());
        bytes.extend_from_slice(&(data.len() as u64).to_le_bytes());
        bytes.extend_from_slice(data);
    }

    // Configuration: the deterministic Debug rendering, length-prefixed.
    let config_text = format!("{config:?}");
    bytes.extend_from_slice(&(config_text.len() as u64).to_le_bytes());
    bytes.extend_from_slice(config_text.as_bytes());

    // Scheme key (the config alone does not name the scheme: two schemes
    // could in principle map to one config, and the payload echoes the
    // scheme name, so it is part of the content).
    let key = scheme.key();
    bytes.extend_from_slice(&(key.len() as u64).to_le_bytes());
    bytes.extend_from_slice(key.as_bytes());

    // Seed. Always included — full-detail runs ignore it today, but the
    // key schema must not change if that ever changes, and `submit
    // --seed` changing the key is part of the cache-key contract.
    bytes.extend_from_slice(&seed.to_le_bytes());

    // Mode: 0 = full detail, 1 = sampled followed by the W:D:F text.
    match sampled {
        None => bytes.push(0),
        Some(units) => {
            bytes.push(1);
            let text = units.to_string();
            bytes.extend_from_slice(&(text.len() as u64).to_le_bytes());
            bytes.extend_from_slice(text.as_bytes());
        }
    }

    fnv1a(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MachineWidth;
    use hpa_workloads::{workload, Scale};

    fn key_for(name: &str, scheme: Scheme, seed: u64, sampled: Option<SampleUnits>) -> u64 {
        let w = workload(name, Scale::Tiny).expect("known workload");
        cell_key(&w.program, &scheme.configure(MachineWidth::Four), scheme, seed, sampled)
    }

    #[test]
    fn key_is_stable_across_calls_and_rebuilds() {
        // The same logical cell must hash identically no matter when or
        // where the program was built (no HashMap order, no addresses).
        let a = key_for("gcc", Scheme::Base, 7, None);
        let b = key_for("gcc", Scheme::Base, 7, None);
        assert_eq!(a, b);
    }

    /// Keys pinned from earlier builds: a change to how a `Program` is
    /// held in memory must move no key, or a persisted `--cache-dir`
    /// stops hitting. Only a deliberate encoding change (with a `MAGIC`
    /// bump) may update these values.
    #[test]
    fn golden_keys_are_unchanged() {
        assert_eq!(key_for("gcc", Scheme::Base, 7, None), 0x92b4_cb45_b3c8_c9cd, "Tiny workload");
        // An `rv-*` binary cell, resolved the way a binary job is.
        let image = hpa_rv::load_elf(hpa_rv::fixtures::QUICKSORT_ELF).expect("loads");
        let program = hpa_rv::translate(&image).expect("translates");
        let config = Scheme::Base.configure(MachineWidth::Four);
        assert_eq!(
            cell_key(&program, &config, Scheme::Base, 7, None),
            0x9dfb_0e87_5dcc_e5c4,
            "rv-quicksort binary"
        );
    }

    #[test]
    fn every_single_field_change_changes_the_key() {
        let base = key_for("gcc", Scheme::Base, 7, None);
        let variants = [
            key_for("mcf", Scheme::Base, 7, None),
            key_for("gcc", Scheme::Combined, 7, None),
            key_for("gcc", Scheme::Base, 8, None),
            key_for("gcc", Scheme::Base, 7, SampleUnits::parse("500:1000:4000").ok()),
            {
                let w = workload("gcc", Scale::Default).unwrap();
                cell_key(
                    &w.program,
                    &Scheme::Base.configure(MachineWidth::Four),
                    Scheme::Base,
                    7,
                    None,
                )
            },
            {
                let w = workload("gcc", Scale::Tiny).unwrap();
                cell_key(
                    &w.program,
                    &Scheme::Base.configure(MachineWidth::Eight),
                    Scheme::Base,
                    7,
                    None,
                )
            },
            {
                let w = workload("gcc", Scale::Tiny).unwrap();
                let config = Scheme::Base.configure(MachineWidth::Four).with_pc_table_entries(8192);
                cell_key(&w.program, &config, Scheme::Base, 7, None)
            },
        ];
        for (i, v) in variants.iter().enumerate() {
            assert_ne!(base, *v, "variant {i} collided with the base key");
        }
        // And the variants are distinct among themselves.
        let mut sorted = variants.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), variants.len());
    }

    #[test]
    fn sampled_units_are_part_of_the_key() {
        let a = key_for("gcc", Scheme::Base, 7, SampleUnits::parse("500:1000:4000").ok());
        let b = key_for("gcc", Scheme::Base, 7, SampleUnits::parse("500:1000:8000").ok());
        assert_ne!(a, b);
    }
}
