//! The content-addressed result cache.
//!
//! Every simulation in this workspace is fully deterministic from
//! `(program, config, scheme, seed, mode)` — the determinism suite pins
//! serial, parallel and observed runs bit-identical. That makes results
//! cacheable by *content*: the cache key is an FNV-1a digest of a
//! canonical byte encoding of those five inputs (spec in `DESIGN.md`
//! §12), and the cached value is the cell's rendered JSON payload,
//! stored verbatim so a hit is bit-identical to the original run by
//! construction.
//!
//! The canonical encoding digests the program's *encoded instruction
//! words and data image*, never its `Debug` formatting — `Program` holds
//! a label `HashMap` whose iteration order is unstable, while the binary
//! encoding is exactly what the emulator executes. `SimConfig`'s `Debug`
//! output *is* used (it is a plain struct of scalars, deterministic) so
//! any config knob — width, RUU size, wakeup scheme, PC-table size —
//! perturbs the key without this module naming every field.
//!
//! The on-disk store is one file per entry, `<dir>/<0x-key>.json`,
//! written to a temp file and atomically renamed into place so a crash
//! mid-write can never leave a half-written entry for a later server to
//! serve. Writes are write-through; the in-memory index fronts reads.
//!
//! The key names the work, not the model that did it: every payload
//! carries the `model` fingerprint it was computed under, and a reload
//! drops entries from any other model, so a timing change never serves
//! a stale result.

use hpa_asm::Program;
use hpa_core::model::FINGERPRINT;
use hpa_core::Scheme;
use hpa_obs::digest::{fnv1a, format_hex, parse_hex};
use hpa_obs::json::Json;
use hpa_sim::{SampleUnits, SimConfig};
use std::collections::{HashMap, VecDeque};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

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

/// The index plus the bookkeeping eviction needs: insertion order and
/// total payload bytes.
#[derive(Default)]
struct CacheState {
    map: HashMap<u64, String>,
    /// Keys in insertion order (oldest first); the eviction order. Keys
    /// are unique here — `insert` only appends on a fresh map entry.
    order: VecDeque<u64>,
    /// Sum of payload byte lengths across the index.
    bytes: u64,
    /// Entries evicted over this cache's lifetime (served by `/health`).
    evictions: u64,
    /// Disk entries dropped at open for carrying another model
    /// fingerprint (served by `/health`).
    stale_dropped: u64,
}

/// The result cache: an in-memory index over an optional on-disk store,
/// bounded (when configured) by entry count and payload bytes with
/// insertion-order eviction.
pub struct ResultCache {
    dir: Option<PathBuf>,
    max_entries: Option<usize>,
    max_bytes: Option<u64>,
    state: Mutex<CacheState>,
}

impl ResultCache {
    /// Opens an unbounded cache; see [`ResultCache::open_bounded`].
    ///
    /// # Errors
    ///
    /// Only directory creation errors.
    pub fn open(dir: Option<PathBuf>) -> io::Result<ResultCache> {
        ResultCache::open_bounded(dir, None, None)
    }

    /// Opens a cache. With a directory, existing `<0x-key>.json` entries
    /// are loaded into the index. Unreadable or misnamed files and
    /// entries that are not valid JSON are skipped (the cache is
    /// advisory, never load-bearing); entries whose `model` is not this
    /// build's [`FINGERPRINT`] are deleted and counted
    /// ([`ResultCache::stale_dropped`]). The directory is created if
    /// missing. With `None`, the cache is
    /// memory-only and dies with the server.
    ///
    /// `max_entries` / `max_bytes` bound the index for long-lived
    /// daemons: inserting past either bound evicts oldest-inserted
    /// entries first (and prunes their disk files). Bounds are applied
    /// to a reloaded store too, in directory-iteration order.
    ///
    /// # Errors
    ///
    /// Only directory creation errors; a present-but-odd entry never
    /// fails the open.
    pub fn open_bounded(
        dir: Option<PathBuf>,
        max_entries: Option<usize>,
        max_bytes: Option<u64>,
    ) -> io::Result<ResultCache> {
        let cache =
            ResultCache { dir, max_entries, max_bytes, state: Mutex::new(CacheState::default()) };
        if let Some(dir) = cache.dir.clone() {
            std::fs::create_dir_all(&dir)?;
            let mut state = cache.state.lock().expect("cache index");
            for entry in std::fs::read_dir(&dir)? {
                let Ok(entry) = entry else { continue };
                let path = entry.path();
                let Some(key) = entry_key(&path) else { continue };
                let Ok(payload) = std::fs::read_to_string(&path) else { continue };
                // A payload that is not JSON (say, a bare `inf` written by
                // an older build) would poison every response embedding
                // it; one computed under another timing model would pass
                // a stale result off as current, so it is deleted.
                let Ok(v) = hpa_obs::json::parse(&payload) else { continue };
                if v.get("model").and_then(Json::as_str).and_then(parse_hex) == Some(FINGERPRINT) {
                    cache.insert_locked(&mut state, key, payload);
                } else {
                    state.stale_dropped += 1;
                    let _ = std::fs::remove_file(&path);
                }
            }
        }
        Ok(cache)
    }

    /// The payload for a key, if cached.
    #[must_use]
    pub fn get(&self, key: u64) -> Option<String> {
        self.state.lock().expect("cache index").map.get(&key).cloned()
    }

    /// Stores a payload under a key: into the index, and — when the
    /// cache is disk-backed — write-through to a temp file renamed
    /// atomically into place. A disk failure downgrades the entry to
    /// memory-only rather than failing the job that produced it.
    /// Inserting past a configured bound evicts oldest entries (index
    /// and disk file both).
    pub fn put(&self, key: u64, payload: &str) {
        {
            let mut state = self.state.lock().expect("cache index");
            self.insert_locked(&mut state, key, payload.to_string());
        }
        if let Some(dir) = &self.dir {
            // Temp name is unique per key; concurrent puts of the *same*
            // key write identical bytes, so either rename winning is fine.
            let tmp = dir.join(format!(".{}.tmp", format_hex(key)));
            let final_path = dir.join(format!("{}.json", format_hex(key)));
            let _ = std::fs::write(&tmp, payload).and_then(|()| std::fs::rename(&tmp, &final_path));
        }
    }

    /// Inserts into the index and evicts down to the configured bounds,
    /// oldest insertion first. A single entry larger than `max_bytes`
    /// can evict everything including itself — correct (the bound
    /// holds), just wasteful, and only reachable with a tiny bound.
    fn insert_locked(&self, state: &mut CacheState, key: u64, payload: String) {
        let len = payload.len() as u64;
        match state.map.insert(key, payload) {
            None => {
                state.order.push_back(key);
                state.bytes += len;
            }
            // Overwrite (same content by construction): adjust bytes,
            // keep the original insertion position.
            Some(old) => state.bytes += len.saturating_sub(old.len() as u64),
        }
        while self.max_entries.is_some_and(|m| state.map.len() > m)
            || self.max_bytes.is_some_and(|m| state.bytes > m)
        {
            let Some(oldest) = state.order.pop_front() else { break };
            if let Some(evicted) = state.map.remove(&oldest) {
                state.bytes -= evicted.len() as u64;
                state.evictions += 1;
                if let Some(dir) = &self.dir {
                    let _ = std::fs::remove_file(dir.join(format!("{}.json", format_hex(oldest))));
                }
            }
        }
    }

    /// Number of indexed entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.state.lock().expect("cache index").map.len()
    }

    /// Whether the cache holds no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total payload bytes currently indexed.
    #[must_use]
    pub fn bytes(&self) -> u64 {
        self.state.lock().expect("cache index").bytes
    }

    /// Entries evicted by the size bounds over this cache's lifetime.
    #[must_use]
    pub fn evictions(&self) -> u64 {
        self.state.lock().expect("cache index").evictions
    }

    /// Disk entries dropped at open because another timing model
    /// computed them.
    #[must_use]
    pub fn stale_dropped(&self) -> u64 {
        self.state.lock().expect("cache index").stale_dropped
    }

    /// Flushes the index to disk. Writes are already write-through, so
    /// this re-persists any entry whose earlier disk write failed (it
    /// was downgraded to memory-only) and is otherwise a no-op; called
    /// on graceful shutdown.
    pub fn flush(&self) {
        let Some(dir) = &self.dir else { return };
        let state = self.state.lock().expect("cache index");
        for (&key, payload) in state.map.iter() {
            let final_path = dir.join(format!("{}.json", format_hex(key)));
            if final_path.exists() {
                continue;
            }
            let tmp = dir.join(format!(".{}.tmp", format_hex(key)));
            let _ = std::fs::write(&tmp, payload).and_then(|()| std::fs::rename(&tmp, &final_path));
        }
    }
}

/// Parses `<0x-key>.json` file names back to keys; `None` for anything
/// else (temp files, strays).
fn entry_key(path: &Path) -> Option<u64> {
    let name = path.file_name()?.to_str()?;
    parse_hex(name.strip_suffix(".json")?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpa_core::MachineWidth;
    use hpa_workloads::{workload, Scale};

    /// A current-model payload carrying `ipc`.
    fn payload(ipc: &str) -> String {
        format!("{{\"model\":\"{}\",\"ipc\":{ipc}}}", format_hex(FINGERPRINT))
    }

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
        let image = hpa_core::rv::load_elf(hpa_core::rv::fixtures::QUICKSORT_ELF).expect("loads");
        let program = hpa_core::rv::translate(&image).expect("translates");
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

    #[test]
    fn memory_cache_round_trips() {
        let cache = ResultCache::open(None).unwrap();
        assert!(cache.is_empty());
        assert_eq!(cache.get(42), None);
        cache.put(42, "{\"ipc\":1.5}");
        assert_eq!(cache.get(42).as_deref(), Some("{\"ipc\":1.5}"));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn entry_bound_evicts_in_insertion_order() {
        let cache = ResultCache::open_bounded(None, Some(2), None).unwrap();
        cache.put(1, "one");
        cache.put(2, "two");
        cache.put(3, "three");
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.evictions(), 1);
        assert_eq!(cache.get(1), None, "oldest insertion goes first");
        assert!(cache.get(2).is_some() && cache.get(3).is_some());
        // Overwriting an existing key does not count as an insertion.
        cache.put(3, "three");
        assert_eq!(cache.evictions(), 1);
        assert_eq!(cache.bytes(), "two".len() as u64 + "three".len() as u64);
    }

    #[test]
    fn byte_bound_evicts_until_under_and_prunes_disk() {
        let dir = std::env::temp_dir().join(format!("hpa-cache-evict-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        // Payloads are current-model JSON (a reload skips anything else),
        // all the same length.
        let len = payload("1").len() as u64;
        let cache = ResultCache::open_bounded(Some(dir.clone()), None, Some(2 * len + 2)).unwrap();
        cache.put(1, &payload("1"));
        cache.put(2, &payload("2"));
        assert_eq!(cache.evictions(), 0);
        cache.put(3, &payload("3")); // 3 x len bytes -> evict key 1
        assert_eq!(cache.evictions(), 1);
        assert_eq!(cache.bytes(), 2 * len);
        assert!(
            !dir.join(format!("{}.json", format_hex(1))).exists(),
            "eviction prunes the disk store"
        );
        assert!(dir.join(format!("{}.json", format_hex(2))).exists());
        // A reload of the pruned store honors the bound too.
        drop(cache);
        let cache = ResultCache::open_bounded(Some(dir.clone()), Some(1), None).unwrap();
        assert_eq!(cache.len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn disk_cache_persists_and_reloads() {
        let dir = std::env::temp_dir().join(format!("hpa-cache-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let cache = ResultCache::open(Some(dir.clone())).unwrap();
            cache.put(0xabc, &payload("100"));
            cache.put(0xdef, &payload("200"));
            cache.flush();
        }
        // A fresh cache over the same directory sees both entries; a
        // stray non-entry file is ignored.
        std::fs::write(dir.join("not-an-entry.txt"), "junk").unwrap();
        let cache = ResultCache::open(Some(dir.clone())).unwrap();
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.get(0xabc), Some(payload("100")));
        assert_eq!(cache.get(0xdef), Some(payload("200")));
        // No temp files were left behind by the atomic writes.
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(Result::ok)
            .filter(|e| e.file_name().to_string_lossy().ends_with(".tmp"))
            .collect();
        assert!(leftovers.is_empty(), "{leftovers:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn disk_entries_that_are_not_json_are_skipped_on_reload() {
        let dir = std::env::temp_dir().join(format!("hpa-cache-bad-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let good = payload("null");
        std::fs::write(dir.join(format!("{}.json", format_hex(0xabc))), &good).unwrap();
        std::fs::write(dir.join(format!("{}.json", format_hex(0xdef))), "{\"ci_half_width\":inf}")
            .unwrap();
        let cache = ResultCache::open(Some(dir.clone())).unwrap();
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.get(0xabc), Some(good));
        assert_eq!(cache.get(0xdef), None, "an invalid payload is never served");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn disk_entries_from_another_model_are_dropped_on_reload() {
        let dir = std::env::temp_dir().join(format!("hpa-cache-stale-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let stale = format!("{{\"model\":\"{}\",\"ipc\":1}}", format_hex(FINGERPRINT ^ 1));
        let stale_path = dir.join(format!("{}.json", format_hex(0xdef)));
        std::fs::write(&stale_path, stale).unwrap();
        std::fs::write(dir.join(format!("{}.json", format_hex(0x123))), "{\"ipc\":1}").unwrap();
        std::fs::write(dir.join(format!("{}.json", format_hex(0xabc))), payload("1")).unwrap();
        let cache = ResultCache::open(Some(dir.clone())).unwrap();
        assert_eq!(cache.len(), 1, "only the current-model entry loads");
        assert_eq!(cache.get(0xabc), Some(payload("1")));
        assert_eq!(cache.stale_dropped(), 2, "another model, and no model at all");
        assert!(!stale_path.exists(), "a stale entry is deleted");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
