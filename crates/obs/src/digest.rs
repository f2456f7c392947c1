//! The repo's digest machinery: FNV-1a over bytes or debug formatting,
//! and the `0x` hex text every 64-bit digest travels as.
//!
//! One digest function serves every equivalence check in the workspace:
//! the golden-stats tests pin [`debug_digest`] of full `SimStats` /
//! `Counters` values, and the serve-layer result cache keys entries by
//! [`fnv1a`] of a canonical request encoding. Keeping both on the same
//! primitive means "two results are bit-identical" and "two requests are
//! the same work" are literally the same 64-bit comparison.

/// The FNV-1a offset basis: the state before any byte is folded in.
pub const FNV1A_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds `bytes` into a running FNV-1a state `h`; a `const fn`, so a
/// digest over compile-time tables is itself a compile-time constant.
#[must_use]
pub const fn fnv1a_fold(mut h: u64, bytes: &[u8]) -> u64 {
    let mut i = 0;
    while i < bytes.len() {
        h ^= bytes[i] as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
        i += 1;
    }
    h
}

/// FNV-1a over a byte slice.
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_fold(FNV1A_BASIS, bytes)
}

/// FNV-1a over the debug formatting of a value — the golden-digest
/// convention: every field of the value participates, so any counter
/// moving is as visible as a timing change.
#[must_use]
pub fn debug_digest(value: &impl std::fmt::Debug) -> u64 {
    fnv1a(format!("{value:?}").as_bytes())
}

/// Formats a u64 as `0x`-prefixed, zero-padded hex: the text of every
/// digest, cache key and model fingerprint in JSON records, journal
/// frames and CLI output.
#[must_use]
pub fn format_hex(v: u64) -> String {
    format!("{v:#018x}")
}

/// Parses a `0x`-prefixed hex u64 (the inverse of [`format_hex`]).
#[must_use]
pub fn parse_hex(s: &str) -> Option<u64> {
    u64::from_str_radix(s.strip_prefix("0x")?, 16).ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // Standard FNV-1a test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
        assert_eq!(fnv1a_fold(fnv1a(b"foo"), b"bar"), fnv1a(b"foobar"), "folding is streaming");
    }

    #[test]
    fn debug_digest_sees_every_field() {
        #[derive(Debug)]
        struct S(#[allow(dead_code)] u64, #[allow(dead_code)] u64);
        assert_ne!(debug_digest(&S(1, 2)), debug_digest(&S(1, 3)));
        assert_eq!(debug_digest(&S(1, 2)), debug_digest(&S(1, 2)));
    }

    #[test]
    fn hex_round_trips_full_range() {
        for v in [0, 1, u64::MAX, 0x8000_0000_0000_0000] {
            assert_eq!(parse_hex(&format_hex(v)), Some(v));
        }
        assert_eq!(format_hex(0xff), "0x00000000000000ff");
        assert_eq!(parse_hex("123"), None, "missing 0x prefix");
    }
}
