//! A fast fixed-key hasher for the simulator's hot integer-keyed maps.
//!
//! `std`'s default `HashMap` hasher (SipHash-1-3 with per-map random keys)
//! defends against collision-flooding from untrusted input. The simulator's
//! hot maps — the paged-memory page directory, the profiler's per-address
//! provenance map, the hist register file — are keyed by addresses and ids
//! the simulator itself produces, so that defence buys nothing and costs a
//! full SipHash permutation per probe, *every* load and store of a profiled
//! run. [`FoldHasher`] instead mixes each word with one 128-bit
//! multiply-and-fold (the wyhash/FxHash family), which is 5–10× cheaper and
//! still splits dense integer key ranges across buckets well.
//!
//! Determinism is a feature here: unlike `RandomState`, the hash is the
//! same in every run and process, so map iteration order — where it leaks
//! into anything observable — cannot vary between otherwise identical runs.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Multiplicative constant (high-entropy odd number, from splitmix64's
/// golden-gamma family).
const K: u64 = 0x9E37_79B9_7F4A_7C15;

/// One 128-bit multiply, folded back to 64 bits by xoring the halves.
#[inline]
fn fold_mul(x: u64, y: u64) -> u64 {
    let wide = u128::from(x) * u128::from(y);
    (wide as u64) ^ ((wide >> 64) as u64)
}

/// A folded-multiply [`Hasher`] for trusted integer-like keys.
///
/// Not DoS-resistant — never use it on attacker-controlled keys.
#[derive(Debug, Clone, Copy, Default)]
pub struct FoldHasher {
    state: u64,
}

impl Hasher for FoldHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        // Generic path (derived `Hash` on structs, strings): fold in 8-byte
        // words, then the zero-padded tail. Length is mixed so "ab" + "c"
        // and "a" + "bc" differ even across `write` call boundaries.
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            let w = u64::from_le_bytes(c.try_into().expect("chunk is 8 bytes"));
            self.state = fold_mul(self.state ^ w, K);
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rem.len()].copy_from_slice(rem);
            self.state = fold_mul(self.state ^ u64::from_le_bytes(tail), K);
        }
        self.state = fold_mul(self.state ^ bytes.len() as u64, K);
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.write_u64(u64::from(n));
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.write_u64(u64::from(n));
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.state = fold_mul(self.state ^ n, K);
    }

    #[inline]
    fn write_u128(&mut self, n: u128) {
        self.write_u64(n as u64);
        self.write_u64((n >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }
}

/// Second multiplicative constant for the independent lane of
/// [`hash128`] (also from splitmix64's output mixing constants).
const K2: u64 = 0xC2B2_AE3D_27D4_EB4F;

/// A 128-bit content hash over a sequence of byte chunks — the *one*
/// audited hash implementation shared by the compile-cache content key
/// and the [`FoldHasher`]-backed hot maps (both fold words with
/// `fold_mul`).
///
/// Two independent 64-bit lanes run over the same stream with different
/// multipliers and initial states; each chunk is terminated by its
/// length so `["ab","c"]` and `["a","bc"]` hash differently. Like
/// [`FoldHasher`] this is deterministic across runs and processes and
/// **not** DoS-resistant — key only trusted content with it.
#[must_use]
pub fn hash128(chunks: &[&[u8]]) -> u128 {
    let mut lo: u64 = 0x243F_6A88_85A3_08D3; // pi fraction: arbitrary, fixed
    let mut hi: u64 = 0x1319_8A2E_0370_7344;
    for bytes in chunks {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            let w = u64::from_le_bytes(w.try_into().expect("chunk is 8 bytes"));
            lo = fold_mul(lo ^ w, K);
            hi = fold_mul(hi ^ w, K2);
        }
        let rem = words.remainder();
        if !rem.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rem.len()].copy_from_slice(rem);
            let w = u64::from_le_bytes(tail);
            lo = fold_mul(lo ^ w, K);
            hi = fold_mul(hi ^ w, K2);
        }
        lo = fold_mul(lo ^ bytes.len() as u64, K);
        hi = fold_mul(hi ^ bytes.len() as u64, K2);
    }
    (u128::from(hi) << 64) | u128::from(lo)
}

/// [`std::hash::BuildHasher`] for [`FoldHasher`] (stateless, deterministic).
pub type BuildFoldHasher = BuildHasherDefault<FoldHasher>;

/// A `HashMap` on [`FoldHasher`] — drop-in for default maps on trusted
/// integer keys in simulator hot paths.
pub type FastMap<K, V> = HashMap<K, V, BuildFoldHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(v: &T) -> u64 {
        BuildFoldHasher::default().hash_one(v)
    }

    #[test]
    fn deterministic_across_builders() {
        assert_eq!(hash_of(&42u64), hash_of(&42u64));
        assert_eq!(hash_of(&"slice"), hash_of(&"slice"));
    }

    #[test]
    fn dense_keys_spread() {
        // consecutive integers must not collide or cluster to one bucket
        let hashes: Vec<u64> = (0u64..1024).map(|k| hash_of(&k)).collect();
        let mut unique = hashes.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), hashes.len(), "no collisions on dense keys");
        // low bits (bucket index) must vary
        let low_bits: std::collections::HashSet<u64> = hashes.iter().map(|h| h & 0x7f).collect();
        assert!(low_bits.len() > 100, "low bits spread: {}", low_bits.len());
    }

    #[test]
    fn byte_stream_boundaries_matter() {
        let mut a = FoldHasher::default();
        a.write(b"ab");
        a.write(b"c");
        let mut b = FoldHasher::default();
        b.write(b"a");
        b.write(b"bc");
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn hash128_deterministic_and_sensitive() {
        let a = hash128(&[b"program bytes", b"options"]);
        assert_eq!(a, hash128(&[b"program bytes", b"options"]));
        // single-byte mutation flips the key
        assert_ne!(a, hash128(&[b"program bytez", b"options"]));
        // chunk boundaries matter (length-terminated chunks)
        assert_ne!(
            hash128(&[b"ab", b"c"]),
            hash128(&[b"a", b"bc"]),
            "chunk boundary must affect the hash"
        );
        // the two 64-bit lanes are independent: flipping input changes both
        let b = hash128(&[b"program bytes", b"optionz"]);
        assert_ne!(a as u64, b as u64);
        assert_ne!((a >> 64) as u64, (b >> 64) as u64);
        assert_ne!(hash128(&[]), hash128(&[b""]));
    }

    #[test]
    fn fastmap_roundtrip() {
        let mut m: FastMap<u64, u32> = FastMap::default();
        for k in 0..100u64 {
            m.insert(k * 4096, k as u32);
        }
        assert_eq!(m.len(), 100);
        assert_eq!(m.get(&(7 * 4096)), Some(&7));
    }
}
