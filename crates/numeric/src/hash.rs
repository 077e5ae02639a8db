//! Vendored content hashing for canonical keys.
//!
//! The query service addresses its result cache by a hash of the
//! *canonical encoding* of a request, so the workspace needs a stable,
//! seedless, dependency-free hash whose value is pinned forever (a
//! rehash would silently invalidate nothing — content addressing only
//! requires that equal encodings collide and unequal ones almost never
//! do — but golden tests pin specific digests, so the function must
//! never drift). [`Fnv1a`] is the 64-bit Fowler–Noll–Vo 1a hash with an
//! xxhash-style avalanche finalizer ([`Fnv1a::finish`]): plain FNV-1a
//! mixes low bits weakly for short keys, and the finalizer spreads every
//! input bit across the digest.
//!
//! The writer methods define the workspace's canonical scalar
//! encodings: integers are written little-endian at fixed width,
//! strings are length-prefixed (so `("ab","c")` and `("a","bc")`
//! differ), and floats are written as canonicalized IEEE bits
//! (`canonical_f64_bits`: `-0.0` folds onto `0.0` and every NaN onto
//! one quiet NaN) so semantically equal keys hash equally.
//!
//! # Examples
//!
//! ```
//! use rcs_numeric::hash::Fnv1a;
//!
//! let mut h = Fnv1a::new();
//! h.write_str("skat");
//! h.write_f64(0.85);
//! let a = h.finish();
//!
//! let mut h2 = Fnv1a::new();
//! h2.write_str("skat");
//! h2.write_f64(0.85);
//! assert_eq!(a, h2.finish());
//! ```

/// FNV-1a 64-bit offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Incremental 64-bit FNV-1a hasher with canonical scalar encodings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv1a {
    state: u64,
}

impl Default for Fnv1a {
    fn default() -> Self {
        Self::new()
    }
}

impl Fnv1a {
    /// A fresh hasher at the FNV offset basis.
    #[must_use]
    pub fn new() -> Self {
        Self { state: FNV_OFFSET }
    }

    /// Absorbs raw bytes.
    pub(crate) fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= u64::from(b);
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
    }

    /// Absorbs one byte.
    pub fn write_u8(&mut self, v: u8) {
        self.write(&[v]);
    }

    /// Absorbs a `u32`, little-endian.
    pub fn write_u32(&mut self, v: u32) {
        self.write(&v.to_le_bytes());
    }

    /// Absorbs a `u64`, little-endian.
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// Absorbs a string as a `u64` byte-length prefix plus its UTF-8
    /// bytes, so adjacent strings cannot alias each other's boundaries.
    pub fn write_str(&mut self, s: &str) {
        self.write_u64(s.len() as u64);
        self.write(s.as_bytes());
    }

    /// Absorbs a float by its canonical IEEE-754 bits
    /// (see `canonical_f64_bits`).
    pub fn write_f64(&mut self, v: f64) {
        self.write_u64(canonical_f64_bits(v));
    }

    /// The digest: the FNV state passed through an avalanche finalizer
    /// (the xorshift-multiply chain xxhash/splitmix64 end with), so
    /// short keys still differ in every output bit region.
    #[must_use]
    pub fn finish(&self) -> u64 {
        let mut x = self.state;
        x ^= x >> 33;
        x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
        x ^= x >> 33;
        x = x.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
        x ^= x >> 33;
        x
    }
}

/// Canonical IEEE-754 bits of a float: `-0.0` folds onto `0.0` and
/// every NaN payload onto the one quiet NaN `f64::NAN` produces, so
/// semantically equal query fields share one encoding. Infinities keep
/// their ordinary bit patterns.
#[must_use]
pub(crate) fn canonical_f64_bits(v: f64) -> u64 {
    if v.is_nan() {
        f64::NAN.to_bits()
    } else if v == 0.0 {
        0u64 // +0.0; folds -0.0 in
    } else {
        v.to_bits()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plain_digest_matches_published_fnv1a_vectors() {
        // Reference vectors from the FNV test suite (64-bit FNV-1a).
        let vectors: [(&[u8], u64); 3] = [
            (b"", 0xcbf2_9ce4_8422_2325),
            (b"a", 0xaf63_dc4c_8601_ec8c),
            (b"foobar", 0x8594_4171_f739_67e8),
        ];
        for (input, expected) in vectors {
            let mut h = Fnv1a::new();
            h.write(input);
            // the raw state, before the avalanche finalizer, is the
            // textbook digest
            assert_eq!(h.state, expected, "input {input:?}");
        }
    }

    #[test]
    fn finalizer_separates_short_keys() {
        // Adjacent small integers must not land in adjacent digests —
        // the avalanche pass exists exactly for this.
        let digest = |v: u64| {
            let mut h = Fnv1a::new();
            h.write_u64(v);
            h.finish()
        };
        let a = digest(1);
        let b = digest(2);
        assert_ne!(a, b);
        assert!((a ^ b).count_ones() > 8, "weak diffusion: {a:#x} vs {b:#x}");
    }

    #[test]
    fn length_prefix_disambiguates_string_boundaries() {
        let mut ab_c = Fnv1a::new();
        ab_c.write_str("ab");
        ab_c.write_str("c");
        let mut a_bc = Fnv1a::new();
        a_bc.write_str("a");
        a_bc.write_str("bc");
        assert_ne!(ab_c.finish(), a_bc.finish());
    }

    #[test]
    fn float_canonicalization_folds_zero_and_nan() {
        assert_eq!(canonical_f64_bits(0.0), canonical_f64_bits(-0.0));
        assert_eq!(
            canonical_f64_bits(f64::NAN),
            canonical_f64_bits(-f64::NAN),
            "every NaN payload must share one encoding"
        );
        assert_ne!(
            canonical_f64_bits(f64::INFINITY),
            canonical_f64_bits(f64::NEG_INFINITY)
        );
        assert_eq!(canonical_f64_bits(1.5), 1.5f64.to_bits());
    }
}
