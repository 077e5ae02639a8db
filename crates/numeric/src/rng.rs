//! Deterministic pseudo-random generation for seeded simulations.
//!
//! The workspace must build and reproduce results with **zero external
//! dependencies**, so the generator is vendored here: a
//! [xoshiro256++](https://prng.di.unimi.it/) core seeded through
//! SplitMix64, the combination recommended by the algorithm's authors.
//! Every Monte-Carlo figure in the reproduction is a pure function of
//! its `u64` seed — bit-identical across runs, platforms and toolchain
//! versions — which is what lets the paper's reliability and
//! availability claims be pinned by golden-value tests.
//!
//! Beyond uniform draws the module provides the two distributions the
//! simulators need: exponential interarrival times and single-uniform
//! Poisson counts (CDF inversion, monotone in the rate for a fixed
//! draw — the property the common-random-numbers fleet comparisons
//! rely on).
//!
//! # Examples
//!
//! ```
//! use rcs_numeric::rng::Rng;
//!
//! let mut rng = Rng::seed_from_u64(42);
//! let u = rng.next_f64();
//! assert!((0.0..1.0).contains(&u));
//! let k = rng.gen_range(0..10usize);
//! assert!(k < 10);
//! // identical seeds replay identical streams
//! assert_eq!(Rng::seed_from_u64(7).next_u64(), Rng::seed_from_u64(7).next_u64());
//! ```

use core::ops::{Range, RangeInclusive};

/// One SplitMix64 step: advances `state` and returns the next output.
///
/// Used to expand a single `u64` seed into the 256-bit xoshiro state so
/// that similar seeds (0, 1, 2, ...) still produce uncorrelated streams.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A deterministic xoshiro256++ generator.
///
/// Cloning the generator clones the stream position, which makes it easy
/// to fork reproducible sub-streams in tests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// Creates a generator whose whole stream is determined by `seed`.
    #[must_use]
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        Self {
            s: [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ],
        }
    }

    /// The raw 256-bit engine state — the generator's exact stream
    /// position. Together with [`Rng::from_state`] this is the
    /// checkpoint/restore hook of the simulation kernel: a restored
    /// generator replays the remaining stream bit-for-bit.
    #[must_use]
    pub fn state(&self) -> [u64; 4] {
        self.s
    }

    /// Rebuilds a generator at an exact stream position captured by
    /// [`Rng::state`]. The all-zero state is a fixed point of the
    /// engine (it only ever emits zeros) and can never be produced by
    /// [`Rng::seed_from_u64`], so it is rejected.
    ///
    /// # Panics
    ///
    /// Panics if `state` is all zeros.
    #[must_use]
    pub fn from_state(state: [u64; 4]) -> Self {
        assert!(
            state.iter().any(|&w| w != 0),
            "the all-zero xoshiro state is degenerate"
        );
        Self { s: state }
    }

    /// Returns the next 64 uniformly distributed bits.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Returns a uniform draw from `[0, 1)` with 53 bits of precision.
    pub fn next_f64(&mut self) -> f64 {
        // 53 high bits scaled by 2^-53: every value is representable and
        // the result is strictly below 1.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Returns a uniform draw from the given range.
    ///
    /// Works for `Range`/`RangeInclusive` over the integer and float
    /// types the simulators use; see [`SampleRange`].
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    pub fn gen_range<R: SampleRange>(&mut self, range: R) -> R::Output {
        range.sample_from(self)
    }

    /// Returns `true` with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1]`.
    pub fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "probability {p} outside [0, 1]");
        self.next_f64() < p
    }

    /// One exponential interarrival time with the given `rate` (mean
    /// `1 / rate`), via inversion of a single uniform.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is not positive.
    pub fn exponential(&mut self, rate: f64) -> f64 {
        assert!(rate > 0.0, "exponential rate must be positive, got {rate}");
        // 1 - U is in (0, 1], so the logarithm is finite.
        -(1.0 - self.next_f64()).ln() / rate
    }

    /// Advances the generator by 2^128 steps in O(1) draws.
    ///
    /// This is the published xoshiro256++ jump function: the polynomial
    /// below is taken verbatim from Vigna's reference
    /// `xoshiro256plusplus.c`. 2^64 non-overlapping subsequences of
    /// length 2^128 each can be generated by repeated jumps, which is
    /// how [`Rng::split_streams`] hands every parallel worker a provably
    /// disjoint stream.
    pub fn jump(&mut self) {
        const JUMP: [u64; 4] = [
            0x180E_C6D3_3CFD_0ABA,
            0xD5A6_1266_F0C9_392C,
            0xA958_2618_E03F_C9AA,
            0x39AB_DC45_29B1_661C,
        ];
        self.apply_jump(&JUMP);
    }

    /// Core of [`Rng::jump`]: multiplies the state by the jump
    /// polynomial in the GF(2) algebra of the linear engine.
    fn apply_jump(&mut self, polynomial: &[u64; 4]) {
        let mut acc = [0u64; 4];
        for &word in polynomial {
            for bit in 0..64 {
                if word & (1u64 << bit) != 0 {
                    acc[0] ^= self.s[0];
                    acc[1] ^= self.s[1];
                    acc[2] ^= self.s[2];
                    acc[3] ^= self.s[3];
                }
                self.next_u64();
            }
        }
        self.s = acc;
    }

    /// Splits off `n` generators whose streams provably never overlap.
    ///
    /// Stream 0 is a clone of `self`; stream `i + 1` starts 2^128 steps
    /// after stream `i` (one [`Rng::jump`] further). Any worker drawing
    /// fewer than 2^128 values therefore stays inside its own
    /// subsequence, which is what makes chunked parallel Monte-Carlo
    /// bit-reproducible: the chunk → stream mapping is fixed by the seed
    /// alone, independent of how chunks are scheduled onto threads.
    /// `self` is not advanced.
    #[must_use]
    pub fn split_streams(&self, n: usize) -> Vec<Self> {
        let mut streams = Vec::with_capacity(n);
        let mut current = self.clone();
        for _ in 0..n {
            streams.push(current.clone());
            current.jump();
        }
        streams
    }

    /// One Poisson draw with mean `lambda` by CDF inversion.
    ///
    /// Consumes exactly one uniform, keeping common-random-number
    /// streams synchronized across simulation configurations, and is
    /// monotone in `lambda` for a fixed draw (a higher failure rate can
    /// never produce fewer events from the same randomness). The count
    /// is capped at 10 000 to bound the inversion loop.
    pub fn poisson(&mut self, lambda: f64) -> u64 {
        if lambda <= 0.0 {
            return 0;
        }
        let u = self.next_f64();
        let mut pmf = (-lambda).exp();
        let mut cdf = pmf;
        let mut k = 0u64;
        while u > cdf && k < 10_000 {
            k += 1;
            pmf *= lambda / k as f64;
            cdf += pmf;
        }
        k
    }
}

/// A range that [`Rng::gen_range`] can sample uniformly.
pub trait SampleRange {
    /// The sampled value type.
    type Output;

    /// Draws one uniform value from the range.
    fn sample_from(self, rng: &mut Rng) -> Self::Output;
}

/// Maps 64 uniform bits onto `[0, span)` by widening multiplication.
///
/// The bias is at most `span / 2^64`, far below anything the
/// simulation statistics can resolve, and the result is always strictly
/// below `span`.
fn mul_shift(bits: u64, span: u64) -> u64 {
    ((u128::from(bits) * u128::from(span)) >> 64) as u64
}

macro_rules! impl_int_ranges {
    ($($t:ty),*) => {$(
        impl SampleRange for Range<$t> {
            type Output = $t;

            fn sample_from(self, rng: &mut Rng) -> $t {
                assert!(self.start < self.end, "empty range {:?}", self);
                let span = (self.end - self.start) as u64;
                self.start + mul_shift(rng.next_u64(), span) as $t
            }
        }

        impl SampleRange for RangeInclusive<$t> {
            type Output = $t;

            fn sample_from(self, rng: &mut Rng) -> $t {
                let (start, end) = (*self.start(), *self.end());
                assert!(start <= end, "empty range {start}..={end}");
                if start == <$t>::MIN && end == <$t>::MAX {
                    return rng.next_u64() as $t;
                }
                let span = (end - start) as u64 + 1;
                start + mul_shift(rng.next_u64(), span) as $t
            }
        }
    )*};
}

impl_int_ranges!(usize, u64, u32);

impl SampleRange for Range<f64> {
    type Output = f64;

    fn sample_from(self, rng: &mut Rng) -> f64 {
        assert!(
            self.start < self.end && self.start.is_finite() && self.end.is_finite(),
            "invalid range {:?}",
            self
        );
        let v = self.start + rng.next_f64() * (self.end - self.start);
        // guard against rounding up onto the open bound
        v.min(self.end.next_down()).max(self.start)
    }
}

impl SampleRange for RangeInclusive<f64> {
    type Output = f64;

    fn sample_from(self, rng: &mut Rng) -> f64 {
        let (start, end) = (*self.start(), *self.end());
        assert!(
            start <= end && start.is_finite() && end.is_finite(),
            "invalid range {start}..={end}"
        );
        (start + rng.next_f64() * (end - start)).clamp(start, end)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix64_matches_reference_vector() {
        // Reference outputs of Vigna's splitmix64.c for seed 0.
        let mut s = 0u64;
        assert_eq!(splitmix64(&mut s), 0xE220_A839_7B1D_CDAF);
        assert_eq!(splitmix64(&mut s), 0x6E78_9E6A_A1B9_65F4);
        assert_eq!(splitmix64(&mut s), 0x06C4_5D18_8009_454F);
    }

    #[test]
    fn deterministic_per_seed() {
        let mut a = Rng::seed_from_u64(123);
        let mut b = Rng::seed_from_u64(123);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = Rng::seed_from_u64(124);
        assert_ne!(Rng::seed_from_u64(123).next_u64(), c.next_u64());
    }

    #[test]
    fn uniform_mean_and_bounds() {
        let mut rng = Rng::seed_from_u64(1);
        let n = 20_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let u = rng.next_f64();
            assert!((0.0..1.0).contains(&u));
            sum += u;
        }
        let mean = sum / f64::from(n);
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn int_ranges_respect_bounds_and_cover() {
        let mut rng = Rng::seed_from_u64(2);
        let mut seen = [false; 7];
        for _ in 0..1000 {
            let v = rng.gen_range(3..10usize);
            assert!((3..10).contains(&v));
            seen[v - 3] = true;
            let w = rng.gen_range(3..=10u64);
            assert!((3..=10).contains(&w));
        }
        assert!(seen.iter().all(|&b| b), "all 7 values hit in 1000 draws");
    }

    #[test]
    fn float_range_respects_open_bound() {
        let mut rng = Rng::seed_from_u64(3);
        for _ in 0..10_000 {
            let v = rng.gen_range(-2.5..7.5f64);
            assert!((-2.5..7.5).contains(&v));
        }
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_panics() {
        let _ = Rng::seed_from_u64(0).gen_range(5..5usize);
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut rng = Rng::seed_from_u64(4);
        let hits = (0..20_000).filter(|_| rng.gen_bool(0.3)).count();
        let freq = hits as f64 / 20_000.0;
        assert!((freq - 0.3).abs() < 0.02, "freq {freq}");
        assert!(!Rng::seed_from_u64(0).gen_bool(0.0));
        assert!(Rng::seed_from_u64(0).gen_bool(1.0));
    }

    #[test]
    fn exponential_mean_matches_rate() {
        let mut rng = Rng::seed_from_u64(5);
        let rate = 2.0;
        let n = 30_000;
        let total: f64 = (0..n).map(|_| rng.exponential(rate)).sum();
        let mean = total / f64::from(n);
        assert!((mean - 1.0 / rate).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn poisson_mean_matches_lambda() {
        let mut rng = Rng::seed_from_u64(6);
        let lambda = 2.5;
        let n = 20_000;
        let total: u64 = (0..n).map(|_| rng.poisson(lambda)).sum();
        let mean = total as f64 / f64::from(n);
        assert!((mean - lambda).abs() < 0.05, "mean {mean}");
    }

    #[test]
    fn poisson_is_monotone_in_lambda_for_a_fixed_draw() {
        for seed in 0..50 {
            let mut lo = Rng::seed_from_u64(seed);
            let mut hi = lo.clone();
            assert!(lo.poisson(0.7) <= hi.poisson(2.1));
        }
    }

    #[test]
    fn poisson_zero_rate_draws_nothing_but_consumes_nothing() {
        let mut rng = Rng::seed_from_u64(7);
        let before = rng.clone();
        assert_eq!(rng.poisson(0.0), 0);
        assert_eq!(rng, before, "zero-rate draw must not advance the stream");
    }

    #[test]
    fn jump_matches_reference_vectors() {
        // First outputs after one jump() from seed 42, cross-checked
        // against an independent transcription of Vigna's reference
        // xoshiro256plusplus.c (same SplitMix64 seeding).
        let mut rng = Rng::seed_from_u64(42);
        rng.jump();
        let outputs: Vec<u64> = (0..4).map(|_| rng.next_u64()).collect();
        assert_eq!(
            outputs,
            vec![
                0xC0B6_F4BE_293B_1AE5,
                0x5DB3_DD96_83E7_BB33,
                0x08D1_77EF_BA75_B08E,
                0xDD4B_9019_A605_434D,
            ]
        );
        // Two jumps land 2^129 steps out, on a different pinned value.
        let mut rng = Rng::seed_from_u64(42);
        rng.jump();
        rng.jump();
        assert_eq!(rng.next_u64(), 0xBD1A_8014_54FF_844B);
    }

    #[test]
    fn split_streams_are_successive_jumps() {
        let base = Rng::seed_from_u64(99);
        let streams = base.split_streams(4);
        assert_eq!(streams.len(), 4);
        // stream 0 is the base stream, un-advanced
        assert_eq!(streams[0], base);
        // stream i+1 is stream i jumped once
        for i in 0..3 {
            let mut jumped = streams[i].clone();
            jumped.jump();
            assert_eq!(streams[i + 1], jumped);
        }
        // and the split leaves the base generator untouched
        assert_eq!(base, Rng::seed_from_u64(99));
    }

    #[test]
    fn split_streams_do_not_collide() {
        // 8 streams, 1000 draws each: all 8000 outputs distinct. (The
        // streams are provably 2^128 apart; this is a smoke check that
        // the plumbing actually hands out different streams.)
        let streams = Rng::seed_from_u64(7).split_streams(8);
        let mut seen = std::collections::HashSet::new();
        for mut s in streams {
            for _ in 0..1000 {
                assert!(seen.insert(s.next_u64()), "stream collision");
            }
        }
    }

    #[test]
    fn golden_stream_is_pinned() {
        // Regression pin: the exact stream for seed 42. If this changes,
        // every golden Monte-Carlo value in the workspace changes too.
        let mut rng = Rng::seed_from_u64(42);
        let first: Vec<u64> = (0..4).map(|_| rng.next_u64()).collect();
        assert_eq!(
            first,
            vec![
                0xD076_4D4F_4476_689F,
                0x519E_4174_576F_3791,
                0xFBE0_7CFB_0C24_ED8C,
                0xB37D_9F60_0CD8_35B8,
            ]
        );
    }
}
