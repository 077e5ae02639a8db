//! Small statistics, the output digest and the process's peak RSS.

use std::ops::Range;

use rcs_numeric::hash::Fnv1a;

/// Nearest-rank percentile (`p` in `[0, 1]`) of unsorted samples; 0 for
/// no samples.
#[must_use]
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The `p` percentile of each full block of `size` consecutive samples,
/// median over blocks; the plain percentile when no block is full.
#[must_use]
pub fn windowed_percentile(samples: &[f64], size: usize, p: f64) -> f64 {
    let blocks: Vec<f64> = samples
        .chunks_exact(size.max(1))
        .map(|b| percentile(b, p))
        .collect();
    if blocks.is_empty() {
        percentile(samples, p)
    } else {
        median(&blocks)
    }
}

/// `len / min_block` contiguous ranges of equal length covering
/// `0..len` (one range when fewer), so every index lies in a range of
/// at least `min_block`.
#[must_use]
pub fn blocks(len: usize, min_block: usize) -> Vec<Range<usize>> {
    let count = (len / min_block.max(1)).max(1);
    (0..count)
        .map(|b| b * len / count..(b + 1) * len / count)
        .collect()
}

/// The `p` percentile of each of the [`blocks`], median over blocks. A
/// burst of load from outside the process moves the percentile of a few
/// blocks, not the median.
#[must_use]
pub fn block_median_percentile(samples: &[f64], min_block: usize, p: f64) -> f64 {
    let per_block: Vec<f64> = blocks(samples.len(), min_block)
        .into_iter()
        .map(|b| percentile(&samples[b], p))
        .collect();
    median(&per_block)
}

/// Arithmetic mean; 0 for no samples.
#[must_use]
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Median by linear interpolation (Python's `statistics.median`).
#[must_use]
pub fn median(samples: &[f64]) -> f64 {
    quartiles(samples).1
}

/// First quartile, median and third quartile with the interpolation of
/// Python's `statistics.quantiles(values, n=4)` (the default
/// `exclusive` method). One sample gives that sample three times.
#[must_use]
pub fn quartiles(samples: &[f64]) -> (f64, f64, f64) {
    let mut data = samples.to_vec();
    data.sort_by(f64::total_cmp);
    match data.len() {
        0 => return (0.0, 0.0, 0.0),
        1 => return (data[0], data[0], data[0]),
        _ => {}
    }
    let ld = data.len();
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    (q(1), q(2), q(3))
}

/// FNV-1a digest over the bit patterns of the first `limit` results, so
/// that time-bounded runs of one seed print the same digest.
pub struct Digest {
    hash: Fnv1a,
    ops: u64,
    limit: u64,
}

impl Digest {
    /// A digest over at most `limit` results.
    #[must_use]
    pub fn new(limit: u64) -> Self {
        Self {
            hash: Fnv1a::new(),
            ops: 0,
            limit,
        }
    }

    /// Absorbs one result, written by `write`, if still within the limit.
    pub fn absorb(&mut self, write: impl FnOnce(&mut Fnv1a)) {
        if self.ops < self.limit {
            write(&mut self.hash);
            self.ops += 1;
        }
    }

    /// Results absorbed so far.
    #[must_use]
    pub fn ops(&self) -> u64 {
        self.ops
    }

    /// The digest value.
    #[must_use]
    pub fn value(&self) -> u64 {
        self.hash.finish()
    }
}

/// Absorbs floats by their exact IEEE bits.
pub fn write_bits(h: &mut Fnv1a, values: &[f64]) {
    for v in values {
        h.write_u64(v.to_bits());
    }
}

/// Peak resident set of this process (`VmHWM`), MiB; 0 where
/// `/proc/self/status` is unavailable.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4)
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.5), 50.0);
        assert_eq!(percentile(&xs, 0.99), 99.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn block_median_percentile_covers_every_sample_and_skips_a_burst() {
        // 3000 samples in three blocks of 1000; a burst in the middle one
        // sets the pooled p99 but not the median of the block p99s
        let mut xs = vec![1.0; 3000];
        xs[1000..1100].fill(50.0);
        assert_eq!(percentile(&xs, 0.99), 50.0);
        assert_eq!(block_median_percentile(&xs, 1000, 0.99), 1.0);
        // 1999 samples make one block: the plain percentile of them all
        let ys: Vec<f64> = (1..=1999).map(f64::from).collect();
        assert_eq!(
            block_median_percentile(&ys, 1000, 0.99),
            percentile(&ys, 0.99)
        );
    }
}
