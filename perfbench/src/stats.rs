//! Small numeric helpers: percentiles, a seeded generator and a digest.

/// Nearest-rank percentile: the smallest sample with at least `p`
/// percent of all samples at or below it. `sorted` must be ascending;
/// an empty slice reads as 0.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unsorted samples (nearest rank, so always a sample).
pub fn median(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 50.0)
}

/// The median, over `blocks` consecutive runs of samples of equal size
/// (the last may be shorter), of each run's `p`th percentile: a burst of
/// slow samples moves one block's percentile, not the median of them.
/// Samples in their order of arrival; with fewer samples than `blocks`,
/// each sample is a block.
pub fn block_percentile(samples: &[f64], p: f64, blocks: usize) -> f64 {
    let size = samples.len().div_ceil(blocks.max(1)).max(1);
    let per_block: Vec<f64> = samples
        .chunks(size)
        .map(|c| {
            let mut c = c.to_vec();
            c.sort_by(f64::total_cmp);
            percentile(&c, p)
        })
        .collect();
    median(&per_block)
}

/// SplitMix64 finalizer: the mixer job and session seeds are derived
/// with, so every input is a pure function of the run's `--seed`.
pub fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Seed of item `index` under stream `stream` of run seed `seed`.
pub fn derive(seed: u64, stream: u64, index: u64) -> u64 {
    splitmix(seed ^ splitmix(stream ^ splitmix(index)))
}

/// A seeded permutation of `0..n` (Fisher–Yates over SplitMix64).
pub fn permutation(n: usize, seed: u64) -> Vec<usize> {
    let mut v: Vec<usize> = (0..n).collect();
    let mut state = seed;
    for i in (1..n).rev() {
        state = splitmix(state);
        v.swap(i, (state % (i as u64 + 1)) as usize);
    }
    v
}

/// FNV-1a over bytes: the digest traces and generated C are compared by.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xCBF2_9CE4_8422_2325, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_on_known_samples() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 5.0);
        assert_eq!(percentile(&v, 90.0), 9.0);
        assert_eq!(percentile(&v, 99.0), 10.0);
        assert_eq!(percentile(&v, 100.0), 10.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 90.0), 7.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        let w: Vec<f64> = (1..=200).map(f64::from).collect();
        // 20 samples lie above p90: enough for the "ten beyond" rule.
        assert_eq!(percentile(&w, 90.0), 180.0);
    }

    #[test]
    fn block_percentile_ignores_one_slow_block() {
        let mut v: Vec<f64> = (0..50).map(|i| f64::from(i % 10 + 1)).collect();
        assert_eq!(block_percentile(&v, 90.0, 5), 9.0);
        // A slow spell over one block of ten moves that block only.
        for x in &mut v[20..30] {
            *x *= 100.0;
        }
        assert_eq!(block_percentile(&v, 90.0, 5), 9.0);
        assert_eq!(block_percentile(&v, 50.0, 5), 5.0);
        // Fewer samples than blocks: one sample per block.
        assert_eq!(block_percentile(&[3.0, 1.0, 2.0], 90.0, 5), 2.0);
        assert_eq!(block_percentile(&[], 90.0, 5), 0.0);
    }

    #[test]
    fn median_sorts_first() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
    }

    #[test]
    fn permutation_is_seeded_and_complete() {
        let a = permutation(8, 42);
        assert_eq!(a, permutation(8, 42));
        assert_ne!(a, permutation(8, 43));
        let mut s = a.clone();
        s.sort_unstable();
        assert_eq!(s, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn derived_seeds_differ_by_stream_and_index() {
        assert_eq!(derive(1, 2, 3), derive(1, 2, 3));
        assert_ne!(derive(1, 2, 3), derive(1, 2, 4));
        assert_ne!(derive(1, 2, 3), derive(1, 3, 3));
        assert_ne!(derive(1, 2, 3), derive(2, 2, 3));
    }

    #[test]
    fn fnv1a_reference_values() {
        assert_eq!(fnv1a(b""), 0xCBF2_9CE4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xAF63_DC4C_8601_EC8C);
    }
}
