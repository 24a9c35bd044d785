//! Preallocated log-linear latency histogram.
//!
//! Values (nanoseconds) fall into 128 linear sub-buckets per power of
//! two, so a reported quantile is within 1/256 ≈ 0.4 % of the recorded
//! value and `record` is two shifts and an increment — nothing on the
//! measured path allocates.

/// Sub-bucket bits per octave: 2^7 = 128 sub-buckets.
const SUB_BITS: u32 = 7;
const SUB: usize = 1 << SUB_BITS;
/// Octaves `SUB_BITS..=63` plus the exact region below `SUB`.
const BUCKETS: usize = (64 - SUB_BITS as usize + 1) * SUB;

/// A quantile is reported only when at least this many samples lie
/// beyond it (choosing-metrics §1): below that the tail is one or two
/// outliers, not a distribution.
pub const MIN_BEYOND: f64 = 10.0;

#[derive(Clone)]
pub struct Hist {
    counts: Vec<u64>,
    n: u64,
}

impl Default for Hist {
    fn default() -> Self {
        Hist::new()
    }
}

fn bucket_of(v: u64) -> usize {
    if v < SUB as u64 {
        return v as usize;
    }
    let e = 63 - v.leading_zeros();
    let sub = (v >> (e - SUB_BITS)) as usize & (SUB - 1);
    (e - SUB_BITS + 1) as usize * SUB + sub
}

/// Lower edge and width of bucket `i`.
fn range_of(i: usize) -> (f64, f64) {
    if i < SUB {
        return (i as f64, 1.0);
    }
    let shift = (i / SUB - 1) as u32;
    (
        (((SUB + i % SUB) as u64) << shift) as f64,
        (1u64 << shift) as f64,
    )
}

impl Hist {
    pub fn new() -> Hist {
        Hist {
            counts: vec![0; BUCKETS],
            n: 0,
        }
    }

    #[inline]
    pub fn record(&mut self, v: u64) {
        self.counts[bucket_of(v)] += 1;
        self.n += 1;
    }

    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.n += other.n;
    }

    pub fn count(&self) -> u64 {
        self.n
    }

    /// True when at least [`MIN_BEYOND`] samples lie beyond quantile `q`.
    pub fn supports(&self, q: f64) -> bool {
        // The epsilon absorbs `1.0 - q` rounding (1 - 0.99 is not 0.01).
        (1.0 - q) * self.n as f64 >= MIN_BEYOND - 1e-9
    }

    /// Quantile `q` in the recorded unit (0 when empty), interpolated
    /// inside its bucket so that two runs do not read identical values
    /// just because they share a bucket. The driver contract wants every
    /// metric on every run, so this answers even when [`Hist::supports`]
    /// says the tail is too thin; callers flag that case.
    pub fn estimate(&self, q: f64) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let rank = (q * self.n as f64).clamp(0.5, self.n as f64);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c > 0 && (seen + c) as f64 >= rank {
                let (lower, width) = range_of(i);
                return lower + width * (rank - seen as f64) / c as f64;
            }
            seen += c;
        }
        unreachable!("bucket counts sum to n")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_error_is_below_one_percent() {
        for &v in &[
            1u64,
            127,
            128,
            129,
            1_000,
            40_000,
            4_650_000,
            150_000_000_000,
        ] {
            let (lower, width) = range_of(bucket_of(v));
            assert!(
                lower <= v as f64 && (v as f64) < lower + width,
                "{v} outside its bucket"
            );
            assert!(
                width == 1.0 || width / lower <= 1.0 / 128.0,
                "bucket of {v} is {width} wide"
            );
        }
        assert!(bucket_of(u64::MAX) < BUCKETS);
    }

    #[test]
    fn quantiles_of_a_uniform_ramp() {
        let mut h = Hist::new();
        for v in 1..=100_000u64 {
            h.record(v * 10);
        }
        for &(q, want) in &[(0.5, 500_000.0), (0.99, 990_000.0), (0.999, 999_000.0)] {
            let got = h.estimate(q);
            assert!(h.supports(q));
            assert!((got - want).abs() / want < 0.01, "q{q}: {got} vs {want}");
        }
    }

    #[test]
    fn a_quantile_needs_ten_samples_beyond_it() {
        let mut h = Hist::new();
        for v in 0..999u64 {
            h.record(v);
        }
        assert!(h.supports(0.5));
        assert!(!h.supports(0.99), "999 samples: 9.99 beyond p99");
        h.record(999);
        assert!(h.supports(0.99), "1000 samples: 10 beyond p99");
        assert!(!h.supports(0.999));
        assert!(h.estimate(0.999) > 990.0, "still answers, for the driver");
    }

    #[test]
    fn merge_adds_counts() {
        let (mut a, mut b) = (Hist::new(), Hist::new());
        a.record(100);
        b.record(300);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert!((a.estimate(1.0) - 300.0).abs() <= 2.0);
    }
}
