//! Log-linear latency histogram: exact buckets below 32 ns, then 32
//! linear sub-buckets per power of two (bucket width at most 1/32 of the
//! value). `record` is one array increment. Quantiles interpolate
//! linearly inside their bucket, so a median of per-sample quantiles
//! keeps all its digits instead of snapping to a bucket edge.

const SUB_BITS: u32 = 5;
const SUB: usize = 1 << SUB_BITS;
const BUCKETS: usize = SUB * (64 - SUB_BITS as usize + 1);

fn index_of(v: u64) -> usize {
    if v < SUB as u64 {
        return v as usize;
    }
    let exp = 63 - v.leading_zeros();
    let group = (exp - SUB_BITS + 1) as usize;
    group * SUB + ((v >> (exp - SUB_BITS)) as usize & (SUB - 1))
}

/// The half-open value range `[lo, hi)` of bucket `idx`.
fn bounds(idx: usize) -> (f64, f64) {
    let (group, sub) = (idx / SUB, (idx % SUB) as u64);
    if group == 0 {
        return (sub as f64, (sub + 1) as f64);
    }
    let lo = (SUB as u64 + sub) << (group - 1);
    (lo as f64, lo as f64 + (1u64 << (group - 1)) as f64)
}

/// A fixed-size histogram of `u64` samples (nanoseconds by convention).
#[derive(Clone, Debug)]
pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: vec![0; BUCKETS],
            total: 0,
        }
    }
}

impl Histogram {
    /// Record one sample.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.counts[index_of(v)] += 1;
        self.total += 1;
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Fold another histogram's samples into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
    }

    /// The value below which a fraction `q` of the samples lie,
    /// interpolated within its bucket; `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.total == 0 {
            return None;
        }
        let rank = q.clamp(0.0, 1.0) * self.total as f64;
        let mut seen = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            if c > 0 && (seen + c) as f64 >= rank {
                let (lo, hi) = bounds(idx);
                let frac = ((rank - seen as f64) / c as f64).clamp(0.0, 1.0);
                return Some(lo + frac * (hi - lo));
            }
            seen += c;
        }
        unreachable!("the ranks of a non-empty histogram end at its total")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccsim::Prng;

    #[test]
    fn quantiles_match_a_sorted_vector_oracle() {
        let mut rng = Prng::new(11);
        for len in [1usize, 2, 7, 100, 5_000] {
            let mut h = Histogram::default();
            let mut sorted: Vec<u64> = (0..len)
                .map(|_| {
                    // Values spread over twenty powers of two.
                    let decade = rng.below(20);
                    let v = rng.below(1 << decade) as u64;
                    h.record(v);
                    v
                })
                .collect();
            sorted.sort_unstable();
            for q in [0.0, 0.01, 0.25, 0.5, 0.9, 0.99, 1.0] {
                let exact = sorted[((q * len as f64).ceil() as usize).clamp(1, len) - 1] as f64;
                let est = h.quantile(q).expect("non-empty");
                let tolerance = exact / SUB as f64 + 1.0;
                assert!(
                    (est - exact).abs() <= tolerance,
                    "len {len} q {q}: {est} vs exact {exact}"
                );
            }
        }
    }

    #[test]
    fn empty_has_no_quantile_and_merge_adds_counts() {
        let mut a = Histogram::default();
        assert_eq!(a.quantile(0.5), None);
        let mut b = Histogram::default();
        b.record(40);
        b.record(4_000);
        a.merge(&b);
        a.merge(&b);
        assert_eq!(a.count(), 4);
        assert!(a.quantile(1.0).expect("non-empty") >= 4_000.0);
    }
}
