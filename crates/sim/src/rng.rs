//! A deterministic PCG-based random number generator.
//!
//! Every stochastic decision in the simulator — workload interleaving, fault
//! trigger points, bit-flip manifestation — draws from a [`Pcg64`] seeded per
//! trial, so a trial is exactly reproducible from its seed. We implement the
//! generator locally (PCG-XSH-RR 64/32, O'Neill 2014) rather than depending
//! on `rand` in the simulation core, keeping the substrate dependency-free
//! and its stream stable across dependency upgrades.

use serde::{Deserialize, Serialize};

const MULTIPLIER: u64 = 6364136223846793005;

/// A small, fast, deterministic pseudo-random number generator
/// (PCG-XSH-RR 64/32).
///
/// # Example
///
/// ```
/// use nlh_sim::Pcg64;
/// let mut a = Pcg64::seed_from_u64(7);
/// let mut b = Pcg64::seed_from_u64(7);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Pcg64 {
    state: u64,
    inc: u64,
}

impl Pcg64 {
    /// Creates a generator from a 64-bit seed.
    ///
    /// Two generators with the same seed produce identical streams.
    pub fn seed_from_u64(seed: u64) -> Self {
        // SplitMix64 the seed into (state, stream) so nearby seeds diverge.
        let mut sm = seed;
        let mut next = || {
            sm = sm.wrapping_add(0x9E3779B97F4A7C15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
            z ^ (z >> 31)
        };
        let state = next();
        let inc = next() | 1; // stream selector must be odd
        let mut rng = Pcg64 { state, inc };
        // Burn a few outputs to decorrelate from the seed mixing.
        rng.next_u32();
        rng.next_u32();
        rng
    }

    /// Derives an independent child generator, e.g. one per simulated trial.
    pub fn fork(&mut self) -> Pcg64 {
        Pcg64::seed_from_u64(self.next_u64())
    }

    /// The next 32 random bits.
    #[inline]
    pub fn next_u32(&mut self) -> u32 {
        let old = self.state;
        self.state = old.wrapping_mul(MULTIPLIER).wrapping_add(self.inc);
        let xorshifted = (((old >> 18) ^ old) >> 27) as u32;
        let rot = (old >> 59) as u32;
        xorshifted.rotate_right(rot)
    }

    /// The next 64 random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        (u64::from(self.next_u32()) << 32) | u64::from(self.next_u32())
    }

    /// A uniform integer in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    #[inline]
    pub fn gen_range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range [{lo}, {hi})");
        let span = hi - lo;
        loop {
            if let Some(r) = reduce(self.next_u64(), span) {
                return lo + r;
            }
        }
    }

    /// A uniform `usize` in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    #[inline]
    pub fn gen_range_usize(&mut self, lo: usize, hi: usize) -> usize {
        self.gen_range_u64(lo as u64, hi as u64) as usize
    }

    /// A uniform float in `[0, 1)`.
    pub fn gen_f64(&mut self) -> f64 {
        // 53 random mantissa bits.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// `true` with probability `p` (clamped to `[0, 1]`).
    pub fn gen_bool(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.gen_f64() < p
        }
    }

    /// A uniformly chosen element of `items`, or `None` if empty.
    pub fn choose<'a, T>(&mut self, items: &'a [T]) -> Option<&'a T> {
        if items.is_empty() {
            None
        } else {
            Some(&items[self.gen_range_usize(0, items.len())])
        }
    }

    /// Samples an index from `weights` proportionally to the weights.
    ///
    /// Returns `None` if `weights` is empty or sums to zero.
    pub fn choose_weighted(&mut self, weights: &[f64]) -> Option<usize> {
        let total: f64 = weights.iter().copied().filter(|w| *w > 0.0).sum();
        if total <= 0.0 {
            return None;
        }
        let mut x = self.gen_f64() * total;
        for (i, &w) in weights.iter().enumerate() {
            if w <= 0.0 {
                continue;
            }
            if x < w {
                return Some(i);
            }
            x -= w;
        }
        // Float roundoff: return the last positive-weight index.
        weights.iter().rposition(|w| *w > 0.0)
    }

    /// The generator's internal `(state, stream)` words.
    ///
    /// Exposed so machine-state fingerprints (divergence bisection, trial
    /// replay checks) can incorporate the RNG position without depending
    /// on the `Debug` rendering. Two generators with equal parts produce
    /// identical future streams.
    pub fn state_parts(&self) -> (u64, u64) {
        (self.state, self.inc)
    }

    /// Fisher–Yates shuffles `items` in place.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.gen_range_usize(0, i + 1);
            items.swap(i, j);
        }
    }
}

/// Debiased modulo: `v % span` if `v` lies below the rejection zone
/// `u64::MAX - u64::MAX % span` (the largest multiple of `span` that fits
/// in 64 bits, as an exclusive bound), else `None` and the caller draws
/// again.
///
/// `u64::MAX % span <= span - 1`, so the zone is at least `2^64 - span`
/// and every `v <= u64::MAX - span` is inside it. That test needs no
/// division; the exact zone costs a second one only on the rare miss. The
/// accepted set, and so every output and every consumed draw, is the same
/// as testing against the zone alone.
#[inline(always)]
fn reduce(v: u64, span: u64) -> Option<u64> {
    if v <= u64::MAX - span || v < u64::MAX - u64::MAX % span {
        Some(v % span)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The rejection test with the zone computed up front.
    fn reduce_reference(v: u64, span: u64) -> Option<u64> {
        let zone = u64::MAX - (u64::MAX % span);
        (v < zone).then_some(v % span)
    }

    #[test]
    fn reduce_matches_the_zone_test_at_every_boundary() {
        let spans = [
            1,
            2,
            3,
            7,
            1 << 32,
            (1 << 32) + 1,
            1 << 63,
            (1 << 63) + 1,
            u64::MAX - 1,
            u64::MAX,
        ];
        for span in spans {
            let zone = u64::MAX - u64::MAX % span;
            let fast = u64::MAX - span;
            for v in [
                0,
                1,
                fast.saturating_sub(1),
                fast,
                fast.saturating_add(1),
                zone.saturating_sub(1),
                zone,
                zone.saturating_add(1),
                u64::MAX - 1,
                u64::MAX,
            ] {
                assert_eq!(
                    reduce(v, span),
                    reduce_reference(v, span),
                    "v={v} span={span}"
                );
            }
        }
    }

    #[test]
    fn same_seed_same_stream() {
        let mut a = Pcg64::seed_from_u64(123);
        let mut b = Pcg64::seed_from_u64(123);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Pcg64::seed_from_u64(1);
        let mut b = Pcg64::seed_from_u64(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn range_bounds_respected() {
        let mut rng = Pcg64::seed_from_u64(9);
        for _ in 0..10_000 {
            let v = rng.gen_range_u64(10, 20);
            assert!((10..20).contains(&v));
        }
    }

    #[test]
    fn range_covers_all_values() {
        let mut rng = Pcg64::seed_from_u64(9);
        let mut seen = [false; 8];
        for _ in 0..1_000 {
            seen[rng.gen_range_usize(0, 8)] = true;
        }
        assert!(seen.iter().all(|s| *s));
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_panics() {
        let mut rng = Pcg64::seed_from_u64(0);
        rng.gen_range_u64(5, 5);
    }

    #[test]
    fn gen_bool_extremes() {
        let mut rng = Pcg64::seed_from_u64(4);
        assert!(!rng.gen_bool(0.0));
        assert!(rng.gen_bool(1.0));
        assert!(!rng.gen_bool(-1.0));
        assert!(rng.gen_bool(2.0));
    }

    #[test]
    fn gen_bool_is_roughly_calibrated() {
        let mut rng = Pcg64::seed_from_u64(77);
        let hits = (0..100_000).filter(|_| rng.gen_bool(0.3)).count();
        let frac = hits as f64 / 100_000.0;
        assert!((frac - 0.3).abs() < 0.01, "got {frac}");
    }

    #[test]
    fn gen_f64_in_unit_interval() {
        let mut rng = Pcg64::seed_from_u64(5);
        for _ in 0..10_000 {
            let x = rng.gen_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn choose_weighted_respects_zero_weight() {
        let mut rng = Pcg64::seed_from_u64(6);
        for _ in 0..1_000 {
            let idx = rng.choose_weighted(&[0.0, 1.0, 0.0]).unwrap();
            assert_eq!(idx, 1);
        }
        assert_eq!(rng.choose_weighted(&[]), None);
        assert_eq!(rng.choose_weighted(&[0.0, 0.0]), None);
    }

    #[test]
    fn choose_weighted_is_roughly_proportional() {
        let mut rng = Pcg64::seed_from_u64(8);
        let mut counts = [0usize; 3];
        for _ in 0..30_000 {
            counts[rng.choose_weighted(&[1.0, 2.0, 1.0]).unwrap()] += 1;
        }
        let f1 = counts[1] as f64 / 30_000.0;
        assert!((f1 - 0.5).abs() < 0.02, "middle weight got {f1}");
    }

    #[test]
    fn fork_produces_distinct_streams() {
        let mut root = Pcg64::seed_from_u64(10);
        let mut a = root.fork();
        let mut b = root.fork();
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = Pcg64::seed_from_u64(11);
        let mut v: Vec<u32> = (0..50).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn choose_none_on_empty() {
        let mut rng = Pcg64::seed_from_u64(12);
        assert_eq!(rng.choose::<u8>(&[]), None);
        assert_eq!(rng.choose(&[42]), Some(&42));
    }
}
