//! Property-based tests for the simulation kernel.

use nlh_sim::stats::Proportion;
use nlh_sim::{Cycles, Pcg64, SimDuration, SimTime};
use proptest::prelude::*;

/// The two-division `gen_range_u64` that preceded the one-division
/// accept test: the rejection zone computed before every draw.
fn gen_range_u64_reference(rng: &mut Pcg64, lo: u64, hi: u64) -> u64 {
    let span = hi - lo;
    let zone = u64::MAX - (u64::MAX % span);
    loop {
        let v = rng.next_u64();
        if v < zone {
            return lo + v % span;
        }
    }
}

/// Spans where the rejection zone leaves out nearly half the 64-bit
/// range (`2^63 + 1`) or where only a one-value fast test applies
/// (`u64::MAX`), plus small and power-of-two ones.
const EDGE_SPANS: [u64; 6] = [1, 2, 1 << 32, 1 << 63, (1 << 63) + 1, u64::MAX];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// `gen_range_u64` returns what the two-division reference returns
    /// and consumes exactly its draws, for random and for edge spans.
    #[test]
    fn gen_range_matches_two_division_reference(
        seed: u64,
        lo in 0u64..1_000,
        spans in prop::collection::vec((any::<u64>(), 0u32..64), 1..24),
    ) {
        let mut rng = Pcg64::seed_from_u64(seed);
        let mut reference = rng.clone();
        // A random word shifted right by a random amount: spans of every
        // magnitude, not just huge ones.
        let random = spans.iter().map(|&(bits, shift)| (bits >> shift).max(1));
        for span in random.chain(EDGE_SPANS) {
            let (lo, hi) = match lo.checked_add(span) {
                Some(hi) => (lo, hi),
                None => (0, span),
            };
            for _ in 0..4 {
                let want = gen_range_u64_reference(&mut reference, lo, hi);
                prop_assert_eq!(rng.gen_range_u64(lo, hi), want);
                prop_assert_eq!(rng.state_parts(), reference.state_parts());
            }
        }
    }
}

proptest! {
    /// `gen_range_u64` respects its bounds for any non-empty range.
    #[test]
    fn gen_range_bounds(seed: u64, lo in 0u64..1_000_000, span in 1u64..1_000_000) {
        let mut rng = Pcg64::seed_from_u64(seed);
        for _ in 0..32 {
            let v = rng.gen_range_u64(lo, lo + span);
            prop_assert!(v >= lo && v < lo + span);
        }
    }

    /// Identical seeds give identical streams; a forked child differs.
    #[test]
    fn determinism_and_forking(seed: u64) {
        let mut a = Pcg64::seed_from_u64(seed);
        let mut b = Pcg64::seed_from_u64(seed);
        let seq_a: Vec<u64> = (0..16).map(|_| a.next_u64()).collect();
        let seq_b: Vec<u64> = (0..16).map(|_| b.next_u64()).collect();
        prop_assert_eq!(&seq_a, &seq_b);
        let mut child = a.fork();
        let child_seq: Vec<u64> = (0..16).map(|_| child.next_u64()).collect();
        prop_assert_ne!(seq_a, child_seq);
    }

    /// Weighted choice never returns a zero-weight index.
    #[test]
    fn weighted_choice_respects_zeros(seed: u64, weights in prop::collection::vec(0u8..10, 1..12)) {
        let mut rng = Pcg64::seed_from_u64(seed);
        let ws: Vec<f64> = weights.iter().map(|w| *w as f64).collect();
        match rng.choose_weighted(&ws) {
            Some(idx) => prop_assert!(ws[idx] > 0.0),
            None => prop_assert!(ws.iter().all(|w| *w == 0.0)),
        }
    }

    /// Shuffling permutes: same multiset, any order.
    #[test]
    fn shuffle_is_permutation(seed: u64, mut items in prop::collection::vec(any::<u32>(), 0..64)) {
        let mut rng = Pcg64::seed_from_u64(seed);
        let mut original = items.clone();
        rng.shuffle(&mut items);
        original.sort_unstable();
        items.sort_unstable();
        prop_assert_eq!(original, items);
    }

    /// Wilson intervals are valid and bracket the point estimate.
    #[test]
    fn wilson_interval_brackets_estimate(successes in 0u64..500, extra in 0u64..500) {
        let trials = successes + extra;
        prop_assume!(trials > 0);
        let p = Proportion::new(successes, trials);
        let (lo, hi) = p.wilson_95();
        prop_assert!((0.0..=1.0).contains(&lo));
        prop_assert!((0.0..=1.0).contains(&hi));
        prop_assert!(lo <= p.value() + 1e-12);
        prop_assert!(hi >= p.value() - 1e-12);
        prop_assert!(p.wald_halfwidth_95() >= 0.0);
    }

    /// Time arithmetic: (t + a) + b == (t + b) + a and subtraction inverts.
    #[test]
    fn time_arithmetic_commutes(t in 0u64..1_000_000_000, a in 0u64..1_000_000, b in 0u64..1_000_000) {
        let t0 = SimTime::from_nanos(t);
        let da = SimDuration::from_nanos(a);
        let db = SimDuration::from_nanos(b);
        prop_assert_eq!((t0 + da) + db, (t0 + db) + da);
        prop_assert_eq!((t0 + da) - t0, da);
        prop_assert_eq!(t0.saturating_since(t0 + da), SimDuration::ZERO);
    }

    /// Cycles<->duration conversion round-trips when the cycle count is a
    /// multiple of the MHz (no truncation).
    #[test]
    fn cycles_roundtrip(k in 1u64..1_000_000) {
        let freq = 2_500;
        let c = Cycles(k * freq);
        prop_assert_eq!(Cycles::from_duration(c.to_duration(freq), freq), c);
    }
}
