//! Pair-counting cluster-agreement measures.
//!
//! Labels are `i64` values; negative labels (noise) are treated as ordinary
//! labels, i.e. "noise" is its own cluster. This matches the way the paper
//! compares an approximate result against the exact result: disagreeing on
//! which points are noise must cost accuracy.

use std::collections::HashMap;

/// Computes the Rand index between two label vectors.
///
/// The Rand index is the fraction of point pairs on which the two clusterings
/// agree (both place the pair in the same cluster, or both in different
/// clusters). It is computed from the contingency table in
/// `O(n + |A|·|B|)` time rather than by enumerating all `n(n−1)/2` pairs.
///
/// # Panics
/// Panics if the two label vectors have different lengths or are empty.
pub fn rand_index(a: &[i64], b: &[i64]) -> f64 {
    let (tp_fp, tp_fn, tp, n) = contingency_counts(a, b);
    let total_pairs = pairs(n);
    if total_pairs == 0.0 {
        return 1.0;
    }
    // Agreements = pairs together in both + pairs separated in both.
    let fp = tp_fp - tp;
    let fn_ = tp_fn - tp;
    let tn = total_pairs - tp - fp - fn_;
    (tp + tn) / total_pairs
}

/// Computes the adjusted Rand index (Hubert & Arabie), which corrects the Rand
/// index for chance agreement: 1.0 for identical clusterings, ≈0.0 for
/// independent ones, possibly negative for adversarial ones.
///
/// # Panics
/// Panics if the two label vectors have different lengths or are empty.
pub fn adjusted_rand_index(a: &[i64], b: &[i64]) -> f64 {
    let (sum_a, sum_b, sum_ab, n) = contingency_counts(a, b);
    let total_pairs = pairs(n);
    if total_pairs == 0.0 {
        return 1.0;
    }
    let expected = sum_a * sum_b / total_pairs;
    let max_index = 0.5 * (sum_a + sum_b);
    if (max_index - expected).abs() < 1e-12 {
        // Both clusterings are trivial (all singletons or one block): they are
        // identical, so return 1.
        return 1.0;
    }
    (sum_ab - expected) / (max_index - expected)
}

/// Estimates the Rand index by sampling `samples` random point pairs with a
/// deterministic LCG. Useful as an `O(samples)` sanity check on very large
/// datasets; Tables 2–5 use the exact [`rand_index`].
///
/// # Panics
/// Panics if the label vectors differ in length, are empty, or `samples == 0`.
pub fn sampled_rand_index(a: &[i64], b: &[i64], samples: usize, seed: u64) -> f64 {
    assert_eq!(a.len(), b.len(), "label vectors must have equal length");
    assert!(!a.is_empty(), "cannot compare empty clusterings");
    assert!(samples > 0, "at least one sample is required");
    let n = a.len();
    if n < 2 {
        return 1.0;
    }
    let mut state = seed | 1;
    let mut next = move || {
        // SplitMix64 step — deterministic and cheap.
        state = state.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        (z ^ (z >> 31)) as usize
    };
    let mut agree = 0usize;
    for _ in 0..samples {
        let i = next() % n;
        let mut j = next() % n;
        if i == j {
            j = (j + 1) % n;
        }
        let same_a = a[i] == a[j];
        let same_b = b[i] == b[j];
        if same_a == same_b {
            agree += 1;
        }
    }
    agree as f64 / samples as f64
}

/// Returns `(Σ_a C(a_i,2), Σ_b C(b_j,2), Σ_ij C(n_ij,2), n)` over the
/// contingency table of the two labelings.
fn contingency_counts(a: &[i64], b: &[i64]) -> (f64, f64, f64, usize) {
    assert_eq!(a.len(), b.len(), "label vectors must have equal length");
    assert!(!a.is_empty(), "cannot compare empty clusterings");
    let mut count_a: HashMap<i64, u64> = HashMap::new();
    let mut count_b: HashMap<i64, u64> = HashMap::new();
    let mut count_ab: HashMap<(i64, i64), u64> = HashMap::new();
    for (&x, &y) in a.iter().zip(b.iter()) {
        *count_a.entry(x).or_insert(0) += 1;
        *count_b.entry(y).or_insert(0) += 1;
        *count_ab.entry((x, y)).or_insert(0) += 1;
    }
    let sum_a: f64 = count_a.values().map(|&c| pairs(c as usize)).sum();
    let sum_b: f64 = count_b.values().map(|&c| pairs(c as usize)).sum();
    let sum_ab: f64 = count_ab.values().map(|&c| pairs(c as usize)).sum();
    (sum_a, sum_b, sum_ab, a.len())
}

#[inline]
fn pairs(n: usize) -> f64 {
    (n as f64) * (n as f64 - 1.0) / 2.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_labelings_score_one() {
        let a = vec![0, 0, 1, 1, 2, -1];
        assert_eq!(rand_index(&a, &a), 1.0);
        assert_eq!(adjusted_rand_index(&a, &a), 1.0);
    }

    #[test]
    fn permuted_label_names_do_not_matter() {
        let a = vec![0, 0, 1, 1, 2, 2];
        let b = vec![7, 7, 3, 3, 1, 1];
        assert_eq!(rand_index(&a, &b), 1.0);
        assert_eq!(adjusted_rand_index(&a, &b), 1.0);
    }

    #[test]
    fn known_hand_computed_value() {
        // Classic example: n = 6.
        let a = vec![0, 0, 0, 1, 1, 1];
        let b = vec![0, 0, 1, 1, 2, 2];
        // Pairs: 15 total. Same in both: (0,1),(3? ) → compute: a-same pairs:
        // {012}->3 pairs, {345}->3 pairs = 6. b-same: {01}=1,{23}=1,{45}=1 = 3.
        // Same in both: (0,1) and (4,5) = 2. Agreements = 2 + (15-6-3+2) = 10.
        assert!((rand_index(&a, &b) - 10.0 / 15.0).abs() < 1e-12);
    }

    #[test]
    fn completely_disagreeing_split() {
        // One clustering groups everything, the other splits into singletons.
        let a = vec![0; 5];
        let b = vec![0, 1, 2, 3, 4];
        assert_eq!(rand_index(&a, &b), 0.0);
        assert!(adjusted_rand_index(&a, &b) <= 0.0 + 1e-12);
    }

    #[test]
    fn ari_is_near_zero_for_random_labelings() {
        // Large random labelings are nearly independent → ARI ≈ 0 while the
        // plain Rand index can still be high.
        let n = 5000;
        let a: Vec<i64> = (0..n).map(|i| ((i * 2654435761_usize) >> 7) as i64 % 4).collect();
        let b: Vec<i64> = (0..n).map(|i| ((i * 40503_usize) >> 3) as i64 % 4).collect();
        let ari = adjusted_rand_index(&a, &b);
        assert!(ari.abs() < 0.05, "ARI {ari} not near zero");
    }

    #[test]
    fn noise_labels_count_as_a_cluster() {
        let a = vec![0, 0, -1, -1];
        let b = vec![0, 0, 0, 0];
        // Pairs: 6. a-same: (0,1),(2,3) = 2; both-same: 2; agreements = 2 + 0.
        assert!((rand_index(&a, &b) - 2.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn rand_index_is_symmetric_and_bounded() {
        let a = vec![0, 1, 0, 2, 2, 1, 0, -1];
        let b = vec![1, 1, 0, 2, 0, 1, 0, 0];
        let ab = rand_index(&a, &b);
        let ba = rand_index(&b, &a);
        assert_eq!(ab, ba);
        assert!((0.0..=1.0).contains(&ab));
    }

    #[test]
    fn sampled_estimate_tracks_exact_value() {
        let n = 2000;
        let a: Vec<i64> = (0..n).map(|i| (i % 5) as i64).collect();
        let b: Vec<i64> = (0..n).map(|i| if i % 50 == 0 { 9 } else { (i % 5) as i64 }).collect();
        let exact = rand_index(&a, &b);
        let sampled = sampled_rand_index(&a, &b, 200_000, 7);
        assert!((exact - sampled).abs() < 0.01, "exact {exact} vs sampled {sampled}");
    }

    #[test]
    fn single_point_clusterings() {
        assert_eq!(rand_index(&[3], &[5]), 1.0);
        assert_eq!(adjusted_rand_index(&[3], &[5]), 1.0);
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn mismatched_lengths_panic() {
        let _ = rand_index(&[0, 1], &[0]);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_labelings_panic() {
        let _ = rand_index(&[], &[]);
    }
}
