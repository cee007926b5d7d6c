//! Steps shared by every DPC algorithm: input validation, S-Approx-DPC's
//! `d_cut` neighbour counts (Ex-DPC and Approx-DPC count every point's
//! through `dpc_index::selfjoin`), density tie-breaking, the dependent-point
//! queries, centre/noise selection, and cluster-label propagation (§2.1 and
//! §2.2, step 4).

use crate::error::DpcError;
use crate::params::Thresholds;
use crate::result::NOISE;
use dpc_geometry::Dataset;
use dpc_index::{BatchRangeCount, Grid, KdTree, MaxKeys};
use dpc_parallel::Executor;

/// Query points per task of [`packed_queries`]: for the batched counts of
/// [`neighbour_counts`], enough neighbouring queries to share the upper levels
/// of one descent, few enough that the bucket's joint box stays tight and its
/// per-node active lists short.
const BUCKET: usize = 64;

/// Validates a dataset for fitting: rejects an empty dataset
/// ([`DpcError::EmptyDataset`]) and any NaN/±∞ coordinate
/// ([`DpcError::NonFiniteCoordinate`], naming the first offending point and
/// axis). Every `DpcAlgorithm::fit` in the workspace calls this before
/// building an index: a non-finite coordinate does not panic downstream, it
/// silently breaks bounding-box pruning (all NaN comparisons are false) and
/// produces wrong densities, which is far worse than an error.
pub fn validate_dataset(data: &Dataset) -> Result<(), DpcError> {
    if data.is_empty() {
        return Err(DpcError::EmptyDataset);
    }
    // One pass over the flat row-major buffer; O(n·d), trivially cheap next
    // to the ρ phase it protects.
    if let Some(flat_idx) = data.flat().iter().position(|v| !v.is_finite()) {
        let dim = data.dim();
        return Err(DpcError::NonFiniteCoordinate { point: flat_idx / dim, axis: flat_idx % dim });
    }
    Ok(())
}

/// The side `scale·d_cut/√d` of a grid cell over `data`: `scale = 1` for
/// Approx-DPC's grid, `scale = ε` for S-Approx-DPC's finer grid.
///
/// # Errors
/// [`DpcError::InvalidParams`] naming the grid cell side when the side is
/// not positive and finite, or when the data's bounding box spans 2^53 cells
/// or more on an axis ([`Grid::keys_fit`]). Valid parameters can still
/// produce such a side: a tiny `d_cut` underflows to 0, a huge `d_cut` or `ε`
/// overflows to ∞, and a `d_cut` tiny against the data's extent leaves cell
/// keys that no longer tell adjacent cells apart.
pub(crate) fn cell_side(data: &Dataset, dcut: f64, scale: f64) -> Result<f64, DpcError> {
    let side = scale * dcut / (data.dim() as f64).sqrt();
    if side.is_finite()
        && side > 0.0
        && data.bounding_rect().is_none_or(|rect| Grid::keys_fit(&rect, side))
    {
        return Ok(side);
    }
    Err(DpcError::InvalidParams {
        param: "grid cell side",
        value: side,
        requirement: "d_cut/√d (ε·d_cut/√d for S-Approx-DPC) must be positive and finite, \
                      and the data's bounding box must span fewer than 2^53 cells per axis",
    })
}

/// Adds a deterministic jitter in `(0, 1)` to an integer local density so that
/// all densities are pairwise distinct, as the paper assumes for the
/// dependent-point computation ("practically possible by adding a random value
/// ∈ (0,1) to ρ_i", §3). The jitter is a pure function of `(point id, seed)`,
/// so every algorithm produces identical densities for identical inputs and the
/// approximation algorithms inherit Ex-DPC's exact tie-breaks.
#[inline]
pub fn jittered_density(count: usize, point_id: usize, seed: u64) -> f64 {
    jittered_density_keyed(count, point_id as u64, seed)
}

/// [`jittered_density`] keyed by an arbitrary `u64` instead of a dataset
/// index. This is the streaming form: `StreamingDpc` jitters on a **stable
/// external id** that survives window slides, so an incrementally maintained ρ
/// is bit-identical to a fresh fit keyed on the same ids. When the key equals
/// the dataset index the two functions agree, which is what makes a batch
/// `ExDpc::fit` the `keys = 0..n` special case of the keyed fit.
#[inline]
pub fn jittered_density_keyed(count: usize, key: u64, seed: u64) -> f64 {
    count as f64 + jitter01(key ^ seed)
}

/// A deterministic pseudo-random value in `(0, 1)` derived from `x` with the
/// SplitMix64 finaliser.
#[inline]
fn jitter01(x: u64) -> f64 {
    let mut z = x.wrapping_add(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^= z >> 31;
    // Map to (0, 1): never exactly 0 (add 1) and never exactly 1 (divide by 2^53 + 2).
    ((z >> 11) as f64 + 1.0) / (9_007_199_254_740_994.0)
}

/// Point identifiers sorted by decreasing local density, equal densities in
/// ascending id order (jittered densities never tie, but S-Approx-DPC's
/// points that are not picked share `⌊ρ⌋` within a cell).
///
/// One sort of `(density key, id)` pairs: the key is [`f64::total_cmp`]'s
/// order as an integer, inverted for descent, so the order stays total and
/// deterministic even when a caller smuggles in NaN densities —
/// `partial_cmp` with an `Equal` fallback would make NaN compare equal to
/// *everything*, yielding an order that depends on the sort's partition
/// choices. The pairs are distinct, so the unstable sort is deterministic.
pub fn descending_density_order(rho: &[f64]) -> Vec<usize> {
    let mut keyed: Vec<(i64, usize)> = rho
        .iter()
        .enumerate()
        .map(|(id, r)| {
            // `total_cmp`'s key: flip the magnitude bits of negative values.
            let bits = r.to_bits() as i64;
            (!(bits ^ (((bits >> 63) as u64) >> 1) as i64), id)
        })
        .collect();
    keyed.sort_unstable();
    // The ids are written over the sorted pairs in place, so no second
    // buffer is live beside the pairs; the shrink then hands back the half
    // the order does not use (a model keeps its order for life).
    let mut order: Vec<usize> = keyed.into_iter().map(|(_, id)| id).collect();
    order.shrink_to_fit();
    order
}

/// The packed coordinate row `row` of `tree`.
#[inline]
pub(crate) fn packed_row(tree: &KdTree, row: usize) -> &[f64] {
    let dim = tree.dim();
    &tree.coords()[row * dim..(row + 1) * dim]
}

/// Answers one query per point `p` with `is_query(p)` and yields the
/// `(p, answer)` pairs, in `tree`'s packed order.
///
/// The packed tree already orders its points in space, so consecutive query
/// points, taken in packed order, descend into the same subtrees and find
/// their nodes warm in the cache. They are cut into tasks of [`BUCKET`]
/// consecutive ones, which the workers claim dynamically: a query's cost
/// varies with where it lies, so equal shares are far from equal work.
/// `answer(rows)` gets one task's packed row numbers, ascending (the point
/// at row `k` is `tree.ids()[k]`, its coordinates [`packed_row`]), and
/// returns one answer per row, in order. Every answer must depend on its
/// point alone; then the pairs are the same under every schedule and at
/// every thread count.
pub(crate) fn packed_queries<'t, R: Send + 't>(
    tree: &'t KdTree,
    is_query: impl Fn(usize) -> bool,
    executor: &Executor,
    answer: impl Fn(&[usize]) -> Vec<R> + Sync,
) -> impl Iterator<Item = (usize, R)> + 't {
    let ids = tree.ids();
    let queries: Vec<usize> = (0..ids.len()).filter(|&row| is_query(ids[row] as usize)).collect();
    let tasks: Vec<&[usize]> = queries.chunks(BUCKET).collect();
    let per_task: Vec<Vec<R>> = executor.map_dynamic(tasks.len(), |t| answer(tasks[t]));
    let query_ids = queries.into_iter().map(|row| ids[row] as usize);
    query_ids.zip(per_task.into_iter().flatten())
}

/// The closed-ball `d_cut` neighbour count of every point `p` with
/// `is_query(p)`, the point itself left out (Definition 1): S-Approx-DPC's
/// picked points, one per cell. Indexed by point id; every other point reads
/// 0. (A fit that needs every point's count runs the self-join of
/// `dpc_index::selfjoin` instead, which decides each pair once.)
///
/// Each task of [`packed_queries`] is one bucket that descends `tree` once
/// through [`BatchRangeCount`]. Every count equals the single-query
/// `range_count`, so the result is the same at every thread count.
pub(crate) fn neighbour_counts(
    tree: &KdTree,
    dcut: f64,
    is_query: impl Fn(usize) -> bool,
    executor: &Executor,
) -> Vec<usize> {
    let found = packed_queries(tree, is_query, executor, |rows| {
        let mut queries = Vec::with_capacity(rows.len() * tree.dim());
        rows.iter().for_each(|&k| queries.extend_from_slice(packed_row(tree, k)));
        let ids: Vec<u32> = rows.iter().map(|&k| tree.ids()[k]).collect();
        let mut counts = Vec::new();
        BatchRangeCount::new().run(tree, &queries, dcut, &ids, &mut counts);
        counts
    });
    let mut counts = vec![0usize; tree.len()];
    for (p, count) in found {
        counts[p] = count;
    }
    counts
}

/// Sets `dependent[p]`/`delta[p]` of every `p` with `is_query(p)` to its
/// exact dependent point (Definition 2): the nearest point of `tree` whose
/// key (`keys[id]`: ρ, or `-∞` to hide a point) is strictly greater than
/// `p`'s, ties to the smallest id. A query no key exceeds keeps its entries.
/// The queries run through [`packed_queries`], each from its packed row's
/// own leaf ([`KdTree::nearest_denser_at`]), and copy no coordinates. Every
/// answer is a canonical minimum, so neither the query order nor the thread
/// count changes the result.
pub(crate) fn resolve_dependents(
    tree: &KdTree,
    keys: &[f64],
    is_query: impl Fn(usize) -> bool,
    executor: &Executor,
    dependent: &mut [usize],
    delta: &mut [f64],
) {
    let max_keys = MaxKeys::new(tree, keys);
    let found = packed_queries(tree, is_query, executor, |rows| {
        let key_of = |k: usize| keys[tree.ids()[k] as usize];
        rows.iter().map(|&k| tree.nearest_denser_at(&max_keys, k, key_of(k))).collect()
    });
    for (p, found) in found {
        if let Some((q, d)) = found {
            dependent[p] = q;
            delta[p] = d;
        }
    }
}

/// Selects noise points and cluster centres and propagates cluster labels.
///
/// * noise: `ρ < ρ_min` (Definition 4);
/// * centre: non-noise and `δ ≥ δ_min` (Definition 5);
/// * every other point receives the label of its dependent point (Definition 6).
///
/// `order` must be the point identifiers in decreasing density order (as
/// produced by [`descending_density_order`]). The caller supplies it so the
/// sort happens **once per fitted model**, not once per threshold choice —
/// this is what makes a threshold sweep over a `DpcModel` a pure `O(n)` pass.
///
/// Points are processed in decreasing density order, so a point's dependent
/// point (which always has strictly higher density) is labelled first and the
/// propagation is a single `O(n)` pass — the depth-first label propagation of
/// §2.1 without recursion. If a point's dependent point is noise, the noise
/// label propagates (the point is not reachable from any centre through
/// non-noise points).
///
/// Returns `(centres, assignment)` where centres are listed in ascending id
/// order and `assignment[i]` is the cluster index of point `i` (the cluster
/// index is the rank of its centre in the centres list) or [`NOISE`].
pub fn select_and_assign(
    thresholds: &Thresholds,
    rho: &[f64],
    delta: &[f64],
    dependent: &[usize],
    order: &[usize],
) -> (Vec<usize>, Vec<i64>) {
    let n = rho.len();
    // Hard asserts, not debug_assert: this is public API and a caller passing
    // a stale `order` (e.g. from a model fitted on different data) must abort
    // loudly instead of silently leaving the unvisited points as noise. The
    // O(1) checks are free next to the O(n) pass below.
    assert_eq!(delta.len(), n, "delta length must match rho");
    assert_eq!(dependent.len(), n, "dependent length must match rho");
    assert_eq!(order.len(), n, "density order length must match rho");
    let mut centers: Vec<usize> = (0..n)
        .filter(|&i| rho[i] >= thresholds.rho_min && delta[i] >= thresholds.delta_min)
        .collect();
    centers.sort_unstable();
    let mut center_rank = vec![usize::MAX; n];
    for (rank, &c) in centers.iter().enumerate() {
        center_rank[c] = rank;
    }

    let mut assignment = vec![NOISE; n];
    for &i in order {
        if rho[i] < thresholds.rho_min {
            assignment[i] = NOISE;
            continue;
        }
        if center_rank[i] != usize::MAX {
            assignment[i] = center_rank[i] as i64;
            continue;
        }
        let dep = dependent[i];
        debug_assert!(dep == i || rho[dep] > rho[i], "dependent point must have higher density");
        assignment[i] = if dep == i { NOISE } else { assignment[dep] };
    }
    (centers, assignment)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validate_dataset_rejects_empty_and_non_finite() {
        assert_eq!(validate_dataset(&Dataset::new(2)), Err(DpcError::EmptyDataset));
        let ok = Dataset::from_flat(2, vec![0.0, 1.0, -1e300, 2.0]);
        assert_eq!(validate_dataset(&ok), Ok(()));
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let ds = Dataset::from_flat(3, vec![0.0, 0.0, 0.0, 1.0, bad, 1.0]);
            assert_eq!(
                validate_dataset(&ds),
                Err(DpcError::NonFiniteCoordinate { point: 1, axis: 1 }),
                "{bad}"
            );
        }
    }

    #[test]
    fn jitter_is_deterministic_and_in_unit_interval() {
        for id in 0..10_000usize {
            let j = jittered_density(0, id, 42);
            assert!(j > 0.0 && j < 1.0, "jitter {j} out of (0,1)");
            assert_eq!(j, jittered_density(0, id, 42));
        }
        assert_ne!(jittered_density(0, 1, 42), jittered_density(0, 2, 42));
        assert_ne!(jittered_density(0, 1, 42), jittered_density(0, 1, 43));
    }

    #[test]
    fn jittered_density_preserves_count_ordering() {
        assert!(jittered_density(5, 0, 1) > jittered_density(4, 99, 1));
        assert!(jittered_density(10, 7, 1) < jittered_density(11, 3, 1));
    }

    #[test]
    fn keyed_jitter_agrees_with_index_jitter_on_equal_keys() {
        for id in [0usize, 1, 7, 4096, 123_456] {
            assert_eq!(
                jittered_density(3, id, 0x5eed).to_bits(),
                jittered_density_keyed(3, id as u64, 0x5eed).to_bits()
            );
        }
        assert_ne!(jittered_density_keyed(0, 1, 9), jittered_density_keyed(0, 2, 9));
    }

    #[test]
    fn density_orders_are_total_even_with_nan() {
        // Adversarial ρ containing NaN: the order must still be a permutation,
        // deterministic, and place NaN consistently (total_cmp puts positive
        // NaN above +∞).
        let rho = vec![1.0, f64::NAN, 3.0, f64::NAN, 2.0];
        let desc = descending_density_order(&rho);
        let mut seen = desc.clone();
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 1, 2, 3, 4]);
        assert_eq!(desc, descending_density_order(&rho), "must be deterministic");
        let mut top: Vec<usize> = desc[..2].to_vec();
        top.sort_unstable();
        assert_eq!(top, vec![1, 3], "NaNs sort above every finite density");
    }

    #[test]
    fn density_order_is_the_comparator_order_with_ascending_id_ties() {
        // Few distinct values, both zeros, infinities and NaNs of both signs:
        // many ties, which go to the smaller id.
        let values = [3.0, 1.5, 0.0, -0.0, -2.0, f64::INFINITY, f64::NEG_INFINITY, f64::NAN];
        let rho: Vec<f64> = (0..5_000usize)
            .map(|i| match (i * 7919) % 17 {
                16 => -f64::NAN,
                k => values[k % values.len()],
            })
            .collect();
        let mut want: Vec<usize> = (0..rho.len()).collect();
        want.sort_by(|&a, &b| rho[b].total_cmp(&rho[a]).then(a.cmp(&b)));
        let order = descending_density_order(&rho);
        assert_eq!(order, want);
        // A model keeps its order for life: no spare capacity.
        assert_eq!(order.capacity(), order.len());
    }

    /// A small hand-built scenario: two centres, a chain of followers, one
    /// noise point, and a point attached to the noise point.
    fn toy() -> (Thresholds, Vec<f64>, Vec<f64>, Vec<usize>) {
        let thresholds = Thresholds::new(2.0, 5.0).unwrap();
        //            0     1     2     3     4     5
        let rho = vec![10.0, 8.0, 6.0, 1.0, 9.0, 0.5];
        let delta = vec![f64::INFINITY, 1.0, 1.0, 1.0, 6.0, 1.0];
        let dependent = vec![0, 0, 1, 5, 0, 4];
        (thresholds, rho, delta, dependent)
    }

    fn run_toy(
        thresholds: &Thresholds,
        rho: &[f64],
        delta: &[f64],
        dependent: &[usize],
    ) -> (Vec<usize>, Vec<i64>) {
        let order = descending_density_order(rho);
        select_and_assign(thresholds, rho, delta, dependent, &order)
    }

    #[test]
    fn select_and_assign_toy_case() {
        let (thresholds, rho, delta, dependent) = toy();
        let (centers, assignment) = run_toy(&thresholds, &rho, &delta, &dependent);
        // Centres: 0 (δ = ∞) and 4 (δ = 6 ≥ 5). Point 3 and 5 are noise (ρ < 2).
        assert_eq!(centers, vec![0, 4]);
        assert_eq!(assignment[0], 0);
        assert_eq!(assignment[1], 0);
        assert_eq!(assignment[2], 0);
        assert_eq!(assignment[4], 1);
        assert_eq!(assignment[3], NOISE);
        assert_eq!(assignment[5], NOISE);
    }

    #[test]
    fn labels_propagate_through_long_dependency_chains() {
        // A chain 9 → 8 → … → 0 where only point 9 is a centre: every point
        // must inherit cluster 0 through the chain in one pass.
        let thresholds = Thresholds::new(0.0, 5.0).unwrap();
        let n = 10usize;
        let rho: Vec<f64> = (0..n).map(|i| i as f64 + 0.5).collect();
        let mut delta = vec![1.0; n];
        delta[n - 1] = f64::INFINITY;
        let dependent: Vec<usize> = (0..n).map(|i| if i + 1 < n { i + 1 } else { i }).collect();
        let (centers, assignment) = run_toy(&thresholds, &rho, &delta, &dependent);
        assert_eq!(centers, vec![n - 1]);
        assert!(assignment.iter().all(|&l| l == 0));
    }

    #[test]
    fn everything_noise_when_rho_min_is_huge() {
        let thresholds = Thresholds::new(1e9, 2.0).unwrap();
        let rho = vec![1.0, 2.0, 3.0];
        let delta = vec![1.0, 1.0, f64::INFINITY];
        let dependent = vec![2, 2, 2];
        let (centers, assignment) = run_toy(&thresholds, &rho, &delta, &dependent);
        assert!(centers.is_empty());
        assert!(assignment.iter().all(|&l| l == NOISE));
    }

    #[test]
    fn single_point_dataset() {
        let thresholds = Thresholds::for_dcut(1.0);
        let (centers, assignment) = run_toy(&thresholds, &[0.5], &[f64::INFINITY], &[0]);
        assert_eq!(centers, vec![0]);
        assert_eq!(assignment, vec![0]);
    }

    #[test]
    fn empty_input() {
        let thresholds = Thresholds::for_dcut(1.0);
        let (centers, assignment) = run_toy(&thresholds, &[], &[], &[]);
        assert!(centers.is_empty());
        assert!(assignment.is_empty());
    }
}
