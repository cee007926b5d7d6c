//! Batched range counts over a packed kd-tree.
//!
//! The ρ phase of every DPC variant issues one range count per query point:
//! one for every point (Ex-DPC, Approx-DPC) or for each grid cell's picked
//! point (S-Approx-DPC). Spatially adjacent queries share almost their entire
//! traversal: the upper levels of the tree are identical, and nearby leaves
//! are visited by most of the bucket. [`BatchRangeCount`] exploits that by
//! descending the tree **once per bucket** of query balls — for Approx-DPC
//! this is the joint range search of §4.2, with a bucket of consecutive
//! packed points in place of one cell:
//!
//! - at every node, a joint test against the bucket's bounding box (plus the
//!   radius) prunes the whole bucket in `O(d)` before any per-query work, and
//!   a joint containment test resolves the whole bucket as fully-inside;
//! - queries that survive the joint tests are filtered with exactly the
//!   per-query min/max-distance tests of the single-query traversal, so each
//!   query only pays for the nodes it would have visited on its own;
//! - each leaf's contiguous coordinate rows are handed to the
//!   [`dpc_geometry::batch`] kernels once per still-active query — the row
//!   block stays cache-hot across the bucket instead of being re-fetched by
//!   `n` independent traversals.
//!
//! A bucket shares one radius, the `d_cut` of Definition 1, and names one
//! excluded point per query, the query point itself.
//!
//! # Determinism contract
//!
//! Every query's count is **bit-identical** to the corresponding single-query
//! call, [`KdTree::range_count`], regardless of how queries are grouped into
//! buckets: counts are integer sums over the same node set. Consumers may
//! therefore re-bucket, chunk, or parallelize freely without perturbing
//! results.

use dpc_geometry::batch;
use dpc_geometry::distance::{dist_sq, max_dist_sq_to_rect, min_dist_sq_to_rect};

use crate::kdtree::{KdTree, NONE};

/// The "no exclusion" id of a [`BatchRangeCount`] exclusion slice:
/// `u32::MAX`, which is never the id of an indexed point (a tree indexes the
/// ids `0..n` with `n < 2³²`), so the position-map lookup finds nothing.
pub const NO_EXCLUDE: u32 = NONE;

/// Subtree spans at or below this many points are counted as one contiguous
/// row-block per still-active query, in one `dpc_geometry::batch::count_within`
/// call (vectorised across rows at the paper's dimensionalities), instead of
/// being descended further (a "virtual leaf"). Counting is order-independent —
/// the block scan finds exactly the points the remaining descent would have
/// found — so this only trades tree bookkeeping for wide distance evaluation.
/// 256 rows ≈ one `d_cut` ball at the densities the ρ phase sees, past the
/// point where per-node pruning can retire enough of the block to beat
/// scanning it.
const VIRTUAL_LEAF_SPAN: usize = 256;

/// Squared minimum distance between the rects `[qlo, qhi]` and `[lo, hi]`.
///
/// A lower bound on `min_dist_sq_to_rect(q, lo, hi)` for every point `q`
/// inside `[qlo, qhi]`, so a joint prune implies every individual query would
/// have pruned.
#[inline]
fn min_dist_sq_rect_rect(qlo: &[f64], qhi: &[f64], lo: &[f64], hi: &[f64]) -> f64 {
    let mut acc = 0.0;
    for a in 0..qlo.len() {
        let d = (lo[a] - qhi[a]).max(qlo[a] - hi[a]).max(0.0);
        acc += d * d;
    }
    acc
}

/// Squared maximum distance between the rects `[qlo, qhi]` and `[lo, hi]`.
///
/// An upper bound on `max_dist_sq_to_rect(q, lo, hi)` for every point `q`
/// inside `[qlo, qhi]`, so a joint containment implies every individual query
/// covers the node.
#[inline]
fn max_dist_sq_rect_rect(qlo: &[f64], qhi: &[f64], lo: &[f64], hi: &[f64]) -> f64 {
    let mut acc = 0.0;
    for a in 0..qlo.len() {
        // Both rects are non-empty, so the max of the two spans is ≥ 0.
        let d = (hi[a] - qlo[a]).max(qhi[a] - lo[a]);
        acc += d * d;
    }
    acc
}

/// Shared scratch for one batched traversal: the bucket's joint bounding box
/// and a pool of recycled active-query lists (one live list per recursion
/// level, depth ≤ the tree's `STACK_CAP` bound).
#[derive(Debug, Default)]
struct Scratch {
    qlo: Vec<f64>,
    qhi: Vec<f64>,
    pool: Vec<Vec<u32>>,
}

impl Scratch {
    /// Fills the joint bbox of the `queries` rows and returns the root active
    /// list, every query.
    fn prepare(&mut self, dim: usize, queries: &[f64]) -> Vec<u32> {
        self.qlo.clear();
        self.qlo.resize(dim, f64::INFINITY);
        self.qhi.clear();
        self.qhi.resize(dim, f64::NEG_INFINITY);
        for row in queries.chunks_exact(dim) {
            for (a, &coord) in row.iter().enumerate() {
                self.qlo[a] = self.qlo[a].min(coord);
                self.qhi[a] = self.qhi[a].max(coord);
            }
        }
        let mut active = self.pool.pop().unwrap_or_default();
        active.clear();
        active.extend(0..(queries.len() / dim) as u32);
        active
    }

    /// Whether the node rect `[lo, hi]` encloses every query ball (the joint
    /// bbox inflated by `radius`). Inside such a node a per-query test can
    /// neither prune (each query sits in the rect, min distance 0) nor cover
    /// it (the rect extends ≥ r past each query), so the recursion may
    /// descend with the active set unchanged.
    #[inline]
    fn encloses(&self, lo: &[f64], hi: &[f64], radius: f64) -> bool {
        for a in 0..lo.len() {
            if lo[a] > self.qlo[a] - radius || hi[a] < self.qhi[a] + radius {
                return false;
            }
        }
        true
    }
}

/// Batched range **counting** with one radius and per-query exclusion ids.
///
/// Reusable across buckets: the internal scratch (joint bbox, active-list
/// pool) is recycled, so a long-lived instance per worker thread performs no
/// steady-state allocation.
#[derive(Debug, Default)]
pub struct BatchRangeCount {
    scratch: Scratch,
}

impl BatchRangeCount {
    pub fn new() -> Self {
        Self::default()
    }

    /// Counts, for each of the `k` query balls of one `radius`, the points of
    /// `tree` within it (closed ball). `queries` is `k` row-major rows of
    /// `tree.dim()` coordinates; `exclude` names one point id per query to
    /// leave out, [`NO_EXCLUDE`] for none (the `exclude` argument of
    /// `range_count`).
    ///
    /// `counts` is cleared and filled with `k` entries, each bit-identical to
    /// `tree.range_count(row, radius, exclude)`. A NaN or negative radius
    /// counts nothing.
    ///
    /// # Panics
    /// Panics if `queries` is not `exclude.len()` rows of `tree.dim()`
    /// coordinates.
    pub fn run(
        &mut self,
        tree: &KdTree,
        queries: &[f64],
        radius: f64,
        exclude: &[u32],
        counts: &mut Vec<usize>,
    ) {
        let (dim, k) = (tree.dim(), exclude.len());
        assert_eq!(
            queries.len(),
            k * dim,
            "query rows/exclusion length mismatch (rows = {}, k = {k}, dim = {dim})",
            queries.len(),
        );
        counts.clear();
        counts.resize(k, 0);
        // The single-query admission rule: a NaN or negative radius matches
        // nothing.
        if k == 0 || tree.is_empty() || radius.is_nan() || radius < 0.0 {
            return;
        }
        let active = self.scratch.prepare(dim, queries);
        let ctx = CountCtx { tree, queries, exclude, dim, radius, r_sq: radius * radius };
        count_rec(&ctx, 0, &active, &mut self.scratch, counts);
        self.scratch.pool.push(active);
    }
}

struct CountCtx<'a> {
    tree: &'a KdTree,
    queries: &'a [f64],
    exclude: &'a [u32],
    dim: usize,
    radius: f64,
    r_sq: f64,
}

fn count_rec(
    ctx: &CountCtx<'_>,
    node_idx: usize,
    active: &[u32],
    scratch: &mut Scratch,
    counts: &mut [usize],
) {
    let (tree, dim, r_sq) = (ctx.tree, ctx.dim, ctx.r_sq);
    let (lo, hi) = tree.node_bounds(node_idx);
    // Joint prune: the whole bucket misses this subtree.
    if min_dist_sq_rect_rect(&scratch.qlo, &scratch.qhi, lo, hi) > r_sq {
        return;
    }
    let node = &tree.nodes()[node_idx];
    let (start, end) = (node.start as usize, node.end as usize);
    // Joint containment: every query in the bucket covers the whole node.
    if max_dist_sq_rect_rect(&scratch.qlo, &scratch.qhi, lo, hi) <= r_sq {
        for &q in active {
            let q = q as usize;
            counts[q] += end - start;
            if tree.excluded_row(start, end, ctx.exclude[q]).is_some() {
                counts[q] -= 1;
            }
        }
        return;
    }
    // Enclosure shortcut: while the node still encloses every query ball,
    // per-query tests are foregone conclusions (nothing prunes, nothing is
    // covered) — descend with the active set as is. Counting is
    // order-independent, so resolving a ball-boundary node here or one level
    // deeper yields the same integers.
    if node.right != NONE && end - start > VIRTUAL_LEAF_SPAN && scratch.encloses(lo, hi, ctx.radius)
    {
        count_rec(ctx, node.right as usize, active, scratch, counts);
        count_rec(ctx, node_idx + 1, active, scratch, counts);
        return;
    }
    // Per-query tests — identical to the single-query traversal.
    let mut still = scratch.pool.pop().unwrap_or_default();
    still.clear();
    for &q in active {
        let qi = q as usize;
        let query = &ctx.queries[qi * dim..(qi + 1) * dim];
        if min_dist_sq_to_rect(query, lo, hi) > r_sq {
            continue;
        }
        if max_dist_sq_to_rect(query, lo, hi) <= r_sq {
            counts[qi] += end - start;
            if tree.excluded_row(start, end, ctx.exclude[qi]).is_some() {
                counts[qi] -= 1;
            }
            continue;
        }
        still.push(q);
    }
    if !still.is_empty() {
        if node.right == NONE || end - start <= VIRTUAL_LEAF_SPAN {
            let coords = tree.coords();
            let rows = &coords[start * dim..end * dim];
            for &q in &still {
                let qi = q as usize;
                let query = &ctx.queries[qi * dim..(qi + 1) * dim];
                counts[qi] += batch::count_within(query, rows, dim, r_sq);
                if let Some(p) = tree.excluded_row(start, end, ctx.exclude[qi]) {
                    if dist_sq(query, &coords[p * dim..(p + 1) * dim]) <= r_sq {
                        counts[qi] -= 1;
                    }
                }
            }
        } else {
            // Right subtree first: the single-query stack pushes left then
            // right and pops the right child first.
            count_rec(ctx, node.right as usize, &still, scratch, counts);
            count_rec(ctx, node_idx + 1, &still, scratch, counts);
        }
    }
    scratch.pool.push(still);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kdtree::KdTree;
    use crate::test_util::random_dataset;
    use dpc_geometry::Dataset;

    fn gather_rows(data: &Dataset, ids: &[usize]) -> Vec<f64> {
        let mut rows = Vec::with_capacity(ids.len() * data.dim());
        for &i in ids {
            rows.extend_from_slice(data.point(i));
        }
        rows
    }

    #[test]
    fn batched_count_matches_single_queries() {
        for &(n, dim, seed) in &[(257usize, 2usize, 11u64), (300, 3, 12), (180, 8, 13)] {
            let data = random_dataset(n, dim, seed);
            let tree = KdTree::build(&data);
            let mut engine = BatchRangeCount::new();
            let mut counts = Vec::new();
            // One batch per radius, each over the points that take it.
            for j in 0..7 {
                let radius = 0.05 + 0.3 * j as f64;
                let ids: Vec<usize> = (0..n).step_by(3).filter(|i| i % 7 == j).collect();
                let rows = gather_rows(&data, &ids);
                let exclude: Vec<u32> =
                    ids.iter().map(|&i| if i % 2 == 0 { i as u32 } else { NO_EXCLUDE }).collect();
                engine.run(&tree, &rows, radius, &exclude, &mut counts);
                for (k, &i) in ids.iter().enumerate() {
                    let excl = if i % 2 == 0 { Some(i) } else { None };
                    let expected = tree.range_count(data.point(i), radius, excl);
                    assert_eq!(counts[k], expected, "query {i} (dim {dim})");
                }
            }
        }
    }

    #[test]
    fn nan_and_negative_radii_match_single_query_semantics() {
        let data = random_dataset(64, 2, 31);
        let tree = KdTree::build(&data);
        let rows = gather_rows(&data, &[0, 1, 2]);
        let exclude = [NO_EXCLUDE; 3];
        let mut counts = Vec::new();
        for radius in [f64::NAN, -1.0] {
            BatchRangeCount::new().run(&tree, &rows, radius, &exclude, &mut counts);
            assert_eq!(counts, [0, 0, 0], "radius {radius}");
        }
        BatchRangeCount::new().run(&tree, &rows, 0.5, &exclude, &mut counts);
        for (k, &count) in counts.iter().enumerate() {
            assert_eq!(count, tree.range_count(data.point(k), 0.5, None));
        }
    }

    #[test]
    fn empty_bucket_is_a_no_op() {
        let data = random_dataset(32, 3, 41);
        let tree = KdTree::build(&data);
        let mut counts = vec![99usize];
        BatchRangeCount::new().run(&tree, &[], 1.0, &[], &mut counts);
        assert!(counts.is_empty());
    }
}
