//! Spatial indexes used by the fast-dpc algorithms.
//!
//! * [`KdTree`] — the workhorse of Ex-DPC / Approx-DPC / S-Approx-DPC: a
//!   **packed, static, leaf-bucketed** kd-tree (contiguous permuted ids and
//!   coordinates, flat preorder nodes carrying subtree counts and bounding
//!   boxes). Range counting gets three-way pruning — a subtree whose box lies
//!   entirely inside the query ball contributes its size without visiting a
//!   point — and all query paths are allocation-free. Construction fans out
//!   across worker threads ([`KdTree::build_parallel`]) with a bit-identical
//!   result at every thread count. With a [`MaxKeys`] array it also answers
//!   the one dependent-point query every algorithm uses, and its only
//!   nearest-point query: the nearest point whose key (local density) is
//!   strictly greater than the query's, ties to the smallest id
//!   ([`KdTree::nearest_denser`]). With a [`MinLabels`] array too, it answers
//!   Approx-DPC's cell rule: the smallest label (cell id) among the points
//!   within a radius whose key is greater than the query's
//!   ([`KdTree::smallest_denser_label`]). Keys change in place
//!   ([`MaxKeys::set`]), and read as per-point reaches they answer the
//!   reverse query: every point whose closed reach covers a query point
//!   ([`KdTree::reaching_into`]). `StreamingDpc` keeps its mutable window on
//!   one packed tree this way, plus an insert buffer and periodic rebuilds.
//!   Its packed storage is readable through accessors (`dim`, `ids`,
//!   `coords`, `nodes`, `bounds`, and `point(id)` through the position map);
//!   a decoded tree is reassembled and checked by
//!   [`KdTree::from_packed_parts`]. See the module docs of [`kdtree`] for
//!   the layout.
//! * [`RTree`] — an STR bulk-loaded R-tree used by the `R-tree + Scan` baseline
//!   of the paper's evaluation (Table 6).
//! * [`Grid`] — the uniform grid with cell side `d_cut/√d` (Approx-DPC) or
//!   `ε·d_cut/√d` (S-Approx-DPC), which holds their cells, not their ρ
//!   queries. Cells are created online, only for occupied regions, exactly as
//!   §4.1 describes: [`Grid::build`] makes one pass over the points in id
//!   order, so cell ids follow first appearance, then fills its CSR arrays
//!   with one counting sort. Cell keys are exact only while the data spans
//!   fewer than 2^53 cells per axis ([`Grid::keys_fit`]).
//! * [`selfjoin`] — every point's closed-ball neighbour count, the ρ phase
//!   of Ex-DPC and Approx-DPC, as one dual-tree self-join over the packed
//!   tree ([`selfjoin::count_all_within`]): each pair of points within the
//!   radius is decided once, at its nodes' lowest common ancestor, and
//!   credits both ends. Every count is bit-identical to the point's own
//!   [`KdTree::range_count`] — see the module's exactness argument.
//! * [`batchq`] — batched range counts over the packed tree for a chosen
//!   subset of query points, S-Approx-DPC's ρ phase (one count per cell's
//!   picked point): a bucket of `d_cut` balls (consecutive query points in
//!   the tree's packed order, which is already spatial) descends the tree
//!   **once**, pruning with the bucket's joint bounding box and feeding each
//!   leaf's contiguous rows to the batch count kernel per still-active
//!   query. Every count is bit-identical to the corresponding single-query
//!   call — see the module's determinism contract.

#![forbid(unsafe_code)]

pub mod batchq;
pub mod grid;
pub mod kdtree;
pub mod rtree;
pub mod selfjoin;

pub use batchq::BatchRangeCount;
pub use grid::{CellId, Grid, QueryBuckets};
pub use kdtree::{KdTree, MaxKeys, MinLabels, PackedNode};
pub use rtree::RTree;

/// Brute-force reference implementations shared by the kd-tree test modules.
#[cfg(test)]
pub(crate) mod test_util {
    use dpc_geometry::{dist, Dataset};
    use dpc_rng::StdRng;

    /// A deterministic dataset of `n` uniform points in `[0, 100)^dim`.
    pub fn random_dataset(n: usize, dim: usize, seed: u64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let coords: Vec<f64> = (0..n * dim).map(|_| rng.gen_range(0.0..100.0)).collect();
        Dataset::from_flat(dim, coords)
    }

    /// `O(n)` reference range count (closed ball) with optional exclusion.
    pub fn brute_range_count(ds: &Dataset, q: &[f64], r: f64, exclude: Option<usize>) -> usize {
        ds.iter().filter(|(id, p)| Some(*id) != exclude && dist(q, p) <= r).count()
    }
}
