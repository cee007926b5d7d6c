//! A packed, static, leaf-bucketed kd-tree over the points of a [`Dataset`].
//!
//! This is the workhorse index of the local-density phase — the dominant cost
//! of every algorithm in the paper — so its layout is chosen for query
//! throughput rather than for updatability. Ex-DPC and Approx-DPC count every
//! point's `d_cut` neighbours with one dual-tree self-join over the tree's
//! node pairs ([`crate::selfjoin`]), S-Approx-DPC one range count per cell's
//! picked point ([`crate::batchq`]), and both prune and contain with the
//! node boxes below:
//!
//! * **Packed leaf buckets.** Bulk construction permutes the point identifiers
//!   into one contiguous array, recursively median-split until a subtree holds
//!   at most [`LEAF_BUCKET`] points. The coordinates of the permuted points
//!   are copied into a matching row-major buffer, so scanning a leaf reads one
//!   contiguous memory strip instead of chasing one arena node per point.
//! * **Flat inner nodes.** Nodes live in a preorder `Vec`: a node's left child
//!   is always the next node, only the right child index is stored. Every node
//!   records its packed range `start..end` (hence its subtree size `end −
//!   start`) and its exact bounding box (in a parallel `bounds` buffer,
//!   `2·dim` values per node).
//! * **Three-way pruning on counting.** A range count visits a node and
//!   compares the query ball against the node's box: fully outside → skip,
//!   fully inside → add `end − start` without visiting a single point,
//!   otherwise descend (scanning the bucket when the node is a leaf). The
//!   fully-inside case is what a counting query admits over a reporting one,
//!   and on clustered data it removes most leaf scans.
//! * **Closed-ball semantics.** All range queries use the paper's Definition 1
//!   predicate `dist ≤ radius` (see the `dpc_geometry` crate docs): a point at
//!   distance exactly `d_cut` counts, and the pruning tests are aligned with
//!   that (`min_dist > r²` skips, `max_dist ≤ r²` takes the whole subtree).
//! * **Allocation-free queries.** Traversal uses a fixed-size explicit stack
//!   (the tree is balanced, so its depth is at most `⌈log₂(n / LEAF_BUCKET)⌉ +
//!   1 < 32` for any `n` addressable by `u32`), and reporting queries append
//!   into a caller-reusable buffer via [`KdTree::range_search_into`]. Leaf
//!   scans go through the batched kernels of `dpc_geometry::batch` — one query
//!   against the bucket's contiguous rows. The count kernel runs a
//!   fixed-dimension loop that the compiler vectorises for `d ∈ {2, 3, 4, 8}`.
//!
//! The index stores `O(n)` identifiers, their position map, `O(n·d)` packed
//! coordinates and `O(n/LEAF_BUCKET)` nodes — `O(n)` space for fixed `d`, as
//! the paper's space analysis (Theorem 3) requires. The tree owns all of it:
//! a build copies every coordinate into the packed rows, and no query reads
//! the dataset again, so a tree keeps no reference to the dataset it was
//! built from and can be stored, sent or decoded on its own.
//!
//! * **Parallel construction.** A median split puts `⌊m/2⌋` points left, so
//!   the preorder node array — every node's packed range and right child —
//!   depends on `n` alone. The build computes it first (the canonical layout
//!   that [`KdTree::from_packed_parts`] also demands), allocates the
//!   `bounds`/`ids`/`coords` storage up front, and fills each node's box,
//!   packed ids and leaf rows by one recursion that reads its split point and
//!   its children's runs of boxes from the layout. After a split the two
//!   children write disjoint slices, so [`KdTree::build_parallel`] runs the
//!   top `⌈log₂ threads⌉` levels of the same recursion on both sides of an
//!   [`Executor::join`] and the levels below inline: the tree is
//!   **bit-identical** to the serial build at every thread count.
//!
//! * **Nearest-denser queries: one search, two starts.** Every algorithm's
//!   dependent point (Definition 2) is the nearest point of strictly higher
//!   density. One private search answers it within a subtree: depth-first,
//!   nearer child first, pruned on box distance and on the per-node maximum
//!   density held by [`MaxKeys`] — the priority-search kd-tree of Huang, Yu
//!   & Shun (*Faster Parallel Exact Density Peaks Clustering*, ACDA 2023) —
//!   with every leaf scanned by one branch-free kernel,
//!   `dpc_geometry::batch::nearest_denser_in`. Equal distances go to the
//!   smallest id, so the answer is unique and no scan order changes it.
//!   [`KdTree::nearest_denser`] runs the search from the root, for any query
//!   point. [`KdTree::nearest_denser_at`] answers for an indexed point, which
//!   is what every fit asks, bottom-up as in Friedman, Bentley & Finkel (*An
//!   Algorithm for Finding Best Matches in Logarithmic Expected Time*, ACM
//!   TOMS 1977): it scans the point's own leaf, then climbs, and at each
//!   node `C` on the way it either stops or searches `C`'s sibling subtree.
//!   Most dependents lie in or near the query's own leaf, so the climb stops
//!   after a few nodes, where a descent from the root visits about two nodes
//!   per level.
//!
//!   **The stop test.** Let `[lo, hi]` be `C`'s box, `q` the query and `g`
//!   the minimum, over the axes, of `fl(q[a] − lo[a])` and `fl(hi[a] −
//!   q[a])` (both `≥ 0`, as `q` lies in `C`). The climb stops iff `fl(g·g) >
//!   best`, strictly, where `best` is the best squared distance so far. Its
//!   **precondition**: at every inner node some axis has `left.hi ≤
//!   right.lo` — the median split, with ties on the face. Then a point `p`
//!   outside `C` lies in the sibling of `C` or of one of its ancestors `A`,
//!   and on or beyond `A`'s face on that split axis `a`. The boxes are exact,
//!   so `C`'s lies inside `A`'s, and `p` lies on or beyond `C`'s face too:
//!   `p[a] ≥ hi[a]` or `p[a] ≤ lo[a]`. Rounding is monotone, so `|fl(q[a] −
//!   p[a])| ≥ g` and its rounded square is `≥ fl(g·g)`; and `dist_sq` sums
//!   non-negative squares from `0.0`, so `fl(dist_sq(q, p)) ≥ fl(g·g) >
//!   best`. No better answer and no tie lies outside `C`, so the
//!   smallest-id rule holds. Every build meets the precondition, and
//!   [`KdTree::from_packed_parts`] checks it on decoded storage.
//!
//!   Its sibling [`KdTree::smallest_denser_label`] prunes the same way inside
//!   a closed ball, plus on the per-node smallest label of [`MinLabels`]:
//!   Approx-DPC's first denser neighbour cell of a cell's densest point.
//!   These are the tree's only nearest-point queries: a plain nearest
//!   neighbour is the case that keys every candidate above the query.
//!
//! * **Changing keys and the reverse query.** The points and the layout
//!   never change after a build; the keys may. [`MaxKeys::set`] changes one
//!   point's key, raising the maxima on its root-to-leaf path when the key
//!   rises and leaving them as upper bounds when it falls, so every query
//!   stays exact. [`KdTree::reaching_into`] reads the keys as per-point
//!   reaches and reports every point whose closed reach covers the query.
//!   The streaming engine keeps its window this way: one packed tree from
//!   its last rebuild, keyed by ρ and by reach, with removed points keyed
//!   `-∞`.

use dpc_geometry::batch;
use dpc_geometry::distance::{dist_sq, max_dist_sq_to_rect, min_dist_sq_to_rect};
use dpc_geometry::Dataset;
use dpc_parallel::Executor;

/// Maximum number of points per leaf bucket. Buckets are scanned linearly, so
/// the value trades tree depth (build cost, inner-node overhead) against scan
/// length; 16 keeps a 2-d bucket within two cache lines of coordinates.
pub const LEAF_BUCKET: usize = 16;

/// Capacity of the fixed traversal stacks. A balanced tree over `u32`-indexed
/// points has depth ≤ ⌈log₂(2³² / 16)⌉ + 1 = 29, and a depth-first traversal
/// that pushes both children keeps at most depth + 1 entries. Shared with the
/// batched traversals of [`crate::batchq`], whose recursion depth obeys the
/// same bound.
pub(crate) const STACK_CAP: usize = 64;

pub(crate) const NONE: u32 = PackedNode::NO_CHILD;

/// Minimum number of points in a range before the build forks it: below this
/// the ~10–30 µs cost of spawning a scoped thread exceeds the work handed
/// over. Also gates [`KdTree::build_parallel`] as a whole — a dataset smaller
/// than this builds inline with zero spawns regardless of the executor.
const MIN_FORK_POINTS: usize = 1024;

/// Upper bound on fork depth (2⁸ = 256 leaf tasks), a guard against executors
/// reporting absurd thread counts; real fan-out is `⌈log₂ threads⌉` levels.
const MAX_FORK_LEVELS: usize = 8;

/// One flat tree node. The node covers packed positions `start..end`; its
/// subtree size is `end - start`. Inner nodes have their left child at the
/// next node index (preorder layout) and `right` holds the right child; leaves
/// have `right == `[`PackedNode::NO_CHILD`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PackedNode {
    /// First packed position covered by this node's subtree.
    pub start: u32,
    /// One past the last packed position covered by this node's subtree.
    pub end: u32,
    /// Preorder index of the right child, or [`PackedNode::NO_CHILD`] for a
    /// leaf. The left child is always at the next preorder index.
    pub right: u32,
}

impl PackedNode {
    /// Sentinel `right` value marking a leaf.
    pub const NO_CHILD: u32 = u32::MAX;

    /// Whether this node is a leaf bucket (no children).
    #[inline]
    pub fn is_leaf(&self) -> bool {
        self.right == Self::NO_CHILD
    }
}

/// A packed static kd-tree over the points `0..n` of a [`Dataset`]. It owns
/// copies of their coordinates and borrows nothing.
pub struct KdTree {
    dim: usize,
    /// Point identifiers in packed (partition) order: a permutation of
    /// `0..n`.
    ids: Vec<u32>,
    /// Coordinates of `ids` in the same order, row-major. Leaf scans read this
    /// buffer sequentially.
    coords: Vec<f64>,
    /// `pos[id]` = packed position of point `id`, the inverse of `ids`. Used
    /// for the `O(1)` "is the excluded point inside this subtree" test.
    pos: Vec<u32>,
    nodes: Vec<PackedNode>,
    /// Per-node bounding boxes: `dim` lows then `dim` highs per node.
    bounds: Vec<f64>,
}

impl KdTree {
    /// Builds the packed tree over every point of `data`, serially.
    pub fn build(data: &Dataset) -> Self {
        Self::build_parallel(data, &Executor::single())
    }

    /// Builds the packed tree over every point of `data`, fanning the top
    /// `⌈log₂ threads⌉` levels of the median-split recursion out across the
    /// executor's workers via [`Executor::join`].
    ///
    /// The result is **bit-identical** to [`KdTree::build`] at every thread
    /// count: the node array is the canonical layout for `n`, computed before
    /// any point is read, so every subtree's packed range and run of boxes
    /// is known up front and workers fill disjoint slices of the same arrays
    /// the serial build fills, with the same deterministic median selection.
    /// Datasets smaller than a fork threshold build inline with zero spawns.
    pub fn build_parallel(data: &Dataset, executor: &Executor) -> Self {
        let dim = data.dim();
        let n = data.len();
        let mut ids: Vec<u32> = (0..n as u32).collect();
        let nodes = canonical_node_layout(n);
        let mut bounds = vec![0.0f64; nodes.len() * 2 * dim];
        let mut coords = vec![0.0f64; n * dim];
        if n > 0 {
            let ctx = BuildCtx { data, dim, nodes: &nodes, executor };
            let levels = fork_levels(executor.threads(), n);
            build_rec(&ctx, 0, &mut ids, &mut coords, &mut bounds, levels);
        }
        let pos = position_map(&ids).expect("a build permutes 0..n");
        Self { dim, ids, coords, pos, nodes, bounds }
    }

    /// Number of points in the tree.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the tree holds no points.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Point dimensionality; coordinate rows and per-node boxes are `dim` and
    /// `2·dim` values wide.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Point identifiers in packed (partition) order: a permutation of
    /// `0..n`.
    pub fn ids(&self) -> &[u32] {
        &self.ids
    }

    /// Coordinates of [`KdTree::ids`] in the same order, row-major.
    pub fn coords(&self) -> &[f64] {
        &self.coords
    }

    /// The preorder node array.
    pub fn nodes(&self) -> &[PackedNode] {
        &self.nodes
    }

    /// Per-node bounding boxes: `dim` lows then `dim` highs per node.
    pub fn bounds(&self) -> &[f64] {
        &self.bounds
    }

    /// The packed coordinate row of point `id`, found through the position
    /// map: a bit copy of the row the tree was built from.
    ///
    /// # Panics
    /// Panics if `id` is not below [`KdTree::len`].
    pub fn point(&self, id: usize) -> &[f64] {
        let row = self.pos[id] as usize * self.dim;
        &self.coords[row..row + self.dim]
    }

    /// Whether two trees have bit-identical packed layouts: same permuted
    /// identifiers, packed coordinate rows, preorder nodes and bounding boxes
    /// (floats compared by bit pattern, so even a `-0.0` vs `0.0` discrepancy
    /// fails). This is the property the parallel build guarantees against the
    /// serial build at every thread count, and what the determinism tests
    /// assert.
    pub fn layout_eq(&self, other: &Self) -> bool {
        let bits_eq = |a: &[f64], b: &[f64]| {
            a.len() == b.len() && std::iter::zip(a, b).all(|(x, y)| x.to_bits() == y.to_bits())
        };
        self.dim == other.dim
            && self.ids == other.ids
            && bits_eq(&self.coords, &other.coords)
            && self.nodes == other.nodes
            && bits_eq(&self.bounds, &other.bounds)
    }

    /// Approximate heap memory used by the index, in bytes (packed ids and
    /// coordinates, position map, nodes, and bounding boxes).
    pub fn mem_usage(&self) -> usize {
        (self.ids.capacity() + self.pos.capacity()) * std::mem::size_of::<u32>()
            + self.coords.capacity() * std::mem::size_of::<f64>()
            + self.nodes.capacity() * std::mem::size_of::<PackedNode>()
            + self.bounds.capacity() * std::mem::size_of::<f64>()
    }

    /// Reassembles a tree from decoded packed storage — the loader
    /// counterpart of [`KdTree::build`], used by `dpc-persist`, and the one
    /// place a decoded tree is checked.
    ///
    /// Nothing is trusted. The dimensionality must be positive; the node
    /// array must equal the preorder layout a build over `n` points creates
    /// exactly (the build's shape is a pure function of `n`, so every genuine
    /// artifact matches it — and a canonical shape is what keeps the fixed
    /// traversal stacks in bounds on decoded input); `ids` must be a
    /// permutation of `0..n`, whose inverse becomes the position map; every
    /// node's bounding box must be the box the build computes over the
    /// node's packed range; and every inner node must have an axis on which
    /// its left child's box ends where its right child's begins or before
    /// (`left.hi ≤ right.lo`), as a median split leaves them — the
    /// precondition of [`KdTree::nearest_denser_at`]'s stop test. So every
    /// query on a tree that passes is exact. The check cannot tell whether
    /// a build would have split the same points: a tree that passes need not
    /// be [`KdTree::layout_eq`] to a fresh build over its rows.
    ///
    /// # Errors
    /// A static description of the first violated invariant, for the caller
    /// to wrap in its own error type.
    pub fn from_packed_parts(
        dim: usize,
        ids: Vec<u32>,
        coords: Vec<f64>,
        nodes: Vec<PackedNode>,
        bounds: Vec<f64>,
    ) -> Result<Self, &'static str> {
        let n = ids.len();
        if dim == 0 {
            return Err("zero dimensionality");
        }
        if n.checked_mul(dim) != Some(coords.len()) {
            return Err("packed coordinate buffer length disagrees with the id count");
        }
        if nodes != canonical_node_layout(n) {
            return Err("node array is not the canonical layout for the point count");
        }
        if bounds.len() != nodes.len() * 2 * dim {
            return Err("bounds buffer length disagrees with the node count");
        }
        let pos = position_map(&ids)?;
        // Recompute every node's box the way the build does and demand
        // agreement. Bitwise except for one carve-out: the build folds its
        // min/max over pre-split id order, this check over packed order, and
        // the two can keep different representatives of a `±0.0` tie — so a
        // numerically equal bound is accepted too (`0.0 == -0.0`, while any
        // actually-different bound compares unequal both ways).
        //
        // A leaf's box is recomputed from its rows; an inner node's from the
        // union of its two children's stored boxes, which were checked
        // before it (children follow their parent in preorder, so a reverse
        // sweep reaches them first). By induction the union equals the box
        // over the node's rows, so the accepted inputs are those of a
        // per-node row scan, at O(n·d) instead of O(n·d·depth). The same
        // checked children's boxes show the split.
        let bound_eq = |a: f64, b: f64| a.to_bits() == b.to_bits() || a == b;
        let mut lo = vec![0.0f64; dim];
        let mut hi = vec![0.0f64; dim];
        let fold = |lo: &mut [f64], hi: &mut [f64], row_lo: &[f64], row_hi: &[f64]| {
            for a in 0..dim {
                if row_lo[a] < lo[a] {
                    lo[a] = row_lo[a];
                }
                if row_hi[a] > hi[a] {
                    hi[a] = row_hi[a];
                }
            }
        };
        for (idx, node) in nodes.iter().enumerate().rev() {
            lo.fill(f64::INFINITY);
            hi.fill(f64::NEG_INFINITY);
            if node.is_leaf() {
                let rows = &coords[node.start as usize * dim..node.end as usize * dim];
                for row in rows.chunks_exact(dim) {
                    fold(&mut lo, &mut hi, row, row);
                }
            } else {
                let box_of = |c: usize| bounds[c * 2 * dim..(c + 1) * 2 * dim].split_at(dim);
                let ((left_lo, left_hi), (right_lo, right_hi)) =
                    (box_of(idx + 1), box_of(node.right as usize));
                if !std::iter::zip(left_hi, right_lo).any(|(l, r)| l <= r) {
                    return Err("an inner node's children overlap on every axis");
                }
                fold(&mut lo, &mut hi, left_lo, left_hi);
                fold(&mut lo, &mut hi, right_lo, right_hi);
            }
            let b = &bounds[idx * 2 * dim..(idx + 1) * 2 * dim];
            let lo_ok = std::iter::zip(&lo, &b[..dim]).all(|(&w, &g)| bound_eq(w, g));
            let hi_ok = std::iter::zip(&hi, &b[dim..]).all(|(&w, &g)| bound_eq(w, g));
            if !lo_ok || !hi_ok {
                return Err("node bounding box disagrees with its packed points");
            }
        }
        Ok(Self { dim, ids, coords, pos, nodes, bounds })
    }

    /// The bounding box `(lo, hi)` of node `idx`.
    #[inline]
    pub(crate) fn node_bounds(&self, idx: usize) -> (&[f64], &[f64]) {
        let b = &self.bounds[idx * 2 * self.dim..(idx + 1) * 2 * self.dim];
        b.split_at(self.dim)
    }

    /// Packed position of the excluded point (by identifier) if it lies in
    /// positions `start..end`, in `O(1)` through the position map. An id of
    /// `n` or more, `NONE` (no exclusion) included, excludes nothing.
    #[inline]
    pub(crate) fn excluded_row(&self, start: usize, end: usize, excl_id: u32) -> Option<usize> {
        let p = *self.pos.get(excl_id as usize)? as usize;
        (start <= p && p < end).then_some(p)
    }

    /// Counts points whose distance to `query` is **at most** `radius` (closed
    /// ball, Definition 1), **excluding** the point whose identifier equals
    /// `exclude` (pass `None` to count every point).
    ///
    /// This is the local-density primitive: Ex-DPC's count for point `i`
    /// passes `exclude = Some(i)` so that a point does not count itself. A
    /// negative or NaN radius counts nothing; radius `0` counts exact
    /// duplicates.
    pub fn range_count(&self, query: &[f64], radius: f64, exclude: Option<usize>) -> usize {
        if self.ids.is_empty() || radius.is_nan() || radius < 0.0 {
            return 0;
        }
        let r_sq = radius * radius;
        let dim = self.dim;
        let excl = exclude.map(|e| e as u32).unwrap_or(NONE);
        let mut count = 0usize;
        let mut stack = [0u32; STACK_CAP];
        stack[0] = 0;
        let mut top = 1usize;
        while top > 0 {
            top -= 1;
            let node_idx = stack[top] as usize;
            let (lo, hi) = self.node_bounds(node_idx);
            if min_dist_sq_to_rect(query, lo, hi) > r_sq {
                continue; // box fully outside the ball
            }
            let node = &self.nodes[node_idx];
            let (start, end) = (node.start as usize, node.end as usize);
            if max_dist_sq_to_rect(query, lo, hi) <= r_sq {
                // Box fully inside the ball: the whole subtree contributes its
                // size without a single point visit (subtree-count pruning).
                count += end - start;
                if self.excluded_row(start, end, excl).is_some() {
                    count -= 1;
                }
            } else if node.right == NONE {
                let rows = &self.coords[start * dim..end * dim];
                count += batch::count_within(query, rows, dim, r_sq);
                if let Some(p) = self.excluded_row(start, end, excl) {
                    let row = &self.coords[p * dim..(p + 1) * dim];
                    if dist_sq(query, row) <= r_sq {
                        count -= 1;
                    }
                }
            } else {
                stack[top] = node_idx as u32 + 1;
                stack[top + 1] = node.right;
                top += 2;
            }
        }
        count
    }

    /// Collects into `out` the identifiers of points whose distance to
    /// `query` is at most `radius` (closed ball). The query point itself (if
    /// it is indexed) is included because its distance is zero; callers that
    /// need to exclude it filter by id. The buffer is cleared first and is
    /// meant to be reused across queries (S-Approx-DPC lists the `d_cut` ball
    /// of each local peak this way).
    ///
    /// Result order follows the packed layout, not point-identifier order.
    pub fn range_search_into(&self, query: &[f64], radius: f64, out: &mut Vec<usize>) {
        out.clear();
        if self.ids.is_empty() || radius.is_nan() || radius < 0.0 {
            return;
        }
        let r_sq = radius * radius;
        let dim = self.dim;
        let mut stack = [0u32; STACK_CAP];
        stack[0] = 0;
        let mut top = 1usize;
        while top > 0 {
            top -= 1;
            let node_idx = stack[top] as usize;
            let (lo, hi) = self.node_bounds(node_idx);
            if min_dist_sq_to_rect(query, lo, hi) > r_sq {
                continue;
            }
            let node = &self.nodes[node_idx];
            let (start, end) = (node.start as usize, node.end as usize);
            if max_dist_sq_to_rect(query, lo, hi) <= r_sq {
                // Whole subtree inside: report every id without distance checks.
                out.extend(self.ids[start..end].iter().map(|&id| id as usize));
            } else if node.right == NONE {
                let rows = &self.coords[start * dim..end * dim];
                // The batch kernel appends bucket-local row indices; remap
                // them to point identifiers in place.
                let base = out.len();
                batch::search_within_into(query, rows, dim, r_sq, out);
                for v in &mut out[base..] {
                    *v = self.ids[start + *v] as usize;
                }
            } else {
                stack[top] = node_idx as u32 + 1;
                stack[top + 1] = node.right;
                top += 2;
            }
        }
    }

    /// Finds the nearest indexed point whose key is **strictly greater** than
    /// `key` — the dependent-point query of Definition 2 when the keys are
    /// local densities; `keys` must have been built from this tree. Equal
    /// distances go to the smallest id, so the answer is unique. Returns
    /// `(point id, distance)`, or `None` when no indexed key exceeds `key`.
    ///
    /// Searches the whole tree from the root, nearer child first (see the
    /// module docs); each node is visited at most once. For an indexed query
    /// point, [`KdTree::nearest_denser_at`] gives the same answer from the
    /// point's own leaf.
    pub fn nearest_denser(&self, keys: &MaxKeys, query: &[f64], key: f64) -> Option<(usize, f64)> {
        self.nearest_denser_counted(keys, query, key).0
    }

    /// [`KdTree::nearest_denser`] for the indexed point at packed row `row`,
    /// whose coordinates are the row's: the same answer, bit for bit.
    ///
    /// The search starts at the row's own leaf and climbs toward the root.
    /// At each node on the way it stops once no point outside the node can
    /// be nearer than the best answer, or tie it; otherwise it searches the
    /// node's sibling subtree as [`KdTree::nearest_denser`] searches the tree
    /// (see the module docs for why the stop is exact). Each node is visited
    /// at most once.
    ///
    /// # Panics
    /// Panics if `row` is not below [`KdTree::len`].
    pub fn nearest_denser_at(&self, keys: &MaxKeys, row: usize, key: f64) -> Option<(usize, f64)> {
        self.nearest_denser_at_counted(keys, row, key).0
    }

    /// [`KdTree::nearest_denser`] plus the number of nodes it visited.
    fn nearest_denser_counted(
        &self,
        keys: &MaxKeys,
        query: &[f64],
        key: f64,
    ) -> (Option<(usize, f64)>, usize) {
        debug_assert_eq!(keys.node_max.len(), self.nodes.len(), "keys built from another tree");
        if self.nodes.is_empty() {
            return (None, 0);
        }
        let mut best = (f64::INFINITY, NONE);
        let mut stack = [(0u32, 0.0f64); STACK_CAP];
        let visits = self.search_denser(keys, query, key, 0, &mut stack, &mut best);
        (denser_answer(best), visits)
    }

    /// [`KdTree::nearest_denser_at`] plus the number of nodes it visited:
    /// the own leaf (scanned unless its largest key is not above `key`),
    /// every node the sibling searches pop, and each ancestor the climb
    /// reaches.
    fn nearest_denser_at_counted(
        &self,
        keys: &MaxKeys,
        row: usize,
        key: f64,
    ) -> (Option<(usize, f64)>, usize) {
        debug_assert_eq!(keys.node_max.len(), self.nodes.len(), "keys built from another tree");
        let query = &self.coords[row * self.dim..(row + 1) * self.dim];
        // The root-to-leaf path of the row, found on the packed ranges.
        let (mut path, mut depth) = ([0u32; STACK_CAP], 0usize);
        loop {
            let node = &self.nodes[path[depth] as usize];
            if node.is_leaf() {
                break;
            }
            let left = path[depth] + 1;
            depth += 1;
            path[depth] =
                if row < self.nodes[left as usize].end as usize { left } else { node.right };
        }
        let mut best = (f64::INFINITY, NONE);
        if keys.node_max[path[depth] as usize] > key {
            best = self.scan_denser(keys, query, key, path[depth], best);
        }
        let (mut stack, mut visits) = ([(0u32, 0.0f64); STACK_CAP], 1usize);
        while depth > 0 && !self.ball_inside(path[depth] as usize, query, best.0) {
            let (node, parent) = (path[depth], path[depth - 1]);
            let sibling =
                if node == parent + 1 { self.nodes[parent as usize].right } else { parent + 1 };
            visits += 1 + self.search_denser(keys, query, key, sibling, &mut stack, &mut best);
            depth -= 1;
        }
        (denser_answer(best), visits)
    }

    /// Searches the subtree under node `root` for points whose key is
    /// strictly greater than `key`, folding each into `best`, the smallest
    /// `(squared distance, id)` so far, on the caller's traversal `stack`
    /// (one per query, however many subtrees it searches). Returns the
    /// number of nodes visited.
    ///
    /// Depth-first, nearer child first; a subtree is skipped when its box is
    /// farther than the best candidate so far or its largest key is not
    /// above `key`. A box at exactly the best distance is still searched, as
    /// it may hold a tie with a smaller id. Leaves are scanned by
    /// [`batch::nearest_denser_in`].
    fn search_denser(
        &self,
        keys: &MaxKeys,
        query: &[f64],
        key: f64,
        root: u32,
        stack: &mut [(u32, f64); STACK_CAP],
        best: &mut (f64, u32),
    ) -> usize {
        let entry = |c: u32| {
            let (lo, hi) = self.node_bounds(c as usize);
            (c, min_dist_sq_to_rect(query, lo, hi))
        };
        stack[0] = entry(root);
        let (mut top, mut visits) = (1usize, 0usize);
        while top > 0 {
            top -= 1;
            visits += 1;
            let (node_idx, min_d) = stack[top];
            if min_d > best.0 || keys.node_max[node_idx as usize] <= key {
                continue;
            }
            let node = &self.nodes[node_idx as usize];
            if node.is_leaf() {
                *best = self.scan_denser(keys, query, key, node_idx, *best);
            } else {
                let (left, right) = (entry(node_idx + 1), entry(node.right));
                // Push the farther child first so the nearer one is explored
                // first, tightening the best before the far box is reconsidered.
                let (near, far) = if left.1 <= right.1 { (left, right) } else { (right, left) };
                stack[top] = far;
                stack[top + 1] = near;
                top += 2;
            }
        }
        visits
    }

    /// Leaf `leaf`'s rows folded into `best` by [`batch::nearest_denser_in`].
    #[inline]
    fn scan_denser(
        &self,
        keys: &MaxKeys,
        query: &[f64],
        key: f64,
        leaf: u32,
        best: (f64, u32),
    ) -> (f64, u32) {
        let node = &self.nodes[leaf as usize];
        let (start, end, dim) = (node.start as usize, node.end as usize, self.dim);
        let rows = &self.coords[start * dim..end * dim];
        let (row_keys, ids) = (&keys.keys[start..end], &self.ids[start..end]);
        batch::nearest_denser_in(query, rows, dim, row_keys, ids, key, best)
    }

    /// The stop test of [`KdTree::nearest_denser_at`]'s climb: whether every
    /// point outside node `idx` lies farther from `query`, a point inside the
    /// node's box, than the squared distance `best_d`. True iff `fl(g·g) >
    /// best_d`, where `g` is the smallest distance from `query` to a face of
    /// the box (see the module docs for why it is exact).
    fn ball_inside(&self, idx: usize, query: &[f64], best_d: f64) -> bool {
        let (lo, hi) = self.node_bounds(idx);
        let mut gap = f64::INFINITY;
        for a in 0..self.dim {
            let (below, above) = (query[a] - lo[a], hi[a] - query[a]);
            gap = if below < gap { below } else { gap };
            gap = if above < gap { above } else { gap };
        }
        gap * gap > best_d
    }

    /// The smallest label among the indexed points within `radius` of
    /// `query` (closed ball) whose key is **strictly greater** than `key`;
    /// `keys` and `labels` must have been built from this tree. Returns
    /// `None` when no such point exists, or when `radius` is negative or NaN.
    ///
    /// Depth-first, the child with the smaller label first; a subtree is
    /// skipped when its box lies beyond `radius`, its largest key is not
    /// above `key`, or its smallest label is not below the best label so far.
    /// Each node is visited at most once. The answer is a minimum over a
    /// fixed set, so it does not depend on the visiting order.
    pub fn smallest_denser_label(
        &self,
        keys: &MaxKeys,
        labels: &MinLabels,
        query: &[f64],
        radius: f64,
        key: f64,
    ) -> Option<usize> {
        debug_assert_eq!(keys.node_max.len(), self.nodes.len(), "keys built from another tree");
        debug_assert_eq!(labels.node_min.len(), self.nodes.len(), "labels built from another tree");
        if self.nodes.is_empty() || radius.is_nan() || radius < 0.0 {
            return None;
        }
        let (dim, r_sq) = (self.dim, radius * radius);
        let mut best = NONE;
        let mut stack = [0u32; STACK_CAP];
        let mut top = 1usize;
        while top > 0 {
            top -= 1;
            let node_idx = stack[top] as usize;
            if keys.node_max[node_idx] <= key || labels.node_min[node_idx] >= best {
                continue;
            }
            let (lo, hi) = self.node_bounds(node_idx);
            if min_dist_sq_to_rect(query, lo, hi) > r_sq {
                continue;
            }
            let node = &self.nodes[node_idx];
            if node.is_leaf() {
                for k in node.start as usize..node.end as usize {
                    if keys.keys[k] > key
                        && labels.labels[k] < best
                        && dist_sq(query, &self.coords[k * dim..(k + 1) * dim]) <= r_sq
                    {
                        best = labels.labels[k];
                    }
                }
            } else {
                let (left, right) = (node_idx as u32 + 1, node.right);
                // Push the child with the larger label first, so the smaller
                // one is searched first and tightens `best` sooner.
                let (first, second) =
                    if labels.node_min[left as usize] <= labels.node_min[right as usize] {
                        (left, right)
                    } else {
                        (right, left)
                    };
                stack[top] = second;
                stack[top + 1] = first;
                top += 2;
            }
        }
        (best != NONE).then_some(best as usize)
    }

    /// Collects, into `out` (cleared first), the identifiers of the points
    /// whose **closed reach** covers `query`: `dist_sq(query, p) ≤ key²`
    /// for a key of at least 0, the key being the point's reach in `reach`,
    /// which must have been built from this tree. A negative key never
    /// matches, `-∞` included (although it squares to `+∞`); a key of 0
    /// matches only a coincident point; `+∞` matches from anywhere.
    ///
    /// This reverses a range query: a point is reported when the query lies
    /// in *its* ball, not the other way round. A subtree is skipped when its
    /// largest key is negative or its box lies beyond that key. Result order
    /// follows the packed layout.
    pub fn reaching_into(&self, reach: &MaxKeys, query: &[f64], out: &mut Vec<usize>) {
        debug_assert_eq!(reach.node_max.len(), self.nodes.len(), "keys built from another tree");
        out.clear();
        if self.nodes.is_empty() {
            return;
        }
        let dim = self.dim;
        let mut stack = [0u32; STACK_CAP];
        let mut top = 1usize;
        while top > 0 {
            top -= 1;
            let node_idx = stack[top] as usize;
            let r = reach.node_max[node_idx];
            let (lo, hi) = self.node_bounds(node_idx);
            if r < 0.0 || min_dist_sq_to_rect(query, lo, hi) > r * r {
                continue;
            }
            let node = &self.nodes[node_idx];
            if node.is_leaf() {
                for k in node.start as usize..node.end as usize {
                    let r = reach.keys[k];
                    if r >= 0.0 && dist_sq(query, &self.coords[k * dim..(k + 1) * dim]) <= r * r {
                        out.push(self.ids[k] as usize);
                    }
                }
            } else {
                stack[top] = node_idx as u32 + 1;
                stack[top + 1] = node.right;
                top += 2;
            }
        }
    }
}

/// The position map of a tree's packed ids: `pos[id]` is the packed position
/// of point `id`. Every tree indexes exactly the points `0..n`, so the map is
/// the inverse permutation of `ids`.
///
/// # Errors
/// When `ids` is not a permutation of `0..ids.len()`: an id is out of range
/// or repeats.
fn position_map(ids: &[u32]) -> Result<Vec<u32>, &'static str> {
    let mut pos = vec![NONE; ids.len()];
    for (k, &id) in ids.iter().enumerate() {
        let Some(slot) = pos.get_mut(id as usize) else {
            return Err("packed id out of range of the point count");
        };
        if *slot != NONE {
            return Err("duplicate packed id");
        }
        *slot = k as u32;
    }
    Ok(pos)
}

/// A nearest-denser search's answer, `(point id, distance)`, from its best
/// `(squared distance, id)`.
fn denser_answer((best_d, best_id): (f64, u32)) -> Option<(usize, f64)> {
    (best_id != NONE).then(|| (best_id as usize, best_d.sqrt()))
}

/// Folds per-point values in packed order into one value per node of
/// `nodes`: a leaf folds its packed range from `empty`, an inner node folds
/// its two children. Children follow their parent in preorder, so one
/// reverse sweep reaches both children before their parent.
fn fold_nodes<T: Copy>(
    nodes: &[PackedNode],
    values: &[T],
    empty: T,
    fold: impl Fn(T, T) -> T,
) -> Vec<T> {
    let mut out = vec![empty; nodes.len()];
    for (idx, node) in nodes.iter().enumerate().rev() {
        out[idx] = if node.is_leaf() {
            values[node.start as usize..node.end as usize].iter().fold(empty, |m, &v| fold(m, v))
        } else {
            fold(out[idx + 1], out[node.right as usize])
        };
    }
    out
}

/// The per-point keys of a packed kd-tree in packed order, plus the largest
/// key under every node: the pruning data of [`KdTree::nearest_denser`],
/// valid only for the tree it was built from.
#[derive(Clone, Debug)]
pub struct MaxKeys {
    /// `keys[k]` is the key of the point at packed position `k`.
    keys: Vec<f64>,
    /// `node_max[i]` is the largest key in node `i`'s packed range.
    node_max: Vec<f64>,
}

impl MaxKeys {
    /// Builds the array in `O(n)` from `key_by_id` (`key_by_id[id]` keys
    /// point `id`). A key of `-∞` hides a point from every query.
    ///
    /// # Panics
    /// Panics if an indexed id is out of range of `key_by_id`.
    pub fn new(tree: &KdTree, key_by_id: &[f64]) -> Self {
        let keys: Vec<f64> = tree.ids.iter().map(|&id| key_by_id[id as usize]).collect();
        let node_max = fold_nodes(&tree.nodes, &keys, f64::NEG_INFINITY, f64::max);
        Self { keys, node_max }
    }

    /// Sets point `id`'s key to `key`. A key that rises raises the maxima on
    /// the point's root-to-leaf path; one that falls leaves them in place as
    /// upper bounds, which prune less but never lose an answer, so every
    /// query stays exact. `tree` must be the tree the keys were built from.
    ///
    /// # Panics
    /// Panics if `id` is not below `tree.len()`.
    pub fn set(&mut self, tree: &KdTree, id: usize, key: f64) {
        debug_assert_eq!(self.node_max.len(), tree.nodes.len(), "keys built from another tree");
        let k = tree.pos[id] as usize;
        if std::mem::replace(&mut self.keys[k], key) >= key {
            return;
        }
        let mut idx = 0usize;
        loop {
            self.node_max[idx] = self.node_max[idx].max(key);
            let node = &tree.nodes[idx];
            if node.is_leaf() {
                return;
            }
            idx = if k < tree.nodes[idx + 1].end as usize { idx + 1 } else { node.right as usize };
        }
    }

    /// Heap bytes of the two arrays.
    pub fn mem_usage(&self) -> usize {
        (self.keys.capacity() + self.node_max.capacity()) * std::mem::size_of::<f64>()
    }
}

/// The per-point labels of a packed kd-tree in packed order, plus the
/// smallest label under every node: the label data of
/// [`KdTree::smallest_denser_label`], valid only for the tree it was
/// built from.
#[derive(Clone, Debug)]
pub struct MinLabels {
    /// `labels[k]` is the label of the point at packed position `k`.
    labels: Vec<u32>,
    /// `node_min[i]` is the smallest label in node `i`'s packed range.
    node_min: Vec<u32>,
}

impl MinLabels {
    /// Builds the array in `O(n)` from `label_by_id` (`label_by_id[id]`
    /// labels point `id`).
    ///
    /// # Panics
    /// Panics if an indexed id is out of range of `label_by_id`, or if a
    /// label is not below `u32::MAX`.
    pub fn new(tree: &KdTree, label_by_id: &[usize]) -> Self {
        let labels: Vec<u32> = tree
            .ids
            .iter()
            .map(|&id| {
                let label = label_by_id[id as usize];
                assert!(label < NONE as usize, "label {label} does not fit below u32::MAX");
                label as u32
            })
            .collect();
        let node_min = fold_nodes(&tree.nodes, &labels, NONE, u32::min);
        Self { labels, node_min }
    }
}

/// The exact preorder node array a build over `n` points produces. The median
/// split always puts `⌊m/2⌋` points in the left child, so every node's packed
/// range and right-child index is a pure function of `n` alone — no
/// coordinates involved. [`KdTree::build_parallel`] fills this array, and
/// [`KdTree::from_packed_parts`] compares a persisted node array against it,
/// which rejects every structurally corrupt tree in one stroke and is what
/// keeps the fixed traversal stacks in bounds on decoded input.
pub(crate) fn canonical_node_layout(n: usize) -> Vec<PackedNode> {
    fn rec(nodes: &mut Vec<PackedNode>, offset: usize, m: usize) {
        let here = nodes.len();
        nodes.push(PackedNode {
            start: offset as u32,
            end: (offset + m) as u32,
            right: PackedNode::NO_CHILD,
        });
        if m > LEAF_BUCKET {
            let mid = m / 2;
            rec(nodes, offset, mid);
            nodes[here].right = nodes.len() as u32;
            rec(nodes, offset + mid, m - mid);
        }
    }
    let mut nodes = Vec::new();
    if n > 0 {
        rec(&mut nodes, 0, n);
    }
    // A tree keeps this array, and `KdTree::mem_usage` reads capacities.
    nodes.shrink_to_fit();
    nodes
}

/// Fork depth for a parallel build: `⌈log₂ threads⌉` levels, so every
/// configured worker receives a subtree (capped, and zero for inputs too
/// small to amortise a spawn). For a non-power-of-two thread count the
/// frontier has up to `2^⌈log₂ t⌉ < 2t` tasks, i.e. some workers process two
/// subtrees — bounded oversubscription in exchange for no idle workers.
fn fork_levels(threads: usize, n: usize) -> usize {
    if threads <= 1 || n < MIN_FORK_POINTS {
        0
    } else {
        (threads.next_power_of_two().trailing_zeros() as usize).min(MAX_FORK_LEVELS)
    }
}

/// Build inputs shared by every recursion frame.
struct BuildCtx<'a, 'e> {
    data: &'a Dataset,
    dim: usize,
    /// The canonical layout the build fills.
    nodes: &'a [PackedNode],
    executor: &'e Executor,
}

/// Fills node `idx` of the layout: its bounding box (the first `2·dim`
/// values of `bounds`, followed by the boxes of the rest of its subtree),
/// the packed order of `ids` over its range — a median split on the box's
/// widest axis, recursively, until the range fits a leaf bucket — and, at a
/// leaf, the packed coordinate rows.
///
/// The split point and the children's runs of boxes are read from the
/// layout, so the two children write disjoint slices. While `fork_levels >
/// 0` they are built by [`Executor::join`], otherwise one after the other,
/// with the same result.
fn build_rec(
    ctx: &BuildCtx<'_, '_>,
    idx: usize,
    ids: &mut [u32],
    coords: &mut [f64],
    bounds: &mut [f64],
    fork_levels: usize,
) {
    let dim = ctx.dim;
    let node = ctx.nodes[idx];
    let m = ids.len();
    debug_assert_eq!(m, (node.end - node.start) as usize, "node {idx} covers its ids");
    let (bbox, child_bounds) = bounds.split_at_mut(2 * dim);
    bbox[..dim].fill(f64::INFINITY);
    bbox[dim..].fill(f64::NEG_INFINITY);
    for &id in ids.iter() {
        let p = ctx.data.point(id as usize);
        for a in 0..dim {
            if p[a] < bbox[a] {
                bbox[a] = p[a];
            }
            if p[a] > bbox[dim + a] {
                bbox[dim + a] = p[a];
            }
        }
    }
    if node.is_leaf() {
        // The range is final: no split below a leaf re-partitions it, so the
        // packed coordinate rows can be written here (in parallel across
        // forked subtrees) instead of in a serial pass after construction.
        for (k, &id) in ids.iter().enumerate() {
            coords[k * dim..(k + 1) * dim].copy_from_slice(ctx.data.point(id as usize));
        }
        return;
    }
    // Split on the widest axis of the exact bounding box: on clustered data
    // this keeps boxes closer to cubes than depth-cycling, which is what makes
    // the fully-inside/fully-outside tests fire early.
    let mut axis = 0usize;
    let mut widest = f64::NEG_INFINITY;
    for a in 0..dim {
        let w = bbox[dim + a] - bbox[a];
        if w > widest {
            widest = w;
            axis = a;
        }
    }
    let left = ctx.nodes[idx + 1];
    let mid = (left.end - left.start) as usize;
    ids.select_nth_unstable_by(mid, |&x, &y| {
        let cx = ctx.data.point(x as usize)[axis];
        let cy = ctx.data.point(y as usize)[axis];
        cx.partial_cmp(&cy).unwrap_or(std::cmp::Ordering::Equal)
    });
    let right = node.right as usize;
    let (left_ids, right_ids) = ids.split_at_mut(mid);
    let (left_coords, right_coords) = coords.split_at_mut(mid * dim);
    let (left_bounds, right_bounds) = child_bounds.split_at_mut((right - idx - 1) * 2 * dim);
    let levels = fork_levels.saturating_sub(1);
    let mut build_left =
        move || build_rec(ctx, idx + 1, left_ids, left_coords, left_bounds, levels);
    let mut build_right =
        move || build_rec(ctx, right, right_ids, right_coords, right_bounds, levels);
    if fork_levels > 0 && m >= MIN_FORK_POINTS {
        ctx.executor.join(build_left, build_right);
    } else {
        build_left();
        build_right();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::{brute_range_count, random_dataset};
    use dpc_geometry::dist;
    use dpc_rng::StdRng;

    #[test]
    fn empty_tree_behaves() {
        let ds = Dataset::new(2);
        let tree = KdTree::build(&ds);
        assert!(tree.is_empty());
        assert_eq!(tree.range_count(&[0.0, 0.0], 10.0, None), 0);
        let mut found = vec![7];
        tree.range_search_into(&[0.0, 0.0], 10.0, &mut found);
        assert!(found.is_empty());
    }

    #[test]
    fn single_point() {
        let ds = Dataset::from_flat(2, vec![5.0, 5.0]);
        let tree = KdTree::build(&ds);
        assert_eq!(tree.len(), 1);
        assert_eq!(tree.range_count(&[5.0, 5.0], 1.0, None), 1);
        assert_eq!(tree.range_count(&[5.0, 5.0], 1.0, Some(0)), 0);
        assert_eq!(tree.point(0), &[5.0, 5.0]);
    }

    #[test]
    fn range_count_matches_brute_force() {
        for dim in [2usize, 3, 4, 8] {
            let ds = random_dataset(300, dim, 42 + dim as u64);
            let tree = KdTree::build(&ds);
            let mut rng = StdRng::seed_from_u64(7);
            for _ in 0..50 {
                let q: Vec<f64> = (0..dim).map(|_| rng.gen_range(0.0..100.0)).collect();
                let r = rng.gen_range(1.0..40.0);
                assert_eq!(tree.range_count(&q, r, None), brute_range_count(&ds, &q, r, None));
            }
        }
    }

    #[test]
    fn range_count_excludes_query_point() {
        let ds = random_dataset(200, 2, 1);
        let tree = KdTree::build(&ds);
        for id in 0..20 {
            let q = ds.point(id).to_vec();
            assert_eq!(
                tree.range_count(&q, 15.0, Some(id)),
                brute_range_count(&ds, &q, 15.0, Some(id))
            );
        }
    }

    #[test]
    fn whole_tree_inside_ball_uses_subtree_counts() {
        // A radius covering the entire dataset exercises the fully-inside
        // branch at (or near) the root, including the exclusion adjustment.
        let ds = random_dataset(500, 2, 77);
        let tree = KdTree::build(&ds);
        assert_eq!(tree.range_count(&[50.0, 50.0], 1e6, None), 500);
        assert_eq!(tree.range_count(&[50.0, 50.0], 1e6, Some(123)), 499);
        let mut found = Vec::new();
        tree.range_search_into(&[50.0, 50.0], 1e6, &mut found);
        assert_eq!(found.len(), 500);
    }

    #[test]
    fn range_search_matches_brute_force() {
        let ds = random_dataset(250, 3, 11);
        let tree = KdTree::build(&ds);
        let mut rng = StdRng::seed_from_u64(3);
        let mut got = Vec::new();
        for _ in 0..30 {
            let q: Vec<f64> = (0..3).map(|_| rng.gen_range(0.0..100.0)).collect();
            let r = rng.gen_range(5.0..50.0);
            tree.range_search_into(&q, r, &mut got);
            got.sort_unstable();
            let mut want: Vec<usize> =
                ds.iter().filter(|(_, p)| dist(&q, p) <= r).map(|(id, _)| id).collect();
            want.sort_unstable();
            assert_eq!(got, want);
        }
    }

    #[test]
    fn zero_radius_matches_exact_duplicates_only() {
        // Closed-ball semantics: radius 0 finds coincident points, nothing else.
        let ds = random_dataset(50, 2, 5);
        let tree = KdTree::build(&ds);
        assert_eq!(tree.range_count(ds.point(0), 0.0, None), 1);
        assert_eq!(tree.range_count(ds.point(0), 0.0, Some(0)), 0);
        let mut found = Vec::new();
        tree.range_search_into(ds.point(0), 0.0, &mut found);
        assert_eq!(found, vec![0]);
        // Negative and NaN radii find nothing.
        assert_eq!(tree.range_count(ds.point(0), -1.0, None), 0);
        assert_eq!(tree.range_count(ds.point(0), f64::NAN, None), 0);
        tree.range_search_into(ds.point(0), -1.0, &mut found);
        assert!(found.is_empty());
    }

    #[test]
    fn points_exactly_at_the_radius_are_counted() {
        // Definition 1 is a closed ball: a point at distance exactly d_cut
        // counts. The 3-4-5 triangle keeps every distance exact in f64.
        let ds = Dataset::from_flat(
            2,
            vec![0.0, 0.0, 3.0, 4.0, -3.0, 4.0, 4.0, 3.0, 5.0, 0.0, 3.0, 4.0000001, 6.0, 0.0],
        );
        let tree = KdTree::build(&ds);
        // Points 1..=4 are at distance exactly 5 from the origin.
        assert_eq!(tree.range_count(&[0.0, 0.0], 5.0, None), 5);
        assert_eq!(tree.range_count(&[0.0, 0.0], 5.0, Some(0)), 4);
        let mut found = Vec::new();
        tree.range_search_into(&[0.0, 0.0], 5.0, &mut found);
        found.sort_unstable();
        assert_eq!(found, vec![0, 1, 2, 3, 4]);
        assert_eq!(
            tree.range_count(&[0.0, 0.0], 5.0, None),
            brute_range_count(&ds, &[0.0, 0.0], 5.0, None)
        );
    }

    /// `O(n)` reference for [`KdTree::nearest_denser`]: the smallest
    /// `(squared distance, id)` among points whose key exceeds `key`.
    fn brute_nearest_denser(
        ds: &Dataset,
        keys: &[f64],
        q: &[f64],
        key: f64,
    ) -> Option<(usize, f64)> {
        ds.iter()
            .filter(|&(id, _)| keys[id] > key)
            .map(|(id, p)| (dist_sq(q, p), id))
            .min_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)))
            .map(|(d, id)| (id, d.sqrt()))
    }

    /// Checks [`KdTree::nearest_denser_at`] on every indexed point against
    /// the brute force, with the point's own key and with `other_key(id)`.
    fn check_nearest_denser_at(
        tree: &KdTree,
        max_keys: &MaxKeys,
        ds: &Dataset,
        keys: &[f64],
        mut other_key: impl FnMut(usize) -> f64,
    ) {
        for (row, &id) in tree.ids().iter().enumerate() {
            let id = id as usize;
            for key in [keys[id], other_key(id)] {
                let (got, visits) = tree.nearest_denser_at_counted(max_keys, row, key);
                let want = brute_nearest_denser(ds, keys, ds.point(id), key);
                assert_eq!(got, want, "dim {}, point {id} above {key}", ds.dim());
                assert!(visits <= tree.nodes().len(), "{visits} visits");
            }
        }
    }

    #[test]
    fn nearest_denser_matches_brute_force_with_smallest_id_ties() {
        for dim in [2usize, 3, 4, 5, 8] {
            for snapped in [false, true] {
                let mut rng = StdRng::seed_from_u64(500 + dim as u64 + snapped as u64);
                // Lattice-snapped coordinates and integer keys: many duplicate
                // points, equal distances and equal keys. The random points
                // span [0, 1), so distances to a box face lie below 1, where
                // squaring one makes it smaller.
                let scale = if snapped { 1.0 } else { 0.01 };
                let ds = random_dataset(300, dim, 60 + dim as u64);
                let snap = |c: f64| if snapped { (c / 10.0).floor() * 10.0 } else { c * scale };
                let ds = Dataset::from_flat(dim, ds.flat().iter().map(|&c| snap(c)).collect());
                let key = |rng: &mut StdRng| {
                    if snapped {
                        rng.gen_range(0..20) as f64
                    } else {
                        rng.gen_f64()
                    }
                };
                // Every 7th key masked: those points are never an answer.
                let keys: Vec<f64> = (0..ds.len())
                    .map(|i| if i % 7 == 0 { f64::NEG_INFINITY } else { key(&mut rng) })
                    .collect();
                let tree = KdTree::build(&ds);
                let max_keys = MaxKeys::new(&tree, &keys);
                let top = keys.iter().fold(f64::NEG_INFINITY, |m, &k| m.max(k));
                // Every point against its own key (the dependent-point use),
                // off-dataset queries with random keys, and a key above all.
                let mut queries: Vec<(Vec<f64>, f64)> =
                    (0..ds.len()).map(|i| (ds.point(i).to_vec(), keys[i])).collect();
                for _ in 0..100 {
                    let q = (0..dim).map(|_| (120.0 * rng.gen_f64() - 10.0) * scale).collect();
                    queries.push((q, key(&mut rng)));
                }
                queries.push((ds.point(0).to_vec(), top));
                for (q, key) in &queries {
                    let (got, visits) = tree.nearest_denser_counted(&max_keys, q, *key);
                    let want = brute_nearest_denser(&ds, &keys, q, *key);
                    assert_eq!(got, want, "dim {dim}, snapped {snapped}, {q:?} above {key}");
                    assert!(visits <= tree.nodes().len(), "{visits} visits");
                }
                assert_eq!(tree.nearest_denser(&max_keys, ds.point(0), top), None);
                // Every indexed point from its own leaf, against its own key
                // and against a random one (below its own, the point itself
                // and its duplicates can answer, at distance 0).
                check_nearest_denser_at(&tree, &max_keys, &ds, &keys, |_| key(&mut rng));
                assert_eq!(tree.nearest_denser_at(&max_keys, 0, top), None);
            }
        }
        let empty = Dataset::new(2);
        let tree = KdTree::build(&empty);
        let keys = MaxKeys::new(&tree, &[]);
        assert_eq!(tree.nearest_denser(&keys, &[1.0, 2.0], 0.0), None);
    }

    /// `O(n)` reference for [`KdTree::smallest_denser_label`]: the
    /// smallest label among points with `dist_sq ≤ radius²` and key > `key`.
    fn brute_smallest_denser_label(
        ds: &Dataset,
        keys: &[f64],
        labels: &[usize],
        q: &[f64],
        radius: f64,
        key: f64,
    ) -> Option<usize> {
        ds.iter()
            .filter(|&(id, p)| keys[id] > key && dist_sq(q, p) <= radius * radius)
            .map(|(id, _)| labels[id])
            .min()
    }

    #[test]
    fn smallest_denser_label_matches_brute_force() {
        for dim in [2usize, 3, 8] {
            for snapped in [false, true] {
                let mut rng = StdRng::seed_from_u64(700 + dim as u64 + snapped as u64);
                let mut ds = random_dataset(300, dim, 80 + dim as u64);
                // Lattice-snapped coordinates and integer keys: duplicate
                // points, points at exactly the radius, and equal keys.
                if snapped {
                    let coords = ds.flat().iter().map(|c| (c / 10.0).floor() * 10.0).collect();
                    ds = Dataset::from_flat(dim, coords);
                }
                let key = |rng: &mut StdRng| {
                    if snapped {
                        rng.gen_range(0..20) as f64
                    } else {
                        rng.gen_f64()
                    }
                };
                // Every 7th key masked: those points never qualify. Labels
                // repeat, as cell ids do.
                let keys: Vec<f64> = (0..ds.len())
                    .map(|i| if i % 7 == 0 { f64::NEG_INFINITY } else { key(&mut rng) })
                    .collect();
                let labels: Vec<usize> = (0..ds.len()).map(|_| rng.gen_range(0..60)).collect();
                let tree = KdTree::build(&ds);
                let max_keys = MaxKeys::new(&tree, &keys);
                let min_labels = MinLabels::new(&tree, &labels);
                let top = keys.iter().fold(f64::NEG_INFINITY, |m, &k| m.max(k));
                let mut queries: Vec<(Vec<f64>, f64)> =
                    (0..ds.len()).map(|i| (ds.point(i).to_vec(), keys[i])).collect();
                for _ in 0..100 {
                    let q = (0..dim).map(|_| 120.0 * rng.gen_f64() - 10.0).collect();
                    queries.push((q, key(&mut rng)));
                }
                for radius in [0.0, 10.0, 25.0] {
                    for (q, key) in &queries {
                        let got =
                            tree.smallest_denser_label(&max_keys, &min_labels, q, radius, *key);
                        let want =
                            brute_smallest_denser_label(&ds, &keys, &labels, q, radius, *key);
                        assert_eq!(got, want, "dim {dim}, snapped {snapped}, r {radius}, {q:?}");
                    }
                    let q = ds.point(0);
                    assert_eq!(
                        tree.smallest_denser_label(&max_keys, &min_labels, q, radius, top),
                        None
                    );
                }
            }
        }
        // The closed ball: a point at exactly the radius counts, one just
        // beyond it does not (3-4-5 distances are exact in f64).
        let ds = Dataset::from_flat(2, vec![0.0, 0.0, 3.0, 4.0, 6.0, 0.0, -3.0, -4.0000001]);
        let tree = KdTree::build(&ds);
        let max_keys = MaxKeys::new(&tree, &[0.0, 2.0, 5.0, 9.0]);
        let min_labels = MinLabels::new(&tree, &[0, 7, 1, 3]);
        let q = [0.0, 0.0];
        assert_eq!(tree.smallest_denser_label(&max_keys, &min_labels, &q, 5.0, 0.0), Some(7));
        assert_eq!(tree.smallest_denser_label(&max_keys, &min_labels, &q, 6.0, 0.0), Some(1));
        assert_eq!(tree.smallest_denser_label(&max_keys, &min_labels, &q, 6.0, 5.0), Some(3));
        assert_eq!(tree.smallest_denser_label(&max_keys, &min_labels, &q, 5.0, 2.0), None);
        assert_eq!(tree.smallest_denser_label(&max_keys, &min_labels, &q, -1.0, -1.0), None);
        assert_eq!(tree.smallest_denser_label(&max_keys, &min_labels, &q, f64::NAN, -1.0), None);
        let empty = Dataset::new(2);
        let tree = KdTree::build(&empty);
        let (max_keys, min_labels) = (MaxKeys::new(&tree, &[]), MinLabels::new(&tree, &[]));
        assert_eq!(tree.smallest_denser_label(&max_keys, &min_labels, &q, 1e9, 0.0), None);
    }

    #[test]
    fn nearest_denser_visits_each_node_at_most_once() {
        // The worst case: every point coincides, so every box lies at exactly
        // the best distance and nothing can be pruned by distance. The search
        // still visits each node once, and the tie goes to the smallest id.
        let n = 1_000;
        let ds = Dataset::from_flat(2, [3.0, 4.0].repeat(n));
        let keys: Vec<f64> = (0..n).map(|i| ((i * 7919) % n) as f64).collect();
        let tree = KdTree::build(&ds);
        let max_keys = MaxKeys::new(&tree, &keys);
        let (found, visits) = tree.nearest_denser_counted(&max_keys, &[0.0, 0.0], -1.0);
        assert_eq!((found, visits), (Some((0, 5.0)), tree.nodes().len()));
        let want = (0..n).find(|&i| keys[i] > 500.0);
        let (found, _) = tree.nearest_denser_counted(&max_keys, &[0.0, 0.0], 500.0);
        assert_eq!(found, want.map(|i| (i, 5.0)));
        // From every point's own leaf: the stop test never fires (every face
        // lies at distance 0, as does the best), so the climb reaches the
        // root, and still visits each node once.
        for row in 0..n {
            let (found, visits) = tree.nearest_denser_at_counted(&max_keys, row, -1.0);
            assert_eq!((found, visits), (Some((0, 0.0)), tree.nodes().len()), "row {row}");
            let (found, visits) = tree.nearest_denser_at_counted(&max_keys, row, 500.0);
            assert_eq!(found, want.map(|i| (i, 0.0)), "row {row}");
            assert!(visits <= tree.nodes().len(), "row {row}: {visits} visits");
        }
    }

    /// Random or lattice-snapped points, in `dim` dimensions.
    fn maybe_snapped(n: usize, dim: usize, seed: u64, snapped: bool) -> Dataset {
        let ds = random_dataset(n, dim, seed);
        if !snapped {
            return ds;
        }
        Dataset::from_flat(dim, ds.flat().iter().map(|c| (c / 10.0).floor() * 10.0).collect())
    }

    #[test]
    fn set_keys_keep_nearest_denser_exact() {
        for dim in [2usize, 3, 4, 5, 8] {
            for snapped in [false, true] {
                let mut rng = StdRng::seed_from_u64(900 + dim as u64 + snapped as u64);
                let ds = maybe_snapped(300, dim, 90 + dim as u64, snapped);
                // Integer keys on the lattice: equal distances and equal keys,
                // so the smallest-id tie decides many answers.
                let key = |rng: &mut StdRng| {
                    if snapped {
                        rng.gen_range(0..20) as f64
                    } else {
                        20.0 * rng.gen_f64()
                    }
                };
                let mut keys: Vec<f64> = (0..ds.len()).map(|_| key(&mut rng)).collect();
                let tree = KdTree::build(&ds);
                let mut max_keys = MaxKeys::new(&tree, &keys);
                let (mut raised, mut lowered) = (0, 0);
                for round in 0..6 {
                    // Raise, lower or hide 60 points, in random order: a
                    // lowered key leaves stale maxima that must stay bounds.
                    for _ in 0..60 {
                        let id = rng.gen_range(0..ds.len());
                        let new = if rng.gen_range(0..4) == 0 {
                            f64::NEG_INFINITY
                        } else {
                            key(&mut rng)
                        };
                        raised += usize::from(new > keys[id]);
                        lowered += usize::from(new < keys[id]);
                        keys[id] = new;
                        max_keys.set(&tree, id, new);
                    }
                    let mut queries: Vec<(Vec<f64>, f64)> =
                        (0..ds.len()).map(|i| (ds.point(i).to_vec(), keys[i])).collect();
                    for _ in 0..50 {
                        let q = (0..dim).map(|_| 120.0 * rng.gen_f64() - 10.0).collect();
                        queries.push((q, key(&mut rng)));
                    }
                    for (q, key) in &queries {
                        let got = tree.nearest_denser(&max_keys, q, *key);
                        let want = brute_nearest_denser(&ds, &keys, q, *key);
                        assert_eq!(got, want, "dim {dim}, snapped {snapped}, round {round}");
                    }
                    check_nearest_denser_at(&tree, &max_keys, &ds, &keys, |_| key(&mut rng));
                }
                assert!(raised > 100 && lowered > 100, "{raised} raised, {lowered} lowered");
                // Hiding every point answers nothing, whatever maxima remain:
                // every leaf the queries scan is all masked.
                for id in 0..ds.len() {
                    max_keys.set(&tree, id, f64::NEG_INFINITY);
                }
                assert_eq!(tree.nearest_denser(&max_keys, ds.point(0), -1e300), None);
                for row in 0..ds.len() {
                    assert_eq!(tree.nearest_denser_at(&max_keys, row, -1e300), None);
                }
            }
        }
    }

    /// `O(n)` reference for [`KdTree::reaching_into`], in id order.
    fn brute_reaching(ds: &Dataset, reach: &[f64], q: &[f64]) -> Vec<usize> {
        ds.iter()
            .filter(|&(id, p)| reach[id] >= 0.0 && dist_sq(q, p) <= reach[id] * reach[id])
            .map(|(id, _)| id)
            .collect()
    }

    #[test]
    fn reaching_into_matches_brute_force() {
        for dim in [2usize, 3, 8] {
            for snapped in [false, true] {
                let mut rng = StdRng::seed_from_u64(950 + dim as u64 + snapped as u64);
                let ds = maybe_snapped(300, dim, 40 + dim as u64, snapped);
                // Lattice reaches are multiples of 10, so many points lie at
                // exactly their reach from a lattice query. Keys of −∞, 0
                // and ∞ are mixed in.
                let reach_of = |rng: &mut StdRng| match rng.gen_range(0..12) {
                    0 => f64::NEG_INFINITY,
                    1 => 0.0,
                    2 => f64::INFINITY,
                    _ if snapped => 10.0 * rng.gen_range(0..4) as f64,
                    _ => 30.0 * rng.gen_f64(),
                };
                let mut reach: Vec<f64> = (0..ds.len()).map(|_| reach_of(&mut rng)).collect();
                let tree = KdTree::build(&ds);
                let mut keys = MaxKeys::new(&tree, &reach);
                let mut out = vec![7usize; 3]; // stale content must be cleared
                for round in 0..3 {
                    let mut queries: Vec<Vec<f64>> =
                        (0..ds.len()).map(|i| ds.point(i).to_vec()).collect();
                    for _ in 0..50 {
                        queries.push((0..dim).map(|_| 120.0 * rng.gen_f64() - 10.0).collect());
                    }
                    for q in &queries {
                        tree.reaching_into(&keys, q, &mut out);
                        out.sort_unstable();
                        let want = brute_reaching(&ds, &reach, q);
                        assert_eq!(out, want, "dim {dim}, snapped {snapped}, round {round}");
                    }
                    for _ in 0..80 {
                        let id = rng.gen_range(0..ds.len());
                        reach[id] = reach_of(&mut rng);
                        keys.set(&tree, id, reach[id]);
                    }
                }
            }
        }
        // Closed at exactly the reach (3-4-5 distances are exact in f64); a
        // −∞ reach never matches, not even at distance 0; a 0 reach matches
        // only a coincident query.
        let ds = Dataset::from_flat(
            2,
            vec![3.0, 4.0, 6.0, 0.0, -3.0, -4.0000001, 0.0, 0.0, 0.0, 0.0, 1e300, 0.0],
        );
        let reach = [5.0, 5.0, 5.0, 0.0, f64::NEG_INFINITY, f64::INFINITY];
        let tree = KdTree::build(&ds);
        let keys = MaxKeys::new(&tree, &reach);
        let mut out = Vec::new();
        tree.reaching_into(&keys, &[0.0, 0.0], &mut out);
        out.sort_unstable();
        assert_eq!(out, vec![0, 3, 5]);
        tree.reaching_into(&keys, &[0.0, 1e-100], &mut out);
        out.sort_unstable();
        assert_eq!(out, vec![0, 5]);
        let empty = KdTree::build(&Dataset::new(2));
        let keys = MaxKeys::new(&empty, &[]);
        empty.reaching_into(&keys, &[0.0, 0.0], &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn duplicate_coordinates_are_all_counted() {
        let ds = Dataset::from_flat(2, vec![1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 9.0, 9.0]);
        let tree = KdTree::build(&ds);
        assert_eq!(tree.range_count(&[1.0, 1.0], 0.5, None), 3);
        assert_eq!(tree.range_count(&[1.0, 1.0], 0.5, Some(0)), 2);
    }

    #[test]
    fn many_duplicates_split_cleanly() {
        // More duplicates than a leaf bucket: the widest-axis split degenerates
        // to zero extent but the median split must still terminate and count
        // exactly.
        let n = 5 * LEAF_BUCKET;
        let ds = Dataset::from_flat(2, vec![3.0; 2 * n]);
        let tree = KdTree::build(&ds);
        assert_eq!(tree.len(), n);
        assert_eq!(tree.range_count(&[3.0, 3.0], 0.1, None), n);
        assert_eq!(tree.range_count(&[3.0, 3.0], 0.1, Some(7)), n - 1);
        let mut found = Vec::new();
        tree.range_search_into(&[3.0, 3.0], 0.1, &mut found);
        assert_eq!(found.len(), n);
    }

    #[test]
    fn collinear_points_are_handled() {
        let n = 4 * LEAF_BUCKET + 3;
        let coords: Vec<f64> = (0..n).flat_map(|i| [i as f64, 0.0]).collect();
        let ds = Dataset::from_flat(2, coords);
        let tree = KdTree::build(&ds);
        let mut found = Vec::new();
        for (q, r, want) in
            [([10.0, 0.0], 2.5, 5usize), ([0.0, 0.0], 1.5, 2), ([n as f64, 0.0], 3.5, 3)]
        {
            assert_eq!(tree.range_count(&q, r, None), want);
            tree.range_search_into(&q, r, &mut found);
            assert_eq!(found.len(), want);
        }
        // Every key 0 above the query's −1: a plain nearest neighbour.
        let keys = MaxKeys::new(&tree, &vec![0.0; n]);
        let (nn, d) = tree.nearest_denser(&keys, &[5.4, 1.0], -1.0).unwrap();
        assert_eq!(nn, 5);
        assert!((d - dist(&[5.4, 1.0], &[5.0, 0.0])).abs() < 1e-12);
    }

    #[test]
    fn smaller_than_one_bucket() {
        let ds = random_dataset(LEAF_BUCKET - 3, 3, 21);
        let tree = KdTree::build(&ds);
        assert_eq!(tree.len(), ds.len());
        for id in 0..ds.len() {
            let q = ds.point(id);
            assert_eq!(
                tree.range_count(q, 30.0, Some(id)),
                brute_range_count(&ds, q, 30.0, Some(id))
            );
            assert_eq!(tree.point(id), q);
        }
    }

    #[test]
    fn range_search_into_reuses_buffer() {
        let ds = random_dataset(300, 2, 4);
        let tree = KdTree::build(&ds);
        let mut buf = vec![999usize; 10]; // stale content must be cleared
        tree.range_search_into(&[50.0, 50.0], 25.0, &mut buf);
        let mut got = buf.clone();
        got.sort_unstable();
        let mut want: Vec<usize> =
            ds.iter().filter(|(_, p)| dist(&[50.0, 50.0], p) <= 25.0).map(|(id, _)| id).collect();
        want.sort_unstable();
        assert_eq!(got, want);
    }

    #[test]
    fn parallel_build_is_bit_identical_to_serial() {
        // Large enough to fork several levels (MIN_FORK_POINTS = 1024), plus
        // degenerate shapes: duplicates and fewer points than the threshold.
        let sets = [
            random_dataset(5_000, 2, 11),
            random_dataset(4_099, 3, 12), // odd size: uneven splits at every level
            Dataset::from_flat(2, vec![7.0; 2 * 3000]), // duplicates only
            random_dataset(300, 2, 13),   // below the fork threshold
        ];
        for (i, ds) in sets.iter().enumerate() {
            let serial = KdTree::build(ds);
            for threads in [1usize, 2, 3, 4, 8] {
                let par = KdTree::build_parallel(ds, &Executor::new(threads));
                assert!(par.layout_eq(&serial), "set {i}, threads {threads}");
                assert!(serial.layout_eq(&par), "set {i}, threads {threads} (symmetric)");
            }
        }
    }

    #[test]
    fn parallel_build_answers_queries_identically() {
        let ds = random_dataset(4_000, 2, 44);
        let tree = KdTree::build_parallel(&ds, &Executor::new(4));
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..40 {
            let q = [rng.gen_range(0.0..100.0), rng.gen_range(0.0..100.0)];
            let r = rng.gen_range(1.0..30.0);
            assert_eq!(tree.range_count(&q, r, None), brute_range_count(&ds, &q, r, None));
        }
    }

    #[test]
    fn layout_eq_detects_differences() {
        let (ds_a, ds_b, ds_c) =
            (random_dataset(200, 2, 1), random_dataset(200, 2, 2), random_dataset(150, 2, 1));
        let a = KdTree::build(&ds_a);
        let b = KdTree::build(&ds_b);
        let c = KdTree::build(&ds_c);
        assert!(!a.layout_eq(&b));
        assert!(!a.layout_eq(&c));
        assert!(a.layout_eq(&a));
    }

    type OwnedParts = (usize, Vec<u32>, Vec<f64>, Vec<PackedNode>, Vec<f64>);

    /// Destructure a tree into owned copies of its packed storage, the way a
    /// decoder hands parts back to [`KdTree::from_packed_parts`].
    fn parts_of(tree: &KdTree) -> OwnedParts {
        let (ids, coords) = (tree.ids().to_vec(), tree.coords().to_vec());
        (tree.dim(), ids, coords, tree.nodes().to_vec(), tree.bounds().to_vec())
    }

    #[test]
    fn canonical_node_layout_matches_real_builds() {
        assert!(canonical_node_layout(0).is_empty());
        assert_eq!(KdTree::build(&Dataset::new(2)).nodes().len(), 0);
        for (n, seed) in
            [(1usize, 1u64), (LEAF_BUCKET, 2), (LEAF_BUCKET + 1, 3), (500, 4), (4099, 5)]
        {
            let ds = random_dataset(n, 2, seed);
            let tree = KdTree::build(&ds);
            let canon = canonical_node_layout(n);
            assert_eq!(canon.len(), tree.nodes().len(), "n = {n}");
            assert_eq!(tree.nodes, canon, "n = {n}");
        }
    }

    #[test]
    fn from_packed_parts_round_trips_builds() {
        for (n, dim, seed) in [(0usize, 2usize, 1u64), (7, 3, 2), (500, 2, 3), (2000, 8, 4)] {
            let ds = random_dataset(n, dim, seed);
            let tree = KdTree::build(&ds);
            let (d, ids, coords, nodes, bounds) = parts_of(&tree);
            let rebuilt = KdTree::from_packed_parts(d, ids, coords, nodes, bounds).unwrap();
            assert!(rebuilt.layout_eq(&tree), "n = {n}, dim = {dim}");
            assert_eq!(rebuilt.pos, tree.pos, "n = {n}");
        }
    }

    #[test]
    fn from_packed_parts_round_trips_signed_zero_and_duplicates() {
        // ±0.0 coordinates: the bounds check must accept the build's own
        // boxes whichever zero representative they kept.
        let mut coords = vec![0.0f64; 2 * 4 * LEAF_BUCKET];
        for (i, c) in coords.iter_mut().enumerate() {
            if i % 3 == 0 {
                *c = -0.0;
            }
        }
        coords.extend_from_slice(&[1.0, -1.0, 5.0e-324, -5.0e-324]); // subnormals
        let ds = Dataset::from_flat(2, coords);
        let tree = KdTree::build(&ds);
        let (d, ids, coords, nodes, bounds) = parts_of(&tree);
        let rebuilt = KdTree::from_packed_parts(d, ids, coords, nodes, bounds).unwrap();
        assert!(rebuilt.layout_eq(&tree));
    }

    #[test]
    fn from_packed_parts_rejects_tampered_storage() {
        let ds = random_dataset(300, 2, 6);
        let tree = KdTree::build(&ds);
        let parts = parts_of(&tree);

        // Baseline sanity: unmodified parts are accepted.
        let (d, i0, c0, n0, b0) = parts.clone();
        assert!(KdTree::from_packed_parts(d, i0, c0, n0, b0).is_ok());

        // A duplicated id.
        let (d, mut ids, c, n, b) = parts.clone();
        ids[0] = ids[1];
        assert_eq!(KdTree::from_packed_parts(d, ids, c, n, b).err(), Some("duplicate packed id"));

        // An id that is not below the point count.
        let (d, mut ids, c, n, b) = parts.clone();
        ids[5] = 300;
        assert!(KdTree::from_packed_parts(d, ids, c, n, b).is_err());

        // A non-canonical node (range widened by one).
        let (d, i, c, mut n, b) = parts.clone();
        n[1].end += 1;
        assert!(KdTree::from_packed_parts(d, i, c, n, b).is_err());

        // A right-child index pointing at itself (would loop forever if run).
        let (d, i, c, mut n, b) = parts.clone();
        n[0].right = 0;
        assert!(KdTree::from_packed_parts(d, i, c, n, b).is_err());

        // A bounding box that no longer covers its points.
        let (d, i, c, n, mut b) = parts.clone();
        b[0] += 1.0;
        assert!(KdTree::from_packed_parts(d, i, c, n, b).is_err());

        // Widened boxes that still cover their points: a leaf's, and a
        // non-root inner node's.
        let leaf = parts.3.iter().position(PackedNode::is_leaf).unwrap();
        let (d, i, c, n, mut b) = parts.clone();
        b[leaf * 2 * d] -= 1.0;
        assert_eq!(
            KdTree::from_packed_parts(d, i, c, n, b).err(),
            Some("node bounding box disagrees with its packed points")
        );
        assert!(!parts.3[1].is_leaf(), "node 1 must be an inner node");
        let (d, i, c, n, mut b) = parts.clone();
        b[2 * d + d] += 1.0;
        assert_eq!(
            KdTree::from_packed_parts(d, i, c, n, b).err(),
            Some("node bounding box disagrees with its packed points")
        );

        // Truncated buffers, and a dimensionality that disagrees with them.
        let (d, i, mut c, n, b) = parts.clone();
        c.pop();
        assert!(KdTree::from_packed_parts(d, i, c, n, b).is_err());
        let (d, i, c, n, mut b) = parts.clone();
        b.pop();
        assert!(KdTree::from_packed_parts(d, i, c, n, b).is_err());
        for dim in [0, 1, 3] {
            let (_, i, c, n, b) = parts.clone();
            assert!(KdTree::from_packed_parts(dim, i, c, n, b).is_err(), "dim {dim}");
        }
    }

    #[test]
    fn from_packed_parts_rejects_children_that_overlap_on_every_axis() {
        let ds = random_dataset(300, 2, 8);
        let tree = KdTree::build(&ds);
        let (d, ids, mut coords, nodes, mut bounds) = parts_of(&tree);
        // Move the left child's first point to the right child's top corner,
        // across the root's split, and recompute every box to fit: the boxes
        // and ids pass their checks, but the root's children now overlap on
        // both axes.
        let right = nodes[0].right as usize;
        let corner = bounds[right * 2 * d + d..(right + 1) * 2 * d].to_vec();
        coords[..d].copy_from_slice(&corner);
        for (idx, node) in nodes.iter().enumerate().rev() {
            let (mut lo, mut hi) = (vec![f64::INFINITY; d], vec![f64::NEG_INFINITY; d]);
            let rows: Vec<&[f64]> = if node.is_leaf() {
                coords[node.start as usize * d..node.end as usize * d].chunks_exact(d).collect()
            } else {
                [idx + 1, node.right as usize]
                    .iter()
                    .flat_map(|&c| bounds[c * 2 * d..(c + 1) * 2 * d].chunks_exact(d))
                    .collect()
            };
            for row in rows {
                for a in 0..d {
                    (lo[a], hi[a]) = (lo[a].min(row[a]), hi[a].max(row[a]));
                }
            }
            bounds[idx * 2 * d..(idx + 1) * 2 * d].copy_from_slice(&[lo, hi].concat());
        }
        assert_eq!(
            KdTree::from_packed_parts(d, ids, coords, nodes, bounds).err(),
            Some("an inner node's children overlap on every axis")
        );
    }

    #[test]
    fn mem_usage_scales_with_len() {
        let ds = random_dataset(128, 2, 2);
        let tree = KdTree::build(&ds);
        assert!(tree.mem_usage() >= 128 * std::mem::size_of::<u32>());
    }
}
