//! The uniform grid used by Approx-DPC and S-Approx-DPC.
//!
//! Cells are `d`-dimensional squares with a caller-chosen side length
//! (`d_cut/√d` for Approx-DPC, `ε·d_cut/√d` for S-Approx-DPC, §4.1/§5). The grid
//! is built online: a cell exists only if at least one point falls inside it, so
//! the number of cells is at most `n` and the space stays `O(n)`.
//!
//! The storage is CSR (compressed sparse row), mirroring what the packed
//! kd-tree did for leaf buckets:
//!
//! * **Packed membership.** One `offsets` array plus one packed `point id`
//!   array hold every cell's membership: cell `c` covers
//!   `packed[offsets[c]..offsets[c + 1]]`, ascending point id. Cell iteration
//!   reads one contiguous strip — no per-cell `Vec`, no per-cell heap
//!   allocation after the build. The grid keeps no coordinates: a caller that
//!   scans a cell's points reads their rows from the dataset or from the
//!   kd-tree's packed rows.
//! * **Interned keys.** Integer cell keys live in one flat `i64` buffer (`dim`
//!   values per cell, cell-id order) instead of one boxed slice per cell.
//! * **Open-addressing key table.** Key → cell-id probes go through a small
//!   linear-probing table whose slots store only cell ids; comparisons read
//!   the interned key buffer, so a lookup allocates nothing.
//! * **One counting-sort build.** [`Grid::build`] makes one pass over the
//!   points in id order. It computes each point's key, interns a key when a
//!   point first meets it, counts every cell's points and records the
//!   point→cell map. A prefix sum turns the counts into `offsets`, and one
//!   counting-sort scatter in point order fills `packed`. So cell ids follow
//!   **first-appearance order** (cell `c`'s first point is below cell
//!   `c + 1`'s), and every cell lists its points ascending. Approx-DPC's
//!   smallest-cell-id rule and S-Approx-DPC's pick of each cell's first
//!   point rest on that order; `tests/properties.rs` checks the whole layout
//!   against a `HashMap` reference. The build runs on the calling thread. A
//!   sharded build, one key table per worker, read no faster at 2 threads on
//!   the benchmark's fit inputs: the shards met most cells again, and their
//!   merge interned those keys a second time.
//!
//! The grid stores the point membership of every cell and the reverse mapping
//! from point id to cell id. Algorithm-specific per-cell metadata (Approx-DPC's
//! maximum density point `p*(c)` and `min ρ`) lives with the algorithms in
//! `dpc-core`, because it depends on local densities that are only known
//! mid-run. Neither algorithm stores the neighbour cells `N(c)`: Approx-DPC
//! asks one kd-tree query per cell for the first denser cell of `N(c)`, and
//! S-Approx-DPC lists `N(c)` only for local peaks, from one `d_cut` search.

use dpc_geometry::{Dataset, Rect};
use dpc_parallel::Executor;

/// Identifier of a grid cell (dense index, `0..grid.num_cells()`).
pub type CellId = usize;

/// Empty slot marker of the open-addressing key table.
const EMPTY: u32 = u32::MAX;

/// Bucket-formation target of [`Grid::query_buckets`]: cells keep merging
/// neighbours until a bucket covers at least this many points (a bucket
/// anchored on a larger cell stays a singleton). Large enough to amortize a
/// shared traversal, small enough to keep per-node active sets cheap.
pub const MIN_BUCKET_POINTS: usize = 64;

/// Above this dimensionality [`Grid::query_buckets`] skips the `3^d − 1`
/// Chebyshev neighbour enumeration (whose count explodes with `d`) and merges
/// small cells by consecutive cell id only.
const NEIGHBOR_MERGE_MAX_DIM: usize = 4;

/// How many consecutive cell ids past the anchor [`Grid::query_buckets`]
/// scans for additional small cells after the Chebyshev pass. Cell ids are
/// assigned in first-appearance order, which tracks data locality, so nearby
/// ids are usually nearby cells; the bound keeps the sweep `O(num_cells)`
/// overall.
const CONSECUTIVE_MERGE_WINDOW: usize = 64;

/// A uniform grid over the points of a dataset.
#[derive(Debug)]
pub struct Grid {
    dim: usize,
    side: f64,
    origin: Vec<f64>,
    /// Interned cell keys: `dim` values per cell, in cell-id order.
    keys: Vec<i64>,
    /// CSR offsets: cell `c` covers `packed[offsets[c]..offsets[c + 1]]`.
    /// `num_cells() + 1` entries, `[0]` for an empty dataset.
    offsets: Vec<usize>,
    /// Point identifiers grouped by cell, ascending within each cell.
    packed: Vec<usize>,
    /// Linear-probing key table: each slot holds a cell id or [`EMPTY`].
    /// Power-of-two length, load factor ≤ 3/4.
    table: Vec<u32>,
    /// `point_cell[p]` is the cell containing point `p`.
    point_cell: Vec<CellId>,
}

/// Deterministic hash of an integer cell key (a splitmix64 finalizer per
/// lane): adjacent lattice keys differ only in low bits, so every lane is
/// fully mixed before it is folded into the accumulator.
fn hash_key(key: &[i64]) -> u64 {
    let mut h = 0x9e37_79b9_7f4a_7c15u64;
    for &v in key {
        let mut x = (v as u64).wrapping_add(0x9e37_79b9_7f4a_7c15);
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        h = (h ^ (x ^ (x >> 31))).wrapping_mul(0xff51_afd7_ed55_8ccd);
    }
    h
}

/// Computes the integer cell key of `coords` into a reused buffer.
fn fill_key_into(coords: &[f64], origin: &[f64], side: f64, key: &mut Vec<i64>) {
    debug_assert_eq!(coords.len(), origin.len());
    key.clear();
    key.extend(coords.iter().zip(origin.iter()).map(|(&c, &o)| ((c - o) / side).floor() as i64));
}

/// Looks `key` up in a linear-probing `table` whose slots index the flat
/// interned `keys` buffer. Allocation-free.
fn probe_table(keys: &[i64], table: &[u32], dim: usize, key: &[i64]) -> Option<usize> {
    if table.is_empty() {
        return None;
    }
    let mask = table.len() - 1;
    let mut i = hash_key(key) as usize & mask;
    loop {
        let slot = table[i];
        if slot == EMPTY {
            return None;
        }
        let cid = slot as usize;
        if &keys[cid * dim..(cid + 1) * dim] == key {
            return Some(cid);
        }
        i = (i + 1) & mask;
    }
}

/// Appends `key` to the flat `keys` buffer as the next cell id and inserts it
/// into `table`, growing (and rehashing from the interned keys) when the load
/// factor would exceed 3/4. Returns the new id.
fn intern_key(keys: &mut Vec<i64>, table: &mut Vec<u32>, dim: usize, key: &[i64]) -> usize {
    let cid = keys.len() / dim;
    keys.extend_from_slice(key);
    if (cid + 1) * 4 > table.len() * 3 {
        let capacity = (table.len() * 2).max(16);
        let mask = capacity - 1;
        let mut grown = vec![EMPTY; capacity];
        for existing in 0..cid {
            let mut i = hash_key(&keys[existing * dim..(existing + 1) * dim]) as usize & mask;
            while grown[i] != EMPTY {
                i = (i + 1) & mask;
            }
            grown[i] = existing as u32;
        }
        *table = grown;
    }
    let mask = table.len() - 1;
    let mut i = hash_key(key) as usize & mask;
    while table[i] != EMPTY {
        i = (i + 1) & mask;
    }
    table[i] = cid as u32;
    cid
}

/// CSR offsets from per-cell counts: `counts.len() + 1` entries starting at 0.
fn prefix_sum(counts: &[usize]) -> Vec<usize> {
    let mut offsets = Vec::with_capacity(counts.len() + 1);
    let mut acc = 0usize;
    offsets.push(0);
    for &c in counts {
        acc += c;
        offsets.push(acc);
    }
    offsets
}

impl Grid {
    /// Builds the grid for `data` with the given cell side length: one pass
    /// over the points in id order, then one counting sort (module docs).
    ///
    /// # Panics
    /// Panics if `side` is not strictly positive and finite, or if the data
    /// spans 2^53 cells or more on an axis ([`Grid::keys_fit`]).
    pub fn build(data: &Dataset, side: f64) -> Self {
        assert!(side.is_finite() && side > 0.0, "cell side must be positive and finite");
        let n = data.len();
        let dim = data.dim();
        // The origin is the dataset's bounding-box low corner.
        let origin = match data.bounding_rect() {
            Some(rect) => {
                assert!(Self::keys_fit(&rect, side), "the data must span fewer than 2^53 cells");
                rect.lo().to_vec()
            }
            None => vec![0.0; dim],
        };

        let mut keys: Vec<i64> = Vec::new();
        let mut table: Vec<u32> = Vec::new();
        let mut counts: Vec<usize> = Vec::new();
        let mut point_cell: Vec<CellId> = Vec::with_capacity(n);
        let mut scratch: Vec<i64> = Vec::with_capacity(dim);
        for p in 0..n {
            fill_key_into(data.point(p), &origin, side, &mut scratch);
            let cid = match probe_table(&keys, &table, dim, &scratch) {
                Some(cid) => cid,
                None => {
                    counts.push(0);
                    intern_key(&mut keys, &mut table, dim, &scratch)
                }
            };
            counts[cid] += 1;
            point_cell.push(cid);
        }

        // Counting sort: `next[c]` is where cell `c`'s next point goes, and
        // the points are placed in id order, so each cell lists them ascending.
        let offsets = prefix_sum(&counts);
        let num_cells = counts.len();
        let mut next = counts;
        next.copy_from_slice(&offsets[..num_cells]);
        let mut packed = vec![0; n];
        for (p, &c) in point_cell.iter().enumerate() {
            packed[next[c]] = p;
            next[c] += 1;
        }
        Self { dim, side, origin, keys, offsets, packed, table, point_cell }
    }

    /// [`Grid::build`] on the calling thread; `executor` is ignored.
    /// Benchmark-only: `perfbench`'s traced replay calls it, and it goes once
    /// that replay reads the fits' own timings.
    ///
    /// # Panics
    /// As [`Grid::build`].
    pub fn build_parallel(data: &Dataset, side: f64, _executor: &Executor) -> Self {
        Self::build(data, side)
    }

    /// Whether a grid of cell side `side` over the box `bounds` keeps every
    /// cell key exact: fewer than 2^53 cells on every axis. From 2^53 cells
    /// an `f64` key no longer tells adjacent cells apart, and from 2^63 the
    /// `i64` cast saturates, so distant points would share a cell. An extent
    /// that overflows to ∞ fails too.
    pub fn keys_fit(bounds: &Rect, side: f64) -> bool {
        (0..bounds.dim()).all(|axis| bounds.extent(axis) / side < 9_007_199_254_740_992.0)
    }

    /// The interned key of cell `cid` (valid for any already-interned id).
    #[inline]
    fn interned_key(&self, cid: usize) -> &[i64] {
        &self.keys[cid * self.dim..(cid + 1) * self.dim]
    }

    /// Looks `key` up in the open-addressing table. Allocation-free.
    fn probe(&self, key: &[i64]) -> Option<CellId> {
        probe_table(&self.keys, &self.table, self.dim, key)
    }

    /// The cell containing dataset point `point_id`.
    ///
    /// # Panics
    /// Panics if `point_id` is out of range.
    pub fn cell_of(&self, point_id: usize) -> CellId {
        self.point_cell[point_id]
    }

    /// Every point's cell: `point_cells()[p] == cell_of(p)`.
    pub fn point_cells(&self) -> &[CellId] {
        &self.point_cell
    }

    /// Looks up a cell id by its integer key.
    pub fn cell_by_key(&self, key: &[i64]) -> Option<CellId> {
        if key.len() != self.dim {
            return None;
        }
        self.probe(key)
    }

    /// Number of non-empty cells.
    pub fn num_cells(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// Identifiers of the points covered by cell `cell` (`P(c)` in the paper),
    /// ascending. A contiguous slice of the packed CSR array.
    pub fn points(&self, cell: CellId) -> &[usize] {
        &self.packed[self.offsets[cell]..self.offsets[cell + 1]]
    }

    /// Integer key of cell `cell` — a slice of the interned flat key buffer.
    pub fn key(&self, cell: CellId) -> &[i64] {
        assert!(cell < self.num_cells(), "cell id {cell} out of range");
        self.interned_key(cell)
    }

    /// The centre coordinate of cell `cell` (the query point `cp_i` of the joint
    /// range search, §4.2).
    pub fn center(&self, cell: CellId) -> Vec<f64> {
        self.key(cell)
            .iter()
            .zip(self.origin.iter())
            .map(|(&k, &o)| o + (k as f64 + 0.5) * self.side)
            .collect()
    }

    /// Iterates over all cell identifiers.
    pub fn cell_ids(&self) -> impl Iterator<Item = CellId> {
        0..self.num_cells()
    }

    /// Existing (non-empty) cells whose integer key differs from `cell`'s key by
    /// at most `chebyshev` in every dimension, excluding `cell` itself.
    ///
    /// With side `d_cut/√d`, every point within `d_cut` of a point in `cell`
    /// lies in a cell within Chebyshev distance `⌈√d⌉` — a constant for fixed
    /// `d`, which is what makes `|N(c)| = O(1)` in the paper's analysis.
    pub fn neighbors_within(&self, cell: CellId, chebyshev: i64) -> Vec<CellId> {
        let key = self.key(cell);
        let mut out = Vec::new();
        let mut offset = vec![-chebyshev; self.dim];
        let mut probe: Vec<i64> = vec![0; self.dim];
        loop {
            let mut all_zero = true;
            let mut in_range = true;
            for i in 0..self.dim {
                if offset[i] != 0 {
                    all_zero = false;
                }
                match key[i].checked_add(offset[i]) {
                    Some(k) => probe[i] = k,
                    // A key component at the i64 extreme has no representable
                    // neighbour on that side — and no cell past it either.
                    None => {
                        in_range = false;
                        break;
                    }
                }
            }
            if !all_zero && in_range {
                if let Some(cid) = self.probe(&probe) {
                    out.push(cid);
                }
            }
            // Advance the mixed-radix counter over offsets.
            let mut axis = 0;
            loop {
                if axis == self.dim {
                    return out;
                }
                offset[axis] += 1;
                if offset[axis] <= chebyshev {
                    break;
                }
                offset[axis] = -chebyshev;
                axis += 1;
            }
        }
    }

    /// Groups the grid's cells into **query buckets** for the batched range
    /// engine (`dpc_index::batchq`): each bucket is a set of spatially
    /// adjacent cells whose points (or centres) form one bucket of query
    /// balls sharing a single tree descent.
    ///
    /// Benchmark-only: no fit calls it (their ρ buckets are runs of
    /// consecutive packed tree points), but `perfbench`'s traced replay reads
    /// its [`QueryBuckets::len`]. It goes, with [`QueryBuckets`] and
    /// [`Grid::neighbors_within`], once that replay reads the fit's own
    /// timings.
    ///
    /// Formation is a deterministic greedy sweep in cell-id order: a cell
    /// with at least [`MIN_BUCKET_POINTS`] points anchors a singleton bucket;
    /// a smaller cell absorbs still-unassigned small neighbours (Chebyshev
    /// distance 1, enumerated in the fixed [`Grid::neighbors_within`] order;
    /// consecutive cell ids instead when `d` makes `3^d` enumeration too
    /// wide) until the bucket reaches the target. Every cell lands in exactly
    /// one bucket.
    ///
    /// The result depends only on the grid layout, so bucket order, and the
    /// within-bucket query order derived from the CSR point order, are fixed
    /// inputs to the deterministic batched traversals.
    pub fn query_buckets(&self) -> QueryBuckets {
        let num_cells = self.num_cells();
        let mut assigned = vec![false; num_cells];
        let mut cells: Vec<CellId> = Vec::with_capacity(num_cells);
        let mut offsets: Vec<usize> = Vec::with_capacity(num_cells / 2 + 2);
        offsets.push(0);
        let cell_len = |c: CellId| self.offsets[c + 1] - self.offsets[c];
        for c in 0..num_cells {
            if assigned[c] {
                continue;
            }
            assigned[c] = true;
            cells.push(c);
            let mut size = cell_len(c);
            if size < MIN_BUCKET_POINTS {
                if self.dim <= NEIGHBOR_MERGE_MAX_DIM {
                    for nb in self.neighbors_within(c, 1) {
                        if size >= MIN_BUCKET_POINTS {
                            break;
                        }
                        if assigned[nb] || cell_len(nb) >= MIN_BUCKET_POINTS {
                            continue;
                        }
                        assigned[nb] = true;
                        cells.push(nb);
                        size += cell_len(nb);
                    }
                }
                // Consecutive-id fallback (the only pass above
                // `NEIGHBOR_MERGE_MAX_DIM`): absorb small unassigned cells
                // from a bounded id window past the anchor — ids are
                // assigned in first-appearance order, so the window tracks
                // data locality even when the Chebyshev shell is exhausted.
                let window_end = num_cells.min(c + 1 + CONSECUTIVE_MERGE_WINDOW);
                for (nb, taken) in assigned.iter_mut().enumerate().take(window_end).skip(c + 1) {
                    if size >= MIN_BUCKET_POINTS {
                        break;
                    }
                    if *taken {
                        continue;
                    }
                    if cell_len(nb) >= MIN_BUCKET_POINTS {
                        break;
                    }
                    *taken = true;
                    cells.push(nb);
                    size += cell_len(nb);
                }
            }
            offsets.push(cells.len());
        }
        QueryBuckets { offsets, cells }
    }

    /// Approximate heap memory used by the grid, in bytes. Everything is flat:
    /// the interned key buffer, the CSR offsets and packed point ids, the key
    /// table, and the point→cell map.
    pub fn mem_usage(&self) -> usize {
        self.keys.capacity() * std::mem::size_of::<i64>()
            + self.offsets.capacity() * std::mem::size_of::<usize>()
            + self.packed.capacity() * std::mem::size_of::<usize>()
            + self.table.capacity() * std::mem::size_of::<u32>()
            + self.point_cell.capacity() * std::mem::size_of::<CellId>()
            + self.origin.capacity() * std::mem::size_of::<f64>()
    }
}

/// A partition of a grid's cells into query buckets, produced by
/// [`Grid::query_buckets`]. CSR layout: bucket `b` covers
/// `cells()[offsets[b]..offsets[b + 1]]`, and concatenating the buckets
/// enumerates every cell exactly once.
#[derive(Debug, Clone)]
pub struct QueryBuckets {
    offsets: Vec<usize>,
    cells: Vec<CellId>,
}

impl QueryBuckets {
    /// Number of buckets.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Whether there are no buckets (empty grid).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The cells of bucket `b`, anchor cell first.
    pub fn bucket(&self, b: usize) -> &[CellId] {
        &self.cells[self.offsets[b]..self.offsets[b + 1]]
    }

    /// All cells in bucket-concatenation order (a permutation of the grid's
    /// cell ids); `flat_cells()[k]` is the cell behind flat slot `k`.
    pub fn flat_cells(&self) -> &[CellId] {
        &self.cells
    }

    /// Iterates over the buckets in order.
    pub fn iter(&self) -> impl Iterator<Item = &[CellId]> + '_ {
        (0..self.len()).map(move |b| self.bucket(b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpc_rng::StdRng;

    fn square_dataset() -> Dataset {
        // Nine points on a 3×3 lattice with spacing 10.
        let mut ds = Dataset::new(2);
        for x in 0..3 {
            for y in 0..3 {
                ds.push(&[x as f64 * 10.0, y as f64 * 10.0]);
            }
        }
        ds
    }

    #[test]
    fn every_point_is_assigned_to_exactly_one_cell() {
        let ds = square_dataset();
        let grid = Grid::build(&ds, 10.0);
        let total: usize = grid.cell_ids().map(|c| grid.points(c).len()).sum();
        assert_eq!(total, ds.len());
        for id in 0..ds.len() {
            let cell = grid.cell_of(id);
            assert!(grid.points(cell).contains(&id));
        }
    }

    #[test]
    fn no_empty_cells_are_created() {
        let ds = square_dataset();
        let grid = Grid::build(&ds, 1.0);
        for c in grid.cell_ids() {
            assert!(!grid.points(c).is_empty());
        }
        // Points are 10 apart and cells are 1 wide: every point gets its own cell.
        assert_eq!(grid.num_cells(), ds.len());
    }

    #[test]
    fn large_cells_merge_points() {
        let ds = square_dataset();
        let grid = Grid::build(&ds, 100.0);
        assert_eq!(grid.num_cells(), 1);
        assert_eq!(grid.points(0).len(), 9);
    }

    #[test]
    fn cell_by_key_round_trips() {
        let ds = square_dataset();
        let grid = Grid::build(&ds, 10.0);
        for id in 0..ds.len() {
            let cell = grid.cell_of(id);
            assert_eq!(grid.cell_by_key(grid.key(cell)), Some(cell));
        }
        assert_eq!(grid.cell_by_key(&[-50, -50]), None);
        // A key of the wrong dimensionality finds nothing (and terminates).
        assert_eq!(grid.cell_by_key(&[0]), None);
        assert_eq!(grid.cell_by_key(&[0, 0, 0]), None);
    }

    #[test]
    fn center_lies_inside_cell() {
        let ds = square_dataset();
        let grid = Grid::build(&ds, 7.0);
        let mut key = Vec::new();
        for c in grid.cell_ids() {
            fill_key_into(&grid.center(c), &grid.origin, grid.side, &mut key);
            assert_eq!(key, grid.key(c));
        }
    }

    #[test]
    fn points_in_same_cell_are_within_side_times_sqrt_d() {
        let mut rng = StdRng::seed_from_u64(13);
        let mut ds = Dataset::new(3);
        for _ in 0..500 {
            ds.push(&[
                rng.gen_range(0.0..50.0),
                rng.gen_range(0.0..50.0),
                rng.gen_range(0.0..50.0),
            ]);
        }
        let side = 4.0;
        let grid = Grid::build(&ds, side);
        let max_dist = side * (3.0f64).sqrt() + 1e-9;
        for c in grid.cell_ids() {
            let pts = grid.points(c);
            for &a in pts {
                for &b in pts {
                    assert!(dpc_geometry::dist(ds.point(a), ds.point(b)) <= max_dist);
                }
            }
        }
    }

    #[test]
    fn neighbors_within_finds_adjacent_cells() {
        let ds = square_dataset();
        let grid = Grid::build(&ds, 10.0);
        // The centre point 4, (10,10), has all 8 surrounding lattice cells
        // occupied.
        let centre_cell = grid.cell_of(4);
        let n1 = grid.neighbors_within(centre_cell, 1);
        assert_eq!(n1.len(), 8);
        assert!(!n1.contains(&centre_cell));
        // A corner cell (point 0, at the origin) has only 3 occupied
        // neighbours.
        let corner = grid.cell_of(0);
        assert_eq!(grid.neighbors_within(corner, 1).len(), 3);
    }

    #[test]
    fn neighbors_within_larger_radius() {
        let ds = square_dataset();
        let grid = Grid::build(&ds, 10.0);
        let corner = grid.cell_of(0);
        assert_eq!(grid.neighbors_within(corner, 2).len(), 8);
    }

    #[test]
    fn empty_dataset_builds_empty_grid() {
        let ds = Dataset::new(2);
        let grid = Grid::build(&ds, 5.0);
        assert_eq!(grid.num_cells(), 0);
        assert_eq!(grid.cell_by_key(&[0, 0]), None);
    }

    #[test]
    #[should_panic(expected = "cell side must be positive")]
    fn zero_side_panics() {
        let ds = square_dataset();
        let _ = Grid::build(&ds, 0.0);
    }

    #[test]
    #[should_panic(expected = "fewer than 2^53 cells")]
    fn inexact_keys_panic() {
        let ds = Dataset::from_flat(2, vec![0.0, 0.0, 7e5, 0.0, 1e6, 0.0]);
        let _ = Grid::build(&ds, 1e-13);
    }

    #[test]
    fn mem_usage_reported() {
        let ds = square_dataset();
        let grid = Grid::build(&ds, 10.0);
        assert!(grid.mem_usage() > 0);
    }

    #[test]
    fn csr_layout_is_compact_and_sorted() {
        let mut rng = StdRng::seed_from_u64(71);
        let mut ds = Dataset::new(2);
        for _ in 0..800 {
            ds.push(&[rng.gen_range(0.0..60.0), rng.gen_range(0.0..60.0)]);
        }
        let grid = Grid::build(&ds, 4.5);
        // Offsets are monotone and cover every point exactly once.
        assert_eq!(grid.offsets.len(), grid.num_cells() + 1);
        assert_eq!(*grid.offsets.first().unwrap(), 0);
        assert_eq!(*grid.offsets.last().unwrap(), ds.len());
        assert!(grid.offsets.windows(2).all(|w| w[0] < w[1]), "no cell may be empty");
        // The packed array is a permutation of 0..n, ascending within a cell.
        let mut seen = vec![false; ds.len()];
        for c in grid.cell_ids() {
            let pts = grid.points(c);
            assert!(pts.windows(2).all(|w| w[0] < w[1]), "cell {c} not ascending");
            for &p in pts {
                assert!(!seen[p]);
                seen[p] = true;
            }
        }
        assert!(seen.into_iter().all(|s| s));
        // The interned key buffer holds exactly one key per cell.
        assert_eq!(grid.keys.len(), grid.num_cells() * grid.dim);
    }

    #[test]
    fn cell_ids_follow_first_appearance_order() {
        // Cell ids are assigned in order of each cell's first point, exactly
        // as the previous per-cell-Vec layout did — downstream code (e.g.
        // S-Approx-DPC's "first point of the cell is the picked point") relies
        // on this.
        let mut ds = Dataset::new(2);
        for &x in &[5.0, 55.0, 5.0, 105.0, 55.0, 5.0] {
            ds.push(&[x, 0.0]);
        }
        let grid = Grid::build(&ds, 50.0);
        assert_eq!(grid.num_cells(), 3);
        assert_eq!(grid.cell_of(0), 0);
        assert_eq!(grid.cell_of(1), 1);
        assert_eq!(grid.cell_of(3), 2);
        assert_eq!(grid.points(0), &[0, 2, 5]);
        assert_eq!(grid.points(1), &[1, 4]);
        assert_eq!(grid.points(2), &[3]);
    }

    #[test]
    fn duplicate_heavy_input_interns_each_key_once() {
        // 600 points in 4 distinct locations: 4 cells, 4 interned keys, and
        // the key table keeps resolving every point after several growths of
        // unrelated cells would have been possible.
        let mut ds = Dataset::new(2);
        for i in 0..600 {
            let corner = (i % 4) as f64;
            ds.push(&[corner * 30.0, corner * 30.0]);
        }
        let grid = Grid::build(&ds, 10.0);
        assert_eq!(grid.num_cells(), 4);
        assert_eq!(grid.keys.len(), 4 * 2);
        let total: usize = grid.cell_ids().map(|c| grid.points(c).len()).sum();
        assert_eq!(total, 600);
        for id in 0..ds.len() {
            assert_eq!(grid.cell_of(id), id % 4);
        }
    }

    /// `n` points with `dim` coordinates drawn uniformly from `[0, extent)`.
    fn uniform_dataset(n: usize, dim: usize, extent: f64, seed: u64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut ds = Dataset::new(dim);
        let mut row = vec![0.0f64; dim];
        for _ in 0..n {
            for v in row.iter_mut() {
                *v = rng.gen_range(0.0..extent);
            }
            ds.push(&row);
        }
        ds
    }

    #[test]
    fn query_buckets_partition_every_cell_exactly_once() {
        for (ds, side) in [
            (uniform_dataset(3_000, 2, 100.0, 21), 4.0),
            (uniform_dataset(2_000, 3, 60.0, 22), 5.0),
            // High-d: the consecutive-id merge path.
            (uniform_dataset(800, 8, 30.0, 23), 8.0),
            // One giant cell.
            (uniform_dataset(500, 2, 5.0, 24), 1_000.0),
        ] {
            let grid = Grid::build(&ds, side);
            let buckets = grid.query_buckets();
            let mut seen = vec![false; grid.num_cells()];
            for bucket in buckets.iter() {
                assert!(!bucket.is_empty());
                for &c in bucket {
                    assert!(!seen[c], "cell {c} assigned twice");
                    seen[c] = true;
                }
            }
            assert!(seen.into_iter().all(|s| s));
            assert_eq!(buckets.flat_cells().len(), grid.num_cells());
        }
    }

    #[test]
    fn query_buckets_merge_small_neighbor_cells() {
        // A fine grid over a lattice: every cell holds one point, so buckets
        // must merge neighbours instead of staying singletons.
        let mut ds = Dataset::new(2);
        for x in 0..8 {
            for y in 0..8 {
                ds.push(&[x as f64, y as f64]);
            }
        }
        let grid = Grid::build(&ds, 1.0);
        assert_eq!(grid.num_cells(), 64);
        let buckets = grid.query_buckets();
        assert!(buckets.len() < grid.num_cells(), "small cells must merge");
        // Deterministic: two sweeps agree exactly.
        let again = grid.query_buckets();
        assert_eq!(buckets.flat_cells(), again.flat_cells());
        assert_eq!(buckets.len(), again.len());
    }

    #[test]
    fn query_buckets_on_empty_grid() {
        let grid = Grid::build(&Dataset::new(2), 5.0);
        let buckets = grid.query_buckets();
        assert!(buckets.is_empty());
        assert_eq!(buckets.iter().count(), 0);
    }

    #[test]
    fn table_growth_keeps_all_cells_resolvable() {
        // Enough distinct cells to force several grow-and-rehash rounds
        // (initial capacity 16, load factor 3/4).
        let mut ds = Dataset::new(2);
        for x in 0..40 {
            for y in 0..40 {
                ds.push(&[x as f64 * 10.0, y as f64 * 10.0]);
            }
        }
        let grid = Grid::build(&ds, 10.0);
        assert_eq!(grid.num_cells(), 1600);
        assert!(grid.table.len() >= 1600 * 4 / 3);
        assert!(grid.table.len().is_power_of_two());
        for c in grid.cell_ids() {
            assert_eq!(grid.cell_by_key(grid.key(c)), Some(c));
        }
    }
}
