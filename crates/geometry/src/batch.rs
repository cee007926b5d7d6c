//! Batched distance kernels over contiguous row-major coordinate buffers.
//!
//! The packed kd-tree stores its points as row-major rows, each leaf bucket a
//! contiguous strip, and the hot inner loops of the ρ phase (Definition 1)
//! come in two shapes: *one query against a whole bucket of rows*, and *every
//! pair between two buckets* (or within one). This module is those loops,
//! implemented once, audited once, and used by every caller:
//!
//! * [`count_within`] — how many rows lie in the **closed** ball
//!   `dist²(query, row) ≤ r_sq` (the paper's `dist ≤ d_cut` predicate);
//! * [`search_within_into`] — the row indices of those rows, appended in row
//!   order to a caller-reusable buffer;
//! * [`count_pairs_block`] and [`count_pairs_triangle`] — the leaf kernels of
//!   the kd-tree self-join (`dpc_index::selfjoin`): every pair of rows, one
//!   from each block or `i < j` within one, whose distance is within the
//!   closed ball credits **both** rows. Each pair's distance is computed
//!   once.
//!
//! # Vectorisation
//!
//! [`count_within`] and [`count_pairs_block`] run a fixed-dimension loop for
//! `d ∈ {2, 3, 4, 8}` (the paper's Syn, Airline, Household/PAMAP2 and
//! Sensor): a const-generic copy of the scalar loop whose row length the
//! compiler knows, so an optimised build vectorises it across rows on
//! baseline SSE2, in safe code. Every other `dim` runs the scalar loop, and
//! [`search_within_into`] is a scalar loop.
//!
//! The fixed loops are **bit-identical** to the scalar reference by
//! construction. Each row performs exactly the per-axis operations of
//! [`dist_sq`] in the same order: `(q[a] − row[a])²` summed from `0.0` in
//! ascending axis order. IEEE 754 arithmetic is deterministic per operation,
//! and no FMA contraction is introduced. The `<=` predicate is false for NaN,
//! as in the scalar loop. Only the integer counts are summed in another
//! order, which cannot change them. The property tests in
//! `tests/batch_identity.rs` assert bitwise equality across the paths.
//!
//! # Symmetry
//!
//! A pair kernel decides each pair once, so it must decide it as either end's
//! own query would. It does: `fl(a − b) = −fl(b − a)` (round-to-nearest is
//! symmetric in sign), the squares of the two are equal, and so
//! `dist_sq(a, b)` and `dist_sq(b, a)` are the same bits. A pair kernel's
//! credit to row `i` is therefore [`count_within`] of row `i` against the
//! other rows, bit for bit.
//!
//! # Slice-length contract
//!
//! All kernels require `query.len() == dim`, `dim > 0` and
//! `rows.len() % dim == 0`, and the pair kernels one count per row; these are
//! `debug_assert!`ed here (one place, not per caller), and the debug
//! assertions **are** the contract. See the crate docs for the release-mode
//! behaviour of a violating call: memory-safe but unspecified — depending on
//! the dispatch path it may panic on an out-of-bounds index or silently
//! iterate fewer axes (the fixed-dimension count loop panics on a query
//! shorter than `dim` and reads only the first `dim` axes of a longer one,
//! and the scalar loops reach `dist_sq_generic`'s truncating `zip`). Never
//! rely on either outcome.

use crate::distance::dist_sq;

/// Counts rows of `rows` (row-major, `dim` values per row) whose squared
/// Euclidean distance to `query` is **at most** `r_sq` (closed ball).
///
/// Rows containing NaN never match (every comparison with NaN is false), and a
/// NaN `r_sq` matches nothing. Runs the fixed-dimension loop for
/// `dim ∈ {2, 3, 4, 8}` and [`count_within_scalar`] otherwise; both return the
/// scalar reference's count (see the module docs).
#[inline]
pub fn count_within(query: &[f64], rows: &[f64], dim: usize, r_sq: f64) -> usize {
    debug_batch_contract(query, rows, dim);
    match dim {
        2 => count_within_fixed::<2>(query, rows, r_sq),
        3 => count_within_fixed::<3>(query, rows, r_sq),
        4 => count_within_fixed::<4>(query, rows, r_sq),
        8 => count_within_fixed::<8>(query, rows, r_sq),
        _ => count_within_scalar(query, rows, dim, r_sq),
    }
}

/// [`count_within_scalar`] with the row length known to the compiler: each
/// row's terms `(q[a] − row[a])²` are summed from `0.0` in ascending axis
/// order (the operands and order of [`dist_sq`], so every count is
/// bit-identical) and counted without a branch, which lets the loop run
/// several rows per vector iteration.
///
/// # Panics
/// Panics if `query` is shorter than `D`.
#[inline]
fn count_within_fixed<const D: usize>(query: &[f64], rows: &[f64], r_sq: f64) -> usize {
    let q: [f64; D] = std::array::from_fn(|a| query[a]);
    rows.chunks_exact(D)
        .map(|row| {
            let mut acc = 0.0;
            for a in 0..D {
                let diff = q[a] - row[a];
                acc += diff * diff;
            }
            (acc <= r_sq) as usize
        })
        .sum()
}

/// Appends the indices of the rows within the closed ball (`dist² ≤ r_sq`) to
/// `out`, in ascending row order. The buffer is **not** cleared, so callers
/// can map one bucket's hits to identifiers before scanning the next bucket.
#[inline]
pub fn search_within_into(
    query: &[f64],
    rows: &[f64],
    dim: usize,
    r_sq: f64,
    out: &mut Vec<usize>,
) {
    debug_batch_contract(query, rows, dim);
    for (k, row) in rows.chunks_exact(dim).enumerate() {
        if dist_sq(query, row) <= r_sq {
            out.push(k);
        }
    }
}

/// Scalar reference implementation of [`count_within`], and its path for any
/// `dim` outside the fixed-dimension set. Public so property tests and
/// benchmarks can pin the fixed-dimension loop against it.
#[inline]
pub fn count_within_scalar(query: &[f64], rows: &[f64], dim: usize, r_sq: f64) -> usize {
    debug_batch_contract(query, rows, dim);
    let mut c = 0usize;
    for row in rows.chunks_exact(dim) {
        if dist_sq(query, row) <= r_sq {
            c += 1;
        }
    }
    c
}

/// Credits both ends of every pair `(a row i of a, a row j of b)` within the
/// closed ball (`dist² ≤ r_sq`): `counts_a[i] += 1` and `counts_b[j] += 1`.
/// Each pair's distance is computed once, and `counts_a[i]` gains exactly
/// what `count_within(row i, b, dim, r_sq)` returns (module docs, Symmetry).
/// A NaN `r_sq` credits nothing. Runs the fixed-dimension loop for
/// `dim ∈ {2, 3, 4, 8}` and a scalar loop otherwise.
#[inline]
pub fn count_pairs_block(
    a: &[f64],
    b: &[f64],
    dim: usize,
    r_sq: f64,
    counts_a: &mut [u32],
    counts_b: &mut [u32],
) {
    debug_pair_contract(a, dim, counts_a);
    debug_pair_contract(b, dim, counts_b);
    match dim {
        2 => count_pairs_block_fixed::<2>(a, b, r_sq, counts_a, counts_b),
        3 => count_pairs_block_fixed::<3>(a, b, r_sq, counts_a, counts_b),
        4 => count_pairs_block_fixed::<4>(a, b, r_sq, counts_a, counts_b),
        8 => count_pairs_block_fixed::<8>(a, b, r_sq, counts_a, counts_b),
        _ => {
            for (row, count_a) in a.chunks_exact(dim).zip(counts_a) {
                for (other, count_b) in b.chunks_exact(dim).zip(counts_b.iter_mut()) {
                    if dist_sq(row, other) <= r_sq {
                        *count_a += 1;
                        *count_b += 1;
                    }
                }
            }
        }
    }
}

/// Credits both ends of every pair `i < j` of rows within the closed ball
/// (`dist² ≤ r_sq`): `counts[i] += 1` and `counts[j] += 1`, each distance
/// computed once. A row is never paired with itself, so `counts[i]` gains
/// the row's closed-ball count among the other rows. A NaN `r_sq` credits
/// nothing.
#[inline]
pub fn count_pairs_triangle(rows: &[f64], dim: usize, r_sq: f64, counts: &mut [u32]) {
    debug_pair_contract(rows, dim, counts);
    for i in 0..counts.len() {
        let (head, tail) = counts.split_at_mut(i + 1);
        let (row, rest) = rows[i * dim..].split_at(dim);
        count_pairs_block(row, rest, dim, r_sq, &mut head[i..], tail);
    }
}

/// The scalar block loop with the row length known to the compiler: the
/// operands and order of [`dist_sq`], so every credit is bit-identical, and
/// each hit added without a branch, which lets the inner loop run several
/// rows of `b` per vector iteration.
#[inline]
fn count_pairs_block_fixed<const D: usize>(
    a: &[f64],
    b: &[f64],
    r_sq: f64,
    counts_a: &mut [u32],
    counts_b: &mut [u32],
) {
    for (row, count_a) in a.chunks_exact(D).zip(counts_a) {
        let q: [f64; D] = std::array::from_fn(|k| row[k]);
        let mut hits = 0u32;
        for (other, count_b) in b.chunks_exact(D).zip(counts_b.iter_mut()) {
            let mut acc = 0.0;
            for k in 0..D {
                let diff = q[k] - other[k];
                acc += diff * diff;
            }
            let hit = (acc <= r_sq) as u32;
            hits += hit;
            *count_b += hit;
        }
        *count_a += hits;
    }
}

/// The shared `debug_assert!` half of the slice-length contract (see the
/// module docs for the release-mode half).
#[inline]
fn debug_batch_contract(query: &[f64], rows: &[f64], dim: usize) {
    debug_assert!(dim > 0, "dimensionality must be positive");
    debug_assert_eq!(query.len(), dim, "query dimensionality mismatch");
    debug_assert_eq!(rows.len() % dim, 0, "rows buffer is not a whole number of rows");
}

/// The pair kernels' half of the slice-length contract: one count per row.
#[inline]
fn debug_pair_contract(rows: &[f64], dim: usize, counts: &[u32]) {
    debug_assert!(dim > 0, "dimensionality must be positive");
    debug_assert_eq!(rows.len(), counts.len() * dim, "one count per row");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows_2d() -> Vec<f64> {
        // Includes an exact 3-4-5 boundary row and a duplicate of the query.
        vec![0.0, 0.0, 3.0, 4.0, 10.0, 10.0, -3.0, -4.0, 1.0, 1.0, 0.0, 0.0]
    }

    #[test]
    fn count_is_inclusive_at_the_boundary() {
        let q = [0.0, 0.0];
        let rows = rows_2d();
        // r² = 25: rows at distance exactly 5 (3,4) and (−3,−4) must count.
        assert_eq!(count_within(&q, &rows, 2, 25.0), 5);
        assert_eq!(count_within_scalar(&q, &rows, 2, 25.0), 5);
        // Just below the boundary they must not.
        let below = 25.0 - 1e-9;
        assert_eq!(count_within(&q, &rows, 2, below), 3);
        // r² = 0 still matches exact duplicates (closed ball).
        assert_eq!(count_within(&q, &rows, 2, 0.0), 2);
    }

    #[test]
    fn search_reports_row_indices_in_order_without_clearing() {
        let q = [0.0, 0.0];
        let rows = rows_2d();
        let mut out = vec![99usize];
        search_within_into(&q, &rows, 2, 25.0, &mut out);
        assert_eq!(out, vec![99, 0, 1, 3, 4, 5]);
    }

    #[test]
    fn nan_rows_never_match() {
        let q = [0.0, 0.0];
        let rows = vec![f64::NAN, 0.0, 1.0, 0.0];
        assert_eq!(count_within(&q, &rows, 2, 1e18), 1);
        let mut out = Vec::new();
        search_within_into(&q, &rows, 2, 1e18, &mut out);
        assert_eq!(out, vec![1]);
        // NaN radius matches nothing.
        assert_eq!(count_within(&q, &rows, 2, f64::NAN), 0);
    }

    #[test]
    fn generic_dimensionality_matches_a_hand_count() {
        let q = [1.0; 5];
        let mut rows = vec![1.0; 5 * 7];
        rows[5 * 3] = 4.0; // row 3 at squared distance 9
        assert_eq!(count_within(&q, &rows, 5, 8.999), 6);
        assert_eq!(count_within(&q, &rows, 5, 9.0), 7);
    }
}
