//! Batched distance kernels over contiguous row-major coordinate buffers.
//!
//! The packed kd-tree stores its points as row-major rows, each leaf bucket a
//! contiguous strip, and the hot inner loop of the ρ phase (Definition 1) is
//! always the same shape: *one query against a whole bucket of rows*. This
//! module is that loop, implemented once, audited once, and used by every
//! caller:
//!
//! * [`count_within`] — how many rows lie in the **closed** ball
//!   `dist²(query, row) ≤ r_sq` (the paper's `dist ≤ d_cut` predicate);
//! * [`search_within_into`] — the row indices of those rows, appended in row
//!   order to a caller-reusable buffer.
//!
//! # SIMD
//!
//! In the default build, [`count_within`] runs a fixed-dimension loop for
//! `d ∈ {2, 3, 4, 8}` (the paper's Syn, Airline, Household/PAMAP2 and Sensor):
//! a const-generic copy of [`count_within_scalar`] whose row length the
//! compiler knows, so an optimised build vectorises it across rows on baseline
//! SSE2, in safe code. Every other `dim`, and [`search_within_into`], run the
//! scalar reference implementations.
//!
//! With the `simd` cargo feature enabled on `x86_64`, both kernels instead
//! process four rows per iteration with AVX2 (detected at runtime) or two rows
//! with SSE2 (baseline on `x86_64`), with dedicated layouts for `d = 2` and
//! `d = 3` and a lane-strided path for any other dimensionality. On other
//! architectures the feature changes nothing.
//!
//! Every path is **bit-identical** to the scalar one by construction. Each
//! row, or vector lane, performs exactly the per-axis operations of
//! [`dist_sq`] in the same order: `(q[a] − row[a])²` summed from `0.0` in
//! ascending axis order. IEEE 754 arithmetic is deterministic per operation,
//! and no FMA contraction is introduced. The `≤` predicate maps to ordered
//! non-signalling compares (false for NaN, exactly like the scalar `<=`), and
//! reporting drains the hits in row order. Only the integer count is summed
//! in another order, which cannot change it. The property tests in
//! `tests/batch_identity.rs` assert bitwise equality across the paths.
//!
//! The crate denies `unsafe_code`; the SIMD dispatch in [`count_within`] and
//! [`search_within_into`] and the `x86` module are the only places allowed
//! to use it.
//!
//! # Slice-length contract
//!
//! All kernels require `query.len() == dim`, `dim > 0` and
//! `rows.len() % dim == 0`; these are `debug_assert!`ed here (one place, not
//! per caller), and the debug assertions **are** the contract. See the crate
//! docs for the release-mode behaviour of a violating call: memory-safe but
//! unspecified — depending on the dispatch path it may panic on an
//! out-of-bounds index or silently iterate fewer axes (the fixed-dimension
//! count loop panics on a query shorter than `dim` and reads only the first
//! `dim` axes of a longer one, the scalar fallback reaches
//! `dist_sq_generic`'s truncating `zip`, and the lane-strided SIMD paths
//! iterate the query's length). Never rely on either outcome.

use crate::distance::dist_sq;

/// Counts rows of `rows` (row-major, `dim` values per row) whose squared
/// Euclidean distance to `query` is **at most** `r_sq` (closed ball).
///
/// Rows containing NaN never match (every comparison with NaN is false), and a
/// NaN `r_sq` matches nothing. The default build runs the fixed-dimension loop
/// for `dim ∈ {2, 3, 4, 8}` and [`count_within_scalar`] otherwise; the `simd`
/// feature runs the x86 kernels for every `dim`. Every path returns the
/// scalar reference's count (see the module docs).
#[inline]
#[allow(unsafe_code)]
pub fn count_within(query: &[f64], rows: &[f64], dim: usize, r_sq: f64) -> usize {
    debug_batch_contract(query, rows, dim);
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    {
        // SAFETY: the x86 kernels run AVX2 only after detecting it (SSE2 is
        // baseline on x86_64), read `rows` only inside its whole rows, and
        // index `query` with bounds checks.
        unsafe { x86::count_within(query, rows, dim, r_sq) }
    }
    #[cfg(not(all(feature = "simd", target_arch = "x86_64")))]
    {
        match dim {
            2 => count_within_fixed::<2>(query, rows, r_sq),
            3 => count_within_fixed::<3>(query, rows, r_sq),
            4 => count_within_fixed::<4>(query, rows, r_sq),
            8 => count_within_fixed::<8>(query, rows, r_sq),
            _ => count_within_scalar(query, rows, dim, r_sq),
        }
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
#[cfg(not(all(feature = "simd", target_arch = "x86_64")))]
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
#[allow(unsafe_code)]
pub fn search_within_into(
    query: &[f64],
    rows: &[f64],
    dim: usize,
    r_sq: f64,
    out: &mut Vec<usize>,
) {
    debug_batch_contract(query, rows, dim);
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    {
        // SAFETY: as in `count_within`.
        unsafe { x86::search_within_into(query, rows, dim, r_sq, out) }
    }
    #[cfg(not(all(feature = "simd", target_arch = "x86_64")))]
    {
        search_within_into_scalar(query, rows, dim, r_sq, out)
    }
}

/// Scalar reference implementation of [`count_within`]. Public so property
/// tests and benchmarks can pin the fixed-dimension and SIMD paths against it.
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

/// Scalar reference implementation of [`search_within_into`].
#[inline]
pub fn search_within_into_scalar(
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

/// The shared `debug_assert!` half of the slice-length contract (see the
/// module docs for the release-mode half).
#[inline]
fn debug_batch_contract(query: &[f64], rows: &[f64], dim: usize) {
    debug_assert!(dim > 0, "dimensionality must be positive");
    debug_assert_eq!(query.len(), dim, "query dimensionality mismatch");
    debug_assert_eq!(rows.len() % dim, 0, "rows buffer is not a whole number of rows");
}

/// x86-64 SSE2/AVX2 implementations. Everything in here upholds the same
/// contract as the scalar kernels: per-row squared distances are computed with
/// the exact operation sequence of `dist_sq`, predicates are ordered
/// non-signalling compares, and hits are reported in row order.
#[cfg(all(feature = "simd", target_arch = "x86_64"))]
#[doc(hidden)]
#[allow(unsafe_code)]
pub mod x86 {
    use super::*;
    #[cfg(target_arch = "x86_64")]
    use std::arch::x86_64::*;

    /// Whether the AVX2 4-wide paths may run (cached by `std` behind an atomic).
    #[inline]
    fn has_avx2() -> bool {
        std::arch::is_x86_feature_detected!("avx2")
    }

    /// # Safety
    /// Safe on any `x86_64` (SSE2 is baseline; AVX2 is runtime-detected).
    /// Marked unsafe only to mirror the intrinsic call chain.
    #[inline]
    pub unsafe fn count_within(query: &[f64], rows: &[f64], dim: usize, r_sq: f64) -> usize {
        if has_avx2() {
            count_within_avx2(query, rows, dim, r_sq)
        } else {
            count_within_sse2(query, rows, dim, r_sq)
        }
    }

    /// # Safety
    /// Safe on any `x86_64`; see [`count_within`].
    #[inline]
    pub unsafe fn search_within_into(
        query: &[f64],
        rows: &[f64],
        dim: usize,
        r_sq: f64,
        out: &mut Vec<usize>,
    ) {
        if has_avx2() {
            search_within_into_avx2(query, rows, dim, r_sq, out)
        } else {
            search_within_into_sse2(query, rows, dim, r_sq, out)
        }
    }

    // ---- AVX2: 4 rows per iteration (8 on the d = 2 counting fast path). ----

    /// Squared distances of the 4 `d = 2` rows at `p`, lanes in **unpack
    /// order** `[d0, d2, d1, d3]`: two in-lane unpacks split x/y columns
    /// without any cross-lane shuffle. Counting doesn't care about lane order;
    /// order-sensitive callers permute afterwards.
    ///
    /// # Safety
    /// Requires AVX2 and 8 readable `f64`s at `p`.
    #[target_feature(enable = "avx2")]
    unsafe fn dists4_2d_unpacked(p: *const f64, qx: __m256d, qy: __m256d) -> __m256d {
        let a = _mm256_loadu_pd(p); // x0 y0 | x1 y1
        let b = _mm256_loadu_pd(p.add(4)); // x2 y2 | x3 y3
        let x = _mm256_unpacklo_pd(a, b); // x0 x2 | x1 x3
        let y = _mm256_unpackhi_pd(a, b); // y0 y2 | y1 y3
        let dx = _mm256_sub_pd(x, qx);
        let dy = _mm256_sub_pd(y, qy);
        // dx² + dy² per lane — the operand set and order of `dist_sq_2`
        // (the sign of dx/dy is flipped vs the scalar kernel, which the
        // squaring erases exactly, including for ±0 and NaN).
        _mm256_add_pd(_mm256_mul_pd(dx, dx), _mm256_mul_pd(dy, dy))
    }

    /// Computes the squared distances of rows `base..base + 4` into a vector
    /// whose lanes are in row order.
    ///
    /// # Safety
    /// Requires AVX2 and `(base + 4) * dim <= rows.len()`; `dim` must match
    /// the layout the caller dispatched on.
    #[target_feature(enable = "avx2")]
    unsafe fn dists4_avx2(query: &[f64], rows: &[f64], dim: usize, base: usize) -> __m256d {
        match dim {
            2 => {
                let p = rows.as_ptr().add(base * 2);
                let d = dists4_2d_unpacked(p, _mm256_set1_pd(query[0]), _mm256_set1_pd(query[1]));
                // [d0 d2 d1 d3] → row order [d0 d1 d2 d3].
                _mm256_permute4x64_pd(d, 0b1101_1000)
            }
            3 => {
                // Three contiguous loads transposed to x/y/z columns with
                // in-register shuffles, then (dx² + dy²) + dz² per lane — the
                // exact operation order of the scalar `dist_sq_3`.
                let p = rows.as_ptr().add(base * 3);
                let v0 = _mm256_loadu_pd(p); // x0 y0 | z0 x1
                let v1 = _mm256_loadu_pd(p.add(4)); // y1 z1 | x2 y2
                let v2 = _mm256_loadu_pd(p.add(8)); // z2 x3 | y3 z3
                let u = _mm256_permute2f128_pd(v0, v1, 0x30); // x0 y0 | x2 y2
                let v = _mm256_permute2f128_pd(v0, v2, 0x21); // z0 x1 | z2 x3
                let w = _mm256_permute2f128_pd(v1, v2, 0x30); // y1 z1 | y3 z3
                let x = _mm256_shuffle_pd(u, v, 0b1010); // x0 x1 | x2 x3
                let y = _mm256_shuffle_pd(u, w, 0b0101); // y0 y1 | y2 y3
                let z = _mm256_shuffle_pd(v, w, 0b1010); // z0 z1 | z2 z3
                let dx = _mm256_sub_pd(x, _mm256_set1_pd(query[0]));
                let dy = _mm256_sub_pd(y, _mm256_set1_pd(query[1]));
                let dz = _mm256_sub_pd(z, _mm256_set1_pd(query[2]));
                _mm256_add_pd(
                    _mm256_add_pd(_mm256_mul_pd(dx, dx), _mm256_mul_pd(dy, dy)),
                    _mm256_mul_pd(dz, dz),
                )
            }
            _ => {
                // Generic d ≥ 4: four contiguous row loads per 4-axis block,
                // transposed in registers to axis vectors (lane = row), then
                // accumulated one axis at a time in ascending axis order — the
                // exact operation order of the scalar `dist_sq_generic`, with
                // no strided gathers on the hot path.
                let p = rows.as_ptr().add(base * dim);
                let mut acc = _mm256_setzero_pd();
                let mut a = 0usize;
                while a + 4 <= dim {
                    let v0 = _mm256_loadu_pd(p.add(a)); // row0: a a+1 | a+2 a+3
                    let v1 = _mm256_loadu_pd(p.add(dim + a));
                    let v2 = _mm256_loadu_pd(p.add(2 * dim + a));
                    let v3 = _mm256_loadu_pd(p.add(3 * dim + a));
                    let t0 = _mm256_unpacklo_pd(v0, v1); // a: r0 r1 | a+2: r0 r1
                    let t1 = _mm256_unpackhi_pd(v0, v1); // a+1: r0 r1 | a+3: r0 r1
                    let t2 = _mm256_unpacklo_pd(v2, v3);
                    let t3 = _mm256_unpackhi_pd(v2, v3);
                    for (axis, col) in [
                        _mm256_permute2f128_pd(t0, t2, 0x20), // axis a, lanes r0..r3
                        _mm256_permute2f128_pd(t1, t3, 0x20), // axis a+1
                        _mm256_permute2f128_pd(t0, t2, 0x31), // axis a+2
                        _mm256_permute2f128_pd(t1, t3, 0x31), // axis a+3
                    ]
                    .into_iter()
                    .enumerate()
                    {
                        let d = _mm256_sub_pd(col, _mm256_set1_pd(query[a + axis]));
                        acc = _mm256_add_pd(acc, _mm256_mul_pd(d, d));
                    }
                    a += 4;
                }
                // Remainder axes (dim mod 4) stay lane-strided gathers.
                while a < dim {
                    let v = _mm256_set_pd(
                        *p.add(3 * dim + a),
                        *p.add(2 * dim + a),
                        *p.add(dim + a),
                        *p.add(a),
                    );
                    let d = _mm256_sub_pd(v, _mm256_set1_pd(query[a]));
                    acc = _mm256_add_pd(acc, _mm256_mul_pd(d, d));
                    a += 1;
                }
                acc
            }
        }
    }

    /// # Safety
    /// Requires AVX2 (check `is_x86_feature_detected!("avx2")` first).
    #[target_feature(enable = "avx2")]
    pub unsafe fn count_within_avx2(query: &[f64], rows: &[f64], dim: usize, r_sq: f64) -> usize {
        let n = rows.len() / dim;
        let r = _mm256_set1_pd(r_sq);
        let mut count = 0usize;
        let mut base = 0usize;
        if dim == 2 {
            // Counting ignores lane order, so the ρ-phase fast path skips the
            // row-order permute entirely and processes 8 rows per iteration.
            let qx = _mm256_set1_pd(query[0]);
            let qy = _mm256_set1_pd(query[1]);
            while base + 8 <= n {
                let p = rows.as_ptr().add(base * 2);
                let d0 = dists4_2d_unpacked(p, qx, qy);
                let d1 = dists4_2d_unpacked(p.add(8), qx, qy);
                // Ordered non-signalling ≤: false for NaN, like scalar `<=`.
                let m0 = _mm256_movemask_pd(_mm256_cmp_pd::<_CMP_LE_OQ>(d0, r));
                let m1 = _mm256_movemask_pd(_mm256_cmp_pd::<_CMP_LE_OQ>(d1, r));
                count += (m0.count_ones() + m1.count_ones()) as usize;
                base += 8;
            }
        }
        while base + 4 <= n {
            let d = dists4_avx2(query, rows, dim, base);
            let mask = _mm256_movemask_pd(_mm256_cmp_pd::<_CMP_LE_OQ>(d, r));
            count += mask.count_ones() as usize;
            base += 4;
        }
        count + count_within_scalar(query, &rows[base * dim..], dim, r_sq)
    }

    /// # Safety
    /// Requires AVX2 (check `is_x86_feature_detected!("avx2")` first).
    #[target_feature(enable = "avx2")]
    pub unsafe fn search_within_into_avx2(
        query: &[f64],
        rows: &[f64],
        dim: usize,
        r_sq: f64,
        out: &mut Vec<usize>,
    ) {
        let n = rows.len() / dim;
        let r = _mm256_set1_pd(r_sq);
        let mut base = 0usize;
        while base + 4 <= n {
            let d = dists4_avx2(query, rows, dim, base);
            let mut mask = _mm256_movemask_pd(_mm256_cmp_pd::<_CMP_LE_OQ>(d, r)) as u32;
            // Lanes are in row order, so draining set bits low-to-high reports
            // hits in ascending row order, matching the scalar kernel.
            while mask != 0 {
                let lane = mask.trailing_zeros() as usize;
                out.push(base + lane);
                mask &= mask - 1;
            }
            base += 4;
        }
        let tail = out.len();
        search_within_into_scalar(query, &rows[base * dim..], dim, r_sq, out);
        for v in &mut out[tail..] {
            *v += base;
        }
    }

    // ---- SSE2: 2 rows per iteration (baseline on x86_64, no detection). ----

    /// Squared distances of rows `base..base + 2`, lanes in row order.
    ///
    /// # Safety
    /// Requires `(base + 2) * dim <= rows.len()`.
    #[inline]
    unsafe fn dists2_sse2(query: &[f64], rows: &[f64], dim: usize, base: usize) -> __m128d {
        match dim {
            2 => {
                // Indexed, not loaded through the pointer: a short query
                // panics instead of reading past its end.
                let q = _mm_set_pd(query[1], query[0]);
                let p = rows.as_ptr().add(base * 2);
                let a = _mm_sub_pd(_mm_loadu_pd(p), q);
                let b = _mm_sub_pd(_mm_loadu_pd(p.add(2)), q);
                let sa = _mm_mul_pd(a, a);
                let sb = _mm_mul_pd(b, b);
                // [sa0 sb0] + [sa1 sb1] = [d0 d1]: one add per row, exactly
                // dx² + dy².
                _mm_add_pd(_mm_unpacklo_pd(sa, sb), _mm_unpackhi_pd(sa, sb))
            }
            3 => {
                let p = rows.as_ptr().add(base * 3);
                let x = _mm_set_pd(*p.add(3), *p);
                let y = _mm_set_pd(*p.add(4), *p.add(1));
                let z = _mm_set_pd(*p.add(5), *p.add(2));
                let dx = _mm_sub_pd(x, _mm_set1_pd(query[0]));
                let dy = _mm_sub_pd(y, _mm_set1_pd(query[1]));
                let dz = _mm_sub_pd(z, _mm_set1_pd(query[2]));
                _mm_add_pd(_mm_add_pd(_mm_mul_pd(dx, dx), _mm_mul_pd(dy, dy)), _mm_mul_pd(dz, dz))
            }
            _ => {
                // Generic d ≥ 4: contiguous pair loads per 2-axis block,
                // transposed with unpacks (lane = row), accumulated in
                // ascending axis order like the scalar `dist_sq_generic`.
                let p = rows.as_ptr().add(base * dim);
                let mut acc = _mm_setzero_pd();
                let mut a = 0usize;
                while a + 2 <= dim {
                    let v0 = _mm_loadu_pd(p.add(a)); // row0: a a+1
                    let v1 = _mm_loadu_pd(p.add(dim + a)); // row1: a a+1
                    for (axis, col) in
                        [_mm_unpacklo_pd(v0, v1), _mm_unpackhi_pd(v0, v1)].into_iter().enumerate()
                    {
                        let d = _mm_sub_pd(col, _mm_set1_pd(query[a + axis]));
                        acc = _mm_add_pd(acc, _mm_mul_pd(d, d));
                    }
                    a += 2;
                }
                if a < dim {
                    let v = _mm_set_pd(*p.add(dim + a), *p.add(a));
                    let d = _mm_sub_pd(v, _mm_set1_pd(query[a]));
                    acc = _mm_add_pd(acc, _mm_mul_pd(d, d));
                }
                acc
            }
        }
    }

    /// # Safety
    /// Safe on any `x86_64` (SSE2 is baseline); unsafe only for the intrinsic
    /// call chain.
    #[inline]
    pub unsafe fn count_within_sse2(query: &[f64], rows: &[f64], dim: usize, r_sq: f64) -> usize {
        let n = rows.len() / dim;
        let r = _mm_set1_pd(r_sq);
        let mut count = 0usize;
        let mut base = 0usize;
        while base + 2 <= n {
            let mask = _mm_movemask_pd(_mm_cmple_pd(dists2_sse2(query, rows, dim, base), r));
            count += mask.count_ones() as usize;
            base += 2;
        }
        count + count_within_scalar(query, &rows[base * dim..], dim, r_sq)
    }

    /// # Safety
    /// Safe on any `x86_64` (SSE2 is baseline); unsafe only for the intrinsic
    /// call chain.
    #[inline]
    pub unsafe fn search_within_into_sse2(
        query: &[f64],
        rows: &[f64],
        dim: usize,
        r_sq: f64,
        out: &mut Vec<usize>,
    ) {
        let n = rows.len() / dim;
        let r = _mm_set1_pd(r_sq);
        let mut base = 0usize;
        while base + 2 <= n {
            let mask = _mm_movemask_pd(_mm_cmple_pd(dists2_sse2(query, rows, dim, base), r));
            if mask & 1 != 0 {
                out.push(base);
            }
            if mask & 2 != 0 {
                out.push(base + 1);
            }
            base += 2;
        }
        let tail = out.len();
        search_within_into_scalar(query, &rows[base * dim..], dim, r_sq, out);
        for v in &mut out[tail..] {
            *v += base;
        }
    }
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
        out.clear();
        search_within_into_scalar(&q, &rows, 2, 25.0, &mut out);
        assert_eq!(out, vec![0, 1, 3, 4, 5]);
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
