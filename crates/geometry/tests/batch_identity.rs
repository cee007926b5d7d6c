//! Bit-identity property tests for the batched distance kernels.
//!
//! The dispatching kernels of `dpc_geometry::batch` must be **bit-identical**
//! to the scalar reference implementations, whatever path the dispatcher takes
//! (scalar with the `simd` feature off; SSE2/AVX2 with it on). The inputs
//! sweep the dimensionalities of the paper's workloads (2, 3) plus a generic
//! one (8), with duplicates, collinear rows, `±0.0`, subnormals and `1e±150`
//! magnitudes, and radii placed *exactly* on row distances so the closed-ball
//! boundary is exercised bit-for-bit.
//!
//! The suite runs with the `simd` feature both on and off (CI builds both);
//! with it on, on `x86_64`, the SSE2 and AVX2 widths are additionally pinned
//! against the scalar kernels one by one, not just through the dispatcher.

use dpc_geometry::batch;
use dpc_geometry::dist_sq;
use dpc_rng::StdRng;

/// Values covering the special-case zoo: signed zeros, subnormals, tiny and
/// huge magnitudes.
const SPECIAL: &[f64] = &[
    0.0, -0.0, 1.0, -1.0, 0.5, 3.0, 4.0, 1e-150, -1e-150, 1e150, -1e150,
    5e-324, // smallest positive subnormal
    -5e-324, 1.0e-308, // subnormal
    1.7, -42.25,
];

fn special_value(rng: &mut StdRng) -> f64 {
    if rng.gen_range(0.0..1.0) < 0.5 {
        SPECIAL[rng.gen_range(0.0..SPECIAL.len() as f64) as usize]
    } else {
        rng.gen_range(-100.0..100.0)
    }
}

/// Builds a rows buffer of `n` rows mixing random rows, duplicates of earlier
/// rows, and collinear rows along a fixed direction.
fn build_rows(rng: &mut StdRng, n: usize, dim: usize) -> Vec<f64> {
    let dir: Vec<f64> = (0..dim).map(|a| if a % 2 == 0 { 1.0 } else { -0.5 }).collect();
    let mut rows: Vec<f64> = Vec::with_capacity(n * dim);
    for k in 0..n {
        let style = rng.gen_range(0.0..1.0);
        if style < 0.25 && k > 0 {
            // Exact duplicate of an earlier row.
            let src = rng.gen_range(0.0..k as f64) as usize;
            let copy: Vec<f64> = rows[src * dim..(src + 1) * dim].to_vec();
            rows.extend_from_slice(&copy);
        } else if style < 0.5 {
            // Collinear: t · dir for an integer t.
            let t = rng.gen_range(-8.0..8.0).floor();
            rows.extend(dir.iter().map(|&d| t * d));
        } else {
            rows.extend((0..dim).map(|_| special_value(rng)));
        }
    }
    rows
}

/// Radii to test against one (query, rows) pair: fixed specials plus radii
/// placed exactly on row distances (the closed-ball boundary).
fn radii(query: &[f64], rows: &[f64], dim: usize) -> Vec<f64> {
    let mut r = vec![0.0, 1.0, 25.0, 1e-300, 1e300, f64::INFINITY, f64::NAN];
    for row in rows.chunks_exact(dim).step_by(3) {
        r.push(dist_sq(query, row)); // exact boundary: dist² == r²
    }
    r
}

/// Asserts every kernel agrees with its scalar reference, bit for bit.
fn check_identity(query: &[f64], rows: &[f64], dim: usize, r_sq: f64) {
    let count_ref = batch::count_within_scalar(query, rows, dim, r_sq);
    assert_eq!(batch::count_within(query, rows, dim, r_sq), count_ref, "count (d={dim})");

    let mut hits_ref = Vec::new();
    batch::search_within_into_scalar(query, rows, dim, r_sq, &mut hits_ref);
    let mut hits = Vec::new();
    batch::search_within_into(query, rows, dim, r_sq, &mut hits);
    assert_eq!(hits, hits_ref, "search (d={dim})");

    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    {
        use dpc_geometry::batch::x86;
        // SSE2 is baseline on x86_64: always pin the 2-wide path.
        assert_eq!(
            unsafe { x86::count_within_sse2(query, rows, dim, r_sq) },
            count_ref,
            "sse2 count (d={dim})"
        );
        let mut hits2 = Vec::new();
        unsafe { x86::search_within_into_sse2(query, rows, dim, r_sq, &mut hits2) };
        assert_eq!(hits2, hits_ref, "sse2 search (d={dim})");
        if std::arch::is_x86_feature_detected!("avx2") {
            assert_eq!(
                unsafe { x86::count_within_avx2(query, rows, dim, r_sq) },
                count_ref,
                "avx2 count (d={dim})"
            );
            let mut hits4 = Vec::new();
            unsafe { x86::search_within_into_avx2(query, rows, dim, r_sq, &mut hits4) };
            assert_eq!(hits4, hits_ref, "avx2 search (d={dim})");
        }
    }
}

#[test]
fn simd_and_scalar_kernels_are_bit_identical() {
    let mut rng = StdRng::seed_from_u64(0xBA7C4);
    for dim in [2usize, 3, 8] {
        // Row counts straddle the 4-wide and 2-wide chunk remainders and the
        // kd-tree leaf-bucket size.
        for n in [0usize, 1, 2, 3, 4, 5, 7, 8, 15, 16, 17, 33, 64] {
            for _ in 0..8 {
                let rows = build_rows(&mut rng, n, dim);
                let query: Vec<f64> = (0..dim).map(|_| special_value(&mut rng)).collect();
                for r_sq in radii(&query, &rows, dim) {
                    check_identity(&query, &rows, dim, r_sq);
                }
            }
        }
    }
}

#[test]
fn boundary_rows_are_included_on_every_path() {
    // A 3-4-5 row at squared distance exactly 25 must be inside the closed
    // ball on every dispatch path and at every chunk position.
    for dim in [2usize, 3] {
        for n in 1..=20usize {
            for pos in 0..n {
                let mut rows = vec![0.0f64; n * dim];
                for (k, row) in rows.chunks_exact_mut(dim).enumerate() {
                    if k == pos {
                        row[0] = 3.0;
                        row[1] = 4.0; // dist² = 25 from the origin, any dim ≥ 2
                    } else {
                        row[0] = 1000.0 + k as f64;
                    }
                }
                let query = vec![0.0f64; dim];
                assert_eq!(batch::count_within(&query, &rows, dim, 25.0), 1, "n={n} pos={pos}");
                let mut hits = Vec::new();
                batch::search_within_into(&query, &rows, dim, 25.0, &mut hits);
                assert_eq!(hits, vec![pos], "n={n} pos={pos}");
                check_identity(&query, &rows, dim, 25.0);
            }
        }
    }
}

#[test]
fn duplicates_and_signed_zeros_count_consistently() {
    // ±0.0 coordinates are equal under IEEE comparison; duplicates must all
    // match at radius 0 on every path.
    let rows = vec![0.0, -0.0, -0.0, 0.0, 0.0, 0.0, 1.0, 2.0];
    for query in [[0.0, 0.0], [-0.0, -0.0], [-0.0, 0.0]] {
        assert_eq!(batch::count_within(&query, &rows, 2, 0.0), 3);
        check_identity(&query, &rows, 2, 0.0);
    }
}
