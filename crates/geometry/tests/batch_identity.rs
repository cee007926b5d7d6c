//! Bit-identity property tests for the batched distance kernels.
//!
//! The dispatching count kernel of `dpc_geometry::batch` must be
//! **bit-identical** to the scalar reference, whatever path it takes (the
//! fixed-dimension loop for d ∈ {2, 3, 4, 8}, the scalar loop otherwise), and
//! the search kernel must report exactly the rows that a brute-force
//! `dist_sq(query, row) <= r_sq` filter keeps, in row order. The pair
//! kernels of the self-join, block and triangle, must give both ends of
//! every pair the counts of a brute-force `dist_sq(a, b) <= r_sq` double
//! loop, for every d from 1 to 8, with empty blocks, rows at exactly `r²`
//! and a NaN `r²`. The single-query inputs sweep the dimensionalities of the
//! paper's workloads (2, 3, 4, 8) plus 5, the first one the count dispatcher
//! leaves to the generic loop. Every input mixes duplicates, collinear rows,
//! `±0.0`, subnormals and `1e±150` magnitudes, and radii placed *exactly* on
//! row distances so the closed-ball boundary is exercised bit-for-bit.
//!
//! The nearest-denser kernel must return the bits of its scalar reference on
//! every path, for d ∈ {2, 3, 4, 5, 8}, with masked rows, all-masked blocks,
//! NaN keys, equal distances and a running best that is already set.
//!
//! The compiler vectorises the fixed-dimension loops only in optimised builds,
//! so the suite runs on both the dev and the release profile (CI runs both).

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

/// Asserts every kernel agrees with its reference, bit for bit.
fn check_identity(query: &[f64], rows: &[f64], dim: usize, r_sq: f64) {
    let count_ref = batch::count_within_scalar(query, rows, dim, r_sq);
    assert_eq!(batch::count_within(query, rows, dim, r_sq), count_ref, "count (d={dim})");

    let hits_ref: Vec<usize> = rows
        .chunks_exact(dim)
        .enumerate()
        .filter(|(_, row)| dist_sq(query, row) <= r_sq)
        .map(|(k, _)| k)
        .collect();
    let mut hits = Vec::new();
    batch::search_within_into(query, rows, dim, r_sq, &mut hits);
    assert_eq!(hits, hits_ref, "search (d={dim})");
}

#[test]
fn simd_and_scalar_kernels_are_bit_identical() {
    let mut rng = StdRng::seed_from_u64(0xBA7C4);
    for dim in [2usize, 3, 4, 5, 8] {
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
    for dim in [2usize, 3, 4, 8] {
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

/// The brute-force pair reference: both ends' counts of every pair `(i, j)`
/// of `a × b` with `dist_sq(a_i, b_j) <= r_sq`.
fn brute_block(a: &[f64], b: &[f64], dim: usize, r_sq: f64) -> (Vec<u32>, Vec<u32>) {
    let (mut ca, mut cb) = (vec![0u32; a.len() / dim], vec![0u32; b.len() / dim]);
    for (i, x) in a.chunks_exact(dim).enumerate() {
        for (j, y) in b.chunks_exact(dim).enumerate() {
            if dist_sq(x, y) <= r_sq {
                ca[i] += 1;
                cb[j] += 1;
            }
        }
    }
    (ca, cb)
}

/// Asserts the block kernel on `a × b` and the triangle kernel on `a` and on
/// `b` against the brute-force double loop, on both sides' counts.
fn check_pair_identity(a: &[f64], b: &[f64], dim: usize, r_sq: f64) {
    let (want_a, want_b) = brute_block(a, b, dim, r_sq);
    let (mut got_a, mut got_b) = (vec![0u32; a.len() / dim], vec![0u32; b.len() / dim]);
    batch::count_pairs_block(a, b, dim, r_sq, &mut got_a, &mut got_b);
    assert_eq!((&got_a, &got_b), (&want_a, &want_b), "block (d={dim}, r²={r_sq})");
    for rows in [a, b] {
        // The triangle's reference: each row's count among the other rows.
        let want: Vec<u32> = rows
            .chunks_exact(dim)
            .enumerate()
            .map(|(i, x)| {
                let others = rows.chunks_exact(dim).enumerate().filter(|&(j, _)| j != i);
                others.filter(|(_, y)| dist_sq(x, y) <= r_sq).count() as u32
            })
            .collect();
        let mut got = vec![0u32; rows.len() / dim];
        batch::count_pairs_triangle(rows, dim, r_sq, &mut got);
        assert_eq!(got, want, "triangle (d={dim}, r²={r_sq})");
    }
}

#[test]
fn pair_kernels_match_a_brute_double_loop() {
    let mut rng = StdRng::seed_from_u64(0x9A1E5);
    for dim in 1..=8usize {
        // Block sizes around the kd-tree's leaf bucket, empty blocks included.
        for (na, nb) in [(0usize, 0usize), (0, 5), (4, 0), (1, 1), (3, 7), (16, 16), (15, 17)] {
            for _ in 0..4 {
                let a = build_rows(&mut rng, na, dim);
                let b = build_rows(&mut rng, nb, dim);
                let mut radii = vec![0.0, 1.0, 25.0, 1e300, f64::INFINITY, f64::NAN];
                // Rows at exactly r²: the squared distances of some pairs.
                for (x, y) in a.chunks_exact(dim).zip(b.chunks_exact(dim).rev()) {
                    radii.push(dist_sq(x, y));
                }
                for r_sq in radii {
                    check_pair_identity(&a, &b, dim, r_sq);
                }
            }
        }
    }
}

#[test]
fn pair_kernels_count_rows_at_exactly_r_sq_on_both_ends() {
    // One 3-4-5 pair at squared distance exactly 25 in every dimension, at
    // every position of two 1–20-row blocks; every other row is far away.
    for dim in 2..=8usize {
        for n in 1..=20usize {
            for pos in 0..n {
                let mut a = vec![0.0f64; n * dim];
                let mut b = vec![0.0f64; n * dim];
                for k in 0..n {
                    a[k * dim] = 1000.0 * (k + 1) as f64;
                    b[k * dim] = -1000.0 * (k + 1) as f64;
                }
                a[pos * dim] = 0.0;
                (b[pos * dim], b[pos * dim + 1]) = (3.0, 4.0);
                let (mut ca, mut cb) = (vec![0u32; n], vec![0u32; n]);
                batch::count_pairs_block(&a, &b, dim, 25.0, &mut ca, &mut cb);
                let mut want = vec![0u32; n];
                want[pos] = 1;
                assert_eq!((&ca, &cb), (&want, &want), "d={dim} n={n} pos={pos}");
                check_pair_identity(&a, &b, dim, 25.0);
                check_pair_identity(&a, &b, dim, 25.0 - 1e-12);
            }
        }
    }
}

#[test]
fn a_nan_r_sq_credits_nothing() {
    let mut rng = StdRng::seed_from_u64(0x0A4);
    for dim in 1..=8usize {
        let rows = build_rows(&mut rng, 17, dim);
        let (mut ca, mut cb) = (vec![0u32; 17], vec![0u32; 17]);
        batch::count_pairs_block(&rows, &rows, dim, f64::NAN, &mut ca, &mut cb);
        batch::count_pairs_triangle(&rows, dim, f64::NAN, &mut ca);
        assert!(ca.iter().chain(&cb).all(|&c| c == 0), "d={dim}");
    }
}

/// Asserts the nearest-denser kernel against its scalar reference, bit for
/// bit, and returns the answer.
fn check_denser(
    query: &[f64],
    rows: &[f64],
    dim: usize,
    keys: &[f64],
    ids: &[u32],
    key: f64,
    best: (f64, u32),
) -> (f64, u32) {
    let want = batch::nearest_denser_in_scalar(query, rows, dim, keys, ids, key, best);
    let got = batch::nearest_denser_in(query, rows, dim, keys, ids, key, best);
    assert_eq!(
        (got.0.to_bits(), got.1),
        (want.0.to_bits(), want.1),
        "d={dim} key={key} best={best:?}"
    );
    got
}

#[test]
fn nearest_denser_kernel_matches_the_scalar_loop() {
    let mut rng = StdRng::seed_from_u64(0xDE45E);
    for dim in [2usize, 3, 4, 5, 8] {
        for n in [0usize, 1, 2, 3, 5, 8, 15, 16, 17, 33] {
            for _ in 0..8 {
                let rows = build_rows(&mut rng, n, dim);
                let query: Vec<f64> = (0..dim).map(|_| special_value(&mut rng)).collect();
                // Few distinct keys, so many rows tie the threshold; some are
                // −∞ (hidden) and some NaN (never chosen).
                let keys: Vec<f64> = (0..n)
                    .map(|_| match rng.gen_range(0.0..1.0) {
                        x if x < 0.15 => f64::NEG_INFINITY,
                        x if x < 0.25 => f64::NAN,
                        _ => rng.gen_range(0.0..4.0).floor(),
                    })
                    .collect();
                let mut ids: Vec<u32> = (0..n as u32).map(|i| 3 * i + 7).collect();
                rng.shuffle(&mut ids);
                // Running bests: none yet, one at a row's exact distance with
                // a middling id (ties both ways), and one nothing beats.
                let mut bests = vec![(f64::INFINITY, u32::MAX), (0.0, 0), (f64::INFINITY, 5)];
                for row in rows.chunks_exact(dim).take(3) {
                    bests.push((dist_sq(&query, row), 3 * (n as u32) / 2 + 7));
                }
                for key in [f64::NEG_INFINITY, 0.0, 1.0, 2.5, 3.0, f64::NAN] {
                    for &best in &bests {
                        check_denser(&query, &rows, dim, &keys, &ids, key, best);
                    }
                }
            }
        }
    }
}

#[test]
fn nearest_denser_kernel_never_picks_a_masked_row() {
    for dim in [2usize, 3, 4, 5, 8] {
        // A block of coincident rows at the query: every distance is 0.
        let n = 17;
        let rows = vec![1.0f64; n * dim];
        let query = vec![1.0f64; dim];
        let ids: Vec<u32> = (0..n as u32).rev().collect();
        let none = (f64::INFINITY, u32::MAX);
        // All masked (keys at or below the threshold, −∞ or NaN): the best
        // stays untouched, even when it is "nothing found yet".
        for masked in [2.0, f64::NEG_INFINITY, f64::NAN] {
            let keys = vec![masked; n];
            for best in [none, (4.0, 9), (0.0, 3)] {
                let got = check_denser(&query, &rows, dim, &keys, &ids, 2.0, best);
                assert_eq!((got.0.to_bits(), got.1), (best.0.to_bits(), best.1), "d={dim}");
            }
        }
        // Equal distances go to the smallest unmasked id: ids descend with
        // the row, rows 13.. are masked (NaN or −∞), so row 12 (id 4) wins.
        let mut keys = vec![5.0; n];
        keys[13..].copy_from_slice(&[f64::NAN, f64::NEG_INFINITY, f64::NAN, 2.0]);
        assert_eq!(check_denser(&query, &rows, dim, &keys, &ids, 2.0, none), (0.0, 4), "d={dim}");
        // A tie with the running best keeps the smaller id.
        assert_eq!(check_denser(&query, &rows, dim, &keys, &ids, 2.0, (0.0, 1)), (0.0, 1));
        // A NaN key on the only near row: the far row answers.
        let mut rows = vec![100.0f64; 2 * dim];
        rows[..dim].copy_from_slice(&query);
        let got = check_denser(&query, &rows, dim, &[f64::NAN, 3.0], &[0, 1], 2.0, none);
        assert_eq!(got, ((99.0f64 * 99.0) * dim as f64, 1), "d={dim}");
    }
}
