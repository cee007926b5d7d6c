//! Euclidean distance kernels.
//!
//! Local-density computation (Definition 1 of the paper) compares distances
//! against the cutoff `d_cut`; every comparison can be done on squared
//! distances, avoiding the square root on the innermost loop. Both forms are
//! provided and the rest of the workspace consistently uses [`dist_sq`] inside
//! hot loops and [`dist`] only where an actual distance value is reported.

/// Squared Euclidean distance between two coordinate slices.
///
/// Dispatches to fully unrolled kernels for the common low dimensionalities
/// (`d = 2` and `d = 3`, the bulk of the paper's workloads) and falls back to
/// the generic loop otherwise. All kernels accumulate terms in the same axis
/// order, so results are bit-identical across the dispatch paths.
///
/// # Panics
/// Panics (in debug builds) if the slices have different lengths. Callers must
/// only pass same-dimensional slices — see the crate docs for the release-mode
/// contract shared with the [`crate::batch`] kernels.
#[inline]
pub fn dist_sq(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len(), "dimensionality mismatch");
    match a.len() {
        2 => dist_sq_2(a, b),
        3 => dist_sq_3(a, b),
        _ => dist_sq_generic(a, b),
    }
}

/// Unrolled `d = 2` squared-distance kernel.
///
/// # Panics
/// Panics if either slice is shorter than 2.
#[inline]
pub fn dist_sq_2(a: &[f64], b: &[f64]) -> f64 {
    let dx = a[0] - b[0];
    let dy = a[1] - b[1];
    dx * dx + dy * dy
}

/// Unrolled `d = 3` squared-distance kernel.
///
/// # Panics
/// Panics if either slice is shorter than 3.
#[inline]
pub fn dist_sq_3(a: &[f64], b: &[f64]) -> f64 {
    let dx = a[0] - b[0];
    let dy = a[1] - b[1];
    let dz = a[2] - b[2];
    dx * dx + dy * dy + dz * dz
}

/// Generic squared-distance loop for arbitrary dimensionality.
///
/// # Panics
/// Panics (in debug builds) if the slices have different lengths; release
/// builds would otherwise iterate the shorter slice (see the crate docs for
/// the release-mode contract).
#[inline]
pub fn dist_sq_generic(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len(), "dimensionality mismatch");
    let mut acc = 0.0;
    for (x, y) in a.iter().zip(b.iter()) {
        let diff = x - y;
        acc += diff * diff;
    }
    acc
}

/// Euclidean distance between two coordinate slices.
#[inline]
pub fn dist(a: &[f64], b: &[f64]) -> f64 {
    dist_sq(a, b).sqrt()
}

/// Squared distance from a coordinate slice to an axis-aligned rectangle given
/// by per-dimension `(min, max)` bounds. Returns `0.0` when the point lies
/// inside the rectangle.
///
/// This is the pruning predicate used by the kd-tree and R-tree: a subtree can
/// be skipped when `min_dist_sq_to_rect(query, lo, hi) > radius²`.
#[inline]
pub fn min_dist_sq_to_rect(p: &[f64], lo: &[f64], hi: &[f64]) -> f64 {
    debug_assert_eq!(p.len(), lo.len());
    debug_assert_eq!(p.len(), hi.len());
    let mut acc = 0.0;
    for i in 0..p.len() {
        let v = p[i];
        let d = if v < lo[i] {
            lo[i] - v
        } else if v > hi[i] {
            v - hi[i]
        } else {
            0.0
        };
        acc += d * d;
    }
    acc
}

/// Squared distance from a coordinate slice to the farthest corner of an
/// axis-aligned rectangle. Useful for "the whole rectangle is within the query
/// ball" tests, which let range counting add an entire subtree without visiting
/// its leaves.
#[inline]
pub fn max_dist_sq_to_rect(p: &[f64], lo: &[f64], hi: &[f64]) -> f64 {
    debug_assert_eq!(p.len(), lo.len());
    debug_assert_eq!(p.len(), hi.len());
    let mut acc = 0.0;
    for i in 0..p.len() {
        let d = (p[i] - lo[i]).abs().max((p[i] - hi[i]).abs());
        acc += d * d;
    }
    acc
}

/// Squared minimum distance between the rectangles `[alo, ahi]` and
/// `[blo, bhi]`: `0.0` when they overlap.
///
/// A lower bound on `fl(dist_sq(a, b))` for every `a` in the first rectangle
/// and `b` in the second, and on `min_dist_sq_to_rect(a, blo, bhi)`: each
/// per-axis gap is a rounded difference of bounds, which rounding keeps
/// monotone in its operands, and the squares are summed from `0.0` in
/// ascending axis order, as [`dist_sq`] sums them. So `> r²` here proves
/// that no pair of points lies within the closed ball.
#[inline]
pub fn min_dist_sq_rect_rect(alo: &[f64], ahi: &[f64], blo: &[f64], bhi: &[f64]) -> f64 {
    let mut acc = 0.0;
    for a in 0..alo.len() {
        let d = (blo[a] - ahi[a]).max(alo[a] - bhi[a]).max(0.0);
        acc += d * d;
    }
    acc
}

/// Squared maximum distance between the rectangles `[alo, ahi]` and
/// `[blo, bhi]`: between their two farthest corners.
///
/// An upper bound on `fl(dist_sq(a, b))` for every `a` in the first rectangle
/// and `b` in the second, and on `max_dist_sq_to_rect(a, blo, bhi)`, by the
/// same monotone-rounding argument as [`min_dist_sq_rect_rect`]. So `≤ r²`
/// here proves that every pair lies within the closed ball.
#[inline]
pub fn max_dist_sq_rect_rect(alo: &[f64], ahi: &[f64], blo: &[f64], bhi: &[f64]) -> f64 {
    let mut acc = 0.0;
    for a in 0..alo.len() {
        // Both rects are non-empty, so the max of the two spans is ≥ 0.
        let d = (bhi[a] - alo[a]).max(ahi[a] - blo[a]);
        acc += d * d;
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dist_matches_pythagoras() {
        assert_eq!(dist(&[0.0, 0.0], &[3.0, 4.0]), 5.0);
        assert_eq!(dist_sq(&[0.0, 0.0], &[3.0, 4.0]), 25.0);
    }

    #[test]
    fn specialized_kernels_are_bit_identical_to_generic() {
        let samples = [
            (vec![1.5, -2.25], vec![0.125, 7.75]),
            (vec![1e-9, 1e9], vec![-3.5, 2.0]),
            (vec![0.1, 0.2, 0.3], vec![-0.4, 0.5, -0.6]),
            (vec![1e8, -1e8, 1e-8], vec![0.0, 0.0, 0.0]),
        ];
        for (a, b) in &samples {
            let generic = dist_sq_generic(a, b);
            assert_eq!(dist_sq(a, b), generic);
            match a.len() {
                2 => assert_eq!(dist_sq_2(a, b), generic),
                3 => assert_eq!(dist_sq_3(a, b), generic),
                _ => unreachable!(),
            }
        }
        // Higher dimensionalities take the generic path.
        let a = vec![1.0; 8];
        let b = vec![3.0; 8];
        assert_eq!(dist_sq(&a, &b), 32.0);
    }

    #[test]
    fn distance_to_self_is_zero() {
        let p = [1.5, -2.0, 7.25];
        assert_eq!(dist(&p, &p), 0.0);
    }

    #[test]
    fn distance_is_symmetric() {
        let a = [1.0, 2.0, 3.0];
        let b = [-4.0, 0.5, 9.0];
        assert_eq!(dist_sq(&a, &b), dist_sq(&b, &a));
    }

    #[test]
    fn min_dist_inside_rect_is_zero() {
        let lo = [0.0, 0.0];
        let hi = [10.0, 10.0];
        assert_eq!(min_dist_sq_to_rect(&[5.0, 5.0], &lo, &hi), 0.0);
        assert_eq!(min_dist_sq_to_rect(&[0.0, 10.0], &lo, &hi), 0.0);
    }

    #[test]
    fn min_dist_outside_rect() {
        let lo = [0.0, 0.0];
        let hi = [10.0, 10.0];
        // 3 units left, 4 units above the rectangle.
        assert_eq!(min_dist_sq_to_rect(&[-3.0, 14.0], &lo, &hi), 25.0);
    }

    #[test]
    fn max_dist_reaches_far_corner() {
        let lo = [0.0, 0.0];
        let hi = [10.0, 10.0];
        // From the origin corner, the farthest corner is (10, 10).
        assert_eq!(max_dist_sq_to_rect(&[0.0, 0.0], &lo, &hi), 200.0);
        // From the centre the farthest corner is 5,5 away in each axis.
        assert_eq!(max_dist_sq_to_rect(&[5.0, 5.0], &lo, &hi), 50.0);
    }

    #[test]
    fn min_le_max_dist() {
        let lo = [-1.0, -1.0, -1.0];
        let hi = [1.0, 2.0, 3.0];
        let q = [5.0, -3.0, 0.5];
        assert!(min_dist_sq_to_rect(&q, &lo, &hi) <= max_dist_sq_to_rect(&q, &lo, &hi));
    }

    #[test]
    fn rect_rect_bounds_enclose_every_pair() {
        let (alo, ahi) = ([0.0, 0.0], [2.0, 1.0]);
        let (blo, bhi) = ([5.0, -3.0], [6.0, 4.0]);
        // A gap of 3 on x and none on y; the farthest corners lie 6 apart on
        // x and 4 on y.
        assert_eq!(min_dist_sq_rect_rect(&alo, &ahi, &blo, &bhi), 9.0);
        assert_eq!(max_dist_sq_rect_rect(&alo, &ahi, &blo, &bhi), 36.0 + 16.0);
        assert_eq!(min_dist_sq_rect_rect(&alo, &ahi, &alo, &ahi), 0.0);
        assert_eq!(max_dist_sq_rect_rect(&alo, &ahi, &alo, &ahi), 5.0);
        let corners = |lo: [f64; 2], hi: [f64; 2]| {
            [[lo[0], lo[1]], [lo[0], hi[1]], [hi[0], lo[1]], [hi[0], hi[1]]]
        };
        for a in corners(alo, ahi) {
            for b in corners(blo, bhi) {
                let d = dist_sq(&a, &b);
                assert!(min_dist_sq_rect_rect(&alo, &ahi, &blo, &bhi) <= d);
                assert!(d <= max_dist_sq_rect_rect(&alo, &ahi, &blo, &bhi));
            }
        }
    }

    #[test]
    fn triangle_inequality_holds_on_samples() {
        let pts = [vec![0.0, 0.0], vec![1.0, 3.0], vec![-2.5, 4.0], vec![7.0, -1.0]];
        for a in &pts {
            for b in &pts {
                for c in &pts {
                    assert!(dist(a, c) <= dist(a, b) + dist(b, c) + 1e-12);
                }
            }
        }
    }
}
