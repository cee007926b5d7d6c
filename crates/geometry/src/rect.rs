//! Axis-aligned rectangles (minimum bounding rectangles).

use crate::distance::{max_dist_sq_to_rect, min_dist_sq_to_rect};

/// An axis-aligned rectangle in `d` dimensions, stored as per-dimension
/// `(lo, hi)` bounds.
///
/// Used as the bounding volume of R-tree nodes and as a dataset's bounding box,
/// which gives the uniform grids of Approx-DPC / S-Approx-DPC their origin.
#[derive(Clone, Debug, PartialEq)]
pub struct Rect {
    lo: Box<[f64]>,
    hi: Box<[f64]>,
}

impl Rect {
    /// Creates a rectangle from explicit bounds.
    ///
    /// # Panics
    /// Panics if the bounds have different lengths, are empty, or if any
    /// `lo[i] > hi[i]`.
    pub fn new(lo: Vec<f64>, hi: Vec<f64>) -> Self {
        assert_eq!(lo.len(), hi.len(), "lo/hi dimensionality mismatch");
        assert!(!lo.is_empty(), "a Rect must have at least one dimension");
        for i in 0..lo.len() {
            assert!(lo[i] <= hi[i], "lo[{i}] > hi[{i}] ({} > {})", lo[i], hi[i]);
        }
        Self { lo: lo.into_boxed_slice(), hi: hi.into_boxed_slice() }
    }

    /// The minimum bounding rectangle of a set of coordinate rows.
    ///
    /// # Panics
    /// Panics if the iterator yields no rows.
    pub fn from_rows<'a, I>(rows: I) -> Self
    where
        I: IntoIterator<Item = &'a [f64]>,
    {
        let mut iter = rows.into_iter();
        let first = iter.next().expect("cannot bound an empty row set");
        let mut lo = first.to_vec();
        let mut hi = first.to_vec();
        for row in iter {
            for i in 0..lo.len() {
                if row[i] < lo[i] {
                    lo[i] = row[i];
                }
                if row[i] > hi[i] {
                    hi[i] = row[i];
                }
            }
        }
        Self::new(lo, hi)
    }

    /// Lower bounds, one per dimension.
    pub fn lo(&self) -> &[f64] {
        &self.lo
    }

    /// Upper bounds, one per dimension.
    pub fn hi(&self) -> &[f64] {
        &self.hi
    }

    /// Dimensionality of the rectangle.
    pub fn dim(&self) -> usize {
        self.lo.len()
    }

    /// Side length along dimension `axis`.
    pub fn extent(&self, axis: usize) -> f64 {
        self.hi[axis] - self.lo[axis]
    }

    /// Whether the rectangle contains the coordinate (closed on all faces).
    pub fn contains(&self, p: &[f64]) -> bool {
        debug_assert_eq!(p.len(), self.dim());
        p.iter().zip(self.lo.iter().zip(self.hi.iter())).all(|(&c, (&lo, &hi))| c >= lo && c <= hi)
    }

    /// Whether the **closed** ball `B̄(center, radius)` intersects the
    /// rectangle (see the crate docs on radius-boundary semantics).
    pub fn intersects_ball(&self, center: &[f64], radius: f64) -> bool {
        min_dist_sq_to_rect(center, &self.lo, &self.hi) <= radius * radius
    }

    /// Whether the rectangle is entirely inside the **closed** ball
    /// `B̄(center, radius)`.
    pub fn inside_ball(&self, center: &[f64], radius: f64) -> bool {
        max_dist_sq_to_rect(center, &self.lo, &self.hi) <= radius * radius
    }

    /// The smallest rectangle covering both `self` and `other`.
    pub fn union(&self, other: &Rect) -> Rect {
        debug_assert_eq!(self.dim(), other.dim());
        let lo = self.lo.iter().zip(other.lo.iter()).map(|(a, b)| a.min(*b)).collect::<Vec<_>>();
        let hi = self.hi.iter().zip(other.hi.iter()).map(|(a, b)| a.max(*b)).collect::<Vec<_>>();
        Rect::new(lo, hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit() -> Rect {
        Rect::new(vec![0.0, 0.0], vec![1.0, 1.0])
    }

    #[test]
    fn basic_accessors() {
        let r = Rect::new(vec![0.0, -1.0], vec![2.0, 3.0]);
        assert_eq!(r.dim(), 2);
        assert_eq!(r.extent(0), 2.0);
        assert_eq!(r.extent(1), 4.0);
    }

    #[test]
    #[should_panic(expected = "lo[0] > hi[0]")]
    fn inverted_bounds_panic() {
        let _ = Rect::new(vec![1.0], vec![0.0]);
    }

    #[test]
    fn contains_is_closed() {
        let r = unit();
        assert!(r.contains(&[0.0, 0.0]));
        assert!(r.contains(&[1.0, 1.0]));
        assert!(r.contains(&[0.5, 0.5]));
        assert!(!r.contains(&[1.0001, 0.5]));
    }

    #[test]
    fn ball_tests() {
        let r = unit();
        assert!(r.intersects_ball(&[0.5, 0.5], 0.1));
        assert!(r.intersects_ball(&[2.0, 0.5], 1.1));
        assert!(r.intersects_ball(&[2.0, 0.5], 1.0)); // closed ball: touching intersects
        assert!(!r.intersects_ball(&[2.0, 0.5], 0.99));
        assert!(r.inside_ball(&[0.5, 0.5], 1.0));
        assert!(!r.inside_ball(&[0.5, 0.5], 0.7));
        // The far corner at distance exactly √0.5 is inside the closed ball.
        assert!(r.inside_ball(&[0.5, 0.5], 0.5f64.sqrt()));
    }

    #[test]
    fn union_covers_both() {
        let a = unit();
        let b = Rect::new(vec![2.0, 2.0], vec![3.0, 3.0]);
        assert_eq!(a.union(&b), Rect::new(vec![0.0, 0.0], vec![3.0, 3.0]));
    }

    #[test]
    fn from_rows_bounds_every_row() {
        let rows: Vec<Vec<f64>> = vec![vec![1.0, 5.0], vec![-2.0, 0.0], vec![4.0, 2.0]];
        let r = Rect::from_rows(rows.iter().map(|r| r.as_slice()));
        assert_eq!(r, Rect::new(vec![-2.0, 0.0], vec![4.0, 5.0]));
    }
}
