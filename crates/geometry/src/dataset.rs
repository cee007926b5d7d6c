//! A flat, row-major dataset container.

use crate::rect::Rect;

/// An in-memory set of `n` points in `d`-dimensional space.
///
/// Coordinates are stored contiguously in row-major order (`n * d` values),
/// which is the layout every algorithm in the workspace iterates over. Point
/// identifiers are simply row indices `0..n`, matching the paper's `p_i`
/// notation.
#[derive(Clone, Debug, PartialEq)]
pub struct Dataset {
    dim: usize,
    coords: Vec<f64>,
}

impl Dataset {
    /// Creates an empty dataset of the given dimensionality.
    ///
    /// # Panics
    /// Panics if `dim == 0`.
    pub fn new(dim: usize) -> Self {
        assert!(dim > 0, "dimensionality must be positive");
        Self { dim, coords: Vec::new() }
    }

    /// Creates an empty dataset with room for `capacity` points.
    pub fn with_capacity(dim: usize, capacity: usize) -> Self {
        assert!(dim > 0, "dimensionality must be positive");
        Self { dim, coords: Vec::with_capacity(capacity * dim) }
    }

    /// Builds a dataset from a flat row-major coordinate buffer.
    ///
    /// # Panics
    /// Panics if `dim == 0` or if the buffer length is not a multiple of `dim`.
    pub fn from_flat(dim: usize, coords: Vec<f64>) -> Self {
        assert!(dim > 0, "dimensionality must be positive");
        assert!(
            coords.len() % dim == 0,
            "coordinate buffer length {} is not a multiple of dim {}",
            coords.len(),
            dim
        );
        Self { dim, coords }
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.coords.len() / self.dim
    }

    /// Whether the dataset holds no points.
    pub fn is_empty(&self) -> bool {
        self.coords.is_empty()
    }

    /// Dimensionality of every point.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Borrows the coordinates of point `id`.
    ///
    /// # Panics
    /// Panics if `id >= self.len()`.
    #[inline]
    pub fn point(&self, id: usize) -> &[f64] {
        let start = id * self.dim;
        &self.coords[start..start + self.dim]
    }

    /// Appends a point given as a coordinate slice and returns its identifier.
    ///
    /// # Panics
    /// Panics if the slice dimensionality does not match the dataset.
    pub fn push(&mut self, coords: &[f64]) -> usize {
        assert_eq!(coords.len(), self.dim, "dimensionality mismatch on push");
        self.coords.extend_from_slice(coords);
        self.len() - 1
    }

    /// Iterates over `(id, coordinates)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &[f64])> + '_ {
        self.coords.chunks_exact(self.dim).enumerate()
    }

    /// The raw row-major coordinate buffer.
    pub fn flat(&self) -> &[f64] {
        &self.coords
    }

    /// The minimum bounding rectangle of the dataset, or `None` when empty.
    pub fn bounding_rect(&self) -> Option<Rect> {
        if self.is_empty() {
            return None;
        }
        Some(Rect::from_rows(self.coords.chunks_exact(self.dim)))
    }

    /// Builds a new dataset containing only the rows whose identifiers are in
    /// `ids` (in the given order). Identifiers in the returned dataset are
    /// renumbered `0..ids.len()`.
    pub fn select(&self, ids: &[usize]) -> Dataset {
        let mut out = Dataset::with_capacity(self.dim, ids.len());
        for &id in ids {
            out.push(self.point(id));
        }
        out
    }

    /// Approximate heap memory used by the coordinate buffer, in bytes.
    pub fn mem_usage(&self) -> usize {
        self.coords.capacity() * std::mem::size_of::<f64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Dataset {
        Dataset::from_flat(2, vec![0.0, 0.0, 1.0, 1.0, 2.0, 4.0])
    }

    #[test]
    fn construction_and_len() {
        let ds = sample();
        assert_eq!(ds.len(), 3);
        assert_eq!(ds.dim(), 2);
        assert!(!ds.is_empty());
        assert_eq!(ds.point(1), &[1.0, 1.0]);
    }

    #[test]
    fn push_appends_rows() {
        let mut ds = Dataset::new(3);
        assert!(ds.is_empty());
        let id0 = ds.push(&[1.0, 2.0, 3.0]);
        let id1 = ds.push(&[4.0, 5.0, 6.0]);
        assert_eq!((id0, id1), (0, 1));
        assert_eq!(ds.len(), 2);
        assert_eq!(ds.point(1), &[4.0, 5.0, 6.0]);
    }

    #[test]
    #[should_panic(expected = "dimensionality mismatch")]
    fn push_wrong_dim_panics() {
        let mut ds = Dataset::new(2);
        ds.push(&[1.0, 2.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "not a multiple")]
    fn from_flat_validates_length() {
        let _ = Dataset::from_flat(2, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn iter_yields_ids_in_order() {
        let ds = sample();
        let ids: Vec<usize> = ds.iter().map(|(id, _)| id).collect();
        assert_eq!(ids, vec![0, 1, 2]);
        let last = ds.iter().last().unwrap();
        assert_eq!(last.1, &[2.0, 4.0]);
    }

    #[test]
    fn bounding_rect_covers_all_points() {
        let ds = sample();
        let r = ds.bounding_rect().unwrap();
        assert_eq!(r, Rect::new(vec![0.0, 0.0], vec![2.0, 4.0]));
        assert!(Dataset::new(2).bounding_rect().is_none());
    }

    #[test]
    fn select_renumbers_rows() {
        let ds = sample();
        let sub = ds.select(&[2, 0]);
        assert_eq!(sub.len(), 2);
        assert_eq!(sub.point(0), &[2.0, 4.0]);
        assert_eq!(sub.point(1), &[0.0, 0.0]);
    }

    #[test]
    fn mem_usage_is_nonzero_for_nonempty() {
        assert!(sample().mem_usage() >= 6 * std::mem::size_of::<f64>());
    }
}
