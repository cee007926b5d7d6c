//! Geometric primitives shared by every crate in the `fast-dpc` workspace.
//!
//! Density-Peaks Clustering operates on a set of `n` points in a low-dimensional
//! Euclidean space. This crate provides the point representation, distance
//! computations, axis-aligned rectangles (used by the kd-tree and R-tree), and a
//! small dataset container with the bookkeeping that the clustering algorithms
//! need (per-dimension domain, cardinality, dimensionality).
//!
//! The representation is deliberately simple: a [`Point`] is a boxed slice of
//! `f64` coordinates. The paper assumes low dimensionality (2–8 in the
//! evaluation), so a flat `Vec<f64>`-backed dataset with row-major layout keeps
//! cache behaviour predictable without introducing const-generic dimensions into
//! every public signature.
//!
//! # Radius-boundary semantics
//!
//! Every range predicate in the workspace uses the **closed** ball of the
//! paper's Definition 1: a point `q` is within radius `r` of `p` iff
//! `dist(p, q) ≤ r`, i.e. `dist_sq ≤ r²` on squared distances. This is the
//! semantics the grid's neighbour-cell guarantee is stated for ("every point
//! within `d_cut`"), and it is applied uniformly by the [`batch`] kernels, the
//! kd-tree/R-tree pruning tests ([`Rect::intersects_ball`] /
//! [`Rect::inside_ball`]), and the brute-force references in the test suites.
//! Points at distance exactly `d_cut` therefore always count towards ρ, on
//! every code path. (Earlier revisions mixed strict `<` in the trees with the
//! inclusive grid guarantee, which made ρ depend on which index answered.)
//!
//! # Slice-length contract
//!
//! Distance kernels take `&[f64]` slices. Mismatched lengths are upstream
//! logic errors: they are `debug_assert!`ed in [`distance`] and [`batch`],
//! and the debug assertions are the contract. Release builds stay memory-safe
//! but the outcome is unspecified per path: the unrolled `d = 2`/`d = 3`
//! kernels panic on an out-of-bounds index when a slice is short, while
//! [`distance::dist_sq_generic`] (and the dispatchers that reach it, batched
//! included) iterates the shorter slice and silently under-counts axes.
//! Callers must never rely on either behaviour.
//!
//! # Unsafe code
//!
//! The crate denies `unsafe_code`. The x86-64 SIMD kernels of [`batch`] (the
//! `simd` feature) and the two dispatchers that call them are the only items
//! allowed to use it, so `dataset`, `distance`, `point` and `rect` stay safe
//! Rust by construction.

#![deny(unsafe_code)]

pub mod batch;
pub mod dataset;
pub mod distance;
pub mod point;
pub mod rect;

pub use dataset::Dataset;
pub use distance::{dist, dist_sq};
pub use point::Point;
pub use rect::Rect;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reexports_are_usable() {
        let a = Point::new(vec![0.0, 0.0]);
        let b = Point::new(vec![3.0, 4.0]);
        assert_eq!(dist(a.coords(), b.coords()), 5.0);
        let r = Rect::from_points(&[a.clone(), b.clone()]);
        assert!(r.contains(a.coords()));
        assert!(r.contains(b.coords()));
    }
}
