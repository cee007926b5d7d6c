//! Density-Peaks Clustering (DPC) and the paper's three fast algorithms,
//! exposed through a **fit-once / relabel-many** pipeline.
//!
//! Given a set `P` of `n` points and a cutoff distance `d_cut`, DPC computes
//! for every point its **local density** `ρ` (number of other points within
//! `d_cut`, inclusive — Definition 1; see the `dpc_geometry` crate docs on the
//! closed-ball boundary semantics) and its **dependent distance** `δ`
//! (distance to the nearest
//! point of higher local density, Definitions 2–3), labels points with
//! `ρ < ρ_min` as noise, selects non-noise points with `δ ≥ δ_min` as cluster
//! centres, and assigns every other point to the cluster of its dependent point.
//!
//! The API mirrors the paper's cost structure. `ρ` and `δ` depend only on
//! `d_cut`, so they are computed once by [`DpcAlgorithm::fit`], which returns a
//! [`DpcModel`]; the thresholds `ρ_min`/`δ_min` only drive the final `O(n)`
//! pass, so they are supplied per call to [`DpcModel::extract`]. This is
//! exactly how analysts use DPC interactively — compute the decision graph
//! once, then sweep thresholds — and it makes each re-thresholding essentially
//! free. The model owns the per-point `ρ`, `δ` and dependents, and an
//! extraction copies none of them: its [`Clustering`] holds only what the
//! thresholds decide, the centres and every point's label, with the timings.
//! Read `ρ`, `δ` and the decision graph from the model:
//!
//! ```
//! use dpc_core::{DpcAlgorithm, DpcParams, ExDpc, Thresholds};
//! use dpc_geometry::Dataset;
//!
//! # fn main() -> Result<(), dpc_core::DpcError> {
//! let data = Dataset::from_flat(2, vec![0.0, 0.0, 0.1, 0.0, 9.0, 9.0, 9.1, 9.0]);
//! // fit: the expensive ρ/δ phases, fallible instead of panicking.
//! let model = ExDpc::new(DpcParams::new(0.5)).fit(&data)?;
//! assert_eq!(model.decision_graph().len(), 4); // one (ρ, δ) per point
//! // extract: O(n) relabel — sweep thresholds without refitting.
//! let loose = model.extract(&Thresholds::new(0.0, 1.0)?);
//! let strict = model.extract(&Thresholds::new(0.0, 50.0)?);
//! assert_eq!(loose.num_clusters(), 2);
//! assert_eq!(strict.num_clusters(), 1);
//! # Ok(())
//! # }
//! ```
//!
//! This crate provides:
//!
//! * the shared framework (parameters, thresholds, errors, fitted model,
//!   decision graph, label propagation) in [`params`], [`error`], [`model`],
//!   [`result`] and [`framework`];
//! * [`ExDpc`] — the exact kd-tree algorithm of §3;
//! * [`ApproxDpc`] — the grid / joint-range-search algorithm of §4, which keeps
//!   cluster centres exact (Theorem 4);
//! * [`SApproxDpc`] — the sampled cell-clustering algorithm of §5 with
//!   approximation parameter `ε`.
//!
//! The baselines the paper compares against (Scan, R-tree + Scan, LSH-DDP,
//! CFSFDP-A, DBSCAN) live in the `dpc-baselines` crate and implement the same
//! trait, so a fitted baseline model is threshold-sweepable too.

#![forbid(unsafe_code)]

pub mod approx;
pub mod error;
pub mod exdpc;
pub mod framework;
pub mod model;
pub mod params;
pub mod result;
pub mod sapprox;
pub mod streaming;

pub use approx::ApproxDpc;
pub use error::DpcError;
pub use exdpc::ExDpc;
pub use model::DpcModel;
pub use params::{DpcParams, Thresholds};
pub use result::{Clustering, DecisionGraph, Timings, NOISE};
pub use sapprox::SApproxDpc;
pub use streaming::{StreamingCounters, StreamingDpc};

/// Per-point cluster labels: `labels[i]` is the cluster index of point `i`, or
/// [`NOISE`] (−1) when the point was classified as noise.
pub type Assignment = Vec<i64>;

/// A Density-Peaks Clustering algorithm: fits the threshold-independent
/// quantities (densities, dependent points) into a reusable [`DpcModel`].
pub trait DpcAlgorithm {
    /// Human-readable algorithm name as used in the paper's tables.
    fn name(&self) -> &'static str;

    /// Runs the expensive, threshold-independent phases — local densities and
    /// dependent points — and returns the fitted model.
    ///
    /// # Errors
    /// * [`DpcError::InvalidParams`] when a structural parameter (`d_cut`, `ε`)
    ///   is outside its domain;
    /// * [`DpcError::EmptyDataset`] when `data` holds no points;
    /// * [`DpcError::NonFiniteCoordinate`] when a coordinate is NaN or ±∞
    ///   (which would silently defeat index pruning instead of failing).
    fn fit(&self, data: &dpc_geometry::Dataset) -> Result<DpcModel, DpcError>;

    /// Convenience one-shot: `fit` followed by a single
    /// [`extract`](DpcModel::extract), matching the seed API's monolithic
    /// `run`. Prefer keeping the model when more than one threshold choice
    /// will be evaluated.
    fn run(
        &self,
        data: &dpc_geometry::Dataset,
        thresholds: &Thresholds,
    ) -> Result<Clustering, DpcError> {
        Ok(self.fit(data)?.extract(thresholds))
    }
}
