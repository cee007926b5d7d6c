//! # fast-dpc
//!
//! A multicore-parallel implementation of Density-Peaks Clustering (DPC),
//! reproducing the algorithms of *"Fast Density-Peaks Clustering:
//! Multicore-based Parallelization Approach"* (SIGMOD 2021):
//!
//! * [`ExDpc`](dpc_core::ExDpc) — exact, kd-tree based, sub-quadratic.
//! * [`ApproxDpc`](dpc_core::ApproxDpc) — grid-accelerated, same cluster
//!   centres as the exact algorithm, fully parallel.
//! * [`SApproxDpc`](dpc_core::SApproxDpc) — sampled cell-clustering variant with
//!   an approximation parameter `ε`.
//!
//! plus the baselines the paper evaluates against (`Scan`, `R-tree + Scan`,
//! `LSH-DDP`, `CFSFDP-A`, `DBSCAN`) and the workload generators of its
//! evaluation section.
//!
//! ## The fit / extract workflow
//!
//! DPC's expensive phases — local densities `ρ` and dependent points/distances
//! `δ` — depend only on the cutoff distance `d_cut`. The thresholds
//! `ρ_min`/`δ_min` only drive the final `O(n)` labelling pass. The API mirrors
//! that split: [`DpcAlgorithm::fit`](dpc_core::DpcAlgorithm::fit) computes the
//! expensive part once into a [`DpcModel`](dpc_core::DpcModel), and
//! [`DpcModel::extract`](dpc_core::DpcModel::extract) relabels for any
//! [`Thresholds`](dpc_core::Thresholds) — so the interactive loop the paper
//! describes (read the decision graph, adjust thresholds, relabel) never
//! refits. All validation is fallible ([`DpcError`](dpc_core::DpcError))
//! instead of panicking.
//!
//! ```
//! use fast_dpc::prelude::*;
//!
//! # fn main() -> Result<(), DpcError> {
//! // Three well-separated blobs.
//! let dataset = gaussian_blobs(&[(0.0, 0.0), (50.0, 50.0), (100.0, 0.0)], 100, 2.0, 7);
//!
//! // Fit once: the O(n·…) ρ/δ phases.
//! let model = ApproxDpc::new(DpcParams::new(6.0)).fit(&dataset)?;
//!
//! // Extract as often as you like: O(n) per threshold choice.
//! let clustering = model.extract(&Thresholds::new(5.0, 20.0)?);
//! assert_eq!(clustering.num_clusters(), 3);
//!
//! // Sweeping a threshold reuses the same model — no recompute.
//! let strict = model.extract(&Thresholds::new(5.0, 200.0)?);
//! assert!(strict.num_clusters() <= clustering.num_clusters());
//! # Ok(())
//! # }
//! ```
//!
//! ## Serving
//!
//! The [`serve`] module (crate `dpc-serve`) packages the workflow for a
//! long-lived process: a [`ModelStore`](dpc_serve::ModelStore) swaps
//! immutable fitted snapshots behind an epoch counter, and a
//! [`DpcServer`](dpc_serve::DpcServer) answers typed
//! [`Request`](dpc_serve::Request)s (`Relabel`, `Assign`, `Stats`) from many
//! threads while refits install in the background. See
//! `examples/sensor_pipeline.rs` and `crates/serve/README.md`.
//!
//! ## Persistence
//!
//! The [`persist`] module (crate `dpc-persist`) writes fitted models, packed
//! kd-trees and whole serving snapshots into a versioned, checksummed on-disk
//! artifact, and decodes it once into owned values
//! ([`PersistModel`](dpc_persist::PersistModel),
//! [`PersistTree`](dpc_persist::PersistTree),
//! [`SnapshotArtifact`](dpc_persist::SnapshotArtifact)), from any byte slice
//! whatever its alignment. Round-trips are bitwise (`layout_eq`), so
//! `ModelStore::load(path)` installs a serving epoch from disk that answers
//! identically to the process that fitted it.
//! The format is specified in `crates/persist/README.md` and pinned by the
//! golden artifacts under `tests/golden/`.

#![forbid(unsafe_code)]

pub use dpc_baselines as baselines;
pub use dpc_core as core;
pub use dpc_data as data;
pub use dpc_eval as eval;
pub use dpc_geometry as geometry;
pub use dpc_index as index;
pub use dpc_parallel as parallel;
pub use dpc_persist as persist;
pub use dpc_rng as rng;
pub use dpc_serve as serve;

/// Convenience re-exports covering the common workflow: generate or load a
/// dataset, pick structural parameters, fit a model, extract clusterings at
/// one or more thresholds, evaluate the result.
pub mod prelude {
    pub use dpc_baselines::{CfsfdpA, Dbscan, LshDdp, RtreeScan, Scan};
    pub use dpc_core::{
        ApproxDpc, Assignment, Clustering, DecisionGraph, DpcAlgorithm, DpcError, DpcModel,
        DpcParams, ExDpc, SApproxDpc, StreamingDpc, Thresholds, NOISE,
    };
    pub use dpc_data::generators::{gaussian_blobs, random_walk, s_set};
    pub use dpc_eval::{adjusted_rand_index, rand_index};
    pub use dpc_geometry::Dataset;
    pub use dpc_parallel::Executor;
    pub use dpc_persist::{PersistModel, PersistTree, SnapshotArtifact};
    pub use dpc_serve::{
        DpcServer, Health, IngestResponse, ModelStore, RefitPolicy, Request, Response, ServeConfig,
        ServeError, Snapshot,
    };
}
