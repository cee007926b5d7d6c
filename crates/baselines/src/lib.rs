//! Baseline algorithms evaluated against Ex-DPC / Approx-DPC / S-Approx-DPC in
//! the paper's experiments (§2.3 and §6):
//!
//! * [`Scan`] — the straightforward `O(n²)` algorithm of §2.2.
//! * [`RtreeScan`] — local densities through an in-memory R-tree, dependent
//!   points through the Scan approach ("R-tree + Scan" in Table 6).
//! * [`LshDdp`] — the state-of-the-art approximation baseline (Zhang et al.,
//!   TKDE 2016): locality-sensitive-hashing buckets, per-bucket density and
//!   dependent-point estimates, and a refinement pass.
//! * [`CfsfdpA`] — the state-of-the-art exact baseline (Bai et al., Pattern
//!   Recognition 2017): k-means pivots plus triangle-inequality filtering for
//!   the density phase; the dependent phase uses the Scan approach, exactly as
//!   the paper does because CFSFDP-A's own dependent phase is `Ω(n²)`.
//! * [`Dbscan`] — used for the cluster-quality comparison of Figure 2.
//!
//! All DPC baselines implement [`dpc_core::DpcAlgorithm`], fit the same
//! [`dpc_core::DpcModel`], and share the tie-breaking jitter of the core
//! crate, so their outputs are directly comparable.

#![forbid(unsafe_code)]

pub mod cfsfdp;
pub mod dbscan;
pub mod lshddp;
pub mod rtree_scan;
pub mod scan;

pub use cfsfdp::CfsfdpA;
pub use dbscan::Dbscan;
pub use lshddp::LshDdp;
pub use rtree_scan::RtreeScan;
pub use scan::Scan;
