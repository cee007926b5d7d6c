//! Clustering evaluation utilities.
//!
//! The paper measures approximation quality with the **Rand index** between an
//! approximate clustering and Ex-DPC's exact clustering (Tables 2–5). This
//! crate provides the exact pair-counting Rand index, the adjusted Rand index,
//! and a sampled estimator for datasets where the `O(k²·…)` contingency table
//! is fine but callers want an `O(pairs)` spot check, plus small helpers used
//! by the benchmark harness (formatting, memory conversion).

#![forbid(unsafe_code)]

pub mod rand_index;
pub mod report;

pub use rand_index::{adjusted_rand_index, rand_index, sampled_rand_index};
pub use report::{format_duration, mebibytes};
