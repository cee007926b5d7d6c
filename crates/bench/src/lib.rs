//! Shared infrastructure for the benchmark harness.
//!
//! Every table and figure of the paper's evaluation section has one binary in
//! `src/bin/` (see DESIGN.md §4 for the experiment index). The binaries share
//! the dataset constructors, the algorithm runner and the output formatting
//! defined here so that, e.g., "default parameters" means the same thing in
//! Table 6 and Figure 7.
//!
//! Scaling: the paper's datasets have 0.9M–5.8M points and its machine has 24
//! cores. The harness defaults to smaller cardinalities so the full suite runs
//! on a laptop-class single core in minutes; every binary accepts `--n <N>` and
//! `--threads <T>` to run at larger scale. EXPERIMENTS.md records which scale
//! produced the committed numbers.

#![forbid(unsafe_code)]

pub mod cli;
pub mod datasets;
pub mod micro;
pub mod paths;
pub mod runner;
pub mod schema;
pub mod stats;

pub use cli::HarnessArgs;
pub use datasets::{bench_dataset, default_params, default_thresholds, BenchDataset};
pub use paths::resolve_out_path;
pub use runner::{fit_algorithm, run_algorithm, Algo};
pub use stats::{percentile, sorted_samples};
