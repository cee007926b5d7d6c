//! End-to-end and per-layer benchmark of the fast-dpc workspace.
//!
//! `perfbench --workload <syn_fit|household_fit|all> --seed <n>
//! --seconds <s> --trace <0|1>` generates a seeded workload, runs it for the
//! given time, checks every output, and prints one metric per line followed by
//! a single JSON result line. With `--trace 0` the metrics are end-to-end
//! (what a user of the library or the server sees); with `--trace 1` the same
//! workload is replayed through the layers' public functions with spans
//! recorded around every call, and the metrics are per layer.

pub mod env;
pub mod pipeline;
pub mod replay;
pub mod stats;
pub mod trace;
pub mod workload;
