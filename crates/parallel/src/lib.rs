//! Multicore execution primitives for fast-dpc.
//!
//! The paper parallelises its algorithms with OpenMP-style loops and one
//! divide-and-conquer build; this crate provides exactly those two shapes:
//!
//! * **Dynamic self-scheduling** ([`Executor::map_dynamic`]) — the
//!   equivalent of OpenMP's `#pragma omp parallel for schedule(dynamic)` used
//!   by Ex-DPC's local-density phase (§3): an idle worker repeatedly claims
//!   the next unprocessed item, so expensive items (dense regions) do not
//!   serialise behind a static split. Every algorithm's ρ, δ and per-cell
//!   phases schedule this way. Dynamic claims balance every phase without a
//!   cost model, so the cost-based (LPT) partitioning the paper gives
//!   Approx-DPC (§4.5) is not needed.
//! * **Fork-join** ([`Executor::join`]) — two independent closures run as a
//!   scoped task pair, which gives divide-and-conquer callers (the parallel
//!   packed kd-tree build in `dpc-index`) depth-limited nested parallelism
//!   without a work-stealing runtime.
//!
//! Both primitives run inline when the executor has a single thread, so the
//! single-threaded numbers reported by the benchmark harness contain no
//! synchronisation overhead.

#![forbid(unsafe_code)]

pub mod executor;

pub use executor::Executor;
