//! The environment every printed number is measured in.

use crate::workload::THREADS;

/// One line naming the host parallelism, thread counts, build options,
/// compiler and source revision.
pub fn stamp() -> String {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "env: available_parallelism={cores} fit_threads={THREADS} client_threads=1 simd={} \
         profile={} rustc=\"{}\" git_rev={}",
        if cfg!(feature = "simd") { "on" } else { "off" },
        if cfg!(debug_assertions) { "debug" } else { "release" },
        env!("PERFBENCH_RUSTC"),
        env!("PERFBENCH_GIT_REV"),
    )
}
