//! Cold-start benchmark: installing a serving epoch from a persisted
//! snapshot artifact versus refitting from scratch — the number that
//! justifies the artifact format. Decode + install (`snapshot_cold_load`)
//! skips the ρ/δ phases *and* the kd-tree build; only container validation,
//! structural re-validation and the `O(n)` label propagation remain.
//!
//! Kernels, at the base cardinality and again with an `_xl` suffix at
//! `--xl-n`:
//!
//! * `snapshot_encode`    — serialize model + tree + thresholds;
//! * `model_decode`       — owned `DpcModel::from_bytes` (full validation);
//! * `tree_decode`        — owned `KdTree::from_bytes` (full validation);
//! * `snapshot_cold_load` — `Snapshot::from_artifact_bytes`: the whole
//!   serving install path off bytes;
//! * `full_refit`         — `ExDpc` fit + `Snapshot::new`: what the cold
//!   load replaces.
//!
//! Results go to `BENCH_cold_load.json` (schema in `crates/bench/README.md`).
//!
//! Flags: `--n <points>` (default 20,000), `--xl-n <points>` (default
//! 100,000), `--threads <T>` (default: available parallelism; drives the
//! refit baseline's executor and fit), `--out <json>` (default
//! `BENCH_cold_load.json`, resolved against the workspace root), `--check`
//! (validate the emitted JSON and exit non-zero on schema drift).

use dpc_bench::micro::{bench_record, write_bench_json, BenchRecord};
use dpc_bench::resolve_out_path;
use dpc_bench::schema::{check_or_exit, required};
use dpc_bench::{default_params, default_thresholds, BenchDataset};
use dpc_core::{DpcAlgorithm, DpcModel, ExDpc};
use dpc_index::KdTree;
use dpc_parallel::Executor;
use dpc_persist::{PersistModel, PersistTree, SnapshotArtifact};
use dpc_serve::Snapshot;
use std::sync::Arc;

/// Benchmarks one cardinality tier; `suffix` is `""` or `"_xl"`.
fn run_tier(
    n: usize,
    suffix: &str,
    threads: usize,
    records: &mut Vec<BenchRecord>,
    iters: usize,
    refit_iters: usize,
) {
    let dataset = BenchDataset::Syn;
    let data = dataset.generate(n);
    let d = data.dim();
    let params = default_params(&dataset, threads);
    let thresholds = default_thresholds(params.dcut);
    let executor = Executor::new(threads);

    let algo = ExDpc::new(params);
    let model = algo.fit(&data).expect("fit");
    let tree = KdTree::build(&data);
    let bytes = SnapshotArtifact::encode(&model, &tree, &thresholds);
    println!(
        "cold_load{suffix} ({} n = {n}, artifact {:.1} MiB)",
        dataset.name(),
        bytes.len() as f64 / (1024.0 * 1024.0)
    );

    records.push(bench_record(&format!("snapshot_encode{suffix}"), n, d, iters, || {
        SnapshotArtifact::encode(&model, &tree, &thresholds)
    }));
    records.push(bench_record(&format!("model_decode{suffix}"), n, d, iters, || {
        DpcModel::from_bytes(&bytes).expect("model decode")
    }));
    records.push(bench_record(&format!("tree_decode{suffix}"), n, d, iters, || {
        KdTree::from_bytes(&bytes).expect("tree decode")
    }));
    records.push(bench_record(&format!("snapshot_cold_load{suffix}"), n, d, iters, || {
        Snapshot::from_artifact_bytes(&bytes).expect("cold load")
    }));
    // The baseline the cold load replaces: ρ/δ fit, kd-tree build, extract.
    records.push(bench_record(&format!("full_refit{suffix}"), n, d, refit_iters, || {
        let model = algo.fit(&data).expect("refit");
        Snapshot::new(Arc::new(data.clone()), model, thresholds, &executor)
    }));
}

fn main() {
    let mut n = 20_000usize;
    let mut xl_n = 100_000usize;
    let mut threads = std::thread::available_parallelism().map(|t| t.get()).unwrap_or(1);
    let mut out = resolve_out_path("BENCH_cold_load.json");
    let mut check = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--n" => n = args.next().expect("--n requires a value").parse().expect("--n <points>"),
            "--xl-n" => {
                xl_n =
                    args.next().expect("--xl-n requires a value").parse().expect("--xl-n <points>")
            }
            "--threads" => {
                threads =
                    args.next().expect("--threads requires a value").parse().expect("--threads <T>")
            }
            "--out" => out = resolve_out_path(&args.next().expect("--out requires a path")),
            "--check" => check = true,
            "--bench" => {} // appended by `cargo bench`
            other => panic!(
                "unknown argument: {other} (flags: --n <points> --xl-n <points> --threads <T> --out <json> --check)"
            ),
        }
    }

    let mut records: Vec<BenchRecord> = Vec::new();
    run_tier(n, "", threads, &mut records, 10, 3);
    run_tier(xl_n, "_xl", threads, &mut records, 5, 2);

    write_bench_json(&out, "cold_load", &records).expect("write BENCH json");
    println!("wrote {}", out.display());
    if check {
        check_or_exit(&out, "cold_load", required::COLD_LOAD);
    }
}
