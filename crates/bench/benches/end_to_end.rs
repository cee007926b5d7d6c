//! End-to-end benchmark: every algorithm on the Syn dataset. The harness
//! binaries in `src/bin` cover the paper-scale sweeps; this bench is the
//! regression guard for the relative ordering (who is faster than whom), and
//! it also records the fit-vs-extract asymmetry the model API is built on and
//! the index build cost the full pipelines sit on top of.
//!
//! The `fit_extract_*` kernels run round-robin (every iteration fits each
//! algorithm once, in turn), so host noise spreads over all of them.
//!
//! Results are written to `BENCH_e2e.json` (schema in
//! `crates/bench/README.md`) so the end-to-end trajectory is recorded PR over
//! PR.
//!
//! Flags: `--n <points>` (default 100,000), `--threads <T>` (default:
//! available hardware parallelism; used by the parallel-build kernel — the
//! algorithm kernels run single-threaded so the trajectory measures the
//! pipelines, not the scheduler), `--out <json>` (default `BENCH_e2e.json`),
//! `--check` (validate the emitted JSON and exit non-zero on schema drift).

use dpc_bench::micro::{bench_record, bench_records_round_robin, write_bench_json, BenchRecord};
use dpc_bench::resolve_out_path;
use dpc_bench::schema::{check_or_exit, required};
use dpc_bench::{default_params, default_thresholds, Algo, BenchDataset};
use dpc_index::KdTree;
use dpc_parallel::Executor;

/// The quadratic baselines (Scan's ρ phase, R-tree + Scan's and CFSFDP-A's
/// dependent phases) are only timed up to this cardinality.
const QUADRATIC_MAX_N: usize = 20_000;

/// A kernel label from an algorithm display name: lowercase, with every
/// non-alphanumeric run collapsed to one `_` (`"R-tree + Scan"` →
/// `"r_tree_scan"`).
fn kernel_label(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for c in name.chars() {
        if c.is_ascii_alphanumeric() {
            out.push(c.to_ascii_lowercase());
        } else if !out.ends_with('_') && !out.is_empty() {
            out.push('_');
        }
    }
    out.trim_end_matches('_').to_string()
}

fn main() {
    let mut n = 100_000usize;
    let mut threads = std::thread::available_parallelism().map(|t| t.get()).unwrap_or(1);
    let mut out = resolve_out_path("BENCH_e2e.json");
    let mut check = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--n" => n = args.next().expect("--n requires a value").parse().expect("--n <points>"),
            "--threads" => {
                threads =
                    args.next().expect("--threads requires a value").parse().expect("--threads <T>")
            }
            "--out" => out = resolve_out_path(&args.next().expect("--out requires a path")),
            "--check" => check = true,
            "--bench" => {} // appended by `cargo bench`
            other => panic!(
                "unknown argument: {other} (flags: --n <points> --threads <T> --out <json> --check)"
            ),
        }
    }

    let dataset = BenchDataset::Syn;
    let data = dataset.generate(n);
    let d = data.dim();
    let params = default_params(&dataset, 1);
    let thresholds = default_thresholds(params.dcut);
    let executor = Executor::new(threads);
    println!("end_to_end ({} n = {n}, threads = {threads})", dataset.name());

    let mut records: Vec<BenchRecord> = Vec::new();

    // The index build every kd-tree pipeline starts with, serial vs fork-join.
    records.push(bench_record("build", n, d, 5, || KdTree::build(&data).len()));
    records.push(bench_record("build_parallel", n, d, 5, || {
        KdTree::build_parallel(&data, &executor).len()
    }));

    let epsilon = 0.8;
    let algos = if n <= QUADRATIC_MAX_N { Algo::all(epsilon) } else { Algo::fast_only(epsilon) };
    if algos.len() < Algo::all(epsilon).len() {
        let dropped: Vec<String> =
            Algo::all(epsilon).iter().filter(|a| !algos.contains(a)).map(|a| a.name()).collect();
        println!("skipping quadratic baselines at n = {n} (> {QUADRATIC_MAX_N}): {dropped:?}");
    }
    // Round-robin: each iteration fits every algorithm once, in turn, so a
    // slow spell of the host cannot land on one algorithm only.
    let mut fits: Vec<_> = algos
        .iter()
        .map(|algo| {
            let label = format!("fit_extract_{}", kernel_label(&algo.name()));
            (label, || algo.run(&data, params, &thresholds).expect("run").num_clusters())
        })
        .collect();
    records.extend(bench_records_round_robin(&mut fits, n, d, 3));

    // The point of the fit/extract split: re-thresholding a fitted model is
    // orders of magnitude cheaper than any full run above.
    let model = Algo::ApproxDpc.fit(&data, params).expect("fit");
    records
        .push(bench_record("extract_only", n, d, 50, || model.extract(&thresholds).num_clusters()));

    write_bench_json(&out, "end_to_end", &records).expect("write BENCH json");
    println!("wrote {}", out.display());
    if check {
        check_or_exit(&out, "end_to_end", required::END_TO_END);
    }
}
