//! Microbenchmarks for the kd-tree substrate: the packed leaf-bucketed tree
//! (`KdTree`) on bulk build (serial and fork-join parallel), range counting
//! and range search, and the batched bucket kernels
//! (`batch_count_*` / `batch_search_*`: the scalar reference vs the
//! dispatching kernel, which is SIMD under `--features simd` on x86_64).
//!
//! Results are written to `BENCH_kdtree.json` (schema in `crates/bench/README.md`)
//! so the perf trajectory of the local-density hot path is recorded PR over PR.
//!
//! Flags: `--n <points>` (default 100,000), `--build-n <points>` (default
//! 1,000,000; the cardinality of the build-scaling kernels), `--threads <T>`
//! (default: available hardware parallelism; the parallel-build kernels),
//! `--out <json>` (default `BENCH_kdtree.json`), `--check` (validate the
//! emitted JSON against the schema and exit non-zero on drift). The dataset is
//! clustered 2-d (Gaussian blobs) — the shape the paper's workloads have and
//! the one where subtree-count pruning matters — plus a uniform 3-d set
//! covering the generic kernel path.

use dpc_bench::micro::{bench_record, write_bench_json, BenchRecord};
use dpc_bench::resolve_out_path;
use dpc_bench::schema::{check_or_exit, required};
use dpc_data::generators::{gaussian_blobs, uniform};
use dpc_geometry::{batch, Dataset};
use dpc_index::KdTree;
use dpc_parallel::Executor;
use std::hint::black_box;

/// Queries per timed kernel; each bench iteration issues one query.
const QUERIES: usize = 2_000;

/// Rows per batch-kernel invocation (a large contiguous strip, so the timed
/// work is the kernel itself rather than loop setup).
const BATCH_ROWS: usize = 4_096;

/// Benchmarks the batched bucket kernels over one contiguous strip of the
/// dataset's row-major coordinates: the scalar reference against the
/// dispatching kernel (SIMD when the `simd` feature is on and the CPU has
/// SSE2/AVX2; the same scalar path otherwise, keeping the kernel set stable).
fn run_batch_suite(records: &mut Vec<BenchRecord>, data: &Dataset, radius: f64, label: &str) {
    let d = data.dim();
    let rows_n = BATCH_ROWS.min(data.len());
    let rows = &data.flat()[..rows_n * d];
    let r_sq = radius * radius;
    let mut i = 0usize;
    records.push(bench_record(&format!("batch_count_scalar_{label}"), rows_n, d, QUERIES, || {
        i = (i + 97) % rows_n;
        black_box(batch::count_within_scalar(data.point(i), rows, d, r_sq))
    }));
    let mut i = 0usize;
    records.push(bench_record(&format!("batch_count_simd_{label}"), rows_n, d, QUERIES, || {
        i = (i + 97) % rows_n;
        black_box(batch::count_within(data.point(i), rows, d, r_sq))
    }));
    let mut hits: Vec<usize> = Vec::new();
    let mut i = 0usize;
    records.push(bench_record(&format!("batch_search_scalar_{label}"), rows_n, d, QUERIES, || {
        i = (i + 97) % rows_n;
        hits.clear();
        batch::search_within_into_scalar(data.point(i), rows, d, r_sq, &mut hits);
        black_box(hits.len())
    }));
    let mut i = 0usize;
    records.push(bench_record(&format!("batch_search_simd_{label}"), rows_n, d, QUERIES, || {
        i = (i + 97) % rows_n;
        hits.clear();
        batch::search_within_into(data.point(i), rows, d, r_sq, &mut hits);
        black_box(hits.len())
    }));
}

fn clustered_2d(n: usize) -> Dataset {
    let centers: Vec<(f64, f64)> = (0..10)
        .map(|i| (100.0 + 250.0 * f64::from(i % 4), 100.0 + 300.0 * f64::from(i / 4)))
        .collect();
    gaussian_blobs(&centers, n.div_ceil(10), 20.0, 1)
}

/// Benchmarks the packed tree on one dataset, returning the records.
fn run_suite(
    records: &mut Vec<BenchRecord>,
    data: &Dataset,
    radius: f64,
    label: &str,
    executor: &Executor,
) {
    let n = data.len();
    let d = data.dim();

    records.push(bench_record(&format!("packed_build_{label}"), n, d, 5, || {
        KdTree::build(data).len()
    }));
    records.push(bench_record(&format!("packed_build_parallel_{label}"), n, d, 5, || {
        KdTree::build_parallel(data, executor).len()
    }));

    let packed = KdTree::build(data);

    let mut i = 0usize;
    records.push(bench_record(&format!("packed_range_count_{label}"), n, d, QUERIES, || {
        i = (i + 97) % n;
        black_box(packed.range_count(data.point(i), radius, Some(i)))
    }));

    let mut buf: Vec<usize> = Vec::new();
    let mut i = 0usize;
    records.push(bench_record(&format!("packed_range_search_{label}"), n, d, QUERIES, || {
        i = (i + 97) % n;
        packed.range_search_into(data.point(i), radius, &mut buf);
        black_box(buf.len())
    }));
}

fn main() {
    let mut n = 100_000usize;
    let mut build_n = 1_000_000usize;
    let mut threads = std::thread::available_parallelism().map(|t| t.get()).unwrap_or(1);
    let mut out = resolve_out_path("BENCH_kdtree.json");
    let mut check = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--n" => n = args.next().expect("--n requires a value").parse().expect("--n <points>"),
            "--build-n" => {
                build_n = args
                    .next()
                    .expect("--build-n requires a value")
                    .parse()
                    .expect("--build-n <points>")
            }
            "--threads" => {
                threads = args
                    .next()
                    .expect("--threads requires a value")
                    .parse()
                    .expect("--threads <T>")
            }
            "--out" => out = resolve_out_path(&args.next().expect("--out requires a path")),
            "--check" => check = true,
            "--bench" => {} // appended by `cargo bench`
            other => panic!(
                "unknown argument: {other} (flags: --n <points> --build-n <points> --threads <T> --out <json> --check)"
            ),
        }
    }
    let executor = Executor::new(threads);

    let mut records: Vec<BenchRecord> = Vec::new();

    // Primary workload: clustered 2-d, the acceptance surface for the packed
    // tree (one range count per point is the Ex-DPC density phase).
    let data2 = clustered_2d(n);
    println!("kd_tree clustered 2d (n = {}, threads = {threads})", data2.len());
    run_suite(&mut records, &data2, 10.0, "2d", &executor);

    // Secondary workload: uniform 3-d at n/4, covering the d = 3 kernel and
    // low-selectivity queries.
    let n3 = (n / 4).max(1_000);
    let data3 = uniform(n3, 3, 1_000.0, 7);
    println!("kd_tree uniform 3d (n = {n3})");
    run_suite(&mut records, &data3, 60.0, "3d", &executor);

    // Batched bucket kernels, scalar vs SIMD dispatch, on both workloads.
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    println!(
        "batch dispatch path: {}",
        if std::arch::is_x86_feature_detected!("avx2") { "avx2" } else { "sse2" }
    );
    #[cfg(not(all(feature = "simd", target_arch = "x86_64")))]
    println!("batch dispatch path: scalar (simd feature off or non-x86_64)");
    run_batch_suite(&mut records, &data2, 10.0, "2d");
    run_batch_suite(&mut records, &data3, 60.0, "3d");

    // Build scaling: the parallel fork-join build against the serial build at
    // a cardinality where construction is the dominant fixed cost of the
    // index-based algorithms (default n = 1M, --build-n to override).
    let xl = clustered_2d(build_n);
    println!("kd_tree build scaling (n = {}, threads = {threads})", xl.len());
    records
        .push(bench_record("packed_build_serial_xl", xl.len(), 2, 3, || KdTree::build(&xl).len()));
    records.push(bench_record("packed_build_parallel_xl", xl.len(), 2, 3, || {
        KdTree::build_parallel(&xl, &executor).len()
    }));

    // Headline numbers: the batch kernels' SIMD dispatch vs the scalar
    // reference, and the fork-join build vs the serial build.
    let mean_of = |name: &str| {
        records.iter().find(|r| r.kernel == name).map(|r| r.mean_secs).unwrap_or(f64::NAN)
    };
    println!();
    for label in ["2d", "3d"] {
        println!(
            "batch count/search simd-vs-scalar speedup ({label}, mean): {:.2}x / {:.2}x",
            mean_of(&format!("batch_count_scalar_{label}"))
                / mean_of(&format!("batch_count_simd_{label}")),
            mean_of(&format!("batch_search_scalar_{label}"))
                / mean_of(&format!("batch_search_simd_{label}")),
        );
    }
    println!(
        "parallel build speedup (n = {}, {} threads, mean): {:.2}x",
        xl.len(),
        threads,
        mean_of("packed_build_serial_xl") / mean_of("packed_build_parallel_xl")
    );

    write_bench_json(&out, "kd_tree", &records).expect("write BENCH json");
    println!("wrote {}", out.display());
    if check {
        check_or_exit(&out, "kd_tree", required::KD_TREE);
    }
}
