//! Benchmark of the local-density (ρ) kernels across algorithms: the full
//! linear scan, the R-tree, the packed leaf-bucketed kd-tree's per-point
//! loop, and the fits' ρ path, `ExDpc::local_densities` (one dual-tree
//! self-join, `dpc_index::selfjoin`; serial and on `--threads` workers) —
//! plus the index construction itself (serial and fork-join parallel), which
//! is the fixed cost every index-based variant pays before any ρ work, and
//! the grid build that Approx-DPC adds.
//!
//! Index construction is accounted separately from query work on both sides:
//! the per-point kernel and the self-join kernels run against the same
//! prebuilt kd-tree (construction in the `build*` kernels) — each self-join
//! timing covers the task cut, the pair walks, the merge of the task counts,
//! and the jittered scatter. A second `_xl` tier (default one million
//! points) records the same ρ kernels at a scale where the walk, not
//! constant factors, dominates.
//!
//! Results are written to `BENCH_local_density.json` (schema in
//! `crates/bench/README.md`) so the ρ-phase trajectory is recorded PR over PR.
//!
//! Flags: `--n <points>` (default 100,000), `--xl-n <points>` (default
//! 1,000,000; the `_xl` tier), `--threads <T>` (default: available hardware
//! parallelism; used by the parallel-build and `rho_selfjoin_parallel`
//! kernels — the remaining ρ kernels run single-threaded so the trajectory
//! measures the kernels, not the scheduler), `--out <json>` (default
//! `BENCH_local_density.json`), `--check` (validate the emitted JSON and exit
//! non-zero on schema drift).

use dpc_baselines::{RtreeScan, Scan};
use dpc_bench::micro::{bench_record, write_bench_json, BenchRecord};
use dpc_bench::resolve_out_path;
use dpc_bench::schema::{check_or_exit, required};
use dpc_bench::{default_params, BenchDataset};
use dpc_core::framework::jittered_density;
use dpc_core::{DpcParams, ExDpc};
use dpc_geometry::Dataset;
use dpc_index::{Grid, KdTree, RTree};
use dpc_parallel::Executor;

/// The quadratic scan baseline is only timed up to this cardinality; above it
/// one iteration would dominate the whole bench run.
const SCAN_MAX_N: usize = 20_000;

/// The per-point ρ loop on one thread: `count(point, id)` is the point's
/// `d_cut` neighbour count with itself left out, one tree query per point.
fn per_point_rho(
    data: &Dataset,
    params: &DpcParams,
    count: impl Fn(&[f64], usize) -> usize,
) -> Vec<f64> {
    (0..data.len())
        .map(|i| jittered_density(count(data.point(i), i), i, params.jitter_seed))
        .collect()
}

/// The three ρ kernels of the `_xl` tier: the per-point packed-tree loop and
/// the self-join at 1 and `threads` workers. Two repetitions — the tier
/// exists to record the large-`n` shape, not tight variance.
fn xl_tier(xl_n: usize, threads: usize, records: &mut Vec<BenchRecord>) {
    let dataset = BenchDataset::Syn;
    let data = dataset.generate(xl_n);
    let d = data.dim();
    let executor = Executor::new(threads);
    let kdtree = KdTree::build_parallel(&data, &executor);
    let params = default_params(&dataset, 1);
    let exdpc_serial = ExDpc::new(params);
    let exdpc_parallel = ExDpc::new(default_params(&dataset, threads));
    records.push(bench_record("exdpc_packed_kdtree_xl", xl_n, d, 2, || {
        per_point_rho(&data, &params, |q, i| kdtree.range_count(q, params.dcut, Some(i)))
    }));
    records.push(bench_record("rho_selfjoin_serial_xl", xl_n, d, 2, || {
        exdpc_serial.local_densities(&data, &kdtree)
    }));
    records.push(bench_record("rho_selfjoin_parallel_xl", xl_n, d, 2, || {
        exdpc_parallel.local_densities(&data, &kdtree)
    }));
}

fn main() {
    let mut n = 100_000usize;
    let mut xl_n = 1_000_000usize;
    let mut threads = std::thread::available_parallelism().map(|t| t.get()).unwrap_or(1);
    let mut out = resolve_out_path("BENCH_local_density.json");
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

    let dataset = BenchDataset::Syn;
    let data = dataset.generate(n);
    let d = data.dim();
    let params = default_params(&dataset, 1);
    let executor = Executor::new(threads);
    println!("local_density ({} n = {n}, threads = {threads})", dataset.name());

    let mut records: Vec<BenchRecord> = Vec::new();

    // Index construction: the fixed cost before any ρ work.
    records.push(bench_record("build", n, d, 5, || KdTree::build(&data).len()));
    records.push(bench_record("build_parallel", n, d, 5, || {
        KdTree::build_parallel(&data, &executor).len()
    }));

    if n <= SCAN_MAX_N {
        let scan = Scan::new(params);
        records.push(bench_record("scan", n, d, 5, || scan.local_densities(&data)));
    } else {
        println!("scan{:>38} O(n²) baseline skipped at n = {n} (> {SCAN_MAX_N})", "");
    }

    let rtree_scan = RtreeScan::new(params);
    let rtree = RTree::build(&data);
    records.push(bench_record("rtree", n, d, 5, || rtree_scan.local_densities(&data, &rtree)));

    let exdpc = ExDpc::new(params);
    let kdtree = KdTree::build(&data);
    records.push(bench_record("exdpc_packed_kdtree", n, d, 5, || {
        per_point_rho(&data, &params, |q, i| kdtree.range_count(q, params.dcut, Some(i)))
    }));

    // The grid of side `d_cut/√d` that Approx-DPC builds next to its tree
    // for its cells; Ex-DPC's ρ needs no grid.
    let side = params.dcut / (d as f64).sqrt();
    records.push(bench_record("build_grid", n, d, 5, || Grid::build(&data, side).num_cells()));

    // The fits' ρ path (one self-join over the tree), serial and on
    // `threads` workers, against the prebuilt tree; timings cover the task
    // cut, the pair walks, the merge of the task counts, and the jittered
    // scatter.
    records.push(bench_record("rho_selfjoin_serial", n, d, 5, || {
        exdpc.local_densities(&data, &kdtree)
    }));
    let exdpc_parallel = ExDpc::new(default_params(&dataset, threads));
    records.push(bench_record("rho_selfjoin_parallel", n, d, 5, || {
        exdpc_parallel.local_densities(&data, &kdtree)
    }));

    xl_tier(xl_n, threads, &mut records);

    let mean_of = |name: &str| {
        records.iter().find(|r| r.kernel == name).map(|r| r.mean_secs).unwrap_or(f64::NAN)
    };
    println!();
    println!(
        "self-join ρ speedup vs per-point (serial, mean): {:.2}x",
        mean_of("exdpc_packed_kdtree") / mean_of("rho_selfjoin_serial")
    );
    println!(
        "self-join ρ speedup vs per-point ({} threads, mean): {:.2}x",
        threads,
        mean_of("exdpc_packed_kdtree") / mean_of("rho_selfjoin_parallel")
    );
    println!(
        "self-join ρ speedup vs per-point at n = {} (serial, mean): {:.2}x",
        xl_n,
        mean_of("exdpc_packed_kdtree_xl") / mean_of("rho_selfjoin_serial_xl")
    );
    println!(
        "parallel build speedup ({} threads, mean): {:.2}x",
        threads,
        mean_of("build") / mean_of("build_parallel")
    );

    write_bench_json(&out, "local_density", &records).expect("write BENCH json");
    println!("wrote {}", out.display());
    if check {
        check_or_exit(&out, "local_density", required::LOCAL_DENSITY);
    }
}
