//! Microbenchmarks for the uniform grid: its one-pass CSR construction
//! (`Grid::build`) on two shapes of data, plus the paper's joint range search
//! of Approx-DPC (one kd-tree query per cell, §4.2) versus per-point range
//! searches (Ex-DPC style).
//!
//! Results are written to `BENCH_grid_build.json` (schema in
//! `crates/bench/README.md`) so the grid-construction trajectory is recorded
//! PR over PR.
//!
//! Flags: `--n <points>` (default 20,000), `--out <json>` (default
//! `BENCH_grid_build.json`; relative paths resolve against the workspace
//! root, not the `crates/bench` cwd `cargo bench` uses), `--check` (validate
//! the emitted JSON against the schema and exit non-zero on drift).
//! Workloads: a seeded shuffle of the 2-d random-walk surrogate (13 walkers)
//! with `side = d_cut/√d` (the Approx-DPC geometry, few points per cell), and
//! a clustered Gaussian-blob set (many points per cell, scatter-dominated).
//!
//! The walk is shuffled because id order then says nothing about where a
//! point lies, as in a random sample of a population: in generation order
//! consecutive ids follow the walk, so the build meets each cell in one run
//! of points, which a sample does not.

use dpc_bench::datasets::DATASET_SEED;
use dpc_bench::micro::{bench_record, write_bench_json, BenchRecord};
use dpc_bench::resolve_out_path;
use dpc_bench::schema::{check_or_exit, required};
use dpc_data::generators::{gaussian_blobs, random_walk};
use dpc_geometry::dist;
use dpc_index::{Grid, KdTree};
use dpc_rng::StdRng;

const DCUT: f64 = 250.0;

fn main() {
    let mut n = 20_000usize;
    let mut out = resolve_out_path("BENCH_grid_build.json");
    let mut check = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--n" => n = args.next().expect("--n requires a value").parse().expect("--n <points>"),
            "--out" => out = resolve_out_path(&args.next().expect("--out requires a path")),
            "--check" => check = true,
            "--bench" => {} // appended by `cargo bench`
            other => panic!("unknown argument: {other} (flags: --n <points> --out <json> --check)"),
        }
    }
    let mut records: Vec<BenchRecord> = Vec::new();

    // Primary workload: the shuffled 2-d random-walk surrogate (13 walkers)
    // at the Approx-DPC cell side d_cut/√d — many small cells.
    let mut order: Vec<usize> = (0..n).collect();
    StdRng::seed_from_u64(DATASET_SEED).shuffle(&mut order);
    let data = random_walk(n, 13, 1e5, 3).select(&order);
    let d = data.dim();
    let side = DCUT / (d as f64).sqrt();
    println!("grid_build (shuffled walk n = {n}, d = {d}, d_cut = {DCUT})");

    records
        .push(bench_record("grid_build_serial", n, d, 10, || Grid::build(&data, side).num_cells()));

    // Low-dimensional workload: clustered 2-d (many points per cell, the
    // shape where the scatter pass dominates the key hashing).
    let centers: Vec<(f64, f64)> = (0..10)
        .map(|i| (100.0 + 250.0 * f64::from(i % 4), 100.0 + 300.0 * f64::from(i / 4)))
        .collect();
    let data2 = gaussian_blobs(&centers, n.div_ceil(10), 20.0, 1);
    let side2 = 10.0 / (2.0f64).sqrt();
    records.push(bench_record("grid_build_serial_blobs", data2.len(), 2, 10, || {
        Grid::build(&data2, side2).num_cells()
    }));

    // The joint range search the grid exists for, against the per-point
    // baseline (carried over from the pre-trajectory grid bench).
    let tree = KdTree::build(&data);
    let grid = Grid::build(&data, side);

    records.push(bench_record("per_point_range_searches", n, d, 5, || {
        let mut total = 0usize;
        for (i, p) in data.iter() {
            total += tree.range_count(p, DCUT, Some(i));
        }
        total
    }));
    records.push(bench_record("joint_range_search_per_cell", n, d, 5, || {
        let mut total = 0usize;
        let mut buffer = Vec::new();
        for cell in grid.cell_ids() {
            let center = grid.center(cell);
            let extra = grid
                .points(cell)
                .iter()
                .map(|&p| dist(&center, data.point(p)))
                .fold(0.0f64, f64::max);
            tree.range_search_into(&center, DCUT + extra, &mut buffer);
            total += buffer.len();
        }
        total
    }));

    let mean_of = |name: &str| {
        records.iter().find(|r| r.kernel == name).map(|r| r.mean_secs).unwrap_or(f64::NAN)
    };
    println!();
    println!(
        "joint range search speedup over per-point (mean): {:.2}x",
        mean_of("per_point_range_searches") / mean_of("joint_range_search_per_cell")
    );

    write_bench_json(&out, "grid_build", &records).expect("write BENCH json");
    println!("wrote {}", out.display());
    if check {
        check_or_exit(&out, "grid_build", required::GRID_BUILD);
    }
}
