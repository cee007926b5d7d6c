//! Benchmark of the dependent-point (δ) kernels on a seeded shuffle of the
//! Syn random walk: one `KdTree::nearest_denser` query per point in point-id
//! order (the path the fits took before they ran their queries in the tree's
//! packed order, kept as the reference), the same root query in packed
//! order, one `KdTree::nearest_denser_at` query per point in packed order,
//! each starting at the point's own leaf (the fits' path),
//! `ExDpc::dependent_points` at 1 and `--threads` workers, and the Scan
//! baseline.
//!
//! The walk is shuffled because id order then says nothing about where a
//! point lies, as in a random sample of a population: in generation order
//! consecutive ids follow the walk, and both loops would already query
//! neighbouring points one after the other.
//!
//! The three loops run single-threaded and round-robin against one prebuilt
//! tree and its max-ρ array, so they time the queries alone and a slow spell
//! of the host lands on all of them. `ExDpc::dependent_points` builds its own tree
//! and max-ρ array on every call, so its kernels include the tree build. The
//! quadratic Scan baseline is only timed up to n = 20,000. Every kernel's
//! answers are checked against the id-order loop before it is timed.
//!
//! Results are written to `BENCH_dependent_point.json` (schema in
//! `crates/bench/README.md`) so the δ-phase trajectory is recorded PR over PR.
//!
//! Flags: `--n <points>` (default 100,000), `--threads <T>` (default:
//! available hardware parallelism; used by `exdpc_dependent_points_parallel`
//! only), `--out <json>` (default `BENCH_dependent_point.json`), `--check`
//! (validate the emitted JSON and exit non-zero on schema drift).

use dpc_baselines::Scan;
use dpc_bench::datasets::DATASET_SEED;
use dpc_bench::micro::{bench_record, bench_records_round_robin, write_bench_json, BenchRecord};
use dpc_bench::resolve_out_path;
use dpc_bench::schema::{check_or_exit, required};
use dpc_bench::{default_params, BenchDataset};
use dpc_core::ExDpc;
use dpc_index::{KdTree, MaxKeys};
use dpc_rng::StdRng;

/// The quadratic scan baseline is only timed up to this cardinality; above it
/// one iteration would dominate the whole bench run.
const SCAN_MAX_N: usize = 20_000;

/// One point's dependent point and δ, `None` for the densest point.
type Found = Option<(usize, f64)>;

/// A δ loop timed round-robin against the other.
type Loop<'a> = Box<dyn FnMut() -> Vec<Found> + 'a>;

fn main() {
    let mut n = 100_000usize;
    let mut threads = std::thread::available_parallelism().map(|t| t.get()).unwrap_or(1);
    let mut out = resolve_out_path("BENCH_dependent_point.json");
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
    let mut order: Vec<usize> = (0..n).collect();
    StdRng::seed_from_u64(DATASET_SEED).shuffle(&mut order);
    let data = dataset.generate(n).select(&order);
    let d = data.dim();
    let params = default_params(&dataset, 1);
    println!("dependent_point (shuffled {} n = {n}, threads = {threads})", dataset.name());

    // Densities, tree and max-ρ array are shared input of the three loops.
    let tree = KdTree::build(&data);
    let exdpc = ExDpc::new(params);
    let rho = exdpc.local_densities(&data, &tree);
    let max_keys = MaxKeys::new(&tree, &rho);
    let id_order = || -> Vec<Found> {
        (0..n).map(|p| tree.nearest_denser(&max_keys, data.point(p), rho[p])).collect()
    };
    let packed_order = || -> Vec<Found> {
        let mut found = vec![None; n];
        for (&p, row) in tree.ids().iter().zip(tree.coords().chunks_exact(d)) {
            found[p as usize] = tree.nearest_denser(&max_keys, row, rho[p as usize]);
        }
        found
    };
    let leaf_start = || -> Vec<Found> {
        let mut found = vec![None; n];
        for (row, &p) in tree.ids().iter().enumerate() {
            found[p as usize] = tree.nearest_denser_at(&max_keys, row, rho[p as usize]);
        }
        found
    };
    let exdpc_parallel = ExDpc::new(default_params(&dataset, threads));

    // Every kernel must give the reference's answers, ties included; the Scan
    // baseline is checked where it is timed.
    let reference = id_order();
    let as_pairs = |(dependent, delta): (Vec<usize>, Vec<f64>)| -> Vec<Found> {
        let pairs = dependent.into_iter().zip(delta).enumerate();
        pairs.map(|(p, (q, dist))| (q != p).then_some((q, dist))).collect()
    };
    assert_eq!(packed_order(), reference, "packed-order loop disagrees with the id-order loop");
    assert_eq!(leaf_start(), reference, "leaf-start loop disagrees with the id-order loop");
    assert_eq!(as_pairs(exdpc.dependent_points(&data, &rho)), reference, "ExDpc, 1 thread");
    assert_eq!(
        as_pairs(exdpc_parallel.dependent_points(&data, &rho)),
        reference,
        "ExDpc, T threads"
    );

    let mut records: Vec<BenchRecord> = Vec::new();
    let mut loops: [(String, Loop); 3] = [
        ("nearest_denser_id_order".to_string(), Box::new(id_order)),
        ("nearest_denser_packed_order".to_string(), Box::new(packed_order)),
        ("nearest_denser_at_packed_order".to_string(), Box::new(leaf_start)),
    ];
    records.extend(bench_records_round_robin(&mut loops, n, d, 5));
    records.push(bench_record("exdpc_dependent_points_serial", n, d, 5, || {
        exdpc.dependent_points(&data, &rho)
    }));
    records.push(bench_record("exdpc_dependent_points_parallel", n, d, 5, || {
        exdpc_parallel.dependent_points(&data, &rho)
    }));
    if n <= SCAN_MAX_N {
        let scan = Scan::new(params);
        assert_eq!(as_pairs(scan.dependent_points(&data, &rho)), reference, "Scan");
        records.push(bench_record("scan_early_termination", n, d, 3, || {
            scan.dependent_points(&data, &rho)
        }));
    } else {
        println!(
            "scan_early_termination{:>18} O(n²) baseline skipped at n = {n} (> {SCAN_MAX_N})",
            ""
        );
    }

    let mean_of = |name: &str| {
        records.iter().find(|r| r.kernel == name).map(|r| r.mean_secs).unwrap_or(f64::NAN)
    };
    println!();
    println!(
        "packed-order δ speedup vs id order (serial, mean): {:.2}x",
        mean_of("nearest_denser_id_order") / mean_of("nearest_denser_packed_order")
    );
    println!(
        "leaf-start δ speedup vs root queries in packed order (serial, mean): {:.2}x",
        mean_of("nearest_denser_packed_order") / mean_of("nearest_denser_at_packed_order")
    );
    println!(
        "dependent_points speedup ({threads} threads vs 1, mean): {:.2}x",
        mean_of("exdpc_dependent_points_serial") / mean_of("exdpc_dependent_points_parallel")
    );

    write_bench_json(&out, "dependent_point", &records).expect("write BENCH json");
    println!("wrote {}", out.display());
    if check {
        check_or_exit(&out, "dependent_point", required::DEPENDENT_POINT);
    }
}
