//! Randomized property tests on the core invariants of the workspace: index
//! correctness against brute force, the paper's Theorem 4, the DPC
//! dependency-structure invariants, and the metric properties of the Rand
//! index.
//!
//! The container has no property-testing framework, so each property is
//! checked over a fixed set of deterministic seeds with datasets drawn from
//! the in-workspace `dpc-rng` generator — same spirit (many random cases, all
//! reproducible), no external dependency.

use fast_dpc::baselines::Scan;
use fast_dpc::core::framework::jittered_density;
use fast_dpc::core::{DpcModel, Timings};
use fast_dpc::eval::{adjusted_rand_index, rand_index};
use fast_dpc::geometry::{dist, dist_sq, Dataset};
use fast_dpc::index::{Grid, KdTree, MaxKeys};
use fast_dpc::prelude::*;
use fast_dpc::rng::StdRng;

const CASES: u64 = 16;

/// A random 2-d dataset with `2..max_points` points in `[0, 100)^2`.
fn random_dataset(rng: &mut StdRng, max_points: usize) -> Dataset {
    let n = rng.gen_range(2..max_points);
    let mut ds = Dataset::new(2);
    for _ in 0..n {
        ds.push(&[rng.gen_range(0.0..100.0), rng.gen_range(0.0..100.0)]);
    }
    ds
}

/// A random dataset of the given dimensionality; when `snap` is true the
/// coordinates are snapped to a coarse lattice so exact duplicates occur.
fn random_dataset_nd(rng: &mut StdRng, n: usize, dim: usize, snap: bool) -> Dataset {
    let mut ds = Dataset::new(dim);
    let mut row = vec![0.0f64; dim];
    for _ in 0..n {
        for v in row.iter_mut() {
            let c = rng.gen_range(0.0..100.0);
            *v = if snap { (c / 10.0).floor() * 10.0 } else { c };
        }
        ds.push(&row);
    }
    ds
}

/// Checks every packed-tree query primitive against a naive O(n²) scan.
fn assert_packed_matches_naive(ds: &Dataset, rng: &mut StdRng, seed: u64) {
    let dim = ds.dim();
    let tree = KdTree::build(ds);
    assert_eq!(tree.len(), ds.len(), "seed {seed}");
    let mut got = Vec::new();
    for case in 0..6 {
        let q: Vec<f64> = (0..dim).map(|_| rng.gen_range(0.0..100.0)).collect();
        let r = rng.gen_range(0.1..80.0);
        let exclude = if case % 2 == 0 { None } else { Some(rng.gen_range(0..ds.len())) };
        let want_count =
            ds.iter().filter(|(id, p)| Some(*id) != exclude && dist(&q, p) <= r).count();
        assert_eq!(tree.range_count(&q, r, exclude), want_count, "seed {seed} case {case}");

        tree.range_search_into(&q, r, &mut got);
        got.sort_unstable();
        let mut want: Vec<usize> =
            ds.iter().filter(|(_, p)| dist(&q, p) <= r).map(|(id, _)| id).collect();
        want.sort_unstable();
        assert_eq!(got, want, "seed {seed} case {case}");

        // The nearest neighbour is the nearest-denser query with the
        // excluded point keyed −∞ and every other point 0, above the query.
        let keys: Vec<f64> = (0..ds.len())
            .map(|id| if Some(id) == exclude { f64::NEG_INFINITY } else { 0.0 })
            .collect();
        let got_nn = tree.nearest_denser(&MaxKeys::new(&tree, &keys), &q, f64::NEG_INFINITY);
        let want_nn = ds
            .iter()
            .filter(|(id, _)| Some(*id) != exclude)
            .map(|(id, p)| (dist_sq(&q, p), id))
            .min_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)))
            .map(|(d, id)| (id, d.sqrt()));
        assert_eq!(got_nn, want_nn, "seed {seed} case {case}");
    }
}

#[test]
fn packed_kdtree_matches_naive_across_dimensionalities() {
    for &dim in &[2usize, 3, 8] {
        for seed in 0..CASES {
            let mut rng = StdRng::seed_from_u64(0x9A00 + seed * 31 + dim as u64);
            let n = rng.gen_range(2..250);
            let ds = random_dataset_nd(&mut rng, n, dim, false);
            assert_packed_matches_naive(&ds, &mut rng, seed);
        }
    }
}

#[test]
fn packed_kdtree_handles_degenerate_inputs() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x9B00 + seed);
        // Duplicate-heavy: lattice-snapped coordinates in 2-d and 3-d.
        for dim in [2usize, 3] {
            let ds = random_dataset_nd(&mut rng, 150, dim, true);
            assert_packed_matches_naive(&ds, &mut rng, seed);
        }
        // All-collinear points (x varies, other axes constant), with repeats.
        let n = rng.gen_range(2..120);
        let mut ds = Dataset::new(2);
        for _ in 0..n {
            ds.push(&[rng.gen_range(0..40) as f64, 5.0]);
        }
        assert_packed_matches_naive(&ds, &mut rng, seed);
        // Fewer points than one leaf bucket.
        let tiny_n = rng.gen_range(1..fast_dpc::index::kdtree::LEAF_BUCKET);
        let tiny = random_dataset_nd(&mut rng, tiny_n, 2, false);
        assert_packed_matches_naive(&tiny, &mut rng, seed);
    }
}

/// Computes the model from the definitions — every ρ a brute-force count of
/// the closed `d_cut` ball, every dependent the nearest strictly denser point
/// by a scan, equal distances to the smallest id — and proves the packed fit
/// produces a bit-identical model and clustering.
#[test]
fn packed_fit_is_bit_identical_to_seed_tree_fit() {
    for seed in 0..CASES / 2 {
        let mut rng = StdRng::seed_from_u64(0x9C00 + seed);
        let ds = random_dataset(&mut rng, 400);
        let dcut = rng.gen_range(2.0..30.0);
        let params = DpcParams::new(dcut);

        let rho: Vec<f64> = (0..ds.len())
            .map(|i| {
                let count = ds.iter().filter(|&(j, p)| j != i && dist(ds.point(i), p) <= dcut);
                jittered_density(count.count(), i, params.jitter_seed)
            })
            .collect();
        let mut dependent: Vec<usize> = (0..ds.len()).collect();
        let mut delta = vec![f64::INFINITY; ds.len()];
        for i in 0..ds.len() {
            let nearest = (0..ds.len())
                .filter(|&j| rho[j] > rho[i])
                .map(|j| (dist_sq(ds.point(i), ds.point(j)), j))
                .min_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            if let Some((d, j)) = nearest {
                (dependent[i], delta[i]) = (j, d.sqrt());
            }
        }
        let seed_model =
            DpcModel::from_parts("seed", dcut, rho, delta, dependent, Timings::default(), 0)
                .unwrap();

        let model = ExDpc::new(params).fit(&ds).unwrap();
        assert_eq!(model.rho(), seed_model.rho(), "seed {seed}: ρ not bit-identical");
        assert_eq!(model.delta(), seed_model.delta(), "seed {seed}: δ not bit-identical");
        assert_eq!(model.dependent(), seed_model.dependent(), "seed {seed}");

        let thresholds = Thresholds::new(1.0, 1.5 * dcut).unwrap();
        let a = model.extract(&thresholds);
        let b = seed_model.extract(&thresholds);
        assert_eq!(a.assignment, b.assignment, "seed {seed}: clustering differs");
        assert_eq!(a.centers, b.centers, "seed {seed}");
    }
}

/// The packed tree built in parallel must be bit-identical — same permuted
/// ids, packed coordinate rows, preorder nodes and bounding boxes — to the
/// serial build at every thread count. This is the contract that lets every
/// caller (Ex-DPC, Approx-DPC, S-Approx-DPC, DBSCAN) adopt the parallel build
/// without any behavioural change.
#[test]
fn parallel_kdtree_build_is_bit_identical_across_thread_counts() {
    use fast_dpc::parallel::Executor;
    for seed in 0..CASES / 2 {
        let mut rng = StdRng::seed_from_u64(0x9D00 + seed);
        // Sizes straddling the fork threshold (1024 points), in 2-d and 3-d,
        // uniform and duplicate-heavy (lattice-snapped).
        let small_n = rng.gen_range(2..600);
        let forked_n = rng.gen_range(1_500..5_000);
        let forked_3d_n = rng.gen_range(1_500..4_000);
        let shapes = [
            random_dataset_nd(&mut rng, small_n, 2, false),
            random_dataset_nd(&mut rng, forked_n, 2, false),
            random_dataset_nd(&mut rng, forked_3d_n, 3, false),
            random_dataset_nd(&mut rng, 3_000, 2, true),
        ];
        for (i, ds) in shapes.iter().enumerate() {
            let serial = KdTree::build(ds);
            for threads in [1usize, 2, 4, 8] {
                let parallel = KdTree::build_parallel(ds, &Executor::new(threads));
                assert!(
                    parallel.layout_eq(&serial),
                    "seed {seed} shape {i} (n = {}): {threads}-thread build differs from serial",
                    ds.len()
                );
            }
        }
    }
    // A collinear worst case: every split degenerates onto one axis.
    let mut collinear = Dataset::new(2);
    for i in 0..2_500 {
        collinear.push(&[(i % 40) as f64, 5.0]);
    }
    let serial = KdTree::build(&collinear);
    for threads in [2usize, 4, 8] {
        assert!(KdTree::build_parallel(&collinear, &Executor::new(threads)).layout_eq(&serial));
    }
}

/// Asserts that `grid` agrees, cell for cell and point for point, with a
/// plain `HashMap<key, Vec<point>>` reference layout (what the previous
/// implementation stored directly), including the neighbour enumeration, and
/// that its cell ids follow first appearance: each cell's first point
/// ascends with its id. Approx-DPC's smallest-cell-id rule and S-Approx-DPC's
/// picked points (each cell's first point) rest on that order.
fn assert_grid_matches_hashmap_reference(grid: &Grid, ds: &Dataset, side: f64, ctx: &str) {
    use std::collections::{HashMap, HashSet};
    let dim = ds.dim();
    // Reference: straight recomputation of every point's integer key over
    // the same origin (the dataset's bounding-box low corner).
    let origin: Vec<f64> =
        (0..dim).map(|a| ds.iter().map(|(_, p)| p[a]).fold(f64::INFINITY, f64::min)).collect();
    let mut reference: HashMap<Vec<i64>, Vec<usize>> = HashMap::new();
    for (id, p) in ds.iter() {
        let key: Vec<i64> = (0..dim).map(|a| ((p[a] - origin[a]) / side).floor() as i64).collect();
        reference.entry(key).or_default().push(id);
    }

    assert_eq!(grid.num_cells(), reference.len(), "{ctx}");
    for cell in grid.cell_ids() {
        let key = grid.key(cell).to_vec();
        let members = reference
            .get(&key)
            .unwrap_or_else(|| panic!("{ctx}: cell {cell} has key {key:?} not in the reference"));
        // Same membership, same (ascending-id) order, and a consistent
        // reverse mapping.
        assert_eq!(grid.points(cell), members.as_slice(), "{ctx} cell {cell}");
        for &p in members {
            assert_eq!(grid.cell_of(p), cell, "{ctx} point {p}");
        }
        assert_eq!(grid.cell_by_key(&key), Some(cell), "{ctx}");
    }
    for cell in 1..grid.num_cells() {
        let (prev, first) = (grid.points(cell - 1)[0], grid.points(cell)[0]);
        assert!(prev < first, "{ctx}: cell {cell} first appears at {first}, before {prev}");
    }

    // Neighbour sets match the reference for a couple of radii, on every
    // cell of a grid of up to 512 cells and on an even spread of at most 512
    // cells of a larger one (the reference scans every key per cell).
    let step = grid.num_cells().div_ceil(512).max(1);
    for chebyshev in [1i64, 2] {
        for cell in grid.cell_ids().step_by(step) {
            let key = grid.key(cell);
            let got: HashSet<usize> = grid.neighbors_within(cell, chebyshev).into_iter().collect();
            let want: HashSet<usize> = reference
                .keys()
                .filter(|k| {
                    k.as_slice() != key
                        && k.iter().zip(key).all(|(a, b)| (a - b).abs() <= chebyshev)
                })
                .map(|k| grid.cell_by_key(k).unwrap())
                .collect();
            assert_eq!(got, want, "{ctx} cell {cell} chebyshev {chebyshev}");
        }
    }
}

/// The CSR grid must match the `HashMap` reference: on small random 2-d
/// inputs, and on inputs of 4,096 points and more in 2-d and 3-d — uniform,
/// duplicate-heavy (lattice-snapped), collinear, and all points in one cell.
#[test]
fn csr_grid_matches_hashmap_reference_layout() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0xC990 + seed);
        // Alternate uniform and duplicate-heavy (lattice-snapped) datasets.
        let snap = seed % 2 == 1;
        let n = rng.gen_range(50..400);
        let ds = random_dataset_nd(&mut rng, n, 2, snap);
        let side = rng.gen_range(0.5..25.0);
        let grid = Grid::build(&ds, side);
        assert_grid_matches_hashmap_reference(&grid, &ds, side, &format!("seed {seed}"));
    }
    for dim in [2usize, 3] {
        let mut rng = StdRng::seed_from_u64(0xC9D0 + dim as u64);
        let n = rng.gen_range(4_096..5_500);
        let uniform = random_dataset_nd(&mut rng, n, dim, false);
        let duplicate_heavy = random_dataset_nd(&mut rng, n, dim, true);
        let collinear = {
            // x varies over a coarse lattice (repeats included), every other
            // axis is constant: all keys differ in one lane only.
            let mut ds = Dataset::new(dim);
            let mut row = vec![5.0f64; dim];
            for _ in 0..n {
                row[0] = rng.gen_range(0..60) as f64;
                ds.push(&row);
            }
            ds
        };
        let shapes =
            [("uniform", uniform), ("duplicates", duplicate_heavy), ("collinear", collinear)];
        for (shape, ds) in &shapes {
            for side in [2.5f64, 11.0] {
                let grid = Grid::build(ds, side);
                let ctx = format!("{dim}-d {shape}, side {side}");
                assert_grid_matches_hashmap_reference(&grid, ds, side, &ctx);
            }
        }
        // All points in one cell: a side wider than the data extent.
        let (_, ds) = &shapes[0];
        let grid = Grid::build(ds, 10_000.0);
        assert_eq!(grid.num_cells(), 1);
        assert_grid_matches_hashmap_reference(&grid, ds, 10_000.0, &format!("{dim}-d one cell"));
    }
}

#[test]
fn kdtree_range_count_matches_brute_force() {
    let mut found = Vec::new();
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0xA110 + seed);
        let ds = random_dataset(&mut rng, 120);
        let tree = KdTree::build(&ds);
        let q = [rng.gen_range(0.0..100.0), rng.gen_range(0.0..100.0)];
        let radius = rng.gen_range(0.1..60.0);
        let expected = ds.iter().filter(|(_, p)| dist(&q, p) <= radius).count();
        assert_eq!(tree.range_count(&q, radius, None), expected, "seed {seed}");
        tree.range_search_into(&q, radius, &mut found);
        found.sort_unstable();
        let mut want: Vec<usize> =
            ds.iter().filter(|(_, p)| dist(&q, p) <= radius).map(|(i, _)| i).collect();
        want.sort_unstable();
        assert_eq!(found, want, "seed {seed}");
    }
}

#[test]
fn grid_partitions_points_exactly_once() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0xC330 + seed);
        let ds = random_dataset(&mut rng, 150);
        let side = rng.gen_range(0.5..30.0);
        let grid = Grid::build(&ds, side);
        let mut seen = vec![false; ds.len()];
        for cell in grid.cell_ids() {
            for &p in grid.points(cell) {
                assert!(!seen[p], "seed {seed}: point {p} in two cells");
                seen[p] = true;
                assert_eq!(grid.cell_of(p), cell, "seed {seed}");
            }
        }
        assert!(seen.into_iter().all(|s| s), "seed {seed}");
    }
}

#[test]
fn scan_and_exdpc_are_identical() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0xD440 + seed);
        let ds = random_dataset(&mut rng, 90);
        let dcut = rng.gen_range(1.0..40.0);
        let params = DpcParams::new(dcut);
        let thresholds = Thresholds::new(1.0, 2.0 * dcut).unwrap();
        let a = Scan::new(params).fit(&ds).unwrap();
        let b = ExDpc::new(params).fit(&ds).unwrap();
        assert_eq!(a.rho(), b.rho(), "seed {seed}");
        let (a, b) = (a.extract(&thresholds), b.extract(&thresholds));
        assert_eq!(a.centers, b.centers, "seed {seed}");
        assert_eq!(a.assignment, b.assignment, "seed {seed}");
    }
}

#[test]
fn theorem4_approx_dpc_has_exdpc_centres() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0xE550 + seed);
        let ds = random_dataset(&mut rng, 120);
        let dcut = rng.gen_range(2.0..30.0);
        let params = DpcParams::new(dcut);
        let thresholds = Thresholds::new(0.0, 1.5 * dcut).unwrap();
        let exact = ExDpc::new(params).run(&ds, &thresholds).unwrap();
        let approx = ApproxDpc::new(params).run(&ds, &thresholds).unwrap();
        assert_eq!(exact.centers, approx.centers, "seed {seed}");
    }
}

#[test]
fn dpc_dependency_structure_invariants() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0xF660 + seed);
        let ds = random_dataset(&mut rng, 120);
        let dcut = rng.gen_range(1.0..30.0);
        let params = DpcParams::new(dcut);
        let thresholds = Thresholds::new(0.0, 2.0 * dcut).unwrap();
        for model in [
            ExDpc::new(params).fit(&ds).unwrap(),
            ApproxDpc::new(params).fit(&ds).unwrap(),
            SApproxDpc::new(params).with_epsilon(0.7).fit(&ds).unwrap(),
        ] {
            let clustering = model.extract(&thresholds);
            // Exactly one point (the densest) has an infinite dependent distance.
            assert_eq!(model.delta().iter().filter(|d| d.is_infinite()).count(), 1, "seed {seed}");
            // Dependencies always point to strictly higher density; non-centre
            // points inherit their dependent point's label (centres start their
            // own cluster regardless of where they depend).
            for i in 0..ds.len() {
                let dep = model.dependent()[i];
                if dep != i {
                    assert!(model.rho()[dep] > model.rho()[i], "seed {seed}");
                    if clustering.assignment[i] >= 0 && !clustering.centers.contains(&i) {
                        assert_eq!(
                            clustering.assignment[i], clustering.assignment[dep],
                            "seed {seed}"
                        );
                    }
                }
            }
            // With ρ_min = 0 there is no noise and every point is labelled.
            assert_eq!(clustering.noise_count(), 0, "seed {seed}");
            // Every cluster label is a valid centre index.
            for &l in clustering.labels() {
                assert!(l >= 0 && (l as usize) < clustering.num_clusters(), "seed {seed}");
            }
        }
    }
}

#[test]
fn rand_index_properties() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0xAB70 + seed);
        let n = rng.gen_range(2..60);
        let a: Vec<i64> = (0..n).map(|_| rng.gen_range(0..5) as i64 - 1).collect();
        let b: Vec<i64> = (0..n).map(|_| rng.gen_range(0..5) as i64 - 1).collect();
        let ab = rand_index(&a, &b);
        assert!((0.0..=1.0).contains(&ab), "seed {seed}");
        assert!((ab - rand_index(&b, &a)).abs() < 1e-12, "seed {seed}");
        assert!((rand_index(&a, &a) - 1.0).abs() < 1e-12, "seed {seed}");
        assert!(adjusted_rand_index(&a, &a) > 0.999, "seed {seed}");
        assert!(adjusted_rand_index(&a, &b) <= 1.0 + 1e-12, "seed {seed}");
    }
}
