//! Property tests for the batched query engine (`dpc_index::batchq`).
//!
//! The determinism contract under test: **every** query's batched count is
//! bit-identical to the corresponding single-query `range_count` (with the
//! same per-query exclusion handling), no matter how the queries are grouped
//! into buckets. The suite sweeps 2/3/8 dimensions,
//! duplicate-heavy and exact-boundary-radius datasets, grid-derived buckets
//! and adversarial groupings, and runs identically under the default (scalar)
//! and `simd` feature builds.

use dpc_geometry::{dist, Dataset};
use dpc_index::batchq::{self, BatchRangeCount};
use dpc_index::{Grid, KdTree};
use dpc_parallel::Executor;
use dpc_rng::StdRng;

fn random_dataset(n: usize, dim: usize, seed: u64) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let coords: Vec<f64> = (0..n * dim).map(|_| rng.gen_range(0.0..100.0)).collect();
    Dataset::from_flat(dim, coords)
}

/// A dataset where many points coincide exactly (ties in every traversal).
fn duplicate_dataset(n: usize, dim: usize, seed: u64) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let distinct: Vec<Vec<f64>> =
        (0..8).map(|_| (0..dim).map(|_| rng.gen_range(0.0..50.0)).collect()).collect();
    let mut ds = Dataset::new(dim);
    for _ in 0..n {
        ds.push(&distinct[rng.gen_range(0..distinct.len())]);
    }
    ds
}

fn gather_rows(data: &Dataset, ids: &[usize]) -> Vec<f64> {
    let mut rows = Vec::with_capacity(ids.len() * data.dim());
    for &i in ids {
        rows.extend_from_slice(data.point(i));
    }
    rows
}

/// Asserts the batched counts of `queries` (dataset point ids) against the
/// single-query traversals, for the given radius and exclusions.
fn assert_bucket_identity(
    data: &Dataset,
    tree: &KdTree,
    query_ids: &[usize],
    radius: f64,
    exclude: &[u32],
) {
    let rows = gather_rows(data, query_ids);
    let mut counts = Vec::new();
    BatchRangeCount::new().run(tree, &rows, radius, exclude, &mut counts);
    for (k, &i) in query_ids.iter().enumerate() {
        let excl = (exclude[k] != batchq::NO_EXCLUDE).then_some(exclude[k] as usize);
        assert_eq!(
            counts[k],
            tree.range_count(data.point(i), radius, excl),
            "count mismatch for query point {i}"
        );
    }
}

#[test]
fn grid_buckets_are_bit_identical_to_per_point_queries() {
    for &(n, dim, seed) in &[(900usize, 2usize, 101u64), (700, 3, 102), (300, 8, 103)] {
        let data = random_dataset(n, dim, seed);
        let dcut = 8.0;
        let tree = KdTree::build_parallel(&data, &Executor::new(4));
        let grid = Grid::build(&data, dcut / (dim as f64).sqrt());
        let buckets = grid.query_buckets();
        for bucket in buckets.iter() {
            let mut ids: Vec<usize> = Vec::new();
            for &cell in bucket {
                ids.extend_from_slice(grid.points(cell));
            }
            let exclude: Vec<u32> = ids.iter().map(|&i| i as u32).collect();
            assert_bucket_identity(&data, &tree, &ids, dcut, &exclude);
        }
    }
}

#[test]
fn duplicate_heavy_datasets_keep_tie_handling_identical() {
    for &dim in &[2usize, 3, 8] {
        let data = duplicate_dataset(400, dim, 7 + dim as u64);
        let tree = KdTree::build(&data);
        let ids: Vec<usize> = (0..data.len()).step_by(5).collect();
        // Radius 0 hits exact duplicates only; a positive radius spans the
        // duplicate clusters.
        for radius in [0.0, 30.0] {
            let exclude: Vec<u32> = ids.iter().map(|&i| i as u32).collect();
            assert_bucket_identity(&data, &tree, &ids, radius, &exclude);
        }
    }
}

#[test]
fn exact_boundary_radii_stay_closed_ball() {
    // Query balls whose radius equals an exact point distance: the closed-ball
    // `dist ≤ r` contract must make batched and single-query agree on the
    // boundary points (3-4-5 triangles have exactly representable distances).
    let mut ds = Dataset::new(2);
    ds.push(&[0.0, 0.0]);
    ds.push(&[3.0, 4.0]);
    ds.push(&[6.0, 8.0]);
    ds.push(&[30.0, 40.0]);
    for i in 0..40 {
        ds.push(&[10.0 + (i % 7) as f64, 20.0 + (i % 5) as f64]);
    }
    let tree = KdTree::build(&ds);
    // One batch per radius: the 3-4-5 points at 5, the lattice at 2.
    for (ids, radius) in [((0..4).collect::<Vec<usize>>(), 5.0), ((4..ds.len()).collect(), 2.0)] {
        let exclude: Vec<u32> = ids.iter().map(|&i| i as u32).collect();
        assert_bucket_identity(&ds, &tree, &ids, radius, &exclude);
    }
    // Sanity: the boundary really is exercised.
    assert_eq!(dist(ds.point(0), ds.point(1)), 5.0);
    assert_eq!(tree.range_count(ds.point(0), 5.0, Some(0)), 1);
}

#[test]
fn adversarial_groupings_do_not_change_results() {
    // The same queries grouped three different ways — per-point singletons,
    // one giant bucket, random shuffles — must all equal the single-query
    // reference (so any consumer's bucketing policy is behaviour-neutral).
    let data = random_dataset(500, 3, 210);
    let tree = KdTree::build(&data);
    let mut rng = StdRng::seed_from_u64(211);
    let mut shuffled: Vec<usize> = (0..data.len()).collect();
    // Shuffle so bucket membership is spatially incoherent.
    rng.shuffle(&mut shuffled);
    let mut engine = BatchRangeCount::new();
    let mut counts = Vec::new();
    // One batch family per radius, each over the points that take it.
    for j in 0..13 {
        let radius = 1.0 + j as f64;
        let ids: Vec<usize> = shuffled.iter().copied().filter(|i| i % 13 == j).collect();
        let exclude: Vec<u32> =
            ids.iter().map(|&i| if i % 3 == 0 { i as u32 } else { batchq::NO_EXCLUDE }).collect();
        // Giant bucket.
        assert_bucket_identity(&data, &tree, &ids, radius, &exclude);
        // Singletons and uneven chunks.
        for chunk in [1usize, 7, 64] {
            for (group, excl) in ids.chunks(chunk).zip(exclude.chunks(chunk)) {
                engine.run(&tree, &gather_rows(&data, group), radius, excl, &mut counts);
                for (k, &i) in group.iter().enumerate() {
                    let want = (i % 3 == 0).then_some(i);
                    assert_eq!(counts[k], tree.range_count(data.point(i), radius, want));
                }
            }
        }
    }
}

#[test]
fn off_dataset_queries_and_extreme_radii() {
    // Queries that are not dataset points, zero/huge radii, and no exclusion.
    let data = random_dataset(600, 2, 401);
    let tree = KdTree::build(&data);
    let mut rng = StdRng::seed_from_u64(402);
    let k = 64;
    let rows: Vec<f64> = (0..k * 2).map(|_| rng.gen_range(-20.0..120.0)).collect();
    let (exclude, mut counts) = (vec![batchq::NO_EXCLUDE; k], Vec::new());
    for radius in [0.0, 1e-3, 5.0, 1e6] {
        BatchRangeCount::new().run(&tree, &rows, radius, &exclude, &mut counts);
        for (q, query) in rows.chunks_exact(2).enumerate() {
            assert_eq!(counts[q], tree.range_count(query, radius, None));
        }
    }
}
