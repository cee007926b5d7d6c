//! Identity tests for the dual-tree self-join (`dpc_index::selfjoin`).
//!
//! The contract under test: **every** point's count from
//! `count_all_within(tree, r, executor)` equals the point's own
//! `tree.range_count(point(id), r, Some(id))`, at every thread count. The
//! suite sweeps d ∈ {1, 2, 3, 4, 5, 8}, so both the fixed-dimension and the
//! scalar pair kernels run; sizes around one leaf bucket (15, 16, 17 points)
//! and up to 5,000 points, so the walk splits, prunes and contains at every
//! depth; uniform, duplicate-heavy, collinear and lattice-snapped data, the
//! last with the radius equal to the lattice step, so that pairs sit at
//! exactly `r`; and the radii 0, above the data's diameter (every `own` node
//! contained), NaN and negative (no counts, like `range_count`).
//!
//! The fixed-dimension kernels are vectorised only in optimised builds, so
//! the suite runs on both the dev and the release profile (CI runs both).

use dpc_geometry::{dist, Dataset};
use dpc_index::selfjoin::count_all_within;
use dpc_index::KdTree;
use dpc_parallel::Executor;
use dpc_rng::StdRng;

const DIMS: [usize; 6] = [1, 2, 3, 4, 5, 8];
const THREADS: [usize; 4] = [1, 2, 4, 8];
/// The lattice step of [`lattice`], and the radius it is tested at.
const STEP: f64 = 5.0;

/// `n` uniform points in `[0, 100)^dim`.
fn uniform(n: usize, dim: usize, seed: u64) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    Dataset::from_flat(dim, (0..n * dim).map(|_| rng.gen_range(0.0..100.0)).collect())
}

/// `n` points drawn from 8 distinct locations: exact duplicates everywhere,
/// so boxes of zero extent are contained at any radius.
fn duplicates(n: usize, dim: usize, seed: u64) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let distinct: Vec<Vec<f64>> =
        (0..8).map(|_| (0..dim).map(|_| rng.gen_range(0.0..50.0)).collect()).collect();
    let mut ds = Dataset::new(dim);
    for _ in 0..n {
        ds.push(&distinct[rng.gen_range(0..distinct.len())]);
    }
    ds
}

/// `n` points `t · dir` on one line, `t` a random integer in `0..100`.
fn collinear(n: usize, dim: usize, seed: u64) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let dir: Vec<f64> = (0..dim).map(|a| if a % 2 == 0 { 1.0 } else { -0.5 }).collect();
    let mut ds = Dataset::new(dim);
    for _ in 0..n {
        let t = rng.gen_range(0.0..100.0f64).floor();
        ds.push(&dir.iter().map(|&d| t * d).collect::<Vec<f64>>());
    }
    ds
}

/// Uniform points snapped down to multiples of [`STEP`]: lattice neighbours
/// lie exactly `STEP` apart, with `dist_sq` exactly `STEP²`.
fn lattice(n: usize, dim: usize, seed: u64) -> Dataset {
    let data = uniform(n, dim, seed);
    Dataset::from_flat(dim, data.flat().iter().map(|c| (c / STEP).floor() * STEP).collect())
}

/// The radius at which a uniform point has a few dozen neighbours.
fn mid_radius(n: usize, dim: usize) -> f64 {
    100.0 * (30.0 / n.max(1) as f64).powf(1.0 / dim as f64)
}

/// Asserts the self-join against one `range_count` per point, at every
/// thread count of [`THREADS`].
fn assert_identity(data: &Dataset, radius: f64, ctx: &str) {
    let tree = KdTree::build(data);
    let want: Vec<usize> =
        (0..data.len()).map(|id| tree.range_count(data.point(id), radius, Some(id))).collect();
    for threads in THREADS {
        let got = count_all_within(&tree, radius, &Executor::new(threads));
        assert_eq!(got.len(), want.len(), "{ctx}, r = {radius}, threads {threads}");
        for (id, (&g, &w)) in got.iter().zip(&want).enumerate() {
            assert_eq!(g, w, "{ctx}, r = {radius}, threads {threads}, point {id}");
        }
    }
}

#[test]
fn every_count_equals_its_range_count() {
    for dim in DIMS {
        for n in [0usize, 1, 15, 16, 17, 1000] {
            let seed = 100 * dim as u64 + n as u64;
            let sets = [
                ("uniform", uniform(n, dim, seed)),
                ("duplicates", duplicates(n, dim, seed)),
                ("collinear", collinear(n, dim, seed)),
                ("lattice", lattice(n, dim, seed)),
            ];
            for (kind, data) in &sets {
                for radius in [0.0, STEP, 10.0, mid_radius(n, dim)] {
                    assert_identity(data, radius, &format!("{kind}, d = {dim}, n = {n}"));
                }
            }
        }
    }
}

#[test]
fn five_thousand_points_split_into_many_tasks() {
    for dim in DIMS {
        let seed = 5000 + dim as u64;
        assert_identity(&uniform(5000, dim, seed), mid_radius(5000, dim), &format!("d = {dim}"));
        assert_identity(&lattice(5000, dim, seed), STEP, &format!("lattice, d = {dim}"));
    }
}

#[test]
fn lattice_pairs_sit_exactly_at_the_radius() {
    // The boundary really is exercised: lattice neighbours at exactly r count
    // on both ends, and no point counts itself.
    let mut ds = Dataset::new(2);
    for x in 0..6 {
        for y in 0..6 {
            ds.push(&[x as f64 * STEP, y as f64 * STEP]);
        }
    }
    assert_eq!(dist(ds.point(0), ds.point(1)), STEP);
    let tree = KdTree::build(&ds);
    for threads in THREADS {
        let counts = count_all_within(&tree, STEP, &Executor::new(threads));
        // Corners have 2 lattice neighbours, edges 3 and inner points 4.
        assert_eq!(counts[0], 2, "threads {threads}");
        assert_eq!(counts[1], 3, "threads {threads}");
        assert_eq!(counts[7], 4, "threads {threads}");
        assert_eq!(counts.iter().sum::<usize>(), 2 * 2 * 6 * 5, "threads {threads}");
    }
    assert_identity(&ds, STEP, "6×6 lattice");
}

#[test]
fn a_radius_above_the_diameter_counts_every_other_point() {
    for dim in DIMS {
        for n in [1usize, 17, 1000] {
            let data = uniform(n, dim, 7 * dim as u64 + n as u64);
            let tree = KdTree::build(&data);
            for threads in THREADS {
                let counts = count_all_within(&tree, 1e4, &Executor::new(threads));
                assert!(counts.iter().all(|&c| c == n - 1), "d = {dim}, n = {n}");
            }
            assert_identity(&data, 1e4, &format!("d = {dim}, n = {n}"));
        }
    }
}

#[test]
fn nan_and_negative_radii_count_nothing() {
    for dim in DIMS {
        let data = duplicates(300, dim, 11 + dim as u64);
        let tree = KdTree::build(&data);
        for radius in [f64::NAN, -1.0, f64::NEG_INFINITY] {
            for threads in THREADS {
                let counts = count_all_within(&tree, radius, &Executor::new(threads));
                assert_eq!(counts, vec![0; data.len()], "d = {dim}, r = {radius}");
            }
            assert_identity(&data, radius, &format!("d = {dim}"));
        }
    }
}
