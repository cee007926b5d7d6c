//! S-Approx-DPC: sampled, cell-clustering DPC with an approximation parameter
//! `ε` (§5).
//!
//! The observation behind the algorithm: points that are very close to each
//! other have almost the same local density, hence the same (or nearly the
//! same) dependent point. S-Approx-DPC therefore builds a finer grid `G'`
//! (cell side `ε·d_cut/√d`), **picks a single point per cell** (its first,
//! i.e. smallest-id, point), runs the expensive steps (range count,
//! dependent-point retrieval) only for picked points, and lets every other
//! point simply depend on the picked point of its cell. Conceptually this
//! turns point clustering into cell clustering: the number of range queries
//! drops from `n` to `|G'|`, which is what produces the near-linear scaling of
//! Figure 7 and the `ε` ↔ time trade-off of Table 5. The picked points' counts
//! go through Ex-DPC's ρ path, batched in packed order like every point's
//! there; the grid serves only the cells and their picked points.
//!
//! Dependent points of a picked point `p` of cell `c` follow the two phases of
//! §5:
//!
//! 1. `p` adopts the nearest higher-density picked point among the cells
//!    `N(c)` holding a point within `d_cut` of `p` (equal distances to the
//!    smaller cell id), an approximate dependent at most `(1 + ε)·d_cut` away;
//! 2. a picked point with no such cell gets its exact nearest higher-density
//!    picked point. The paper finds it with *temporary clusters* pruned by the
//!    triangle inequality.
//!
//! Both phases start from one nearest-denser query per picked point on the
//! ρ-phase kd-tree (the query Ex-DPC uses), with every non-picked point keyed
//! `−∞` so that only picked points can answer. Its answer `q` is the nearest
//! denser picked point, equal distances to the smallest id:
//!
//! - If `dist(p, q) ≤ d_cut` (closed ball), `q` is the phase-1 answer. `q` is
//!   a point of its own cell within `d_cut`, so that cell is in `N(c)`, and no
//!   candidate can be nearer than the nearest of all. A tie is within `d_cut`
//!   as well, hence a candidate too; and as cell ids follow first appearance,
//!   the smaller cell id holds the smaller picked id, the query's tie rule.
//! - Otherwise `p` is a local peak. One `d_cut` range search lists `N(c)`, and
//!   the nearest denser picked point of those cells wins, equal distances to
//!   the smaller cell id. If no cell of `N(c)` is denser, `q` stands: phase 2.
//!
//! Distances are compared squared, as the query compares them. The picked
//! points' queries, and the `d_cut` searches of the local peaks among them,
//! run in the tree's packed order, each on its packed row, as their counts
//! do; every answer is a canonical minimum, so the order cannot change it.
//! A point that is not picked takes its cell's picked point without a query.

use std::time::Instant;

use dpc_geometry::{dist, dist_sq, Dataset};
use dpc_index::{Grid, KdTree, MaxKeys};
use dpc_parallel::Executor;

use crate::error::DpcError;
use crate::framework::{
    cell_side, jittered_density, neighbour_counts, packed_queries, validate_dataset,
};
use crate::model::DpcModel;
use crate::params::DpcParams;
use crate::result::Timings;
use crate::DpcAlgorithm;

/// The S-Approx-DPC algorithm of §5.
#[derive(Clone, Copy, Debug)]
pub struct SApproxDpc {
    params: DpcParams,
    epsilon: f64,
}

impl SApproxDpc {
    /// Creates the algorithm with the given parameters and `ε = 1.0` (the
    /// coarsest setting evaluated by the paper).
    pub fn new(params: DpcParams) -> Self {
        Self { params, epsilon: 1.0 }
    }

    /// Sets the approximation parameter `ε > 0`. Smaller values create more
    /// cells (more accurate, slower); larger values create fewer cells (faster,
    /// coarser). Validated by `fit`, which returns
    /// [`DpcError::InvalidParams`] for a non-positive or non-finite value.
    pub fn with_epsilon(mut self, epsilon: f64) -> Self {
        self.epsilon = epsilon;
        self
    }

    /// The configured parameters.
    pub fn params(&self) -> &DpcParams {
        &self.params
    }

    /// The configured approximation parameter.
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }
}

impl DpcAlgorithm for SApproxDpc {
    fn name(&self) -> &'static str {
        "S-Approx-DPC"
    }

    fn fit(&self, data: &Dataset) -> Result<DpcModel, DpcError> {
        self.params.validate()?;
        if !(self.epsilon.is_finite() && self.epsilon > 0.0) {
            return Err(DpcError::InvalidParams {
                param: "epsilon",
                value: self.epsilon,
                requirement: "must be positive and finite",
            });
        }
        validate_dataset(data)?;
        let dcut = self.params.dcut;
        let side = cell_side(data, dcut, self.epsilon)?;
        let executor = Executor::new(self.params.threads);
        let mut timings = Timings::default();
        let n = data.len();
        let seed = self.params.jitter_seed;

        // ---- Local density phase (Corollary 1) ----
        let start = Instant::now();
        let tree = KdTree::build_parallel(data, &executor);
        let grid = Grid::build(data, side);
        // One range count per cell, for its (deterministically) picked point:
        // the first point mapped into the cell, i.e. its smallest id. The
        // counts read the picks in packed order, so they are marked by id
        // first instead of looked up through the grid per point.
        let mut is_picked = vec![false; n];
        for cell in grid.cell_ids() {
            is_picked[grid.points(cell)[0]] = true;
        }
        let counts = neighbour_counts(&tree, dcut, |p| is_picked[p], &executor);

        // Per-point densities: picked points keep their jittered count; the
        // other points of a cell inherit the un-jittered count, which is
        // strictly smaller than the picked point's density (so dependency edges
        // always point towards higher density) and keeps ρ_min behaviour
        // uniform inside a cell. `keys` is ρ on picked points and −∞ elsewhere,
        // so only picked points answer the nearest-denser queries below.
        let mut rho = vec![0.0f64; n];
        let mut keys = vec![f64::NEG_INFINITY; n];
        for cell in grid.cell_ids() {
            let members = grid.points(cell);
            let picked = members[0];
            let picked_rho = jittered_density(counts[picked], picked, seed);
            for &p in members {
                rho[p] = picked_rho.floor();
            }
            rho[picked] = picked_rho;
            keys[picked] = picked_rho;
        }
        timings.rho_secs = start.elapsed().as_secs_f64();
        let index_bytes = tree.mem_usage() + grid.mem_usage();

        // ---- Dependent point phase (Lemma 5) ----
        let start = Instant::now();
        // A point that is not picked depends on its cell's picked point, at
        // most the cell diameter `ε·d_cut` away. A picked point reads δ = ∞,
        // its own dependent, until its query below finds a denser one.
        let picked_of = |p: usize| grid.points(grid.cell_of(p))[0];
        let mut dependent: Vec<usize> = (0..n).map(picked_of).collect();
        let away = |p: usize| dist(data.point(p), data.point(dependent[p]));
        let mut delta: Vec<f64> =
            (0..n).map(|p| if is_picked[p] { f64::INFINITY } else { away(p) }).collect();
        let max_keys = MaxKeys::new(&tree, &keys);
        let dcut_sq = dcut * dcut;
        let dependent_of = |point: &[f64], key: f64, ball: &mut Vec<usize>| {
            let nearest = tree.nearest_denser(&max_keys, point, key);
            if let Some((q, _)) = nearest {
                if dist_sq(point, data.point(q)) <= dcut_sq {
                    return nearest;
                }
            }
            // A local peak: phase 1 still takes the nearest denser picked
            // point of the cells holding a point within `d_cut`, equal
            // distances to the smaller cell id, which holds the smaller id.
            tree.range_search_into(point, dcut, ball);
            let mut best: Option<(usize, f64)> = None;
            for q in ball.iter().map(|&o| picked_of(o)) {
                if keys[q] > key {
                    let d = dist_sq(point, data.point(q));
                    if best.is_none_or(|(b, bd)| d < bd || (d == bd && q < b)) {
                        best = Some((q, d));
                    }
                }
            }
            best.map(|(q, d)| (q, d.sqrt())).or(nearest)
        };
        // A task of picked points reuses one scratch ball for the `d_cut`
        // searches of its local peaks.
        let picked = |p: usize| is_picked[p];
        let found = packed_queries(&tree, picked, &executor, |rows, ids| {
            let mut ball = Vec::new();
            let rows = rows.chunks_exact(tree.dim());
            rows.zip(ids).map(|(row, &p)| dependent_of(row, keys[p as usize], &mut ball)).collect()
        });
        for (p, found) in found {
            if let Some((q, d)) = found {
                dependent[p] = q;
                delta[p] = d;
            }
        }
        timings.delta_secs = start.elapsed().as_secs_f64();

        DpcModel::from_parts(self.name(), dcut, rho, delta, dependent, timings, index_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::Thresholds;
    use crate::result::Clustering;
    use crate::{ApproxDpc, ExDpc};
    use dpc_data::generators::{gaussian_blobs, random_walk, uniform};

    /// Brute-force S-Approx-DPC from the definitions of §5 on the fit's own
    /// grid: exact closed-ball counts of the picked points; phase 1 scans
    /// `N(c)` (cells holding a point within `d_cut` of the picked point) in
    /// ascending cell id with a strict `<`; phase 2 takes the nearest denser
    /// picked point, ties to the smallest id. Also returns how many picked
    /// points' phase-1 answer is not their nearest denser picked point.
    fn brute_force(
        data: &Dataset,
        dcut: f64,
        epsilon: f64,
    ) -> (Vec<f64>, Vec<f64>, Vec<usize>, usize) {
        let n = data.len();
        let grid = Grid::build(data, epsilon * dcut / (data.dim() as f64).sqrt());
        let within = |a: usize, b: usize| dist_sq(data.point(a), data.point(b)) <= dcut * dcut;
        let picked: Vec<usize> = grid.cell_ids().map(|c| grid.points(c)[0]).collect();
        let mut rho = vec![0.0; n];
        for &p in &picked {
            let count = (0..n).filter(|&j| j != p && within(p, j)).count();
            let r = jittered_density(count, p, DpcParams::new(dcut).jitter_seed);
            for &q in grid.points(grid.cell_of(p)) {
                rho[q] = r.floor();
            }
            rho[p] = r;
        }
        let mut dependent: Vec<usize> = (0..n).map(|p| picked[grid.cell_of(p)]).collect();
        let mut delta: Vec<f64> =
            (0..n).map(|p| dist(data.point(p), data.point(dependent[p]))).collect();
        let all_cells: Vec<usize> = grid.cell_ids().collect();
        let mut diverging = 0;
        for &p in &picked {
            let nearest_in = |cells: &[usize]| {
                let mut best: Option<(usize, f64)> = None;
                for q in cells.iter().map(|&c| picked[c]).filter(|&q| rho[q] > rho[p]) {
                    let d = dist_sq(data.point(p), data.point(q));
                    if best.is_none_or(|(_, bd)| d < bd) {
                        best = Some((q, d));
                    }
                }
                best
            };
            let mut neighbours: Vec<usize> = (0..n)
                .filter(|&j| within(p, j) && grid.cell_of(j) != grid.cell_of(p))
                .map(|j| grid.cell_of(j))
                .collect();
            neighbours.sort_unstable();
            neighbours.dedup();
            let first = nearest_in(&neighbours);
            let nearest = nearest_in(&all_cells);
            if first.is_some() && first != nearest {
                diverging += 1;
            }
            match first.or(nearest) {
                Some((q, d)) => (dependent[p], delta[p]) = (q, d.sqrt()),
                None => (dependent[p], delta[p]) = (p, f64::INFINITY),
            }
        }
        (rho, delta, dependent, diverging)
    }

    #[test]
    fn matches_brute_force_on_random_lattice_and_duplicate_data() {
        let snapped = |data: Dataset, cell: f64| {
            let flat = data.flat().iter().map(|c| (c / cell).floor() * cell).collect();
            Dataset::from_flat(data.dim(), flat)
        };
        let fixtures = [
            ("uniform 2-d", uniform(600, 2, 100.0, 41), 8.0),
            ("lattice 2-d", snapped(uniform(600, 2, 100.0, 42), 5.0), 8.0),
            ("uniform 3-d", uniform(500, 3, 50.0, 43), 9.0),
            ("lattice 3-d", snapped(uniform(500, 3, 50.0, 44), 4.0), 9.0),
            ("uniform 8-d", uniform(300, 8, 20.0, 45), 12.0),
            ("lattice 8-d", snapped(uniform(300, 8, 20.0, 46), 5.0), 12.0),
            (
                "duplicates",
                Dataset::from_flat(
                    2,
                    (0..400).flat_map(|i| [(i % 5) as f64 * 3.0, (i % 3) as f64 * 3.0]).collect(),
                ),
                4.0,
            ),
        ];
        let mut diverging = 0;
        for (name, data, dcut) in &fixtures {
            for epsilon in [0.2, 0.5, 1.0] {
                let (rho, delta, dependent, div) = brute_force(data, *dcut, epsilon);
                diverging += div;
                for threads in [1usize, 4] {
                    let params = DpcParams::new(*dcut).with_threads(threads);
                    let m = SApproxDpc::new(params).with_epsilon(epsilon).fit(data).unwrap();
                    for i in 0..data.len() {
                        assert_eq!(
                            (m.rho()[i].to_bits(), m.delta()[i].to_bits(), m.dependent()[i]),
                            (rho[i].to_bits(), delta[i].to_bits(), dependent[i]),
                            "{name}, ε {epsilon}, threads {threads}, point {i}"
                        );
                    }
                }
            }
        }
        // The local-peak branch decides some answers: a phase-1 answer that
        // is not the nearest denser picked point.
        assert!(diverging > 0, "no fixture exercises the local-peak branch");
    }

    #[test]
    fn dependents_point_to_strictly_higher_density() {
        let data = uniform(800, 2, 100.0, 5);
        let m = SApproxDpc::new(DpcParams::new(6.0)).with_epsilon(0.5).fit(&data).unwrap();
        for i in 0..data.len() {
            let dep = m.dependent()[i];
            if dep != i {
                assert!(m.rho()[dep] > m.rho()[i], "point {i} depends on a lower-density point");
            } else {
                assert!(m.delta()[i].is_infinite());
            }
        }
    }

    #[test]
    fn recovers_well_separated_blobs() {
        let centers = [(0.0, 0.0), (120.0, 0.0), (60.0, 120.0)];
        let data = gaussian_blobs(&centers, 300, 3.0, 13);
        let params = DpcParams::new(8.0);
        let thresholds = Thresholds::new(5.0, 40.0).unwrap();
        for eps in [0.2, 0.5, 1.0] {
            let c = SApproxDpc::new(params).with_epsilon(eps).run(&data, &thresholds).unwrap();
            assert_eq!(c.num_clusters(), 3, "ε = {eps}");
            for blob in 0..3 {
                let labels: Vec<i64> = (blob * 300..(blob + 1) * 300)
                    .map(|i| c.assignment[i])
                    .filter(|&l| l >= 0)
                    .collect();
                assert!(labels.windows(2).all(|w| w[0] == w[1]), "blob {blob} split (ε = {eps})");
            }
        }
    }

    #[test]
    fn smaller_epsilon_means_more_range_searches_and_better_agreement() {
        let data = random_walk(4_000, 6, 1e4, 9);
        let params = DpcParams::new(60.0);
        let thresholds = Thresholds::new(3.0, 200.0).unwrap();
        let exact = ExDpc::new(params).run(&data, &thresholds).unwrap();
        let fine = SApproxDpc::new(params).with_epsilon(0.2).run(&data, &thresholds).unwrap();
        let coarse = SApproxDpc::new(params).with_epsilon(1.0).run(&data, &thresholds).unwrap();
        let agreement = |c: &Clustering| {
            c.assignment.iter().zip(exact.assignment.iter()).filter(|(a, b)| a == b).count() as f64
                / data.len() as f64
        };
        // Pair-counting agreement is evaluated properly by dpc-eval's Rand
        // index; label agreement is a cruder proxy but monotonicity in ε and a
        // high floor are still expected here.
        assert!(agreement(&fine) >= agreement(&coarse) - 0.05);
        assert!(agreement(&fine) > 0.6, "fine agreement too low: {}", agreement(&fine));
    }

    #[test]
    fn parallel_matches_sequential() {
        let data = random_walk(2_000, 4, 1e4, 3);
        let params = DpcParams::new(80.0);
        let thresholds = Thresholds::new(2.0, 300.0).unwrap();
        let seq = SApproxDpc::new(params.with_threads(1)).with_epsilon(0.6).fit(&data).unwrap();
        let par = SApproxDpc::new(params.with_threads(4)).with_epsilon(0.6).fit(&data).unwrap();
        assert_eq!(seq.rho(), par.rho());
        assert_eq!(seq.delta(), par.delta());
        assert_eq!(seq.dependent(), par.dependent());
        assert_eq!(seq.extract(&thresholds).assignment, par.extract(&thresholds).assignment);
    }

    #[test]
    fn approx_and_sapprox_select_similar_centres_on_clean_data() {
        let centers = [(0.0, 0.0), (200.0, 200.0)];
        let data = gaussian_blobs(&centers, 400, 5.0, 21);
        let params = DpcParams::new(10.0);
        let thresholds = Thresholds::new(5.0, 60.0).unwrap();
        let a = ApproxDpc::new(params).run(&data, &thresholds).unwrap();
        let s = SApproxDpc::new(params).with_epsilon(0.4).run(&data, &thresholds).unwrap();
        assert_eq!(a.num_clusters(), 2);
        assert_eq!(s.num_clusters(), 2);
    }

    #[test]
    fn empty_single_and_degenerate_inputs() {
        let params = DpcParams::new(1.0);
        assert_eq!(
            SApproxDpc::new(params).fit(&Dataset::new(3)).unwrap_err(),
            DpcError::EmptyDataset
        );

        let thresholds = Thresholds::for_dcut(1.0);
        let single = Dataset::from_flat(3, vec![1.0, 2.0, 3.0]);
        let c = SApproxDpc::new(params).run(&single, &thresholds).unwrap();
        assert_eq!(c.num_clusters(), 1);

        // All points identical: one cell, one picked point, everything in one
        // cluster.
        let same = Dataset::from_flat(2, vec![5.0; 20]);
        let c = SApproxDpc::new(params).with_epsilon(0.5).run(&same, &thresholds).unwrap();
        assert_eq!(c.num_clusters(), 1);
        assert!(c.assignment.iter().all(|&l| l == 0));
    }

    #[test]
    fn invalid_epsilon_is_an_error_not_a_panic() {
        let data = uniform(20, 2, 10.0, 1);
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let err =
                SApproxDpc::new(DpcParams::new(1.0)).with_epsilon(bad).fit(&data).unwrap_err();
            assert!(
                matches!(err, DpcError::InvalidParams { param: "epsilon", .. }),
                "{bad}: {err:?}"
            );
        }
    }

    #[test]
    fn exactly_one_infinite_delta_among_picked_points() {
        let data = uniform(500, 2, 80.0, 33);
        let m = SApproxDpc::new(DpcParams::new(5.0)).with_epsilon(0.8).fit(&data).unwrap();
        assert_eq!(m.delta().iter().filter(|d| d.is_infinite()).count(), 1);
    }
}
