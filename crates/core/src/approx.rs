//! Approx-DPC: grid-accelerated DPC with exact densities, approximate
//! dependent points, and full parallelisability (§4).
//!
//! Compared with Ex-DPC it changes two things:
//!
//! * **Joint range search** (§4.2) — points in the same grid cell (side
//!   `d_cut/√d`) have heavily overlapping query balls, so the paper searches
//!   once per cell and scans the result for each member. Here Ex-DPC's ρ
//!   path plays that role and goes further: one dual-tree self-join over the
//!   kd-tree ([`selfjoin::count_all_within`]) shares the search between
//!   whole nodes of nearby points and decides each pair of points once, for
//!   both ends. Every count is the exact Definition 1 count, so the
//!   densities are Ex-DPC's bit for bit. The grid serves only the cells,
//!   their `p*(c)` and their minimum densities.
//! * **Cell-based dependent-point approximation** (§4.3) — a point that is not
//!   the densest of its cell takes the cell's densest point `p*(c)` as its
//!   approximate dependent point (distance at most `d_cut`). The cell's
//!   densest point takes `p*(c₂)` of the first cell `c₂`, by ascending id, of
//!   its neighbour cells `N(c)` (the cells `≠ c` holding a point within
//!   `d_cut` of `p*(c)`) whose minimum density exceeds `ρ(p*(c))`. One
//!   kd-tree query per cell finds `c₂` without listing `N(c)`: keyed by its
//!   cell's minimum density and labelled by its cell id, the points within
//!   `d_cut` of `p*(c)` whose key exceeds `ρ(p*(c))` have `c₂` as their
//!   smallest label ([`KdTree::smallest_denser_label`]). Cell `c`
//!   itself never qualifies, as its minimum density is at most `ρ(p*(c))`.
//!   Points for which neither rule applies (`P'`) get their **exact**
//!   dependent point — which is what preserves the cluster centres of Ex-DPC
//!   (Theorem 4). The paper partitions `P` into `s` density-ordered subsets
//!   with one kd-tree each; here every point of `P'` asks the ρ-phase kd-tree
//!   the same nearest-denser query Ex-DPC uses, so no further index is built.
//!
//! The per-cell queries from each `p*(c)` and the `P'` queries run in the
//! kd-tree's packed order, each on its packed row, so consecutive queries
//! search neighbouring subtrees. The workers claim them, and the
//! self-join's tasks, dynamically, so no phase needs the cost-based
//! partitioning of §4.5. Each δ answer is a minimum over a fixed set (the
//! smallest label; the nearest denser point, ties to the smallest id), so the
//! order cannot change it.

use std::time::Instant;

use dpc_geometry::Dataset;
use dpc_index::{selfjoin, Grid, KdTree, MaxKeys, MinLabels};
use dpc_parallel::Executor;

use crate::error::DpcError;
use crate::framework::{
    cell_side, jittered_density, packed_queries, resolve_dependents, validate_dataset,
};
use crate::model::DpcModel;
use crate::params::DpcParams;
use crate::result::Timings;
use crate::DpcAlgorithm;

/// The Approx-DPC algorithm of §4.
#[derive(Clone, Copy, Debug)]
pub struct ApproxDpc {
    params: DpcParams,
}

/// Per-cell metadata of the local-density phase (§4.1), indexed by cell id.
struct Cells {
    grid: Grid,
    /// `p_star[c]`: cell `c`'s densest point, the first strict maximum in
    /// ascending id order.
    p_star: Vec<usize>,
    /// `min_rho[c]`: the minimum (jittered) density among cell `c`'s points.
    min_rho: Vec<f64>,
}

impl ApproxDpc {
    /// Creates the algorithm with the given parameters (validated by `fit`).
    pub fn new(params: DpcParams) -> Self {
        Self { params }
    }

    /// The configured parameters.
    pub fn params(&self) -> &DpcParams {
        &self.params
    }

    /// Local-density phase: exact densities through Ex-DPC's self-join, then
    /// one sweep over the cells of a grid of side `side` for `p*(c)` and
    /// `min ρ(c)`.
    fn densities(
        &self,
        data: &Dataset,
        tree: &KdTree,
        side: f64,
        executor: &Executor,
    ) -> (Vec<f64>, Cells) {
        let dcut = self.params.dcut;
        let seed = self.params.jitter_seed;
        let grid = Grid::build(data, side);
        let counts = selfjoin::count_all_within(tree, dcut, executor);
        let rho: Vec<f64> = counts
            .into_iter()
            .enumerate()
            .map(|(p, count)| jittered_density(count, p, seed))
            .collect();
        let mut p_star = Vec::with_capacity(grid.num_cells());
        let mut min_rho = Vec::with_capacity(grid.num_cells());
        for cell in grid.cell_ids() {
            let members = grid.points(cell);
            let mut star = members[0];
            let mut low = f64::INFINITY;
            for &p in members {
                if rho[p] > rho[star] {
                    star = p;
                }
                low = low.min(rho[p]);
            }
            p_star.push(star);
            min_rho.push(low);
        }
        (rho, Cells { grid, p_star, min_rho })
    }

    /// Dependent-point phase (§4.3): the cell-based approximation plus the
    /// exact computation for the residual set `P'` on the ρ-phase `tree`.
    /// Returns `(dependent, delta)`.
    fn dependents(
        &self,
        tree: &KdTree,
        executor: &Executor,
        rho: &[f64],
        cells: &Cells,
    ) -> (Vec<usize>, Vec<f64>) {
        let n = rho.len();
        let dcut = self.params.dcut;
        let Cells { grid, p_star, min_rho } = cells;
        let cell_of = grid.point_cells();

        // The first denser cell of N(c), one query per cell from p*(c).
        let keys: Vec<f64> = cell_of.iter().map(|&c| min_rho[c]).collect();
        let max_keys = MaxKeys::new(tree, &keys);
        let labels = MinLabels::new(tree, cell_of);
        let first_denser = |row: &[f64], star: u32| {
            tree.smallest_denser_label(&max_keys, &labels, row, dcut, rho[star as usize])
        };
        let is_star = |p: usize| p_star[cell_of[p]] == p;
        let found = packed_queries(tree, is_star, executor, |rows, ids| {
            let rows = rows.chunks_exact(tree.dim());
            rows.zip(ids).map(|(row, &star)| first_denser(row, star)).collect()
        });
        let mut denser_cell: Vec<Option<usize>> = vec![None; grid.num_cells()];
        for (star, c2) in found {
            denser_cell[cell_of[star]] = c2;
        }

        let mut dependent: Vec<usize> = (0..n).collect();
        let mut delta = vec![f64::INFINITY; n];
        let mut residual = vec![false; n];
        for p in 0..n {
            let c = cell_of[p];
            let approx =
                if p != p_star[c] { Some(p_star[c]) } else { denser_cell[c].map(|c2| p_star[c2]) };
            match approx {
                Some(q) => {
                    debug_assert!(rho[q] > rho[p]);
                    dependent[p] = q;
                    delta[p] = dcut;
                }
                None => residual[p] = true,
            }
        }

        // Exact computation for P' (§4.3, "Exact computation"). The globally
        // densest point finds no denser point and keeps δ = ∞, q = itself.
        resolve_dependents(tree, rho, |p| residual[p], executor, &mut dependent, &mut delta);
        (dependent, delta)
    }
}

impl DpcAlgorithm for ApproxDpc {
    fn name(&self) -> &'static str {
        "Approx-DPC"
    }

    fn fit(&self, data: &Dataset) -> Result<DpcModel, DpcError> {
        self.params.validate()?;
        validate_dataset(data)?;
        let side = cell_side(data, self.params.dcut, 1.0)?;
        let executor = Executor::new(self.params.threads);
        let mut timings = Timings::default();

        let start = Instant::now();
        let tree = KdTree::build_parallel(data, &executor);
        let (rho, cells) = self.densities(data, &tree, side, &executor);
        timings.rho_secs = start.elapsed().as_secs_f64();

        let start = Instant::now();
        let (dependent, delta) = self.dependents(&tree, &executor, &rho, &cells);
        timings.delta_secs = start.elapsed().as_secs_f64();

        let index_bytes = tree.mem_usage() + cells.grid.mem_usage();
        DpcModel::from_parts(
            self.name(),
            self.params.dcut,
            rho,
            delta,
            dependent,
            timings,
            index_bytes,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::Thresholds;
    use crate::ExDpc;
    use dpc_data::generators::{gaussian_blobs, random_walk, uniform};
    use dpc_geometry::dist_sq;

    /// Brute-force Approx-DPC from the definitions of §4 on the fit's own
    /// grid: exact closed-ball counts; `p*(c)`, the first strict maximum by
    /// ascending id, and `min ρ(c)`; `N(c)` (the cells `≠ c` holding a point
    /// within `d_cut` of `p*(c)`) scanned by ascending cell id for the first
    /// strictly larger `min ρ`; `P'` gets the nearest denser point, ties to
    /// the smallest id. Also returns how many `p*(c)` the `N(c)` rule answers.
    fn brute_force(data: &Dataset, dcut: f64) -> (Vec<f64>, Vec<f64>, Vec<usize>, usize) {
        let n = data.len();
        let grid = Grid::build(data, dcut / (data.dim() as f64).sqrt());
        let d_sq = |a: usize, b: usize| dist_sq(data.point(a), data.point(b));
        let seed = DpcParams::new(dcut).jitter_seed;
        let rho: Vec<f64> = (0..n)
            .map(|p| {
                let count = (0..n).filter(|&j| j != p && d_sq(p, j) <= dcut * dcut).count();
                jittered_density(count, p, seed)
            })
            .collect();
        let mut p_star = Vec::new();
        let mut min_rho = Vec::new();
        for c in grid.cell_ids() {
            let members = grid.points(c);
            let mut star = members[0];
            for &p in members {
                if rho[p] > rho[star] {
                    star = p;
                }
            }
            p_star.push(star);
            min_rho.push(members.iter().map(|&p| rho[p]).fold(f64::INFINITY, f64::min));
        }
        let mut dependent: Vec<usize> = (0..n).collect();
        let mut delta = vec![f64::INFINITY; n];
        let mut cell_rule = 0;
        for p in 0..n {
            let c = grid.cell_of(p);
            if p != p_star[c] {
                (dependent[p], delta[p]) = (p_star[c], dcut);
                continue;
            }
            let mut neighbours: Vec<usize> = (0..n)
                .filter(|&j| d_sq(p, j) <= dcut * dcut && grid.cell_of(j) != c)
                .map(|j| grid.cell_of(j))
                .collect();
            neighbours.sort_unstable();
            neighbours.dedup();
            if let Some(&c2) = neighbours.iter().find(|&&c2| min_rho[c2] > rho[p]) {
                (dependent[p], delta[p]) = (p_star[c2], dcut);
                cell_rule += 1;
                continue;
            }
            let mut best: Option<(usize, f64)> = None;
            for q in (0..n).filter(|&q| rho[q] > rho[p]) {
                if best.is_none_or(|(_, bd)| d_sq(p, q) < bd) {
                    best = Some((q, d_sq(p, q)));
                }
            }
            if let Some((q, d)) = best {
                (dependent[p], delta[p]) = (q, d.sqrt());
            }
        }
        (rho, delta, dependent, cell_rule)
    }

    #[test]
    fn matches_brute_force_on_random_lattice_and_duplicate_data() {
        let snapped = |data: Dataset, cell: f64| {
            let flat = data.flat().iter().map(|c| (c / cell).floor() * cell).collect();
            Dataset::from_flat(data.dim(), flat)
        };
        let fixtures = [
            ("uniform 2-d", uniform(600, 2, 100.0, 51), 8.0),
            ("lattice 2-d", snapped(uniform(600, 2, 100.0, 52), 5.0), 8.0),
            ("uniform 3-d", uniform(500, 3, 50.0, 53), 9.0),
            ("lattice 3-d", snapped(uniform(500, 3, 50.0, 54), 4.0), 9.0),
            ("uniform 8-d", uniform(300, 8, 20.0, 55), 12.0),
            ("lattice 8-d", snapped(uniform(300, 8, 20.0, 56), 5.0), 12.0),
            (
                "duplicates",
                Dataset::from_flat(
                    2,
                    (0..400).flat_map(|i| [(i % 5) as f64 * 3.0, (i % 3) as f64 * 3.0]).collect(),
                ),
                4.0,
            ),
        ];
        for (name, data, dcut) in &fixtures {
            let (rho, delta, dependent, cell_rule) = brute_force(data, *dcut);
            // The N(c) rule answers some densest points in every fixture.
            assert!(cell_rule > 0, "{name}: the N(c) rule answers no p*(c)");
            for threads in [1usize, 4] {
                let params = DpcParams::new(*dcut).with_threads(threads);
                let m = ApproxDpc::new(params).fit(data).unwrap();
                for i in 0..data.len() {
                    assert_eq!(
                        (m.rho()[i].to_bits(), m.delta()[i].to_bits(), m.dependent()[i]),
                        (rho[i].to_bits(), delta[i].to_bits(), dependent[i]),
                        "{name}, threads {threads}, point {i}"
                    );
                }
            }
        }
    }

    #[test]
    fn densities_are_exact() {
        // Approx-DPC computes exact local densities (required by Theorem 4).
        let data = uniform(500, 2, 100.0, 17);
        let params = DpcParams::new(7.0);
        let approx = ApproxDpc::new(params).fit(&data).unwrap();
        let exact = ExDpc::new(params).fit(&data).unwrap();
        assert_eq!(approx.rho(), exact.rho());
    }

    #[test]
    fn batched_counts_leave_rho_bitwise_unchanged() {
        // The batched counts must leave the model's densities bitwise equal
        // to the definitional per-point range counts, at every thread count.
        let data = uniform(600, 2, 100.0, 47);
        let params = DpcParams::new(7.0);
        let tree = KdTree::build(&data);
        for threads in [1usize, 2, 4, 8] {
            let p = params.with_threads(threads);
            let model = ApproxDpc::new(p).fit(&data).unwrap();
            for i in 0..data.len() {
                let expected = jittered_density(
                    tree.range_count(data.point(i), p.dcut, Some(i)),
                    i,
                    p.jitter_seed,
                );
                assert_eq!(
                    model.rho()[i].to_bits(),
                    expected.to_bits(),
                    "point {i}, threads {threads}"
                );
            }
        }
    }

    #[test]
    fn same_cluster_centers_as_exdpc() {
        // Theorem 4: identical ρ_min / δ_min ⇒ identical centres.
        for seed in [1u64, 2, 3] {
            let data = random_walk(4_000, 6, 1e4, seed);
            let params = DpcParams::new(60.0);
            let thresholds = Thresholds::new(4.0, 200.0).unwrap();
            let exact = ExDpc::new(params).run(&data, &thresholds).unwrap();
            let approx = ApproxDpc::new(params).run(&data, &thresholds).unwrap();
            assert_eq!(exact.centers, approx.centers, "seed {seed}");
        }
    }

    #[test]
    fn delta_is_exact_for_points_with_delta_above_dcut() {
        let data = uniform(400, 2, 100.0, 23);
        let params = DpcParams::new(5.0);
        let exact = ExDpc::new(params).fit(&data).unwrap();
        let approx = ApproxDpc::new(params).fit(&data).unwrap();
        for i in 0..data.len() {
            if exact.delta()[i] > params.dcut {
                assert!(
                    (exact.delta()[i] - approx.delta()[i]).abs() < 1e-9
                        || (exact.delta()[i].is_infinite() && approx.delta()[i].is_infinite()),
                    "point {i}: exact δ {} vs approx δ {}",
                    exact.delta()[i],
                    approx.delta()[i]
                );
            } else {
                // Approximated points report δ = d_cut, never more than the truth
                // by construction of the rules (a close higher-density point exists).
                assert!(approx.delta()[i] <= params.dcut + 1e-9);
            }
        }
    }

    #[test]
    fn dependent_points_always_have_higher_density() {
        let data = gaussian_blobs(&[(0.0, 0.0), (80.0, 80.0)], 200, 4.0, 31);
        let model = ApproxDpc::new(DpcParams::new(5.0)).fit(&data).unwrap();
        for i in 0..data.len() {
            let dep = model.dependent()[i];
            if dep != i {
                assert!(model.rho()[dep] > model.rho()[i]);
            } else {
                assert!(model.delta()[i].is_infinite());
            }
        }
    }

    #[test]
    fn high_agreement_with_exdpc_on_blobs() {
        let centers = [(0.0, 0.0), (100.0, 0.0), (0.0, 100.0), (100.0, 100.0)];
        let data = gaussian_blobs(&centers, 250, 3.0, 7);
        let params = DpcParams::new(6.0);
        let thresholds = Thresholds::new(5.0, 40.0).unwrap();
        let exact = ExDpc::new(params).run(&data, &thresholds).unwrap();
        let approx = ApproxDpc::new(params).run(&data, &thresholds).unwrap();
        assert_eq!(exact.num_clusters(), 4);
        assert_eq!(approx.num_clusters(), 4);
        let agree =
            exact.assignment.iter().zip(approx.assignment.iter()).filter(|(a, b)| a == b).count();
        assert!(agree as f64 / data.len() as f64 > 0.98, "agreement {agree}/{}", data.len());
    }

    #[test]
    fn parallel_matches_sequential() {
        let data = random_walk(3_000, 5, 1e4, 4);
        let params = DpcParams::new(80.0);
        let thresholds = Thresholds::new(3.0, 300.0).unwrap();
        let seq = ApproxDpc::new(params.with_threads(1)).fit(&data).unwrap();
        let par = ApproxDpc::new(params.with_threads(4)).fit(&data).unwrap();
        assert_eq!(seq.rho(), par.rho());
        assert_eq!(seq.delta(), par.delta());
        assert_eq!(seq.dependent(), par.dependent());
        assert_eq!(seq.extract(&thresholds).assignment, par.extract(&thresholds).assignment);
    }

    #[test]
    fn empty_single_and_tiny_inputs() {
        let params = DpcParams::new(1.0);
        assert_eq!(
            ApproxDpc::new(params).fit(&Dataset::new(2)).unwrap_err(),
            DpcError::EmptyDataset
        );

        let thresholds = Thresholds::for_dcut(1.0);
        let single = Dataset::from_flat(2, vec![1.0, 2.0]);
        let c = ApproxDpc::new(params).run(&single, &thresholds).unwrap();
        assert_eq!(c.num_clusters(), 1);

        let two = Dataset::from_flat(2, vec![0.0, 0.0, 10.0, 10.0]);
        let c = ApproxDpc::new(params).run(&two, &thresholds).unwrap();
        assert_eq!(c.len(), 2);
        assert_eq!(c.num_clusters(), 2); // both isolated → both centres
    }

    #[test]
    fn index_bytes_accounts_for_grid_and_trees() {
        let data = uniform(500, 2, 50.0, 8);
        let approx = ApproxDpc::new(DpcParams::new(3.0)).fit(&data).unwrap();
        let exact = ExDpc::new(DpcParams::new(3.0)).fit(&data).unwrap();
        assert!(approx.index_bytes() > exact.index_bytes());
    }
}
