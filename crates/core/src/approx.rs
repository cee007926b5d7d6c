//! Approx-DPC: grid-accelerated DPC with exact densities, approximate
//! dependent points, and full parallelisability (§4).
//!
//! Compared with Ex-DPC it changes two things:
//!
//! * **Joint range search** (§4.2) — points in the same grid cell (side
//!   `d_cut/√d`) have heavily overlapping query balls, so one kd-tree range
//!   search per *cell* (query = cell centre `cp_i`, radius
//!   `d_cut + dist(cp_i, p′)`) returns a superset of every per-point ball in
//!   the cell; exact densities are then computed by scanning that superset.
//!   The superset's coordinates are gathered into contiguous rows once per
//!   cell, so the per-member scans run on the batched (optionally SIMD)
//!   `dpc_geometry::batch` kernels with the shared closed-ball semantics.
//! * **Cell-based dependent-point approximation** (§4.3) — a point that is not
//!   the densest of its cell takes the cell's densest point `p*(c)` as its
//!   approximate dependent point (distance at most `d_cut`); the cell's densest
//!   point looks for a neighbouring cell whose minimum density is higher.
//!   Points for which neither rule applies (`P'`) get their **exact** dependent
//!   point — which is what preserves the cluster centres of Ex-DPC
//!   (Theorem 4). The paper partitions `P` into `s` density-ordered subsets
//!   with one kd-tree each; here every point of `P'` asks the ρ-phase kd-tree
//!   the same nearest-denser query Ex-DPC uses, so no further index is built.
//!
//! The exact-density scans are parallelised with cost-based (LPT)
//! partitioning, using the cost model of §4.5; the `P'` queries are
//! scheduled dynamically.

use std::time::Instant;

use dpc_geometry::{batch, dist, Dataset};
use dpc_index::batchq::{self, BatchRangeSearch};
use dpc_index::{Grid, KdTree};
use dpc_parallel::Executor;

use crate::error::DpcError;
use crate::framework::{jittered_density, resolve_dependents, validate_dataset};
use crate::model::DpcModel;
use crate::params::DpcParams;
use crate::result::Timings;
use crate::DpcAlgorithm;

/// Per-cell metadata produced by the local-density phase (§4.1).
struct CellMeta {
    /// The cell's densest point `p*(c)`.
    p_star: usize,
    /// The minimum (jittered) density among the cell's points.
    min_rho: f64,
    /// Cells containing a point `p ∉ P(c)` with `dist(p*(c), p) ≤ d_cut`.
    neighbors: Vec<usize>,
}

/// The Approx-DPC algorithm of §4.
#[derive(Clone, Copy, Debug)]
pub struct ApproxDpc {
    params: DpcParams,
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

    /// Local-density phase: joint range searches, exact densities, and per-cell
    /// metadata. Returns `(rho, grid, cell_meta, kd_tree)`.
    fn densities<'a>(
        &self,
        data: &'a Dataset,
        executor: &Executor,
    ) -> (Vec<f64>, Grid, Vec<CellMeta>, KdTree<'a>) {
        let dcut = self.params.dcut;
        let seed = self.params.jitter_seed;
        let tree = KdTree::build_parallel(data, executor);
        let side = dcut / (data.dim() as f64).sqrt();
        // Bit-identical to the serial build at every thread count, so the
        // whole fit stays deterministic across --threads.
        let grid = Grid::build_parallel(data, side, executor);
        let cells: Vec<usize> = grid.cell_ids().collect();

        // Phase 1: one range search per cell (query = cell centre, radius
        // d_cut + the farthest member), batched per grid bucket: spatially
        // adjacent cells share one joint tree descent through the batched
        // engine, whose per-query results are bit-identical to the former
        // per-cell `range_search` calls. Buckets fan out over contiguous
        // ranges balanced by member count.
        let per_cell: Vec<(Vec<f64>, f64)> = executor.map_dynamic(cells.len(), |cell| {
            let center = grid.center(cell);
            let radius_extra = grid
                .points(cell)
                .iter()
                .map(|&p| dist(&center, data.point(p)))
                .fold(0.0f64, f64::max);
            (center, dcut + radius_extra)
        });
        let buckets = grid.query_buckets();
        let mut flat_supersets: Vec<Vec<usize>> = vec![Vec::new(); cells.len()];
        {
            let mut cell_prefix = Vec::with_capacity(buckets.len() + 1);
            let mut weight_prefix = Vec::with_capacity(buckets.len() + 1);
            cell_prefix.push(0usize);
            weight_prefix.push(0usize);
            for bucket in buckets.iter() {
                cell_prefix.push(cell_prefix.last().unwrap() + bucket.len());
                let pts: usize = bucket.iter().map(|&c| grid.points(c).len()).sum();
                weight_prefix.push(weight_prefix.last().unwrap() + pts);
            }
            let bounds = batchq::balanced_ranges(&weight_prefix, executor.threads());
            let parts = tree.packed_parts();
            let dim = data.dim();
            let buckets = &buckets;
            let per_cell = &per_cell;
            let mut tasks = Vec::with_capacity(bounds.len() - 1);
            let mut rest: &mut [Vec<usize>] = &mut flat_supersets;
            for w in 0..bounds.len() - 1 {
                let (blo, bhi) = (bounds[w], bounds[w + 1]);
                let span = cell_prefix[bhi] - cell_prefix[blo];
                let (mine, tail) = rest.split_at_mut(span);
                rest = tail;
                tasks.push(move || {
                    let mut engine = BatchRangeSearch::new();
                    let mut rows: Vec<f64> = Vec::new();
                    let mut radii: Vec<f64> = Vec::new();
                    let mut cursor = 0usize;
                    for b in blo..bhi {
                        let bucket = buckets.bucket(b);
                        rows.clear();
                        radii.clear();
                        for &cell in bucket {
                            let (center, radius) = &per_cell[cell];
                            debug_assert_eq!(center.len(), dim);
                            rows.extend_from_slice(center);
                            radii.push(*radius);
                        }
                        engine.run(&parts, &rows, &radii, &mut mine[cursor..cursor + bucket.len()]);
                        cursor += bucket.len();
                    }
                });
            }
            executor.fan_out(tasks);
        }
        // Back from bucket order to cell-id order.
        let mut supersets: Vec<Vec<usize>> = vec![Vec::new(); cells.len()];
        for (slot, &cell) in buckets.flat_cells().iter().enumerate() {
            supersets[cell] = std::mem::take(&mut flat_supersets[slot]);
        }

        // Phase 2: exact densities + cell metadata, partitioned by
        // cost_scan = |P(c)| · |R(cp, ·)|.
        let cost_scan: Vec<f64> = cells
            .iter()
            .enumerate()
            .map(|(ci, &c)| (grid.points(c).len() * supersets[ci].len().max(1)) as f64)
            .collect();
        let dcut_sq = dcut * dcut;
        let dim = data.dim();
        let (cell_results, _) = executor.map_partitioned(&cost_scan, |ci| {
            let cell = cells[ci];
            let members = grid.points(cell);
            let superset = &supersets[ci];
            // Gather the superset's coordinates into contiguous rows once:
            // every member of the cell scans the same superset, so the gather
            // amortises over |P(c)| batched closed-ball scans.
            let mut rows: Vec<f64> = Vec::with_capacity(superset.len() * dim);
            for &q in superset {
                rows.extend_from_slice(data.point(q));
            }
            let mut densities = Vec::with_capacity(members.len());
            let mut p_star = members[0];
            let mut best_rho = f64::NEG_INFINITY;
            let mut min_rho = f64::INFINITY;
            for &p in members {
                let pc = data.point(p);
                // The superset always contains p itself (its ball covers the
                // cell) and dist(p, p) = 0 always matches, so subtracting one
                // yields the Definition 1 count over `P \ {p}`.
                let count = batch::count_within(pc, &rows, dim, dcut_sq) - 1;
                let rho = jittered_density(count, p, seed);
                if rho > best_rho {
                    best_rho = rho;
                    p_star = p;
                }
                if rho < min_rho {
                    min_rho = rho;
                }
                densities.push((p, rho));
            }
            // N(c): cells of superset points within d_cut of p*(c) that are not
            // this cell.
            let star_coords = data.point(p_star);
            let mut hits: Vec<usize> = Vec::new();
            batch::search_within_into(star_coords, &rows, dim, dcut_sq, &mut hits);
            let mut neighbors: Vec<usize> = hits
                .into_iter()
                .map(|k| grid.cell_of(superset[k]))
                .filter(|&c2| c2 != cell)
                .collect();
            neighbors.sort_unstable();
            neighbors.dedup();
            (densities, CellMeta { p_star, min_rho, neighbors })
        });

        let mut rho = vec![0.0f64; data.len()];
        let mut metas: Vec<CellMeta> = Vec::with_capacity(cells.len());
        for (densities, meta) in cell_results {
            for (p, r) in densities {
                rho[p] = r;
            }
            metas.push(meta);
        }
        (rho, grid, metas, tree)
    }

    /// Dependent-point phase (§4.3): the O(1) cell-based approximation plus the
    /// exact computation for the residual set `P'` on the ρ-phase `tree`.
    /// Returns `(dependent, delta)`.
    fn dependents(
        &self,
        tree: &KdTree<'_>,
        executor: &Executor,
        rho: &[f64],
        grid: &Grid,
        metas: &[CellMeta],
    ) -> (Vec<usize>, Vec<f64>) {
        let n = rho.len();
        let dcut = self.params.dcut;
        let mut dependent: Vec<usize> = (0..n).collect();
        let mut delta = vec![f64::INFINITY; n];

        // Approximate rules — O(1) per point, evaluated in parallel.
        let approx: Vec<Option<usize>> = executor.map_dynamic(n, |p| {
            let cell = grid.cell_of(p);
            let meta = &metas[cell];
            if p != meta.p_star {
                return Some(meta.p_star);
            }
            // p is its cell's densest point: look for a neighbouring cell whose
            // minimum density exceeds ρ_p.
            metas[cell]
                .neighbors
                .iter()
                .find(|&&c2| metas[c2].min_rho > rho[p])
                .map(|&c2| metas[c2].p_star)
        });
        let mut residual: Vec<usize> = Vec::new();
        for (p, dep) in approx.into_iter().enumerate() {
            match dep {
                Some(q) => {
                    debug_assert!(rho[q] > rho[p]);
                    dependent[p] = q;
                    delta[p] = dcut;
                }
                None => residual.push(p),
            }
        }

        // Exact computation for P' (§4.3, "Exact computation"). The globally
        // densest point finds no denser point and keeps δ = ∞, q = itself.
        resolve_dependents(tree, rho, &residual, executor, &mut dependent, &mut delta);
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
        let executor = Executor::new(self.params.threads);
        let mut timings = Timings::default();

        let start = Instant::now();
        let (rho, grid, metas, tree) = self.densities(data, &executor);
        timings.rho_secs = start.elapsed().as_secs_f64();

        let start = Instant::now();
        let (dependent, delta) = self.dependents(&tree, &executor, &rho, &grid, &metas);
        timings.delta_secs = start.elapsed().as_secs_f64();

        let index_bytes = tree.mem_usage() + grid.mem_usage();
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
    fn batched_supersets_leave_rho_bitwise_unchanged() {
        // The batched phase-1 searches must leave the model's densities
        // bitwise equal to the definitional per-point range counts, at every
        // thread count.
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
        let seq = ApproxDpc::new(params.with_threads(1)).run(&data, &thresholds).unwrap();
        let par = ApproxDpc::new(params.with_threads(4)).run(&data, &thresholds).unwrap();
        assert_eq!(seq.rho, par.rho);
        assert_eq!(seq.delta, par.delta);
        assert_eq!(seq.dependent, par.dependent);
        assert_eq!(seq.assignment, par.assignment);
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
