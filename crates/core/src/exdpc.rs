//! Ex-DPC: the exact kd-tree based algorithm (§3).
//!
//! * **Local density** — every point's `d_cut` neighbour count on the packed
//!   static [`KdTree`], and no other index. The paper makes one range count
//!   per point (Lemma 1: `O(n(n^{1-1/d} + ρ_avg))`); here one dual-tree
//!   self-join ([`selfjoin::count_all_within`]) decides each pair of points
//!   once and credits both ends, with counts bit-identical to the per-point
//!   range counts. Its tasks are scheduled dynamically, so that pairs of
//!   nodes in dense regions (which cost more) do not serialise behind a
//!   static split.
//! * **Dependent points** — the paper destroys the tree and re-inserts the
//!   points one at a time in decreasing density order, so that a
//!   nearest-neighbour query made just before `p_i` is inserted sees exactly
//!   the denser points (Lemma 2); that phase is sequential. Here the ρ-phase
//!   tree is kept instead, and a max-ρ array over its nodes lets one
//!   nearest-denser query per point return the same exact dependent point,
//!   with equal distances going to the smallest id. Each query starts at its
//!   point's own leaf and climbs toward the root only until no point outside
//!   the node it has reached can be nearer ([`KdTree::nearest_denser_at`]):
//!   most dependents lie in or next to the point's own leaf. The `n` queries
//!   are independent, so the phase runs on every worker thread. They run in
//!   the tree's packed order, so consecutive queries search neighbouring
//!   subtrees; an answer is a canonical minimum, so the order cannot change
//!   it.

use std::time::Instant;

use dpc_geometry::Dataset;
use dpc_index::{selfjoin, Grid, KdTree};
use dpc_parallel::Executor;

use crate::error::DpcError;
use crate::framework::{
    jittered_density, jittered_density_keyed, resolve_dependents, validate_dataset,
};
use crate::model::DpcModel;
use crate::params::DpcParams;
use crate::result::Timings;
use crate::DpcAlgorithm;

/// The exact DPC algorithm of §3.
#[derive(Clone, Copy, Debug)]
pub struct ExDpc {
    params: DpcParams,
}

impl ExDpc {
    /// Creates the algorithm with the given parameters (validated by `fit`).
    pub fn new(params: DpcParams) -> Self {
        Self { params }
    }

    /// The configured parameters.
    pub fn params(&self) -> &DpcParams {
        &self.params
    }

    /// Computes the jittered local density of every point (the `ρ` phase on
    /// its own) on `tree`, built over `data`. Exposed so benchmarks can time
    /// the phases separately (Table 6).
    ///
    /// It is the ρ path of `fit`: one self-join over `tree`
    /// ([`selfjoin::count_all_within`]) on the configured worker threads.
    /// Results are bit-identical to one [`KdTree::range_count`] per point at
    /// every thread count, since the self-join's counts equal single-query
    /// counts exactly.
    pub fn local_densities(&self, data: &Dataset, tree: &KdTree) -> Vec<f64> {
        debug_assert_eq!(data.len(), tree.len());
        let executor = Executor::new(self.params.threads);
        let seed = self.params.jitter_seed;
        let counts = selfjoin::count_all_within(tree, self.params.dcut, &executor);
        counts.into_iter().enumerate().map(|(p, count)| jittered_density(count, p, seed)).collect()
    }

    /// [`ExDpc::local_densities`], which needs no grid: `grid` is ignored.
    /// Benchmark-only: `perfbench`'s traced replay calls it, and it goes once
    /// that replay reads the fit's own timings.
    pub fn local_densities_with_grid(
        &self,
        data: &Dataset,
        tree: &KdTree,
        _grid: &Grid,
    ) -> Vec<f64> {
        self.local_densities(data, tree)
    }

    /// [`DpcAlgorithm::fit`] with the jitter keyed on caller-supplied stable
    /// ids instead of dataset indices (`keys[i]` jitters point `i`).
    ///
    /// This is the reference a [`StreamingDpc`](crate::StreamingDpc) state is
    /// compared against: the streaming engine jitters every ρ on the point's
    /// stable external id, so a fresh fit of the surviving window keyed on the
    /// same ids must reproduce the incrementally maintained ρ and δ exactly.
    /// `fit` is this with `keys = 0..n`: keyed on the dataset index, the
    /// jitter is [`jittered_density`]'s.
    pub fn fit_keyed(&self, data: &Dataset, keys: &[u64]) -> Result<DpcModel, DpcError> {
        self.fit_keyed_parts(data, keys).map(|(model, _, _)| model)
    }

    /// [`ExDpc::fit_keyed`] that also returns every point's integer `d_cut`
    /// neighbour count, the one input of ρ the model does not keep (`ρ` is
    /// `fl(count + jitter)`, which can round up to `count + 1`, so the count
    /// is not `⌊ρ⌋`), and the fit's kd-tree over `data`.
    /// `StreamingDpc::bulk_load` seeds its counts and its index from them.
    pub(crate) fn fit_keyed_parts(
        &self,
        data: &Dataset,
        keys: &[u64],
    ) -> Result<(DpcModel, Vec<usize>, KdTree), DpcError> {
        self.params.validate()?;
        validate_dataset(data)?;
        if keys.len() != data.len() {
            return Err(DpcError::InvalidParams {
                param: "jitter keys",
                value: keys.len() as f64,
                requirement: "one stable id per dataset point",
            });
        }
        let mut timings = Timings::default();

        let start = Instant::now();
        let executor = Executor::new(self.params.threads);
        let tree = KdTree::build_parallel(data, &executor);
        let dcut = self.params.dcut;
        let seed = self.params.jitter_seed;
        let counts = selfjoin::count_all_within(&tree, dcut, &executor);
        let rho: Vec<f64> = counts
            .iter()
            .zip(keys)
            .map(|(&count, &key)| jittered_density_keyed(count, key, seed))
            .collect();
        timings.rho_secs = start.elapsed().as_secs_f64();

        let start = Instant::now();
        let (dependent, delta) = dependents(&tree, &rho, &executor);
        timings.delta_secs = start.elapsed().as_secs_f64();

        let model = DpcModel::from_parts(
            self.name(),
            dcut,
            rho,
            delta,
            dependent,
            timings,
            tree.mem_usage(),
        )?;
        Ok((model, counts, tree))
    }

    /// Computes dependent points and distances given the local densities (the
    /// `δ` phase on its own). Returns `(dependent, delta)`.
    ///
    /// Builds the packed kd-tree over `data`, then answers one nearest-denser
    /// query per point from its own leaf, in the tree's packed order; `fit`
    /// runs the same queries on its ρ-phase tree and reads no `data` for
    /// them.
    pub fn dependent_points(&self, data: &Dataset, rho: &[f64]) -> (Vec<usize>, Vec<f64>) {
        let executor = Executor::new(self.params.threads);
        dependents(&KdTree::build_parallel(data, &executor), rho, &executor)
    }
}

/// The δ phase over `tree`: every point's nearest denser point. The densest
/// point keeps `δ = ∞` and depends on itself.
fn dependents(tree: &KdTree, rho: &[f64], executor: &Executor) -> (Vec<usize>, Vec<f64>) {
    let mut dependent: Vec<usize> = (0..rho.len()).collect();
    let mut delta = vec![f64::INFINITY; rho.len()];
    resolve_dependents(tree, rho, |_| true, executor, &mut dependent, &mut delta);
    (dependent, delta)
}

impl DpcAlgorithm for ExDpc {
    fn name(&self) -> &'static str {
        "Ex-DPC"
    }

    fn fit(&self, data: &Dataset) -> Result<DpcModel, DpcError> {
        let keys: Vec<u64> = (0..data.len() as u64).collect();
        self.fit_keyed(data, &keys)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::Thresholds;
    use dpc_data::generators::{gaussian_blobs, uniform};
    use dpc_geometry::dist;

    /// Brute-force reference: exact ρ and δ per the definitions.
    fn brute_force(data: &Dataset, params: &DpcParams) -> (Vec<f64>, Vec<f64>, Vec<usize>) {
        let n = data.len();
        let rho: Vec<f64> = (0..n)
            .map(|i| {
                let count = (0..n)
                    .filter(|&j| j != i && dist(data.point(i), data.point(j)) <= params.dcut)
                    .count();
                jittered_density(count, i, params.jitter_seed)
            })
            .collect();
        let mut delta = vec![f64::INFINITY; n];
        let mut dependent: Vec<usize> = (0..n).collect();
        for i in 0..n {
            for j in 0..n {
                if rho[j] > rho[i] {
                    let d = dist(data.point(i), data.point(j));
                    if d < delta[i] {
                        delta[i] = d;
                        dependent[i] = j;
                    }
                }
            }
        }
        (rho, delta, dependent)
    }

    /// Fits `data` at threads 1 and 4 and demands the brute-force model bit
    /// for bit: ρ, δ and the dependent point, which on equal distances is the
    /// smallest id (the reference scans ids upwards and keeps strict
    /// improvements only).
    fn assert_matches_brute_force(data: &Dataset, params: DpcParams, ctx: &str) {
        let (rho, delta, dependent) = brute_force(data, &params);
        for threads in [1usize, 4] {
            let model = ExDpc::new(params.with_threads(threads)).fit(data).unwrap();
            for i in 0..data.len() {
                let got =
                    (model.rho()[i].to_bits(), model.delta()[i].to_bits(), model.dependent()[i]);
                let want = (rho[i].to_bits(), delta[i].to_bits(), dependent[i]);
                assert_eq!(got, want, "{ctx}, threads {threads}, point {i}");
            }
        }
    }

    #[test]
    fn matches_brute_force_on_random_data() {
        assert_matches_brute_force(&uniform(400, 2, 100.0, 3), DpcParams::new(8.0), "uniform");
        // Lattice-snapped points (cell 10, d_cut 12): many duplicates and
        // equidistant denser points, so the smallest-id tie rule decides
        // most dependents.
        for seed in 0..40 {
            let points = uniform(300, 2, 100.0, 100 + seed);
            let snapped = points.flat().iter().map(|c| (c / 10.0).floor() * 10.0).collect();
            let data = Dataset::from_flat(2, snapped);
            assert_matches_brute_force(&data, DpcParams::new(12.0), &format!("lattice {seed}"));
        }
    }

    #[test]
    fn exactly_one_infinite_delta() {
        let data = uniform(300, 3, 50.0, 9);
        let model = ExDpc::new(DpcParams::new(5.0)).fit(&data).unwrap();
        let infinite = model.delta().iter().filter(|d| d.is_infinite()).count();
        assert_eq!(infinite, 1);
        // And it belongs to the globally densest point.
        let densest = (0..data.len())
            .max_by(|&a, &b| model.rho()[a].partial_cmp(&model.rho()[b]).unwrap())
            .unwrap();
        assert!(model.delta()[densest].is_infinite());
        assert_eq!(model.dependent()[densest], densest);
    }

    #[test]
    fn dependent_always_has_higher_density() {
        let data = gaussian_blobs(&[(0.0, 0.0), (60.0, 60.0)], 150, 3.0, 5);
        let model = ExDpc::new(DpcParams::new(4.0)).fit(&data).unwrap();
        for i in 0..data.len() {
            let dep = model.dependent()[i];
            if dep != i {
                assert!(model.rho()[dep] > model.rho()[i]);
                assert!((dist(data.point(i), data.point(dep)) - model.delta()[i]).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn finds_well_separated_blobs() {
        let centers = [(0.0, 0.0), (100.0, 0.0), (50.0, 100.0)];
        let data = gaussian_blobs(&centers, 120, 2.5, 11);
        let thresholds = Thresholds::new(5.0, 30.0).unwrap();
        let clustering = ExDpc::new(DpcParams::new(6.0)).run(&data, &thresholds).unwrap();
        assert_eq!(clustering.num_clusters(), 3);
        // Points generated from the same blob must share a label (excluding the
        // rare noise point).
        for blob in 0..3 {
            let labels: Vec<i64> = (blob * 120..(blob + 1) * 120)
                .map(|i| clustering.assignment[i])
                .filter(|&l| l >= 0)
                .collect();
            assert!(!labels.is_empty());
            assert!(labels.windows(2).all(|w| w[0] == w[1]), "blob {blob} split across clusters");
        }
    }

    #[test]
    fn batched_rho_is_bit_identical_to_per_point_loop() {
        // The ρ phase (one self-join over the tree) must reproduce the
        // per-point reference loop bit for bit, at every thread count — the
        // model-level determinism contract of the self-join.
        let sets = [
            uniform(700, 2, 100.0, 31),
            uniform(500, 3, 60.0, 32),
            uniform(240, 8, 30.0, 33),
            // Duplicates: 600 points in 4 locations.
            Dataset::from_flat(
                2,
                (0..600).flat_map(|i| [(i % 4) as f64 * 30.0, (i % 4) as f64 * 30.0]).collect(),
            ),
        ];
        for (s, data) in sets.iter().enumerate() {
            let params = DpcParams::new(8.0);
            for threads in [1usize, 2, 4, 8] {
                let exdpc = ExDpc::new(params.with_threads(threads));
                let tree = KdTree::build_parallel(data, &Executor::new(threads));
                let batched = exdpc.local_densities(data, &tree);
                let per_point: Vec<f64> = (0..data.len())
                    .map(|i| {
                        let count = tree.range_count(data.point(i), params.dcut, Some(i));
                        jittered_density(count, i, params.jitter_seed)
                    })
                    .collect();
                assert_eq!(batched.len(), per_point.len());
                for i in 0..batched.len() {
                    assert_eq!(
                        batched[i].to_bits(),
                        per_point[i].to_bits(),
                        "set {s}, threads {threads}, point {i}: {} vs {}",
                        batched[i],
                        per_point[i]
                    );
                }
            }
        }
    }

    #[test]
    fn fit_keyed_with_identity_keys_matches_fit() {
        let data = uniform(500, 2, 100.0, 44);
        let params = DpcParams::new(7.0);
        let plain = ExDpc::new(params).fit(&data).unwrap();
        let keys: Vec<u64> = (0..data.len() as u64).collect();
        for threads in [1usize, 4] {
            let keyed = ExDpc::new(params.with_threads(threads)).fit_keyed(&data, &keys).unwrap();
            assert_eq!(plain.rho(), keyed.rho(), "threads {threads}");
            assert_eq!(plain.delta(), keyed.delta(), "threads {threads}");
            assert_eq!(plain.dependent(), keyed.dependent(), "threads {threads}");
        }
        // Shifted keys change every jitter (and thus potentially tie-breaks)
        // but never a point's integer count.
        let shifted: Vec<u64> = (0..data.len() as u64).map(|k| k + 1_000_000).collect();
        let other = ExDpc::new(params).fit_keyed(&data, &shifted).unwrap();
        for i in 0..data.len() {
            assert_eq!(plain.rho()[i].floor(), other.rho()[i].floor(), "count changed at {i}");
            assert_ne!(plain.rho()[i], other.rho()[i], "jitter must depend on the key at {i}");
        }
        let err = ExDpc::new(params).fit_keyed(&data, &keys[..10]).unwrap_err();
        assert!(matches!(err, DpcError::InvalidParams { param: "jitter keys", .. }));
    }

    #[test]
    fn parallel_fit_is_identical_to_sequential() {
        let data = uniform(600, 2, 100.0, 21);
        let params = DpcParams::new(6.0);
        let thresholds = Thresholds::new(1.0, 15.0).unwrap();
        let seq = ExDpc::new(params.with_threads(1)).fit(&data).unwrap();
        let par = ExDpc::new(params.with_threads(4)).fit(&data).unwrap();
        assert_eq!(seq.rho(), par.rho());
        assert_eq!(seq.delta(), par.delta());
        let (seq, par) = (seq.extract(&thresholds), par.extract(&thresholds));
        assert_eq!(seq.assignment, par.assignment);
        assert_eq!(seq.centers, par.centers);
    }

    #[test]
    fn empty_dataset_is_an_error_and_single_point_fits() {
        let params = DpcParams::new(1.0);
        let empty = Dataset::new(2);
        assert_eq!(ExDpc::new(params).fit(&empty).unwrap_err(), DpcError::EmptyDataset);

        let single = Dataset::from_flat(2, vec![3.0, 4.0]);
        let model = ExDpc::new(params).fit(&single).unwrap();
        assert_eq!(model.len(), 1);
        assert!(model.delta()[0].is_infinite());
        let c = model.extract(&Thresholds::for_dcut(1.0));
        assert_eq!(c.num_clusters(), 1);
    }

    #[test]
    fn invalid_dcut_is_an_error() {
        let data = uniform(10, 2, 1.0, 1);
        let err = ExDpc::new(DpcParams::new(-1.0)).fit(&data).unwrap_err();
        assert!(matches!(err, DpcError::InvalidParams { param: "d_cut", .. }), "{err:?}");
    }

    #[test]
    fn identical_points_do_not_break_tie_handling() {
        let data = Dataset::from_flat(2, vec![1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0]);
        let model = ExDpc::new(DpcParams::new(0.5)).fit(&data).unwrap();
        // All densities distinct thanks to the jitter, exactly one ∞ δ, all
        // other points have δ = 0 (their dependent point coincides).
        assert_eq!(model.delta().iter().filter(|d| d.is_infinite()).count(), 1);
        assert_eq!(model.delta().iter().filter(|d| **d == 0.0).count(), 3);
        let clustering = model.extract(&Thresholds::for_dcut(0.5));
        assert_eq!(clustering.num_clusters(), 1);
        assert!(clustering.assignment.iter().all(|&l| l == 0));
    }

    #[test]
    fn timings_and_index_bytes_are_populated() {
        let data = uniform(200, 2, 10.0, 2);
        let model = ExDpc::new(DpcParams::new(1.0)).fit(&data).unwrap();
        assert!(model.fit_timings().rho_secs >= 0.0);
        assert!(model.fit_timings().delta_secs >= 0.0);
        assert!(model.index_bytes() > 0);
        let clustering = model.extract(&Thresholds::for_dcut(1.0));
        assert!(clustering.timings.assign_secs >= 0.0);
    }
}
