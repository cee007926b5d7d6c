//! The straightforward `O(n²)` DPC algorithm (§2.2).
//!
//! Local densities are computed by a full linear scan per point; dependent
//! points by scanning, for every point, all points of higher density (the
//! "early termination" of §2.2 expressed over the density-sorted order). Both
//! loops are parallelised over points so the baseline benefits from multiple
//! threads exactly as in the paper's evaluation.

use std::time::Instant;

use dpc_core::framework::{descending_density_order, jittered_density, validate_dataset};
use dpc_core::{DpcAlgorithm, DpcError, DpcModel, DpcParams, Timings};
use dpc_geometry::{dist, dist_sq, Dataset};
use dpc_parallel::Executor;

/// The Scan baseline.
#[derive(Clone, Copy, Debug)]
pub struct Scan {
    params: DpcParams,
}

impl Scan {
    /// Creates the algorithm with the given parameters.
    pub fn new(params: DpcParams) -> Self {
        Self { params }
    }

    /// Exact local densities by linear scan (exposed for phase benchmarks).
    pub fn local_densities(&self, data: &Dataset) -> Vec<f64> {
        let executor = Executor::new(self.params.threads);
        let dcut_sq = self.params.dcut * self.params.dcut;
        let seed = self.params.jitter_seed;
        executor.map_dynamic(data.len(), |i| {
            let pi = data.point(i);
            let count = data.iter().filter(|(j, pj)| *j != i && dist_sq(pi, pj) <= dcut_sq).count();
            jittered_density(count, i, seed)
        })
    }

    /// Exact dependent points by scanning all higher-density points (exposed
    /// for phase benchmarks). Equal distances go to the smallest id, the tie
    /// rule Ex-DPC's nearest-denser query follows. Returns
    /// `(dependent, delta)`.
    pub fn dependent_points(&self, data: &Dataset, rho: &[f64]) -> (Vec<usize>, Vec<f64>) {
        let n = data.len();
        let executor = Executor::new(self.params.threads);
        let order = descending_density_order(rho);
        // rank[i] = position of point i in the density-descending order.
        let mut rank = vec![0usize; n];
        for (r, &p) in order.iter().enumerate() {
            rank[p] = r;
        }
        let results: Vec<(usize, f64)> = executor.map_dynamic(n, |i| {
            let pi = data.point(i);
            let mut best: Option<(usize, f64)> = None;
            // Only the points strictly before i in the density order qualify —
            // this is the early termination of §2.2.
            for &j in &order[..rank[i]] {
                let d = dist(pi, data.point(j));
                if best.is_none_or(|(bj, bd)| d < bd || (d == bd && j < bj)) {
                    best = Some((j, d));
                }
            }
            best.unwrap_or((i, f64::INFINITY))
        });
        let mut dependent = vec![0usize; n];
        let mut delta = vec![0.0f64; n];
        for (i, (dep, d)) in results.into_iter().enumerate() {
            dependent[i] = dep;
            delta[i] = d;
        }
        (dependent, delta)
    }
}

impl DpcAlgorithm for Scan {
    fn name(&self) -> &'static str {
        "Scan"
    }

    fn fit(&self, data: &Dataset) -> Result<DpcModel, DpcError> {
        self.params.validate()?;
        validate_dataset(data)?;
        let mut timings = Timings::default();
        let start = Instant::now();
        let rho = self.local_densities(data);
        timings.rho_secs = start.elapsed().as_secs_f64();

        let start = Instant::now();
        let (dependent, delta) = self.dependent_points(data, &rho);
        timings.delta_secs = start.elapsed().as_secs_f64();

        // Scan needs no index; only the sorted order is extra memory.
        let index_bytes = data.len() * std::mem::size_of::<usize>();
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
    use dpc_core::{ExDpc, Thresholds};
    use dpc_data::generators::{gaussian_blobs, uniform};

    #[test]
    fn scan_equals_exdpc_exactly() {
        let data = uniform(400, 2, 100.0, 12);
        let params = DpcParams::new(7.0);
        let thresholds = Thresholds::new(2.0, 25.0).unwrap();
        let scan = Scan::new(params).fit(&data).unwrap();
        let ex = ExDpc::new(params).fit(&data).unwrap();
        assert_eq!(scan.rho(), ex.rho());
        for i in 0..data.len() {
            let a = scan.delta()[i];
            let b = ex.delta()[i];
            assert!(
                (a - b).abs() < 1e-9 || (a.is_infinite() && b.is_infinite()),
                "δ mismatch at {i}: {a} vs {b}"
            );
        }
        let (scan, ex) = (scan.extract(&thresholds), ex.extract(&thresholds));
        assert_eq!(scan.centers, ex.centers);
        assert_eq!(scan.assignment, ex.assignment);
    }

    #[test]
    fn scan_parallel_equals_sequential() {
        let data = uniform(300, 3, 50.0, 5);
        let params = DpcParams::new(6.0);
        let a = Scan::new(params.with_threads(1)).fit(&data).unwrap();
        let b = Scan::new(params.with_threads(4)).fit(&data).unwrap();
        assert_eq!(a.rho(), b.rho());
        assert_eq!(a.delta(), b.delta());
        assert_eq!(a.dependent(), b.dependent());
    }

    #[test]
    fn scan_clusters_blobs() {
        let data = gaussian_blobs(&[(0.0, 0.0), (100.0, 100.0)], 150, 3.0, 9);
        let params = DpcParams::new(8.0);
        let thresholds = Thresholds::new(4.0, 50.0).unwrap();
        let c = Scan::new(params).run(&data, &thresholds).unwrap();
        assert_eq!(c.num_clusters(), 2);
    }

    #[test]
    fn scan_empty_and_single() {
        let params = DpcParams::new(1.0);
        assert_eq!(Scan::new(params).fit(&Dataset::new(2)).unwrap_err(), DpcError::EmptyDataset);
        let single = Dataset::from_flat(2, vec![0.0, 0.0]);
        let c = Scan::new(params).run(&single, &Thresholds::for_dcut(1.0)).unwrap();
        assert_eq!(c.num_clusters(), 1);
    }
}
