//! LSH-DDP (Zhang, Chen & Yu, TKDE 2016): the state-of-the-art approximation
//! baseline of the paper (§2.3).
//!
//! LSH-DDP partitions `P` into buckets with `M` compound locality-sensitive
//! hash functions (p-stable / Gaussian projections with bucket width tied to
//! `d_cut`), so that nearby points usually share a bucket. For every point it
//! estimates the local density and the dependent point **within its bucket**,
//! aggregates the estimates across the `M` hash tables, and finally runs a
//! refinement pass — a full scan — for points whose bucket-local dependent
//! estimate is unreliable (no higher-density bucket-mate was found).
//!
//! The implementation keeps the two properties the paper's evaluation exercises:
//!
//! * the bucket population (and hence the per-bucket quadratic work) grows with
//!   `d_cut`, which is why LSH-DDP is very sensitive to the cutoff (Figure 8);
//! * buckets are processed with plain hash partitioning — no cost model — which
//!   limits its thread scaling (Figure 9).
//!
//! LSH-DDP was designed for MapReduce; as in the paper, it is executed here on
//! the shared-memory executor.

use std::collections::HashMap;
use std::time::Instant;

use dpc_core::framework::{jittered_density, validate_dataset};
use dpc_core::{DpcAlgorithm, DpcError, DpcModel, DpcParams, Timings};
use dpc_geometry::{dist, dist_sq, Dataset};
use dpc_parallel::Executor;
use dpc_rng::StdRng;

/// Number of compound hash tables (`M` in the paper's Table 1). The original
/// paper uses a small constant number of tables.
const NUM_TABLES: usize = 4;
/// Number of concatenated hash functions per compound hash.
const HASHES_PER_TABLE: usize = 2;
/// Seed of the random projections.
const LSH_SEED: u64 = 0xD15C0;

/// The LSH-DDP baseline.
#[derive(Clone, Copy, Debug)]
pub struct LshDdp {
    params: DpcParams,
}

impl LshDdp {
    /// Creates the algorithm with the given parameters.
    pub fn new(params: DpcParams) -> Self {
        Self { params }
    }

    /// Buckets the dataset with one compound hash. Returns, for each point, the
    /// bucket it belongs to, as a map from bucket key to member list.
    fn build_buckets(&self, data: &Dataset, table: usize) -> Vec<Vec<usize>> {
        let dim = data.dim();
        let width = 2.0 * self.params.dcut; // p-stable bucket width tied to d_cut
        let mut rng = StdRng::seed_from_u64(LSH_SEED ^ (table as u64).wrapping_mul(0x9E37));
        // Gaussian projection vectors and uniform offsets for each hash.
        let projections: Vec<Vec<f64>> = (0..HASHES_PER_TABLE)
            .map(|_| (0..dim).map(|_| rng.gen_standard_normal()).collect())
            .collect();
        let offsets: Vec<f64> = (0..HASHES_PER_TABLE).map(|_| rng.gen_range(0.0..width)).collect();

        let mut buckets: HashMap<Vec<i64>, Vec<usize>> = HashMap::new();
        for (id, p) in data.iter() {
            let key: Vec<i64> = projections
                .iter()
                .zip(offsets.iter())
                .map(|(a, b)| {
                    let dot: f64 = a.iter().zip(p.iter()).map(|(x, y)| x * y).sum();
                    ((dot + b) / width).floor() as i64
                })
                .collect();
            buckets.entry(key).or_default().push(id);
        }
        buckets.into_values().collect()
    }
}

impl DpcAlgorithm for LshDdp {
    fn name(&self) -> &'static str {
        "LSH-DDP"
    }

    fn fit(&self, data: &Dataset) -> Result<DpcModel, DpcError> {
        self.params.validate()?;
        validate_dataset(data)?;
        let n = data.len();
        let mut timings = Timings::default();
        let executor = Executor::new(self.params.threads);
        let dcut = self.params.dcut;
        let dcut_sq = dcut * dcut;
        let seed = self.params.jitter_seed;

        // ---- Local density phase: per-bucket counting, aggregated across the
        // M tables by taking the maximum (every bucket-local count is an
        // underestimate of the true density). ----
        let start = Instant::now();
        let tables: Vec<Vec<Vec<usize>>> =
            (0..NUM_TABLES).map(|t| self.build_buckets(data, t)).collect();
        let mut index_bytes = 0usize;
        for table in &tables {
            index_bytes +=
                table.iter().map(|b| b.capacity() * std::mem::size_of::<usize>()).sum::<usize>();
        }

        let mut counts = vec![0usize; n];
        for table in &tables {
            // Hash partitioning over buckets: no cost model, as in the original.
            let per_bucket: Vec<Vec<(usize, usize)>> = executor.map_dynamic(table.len(), |bi| {
                let bucket = &table[bi];
                bucket
                    .iter()
                    .map(|&i| {
                        let pi = data.point(i);
                        let c = bucket
                            .iter()
                            .filter(|&&j| j != i && dist_sq(pi, data.point(j)) <= dcut_sq)
                            .count();
                        (i, c)
                    })
                    .collect()
            });
            for rows in per_bucket {
                for (i, c) in rows {
                    counts[i] = counts[i].max(c);
                }
            }
        }
        let rho: Vec<f64> =
            counts.iter().enumerate().map(|(i, &c)| jittered_density(c, i, seed)).collect();
        timings.rho_secs = start.elapsed().as_secs_f64();

        // ---- Dependent point phase: nearest higher-density bucket-mate,
        // refined by a full scan when no bucket produced a candidate. ----
        let start = Instant::now();
        let mut dependent: Vec<usize> = (0..n).collect();
        let mut delta = vec![f64::INFINITY; n];
        for table in &tables {
            let per_bucket: Vec<Vec<(usize, usize, f64)>> =
                executor.map_dynamic(table.len(), |bi| {
                    let bucket = &table[bi];
                    let mut rows = Vec::new();
                    for &i in bucket {
                        let pi = data.point(i);
                        let mut best: Option<(usize, f64)> = None;
                        for &j in bucket {
                            if rho[j] > rho[i] {
                                let d = dist(pi, data.point(j));
                                if best.is_none_or(|(_, bd)| d < bd) {
                                    best = Some((j, d));
                                }
                            }
                        }
                        if let Some((j, d)) = best {
                            rows.push((i, j, d));
                        }
                    }
                    rows
                });
            for rows in per_bucket {
                for (i, j, d) in rows {
                    if d < delta[i] {
                        delta[i] = d;
                        dependent[i] = j;
                    }
                }
            }
        }

        // Refinement: points with no bucket-local candidate (other than the
        // single globally densest point) are resolved exactly by a scan.
        let unresolved: Vec<usize> = (0..n).filter(|&i| dependent[i] == i).collect();
        let refined: Vec<(usize, f64)> = executor.map_dynamic(unresolved.len(), |k| {
            let i = unresolved[k];
            let pi = data.point(i);
            let mut best: Option<(usize, f64)> = None;
            for j in 0..n {
                if rho[j] > rho[i] {
                    let d = dist(pi, data.point(j));
                    if best.is_none_or(|(_, bd)| d < bd) {
                        best = Some((j, d));
                    }
                }
            }
            best.unwrap_or((i, f64::INFINITY))
        });
        for (k, (j, d)) in refined.into_iter().enumerate() {
            let i = unresolved[k];
            dependent[i] = j;
            delta[i] = d;
        }
        timings.delta_secs = start.elapsed().as_secs_f64();

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
    fn densities_never_exceed_exact_densities() {
        let data = uniform(400, 2, 100.0, 8);
        let params = DpcParams::new(10.0);
        let lsh = LshDdp::new(params).fit(&data).unwrap();
        let exact = ExDpc::new(params).fit(&data).unwrap();
        for i in 0..data.len() {
            assert!(
                lsh.rho()[i] <= exact.rho()[i] + 1.0,
                "bucket-local density exceeds the exact density at {i}"
            );
        }
    }

    #[test]
    fn dependent_points_have_higher_estimated_density() {
        let data = uniform(500, 3, 50.0, 2);
        let m = LshDdp::new(DpcParams::new(6.0)).fit(&data).unwrap();
        for i in 0..data.len() {
            let dep = m.dependent()[i];
            if dep != i {
                assert!(m.rho()[dep] > m.rho()[i]);
            }
        }
        assert_eq!(m.delta().iter().filter(|d| d.is_infinite()).count(), 1);
    }

    #[test]
    fn recovers_well_separated_blobs() {
        let data = gaussian_blobs(&[(0.0, 0.0), (150.0, 150.0), (0.0, 150.0)], 200, 4.0, 6);
        let params = DpcParams::new(10.0);
        let thresholds = Thresholds::new(4.0, 60.0).unwrap();
        let c = LshDdp::new(params).run(&data, &thresholds).unwrap();
        assert_eq!(c.num_clusters(), 3);
        for blob in 0..3 {
            let labels: Vec<i64> = (blob * 200..(blob + 1) * 200)
                .map(|i| c.assignment[i])
                .filter(|&l| l >= 0)
                .collect();
            assert!(labels.windows(2).all(|w| w[0] == w[1]), "blob {blob} split");
        }
    }

    #[test]
    fn deterministic_given_seeds() {
        let data = uniform(300, 2, 30.0, 4);
        let params = DpcParams::new(3.0);
        let a = LshDdp::new(params).fit(&data).unwrap();
        let b = LshDdp::new(params).fit(&data).unwrap();
        assert_eq!(a.rho(), b.rho());
        assert_eq!(a.dependent(), b.dependent());
    }

    #[test]
    fn parallel_matches_sequential() {
        let data = uniform(300, 2, 30.0, 4);
        let params = DpcParams::new(3.0);
        let a = LshDdp::new(params.with_threads(1)).fit(&data).unwrap();
        let b = LshDdp::new(params.with_threads(4)).fit(&data).unwrap();
        assert_eq!(a.rho(), b.rho());
        assert_eq!(a.delta(), b.delta());
        assert_eq!(a.dependent(), b.dependent());
    }

    #[test]
    fn empty_input_is_an_error() {
        assert_eq!(
            LshDdp::new(DpcParams::new(1.0)).fit(&Dataset::new(2)).unwrap_err(),
            DpcError::EmptyDataset
        );
    }
}
