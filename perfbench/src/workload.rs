//! The two workloads: what each generates from its seed, and the seeded
//! client request stream every workload sends.
//!
//! Every workload runs the same pipeline a user runs: fit the three paper
//! algorithms on a dataset, then serve the Ex-DPC model of a window of that
//! dataset while a closed-loop client streams requests into it. The
//! workloads differ in the data, so each one loads a different layer of the
//! fits hardest; the serving traffic is the same mix on both.

use fast_dpc::data::generators::random_walk;
use fast_dpc::data::real::RealDataset;
use fast_dpc::prelude::*;
use fast_dpc::rng::StdRng;

/// Worker threads of every fit and of the ρ phase.
pub const THREADS: usize = 2;
/// S-Approx-DPC's ε (Table 5 sweeps 0.2–1.0).
pub const EPSILON: f64 = 0.8;
/// Extraction thresholds: ρ_min = 10 and δ_min = 3·d_cut.
pub const RHO_MIN: f64 = 10.0;
pub const DELTA_MIN_FACTOR: f64 = 3.0;
/// The Relabel sweep: δ_min = factor·d_cut, cycled in this order.
pub const RELABEL_DELTA_FACTORS: [f64; 5] = [2.0, 2.5, 3.0, 4.0, 5.0];
/// Sliding-window expiry batch and publish interval of the streaming server.
/// At one publish per 100 ingests publishing took ~80% of ingest time; at
/// 200 both the insert path and the publish path keep a visible share.
pub const EXPIRY_BATCH: usize = 64;
pub const PUBLISH_EVERY: usize = 200;
/// Shares of Assign and Relabel in the client's request mix; the remaining
/// 10% are Ingest.
pub const MIX_ASSIGN: f64 = 0.88;
pub const MIX_RELABEL: f64 = 0.02;
/// Share of Assign queries drawn uniformly over the domain (the sparse-region
/// worst case of the expanding-radius search); the rest are a live window
/// point plus a uniform offset within ±d_cut/2 per axis.
pub const FAR_SHARE: f64 = 0.05;
/// Cold loads of the saved snapshot artifact per round.
pub const COLD_LOADS_PER_ROUND: usize = 2;
/// S-Approx-DPC's Rand index against Ex-DPC must stay above this floor
/// (measured: above 0.99 on both workloads; 0.956–0.963 on 30,000-point Syn
/// fits).
pub const RAND_INDEX_FLOOR: f64 = 0.9;
/// Structure seed of the fixed population every workload samples from (see
/// [`Spec::generate`]).
pub const POPULATION_SEED: u64 = 2021;

/// Which generator a workload's population comes from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Source {
    /// The paper's Syn data: `random_walk(population, 13, 1e5, POPULATION_SEED)`.
    Syn,
    /// The 4-d Household surrogate: `RealDataset::Household.generate_with`.
    Household,
}

/// One workload: its data, its cutoff and its traffic shape.
#[derive(Clone, Debug)]
pub struct Spec {
    pub name: &'static str,
    pub source: Source,
    /// Size of the fixed population the seed samples from.
    pub population: usize,
    /// Points the workload samples from its population by seed; the three
    /// algorithms fit all of them.
    pub generated: usize,
    pub dcut: f64,
    /// Streaming window capacity of the server.
    pub window: usize,
    /// Client requests sent after the fits of each round.
    pub requests_per_round: usize,
}

pub const WORKLOADS: [&str; 2] = ["syn_fit", "household_fit"];

impl Spec {
    pub fn named(name: &str) -> Option<Spec> {
        match name {
            "syn_fit" => Some(Self::syn_fit()),
            "household_fit" => Some(Self::household_fit()),
            _ => None,
        }
    }

    /// δ-heavy fits. Syn at n = 200,000 with d_cut = 250: δ is ~75% of
    /// Ex-DPC's fit and of S-Approx-DPC's and about half of Approx-DPC's,
    /// while ρ is ~25% of Ex-DPC's (traced: 0.73, 0.75, 0.50 and 0.25), so
    /// `IncrementalKdTree` nearest-neighbour search, Approx-DPC's P′ subsets
    /// and the S-Approx residual scan dominate. Serving runs on a
    /// 30,000-point window sampled from the fitted data; fits take ~85% of
    /// the time.
    ///
    /// The 200,000 points are a seeded sample of one fixed 250,000-point
    /// random walk: a fresh `random_walk(200_000, 13, 1e5, seed)` per seed
    /// moves the 13 walks, and with them Ex-DPC's fit time by 0.83–1.00 s
    /// over eight seeds (interquartile range 8% of the median), which would
    /// swamp any change to the program.
    fn syn_fit() -> Spec {
        Spec {
            name: "syn_fit",
            source: Source::Syn,
            population: 250_000,
            generated: 200_000,
            dcut: 250.0,
            window: 30_000,
            requests_per_round: 12_000,
        }
    }

    /// ρ-heavy fits. 50,000 points sampled from a fixed 4-d Household
    /// surrogate, d_cut = 2000 (ρ_avg ≈ 670): the batched range counts
    /// through the generic 4-d distance path and the 81-cell grid
    /// neighbourhood make ρ 56–60% of Ex-DPC's fit by the program's phase
    /// clock (seeds 7–9) and ~70% of Approx-DPC's; the traced run read
    /// Ex-DPC ρ 0.57 against δ 0.42. Smaller cutoffs leave ρ and δ too close
    /// to tell apart: at d_cut = 1000 Ex-DPC's ρ share was 47–57% and fell
    /// below δ on two of six seeds, and at 1500 (ρ_avg ≈ 290) two traced
    /// runs of one seed read ρ 0.49 and 0.50 against δ 0.50 and 0.49.
    ///
    /// The sample comes from one fixed surrogate population because the
    /// surrogate's mode widths are drawn per generator seed: regenerating it
    /// per seed moved ρ_avg by a factor of 2.5 and Ex-DPC's fit by ±15%,
    /// which would swamp any change to the program. The paper likewise
    /// samples its fixed real datasets. The serving window is 10,000 sampled
    /// points; a 30,000-point 4-d window took 23 s to seed.
    fn household_fit() -> Spec {
        Spec {
            name: "household_fit",
            source: Source::Household,
            population: 200_000,
            generated: 50_000,
            dcut: 2000.0,
            window: 10_000,
            requests_per_round: 12_000,
        }
    }

    pub fn params(&self, threads: usize) -> DpcParams {
        DpcParams::new(self.dcut).with_threads(threads)
    }

    pub fn thresholds(&self) -> Thresholds {
        Thresholds::new(RHO_MIN, DELTA_MIN_FACTOR * self.dcut)
            .expect("default thresholds are positive and finite")
    }

    /// Generates the workload's dataset from `seed` (the `data.gen` layer
    /// call): `generated` points drawn without replacement from the fixed
    /// population. The seed picks the sample; the population, and so the
    /// shape of the data, is the same for every seed.
    pub fn generate(&self, seed: u64) -> Dataset {
        let population = match self.source {
            Source::Syn => random_walk(self.population, 13, 1e5, POPULATION_SEED),
            Source::Household => {
                RealDataset::Household.generate_with(self.population, POPULATION_SEED)
            }
        };
        let mut ids: Vec<usize> = (0..population.len()).collect();
        StdRng::seed_from_u64(seed).shuffle(&mut ids);
        ids.truncate(self.generated);
        population.select(&ids)
    }

    /// Splits the generated data into the fit dataset (all of it), the
    /// serving window and the held-out ingest pool (a seeded permutation, so
    /// the window and the pool follow the same distribution).
    pub fn split(&self, data: Dataset, seed: u64) -> Inputs {
        let mut order: Vec<usize> = (0..data.len()).collect();
        StdRng::seed_from_u64(seed ^ 0x5157_11c0).shuffle(&mut order);
        let window = data.select(&order[..self.window]);
        let pool = data.select(&order[self.window..]);
        let lo: Vec<f64> = (0..data.dim())
            .map(|a| data.iter().map(|(_, p)| p[a]).fold(f64::INFINITY, f64::min))
            .collect();
        let hi: Vec<f64> = (0..data.dim())
            .map(|a| data.iter().map(|(_, p)| p[a]).fold(f64::NEG_INFINITY, f64::max))
            .collect();
        Inputs { fit: data, window, pool, lo, hi }
    }
}

/// A workload's generated inputs.
pub struct Inputs {
    pub fit: Dataset,
    pub window: Dataset,
    /// Held-out points streamed in by Ingest, in arrival order (cycled).
    pub pool: Dataset,
    /// Bounding box of the generated data, for the sparse Assign queries.
    pub lo: Vec<f64>,
    pub hi: Vec<f64>,
}

/// One client request, with what the benchmark expects back.
#[derive(Clone, Debug)]
pub enum Op {
    Assign {
        point: Vec<f64>,
        far: bool,
    },
    Relabel(Thresholds),
    /// `id`, `n` and `expired` are what the window rule predicts.
    Ingest {
        point: Vec<f64>,
        id: u64,
        n: usize,
        expired: usize,
    },
}

/// The seeded, interleaved client stream. It mirrors the server's window
/// (arrival order and the expiry rule), so Assign queries stay near live
/// points and every Ingest answer can be predicted exactly.
pub struct RequestStream {
    rng: StdRng,
    dcut: f64,
    capacity: usize,
    arrived: usize,
    live: usize,
    relabels: usize,
}

impl RequestStream {
    pub fn new(spec: &Spec, seed: u64) -> Self {
        Self {
            rng: StdRng::seed_from_u64(seed ^ 0xc11e_0575),
            dcut: spec.dcut,
            capacity: spec.window,
            arrived: spec.window,
            live: spec.window,
            relabels: 0,
        }
    }

    fn arrival<'a>(&self, inputs: &'a Inputs, a: usize) -> &'a [f64] {
        if a < self.capacity {
            inputs.window.point(a)
        } else {
            inputs.pool.point((a - self.capacity) % inputs.pool.len())
        }
    }

    pub fn next(&mut self, inputs: &Inputs) -> Op {
        let u = self.rng.gen_f64();
        if u < MIX_ASSIGN {
            let far = self.rng.gen_f64() < FAR_SHARE;
            let point = if far {
                (0..inputs.lo.len())
                    .map(|a| self.rng.gen_range(inputs.lo[a]..inputs.hi[a]))
                    .collect()
            } else {
                let a = self.arrived - self.live + self.rng.gen_range(0..self.live);
                let half = 0.5 * self.dcut;
                let base = self.arrival(inputs, a).to_vec();
                base.iter().map(|&c| c + self.rng.gen_range(-half..half)).collect()
            };
            Op::Assign { point, far }
        } else if u < MIX_ASSIGN + MIX_RELABEL {
            let factor = RELABEL_DELTA_FACTORS[self.relabels % RELABEL_DELTA_FACTORS.len()];
            self.relabels += 1;
            Op::Relabel(
                Thresholds::new(RHO_MIN, factor * self.dcut).expect("sweep thresholds are valid"),
            )
        } else {
            let point = self.arrival(inputs, self.arrived).to_vec();
            let id = self.arrived as u64;
            self.arrived += 1;
            self.live += 1;
            let mut expired = 0;
            if self.live >= self.capacity + EXPIRY_BATCH {
                expired = self.live - self.capacity;
                self.live = self.capacity;
            }
            Op::Ingest { point, id, n: self.live, expired }
        }
    }
}
