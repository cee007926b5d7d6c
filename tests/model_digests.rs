//! Pinned model digests: every paper algorithm's fitted model, hashed.
//!
//! Each digest is FNV-1a (64-bit) over the little-endian bytes of
//! `ρ.to_bits()`, `δ.to_bits()` and the dependent id of every point, in id
//! order. A digest moves when any bit of any model moves, so a change meant
//! to keep the models (a faster ρ path, a different δ query) must leave every
//! row below as it is, at 1 and at 2 worker threads, in debug and in release
//! builds.
//!
//! The inputs mirror the two kinds of data the algorithms are tuned on: a 2-d
//! Syn random walk and a sample of the 4-d Household surrogate. The walk
//! comes twice: in generation order (`syn`), where consecutive ids follow the
//! walk, and under a seeded permutation (`syn-shuffled`), where they land
//! anywhere, as in a random sample of a population. A change to the order in
//! which a fit runs its queries must leave both as they are.
//! Regenerate only when a model is meant to change: the failure message
//! prints every row as computed.

use fast_dpc::data::real::RealDataset;
use fast_dpc::prelude::*;
use fast_dpc::rng::StdRng;

/// `(input, algorithm, pinned digest)`.
const PINNED: [(&str, &str, u64); 12] = [
    ("syn", "Ex-DPC", 0x0b12092992455020),
    ("syn", "Approx-DPC", 0xb6f9c627fe6ed3f0),
    ("syn", "S-Approx-DPC ε=0.2", 0x1a817391dede521e),
    ("syn", "S-Approx-DPC ε=0.8", 0xf7d2de2e19178219),
    ("syn-shuffled", "Ex-DPC", 0xd677fedd18270ab8),
    ("syn-shuffled", "Approx-DPC", 0xad717df1a3ef4d67),
    ("syn-shuffled", "S-Approx-DPC ε=0.2", 0xac31bd8bf538e4dc),
    ("syn-shuffled", "S-Approx-DPC ε=0.8", 0xacc53362272d1781),
    ("household", "Ex-DPC", 0x42d59917230b15e6),
    ("household", "Approx-DPC", 0x5e299f1d090b464d),
    ("household", "S-Approx-DPC ε=0.2", 0x21547aae2decb46f),
    ("household", "S-Approx-DPC ε=0.8", 0xa0cc772dc3c0c875),
];

fn fnv1a(model: &DpcModel) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for i in 0..model.len() {
        let words =
            [model.rho()[i].to_bits(), model.delta()[i].to_bits(), model.dependent()[i] as u64];
        for byte in words.iter().flat_map(|w| w.to_le_bytes()) {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0100_0000_01b3);
        }
    }
    hash
}

/// Every `(input, algorithm, digest)` row at `threads` workers.
fn digests(threads: usize) -> Vec<(&'static str, &'static str, u64)> {
    let walk = random_walk(10_000, 13, 1e5, 2021);
    let mut order: Vec<usize> = (0..walk.len()).collect();
    StdRng::seed_from_u64(2021).shuffle(&mut order);
    let shuffled = walk.select(&order);
    let inputs = [
        ("syn", walk, 1_000.0),
        ("syn-shuffled", shuffled, 1_000.0),
        ("household", RealDataset::Household.generate_with(5_000, 2021), 4_000.0),
    ];
    let mut rows = Vec::new();
    for (input, data, dcut) in &inputs {
        let params = DpcParams::new(*dcut).with_threads(threads);
        let algos: [(&str, Box<dyn DpcAlgorithm>); 4] = [
            ("Ex-DPC", Box::new(ExDpc::new(params))),
            ("Approx-DPC", Box::new(ApproxDpc::new(params))),
            ("S-Approx-DPC ε=0.2", Box::new(SApproxDpc::new(params).with_epsilon(0.2))),
            ("S-Approx-DPC ε=0.8", Box::new(SApproxDpc::new(params).with_epsilon(0.8))),
        ];
        for (name, algo) in algos {
            rows.push((*input, name, fnv1a(&algo.fit(data).unwrap())));
        }
    }
    rows
}

#[test]
fn fitted_models_match_their_pinned_digests() {
    for threads in [1usize, 2] {
        let rows = digests(threads);
        let table: String =
            rows.iter().map(|(i, a, d)| format!("    (\"{i}\", \"{a}\", {d:#018x}),\n")).collect();
        assert_eq!(rows, PINNED, "threads {threads}: digests moved; computed:\n{table}");
    }
}
