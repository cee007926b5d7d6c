//! Cross-crate integration tests: data generation → fit → extract →
//! evaluation, exercising the same pipelines as the benchmark harness at a
//! small scale.

use fast_dpc::baselines::{CfsfdpA, Dbscan, LshDdp, RtreeScan, Scan};
use fast_dpc::data::generators::{s_set, s_set_labels};
use fast_dpc::data::real::RealDataset;
use fast_dpc::data::transform::{add_noise, sample_rate};
use fast_dpc::prelude::*;

fn all_algorithms(params: DpcParams) -> Vec<(&'static str, Box<dyn DpcAlgorithm>)> {
    vec![
        ("Scan", Box::new(Scan::new(params))),
        ("R-tree + Scan", Box::new(RtreeScan::new(params))),
        ("LSH-DDP", Box::new(LshDdp::new(params))),
        ("CFSFDP-A", Box::new(CfsfdpA::new(params))),
        ("Ex-DPC", Box::new(ExDpc::new(params))),
        ("Approx-DPC", Box::new(ApproxDpc::new(params))),
        ("S-Approx-DPC", Box::new(SApproxDpc::new(params).with_epsilon(0.5))),
    ]
}

#[test]
fn every_algorithm_recovers_the_s2_clusters() {
    let data = s_set(2, 3_000, 11);
    let dcut = 20_000.0;
    let params = DpcParams::new(dcut);
    let thresholds = Thresholds::new(5.0, 3.0 * dcut).unwrap();
    let truth: Vec<i64> = s_set_labels(data.len()).into_iter().map(|l| l as i64).collect();
    let exact = ExDpc::new(params).run(&data, &thresholds).unwrap();
    for (name, algo) in all_algorithms(params) {
        let clustering = algo.run(&data, &thresholds).unwrap();
        assert_eq!(clustering.len(), data.len(), "{name}");
        // Agreement with the exact DPC result (the paper's accuracy metric).
        let ri = rand_index(clustering.labels(), exact.labels());
        assert!(ri > 0.9, "{name}: Rand index vs Ex-DPC = {ri}");
        // And with the generator's ground truth, as a sanity floor.
        let ri_truth = rand_index(clustering.labels(), &truth);
        assert!(ri_truth > 0.85, "{name}: Rand index vs ground truth = {ri_truth}");
    }
}

#[test]
fn exact_algorithms_agree_bit_for_bit() {
    let data = RealDataset::Household.generate_with(3_000, 5);
    let params = DpcParams::new(1_000.0);
    let thresholds = Thresholds::new(5.0, 3_000.0).unwrap();
    let ex_model = ExDpc::new(params).fit(&data).unwrap();
    let ex = ex_model.extract(&thresholds);
    let scan = Scan::new(params).fit(&data).unwrap();
    let rtree = RtreeScan::new(params).fit(&data).unwrap();
    let cfsfdp = CfsfdpA::new(params).fit(&data).unwrap();
    for (name, model) in [("Scan", &scan), ("R-tree + Scan", &rtree), ("CFSFDP-A", &cfsfdp)] {
        assert_eq!(ex_model.rho(), model.rho(), "{name} densities differ");
        let other = model.extract(&thresholds);
        assert_eq!(ex.centers, other.centers, "{name} centres differ");
        assert_eq!(ex.assignment, other.assignment, "{name} labels differ");
    }
}

#[test]
fn approx_dpc_keeps_exact_centres_on_every_real_surrogate() {
    for real in RealDataset::ALL {
        let data = real.generate_with(2_000, 9);
        let dcut = real.default_dcut();
        let params = DpcParams::new(dcut);
        let thresholds = Thresholds::new(5.0, 3.0 * dcut).unwrap();
        let exact = ExDpc::new(params).run(&data, &thresholds).unwrap();
        let approx = ApproxDpc::new(params).run(&data, &thresholds).unwrap();
        assert_eq!(exact.centers, approx.centers, "{}", real.name());
        let ri = rand_index(approx.labels(), exact.labels());
        assert!(ri > 0.95, "{}: Rand index {ri}", real.name());
    }
}

/// Table 5: S-Approx-DPC's Rand index against Ex-DPC over the ε sweep, on
/// the real-data surrogates and a Syn random walk. The Airline surrogate is
/// left out: at these thresholds Ex-DPC finds no centre there, so every
/// labelling agrees trivially.
#[test]
fn sapprox_dpc_keeps_table5_accuracy_across_epsilon() {
    let mut fixtures: Vec<(String, Dataset, f64)> =
        [RealDataset::Household, RealDataset::Pamap2, RealDataset::Sensor]
            .into_iter()
            .map(|real| {
                (real.name().to_string(), real.generate_with(4_000, 9), real.default_dcut())
            })
            .collect();
    fixtures.push(("Syn".to_string(), random_walk(20_000, 13, 1e5, 2021), 1_000.0));
    for (name, data, dcut) in &fixtures {
        let params = DpcParams::new(*dcut);
        let thresholds = Thresholds::new(5.0, 3.0 * dcut).unwrap();
        let exact = ExDpc::new(params).run(data, &thresholds).unwrap();
        assert!(exact.num_clusters() > 1, "{name}: {} centres", exact.num_clusters());
        for epsilon in [0.2, 0.4, 0.6, 0.8, 1.0] {
            let approx =
                SApproxDpc::new(params).with_epsilon(epsilon).run(data, &thresholds).unwrap();
            let ri = rand_index(approx.labels(), exact.labels());
            assert!(ri >= 0.99, "{name} at ε {epsilon}: Rand index {ri}");
        }
    }
}

#[test]
fn noise_injection_keeps_accuracy_high() {
    let base = random_walk(4_000, 6, 1e5, 3);
    let params = DpcParams::new(800.0);
    let thresholds = Thresholds::new(8.0, 2_400.0).unwrap();
    for rate in [0.02, 0.16] {
        let noisy = add_noise(&base, rate, 21);
        let exact = ExDpc::new(params).run(&noisy, &thresholds).unwrap();
        for algo in [
            Box::new(ApproxDpc::new(params)) as Box<dyn DpcAlgorithm>,
            Box::new(SApproxDpc::new(params).with_epsilon(1.0)),
            Box::new(LshDdp::new(params)),
        ] {
            let clustering = algo.run(&noisy, &thresholds).unwrap();
            let ri = rand_index(clustering.labels(), exact.labels());
            assert!(ri > 0.9, "{} at noise rate {rate}: Rand index {ri}", algo.name());
        }
    }
}

#[test]
fn sampling_preserves_cluster_structure() {
    let base = gaussian_blobs(&[(0.0, 0.0), (300.0, 300.0), (0.0, 300.0)], 800, 8.0, 13);
    let params = DpcParams::new(20.0);
    let thresholds = Thresholds::new(5.0, 100.0).unwrap();
    for rate in [0.5, 0.75, 1.0] {
        let data = sample_rate(&base, rate, 5);
        let clustering = ApproxDpc::new(params).run(&data, &thresholds).unwrap();
        assert_eq!(clustering.num_clusters(), 3, "sampling rate {rate}");
    }
}

#[test]
fn dbscan_and_dpc_disagree_on_bridged_clusters() {
    // The Figure 2 story as a test: dense blobs connected by a thin bridge.
    let mut data = gaussian_blobs(&[(0.0, 0.0), (60.0, 0.0)], 400, 2.0, 5);
    for i in 0..60 {
        data.push(&[i as f64, 0.1]);
    }
    let labels = Dbscan::new(4.0, 4).run(&data);
    assert_eq!(Dbscan::num_clusters(&labels), 1, "DBSCAN should merge the bridged blobs");

    let params = DpcParams::new(4.0);
    let thresholds = Thresholds::new(4.0, 20.0).unwrap();
    let dpc = ApproxDpc::new(params).run(&data, &thresholds).unwrap();
    assert_eq!(dpc.num_clusters(), 2, "DPC should keep the two density peaks apart");
}

#[test]
fn thread_count_never_changes_results() {
    let data = RealDataset::Pamap2.generate_with(2_500, 8);
    let base = DpcParams::new(1_000.0);
    let thresholds = Thresholds::new(5.0, 3_000.0).unwrap();
    for (name, algo_builder) in
        [("Ex-DPC", 0usize), ("Approx-DPC", 1), ("S-Approx-DPC", 2), ("Scan", 3), ("LSH-DDP", 4)]
    {
        let fit = |threads: usize| -> DpcModel {
            let params = base.with_threads(threads);
            let result = match algo_builder {
                0 => ExDpc::new(params).fit(&data),
                1 => ApproxDpc::new(params).fit(&data),
                2 => SApproxDpc::new(params).with_epsilon(0.6).fit(&data),
                3 => Scan::new(params).fit(&data),
                _ => LshDdp::new(params).fit(&data),
            };
            result.unwrap()
        };
        let a = fit(1);
        let b = fit(4);
        assert_eq!(
            a.extract(&thresholds).assignment,
            b.extract(&thresholds).assignment,
            "{name} differs across thread counts"
        );
        assert_eq!(a.rho(), b.rho(), "{name} densities differ across thread counts");
    }
}

#[test]
fn decision_graph_workflow_selects_the_requested_number_of_clusters() {
    let data = s_set(1, 3_000, 2);
    let dcut = 20_000.0;
    let params = DpcParams::new(dcut);
    // One fit; the decision graph and the final clustering share the model.
    let model = ApproxDpc::new(params).fit(&data).unwrap();
    let delta_min = model
        .decision_graph()
        .suggest_delta_min(15, 5.0)
        .expect("S1 has 15 clear density peaks")
        .max(dcut * 1.01);
    let refined = model.extract(&Thresholds::new(5.0, delta_min).unwrap());
    assert_eq!(refined.num_clusters(), 15);
}

#[test]
fn facade_reexports_are_consistent() {
    // The prelude and the per-crate paths expose the same types.
    let params: fast_dpc::core::DpcParams = DpcParams::new(1.0);
    let data: fast_dpc::geometry::Dataset = Dataset::from_flat(2, vec![0.0, 0.0, 1.0, 1.0]);
    let model: fast_dpc::core::DpcModel = fast_dpc::core::ExDpc::new(params).fit(&data).unwrap();
    let clustering = model.extract(&Thresholds::for_dcut(1.0));
    assert_eq!(clustering.len(), 2);
    assert_eq!(NOISE, -1);
}
