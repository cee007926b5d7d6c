//! The fit-once / relabel-many contract, tested end to end:
//!
//! 1. **Equivalence** — for every paper algorithm (Ex-DPC, Approx-DPC,
//!    S-Approx-DPC) and a grid of thresholds, extracting from one shared
//!    fitted model produces a `Clustering` identical (centres and labels) to
//!    a fresh monolithic `run` (fit + extract) at those thresholds — i.e. the
//!    split API computes exactly what the seed's single-shot `run` computed,
//!    while fitting only once.
//! 2. **Error paths** — every `DpcError` variant is reachable through the
//!    public API and none of them panics.

use fast_dpc::core::framework::jittered_density;
use fast_dpc::geometry::dist;
use fast_dpc::prelude::*;

/// The threshold grid the equivalence tests sweep: the paper's interactive
/// use case (ρ_min × δ_min combinations over one decision graph).
fn threshold_grid(dcut: f64) -> Vec<Thresholds> {
    let mut grid = Vec::new();
    for rho_min in [0.0, 2.0, 5.0, 20.0] {
        for delta_factor in [1.2, 2.0, 3.0, 6.0] {
            grid.push(Thresholds::new(rho_min, delta_factor * dcut).unwrap());
        }
    }
    grid
}

fn paper_algorithms(params: DpcParams) -> Vec<(&'static str, Box<dyn DpcAlgorithm>)> {
    vec![
        ("Ex-DPC", Box::new(ExDpc::new(params))),
        ("Approx-DPC", Box::new(ApproxDpc::new(params))),
        ("S-Approx-DPC", Box::new(SApproxDpc::new(params).with_epsilon(0.5))),
    ]
}

#[test]
fn extract_equals_monolithic_run_across_a_threshold_grid() {
    let data = random_walk(3_000, 8, 1e4, 17);
    let dcut = 100.0;
    let params = DpcParams::new(dcut);
    for (name, algo) in paper_algorithms(params) {
        // One fit, many extracts…
        let model = algo.fit(&data).unwrap();
        for (ti, thresholds) in threshold_grid(dcut).iter().enumerate() {
            let from_model = model.extract(thresholds);
            // …versus a fresh fit + extract for every threshold choice.
            let monolithic = algo.run(&data, thresholds).unwrap();
            assert_eq!(from_model.centers, monolithic.centers, "{name} grid #{ti}: centres differ");
            assert_eq!(
                from_model.assignment, monolithic.assignment,
                "{name} grid #{ti}: labels differ"
            );
        }
    }
}

/// The paper's thread sweeps (fig. 9) are only meaningful end to end if a fit
/// is deterministic in `--threads`. With the kd-tree built by bit-identical
/// parallel construction and the ρ and δ phases split into tasks, the whole
/// fitted model — every ρ, every δ, and every dependency chain — must be
/// identical at 1 and 4 threads for both grid-based algorithms.
#[test]
fn approximate_fits_are_identical_across_thread_counts() {
    type FitAtThreads<'a> = Box<dyn Fn(usize) -> DpcModel + 'a>;
    // Above the kd-tree's fork threshold (1,024 points), so its build forks
    // at 4 threads.
    let data = random_walk(6_000, 3, 1e4, 29);
    let dcut = 80.0;
    let fits: Vec<(&str, FitAtThreads)> = vec![
        (
            "Approx-DPC",
            Box::new(|threads| {
                ApproxDpc::new(DpcParams::new(dcut).with_threads(threads)).fit(&data).unwrap()
            }),
        ),
        (
            "S-Approx-DPC",
            Box::new(|threads| {
                SApproxDpc::new(DpcParams::new(dcut).with_threads(threads))
                    .with_epsilon(0.6)
                    .fit(&data)
                    .unwrap()
            }),
        ),
    ];
    for (name, fit) in &fits {
        let seq = fit(1);
        let par = fit(4);
        // Bitwise, not approximate: -0.0 vs 0.0 or an ulp of drift fails.
        let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
        assert_eq!(bits(seq.rho()), bits(par.rho()), "{name}: ρ differs across thread counts");
        assert_eq!(bits(seq.delta()), bits(par.delta()), "{name}: δ differs across thread counts");
        assert_eq!(seq.dependent(), par.dependent(), "{name}: dependent points differ");
        // Same dependency chains: walking each point to its root visits the
        // same sequence in both models (and terminates — no cycles).
        for p in 0..data.len() {
            let chain = |m: &DpcModel| {
                let mut at = p;
                let mut chain = vec![at];
                while m.dependent()[at] != at {
                    at = m.dependent()[at];
                    chain.push(at);
                    assert!(chain.len() <= data.len(), "{name}: dependency cycle at point {p}");
                }
                chain
            };
            assert_eq!(chain(&seq), chain(&par), "{name}: dependency chain of {p} differs");
        }
    }
}

#[test]
fn extraction_order_does_not_matter() {
    // Extracting strict-then-loose must equal loose-then-strict: extract is a
    // pure function of (model, thresholds).
    let data = gaussian_blobs(&[(0.0, 0.0), (80.0, 80.0)], 300, 3.0, 4);
    let model = ApproxDpc::new(DpcParams::new(6.0)).fit(&data).unwrap();
    let loose = Thresholds::new(2.0, 12.0).unwrap();
    let strict = Thresholds::new(2.0, 60.0).unwrap();
    let a1 = model.extract(&loose);
    let b1 = model.extract(&strict);
    let b2 = model.extract(&strict);
    let a2 = model.extract(&loose);
    assert_eq!(a1.assignment, a2.assignment);
    assert_eq!(b1.assignment, b2.assignment);
    assert_eq!(a1.centers, a2.centers);
    assert_eq!(b1.centers, b2.centers);
}

#[test]
fn model_exposes_the_decision_graph_and_metadata() {
    let data = gaussian_blobs(&[(0.0, 0.0), (90.0, 0.0)], 200, 2.0, 8);
    let model = ExDpc::new(DpcParams::new(5.0).with_threads(2)).fit(&data).unwrap();
    assert_eq!(model.algorithm(), "Ex-DPC");
    assert_eq!(model.dcut(), 5.0);
    assert_eq!(model.len(), data.len());
    assert_eq!(model.decision_graph().len(), data.len());
    assert!(model.index_bytes() > 0);
    assert!(model.fit_timings().rho_secs >= 0.0);
    // The density order is a permutation sorted by decreasing ρ.
    let order = model.density_order();
    assert_eq!(order.len(), data.len());
    for w in order.windows(2) {
        assert!(model.rho()[w[0]] > model.rho()[w[1]]);
    }
}

// ---- Error paths: every DpcError variant, no panics. ----

#[test]
fn error_invalid_params_dcut() {
    let data = Dataset::from_flat(2, vec![0.0, 0.0]);
    let err = ExDpc::new(DpcParams::new(f64::NAN)).fit(&data).unwrap_err();
    match err {
        DpcError::InvalidParams { param, requirement, .. } => {
            assert_eq!(param, "d_cut");
            assert!(!requirement.is_empty());
        }
        other => panic!("expected InvalidParams, got {other:?}"),
    }
}

#[test]
fn error_invalid_params_epsilon() {
    let data = Dataset::from_flat(2, vec![0.0, 0.0]);
    let err = SApproxDpc::new(DpcParams::new(1.0)).with_epsilon(-0.5).fit(&data).unwrap_err();
    assert!(matches!(err, DpcError::InvalidParams { param: "epsilon", .. }), "{err:?}");
}

#[test]
fn error_invalid_params_grid_cell_side() {
    // Parameters `validate` accepts whose grid cell side d_cut/√d
    // (ε·d_cut/√d) underflows to 0 or overflows to ∞ on 4-d data, or spans
    // 2^53 or more cells of the data's extent: there cell keys no longer tell
    // adjacent cells apart, and from 2^63 they saturate, so points 3e5 apart
    // would share a cell.
    let data = Dataset::from_flat(4, (0..40).map(|i| (i % 7) as f64).collect());
    let wide = Dataset::from_flat(2, vec![0.0, 0.0, 7e5, 0.0, 1e6, 0.0, 1e6, 0.0]);
    let tiny = DpcParams::new(5e-324);
    let narrow = DpcParams::new(1e-13);
    let cases: Vec<(&str, &Dataset, Box<dyn DpcAlgorithm>)> = vec![
        ("Approx-DPC, d_cut 5e-324", &data, Box::new(ApproxDpc::new(tiny))),
        ("S-Approx-DPC, d_cut 5e-324", &data, Box::new(SApproxDpc::new(tiny))),
        (
            "S-Approx-DPC, d_cut 1e308, ε 10",
            &data,
            Box::new(SApproxDpc::new(DpcParams::new(1e308)).with_epsilon(10.0)),
        ),
        ("Approx-DPC, 1e6 wide, d_cut 1e-13", &wide, Box::new(ApproxDpc::new(narrow))),
        ("S-Approx-DPC, 1e6 wide, d_cut 1e-13", &wide, Box::new(SApproxDpc::new(narrow))),
    ];
    for (name, data, algo) in cases {
        let err = algo.fit(data).unwrap_err();
        assert!(
            matches!(err, DpcError::InvalidParams { param: "grid cell side", .. }),
            "{name}: {err:?}"
        );
        assert!(err.to_string().contains("grid cell side"), "{name}: {err}");
    }
    // Ex-DPC needs no grid, so no cell side can degenerate: its ρ is the
    // closed-ball count of Definition 1 at both extremes. At d_cut 5e-324 a
    // point counts its exact duplicates (points 0–2 recur as 7–9), at d_cut
    // 1e308 every other point.
    let n = data.len();
    let duplicates: Vec<usize> = (0..n)
        .map(|i| (0..n).filter(|&j| j != i && data.point(j) == data.point(i)).count())
        .collect();
    assert_eq!(duplicates.iter().sum::<usize>(), 6);
    for (dcut, want) in [(5e-324, duplicates), (1e308, vec![n - 1; n])] {
        for threads in [1usize, 4] {
            let params = DpcParams::new(dcut).with_threads(threads);
            let model = ExDpc::new(params).fit(&data).unwrap();
            for (i, &want) in want.iter().enumerate() {
                let count = (0..n)
                    .filter(|&j| j != i && dist(data.point(i), data.point(j)) <= dcut)
                    .count();
                assert_eq!(count, want, "d_cut {dcut}, point {i}");
                let rho = jittered_density(count, i, params.jitter_seed);
                assert_eq!(
                    model.rho()[i].to_bits(),
                    rho.to_bits(),
                    "d_cut {dcut}, threads {threads}, point {i}"
                );
            }
        }
    }
}

#[test]
fn error_invalid_thresholds() {
    for (rho_min, delta_min) in [(-1.0, 5.0), (f64::NAN, 5.0), (0.0, 0.0), (0.0, f64::NAN)] {
        let err = Thresholds::new(rho_min, delta_min).unwrap_err();
        assert!(matches!(err, DpcError::InvalidThresholds { .. }), "{err:?}");
        // Display carries the offending parameter name.
        let msg = err.to_string();
        assert!(msg.contains("rho_min") || msg.contains("delta_min"), "{msg}");
    }
}

#[test]
fn error_empty_dataset() {
    let err = ApproxDpc::new(DpcParams::new(1.0)).fit(&Dataset::new(4)).unwrap_err();
    assert_eq!(err, DpcError::EmptyDataset);
    assert!(err.to_string().contains("empty"));
}

/// Every algorithm with a fit path, including the baselines.
fn all_algorithms(params: DpcParams) -> Vec<Box<dyn DpcAlgorithm>> {
    vec![
        Box::new(ExDpc::new(params)),
        Box::new(ApproxDpc::new(params)),
        Box::new(SApproxDpc::new(params).with_epsilon(0.5)),
        Box::new(Scan::new(params)),
        Box::new(RtreeScan::new(params)),
        Box::new(CfsfdpA::new(params)),
        Box::new(LshDdp::new(params)),
    ]
}

#[test]
fn error_non_finite_coordinate_on_every_fit_path() {
    // A NaN/±∞ coordinate must be rejected up front by every algorithm —
    // silently mispruned densities are the failure mode this guards against.
    let params = DpcParams::new(2.0);
    for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        // Point 3, axis 1 carries the offending value.
        let mut coords = vec![0.0f64; 12 * 2];
        for (i, c) in coords.iter_mut().enumerate() {
            *c = (i % 7) as f64;
        }
        coords[3 * 2 + 1] = bad;
        let data = Dataset::from_flat(2, coords);
        for algo in all_algorithms(params) {
            let err = algo.fit(&data).unwrap_err();
            assert_eq!(
                err,
                DpcError::NonFiniteCoordinate { point: 3, axis: 1 },
                "{} accepted a {bad} coordinate",
                algo.name()
            );
            let msg = err.to_string();
            assert!(msg.contains('3') && msg.contains('1'), "{msg}");
        }
    }
}

#[test]
fn finite_extreme_magnitudes_still_fit() {
    // The non-finite check must not reject huge-but-finite coordinates.
    let data = Dataset::from_flat(2, vec![0.0, 0.0, 1e300, -1e300, 1.0, 1.0, 2.0, 0.5]);
    for algo in all_algorithms(DpcParams::new(1e290)) {
        assert!(algo.fit(&data).is_ok(), "{} rejected finite input", algo.name());
    }
    // At d_cut 2 a grid would span ~1e300 cells per axis: the two grid fits
    // reject that cell side, and every other fit still succeeds.
    for algo in all_algorithms(DpcParams::new(2.0)) {
        match algo.fit(&data) {
            Err(DpcError::InvalidParams { param: "grid cell side", .. })
                if matches!(algo.name(), "Approx-DPC" | "S-Approx-DPC") => {}
            other => assert!(other.is_ok(), "{}: {:?}", algo.name(), other.err()),
        }
    }
}

#[test]
fn error_dimension_mismatch() {
    use fast_dpc::core::Timings;
    let err = DpcModel::from_parts(
        "hand-built",
        1.0,
        vec![1.0, 2.0, 3.0],
        vec![0.1, 0.2],
        vec![0, 0, 0],
        Timings::default(),
        0,
    )
    .unwrap_err();
    assert!(
        matches!(err, DpcError::DimensionMismatch { what: "delta", expected: 3, got: 2 }),
        "{err:?}"
    );
}

#[test]
fn errors_are_values_not_panics() {
    // A service loop can route every failure mode without unwinding.
    fn classify(e: &DpcError) -> &'static str {
        match e {
            DpcError::InvalidParams { .. } => "bad request: parameter",
            DpcError::InvalidThresholds { .. } => "bad request: threshold",
            DpcError::EmptyDataset => "bad request: no data",
            DpcError::NonFiniteCoordinate { .. } => "bad request: corrupt coordinates",
            DpcError::DimensionMismatch { .. } => "internal: inconsistent arrays",
            DpcError::Internal { .. } => "internal: isolated failure",
            DpcError::Corrupt { .. } => "bad artifact: corrupt",
            DpcError::TruncatedArtifact { .. } => "bad artifact: truncated",
            DpcError::Io { .. } => "storage: io failure",
        }
    }
    let data = Dataset::new(2);
    let e = ExDpc::new(DpcParams::new(1.0)).fit(&data).unwrap_err();
    assert_eq!(classify(&e), "bad request: no data");
    let e = Thresholds::new(-1.0, 1.0).unwrap_err();
    assert_eq!(classify(&e), "bad request: threshold");
    let nan = Dataset::from_flat(2, vec![f64::NAN, 0.0]);
    let e = ExDpc::new(DpcParams::new(1.0)).fit(&nan).unwrap_err();
    assert_eq!(classify(&e), "bad request: corrupt coordinates");
}
