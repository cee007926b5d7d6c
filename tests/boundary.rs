//! Radius-boundary regression tests: points placed **exactly** at `d_cut`.
//!
//! Definition 1 uses the closed ball `dist ≤ d_cut`, and every index and
//! baseline must agree on it (the seed mixed strict `<` in the trees with the
//! grid's inclusive guarantee, so ρ depended on which index answered). The
//! datasets here are integer lattices whose 3-4-5 substructures make many
//! pairwise distances exactly `5.0` — representable without rounding, so the
//! boundary case is genuinely exercised in `f64`.

use fast_dpc::geometry::dist;
use fast_dpc::index::{KdTree, RTree};
use fast_dpc::prelude::*;

/// 6×6 integer lattice: rich in pairs at squared distance exactly 25.
fn lattice() -> Dataset {
    let mut ds = Dataset::new(2);
    for x in 0..6 {
        for y in 0..6 {
            ds.push(&[f64::from(x), f64::from(y)]);
        }
    }
    ds
}

/// Inclusive (closed-ball) reference count of Definition 1.
fn brute_inclusive(ds: &Dataset, i: usize, r: f64) -> usize {
    ds.iter().filter(|(j, p)| *j != i && dist(ds.point(i), p) <= r).count()
}

/// Strict reference — used only to prove the dataset exercises the boundary.
fn brute_strict(ds: &Dataset, i: usize, r: f64) -> usize {
    ds.iter().filter(|(j, p)| *j != i && dist(ds.point(i), p) < r).count()
}

#[test]
fn lattice_has_points_exactly_at_dcut() {
    // Guard: if the two references agree, the dataset no longer tests anything.
    let ds = lattice();
    let strict: usize = (0..ds.len()).map(|i| brute_strict(&ds, i, 5.0)).sum();
    let inclusive: usize = (0..ds.len()).map(|i| brute_inclusive(&ds, i, 5.0)).sum();
    assert!(inclusive > strict, "no boundary pairs: {inclusive} vs {strict}");
}

#[test]
fn every_index_counts_boundary_points() {
    let ds = lattice();
    let kd = KdTree::build(&ds);
    let rt = RTree::build(&ds);
    for i in 0..ds.len() {
        let want = brute_inclusive(&ds, i, 5.0);
        let q = ds.point(i);
        assert_eq!(kd.range_count(q, 5.0, Some(i)), want, "kd-tree at {i}");
        assert_eq!(rt.range_count(q, 5.0, Some(i)), want, "R-tree at {i}");
        // Reporting queries include the query point itself.
        assert_eq!(kd.range_search(q, 5.0).len(), want + 1, "kd-tree search at {i}");
        assert_eq!(rt.range_search(q, 5.0).len(), want + 1, "R-tree search at {i}");
    }
}

#[test]
fn every_exact_algorithm_counts_boundary_points() {
    let ds = lattice();
    let params = DpcParams::new(5.0);
    let want: Vec<usize> = (0..ds.len()).map(|i| brute_inclusive(&ds, i, 5.0)).collect();
    let algorithms: Vec<(&str, Box<dyn DpcAlgorithm>)> = vec![
        ("Ex-DPC", Box::new(ExDpc::new(params))),
        ("Approx-DPC", Box::new(ApproxDpc::new(params))),
        ("Scan", Box::new(Scan::new(params))),
        ("R-tree + Scan", Box::new(RtreeScan::new(params))),
        ("CFSFDP-A", Box::new(CfsfdpA::new(params))),
    ];
    for (name, algo) in algorithms {
        let model = algo.fit(&ds).unwrap();
        for (i, &w) in want.iter().enumerate() {
            // ρ is the integer count plus the deterministic jitter in (0, 1).
            assert_eq!(model.rho()[i].floor() as usize, w, "{name}: ρ at point {i}");
        }
    }
}

/// The streaming engine on the lattice: inserted point by point, with a few
/// removals, it must count the closed ball and pick the dependents a fresh
/// keyed fit picks. Equidistant denser points abound on a lattice, so this
/// also pins the canonical tie, the earliest arrival among equals.
#[test]
fn streaming_engine_counts_boundary_points() {
    let ds = lattice();
    let params = DpcParams::new(5.0);
    let mut engine = StreamingDpc::new(params, 2).unwrap();
    for (i, p) in ds.iter() {
        assert_eq!(engine.insert(p).unwrap(), i as u64);
        if i % 9 == 8 {
            assert!(engine.remove(i as u64 - 4));
        }
    }
    let (window, ids, model) = engine.to_parts().unwrap();
    assert_eq!(window.len(), ds.len() - 4);
    let fresh = ExDpc::new(params).fit_keyed(&window, &ids).unwrap();
    for i in 0..window.len() {
        assert_eq!(model.rho()[i].floor() as usize, brute_inclusive(&window, i, 5.0), "ρ at {i}");
        assert_eq!(model.rho()[i].to_bits(), fresh.rho()[i].to_bits(), "ρ bits at {i}");
        assert_eq!(model.delta()[i].to_bits(), fresh.delta()[i].to_bits(), "δ at {i}");
        assert_eq!(model.dependent()[i], fresh.dependent()[i], "dependent at {i}");
    }
}

#[test]
fn dbscan_connects_points_spaced_exactly_eps_apart() {
    // A chain with spacing exactly ε: the closed ε-neighbourhood makes every
    // point a core point of one cluster (under strict `<` all would be noise).
    let mut ds = Dataset::new(2);
    for x in 0..10 {
        ds.push(&[f64::from(x), 0.0]);
    }
    let labels = Dbscan::new(1.0, 2).run(&ds);
    assert_eq!(Dbscan::num_clusters(&labels), 1);
    assert!(labels.iter().all(|&l| l == 0), "{labels:?}");
}
