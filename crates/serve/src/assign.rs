//! Classifying an incoming point against a snapshot without refitting.
//!
//! The assignment mirrors the model's own semantics (Definitions 1–3 of the
//! paper) as if the query had been part of the fit:
//!
//! 1. **Density.** `ρ_q` is the `d_cut` range count over the snapshot's
//!    kd-tree. The fitted points carry a deterministic tie-breaking jitter in
//!    `(0, 1)` on top of their integer counts, so a *new* query gets the
//!    interval midpoint `count + 0.5` — it compares against every fitted
//!    density exactly as an equal integer count "on average", and strictly
//!    between the counts below and above it. A query that coincides with
//!    fitted points (the closed ball of radius `0` around it holds them)
//!    short-circuits to the fitted `ρ`/`δ`/dependent/label of the smallest id
//!    among them, making assignment of in-dataset points exact by
//!    construction.
//! 2. **Dependent point.** The nearest snapshot point with `ρ > ρ_q`, equal
//!    distances going to the smallest id: one nearest-denser search of the
//!    snapshot's kd-tree, pruned by its max-ρ array — the query the fits use,
//!    so it visits each tree node at most once. A query that out-ranks every
//!    fitted point gets `δ = ∞`, exactly like the globally densest fitted
//!    point.
//! 3. **Label.** The dependent point's label under the snapshot's default
//!    thresholds, read from the cached [`Clustering`](dpc_core::Clustering)
//!    in `O(1)` — label propagation follows dependency chains, so one hop
//!    lands on the already-propagated answer. Noise stays noise, and a query
//!    with `ρ_q < ρ_min` is noise itself (Definition 4).

use dpc_core::{DpcError, NOISE};

use crate::error::{Deadline, ServeError};
use crate::request::AssignResponse;
use crate::snapshot::Snapshot;

/// Classifies `point` against `snapshot`. See the module docs for the exact
/// density/dependent/label semantics. Equivalent to [`classify_within`] with
/// no deadline.
///
/// # Errors
/// * [`DpcError::DimensionMismatch`] when `point` is not `snapshot.dim()`
///   coordinates long;
/// * [`DpcError::NonFiniteCoordinate`] when any coordinate is NaN or ±∞
///   (non-finite queries would silently defeat the kd-tree's bounding-box
///   pruning and return a wrong density instead of failing).
pub fn classify(snapshot: &Snapshot, point: &[f64]) -> Result<AssignResponse, DpcError> {
    classify_within(snapshot, point, &Deadline::none()).map_err(|e| match e {
        ServeError::Dpc(e) => e,
        // Without a deadline the only failures are the Dpc validation errors.
        other => unreachable!("deadline-free classify cannot fail with {other:?}"),
    })
}

/// [`classify`] under a per-request time budget: the deadline is checked once
/// up front and again just before the dependent-point search — the phase
/// boundaries where abandoning costs nothing. A request that trips the
/// deadline returns [`ServeError::DeadlineExceeded`] and **no** partial
/// answer.
///
/// # Errors
/// The [`classify`] validation errors (wrapped in [`ServeError::Dpc`]), plus
/// [`ServeError::DeadlineExceeded`].
pub fn classify_within(
    snapshot: &Snapshot,
    point: &[f64],
    deadline: &Deadline,
) -> Result<AssignResponse, ServeError> {
    deadline.check()?;
    if point.len() != snapshot.dim() {
        return Err(DpcError::DimensionMismatch {
            what: "query point",
            expected: snapshot.dim(),
            got: point.len(),
        }
        .into());
    }
    if let Some(axis) = point.iter().position(|c| !c.is_finite()) {
        return Err(DpcError::NonFiniteCoordinate { point: 0, axis }.into());
    }

    let model = snapshot.model();
    let clustering = snapshot.clustering();
    let thresholds = snapshot.thresholds();
    let tree = snapshot.tree();
    let n = snapshot.n();

    let mut hits = Vec::new();
    tree.range_search_into(point, 0.0, &mut hits);
    if let Some(&hit) = hits.iter().min() {
        // The query *is* a fitted point: answer with its fitted quantities so
        // in-dataset assignment agrees bit-for-bit with `extract`. Among
        // coinciding duplicates the smallest id answers.
        let rho = model.rho_at(hit);
        let delta = model.delta_at(hit);
        let dependent = model.dependent_at(hit);
        return Ok(AssignResponse {
            epoch: snapshot.epoch(),
            n,
            rho,
            delta,
            dependent: if dependent == hit { None } else { Some(dependent) },
            label: clustering.assignment[hit],
            would_be_center: rho >= thresholds.rho_min && delta >= thresholds.delta_min,
        });
    }

    let rho = tree.range_count(point, snapshot.dcut(), None) as f64 + 0.5;

    deadline.check()?;
    let found = tree.nearest_denser(&snapshot.max_rho, point, rho);
    let (dependent, delta) = (found.map(|(j, _)| j), found.map_or(f64::INFINITY, |(_, d)| d));

    let label = match dependent {
        Some(j) if rho >= thresholds.rho_min => clustering.assignment[j],
        _ => NOISE,
    };
    Ok(AssignResponse {
        epoch: snapshot.epoch(),
        n,
        rho,
        delta,
        dependent,
        label,
        would_be_center: rho >= thresholds.rho_min && delta >= thresholds.delta_min,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpc_core::{DpcAlgorithm, DpcParams, ExDpc, Thresholds};
    use dpc_data::generators::gaussian_blobs;
    use dpc_geometry::dist;
    use dpc_parallel::Executor;
    use std::sync::Arc;

    fn snapshot() -> Snapshot {
        let data = Arc::new(gaussian_blobs(&[(0.0, 0.0), (80.0, 80.0)], 100, 2.0, 21));
        let model = ExDpc::new(DpcParams::new(4.0)).fit(&data).unwrap();
        Snapshot::new(data, model, Thresholds::new(2.0, 10.0).unwrap(), &Executor::single())
    }

    #[test]
    fn in_dataset_points_get_their_own_fitted_answer() {
        let snap = snapshot();
        for i in (0..snap.n()).step_by(13) {
            let r = classify(&snap, snap.data().point(i)).unwrap();
            assert_eq!(r.rho.to_bits(), snap.model().rho_at(i).to_bits());
            assert_eq!(r.delta.to_bits(), snap.model().delta_at(i).to_bits());
            assert_eq!(r.label, snap.clustering().assignment[i]);
        }
    }

    #[test]
    fn a_query_on_fitted_duplicates_answers_for_the_smallest_id() {
        // A blob with a copy of one point after every fifth blob point: each
        // copy has its own jittered ρ, hence its own fitted answer, and the
        // smallest copy id is not the first copy in packed order.
        let blob = gaussian_blobs(&[(0.0, 0.0)], 200, 2.0, 5);
        let dup = [0.5, -0.25];
        let (mut data, mut copies) = (dpc_geometry::Dataset::new(2), Vec::new());
        for i in 0..blob.len() {
            if i % 5 == 3 {
                copies.push(data.len());
                data.push(&dup);
            }
            data.push(blob.point(i));
        }
        let model = ExDpc::new(DpcParams::new(4.0)).fit(&data).unwrap();
        let th = Thresholds::new(2.0, 10.0).unwrap();
        let snap = Snapshot::new(Arc::new(data), model, th, &Executor::single());
        let ids = snap.tree().ids();
        let first = ids.iter().map(|&id| id as usize).find(|id| copies.contains(id));
        let smallest = copies[0];
        assert_ne!(first, Some(smallest), "the smallest copy must not come first in packed order");

        let r = classify(&snap, &dup).unwrap();
        let m = snap.model();
        assert_eq!(r.rho.to_bits(), m.rho_at(smallest).to_bits());
        assert_eq!(r.delta.to_bits(), m.delta_at(smallest).to_bits());
        assert_eq!(r.dependent, Some(m.dependent_at(smallest)).filter(|&d| d != smallest));
        assert_eq!(r.label, snap.clustering().assignment[smallest]);
    }

    #[test]
    fn a_point_near_a_blob_joins_that_blob() {
        let snap = snapshot();
        // Find the label each blob's centre region carries.
        let near_origin = classify(&snap, &[0.5, -0.5]).unwrap();
        let near_far = classify(&snap, &[79.5, 80.5]).unwrap();
        assert_ne!(near_origin.label, NOISE);
        assert_ne!(near_far.label, NOISE);
        assert_ne!(near_origin.label, near_far.label);
        assert!(near_origin.delta.is_finite());
        assert!(near_origin.dependent.is_some());
        assert!(!near_origin.would_be_center);
    }

    #[test]
    fn a_far_away_sparse_point_is_noise() {
        let snap = snapshot();
        // Far from both blobs: zero in-range neighbours → ρ = 0.5 < ρ_min = 2.
        let r = classify(&snap, &[-200.0, 300.0]).unwrap();
        assert_eq!(r.rho, 0.5);
        assert_eq!(r.label, NOISE);
        assert!(r.delta.is_finite(), "some fitted point is denser than ρ=0.5");
        assert!(!r.would_be_center);
    }

    /// Demands the brute-force answer over every snapshot point: `ρ_q =
    /// count + 0.5`, the nearest point denser than `ρ_q` with the smallest id
    /// on equal distances, and that point's label.
    fn assert_brute_force(snap: &Snapshot, q: &[f64]) {
        let point = |j: usize| snap.data().point(j);
        let rho = (0..snap.n()).filter(|&j| dist(q, point(j)) <= snap.dcut()).count() as f64 + 0.5;
        let best = (0..snap.n())
            .filter(|&j| snap.model().rho_at(j) > rho)
            .map(|j| (dist(q, point(j)), j))
            .min_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let (th, delta) = (snap.thresholds(), best.map_or(f64::INFINITY, |b| b.0));
        let want = AssignResponse {
            epoch: snap.epoch(),
            n: snap.n(),
            rho,
            delta,
            dependent: best.map(|b| b.1),
            label: match best {
                Some((_, j)) if rho >= th.rho_min => snap.clustering().assignment[j],
                _ => NOISE,
            },
            would_be_center: rho >= th.rho_min && delta >= th.delta_min,
        };
        assert_eq!(classify(snap, q).unwrap(), want, "at {q:?}");
    }

    #[test]
    fn off_dataset_queries_match_brute_force() {
        let snap = snapshot();
        let mut rng = dpc_rng::StdRng::seed_from_u64(31);
        for _ in 0..200 {
            // Near a fitted point (within d_cut/2 per axis), and sparse:
            // anywhere around and far outside the blobs.
            let base = snap.data().point(rng.gen_range(0..snap.n()));
            let near: Vec<f64> = base.iter().map(|&c| c + rng.gen_range(-2.0..2.0)).collect();
            assert_brute_force(&snap, &near);
            assert_brute_force(
                &snap,
                &[rng.gen_range(-300.0..400.0), rng.gen_range(-300.0..400.0)],
            );
        }
        // A lattice with duplicates: queries at cell centres are equidistant
        // from four lattice points, so the smallest-id rule decides.
        let coords: Vec<f64> = (0..400).flat_map(|i| [(i % 7) as f64, (i % 5) as f64]).collect();
        let data = Arc::new(dpc_geometry::Dataset::from_flat(2, coords));
        let model = ExDpc::new(DpcParams::new(1.5)).fit(&data).unwrap();
        let lattice =
            Snapshot::new(data, model, Thresholds::new(2.0, 3.0).unwrap(), &Executor::single());
        for (x, y) in (0..7).flat_map(|x| (0..5).map(move |y| (x as f64, y as f64))) {
            assert_brute_force(&lattice, &[x + 0.5, y + 0.5]);
        }
    }

    #[test]
    fn a_far_outlier_is_answered_exactly() {
        let snap = snapshot();
        // Far outside the root bounding box on every axis: some fitted point
        // out-ranks ρ = 0.5, and the nearest of them is the answer.
        let q = [-1.0e6, 1.0e6];
        let r = classify(&snap, &q).unwrap();
        assert_eq!((r.rho, r.label), (0.5, NOISE));
        assert!(r.delta.is_finite());
        assert_brute_force(&snap, &q);
    }

    #[test]
    fn the_densest_query_outranks_everyone() {
        // Three isolated points: each fitted ρ is jitter-only (count 0), so
        // any query whose range count is ≥ 1 out-ranks the whole dataset.
        let data =
            Arc::new(dpc_geometry::Dataset::from_flat(2, vec![0.0, 0.0, 100.0, 0.0, 0.0, 100.0]));
        let model = ExDpc::new(DpcParams::new(5.0)).fit(&data).unwrap();
        let snap =
            Snapshot::new(data, model, Thresholds::new(0.0, 10.0).unwrap(), &Executor::single());
        let r = classify(&snap, &[1.0, 1.0]).unwrap();
        assert_brute_force(&snap, &[1.0, 1.0]);
        assert_eq!(r.rho, 1.5);
        assert!(r.delta.is_infinite());
        assert_eq!(r.dependent, None);
        assert_eq!(r.label, NOISE, "no dependent point to inherit a label from");
        assert!(r.would_be_center, "ρ ≥ 0 and δ = ∞ ≥ δ_min");
    }

    #[test]
    fn an_expired_deadline_aborts_classification_with_no_partial_answer() {
        let snap = snapshot();
        let expired = Deadline::start(Some(std::time::Duration::ZERO));
        let err = classify_within(&snap, &[0.5, -0.5], &expired).unwrap_err();
        assert!(matches!(err, ServeError::DeadlineExceeded { .. }), "{err:?}");
        // A generous deadline changes nothing about the answer.
        let generous = Deadline::start(Some(std::time::Duration::from_secs(3600)));
        let within = classify_within(&snap, &[0.5, -0.5], &generous).unwrap();
        let free = classify(&snap, &[0.5, -0.5]).unwrap();
        assert_eq!(within, free);
    }

    #[test]
    fn malformed_queries_are_errors_not_panics() {
        let snap = snapshot();
        assert_eq!(
            classify(&snap, &[1.0]).unwrap_err(),
            DpcError::DimensionMismatch { what: "query point", expected: 2, got: 1 }
        );
        assert_eq!(
            classify(&snap, &[1.0, f64::NAN]).unwrap_err(),
            DpcError::NonFiniteCoordinate { point: 0, axis: 1 }
        );
        assert_eq!(
            classify(&snap, &[f64::INFINITY, 0.0]).unwrap_err(),
            DpcError::NonFiniteCoordinate { point: 0, axis: 0 }
        );
    }
}
