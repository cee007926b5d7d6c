//! The fitted DPC model: per-point densities and dependent points, reusable
//! across any number of threshold choices.
//!
//! This type is the core of the fit-once / relabel-many redesign. The paper's
//! central observation (§6.4, "interactive use") is that local densities `ρ`
//! and dependent points/distances `δ` depend only on the cutoff distance
//! `d_cut` — the thresholds `ρ_min`/`δ_min` drive nothing but the final `O(n)`
//! centre-selection and label-propagation pass. A [`DpcModel`] freezes the
//! expensive phases, so the interactive workflow the paper describes (read the
//! decision graph, pick thresholds, relabel, repeat) costs `O(n)` per
//! iteration instead of a full re-clustering.

use std::time::Instant;

use crate::error::DpcError;
use crate::framework::{descending_density_order, select_and_assign};
use crate::params::Thresholds;
use crate::result::{Clustering, DecisionGraph, Timings};

/// The output of `DpcAlgorithm::fit`: everything threshold-independent.
///
/// Owns the per-point `ρ`/`δ`/dependent arrays plus the fit timings and
/// index-byte accounting, and precomputes the decreasing-density order once so
/// every [`extract`](DpcModel::extract) is a pure `O(n)` pass.
#[derive(Clone, Debug)]
pub struct DpcModel {
    algorithm: &'static str,
    dcut: f64,
    rho: Vec<f64>,
    delta: Vec<f64>,
    dependent: Vec<usize>,
    /// Point ids in decreasing density order, computed once at construction.
    order: Vec<usize>,
    /// `rho_secs` and `delta_secs` of the fit; `assign_secs` is stamped by
    /// every extraction.
    fit_timings: Timings,
    index_bytes: usize,
}

impl DpcModel {
    /// Assembles a model from the per-point quantities computed by an
    /// algorithm's fit phase. Sorts the density order once.
    ///
    /// A dependent need not be denser than its point (that is what
    /// [`DpcModel::from_saved_parts`] checks), but it must be a point of the
    /// model, or [`extract`](DpcModel::extract) could not label through it.
    ///
    /// # Errors
    /// [`DpcError::DimensionMismatch`] when the arrays disagree in length —
    /// they could not describe the same dataset; [`DpcError::InvalidParams`]
    /// when a dependent identifier is not below the point count.
    pub fn from_parts(
        algorithm: &'static str,
        dcut: f64,
        rho: Vec<f64>,
        delta: Vec<f64>,
        dependent: Vec<usize>,
        fit_timings: Timings,
        index_bytes: usize,
    ) -> Result<Self, DpcError> {
        let n = rho.len();
        if delta.len() != n {
            return Err(DpcError::DimensionMismatch {
                what: "delta",
                expected: n,
                got: delta.len(),
            });
        }
        if dependent.len() != n {
            return Err(DpcError::DimensionMismatch {
                what: "dependent",
                expected: n,
                got: dependent.len(),
            });
        }
        if let Some(&q) = dependent.iter().find(|&&q| q >= n) {
            return Err(DpcError::InvalidParams {
                param: "dependent",
                value: q as f64,
                requirement: "dependent point identifiers must be below the point count",
            });
        }
        let order = descending_density_order(&rho);
        Ok(Self { algorithm, dcut, rho, delta, dependent, order, fit_timings, index_bytes })
    }

    /// Reassembles a model from *persisted* parts, including the density
    /// order that was computed when the model was first fitted — the loader
    /// counterpart of [`DpcModel::from_parts`], used by `dpc-persist` so a
    /// cold load neither re-sorts the order nor risks re-deriving a different
    /// tie-break than the original fit.
    ///
    /// The saved order is validated, not trusted: it must be a permutation of
    /// `0..n` and must visit densities in non-increasing order (exactly what
    /// [`DpcModel::from_parts`] produces). Every dependent identifier must be
    /// in range and name a strictly denser point, or the point itself with
    /// δ = ∞: every fit starts each point from `(p, ∞)` and points it only
    /// at strictly denser points, so label propagation in density order
    /// always meets a labelled dependent. A violation means the artifact
    /// does not describe a model this type could ever have produced. These
    /// checks are O(n); [`DpcModel::from_parts`] makes none of them.
    ///
    /// # Errors
    /// [`DpcError::DimensionMismatch`] when the arrays disagree in length;
    /// [`DpcError::Corrupt`] when `order` is not a valid density order, or a
    /// dependent identifier is out of range, names a point that is not
    /// strictly denser, or names its own point while δ is not ∞.
    #[allow(clippy::too_many_arguments)]
    pub fn from_saved_parts(
        algorithm: &'static str,
        dcut: f64,
        rho: Vec<f64>,
        delta: Vec<f64>,
        dependent: Vec<usize>,
        order: Vec<usize>,
        fit_timings: Timings,
        index_bytes: usize,
    ) -> Result<Self, DpcError> {
        let n = rho.len();
        for (what, len) in [("delta", delta.len()), ("dependent", dependent.len())] {
            if len != n {
                return Err(DpcError::DimensionMismatch { what, expected: n, got: len });
            }
        }
        if order.len() != n {
            return Err(DpcError::DimensionMismatch {
                what: "order",
                expected: n,
                got: order.len(),
            });
        }
        let corrupt = |what| Err(DpcError::Corrupt { section: "model", what });
        for (p, &q) in dependent.iter().enumerate() {
            if q >= n {
                return corrupt("dependent point identifier out of range");
            }
            if q == p && delta[p] != f64::INFINITY {
                return corrupt("a point that is its own dependent has a δ other than ∞");
            }
            if q != p && rho[q].partial_cmp(&rho[p]) != Some(std::cmp::Ordering::Greater) {
                return corrupt("a dependent point is not strictly denser than its point");
            }
        }
        let mut seen = vec![false; n];
        for &i in &order {
            if i >= n || std::mem::replace(&mut seen[i], true) {
                return corrupt("density order is not a permutation");
            }
        }
        if order.windows(2).any(|w| rho[w[1]] > rho[w[0]]) {
            return corrupt("density order visits an increasing density");
        }
        Ok(Self { algorithm, dcut, rho, delta, dependent, order, fit_timings, index_bytes })
    }

    /// Name of the algorithm that fitted this model.
    pub fn algorithm(&self) -> &'static str {
        self.algorithm
    }

    /// The cutoff distance the model was fitted with.
    pub fn dcut(&self) -> f64 {
        self.dcut
    }

    /// Number of points in the fitted dataset.
    pub fn len(&self) -> usize {
        self.rho.len()
    }

    /// Whether the model covers zero points (never produced by `fit`, which
    /// rejects empty datasets, but possible through [`DpcModel::from_parts`]).
    pub fn is_empty(&self) -> bool {
        self.rho.is_empty()
    }

    /// Number of points in the fitted dataset — an alias for
    /// [`DpcModel::len`] matching the paper's `n`. Serving layers and
    /// external tooling read per-point quantities with
    /// [`rho_at`](DpcModel::rho_at) / [`delta_at`](DpcModel::delta_at) /
    /// [`dependent_at`](DpcModel::dependent_at) over `0..n()`.
    pub fn n(&self) -> usize {
        self.rho.len()
    }

    /// Local density `ρ_i` of every point.
    pub fn rho(&self) -> &[f64] {
        &self.rho
    }

    /// Local density `ρ_i` of point `i` (jittered count, see the crate docs on
    /// density tie-breaking).
    ///
    /// # Panics
    /// Panics if `i >= self.n()`.
    #[inline]
    pub fn rho_at(&self, i: usize) -> f64 {
        self.rho[i]
    }

    /// Dependent distance `δ_i` of point `i`: the distance to its nearest
    /// neighbour of higher local density, or `∞` for the globally densest
    /// point.
    ///
    /// # Panics
    /// Panics if `i >= self.n()`.
    #[inline]
    pub fn delta_at(&self, i: usize) -> f64 {
        self.delta[i]
    }

    /// Dependent point `q_i` of point `i` — the identifier of its nearest
    /// neighbour of higher local density. The globally densest point depends
    /// on itself (`dependent_at(i) == i`).
    ///
    /// # Panics
    /// Panics if `i >= self.n()`.
    #[inline]
    pub fn dependent_at(&self, i: usize) -> usize {
        self.dependent[i]
    }

    /// Dependent distance `δ_i` of every point.
    pub fn delta(&self) -> &[f64] {
        &self.delta
    }

    /// Dependent point `q_i` of every point.
    pub fn dependent(&self) -> &[usize] {
        &self.dependent
    }

    /// Point ids in decreasing density order (computed once per model).
    pub fn density_order(&self) -> &[usize] {
        &self.order
    }

    /// Wall-clock of the fit phases (`assign_secs` is zero here; extraction
    /// stamps it per call).
    pub fn fit_timings(&self) -> Timings {
        self.fit_timings
    }

    /// Approximate heap bytes of the index structures built during the fit.
    pub fn index_bytes(&self) -> usize {
        self.index_bytes
    }

    /// Bitwise layout equality: same algorithm name, same `d_cut`, and
    /// bit-identical `ρ`/`δ`/dependent/order arrays plus index-byte
    /// accounting. Floats are compared by bit pattern (`to_bits`), so NaN
    /// payloads, `±0.0` and subnormals all count — this is the contract the
    /// persistence round-trip tests pin, mirroring `KdTree::layout_eq`.
    ///
    /// [`Timings`] are deliberately excluded: they are wall-clock provenance
    /// of one particular fit, not part of the model's layout, and can never
    /// match between a fresh fit and a decoded artifact.
    pub fn layout_eq(&self, other: &Self) -> bool {
        self.algorithm == other.algorithm
            && self.dcut.to_bits() == other.dcut.to_bits()
            && self.rho.len() == other.rho.len()
            && self.index_bytes == other.index_bytes
            && self.rho.iter().zip(&other.rho).all(|(a, b)| a.to_bits() == b.to_bits())
            && self.delta.iter().zip(&other.delta).all(|(a, b)| a.to_bits() == b.to_bits())
            && self.dependent == other.dependent
            && self.order == other.order
    }

    /// Builds the decision graph (the `⟨ρ_i, δ_i⟩` scatter of Figure 1) — the
    /// artefact users read to choose [`Thresholds`].
    pub fn decision_graph(&self) -> DecisionGraph {
        DecisionGraph { points: self.rho.iter().copied().zip(self.delta.iter().copied()).collect() }
    }

    /// Selects centres and propagates labels for one threshold choice: a pure
    /// `O(n)` pass over the frozen `ρ`/`δ` arrays — no index is rebuilt, no
    /// density or dependent point is recomputed, and the density order is the
    /// one precomputed at model construction. The [`Clustering`] holds only
    /// what the thresholds decide; `ρ`, `δ` and the dependents stay here.
    pub fn extract(&self, thresholds: &Thresholds) -> Clustering {
        let start = Instant::now();
        let (centers, assignment) =
            select_and_assign(thresholds, &self.rho, &self.delta, &self.dependent, &self.order);
        let mut timings = self.fit_timings;
        timings.assign_secs = start.elapsed().as_secs_f64();
        Clustering { centers, assignment, timings }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A hand-built model whose point 3 depends on point 5, which is less
    /// dense: a dependency no fit makes, which `from_parts` accepts
    /// unchecked and the extract tests use to propagate noise.
    fn toy_model() -> DpcModel {
        toy_with_dependents(vec![0, 0, 1, 5, 0, 4])
    }

    /// The toy model with point 3 depending on the denser point 2: a model
    /// `from_saved_parts` accepts.
    fn saved_toy() -> DpcModel {
        toy_with_dependents(vec![0, 0, 1, 2, 0, 4])
    }

    fn toy_with_dependents(dependent: Vec<usize>) -> DpcModel {
        //            0     1     2     3     4     5
        let rho = vec![10.0, 8.0, 6.0, 1.0, 9.0, 0.5];
        let delta = vec![f64::INFINITY, 1.0, 1.0, 1.0, 6.0, 1.0];
        DpcModel::from_parts(
            "toy",
            1.0,
            rho,
            delta,
            dependent,
            Timings { rho_secs: 0.1, delta_secs: 0.2, assign_secs: 0.0 },
            77,
        )
        .unwrap()
    }

    /// `from_saved_parts` over `m`'s parts, with `dependent` and `delta`
    /// replaced.
    fn resave(m: &DpcModel, dependent: Vec<usize>, delta: Vec<f64>) -> Result<DpcModel, DpcError> {
        DpcModel::from_saved_parts(
            m.algorithm(),
            m.dcut(),
            m.rho().to_vec(),
            delta,
            dependent,
            m.density_order().to_vec(),
            Timings::default(),
            m.index_bytes(),
        )
    }

    #[test]
    fn accessors_and_order() {
        let m = toy_model();
        assert_eq!(m.algorithm(), "toy");
        assert_eq!(m.dcut(), 1.0);
        assert_eq!(m.len(), 6);
        assert_eq!(m.n(), 6);
        assert!(!m.is_empty());
        assert_eq!(m.index_bytes(), 77);
        assert_eq!(m.density_order(), &[0, 4, 1, 2, 3, 5]);
        assert_eq!(m.decision_graph().len(), 6);
    }

    /// The per-point read accessors agree with the slice accessors on a real
    /// fitted model (not just the hand-built toy), so external tooling — the
    /// `dpc-serve` assignment path in particular — can rely on them without
    /// reaching for the private fields.
    #[test]
    fn per_point_accessors_match_slices_on_a_fit() {
        use crate::{DpcAlgorithm, DpcParams, ExDpc};
        let data = dpc_data::generators::gaussian_blobs(&[(0.0, 0.0), (40.0, 40.0)], 60, 2.0, 13);
        let m = ExDpc::new(DpcParams::new(3.0)).fit(&data).unwrap();
        assert_eq!(m.n(), data.len());
        assert_eq!(m.n(), m.len());
        for i in 0..m.n() {
            assert_eq!(m.rho_at(i).to_bits(), m.rho()[i].to_bits());
            assert_eq!(m.delta_at(i).to_bits(), m.delta()[i].to_bits());
            assert_eq!(m.dependent_at(i), m.dependent()[i]);
            assert!(m.dependent_at(i) < m.n());
        }
        // The densest point depends on itself with δ = ∞; everyone else
        // depends on a strictly denser point.
        let top = m.density_order()[0];
        assert_eq!(m.dependent_at(top), top);
        assert!(m.delta_at(top).is_infinite());
        for &i in &m.density_order()[1..] {
            assert!(m.rho_at(m.dependent_at(i)) > m.rho_at(i));
        }
    }

    #[test]
    #[should_panic]
    fn per_point_accessors_panic_out_of_range() {
        let m = toy_model();
        let _ = m.rho_at(m.n());
    }

    #[test]
    fn extract_is_consistent_with_select_and_assign() {
        let m = toy_model();
        let t = Thresholds::new(2.0, 5.0).unwrap();
        let c = m.extract(&t);
        assert_eq!(c.centers, vec![0, 4]);
        assert_eq!(c.assignment, vec![0, 0, 0, crate::NOISE, 1, crate::NOISE]);
        assert_eq!(m.index_bytes(), 77);
        assert!((c.timings.rho_secs - 0.1).abs() < 1e-12);
        assert!(c.timings.assign_secs >= 0.0);
    }

    #[test]
    fn repeated_extraction_sweeps_thresholds_without_refitting() {
        let m = toy_model();
        // Raising δ_min monotonically prunes centres; the model is untouched.
        // (ρ_min stays at 2.0: the toy's low-density points carry a deliberately
        // bogus dependency to exercise noise propagation.)
        let mut last_centers = usize::MAX;
        for delta_min in [0.5, 5.0, 100.0] {
            let c = m.extract(&Thresholds::new(2.0, delta_min).unwrap());
            assert!(c.num_clusters() <= last_centers);
            last_centers = c.num_clusters();
        }
        assert_eq!(last_centers, 1); // only the ∞-δ point survives any δ_min
    }

    #[test]
    fn from_parts_rejects_mismatched_arrays() {
        let err = DpcModel::from_parts(
            "toy",
            1.0,
            vec![1.0, 2.0],
            vec![1.0],
            vec![0, 1],
            Timings::default(),
            0,
        )
        .unwrap_err();
        assert!(
            matches!(err, DpcError::DimensionMismatch { what: "delta", expected: 2, got: 1 }),
            "{err:?}"
        );
        let err = DpcModel::from_parts(
            "toy",
            1.0,
            vec![1.0, 2.0],
            vec![1.0, 2.0],
            vec![0],
            Timings::default(),
            0,
        )
        .unwrap_err();
        assert!(matches!(err, DpcError::DimensionMismatch { what: "dependent", .. }), "{err:?}");
    }

    /// A dependent outside the model is a typed error, not a model whose
    /// `extract` indexes out of bounds.
    #[test]
    fn from_parts_rejects_an_out_of_range_dependent() {
        let build = |dependent: Vec<usize>| {
            DpcModel::from_parts(
                "toy",
                1.0,
                vec![1.0, 2.0],
                vec![1.0, f64::INFINITY],
                dependent,
                Timings::default(),
                0,
            )
        };
        let err = build(vec![5, 1]).unwrap_err();
        assert!(
            matches!(err, DpcError::InvalidParams { param: "dependent", value, .. } if value == 5.0),
            "{err:?}"
        );
        assert!(matches!(build(vec![1, 2]), Err(DpcError::InvalidParams { .. })));
        let m = build(vec![1, 1]).unwrap();
        assert_eq!(m.extract(&Thresholds::new(0.0, 0.5).unwrap()).len(), 2);
    }

    #[test]
    fn from_saved_parts_round_trips_a_model() {
        let m = saved_toy();
        let saved = DpcModel::from_saved_parts(
            m.algorithm(),
            m.dcut(),
            m.rho().to_vec(),
            m.delta().to_vec(),
            m.dependent().to_vec(),
            m.density_order().to_vec(),
            Timings::default(), // timings are provenance, not layout
            m.index_bytes(),
        )
        .unwrap();
        assert!(saved.layout_eq(&m));
        assert!(m.layout_eq(&saved));
        assert_eq!(saved.density_order(), m.density_order());
    }

    #[test]
    fn from_saved_parts_rejects_invalid_orders() {
        let m = saved_toy();
        let build = |order: Vec<usize>| {
            DpcModel::from_saved_parts(
                m.algorithm(),
                m.dcut(),
                m.rho().to_vec(),
                m.delta().to_vec(),
                m.dependent().to_vec(),
                order,
                Timings::default(),
                m.index_bytes(),
            )
        };
        // Wrong length.
        let err = build(vec![0, 1]).unwrap_err();
        assert!(matches!(err, DpcError::DimensionMismatch { what: "order", .. }), "{err:?}");
        // Duplicate entry (not a permutation).
        let err = build(vec![0, 0, 1, 2, 3, 5]).unwrap_err();
        assert!(matches!(err, DpcError::Corrupt { section: "model", .. }), "{err:?}");
        // Out-of-range entry.
        let err = build(vec![0, 4, 1, 2, 3, 6]).unwrap_err();
        assert!(matches!(err, DpcError::Corrupt { section: "model", .. }), "{err:?}");
        // A true permutation that visits densities out of order.
        let err = build(vec![5, 3, 2, 1, 4, 0]).unwrap_err();
        assert!(matches!(err, DpcError::Corrupt { section: "model", .. }), "{err:?}");
        // An out-of-range dependent id is also refused.
        let err = resave(&m, vec![0, 0, 1, 2, 0, 99], m.delta().to_vec()).unwrap_err();
        assert!(matches!(err, DpcError::Corrupt { section: "model", .. }), "{err:?}");
    }

    #[test]
    fn from_saved_parts_rejects_a_dependent_that_is_not_denser() {
        let corrupt = |r: Result<DpcModel, DpcError>| {
            matches!(r, Err(DpcError::Corrupt { section: "model", .. }))
        };
        let m = toy_model();
        let delta = m.delta().to_vec();
        // The toy's 3 → 5: a less dense dependent.
        assert!(corrupt(resave(&m, m.dependent().to_vec(), delta.clone())));
        // An equally dense dependent is not strictly denser.
        let mut rho = m.rho().to_vec();
        rho[2] = rho[1];
        let tied = DpcModel::from_saved_parts(
            m.algorithm(),
            m.dcut(),
            rho,
            delta.clone(),
            vec![0, 0, 1, 2, 0, 4],
            m.density_order().to_vec(),
            Timings::default(),
            m.index_bytes(),
        );
        assert!(corrupt(tied));
        // A point that is its own dependent needs δ = ∞.
        assert!(corrupt(resave(&m, vec![0, 0, 1, 3, 0, 4], delta.clone())));
        let mut finite = delta.clone();
        finite[0] = 5.0;
        assert!(corrupt(resave(&m, vec![0, 0, 1, 2, 0, 4], finite)));
        // The same parts with genuine dependents load.
        assert!(resave(&m, vec![0, 0, 1, 2, 0, 4], delta.clone()).is_ok());
        let mut own = delta;
        own[3] = f64::INFINITY;
        assert!(resave(&m, vec![0, 0, 1, 3, 0, 4], own).is_ok());
    }

    #[test]
    fn layout_eq_ignores_timings_but_not_content() {
        let m = saved_toy();
        let mut parts = (
            m.rho().to_vec(),
            m.delta().to_vec(),
            m.dependent().to_vec(),
            m.density_order().to_vec(),
        );
        let rebuild = |p: &(Vec<f64>, Vec<f64>, Vec<usize>, Vec<usize>)| {
            DpcModel::from_saved_parts(
                m.algorithm(),
                m.dcut(),
                p.0.clone(),
                p.1.clone(),
                p.2.clone(),
                p.3.clone(),
                Timings { rho_secs: 99.0, delta_secs: 99.0, assign_secs: 99.0 },
                m.index_bytes(),
            )
            .unwrap()
        };
        assert!(rebuild(&parts).layout_eq(&m), "timings must not affect layout_eq");
        // ±0.0 differ bitwise: flipping a delta from +0.0 to -0.0 must break
        // equality even though `==` would accept it.
        parts.1[3] = 0.0;
        let plus = rebuild(&parts);
        parts.1[3] = -0.0;
        let minus = rebuild(&parts);
        assert!(!plus.layout_eq(&minus));
        assert!(plus.layout_eq(&plus.clone()));
    }
}
