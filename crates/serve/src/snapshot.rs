//! An immutable, self-contained serving snapshot: one fitted epoch.
//!
//! A [`Snapshot`] bundles everything a request needs to be answered without
//! touching shared mutable state: the dataset the model was fitted on, the
//! fitted [`DpcModel`], a packed [`KdTree`] over the same data with the max-ρ
//! array of its nodes (for the point-assignment queries), the snapshot's
//! default [`Thresholds`] and the [`Clustering`] cached for them, and the
//! epoch number the store stamped at install time. Readers hold a snapshot
//! through an `Arc`, so an epoch that has been replaced in the
//! [`ModelStore`](crate::ModelStore) stays fully usable until its last reader
//! drops it — old epochs drain naturally, and no request can observe half of
//! one epoch and half of another.
//!
//! The kd-tree owns its packed coordinate rows and borrows nothing, so the
//! snapshot holds its dataset and its tree side by side in safe Rust. It
//! holds the tree through an `Arc`: a fitted or loaded epoch owns the tree it
//! built or decoded, and a published streaming epoch shares the tree the
//! streaming engine rebuilt over the same window
//! ([`StreamingDpc::to_indexed_parts`](dpc_core::StreamingDpc::to_indexed_parts)),
//! so a publish builds one tree, not two.

use std::sync::Arc;

use dpc_core::{Clustering, DpcError, DpcModel, Thresholds, Timings};
use dpc_geometry::Dataset;
use dpc_index::{KdTree, MaxKeys};
use dpc_parallel::Executor;
use dpc_persist::SnapshotArtifact;

/// One served epoch: a fitted model, its dataset, the packed kd-tree over the
/// permuted coordinates, and the clustering cached for the snapshot's default
/// thresholds. Immutable after construction; shared by `Arc`.
pub struct Snapshot {
    tree: Arc<KdTree>,
    /// The fitted ρ over `tree`'s nodes: the pruning data of `Assign`'s
    /// nearest-denser search.
    pub(crate) max_rho: MaxKeys,
    data: Arc<Dataset>,
    model: DpcModel,
    /// The clustering extracted at `thresholds`, cached so `Assign` can walk
    /// a dependency chain in `O(1)` (the `O(n)` label propagation already
    /// happened once, at snapshot construction).
    clustering: Clustering,
    thresholds: Thresholds,
    /// Stamped by `ModelStore::install`; `0` until the snapshot is installed.
    pub(crate) epoch: u64,
}

impl Snapshot {
    /// Assembles a snapshot from a fitted model and the dataset it was fitted
    /// on: builds the packed kd-tree over the data (fanning construction out
    /// across `executor`'s workers) with its max-ρ array, and caches the
    /// clustering for `thresholds`. The epoch is `0` until
    /// [`ModelStore::install`](crate::ModelStore) stamps it. A published
    /// streaming epoch skips the build: it shares the engine's tree.
    ///
    /// # Panics
    /// Panics if `model.n() != data.len()` — the model must describe exactly
    /// this dataset, otherwise every per-point lookup would be garbage.
    pub fn new(
        data: Arc<Dataset>,
        model: DpcModel,
        thresholds: Thresholds,
        executor: &Executor,
    ) -> Self {
        let tree = Arc::new(KdTree::build_parallel(&data, executor));
        Self::with_tree(data, model, tree, thresholds)
    }

    /// The one assembly path of every snapshot: `tree` must be the packed
    /// tree over `data` (ids are dataset positions). Derives the max-ρ array
    /// of its nodes and caches the clustering for `thresholds`.
    ///
    /// # Panics
    /// Panics if `model.n() != data.len()`, as [`Snapshot::new`] does.
    pub(crate) fn with_tree(
        data: Arc<Dataset>,
        model: DpcModel,
        tree: Arc<KdTree>,
        thresholds: Thresholds,
    ) -> Self {
        assert_eq!(
            model.n(),
            data.len(),
            "model covers {} points but the dataset has {}",
            model.n(),
            data.len()
        );
        debug_assert_eq!(tree.len(), data.len(), "the tree must index the dataset");
        let max_rho = MaxKeys::new(&tree, model.rho());
        let clustering = model.extract(&thresholds);
        Self { tree, max_rho, data, model, clustering, thresholds, epoch: 0 }
    }

    /// Serialises this epoch into a single snapshot artifact buffer
    /// ([`SnapshotArtifact::encode`]): model, packed kd-tree and the default
    /// thresholds, checksummed and versioned. The dataset travels as the
    /// tree's packed rows. The epoch number is deliberately *not* persisted —
    /// epochs are an identity the installing store stamps, not part of the
    /// fitted state.
    pub fn to_artifact_bytes(&self) -> Vec<u8> {
        SnapshotArtifact::encode(&self.model, &self.tree, &self.thresholds)
    }

    /// Rebuilds a serving snapshot from a snapshot artifact **without
    /// refitting and without rebuilding the kd-tree**: the packed tree
    /// storage is decoded (and exhaustively validated) instead of being
    /// reconstructed, which is what makes cold starts cheap. The dataset is
    /// rebuilt from the tree's packed rows; the `O(n)` max-ρ array and label
    /// propagation for the persisted thresholds are derived at load time too.
    /// The epoch is `0` until
    /// [`ModelStore::install`](crate::ModelStore) stamps it.
    ///
    /// The result is indistinguishable from the snapshot that was saved:
    /// model and tree decode `layout_eq` to the originals, so every
    /// `Relabel`/`Assign`/`Stats` answer is identical.
    ///
    /// # Errors
    /// Every artifact defect — truncation, checksum mismatch, version or
    /// endianness mismatch, or a payload violating the structural invariants
    /// of model or tree — surfaces as a typed [`DpcError`]; never a panic.
    pub fn from_artifact_bytes(bytes: &[u8]) -> Result<Self, DpcError> {
        let artifact = SnapshotArtifact::from_bytes(bytes)?;
        let data = Arc::new(artifact.dataset());
        let (model, tree, thresholds) = artifact.into_parts();
        Ok(Self::with_tree(data, model, Arc::new(tree), thresholds))
    }

    /// The epoch this snapshot was installed as (unique and monotonically
    /// increasing per store; `0` for a snapshot never installed).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The dataset the model was fitted on.
    pub fn data(&self) -> &Dataset {
        &self.data
    }

    /// The fitted model.
    pub fn model(&self) -> &DpcModel {
        &self.model
    }

    /// The packed kd-tree over the snapshot's dataset.
    pub fn tree(&self) -> &KdTree {
        &self.tree
    }

    /// The snapshot's default thresholds — the ones `Assign` classifies
    /// against and [`Snapshot::clustering`] was extracted with.
    pub fn thresholds(&self) -> Thresholds {
        self.thresholds
    }

    /// The clustering cached for [`Snapshot::thresholds`].
    pub fn clustering(&self) -> &Clustering {
        &self.clustering
    }

    /// Number of points in the snapshot's dataset.
    pub fn n(&self) -> usize {
        self.model.n()
    }

    /// Dimensionality of the snapshot's dataset.
    pub fn dim(&self) -> usize {
        self.data.dim()
    }

    /// The cutoff distance the model was fitted with.
    pub fn dcut(&self) -> f64 {
        self.model.dcut()
    }

    /// Wall-clock of the fit phases that produced the model.
    pub fn fit_timings(&self) -> Timings {
        self.model.fit_timings()
    }

    /// Approximate heap bytes of the index structures this snapshot pins in
    /// memory: the fit-time indexes accounted in the model plus the serving
    /// kd-tree and its max-ρ array.
    pub fn index_bytes(&self) -> usize {
        self.model.index_bytes() + self.tree.mem_usage() + self.max_rho.mem_usage()
    }
}

// `Snapshot` is shared across reader and writer threads through `Arc`; all
// fields are immutable after construction and every field is `Send + Sync`.
// The explicit assertions keep a future non-Sync field from compiling.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Snapshot>()
};

#[cfg(test)]
mod tests {
    use super::*;
    use dpc_core::{DpcAlgorithm, DpcParams, ExDpc};
    use dpc_data::generators::gaussian_blobs;

    fn fit_snapshot() -> Snapshot {
        let data = Arc::new(gaussian_blobs(&[(0.0, 0.0), (60.0, 60.0)], 80, 2.0, 7));
        let model = ExDpc::new(DpcParams::new(4.0)).fit(&data).unwrap();
        Snapshot::new(data, model, Thresholds::new(3.0, 12.0).unwrap(), &Executor::single())
    }

    #[test]
    fn snapshot_bundles_model_tree_and_cached_clustering() {
        let snap = fit_snapshot();
        assert_eq!(snap.epoch(), 0); // not installed
        assert_eq!(snap.n(), 160);
        assert_eq!(snap.dim(), 2);
        assert_eq!(snap.tree().len(), snap.n());
        assert_eq!(snap.clustering().len(), snap.n());
        assert_eq!(snap.clustering().num_clusters(), 2);
        assert!(snap.index_bytes() > snap.model().index_bytes());
        assert_eq!(snap.dcut(), 4.0);
        // The cached clustering is exactly what a fresh extract produces.
        let fresh = snap.model().extract(&snap.thresholds());
        assert_eq!(fresh.assignment, snap.clustering().assignment);
        assert_eq!(fresh.centers, snap.clustering().centers);
    }

    #[test]
    fn tree_queries_read_the_snapshot_dataset() {
        let snap = fit_snapshot();
        // Every point finds itself in the closed ball of radius zero, and the
        // tree's row of it is the dataset's.
        let mut found = Vec::new();
        for i in (0..snap.n()).step_by(17) {
            snap.tree().range_search_into(snap.data().point(i), 0.0, &mut found);
            assert!(found.contains(&i));
            assert_eq!(snap.tree().point(i), snap.data().point(i));
        }
    }

    #[test]
    fn snapshot_survives_outliving_external_data_handles() {
        // Dropping the caller's dataset handle leaves the snapshot whole.
        let data = Arc::new(gaussian_blobs(&[(0.0, 0.0)], 64, 1.5, 3));
        let model = ExDpc::new(DpcParams::new(2.0)).fit(&data).unwrap();
        let snap =
            Snapshot::new(Arc::clone(&data), model, Thresholds::for_dcut(2.0), &Executor::single());
        drop(data);
        assert_eq!(snap.tree().range_count(snap.data().point(0), 2.0, Some(0)), {
            let q = snap.data().point(0);
            (0..snap.n())
                .filter(|&j| j != 0 && dpc_geometry::dist(q, snap.data().point(j)) <= 2.0)
                .count()
        });
    }

    #[test]
    fn artifact_round_trip_reproduces_the_snapshot() {
        let snap = fit_snapshot();
        let bytes = snap.to_artifact_bytes();
        let revived = Snapshot::from_artifact_bytes(&bytes).unwrap();
        assert_eq!(revived.epoch(), 0, "epochs are stamped at install, not persisted");
        assert!(revived.model().layout_eq(snap.model()));
        assert!(revived.tree().layout_eq(snap.tree()));
        assert_eq!(revived.thresholds(), snap.thresholds());
        assert_eq!(revived.data().flat(), snap.data().flat());
        assert_eq!(revived.clustering().assignment, snap.clustering().assignment);
        assert_eq!(revived.clustering().centers, snap.clustering().centers);
        // And the revived snapshot re-encodes to the exact same bytes.
        assert_eq!(revived.to_artifact_bytes(), bytes);
    }

    #[test]
    fn shifted_artifact_serves_the_same_answers() {
        use crate::{DpcServer, Request};
        // One byte into a buffer, every 8-byte field of the artifact is
        // misaligned; the decode reads bytes, so nothing may change.
        let bytes = fit_snapshot().to_artifact_bytes();
        let mut shifted = vec![0u8; bytes.len() + 1];
        shifted[1..].copy_from_slice(&bytes);
        let aligned = Snapshot::from_artifact_bytes(&bytes).unwrap();
        let moved = Snapshot::from_artifact_bytes(&shifted[1..]).unwrap();
        assert!(moved.model().layout_eq(aligned.model()));
        assert!(moved.tree().layout_eq(aligned.tree()));
        let mut requests = vec![
            Request::Relabel(aligned.thresholds()),
            Request::Relabel(Thresholds::new(1.0, 5.0).unwrap()),
        ];
        requests.extend(
            (0..24).map(|i| Request::Assign(vec![i as f64 * 3.0 - 6.0, i as f64 * 2.5 - 4.0])),
        );
        for request in &requests {
            let answer = DpcServer::handle_on(&moved, request);
            assert_eq!(answer, DpcServer::handle_on(&aligned, request), "{request:?}");
        }
    }

    #[test]
    fn corrupt_artifact_is_a_typed_error() {
        let mut bytes = fit_snapshot().to_artifact_bytes();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        assert!(matches!(
            Snapshot::from_artifact_bytes(&bytes),
            Err(dpc_core::DpcError::Corrupt { .. })
        ));
        bytes[last] ^= 0x40;
        // Truncation mid-payload is caught by the whole-file checksum
        // (Corrupt); truncation into the fixed header reports itself.
        let mut torn = bytes.clone();
        torn.truncate(bytes.len() / 2);
        assert!(matches!(
            Snapshot::from_artifact_bytes(&torn),
            Err(dpc_core::DpcError::Corrupt { .. })
        ));
        bytes.truncate(24);
        assert!(matches!(
            Snapshot::from_artifact_bytes(&bytes),
            Err(dpc_core::DpcError::TruncatedArtifact { .. })
        ));
    }

    #[test]
    #[should_panic(expected = "model covers")]
    fn mismatched_model_and_dataset_panic() {
        let data = Arc::new(gaussian_blobs(&[(0.0, 0.0)], 32, 1.0, 1));
        let model = ExDpc::new(DpcParams::new(2.0)).fit(&data).unwrap();
        let truncated = Arc::new(data.select(&[0, 1, 2]));
        let _ = Snapshot::new(truncated, model, Thresholds::for_dcut(2.0), &Executor::single());
    }
}
