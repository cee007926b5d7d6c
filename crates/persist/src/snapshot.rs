//! The combined snapshot artifact: model + kd-tree + fit thresholds in one
//! buffer, so a serving process can install an epoch from disk without
//! refitting — the "fit on one box, serve from many" path. Each coordinate
//! is stored once, in the tree's packed rows; the dataset is rebuilt from
//! them.

use dpc_core::{DpcError, DpcModel, Thresholds};
use dpc_geometry::Dataset;
use dpc_index::KdTree;

use crate::format::{kind, parse_sections, ArtifactWriter, Cursor, PayloadExt};
use crate::model::{read_model, write_model_sections};
use crate::tree::{read_tree, write_tree_sections};

/// A decoded snapshot artifact: the owned model and tree plus the fit
/// thresholds, mutually consistent (same point count — validated at decode
/// time). The dataset the model was fitted on is rebuilt from the tree's
/// packed rows by [`SnapshotArtifact::dataset`].
///
/// The artifact is a superset of the standalone model and tree artifacts: the
/// same buffer also decodes through `DpcModel::from_bytes` and
/// `KdTree::from_bytes`, because decoders ignore sections they do not need.
pub struct SnapshotArtifact {
    model: DpcModel,
    tree: KdTree,
    thresholds: Thresholds,
}

impl SnapshotArtifact {
    /// Encodes one serving state — fitted model, packed tree over the
    /// model's dataset and the thresholds of the cached extraction — into a
    /// single artifact buffer.
    ///
    /// # Panics
    /// Panics if the model and tree point counts disagree: encoding garbage
    /// would defeat every validation the decode side performs.
    pub fn encode(model: &DpcModel, tree: &KdTree, thresholds: &Thresholds) -> Vec<u8> {
        assert_eq!(model.n(), tree.len(), "model and tree point counts disagree");
        let mut writer = ArtifactWriter::new();
        write_model_sections(&mut writer, model);
        write_tree_sections(&mut writer, tree);
        let mut snap = Vec::new();
        snap.put_f64(thresholds.rho_min);
        snap.put_f64(thresholds.delta_min);
        writer.section(kind::SNAP_META, snap);
        writer.finish()
    }

    /// Validates the container, decodes model and tree (each through its
    /// owned constructor's structural checks), and checks the cross-section
    /// consistency a serving install relies on: model and tree must agree on
    /// the point count, and the thresholds must be valid.
    ///
    /// # Errors
    /// [`DpcError::TruncatedArtifact`] when the buffer is shorter than its
    /// header or sections claim, [`DpcError::Corrupt`] for every other
    /// validation failure.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, DpcError> {
        let corrupt = |what: &'static str| DpcError::Corrupt { section: "snapshot", what };
        let sections = parse_sections(bytes)?;
        let model = read_model(&sections)?;
        let tree = read_tree(&sections)?;
        let mut snap = Cursor::new(sections.require(kind::SNAP_META, "snapshot")?, "snapshot");
        let rho_min = snap.read_f64()?;
        let delta_min = snap.read_f64()?;
        snap.finish()?;
        let thresholds =
            Thresholds::new(rho_min, delta_min).map_err(|_| corrupt("invalid thresholds"))?;
        if model.n() != tree.len() {
            return Err(corrupt("model and tree point counts disagree"));
        }
        Ok(Self { model, tree, thresholds })
    }

    /// The decoded model.
    pub fn model(&self) -> &DpcModel {
        &self.model
    }

    /// The decoded packed kd-tree.
    pub fn tree(&self) -> &KdTree {
        &self.tree
    }

    /// The thresholds of the extraction that was serving when the snapshot
    /// was taken.
    pub fn thresholds(&self) -> Thresholds {
        self.thresholds
    }

    /// Rebuilds the dataset the model was fitted on: the tree's packed row of
    /// every point, in id order. The rows are bit copies of the original
    /// ones, and decoding has already checked that the ids are a permutation
    /// of `0..n`, so every row lands in exactly one slot.
    pub fn dataset(&self) -> Dataset {
        let (dim, coords) = (self.tree.dim(), self.tree.coords());
        let mut flat = vec![0.0; coords.len()];
        for (&id, row) in self.tree.ids().iter().zip(coords.chunks_exact(dim)) {
            flat[id as usize * dim..(id as usize + 1) * dim].copy_from_slice(row);
        }
        Dataset::from_flat(dim, flat)
    }

    /// Takes the decoded model, tree and thresholds apart.
    pub fn into_parts(self) -> (DpcModel, KdTree, Thresholds) {
        (self.model, self.tree, self.thresholds)
    }
}
