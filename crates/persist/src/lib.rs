//! Versioned, checksummed on-disk artifacts for fitted DPC models and packed
//! kd-trees — the "fit on one box, serve from many" unlock.
//!
//! A fitted [`DpcModel`] and the packed [`KdTree`] are already flat
//! contiguous buffers; this crate writes them into a single artifact
//! (magic + format version + endianness tag + section table, with
//! per-section and whole-file checksums — see [`mod@format`] for the byte
//! layout) and decodes it once, into owned values: every array section is
//! read with one `from_ne_bytes` per element into the `Vec`s the owned
//! constructors take, so any `&[u8]` decodes, whatever its alignment, with
//! no pointer casts.
//!
//! Three artifact flavours share one container:
//!
//! * a **model artifact** ([`PersistModel::to_bytes`] /
//!   `DpcModel::from_bytes`),
//! * a **tree artifact** ([`PersistTree::to_bytes`] /
//!   `KdTree::from_bytes(bytes)`),
//! * a **snapshot artifact** ([`SnapshotArtifact`]) bundling model + tree +
//!   fit thresholds, which is what `dpc-serve`'s `ModelStore::load` installs
//!   as a serving epoch without refitting. It stores each coordinate once, in
//!   the tree's packed rows; the dataset is rebuilt from them
//!   ([`SnapshotArtifact::dataset`]).
//!
//! Every decode failure — truncation, bit flip, bad magic or version,
//! foreign endianness, checksum mismatch, or a payload violating the
//! structural invariants of the decoded type — is a typed
//! [`DpcError`], never a panic: the parser is fully bounds-checked before
//! any payload is read, and the owned constructors
//! (`DpcModel::from_saved_parts`, `KdTree::from_packed_parts`) validate
//! structure on top. Round-trips are **bitwise**: a decoded model/tree passes
//! `layout_eq` against the original, which the golden artifacts under
//! `tests/golden/` pin in CI (bump [`FORMAT_VERSION`] to change them).

#![forbid(unsafe_code)]

use std::path::Path;

use dpc_core::{DpcError, DpcModel};
use dpc_index::KdTree;

pub mod format;
mod model;
mod snapshot;
mod tree;

pub use format::{ENDIAN_TAG, FORMAT_VERSION, MAGIC};
pub use snapshot::SnapshotArtifact;

use format::parse_sections;

/// Persistence for [`DpcModel`]: `model.to_bytes()` and
/// `DpcModel::from_bytes(&bytes)` (import the trait to use them).
pub trait PersistModel: Sized {
    /// Encodes the model into a standalone artifact buffer.
    fn to_bytes(&self) -> Vec<u8>;

    /// Decodes a model from an artifact, validating container and structure.
    /// Accepts any artifact carrying the model sections — including a
    /// combined [`SnapshotArtifact`] buffer.
    ///
    /// # Errors
    /// [`DpcError::TruncatedArtifact`] when the buffer is shorter than its
    /// header or sections claim, [`DpcError::Corrupt`] for every other
    /// validation failure.
    fn from_bytes(bytes: &[u8]) -> Result<Self, DpcError>;
}

impl PersistModel for DpcModel {
    fn to_bytes(&self) -> Vec<u8> {
        let mut writer = format::ArtifactWriter::new();
        model::write_model_sections(&mut writer, self);
        writer.finish()
    }

    fn from_bytes(bytes: &[u8]) -> Result<Self, DpcError> {
        model::read_model(&parse_sections(bytes)?)
    }
}

/// Persistence for [`KdTree`]: `tree.to_bytes()` and
/// `KdTree::from_bytes(&bytes)` (import the trait to use them). A tree owns
/// its packed coordinate rows, so decoding needs no dataset.
pub trait PersistTree: Sized {
    /// Encodes the tree's packed storage into a standalone artifact buffer.
    fn to_bytes(&self) -> Vec<u8>;

    /// Decodes a tree from an artifact, validating container and structure
    /// (see [`KdTree::from_packed_parts`]). Accepts any artifact carrying the
    /// tree sections — including a combined [`SnapshotArtifact`] buffer.
    ///
    /// # Errors
    /// [`DpcError::TruncatedArtifact`] when the buffer is shorter than its
    /// header or sections claim, [`DpcError::Corrupt`] for every other
    /// validation failure.
    fn from_bytes(bytes: &[u8]) -> Result<Self, DpcError>;
}

impl PersistTree for KdTree {
    fn to_bytes(&self) -> Vec<u8> {
        let mut writer = format::ArtifactWriter::new();
        tree::write_tree_sections(&mut writer, self);
        writer.finish()
    }

    fn from_bytes(bytes: &[u8]) -> Result<Self, DpcError> {
        tree::read_tree(&parse_sections(bytes)?)
    }
}

/// Reads an artifact file into memory, mapping I/O failures to
/// [`DpcError::Io`].
pub fn read_artifact_file(path: &Path) -> Result<Vec<u8>, DpcError> {
    std::fs::read(path)
        .map_err(|e| DpcError::Io { op: "read artifact file", message: e.to_string() })
}

/// Writes an artifact buffer to `path` atomically: the bytes land in a
/// sibling temporary file which is then renamed over the target, so a crash
/// mid-write leaves either the old artifact or none — never a torn one (a
/// torn artifact would still be *detected* by the checksums, but never
/// installed).
pub fn write_artifact_file(path: &Path, bytes: &[u8]) -> Result<(), DpcError> {
    let io = |message: std::io::Error| DpcError::Io {
        op: "write artifact file",
        message: message.to_string(),
    };
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = std::path::PathBuf::from(tmp);
    std::fs::write(&tmp, bytes).map_err(io)?;
    std::fs::rename(&tmp, path).map_err(io)
}
