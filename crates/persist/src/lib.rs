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

use std::io::Write;
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
/// sibling temporary file, which is synced to disk and then renamed over the
/// target, and the parent directory is synced after the rename. So a crash
/// or power loss mid-write leaves either the old artifact or the new one —
/// never a torn one (a torn artifact would still be *detected* by the
/// checksums, but never installed). On failure the temporary file is
/// removed.
pub fn write_artifact_file(path: &Path, bytes: &[u8]) -> Result<(), DpcError> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = std::path::PathBuf::from(tmp);
    let replace = || -> std::io::Result<()> {
        let mut file = std::fs::File::create(&tmp)?;
        file.write_all(bytes)?;
        file.sync_all()?;
        std::fs::rename(&tmp, path)
    };
    let written = replace().inspect_err(|_| {
        let _ = std::fs::remove_file(&tmp);
    });
    // The rename is durable once the directory entry is.
    #[cfg(unix)]
    let written = written.and_then(|()| {
        let parent = path.parent().filter(|p| !p.as_os_str().is_empty());
        std::fs::File::open(parent.unwrap_or(Path::new(".")))?.sync_all()
    });
    written.map_err(|e| DpcError::Io { op: "write artifact file", message: e.to_string() })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_failed_write_leaves_no_temporary_file() {
        let dir = std::env::temp_dir().join(format!("dpc_persist_write_{}", std::process::id()));
        let target = dir.join("artifact.dpca");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(target.join("occupied")).unwrap();
        let err = write_artifact_file(&target, b"bytes").unwrap_err();
        assert!(matches!(err, DpcError::Io { op: "write artifact file", .. }), "{err:?}");
        assert!(!dir.join("artifact.dpca.tmp").exists(), "the temporary file must be removed");

        let fresh = dir.join("fresh.dpca");
        write_artifact_file(&fresh, b"bytes").unwrap();
        assert_eq!(read_artifact_file(&fresh).unwrap(), b"bytes");
        assert!(!dir.join("fresh.dpca.tmp").exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
