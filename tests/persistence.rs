//! The on-disk format contract, pinned by golden artifacts.
//!
//! `tests/golden/` holds artifacts serialized once from a fixed-seed fit.
//! Every build decodes them and asserts **bitwise** agreement with a fresh
//! fit of the same seed — both directions: the golden bytes must decode to
//! `layout_eq` structures, and the current encoder must reproduce the golden
//! bytes exactly. Any change to the wire format therefore fails here until
//! [`FORMAT_VERSION`](fast_dpc::persist::FORMAT_VERSION) is bumped and the
//! goldens are regenerated:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test persistence
//! ```
//!
//! Fit-time wall-clock (`Timings`) is provenance, not layout: the golden
//! fixture zeroes it so the encode is deterministic. Everything else —
//! ρ/δ arrays, dependent points, density order, packed tree storage — is a
//! pure function of the seed on a given platform (CI pins x86-64 Linux).

use std::path::PathBuf;

use fast_dpc::core::{DpcAlgorithm, DpcModel, DpcParams, ExDpc, Thresholds, Timings};
use fast_dpc::data::generators::gaussian_blobs;
use fast_dpc::geometry::Dataset;
use fast_dpc::index::KdTree;
use fast_dpc::persist::{PersistModel, PersistTree, SnapshotArtifact, FORMAT_VERSION, MAGIC};

const GOLDEN_SEED: u64 = 0xD9C7;

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

fn fixture() -> (Dataset, DpcModel, Thresholds) {
    let data = gaussian_blobs(&[(0.0, 0.0), (45.0, 45.0), (0.0, 45.0)], 50, 2.0, GOLDEN_SEED);
    let model = ExDpc::new(DpcParams::new(4.0)).fit(&data).unwrap();
    // Zero the wall-clock provenance so encoding is a pure function of the
    // seed (layout_eq ignores timings; golden byte-identity must too).
    let model = DpcModel::from_saved_parts(
        model.algorithm(),
        model.dcut(),
        model.rho().to_vec(),
        model.delta().to_vec(),
        model.dependent().to_vec(),
        model.density_order().to_vec(),
        Timings::default(),
        model.index_bytes(),
    )
    .unwrap();
    (data, model, Thresholds::new(2.0, 12.0).unwrap())
}

/// Reads the golden file, or — under `UPDATE_GOLDEN=1` — rewrites it from
/// the current encoder and returns the fresh bytes.
fn golden(name: &str, current: &[u8]) -> Vec<u8> {
    let path = golden_dir().join(name);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(golden_dir()).unwrap();
        std::fs::write(&path, current).unwrap();
        return current.to_vec();
    }
    std::fs::read(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden artifact {path:?} ({e}); regenerate with \
             UPDATE_GOLDEN=1 cargo test --test persistence"
        )
    })
}

#[test]
fn golden_model_artifact_is_stable() {
    let (_, model, _) = fixture();
    let fresh = model.to_bytes();
    let bytes = golden("model_v2.dpca", &fresh);
    // Decode side: the golden bytes revive to a layout-identical model.
    let decoded = DpcModel::from_bytes(&bytes).unwrap();
    assert!(decoded.layout_eq(&model), "golden model decodes differently from a fresh fit");
    // Encode side: today's encoder reproduces the golden bytes exactly.
    // If this fails after an intentional format change, bump FORMAT_VERSION
    // and regenerate the goldens — never silently rewrite them.
    assert_eq!(fresh, bytes, "encoder output drifted from the golden model artifact");
}

#[test]
fn golden_tree_artifact_is_stable() {
    let (data, _, _) = fixture();
    let tree = KdTree::build(&data);
    let fresh = tree.to_bytes();
    let bytes = golden("tree_v2.dpca", &fresh);
    let decoded = KdTree::from_bytes(&bytes).unwrap();
    assert!(decoded.layout_eq(&tree), "golden tree decodes differently from a fresh build");
    assert_eq!(fresh, bytes, "encoder output drifted from the golden tree artifact");
}

#[test]
fn golden_snapshot_artifact_is_stable() {
    let (data, model, thresholds) = fixture();
    let tree = KdTree::build(&data);
    let fresh = SnapshotArtifact::encode(&model, &tree, &thresholds);
    let bytes = golden("snapshot_v2.dpca", &fresh);

    let artifact = SnapshotArtifact::from_bytes(&bytes).unwrap();
    assert!(artifact.model().layout_eq(&model));
    assert!(artifact.tree().layout_eq(&tree));
    assert_eq!(artifact.thresholds(), thresholds);
    assert_eq!(artifact.dataset().flat(), data.flat());
    assert_eq!(fresh, bytes, "encoder output drifted from the golden snapshot artifact");

    // The snapshot artifact is a superset: the same bytes decode through the
    // standalone model and tree decoders too.
    assert!(DpcModel::from_bytes(&bytes).unwrap().layout_eq(&model));
    assert!(KdTree::from_bytes(&bytes).unwrap().layout_eq(&tree));
}

#[test]
fn golden_headers_carry_the_pinned_version() {
    for name in ["model_v2.dpca", "tree_v2.dpca", "snapshot_v2.dpca"] {
        let path = golden_dir().join(name);
        let Ok(bytes) = std::fs::read(&path) else {
            assert!(
                std::env::var_os("UPDATE_GOLDEN").is_some(),
                "missing golden artifact {path:?}"
            );
            continue;
        };
        assert_eq!(&bytes[..8], &MAGIC, "{name}: bad magic");
        let version = u32::from_ne_bytes(bytes[8..12].try_into().unwrap());
        assert_eq!(version, FORMAT_VERSION, "{name}: golden version != FORMAT_VERSION");
    }
}

#[test]
fn disk_loaded_snapshot_serves_identically() {
    use fast_dpc::serve::{DpcServer, Request};
    let (data, model, thresholds) = fixture();
    let tree = KdTree::build(&data);
    let bytes = SnapshotArtifact::encode(&model, &tree, &thresholds);

    let dir = std::env::temp_dir();
    let path = dir.join(format!("fast_dpc_golden_{}.dpca", std::process::id()));
    std::fs::write(&path, &bytes).unwrap();
    let served = DpcServer::open(&path).unwrap();
    std::fs::remove_file(&path).ok();

    let fresh_extract = model.extract(&thresholds);
    let Ok(fast_dpc::serve::Response::Relabel(r)) = served.handle(&Request::Relabel(thresholds))
    else {
        panic!("relabel failed")
    };
    assert_eq!(r.num_clusters, fresh_extract.num_clusters());
    assert_eq!(r.centers, fresh_extract.centers);
    let Ok(fast_dpc::serve::Response::Stats(s)) = served.handle(&Request::Stats) else {
        panic!("stats failed")
    };
    assert_eq!(s.n, data.len());
    assert_eq!(s.algorithm, "Ex-DPC");
    assert_eq!(s.dcut, 4.0);
}
