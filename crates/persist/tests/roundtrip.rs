//! Round-trip property tests: `from_bytes ∘ to_bytes == id`, **bitwise**
//! (`layout_eq`), across dimensionalities, duplicates, subnormals, signed
//! zeros and empty trees — plus decodes of a slice shifted by one byte, which
//! must read the same bits.

use dpc_core::{DpcModel, Thresholds, Timings};
use dpc_geometry::Dataset;
use dpc_index::KdTree;
use dpc_persist::{PersistModel, PersistTree, SnapshotArtifact};
use dpc_rng::StdRng;

fn random_dataset(n: usize, dim: usize, seed: u64) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut data = Dataset::new(dim);
    for _ in 0..n {
        let p: Vec<f64> = (0..dim).map(|_| rng.gen_range(-50.0..50.0)).collect();
        data.push(&p);
    }
    data
}

/// 40 points in 2-d: signed zeros, subnormals, duplicates and distinct rows.
fn signed_zero_dataset() -> Dataset {
    let mut data = Dataset::new(2);
    for i in 0..40 {
        match i % 5 {
            0 => data.push(&[0.0, -0.0]),
            1 => data.push(&[-0.0, 0.0]),
            2 => data.push(&[5.0e-324, -5.0e-324]),
            3 => data.push(&[1.0, 1.0]), // deliberate duplicates
            _ => data.push(&[i as f64, -(i as f64)]),
        };
    }
    data
}

/// A copy of `bytes` one byte into its buffer: decode `&shifted(b)[1..]` to
/// read the artifact with every 8-byte field misaligned.
fn shifted(bytes: &[u8]) -> Vec<u8> {
    let mut out = vec![0u8; bytes.len() + 1];
    out[1..].copy_from_slice(bytes);
    out
}

/// A structurally valid random model: densities drawn at random (including
/// the edge floats the format must carry bit-exactly), each dependent a
/// random strictly denser point, or the point itself with δ = ∞ when none
/// is denser (as every fit makes it), density order derived by `from_parts`
/// itself.
fn random_model(n: usize, seed: u64) -> DpcModel {
    let mut rng = StdRng::seed_from_u64(seed);
    let rho: Vec<f64> = (0..n)
        .map(|i| match i % 7 {
            0 => 0.0,
            1 => -0.0,
            2 => 5.0e-324, // subnormal
            _ => rng.gen_range(0.0..100.0),
        })
        .collect();
    let mut delta: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..10.0)).collect();
    let dependent: Vec<usize> = (0..n)
        .map(|i| {
            let denser: Vec<usize> = (0..n).filter(|&j| rho[j] > rho[i]).collect();
            if denser.is_empty() {
                delta[i] = f64::INFINITY;
                return i;
            }
            denser[(rng.next_u64() % denser.len() as u64) as usize]
        })
        .collect();
    let timings =
        Timings { rho_secs: rng.gen_f64(), delta_secs: rng.gen_f64(), assign_secs: rng.gen_f64() };
    DpcModel::from_parts("Ex-DPC", rng.gen_range(0.5..5.0), rho, delta, dependent, timings, 1234)
        .unwrap()
}

#[test]
fn models_round_trip_bitwise() {
    for (n, seed) in [(1, 1), (2, 2), (17, 3), (128, 4), (501, 5)] {
        let model = random_model(n, seed);
        let bytes = model.to_bytes();
        let back = DpcModel::from_bytes(&bytes).unwrap();
        assert!(back.layout_eq(&model), "n={n} seed={seed}: decoded model diverged");
        // Timings are carried too (provenance), just excluded from layout_eq.
        assert_eq!(back.fit_timings(), model.fit_timings());
        // Re-encoding the decode reproduces the bytes: the format is a
        // canonical function of the content.
        assert_eq!(back.to_bytes(), bytes, "n={n} seed={seed}: re-encode drifted");
    }
}

#[test]
fn shifted_model_decodes_bit_identically() {
    let model = random_model(64, 9);
    let bytes = model.to_bytes();
    let back = DpcModel::from_bytes(&shifted(&bytes)[1..]).unwrap();
    assert!(back.layout_eq(&model));
    assert!(back.layout_eq(&DpcModel::from_bytes(&bytes).unwrap()));
}

#[test]
fn trees_round_trip_bitwise_across_dimensionalities() {
    for (n, dim, seed) in [(1, 2, 10), (16, 2, 11), (17, 3, 12), (300, 3, 13), (96, 8, 14)] {
        let data = random_dataset(n, dim, seed);
        let tree = KdTree::build(&data);
        let bytes = tree.to_bytes();
        let back = KdTree::from_bytes(&bytes).unwrap();
        assert!(back.layout_eq(&tree), "n={n} dim={dim}: decoded tree diverged");
        assert_eq!(back.to_bytes(), bytes, "n={n} dim={dim}: re-encode drifted");
    }
}

#[test]
fn trees_with_duplicates_signed_zeros_and_subnormals_round_trip() {
    let data = signed_zero_dataset();
    let tree = KdTree::build(&data);
    let bytes = tree.to_bytes();
    let back = KdTree::from_bytes(&bytes).unwrap();
    assert!(back.layout_eq(&tree));
    // The decoded tree answers queries with no dataset at all — identically
    // to the tree that was encoded.
    for i in 0..data.len() {
        let q = data.point(i);
        assert_eq!(back.range_count(q, 3.0, Some(i)), tree.range_count(q, 3.0, Some(i)));
        assert_eq!(back.range_search(q, 3.0), tree.range_search(q, 3.0));
    }
}

#[test]
fn empty_tree_round_trips() {
    let data = Dataset::new(2);
    let tree = KdTree::build(&data);
    let bytes = tree.to_bytes();
    let back = KdTree::from_bytes(&bytes).unwrap();
    assert!(back.layout_eq(&tree));
    assert!(back.is_empty());
    assert_eq!(back.range_count(&[0.0, 0.0], 1.0, None), 0);
    assert!(back.range_search(&[0.0, 0.0], 1.0).is_empty());
}

#[test]
fn shifted_tree_decodes_bit_identically() {
    let data = random_dataset(60, 2, 31);
    let tree = KdTree::build(&data);
    let bytes = tree.to_bytes();
    let back = KdTree::from_bytes(&shifted(&bytes)[1..]).unwrap();
    assert!(back.layout_eq(&tree));
    assert!(back.layout_eq(&KdTree::from_bytes(&bytes).unwrap()));
}

#[test]
fn snapshot_artifact_round_trips_and_is_a_superset() {
    let inputs = [
        random_dataset(150, 2, 55),
        signed_zero_dataset(),
        random_dataset(90, 3, 57),
        random_dataset(70, 8, 58),
    ];
    for (k, data) in inputs.iter().enumerate() {
        let model = random_model(data.len(), 56 + k as u64);
        let tree = KdTree::build(data);
        let thresholds = Thresholds::new(1.0, 2.0).unwrap();
        let bytes = SnapshotArtifact::encode(&model, &tree, &thresholds);

        let bits = |d: &Dataset| d.flat().iter().map(|c| c.to_bits()).collect::<Vec<_>>();
        // The same bytes decode alike one byte into a buffer.
        for artifact in [&bytes[..], &shifted(&bytes)[1..]].map(SnapshotArtifact::from_bytes) {
            let artifact = artifact.unwrap();
            assert_eq!(artifact.thresholds(), thresholds);
            assert!(artifact.model().layout_eq(&model), "input {k}");
            assert!(artifact.tree().layout_eq(&tree), "input {k}");
            // The dataset comes back from the tree's packed rows, bit for bit.
            let revived = artifact.dataset();
            assert_eq!(revived.dim(), data.dim());
            assert_eq!(bits(&revived), bits(data), "input {k}: rebuilt rows differ");
        }

        // Superset property: the combined buffer also decodes through the
        // standalone decoders, which ignore sections they do not need.
        assert!(DpcModel::from_bytes(&bytes).unwrap().layout_eq(&model));
        assert!(KdTree::from_bytes(&bytes).unwrap().layout_eq(&tree));
    }
}
