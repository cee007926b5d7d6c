//! Kd-tree persistence: encoding the packed storage into artifact sections
//! and decoding it back.

use dpc_core::DpcError;
use dpc_index::{KdTree, PackedNode};

use crate::format::{kind, read_array, ArtifactWriter, Cursor, PayloadExt, Sections};

/// Appends the sections of a tree's packed storage to an artifact under
/// construction. Shared by the standalone tree artifact and the combined
/// snapshot artifact. The position map is not written: decoders derive it.
pub(crate) fn write_tree_sections(writer: &mut ArtifactWriter, tree: &KdTree) {
    let mut meta = Vec::new();
    meta.put_u64(tree.dim() as u64);
    meta.put_u64(tree.len() as u64);
    meta.put_u64(tree.nodes().len() as u64);
    writer.section(kind::TREE_META, meta);

    let mut ids = Vec::new();
    ids.put_u32_slice(tree.ids());
    writer.section(kind::TREE_IDS, ids);
    let mut coords = Vec::new();
    coords.put_f64_slice(tree.coords());
    writer.section(kind::TREE_COORDS, coords);
    let mut nodes = Vec::new();
    for node in tree.nodes() {
        nodes.put_u32_slice(&[node.start, node.end, node.right]);
    }
    writer.section(kind::TREE_NODES, nodes);
    let mut bounds = Vec::new();
    bounds.put_f64_slice(tree.bounds());
    writer.section(kind::TREE_BOUNDS, bounds);
}

/// Decodes the tree sections of a validated section table into an owned
/// [`KdTree`]. The metadata's point and node counts must match the arrays;
/// [`KdTree::from_packed_parts`] then checks the rest (dimensionality,
/// canonical node layout, ids a permutation of `0..n`, every bounding box)
/// and derives the position map.
pub(crate) fn read_tree(sections: &Sections<'_>) -> Result<KdTree, DpcError> {
    let corrupt = |what: &'static str| DpcError::Corrupt { section: "tree", what };
    let mut meta = Cursor::new(sections.require(kind::TREE_META, "tree")?, "tree");
    let dim = meta.read_len()?;
    let n = meta.read_len()?;
    let node_count = meta.read_len()?;
    meta.finish()?;

    let section = |kind| sections.require(kind, "tree");
    let ids = read_array(section(kind::TREE_IDS)?, "tree", u32::from_ne_bytes)?;
    let coords = read_array(section(kind::TREE_COORDS)?, "tree", f64::from_ne_bytes)?;
    let nodes = read_array(section(kind::TREE_NODES)?, "tree", |bytes: [u8; 12]| {
        let word = |k: usize| {
            u32::from_ne_bytes(bytes[4 * k..4 * k + 4].try_into().expect("a node holds 3 words"))
        };
        PackedNode { start: word(0), end: word(1), right: word(2) }
    })?;
    let bounds = read_array(section(kind::TREE_BOUNDS)?, "tree", f64::from_ne_bytes)?;
    if ids.len() != n {
        return Err(corrupt("id count disagrees with metadata"));
    }
    if nodes.len() != node_count {
        return Err(corrupt("node count disagrees with metadata"));
    }
    KdTree::from_packed_parts(dim, ids, coords, nodes, bounds).map_err(corrupt)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::PayloadExt;
    use crate::model::write_model_sections;
    use crate::{PersistTree, SnapshotArtifact};
    use dpc_core::{DpcAlgorithm, DpcModel, DpcParams, ExDpc};
    use dpc_geometry::Dataset;

    /// A snapshot artifact whose tree carries `ids` in place of its own, with
    /// valid checksums, so only the decoders' semantic checks can reject it.
    /// The tree sections are written as `write_tree_sections` writes them.
    fn snapshot_with_ids(model: &DpcModel, tree: &KdTree, ids: &[u32]) -> Vec<u8> {
        let mut writer = ArtifactWriter::new();
        write_model_sections(&mut writer, model);
        let mut meta = Vec::new();
        for count in [tree.dim(), ids.len(), tree.nodes().len()] {
            meta.put_u64(count as u64);
        }
        let mut id_bytes = Vec::new();
        id_bytes.put_u32_slice(ids);
        let mut coords = Vec::new();
        coords.put_f64_slice(tree.coords());
        let mut nodes = Vec::new();
        for node in tree.nodes() {
            nodes.put_u32_slice(&[node.start, node.end, node.right]);
        }
        let mut bounds = Vec::new();
        bounds.put_f64_slice(tree.bounds());
        writer
            .section(kind::TREE_META, meta)
            .section(kind::TREE_IDS, id_bytes)
            .section(kind::TREE_COORDS, coords)
            .section(kind::TREE_NODES, nodes)
            .section(kind::TREE_BOUNDS, bounds);
        let mut snap = Vec::new();
        snap.put_f64(1.0);
        snap.put_f64(2.0);
        writer.section(kind::SNAP_META, snap);
        writer.finish()
    }

    #[test]
    fn ids_that_are_not_a_permutation_are_corrupt() {
        let n = 64;
        let data = Dataset::from_flat(2, (0..2 * n).map(|i| ((i * 37) % 101) as f64).collect());
        let model = ExDpc::new(DpcParams::new(10.0)).fit(&data).unwrap();
        let tree = KdTree::build(&data);
        let ids = tree.ids();
        assert!(SnapshotArtifact::from_bytes(&snapshot_with_ids(&model, &tree, ids)).is_ok());

        let mut repeated = ids.to_vec();
        repeated[1] = repeated[0];
        let mut with_n = ids.to_vec();
        with_n[7] = n as u32;
        for bad in [repeated, with_n] {
            let bytes = snapshot_with_ids(&model, &tree, &bad);
            let tree_corrupt = |result: Result<(), DpcError>| {
                matches!(result, Err(DpcError::Corrupt { section: "tree", .. }))
            };
            assert!(tree_corrupt(KdTree::from_bytes(&bytes).map(drop)), "decode of {bad:?}");
            let snapshot = SnapshotArtifact::from_bytes(&bytes).map(drop);
            assert!(tree_corrupt(snapshot), "snapshot of {bad:?}");
        }
    }
}
