//! Kd-tree persistence: encoding the packed storage into artifact sections,
//! and the zero-copy [`KdTreeRef`] view that can answer range/NN queries
//! straight off the artifact bytes.

use std::borrow::Cow;

use dpc_core::DpcError;
use dpc_index::{canonical_node_layout, position_map, KdTree, PackedNode, PackedParts};

use crate::format::{kind, view_slice, ArtifactWriter, Cursor, PayloadExt, Sections};

/// Appends the sections of a tree's packed storage to an artifact under
/// construction. Shared by the standalone tree artifact and the combined
/// snapshot artifact. The position map is not written: decoders derive it.
pub(crate) fn write_tree_sections(writer: &mut ArtifactWriter, parts: &PackedParts<'_>) {
    let mut meta = Vec::new();
    meta.put_u64(parts.dim as u64);
    meta.put_u64(parts.ids.len() as u64);
    meta.put_u64(parts.nodes.len() as u64);
    writer.section(kind::TREE_META, meta);

    let mut ids = Vec::new();
    ids.put_u32_slice(parts.ids);
    writer.section(kind::TREE_IDS, ids);
    let mut coords = Vec::new();
    coords.put_f64_slice(parts.coords);
    writer.section(kind::TREE_COORDS, coords);
    let mut nodes = Vec::new();
    for node in parts.nodes {
        nodes.put_u32_slice(&[node.start, node.end, node.right]);
    }
    writer.section(kind::TREE_NODES, nodes);
    let mut bounds = Vec::new();
    bounds.put_f64_slice(parts.bounds);
    writer.section(kind::TREE_BOUNDS, bounds);
}

/// A zero-copy view of a persisted packed kd-tree. Parsing validates enough
/// structure to make every query panic-free — most importantly that the node
/// array equals the canonical layout for the point count, which bounds
/// traversal depth and every packed range — and the view then answers
/// [`range_count`](KdTreeRef::range_count) /
/// [`range_search_into`](KdTreeRef::range_search_into) /
/// [`nearest_neighbor`](KdTreeRef::nearest_neighbor) directly over the
/// artifact bytes through the same [`PackedParts`] algorithms the owned tree
/// uses. No dataset is needed: the packed coordinate rows are part of the
/// artifact, and parsing derives the position map from the packed ids, which
/// must be a permutation of `0..n`.
///
/// Buffers borrow from the input whenever their sections sit suitably aligned
/// in memory (guaranteed by the writer for any buffer that itself starts
/// 8-aligned — every `Vec<u8>` read from disk); a misaligned input slice pays
/// a documented copy fallback instead of failing
/// ([`KdTreeRef::is_zero_copy`] tells which path was taken).
///
/// Materialising an owned [`KdTree`] with [`KdTreeRef::to_tree`] re-runs the
/// exhaustive validation of [`KdTree::from_packed_parts`] (bounding boxes
/// included), so the result is `layout_eq` to the tree that was persisted.
pub struct KdTreeRef<'a> {
    dim: usize,
    ids: Cow<'a, [u32]>,
    coords: Cow<'a, [f64]>,
    /// Derived at parse time; not part of the artifact.
    pos: Vec<u32>,
    nodes: Cow<'a, [PackedNode]>,
    bounds: Cow<'a, [f64]>,
}

impl<'a> KdTreeRef<'a> {
    /// Parses the tree sections out of a validated section table.
    pub(crate) fn from_sections(sections: &Sections<'a>) -> Result<Self, DpcError> {
        let corrupt = |what: &'static str| DpcError::Corrupt { section: "tree", what };
        let mut meta = Cursor::new(sections.require(kind::TREE_META, "tree")?, "tree");
        let dim = meta.read_len()?;
        let n = meta.read_len()?;
        let node_count = meta.read_len()?;
        meta.finish()?;
        if dim == 0 {
            return Err(corrupt("zero dimensionality"));
        }

        let ids = view_slice::<u32>(sections.require(kind::TREE_IDS, "tree")?, "tree")?;
        let coords = view_slice::<f64>(sections.require(kind::TREE_COORDS, "tree")?, "tree")?;
        let nodes = view_slice::<PackedNode>(sections.require(kind::TREE_NODES, "tree")?, "tree")?;
        let bounds = view_slice::<f64>(sections.require(kind::TREE_BOUNDS, "tree")?, "tree")?;
        if ids.len() != n {
            return Err(corrupt("id count disagrees with metadata"));
        }
        let coord_len = n.checked_mul(dim).ok_or_else(|| corrupt("point count overflows"))?;
        if coords.len() != coord_len {
            return Err(corrupt("coordinate buffer length disagrees with metadata"));
        }
        if nodes.len() != node_count {
            return Err(corrupt("node count disagrees with metadata"));
        }
        // The canonical-shape comparison is the load-bearing check: it pins
        // every node's packed range inside `0..n`, every right-child index
        // inside the array, and the exact balanced shape whose depth the
        // fixed traversal stacks are sized for.
        if *nodes != canonical_node_layout(n) {
            return Err(corrupt("node array is not the canonical layout for the point count"));
        }
        if bounds.len() != node_count * 2 * dim {
            return Err(corrupt("bounds buffer length disagrees with metadata"));
        }
        // Every tree indexes exactly the points `0..n`: the ids must be a
        // permutation, whose inverse is the position map the exclusion test
        // reads and the row order a snapshot rebuilds its dataset in.
        let pos = position_map(&ids).map_err(corrupt)?;
        Ok(Self { dim, ids, coords, pos, nodes, bounds })
    }

    /// Number of points in the tree.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the tree holds no points.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Point dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Whether every persisted buffer of this view borrows from the artifact
    /// bytes (see the type-level docs for when the copy fallback triggers).
    /// The derived position map is always owned.
    pub fn is_zero_copy(&self) -> bool {
        matches!(self.ids, Cow::Borrowed(_))
            && matches!(self.coords, Cow::Borrowed(_))
            && matches!(self.nodes, Cow::Borrowed(_))
            && matches!(self.bounds, Cow::Borrowed(_))
    }

    /// The borrowed query view over this storage — the same [`PackedParts`]
    /// the owned tree queries through.
    pub fn packed_parts(&self) -> PackedParts<'_> {
        PackedParts {
            dim: self.dim,
            ids: &self.ids,
            coords: &self.coords,
            pos: &self.pos,
            nodes: &self.nodes,
            bounds: &self.bounds,
        }
    }

    /// Counts points within the closed ball, straight off the artifact bytes.
    /// See `KdTree::range_count`.
    pub fn range_count(&self, query: &[f64], radius: f64, exclude: Option<usize>) -> usize {
        self.packed_parts().range_count(query, radius, exclude)
    }

    /// Reports points within the closed ball into `out` (cleared first),
    /// straight off the artifact bytes. See `KdTree::range_search_into`.
    pub fn range_search_into(&self, query: &[f64], radius: f64, out: &mut Vec<usize>) {
        self.packed_parts().range_search_into(query, radius, out);
    }

    /// Nearest indexed neighbour of `query`, straight off the artifact bytes.
    /// See `KdTree::nearest_neighbor`.
    pub fn nearest_neighbor(&self, query: &[f64], exclude: Option<usize>) -> Option<(usize, f64)> {
        self.packed_parts().nearest_neighbor(query, exclude)
    }

    /// Materialises an owned [`KdTree`] through the exhaustively validating
    /// [`KdTree::from_packed_parts`], which also checks every node's bounding
    /// box against its packed rows.
    pub fn to_tree(&self) -> Result<KdTree, DpcError> {
        KdTree::from_packed_parts(
            self.dim,
            self.ids.to_vec(),
            self.coords.to_vec(),
            self.nodes.to_vec(),
            self.bounds.to_vec(),
        )
        .map_err(|what| DpcError::Corrupt { section: "tree", what })
    }
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
    fn snapshot_with_ids(model: &DpcModel, tree: &KdTree, ids: &[u32]) -> Vec<u8> {
        let mut writer = ArtifactWriter::new();
        write_model_sections(&mut writer, model);
        write_tree_sections(&mut writer, &PackedParts { ids, ..tree.packed_parts() });
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
        let ids = tree.packed_parts().ids;
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
            assert!(tree_corrupt(KdTree::view(&bytes).map(drop)), "view of {bad:?}");
            assert!(tree_corrupt(KdTree::from_bytes(&bytes).map(drop)), "decode of {bad:?}");
            let snapshot = SnapshotArtifact::from_bytes(&bytes).map(drop);
            assert!(tree_corrupt(snapshot), "snapshot of {bad:?}");
        }
    }
}
