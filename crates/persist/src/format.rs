//! The artifact container: header, section table, checksums, and the
//! bounds-checked readers everything else is built on.
//!
//! An artifact is one contiguous byte buffer:
//!
//! ```text
//! offset  size  field
//! 0       8     magic  b"DPCARTF\0"
//! 8       4     format version (u32, currently 2)
//! 12      4     endianness tag (u32 0x0A0B0C0D, written native)
//! 16      4     section count (u32)
//! 20      4     reserved, must be zero
//! 24      8     file checksum: FNV-1a 64 over bytes[32..]
//! 32      32·k  section table: k entries of
//!                 {kind u32, reserved u32, offset u64, len u64, checksum u64}
//! ...           section payloads, each 8-byte aligned, in table order
//! ```
//!
//! All multi-byte values are **native-endian**; the endianness tag at offset
//! 12 turns a foreign-endian file into a typed error instead of garbage. The
//! file checksum covers everything after the checksum field itself (section
//! table and payloads); each section additionally carries its own checksum so
//! a decoder can name the damaged section. Every field the file checksum does
//! *not* cover — magic, version, tag, count, and the reserved word — is
//! validated explicitly, so no header byte is ignorable.
//!
//! `parse_sections` performs the full container validation and is the only
//! entry point: nothing downstream touches a payload byte the container has
//! not bounds-checked and checksummed first. It reads each byte once: it
//! checks the section table's structure before any payload, then makes one
//! pass over `bytes[32..]` that advances the file checksum throughout and a
//! section checksum inside each payload the table placed. FNV-1a is one
//! multiply per byte, a serial chain, so the two independent chains of that
//! pass cost about what one alone does.

use dpc_core::DpcError;

/// First eight bytes of every artifact.
pub const MAGIC: [u8; 8] = *b"DPCARTF\0";

/// Current on-disk format version. Bump on **any** layout change — the golden
/// files under `tests/golden/` pin the format in CI, so an unacknowledged
/// change fails the `format-stability` job.
pub const FORMAT_VERSION: u32 = 2;

/// Endianness probe value, written in native byte order. A reader on a
/// foreign-endian machine sees the byte-reversed value and reports a typed
/// error instead of decoding swapped floats.
pub const ENDIAN_TAG: u32 = 0x0A0B_0C0D;

/// Section-table entries per artifact are capped far above any real layout
/// (a snapshot uses 11); a count beyond this is corruption, not a big file.
const MAX_SECTIONS: usize = 64;

/// Bytes before the section table.
const FIXED_HEADER: usize = 32;

/// Bytes per section-table entry.
const TABLE_ENTRY: usize = 32;

/// Section kind identifiers. Values are part of the on-disk format; never
/// reuse a retired number. Retired in version 2, and reserved: 20 (the tree's
/// position map, now derived from the packed ids), 32 and 33 (the snapshot's
/// dataset metadata and coordinates, now rebuilt from the tree).
pub mod kind {
    /// Model metadata: `d_cut`, timings, index bytes, algorithm name.
    pub const MODEL_META: u32 = 1;
    /// Local densities `ρ`, `n` f64 values.
    pub const MODEL_RHO: u32 = 2;
    /// Dependent distances `δ`, `n` f64 values.
    pub const MODEL_DELTA: u32 = 3;
    /// Dependent point identifiers, `n` u64 values.
    pub const MODEL_DEPENDENT: u32 = 4;
    /// Decreasing-density order, `n` u64 values.
    pub const MODEL_ORDER: u32 = 5;
    /// Tree metadata: dimensionality, point and node counts.
    pub const TREE_META: u32 = 16;
    /// Packed point identifiers, `n` u32 values.
    pub const TREE_IDS: u32 = 17;
    /// Packed coordinate rows, `n·dim` f64 values.
    pub const TREE_COORDS: u32 = 18;
    /// Preorder node array, 12 bytes per node.
    pub const TREE_NODES: u32 = 19;
    /// Per-node bounding boxes, `2·dim` f64 values per node.
    pub const TREE_BOUNDS: u32 = 21;
    /// Snapshot metadata: the fit thresholds.
    pub const SNAP_META: u32 = 48;
}

/// FNV-1a 64's offset basis: the hash of no bytes.
const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a 64's prime.
const FNV_PRIME: u64 = 0x100_0000_01b3;

/// FNV-1a 64-bit over a byte slice — dependency-free, byte-order independent,
/// and plenty for integrity checking (corruption detection, not cryptography).
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(FNV_BASIS, |hash, &b| fnv1a_step(hash, b))
}

/// One FNV-1a step: the hash of the bytes so far followed by `b`.
fn fnv1a_step(hash: u64, b: u8) -> u64 {
    (hash ^ u64::from(b)).wrapping_mul(FNV_PRIME)
}

/// Decodes a section payload of `N`-byte native-endian elements into an
/// owned `Vec`, one `decode` (a `from_ne_bytes`) per element. It reads any
/// `&[u8]`, whatever its alignment; the only failure is a length that is not
/// a whole number of elements.
pub(crate) fn read_array<T, const N: usize>(
    bytes: &[u8],
    section: &'static str,
    decode: impl Fn([u8; N]) -> T,
) -> Result<Vec<T>, DpcError> {
    if bytes.len() % N != 0 {
        return Err(DpcError::Corrupt {
            section,
            what: "length is not a multiple of element size",
        });
    }
    let element = |chunk: &[u8]| decode(chunk.try_into().expect("chunks_exact yields N bytes"));
    Ok(bytes.chunks_exact(N).map(element).collect())
}

/// A section-table entry that passed the structural checks: its payload is
/// `bytes[offset..end]`, after the table and its predecessor, in bounds.
#[derive(Debug)]
struct Section {
    kind: u32,
    offset: usize,
    end: usize,
    checksum: u64,
}

/// The validated section table of one artifact. Obtained from
/// [`parse_sections`]; every payload it hands out has passed the container
/// bounds checks and both checksums.
#[derive(Debug)]
pub(crate) struct Sections<'a> {
    bytes: &'a [u8],
    sections: Vec<Section>,
}

impl<'a> Sections<'a> {
    /// The payload of the first section of `kind`, if present.
    pub(crate) fn get(&self, kind: u32) -> Option<&'a [u8]> {
        let bytes = self.bytes;
        self.sections.iter().find(|s| s.kind == kind).map(|s| &bytes[s.offset..s.end])
    }

    /// The payload of the section of `kind`, or a typed error naming the
    /// logical section (`name`) a decoder was looking for.
    pub(crate) fn require(&self, kind: u32, name: &'static str) -> Result<&'a [u8], DpcError> {
        self.get(kind).ok_or(DpcError::Corrupt { section: name, what: "required section missing" })
    }
}

/// Reads a native-endian scalar from a fixed header offset. Caller guarantees
/// the range is in bounds (the fixed header length is checked up front).
fn header_u32(bytes: &[u8], offset: usize) -> u32 {
    u32::from_ne_bytes(bytes[offset..offset + 4].try_into().unwrap())
}

fn header_u64(bytes: &[u8], offset: usize) -> u64 {
    u64::from_ne_bytes(bytes[offset..offset + 8].try_into().unwrap())
}

/// Validates the whole container — magic, version, endianness, reserved
/// fields, file checksum, then every section-table entry (alignment, bounds,
/// ordering, duplicate kinds, per-section checksum) — and returns the
/// validated table. Fully bounds-checked: no byte beyond `bytes.len()` is
/// ever addressed, and no payload is exposed before its checksum passes.
///
/// The errors come in that order whatever fails: a file checksum mismatch
/// first, then a section checksum mismatch among the entries before the
/// first structurally invalid one, then that entry's error, then bytes after
/// the last section.
pub(crate) fn parse_sections(bytes: &[u8]) -> Result<Sections<'_>, DpcError> {
    if bytes.len() < FIXED_HEADER {
        return Err(DpcError::TruncatedArtifact { needed: FIXED_HEADER, have: bytes.len() });
    }
    if bytes[..8] != MAGIC {
        return Err(DpcError::Corrupt { section: "header", what: "bad magic" });
    }
    let version = header_u32(bytes, 8);
    if version != FORMAT_VERSION {
        return Err(DpcError::Corrupt { section: "header", what: "unsupported format version" });
    }
    let tag = header_u32(bytes, 12);
    if tag == ENDIAN_TAG.swap_bytes() {
        return Err(DpcError::Corrupt { section: "header", what: "foreign endianness" });
    }
    if tag != ENDIAN_TAG {
        return Err(DpcError::Corrupt { section: "header", what: "bad endianness tag" });
    }
    let count = header_u32(bytes, 16) as usize;
    if count > MAX_SECTIONS {
        return Err(DpcError::Corrupt { section: "header", what: "section count exceeds maximum" });
    }
    if header_u32(bytes, 20) != 0 {
        return Err(DpcError::Corrupt { section: "header", what: "nonzero reserved field" });
    }
    let table_end = FIXED_HEADER + count * TABLE_ENTRY;
    if bytes.len() < table_end {
        return Err(DpcError::TruncatedArtifact { needed: table_end, have: bytes.len() });
    }
    let mut sections = Vec::with_capacity(count);
    let structural = place_sections(bytes, count, table_end, &mut sections).err();

    // One pass over everything the file checksum covers, hashing each placed
    // payload for its own checksum on the way.
    let mut file = FNV_BASIS;
    let mut cursor = FIXED_HEADER;
    let mut section_mismatch = false;
    for section in &sections {
        file = bytes[cursor..section.offset].iter().fold(file, |hash, &b| fnv1a_step(hash, b));
        let (state, payload) = bytes[section.offset..section.end]
            .iter()
            .fold((file, FNV_BASIS), |(f, p), &b| (fnv1a_step(f, b), fnv1a_step(p, b)));
        file = state;
        section_mismatch |= payload != section.checksum;
        cursor = section.end;
    }
    file = bytes[cursor..].iter().fold(file, |hash, &b| fnv1a_step(hash, b));
    if header_u64(bytes, 24) != file {
        return Err(DpcError::Corrupt { section: "header", what: "file checksum mismatch" });
    }
    if section_mismatch {
        return Err(DpcError::Corrupt {
            section: "section table",
            what: "section checksum mismatch",
        });
    }
    if let Some(error) = structural {
        return Err(error);
    }
    // The last section must reach the end of the buffer: the section count
    // sits in the fixed header *outside* the whole-file checksum range, so
    // without this check a corrupted (smaller) count could silently drop
    // trailing sections while the leading ones still decode.
    if cursor != bytes.len() {
        return Err(DpcError::Corrupt {
            section: "section table",
            what: "unclaimed bytes after the last section",
        });
    }
    Ok(Sections { bytes, sections })
}

/// The structural checks of the section table, entry by entry, without
/// reading a payload byte: pushes each entry that passes to `sections` and
/// stops at the first that does not, returning its error.
fn place_sections(
    bytes: &[u8],
    count: usize,
    table_end: usize,
    sections: &mut Vec<Section>,
) -> Result<(), DpcError> {
    let mut previous_end = table_end;
    for i in 0..count {
        let entry = FIXED_HEADER + i * TABLE_ENTRY;
        let kind = header_u32(bytes, entry);
        if header_u32(bytes, entry + 4) != 0 {
            return Err(DpcError::Corrupt {
                section: "section table",
                what: "nonzero reserved field",
            });
        }
        let offset = header_u64(bytes, entry + 8);
        let len = header_u64(bytes, entry + 16);
        let checksum = header_u64(bytes, entry + 24);
        let offset = usize::try_from(offset).map_err(|_| DpcError::Corrupt {
            section: "section table",
            what: "section offset exceeds address space",
        })?;
        let len = usize::try_from(len).map_err(|_| DpcError::Corrupt {
            section: "section table",
            what: "section length exceeds address space",
        })?;
        if offset % 8 != 0 {
            return Err(DpcError::Corrupt { section: "section table", what: "misaligned section" });
        }
        // Sections must appear in table order, after the table, without
        // overlaps — a canonical placement, so there is exactly one valid
        // table for a given payload set.
        if offset < previous_end {
            return Err(DpcError::Corrupt {
                section: "section table",
                what: "section overlaps its predecessor",
            });
        }
        let end = offset.checked_add(len).ok_or(DpcError::Corrupt {
            section: "section table",
            what: "section range overflows",
        })?;
        if end > bytes.len() {
            return Err(DpcError::TruncatedArtifact { needed: end, have: bytes.len() });
        }
        if sections.iter().any(|s| s.kind == kind) {
            return Err(DpcError::Corrupt { section: "section table", what: "duplicate section" });
        }
        sections.push(Section { kind, offset, end, checksum });
        previous_end = end;
    }
    Ok(())
}

/// Assembles an artifact from `(kind, payload)` pairs: lays the payloads out
/// 8-aligned in order, fills the section table, and stamps both checksum
/// levels. The inverse of [`parse_sections`] — `parse_sections(&finish())`
/// always succeeds and hands back the same payload bytes.
pub(crate) struct ArtifactWriter {
    sections: Vec<(u32, Vec<u8>)>,
}

impl ArtifactWriter {
    pub(crate) fn new() -> Self {
        Self { sections: Vec::new() }
    }

    /// Appends one section. Panics (in debug) on a duplicate kind — layouts
    /// are static, so a duplicate is a programming error, not input data.
    pub(crate) fn section(&mut self, kind: u32, payload: Vec<u8>) -> &mut Self {
        debug_assert!(
            self.sections.iter().all(|(k, _)| *k != kind),
            "duplicate section kind {kind}"
        );
        self.sections.push((kind, payload));
        self
    }

    pub(crate) fn finish(self) -> Vec<u8> {
        let count = self.sections.len();
        assert!(count <= MAX_SECTIONS, "artifact layout exceeds MAX_SECTIONS");
        let table_end = FIXED_HEADER + count * TABLE_ENTRY;
        let mut total = table_end;
        let mut offsets = Vec::with_capacity(count);
        for (_, payload) in &self.sections {
            total = (total + 7) & !7; // 8-align every payload
            offsets.push(total);
            total += payload.len();
        }
        let mut out = vec![0u8; total];
        out[..8].copy_from_slice(&MAGIC);
        out[8..12].copy_from_slice(&FORMAT_VERSION.to_ne_bytes());
        out[12..16].copy_from_slice(&ENDIAN_TAG.to_ne_bytes());
        out[16..20].copy_from_slice(&(count as u32).to_ne_bytes());
        // bytes 20..24 stay zero (reserved); 24..32 receive the file checksum.
        for (i, ((kind, payload), offset)) in std::iter::zip(&self.sections, &offsets).enumerate() {
            let entry = FIXED_HEADER + i * TABLE_ENTRY;
            out[entry..entry + 4].copy_from_slice(&kind.to_ne_bytes());
            out[entry + 8..entry + 16].copy_from_slice(&(*offset as u64).to_ne_bytes());
            out[entry + 16..entry + 24].copy_from_slice(&(payload.len() as u64).to_ne_bytes());
            out[entry + 24..entry + 32].copy_from_slice(&fnv1a(payload).to_ne_bytes());
            out[*offset..*offset + payload.len()].copy_from_slice(payload);
        }
        let file_sum = fnv1a(&out[FIXED_HEADER..]);
        out[24..32].copy_from_slice(&file_sum.to_ne_bytes());
        out
    }
}

/// Appends native-endian scalars to a section payload under construction.
pub(crate) trait PayloadExt {
    fn put_u64(&mut self, v: u64);
    fn put_f64(&mut self, v: f64);
    fn put_u64_slice_from_usize(&mut self, v: &[usize]);
    fn put_f64_slice(&mut self, v: &[f64]);
    fn put_u32_slice(&mut self, v: &[u32]);
}

impl PayloadExt for Vec<u8> {
    fn put_u64(&mut self, v: u64) {
        self.extend_from_slice(&v.to_ne_bytes());
    }

    fn put_f64(&mut self, v: f64) {
        self.extend_from_slice(&v.to_ne_bytes());
    }

    fn put_u64_slice_from_usize(&mut self, v: &[usize]) {
        self.reserve(v.len() * 8);
        for &x in v {
            self.put_u64(x as u64);
        }
    }

    fn put_f64_slice(&mut self, v: &[f64]) {
        self.reserve(v.len() * 8);
        for &x in v {
            self.put_f64(x);
        }
    }

    fn put_u32_slice(&mut self, v: &[u32]) {
        self.reserve(v.len() * 4);
        for &x in v {
            self.extend_from_slice(&x.to_ne_bytes());
        }
    }
}

/// Sequential bounds-checked reader over one section's payload, for the small
/// metadata sections. Every read that would pass the end is a typed error;
/// [`Cursor::finish`] additionally rejects trailing bytes, so a metadata
/// section parses to exactly one value set or not at all.
pub(crate) struct Cursor<'a> {
    bytes: &'a [u8],
    section: &'static str,
}

impl<'a> Cursor<'a> {
    pub(crate) fn new(bytes: &'a [u8], section: &'static str) -> Self {
        Self { bytes, section }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], DpcError> {
        if self.bytes.len() < n {
            return Err(DpcError::Corrupt { section: self.section, what: "metadata truncated" });
        }
        let (head, tail) = self.bytes.split_at(n);
        self.bytes = tail;
        Ok(head)
    }

    pub(crate) fn read_u64(&mut self) -> Result<u64, DpcError> {
        Ok(u64::from_ne_bytes(self.take(8)?.try_into().unwrap()))
    }

    pub(crate) fn read_f64(&mut self) -> Result<f64, DpcError> {
        Ok(f64::from_ne_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads a u64 that must fit a `usize` (a count or byte size).
    pub(crate) fn read_len(&mut self) -> Result<usize, DpcError> {
        usize::try_from(self.read_u64()?).map_err(|_| DpcError::Corrupt {
            section: self.section,
            what: "length exceeds address space",
        })
    }

    pub(crate) fn read_bytes(&mut self, n: usize) -> Result<&'a [u8], DpcError> {
        self.take(n)
    }

    pub(crate) fn finish(self) -> Result<(), DpcError> {
        if self.bytes.is_empty() {
            Ok(())
        } else {
            Err(DpcError::Corrupt { section: self.section, what: "trailing metadata bytes" })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_known_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn writer_round_trips_through_parser() {
        let mut w = ArtifactWriter::new();
        w.section(kind::MODEL_RHO, vec![1, 2, 3]); // deliberately unaligned length
        w.section(kind::MODEL_DELTA, Vec::new()); // empty section is legal
        w.section(kind::MODEL_ORDER, vec![9; 40]);
        let bytes = w.finish();
        let sections = parse_sections(&bytes).unwrap();
        assert_eq!(sections.get(kind::MODEL_RHO), Some(&[1u8, 2, 3][..]));
        assert_eq!(sections.get(kind::MODEL_DELTA), Some(&[][..]));
        assert_eq!(sections.get(kind::MODEL_ORDER), Some(&[9u8; 40][..]));
        assert_eq!(sections.get(kind::MODEL_META), None);
        assert!(sections.require(kind::MODEL_META, "model").is_err());
    }

    #[test]
    fn empty_artifact_parses() {
        let bytes = ArtifactWriter::new().finish();
        assert_eq!(bytes.len(), FIXED_HEADER);
        assert!(parse_sections(&bytes).unwrap().sections.is_empty());
    }

    #[test]
    fn read_array_decodes_any_alignment_bit_for_bit() {
        let mut w = ArtifactWriter::new();
        let mut payload = Vec::new();
        payload.put_f64_slice(&[1.0, -0.0, f64::MIN_POSITIVE / 2.0]);
        w.section(kind::MODEL_RHO, payload);
        let bytes = w.finish();
        let sections = parse_sections(&bytes).unwrap();
        let aligned =
            read_array(sections.get(kind::MODEL_RHO).unwrap(), "rho", f64::from_ne_bytes).unwrap();
        assert_eq!(aligned[1].to_bits(), (-0.0f64).to_bits());

        // Shift the whole buffer by one byte: same bytes, misaligned base.
        let mut shifted = vec![0u8; bytes.len() + 1];
        shifted[1..].copy_from_slice(&bytes);
        let sections = parse_sections(&shifted[1..]).unwrap();
        let decoded =
            read_array(sections.get(kind::MODEL_RHO).unwrap(), "rho", f64::from_ne_bytes).unwrap();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&decoded), bits(&aligned));
    }

    #[test]
    fn read_array_rejects_ragged_lengths() {
        let err = read_array(&[0u8; 12], "rho", u64::from_ne_bytes).unwrap_err();
        assert!(matches!(err, DpcError::Corrupt { section: "rho", .. }), "{err:?}");
    }

    #[test]
    fn header_tampering_is_detected() {
        let mut w = ArtifactWriter::new();
        w.section(kind::MODEL_RHO, vec![7; 16]);
        let good = w.finish();

        let mut bad = good.clone();
        bad[0] ^= 0x40; // magic
        assert!(matches!(
            parse_sections(&bad).unwrap_err(),
            DpcError::Corrupt { section: "header", what: "bad magic" }
        ));

        let mut bad = good.clone();
        bad[8] = 0xFF; // version
        assert!(matches!(
            parse_sections(&bad).unwrap_err(),
            DpcError::Corrupt { what: "unsupported format version", .. }
        ));

        let mut bad = good.clone();
        bad[12..16].copy_from_slice(&ENDIAN_TAG.swap_bytes().to_ne_bytes());
        assert!(matches!(
            parse_sections(&bad).unwrap_err(),
            DpcError::Corrupt { what: "foreign endianness", .. }
        ));

        let mut bad = good.clone();
        bad[21] = 1; // reserved header word: not covered by the file checksum,
                     // so its own validation is the only thing catching this.
        assert!(matches!(
            parse_sections(&bad).unwrap_err(),
            DpcError::Corrupt { what: "nonzero reserved field", .. }
        ));

        let mut bad = good.clone();
        bad[25] ^= 1; // stored file checksum
        assert!(matches!(
            parse_sections(&bad).unwrap_err(),
            DpcError::Corrupt { what: "file checksum mismatch", .. }
        ));

        let mut bad = good.clone();
        *bad.last_mut().unwrap() ^= 1; // payload byte → file checksum first
        assert!(matches!(
            parse_sections(&bad).unwrap_err(),
            DpcError::Corrupt { what: "file checksum mismatch", .. }
        ));

        // A forged file: the payload byte flipped and the file checksum
        // rewritten over it. Only the section's own checksum catches it.
        let file_sum = fnv1a(&bad[FIXED_HEADER..]);
        bad[24..32].copy_from_slice(&file_sum.to_ne_bytes());
        assert!(matches!(
            parse_sections(&bad).unwrap_err(),
            DpcError::Corrupt { section: "section table", what: "section checksum mismatch" }
        ));

        // Truncations at every prefix length must be typed errors, not panics.
        for cut in 0..good.len() {
            let err = parse_sections(&good[..cut]).unwrap_err();
            assert!(
                matches!(err, DpcError::TruncatedArtifact { .. } | DpcError::Corrupt { .. }),
                "cut {cut}: {err:?}"
            );
        }
    }

    #[test]
    fn cursor_reads_exactly() {
        let mut payload = Vec::new();
        payload.put_u64(42);
        payload.put_f64(-1.5);
        let mut c = Cursor::new(&payload, "meta");
        assert_eq!(c.read_u64().unwrap(), 42);
        assert_eq!(c.read_f64().unwrap(), -1.5);
        assert!(c.read_u64().is_err()); // past the end
                                        // Trailing bytes are rejected.
        let c = Cursor::new(&payload, "meta");
        assert!(matches!(
            c.finish().unwrap_err(),
            DpcError::Corrupt { what: "trailing metadata bytes", .. }
        ));
    }
}
