//! Model persistence: encoding a [`DpcModel`] into artifact sections and
//! decoding it back.

use dpc_core::{DpcError, DpcModel, Timings};

use crate::format::{kind, read_array, ArtifactWriter, Cursor, PayloadExt, Sections};

/// Algorithm names a decoded artifact is expected to carry. [`DpcModel`]
/// stores its algorithm as `&'static str`, so loading interns against this
/// list; an unknown (but checksummed and UTF-8 valid) name falls back to a
/// one-time `Box::leak` — bounded by the number of *distinct* unknown names
/// ever loaded, which for any real deployment is zero.
static KNOWN_ALGORITHMS: &[&str] =
    &["Ex-DPC", "Approx-DPC", "S-Approx-DPC", "CFSFDP-A", "LSH-DDP", "R-tree + Scan", "Scan"];

fn intern_algorithm(name: &str) -> &'static str {
    match KNOWN_ALGORITHMS.iter().find(|&&known| known == name) {
        Some(&known) => known,
        None => Box::leak(name.to_owned().into_boxed_str()),
    }
}

/// Appends the five model sections to an artifact under construction. Shared
/// by the standalone model artifact and the combined snapshot artifact.
pub(crate) fn write_model_sections(writer: &mut ArtifactWriter, model: &DpcModel) {
    let timings = model.fit_timings();
    let mut meta = Vec::new();
    meta.put_f64(model.dcut());
    meta.put_u64(model.n() as u64);
    meta.put_u64(model.index_bytes() as u64);
    meta.put_f64(timings.rho_secs);
    meta.put_f64(timings.delta_secs);
    meta.put_f64(timings.assign_secs);
    let name = model.algorithm().as_bytes();
    meta.put_u64(name.len() as u64);
    meta.extend_from_slice(name);
    writer.section(kind::MODEL_META, meta);

    let mut rho = Vec::new();
    rho.put_f64_slice(model.rho());
    writer.section(kind::MODEL_RHO, rho);
    let mut delta = Vec::new();
    delta.put_f64_slice(model.delta());
    writer.section(kind::MODEL_DELTA, delta);
    let mut dependent = Vec::new();
    dependent.put_u64_slice_from_usize(model.dependent());
    writer.section(kind::MODEL_DEPENDENT, dependent);
    let mut order = Vec::new();
    order.put_u64_slice_from_usize(model.density_order());
    writer.section(kind::MODEL_ORDER, order);
}

/// Decodes the model sections of a validated section table into an owned
/// [`DpcModel`]. The metadata's point count must match every per-point
/// array; [`DpcModel::from_saved_parts`] then checks the rest (dependent ids
/// in range, the order a permutation visiting non-increasing densities).
pub(crate) fn read_model(sections: &Sections<'_>) -> Result<DpcModel, DpcError> {
    let corrupt = |what: &'static str| DpcError::Corrupt { section: "model", what };
    let mut meta = Cursor::new(sections.require(kind::MODEL_META, "model")?, "model");
    let dcut = meta.read_f64()?;
    let n = meta.read_len()?;
    let index_bytes = meta.read_len()?;
    let timings = Timings {
        rho_secs: meta.read_f64()?,
        delta_secs: meta.read_f64()?,
        assign_secs: meta.read_f64()?,
    };
    let name_len = meta.read_len()?;
    let name = meta.read_bytes(name_len)?;
    meta.finish()?;
    let algorithm = std::str::from_utf8(name).map_err(|_| corrupt("algorithm name not UTF-8"))?;

    let floats = |kind| read_array(sections.require(kind, "model")?, "model", f64::from_ne_bytes);
    // An id beyond the address space saturates, and `from_saved_parts`
    // rejects it as out of range.
    let ids = |kind| {
        read_array(sections.require(kind, "model")?, "model", |bytes| {
            usize::try_from(u64::from_ne_bytes(bytes)).unwrap_or(usize::MAX)
        })
    };
    let rho = floats(kind::MODEL_RHO)?;
    let delta = floats(kind::MODEL_DELTA)?;
    let dependent = ids(kind::MODEL_DEPENDENT)?;
    let order = ids(kind::MODEL_ORDER)?;
    if rho.len() != n || delta.len() != n || dependent.len() != n || order.len() != n {
        return Err(corrupt("per-point array length disagrees with metadata"));
    }
    DpcModel::from_saved_parts(
        intern_algorithm(algorithm),
        dcut,
        rho,
        delta,
        dependent,
        order,
        timings,
        index_bytes,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_returns_static_known_names() {
        assert_eq!(intern_algorithm("Ex-DPC"), "Ex-DPC");
        // Pointer-identical to the interned constant, not a new allocation.
        assert!(std::ptr::eq(intern_algorithm("Approx-DPC"), KNOWN_ALGORITHMS[1]));
        // Unknown names still work (leaked once).
        assert_eq!(intern_algorithm("Custom-DPC"), "Custom-DPC");
    }
}
