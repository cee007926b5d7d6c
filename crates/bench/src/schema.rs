//! Validation of the `BENCH_*.json` perf-trajectory files against the schema
//! documented in `crates/bench/README.md`.
//!
//! The container has no serde, so this module carries a minimal recursive-
//! descent JSON parser (objects, arrays, strings, numbers, booleans, null —
//! enough for any well-formed JSON document) plus the schema rules. The bench
//! binaries call [`check_file`] under their `--check` flag, which is what CI's
//! bench-trajectory matrix runs: a schema drift or a missing kernel makes the
//! binary exit non-zero and fails the job.

use std::path::Path;

use crate::micro::BenchRecord;

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    /// Key/value pairs in document order (duplicate keys are rejected later).
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn type_name(&self) -> &'static str {
        match self {
            Json::Null => "null",
            Json::Bool(_) => "boolean",
            Json::Num(_) => "number",
            Json::Str(_) => "string",
            Json::Arr(_) => "array",
            Json::Obj(_) => "object",
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Self {
        Self { bytes: text.as_bytes(), pos: 0 }
    }

    fn error(&self, msg: &str) -> String {
        format!("JSON parse error at byte {}: {msg}", self.pos)
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected '{}'", b as char)))
        }
    }

    fn parse_document(&mut self) -> Result<Json, String> {
        self.skip_ws();
        let value = self.parse_value()?;
        self.skip_ws();
        if self.pos != self.bytes.len() {
            return Err(self.error("trailing content after the top-level value"));
        }
        Ok(value)
    }

    fn parse_value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.parse_object(),
            Some(b'[') => self.parse_array(),
            Some(b'"') => Ok(Json::Str(self.parse_string()?)),
            Some(b't') => self.parse_literal("true", Json::Bool(true)),
            Some(b'f') => self.parse_literal("false", Json::Bool(false)),
            Some(b'n') => self.parse_literal("null", Json::Null),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.parse_number(),
            Some(b) => Err(self.error(&format!("unexpected byte '{}'", b as char))),
            None => Err(self.error("unexpected end of input")),
        }
    }

    fn parse_literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.error(&format!("expected '{word}'")))
        }
    }

    fn parse_object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(entries));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.parse_value()?;
            entries.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(entries));
                }
                _ => return Err(self.error("expected ',' or '}' in object")),
            }
        }
    }

    fn parse_array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.error("expected ',' or ']' in array")),
            }
        }
    }

    fn parse_string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| self.error("truncated \\u escape"))?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| self.error("non-ASCII \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.error("invalid \\u escape"))?;
                            // Surrogate pairs don't occur in bench labels;
                            // reject them rather than mis-decode.
                            let c = char::from_u32(code)
                                .ok_or_else(|| self.error("\\u escape is not a scalar value"))?;
                            out.push(c);
                            self.pos += 4;
                        }
                        _ => return Err(self.error("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(b) if b < 0x20 => return Err(self.error("raw control byte in string")),
                Some(_) => {
                    // Multi-byte UTF-8 sequences pass through unchanged.
                    let start = self.pos;
                    self.pos += 1;
                    while self.pos < self.bytes.len() && self.bytes[self.pos] & 0xC0 == 0x80 {
                        self.pos += 1;
                    }
                    let chunk = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| self.error("invalid UTF-8 in string"))?;
                    out.push_str(chunk);
                }
            }
        }
    }

    fn parse_number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b) if b.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b) if b.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e') | Some(b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b) if b.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ASCII number");
        text.parse::<f64>().map(Json::Num).map_err(|_| self.error("invalid number"))
    }
}

/// The kernels every `BENCH_*.json` producer must emit, shared by the bench
/// binaries' `--check` mode and the test that validates the committed files
/// at the repo root — so a bench refactor cannot drop a tracked kernel from
/// one place without the other noticing.
pub mod required {
    /// `BENCH_kdtree.json` (`benches/kd_tree.rs`).
    pub const KD_TREE: &[&str] = &[
        "packed_build_2d",
        "packed_build_parallel_2d",
        "packed_build_serial_xl",
        "packed_build_parallel_xl",
        "packed_range_count_2d",
        "packed_range_search_2d",
        "batch_count_scalar_2d",
        "batch_count_fixed_2d",
        "batch_search_2d",
        "batch_count_scalar_4d",
        "batch_count_fixed_4d",
    ];
    /// `BENCH_grid_build.json` (`benches/grid_build.rs`).
    pub const GRID_BUILD: &[&str] = &[
        "grid_build_serial",
        "grid_build_serial_blobs",
        "per_point_range_searches",
        "joint_range_search_per_cell",
    ];
    /// `BENCH_local_density.json` (`benches/local_density.rs`).
    pub const LOCAL_DENSITY: &[&str] = &[
        "build",
        "build_parallel",
        "rtree",
        "exdpc_packed_kdtree",
        "build_grid",
        "rho_selfjoin_serial",
        "rho_selfjoin_parallel",
        "exdpc_packed_kdtree_xl",
        "rho_selfjoin_serial_xl",
        "rho_selfjoin_parallel_xl",
    ];
    /// `BENCH_dependent_point.json` (`benches/dependent_point.rs`). The
    /// Scan baseline's `scan_early_termination` is only timed at small `n`,
    /// so it is not required.
    pub const DEPENDENT_POINT: &[&str] = &[
        "nearest_denser_id_order",
        "nearest_denser_packed_order",
        "nearest_denser_at_packed_order",
        "exdpc_dependent_points_serial",
        "exdpc_dependent_points_parallel",
    ];
    /// `BENCH_e2e.json` (`benches/end_to_end.rs`).
    pub const END_TO_END: &[&str] = &[
        "build",
        "build_parallel",
        "fit_extract_ex_dpc",
        "fit_extract_approx_dpc",
        "fit_extract_s_approx_dpc",
        "extract_only",
    ];
    /// `BENCH_serve.json` (`benches/serve.rs`): three healthy workloads ×
    /// worker counts {1, 4, 8}, each with a throughput kernel (`min`/`mean`
    /// of the per-repetition batch wall-clock) plus nearest-rank p50/p99
    /// per-request latency kernels; then the fault-injected mixed workload at
    /// the same worker counts, plus three dimensionless rate kernels (shed /
    /// timeout / degraded fractions in [0, 1], stored as `min = mean`). The
    /// worker counts are part of the kernel identity — `--threads` only
    /// resizes the background refit executor, so every run emits the same
    /// 39 kernels.
    pub const SERVE: &[&str] = &[
        "serve_relabel_heavy_t1",
        "serve_relabel_heavy_t1_p50",
        "serve_relabel_heavy_t1_p99",
        "serve_relabel_heavy_t4",
        "serve_relabel_heavy_t4_p50",
        "serve_relabel_heavy_t4_p99",
        "serve_relabel_heavy_t8",
        "serve_relabel_heavy_t8_p50",
        "serve_relabel_heavy_t8_p99",
        "serve_assign_heavy_t1",
        "serve_assign_heavy_t1_p50",
        "serve_assign_heavy_t1_p99",
        "serve_assign_heavy_t4",
        "serve_assign_heavy_t4_p50",
        "serve_assign_heavy_t4_p99",
        "serve_assign_heavy_t8",
        "serve_assign_heavy_t8_p50",
        "serve_assign_heavy_t8_p99",
        "serve_mixed_t1",
        "serve_mixed_t1_p50",
        "serve_mixed_t1_p99",
        "serve_mixed_t4",
        "serve_mixed_t4_p50",
        "serve_mixed_t4_p99",
        "serve_mixed_t8",
        "serve_mixed_t8_p50",
        "serve_mixed_t8_p99",
        "serve_faulty_mixed_t1",
        "serve_faulty_mixed_t1_p50",
        "serve_faulty_mixed_t1_p99",
        "serve_faulty_mixed_t4",
        "serve_faulty_mixed_t4_p50",
        "serve_faulty_mixed_t4_p99",
        "serve_faulty_mixed_t8",
        "serve_faulty_mixed_t8_p50",
        "serve_faulty_mixed_t8_p99",
        "serve_faulty_shed_rate",
        "serve_faulty_timeout_rate",
        "serve_faulty_degraded_rate",
    ];
    /// `BENCH_cold_load.json` (`benches/cold_load.rs`): artifact encode,
    /// model and tree decode, the full decode-and-install cold load, and the
    /// refit baseline it replaces — at the base cardinality and again at
    /// `--xl-n` (`_xl`).
    pub const COLD_LOAD: &[&str] = &[
        "snapshot_encode",
        "model_decode",
        "tree_decode",
        "snapshot_cold_load",
        "full_refit",
        "snapshot_encode_xl",
        "model_decode_xl",
        "tree_decode_xl",
        "snapshot_cold_load_xl",
        "full_refit_xl",
    ];
    /// `BENCH_ingest.json` (`benches/ingest.rs`): sustained sliding-window
    /// ingest, the same stream with an indexed export per batch, and
    /// insert/remove churn through the streaming engine, against the
    /// refit-the-whole-window-per-batch baseline.
    pub const INGEST: &[&str] =
        &["ingest_sustained", "ingest_publish", "ingest_churn", "refit_per_window"];
}

/// Looks a key up in an object, requiring it to be present exactly once.
fn field<'j>(obj: &'j [(String, Json)], key: &str, ctx: &str) -> Result<&'j Json, String> {
    let mut found = None;
    for (k, v) in obj {
        if k == key {
            if found.is_some() {
                return Err(format!("{ctx}: duplicate field \"{key}\""));
            }
            found = Some(v);
        }
    }
    found.ok_or_else(|| format!("{ctx}: missing field \"{key}\""))
}

fn as_str<'j>(value: &'j Json, ctx: &str) -> Result<&'j str, String> {
    match value {
        Json::Str(s) => Ok(s),
        other => Err(format!("{ctx}: expected a string, found {}", other.type_name())),
    }
}

fn as_count(value: &Json, ctx: &str) -> Result<usize, String> {
    match value {
        Json::Num(x) if x.fract() == 0.0 && *x >= 0.0 && *x <= u32::MAX as f64 => Ok(*x as usize),
        Json::Num(x) => Err(format!("{ctx}: expected a non-negative integer, found {x}")),
        other => Err(format!("{ctx}: expected an integer, found {}", other.type_name())),
    }
}

fn as_secs(value: &Json, ctx: &str) -> Result<f64, String> {
    match value {
        Json::Num(x) if x.is_finite() && *x >= 0.0 => Ok(*x),
        Json::Num(x) => Err(format!("{ctx}: expected a finite non-negative number, found {x}")),
        other => Err(format!("{ctx}: expected a number, found {}", other.type_name())),
    }
}

/// Parses and validates the text of a `BENCH_*.json` file.
///
/// Schema (see `crates/bench/README.md`):
/// * the document is one object with exactly the fields `bench` (string,
///   matching `expected_bench`) and `results` (non-empty array);
/// * every result is an object with exactly the fields `kernel` (non-empty
///   string, unique within the file), `n` ≥ 1, `d` ≥ 1, `iters` ≥ 1
///   (integers) and `min_secs` / `mean_secs` (finite, non-negative,
///   `min_secs ≤ mean_secs` up to rounding);
/// * every kernel named in `required_kernels` is present.
///
/// Returns the records so callers can assert on them further.
pub fn validate_bench_json(
    text: &str,
    expected_bench: &str,
    required_kernels: &[&str],
) -> Result<Vec<BenchRecord>, String> {
    let document = Parser::new(text).parse_document()?;
    let top = match &document {
        Json::Obj(entries) => entries,
        other => return Err(format!("top level: expected an object, found {}", other.type_name())),
    };
    if top.len() != 2 {
        let keys: Vec<&str> = top.iter().map(|(k, _)| k.as_str()).collect();
        return Err(format!("top level: expected exactly [bench, results], found {keys:?}"));
    }
    let bench = as_str(field(top, "bench", "top level")?, "bench")?;
    if bench != expected_bench {
        return Err(format!(
            "bench name mismatch: expected \"{expected_bench}\", found \"{bench}\""
        ));
    }
    let results = match field(top, "results", "top level")? {
        Json::Arr(items) => items,
        other => return Err(format!("results: expected an array, found {}", other.type_name())),
    };
    if results.is_empty() {
        return Err("results: must not be empty".to_string());
    }

    let mut records = Vec::with_capacity(results.len());
    for (i, item) in results.iter().enumerate() {
        let ctx = format!("results[{i}]");
        let entry = match item {
            Json::Obj(entries) => entries,
            other => return Err(format!("{ctx}: expected an object, found {}", other.type_name())),
        };
        if entry.len() != 6 {
            let keys: Vec<&str> = entry.iter().map(|(k, _)| k.as_str()).collect();
            return Err(format!(
                "{ctx}: expected exactly [kernel, n, d, iters, min_secs, mean_secs], found {keys:?}"
            ));
        }
        let kernel = as_str(field(entry, "kernel", &ctx)?, &format!("{ctx}.kernel"))?;
        if kernel.is_empty() {
            return Err(format!("{ctx}: kernel label must not be empty"));
        }
        let n = as_count(field(entry, "n", &ctx)?, &format!("{ctx}.n"))?;
        let d = as_count(field(entry, "d", &ctx)?, &format!("{ctx}.d"))?;
        let iters = as_count(field(entry, "iters", &ctx)?, &format!("{ctx}.iters"))?;
        if n == 0 || d == 0 || iters == 0 {
            return Err(format!("{ctx} (\"{kernel}\"): n, d and iters must all be ≥ 1"));
        }
        let min_secs = as_secs(field(entry, "min_secs", &ctx)?, &format!("{ctx}.min_secs"))?;
        let mean_secs = as_secs(field(entry, "mean_secs", &ctx)?, &format!("{ctx}.mean_secs"))?;
        // The mean is a rounded sum-over-iters, so allow it to undershoot the
        // minimum by a relative epsilon but no more.
        if min_secs > mean_secs * (1.0 + 1e-9) {
            return Err(format!(
                "{ctx} (\"{kernel}\"): min_secs {min_secs:e} exceeds mean_secs {mean_secs:e}"
            ));
        }
        if records.iter().any(|r: &BenchRecord| r.kernel == kernel) {
            return Err(format!("{ctx}: duplicate kernel label \"{kernel}\""));
        }
        records.push(BenchRecord { kernel: kernel.to_string(), n, d, iters, min_secs, mean_secs });
    }

    for &required in required_kernels {
        if !records.iter().any(|r| r.kernel == required) {
            let have: Vec<&str> = records.iter().map(|r| r.kernel.as_str()).collect();
            return Err(format!("required kernel \"{required}\" is missing (have {have:?})"));
        }
    }
    Ok(records)
}

/// Reads `path` and validates it with [`validate_bench_json`]. Intended for
/// the bench binaries' `--check` mode: print the error and exit non-zero on
/// failure so CI fails on schema drift.
pub fn check_file(
    path: &Path,
    expected_bench: &str,
    required_kernels: &[&str],
) -> Result<usize, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    validate_bench_json(&text, expected_bench, required_kernels).map(|records| records.len())
}

/// Runs `--check` for a bench binary: validates the file it just wrote and
/// terminates the process with a non-zero exit code on any schema violation.
pub fn check_or_exit(path: &Path, expected_bench: &str, required_kernels: &[&str]) {
    match check_file(path, expected_bench, required_kernels) {
        Ok(count) => {
            println!(
                "schema check OK: {} ({count} kernels, {} required present)",
                path.display(),
                required_kernels.len()
            );
        }
        Err(e) => {
            eprintln!("schema check FAILED for {}: {e}", path.display());
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::micro::write_bench_json;

    fn record(kernel: &str) -> BenchRecord {
        BenchRecord {
            kernel: kernel.to_string(),
            n: 1000,
            d: 2,
            iters: 5,
            min_secs: 1.0e-5,
            mean_secs: 2.0e-5,
        }
    }

    #[test]
    fn round_trips_the_writer_output() {
        let records = vec![record("build"), record("range_count"), record("escaped \"label\"")];
        let dir = std::env::temp_dir().join(format!("dpc_schema_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_roundtrip.json");
        write_bench_json(&path, "kd_tree", &records).unwrap();
        let parsed = check_file(&path, "kd_tree", &["build", "range_count"]).unwrap();
        assert_eq!(parsed, 3);
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(validate_bench_json(&text, "kd_tree", &[]).unwrap(), records);
        std::fs::remove_file(&path).unwrap();
        std::fs::remove_dir(&dir).unwrap();
    }

    #[test]
    fn rejects_missing_required_kernel() {
        let mut out = String::new();
        // Build a valid document with one kernel, then require another.
        out.push_str("{\"bench\": \"kd_tree\", \"results\": [");
        out.push_str(
            "{\"kernel\": \"a\", \"n\": 1, \"d\": 2, \"iters\": 3, \"min_secs\": 1e-6, \"mean_secs\": 2e-6}",
        );
        out.push_str("]}");
        let err = validate_bench_json(&out, "kd_tree", &["build"]).unwrap_err();
        assert!(err.contains("required kernel \"build\""), "{err}");
        assert!(validate_bench_json(&out, "kd_tree", &["a"]).is_ok());
    }

    #[test]
    fn rejects_schema_drift() {
        let valid = "{\"bench\": \"b\", \"results\": [{\"kernel\": \"k\", \"n\": 1, \"d\": 1, \"iters\": 1, \"min_secs\": 1.0, \"mean_secs\": 1.0}]}";
        assert!(validate_bench_json(valid, "b", &[]).is_ok());

        for (mutation, why) in [
            (valid.replace("\"bench\": \"b\"", "\"bench\": \"other\""), "bench name mismatch"),
            (valid.replace("\"n\": 1", "\"n\": 1.5"), "non-integer n"),
            (valid.replace("\"n\": 1", "\"n\": 0"), "zero n"),
            (valid.replace("\"iters\": 1", "\"iters\": -2"), "negative iters"),
            (valid.replace("\"min_secs\": 1.0", "\"min_secs\": 5.0"), "min above mean"),
            (valid.replace("\"kernel\": \"k\"", "\"kernel\": \"\""), "empty kernel"),
            (valid.replace("\"results\": [{", "\"results\": [], \"extra\": [{"), "extra field"),
            (valid.replace("\"d\": 1, ", ""), "missing field"),
            (valid.replace("]}", "]"), "truncated document"),
        ] {
            assert!(validate_bench_json(&mutation, "b", &[]).is_err(), "accepted {why}");
        }

        // Duplicate kernels are drift too.
        let dup = valid.replace(
            "]}",
            ", {\"kernel\": \"k\", \"n\": 1, \"d\": 1, \"iters\": 1, \"min_secs\": 1.0, \"mean_secs\": 1.0}]}",
        );
        assert!(validate_bench_json(&dup, "b", &[]).unwrap_err().contains("duplicate kernel"));
    }

    /// The committed trajectory files at the repo root must satisfy the same
    /// schema + required-kernel contract CI enforces on the smoke runs —
    /// otherwise a hand edit or partial regeneration could silently shrink
    /// the versioned trajectory.
    #[test]
    fn committed_trajectory_files_are_valid() {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        for (file, bench, kernels) in [
            ("BENCH_kdtree.json", "kd_tree", required::KD_TREE),
            ("BENCH_grid_build.json", "grid_build", required::GRID_BUILD),
            ("BENCH_local_density.json", "local_density", required::LOCAL_DENSITY),
            ("BENCH_dependent_point.json", "dependent_point", required::DEPENDENT_POINT),
            ("BENCH_e2e.json", "end_to_end", required::END_TO_END),
            ("BENCH_serve.json", "serve", required::SERVE),
            ("BENCH_cold_load.json", "cold_load", required::COLD_LOAD),
            ("BENCH_ingest.json", "ingest", required::INGEST),
        ] {
            let path = root.join(file);
            if let Err(e) = check_file(&path, bench, kernels) {
                panic!("committed {file} violates the trajectory contract: {e}");
            }
        }
    }

    /// The committed end-to-end trajectory must show the paper's Fig. 7
    /// ordering of the three algorithms' fit + extract times: S-Approx-DPC
    /// below Approx-DPC below Ex-DPC.
    #[test]
    fn committed_e2e_file_keeps_the_fig7_ordering() {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let text = std::fs::read_to_string(root.join("BENCH_e2e.json")).unwrap();
        let records = validate_bench_json(&text, "end_to_end", required::END_TO_END).unwrap();
        let min_secs =
            |kernel: &str| records.iter().find(|r| r.kernel == kernel).map(|r| r.min_secs).unwrap();
        let order = ["fit_extract_s_approx_dpc", "fit_extract_approx_dpc", "fit_extract_ex_dpc"]
            .map(|kernel| (kernel, min_secs(kernel)));
        for pair in order.windows(2) {
            assert!(pair[0].1 < pair[1].1, "Fig. 7 ordering broken: {:?} ≥ {:?}", pair[0], pair[1]);
        }
    }

    /// A valid single-kernel document, the base for the mutation tests below.
    const VALID: &str = "{\"bench\": \"b\", \"results\": [{\"kernel\": \"k\", \"n\": 1, \"d\": 1, \"iters\": 1, \"min_secs\": 1.0, \"mean_secs\": 1.0}]}";

    #[test]
    fn rejects_malformed_json() {
        // The validator gates CI, so outright parse failures must surface as
        // errors (with a position), never as panics or false acceptance.
        for (broken, why) in [
            ("", "empty input"),
            ("{\"bench\": \"b\" \"results\": []}", "missing colon separator"),
            ("{\"bench\": \"b\",, \"results\": []}", "double comma"),
            ("{\"bench\": \"b\"} trailing", "trailing content"),
            ("{\"bench\": \"b\", \"results\": [{]}", "mismatched brackets"),
            ("{\"bench\": \"b\", \"results\": [tru]}", "truncated literal"),
            ("{\"bench\": \"b", "unterminated string"),
            ("{\"bench\": \"b\\x\"}", "invalid escape"),
            ("{\"bench\": \"b\\u12\"}", "truncated \\u escape"),
            ("{\"bench\": \"b\\ud800\"}", "surrogate \\u escape"),
            ("{\"bench\": \"b\u{1}\"}", "raw control byte in string"),
            ("{\"bench\": -}", "bare minus sign"),
            ("{\"bench\": 1e}", "truncated exponent"),
        ] {
            let err = validate_bench_json(broken, "b", &[]).unwrap_err();
            assert!(err.contains("JSON parse error"), "{why}: unexpected error {err}");
        }
    }

    #[test]
    fn rejects_wrong_value_types() {
        for (mutation, why) in [
            (VALID.replace("\"b\"", "17"), "bench as a number"),
            (VALID.replace("\"kernel\": \"k\"", "\"kernel\": 3"), "kernel as a number"),
            (VALID.replace("\"kernel\": \"k\"", "\"kernel\": null"), "kernel as null"),
            (VALID.replace("\"n\": 1", "\"n\": \"1\""), "n as a string"),
            (VALID.replace("\"n\": 1", "\"n\": true"), "n as a boolean"),
            (VALID.replace("\"iters\": 1", "\"iters\": [1]"), "iters as an array"),
            (VALID.replace("\"min_secs\": 1.0", "\"min_secs\": \"fast\""), "min_secs as a string"),
            (VALID.replace("\"mean_secs\": 1.0", "\"mean_secs\": {}"), "mean_secs as an object"),
            (VALID.replace("\"mean_secs\": 1.0", "\"mean_secs\": -1.0"), "negative seconds"),
            (VALID.replace("\"mean_secs\": 1.0", "\"mean_secs\": 1e999"), "infinite seconds"),
            (VALID.replace("\"n\": 1", "\"n\": 5000000000"), "n above u32::MAX"),
            (VALID.replace("{\"kernel\"", "[\"kernel\"").replace("}]}", "]]}"), "result as array"),
        ] {
            assert!(validate_bench_json(&mutation, "b", &[]).is_err(), "accepted {why}");
        }
    }

    #[test]
    fn rejects_missing_kernels_and_empty_kernel_lists() {
        // An empty results array is rejected even with nothing required …
        let empty = "{\"bench\": \"b\", \"results\": []}";
        assert!(validate_bench_json(empty, "b", &[]).unwrap_err().contains("must not be empty"));
        // … and a required kernel can then never be satisfied.
        assert!(validate_bench_json(empty, "b", &["k"]).is_err());
        // Every required kernel is checked, not just the first.
        let err = validate_bench_json(VALID, "b", &["k", "absent"]).unwrap_err();
        assert!(err.contains("required kernel \"absent\""), "{err}");
        // An empty required list accepts any schema-valid document.
        assert!(validate_bench_json(VALID, "b", &[]).is_ok());
        // Duplicate fields within one result are drift, not a silent override.
        let dup_field = VALID.replace("\"n\": 1, \"d\": 1", "\"n\": 1, \"n\": 1");
        assert!(validate_bench_json(&dup_field, "b", &[]).unwrap_err().contains("duplicate"));
    }

    #[test]
    fn check_file_reports_unreadable_paths() {
        let missing = std::env::temp_dir().join("dpc_schema_no_such_file.json");
        let err = check_file(&missing, "b", &[]).unwrap_err();
        assert!(err.contains("cannot read"), "{err}");
    }

    #[test]
    fn parser_handles_general_json_shapes() {
        // The parser must not choke on whitespace, escapes, exponents or
        // nested structures a future schema revision might emit.
        let text = "\n{\t\"bench\" : \"x\",\n \"results\": [\n  {\"kernel\": \"π ≈ \\u0033\", \"n\": 7, \"d\": 3, \"iters\": 2, \"min_secs\": 1.25e-7, \"mean_secs\": 0.0000002}\n ]\n}\n";
        let records = validate_bench_json(text, "x", &[]).unwrap();
        assert_eq!(records[0].kernel, "π ≈ 3");
        assert_eq!(records[0].n, 7);
        assert!((records[0].min_secs - 1.25e-7).abs() < 1e-20);

        for broken in [
            "{",
            "[]",
            "{\"bench\": \"x\"}",
            "{\"bench\": \"x\", \"results\": [], \"x\": 1, \"y\": 2}",
            "{\"bench\": \"x\", \"results\": \"not an array\"}",
            "{\"bench\": \"x\", \"results\": []}",
            "{\"bench\": \"x\", \"results\": [1]}",
            "not json at all",
        ] {
            assert!(validate_bench_json(broken, "x", &[]).is_err(), "accepted: {broken}");
        }
    }
}
