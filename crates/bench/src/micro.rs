//! Tiny timing helper for the dependency-free micro-benchmarks in `benches/`.
//!
//! The container this workspace builds in has no third-party bench framework,
//! so each file under `benches/` is a plain `harness = false` binary that
//! calls [`bench`](fn@bench) per kernel: warm up once, run a fixed number of iterations,
//! print min / mean wall-clock. Good enough to read relative orderings (who is
//! faster than whom), which is all the paper-shape assertions need.
//!
//! Benches that track a perf trajectory across PRs additionally record each
//! kernel as a [`BenchRecord`] and write a machine-readable `BENCH_*.json`
//! via [`write_bench_json`]. The schema is documented in `crates/bench/README.md`:
//!
//! ```json
//! {
//!   "bench": "<bench binary name>",
//!   "results": [
//!     {"kernel": "...", "n": 100000, "d": 2, "iters": 2000,
//!      "min_secs": 1.2e-5, "mean_secs": 1.4e-5}
//!   ]
//! }
//! ```

use std::hint::black_box;
use std::io::Write;
use std::time::Instant;

/// Times `f` over `iters` iterations (after one warm-up call) and prints
/// `label: min …s, mean …s`. Returns the mean seconds so callers can assert
/// on orderings if they want to.
pub fn bench<R, F: FnMut() -> R>(label: &str, iters: usize, mut f: F) -> f64 {
    assert!(iters > 0, "at least one iteration is required");
    black_box(f());
    let samples: Vec<f64> = (0..iters).map(|_| time_once(&mut f)).collect();
    let (min, mean) = min_mean(&samples);
    println!("{label:<40} min {min:>10.6}s  mean {mean:>10.6}s  ({iters} iters)");
    mean
}

/// Wall-clock seconds of one call of `f`, echoed to stderr when
/// `BENCH_ITER_TRACE` is set.
fn time_once<R>(f: &mut impl FnMut() -> R) -> f64 {
    let start = Instant::now();
    black_box(f());
    let secs = start.elapsed().as_secs_f64();
    if std::env::var_os("BENCH_ITER_TRACE").is_some() {
        eprintln!("  iter {secs:.6}s");
    }
    secs
}

/// The fastest and the mean of a non-empty sample list.
fn min_mean(samples: &[f64]) -> (f64, f64) {
    let min = samples.iter().copied().fold(f64::INFINITY, f64::min);
    (min, samples.iter().sum::<f64>() / samples.len() as f64)
}

/// One timed kernel, as recorded in a `BENCH_*.json` file.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchRecord {
    /// Kernel label (e.g. `packed_range_count`).
    pub kernel: String,
    /// Dataset cardinality the kernel ran against.
    pub n: usize,
    /// Dataset dimensionality.
    pub d: usize,
    /// Timed iterations (after one warm-up call).
    pub iters: usize,
    /// Fastest observed iteration, seconds.
    pub min_secs: f64,
    /// Mean over all timed iterations, seconds.
    pub mean_secs: f64,
}

/// Like [`bench`](fn@bench), but also returns the structured record for JSON emission.
pub fn bench_record<R, F: FnMut() -> R>(
    kernel: &str,
    n: usize,
    d: usize,
    iters: usize,
    f: F,
) -> BenchRecord {
    let mut kernels = [(kernel.to_string(), f)];
    bench_records_round_robin(&mut kernels, n, d, iters).pop().expect("one kernel, one record")
}

/// Times several kernels round-robin and returns one record per kernel, in
/// order. After one warm-up call of each, every iteration runs each kernel
/// once, in turn, so a slow spell of the host spreads over all of them
/// instead of landing on the one that happened to run then.
pub fn bench_records_round_robin<R, F: FnMut() -> R>(
    kernels: &mut [(String, F)],
    n: usize,
    d: usize,
    iters: usize,
) -> Vec<BenchRecord> {
    assert!(iters > 0, "at least one iteration is required");
    for (_, f) in kernels.iter_mut() {
        black_box(f());
    }
    let mut samples = vec![Vec::with_capacity(iters); kernels.len()];
    for _ in 0..iters {
        for ((_, f), times) in kernels.iter_mut().zip(&mut samples) {
            times.push(time_once(f));
        }
    }
    let records = std::iter::zip(kernels.iter(), &samples).map(|((kernel, _), times)| {
        let (min, mean) = min_mean(times);
        println!(
            "{kernel:<40} min {min:>12.9}s  mean {mean:>12.9}s  ({iters} iters, n = {n}, d = {d})"
        );
        BenchRecord { kernel: kernel.clone(), n, d, iters, min_secs: min, mean_secs: mean }
    });
    records.collect()
}

/// Serialises records to the documented `BENCH_*.json` schema (hand-rolled;
/// the container has no serde) and writes them to `path`.
pub fn write_bench_json(
    path: &std::path::Path,
    bench_name: &str,
    records: &[BenchRecord],
) -> std::io::Result<()> {
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"bench\": {},\n  \"results\": [\n", json_string(bench_name)));
    for (i, r) in records.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"kernel\": {}, \"n\": {}, \"d\": {}, \"iters\": {}, \"min_secs\": {:e}, \"mean_secs\": {:e}}}{}\n",
            json_string(&r.kernel),
            r.n,
            r.d,
            r.iters,
            r.min_secs,
            r.mean_secs,
            if i + 1 < records.len() { "," } else { "" },
        ));
    }
    out.push_str("  ]\n}\n");
    let mut file = std::fs::File::create(path)?;
    file.write_all(out.as_bytes())
}

/// Minimal JSON string escaping for the labels used here.
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_returns_positive_mean_and_runs_the_closure() {
        let mut calls = 0usize;
        let mean = bench("noop", 3, || calls += 1);
        assert!(mean >= 0.0);
        assert_eq!(calls, 4); // warm-up + 3 timed
    }

    #[test]
    fn bench_record_populates_all_fields() {
        let mut calls = 0usize;
        let rec = bench_record("kernel_x", 1000, 2, 5, || calls += 1);
        assert_eq!(calls, 6);
        assert_eq!(rec.kernel, "kernel_x");
        assert_eq!((rec.n, rec.d, rec.iters), (1000, 2, 5));
        assert!(rec.min_secs >= 0.0 && rec.mean_secs >= rec.min_secs);
    }

    #[test]
    fn round_robin_runs_every_kernel_in_turn() {
        let order = std::cell::RefCell::new(Vec::new());
        let log = &order;
        let mut kernels: Vec<_> = ["a", "b"]
            .into_iter()
            .map(|k| (k.to_string(), move || log.borrow_mut().push(k)))
            .collect();
        let records = bench_records_round_robin(&mut kernels, 10, 2, 3);
        assert_eq!(order.into_inner(), ["a", "b"].repeat(4)); // warm-up + 3 rounds
        assert_eq!(records.iter().map(|r| r.kernel.as_str()).collect::<Vec<_>>(), ["a", "b"]);
        assert!(records.iter().all(|r| r.iters == 3 && r.mean_secs >= r.min_secs));
    }

    #[test]
    fn json_output_matches_schema() {
        let records = vec![
            BenchRecord {
                kernel: "a\"b".into(),
                n: 10,
                d: 2,
                iters: 3,
                min_secs: 1.5e-6,
                mean_secs: 2.0e-6,
            },
            BenchRecord {
                kernel: "plain".into(),
                n: 20,
                d: 3,
                iters: 4,
                min_secs: 0.5,
                mean_secs: 0.75,
            },
        ];
        // Per-process directory: concurrent test runs must not race on the file.
        let dir = std::env::temp_dir().join(format!("dpc_bench_json_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_test.json");
        write_bench_json(&path, "kd_tree", &records).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"bench\": \"kd_tree\""));
        assert!(text.contains("\"kernel\": \"a\\\"b\""));
        assert!(text.contains("\"n\": 10"));
        assert!(text.contains("\"mean_secs\":"));
        // Two records → exactly one separating comma between result objects.
        assert_eq!(text.matches("{\"kernel\"").count(), 2);
        std::fs::remove_file(&path).unwrap();
    }
}
