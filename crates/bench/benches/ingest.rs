//! Sustained-ingest benchmark for the streaming maintenance engine: absorb a
//! drifting point stream through a sliding window (`StreamingDpc`) versus the
//! strategy it replaces — refitting the whole window from scratch every batch
//! of arrivals.
//!
//! Results are written to `BENCH_ingest.json` (schema in
//! `crates/bench/README.md`) so the streaming trajectory is recorded PR over
//! PR. The streamed state is bitwise-equal to a fresh keyed fit of the
//! surviving window (the `tests/streaming.rs` property), so the two
//! strategies buy the *same* model — the benchmark measures only how much of
//! the window each one has to touch per batch: the refit reprocesses all `n`
//! points, the stream repairs the `d_cut` neighbourhoods of the `batch`
//! arrivals and the `batch` expiries.
//!
//! Kernels: `ingest_sustained` (one batch of arrivals with its expiry),
//! `ingest_publish` (the same stream, each batch followed by one
//! `to_indexed_parts` — the export a streaming server publishes through,
//! which rebuilds the index over the window and hands out the window with
//! its tree), `ingest_churn` (explicit removals racing the inserts, no
//! window) and `refit_per_window` (the baseline).
//!
//! Flags: `--n <window>` (default 20,000 — the sliding-window capacity, and
//! the refit baseline's dataset size), `--batch <points>` (default 250 —
//! arrivals absorbed per measured iteration, and the window's expiry batch;
//! the refit baseline's cost is batch-invariant, so the batch size sets the
//! freshness/throughput trade: smaller batches mean fresher models, which
//! streaming serves at per-arrival cost while the refit strategy pays the
//! whole window again), `--threads <T>` (default 1; the refit baseline's
//! executor — the write
//! path is serialized by design, so a single-threaded baseline is the
//! apples-to-apples comparison and `--threads` exists to show the refit's
//! parallel headroom), `--out <json>`, `--check` (validate the emitted JSON
//! against the schema and exit non-zero on drift).
//!
//! Workload: a drifting 2-d Gaussian band (constant spatial density, so the
//! `d_cut` ball size — and with it the repair cost — stays flat as the
//! stream advances; by one window length the content has fully turned over).

use dpc_bench::micro::{bench_record, write_bench_json, BenchRecord};
use dpc_bench::resolve_out_path;
use dpc_bench::schema::{check_or_exit, required};
use dpc_core::{DpcAlgorithm, DpcParams, ExDpc, StreamingDpc};

/// Cutoff distance; with the stream's density of ~2.5 points per unit², the
/// mean `d_cut` ball holds ~8 points — the localized-repair regime.
const DCUT: f64 = 1.0;
/// Drift per arrival: a 20k window spans 400 length units.
const DRIFT: f64 = 0.02;
/// Vertical spread of the band.
const SPREAD: f64 = 20.0;

/// One splitmix64 draw in `[0, 1)` — the bench's only randomness (the bench
/// crate deliberately has no RNG dependency).
fn unit(state: &mut u64) -> f64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z >> 11) as f64 / (1u64 << 53) as f64
}

/// The `i`-th stream point: a band drifting right at constant density.
fn stream_point(i: u64) -> [f64; 2] {
    let mut state = i.wrapping_mul(0x2545_F491_4F6C_DD1D) ^ 0x5EED;
    [i as f64 * DRIFT + (unit(&mut state) - 0.5) * SPREAD * 0.25, (unit(&mut state) - 0.5) * SPREAD]
}

fn main() {
    let mut n = 20_000usize;
    let mut batch = 250usize;
    let mut threads = 1usize;
    let mut out = resolve_out_path("BENCH_ingest.json");
    let mut check = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--n" => n = args.next().expect("--n requires a value").parse().expect("--n <window>"),
            "--batch" => {
                batch =
                    args.next().expect("--batch requires a value").parse().expect("--batch <points>")
            }
            "--threads" => {
                threads =
                    args.next().expect("--threads requires a value").parse().expect("--threads <T>")
            }
            "--out" => out = resolve_out_path(&args.next().expect("--out requires a path")),
            "--check" => check = true,
            "--bench" => {} // appended by `cargo bench`
            other => panic!(
                "unknown argument: {other} (flags: --n <window> --batch <points> --threads <T> --out <json> --check)"
            ),
        }
    }
    assert!(batch >= 1 && n >= batch, "need --n ≥ --batch ≥ 1");
    let params = DpcParams::new(DCUT);
    let mut records: Vec<BenchRecord> = Vec::new();
    println!("ingest (window n = {n}, batch = {batch}, d_cut = {DCUT}, refit threads = {threads})");

    // Prefill the sliding window to capacity plus a quarter turnover, so the
    // measured iterations run in steady state (expiry batches and index
    // maintenance cycles active, not the one-off fill transient).
    let mut engine = StreamingDpc::new(params, 2).expect("valid params").with_window(n, batch);
    let mut next = 0u64;
    for _ in 0..n + n / 4 {
        engine.insert(&stream_point(next)).expect("finite stream point");
        next += 1;
    }
    engine.drain_expired();

    // The refit baseline fits exactly the prefilled window — the same points
    // the first measured streaming iteration starts from.
    let (window, _ids, _model) = engine.to_parts().expect("non-empty window");

    records.push(bench_record("ingest_sustained", n, 2, 8, || {
        for _ in 0..batch {
            engine.insert(&stream_point(next)).expect("finite stream point");
            next += 1;
        }
        engine.drain_expired().len()
    }));

    // The same stream, published after each batch as a streaming server
    // publishes: the index rebuilt over the window and exported with it.
    records.push(bench_record("ingest_publish", n, 2, 8, || {
        for _ in 0..batch {
            engine.insert(&stream_point(next)).expect("finite stream point");
            next += 1;
        }
        engine.drain_expired();
        let (window, _ids, _model, tree) = engine.to_indexed_parts().expect("non-empty window");
        window.len() + tree.len()
    }));

    // Churn without a window: explicit removals race the inserts (the
    // delete-repair path), half a batch of each per iteration.
    let mut churn = StreamingDpc::new(params, 2).expect("valid params");
    let mut live: Vec<u64> = Vec::new();
    let mut churn_next = 0u64;
    for _ in 0..n {
        live.push(churn.insert(&stream_point(churn_next)).expect("finite stream point"));
        churn_next += 1;
    }
    let mut victim = 0x1234_5678u64;
    records.push(bench_record("ingest_churn", n, 2, 8, || {
        for _ in 0..batch / 2 {
            live.push(churn.insert(&stream_point(churn_next)).expect("finite stream point"));
            churn_next += 1;
            let k = (unit(&mut victim) * live.len() as f64) as usize % live.len();
            let id = live.swap_remove(k);
            assert!(churn.remove(id));
        }
        churn.len()
    }));

    // The strategy streaming replaces: refit the whole window every batch.
    let refit_params = params.with_threads(threads);
    records.push(bench_record("refit_per_window", n, 2, 3, || {
        ExDpc::new(refit_params).fit(&window).expect("refit").n()
    }));

    let mean_of = |name: &str| {
        records.iter().find(|r| r.kernel == name).map(|r| r.mean_secs).unwrap_or(f64::NAN)
    };
    let stream_batch = mean_of("ingest_sustained");
    let refit = mean_of("refit_per_window");
    println!();
    println!(
        "sustained ingest: {:.0} points/sec (streaming) vs {:.0} points/sec (refit-per-window) — {:.2}x",
        batch as f64 / stream_batch,
        batch as f64 / refit,
        refit / stream_batch
    );

    write_bench_json(&out, "ingest", &records).expect("write BENCH json");
    println!("wrote {}", out.display());
    if check {
        check_or_exit(&out, "ingest", required::INGEST);
    }
}
