//! Serving-layer benchmark: requests/sec and tail latency of a `DpcServer`
//! under concurrent load with background refit-and-swap churn.
//!
//! Three workloads — relabel-heavy (threshold sweeps via `extract`),
//! assign-heavy (point classification on the snapshot kd-tree) and mixed —
//! each run at 1, 4 and 8 worker threads while a writer thread continuously
//! refits the model and installs fresh epochs, so every number includes the
//! cost of real snapshot churn. Per workload × worker count three kernels are
//! recorded: the batch wall-clock (`serve_<w>_t<T>`, min/mean over
//! repetitions — requests/sec is `requests / mean`), and the nearest-rank
//! p50/p99 per-request latencies (`serve_<w>_t<T>_p50` / `_p99`, one value
//! over all repetitions' samples, stored as `min = mean`).
//!
//! A fourth, *fault-injected* section re-runs the mixed workload against a
//! server with a deterministic fault plan armed (10% slow requests against a
//! 2 ms deadline, fit failures/panics against the supervised background
//! refit) and a tight admission cap, recording degraded-mode throughput and
//! tails (`serve_faulty_mixed_t<T>` + `_p50`/`_p99`) plus three dimensionless
//! rate kernels (`serve_faulty_shed_rate`, `serve_faulty_timeout_rate`,
//! `serve_faulty_degraded_rate`, stored as `min = mean`) — the healthy
//! numbers' price-of-robustness counterpart.
//!
//! Results go to `BENCH_serve.json` (schema in `crates/bench/README.md`).
//!
//! Flags: `--n <points>` (default 20,000), `--requests <R>` per batch
//! (default 1,500), `--threads <T>` (default: available parallelism; sizes
//! only the background *refit* executor — the serving worker counts {1, 4, 8}
//! are part of the kernel identity and never change), `--out <json>` (default
//! `BENCH_serve.json`, resolved against the workspace root), `--check`
//! (validate the emitted JSON and exit non-zero on schema drift).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dpc_bench::micro::{write_bench_json, BenchRecord};
use dpc_bench::resolve_out_path;
use dpc_bench::schema::{check_or_exit, required};
use dpc_bench::stats::{percentile, sorted_samples};
use dpc_bench::{default_params, default_thresholds, BenchDataset};
use dpc_core::{DpcParams, ExDpc, Thresholds};
use dpc_geometry::Dataset;
use dpc_parallel::Executor;
use dpc_serve::{
    DpcServer, FaultInjector, FaultPlan, FaultPoint, FaultyAlgorithm, RefitPolicy, Request,
    ServeConfig, ServeError,
};

/// Serving worker counts — baked into the kernel labels, independent of
/// `--threads`.
const WORKER_COUNTS: [usize; 3] = [1, 4, 8];

/// Timed repetitions per workload × worker count.
const REPS: usize = 3;

/// Workload shapes: request-kind mix per 10 requests.
const WORKLOADS: [(&str, usize, usize); 3] = [
    // (label, relabels per 10, assigns per 10) — the remainder is Stats.
    ("relabel_heavy", 8, 1),
    ("assign_heavy", 1, 8),
    ("mixed", 4, 4),
];

/// Tiny deterministic generator (splitmix64) for request mixing — the bench
/// must produce the identical request stream on every run and platform.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Builds one workload's deterministic request stream: `relabel_w` /
/// `assign_w` / remainder-Stats per 10 requests, interleaved. Relabels sweep
/// `δ_min` around the default; assigns perturb points drawn from the dataset
/// by up to half a `d_cut`, so most queries land inside a cluster and some
/// fall into the sparse in-between.
fn build_requests(
    label: &str,
    count: usize,
    data: &Dataset,
    params: &DpcParams,
    thresholds: &Thresholds,
    relabel_w: usize,
    assign_w: usize,
) -> Vec<Request> {
    let mut rng = SplitMix(0xd1ce ^ label.len() as u64);
    (0..count)
        .map(|i| match i % 10 {
            slot if slot < relabel_w => {
                let delta_min = thresholds.delta_min * (0.5 + rng.unit());
                let rho_min = thresholds.rho_min * rng.unit();
                Request::Relabel(Thresholds::new(rho_min, delta_min).expect("in-domain sweep"))
            }
            slot if slot < relabel_w + assign_w => {
                let base = data.point((rng.next() % data.len() as u64) as usize);
                let point =
                    base.iter().map(|c| c + (rng.unit() - 0.5) * params.dcut).collect::<Vec<f64>>();
                Request::Assign(point)
            }
            _ => Request::Stats,
        })
        .collect()
}

fn main() {
    let mut n = 20_000usize;
    let mut requests_per_batch = 1_500usize;
    let mut threads = std::thread::available_parallelism().map(|t| t.get()).unwrap_or(1);
    let mut out = resolve_out_path("BENCH_serve.json");
    let mut check = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--n" => n = args.next().expect("--n requires a value").parse().expect("--n <points>"),
            "--requests" => {
                requests_per_batch = args
                    .next()
                    .expect("--requests requires a value")
                    .parse()
                    .expect("--requests <R>")
            }
            "--threads" => {
                threads =
                    args.next().expect("--threads requires a value").parse().expect("--threads <T>")
            }
            "--out" => out = resolve_out_path(&args.next().expect("--out requires a path")),
            "--check" => check = true,
            "--bench" => {} // appended by `cargo bench`
            other => panic!(
                "unknown argument: {other} (flags: --n <points> --requests <R> --threads <T> --out <json> --check)"
            ),
        }
    }

    let dataset = BenchDataset::Syn;
    let data = dataset.generate(n);
    let d = data.dim();
    let params = default_params(&dataset, threads);
    let thresholds = default_thresholds(params.dcut);
    let refit_executor = Executor::new(threads);
    println!(
        "serve ({} n = {n}, requests/batch = {requests_per_batch}, refit threads = {threads})",
        dataset.name()
    );

    let server = DpcServer::fit(&ExDpc::new(params), data.clone(), thresholds, &refit_executor)
        .expect("initial fit");

    let mut records: Vec<BenchRecord> = Vec::new();
    for (label, relabel_w, assign_w) in WORKLOADS {
        let requests = build_requests(
            label,
            requests_per_batch,
            &data,
            &params,
            &thresholds,
            relabel_w,
            assign_w,
        );
        for workers in WORKER_COUNTS {
            let pool = Executor::new(workers);
            let mut batch_walls = Vec::with_capacity(REPS);
            let mut latencies: Vec<f64> = Vec::with_capacity(REPS * requests_per_batch);
            let stop = AtomicBool::new(false);
            let refits = AtomicU64::new(0);

            // The swap writer churns epochs for the whole measurement of this
            // (workload, workers) cell: fit outside the store lock, install
            // atomically, repeat until the readers are done.
            std::thread::scope(|scope| {
                scope.spawn(|| {
                    while !stop.load(Ordering::Relaxed) {
                        server
                            .store()
                            .refit(&ExDpc::new(params), data.clone(), thresholds, &refit_executor)
                            .expect("refit");
                        refits.fetch_add(1, Ordering::Relaxed);
                    }
                });

                // Warm-up pass (untimed), then the timed repetitions.
                for timed in [false, true, true, true] {
                    let start = Instant::now();
                    let batch_lat: Vec<f64> = pool.map_dynamic(requests.len(), |i| {
                        let t0 = Instant::now();
                        let response = server.handle(&requests[i]).expect("well-formed request");
                        let lat = t0.elapsed().as_secs_f64();
                        assert!(response.epoch() >= 1, "torn epoch");
                        lat
                    });
                    if timed {
                        batch_walls.push(start.elapsed().as_secs_f64());
                        latencies.extend(batch_lat);
                    }
                }
                stop.store(true, Ordering::Relaxed);
            });

            let min_wall = batch_walls.iter().cloned().fold(f64::INFINITY, f64::min);
            let mean_wall = batch_walls.iter().sum::<f64>() / batch_walls.len() as f64;
            let sorted = sorted_samples(latencies);
            let p50 = percentile(&sorted, 50.0);
            let p99 = percentile(&sorted, 99.0);
            println!(
                "{label:<14} t{workers}: {:>9.1} req/s  p50 {:>9.1}µs  p99 {:>9.1}µs  ({} refits, epoch {})",
                requests_per_batch as f64 / mean_wall,
                p50 * 1e6,
                p99 * 1e6,
                refits.load(Ordering::Relaxed),
                server.epoch(),
            );
            records.push(BenchRecord {
                kernel: format!("serve_{label}_t{workers}"),
                n,
                d,
                iters: REPS,
                min_secs: min_wall,
                mean_secs: mean_wall,
            });
            for (suffix, value) in [("p50", p50), ("p99", p99)] {
                records.push(BenchRecord {
                    kernel: format!("serve_{label}_t{workers}_{suffix}"),
                    n,
                    d,
                    iters: sorted.len(),
                    min_secs: value,
                    mean_secs: value,
                });
            }
        }
    }

    // ------------------------------------------------------------------
    // Fault-injected serving: the identical mixed request stream, but the
    // server now has a deterministic fault plan armed, a 2 ms per-request
    // deadline and an admission cap of 2 in-flight requests, and the writer
    // refits through the supervisor with a flaky algorithm. The throughput
    // and tail kernels price the degraded mode; the rate kernels record how
    // often the robustness machinery actually engaged (shed at the cap,
    // timed out against the deadline, refit round exhausted) over every
    // request of the section, warm-up passes included.
    // ------------------------------------------------------------------
    const FAULT_SEED: u64 = 0xFA01_7BE7;
    // Injected fit panics are expected and caught by the supervisor; keep
    // them from spraying backtraces over the bench output.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let injected = info
            .payload()
            .downcast_ref::<&str>()
            .map(|s| s.starts_with("injected"))
            .unwrap_or(false);
        if !injected {
            default_hook(info);
        }
    }));
    let faults = FaultInjector::shared(
        FaultPlan::new(FAULT_SEED)
            .with_rate(FaultPoint::SlowRequest, 0.10)
            .with_slow_request(Duration::from_millis(5))
            .with_rate(FaultPoint::FitError, 0.30)
            .with_rate(FaultPoint::FitPanic, 0.10),
    );
    let faulty_server =
        DpcServer::fit(&ExDpc::new(params), data.clone(), thresholds, &refit_executor)
            .expect("faulty-section fit")
            .with_config(
                ServeConfig::default()
                    .with_deadline(Duration::from_millis(2))
                    .with_max_in_flight(2),
            )
            .with_faults(Arc::clone(&faults));
    let flaky = FaultyAlgorithm::new(ExDpc::new(params), Arc::clone(&faults));
    let policy = RefitPolicy::default()
        .with_max_attempts(2)
        .with_backoff(Duration::from_millis(1), Duration::from_millis(8))
        .with_backoff_seed(FAULT_SEED);
    let requests = build_requests("mixed", requests_per_batch, &data, &params, &thresholds, 4, 4);
    let rounds = AtomicU64::new(0);
    let exhausted = AtomicU64::new(0);
    for workers in WORKER_COUNTS {
        let pool = Executor::new(workers);
        let mut batch_walls = Vec::with_capacity(REPS);
        let mut latencies: Vec<f64> = Vec::with_capacity(REPS * requests_per_batch);
        let before = faulty_server.counters();
        let stop = AtomicBool::new(false);

        std::thread::scope(|scope| {
            scope.spawn(|| {
                while !stop.load(Ordering::Relaxed) {
                    rounds.fetch_add(1, Ordering::Relaxed);
                    // A supervised round either installs a fresh epoch or
                    // exhausts its retries and leaves the last good epoch
                    // serving — both are expected under the storm.
                    if faulty_server
                        .store()
                        .refit_supervised(
                            &flaky,
                            data.clone(),
                            thresholds,
                            &refit_executor,
                            &policy,
                        )
                        .is_err()
                    {
                        exhausted.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });

            for timed in [false, true, true, true] {
                let start = Instant::now();
                let batch_lat: Vec<f64> = pool.map_dynamic(requests.len(), |i| {
                    let t0 = Instant::now();
                    match faulty_server.handle(&requests[i]) {
                        Ok(response) => assert!(response.epoch() >= 1, "torn epoch"),
                        // The two degraded-mode outcomes the section is here
                        // to measure; anything else is a bug.
                        Err(ServeError::Overloaded { .. })
                        | Err(ServeError::DeadlineExceeded { .. }) => {}
                        Err(other) => panic!("unexpected serve error: {other}"),
                    }
                    t0.elapsed().as_secs_f64()
                });
                if timed {
                    batch_walls.push(start.elapsed().as_secs_f64());
                    latencies.extend(batch_lat);
                }
            }
            stop.store(true, Ordering::Relaxed);
        });

        let delta = faulty_server.counters();
        let (admitted, shed, timed_out) = (
            delta.admitted - before.admitted,
            delta.shed - before.shed,
            delta.timed_out - before.timed_out,
        );
        let min_wall = batch_walls.iter().cloned().fold(f64::INFINITY, f64::min);
        let mean_wall = batch_walls.iter().sum::<f64>() / batch_walls.len() as f64;
        let sorted = sorted_samples(latencies);
        let p50 = percentile(&sorted, 50.0);
        let p99 = percentile(&sorted, 99.0);
        println!(
            "faulty mixed   t{workers}: {:>9.1} req/s  p50 {:>9.1}µs  p99 {:>9.1}µs  (admitted {admitted}, shed {shed}, timed out {timed_out})",
            requests_per_batch as f64 / mean_wall,
            p50 * 1e6,
            p99 * 1e6,
        );
        records.push(BenchRecord {
            kernel: format!("serve_faulty_mixed_t{workers}"),
            n,
            d,
            iters: REPS,
            min_secs: min_wall,
            mean_secs: mean_wall,
        });
        for (suffix, value) in [("p50", p50), ("p99", p99)] {
            records.push(BenchRecord {
                kernel: format!("serve_faulty_mixed_t{workers}_{suffix}"),
                n,
                d,
                iters: sorted.len(),
                min_secs: value,
                mean_secs: value,
            });
        }
    }

    // The rate kernels aggregate the whole faulty section. They are
    // dimensionless fractions in [0, 1] stored as `min = mean`; `iters`
    // carries the denominator (attempts, admissions, refit rounds).
    let totals = faulty_server.counters();
    let attempts = totals.admitted + totals.shed;
    let rounds = rounds.load(Ordering::Relaxed);
    let exhausted = exhausted.load(Ordering::Relaxed);
    println!(
        "faulty rates  : shed {}/{attempts}, timed out {}/{}, exhausted refit rounds {exhausted}/{rounds}",
        totals.shed, totals.timed_out, totals.admitted,
    );
    for (kernel, numerator, denominator) in [
        ("serve_faulty_shed_rate", totals.shed, attempts),
        ("serve_faulty_timeout_rate", totals.timed_out, totals.admitted),
        ("serve_faulty_degraded_rate", exhausted, rounds),
    ] {
        let rate = if denominator == 0 { 0.0 } else { numerator as f64 / denominator as f64 };
        records.push(BenchRecord {
            kernel: kernel.to_string(),
            n,
            d,
            iters: (denominator as usize).max(1),
            min_secs: rate,
            mean_secs: rate,
        });
    }

    write_bench_json(&out, "serve", &records).expect("write BENCH json");
    println!("wrote {}", out.display());
    if check {
        check_or_exit(&out, "serve", required::SERVE);
    }
}
