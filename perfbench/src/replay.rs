//! The traced run: every operation of the workload runs untraced (as in the
//! end-to-end run) and is also replayed through the layers' public functions
//! with a span around each call. Per-layer metrics are self times and counts
//! of those spans; the traced-minus-untraced difference of each timed
//! end-to-end figure is the tracing overhead.
//!
//! The replay keeps its own serving pipeline: a `ModelStore` fitted on the
//! same window and a standalone `StreamingDpc` fed the same stream, published
//! every `PUBLISH_EVERY` ingests exactly as the server does (`to_parts`,
//! `Snapshot::new`, `install`). Its epochs therefore track the server's, and
//! every replayed answer must equal the server's answer.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use fast_dpc::core::Timings as FitTimings;
use fast_dpc::index::{Grid, KdTree};
use fast_dpc::persist::{read_artifact_file, write_artifact_file};
use fast_dpc::prelude::*;
use fast_dpc::serve::assign::classify;

use crate::pipeline::{self, Algo, Checks, State, Timings, WARMUP_REQUESTS};
use crate::stats::{Report, Samples};
use crate::trace::Tracer;
use crate::workload::{
    Op, RequestStream, Spec, COLD_LOADS_PER_ROUND, EXPIRY_BATCH, PUBLISH_EVERY, THREADS,
};

/// Rounds that also time the single-thread fits (the speed-up baseline); the
/// later rounds skip them to keep the traced run short.
const SPEEDUP_SAMPLES: usize = 3;

/// The replay's serving pipeline.
struct Replay {
    store: ModelStore,
    engine: StreamingDpc,
    since_publish: usize,
    artifact: std::path::PathBuf,
    /// Untraced single-thread fits per algorithm, and the ρ phase alone.
    single_fits: [Samples; 3],
    single_rho: Samples,
}

/// Ex-DPC's fit, phase by phase through its public functions: tree build,
/// grid build, query buckets, batched ρ, δ. `local_densities_with_grid`
/// forms the buckets again internally, so `core.exdpc_rho` includes a second
/// `query_buckets` call.
fn traced_exdpc(tr: &mut Tracer, params: DpcParams, data: &Dataset) -> Result<DpcModel, DpcError> {
    tr.root("core.exdpc_fit", |tr, root| {
        let algo = ExDpc::new(params);
        let executor = Executor::new(params.threads);
        let tree =
            tr.child(root, "index.kdtree_build", |_, _| KdTree::build_parallel(data, &executor));
        let side = params.dcut / (data.dim() as f64).sqrt();
        let grid =
            tr.child(root, "index.grid_build", |_, _| Grid::build_parallel(data, side, &executor));
        let buckets = tr.child(root, "index.query_buckets", |_, _| grid.query_buckets());
        tr.count(root, "grid_cells", grid.num_cells() as f64);
        tr.count(root, "bucket_count", buckets.len() as f64);
        tr.count(root, "kdtree_bytes", tree.mem_usage() as f64);
        tr.count(root, "grid_bytes", grid.mem_usage() as f64);
        let rho = tr.child(root, "core.exdpc_rho", |_, _| {
            algo.local_densities_with_grid(data, &tree, &grid)
        });
        let index_bytes = tree.mem_usage();
        drop(grid);
        drop(tree);
        let (dependent, delta) =
            tr.child(root, "core.exdpc_delta", |_, _| algo.dependent_points(data, &rho));
        tr.count(root, "rho_pairs", rho.iter().map(|r| r.floor()).sum());
        DpcModel::from_parts(
            algo.name(),
            params.dcut,
            rho,
            delta,
            dependent,
            FitTimings::default(),
            index_bytes,
        )
    })
}

/// One fit as one trace. Ex-DPC runs phase by phase ([`traced_exdpc`]);
/// Approx-DPC and S-Approx-DPC expose their phases only through the program's
/// own phase clock (`fit_timings`), recorded as measured child spans.
pub fn traced_fit(
    tr: &mut Tracer,
    algo: Algo,
    params: DpcParams,
    data: &Dataset,
) -> Result<DpcModel, DpcError> {
    let (root_name, rho_name, delta_name) = match algo {
        Algo::Ex => return traced_exdpc(tr, params, data),
        Algo::Approx => ("core.approx_fit", "core.approx_rho", "core.approx_delta"),
        Algo::SApprox => ("core.sapprox_fit", "core.sapprox_rho", "core.sapprox_delta"),
    };
    tr.root(root_name, |tr, root| {
        let model = algo.fit(params, data);
        if let Ok(m) = &model {
            let t = m.fit_timings();
            tr.measured_child(root, rho_name, 0.0, t.rho_secs);
            tr.measured_child(root, delta_name, t.rho_secs, t.delta_secs);
        }
        model
    })
}

impl Replay {
    /// Replays one client operation, returning the answer it reproduces.
    fn op(&mut self, tr: &mut Tracer, op: &Op) -> Result<Response, String> {
        match op {
            Op::Assign { point, far } => tr.root("serve.assign", |tr, root| {
                tr.count(root, "far", *far as u8 as f64);
                let snap = tr.child(root, "serve.snapshot_pin", |_, _| self.store.snapshot());
                let r = tr.child(root, "serve.classify", |_, _| classify(&snap, point));
                r.map(Response::Assign).map_err(|e| e.to_string())
            }),
            Op::Relabel(th) => tr.root("serve.relabel", |tr, root| {
                let snap = tr.child(root, "serve.snapshot_pin", |_, _| self.store.snapshot());
                let c = tr.child(root, "core.extract", |_, _| snap.model().extract(th));
                Ok(Response::Relabel(fast_dpc::serve::RelabelResponse {
                    epoch: snap.epoch(),
                    n: snap.n(),
                    thresholds: *th,
                    num_clusters: c.num_clusters(),
                    noise_count: c.noise_count(),
                    centers: c.centers,
                }))
            }),
            Op::Ingest { point, .. } => tr.root("serve.ingest", |tr, root| {
                let (id, expired) = tr.child(root, "core.stream_insert", |_, _| {
                    let id = self.engine.insert(point);
                    (id, self.engine.drain_expired().len())
                });
                let id = id.map_err(|e| e.to_string())?;
                self.since_publish += 1;
                let published = self.since_publish >= PUBLISH_EVERY;
                let epoch = if published {
                    self.since_publish = 0;
                    let parts =
                        tr.child(root, "core.stream_to_parts", |_, _| self.engine.to_parts());
                    let (data, _ids, model) = parts.map_err(|e| e.to_string())?;
                    let th = self.store.snapshot().thresholds();
                    let snap = tr.child(root, "serve.snapshot_build", |_, _| {
                        Snapshot::new(Arc::new(data), model, th, &Executor::single())
                    });
                    tr.child(root, "serve.install", |_, _| self.store.install(snap))
                } else {
                    self.store.epoch()
                };
                tr.count(root, "published", published as u8 as f64);
                Ok(Response::Ingest(fast_dpc::serve::IngestResponse {
                    epoch,
                    id,
                    n: self.engine.len(),
                    expired,
                    published,
                }))
            }),
        }
    }

    /// Cold load through persist: read the artifact, decode the snapshot.
    fn cold_load(&self, tr: &mut Tracer, saved: &Snapshot) -> Result<(), String> {
        tr.root("serve.open", |tr, root| {
            let bytes = tr.child(root, "persist.read", |_, _| read_artifact_file(&self.artifact));
            let bytes = bytes.map_err(|e| e.to_string())?;
            let snap =
                tr.child(root, "persist.decode", |_, _| Snapshot::from_artifact_bytes(&bytes));
            let snap = snap.map_err(|e| e.to_string())?;
            if snap.model().layout_eq(saved.model()) && snap.tree().layout_eq(saved.tree()) {
                Ok(())
            } else {
                Err("decoded snapshot differs from the saved epoch".to_string())
            }
        })
    }

    /// The replay's set-up, traced as one trace: the same steps as the untraced
    /// set-up (generation, window fit, streaming seed, save, warm-ups).
    fn setup(
        tr: &mut Tracer,
        spec: &Spec,
        seed: u64,
        state: &State,
        dir: &Path,
        checks: &mut Checks,
    ) -> Result<Replay, String> {
        let params = spec.params(THREADS);
        tr.root("setup", |tr, root| {
            let inputs = tr.child(root, "data.gen", |_, _| spec.split(spec.generate(seed), seed));
            let store = tr.child(root, "serve.window_fit", |_, _| {
                ModelStore::fit(
                    &ExDpc::new(params),
                    inputs.window.clone(),
                    spec.thresholds(),
                    &Executor::new(THREADS),
                )
            });
            let store = store.map_err(|e| e.to_string())?;
            let engine = tr.child(root, "core.stream_seed", |_, _| {
                let mut engine = StreamingDpc::new(params, inputs.window.dim())?
                    .with_window(spec.window, EXPIRY_BATCH);
                for (_, p) in inputs.window.iter() {
                    engine.insert(p)?;
                }
                engine.drain_expired();
                Ok::<_, DpcError>(engine)
            });
            let engine = engine.map_err(|e| e.to_string())?;
            let bytes =
                tr.child(root, "persist.encode", |_, _| store.snapshot().to_artifact_bytes());
            let artifact = dir.join("replay.dpca");
            tr.child(root, "persist.write", |_, _| write_artifact_file(&artifact, &bytes))
                .map_err(|e| e.to_string())?;
            let mut replay = Replay {
                store,
                engine,
                since_publish: 0,
                artifact,
                single_fits: Default::default(),
                single_rho: Samples::default(),
            };
            tr.child(root, "setup.warmup", |_, _| {
                for (k, algo) in Algo::ALL.into_iter().enumerate() {
                    checks.record(pipeline::check_fit(
                        algo,
                        algo.fit(params, &inputs.fit),
                        &state.refs[k],
                    ));
                }
                let mut stream = RequestStream::new(spec, seed);
                let mut scratch = Tracer::default();
                let mut expect = pipeline::Expect::new(spec.window);
                for _ in 0..WARMUP_REQUESTS {
                    let op = stream.next(&inputs);
                    let resp = replay.op(&mut scratch, &op);
                    checks.record(expect.check(&op, resp));
                }
                checks.record(replay.cold_load(&mut scratch, &state.saved));
            });
            Ok(replay)
        })
    }

    /// One round: every untraced operation of `pipeline::round` and its traced
    /// replay (plus, in the first rounds, the single-thread fits). Which of
    /// the two runs first alternates from one operation to the next: the
    /// second one finds the caches the first one warmed, and that advantage
    /// must not show up as tracing overhead or as dispatch time.
    fn round(
        &mut self,
        tr: &mut Tracer,
        spec: &Spec,
        state: &mut State,
        t: &mut Timings,
        checks: &mut Checks,
    ) {
        let mut traced_first = false;
        let mut flip = || {
            traced_first = !traced_first;
            traced_first
        };
        let data = &state.inputs.fit;
        for (k, algo) in Algo::ALL.into_iter().enumerate() {
            let first = flip();
            if !first {
                state.timed_fit(spec, k, t, checks);
            }
            let model = traced_fit(tr, algo, spec.params(THREADS), data);
            checks.record(pipeline::check_fit(algo, model, &state.refs[k]));
            if first {
                state.timed_fit(spec, k, t, checks);
            }
        }
        if self.single_rho.len() < SPEEDUP_SAMPLES {
            self.single_thread_fits(spec, state, checks);
        }
        state.warm_serving(checks);

        for _ in 0..spec.requests_per_round {
            let op = state.stream.next(&state.inputs);
            let (resp, replayed) = if flip() {
                let replayed = self.op(tr, &op);
                (state.timed_request(&op, t), replayed)
            } else {
                let resp = state.timed_request(&op, t);
                (resp, self.op(tr, &op))
            };
            checks.record(match (&resp, &replayed) {
                (Ok(a), Ok(b)) if a == b => Ok(()),
                _ => Err(format!("replayed {op:?} answered {replayed:?}, the server {resp:?}")),
            });
            checks.record(state.expect.check(&op, resp));
        }
        for _ in 0..COLD_LOADS_PER_ROUND {
            let first = flip();
            if !first {
                state.timed_cold_load(t, checks);
            }
            checks.record(self.cold_load(tr, &state.saved));
            if first {
                state.timed_cold_load(t, checks);
            }
            let bytes = tr.root("persist.encode", |_, _| state.saved.to_artifact_bytes());
            let same = std::fs::read(&state.artifact).is_ok_and(|file| file == bytes);
            checks.record(if same { Ok(()) } else { Err("re-encoded artifact differs".into()) });
        }
    }

    /// The single-thread baseline of the parallel speed-ups: each fit and the
    /// ρ phase alone on one worker, untraced.
    fn single_thread_fits(&mut self, spec: &Spec, state: &State, checks: &mut Checks) {
        let data = &state.inputs.fit;
        let single = spec.params(1);
        for (k, algo) in Algo::ALL.into_iter().enumerate() {
            let start = Instant::now();
            let model = algo.fit(single, data);
            self.single_fits[k].push(start.elapsed().as_secs_f64());
            checks.record(pipeline::check_fit(algo, model, &state.refs[k]));
        }
        let executor = Executor::new(THREADS);
        let tree = KdTree::build_parallel(data, &executor);
        let grid = Grid::build_parallel(data, spec.dcut / (data.dim() as f64).sqrt(), &executor);
        let start = Instant::now();
        let rho = ExDpc::new(single).local_densities_with_grid(data, &tree, &grid);
        self.single_rho.push(start.elapsed().as_secs_f64());
        let same = rho.iter().zip(state.refs[0].rho()).all(|(a, b)| a.to_bits() == b.to_bits());
        checks.record(if same { Ok(()) } else { Err("single-thread ρ differs".into()) });
    }
}

fn traced_complete(tr: &Tracer) -> bool {
    tr.self_samples("serve.classify", 1.0).supports(0.99) && far_classify(tr).supports(0.99)
}

fn far_classify(tr: &Tracer) -> Samples {
    let far: std::collections::HashSet<usize> = tr
        .spans()
        .iter()
        .filter(|s| s.name == "serve.assign" && s.count("far") == Some(1.0))
        .map(|s| s.trace)
        .collect();
    tr.filtered_self_samples("serve.classify", 1e6, |s| far.contains(&s.trace))
}

pub fn run(spec: &Spec, seed: u64, seconds: f64, dir: &Path) -> Result<(Report, Checks), String> {
    let run_start = Instant::now();
    let artifact = dir.join("snapshot.dpca");
    let mut checks = Checks::default();
    let mut t = Timings::default();
    let mut state = pipeline::setup(spec, seed, &artifact, &mut checks)?;
    t.setup.push(run_start.elapsed().as_secs_f64());
    let mut tr = Tracer::default();
    let mut replay = Replay::setup(&mut tr, spec, seed, &state, dir, &mut checks)?;
    let accuracy = pipeline::accuracy(spec, &state.refs);
    pipeline::accuracy_checks(accuracy.0, accuracy.1, &mut checks);

    let start = Instant::now();
    loop {
        replay.round(&mut tr, spec, &mut state, &mut t, &mut checks);
        if pipeline::rounds_done(start, seconds, t.complete() && traced_complete(&tr)) {
            break;
        }
    }
    if !(t.complete() && traced_complete(&tr)) {
        return Err("the traced run ended before every percentile had its samples".into());
    }
    checks.record(pipeline::check_streamed_epoch(spec, &state.server, &state.expect));
    let same_epoch = replay.store.snapshot().model().layout_eq(state.server.snapshot().model());
    checks.record(if same_epoch { Ok(()) } else { Err("replayed epoch differs".into()) });

    let untraced = pipeline::end_to_end(&t, accuracy, state.artifact_bytes, &checks);
    let report = per_layer(spec, &tr, &state, &t, &replay, &untraced);
    println!("spans (self time per span name):");
    print!("{}", tr.summary());
    let path = dir.parent().unwrap_or(dir).join(format!("trace-{}-seed{seed}.jsonl", spec.name));
    match std::fs::write(&path, tr.to_json_lines()) {
        Ok(()) => println!("spans written to {}", path.display()),
        Err(e) => eprintln!("cannot write spans to {}: {e}", path.display()),
    }
    Ok((report, checks))
}

/// Median over traces of `part / whole`, where `part` sums the durations of
/// the named children of each `root` span.
fn shares(tr: &Tracer, root: &str, parts: &[&str]) -> Samples {
    let mut out = Samples::default();
    for r in tr.spans().iter().filter(|s| s.name == root) {
        let part: u64 = tr
            .spans()
            .iter()
            .filter(|s| s.parent == Some(r.id) && parts.contains(&s.name))
            .map(|s| s.duration_ns())
            .sum();
        out.push(part as f64 / r.duration_ns().max(1) as f64);
    }
    out
}

fn per_layer(
    spec: &Spec,
    tr: &Tracer,
    state: &State,
    t: &Timings,
    replay: &Replay,
    untraced: &Report,
) -> Report {
    let mut r = Report::default();
    let med = |s: &Samples| s.median().unwrap_or(0.0);
    for (metric, span, unit) in [
        ("data.gen_ms", "data.gen", "ms"),
        ("index.kdtree_build_ms", "index.kdtree_build", "ms"),
        ("index.grid_build_ms", "index.grid_build", "ms"),
        ("index.query_buckets_ms", "index.query_buckets", "ms"),
        ("core.exdpc_rho_ms", "core.exdpc_rho", "ms"),
        ("core.exdpc_delta_ms", "core.exdpc_delta", "ms"),
        ("core.approx_rho_ms", "core.approx_rho", "ms"),
        ("core.approx_delta_ms", "core.approx_delta", "ms"),
        ("core.sapprox_rho_ms", "core.sapprox_rho", "ms"),
        ("core.sapprox_delta_ms", "core.sapprox_delta", "ms"),
        ("core.extract_ms", "core.extract", "ms"),
        ("core.stream_insert_us", "core.stream_insert", "us"),
        ("core.stream_to_parts_ms", "core.stream_to_parts", "ms"),
        ("serve.snapshot_build_ms", "serve.snapshot_build", "ms"),
        ("serve.install_us", "serve.install", "us"),
        ("persist.encode_ms", "persist.encode", "ms"),
        ("persist.decode_ms", "persist.decode", "ms"),
    ] {
        let s = tr.self_samples(span, if unit == "us" { 1e6 } else { 1e3 });
        r.add(metric, med(&s), unit, s.len());
    }
    let count = |key: &str| tr.last_count("core.exdpc_fit", key).unwrap_or(0.0);
    r.add("index.grid_cells", count("grid_cells"), "count", 1);
    r.add("index.bucket_count", count("bucket_count"), "count", 1);
    r.add("index.kdtree_mb", count("kdtree_bytes") / 1e6, "MB", 1);
    r.add("index.grid_mb", count("grid_bytes") / 1e6, "MB", 1);
    r.add("core.rho_pairs", count("rho_pairs"), "count", 1);
    let centers = state.refs[0].extract(&spec.thresholds()).centers.len();
    r.add("core.centers", centers as f64, "count", 1);

    for (k, algo) in Algo::ALL.into_iter().enumerate() {
        let single = &replay.single_fits[k];
        let speedup = med(single) / med(&t.fits[k]);
        r.add(format!("parallel.{}_speedup", algo.key()), speedup, "ratio", single.len());
    }
    let rho2 = tr.self_samples("core.exdpc_rho", 1.0);
    let speedup = med(&replay.single_rho) / med(&rho2);
    r.add("parallel.rho_speedup", speedup, "ratio", replay.single_rho.len());

    let classify = tr.self_samples("serve.classify", 1e6);
    let far = far_classify(tr);
    r.add("serve.classify_p50_us", med(&classify), "us", classify.len());
    r.add("serve.classify_p99_us", classify.percentile(0.99).unwrap_or(0.0), "us", classify.len());
    r.add("serve.classify_far_p99_us", far.percentile(0.99).unwrap_or(0.0), "us", far.len());
    let dispatch = untraced.get("assign_p50_us").unwrap_or(0.0) - med(&classify);
    r.add("serve.dispatch_us", dispatch, "us", t.assign_us.len());
    let saved = &state.saved;
    r.add("persist.model_mb", saved.model().to_bytes().len() as f64 / 1e6, "MB", 1);
    r.add("persist.tree_mb", saved.tree().to_bytes().len() as f64 / 1e6, "MB", 1);
    r.add("persist.data_mb", (saved.n() * saved.dim() * 8) as f64 / 1e6, "MB", 1);

    let rho_parts =
        ["index.kdtree_build", "index.grid_build", "index.query_buckets", "core.exdpc_rho"];
    for (algo, rho, delta) in [
        ("exdpc", &rho_parts[..], &["core.exdpc_delta"][..]),
        ("approx", &["core.approx_rho"][..], &["core.approx_delta"][..]),
        ("sapprox", &["core.sapprox_rho"][..], &["core.sapprox_delta"][..]),
    ] {
        let root = format!("core.{algo}_fit");
        let s = shares(tr, &root, rho);
        r.add(format!("core.{algo}_rho_share"), med(&s), "ratio", s.len());
        let s = shares(tr, &root, delta);
        r.add(format!("core.{algo}_delta_share"), med(&s), "ratio", s.len());
    }

    // Tracing overhead: traced figure minus the untraced one of this process.
    let all = |_: &crate::trace::Span| true;
    let published = |s: &crate::trace::Span| s.count("published") == Some(1.0);
    let ingest = tr.durations("serve.ingest", 1.0, all);
    let traced: [(&str, Option<f64>); 10] = [
        ("setup_s", tr.durations("setup", 1.0, all).median()),
        ("exdpc_fit_s", tr.durations("core.exdpc_fit", 1.0, all).median()),
        ("approx_fit_s", tr.durations("core.approx_fit", 1.0, all).median()),
        ("sapprox_fit_s", tr.durations("core.sapprox_fit", 1.0, all).median()),
        ("assign_p50_us", tr.durations("serve.assign", 1e6, all).median()),
        ("assign_p95_us", tr.durations("serve.assign", 1e6, all).percentile(0.95)),
        ("relabel_p50_ms", tr.durations("serve.relabel", 1e3, all).median()),
        ("ingest_pts_per_s", Some(ingest.len() as f64 / ingest.sum())),
        ("publish_p50_ms", tr.durations("serve.ingest", 1e3, published).median()),
        ("cold_load_ms", tr.durations("serve.open", 1e3, all).median()),
    ];
    for (metric, value) in traced {
        let unit = untraced.metrics.iter().find(|m| m.name == metric).map_or("", |m| m.unit);
        let base = untraced.get(metric).unwrap_or(0.0);
        r.add(format!("overhead.{metric}"), value.unwrap_or(base) - base, unit, 1);
    }
    r
}
