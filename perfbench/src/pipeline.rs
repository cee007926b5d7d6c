//! The untraced workload: set-up, the timed round loop and every correctness
//! gate. This is what the end-to-end metrics are measured on.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use fast_dpc::eval::rand_index;
use fast_dpc::prelude::*;

use crate::stats::{Report, Samples};
use crate::workload::{
    Inputs, Op, RequestStream, Spec, COLD_LOADS_PER_ROUND, EPSILON, EXPIRY_BATCH, PUBLISH_EVERY,
    RAND_INDEX_FLOOR, RHO_MIN, THREADS,
};

/// The three paper algorithms, fitted round-robin.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Algo {
    Ex,
    Approx,
    SApprox,
}

impl Algo {
    pub const ALL: [Algo; 3] = [Algo::Ex, Algo::Approx, Algo::SApprox];

    pub fn key(self) -> &'static str {
        match self {
            Algo::Ex => "exdpc",
            Algo::Approx => "approx",
            Algo::SApprox => "sapprox",
        }
    }

    pub fn fit(self, params: DpcParams, data: &Dataset) -> Result<DpcModel, DpcError> {
        match self {
            Algo::Ex => ExDpc::new(params).fit(data),
            Algo::Approx => ApproxDpc::new(params).fit(data),
            Algo::SApprox => SApproxDpc::new(params).with_epsilon(EPSILON).fit(data),
        }
    }
}

/// Client requests answered untimed during set-up (the warm-up of every
/// request kind; the timed stream continues where they stop).
pub const WARMUP_REQUESTS: usize = 1_000;
/// Set-up runs this many times per process; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 3;
/// Timed rounds stop once `--seconds` have passed and every reported figure
/// has its samples, but never later than this many seconds (a run must end
/// within three minutes, set-up included).
pub const ROUNDS_DEADLINE_S: f64 = 120.0;

/// Whether the timed rounds, started at `start`, are over.
pub fn rounds_done(start: Instant, seconds: f64, complete: bool) -> bool {
    let elapsed = start.elapsed().as_secs_f64();
    (elapsed >= seconds && complete) || elapsed >= seconds.max(ROUNDS_DEADLINE_S)
}

/// Pass/fail tally of every operation; failures are printed as they happen.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
}

impl Checks {
    pub fn record(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = outcome {
            self.failed += 1;
            if self.failed <= 20 {
                eprintln!("CHECK FAILED: {why}");
            }
        }
    }

    pub fn frac_ok(&self) -> f64 {
        (self.attempted - self.failed) as f64 / self.attempted.max(1) as f64
    }
}

/// What the server's answers must satisfy, tracked across the stream.
#[derive(Debug)]
pub struct Expect {
    pub epoch: u64,
    /// Window size of the served epoch.
    pub served_n: usize,
    pub ingests: usize,
    /// Stable id of the last ingest that published, if any.
    pub last_published_id: Option<u64>,
}

impl Expect {
    pub fn new(window: usize) -> Self {
        Self { epoch: 1, served_n: window, ingests: 0, last_published_id: None }
    }

    fn advance_epoch(&mut self, epoch: u64) -> Result<(), String> {
        if epoch < self.epoch {
            return Err(format!("epoch went backwards: {epoch} after {}", self.epoch));
        }
        self.epoch = epoch;
        Ok(())
    }

    /// Checks one answer against the request that produced it.
    pub fn check(&mut self, op: &Op, resp: Result<Response, String>) -> Result<(), String> {
        let resp = resp.map_err(|e| format!("{op:?} failed: {e}"))?;
        match (op, resp) {
            (Op::Assign { .. }, Response::Assign(r)) => {
                self.advance_epoch(r.epoch)?;
                let dep_ok = r.dependent.is_none_or(|d| d < r.n);
                if r.n != self.served_n
                    || !dep_ok
                    || r.label < NOISE
                    || r.rho.is_nan()
                    || r.rho <= 0.0
                {
                    return Err(format!("implausible Assign answer {r:?}"));
                }
            }
            (Op::Relabel(th), Response::Relabel(r)) => {
                self.advance_epoch(r.epoch)?;
                let ascending = r.centers.windows(2).all(|w| w[0] < w[1]);
                let in_range = r.centers.last().is_none_or(|&c| c < r.n);
                if r.n != self.served_n
                    || r.thresholds != *th
                    || r.centers.len() != r.num_clusters
                    || !ascending
                    || !in_range
                {
                    return Err(format!("implausible Relabel answer for {th:?}"));
                }
            }
            (Op::Ingest { id, n, expired, .. }, Response::Ingest(r)) => {
                self.ingests += 1;
                let publishes = self.ingests.is_multiple_of(PUBLISH_EVERY);
                if r.id != *id || r.n != *n || r.expired != *expired || r.published != publishes {
                    return Err(format!(
                        "Ingest broke the window rule: got id {} n {} expired {} published {}, \
                         expected {id} {n} {expired} {publishes}",
                        r.id, r.n, r.expired, r.published
                    ));
                }
                if r.published {
                    if r.epoch != self.epoch + 1 {
                        return Err(format!(
                            "publish installed epoch {} after {}",
                            r.epoch, self.epoch
                        ));
                    }
                    self.served_n = r.n;
                    self.last_published_id = Some(r.id);
                }
                self.advance_epoch(r.epoch)?;
            }
            (op, other) => return Err(format!("{op:?} answered with {other:?}")),
        }
        Ok(())
    }
}

/// The request form of an operation.
pub fn request(op: &Op) -> Request {
    match op {
        Op::Assign { point, .. } => Request::Assign(point.clone()),
        Op::Relabel(th) => Request::Relabel(*th),
        Op::Ingest { point, .. } => Request::Ingest(point.clone()),
    }
}

/// Everything the timed loop needs, built by one set-up.
pub struct State {
    pub inputs: Inputs,
    pub server: DpcServer,
    /// The epoch written to the artifact, kept to check cold loads against.
    pub saved: Arc<Snapshot>,
    pub artifact: PathBuf,
    pub artifact_bytes: u64,
    /// Each algorithm's first model; every later fit must equal it bitwise.
    pub refs: Vec<DpcModel>,
    pub stream: RequestStream,
    pub expect: Expect,
}

/// One set-up: generate the inputs, fit and seed the streaming server, save
/// the snapshot artifact, and warm up every timed operation once.
pub fn setup(
    spec: &Spec,
    seed: u64,
    artifact: &Path,
    checks: &mut Checks,
) -> Result<State, String> {
    let inputs = spec.split(spec.generate(seed), seed);
    let executor = Executor::new(THREADS);
    let params = spec.params(THREADS);
    let server =
        DpcServer::fit(&ExDpc::new(params), inputs.window.clone(), spec.thresholds(), &executor)
            .map_err(|e| format!("fitting the serving window failed: {e}"))?
            .with_streaming(params, Some((spec.window, EXPIRY_BATCH)), PUBLISH_EVERY)
            .map_err(|e| format!("seeding the streaming engine failed: {e}"))?;
    server.store().save(artifact).map_err(|e| format!("saving the snapshot failed: {e}"))?;
    let artifact_bytes = std::fs::metadata(artifact).map_err(|e| e.to_string())?.len();
    let saved = server.snapshot();

    let mut refs = Vec::new();
    for algo in Algo::ALL {
        refs.push(algo.fit(params, &inputs.fit).map_err(|e| format!("{algo:?} fit failed: {e}"))?);
    }
    let mut stream = RequestStream::new(spec, seed);
    let mut expect = Expect::new(spec.window);
    for _ in 0..WARMUP_REQUESTS {
        let op = stream.next(&inputs);
        let resp = server.handle(&request(&op)).map_err(|e| e.to_string());
        checks.record(expect.check(&op, resp));
    }
    checks.record(cold_load_check(artifact, &saved, &inputs).map(|_| ()));
    let artifact = artifact.to_path_buf();
    Ok(State { inputs, server, saved, artifact, artifact_bytes, refs, stream, expect })
}

/// Fixed probes a cold-loaded server must answer exactly like the saved epoch.
pub fn probe_battery(inputs: &Inputs, dcut: f64) -> Vec<Request> {
    let w = &inputs.window;
    let mut probes: Vec<Request> = (0..8)
        .map(|k| {
            let p = w.point(k * (w.len() / 8));
            Request::Assign(p.iter().map(|&c| c + 0.25 * dcut).collect())
        })
        .collect();
    probes.push(Request::Assign(w.point(w.len() / 3).to_vec()));
    probes.push(Request::Assign(inputs.hi.clone()));
    for factor in [2.0, 3.0, 5.0] {
        probes.push(Request::Relabel(
            Thresholds::new(RHO_MIN, factor * dcut).expect("valid thresholds"),
        ));
    }
    probes
}

fn without_epoch(resp: Response) -> Response {
    match resp {
        Response::Assign(mut r) => {
            r.epoch = 0;
            Response::Assign(r)
        }
        Response::Relabel(mut r) => {
            r.epoch = 0;
            Response::Relabel(r)
        }
        other => other,
    }
}

/// Opens the artifact and checks the probe battery against the saved epoch.
/// Returns the open time in seconds.
pub fn cold_load_check(artifact: &Path, saved: &Snapshot, inputs: &Inputs) -> Result<f64, String> {
    let start = Instant::now();
    let cold = DpcServer::open(artifact).map_err(|e| format!("cold load failed: {e}"))?;
    let secs = start.elapsed().as_secs_f64();
    for probe in probe_battery(inputs, saved.dcut()) {
        let live = DpcServer::handle_on(saved, &probe).map(without_epoch);
        let loaded = cold.handle(&probe).map(without_epoch);
        match (live, loaded) {
            (Ok(a), Ok(b)) if a == b => {}
            (a, b) => {
                return Err(format!("cold-loaded answer differs for {probe:?}: {a:?} vs {b:?}"))
            }
        }
    }
    Ok(secs)
}

/// Checks a model against its algorithm's reference.
pub fn check_fit(
    algo: Algo,
    model: Result<DpcModel, DpcError>,
    reference: &DpcModel,
) -> Result<(), String> {
    let model = model.map_err(|e| format!("{algo:?} fit failed: {e}"))?;
    if !model.layout_eq(reference) {
        return Err(format!("{algo:?} fit differs from the first repetition"));
    }
    Ok(())
}

/// Theorem 4 and Table 4 on the reference models: the share of Ex-DPC's
/// centres Approx-DPC also returns, and S-Approx-DPC's Rand index against
/// Ex-DPC, both at the default thresholds.
pub fn accuracy(spec: &Spec, refs: &[DpcModel]) -> (f64, f64) {
    let th = spec.thresholds();
    let exact = refs[0].extract(&th);
    let approx = refs[1].extract(&th);
    let sampled = refs[2].extract(&th);
    let kept = exact.centers.iter().filter(|c| approx.centers.binary_search(c).is_ok()).count();
    let center_match = kept as f64 / exact.centers.len().max(1) as f64;
    (center_match, rand_index(sampled.labels(), exact.labels()))
}

pub fn accuracy_checks(center_match: f64, rand: f64, checks: &mut Checks) {
    checks.record(if center_match == 1.0 {
        Ok(())
    } else {
        Err(format!("Theorem 4 violated: Approx-DPC kept {center_match} of Ex-DPC's centres"))
    });
    checks.record(if rand >= RAND_INDEX_FLOOR {
        Ok(())
    } else {
        Err(format!("S-Approx-DPC Rand index {rand} below the floor {RAND_INDEX_FLOOR}"))
    });
}

/// The streaming contract on the last published epoch: its ρ and δ equal
/// a fresh `ExDpc::fit_keyed` of its window bit for bit, and so do the
/// centres and labels at the default thresholds.
pub fn check_streamed_epoch(
    spec: &Spec,
    server: &DpcServer,
    expect: &Expect,
) -> Result<(), String> {
    let snapshot = server.snapshot();
    let n = snapshot.n() as u64;
    let first = expect.last_published_id.map_or(0, |id| id + 1 - n);
    let ids: Vec<u64> = (first..first + n).collect();
    let fresh = ExDpc::new(spec.params(THREADS))
        .fit_keyed(snapshot.data(), &ids)
        .map_err(|e| format!("keyed refit failed: {e}"))?;
    let served = snapshot.model();
    let same_bits = |a: &[f64], b: &[f64]| a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits());
    if !same_bits(served.rho(), fresh.rho()) || !same_bits(served.delta(), fresh.delta()) {
        return Err("streamed epoch's ρ/δ differ from a keyed refit of its window".into());
    }
    let th = spec.thresholds();
    let (a, b) = (served.extract(&th), fresh.extract(&th));
    if a.centers != b.centers || a.labels() != b.labels() {
        return Err("streamed epoch's clustering differs from a keyed refit".into());
    }
    Ok(())
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib * 1024.0 / 1e6)
}

/// Timed samples of the untraced run.
#[derive(Default)]
pub struct Timings {
    pub setup: Samples,
    pub fits: [Samples; 3],
    pub assign_us: Samples,
    pub relabel_ms: Samples,
    pub ingest_s: Samples,
    pub publish_ms: Samples,
    pub cold_ms: Samples,
}

impl Timings {
    /// Whether every reported percentile has its samples.
    pub fn complete(&self) -> bool {
        self.fits.iter().all(|f| f.len() >= 3)
            && self.assign_us.supports(0.95)
            && !self.relabel_ms.is_empty()
            && !self.publish_ms.is_empty()
            && self.cold_ms.len() >= 3
    }
}

impl State {
    /// Sends the probe battery untimed. The fits that precede every request
    /// block evict the serving state from the caches; without this the first
    /// requests after them measure the co-located fits rather than serving.
    pub fn warm_serving(&self, checks: &mut Checks) {
        for probe in probe_battery(&self.inputs, self.saved.dcut()) {
            checks.record(self.server.handle(&probe).map(|_| ()).map_err(|e| e.to_string()));
        }
    }

    /// Times algorithm `k`'s fit and checks it against the reference.
    pub fn timed_fit(&self, spec: &Spec, k: usize, t: &mut Timings, checks: &mut Checks) {
        let algo = Algo::ALL[k];
        let start = Instant::now();
        let model = algo.fit(spec.params(THREADS), &self.inputs.fit);
        t.fits[k].push(start.elapsed().as_secs_f64());
        checks.record(check_fit(algo, model, &self.refs[k]));
    }

    /// Sends one request to the server and times it by kind.
    pub fn timed_request(&self, op: &Op, t: &mut Timings) -> Result<Response, String> {
        let req = request(op);
        let start = Instant::now();
        let resp = self.server.handle(&req).map_err(|e| e.to_string());
        let secs = start.elapsed().as_secs_f64();
        match (op, &resp) {
            (Op::Assign { .. }, _) => t.assign_us.push(secs * 1e6),
            (Op::Relabel(_), _) => t.relabel_ms.push(secs * 1e3),
            (Op::Ingest { .. }, Ok(Response::Ingest(r))) => {
                t.ingest_s.push(secs);
                if r.published {
                    t.publish_ms.push(secs * 1e3);
                }
            }
            (Op::Ingest { .. }, _) => t.ingest_s.push(secs),
        }
        resp
    }

    /// Times one cold load of the saved artifact and checks its answers.
    pub fn timed_cold_load(&self, t: &mut Timings, checks: &mut Checks) {
        let outcome = cold_load_check(&self.artifact, &self.saved, &self.inputs);
        if let Ok(secs) = outcome {
            t.cold_ms.push(secs * 1e3);
        }
        checks.record(outcome.map(|_| ()));
    }
}

/// Runs one timed round: the three fits, the client's requests, cold loads.
pub fn round(spec: &Spec, state: &mut State, t: &mut Timings, checks: &mut Checks) {
    for k in 0..Algo::ALL.len() {
        state.timed_fit(spec, k, t, checks);
    }
    state.warm_serving(checks);
    for _ in 0..spec.requests_per_round {
        let op = state.stream.next(&state.inputs);
        let resp = state.timed_request(&op, t);
        checks.record(state.expect.check(&op, resp));
    }
    for _ in 0..COLD_LOADS_PER_ROUND {
        state.timed_cold_load(t, checks);
    }
}

/// The end-to-end metrics of the untraced run, in `BENCHMARK.json` order.
pub fn end_to_end(
    t: &Timings,
    accuracy: (f64, f64),
    artifact_bytes: u64,
    checks: &Checks,
) -> Report {
    let mut r = Report::default();
    let med = |s: &Samples| s.median().expect("every timed figure has samples");
    let pct = |s: &Samples, p| s.percentile(p).expect("the loop ran until percentiles had samples");
    r.add("setup_s", med(&t.setup), "s", t.setup.len());
    for (k, algo) in Algo::ALL.into_iter().enumerate() {
        let name = format!("{}_fit_s", algo.key());
        r.add(name, med(&t.fits[k]), "s", t.fits[k].len());
    }
    r.add("approx_center_match", accuracy.0, "ratio", 1);
    r.add("sapprox_rand_index", accuracy.1, "ratio", 1);
    r.add("assign_p50_us", med(&t.assign_us), "us", t.assign_us.len());
    r.add("assign_p95_us", pct(&t.assign_us, 0.95), "us", t.assign_us.len());
    r.add("relabel_p50_ms", med(&t.relabel_ms), "ms", t.relabel_ms.len());
    r.add("ingest_pts_per_s", t.ingest_s.len() as f64 / t.ingest_s.sum(), "1/s", t.ingest_s.len());
    r.add("publish_p50_ms", med(&t.publish_ms), "ms", t.publish_ms.len());
    r.add("cold_load_ms", med(&t.cold_ms), "ms", t.cold_ms.len());
    r.add("artifact_mb", artifact_bytes as f64 / 1e6, "MB", 1);
    r.add("peak_rss_mb", peak_rss_mb(), "MB", 1);
    r.add("success_frac", checks.frac_ok(), "ratio", checks.attempted as usize);
    r
}

/// A private scratch directory for the run's artifact, inside the benchmark's
/// own directory of the checkout. Removed when the run ends.
pub fn run_dir(workload: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join(".run")
        .join(format!("{workload}-{}", std::process::id()))
}
