//! Failure-injection and degenerate-input tests across the public API: the
//! library must behave predictably — returning `DpcError`s, never panicking —
//! on empty data, single points, duplicate points, extreme parameters and
//! pathological geometry.

use fast_dpc::baselines::{CfsfdpA, Dbscan, LshDdp, RtreeScan, Scan};
use fast_dpc::data::real::RealDataset;
use fast_dpc::prelude::*;

fn algorithms(params: DpcParams) -> Vec<Box<dyn DpcAlgorithm>> {
    vec![
        Box::new(Scan::new(params)),
        Box::new(RtreeScan::new(params)),
        Box::new(LshDdp::new(params)),
        Box::new(CfsfdpA::new(params)),
        Box::new(ExDpc::new(params)),
        Box::new(ApproxDpc::new(params)),
        Box::new(SApproxDpc::new(params).with_epsilon(0.9)),
    ]
}

#[test]
fn empty_dataset_yields_an_error_everywhere() {
    let params = DpcParams::new(1.0);
    for algo in algorithms(params) {
        let err = algo.fit(&Dataset::new(2)).unwrap_err();
        assert_eq!(err, DpcError::EmptyDataset, "{}", algo.name());
    }
    // DBSCAN is not a DpcAlgorithm; empty input stays empty output there.
    assert!(Dbscan::new(1.0, 2).run(&Dataset::new(2)).is_empty());
}

#[test]
fn invalid_dcut_yields_an_error_everywhere() {
    let data = Dataset::from_flat(2, vec![0.0, 0.0, 1.0, 1.0]);
    for bad in [0.0, -1.0, f64::NAN] {
        for algo in algorithms(DpcParams::new(bad)) {
            let err = algo.fit(&data).unwrap_err();
            assert!(
                matches!(err, DpcError::InvalidParams { param: "d_cut", .. }),
                "{} with d_cut {bad}: {err:?}",
                algo.name()
            );
        }
    }
}

#[test]
fn single_point_is_its_own_cluster() {
    let params = DpcParams::new(5.0);
    let thresholds = Thresholds::for_dcut(5.0);
    let data = Dataset::from_flat(3, vec![1.0, 2.0, 3.0]);
    for algo in algorithms(params) {
        let model = algo.fit(&data).unwrap();
        let c = model.extract(&thresholds);
        assert_eq!(c.len(), 1, "{}", algo.name());
        assert_eq!(c.num_clusters(), 1, "{}", algo.name());
        assert!(model.delta()[0].is_infinite(), "{}", algo.name());
        assert_eq!(c.assignment[0], 0, "{}", algo.name());
    }
}

#[test]
fn all_identical_points_form_one_cluster() {
    let params = DpcParams::new(0.5);
    let thresholds = Thresholds::for_dcut(0.5);
    let data = Dataset::from_flat(2, vec![7.0; 40]);
    for algo in algorithms(params) {
        let c = algo.run(&data, &thresholds).unwrap();
        assert_eq!(c.num_clusters(), 1, "{}", algo.name());
        assert!(c.assignment.iter().all(|&l| l == 0), "{}", algo.name());
    }
}

#[test]
fn collinear_points_do_not_break_the_indexes() {
    // Degenerate geometry: all points on a line (zero extent in one dimension).
    let mut data = Dataset::new(2);
    for i in 0..500 {
        data.push(&[i as f64, 42.0]);
    }
    let params = DpcParams::new(3.0);
    let thresholds = Thresholds::new(1.0, 10.0).unwrap();
    let exact = ExDpc::new(params).run(&data, &thresholds).unwrap();
    for algo in algorithms(params) {
        let c = algo.run(&data, &thresholds).unwrap();
        assert_eq!(c.len(), data.len(), "{}", algo.name());
        // Exact algorithms must agree with Ex-DPC even here.
        if matches!(algo.name(), "Scan" | "R-tree + Scan" | "CFSFDP-A") {
            assert_eq!(c.assignment, exact.assignment, "{}", algo.name());
        }
    }
}

#[test]
fn huge_rho_min_marks_everything_as_noise() {
    let data = gaussian_blobs(&[(0.0, 0.0)], 200, 2.0, 3);
    let params = DpcParams::new(5.0);
    let thresholds = Thresholds::new(1e9, 20.0).unwrap();
    for algo in algorithms(params) {
        let c = algo.run(&data, &thresholds).unwrap();
        assert_eq!(c.num_clusters(), 0, "{}", algo.name());
        assert_eq!(c.noise_count(), data.len(), "{}", algo.name());
    }
}

#[test]
fn tiny_dcut_degenerates_gracefully() {
    // d_cut so small that every local density is zero: every point's δ is its
    // nearest-neighbour distance and the centre threshold decides everything.
    let data = gaussian_blobs(&[(0.0, 0.0), (50.0, 50.0)], 50, 1.0, 7);
    let params = DpcParams::new(1e-6);
    let thresholds = Thresholds::new(0.0, 2e-6).unwrap();
    let exact = ExDpc::new(params).fit(&data).unwrap();
    let approx = ApproxDpc::new(params).fit(&data).unwrap();
    assert_eq!(exact.rho(), approx.rho());
    assert!(exact.rho().iter().all(|&r| r < 1.0), "all counts must be zero");
    assert_eq!(exact.extract(&thresholds).centers, approx.extract(&thresholds).centers);
}

#[test]
fn huge_dcut_puts_everything_in_one_ball() {
    // d_cut larger than the diameter: ρ = n − 1 for every point, one cluster.
    let data = gaussian_blobs(&[(0.0, 0.0), (10.0, 10.0)], 100, 1.0, 9);
    let params = DpcParams::new(1e6);
    let thresholds = Thresholds::new(0.0, 2e6).unwrap();
    for algo in algorithms(params) {
        let model = algo.fit(&data).unwrap();
        assert_eq!(model.extract(&thresholds).num_clusters(), 1, "{}", algo.name());
        assert!(
            model.rho().iter().all(|&r| (r - (data.len() as f64 - 1.0)).abs() < 1.0),
            "{}: densities should all be n-1",
            algo.name()
        );
    }
}

#[test]
fn extreme_epsilon_values_for_sapprox() {
    let data = gaussian_blobs(&[(0.0, 0.0), (100.0, 100.0)], 200, 3.0, 4);
    let params = DpcParams::new(8.0);
    let thresholds = Thresholds::new(3.0, 40.0).unwrap();
    // Very fine grid (≈ one point per cell) and very coarse grid.
    for eps in [0.05, 4.0] {
        let c = SApproxDpc::new(params).with_epsilon(eps).run(&data, &thresholds).unwrap();
        assert_eq!(c.len(), data.len(), "eps = {eps}");
        assert!(c.num_clusters() >= 1, "eps = {eps}");
    }
}

#[test]
fn high_dimensional_surrogate_still_works() {
    // The 8-d Sensor surrogate stresses the kd-tree pruning and the grid's
    // neighbour enumeration (3^8 probes) — make sure nothing blows up and the
    // approximation stays close to exact.
    let data = RealDataset::Sensor.generate_with(1_500, 6);
    let dcut = RealDataset::Sensor.default_dcut();
    let params = DpcParams::new(dcut);
    let thresholds = Thresholds::new(3.0, 3.0 * dcut).unwrap();
    let exact = ExDpc::new(params).run(&data, &thresholds).unwrap();
    let approx = ApproxDpc::new(params).run(&data, &thresholds).unwrap();
    assert_eq!(exact.centers, approx.centers);
    assert!(rand_index(approx.labels(), exact.labels()) > 0.95);
}

#[test]
fn dbscan_degenerate_parameters() {
    let data = gaussian_blobs(&[(0.0, 0.0)], 100, 2.0, 2);
    // minPts = 1: every point is a core point → one cluster per connected blob.
    let labels = Dbscan::new(5.0, 1).run(&data);
    assert!(Dbscan::num_clusters(&labels) >= 1);
    assert!(labels.iter().all(|&l| l >= 0));
    // Huge minPts: everything is noise.
    let labels = Dbscan::new(5.0, 10_000).run(&data);
    assert!(labels.iter().all(|&l| l == -1));
}

// ---------------------------------------------------------------------------
// Serve-layer chaos suite
//
// Everything below drives the *serving* stack (DpcServer / ModelStore /
// refit_supervised) under seeded fault schedules: failing fits, panicking
// fits, panicking handlers, slow paths and corrupted client requests, all at
// once, under 8-way concurrent churn. The properties asserted:
//
//   1. zero escaped panics — every thread joins Ok;
//   2. every response is well-formed — its fields are internally consistent
//      with exactly one fitted dataset family (no torn snapshots);
//   3. per-reader epoch monotonicity — absent pinning, no reader ever sees
//      an older epoch after a newer one;
//   4. accurate degraded-state accounting — Health's counters match the
//      injected failures exactly;
//   5. recovery — one successful refit after the storm returns Healthy.
//
// Every run prints its seed; re-running with CHAOS_SEED=<seed> replays the
// identical fault schedule (the schedule is a pure function of the seed, not
// of thread interleaving).
// ---------------------------------------------------------------------------

mod serve_chaos {
    use fast_dpc::prelude::*;
    use fast_dpc::serve::faults::{FaultInjector, FaultPlan, FaultPoint, FaultyAlgorithm};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    use std::time::Duration;

    const DCUT: f64 = 4.0;
    /// Dataset families the writers cycle through. Family `f` has `f + 1`
    /// blobs and a unique cardinality, so any response can be attributed to
    /// exactly one family by its `n` — a torn snapshot (fields from two
    /// epochs) would mismatch.
    fn families() -> std::ops::RangeInclusive<usize> {
        1..=3
    }

    fn family_dataset(f: usize) -> Dataset {
        let centers: Vec<(f64, f64)> =
            (0..=f).map(|b| (200.0 * b as f64, 150.0 * (b % 2) as f64)).collect();
        gaussian_blobs(&centers, 30 + 5 * f, 2.0, f as u64)
    }

    /// `n → expected cluster count` for every family.
    fn expectation_table() -> std::collections::HashMap<usize, usize> {
        families().map(|f| (family_dataset(f).len(), f + 1)).collect()
    }

    fn thresholds() -> Thresholds {
        // δ_min = 100: every blob centre qualifies (inter-blob distance ≥ 150),
        // nothing else does.
        Thresholds::new(2.0, 100.0).unwrap()
    }

    /// One full chaos run at the given injection rate: 2 supervised writers +
    /// 6 readers (8-way churn) against one server, every fault point armed,
    /// then disarm → one clean refit → Healthy.
    /// Injected panics are expected and always caught (by the refit
    /// supervisor or the per-request bracket); keep them from spraying
    /// backtraces over the test output while letting any *unexpected* panic
    /// print as usual.
    fn silence_injected_panics() {
        static ONCE: std::sync::Once = std::sync::Once::new();
        ONCE.call_once(|| {
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
        });
    }

    fn chaos_run(seed: u64, rate: f64, writer_rounds: usize) {
        silence_injected_panics();
        println!("chaos seed {seed} rate {rate} (replay: CHAOS_SEED={seed})");
        let plan = FaultPlan::new(seed)
            .with_uniform_rate(rate)
            .with_slow_fit(Duration::from_millis(1))
            .with_slow_request(Duration::from_millis(1));
        let faults = FaultInjector::shared(plan);
        let table = expectation_table();

        let executor = Executor::single();
        let server = DpcServer::fit(
            &ExDpc::new(DpcParams::new(DCUT)),
            family_dataset(1),
            thresholds(),
            &executor,
        )
        .unwrap()
        .with_faults(Arc::clone(&faults));
        let server = &server;
        let table = &table;
        let faults_ref = &faults;

        let writers_done = AtomicBool::new(false);
        let writers_done = &writers_done;
        let policy = RefitPolicy::default()
            .with_max_attempts(2)
            .with_backoff(Duration::from_micros(50), Duration::from_micros(200))
            .with_backoff_seed(seed);
        let policy = &policy;

        std::thread::scope(|scope| {
            let mut handles = Vec::new();
            // Two writers churn supervised refits through the faulty fit path.
            for w in 0..2usize {
                handles.push(scope.spawn(move || {
                    let algo = FaultyAlgorithm::new(
                        ExDpc::new(DpcParams::new(DCUT)),
                        Arc::clone(faults_ref),
                    );
                    for round in 0..writer_rounds {
                        let f = families().nth((round + w) % families().count()).unwrap();
                        match server.store().refit_supervised(
                            &algo,
                            family_dataset(f),
                            thresholds(),
                            &Executor::single(),
                            policy,
                        ) {
                            Ok(_epoch) => {}
                            // The only acceptable failures are the injected
                            // ones, converted at the supervision boundary.
                            Err(DpcError::Internal { what }) => assert!(
                                what == "injected fit failure" || what == "fit panicked",
                                "unexpected refit failure: {what}"
                            ),
                            Err(other) => panic!("unexpected refit error: {other:?}"),
                        }
                    }
                }));
            }
            // Six readers hammer the full request mix.
            for r in 0..6usize {
                handles.push(scope.spawn(move || {
                    let mut newest_epoch = 0u64;
                    let mut iters = 0usize;
                    loop {
                        let done = writers_done.load(Ordering::Acquire);
                        for variant in 0..4usize {
                            let corrupted = matches!((variant + r) % 4, 1)
                                && faults_ref.fires(FaultPoint::CorruptThresholds);
                            let request = match (variant + r) % 4 {
                                0 => Request::Stats,
                                1 if corrupted => {
                                    // A malicious client: NaN/negative fields
                                    // built by struct literal, bypassing
                                    // Thresholds::new.
                                    Request::Relabel(Thresholds {
                                        rho_min: f64::NAN,
                                        delta_min: -1.0,
                                    })
                                }
                                1 => Request::Relabel(thresholds()),
                                2 => Request::Assign(vec![1.0 + 0.1 * r as f64, -1.0]),
                                _ => Request::Health,
                            };
                            match server.handle(&request) {
                                Ok(response) => {
                                    assert!(!corrupted, "corrupted thresholds must not succeed");
                                    check_well_formed(&response, table);
                                    let epoch = response.epoch();
                                    assert!(
                                        epoch >= newest_epoch,
                                        "epoch went backwards: {epoch} after {newest_epoch}"
                                    );
                                    newest_epoch = epoch;
                                }
                                Err(ServeError::Dpc(DpcError::InvalidThresholds { .. })) => {
                                    assert!(corrupted, "spurious threshold rejection");
                                }
                                Err(ServeError::HandlerPanic { payload }) => {
                                    assert_eq!(payload, "injected request panic");
                                }
                                Err(other) => panic!("unexpected serve error: {other:?}"),
                            }
                        }
                        iters += 1;
                        if done && iters >= 50 {
                            break;
                        }
                    }
                }));
            }
            let writers: Vec<_> = handles.drain(0..2).collect();
            for writer in writers {
                writer.join().expect("a writer panicked outward");
            }
            writers_done.store(true, Ordering::Release);
            for reader in handles {
                reader.join().expect("a reader panicked outward");
            }
        });

        // Storm over: one clean supervised refit must restore Healthy.
        faults.disarm();
        let clean = FaultyAlgorithm::new(ExDpc::new(DpcParams::new(DCUT)), Arc::clone(&faults));
        let before = server.epoch();
        let epoch = server
            .store()
            .refit_supervised(&clean, family_dataset(2), thresholds(), &Executor::single(), policy)
            .expect("the post-storm refit must succeed");
        assert_eq!(epoch, before + 1);
        let Ok(Response::Health(health)) = server.handle(&Request::Health) else {
            panic!("Health must always answer")
        };
        assert_eq!(health.health, Health::Healthy, "one good refit ends the degradation");
        assert_eq!(health.epoch, epoch);
        // The panic counter equals exactly the injected request panics.
        let (_, fired_panics) = faults.stats(FaultPoint::RequestPanic);
        assert_eq!(health.counters.panicked, fired_panics);
        for point in [FaultPoint::FitError, FaultPoint::FitPanic, FaultPoint::RequestPanic] {
            let (arrivals, fired) = faults.stats(point);
            println!("  {point:?}: {fired}/{arrivals} fired");
        }
    }

    /// A response is well-formed iff every field is consistent with exactly
    /// one dataset family (keyed by its unique `n`).
    fn check_well_formed(response: &Response, table: &std::collections::HashMap<usize, usize>) {
        let clusters_for = |n: usize| -> usize {
            *table.get(&n).unwrap_or_else(|| panic!("response from unknown dataset n={n}"))
        };
        match response {
            Response::Stats(s) => {
                assert_eq!(s.num_clusters, clusters_for(s.n), "torn Stats");
                assert_eq!(s.dim, 2);
                assert_eq!(s.dcut, DCUT);
            }
            Response::Relabel(r) => {
                let clusters = clusters_for(r.n);
                assert_eq!(r.num_clusters, clusters, "torn Relabel");
                assert_eq!(r.centers.len(), clusters);
            }
            Response::Assign(a) => {
                let clusters = clusters_for(a.n);
                // The probe sits in blob 0, present in every family: dense,
                // never noise, labelled within the family's cluster range.
                assert!(a.rho >= 2.0, "blob-core query read a torn tree");
                if let Some(dep) = a.dependent {
                    assert!(dep < a.n, "dependent id from another epoch");
                    assert!(a.label < clusters as i64, "label outside the family's clusters");
                }
            }
            Response::Health(h) => {
                // Counters only grow and stay internally consistent.
                assert!(h.counters.admitted >= h.counters.timed_out + h.counters.panicked);
            }
            Response::Ingest(_) => {
                unreachable!("chaos readers never send Ingest; the ingest storm has its own test")
            }
        }
    }

    #[test]
    fn serve_chaos_fixed_seed_rate_1pct() {
        chaos_run(0xC0FFEE01, 0.01, 8);
    }

    #[test]
    fn serve_chaos_fixed_seed_rate_10pct() {
        chaos_run(0xC0FFEE10, 0.10, 8);
    }

    #[test]
    fn serve_chaos_fixed_seed_rate_50pct() {
        chaos_run(0xC0FFEE50, 0.50, 8);
    }

    /// CI's randomized leg: the seed comes from `CHAOS_SEED` when set (the
    /// replay path) and from the wall clock otherwise; either way it is
    /// printed, so any failure is reproducible verbatim.
    #[test]
    fn serve_chaos_randomized_seed() {
        let seed = match std::env::var("CHAOS_SEED") {
            Ok(s) => s.parse::<u64>().unwrap_or_else(|_| panic!("CHAOS_SEED={s} is not a u64")),
            Err(_) => {
                std::time::SystemTime::now()
                    .duration_since(std::time::UNIX_EPOCH)
                    .expect("clock before 1970")
                    .subsec_nanos() as u64
                    ^ 0x5EED_CAFE
            }
        };
        chaos_run(seed, 0.10, 6);
    }

    /// The streaming write path under a storm: one ingest writer streams
    /// through injected ingest panics — which fire while the window lock is
    /// held, so every one poisons and then recovers the lock — while readers
    /// keep hammering the read mix. The single-writer window arithmetic must
    /// stay exactly predictable across faults (a faulted ingest leaves no
    /// partial point behind), and after disarming, one clean publish cycle
    /// must advance the epoch as if the storm never happened. Replays via
    /// `CHAOS_SEED` like the randomized leg.
    #[test]
    fn serve_chaos_ingest_storm_leaves_the_window_consistent() {
        silence_injected_panics();
        let seed = match std::env::var("CHAOS_SEED") {
            Ok(s) => s.parse::<u64>().unwrap_or_else(|_| panic!("CHAOS_SEED={s} is not a u64")),
            Err(_) => 0xC0FFEE77,
        };
        println!("ingest chaos seed {seed} (replay: CHAOS_SEED={seed})");
        const CAP: usize = 150;
        const BATCH: usize = 30;
        const PUBLISH_EVERY: usize = 25;
        const INGESTS: usize = 300;

        let plan = FaultPlan::new(seed)
            .with_rate(FaultPoint::IngestPanic, 0.20)
            .with_rate(FaultPoint::RequestPanic, 0.05)
            .with_rate(FaultPoint::SlowRequest, 0.05)
            .with_slow_request(Duration::from_micros(200));
        let faults = FaultInjector::shared(plan);
        let server = DpcServer::fit(
            &ExDpc::new(DpcParams::new(DCUT)),
            family_dataset(1),
            thresholds(),
            &Executor::single(),
        )
        .unwrap()
        .with_streaming(DpcParams::new(DCUT), Some((CAP, BATCH)), PUBLISH_EVERY)
        .unwrap()
        .with_faults(Arc::clone(&faults));
        let server = &server;
        let seed_n = server.snapshot().n();
        let writer_done = AtomicBool::new(false);
        let writer_done = &writer_done;

        std::thread::scope(|scope| {
            let writer = scope.spawn(move || {
                // The writer's replica of the window arithmetic; a faulted
                // ingest must not advance it.
                let mut live = seed_n;
                let mut successes = 0usize;
                let mut epoch = 1u64;
                let mut attempt = 0usize;
                while successes < INGESTS {
                    let c = attempt as f64 * 0.05;
                    attempt += 1;
                    match server.handle(&Request::Ingest(vec![c, 1.0 - c * 0.5])) {
                        Ok(Response::Ingest(r)) => {
                            live += 1;
                            let mut expired = 0;
                            if live >= CAP + BATCH {
                                expired = live - CAP;
                                live = CAP;
                            }
                            successes += 1;
                            assert_eq!(r.n, live, "a faulted ingest left a partial point behind");
                            assert_eq!(r.expired, expired, "window arithmetic diverged");
                            assert_eq!(r.published, successes % PUBLISH_EVERY == 0);
                            if r.published {
                                epoch += 1;
                                assert_eq!(r.epoch, epoch, "publishes install sequential epochs");
                            }
                        }
                        Ok(other) => panic!("{other:?}"),
                        Err(ServeError::HandlerPanic { payload }) => {
                            assert!(payload.starts_with("injected"), "unexpected panic: {payload}");
                        }
                        Err(other) => panic!("unexpected ingest error: {other:?}"),
                    }
                }
                writer_done.store(true, Ordering::Release);
                epoch
            });

            let readers: Vec<_> = (0..3usize)
                .map(|r| {
                    scope.spawn(move || {
                        let mut newest = 0u64;
                        loop {
                            let done = writer_done.load(Ordering::Acquire);
                            for variant in 0..3usize {
                                let request = match (variant + r) % 3 {
                                    0 => Request::Stats,
                                    1 => Request::Health,
                                    _ => Request::Assign(vec![0.5 + 0.1 * r as f64, 0.5]),
                                };
                                match server.handle(&request) {
                                    Ok(response) => {
                                        let epoch = response.epoch();
                                        assert!(
                                            epoch >= newest,
                                            "epoch went backwards: {epoch} after {newest}"
                                        );
                                        newest = epoch;
                                        match response {
                                            Response::Stats(s) => {
                                                // Every published window obeys the
                                                // sliding-window bound; epoch 1 is
                                                // the seeded fit.
                                                assert!(
                                                    s.n == seed_n || s.n < CAP + BATCH,
                                                    "torn window size {}",
                                                    s.n
                                                );
                                                assert!(matches!(
                                                    s.algorithm,
                                                    "Ex-DPC" | "Streaming-DPC"
                                                ));
                                            }
                                            Response::Assign(a) => {
                                                assert!(a.n == seed_n || a.n < CAP + BATCH);
                                            }
                                            Response::Health(h) => {
                                                assert!(
                                                    h.counters.admitted
                                                        >= h.counters.timed_out
                                                            + h.counters.panicked
                                                );
                                            }
                                            other => unreachable!("{other:?}"),
                                        }
                                    }
                                    Err(ServeError::HandlerPanic { payload }) => {
                                        assert!(payload.starts_with("injected"), "{payload}");
                                    }
                                    Err(other) => panic!("unexpected serve error: {other:?}"),
                                }
                            }
                            if done {
                                break;
                            }
                        }
                    })
                })
                .collect();

            let storm_epoch = writer.join().expect("the writer panicked outward");
            assert_eq!(storm_epoch, 1 + (INGESTS / PUBLISH_EVERY) as u64);
            for reader in readers {
                reader.join().expect("a reader panicked outward");
            }
        });

        // Storm over: one clean publish cycle continues the stream as if
        // nothing happened (INGESTS is a multiple of PUBLISH_EVERY, so the
        // cycle starts fresh).
        faults.disarm();
        let before = server.epoch();
        let mut published = false;
        for j in 0..PUBLISH_EVERY {
            let r = match server.handle(&Request::Ingest(vec![100.0 + 0.01 * j as f64, -5.0])) {
                Ok(Response::Ingest(r)) => r,
                other => panic!("{other:?}"),
            };
            published |= r.published;
        }
        assert!(published, "a clean publish cycle must install an epoch");
        assert_eq!(server.epoch(), before + 1);
        let Ok(Response::Health(health)) = server.handle(&Request::Health) else {
            panic!("Health must always answer")
        };
        let (_, request_panics) = faults.stats(FaultPoint::RequestPanic);
        let (ingest_arrivals, ingest_panics) = faults.stats(FaultPoint::IngestPanic);
        assert!(ingest_panics > 0, "the storm must actually have fired ingest faults");
        assert_eq!(health.counters.panicked, request_panics + ingest_panics);
        println!("  IngestPanic: {ingest_panics}/{ingest_arrivals} fired");
    }

    /// The degraded-counter arithmetic, end to end through `Request::Health`:
    /// rounds of guaranteed fit failures accumulate exact counters, and one
    /// success resets them.
    #[test]
    fn health_reports_accurate_degraded_counters() {
        let faults = FaultInjector::shared(FaultPlan::new(77).with_rate(FaultPoint::FitError, 1.0));
        let executor = Executor::single();
        let server = DpcServer::fit(
            &ExDpc::new(DpcParams::new(DCUT)),
            family_dataset(1),
            thresholds(),
            &executor,
        )
        .unwrap();
        let algo = FaultyAlgorithm::new(ExDpc::new(DpcParams::new(DCUT)), Arc::clone(&faults));
        let policy = RefitPolicy::default()
            .with_max_attempts(3)
            .with_backoff(Duration::from_micros(50), Duration::from_micros(200));

        let expect_degraded = |failures: u64, stale: u64| {
            let Ok(Response::Health(h)) = server.handle(&Request::Health) else {
                panic!("Health must answer")
            };
            assert_eq!(
                h.health,
                Health::Degraded {
                    consecutive_failures: failures,
                    stale_epochs: stale,
                    last_error: DpcError::Internal { what: "injected fit failure" },
                }
            );
            assert_eq!(h.epoch, 1, "the last good epoch keeps serving");
        };

        for round in 1..=2u64 {
            server
                .store()
                .refit_supervised(&algo, family_dataset(2), thresholds(), &executor, &policy)
                .unwrap_err();
            expect_degraded(3 * round, round);
        }

        faults.disarm();
        let epoch = server
            .store()
            .refit_supervised(&algo, family_dataset(2), thresholds(), &executor, &policy)
            .unwrap();
        assert_eq!(epoch, 2);
        let Ok(Response::Health(h)) = server.handle(&Request::Health) else {
            panic!("Health must answer")
        };
        assert_eq!(h.health, Health::Healthy);
    }
}
