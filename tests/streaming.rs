//! Property tests for the streaming maintenance engine: after **any**
//! interleaving of inserts and deletes, the incrementally maintained state
//! must equal a fresh `ExDpc::fit_keyed` on the surviving window under the
//! stable-id mapping — bitwise for ρ and δ, label-exact for the extraction.
//!
//! The jitter contract makes this comparison exact rather than approximate:
//! both sides compute `count + jitter(stable id ^ seed)`, and both sides
//! derive δ from the same `dist` kernel, so any drift in the incremental
//! repair shows up as a bit difference, not an epsilon.
//!
//! Dependent identifiers are compared exactly. With injected duplicate
//! points several candidates can sit at distance exactly δ (e.g. 0); the
//! engine breaks such ties as the fit does, towards the earliest arrival,
//! which is the smallest position of the exported window.

use std::sync::Arc;

use fast_dpc::core::StreamingCounters;
use fast_dpc::index::KdTree;
use fast_dpc::prelude::*;
use fast_dpc::rng::StdRng;

/// Asserts the engine state equals a fresh keyed fit of the surviving window
/// at each requested thread count.
fn assert_matches_fresh_fit(engine: &StreamingDpc, params: DpcParams, label: &str) {
    let (window, ids, streamed) = engine.to_parts().expect("non-empty window");
    for threads in [1usize, 4] {
        let fresh =
            ExDpc::new(params.with_threads(threads)).fit_keyed(&window, &ids).expect("fresh fit");
        assert_eq!(fresh.n(), streamed.n(), "{label}: window size");
        for i in 0..fresh.n() {
            assert_eq!(
                streamed.rho()[i].to_bits(),
                fresh.rho()[i].to_bits(),
                "{label}: ρ mismatch at {i} (threads {threads})"
            );
            assert_eq!(
                streamed.delta()[i].to_bits(),
                fresh.delta()[i].to_bits(),
                "{label}: δ mismatch at {i} (threads {threads})"
            );
            assert_eq!(
                streamed.dependent()[i],
                fresh.dependent()[i],
                "{label}: dependent mismatch at {i} (threads {threads})"
            );
        }
        // Extraction labels: integer ρ_min keeps coincident duplicates (equal
        // counts, different jitter) on the same side of the noise threshold.
        let thresholds = Thresholds::new(2.0, params.dcut * 2.0).unwrap();
        let a = streamed.extract(&thresholds);
        let b = fresh.extract(&thresholds);
        assert_eq!(a.assignment, b.assignment, "{label}: labels (threads {threads})");
        assert_eq!(a.centers, b.centers, "{label}: centers (threads {threads})");
    }
}

/// Drives `ops` random operations (inserts, duplicates, deletes) through the
/// engine and cross-checks against fresh fits along the way and at the end.
fn run_interleaving(dim: usize, dcut: f64, span: f64, ops: usize, seed: u64) {
    let params = DpcParams::new(dcut).with_jitter_seed(0x5eed ^ seed);
    let mut engine = StreamingDpc::new(params, dim).unwrap();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut live: Vec<u64> = Vec::new();
    let mut recent: Vec<Vec<f64>> = Vec::new();
    let mut checks = 0usize;
    for step in 0..ops {
        let insert = live.len() < 4 || rng.gen_range(0.0..1.0) < 0.62;
        if insert {
            // 20% exact duplicates of a recent point — coincident coordinates
            // exercise the distance-0 δ ties and the closed-ball boundary.
            let p: Vec<f64> = if !recent.is_empty() && rng.gen_range(0.0..1.0) < 0.2 {
                recent[rng.gen_range(0..recent.len())].clone()
            } else {
                (0..dim).map(|_| rng.gen_range(0.0..span)).collect()
            };
            let id = engine.insert(&p).unwrap();
            live.push(id);
            recent.push(p);
            if recent.len() > 48 {
                recent.remove(0);
            }
        } else {
            let k = rng.gen_range(0..live.len());
            let id = live.swap_remove(k);
            assert!(engine.remove(id), "live id must be removable");
        }
        assert_eq!(engine.len(), live.len(), "dim {dim} step {step}");
        // Periodic mid-stream checks (the interesting states are the ones in
        // the middle of churn, not just the final window).
        if step % 120 == 119 && !engine.is_empty() {
            assert_matches_fresh_fit(&engine, params, &format!("dim {dim} step {step}"));
            checks += 1;
        }
    }
    assert!(!engine.is_empty(), "interleaving must end non-empty");
    assert_matches_fresh_fit(&engine, params, &format!("dim {dim} final"));
    assert!(checks >= 3, "expected several mid-stream checks, got {checks}");
}

#[test]
fn random_interleaving_matches_fresh_fit_2d() {
    run_interleaving(2, 6.0, 60.0, 550, 11);
}

#[test]
fn random_interleaving_matches_fresh_fit_3d() {
    run_interleaving(3, 7.0, 45.0, 550, 22);
}

#[test]
fn random_interleaving_matches_fresh_fit_8d() {
    run_interleaving(8, 14.0, 25.0, 520, 33);
}

/// Sliding-window mode: expiry is part of the interleaving. After the stream
/// settles, the surviving window must still match a fresh keyed fit, and the
/// expired ids must be exactly the oldest ones.
#[test]
fn sliding_window_stream_matches_fresh_fit() {
    let params = DpcParams::new(5.0);
    let mut engine = StreamingDpc::new(params, 2).unwrap().with_window(180, 40);
    let mut rng = StdRng::seed_from_u64(44);
    let total = 600u64;
    for i in 0..total {
        // A drifting blob: the window's content changes qualitatively as old
        // regions expire.
        let c = i as f64 * 0.1;
        let p = [c + rng.gen_range(-3.0..3.0), c + rng.gen_range(-3.0..3.0)];
        engine.insert(&p).unwrap();
        assert!(engine.len() < 180 + 40, "window overflow at {i}");
    }
    let expired = engine.drain_expired();
    assert_eq!(expired.len() + engine.len(), total as usize);
    let mut sorted = expired.clone();
    sorted.sort_unstable();
    assert_eq!(expired, sorted, "expiry must be oldest-first");
    let (_, ids, _) = engine.to_parts().unwrap();
    let min_live = ids.iter().min().unwrap();
    assert!(expired.iter().all(|id| id < min_live), "expired ids predate the window");
    assert_matches_fresh_fit(&engine, params, "sliding window final");
}

/// Interleaving with explicit removals *and* window expiry racing each other
/// on the id space (removed ids linger in the arrival queue and must be
/// skipped, not double-expired).
#[test]
fn explicit_removals_compose_with_window_expiry() {
    let params = DpcParams::new(4.0).with_jitter_seed(99);
    let mut engine = StreamingDpc::new(params, 2).unwrap().with_window(120, 25);
    let mut rng = StdRng::seed_from_u64(55);
    let mut live: Vec<u64> = Vec::new();
    for step in 0..520 {
        if live.len() < 4 || rng.gen_range(0.0..1.0) < 0.7 {
            let p = [rng.gen_range(0.0..35.0), rng.gen_range(0.0..35.0)];
            live.push(engine.insert(&p).unwrap());
        } else {
            // Bias explicit removals toward the *oldest* ids so they collide
            // with what the window is about to expire.
            let k = rng.gen_range(0..live.len().min(8));
            let id = live.remove(k);
            assert!(engine.remove(id), "step {step}");
        }
        for id in engine.drain_expired() {
            let pos = live.iter().position(|&x| x == id).expect("expired id was live");
            live.remove(pos);
        }
        assert_eq!(engine.len(), live.len(), "step {step}");
    }
    assert_matches_fresh_fit(&engine, params, "mixed removal/expiry final");
}

/// Asserts two engines hold the same window: ids, rows, the expiry log and
/// `layout_eq` models (ρ and δ bits, dependents, order and index bytes). The
/// exported rows must be bit for bit the rows fed under those ids
/// (`fed[id]`); the insert-loaded engine reads them from its tree and from
/// its insert buffer. The bulk-loaded engine exports through
/// `to_indexed_parts`, which also rebuilds its index, so from the first
/// checkpoint on the two engines rebuild on different schedules; the
/// exported tree must be a fresh build's layout, and a second export with no
/// update in between must hand out the same tree without rebuilding.
fn assert_same_window(
    bulk: &mut StreamingDpc,
    inserted: &mut StreamingDpc,
    fed: &[Vec<f64>],
    label: &str,
) {
    assert_eq!(bulk.drain_expired(), inserted.drain_expired(), "{label}: expired ids");
    assert_eq!(bulk.len(), inserted.len(), "{label}: len");
    if bulk.is_empty() {
        assert!(
            matches!(bulk.to_indexed_parts(), Err(DpcError::EmptyDataset))
                && matches!(inserted.to_parts(), Err(DpcError::EmptyDataset)),
            "{label}: empty"
        );
        return;
    }
    let (data_a, ids_a, model_a, tree) = bulk.to_indexed_parts().unwrap();
    let (data_b, ids_b, model_b) = inserted.to_parts().unwrap();
    assert_eq!(ids_a, ids_b, "{label}: ids");
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(data_a.flat()), bits(data_b.flat()), "{label}: rows");
    let recorded: Vec<f64> = ids_b.iter().flat_map(|&id| fed[id as usize].clone()).collect();
    assert_eq!(bits(data_b.flat()), bits(&recorded), "{label}: rows as fed");
    assert_eq!(bits(model_a.rho()), bits(model_b.rho()), "{label}: ρ");
    assert_eq!(bits(model_a.delta()), bits(model_b.delta()), "{label}: δ");
    assert_eq!(model_a.dependent(), model_b.dependent(), "{label}: dependents");
    assert_eq!(model_a.index_bytes(), model_b.index_bytes(), "{label}: index bytes");
    assert!(model_a.layout_eq(&model_b), "{label}: models differ");
    assert!(tree.layout_eq(&KdTree::build(&data_a)), "{label}: exported tree");

    let rebuilds = bulk.counters().rebuilds;
    let (_, _, _, again) = bulk.to_indexed_parts().unwrap();
    assert!(Arc::ptr_eq(&tree, &again), "{label}: a repeated export shares its tree");
    assert_eq!(bulk.counters().rebuilds, rebuilds, "{label}: a repeated export rebuilds nothing");
}

/// Loads `n0` points into one engine by `bulk_load` and into another by
/// inserts, then feeds both the same stream of inserts, explicit removes
/// and (with a window) expiry, comparing them along the way.
fn bulk_load_matches_insert_load(
    dim: usize,
    dcut: f64,
    n0: usize,
    window: Option<(usize, usize)>,
    duplicates: bool,
    seed: u64,
) {
    let label = format!("dim {dim}, n0 {n0}, window {window:?}, duplicates {duplicates}");
    let params = DpcParams::new(dcut).with_jitter_seed(seed).with_threads(2);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut recent: Vec<Vec<f64>> = Vec::new();
    let mut next_point = |rng: &mut StdRng| -> Vec<f64> {
        let p: Vec<f64> = if duplicates && !recent.is_empty() && rng.gen_range(0.0..1.0) < 0.2 {
            recent[rng.gen_range(0..recent.len())].clone()
        } else {
            (0..dim).map(|_| rng.gen_range(0.0..40.0)).collect()
        };
        recent.push(p.clone());
        if recent.len() > 40 {
            recent.remove(0);
        }
        p
    };
    let engine = || {
        let e = StreamingDpc::new(params, dim).unwrap();
        match window {
            Some((capacity, batch)) => e.with_window(capacity, batch),
            None => e,
        }
    };
    // Every point fed to the engines, indexed by its stable id.
    let mut fed: Vec<Vec<f64>> = (0..n0).map(|_| next_point(&mut rng)).collect();
    let mut initial = Dataset::new(dim);
    for p in &fed {
        initial.push(p);
    }
    let mut bulk = engine();
    bulk.bulk_load(&initial).unwrap();
    let mut inserted = engine();
    for (_, p) in initial.iter() {
        inserted.insert(p).unwrap();
    }
    assert_same_window(&mut bulk, &mut inserted, &fed, &format!("{label}, loaded"));
    if n0 > 0 {
        assert!(
            matches!(bulk.bulk_load(&initial), Err(DpcError::InvalidParams { .. })),
            "{label}: a second load must be refused"
        );
    }

    let mut live: Vec<u64> = (0..n0 as u64).filter(|&id| inserted.contains(id)).collect();
    for step in 0..360 {
        if live.len() < 4 || rng.gen_range(0.0..1.0) < 0.7 {
            let p = next_point(&mut rng);
            let id = bulk.insert(&p).unwrap();
            assert_eq!(inserted.insert(&p).unwrap(), id, "{label}: ids diverge at step {step}");
            fed.push(p);
            live.push(id);
        } else {
            let id = live.swap_remove(rng.gen_range(0..live.len()));
            assert!(bulk.remove(id) && inserted.remove(id), "{label}: step {step}");
        }
        live.retain(|&id| inserted.contains(id));
        if step % 60 == 59 {
            assert_same_window(&mut bulk, &mut inserted, &fed, &format!("{label}, {step}"));
        }
    }
    assert_same_window(&mut bulk, &mut inserted, &fed, &format!("{label}, final"));
    assert_matches_fresh_fit(&bulk, params, &format!("{label}, bulk-loaded"));
}

/// A bulk-loaded engine and an insert-loaded one stay the same window under
/// one stream: loads below and at least one batch above the window, an
/// empty load and a load without a window, in 2, 3 and 8 dimensions.
#[test]
fn bulk_load_matches_insert_load_under_one_stream() {
    for (dim, dcut, seed) in [(2usize, 4.0, 61u64), (3, 7.0, 62), (8, 22.0, 63)] {
        for duplicates in [false, true] {
            for n0 in [0, 90, 170, 263] {
                bulk_load_matches_insert_load(dim, dcut, n0, Some((150, 20)), duplicates, seed);
            }
            bulk_load_matches_insert_load(dim, dcut, 120, None, duplicates, seed);
        }
    }
}

/// A long stream whose x only grows, through a small sliding window: every
/// arrival lands beyond the points the tree indexed at its last rebuild,
/// and expiry empties the tree from its far end. Coordinates sit on a
/// lattice, so equidistant denser points abound. The window must equal a
/// fresh keyed fit at checkpoints, and the rebuilds must follow the rebuild
/// rule: once the window is full, more than a sixteenth of it in updates
/// between two rebuilds — never one per insert.
#[test]
fn long_drifting_stream_matches_fresh_fit() {
    let (capacity, batch) = (240usize, 16usize);
    let params = DpcParams::new(1.0).with_jitter_seed(0xd41f7);
    let mut engine = StreamingDpc::new(params, 2).unwrap().with_window(capacity, batch);
    let mut rng = StdRng::seed_from_u64(66);
    let total = 6_000u64;
    let mut full: Option<StreamingCounters> = None;
    for i in 0..total {
        let p = [i as f64 * 0.25, 0.5 * rng.gen_range(0..6) as f64];
        assert_eq!(engine.insert(&p).unwrap(), i);
        if engine.len() >= capacity && full.is_none() {
            full = Some(engine.counters());
        }
        if i % 500 == 499 {
            assert_matches_fresh_fit(&engine, params, &format!("drifting stream at {i}"));
        }
    }
    let expired = engine.drain_expired();
    assert_eq!(expired.len() + engine.len(), total as usize);
    assert!(expired.iter().enumerate().all(|(k, &id)| id == k as u64), "oldest first");

    let (start, end) = (full.expect("the window fills"), engine.counters());
    assert_eq!((end.inserts, end.removes), (total, total - engine.len() as u64));
    // Each update adds at most one point to the buffer or one tombstone to
    // the tree, and a rebuild waits for more than `live / 16 ≥ capacity / 16`
    // of them.
    let updates = (end.inserts + end.removes) - (start.inserts + start.removes);
    let rebuilds = end.rebuilds - start.rebuilds;
    assert!(rebuilds > 0, "a drifting window must rebuild");
    assert!(
        rebuilds <= updates / (capacity as u64 / 16 + 1) + 1,
        "{rebuilds} rebuilds over {updates} updates"
    );
    assert!(end.rebuilds * 4 < end.inserts, "{} rebuilds for {} inserts", end.rebuilds, total);
}
