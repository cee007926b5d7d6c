//! Streaming DPC: exact Ex-DPC maintenance under point insertions and
//! removals, with localized ρ updates and δ repair.
//!
//! The batch pipeline treats the dataset as static — any change costs a full
//! refit, even though an insert or delete only perturbs ρ inside the `d_cut`
//! ball of the touched point (Definition 1 is a local count) and δ for a
//! bounded set of points. [`StreamingDpc`] maintains the exact Ex-DPC model
//! under point insertions and removals:
//!
//! * **ρ maintenance** is one query around the touched point: every live
//!   point inside its `d_cut` ball gets `count ± 1` and is re-jittered
//!   deterministically on its **stable external id** (the monotonically
//!   increasing id handed out by [`StreamingDpc::insert`]). Because the
//!   jitter is a pure function of `(count, stable id, seed)`, the maintained
//!   ρ is bit-identical to a fresh
//!   [`ExDpc::fit_keyed`](crate::ExDpc::fit_keyed) of the surviving window
//!   keyed on the same ids.
//! * **δ repair.** Exactly three kinds of points can have a stale
//!   δ/dependent after an update:
//!   1. the touched point itself;
//!   2. points whose dependent was deleted, or whose dependent's ρ fell to or
//!      below their own (found via the maintained reverse-dependent lists);
//!   3. points whose "is `q` denser than me?" answer flipped when a ball
//!      neighbour `q` moved from `count` to `count ± 1`: exactly the points
//!      whose ρ lies in the open interval between `q`'s old and new ρ.
//!
//!   Cases 1–2 take a **full recompute**: one [`KdTree::nearest_denser`]
//!   descent of the window's packed tree, pruned on its per-node maximum ρ,
//!   plus a scan of the insert buffer. This is the query the paper asks of
//!   its tree of denser points (§3, Lemma 2). Case 3 repairs with one
//!   distance comparison per candidate, because a stale δ is a one-sided
//!   bound: on insert nobody's δ can grow except through its dependent, on
//!   delete nobody's δ can shrink except through new denser points.
//!
//! **Canonical ties.** Every δ comparison orders the candidates by
//! `(squared distance, slot)`, and slots follow arrival order, so among
//! equidistant denser points the earliest arrival wins — the smallest id of
//! a fresh keyed fit of the window, whose points are in arrival order. A
//! streamed dependent is therefore the one
//! [`ExDpc::fit_keyed`](crate::ExDpc::fit_keyed) picks, not just a valid
//! minimizer.
//!
//! **The index** is the static-to-dynamic transformation of Bentley & Saxe
//! (*Decomposable searching problems I*, J. Algorithms 1980): one packed
//! [`KdTree`] over the window as it stood at the last rebuild, plus a
//! linearly scanned buffer of the later arrivals. Slots are renumbered in
//! arrival order at each rebuild, so a tree id is a slot, and a freed slot
//! is never reused while the tree still indexes it: a removed tree point
//! stays in the tree, keyed `-∞`. The engine holds coordinate rows of its
//! own only for the buffer: a tree slot's row is the tree's packed row,
//! read through [`KdTree::point`], so each point's coordinates are stored
//! once. Two [`MaxKeys`] key the tree — ρ, and each point's reach
//! `(δ + d_cut)·(1 + 1e-9)` — and [`MaxKeys::set`] keeps both exact as ρ and
//! δ move. The engine rebuilds once the buffer plus the removed tree points
//! pass a sixteenth of the live window, and at every indexed export
//! ([`StreamingDpc::to_indexed_parts`]) that finds updates pending. Each
//! rebuild is one [`KdTree::build_parallel`] on `params.threads` workers.
//! The tree sits behind an `Arc` and is never changed in place: updates move
//! only the engine's keys, and a rebuild replaces the tree. So an exported
//! tree can serve a published snapshot while the engine streams on.
//!
//! **Case-3 candidates, by place.**
//!
//! * On insert, a point `x` that gained a denser point gained it from the
//!   arrival or a bumped neighbour, all within `d_cut` of the arrival, and
//!   takes it only at a distance of at most δ_x; so `dist(x, arrival) ≤ δ_x +
//!   d_cut`, and `x`'s reach covers the arrival. One reverse query
//!   ([`KdTree::reaching_into`] plus the buffer) reports every live point
//!   whose reach covers the arrival. Every reach exceeds `d_cut`, so its hits
//!   within `d_cut` are the ball, and the rest are the candidates.
//! * On delete, only a bumped neighbour `q` itself can gain denser points
//!   (the points in its crossed interval now out-rank it), and any
//!   improvement lies within δ_q of `q`. When δ_q ≤ `d_cut`, that is within
//!   `2·d_cut` of the removed point: one range query of that radius (padded
//!   against rounding) yields the ball and the candidates. A bumped `q` with
//!   δ_q > `d_cut` is a local density peak, and it takes one full recompute
//!   instead.
//!
//! **Case-3 candidates, by count.** The jitter lies in `(0, 1)` and rounding
//! is monotone, so a point of count `k` has ρ = `fl(k + jitter)` in
//! `[k, k + 1]`. A neighbour whose count moved between `c` and `c + 1`
//! crosses only the ρ values strictly between `fl(c + j_q)` and
//! `fl(c + 1 + j_q)`, which lie in `(c, c + 2)`; so a point can cross it
//! only if its count is `c` or `c + 1`. The bumped neighbours are sorted by
//! `c`, and each candidate scans only the entries with `c ∈ {k − 1, k}`
//! before the exact interval and distance tests. The filter skips only pairs
//! that the exact test rejects.
//!
//! **Bulk load.** [`StreamingDpc::bulk_load`] fills a fresh engine from one
//! keyed Ex-DPC fit of the points it keeps, with the same result as
//! inserting them one at a time: the fit's integer counts, ρ, δ and
//! dependents, the fit's own tree as the engine's index, and the
//! reverse-dependent lists built from the dependents.
//!
//! A sliding-window mode ([`StreamingDpc::with_window`]) batches expiry of
//! the oldest points: once the window overflows by a full batch, the oldest
//! live points are removed (each through the same exact delete path) until
//! the window is back at capacity.

use std::sync::Arc;

use dpc_geometry::distance::dist_sq;
use dpc_geometry::Dataset;
use dpc_index::{KdTree, MaxKeys};
use dpc_parallel::Executor;

use crate::error::DpcError;
use crate::exdpc::ExDpc;
use crate::framework::{jittered_density_keyed, validate_dataset};
use crate::model::DpcModel;
use crate::params::DpcParams;
use crate::result::Timings;

/// The index is rebuilt once the insert buffer plus the removed tree points
/// exceed `1 / REBUILD_RATIO` of the live window, and at an indexed export
/// with any update pending. A threshold rebuild is `O(n log n)` and follows
/// at least `n / 16` updates, so the buffer every query scans stays within a
/// sixteenth of the window; an engine exported every `k` updates scans at
/// most `k`.
const REBUILD_RATIO: usize = 16;

/// Relative padding of the distance bounds that decide which points an
/// update examines, so that rounding in `δ + d_cut` cannot drop a point the
/// exact bound admits.
const PAD: f64 = 1.0 + 1e-9;

/// Cumulative work counters of a [`StreamingDpc`] engine, from
/// [`StreamingDpc::counters`]. The engine is sequential, so for a given
/// sequence of operations every count is deterministic.
/// [`StreamingDpc::bulk_load`] counts nothing.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StreamingCounters {
    /// Points inserted.
    pub inserts: u64,
    /// Points removed, explicitly or by window expiry.
    pub removes: u64,
    /// Ball neighbours whose count moved, summed over the operations.
    pub bumped: u64,
    /// Points beyond the ball tested for a density-order crossing: the
    /// reverse query's other hits on insert, the range query's on delete.
    pub candidates: u64,
    /// Count-index entries those candidates scanned.
    pub index_scanned: u64,
    /// Full δ recomputes (one nearest-denser descent plus a buffer scan).
    pub recomputes: u64,
    /// Index rebuilds over the live window.
    pub rebuilds: u64,
}

/// A bumped neighbour in the count index: its count moved between `key` and
/// `key + 1`, so its ρ crossed exactly the values in `(lo, hi)`.
#[derive(Clone, Copy)]
struct Crossing {
    key: usize,
    slot: u32,
    lo: f64,
    hi: f64,
}

/// The entries of `index` (sorted by key) that a point of count `count` can
/// cross: those with `key ∈ {count − 1, count}`.
fn crossings(index: &[Crossing], count: usize) -> &[Crossing] {
    let start = index.partition_point(|e| e.key + 1 < count);
    let end = index.partition_point(|e| e.key <= count);
    &index[start..end]
}

/// Exact streaming maintenance of an Ex-DPC model over a mutable window of
/// points.
///
/// ```
/// use dpc_core::{DpcParams, StreamingDpc};
///
/// let mut engine = StreamingDpc::new(DpcParams::new(2.0), 2).unwrap();
/// let a = engine.insert(&[0.0, 0.0]).unwrap();
/// let b = engine.insert(&[1.0, 0.0]).unwrap();
/// engine.insert(&[0.5, 0.5]).unwrap();
/// assert_eq!(engine.len(), 3);
/// assert!(engine.remove(a));
/// let (window, ids, model) = engine.to_parts().unwrap();
/// assert_eq!(window.len(), 2);
/// assert_eq!(ids, vec![b, 2]);
/// assert_eq!(model.n(), 2);
/// ```
pub struct StreamingDpc {
    dim: usize,
    params: DpcParams,
    // ---- per-slot state. Slots follow arrival order: an arrival takes the
    // next slot, and a rebuild renumbers the live points `0..live` in order.
    /// Coordinate rows of the insert buffer: row `b` is slot `tree.len() + b`.
    /// The tree slots' rows are the tree's own packed rows.
    buffer_rows: Dataset,
    /// Stable external id of each slot, increasing with the slot.
    stable: Vec<u64>,
    /// Integer `d_cut`-ball count (excluding the point itself).
    count: Vec<usize>,
    /// Jittered local density.
    rho: Vec<f64>,
    /// Squared distance to the dependent point (∞ when there is none).
    dsq: Vec<f64>,
    /// Dependent slot; equals the slot itself when no denser point exists.
    dep: Vec<u32>,
    /// Reverse-dependent lists: slots `y` with `dep[y] == slot`.
    children: Vec<Vec<u32>>,
    alive: Vec<bool>,
    live: usize,
    /// Every slot below this one is dead: where expiry resumes its scan.
    first_live: usize,
    // ---- the index
    /// The packed tree over slots `0..tree.len()`, the window at the last
    /// rebuild; the later slots are the insert buffer. Shared with the
    /// exports of [`StreamingDpc::to_indexed_parts`], so never mutated.
    tree: Arc<KdTree>,
    /// ρ of every tree slot, `-∞` once removed.
    rho_keys: MaxKeys,
    /// Reach `(δ + d_cut)·PAD` of every tree slot, `-∞` once removed.
    reach_keys: MaxKeys,
    /// Tree slots removed since the last rebuild.
    tombstones: usize,
    /// `(capacity, batch)` for sliding-window mode.
    window: Option<(usize, usize)>,
    /// Stable ids expired by the window since the last `drain_expired`.
    expired: Vec<u64>,
    next_id: u64,
    counters: StreamingCounters,
    // ---- query scratch (kept to avoid per-operation allocation)
    scratch_hits: Vec<usize>,
    scratch_ball: Vec<usize>,
    scratch_index: Vec<Crossing>,
}

impl StreamingDpc {
    /// Creates an empty engine for `dim`-dimensional points. `params`
    /// contributes `d_cut` and the jitter seed; its `threads` run the fit of
    /// [`StreamingDpc::bulk_load`] and every index rebuild. Inserts and
    /// removes are sequential: each is a small, order-dependent repair.
    pub fn new(params: DpcParams, dim: usize) -> Result<Self, DpcError> {
        params.validate()?;
        if dim == 0 {
            return Err(DpcError::InvalidParams {
                param: "dim",
                value: 0.0,
                requirement: "streaming dimensionality must be positive",
            });
        }
        let tree = Arc::new(KdTree::build(&Dataset::new(dim)));
        Ok(Self {
            dim,
            params,
            buffer_rows: Dataset::new(dim),
            stable: Vec::new(),
            count: Vec::new(),
            rho: Vec::new(),
            dsq: Vec::new(),
            dep: Vec::new(),
            children: Vec::new(),
            alive: Vec::new(),
            live: 0,
            first_live: 0,
            rho_keys: MaxKeys::new(&tree, &[]),
            reach_keys: MaxKeys::new(&tree, &[]),
            tree,
            tombstones: 0,
            window: None,
            expired: Vec::new(),
            next_id: 0,
            counters: StreamingCounters::default(),
            scratch_hits: Vec::new(),
            scratch_ball: Vec::new(),
            scratch_index: Vec::new(),
        })
    }

    /// Enables sliding-window mode: once the live size reaches
    /// `capacity + batch`, the oldest live points are expired (exact delete
    /// path each) until the window is back at `capacity`. Batching amortises
    /// the expiry work instead of paying one delete per insert.
    ///
    /// # Panics
    /// Panics if `capacity == 0` or `batch == 0`.
    pub fn with_window(mut self, capacity: usize, batch: usize) -> Self {
        assert!(capacity > 0, "window capacity must be positive");
        assert!(batch > 0, "expiry batch must be positive");
        self.window = Some((capacity, batch));
        self
    }

    /// Number of live points in the window.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether the window is empty.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Dimensionality of the stream.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The cutoff distance `d_cut`.
    pub fn dcut(&self) -> f64 {
        self.params.dcut
    }

    /// Whether stable id `id` is live in the window.
    pub fn contains(&self, id: u64) -> bool {
        self.slot_of(id).is_some()
    }

    /// Stable ids expired by the sliding window since the last call (oldest
    /// first). Explicit [`StreamingDpc::remove`]s are not reported here.
    pub fn drain_expired(&mut self) -> Vec<u64> {
        std::mem::take(&mut self.expired)
    }

    /// The cumulative work counters (see [`StreamingCounters`]).
    pub fn counters(&self) -> StreamingCounters {
        self.counters
    }

    /// The live slot of stable id `id`: stable ids increase with the slot.
    fn slot_of(&self, id: u64) -> Option<u32> {
        let slot = self.stable.binary_search(&id).ok()?;
        self.alive[slot].then_some(slot as u32)
    }

    /// Slot `slot`'s coordinates: the tree's packed row for a tree slot,
    /// the buffer's row after them.
    #[inline]
    fn row(&self, slot: usize) -> &[f64] {
        match slot.checked_sub(self.tree.len()) {
            Some(b) => self.buffer_rows.point(b),
            None => self.tree.point(slot),
        }
    }

    /// The rows of `slots`, in order, as a dataset.
    fn gather_rows(&self, slots: &[usize]) -> Dataset {
        let mut out = Dataset::with_capacity(self.dim, slots.len());
        for &s in slots {
            out.push(self.row(s));
        }
        out
    }

    /// The insert buffer: the slots after the tree's.
    fn buffer(&self) -> std::ops::Range<usize> {
        self.tree.len()..self.stable.len()
    }

    #[inline]
    fn jitter(&self, count: usize, slot: usize) -> f64 {
        jittered_density_keyed(count, self.stable[slot], self.params.jitter_seed)
    }

    /// Slot `x`'s reach: the distance within which a new denser point can
    /// still improve its dependent, plus `d_cut`, padded.
    fn reach(&self, x: usize) -> f64 {
        (self.dsq[x].sqrt() + self.params.dcut) * PAD
    }

    /// Whether candidate `y` at squared distance `d` precedes slot `x`'s
    /// current dependent in the canonical `(squared distance, slot)` order.
    /// No dependent ranks last, at distance ∞.
    fn improves(&self, x: usize, d: f64, y: u32) -> bool {
        let current = if self.dep[x] as usize == x { u32::MAX } else { self.dep[x] };
        d < self.dsq[x] || (d == self.dsq[x] && y < current)
    }

    /// Changes slot `q`'s ball count by ±1 and re-jitters its ρ.
    fn bump_count(&mut self, q: usize, up: bool) {
        self.count[q] = if up { self.count[q] + 1 } else { self.count[q] - 1 };
        self.rho[q] = self.jitter(self.count[q], q);
        if q < self.tree.len() {
            self.rho_keys.set(&self.tree, q, self.rho[q]);
        }
    }

    /// Points `x`'s dependent at slot `j` with squared distance `d`,
    /// maintaining the reverse-dependent lists and `x`'s reach. `j == x`
    /// clears the dependent (`d` must then be ∞).
    fn set_dep(&mut self, x: u32, j: u32, d: f64) {
        let xi = x as usize;
        let old = self.dep[xi];
        if old != x {
            let list = &mut self.children[old as usize];
            if let Some(pos) = list.iter().position(|&y| y == x) {
                list.swap_remove(pos);
            }
        }
        self.dep[xi] = j;
        self.dsq[xi] = d;
        if j != x {
            self.children[j as usize].push(x);
        }
        if xi < self.tree.len() {
            let reach = self.reach(xi);
            self.reach_keys.set(&self.tree, xi, reach);
        }
    }

    /// Exact δ for live slot `x`: its nearest strictly denser live point, by
    /// one nearest-denser descent of the tree (removed points are keyed
    /// `-∞`) and a scan of the buffer, ties to the smaller slot. When none
    /// exists `x` is the densest live point (δ = ∞, its own dependent).
    fn recompute_delta(&mut self, x: u32) {
        self.counters.recomputes += 1;
        let (rx, p) = (self.rho[x as usize], self.row(x as usize));
        let mut best = self
            .tree
            .nearest_denser(&self.rho_keys, p, rx)
            .map(|(j, _)| (dist_sq(p, self.row(j)), j as u32));
        // Buffer slots exceed every tree slot and ascend, so a tie keeps the
        // candidate already found.
        for b in self.buffer() {
            if self.alive[b] && self.rho[b] > rx {
                let d = dist_sq(p, self.row(b));
                if best.is_none_or(|(bd, _)| d < bd) {
                    best = Some((d, b as u32));
                }
            }
        }
        match best {
            Some((d, j)) => self.set_dep(x, j, d),
            None => self.set_dep(x, x, f64::INFINITY),
        }
    }

    /// Moves the hits within `d_cut` of `p` (closed, Definition 1) from
    /// `hits` to `ball`.
    fn split_ball(&self, p: &[f64], hits: &mut Vec<usize>, ball: &mut Vec<usize>) {
        let dcut_sq = self.params.dcut * self.params.dcut;
        ball.clear();
        hits.retain(|&x| {
            let inside = dist_sq(p, self.row(x)) <= dcut_sq;
            if inside {
                ball.push(x);
            }
            !inside
        });
    }

    /// Inserts a point and returns its stable id. Exact maintenance:
    ///
    /// 1. ρ: the reverse query around the arrival; every ball neighbour
    ///    gets `count + 1` and the new point's own count is the ball size.
    /// 2. δ of the new point: its nearest denser ball neighbour, or a full
    ///    recompute when no neighbour is denser. A full recompute for every
    ///    neighbour whose dependent is no longer strictly denser (its own ρ
    ///    rose past it).
    /// 3. Frontier repair: a neighbour `q` whose count rose from `c` to
    ///    `c + 1` becomes a *new* denser point exactly for the unbumped
    ///    points whose ρ lies in `(fl(c + j_q), ρ_q)`, and the new point
    ///    itself is a candidate denser point for anything less dense. The
    ///    candidates are the reverse query's hits beyond the ball; each
    ///    looks up the neighbours it can cross in the count index and
    ///    repairs with one distance comparison per crossing — on insert a
    ///    stale δ is always an upper bound.
    ///
    /// The insert ends with the window's expiry and, when the buffer and
    /// the removed tree points have grown past a sixteenth of the window,
    /// an index rebuild.
    pub fn insert(&mut self, point: &[f64]) -> Result<u64, DpcError> {
        if point.len() != self.dim {
            return Err(DpcError::DimensionMismatch {
                what: "streaming point",
                expected: self.dim,
                got: point.len(),
            });
        }
        if let Some(axis) = point.iter().position(|v| !v.is_finite()) {
            return Err(DpcError::NonFiniteCoordinate { point: self.live, axis });
        }

        let id = self.next_id;
        self.next_id += 1;
        self.counters.inserts += 1;

        // The reverse query runs *before* the new point is stored.
        let mut hits = std::mem::take(&mut self.scratch_hits);
        let mut ball = std::mem::take(&mut self.scratch_ball);
        self.tree.reaching_into(&self.reach_keys, point, &mut hits);
        for b in self.buffer().filter(|&b| self.alive[b]) {
            let reach = self.reach(b);
            if dist_sq(point, self.row(b)) <= reach * reach {
                hits.push(b);
            }
        }
        self.split_ball(point, &mut hits, &mut ball);
        self.counters.bumped += ball.len() as u64;

        for &q in &ball {
            self.bump_count(q, true);
        }
        let s = self.push_slot(id, point, ball.len());
        let si = s as usize;

        // Case 1: δ of the arrival. A denser neighbour inside the ball beats
        // every point beyond `d_cut`, so the index is only consulted when
        // the arrival out-densifies its whole neighbourhood.
        for &j in &ball {
            if self.rho[j] > self.rho[si] {
                let d = dist_sq(point, self.row(j));
                if self.improves(si, d, j as u32) {
                    self.set_dep(s, j as u32, d);
                }
            }
        }
        if self.dep[si] == s {
            self.recompute_delta(s);
        }

        // Case 2: neighbours whose dependent stopped being strictly denser
        // when their own ρ rose.
        for &q in &ball {
            let d = self.dep[q] as usize;
            if d != q && self.rho[d] <= self.rho[q] {
                self.recompute_delta(q as u32);
            }
        }

        // Case 3 for the ball itself: the new point as a denser candidate for
        // its less dense neighbours (bumped-vs-bumped needs no check — equal
        // count changes preserve their relative order).
        for &q in &ball {
            if self.rho[q] < self.rho[si] {
                let d = dist_sq(self.row(q), point);
                if self.improves(q, d, s) {
                    self.set_dep(q as u32, s, d);
                }
            }
        }

        // Case 3 beyond the ball: the reverse query's other hits.
        let mut index = std::mem::take(&mut self.scratch_index);
        index.clear();
        for &q in &ball {
            let key = self.count[q] - 1;
            let (lo, hi) = (self.jitter(key, q), self.rho[q]);
            index.push(Crossing { key, slot: q as u32, lo, hi });
        }
        index.sort_unstable_by_key(|e| (e.key, e.slot));
        for &x in &hits {
            self.repair_candidate(x, s, &index);
        }
        self.scratch_index = index;
        self.scratch_hits = hits;
        self.scratch_ball = ball;

        if let Some((capacity, batch)) = self.window {
            if self.live >= capacity + batch {
                while self.live > capacity {
                    while !self.alive[self.first_live] {
                        self.first_live += 1;
                    }
                    self.expired.push(self.stable[self.first_live]);
                    self.remove_slot(self.first_live as u32);
                }
            }
        }
        self.maybe_rebuild();
        Ok(id)
    }

    /// Case-3 repair of the unbumped point `x` after slot `s` was inserted:
    /// the arrival, and every bumped neighbour whose crossed interval holds
    /// ρ_x, are denser candidates, each taken if it precedes `x`'s
    /// dependent in the canonical order.
    fn repair_candidate(&mut self, x: usize, s: u32, index: &[Crossing]) {
        self.counters.candidates += 1;
        let rx = self.rho[x];
        if rx < self.rho[s as usize] {
            let d = dist_sq(self.row(x), self.row(s as usize));
            if self.improves(x, d, s) {
                self.set_dep(x as u32, s, d);
            }
        }
        let hits = crossings(index, self.count[x]);
        self.counters.index_scanned += hits.len() as u64;
        for e in hits {
            if e.lo < rx && rx < e.hi {
                let d = dist_sq(self.row(x), self.row(e.slot as usize));
                if self.improves(x, d, e.slot) {
                    self.set_dep(x as u32, e.slot, d);
                }
            }
        }
    }

    /// Removes the point with stable id `id`. Returns `false` when the id is
    /// not live. Exact maintenance mirrors `insert`:
    ///
    /// 1. ρ: one range query of radius `2·d_cut` around the removed
    ///    coordinates; every ball neighbour gets `count - 1`.
    /// 2. A full δ recompute for every point whose dependent was the removed
    ///    point, and for every follower of a neighbour whose ρ fell to or
    ///    below the follower's.
    /// 3. Frontier repair: a neighbour `q` whose count fell from `c + 1` to
    ///    `c` gains as denser points exactly the unbumped points with ρ in
    ///    `(ρ_q, fl(c + 1 + j_q))`, and only δ_q itself can shrink. Any
    ///    improvement lies within δ_q of `q`: when δ_q ≤ `d_cut` it is one
    ///    of the query's hits, found through the count index and taken
    ///    with one distance comparison (on delete a stale δ is always
    ///    attained by a surviving denser point, so it can only improve);
    ///    otherwise `q` is a local peak and takes a full recompute.
    ///
    /// Like an insert, a remove may end with an index rebuild.
    pub fn remove(&mut self, id: u64) -> bool {
        let Some(slot) = self.slot_of(id) else { return false };
        self.remove_slot(slot);
        self.maybe_rebuild();
        true
    }

    fn remove_slot(&mut self, slot: u32) {
        let si = slot as usize;
        debug_assert!(self.alive[si]);
        self.counters.removes += 1;

        // Detach the slot from every structure first, so the query below
        // sees exactly the surviving window.
        self.alive[si] = false;
        self.live -= 1;
        if si < self.tree.len() {
            self.tombstones += 1;
            self.rho_keys.set(&self.tree, si, f64::NEG_INFINITY);
            self.reach_keys.set(&self.tree, si, f64::NEG_INFINITY);
        }
        let dep = self.dep[si];
        if dep != slot {
            let list = &mut self.children[dep as usize];
            if let Some(pos) = list.iter().position(|&y| y == slot) {
                list.swap_remove(pos);
            }
        }
        let orphans = std::mem::take(&mut self.children[si]);

        let mut hits = std::mem::take(&mut self.scratch_hits);
        let mut ball = std::mem::take(&mut self.scratch_ball);
        let p = self.row(si);
        let radius = 2.0 * self.params.dcut * PAD;
        self.tree.range_search_into(p, radius, &mut hits);
        hits.retain(|&x| self.alive[x]);
        for b in self.buffer() {
            if self.alive[b] && dist_sq(p, self.row(b)) <= radius * radius {
                hits.push(b);
            }
        }
        self.split_ball(p, &mut hits, &mut ball);
        self.counters.bumped += ball.len() as u64;
        for &q in &ball {
            self.bump_count(q, false);
        }

        // Case 2 repairs. Collect before recomputing: recomputes edit the
        // reverse-dependent lists being walked. The sets are disjoint (a
        // point has one dependent), so a plain concatenation is dedup-free.
        let mut stale: Vec<u32> = orphans;
        for &q in &ball {
            for &y in &self.children[q] {
                if self.rho[q] <= self.rho[y as usize] {
                    stale.push(y);
                }
            }
        }
        for &y in &stale {
            self.recompute_delta(y);
        }

        // Case 3: each bumped neighbour fell past the unbumped points in its
        // crossed interval. A local peak recomputes, unless case 2 just did;
        // every other neighbour enters the count index, and the query's
        // unbumped hits look up the neighbours they now out-rank.
        let dcut_sq = self.params.dcut * self.params.dcut;
        let mut index = std::mem::take(&mut self.scratch_index);
        index.clear();
        for &b in &ball {
            let q = b as u32;
            if self.dsq[b] <= dcut_sq {
                let key = self.count[b];
                let (lo, hi) = (self.rho[b], self.jitter(key + 1, b));
                index.push(Crossing { key, slot: q, lo, hi });
            } else if !stale.contains(&q) {
                self.recompute_delta(q);
            }
        }
        index.sort_unstable_by_key(|e| (e.key, e.slot));
        for &x in &hits {
            self.counters.candidates += 1;
            let rx = self.rho[x];
            let found = crossings(&index, self.count[x]);
            self.counters.index_scanned += found.len() as u64;
            for e in found {
                let q = e.slot as usize;
                if e.lo < rx && rx < e.hi {
                    let d = dist_sq(self.row(q), self.row(x));
                    if self.improves(q, d, x as u32) {
                        self.set_dep(e.slot, x as u32, d);
                    }
                }
            }
        }
        self.scratch_index = index;
        self.scratch_hits = hits;
        self.scratch_ball = ball;
    }

    /// Appends slot `slot = stable.len()` for stable id `id` with ball count
    /// `count`, its ρ jittered and no dependent yet.
    fn push_slot(&mut self, id: u64, point: &[f64], count: usize) -> u32 {
        let slot = self.stable.len() as u32;
        self.buffer_rows.push(point);
        self.stable.push(id);
        self.count.push(count);
        self.rho.push(jittered_density_keyed(count, id, self.params.jitter_seed));
        self.dsq.push(f64::INFINITY);
        self.dep.push(slot);
        self.children.push(Vec::new());
        self.alive.push(true);
        self.live += 1;
        slot
    }

    /// Inserts into the buffer plus removals of tree points since the last
    /// rebuild: zero exactly when the tree indexes every slot and every slot
    /// is live.
    fn pending(&self) -> usize {
        self.buffer().len() + self.tombstones
    }

    /// Rebuilds the index once the buffer plus the removed tree points pass
    /// `1 / REBUILD_RATIO` of the live window.
    fn maybe_rebuild(&mut self) {
        if self.pending() * REBUILD_RATIO > self.live {
            self.rebuild();
        }
    }

    /// Renumbers the live slots `0..live` in arrival order and builds the
    /// tree (on `params.threads` workers) and its keys over them; the buffer
    /// and the tombstones empty. Returns the live rows in the new slot order,
    /// gathered for the build: the engine keeps no copy of them.
    fn rebuild(&mut self) -> Dataset {
        self.counters.rebuilds += 1;
        let keep: Vec<usize> = (0..self.stable.len()).filter(|&s| self.alive[s]).collect();
        let mut new_slot = vec![u32::MAX; self.stable.len()];
        for (new, &old) in keep.iter().enumerate() {
            new_slot[old] = new as u32;
        }
        let rows = self.gather_rows(&keep);
        let tree = KdTree::build_parallel(&rows, &Executor::new(self.params.threads));
        self.buffer_rows = Dataset::new(self.dim);
        self.stable = keep.iter().map(|&s| self.stable[s]).collect();
        self.count = keep.iter().map(|&s| self.count[s]).collect();
        self.rho = keep.iter().map(|&s| self.rho[s]).collect();
        self.dsq = keep.iter().map(|&s| self.dsq[s]).collect();
        self.dep = keep.iter().map(|&s| new_slot[self.dep[s] as usize]).collect();
        // A live point's reverse dependents are live: a removal unlinks the
        // removed point from its dependent's list.
        self.children = keep
            .iter()
            .map(|&s| {
                let mut list = std::mem::take(&mut self.children[s]);
                list.iter_mut().for_each(|y| *y = new_slot[*y as usize]);
                list
            })
            .collect();
        self.install(tree);
        rows
    }

    /// Makes `tree`, built over every slot (all live), the index, keyed by
    /// ρ and by reach.
    fn install(&mut self, tree: KdTree) {
        let reach: Vec<f64> = (0..self.stable.len()).map(|x| self.reach(x)).collect();
        self.rho_keys = MaxKeys::new(&tree, &self.rho);
        self.reach_keys = MaxKeys::new(&tree, &reach);
        self.tree = Arc::new(tree);
        self.alive = vec![true; self.stable.len()];
        self.tombstones = 0;
        self.first_live = 0;
    }

    /// Loads `data`'s points into an engine that has never taken a point,
    /// with the same outcome as inserting them in order: the same
    /// [`StreamingDpc::len`], [`StreamingDpc::to_parts`],
    /// [`StreamingDpc::drain_expired`] and next stable id. In sliding-window
    /// mode with `n ≥ capacity + batch` points the engine keeps the last
    /// `capacity + (n − capacity) mod batch` and reports the rest as expired,
    /// oldest first.
    ///
    /// The kept points take one [`ExDpc::fit_keyed`] at `params.threads`,
    /// keyed by their stable ids; the engine's counts, ρ, δ and dependents
    /// come from it, the fit's tree becomes the engine's index, and the
    /// reverse-dependent lists follow from the dependents. The fit's input
    /// is dropped once that tree holds its rows, so the loaded engine keeps
    /// no coordinates besides the tree's. An empty `data` loads nothing. The
    /// counters are not touched.
    ///
    /// # Errors
    /// [`DpcError::InvalidParams`] when the engine has taken a point before,
    /// [`DpcError::DimensionMismatch`] when `data`'s dimensionality is not
    /// the engine's, and [`DpcError::NonFiniteCoordinate`] for a NaN or ±∞
    /// coordinate. Nothing is loaded on error.
    pub fn bulk_load(&mut self, data: &Dataset) -> Result<(), DpcError> {
        if self.next_id != 0 {
            return Err(DpcError::InvalidParams {
                param: "bulk_load",
                value: self.next_id as f64,
                requirement: "the engine must never have taken a point",
            });
        }
        if data.dim() != self.dim {
            return Err(DpcError::DimensionMismatch {
                what: "bulk-loaded points",
                expected: self.dim,
                got: data.dim(),
            });
        }
        if data.is_empty() {
            return Ok(());
        }
        validate_dataset(data)?;
        let n = data.len();
        let first = match self.window {
            Some((capacity, batch)) if n >= capacity + batch => {
                n - capacity - (n - capacity) % batch
            }
            _ => 0,
        };
        let kept = Dataset::from_flat(self.dim, data.flat()[first * self.dim..].to_vec());
        let keys: Vec<u64> = (first as u64..n as u64).collect();
        let (model, counts, tree) = ExDpc::new(self.params).fit_keyed_parts(&kept, &keys)?;

        let m = kept.len();
        self.dep = model.dependent().iter().map(|&d| d as u32).collect();
        // The exact squared distances the fit compared (δ is their root).
        self.dsq = (0..m)
            .map(|x| match self.dep[x] as usize {
                d if d == x => f64::INFINITY,
                d => dist_sq(kept.point(x), kept.point(d)),
            })
            .collect();
        self.children = vec![Vec::new(); m];
        for (y, &d) in self.dep.iter().enumerate() {
            if d as usize != y {
                self.children[d as usize].push(y as u32);
            }
        }
        self.count = counts;
        self.rho = model.rho().to_vec();
        self.live = m;
        self.stable = keys;
        self.install(tree);
        self.expired.extend(0..first as u64);
        self.next_id = n as u64;
        Ok(())
    }

    /// Exports the surviving window in arrival order as
    /// `(dataset, stable ids, model)`. The model is what
    /// [`ExDpc::fit_keyed`](crate::ExDpc::fit_keyed) would produce on that
    /// dataset with those ids as keys (bit-identical ρ and δ, the same
    /// dependents); dependent identifiers are remapped from internal slots
    /// to arrival positions. The model's index bytes are the index's bytes
    /// per live point (a packed row, an id and a position entry, and two
    /// keys) times the live count, so they depend on the window alone, not
    /// on how the engine was loaded or when it last rebuilt.
    ///
    /// Returns [`DpcError::EmptyDataset`] when the window is empty.
    pub fn to_parts(&self) -> Result<(Dataset, Vec<u64>, DpcModel), DpcError> {
        self.export(None)
    }

    /// [`StreamingDpc::to_parts`], with `rows` as the exported dataset when
    /// the caller holds the live rows in arrival order already.
    fn export(&self, rows: Option<Dataset>) -> Result<(Dataset, Vec<u64>, DpcModel), DpcError> {
        if self.live == 0 {
            return Err(DpcError::EmptyDataset);
        }
        let slots: Vec<usize> = (0..self.stable.len()).filter(|&s| self.alive[s]).collect();
        let mut pos_of_slot = vec![u32::MAX; self.stable.len()];
        for (pos, &s) in slots.iter().enumerate() {
            pos_of_slot[s] = pos as u32;
        }
        let ids: Vec<u64> = slots.iter().map(|&s| self.stable[s]).collect();
        let rho: Vec<f64> = slots.iter().map(|&s| self.rho[s]).collect();
        let delta: Vec<f64> = slots.iter().map(|&s| self.dsq[s].sqrt()).collect();
        let dependent: Vec<usize> =
            slots.iter().map(|&s| pos_of_slot[self.dep[s] as usize] as usize).collect();
        let per_point = self.dim * std::mem::size_of::<f64>()
            + 2 * std::mem::size_of::<u32>()
            + 2 * std::mem::size_of::<f64>();
        let model = DpcModel::from_parts(
            "Streaming-DPC",
            self.params.dcut,
            rho,
            delta,
            dependent,
            Timings::default(),
            self.live * per_point,
        )?;
        Ok((rows.unwrap_or_else(|| self.gather_rows(&slots)), ids, model))
    }

    /// [`StreamingDpc::to_parts`] plus the engine's index over the exported
    /// window, for a caller that serves the window and would otherwise build
    /// a second tree over it. With inserts or removals pending, the index is
    /// first rebuilt over exactly the live window (counted in
    /// [`StreamingCounters::rebuilds`]), and the rows the rebuild gathered
    /// are the exported dataset; the tree's ids are then the dataset's
    /// positions, and it is [`KdTree::layout_eq`] to [`KdTree::build`] of
    /// that dataset. A second call with no update in between rebuilds
    /// nothing and returns the same `Arc`. The engine never changes a tree
    /// it has exported: its next rebuild replaces it.
    ///
    /// Returns [`DpcError::EmptyDataset`] when the window is empty.
    pub fn to_indexed_parts(
        &mut self,
    ) -> Result<(Dataset, Vec<u64>, DpcModel, Arc<KdTree>), DpcError> {
        if self.live == 0 {
            return Err(DpcError::EmptyDataset);
        }
        let rows = (self.pending() > 0).then(|| self.rebuild());
        let (data, ids, model) = self.export(rows)?;
        Ok((data, ids, model, Arc::clone(&self.tree)))
    }

    /// Approximate heap memory used by the engine, in bytes.
    pub fn mem_usage(&self) -> usize {
        self.tree.mem_usage()
            + self.rho_keys.mem_usage()
            + self.reach_keys.mem_usage()
            + self.buffer_rows.mem_usage()
            + (self.stable.capacity() + self.count.capacity()) * std::mem::size_of::<u64>()
            + (self.rho.capacity() + self.dsq.capacity()) * std::mem::size_of::<f64>()
            + self.dep.capacity() * std::mem::size_of::<u32>()
            + self.children.iter().map(|c| c.capacity() * 4).sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framework::select_and_assign;
    use crate::params::Thresholds;
    use dpc_geometry::dist;
    use dpc_rng::StdRng;

    /// Brute-force oracle: exact ρ, δ and dependents per the definitions,
    /// jittered on the stable ids. The dependent is the nearest strictly
    /// denser point, the earliest (smallest position) among equals.
    fn brute(
        points: &[Vec<f64>],
        keys: &[u64],
        dcut: f64,
        seed: u64,
    ) -> (Vec<f64>, Vec<f64>, Vec<usize>) {
        let n = points.len();
        let rho: Vec<f64> = (0..n)
            .map(|i| {
                let count =
                    (0..n).filter(|&j| j != i && dist(&points[i], &points[j]) <= dcut).count();
                jittered_density_keyed(count, keys[i], seed)
            })
            .collect();
        let nearest: Vec<Option<(f64, usize)>> = (0..n)
            .map(|i| {
                (0..n)
                    .filter(|&j| rho[j] > rho[i])
                    .map(|j| (dist_sq(&points[i], &points[j]), j))
                    .min_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)))
            })
            .collect();
        let delta = nearest.iter().map(|b| b.map_or(f64::INFINITY, |(d, _)| d.sqrt())).collect();
        let dependent = nearest.iter().enumerate().map(|(i, b)| b.map_or(i, |(_, j)| j)).collect();
        (rho, delta, dependent)
    }

    /// Asserts the engine state equals the brute-force oracle on the live
    /// window: bitwise ρ and δ, and the same dependents.
    fn assert_matches_oracle(engine: &StreamingDpc, seed: u64) {
        let (data, ids, model) = engine.to_parts().unwrap();
        let points: Vec<Vec<f64>> = (0..data.len()).map(|i| data.point(i).to_vec()).collect();
        let (rho, delta, dependent) = brute(&points, &ids, engine.dcut(), seed);
        for i in 0..data.len() {
            assert_eq!(model.rho()[i].to_bits(), rho[i].to_bits(), "ρ mismatch at {i}");
            assert_eq!(model.delta()[i].to_bits(), delta[i].to_bits(), "δ mismatch at {i}");
            assert_eq!(model.dependent()[i], dependent[i], "dependent mismatch at {i}");
        }
    }

    #[test]
    fn insert_only_matches_oracle() {
        let params = DpcParams::new(6.0).with_jitter_seed(0xfeed);
        let mut engine = StreamingDpc::new(params, 2).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        for step in 0..150 {
            let p = [rng.gen_range(0.0..40.0), rng.gen_range(0.0..40.0)];
            engine.insert(&p).unwrap();
            if step % 25 == 24 {
                assert_matches_oracle(&engine, 0xfeed);
            }
        }
        assert_matches_oracle(&engine, 0xfeed);
    }

    #[test]
    fn interleaved_insert_remove_matches_oracle() {
        let params = DpcParams::new(5.0).with_jitter_seed(7);
        let mut engine = StreamingDpc::new(params, 3).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        let mut live_ids: Vec<u64> = Vec::new();
        let mut recent: Vec<Vec<f64>> = Vec::new();
        for step in 0..400 {
            if live_ids.is_empty() || rng.gen_range(0.0..1.0) < 0.65 {
                // Occasionally duplicate an existing point exactly.
                let p: Vec<f64> = if !recent.is_empty() && rng.gen_range(0.0..1.0) < 0.2 {
                    recent[rng.gen_range(0..recent.len())].clone()
                } else {
                    (0..3).map(|_| rng.gen_range(0.0..30.0)).collect()
                };
                let id = engine.insert(&p).unwrap();
                live_ids.push(id);
                recent.push(p);
                if recent.len() > 32 {
                    recent.remove(0);
                }
            } else {
                let k = rng.gen_range(0..live_ids.len());
                let id = live_ids.swap_remove(k);
                assert!(engine.remove(id));
                assert!(!engine.remove(id), "double remove must be rejected");
            }
            if step % 50 == 49 && !engine.is_empty() {
                assert_matches_oracle(&engine, 7);
            }
        }
        assert_eq!(engine.len(), live_ids.len());
    }

    #[test]
    fn sliding_window_expires_oldest_in_batches() {
        let params = DpcParams::new(4.0);
        let mut engine = StreamingDpc::new(params, 2).unwrap().with_window(50, 10);
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..200 {
            let p = [rng.gen_range(0.0..20.0), rng.gen_range(0.0..20.0)];
            engine.insert(&p).unwrap();
            assert!(engine.len() < 50 + 10, "window must never exceed capacity + batch");
        }
        let expired = engine.drain_expired();
        assert_eq!(expired.len() + engine.len(), 200);
        // Oldest-first expiry: everything expired is older than everything live.
        let oldest_live = (0..200u64).find(|id| engine.contains(*id)).unwrap();
        assert!(expired.iter().all(|&id| id < oldest_live));
        let mut sorted = expired.clone();
        sorted.sort_unstable();
        assert_eq!(expired, sorted, "expiry reports oldest first");
        assert_matches_oracle(&engine, DpcParams::new(4.0).jitter_seed);
        assert!(engine.drain_expired().is_empty(), "drain must reset the log");
    }

    #[test]
    fn removing_the_densest_point_promotes_a_new_root() {
        // A tight clump (dense) plus a spread ring; remove the clump centre
        // repeatedly and re-verify exactness each time.
        let params = DpcParams::new(3.0);
        let mut engine = StreamingDpc::new(params, 2).unwrap();
        let mut rng = StdRng::seed_from_u64(4);
        let mut ids = Vec::new();
        for _ in 0..40 {
            let p = [10.0 + rng.gen_range(-0.5..0.5), 10.0 + rng.gen_range(-0.5..0.5)];
            ids.push(engine.insert(&p).unwrap());
        }
        for _ in 0..20 {
            let p = [rng.gen_range(0.0..40.0), rng.gen_range(0.0..40.0)];
            ids.push(engine.insert(&p).unwrap());
        }
        for _ in 0..30 {
            let (_, _, model) = engine.to_parts().unwrap();
            let densest =
                (0..model.n()).max_by(|&a, &b| model.rho()[a].total_cmp(&model.rho()[b])).unwrap();
            assert!(model.delta()[densest].is_infinite());
            let (_, window_ids, _) = engine.to_parts().unwrap();
            assert!(engine.remove(window_ids[densest]));
            assert_matches_oracle(&engine, params.jitter_seed);
        }
    }

    #[test]
    fn labels_match_a_fresh_extract() {
        // End to end: engine labels (via exported model) on two blobs.
        let params = DpcParams::new(5.0);
        let mut engine = StreamingDpc::new(params, 2).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        for i in 0..120 {
            let (cx, cy) = if i % 2 == 0 { (0.0, 0.0) } else { (50.0, 50.0) };
            let p = [cx + rng.gen_range(-2.0..2.0), cy + rng.gen_range(-2.0..2.0)];
            engine.insert(&p).unwrap();
        }
        let (_, _, model) = engine.to_parts().unwrap();
        let thresholds = Thresholds::new(2.0, 20.0).unwrap();
        let clustering = model.extract(&thresholds);
        assert_eq!(clustering.num_clusters(), 2);
        let order = crate::framework::descending_density_order(model.rho());
        let (_, assignment) =
            select_and_assign(&thresholds, model.rho(), model.delta(), model.dependent(), &order);
        assert_eq!(clustering.assignment, assignment);
    }

    /// Exact counters on a 1-d fixture traced by hand. d_cut = 1, and while
    /// the window holds fewer than 16 points every insert and remove ends
    /// with a rebuild. The jitter seed is the first one that orders the
    /// jitters of ids 0 > 1 > 3 > 2; every "denser" below follows from that
    /// order and the counts.
    #[test]
    fn counters_match_a_hand_trace() {
        let j = |id: u64, seed: u64| jittered_density_keyed(0, id, seed);
        let seed = (0u64..)
            .find(|&s| j(0, s) > j(1, s) && j(1, s) > j(3, s) && j(3, s) > j(2, s))
            .unwrap();
        let mut engine = StreamingDpc::new(DpcParams::new(1.0).with_jitter_seed(seed), 1).unwrap();
        let expect = |c: StreamingCounters, want: [u64; 7], step: &str| {
            let got = [
                c.inserts,
                c.removes,
                c.bumped,
                c.candidates,
                c.index_scanned,
                c.recomputes,
                c.rebuilds,
            ];
            assert_eq!(got, want, "{step}: [ins, rem, bumped, cand, scanned, recomp, rebuilds]");
        };
        // id 0 at 0.0: the reverse query finds nothing; the recompute finds
        // no denser point (δ = ∞, so 0's reach is ∞).
        engine.insert(&[0.0]).unwrap();
        expect(engine.counters(), [1, 0, 0, 0, 0, 1, 1], "insert 0");
        // id 1 at 0.5: the query finds 0, in the ball; both counts become 1,
        // 0 is denser, so 1 depends on it from the ball.
        engine.insert(&[0.5]).unwrap();
        expect(engine.counters(), [2, 0, 1, 0, 0, 1, 2], "insert 1");
        // id 2 at 1.8: the query finds 0 (reach ∞) and 1 (reach 1.5), both
        // beyond the ball; 2 recomputes (δ 1.3 to 1). Candidates 0 and 1
        // find an empty index.
        engine.insert(&[1.8]).unwrap();
        expect(engine.counters(), [3, 0, 1, 2, 0, 2, 3], "insert 2");
        // id 3 at 1.2: the query finds 0, 1 and 2 (reach 2.3); the ball is
        // {1, 2} (counts 2 and 1), 3's count is 2 and 1 is denser, so 3
        // depends on 1. 1's dependent 0 is no longer denser: 1 recomputes
        // to δ = ∞. Candidate 0 (count 1) takes 3 (δ_0 = 1.2), then scans
        // the entries of keys 0 and 1 — 2's and 1's — and crosses 1:
        // δ_0 = 0.5.
        engine.insert(&[1.2]).unwrap();
        expect(engine.counters(), [4, 0, 3, 3, 2, 3, 4], "insert 3");
        // Remove id 1: the range query (radius 2) finds 0, 2 and 3; the
        // ball is {0, 3} (counts 0 and 1), both orphans of 1, so both
        // recompute, and neither recomputes again as a local peak.
        // Candidate 2 finds an empty index.
        assert!(engine.remove(1));
        expect(engine.counters(), [4, 1, 5, 4, 2, 5, 5], "remove 1");
        // Remove id 2: ball {3} (count 0); its follower 0 is now at least
        // as dense, so 0 recomputes (δ = ∞). 3 is a local peak (δ = ∞)
        // and recomputes (δ 1.2). Candidate 0 finds an empty index.
        assert!(engine.remove(2));
        expect(engine.counters(), [4, 2, 6, 5, 2, 7, 6], "remove 2");
        assert_matches_oracle(&engine, seed);
    }

    #[test]
    fn bulk_load_rejects_a_used_engine_and_bad_data() {
        let mut engine = StreamingDpc::new(DpcParams::new(1.0), 2).unwrap();
        engine.bulk_load(&Dataset::new(2)).unwrap();
        assert!(engine.is_empty(), "an empty load loads nothing");
        let bad = Dataset::from_flat(2, vec![0.0, 1.0, f64::INFINITY, 2.0]);
        assert_eq!(
            engine.bulk_load(&bad),
            Err(DpcError::NonFiniteCoordinate { point: 1, axis: 0 })
        );
        assert!(matches!(
            engine.bulk_load(&Dataset::from_flat(3, vec![0.0; 3])),
            Err(DpcError::DimensionMismatch { what: "bulk-loaded points", .. })
        ));
        let data = Dataset::from_flat(2, vec![0.0, 0.0, 0.5, 0.5, 3.0, 3.0]);
        engine.bulk_load(&data).unwrap();
        assert_eq!(engine.len(), 3);
        assert_eq!(engine.counters(), StreamingCounters::default(), "a load counts nothing");
        assert_matches_oracle(&engine, DpcParams::new(1.0).jitter_seed);
        assert!(matches!(engine.bulk_load(&data), Err(DpcError::InvalidParams { .. })));
        assert_eq!(engine.insert(&[1.0, 1.0]).unwrap(), 3, "the next id follows the load");
        let mut used = StreamingDpc::new(DpcParams::new(1.0), 2).unwrap();
        let id = used.insert(&[0.0, 0.0]).unwrap();
        assert!(used.remove(id));
        assert!(matches!(used.bulk_load(&data), Err(DpcError::InvalidParams { .. })));
    }

    #[test]
    fn rejects_bad_input() {
        let mut engine = StreamingDpc::new(DpcParams::new(1.0), 2).unwrap();
        assert!(matches!(
            engine.insert(&[1.0]),
            Err(DpcError::DimensionMismatch { what: "streaming point", .. })
        ));
        assert!(matches!(
            engine.insert(&[1.0, f64::NAN]),
            Err(DpcError::NonFiniteCoordinate { .. })
        ));
        assert!(!engine.remove(0));
        assert!(matches!(engine.to_parts(), Err(DpcError::EmptyDataset)));
        assert!(StreamingDpc::new(DpcParams::new(-1.0), 2).is_err());
        assert!(StreamingDpc::new(DpcParams::new(1.0), 0).is_err());
    }
}
