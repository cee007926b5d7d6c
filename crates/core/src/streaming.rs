//! Streaming DPC: exact Ex-DPC maintenance under point insertions and
//! removals, with localized ρ updates and δ repair.
//!
//! The batch pipeline treats the dataset as static — any change costs a full
//! refit, even though an insert or delete only perturbs ρ inside the `d_cut`
//! ball of the touched point (Definition 1 is a local count) and δ for a
//! bounded set of points. [`StreamingDpc`] maintains the exact Ex-DPC model
//! under point insertions and removals:
//!
//! * **ρ maintenance** is one range query around the touched point: every
//!   live point inside its `d_cut` ball gets `count ± 1` and is re-jittered
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
//!   Cases 1–2 take a **full recompute**: one nearest-neighbour descent of
//!   the incremental kd-tree that accepts only strictly denser points
//!   ([`IncrementalKdTree::nearest_where`]). This is the query the paper asks
//!   of its tree of denser points (§3, Lemma 2), with the density test moved
//!   into the descent. Case 3 repairs with one distance comparison per
//!   candidate, because a stale δ is a one-sided bound: on insert nobody's δ
//!   can grow except through its dependent, on delete nobody's δ can shrink
//!   except through new denser points.
//!
//! **Case-3 candidates, by place.** Every update makes one range query of
//! radius `d_cut + far_cut` around the touched point, `far_cut` being
//! `FAR_FACTOR · d_cut` (padded against the rounding of the strict
//! inequalities below). Its hits within `d_cut` are the ball, re-partitioned
//! exactly; the rest are the near frontier.
//!
//! * On insert, a point `x` that gained a denser point gained it from the
//!   arrival or a bumped neighbour, all within `d_cut` of the arrival, so
//!   `dist(x, arrival) < δ_x + d_cut`. Candidates with δ ≤ `far_cut` are
//!   therefore in the query. The rest are exactly the **far list**, which
//!   mirrors their coordinates and δ contiguously and is swept sequentially:
//!   too spread out for spatial pruning to pay, and a minority of the window
//!   (~11% of the `household_fit` benchmark window, ~21% of `syn_fit`'s).
//! * On delete, only a bumped neighbour `q` itself can gain denser points
//!   (the points in its crossed interval now out-rank it), and any
//!   improvement lies strictly within δ_q of `q`. When δ_q ≤ `far_cut`, that
//!   is within `d_cut + far_cut` of the removed point, inside the same
//!   query. A bumped `q` with δ_q > `far_cut` is a local density peak, and
//!   it takes one full recompute instead.
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
//! dependents, plus a balanced tree, the reverse-dependent lists and the far
//! list built from them.
//!
//! A sliding-window mode ([`StreamingDpc::with_window`]) batches expiry of
//! the oldest points: once the window overflows by a full batch, the oldest
//! live points are removed (each through the same exact delete path) until
//! the window is back at capacity.

use std::collections::{HashMap, VecDeque};

use dpc_geometry::distance::dist_sq;
use dpc_geometry::{dist, Dataset};
use dpc_index::IncrementalKdTree;

use crate::error::DpcError;
use crate::exdpc::ExDpc;
use crate::framework::{jittered_density_keyed, validate_dataset};
use crate::model::DpcModel;
use crate::params::DpcParams;
use crate::result::Timings;

/// δ threshold, as a multiple of `d_cut`, above which a point is tracked in
/// the flat far list instead of being found by the widened frontier range
/// query. Raising it shrinks the far list but widens (quadratically, in
/// area) the range query; `1×` balances the two for ball populations in the
/// localized-repair regime. Measured, the far list holds ~11% of the
/// `household_fit` benchmark window and ~21% of `syn_fit`'s.
const FAR_FACTOR: f64 = 1.0;

/// Slot marker for "not in the far list".
const NO_POS: u32 = u32::MAX;

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
    /// Unbumped frontier points tested for a density-order crossing.
    pub candidates: u64,
    /// Count-index entries those candidates scanned.
    pub index_scanned: u64,
    /// Full δ recomputes (nearest-denser descents).
    pub recomputes: u64,
    /// Far-list entries swept by inserts.
    pub far_swept: u64,
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
    // ---- per-slot state (slot = dense internal index, reused after removal)
    /// Coordinate rows, `dim` values per slot.
    coords: Vec<f64>,
    /// Stable external id of each slot.
    stable: Vec<u64>,
    /// Integer `d_cut`-ball count (excluding the point itself).
    count: Vec<usize>,
    /// Jittered local density.
    rho: Vec<f64>,
    /// Distance to the dependent point (∞ for the densest point).
    delta: Vec<f64>,
    /// Dependent slot; equals the slot itself when no denser point exists.
    dep: Vec<u32>,
    /// Reverse-dependent lists: slots `y` with `dep[y] == slot`.
    children: Vec<Vec<u32>>,
    alive: Vec<bool>,
    /// Scratch mark bits, one per slot (cleared after every operation).
    mark: Vec<bool>,
    free: Vec<u32>,
    live: usize,
    // ---- lookup and spatial index
    id_to_slot: HashMap<u64, u32>,
    /// Holds every live point, keyed by slot.
    tree: IncrementalKdTree,
    // ---- far list: live slots with δ > FAR_FACTOR · d_cut (the local
    // density peaks), mirrored contiguously so the insert frontier can sweep
    // them sequentially instead of chasing them through the tree.
    /// Slots in the far list, in arbitrary (swap-remove) order.
    far_slots: Vec<u32>,
    /// Coordinate mirror, `dim` values per far entry (rows never move while
    /// a slot is live, so the mirror cannot go stale).
    far_coords: Vec<f64>,
    /// δ mirror, kept current by [`StreamingDpc::set_dep`].
    far_delta: Vec<f64>,
    /// Slot → position in `far_slots` (`NO_POS` when absent).
    far_pos: Vec<u32>,
    /// Stable ids in arrival order. Ids removed out of order linger until
    /// they reach the front and are skipped lazily (`id_to_slot` miss).
    arrivals: VecDeque<u64>,
    /// `(capacity, batch)` for sliding-window mode.
    window: Option<(usize, usize)>,
    /// Stable ids expired by the window since the last `drain_expired`.
    expired: Vec<u64>,
    next_id: u64,
    counters: StreamingCounters,
    // ---- query scratch (kept to avoid per-operation allocation)
    scratch_ball: Vec<usize>,
    scratch_near: Vec<usize>,
    scratch_far: Vec<usize>,
    scratch_index: Vec<Crossing>,
}

impl StreamingDpc {
    /// Creates an empty engine for `dim`-dimensional points. `params`
    /// contributes `d_cut` and the jitter seed; its `threads` run the fit of
    /// [`StreamingDpc::bulk_load`]. Inserts and removes are sequential: each
    /// is a small, order-dependent repair.
    pub fn new(params: DpcParams, dim: usize) -> Result<Self, DpcError> {
        params.validate()?;
        if dim == 0 {
            return Err(DpcError::InvalidParams {
                param: "dim",
                value: 0.0,
                requirement: "streaming dimensionality must be positive",
            });
        }
        Ok(Self {
            dim,
            params,
            coords: Vec::new(),
            stable: Vec::new(),
            count: Vec::new(),
            rho: Vec::new(),
            delta: Vec::new(),
            dep: Vec::new(),
            children: Vec::new(),
            alive: Vec::new(),
            mark: Vec::new(),
            free: Vec::new(),
            live: 0,
            id_to_slot: HashMap::new(),
            tree: IncrementalKdTree::new(dim),
            far_slots: Vec::new(),
            far_coords: Vec::new(),
            far_delta: Vec::new(),
            far_pos: Vec::new(),
            arrivals: VecDeque::new(),
            window: None,
            expired: Vec::new(),
            next_id: 0,
            counters: StreamingCounters::default(),
            scratch_ball: Vec::new(),
            scratch_near: Vec::new(),
            scratch_far: Vec::new(),
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
        self.id_to_slot.contains_key(&id)
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

    #[inline]
    fn row(&self, slot: u32) -> &[f64] {
        &self.coords[slot as usize * self.dim..(slot as usize + 1) * self.dim]
    }

    #[inline]
    fn jitter(&self, count: usize, slot: u32) -> f64 {
        jittered_density_keyed(count, self.stable[slot as usize], self.params.jitter_seed)
    }

    #[inline]
    fn far_cut(&self) -> f64 {
        self.params.dcut * FAR_FACTOR
    }

    /// Changes slot `q`'s ball count by ±1 and re-jitters its ρ.
    fn bump_count(&mut self, q: u32, up: bool) {
        let qi = q as usize;
        self.count[qi] = if up { self.count[qi] + 1 } else { self.count[qi] - 1 };
        self.rho[qi] = self.jitter(self.count[qi], q);
    }

    /// Points `x`'s dependent at slot `j` with distance `d`, maintaining the
    /// reverse-dependent lists and the far-list mirror of δ. `j == x` clears
    /// the dependent (`d` must then be ∞).
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
        self.delta[xi] = d;
        if j != x {
            self.children[j as usize].push(x);
        }
        self.far_sync(x);
    }

    /// Re-syncs slot `x`'s far-list membership (and δ mirror) with its
    /// current δ.
    fn far_sync(&mut self, x: u32) {
        let xi = x as usize;
        let pos = self.far_pos[xi];
        if self.delta[xi] > self.far_cut() {
            if pos == NO_POS {
                self.far_pos[xi] = self.far_slots.len() as u32;
                self.far_slots.push(x);
                self.far_coords.extend_from_slice(&self.coords[xi * self.dim..(xi + 1) * self.dim]);
                self.far_delta.push(self.delta[xi]);
            } else {
                self.far_delta[pos as usize] = self.delta[xi];
            }
        } else if pos != NO_POS {
            self.far_drop(x);
        }
    }

    /// Removes slot `x` from the far list if present (swap-remove, keeping
    /// the mirrors dense).
    fn far_drop(&mut self, x: u32) {
        let xi = x as usize;
        let pos = self.far_pos[xi] as usize;
        if self.far_pos[xi] == NO_POS {
            return;
        }
        let last = self.far_slots.len() - 1;
        self.far_slots.swap_remove(pos);
        self.far_delta.swap_remove(pos);
        for k in 0..self.dim {
            self.far_coords[pos * self.dim + k] = self.far_coords[last * self.dim + k];
        }
        self.far_coords.truncate(last * self.dim);
        if pos < self.far_slots.len() {
            self.far_pos[self.far_slots[pos] as usize] = pos as u32;
        }
        self.far_pos[xi] = NO_POS;
    }

    /// Exact δ for live slot `x`: its nearest strictly denser live point, by
    /// one kd-tree descent that accepts only denser ids. When none exists
    /// `x` is the densest live point (δ = ∞, its own dependent).
    fn recompute_delta(&mut self, x: u32) {
        self.counters.recomputes += 1;
        let rx = self.rho[x as usize];
        let rho = &self.rho;
        match self.tree.nearest_where(self.row(x), |j| rho[j] > rx) {
            Some((j, d)) => self.set_dep(x, j as u32, d),
            None => self.set_dep(x, x, f64::INFINITY),
        }
    }

    /// The one range query of an update, around `p` at radius
    /// `d_cut + far_cut` (padded so that the strict `dist < δ + d_cut`
    /// bounds of the module docs hold despite rounding): `near` receives
    /// every hit, `ball` the hits within `d_cut` (closed, Definition 1).
    fn frontier_query(&self, p: &[f64], near: &mut Vec<usize>, ball: &mut Vec<usize>) {
        let dcut = self.params.dcut;
        self.tree.range_search_into(p, (dcut + self.far_cut()) * (1.0 + 1e-9), near);
        ball.clear();
        ball.extend(
            near.iter().copied().filter(|&x| dist_sq(p, self.row(x as u32)) <= dcut * dcut),
        );
    }

    /// Inserts a point and returns its stable id. Exact maintenance:
    ///
    /// 1. ρ: the frontier query around the arrival; every ball neighbour
    ///    gets `count + 1` and the new point's own count is the ball size.
    /// 2. δ of the new point: its nearest denser ball neighbour, or a full
    ///    recompute when no neighbour is denser. A full recompute for every
    ///    neighbour whose dependent is no longer strictly denser (its own ρ
    ///    rose past it).
    /// 3. Frontier repair: a neighbour `q` whose count rose from `c` to
    ///    `c + 1` becomes a *new* denser point exactly for the unbumped
    ///    points whose ρ lies in `(fl(c + j_q), ρ_q)`, and the new point
    ///    itself is a candidate denser point for anything less dense. The
    ///    candidates are the unbumped hits of the frontier query and the
    ///    far-list entries that can reach the arrival; each looks up the
    ///    neighbours it can cross in the count index and repairs with one
    ///    distance comparison per crossing — on insert a stale δ is always
    ///    an upper bound.
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

        // The frontier query runs *before* the new point enters the tree.
        let mut near = std::mem::take(&mut self.scratch_near);
        let mut ball = std::mem::take(&mut self.scratch_ball);
        self.frontier_query(point, &mut near, &mut ball);
        self.counters.bumped += ball.len() as u64;

        let s = self.alloc_slot(id, point);
        for &q in &ball {
            self.bump_count(q as u32, true);
        }
        let si = s as usize;
        self.count[si] = ball.len();
        self.rho[si] = self.jitter(self.count[si], s);
        self.tree.insert(si, point);
        self.arrivals.push_back(id);

        self.mark[si] = true;
        for &q in &ball {
            self.mark[q] = true;
        }

        // Case 1: δ of the arrival. A denser neighbour inside the ball beats
        // every point beyond `d_cut`, so the tree is only consulted when the
        // arrival out-densifies its whole neighbourhood.
        let mut best: Option<(u32, f64)> = None;
        for &j in &ball {
            if self.rho[j] > self.rho[si] {
                let d = dist(point, self.row(j as u32));
                if best.is_none_or(|(_, bd)| d < bd) {
                    best = Some((j as u32, d));
                }
            }
        }
        match best {
            Some((j, d)) => self.set_dep(s, j, d),
            None => self.recompute_delta(s),
        }

        // Case 2: neighbours whose dependent stopped being strictly denser
        // when their own ρ rose.
        for &qi in &ball {
            let d = self.dep[qi] as usize;
            if d != qi && self.rho[d] <= self.rho[qi] {
                self.recompute_delta(qi as u32);
            }
        }

        // Case 3 for the ball itself: the new point as a denser candidate for
        // its less dense neighbours (bumped-vs-bumped needs no check — equal
        // count changes preserve their relative order).
        for &q in &ball {
            if self.rho[q] < self.rho[si] {
                let d = dist(self.row(q as u32), point);
                if d < self.delta[q] {
                    self.set_dep(q as u32, s, d);
                }
            }
        }

        // Case 3 outside the ball. Candidates with a small δ are the query's
        // other hits, each marked once repaired. The rest are the far-list
        // entries that can reach the arrival: collected after the near
        // repairs (which only shrink a δ, so they add nobody to the list)
        // and before their own (which edit the list under the sweep).
        let mut index = std::mem::take(&mut self.scratch_index);
        index.clear();
        for &q in &ball {
            let q = q as u32;
            let key = self.count[q as usize] - 1;
            let (lo, hi) = (self.jitter(key, q), self.rho[q as usize]);
            index.push(Crossing { key, slot: q, lo, hi });
        }
        index.sort_unstable_by_key(|e| (e.key, e.slot));
        for &xi in &near {
            if !self.mark[xi] {
                self.mark[xi] = true;
                self.repair_candidate(xi as u32, s, &index);
            }
        }
        let mut far = std::mem::take(&mut self.scratch_far);
        far.clear();
        self.counters.far_swept += self.far_slots.len() as u64;
        for k in 0..self.far_slots.len() {
            let xi = self.far_slots[k] as usize;
            if self.mark[xi] {
                continue;
            }
            let reach = (self.far_delta[k] + self.params.dcut) * (1.0 + 1e-9);
            let c = &self.far_coords[k * self.dim..(k + 1) * self.dim];
            if dist_sq(point, c) <= reach * reach {
                far.push(xi);
            }
        }
        for &xi in &far {
            self.repair_candidate(xi as u32, s, &index);
        }
        self.scratch_far = far;
        self.scratch_index = index;

        self.mark[si] = false;
        for &x in &near {
            self.mark[x] = false;
        }
        self.scratch_near = near;
        self.scratch_ball = ball;

        if let Some((capacity, batch)) = self.window {
            if self.live >= capacity + batch {
                while self.live > capacity {
                    let oldest = self.pop_oldest_live().expect("live > capacity > 0");
                    self.expired.push(oldest);
                }
            }
        }
        Ok(id)
    }

    /// Case-3 repair of the unbumped point `x` after slot `s` was inserted:
    /// the arrival, and every bumped neighbour whose crossed interval holds
    /// ρ_x, are denser candidates, each taken if strictly nearer than δ_x.
    fn repair_candidate(&mut self, x: u32, s: u32, index: &[Crossing]) {
        self.counters.candidates += 1;
        let xi = x as usize;
        let rx = self.rho[xi];
        if rx < self.rho[s as usize] {
            let d = dist(self.row(x), self.row(s));
            if d < self.delta[xi] {
                self.set_dep(x, s, d);
            }
        }
        let hits = crossings(index, self.count[xi]);
        self.counters.index_scanned += hits.len() as u64;
        for e in hits {
            if e.lo < rx && rx < e.hi {
                let d = dist(self.row(x), self.row(e.slot));
                if d < self.delta[xi] {
                    self.set_dep(x, e.slot, d);
                }
            }
        }
    }

    /// Removes the point with stable id `id`. Returns `false` when the id is
    /// not live. Exact maintenance mirrors `insert`:
    ///
    /// 1. ρ: the frontier query around the removed coordinates; every ball
    ///    neighbour gets `count - 1`.
    /// 2. A full δ recompute for every point whose dependent was the removed
    ///    point, and for every follower of a neighbour whose ρ fell to or
    ///    below the follower's.
    /// 3. Frontier repair: a neighbour `q` whose count fell from `c + 1` to
    ///    `c` gains as denser points exactly the unbumped points with ρ in
    ///    `(ρ_q, fl(c + 1 + j_q))`, and only δ_q itself can shrink. Any
    ///    improvement lies strictly within δ_q of `q`: when δ_q ≤ `far_cut`
    ///    it is one of the query's hits, found through the count index and
    ///    taken with one distance comparison (on delete a stale δ is always
    ///    attained by a surviving denser point, so it can only improve);
    ///    otherwise `q` is a local peak and takes a full recompute.
    pub fn remove(&mut self, id: u64) -> bool {
        let Some(&slot) = self.id_to_slot.get(&id) else { return false };
        self.remove_slot(slot);
        true
    }

    /// Pops the oldest live stable id off the arrival queue and removes it.
    fn pop_oldest_live(&mut self) -> Option<u64> {
        while let Some(id) = self.arrivals.pop_front() {
            if let Some(&slot) = self.id_to_slot.get(&id) {
                self.remove_slot(slot);
                return Some(id);
            }
            // Removed out of order earlier; skip lazily.
        }
        None
    }

    fn remove_slot(&mut self, slot: u32) {
        let si = slot as usize;
        debug_assert!(self.alive[si]);
        self.counters.removes += 1;
        let px: Vec<f64> = self.row(slot).to_vec();

        // Detach the slot from every structure first, so the query below
        // sees exactly the surviving window.
        self.tree.remove(si);
        self.far_drop(slot);
        let dep = self.dep[si];
        if dep != slot {
            let list = &mut self.children[dep as usize];
            if let Some(pos) = list.iter().position(|&y| y == slot) {
                list.swap_remove(pos);
            }
        }
        let orphans = std::mem::take(&mut self.children[si]);
        self.id_to_slot.remove(&self.stable[si]);
        self.alive[si] = false;
        self.live -= 1;
        self.free.push(slot);

        let mut near = std::mem::take(&mut self.scratch_near);
        let mut ball = std::mem::take(&mut self.scratch_ball);
        self.frontier_query(&px, &mut near, &mut ball);
        self.counters.bumped += ball.len() as u64;
        for &q in &ball {
            self.bump_count(q as u32, false);
        }
        for &q in &ball {
            self.mark[q] = true;
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
        let mut index = std::mem::take(&mut self.scratch_index);
        index.clear();
        for &b in &ball {
            let q = b as u32;
            if self.delta[b] <= self.far_cut() {
                let key = self.count[b];
                let (lo, hi) = (self.rho[b], self.jitter(key + 1, q));
                index.push(Crossing { key, slot: q, lo, hi });
            } else if !stale.contains(&q) {
                self.recompute_delta(q);
            }
        }
        index.sort_unstable_by_key(|e| (e.key, e.slot));
        for &xi in &near {
            if self.mark[xi] {
                continue; // bumped alongside q — relative order unchanged
            }
            self.counters.candidates += 1;
            let rx = self.rho[xi];
            let hits = crossings(&index, self.count[xi]);
            self.counters.index_scanned += hits.len() as u64;
            for e in hits {
                if e.lo < rx && rx < e.hi {
                    let d = dist(self.row(xi as u32), self.row(e.slot));
                    if d < self.delta[e.slot as usize] {
                        self.set_dep(e.slot, xi as u32, d);
                    }
                }
            }
        }
        self.scratch_index = index;

        for &q in &ball {
            self.mark[q] = false;
        }
        self.scratch_near = near;
        self.scratch_ball = ball;
    }

    /// Allocates (or reuses) a slot for stable id `id`, leaving ρ/δ at their
    /// pre-insert placeholders.
    fn alloc_slot(&mut self, id: u64, point: &[f64]) -> u32 {
        let slot = match self.free.pop() {
            Some(slot) => {
                let si = slot as usize;
                self.coords[si * self.dim..(si + 1) * self.dim].copy_from_slice(point);
                self.stable[si] = id;
                slot
            }
            None => {
                let slot = self.stable.len() as u32;
                self.coords.extend_from_slice(point);
                self.stable.push(id);
                self.count.push(0);
                self.rho.push(0.0);
                self.delta.push(0.0);
                self.dep.push(0);
                self.children.push(Vec::new());
                self.alive.push(false);
                self.mark.push(false);
                self.far_pos.push(NO_POS);
                slot
            }
        };
        let si = slot as usize;
        self.count[si] = 0;
        self.rho[si] = 0.0;
        self.delta[si] = f64::INFINITY;
        self.dep[si] = slot;
        debug_assert!(self.children[si].is_empty());
        debug_assert_eq!(self.far_pos[si], NO_POS);
        self.alive[si] = true;
        self.live += 1;
        self.id_to_slot.insert(id, slot);
        slot
    }

    /// Loads `data`'s points into an engine that has never taken a point,
    /// with the same outcome as inserting them in order: the same
    /// [`StreamingDpc::len`], [`StreamingDpc::to_parts`] (dependents up to
    /// ties at equal distance), [`StreamingDpc::drain_expired`] and next
    /// stable id. In sliding-window mode with `n ≥ capacity + batch` points
    /// the engine keeps the last `capacity + (n − capacity) mod batch` and
    /// reports the rest as expired, oldest first.
    ///
    /// The kept points take one [`ExDpc::fit_keyed`] at `params.threads`,
    /// keyed by their stable ids; the engine's counts, ρ, δ and dependents
    /// come from it, its tree is built balanced in one pass, and the
    /// reverse-dependent lists and the far list follow from δ and the
    /// dependents. An empty `data` loads nothing. The counters are not
    /// touched.
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
        let (model, counts) = ExDpc::new(self.params).fit_keyed_counts(&kept, &keys)?;

        let m = kept.len();
        self.tree = IncrementalKdTree::build(&kept);
        self.coords = kept.flat().to_vec();
        self.count = counts;
        self.rho = model.rho().to_vec();
        self.delta = model.delta().to_vec();
        self.dep = model.dependent().iter().map(|&d| d as u32).collect();
        self.children = vec![Vec::new(); m];
        for (y, &d) in self.dep.iter().enumerate() {
            if d as usize != y {
                self.children[d as usize].push(y as u32);
            }
        }
        self.alive = vec![true; m];
        self.mark = vec![false; m];
        self.far_pos = vec![NO_POS; m];
        self.live = m;
        self.id_to_slot = keys.iter().enumerate().map(|(slot, &id)| (id, slot as u32)).collect();
        self.arrivals = keys.iter().copied().collect();
        self.stable = keys;
        for x in 0..m as u32 {
            self.far_sync(x);
        }
        self.expired.extend(0..first as u64);
        self.next_id = n as u64;
        Ok(())
    }

    /// Exports the surviving window in arrival order as
    /// `(dataset, stable ids, model)`. The model is what
    /// [`ExDpc::fit_keyed`](crate::ExDpc::fit_keyed) would produce on that
    /// dataset with those ids as keys (bit-identical ρ and δ); dependent
    /// identifiers are remapped from internal slots to arrival positions.
    /// The model's index bytes count the live points' share of the
    /// incremental tree alone, so they do not depend on how the engine was
    /// loaded.
    ///
    /// Returns [`DpcError::EmptyDataset`] when the window is empty.
    pub fn to_parts(&self) -> Result<(Dataset, Vec<u64>, DpcModel), DpcError> {
        if self.live == 0 {
            return Err(DpcError::EmptyDataset);
        }
        let mut data = Dataset::with_capacity(self.dim, self.live);
        let mut ids = Vec::with_capacity(self.live);
        let mut slots = Vec::with_capacity(self.live);
        let mut pos_of_slot = vec![u32::MAX; self.stable.len()];
        for &id in &self.arrivals {
            if let Some(&slot) = self.id_to_slot.get(&id) {
                pos_of_slot[slot as usize] = slots.len() as u32;
                data.push(self.row(slot));
                ids.push(id);
                slots.push(slot);
            }
        }
        debug_assert_eq!(slots.len(), self.live);
        let rho: Vec<f64> = slots.iter().map(|&s| self.rho[s as usize]).collect();
        let delta: Vec<f64> = slots.iter().map(|&s| self.delta[s as usize]).collect();
        let dependent: Vec<usize> = slots
            .iter()
            .enumerate()
            .map(|(pos, &s)| {
                let d = self.dep[s as usize];
                if d == s {
                    pos
                } else {
                    pos_of_slot[d as usize] as usize
                }
            })
            .collect();
        let model = DpcModel::from_parts(
            "Streaming-DPC",
            self.params.dcut,
            rho,
            delta,
            dependent,
            Timings::default(),
            self.tree.live_bytes(),
        )?;
        Ok((data, ids, model))
    }

    /// Approximate heap memory used by the engine, in bytes.
    pub fn mem_usage(&self) -> usize {
        self.tree.mem_usage()
            + self.coords.capacity() * std::mem::size_of::<f64>()
            + self.stable.capacity() * std::mem::size_of::<u64>()
            + self.children.iter().map(|c| c.capacity() * 4).sum::<usize>()
            + self.arrivals.capacity() * std::mem::size_of::<u64>()
            + self.far_coords.capacity() * std::mem::size_of::<f64>()
            + (self.far_slots.capacity() + self.far_pos.capacity()) * std::mem::size_of::<u32>()
            + self.far_delta.capacity() * std::mem::size_of::<f64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framework::select_and_assign;
    use crate::params::Thresholds;
    use dpc_rng::StdRng;

    /// Brute-force oracle: exact ρ/δ per the definitions, jittered on the
    /// stable ids.
    fn brute(points: &[Vec<f64>], keys: &[u64], dcut: f64, seed: u64) -> (Vec<f64>, Vec<f64>) {
        let n = points.len();
        let rho: Vec<f64> = (0..n)
            .map(|i| {
                let count =
                    (0..n).filter(|&j| j != i && dist(&points[i], &points[j]) <= dcut).count();
                jittered_density_keyed(count, keys[i], seed)
            })
            .collect();
        let delta: Vec<f64> = (0..n)
            .map(|i| {
                (0..n)
                    .filter(|&j| rho[j] > rho[i])
                    .map(|j| dist(&points[i], &points[j]))
                    .fold(f64::INFINITY, f64::min)
            })
            .collect();
        (rho, delta)
    }

    /// Asserts the engine state equals the brute-force oracle on the live
    /// window: bitwise ρ, bitwise δ, and a dependent that actually attains δ
    /// with strictly higher ρ.
    fn assert_matches_oracle(engine: &StreamingDpc, seed: u64) {
        let (data, ids, model) = engine.to_parts().unwrap();
        let points: Vec<Vec<f64>> = (0..data.len()).map(|i| data.point(i).to_vec()).collect();
        let (rho, delta) = brute(&points, &ids, engine.dcut(), seed);
        for i in 0..data.len() {
            assert_eq!(model.rho()[i].to_bits(), rho[i].to_bits(), "ρ mismatch at {i}");
            assert_eq!(model.delta()[i].to_bits(), delta[i].to_bits(), "δ mismatch at {i}");
            let dep = model.dependent()[i];
            if dep == i {
                assert!(model.delta()[i].is_infinite(), "self-dependent must have δ = ∞");
            } else {
                assert!(model.rho()[dep] > model.rho()[i], "dependent must be denser at {i}");
                assert_eq!(
                    dist(data.point(i), data.point(dep)).to_bits(),
                    model.delta()[i].to_bits(),
                    "dependent must attain δ at {i}"
                );
            }
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

    /// Exact counters on a 1-d fixture traced by hand. d_cut = far_cut = 1,
    /// so the frontier query reaches ~2. The jitter seed is the first one
    /// that orders the jitters of ids 0 > 1 > 3 > 2; every "denser" below
    /// follows from that order and the counts.
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
                c.far_swept,
            ];
            assert_eq!(got, want, "{step}: [ins, rem, bumped, cand, scanned, recomp, far]");
        };
        // id 0 at 0.0: an empty query; the recompute finds no denser point
        // (δ = ∞, so 0 enters the far list, which the sweep then skips).
        engine.insert(&[0.0]).unwrap();
        expect(engine.counters(), [1, 0, 0, 0, 0, 1, 1], "insert 0");
        // id 1 at 0.5: ball {0}; both counts become 1, 0 is denser, so 1
        // depends on it from the ball. The sweep sees {0}, marked.
        engine.insert(&[0.5]).unwrap();
        expect(engine.counters(), [2, 0, 1, 0, 0, 1, 2], "insert 1");
        // id 2 at 1.8: query {0, 1}, empty ball; 2 recomputes (δ 1.3 to 1,
        // so it joins the far list). Candidates 0 and 1 find an empty index;
        // the sweep sees {0, 2}, both marked.
        engine.insert(&[1.8]).unwrap();
        expect(engine.counters(), [3, 0, 1, 2, 0, 2, 4], "insert 2");
        // id 3 at 1.2: query {0, 1, 2}, ball {1, 2} (counts 2 and 1), 3's
        // count is 2 and 1 is denser, so 3 depends on 1. 1's dependent 0 is
        // no longer denser: 1 recomputes to δ = ∞. Candidate 0 (count 1)
        // scans the entries of keys 0 and 1 — 2's and 1's — and crosses 1:
        // δ_0 = 0.5. The sweep sees {1}, marked.
        engine.insert(&[1.2]).unwrap();
        expect(engine.counters(), [4, 0, 3, 3, 2, 3, 5], "insert 3");
        // Remove id 1: ball {0, 3} (counts 0 and 1), both orphans of 1, so
        // both recompute, and neither recomputes again as a local peak.
        // Candidate 2 finds an empty index.
        assert!(engine.remove(1));
        expect(engine.counters(), [4, 1, 5, 4, 2, 5, 5], "remove 1");
        // Remove id 2: ball {3} (count 0); its follower 0 is now at least
        // as dense, so 0 recomputes (δ = ∞). 3 is a local peak (δ = ∞)
        // and recomputes (δ 1.2). Candidate 0 finds an empty index.
        assert!(engine.remove(2));
        expect(engine.counters(), [4, 2, 6, 5, 2, 7, 5], "remove 2");
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
