//! Every point's closed-ball neighbour count, as one dual-tree self-join.
//!
//! Ex-DPC and Approx-DPC need, for every point, the number of other points
//! within `d_cut` (Definition 1). Asked one point at a time, every pair
//! within `d_cut` is found twice, once from each end, and every query
//! descends from the root. [`count_all_within`] walks pairs of nodes of the
//! packed kd-tree instead (the self-join of Gray & Moore, *'N-Body' Problems
//! in Statistical Learning*, NIPS 2000) and decides every unordered pair of
//! distinct points **once**, crediting both ends. It is one pair walker and
//! one rule set, the split of Curtin et al. (*Tree-Independent Dual-Tree
//! Algorithms*, ICML 2013):
//!
//! - **The walk.** `own(A)`, the pairs inside node `A`, recurses into
//!   `own(L)`, `own(R)` and `pair(L, R)` for `A`'s children. `pair(A, B)`
//!   splits the node with the larger span (a leaf never splits) until both
//!   are leaves. So every unordered pair of distinct points is decided
//!   exactly once: at its lowest common ancestor, by the one `pair` that
//!   holds its two ends.
//! - **Prune.** A pair whose squared minimum box–box distance exceeds `r²`
//!   holds no pair within the ball, and is skipped.
//! - **Contain.** A pair whose squared maximum box–box distance is at most
//!   `r²` holds only pairs within the ball: every point of `A` gains `|B|`
//!   and every point of `B` gains `|A|`, and every point of a contained
//!   `own(A)` gains `|A| − 1`. Those credits wait as pending counts over the
//!   node's packed range and are pushed down to the points once, at the end.
//! - **Leaves.** A leaf × leaf pair runs
//!   [`batch::count_pairs_block`], a leaf's own pairs
//!   [`batch::count_pairs_triangle`]: each distance computed once, both ends
//!   credited.
//!
//! # Exactness
//!
//! Every count equals [`KdTree::range_count`]`(point(id), radius,
//! Some(id))`, bit for bit, for finite coordinates. That query counts the
//! points `q ≠ id` with `fl(dist_sq(p, q)) ≤ r²`, where `p` is `id`'s row
//! (its box tests are exact shortcuts of that predicate), and so does the
//! self-join, for two reasons:
//!
//! - **`dist_sq` is symmetric bit for bit.** `fl(a − b) = −fl(b − a)`, so
//!   the squares and their sums agree: the one evaluation of a pair decides
//!   it for both ends exactly as each end's own query would.
//! - **The box tests agree with the point predicate.** Rounding is monotone,
//!   so for points `a ∈ A` and `b ∈ B` every per-axis `|fl(a − b)|` lies
//!   between the rounded gaps of the two boxes' bounds, and the squares sum
//!   in the same ascending axis order. Hence `min_dist_sq_rect_rect > r²`
//!   implies `fl(dist_sq(a, b)) > r²` for every such pair, and
//!   `max_dist_sq_rect_rect ≤ r²` implies `fl(dist_sq(a, b)) ≤ r²` — the
//!   argument the joint tests of [`crate::batchq`] already rest on.
//!
//! Counts are integers, so neither the walk order, the task split nor the
//! thread count can change them. A NaN or negative radius counts nothing,
//! like `range_count`.
//!
//! # Work split
//!
//! The top of the walk runs on the calling thread and cuts it into tasks:
//! `own(A)` and `pair(A, B)` calls whose nodes span at most
//! `n / (8 · threads)` points (or are leaves, or contained). The tasks run on
//! [`Executor::map_dynamic`]. Each counts into local arrays over its nodes'
//! packed ranges, pushes its pending credits down, and adds its counts into
//! one shared `u32` array in packed order, under a lock it takes once as it
//! ends. So only the running tasks' arrays are alive at a time. The caller
//! maps the shared array to point ids.

use std::ops::Range;
use std::sync::{Mutex, PoisonError};

use dpc_geometry::batch;
use dpc_geometry::distance::{max_dist_sq_rect_rect, min_dist_sq_rect_rect};
use dpc_parallel::Executor;

use crate::kdtree::{KdTree, PackedNode};

/// Tasks per worker thread: the walk is cut into tasks whose nodes span at
/// most `n / (TASKS_PER_THREAD · threads)` points. Between 4 and 64 the
/// count time hardly moves.
const TASKS_PER_THREAD: usize = 8;

/// The closed-ball count of every point of `tree`, itself left out, indexed
/// by point id: `counts[id] == tree.range_count(tree.point(id), radius,
/// Some(id))` for every `id`. A NaN or negative radius counts nothing. The
/// counts are the same at every thread count (module docs).
pub fn count_all_within(tree: &KdTree, radius: f64, executor: &Executor) -> Vec<usize> {
    let n = tree.len();
    let mut counts = vec![0usize; n];
    if n == 0 || radius.is_nan() || radius < 0.0 {
        return counts;
    }
    let walk = Walk { tree, r_sq: radius * radius };
    let mut tasks = Vec::new();
    walk.plan_own(0, n / (TASKS_PER_THREAD * executor.threads()), &mut tasks);
    let packed = Mutex::new(vec![0u32; n]);
    executor.map_dynamic(tasks.len(), |t| {
        let row = walk.task(tasks[t]);
        let [a, b] = walk.ranges(tasks[t]);
        let (row_a, row_b) = row.split_at(a.len());
        // A task that panics while it holds the lock poisons it. The other
        // tasks recover the lock and go on, so the executor resumes that
        // panic's payload, not a secondhand one about the poisoned lock; the
        // totals are then never read.
        let mut packed = packed.lock().unwrap_or_else(PoisonError::into_inner);
        for (range, row) in [(a, row_a), (b, row_b)] {
            for (total, &count) in packed[range].iter_mut().zip(row) {
                *total += count;
            }
        }
    });
    let packed = packed.into_inner().expect("map_dynamic resumes a task's panic before it returns");
    for (&id, &count) in tree.ids().iter().zip(&packed) {
        counts[id as usize] = count as usize;
    }
    counts
}

/// What the rule says of one node pair.
enum Step {
    /// No pair within the ball.
    Prune,
    /// Every pair within the ball.
    Contain,
    /// Both nodes are leaves: run a leaf kernel.
    Leaves,
    /// Split the node with the larger span: the two child pairs.
    Split([(usize, usize); 2]),
}

/// The rule set of the self-join over one tree and one radius.
struct Walk<'t> {
    tree: &'t KdTree,
    r_sq: f64,
}

impl Walk<'_> {
    fn node(&self, idx: usize) -> &PackedNode {
        &self.tree.nodes()[idx]
    }

    /// The packed range of node `idx`.
    fn range(&self, idx: usize) -> Range<usize> {
        let node = self.node(idx);
        node.start as usize..node.end as usize
    }

    /// The packed ranges a task counts over: `a`'s, then `b`'s, which is
    /// empty for `own(a)`.
    fn ranges(&self, (a, b): (usize, usize)) -> [Range<usize>; 2] {
        [self.range(a), if a == b { 0..0 } else { self.range(b) }]
    }

    /// The packed coordinate rows of node `idx`.
    fn rows(&self, idx: usize) -> &[f64] {
        let (range, dim) = (self.range(idx), self.tree.dim());
        &self.tree.coords()[range.start * dim..range.end * dim]
    }

    /// The rule for the node pair `(a, b)`; `a == b` asks of `own(a)`, whose
    /// children split as `own` does, not as the pair returned here.
    fn step(&self, a: usize, b: usize) -> Step {
        let (alo, ahi) = self.tree.node_bounds(a);
        let (blo, bhi) = self.tree.node_bounds(b);
        if min_dist_sq_rect_rect(alo, ahi, blo, bhi) > self.r_sq {
            return Step::Prune;
        }
        if max_dist_sq_rect_rect(alo, ahi, blo, bhi) <= self.r_sq {
            return Step::Contain;
        }
        let (na, nb) = (self.node(a), self.node(b));
        if na.is_leaf() && nb.is_leaf() {
            Step::Leaves
        } else if nb.is_leaf() || (!na.is_leaf() && na.end - na.start >= nb.end - nb.start) {
            Step::Split([(a + 1, b), (na.right as usize, b)])
        } else {
            Step::Split([(a, b + 1), (a, nb.right as usize)])
        }
    }

    /// Cuts `own(a)` into tasks of nodes spanning at most `cut` points.
    fn plan_own(&self, a: usize, cut: usize, tasks: &mut Vec<(usize, usize)>) {
        if self.range(a).len() <= cut || !matches!(self.step(a, a), Step::Split(_)) {
            tasks.push((a, a));
            return;
        }
        let (left, right) = (a + 1, self.node(a).right as usize);
        self.plan_own(left, cut, tasks);
        self.plan_own(right, cut, tasks);
        self.plan_pair(left, right, cut, tasks);
    }

    /// Cuts `pair(a, b)` into tasks of nodes spanning at most `cut` points.
    fn plan_pair(&self, a: usize, b: usize, cut: usize, tasks: &mut Vec<(usize, usize)>) {
        match self.step(a, b) {
            Step::Prune => {}
            Step::Split(pairs) if self.range(a).len().max(self.range(b).len()) > cut => {
                for (x, y) in pairs {
                    self.plan_pair(x, y, cut, tasks);
                }
            }
            _ => tasks.push((a, b)),
        }
    }

    /// Runs one task, `own(a)` when `a == b` and `pair(a, b)` otherwise, and
    /// returns its counts over `a`'s packed range, then `b`'s.
    fn task(&self, (a, b): (usize, usize)) -> Vec<u32> {
        let [ra, rb] = self.ranges((a, b));
        let mut local = TaskCounts::new(ra, rb);
        if a == b {
            self.own(a, &mut local);
        } else {
            self.pair(a, b, &mut local);
        }
        local.finish()
    }

    fn own(&self, a: usize, local: &mut TaskCounts) {
        match self.step(a, a) {
            Step::Prune => {}
            Step::Contain => local.credit(self.range(a), self.range(a).len() as u32 - 1),
            Step::Leaves => {
                let counts = local.slots_mut(self.range(a));
                batch::count_pairs_triangle(self.rows(a), self.tree.dim(), self.r_sq, counts);
            }
            Step::Split(_) => {
                let (left, right) = (a + 1, self.node(a).right as usize);
                self.own(left, local);
                self.own(right, local);
                self.pair(left, right, local);
            }
        }
    }

    fn pair(&self, a: usize, b: usize, local: &mut TaskCounts) {
        match self.step(a, b) {
            Step::Prune => {}
            Step::Contain => {
                let (ra, rb) = (self.range(a), self.range(b));
                local.credit(ra.clone(), rb.len() as u32);
                local.credit(rb, ra.len() as u32);
            }
            Step::Leaves => {
                let (ca, cb) = local.two_slots_mut(self.range(a), self.range(b));
                batch::count_pairs_block(
                    self.rows(a),
                    self.rows(b),
                    self.tree.dim(),
                    self.r_sq,
                    ca,
                    cb,
                );
            }
            Step::Split(pairs) => {
                for (x, y) in pairs {
                    self.pair(x, y, local);
                }
            }
        }
    }
}

/// One task's counts: a slot per point of the packed range `a`, then one
/// per point of `b`, and the pending credits of contained nodes as a
/// difference array over the same slots.
struct TaskCounts {
    a: Range<usize>,
    b_start: usize,
    counts: Vec<u32>,
    pending: Vec<u32>,
}

impl TaskCounts {
    fn new(a: Range<usize>, b: Range<usize>) -> Self {
        let len = a.len() + b.len();
        Self { b_start: b.start, a, counts: vec![0; len], pending: vec![0; len + 1] }
    }

    /// The slots of the packed range `rows`, which lies inside `a` or `b`.
    fn slots(&self, rows: Range<usize>) -> Range<usize> {
        let first = if self.a.contains(&rows.start) {
            rows.start - self.a.start
        } else {
            self.a.len() + rows.start - self.b_start
        };
        first..first + rows.len()
    }

    fn slots_mut(&mut self, rows: Range<usize>) -> &mut [u32] {
        let slots = self.slots(rows);
        &mut self.counts[slots]
    }

    /// The slots of two disjoint packed ranges, both mutable.
    fn two_slots_mut(&mut self, x: Range<usize>, y: Range<usize>) -> (&mut [u32], &mut [u32]) {
        let (x, y) = (self.slots(x), self.slots(y));
        if x.start < y.start {
            let (low, high) = self.counts.split_at_mut(y.start);
            (&mut low[x], &mut high[..y.len()])
        } else {
            let (low, high) = self.counts.split_at_mut(x.start);
            (&mut high[..x.len()], &mut low[y])
        }
    }

    /// Adds `amount` to every point of the packed range `rows`, pending.
    fn credit(&mut self, rows: Range<usize>, amount: u32) {
        let slots = self.slots(rows);
        self.pending[slots.start] = self.pending[slots.start].wrapping_add(amount);
        self.pending[slots.end] = self.pending[slots.end].wrapping_sub(amount);
    }

    /// Pushes the pending credits down and returns the counts.
    fn finish(mut self) -> Vec<u32> {
        let mut running = 0u32;
        for (count, &delta) in self.counts.iter_mut().zip(&self.pending) {
            running = running.wrapping_add(delta);
            *count += running;
        }
        self.counts
    }
}
