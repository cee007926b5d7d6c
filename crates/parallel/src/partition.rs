//! Cost-based task partitioning.
//!
//! Minimising the maximum per-thread cost (makespan) is NP-complete, but the
//! Longest-Processing-Time-first greedy (Graham 1969) is a 3/2-approximation
//! (4/3 asymptotically) and runs in `O(n' log n' + n' t)` time, which the paper
//! calls trivial compared with the clustering work itself (§4.5). The paper's
//! Approx-DPC uses it for its local-density and dependent-point phases; the
//! fits here schedule every phase dynamically instead, and the
//! `fig9_threads` bin and the `partition` bench keep it as the paper's
//! load-balance ablation.

/// The result of partitioning `n` tasks into `bins` groups.
#[derive(Clone, Debug)]
pub struct Partition {
    /// `groups[b]` lists the task indices assigned to bin `b`.
    pub groups: Vec<Vec<usize>>,
    /// `loads[b]` is the total estimated cost assigned to bin `b`.
    pub loads: Vec<f64>,
}

impl Partition {
    /// Total cost across all bins.
    pub fn total_load(&self) -> f64 {
        self.loads.iter().sum()
    }

    /// Maximum bin load (the estimated makespan).
    pub fn max_load(&self) -> f64 {
        self.loads.iter().copied().fold(0.0, f64::max)
    }

    /// Load imbalance: `max_load / mean_load`. `1.0` means perfect balance. An
    /// empty partition reports `1.0`.
    pub fn imbalance(&self) -> f64 {
        if self.loads.is_empty() {
            return 1.0;
        }
        let mean = self.total_load() / self.loads.len() as f64;
        if mean == 0.0 {
            1.0
        } else {
            self.max_load() / mean
        }
    }

    /// Number of bins.
    pub fn bins(&self) -> usize {
        self.groups.len()
    }
}

/// Partitions tasks with the given estimated costs into `bins` groups using the
/// LPT greedy: process tasks in decreasing cost order, always assigning to the
/// currently least-loaded bin.
///
/// Costs that are not finite are treated as zero. `bins` is clamped to at least
/// one.
pub fn lpt_partition(costs: &[f64], bins: usize) -> Partition {
    let bins = bins.max(1);
    let mut order: Vec<usize> = (0..costs.len()).collect();
    order.sort_unstable_by(|&a, &b| {
        sanitize(costs[b]).partial_cmp(&sanitize(costs[a])).unwrap_or(std::cmp::Ordering::Equal)
    });
    let mut groups = vec![Vec::new(); bins];
    let mut loads = vec![0.0f64; bins];
    for idx in order {
        // Linear scan over the bins: `t` is small (number of threads), so a heap
        // would not pay for itself.
        let mut best = 0usize;
        for b in 1..bins {
            if loads[b] < loads[best] {
                best = b;
            }
        }
        groups[best].push(idx);
        loads[best] += sanitize(costs[idx]);
    }
    Partition { groups, loads }
}

/// Partitions tasks by simple round-robin (hash partitioning in the paper's
/// terminology). Used as the ablation baseline against [`lpt_partition`]:
/// LSH-DDP partitions without considering cost, which is exactly what limits
/// its thread scaling in the paper's Figure 9 discussion.
pub fn round_robin_partition(costs: &[f64], bins: usize) -> Partition {
    let bins = bins.max(1);
    let mut groups = vec![Vec::new(); bins];
    let mut loads = vec![0.0f64; bins];
    for (idx, &cost) in costs.iter().enumerate() {
        let b = idx % bins;
        groups[b].push(idx);
        loads[b] += sanitize(cost);
    }
    Partition { groups, loads }
}

fn sanitize(cost: f64) -> f64 {
    if cost.is_finite() && cost > 0.0 {
        cost
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_task_is_assigned_exactly_once() {
        let costs: Vec<f64> = (0..97).map(|i| (i % 13) as f64 + 1.0).collect();
        let p = lpt_partition(&costs, 8);
        let mut seen = vec![false; costs.len()];
        for group in &p.groups {
            for &idx in group {
                assert!(!seen[idx], "task {idx} assigned twice");
                seen[idx] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
        assert_eq!(p.bins(), 8);
    }

    #[test]
    fn loads_match_group_contents() {
        let costs = vec![5.0, 1.0, 9.0, 2.0, 2.0, 7.0];
        let p = lpt_partition(&costs, 3);
        for (b, group) in p.groups.iter().enumerate() {
            let sum: f64 = group.iter().map(|&i| costs[i]).sum();
            assert!((sum - p.loads[b]).abs() < 1e-12);
        }
        assert!((p.total_load() - costs.iter().sum::<f64>()).abs() < 1e-12);
    }

    #[test]
    fn lpt_is_within_3_over_2_of_optimal_lower_bound() {
        // Lower bound on the optimum is max(total/bins, max task cost).
        let costs: Vec<f64> = (1..=40).map(|i| (i * i % 17) as f64 + 1.0).collect();
        for bins in [2usize, 3, 5, 8] {
            let p = lpt_partition(&costs, bins);
            let total: f64 = costs.iter().sum();
            let lower = (total / bins as f64).max(costs.iter().cloned().fold(0.0, f64::max));
            assert!(
                p.max_load() <= 1.5 * lower + 1e-9,
                "bins={bins}: makespan {} exceeds 3/2 × lower bound {}",
                p.max_load(),
                lower
            );
        }
    }

    #[test]
    fn lpt_beats_round_robin_on_skewed_costs() {
        // A few huge tasks followed by many tiny ones: round-robin piles the
        // huge ones onto the same bins, LPT spreads them.
        let mut costs = vec![100.0, 100.0, 100.0, 100.0];
        costs.extend(std::iter::repeat_n(1.0, 96));
        let lpt = lpt_partition(&costs, 4);
        let rr = round_robin_partition(&costs, 4);
        assert!(lpt.imbalance() <= rr.imbalance());
        assert!(lpt.imbalance() < 1.1);
    }

    #[test]
    fn single_bin_takes_everything() {
        let costs = vec![3.0, 4.0, 5.0];
        let p = lpt_partition(&costs, 1);
        assert_eq!(p.groups[0].len(), 3);
        assert!((p.loads[0] - 12.0).abs() < 1e-12);
        assert!((p.imbalance() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn zero_bins_is_clamped_to_one() {
        let p = lpt_partition(&[1.0, 2.0], 0);
        assert_eq!(p.bins(), 1);
    }

    #[test]
    fn empty_task_list() {
        let p = lpt_partition(&[], 4);
        assert_eq!(p.bins(), 4);
        assert!(p.groups.iter().all(|g| g.is_empty()));
        assert!((p.imbalance() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn non_finite_and_negative_costs_are_treated_as_zero() {
        let p = lpt_partition(&[f64::NAN, -5.0, f64::INFINITY, 2.0], 2);
        assert!((p.total_load() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn more_bins_than_tasks_leaves_some_bins_empty() {
        let p = lpt_partition(&[4.0, 2.0], 5);
        let non_empty = p.groups.iter().filter(|g| !g.is_empty()).count();
        assert_eq!(non_empty, 2);
    }
}
