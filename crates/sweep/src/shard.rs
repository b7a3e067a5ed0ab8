//! Sharding: partition a grid's spec-index space into contiguous,
//! cost-balanced ranges.
//!
//! Every [`RunSpec`](crate::RunSpec) of a grid is independent, so a
//! campaign parallelizes at the grid level too: split the spec-index space
//! `0..n` into contiguous ranges, run each range anywhere (another
//! process, another machine), and **concatenate the outputs in range
//! order** — because records carry global spec indices and specs are pure
//! functions of `(index, spec, context)`, the concatenation is
//! byte-identical to the unsharded run. That property is what both the
//! `joss_sweep --shard i/n` offline mode and the `joss-fleet` coordinator
//! lean on, and `crates/sweep/tests/shard_plan.rs` asserts it.
//!
//! Ranges must be *contiguous* (not strided) so each shard's output is a
//! contiguous byte range of the full JSONL. But a naive even split is a
//! poor plan: the Fig. 8 suite mixes ~40-task and ~14k-task instances, and
//! spec order is workload-major, so equal-*count* shards can differ by
//! orders of magnitude in work. [`ShardPlan::weighted`] therefore solves
//! the classic contiguous-partition minimax problem over per-spec costs
//! (task counts are the cost model — simulation time is near-linear in
//! events, which scale with tasks), keeping the heaviest shard within
//! `max_item` of the mean: whenever no single spec exceeds the mean shard
//! cost, no shard exceeds twice the mean.

use crate::desc::GridDesc;
use std::fmt;

/// A half-open, contiguous range of global spec indices, `start..end`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SpecRange {
    /// First spec index in the range.
    pub start: usize,
    /// One past the last spec index.
    pub end: usize,
}

impl SpecRange {
    /// The range `start..end`; panics if empty or inverted.
    pub fn new(start: usize, end: usize) -> Self {
        assert!(start < end, "spec range {start}..{end} is empty");
        SpecRange { start, end }
    }

    /// Number of specs in the range.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Always false: [`SpecRange::new`] rejects empty ranges.
    pub fn is_empty(&self) -> bool {
        self.start >= self.end
    }

    /// Whether `index` falls inside the range.
    pub fn contains(&self, index: usize) -> bool {
        (self.start..self.end).contains(&index)
    }
}

impl fmt::Display for SpecRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}..{}", self.start, self.end)
    }
}

/// A partition of `0..n_specs` into contiguous, non-empty, ascending
/// ranges — one per shard.
///
/// Invariants (enforced by construction, proptested in
/// `crates/sweep/tests/shard_plan.rs`): every shard is non-empty, shards
/// are pairwise disjoint, consecutive shards are adjacent
/// (`shard[i].end == shard[i+1].start`), the first starts at 0 and the
/// last ends at `n_specs` — so concatenating shard outputs in plan order
/// reproduces the full grid.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardPlan {
    ranges: Vec<SpecRange>,
}

impl ShardPlan {
    /// How many micro-ranges an elastic (work-stealing) coordinator cuts
    /// per backend: enough granularity that a straggler never holds more
    /// than ~1/4 of its fair share hostage in a single range, small enough
    /// that per-range dispatch overhead (one HTTP exchange each) stays
    /// negligible against millisecond-scale campaign ranges.
    pub const MICRO_FACTOR: usize = 4;

    /// Cost-weighted micro-range plan for an elastic fleet: like
    /// [`ShardPlan::weighted`] but targeting `backends * MICRO_FACTOR`
    /// ranges, so a work-stealing coordinator always has spare ranges to
    /// hand an idle backend. Same partition invariants as every plan:
    /// ranges are non-empty, disjoint, adjacent, and union to
    /// `0..costs.len()`.
    pub fn micro(costs: &[f64], backends: usize) -> ShardPlan {
        ShardPlan::weighted(costs, backends.max(1) * Self::MICRO_FACTOR)
    }

    /// Split `0..n_specs` into (up to) `shards` ranges of near-equal
    /// *count*. The shard count is clamped to `n_specs` (shards are never
    /// empty) and to at least 1. `n_specs` must be non-zero.
    pub fn uniform(n_specs: usize, shards: usize) -> ShardPlan {
        assert!(n_specs > 0, "cannot shard an empty grid");
        let shards = shards.clamp(1, n_specs);
        let base = n_specs / shards;
        let extra = n_specs % shards; // first `extra` shards get one more
        let mut ranges = Vec::with_capacity(shards);
        let mut start = 0;
        for s in 0..shards {
            let len = base + usize::from(s < extra);
            ranges.push(SpecRange::new(start, start + len));
            start += len;
        }
        ShardPlan { ranges }
    }

    /// Split `0..costs.len()` into (up to) `shards` contiguous ranges
    /// minimizing the maximum per-shard cost sum (the linear-partition
    /// minimax problem, solved by binary search over the shard capacity
    /// with a greedy feasibility check).
    ///
    /// Guarantee: the heaviest shard costs at most `mean + max_item`
    /// (within float tolerance), where `mean = total / shards`. In
    /// particular, when no single item costs more than the mean — i.e.
    /// when splits *can* balance the load — no shard exceeds twice the
    /// mean. Non-positive costs are floored at a tiny epsilon so
    /// zero-cost runs still occupy an index.
    pub fn weighted(costs: &[f64], shards: usize) -> ShardPlan {
        assert!(!costs.is_empty(), "cannot shard an empty grid");
        let shards = shards.clamp(1, costs.len());
        if shards == 1 {
            return ShardPlan {
                ranges: vec![SpecRange::new(0, costs.len())],
            };
        }
        let costs: Vec<f64> = costs.iter().map(|&c| c.max(1e-12)).collect();
        let total: f64 = costs.iter().sum();
        let max_item = costs.iter().cloned().fold(0.0, f64::max);

        // Feasibility: can a greedy fill pack everything into `shards`
        // bins of capacity `cap`? (Greedy is optimal for the contiguous
        // feasibility question.)
        let bins_needed = |cap: f64| -> usize {
            let mut bins = 1usize;
            let mut load = 0.0;
            for &c in &costs {
                if load + c > cap {
                    bins += 1;
                    load = c;
                } else {
                    load += c;
                }
            }
            bins
        };

        let mut lo = max_item;
        let mut hi = total;
        for _ in 0..64 {
            let mid = 0.5 * (lo + hi);
            if bins_needed(mid) <= shards {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        // `hi` is feasible; pad a hair so re-running the greedy fill below
        // cannot flip a boundary on float round-off.
        let cap = hi * (1.0 + 1e-9);

        // Greedy fill at the found capacity, forcing exactly `shards`
        // non-empty bins: never leave fewer items than remaining bins.
        let n = costs.len();
        let mut ranges = Vec::with_capacity(shards);
        let mut start = 0usize;
        for bin in 0..shards {
            let bins_left_after = shards - bin - 1;
            let mut end = start + 1; // non-empty
            let mut load = costs[start];
            while end < n - bins_left_after && load + costs[end] <= cap {
                load += costs[end];
                end += 1;
            }
            if bin + 1 == shards {
                end = n; // last bin takes the tail (greedy fit guarantees cap)
            }
            ranges.push(SpecRange::new(start, end));
            start = end;
        }
        debug_assert_eq!(start, n);
        ShardPlan { ranges }
    }

    /// Number of shards in the plan.
    pub fn len(&self) -> usize {
        self.ranges.len()
    }

    /// Always false: plans have at least one shard.
    pub fn is_empty(&self) -> bool {
        self.ranges.is_empty()
    }

    /// The plan's ranges, ascending and adjacent.
    pub fn ranges(&self) -> &[SpecRange] {
        &self.ranges
    }

    /// Range of shard `i`; panics when out of range.
    pub fn shard(&self, i: usize) -> SpecRange {
        self.ranges[i]
    }

    /// Total number of specs covered (`== n_specs`).
    pub fn n_specs(&self) -> usize {
        self.ranges.last().map_or(0, |r| r.end)
    }
}

/// Per-spec simulation-cost estimates for a described grid, in spec order.
///
/// The cost model is the workload's task count at the grid's scale —
/// engine time is near-linear in events, which scale with tasks — so the
/// cost of a spec is independent of its scheduler and seed. Labels
/// resolve through the same process-wide graph memo as
/// [`GridDesc::resolve`]: planning a grid whose graphs the process already
/// holds builds nothing, and resolving the planned shards afterwards
/// shares the graphs planning built. Fails like [`GridDesc::resolve`] on a
/// grid without workloads or schedulers and on unknown labels.
pub fn grid_costs(desc: &GridDesc) -> Result<Vec<f64>, String> {
    desc.check_axes()?;
    let runs_per_workload = desc.schedulers.len() * desc.seeds.len().max(1);
    let mut costs = Vec::with_capacity(desc.spec_count());
    for label in &desc.workloads {
        let tasks = desc.workload(label)?.graph.n_tasks() as f64;
        costs.extend(std::iter::repeat_n(tasks, runs_per_workload));
    }
    Ok(costs)
}

/// Convenience: a cost-weighted plan for a described grid (the planner the
/// `joss_sweep --shard i/n` CLI and the `joss-fleet` coordinator share, so
/// both agree on shard boundaries for the same grid). Fails like
/// [`grid_costs`].
pub fn plan_grid(desc: &GridDesc, shards: usize) -> Result<ShardPlan, String> {
    Ok(ShardPlan::weighted(&grid_costs(desc)?, shards))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_partition(plan: &ShardPlan, n: usize) {
        assert!(!plan.is_empty());
        assert_eq!(plan.ranges()[0].start, 0);
        assert_eq!(plan.n_specs(), n);
        for pair in plan.ranges().windows(2) {
            assert_eq!(pair[0].end, pair[1].start, "shards must be adjacent");
        }
        for r in plan.ranges() {
            assert!(!r.is_empty(), "shards must be non-empty");
        }
    }

    #[test]
    fn uniform_split_covers_and_balances_counts() {
        for (n, k) in [(10, 3), (7, 7), (5, 9), (1, 1), (100, 8)] {
            let plan = ShardPlan::uniform(n, k);
            assert_eq!(plan.len(), k.min(n));
            assert_partition(&plan, n);
            let lens: Vec<usize> = plan.ranges().iter().map(SpecRange::len).collect();
            let (min, max) = (lens.iter().min().unwrap(), lens.iter().max().unwrap());
            assert!(
                max - min <= 1,
                "uniform shards differ by more than 1: {lens:?}"
            );
        }
    }

    #[test]
    fn weighted_split_isolates_the_heavy_prefix() {
        // One huge item followed by many light ones: the minimax plan puts
        // the huge item alone and spreads the rest.
        let mut costs = vec![1000.0];
        costs.extend(std::iter::repeat_n(1.0, 30));
        let plan = ShardPlan::weighted(&costs, 4);
        assert_partition(&plan, costs.len());
        assert_eq!(plan.shard(0), SpecRange::new(0, 1));
        let shard_cost = |r: SpecRange| costs[r.start..r.end].iter().sum::<f64>();
        for r in &plan.ranges()[1..] {
            assert!(shard_cost(*r) <= 1000.0);
        }
    }

    #[test]
    fn weighted_bound_holds_against_mean_plus_max() {
        let costs: Vec<f64> = (0..57).map(|i| 1.0 + (i * 37 % 19) as f64).collect();
        for k in 1..=12 {
            let plan = ShardPlan::weighted(&costs, k);
            assert_partition(&plan, costs.len());
            let total: f64 = costs.iter().sum();
            let mean = total / plan.len() as f64;
            let max_item = costs.iter().cloned().fold(0.0, f64::max);
            for r in plan.ranges() {
                let cost: f64 = costs[r.start..r.end].iter().sum();
                assert!(
                    cost <= mean + max_item + 1e-6,
                    "shard {r} cost {cost} above mean {mean} + max {max_item}"
                );
            }
        }
    }

    #[test]
    fn degenerate_shard_counts_clamp() {
        let plan = ShardPlan::weighted(&[3.0, 1.0], 16);
        assert_eq!(plan.len(), 2);
        assert_partition(&plan, 2);
        let plan = ShardPlan::uniform(4, 0);
        assert_eq!(plan.len(), 1);
        assert_partition(&plan, 4);
    }
}
