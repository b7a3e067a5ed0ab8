//! Shard-plan guarantees: partition invariants and weighted balance over
//! random grids and shard counts, plus the property the whole
//! distribution layer leans on — **concatenating shard outputs in shard
//! order is byte-identical to the unsharded JSONL**.

use joss_sweep::{
    grid_costs, plan_grid, Campaign, ExperimentContext, GridDesc, JsonlSink, SchedulerKind,
    ShardPlan, SpecRange,
};
use joss_workloads::Scale;
use proptest::prelude::*;
use std::sync::OnceLock;

fn ctx() -> &'static ExperimentContext {
    static CTX: OnceLock<ExperimentContext> = OnceLock::new();
    CTX.get_or_init(|| ExperimentContext::with_reps(42, 1))
}

/// Partition invariants every plan must satisfy: non-empty shards,
/// pairwise disjoint, covering `0..n`, in ascending spec order.
fn assert_partition(plan: &ShardPlan, n: usize) {
    assert!(!plan.is_empty());
    assert_eq!(plan.ranges().first().unwrap().start, 0, "must start at 0");
    assert_eq!(plan.n_specs(), n, "must cover all specs");
    for r in plan.ranges() {
        assert!(!r.is_empty(), "shard {r} is empty");
    }
    for pair in plan.ranges().windows(2) {
        // Adjacency gives disjointness AND ascending order in one shot.
        assert_eq!(
            pair[0].end, pair[1].start,
            "shards {} and {} are not adjacent",
            pair[0], pair[1]
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// For random cost vectors and any shard count: the partition
    /// invariants hold, and the weighted balancer keeps every shard at or
    /// below 2x the mean cost whenever splits allow it (no single item
    /// above the mean).
    #[test]
    fn weighted_plans_partition_and_balance(
        costs in proptest::collection::vec(1.0f64..1000.0, 1..120),
        shards in proptest::any::<u64>(),
    ) {
        let shards = 1 + (shards % 24) as usize;
        let plan = ShardPlan::weighted(&costs, shards);
        prop_assert_eq!(plan.len(), shards.min(costs.len()));
        assert_partition(&plan, costs.len());

        let total: f64 = costs.iter().sum();
        let mean = total / plan.len() as f64;
        let max_item = costs.iter().cloned().fold(0.0, f64::max);
        for r in plan.ranges() {
            let cost: f64 = costs[r.start..r.end].iter().sum();
            // Unconditional guarantee: mean + heaviest single item.
            prop_assert!(
                cost <= mean + max_item + 1e-6,
                "shard {} cost {} above mean {} + max item {}", r, cost, mean, max_item
            );
            if max_item <= mean {
                // ... which is the 2x-mean bound whenever splitting can
                // actually balance the load.
                prop_assert!(
                    cost <= 2.0 * mean + 1e-6,
                    "shard {} cost {} above 2x mean {}", r, cost, mean
                );
            }
        }
    }

    /// The micro planner (the elastic fleet's default cut) is the
    /// weighted planner at [`ShardPlan::MICRO_FACTOR`] ranges per
    /// backend: same partition invariants — pairwise disjoint, ascending,
    /// union exactly the full spec range — at the finer granularity.
    #[test]
    fn micro_plans_partition_at_micro_factor_granularity(
        costs in proptest::collection::vec(1.0f64..1000.0, 1..120),
        backends in proptest::any::<u64>(),
    ) {
        let backends = 1 + (backends % 8) as usize;
        let plan = ShardPlan::micro(&costs, backends);
        prop_assert_eq!(
            plan.len(),
            (backends * ShardPlan::MICRO_FACTOR).min(costs.len())
        );
        assert_partition(&plan, costs.len());
        // Zero backends is treated as one, never an empty plan.
        let degenerate = ShardPlan::micro(&costs, 0);
        prop_assert_eq!(degenerate.len(), ShardPlan::MICRO_FACTOR.min(costs.len()));
        assert_partition(&degenerate, costs.len());
    }

    /// Uniform plans obey the same partition invariants with near-equal
    /// counts.
    #[test]
    fn uniform_plans_partition(
        n in 1usize..300,
        shards in proptest::any::<u64>(),
    ) {
        let shards = 1 + (shards % 32) as usize;
        let plan = ShardPlan::uniform(n, shards);
        prop_assert_eq!(plan.len(), shards.min(n));
        assert_partition(&plan, n);
        let lens: Vec<usize> = plan.ranges().iter().map(SpecRange::len).collect();
        prop_assert!(lens.iter().max().unwrap() - lens.iter().min().unwrap() <= 1);
    }
}

/// The planner is deterministic and grid costs have the documented shape:
/// one cost per spec, constant across a workload's scheduler x seed block.
#[test]
fn grid_costs_follow_spec_order() {
    let desc = GridDesc {
        workloads: vec!["DP".into(), "MM_256_dop4".into()],
        schedulers: vec![SchedulerKind::Grws, SchedulerKind::Joss],
        seeds: vec![1, 2, 3],
        scale: Scale::Divided(400),
        record_trace: false,
        shard: None,
    };
    let costs = grid_costs(&desc).expect("known workloads");
    assert_eq!(costs.len(), desc.spec_count());
    let block = desc.schedulers.len() * desc.seeds.len();
    for (w, chunk) in costs.chunks(block).enumerate() {
        assert!(
            chunk.iter().all(|&c| c == chunk[0]),
            "workload {w} block has mixed costs: {chunk:?}"
        );
        assert!(chunk[0] >= 1.0, "task counts are at least 1");
    }
    assert_eq!(plan_grid(&desc, 3).unwrap(), plan_grid(&desc, 3).unwrap());
    assert!(grid_costs(&GridDesc {
        workloads: vec!["NOPE".into()],
        ..desc.clone()
    })
    .is_err());
    // A grid with no workloads or no schedulers has no specs to plan: an
    // error, not a panic inside the planner.
    for empty in [
        GridDesc {
            workloads: Vec::new(),
            ..desc.clone()
        },
        GridDesc {
            schedulers: Vec::new(),
            ..desc
        },
    ] {
        assert!(grid_costs(&empty).is_err(), "{empty:?}");
        assert!(plan_grid(&empty, 2).is_err(), "{empty:?}");
    }
}

/// THE sharding property: running each shard of a plan separately (with
/// global record indices) and concatenating the JSONL outputs in shard
/// order is byte-identical to the unsharded streaming run — for several
/// shard counts, including more shards than specs. This is exactly what
/// `joss_sweep --shard i/n` emits and what the fleet merge reassembles.
#[test]
fn sharded_runs_concatenate_to_the_unsharded_jsonl() {
    let desc = GridDesc {
        workloads: vec!["DP".into(), "FB".into(), "MM_256_dop4".into()],
        schedulers: vec![SchedulerKind::Grws, SchedulerKind::Joss],
        seeds: vec![42, 7],
        scale: Scale::Divided(400),
        record_trace: false,
        shard: None,
    };

    let mut reference = JsonlSink::new(Vec::new());
    let specs = desc.resolve().expect("resolves").build();
    Campaign::with_threads(2).run_streaming(ctx(), specs, |r| {
        reference.write(&r).expect("in-memory write");
    });
    let reference = reference.into_inner().expect("flush");

    for n_shards in [1, 2, 3, 5, desc.spec_count(), desc.spec_count() + 4] {
        let plan = plan_grid(&desc, n_shards).expect("plan");
        let mut concatenated: Vec<u8> = Vec::new();
        for &range in plan.ranges() {
            let (base, specs) = desc
                .with_shard(range)
                .resolve_specs()
                .expect("shard resolves");
            assert_eq!(base, range.start);
            assert_eq!(specs.len(), range.len());
            let mut sink = JsonlSink::new(Vec::new());
            // Thread count varies per shard to prove it cannot matter.
            Campaign::with_threads(1 + range.start % 3).run_streaming_indexed(
                ctx(),
                base,
                specs,
                |r| sink.write(&r).expect("in-memory write"),
            );
            concatenated.extend_from_slice(&sink.into_inner().expect("flush"));
        }
        assert_eq!(
            concatenated, reference,
            "shard concatenation diverged at {n_shards} shards"
        );
    }
}
