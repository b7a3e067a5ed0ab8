//! Workspace-wiring smoke tests: the `joss` facade re-exports resolve and
//! every binary/example target in the workspace compiles.

use std::path::Path;
use std::process::Command;

/// Every facade module (`runtime`, `dag`, `models`, `platform`, `workloads`,
/// `experiments`) resolves and the layers interoperate end to end.
#[test]
fn facade_reexports_resolve() {
    use joss::{dag, models, platform, runtime, workloads};

    // platform → dag → runtime: run a tiny DAG through the engine.
    let machine = platform::MachineModel::tx2(7);
    let kernel = dag::KernelSpec::new("smoke", platform::TaskShape::new(0.001, 0.0001));
    let graph = dag::generators::independent("smoke_bag", kernel, 8);
    let mut sched = runtime::sched::GrwsSched::new();
    let report = runtime::engine::SimEngine::run(
        &machine,
        &graph,
        &mut sched,
        runtime::engine::EngineConfig::default(),
    );
    assert_eq!(report.tasks, 8);
    assert!(report.total_j() > 0.0);

    // models: Eq. 3 MB estimation is reachable through the facade.
    let mb = models::estimate_mb(1.0, 2.035, 1.2, 1.113);
    assert!((0.0..=1.0).contains(&mb));

    // workloads: the Table-1 scale type is reachable through the facade.
    assert_eq!(workloads::Scale::Divided(100).apply(1000, 10), 10);

    // experiments: the scheduler inventory is reachable through the facade.
    let _kind = joss::experiments::SchedulerKind::Joss;

    // sweep: grid building and the parse syntax are reachable through the
    // facade, and the scheduler inventory is the same type as experiments'.
    let parsed: joss::experiments::SchedulerKind = "joss+1.2x".parse().unwrap();
    assert_eq!(parsed, joss::sweep::SchedulerKind::JossSpeedup(1.2));
    let grid = joss::sweep::SpecGrid::new()
        .workload(joss::sweep::Workload::new(graph))
        .scheduler(joss::sweep::SchedulerKind::Grws)
        .seeds([1, 2]);
    assert_eq!(grid.len(), 2);

    // serve: the wire description and the daemon types are reachable
    // through the facade, and the description round-trips.
    let desc = joss::sweep::GridDesc {
        workloads: vec!["DP".into()],
        schedulers: vec![joss::sweep::SchedulerKind::Joss],
        seeds: vec![42],
        scale: workloads::Scale::Divided(400),
        record_trace: false,
        shard: None,
    };
    let round = joss::sweep::GridDesc::from_json(&desc.to_canonical_json()).unwrap();
    assert_eq!(round, desc);
    assert_eq!(round.spec_hash(), desc.spec_hash());
    let _cfg = joss::serve::ServeConfig::default();

    // fleet: shard planning and the coordinator types are reachable
    // through the facade.
    let plan = joss::sweep::ShardPlan::uniform(4, 2);
    assert_eq!(plan.len(), 2);
    let fleet_cfg = joss::fleet::FleetConfig::new(vec!["127.0.0.1:1".into()]);
    assert_eq!(fleet_cfg.backends.len(), 1);
}

/// The nine experiment binaries and seven examples are all present and
/// `cargo build --bins --examples` compiles them. The build is incremental
/// on top of the test build, so this mostly validates target wiring.
#[test]
fn all_bins_and_examples_compile() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));

    let count = |dir: &str| {
        std::fs::read_dir(root.join(dir))
            .unwrap_or_else(|e| panic!("missing {dir}: {e}"))
            .filter(|e| {
                e.as_ref()
                    .is_ok_and(|e| e.path().extension().is_some_and(|x| x == "rs"))
            })
            .count()
    };
    assert_eq!(
        count("crates/experiments/src/bin"),
        9,
        "expected the nine experiment binaries"
    );
    assert_eq!(count("examples"), 7, "expected the seven examples");

    let status = Command::new(env!("CARGO"))
        .args(["build", "--workspace", "--bins", "--examples", "--offline"])
        .current_dir(root)
        .status()
        .expect("failed to invoke cargo");
    assert!(status.success(), "cargo build --bins --examples failed");
}
