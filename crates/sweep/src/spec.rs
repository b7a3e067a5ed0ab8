//! Declarative run specifications and the cartesian grid builder.

use crate::scheduler::SchedulerKind;
use joss_core::engine::EngineConfig;
use joss_dag::TaskGraph;
use joss_workloads::BenchInstance;
use std::sync::Arc;

/// Seed used when a grid does not specify any.
pub const DEFAULT_SEED: u64 = 42;

/// A labelled task graph, shareable across specs and worker threads.
///
/// Grids typically cross one workload with many schedulers and seeds; the
/// [`Arc`] makes those specs share a single graph allocation.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Label used in records (defaults to the graph's own name).
    pub label: String,
    /// The task graph.
    pub graph: Arc<TaskGraph>,
}

impl Workload {
    /// Wrap a graph, labelling it with its own name.
    pub fn new(graph: TaskGraph) -> Self {
        Workload {
            label: graph.name().to_string(),
            graph: Arc::new(graph),
        }
    }

    /// Wrap an already-shared graph under an explicit label.
    pub fn shared(label: impl Into<String>, graph: Arc<TaskGraph>) -> Self {
        Workload {
            label: label.into(),
            graph,
        }
    }
}

impl From<BenchInstance> for Workload {
    fn from(b: BenchInstance) -> Self {
        Workload::shared(b.label, b.graph)
    }
}

/// Per-run engine configuration subset a spec may override.
///
/// Everything not listed here stays at [`EngineConfig::default`]. In
/// particular `record_trace` is **off** unless the spec opts in: traces grow
/// with task count, and a campaign holds every record in memory at once, so
/// an accidental trace on a large grid multiplies the campaign's footprint
/// by the task count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EngineSpec {
    /// Engine RNG seed (core selection, steal-victim order). Every run owns
    /// its own RNG seeded from this, which is what makes campaign results
    /// independent of worker count.
    pub seed: u64,
    /// Opt-in full execution trace for this run only.
    pub record_trace: bool,
}

impl EngineSpec {
    /// Spec with the given seed and tracing off.
    pub fn seeded(seed: u64) -> Self {
        EngineSpec {
            seed,
            record_trace: false,
        }
    }

    /// Lower into the engine's config. The executor calls this for every
    /// run, so tracing is forced to the spec's (default off) choice.
    pub fn to_config(self) -> EngineConfig {
        EngineConfig {
            record_trace: self.record_trace,
            ..EngineConfig::with_seed(self.seed)
        }
    }
}

impl Default for EngineSpec {
    fn default() -> Self {
        EngineSpec::seeded(DEFAULT_SEED)
    }
}

/// One fully-specified run: workload × scheduler × engine config × seed.
#[derive(Debug, Clone)]
pub struct RunSpec {
    /// What to run.
    pub workload: Workload,
    /// Which policy runs it.
    pub scheduler: SchedulerKind,
    /// Engine overrides (seed, tracing).
    pub engine: EngineSpec,
}

impl RunSpec {
    /// Human-readable spec label: `workload/scheduler/seedN`.
    pub fn label(&self) -> String {
        format!(
            "{}/{}/seed{}",
            self.workload.label, self.scheduler, self.engine.seed
        )
    }
}

/// Cartesian grid builder: workloads × schedulers × seeds.
///
/// `build()` emits specs workload-major, then scheduler, then seed — the
/// order every consumer (normalization, per-workload chunking, record
/// files) relies on, and the order records come back in regardless of how
/// many threads executed them.
#[derive(Debug, Clone, Default)]
pub struct SpecGrid {
    workloads: Vec<Workload>,
    schedulers: Vec<SchedulerKind>,
    seeds: Vec<u64>,
    record_trace: bool,
}

impl SpecGrid {
    /// Empty grid.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add one workload.
    pub fn workload(mut self, w: impl Into<Workload>) -> Self {
        self.workloads.push(w.into());
        self
    }

    /// Add many workloads (e.g. a whole benchmark suite).
    pub fn workloads<I, W>(mut self, ws: I) -> Self
    where
        I: IntoIterator<Item = W>,
        W: Into<Workload>,
    {
        self.workloads.extend(ws.into_iter().map(Into::into));
        self
    }

    /// Add one scheduler column.
    pub fn scheduler(mut self, s: SchedulerKind) -> Self {
        self.schedulers.push(s);
        self
    }

    /// Add many scheduler columns.
    pub fn schedulers(mut self, ss: impl IntoIterator<Item = SchedulerKind>) -> Self {
        self.schedulers.extend(ss);
        self
    }

    /// Add seeds (one run per seed per cell; defaults to [`DEFAULT_SEED`]).
    pub fn seeds(mut self, seeds: impl IntoIterator<Item = u64>) -> Self {
        self.seeds.extend(seeds);
        self
    }

    /// Opt every spec of this grid into execution-trace recording. Use only
    /// for small grids; see [`EngineSpec::record_trace`].
    pub fn record_trace(mut self, on: bool) -> Self {
        self.record_trace = on;
        self
    }

    /// Number of specs `build()` will emit.
    pub fn len(&self) -> usize {
        let seeds = self.seeds.len().max(1);
        self.workloads.len() * self.schedulers.len() * seeds
    }

    /// True when the grid has no workloads or no schedulers.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Emit the cartesian product, workload-major, then scheduler, then seed.
    pub fn build(self) -> Vec<RunSpec> {
        let seeds = if self.seeds.is_empty() {
            vec![DEFAULT_SEED]
        } else {
            self.seeds
        };
        let mut specs = Vec::with_capacity(self.workloads.len() * self.schedulers.len());
        for w in &self.workloads {
            for &s in &self.schedulers {
                for &seed in &seeds {
                    specs.push(RunSpec {
                        workload: w.clone(),
                        scheduler: s,
                        engine: EngineSpec {
                            seed,
                            record_trace: self.record_trace,
                        },
                    });
                }
            }
        }
        specs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use joss_dag::{generators, KernelSpec};
    use joss_platform::TaskShape;

    fn tiny(name: &str) -> TaskGraph {
        generators::independent(name, KernelSpec::new("k", TaskShape::new(0.001, 0.0)), 4)
    }

    #[test]
    fn grid_is_workload_major_then_scheduler_then_seed() {
        let specs = SpecGrid::new()
            .workload(Workload::new(tiny("a")))
            .workload(Workload::new(tiny("b")))
            .schedulers([SchedulerKind::Grws, SchedulerKind::Joss])
            .seeds([1, 2])
            .build();
        assert_eq!(specs.len(), 8);
        let labels: Vec<String> = specs.iter().map(|s| s.label()).collect();
        assert_eq!(labels[0], "a/GRWS/seed1");
        assert_eq!(labels[1], "a/GRWS/seed2");
        assert_eq!(labels[2], "a/JOSS/seed1");
        assert_eq!(labels[4], "b/GRWS/seed1");
        assert_eq!(labels[7], "b/JOSS/seed2");
    }

    #[test]
    fn seeds_default_and_traces_stay_off() {
        let grid = SpecGrid::new()
            .workload(Workload::new(tiny("a")))
            .scheduler(SchedulerKind::Grws);
        assert_eq!(grid.len(), 1);
        let specs = grid.build();
        assert_eq!(specs[0].engine.seed, DEFAULT_SEED);
        assert!(!specs[0].engine.record_trace);
        assert!(!specs[0].engine.to_config().record_trace);
    }

    #[test]
    fn workloads_share_one_graph_allocation() {
        let specs = SpecGrid::new()
            .workload(Workload::new(tiny("a")))
            .schedulers([SchedulerKind::Grws, SchedulerKind::Joss])
            .seeds([1, 2, 3])
            .build();
        for s in &specs[1..] {
            assert!(Arc::ptr_eq(&specs[0].workload.graph, &s.workload.graph));
        }
    }
}
