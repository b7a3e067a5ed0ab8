//! # joss-core — the JOSS runtime
//!
//! The paper's primary contribution: a runtime scheduling framework for
//! task-based parallel applications that jointly tunes core type, core
//! count, CPU cluster frequency and memory frequency per task to hit a
//! selected energy/performance trade-off.
//!
//! Architecture (paper Fig. 3):
//!
//! * [`engine`] — the execution engine (work queues, stealing, moldable
//!   execution, DVFS controllers, power integration) over the simulated
//!   platform;
//! * [`sched`] — the policies: [`sched::GrwsSched`] (baseline),
//!   [`sched::EraseSched`], [`sched::AequitasSched`], and
//!   [`sched::ModelSched`] which realizes both STEER and all JOSS variants;
//! * [`sampling`] — the per-kernel online sampling state machine (§5.1);
//! * [`coordination`] — frequency coordination heuristics for shared
//!   resources (§5.3);
//! * [`metrics`] — run reports (energy, makespan, overhead counters).
//!
//! ## Quick start
//!
//! ```
//! use joss_core::engine::{EngineConfig, SimEngine};
//! use joss_core::sched::ModelSched;
//! use joss_dag::generators;
//! use joss_dag::KernelSpec;
//! use joss_models::{ModelSet, TrainingConfig};
//! use joss_platform::{ConfigSpace, MachineModel, TaskShape};
//! use std::sync::Arc;
//!
//! // 1. A TX2-like platform and its one-time characterization.
//! let machine = MachineModel::tx2(42);
//! let space = ConfigSpace::from_spec(&machine.spec);
//! let mut tc = TrainingConfig::tx2_default(&space);
//! tc.reps = 1; // keep the doctest fast
//! let models = Arc::new(ModelSet::train(&machine, tc));
//!
//! // 2. An application: 64 independent matrix-multiply-like tasks.
//! let kernel = KernelSpec::new("mm", TaskShape::new(0.03, 0.002));
//! let graph = generators::independent("mm_bag", kernel, 64);
//!
//! // 3. Run it under JOSS and inspect the energy account.
//! let mut sched = ModelSched::joss(models);
//! let report = SimEngine::run(&machine, &graph, &mut sched, EngineConfig::default());
//! assert_eq!(report.tasks, 64);
//! assert!(report.total_j() > 0.0);
//! ```

pub mod arena;
pub mod coordination;
pub mod engine;
pub mod equeue;
pub mod metrics;
pub mod placement;
pub mod sampling;
pub mod sched;
pub mod trace;

pub use arena::EngineArena;
pub use coordination::Coordination;
pub use engine::{EngineConfig, SimEngine};
pub use equeue::CalendarQueue;
pub use metrics::RunReport;
pub use placement::{ExecutedSample, FreqCommand, Placement};
pub use sched::{
    AequitasSched, CataSched, EraseSched, FixedSched, GrwsSched, ModelSched, SchedCtx, Scheduler,
    SearchKind, Target,
};
pub use trace::ExecTrace;
