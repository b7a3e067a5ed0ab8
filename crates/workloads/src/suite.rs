//! The evaluation suites: the 21 benchmark instances of Fig. 8/9 and the
//! Table-1 inventory.

use crate::heat::HeatSize;
use crate::memo::{GraphMemo, MEMO_TASK_BUDGET};
use crate::{alya, biomarker, dot, fib, heat, matcopy, matmul, sparselu, stencil, vgg, Scale};
use joss_dag::TaskGraph;
use std::sync::{Arc, OnceLock};

/// One benchmark instance of the evaluation.
#[derive(Debug, Clone)]
pub struct BenchInstance {
    /// Paper label (x-axis of Figs. 8 and 9).
    pub label: String,
    /// The task graph, shared with every other holder of the same
    /// instance (see [`fig8_bench`]).
    pub graph: Arc<TaskGraph>,
}

impl BenchInstance {
    fn new(graph: Arc<TaskGraph>) -> Self {
        BenchInstance {
            label: graph.name().to_string(),
            graph,
        }
    }
}

/// The suite's per-instance constructors, in the paper's x-axis order:
/// the single source of truth for [`fig8_labels`], [`fig8_suite`] and
/// [`fig8_bench`].
pub(crate) const FIG8: [fn(Scale) -> TaskGraph; 21] = [
    |s| heat::heat(HeatSize::Small, s),
    |s| heat::heat(HeatSize::Big, s),
    |s| heat::heat(HeatSize::Huge, s),
    dot::dot,
    fib::fib,
    vgg::vgg,
    biomarker::biomarker,
    alya::alya,
    sparselu::sparselu,
    |s| matmul::matmul(256, 4, s),
    |s| matmul::matmul(256, 16, s),
    |s| matmul::matmul(512, 4, s),
    |s| matmul::matmul(512, 16, s),
    |s| matcopy::matcopy(4096, 4, s),
    |s| matcopy::matcopy(4096, 16, s),
    |s| matcopy::matcopy(8192, 4, s),
    |s| matcopy::matcopy(8192, 16, s),
    |s| stencil::stencil(512, 4, s),
    |s| stencil::stencil(512, 16, s),
    |s| stencil::stencil(2048, 4, s),
    |s| stencil::stencil(2048, 16, s),
];

/// Minimum-size probe: every generator floors its task count, so this is
/// the cheapest scale a graph can be built at. Labels are scale-invariant,
/// which is what lets the probe stand in for label lookups.
const PROBE: Scale = Scale::Divided(u32::MAX);

/// The generators' own names, in [`FIG8`] order, taken from one probe
/// pass per process.
fn labels() -> &'static [String] {
    static LABELS: OnceLock<Vec<String>> = OnceLock::new();
    LABELS.get_or_init(|| {
        FIG8.iter()
            .map(|build| build(PROBE).name().to_string())
            .collect()
    })
}

/// Position of `label` in the suite, if it names an instance.
pub(crate) fn fig8_index(label: &str) -> Option<usize> {
    labels().iter().position(|l| l == label)
}

/// The 21 benchmark instances of Fig. 8, in the paper's x-axis order,
/// each freshly built (the graph memo behind [`fig8_bench`] is bypassed:
/// a full-scale suite is several times its budget).
pub fn fig8_suite(scale: Scale) -> Vec<BenchInstance> {
    FIG8.iter()
        .map(|build| BenchInstance::new(Arc::new(build(scale))))
        .collect()
}

/// The 21 Fig. 8 labels in x-axis order. The list is computed once per
/// process from probe-size graphs; later calls build nothing.
pub fn fig8_labels() -> Vec<String> {
    labels().to_vec()
}

/// The instance with this label at `scale`, or `None` for an unknown
/// label (which builds nothing).
///
/// Graphs come from a process-wide memo keyed by (label, scale): the
/// first request builds the one graph, and every later request shares it
/// until least-recently-used eviction drops it. The memo retains at most
/// 2^18 tasks in total (about 8.4 MB of graphs); a graph larger than that
/// is built on every call and never retained. Grid resolution, shard
/// planning and the serve daemon's miss path all resolve labels through
/// here.
pub fn fig8_bench(label: &str, scale: Scale) -> Option<BenchInstance> {
    static MEMO: OnceLock<GraphMemo> = OnceLock::new();
    MEMO.get_or_init(|| GraphMemo::new(MEMO_TASK_BUDGET))
        .get(label, scale)
        .map(BenchInstance::new)
}

/// The Fig. 9 suite (same instances as Fig. 8).
pub fn fig9_suite(scale: Scale) -> Vec<BenchInstance> {
    fig8_suite(scale)
}

/// One row of the Table-1 inventory.
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// Abbreviation.
    pub abbr: &'static str,
    /// Description.
    pub description: &'static str,
    /// Input size string.
    pub input: &'static str,
    /// Full-scale task counts (as generated).
    pub tasks: Vec<usize>,
}

/// Number of Table-1 inventory rows.
pub const TABLE1_LEN: usize = 10;

/// The Table-1 inventory with generated full-scale task counts.
pub fn table1() -> Vec<Table1Row> {
    (0..TABLE1_LEN).map(table1_row).collect()
}

/// Build one Table-1 row (rows are independent, so callers may generate
/// them in parallel; full-scale DAG generation is the expensive part).
/// Panics if `i >= TABLE1_LEN`.
pub fn table1_row(i: usize) -> Table1Row {
    match i {
        0 => Table1Row {
            abbr: "HD",
            description: "Heat diffusion, iterative Jacobi (copy + jacobi kernels)",
            input: "2048 (small), 8192 (big), 16384 (huge)",
            tasks: vec![
                heat::heat(HeatSize::Small, Scale::Full).n_tasks(),
                heat::heat(HeatSize::Big, Scale::Full).n_tasks(),
                heat::heat(HeatSize::Huge, Scale::Full).n_tasks(),
            ],
        },
        1 => Table1Row {
            abbr: "DP",
            description: "Dot product over blocked vectors, 100 iterations",
            input: "VectorSize 6400000, BlockSize 32000",
            tasks: vec![dot::dot(Scale::Full).n_tasks()],
        },
        2 => Table1Row {
            abbr: "FB",
            description: "Fibonacci by recursion",
            input: "Term 55, GrainSize 34",
            tasks: vec![fib::fib(Scale::Full).n_tasks()],
        },
        3 => Table1Row {
            abbr: "VG",
            description: "Darknet VGG-16 CNN as fork-join DAG, 10 iterations",
            input: "768x576 RGB image, blocksize 64",
            tasks: vec![vgg::vgg(Scale::Full).n_tasks()],
        },
        4 => Table1Row {
            abbr: "BI",
            description: "Biomarker combinations for hip-infection prediction",
            input: "Sample Size 2",
            tasks: vec![biomarker::biomarker(Scale::Full).n_tasks()],
        },
        5 => Table1Row {
            abbr: "AL",
            description: "Alya computational mechanics (mesh partitioning)",
            input: "200K CSR non-zeros",
            tasks: vec![alya::alya(Scale::Full).n_tasks()],
        },
        6 => Table1Row {
            abbr: "SLU",
            description: "Sparse LU factorization (LU0, FWD, BDIV, BMOD)",
            input: "64 blocks, BlockSize 512",
            tasks: vec![sparselu::sparselu(Scale::Full).n_tasks()],
        },
        7 => Table1Row {
            abbr: "MM",
            description: "Tiled matrix multiplication (dop configurable)",
            input: "256x256, 512x512",
            tasks: vec![
                matmul::matmul(256, 4, Scale::Full).n_tasks(),
                matmul::matmul(512, 4, Scale::Full).n_tasks(),
            ],
        },
        8 => Table1Row {
            abbr: "MC",
            description: "Matrix copy, streaming main memory (dop configurable)",
            input: "4096x4096, 8192x8192",
            tasks: vec![
                matcopy::matcopy(4096, 4, Scale::Full).n_tasks(),
                matcopy::matcopy(8192, 4, Scale::Full).n_tasks(),
            ],
        },
        9 => Table1Row {
            abbr: "ST",
            description: "Stencil updates on a multi-dimensional grid (dop configurable)",
            input: "512x512, 2048x2048",
            tasks: vec![
                stencil::stencil(512, 4, Scale::Full).n_tasks(),
                stencil::stencil(2048, 4, Scale::Full).n_tasks(),
            ],
        },
        _ => panic!("table1_row index {i} out of range (len {TABLE1_LEN})"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_has_21_instances_in_paper_order() {
        let suite = fig8_suite(Scale::Divided(200));
        assert_eq!(suite.len(), 21);
        assert_eq!(suite[0].label, "HT_Small");
        assert_eq!(suite[8].label, "SLU");
        assert_eq!(suite[20].label, "ST_2048_dop16");
        for b in &suite {
            b.graph.check_invariants().unwrap();
        }
    }

    #[test]
    fn table1_covers_all_ten_benchmarks() {
        let rows = table1();
        assert_eq!(rows.len(), 10);
        assert!(rows.iter().all(|r| !r.tasks.is_empty()));
    }

    #[test]
    fn labels_are_scale_invariant_and_probe_enumerable() {
        let labels = fig8_labels();
        let suite: Vec<String> = fig8_suite(Scale::Divided(200))
            .into_iter()
            .map(|b| b.label)
            .collect();
        assert_eq!(labels, suite, "probe labels must match real-scale labels");
    }

    #[test]
    fn fig8_bench_builds_the_same_instance_as_the_suite() {
        let scale = Scale::Divided(200);
        let from_suite = fig8_suite(scale)
            .into_iter()
            .find(|b| b.label == "MM_256_dop4")
            .unwrap();
        let single = fig8_bench("MM_256_dop4", scale).expect("known label");
        assert_eq!(single.label, from_suite.label);
        assert_eq!(single.graph.n_tasks(), from_suite.graph.n_tasks());
        assert!(fig8_bench("NOPE", scale).is_none());
    }
}
