//! # joss-workloads — the paper's benchmark suite (Table 1)
//!
//! Ten task-based benchmarks from the Edge and HPC domains, reproduced as
//! DAG generators with per-kernel computational shapes:
//!
//! | abbr | benchmark            | kernels                    | module |
//! |------|----------------------|----------------------------|--------|
//! | HD   | Heat diffusion       | copy, jacobi               | [`heat`] |
//! | DP   | Dot product          | dot_block, dot_reduce      | [`dot`] |
//! | FB   | Fibonacci            | fib                        | [`fib`] |
//! | VG   | Darknet VGG-16 CNN   | conv, pool, fc, join       | [`vgg`] |
//! | BI   | Biomarker infection  | combo                      | [`biomarker`] |
//! | AL   | Alya (PDE solver)    | spmv                       | [`alya`] |
//! | SLU  | Sparse LU            | lu0, fwd, bdiv, bmod       | [`sparselu`] |
//! | MM   | Matrix multiply      | mm_tile                    | [`matmul`] |
//! | MC   | Matrix copy          | mc_copy                    | [`matcopy`] |
//! | ST   | Stencil              | st_update                  | [`stencil`] |
//!
//! Task counts at [`Scale::Full`] match Table 1; [`Scale::Divided`] shrinks
//! iteration counts (not task shapes) for fast CI runs. Kernel shapes are
//! derived from the documented input sizes (operation counts and memory
//! traffic of the real numerical kernels), so compute/memory intensities —
//! the axis that drives every scheduling decision — match the real codes.

pub mod alya;
pub mod biomarker;
pub mod dot;
pub mod fib;
pub mod heat;
pub mod matcopy;
pub mod matmul;
mod memo;
pub mod sparselu;
pub mod stencil;
pub mod suite;
pub mod vgg;

pub use suite::{fig8_bench, fig8_labels, fig8_suite, fig9_suite, BenchInstance};

use serde::{Deserialize, Serialize};

/// Workload scaling: full Table-1 task counts, or divided for fast runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Scale {
    /// Table-1 task counts.
    Full,
    /// Task counts divided by the factor (iterations shrink; kernel shapes
    /// and DAG structure are unchanged).
    Divided(u32),
}

impl Scale {
    /// Default test scale used by CI and Criterion benches.
    pub const TEST: Scale = Scale::Divided(100);

    /// Apply to a full-scale count, keeping at least `min`.
    pub fn apply(self, full: usize, min: usize) -> usize {
        match self {
            Scale::Full => full.max(min),
            Scale::Divided(d) => (full / d as usize).max(min),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_applies_with_floor() {
        assert_eq!(Scale::Full.apply(1000, 10), 1000);
        assert_eq!(Scale::Divided(100).apply(1000, 10), 10);
        assert_eq!(Scale::Divided(100).apply(50000, 10), 500);
        assert_eq!(Scale::Divided(7).apply(5, 3), 3);
    }
}
