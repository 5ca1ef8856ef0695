//! The paper's Table 1 as a table: one `Workload` row per benchmark,
//! naming the generator function that writes its warps' programs.

use crate::gen::LANES;
use crate::{graph, linalg, mapreduce, ml, stencil};
use gcache_sim::isa::{GridDim, Kernel, WarpProgram};
use std::fmt;

/// Cache-sensitivity class from Table 1.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Category {
    /// Large speedup from better L1 management (upper block of Table 1).
    Sensitive,
    /// Small but visible benefit (middle block).
    Moderate,
    /// No meaningful benefit — must not be *hurt* by G-Cache (lower block).
    Insensitive,
}

impl fmt::Display for Category {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Category::Sensitive => "Cache Sensitive",
            Category::Moderate => "Moderately Sensitive",
            Category::Insensitive => "Cache Insensitive",
        };
        f.write_str(s)
    }
}

/// Static description of one benchmark (one row of Table 1).
#[derive(Clone, Copy, Debug)]
pub struct WorkloadInfo {
    /// Paper abbreviation (e.g. `"BFS"`).
    pub name: &'static str,
    /// Full description from Table 1.
    pub description: &'static str,
    /// Originating suite.
    pub suite: &'static str,
    /// Sensitivity class.
    pub category: Category,
}

/// Run-length scaling so tests stay fast while experiments get full-size
/// runs.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Scale {
    /// A few thousand accesses; for unit/integration tests.
    Test,
    /// The experiment harness size (hundreds of thousands of accesses).
    #[default]
    Paper,
}

/// A benchmark: a simulator kernel plus its Table 1 row.
pub trait Benchmark: Kernel {
    /// The benchmark's Table 1 metadata.
    fn info(&self) -> WorkloadInfo;
}

/// CTAs of every built-in kernel's paper-scale grid.
const CTAS: usize = 128;

/// Warps per CTA of every built-in kernel: 128 threads, Table 2's width.
const WARPS_PER_CTA: usize = 4;

/// Grid-wide index of warp `warp` of CTA `cta` in a built-in kernel.
pub(crate) fn wid(cta: usize, warp: usize) -> u64 {
    (cta * WARPS_PER_CTA + warp) as u64
}

/// One built-in benchmark: its Table 1 row, its launch size, and the
/// function that writes its warps' programs. This is the only type the
/// built-in kernels have: [`TABLE_1`] and [`ML_KERNELS`] hold one value
/// of it per kernel.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Workload {
    /// The row's metadata; `info.name` is also [`Kernel::name`].
    pub(crate) info: WorkloadInfo,
    /// CTAs in the grid, each of 128 threads.
    ctas: usize,
    /// The generator's run length per warp — iterations, rows, points,
    /// columns per sweep — and what [`Scale::Test`] shortens.
    pub(crate) loops: usize,
    /// Writes the program of warp `warp` of CTA `cta`:
    /// `program(loops, cta, warp)`.
    program: fn(usize, usize, usize) -> Box<dyn WarpProgram>,
}

impl Workload {
    /// The row at `scale`: paper-scale rows run a quarter of their CTAs
    /// and a quarter of their loop trips under [`Scale::Test`].
    fn at(self, scale: Scale) -> Workload {
        let shrink = |paper: usize| match scale {
            Scale::Test => (paper / 4).max(1),
            Scale::Paper => paper,
        };
        Workload {
            ctas: shrink(self.ctas),
            loops: shrink(self.loops),
            ..self
        }
    }

    /// The row at `scale`, as the registries hand it out.
    fn boxed(self, scale: Scale) -> Box<dyn Benchmark> {
        Box::new(self.at(scale))
    }
}

impl Kernel for Workload {
    fn name(&self) -> &str {
        self.info.name
    }

    fn grid(&self) -> GridDim {
        GridDim {
            ctas: self.ctas,
            threads_per_cta: WARPS_PER_CTA * LANES,
        }
    }

    fn warp_program(&self, cta: usize, warp: usize) -> Box<dyn WarpProgram> {
        (self.program)(self.loops, cta, warp)
    }
}

impl Benchmark for Workload {
    fn info(&self) -> WorkloadInfo {
        self.info
    }
}

/// The 17 benchmarks of the paper's Table 1 at paper scale, in its
/// presentation order.
const TABLE_1: [Workload; 17] = [
    Workload {
        info: WorkloadInfo {
            name: "BFS",
            description: "Breadth First Search",
            suite: "Rodinia",
            category: Category::Sensitive,
        },
        ctas: CTAS,
        loops: 32,
        program: graph::bfs,
    },
    Workload {
        info: WorkloadInfo {
            name: "KMN",
            description: "K-means Clustering",
            suite: "Rodinia",
            category: Category::Sensitive,
        },
        ctas: CTAS,
        loops: 12,
        program: |points, cta, warp| linalg::kmn(points, cta, warp, linalg::KMN_TABLE_LINES),
    },
    Workload {
        info: WorkloadInfo {
            name: "PVC",
            description: "Page View Count",
            suite: "Mars",
            category: Category::Sensitive,
        },
        ctas: CTAS,
        loops: 40,
        program: mapreduce::pvc,
    },
    Workload {
        info: WorkloadInfo {
            name: "SSC",
            description: "Similarity Score",
            suite: "Mars",
            category: Category::Sensitive,
        },
        ctas: CTAS,
        loops: 20,
        program: mapreduce::ssc,
    },
    Workload {
        info: WorkloadInfo {
            name: "SD2",
            description: "Graphic Diffusion",
            suite: "Rodinia",
            category: Category::Sensitive,
        },
        ctas: CTAS,
        loops: 16,
        program: stencil::sd2,
    },
    Workload {
        info: WorkloadInfo {
            name: "SPMV",
            description: "Sparse Matrix Vector Multiply",
            suite: "Parboil",
            category: Category::Sensitive,
        },
        ctas: CTAS,
        loops: 48,
        program: graph::spmv,
    },
    Workload {
        info: WorkloadInfo {
            name: "SYRK",
            description: "Symmetric Rank-K",
            suite: "PolyBench",
            category: Category::Sensitive,
        },
        ctas: CTAS,
        loops: 32,
        program: linalg::syrk,
    },
    Workload {
        info: WorkloadInfo {
            name: "IIX",
            description: "Inverted Index",
            suite: "Mars",
            category: Category::Sensitive,
        },
        ctas: CTAS,
        loops: 40,
        program: mapreduce::iix,
    },
    Workload {
        info: WorkloadInfo {
            name: "FFT",
            description: "Fast Fourier Transform",
            suite: "Parboil",
            category: Category::Moderate,
        },
        ctas: CTAS,
        loops: 8,
        program: linalg::fft,
    },
    Workload {
        info: WorkloadInfo {
            name: "CFD",
            description: "CFD Solver",
            suite: "Rodinia",
            category: Category::Moderate,
        },
        ctas: CTAS,
        loops: 40,
        program: graph::cfd,
    },
    Workload {
        info: WorkloadInfo {
            name: "PVR",
            description: "Page View Rank",
            suite: "Mars",
            category: Category::Moderate,
        },
        ctas: CTAS,
        loops: 48,
        program: mapreduce::pvr,
    },
    Workload {
        info: WorkloadInfo {
            name: "NW",
            description: "Needleman-Wunsch",
            suite: "Rodinia",
            category: Category::Moderate,
        },
        ctas: CTAS,
        loops: 96,
        program: |iters, cta, warp| graph::nw(iters, cta, warp, graph::NW_SLICE_LINES),
    },
    Workload {
        info: WorkloadInfo {
            name: "SD1",
            description: "Graphic Diffusion",
            suite: "Rodinia",
            category: Category::Insensitive,
        },
        ctas: CTAS,
        loops: 32,
        program: stencil::sd1,
    },
    Workload {
        info: WorkloadInfo {
            name: "BP",
            description: "Back Propagation",
            suite: "Rodinia",
            category: Category::Insensitive,
        },
        ctas: CTAS,
        loops: 48,
        program: linalg::bp,
    },
    Workload {
        info: WorkloadInfo {
            name: "STL",
            description: "3D Stencil",
            suite: "Parboil",
            category: Category::Insensitive,
        },
        ctas: CTAS,
        loops: 28,
        program: stencil::stl,
    },
    Workload {
        info: WorkloadInfo {
            name: "WP",
            description: "Weather Prediction",
            suite: "CUDA SDK",
            category: Category::Insensitive,
        },
        ctas: CTAS,
        loops: 16,
        program: stencil::wp,
    },
    Workload {
        info: WorkloadInfo {
            name: "FWT",
            description: "Fast Walsh Transform",
            suite: "CUDA SDK",
            category: Category::Insensitive,
        },
        ctas: CTAS,
        loops: 12,
        program: linalg::fwt,
    },
];

/// The ML-era extension kernels at paper scale — kept apart from
/// [`TABLE_1`] so that set stays exactly the paper's 17 benchmarks.
pub(crate) const ML_KERNELS: [Workload; 3] = [
    Workload {
        info: WorkloadInfo {
            name: "GEMM",
            description: "Tiled Matrix Multiply",
            suite: "ML kernels",
            category: Category::Sensitive,
        },
        ctas: CTAS,
        loops: 24,
        program: ml::gemm,
    },
    Workload {
        info: WorkloadInfo {
            name: "CONV",
            description: "Convolution / Pooling",
            suite: "ML kernels",
            category: Category::Moderate,
        },
        ctas: CTAS,
        loops: 40,
        program: ml::conv,
    },
    Workload {
        info: WorkloadInfo {
            name: "ATTN",
            description: "Attention Softmax Row-scan",
            suite: "ML kernels",
            category: Category::Insensitive,
        },
        ctas: CTAS,
        loops: 8,
        program: ml::attn,
    },
];

/// Instantiates all 17 benchmarks of Table 1 at the given scale, in the
/// paper's presentation order.
pub fn registry(scale: Scale) -> Vec<Box<dyn Benchmark>> {
    TABLE_1.iter().map(|row| row.boxed(scale)).collect()
}

/// Instantiates the ML-era extension kernels (GEMM, CONV, ATTN) at the
/// given scale.
pub fn ml_registry(scale: Scale) -> Vec<Box<dyn Benchmark>> {
    ML_KERNELS.iter().map(|row| row.boxed(scale)).collect()
}

/// Looks one benchmark up by its abbreviation (case-insensitive), across
/// both the Table 1 registry and the ML extension kernels.
pub fn by_name(name: &str, scale: Scale) -> Option<Box<dyn Benchmark>> {
    TABLE_1
        .iter()
        .chain(&ML_KERNELS)
        .find(|row| row.info.name.eq_ignore_ascii_case(name))
        .map(|row| row.boxed(scale))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows() -> impl Iterator<Item = Workload> {
        TABLE_1.into_iter().chain(ML_KERNELS)
    }

    #[test]
    fn registry_matches_table_1() {
        let all = registry(Scale::Test);
        assert_eq!(all.len(), 17);
        let names: Vec<_> = all.iter().map(|b| b.info().name).collect();
        assert_eq!(
            names,
            vec![
                "BFS", "KMN", "PVC", "SSC", "SD2", "SPMV", "SYRK", "IIX", "FFT", "CFD", "PVR",
                "NW", "SD1", "BP", "STL", "WP", "FWT"
            ]
        );
        let count = |c| all.iter().filter(|b| b.info().category == c).count();
        assert_eq!(
            (
                count(Category::Sensitive),
                count(Category::Moderate),
                count(Category::Insensitive)
            ),
            (8, 4, 5)
        );
    }

    #[test]
    fn every_row_has_one_name() {
        let names: std::collections::HashSet<_> = rows().map(|row| row.info.name).collect();
        assert_eq!(names.len(), 20, "names are unique across both tables");
        for row in rows() {
            let name = row.info.name;
            assert_eq!(row.name(), name, "Kernel::name is the row's name");
            let (head, tail) = name.split_at(1);
            let mixed = head.to_lowercase() + tail;
            for spelling in [name, &name.to_lowercase(), &mixed] {
                let found = by_name(spelling, Scale::Paper)
                    .unwrap_or_else(|| panic!("by_name({spelling:?}) finds {name}"));
                assert_eq!((found.name(), found.info().name), (name, name));
            }
        }
        assert!(by_name("nosuch", Scale::Test).is_none());
    }

    #[test]
    fn rows_scale_down_for_tests() {
        for row in rows() {
            let name = row.info.name;
            let paper = row.at(Scale::Paper);
            assert_eq!((paper.grid().ctas, paper.loops), (128, row.loops), "{name}");
            let test = row.at(Scale::Test);
            let grid = GridDim {
                ctas: 32,
                threads_per_cta: 128,
            };
            assert_eq!(test.grid(), grid, "{name}");
            assert_eq!(test.loops, (row.loops / 4).max(1), "{name}");
        }
        let short = Workload {
            ctas: 2,
            loops: 3,
            ..TABLE_1[0]
        };
        let test = short.at(Scale::Test);
        assert_eq!((test.ctas, test.loops), (1, 1), "never scaled to nothing");
    }

    #[test]
    fn ml_registry_is_separate() {
        let ml = ml_registry(Scale::Test);
        let names: Vec<_> = ml.iter().map(|b| b.info().name).collect();
        assert_eq!(names, vec!["GEMM", "CONV", "ATTN"]);
    }

    #[test]
    fn category_display() {
        assert_eq!(Category::Sensitive.to_string(), "Cache Sensitive");
        assert_eq!(Category::Insensitive.to_string(), "Cache Insensitive");
    }
}
