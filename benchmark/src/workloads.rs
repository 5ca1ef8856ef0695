//! The six workloads and the design points each one runs.

use crate::cal::{CAL_STEPS_HUGE, CAL_STEPS_LARGE, CAL_STEPS_SMALL};
use crate::seeded::SeededRw;
use gcache_bench::sweep::DesignPoint;
use gcache_bench::{designs, PolicyPlanes};
use gcache_core::cache::{BypassPlane, CopyBackPlane};
use gcache_core::policy::gcache::GCacheConfig;
use gcache_sim::config::{GpuConfig, Hierarchy, L1PolicyKind};
use gcache_workloads::{by_name, ml_registry, registry, Benchmark, Category, Scale};

/// One benchmark workload: a fixed set of design points chosen so that
/// some layers do most of the work and others none.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    /// Name on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Why the workload exists, in one sentence.
    pub why: &'static str,
    /// The paper's GC-over-BS speed-up for this kernel set, where the
    /// repository holds one (EXPERIMENTS.md); `None` = unvalidated.
    pub reference: Option<f64>,
    /// Steps of the calibration loop run between its timed points.
    pub cal_steps: u64,
}

/// Every workload, in run order.
pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: "grid_smoke",
        why: "102-point test-scale grid, all six policies: wide and shallow, ramp-up and drain dominate, mesh is the largest host share",
        reference: None,
        cal_steps: CAL_STEPS_SMALL,
    },
    Workload {
        name: "sensitive_full",
        why: "the paper's 8 cache-sensitive kernels at paper scale under BS and GC: steady state where L1 controller, policy and mesh work pays; carries the headline speed-up",
        reference: Some(1.309),
        cal_steps: CAL_STEPS_LARGE,
    },
    Workload {
        name: "insensitive_full",
        why: "the 5 streaming kernels at paper scale under BS and GC: write-heavy, L2 and DRAM do the work and the policy planes none, so an L1 change predicts no change here",
        reference: Some(1.0),
        cal_steps: CAL_STEPS_LARGE,
    },
    Workload {
        name: "cluster_ml",
        why: "shared-L1.5 clusters with 2 crossbar ports, ML kernels under the HyDRA bypass and clean copy-back planes: the only user of l15, xbar, the planes and request classes",
        reference: None,
        cal_steps: CAL_STEPS_LARGE,
    },
    Workload {
        name: "server_ckpt",
        why: "the sweep_server binary with one worker process checkpointing every 1200 cycles, five kernels under six designs: snapshot, checkpoint I/O, coordination and observability, which nothing else touches",
        reference: None,
        cal_steps: CAL_STEPS_LARGE,
    },
    Workload {
        name: "seeded_rw",
        why: "a kernel drawn from --seed with stores and a real atomic stream under BS and GC: the only inputs the seed changes, held out for checking later claims",
        reference: None,
        cal_steps: CAL_STEPS_HUGE,
    },
];

/// Looks a workload up by name.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// One design point of a plan.
#[derive(Clone, Copy, Debug)]
pub struct Point {
    /// Index into [`Plan::kernels`].
    pub kernel: usize,
    /// L1 policy under test.
    pub policy: L1PolicyKind,
    /// Hierarchy shape.
    pub hierarchy: Hierarchy,
    /// Cluster crossbar ports (1 on flat shapes).
    pub ports: usize,
    /// Policy planes composed around `policy`.
    pub planes: PolicyPlanes,
}

/// A workload's kernels and design points, built once per set-up.
pub struct Plan {
    /// The kernels, built at `scale` (or from the seed).
    pub kernels: Vec<Box<dyn Benchmark>>,
    /// The design points, in run order.
    pub points: Vec<Point>,
    scale: Scale,
    seed: u64,
}

const BS: L1PolicyKind = L1PolicyKind::Lru;

fn gc() -> L1PolicyKind {
    L1PolicyKind::GCache(GCacheConfig::default())
}

fn flat(kernel: usize, policy: L1PolicyKind) -> Point {
    Point {
        kernel,
        policy,
        hierarchy: Hierarchy::Flat,
        ports: 1,
        planes: PolicyPlanes::default(),
    }
}

impl Plan {
    /// Builds the plan of `workload` (`server_ckpt` gets the grid its
    /// timed runs hand to the server, for the in-process drivers).
    ///
    /// # Panics
    ///
    /// Panics on an unknown workload name.
    pub fn build(workload: &str, seed: u64) -> Plan {
        let category = |c: Category| -> Vec<Box<dyn Benchmark>> {
            registry(Scale::Paper)
                .into_iter()
                .filter(|b| b.info().category == c)
                .collect()
        };
        let bs_and_gc = |kernels: &[Box<dyn Benchmark>]| -> Vec<Point> {
            (0..kernels.len())
                .flat_map(|k| [flat(k, BS), flat(k, gc())])
                .collect()
        };
        let (kernels, points, scale) = match workload {
            "grid_smoke" | "server_ckpt" => {
                let mut kernels = registry(Scale::Test);
                if workload == "server_ckpt" {
                    kernels.retain(|b| crate::server::KERNELS.contains(&b.info().name));
                }
                let points = (0..kernels.len())
                    .flat_map(|k| designs(8).into_iter().map(move |p| flat(k, p)))
                    .collect();
                (kernels, points, Scale::Test)
            }
            "sensitive_full" => {
                let kernels = category(Category::Sensitive);
                let points = bs_and_gc(&kernels);
                (kernels, points, Scale::Paper)
            }
            "insensitive_full" => {
                let kernels = category(Category::Insensitive);
                let points = bs_and_gc(&kernels);
                (kernels, points, Scale::Paper)
            }
            "cluster_ml" => {
                let mut kernels: Vec<Box<dyn Benchmark>> = ["BFS", "STL"]
                    .iter()
                    .map(|n| by_name(n, Scale::Paper).expect("Table 1 kernel"))
                    .collect();
                kernels.extend(ml_registry(Scale::Paper));
                let hierarchy = Hierarchy::SharedL15 {
                    cluster_size: 4,
                    kb: 64,
                };
                let ml_planes = PolicyPlanes {
                    l1_bypass: BypassPlane::Hydra,
                    l1_copy_back: CopyBackPlane::CleanReuse { min_reuse: 2 },
                };
                let points = (0..kernels.len())
                    .map(|k| Point {
                        kernel: k,
                        policy: gc(),
                        hierarchy,
                        ports: 2,
                        planes: if k < 2 {
                            PolicyPlanes::default()
                        } else {
                            ml_planes
                        },
                    })
                    .collect();
                (kernels, points, Scale::Paper)
            }
            "seeded_rw" => {
                let kernels: Vec<Box<dyn Benchmark>> = vec![Box::new(SeededRw::new(seed))];
                let points = bs_and_gc(&kernels);
                (kernels, points, Scale::Paper)
            }
            other => panic!("unknown workload {other}"),
        };
        Plan {
            kernels,
            points,
            scale,
            seed,
        }
    }

    /// Point `i` in the form the sweep engine takes.
    pub fn design_point(&self, i: usize) -> DesignPoint<'_> {
        let p = &self.points[i];
        DesignPoint {
            bench: self.kernels[p.kernel].as_ref(),
            policy: p.policy,
            l1_kb: None,
            hierarchy: p.hierarchy,
            cluster_ports: p.ports,
            planes: p.planes,
        }
    }

    /// The machine configuration of point `i`, assembled from
    /// `GpuConfig`'s public builders the way the sweep engine does —
    /// the untraced and traced passes must agree on every statistic,
    /// which the traced pass checks.
    pub fn config(&self, i: usize) -> GpuConfig {
        let p = &self.points[i];
        GpuConfig::fermi_with_policy(p.policy)
            .expect("Table 2 geometry")
            .with_hierarchy(p.hierarchy)
            .expect("hierarchy fits the machine")
            .with_cluster_ports(p.ports)
            .expect("positive port count")
            .with_l1_bypass(p.planes.l1_bypass)
            .with_l1_copy_back(p.planes.l1_copy_back)
    }

    /// Builds point `i`'s kernel afresh, as a user running that one point
    /// would.
    pub fn build_kernel(&self, i: usize) -> Box<dyn Benchmark> {
        let name = self.kernels[self.points[i].kernel].info().name;
        if name == "SRW" {
            Box::new(SeededRw::new(self.seed))
        } else {
            by_name(name, self.scale).expect("kernel came from the registry")
        }
    }

    /// A short label for point `i`: `BFS/GC`.
    pub fn label(&self, i: usize) -> String {
        let p = &self.points[i];
        format!(
            "{}/{}",
            self.kernels[p.kernel].info().name,
            p.policy.design_name()
        )
    }

    /// Index of the point with the most simulated cycles among `cycles`
    /// (one entry per point) — the workload's longest kernel.
    pub fn longest(&self, cycles: &[u64]) -> usize {
        (0..self.points.len())
            .max_by_key(|&i| (cycles[i], std::cmp::Reverse(i)))
            .unwrap_or(0)
    }

    /// Whether `policy` is the BS baseline or GC.
    pub fn is_bs(policy: &L1PolicyKind) -> bool {
        matches!(policy, L1PolicyKind::Lru)
    }

    /// Whether `policy` is G-Cache.
    pub fn is_gc(policy: &L1PolicyKind) -> bool {
        matches!(policy, L1PolicyKind::GCache(_))
    }
}
