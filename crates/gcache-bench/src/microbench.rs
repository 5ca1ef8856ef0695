//! Minimal self-calibrating timing harness for the `benches/` targets.
//!
//! The build environment is offline, so the micro-benchmarks cannot pull
//! in an external harness; this module provides the small subset they
//! need — warm-up, iteration-count calibration, and a stable one-line
//! report — with zero dependencies. Each `benches/*.rs` target is a plain
//! `fn main()` (`harness = false`) built on [`bench()`].
//!
//! It also hosts the [`mesh_saturation`] driver: a synthetic-traffic
//! load/latency probe of the 2D-mesh NoC (uniform-random and hotspot
//! patterns at a sweep of injection rates) used by `benches/noc.rs` to
//! characterise the router hot path without dragging a whole GPU model in.

use gcache_core::addr::{CoreId, LineAddr};
use gcache_core::cache::{Cache, CacheConfig};
use gcache_core::controller::{AtomicHandling, CacheController, ControllerOutcome, FillParams};
use gcache_core::geometry::CacheGeometry;
use gcache_core::policy::gcache::GCache;
use gcache_core::policy::lru::Lru;
use gcache_core::policy::pdp::StaticPdp;
use gcache_core::policy::pdp_dyn::{DynamicPdp, DynamicPdpConfig};
use gcache_core::policy::rrip::Rrip;
use gcache_core::policy::{AccessKind, PolicyKind};
use gcache_core::rng::SmallRng;
use gcache_sim::icnt::Mesh;
use std::time::{Duration, Instant};

/// Target wall-clock spent measuring each benchmark after calibration.
const TARGET: Duration = Duration::from_millis(200);

/// Measured result of one benchmark: the mean cost per iteration.
#[derive(Clone, Copy, Debug)]
pub struct Measurement {
    /// Iterations actually timed.
    pub iters: u64,
    /// Mean nanoseconds per iteration.
    pub ns_per_iter: f64,
}

/// Times `f`, returning elapsed wall-clock.
pub fn time_it(f: impl FnOnce()) -> Duration {
    let start = Instant::now();
    f();
    start.elapsed()
}

/// Runs `f` repeatedly — one warm-up pass, then an iteration count
/// calibrated so the timed region lasts roughly 200 ms — and returns
/// the mean per-iteration cost.
pub fn measure(mut f: impl FnMut()) -> Measurement {
    // Warm-up + calibration estimate.
    let once = time_it(&mut f).max(Duration::from_nanos(1));
    let iters = (TARGET.as_nanos() / once.as_nanos()).clamp(1, 10_000_000) as u64;
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    let elapsed = start.elapsed();
    Measurement {
        iters,
        ns_per_iter: elapsed.as_nanos() as f64 / iters as f64,
    }
}

/// Runs and reports one named benchmark (`group/name ... ns/iter`).
pub fn bench(name: &str, f: impl FnMut()) -> Measurement {
    let m = measure(f);
    println!(
        "{name:<40} {:>14.1} ns/iter  ({} iters)",
        m.ns_per_iter, m.iters
    );
    m
}

/// Re-export so bench targets need only one import for timing + opacity.
#[inline]
pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

/// Policies the `benches/l1.rs` access-loop microbenchmark exercises.
pub const L1_BENCH_POLICIES: &[&str] = &["lru", "srrip3", "gcache", "spdp8", "pdp3_dyn"];

/// Builds one of the [`L1_BENCH_POLICIES`] by name.
///
/// # Panics
///
/// Panics on an unknown name.
pub fn l1_bench_policy(name: &str, geom: &CacheGeometry) -> PolicyKind {
    match name {
        "lru" => Lru::new(geom).into(),
        "srrip3" => Rrip::srrip(geom, 3).into(),
        "gcache" => GCache::with_defaults(geom).into(),
        "spdp8" => StaticPdp::new(geom, 8).into(),
        "pdp3_dyn" => DynamicPdp::new(geom, DynamicPdpConfig::pdp3()).into(),
        other => panic!("unknown l1 bench policy {other}"),
    }
}

/// The synthetic access stream the L1 microbenchmark replays: a cyclic
/// hot walk (resident working set → probe hits) with every 4th access
/// streaming (compulsory misses → MSHR allocate + fill).
pub fn l1_mixed_stream(n: usize) -> Vec<LineAddr> {
    let mut out = Vec::with_capacity(n);
    let mut hot = 0u64;
    let mut cold = 1 << 20;
    for i in 0..n {
        if i % 4 == 3 {
            cold += 1;
            out.push(LineAddr::new(cold));
        } else {
            hot = (hot + 1) % 384;
            out.push(LineAddr::new(hot));
        }
    }
    out
}

/// One timed pass of the full L1 access path — controller entry, probe,
/// MSHR book-keeping, immediate fill on primary misses — under `policy`
/// (a [`L1_BENCH_POLICIES`] name), returning mean nanoseconds per access.
///
/// Wall-clock noise on a loaded host is real; callers wanting a stable
/// number run this several times and keep the minimum.
pub fn l1_access_pass_ns(policy: &str) -> f64 {
    const PASSES: usize = 24;
    let geom = CacheGeometry::new(32 * 1024, 4, 128).expect("L1 geometry");
    let stream = l1_mixed_stream(4096);
    let mut ctrl: CacheController<u32> = CacheController::new(
        Cache::new(CacheConfig::l1(geom, 512), l1_bench_policy(policy, &geom)),
        32,
        8,
        AtomicHandling::Forward,
    );
    let mut woken: Vec<u32> = Vec::new();
    let mut run = |ctrl: &mut CacheController<u32>| {
        for &line in &stream {
            let out = ctrl.access(line, AccessKind::Read, CoreId(0), 0u32);
            if matches!(out, ControllerOutcome::MissPrimary) {
                ctrl.fill_with(line, &mut woken, |_| FillParams {
                    core: CoreId(0),
                    victim_hint: line.raw() % 8 == 0,
                    dirty: false,
                    class: None,
                });
            }
            black_box(&out);
        }
    };
    run(&mut ctrl); // warm-up: populate the hot working set
    let start = Instant::now();
    for _ in 0..PASSES {
        run(&mut ctrl);
    }
    start.elapsed().as_nanos() as f64 / (PASSES * stream.len()) as f64
}

/// Synthetic traffic pattern for [`mesh_saturation`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TrafficPattern {
    /// Every packet targets a uniformly random node other than its source.
    UniformRandom,
    /// Half the packets target node 0 (the paper's memory-side corner),
    /// the rest are uniform — models the many-to-few convergence a real
    /// request network sees.
    Hotspot,
}

/// One measured point of a mesh saturation sweep.
#[derive(Clone, Copy, Debug)]
pub struct SaturationPoint {
    /// Offered load: injection attempts per node per cycle.
    pub offered: f64,
    /// Accepted throughput: packets actually injected per node per cycle
    /// during the load phase (drops below `offered` past saturation).
    pub accepted: f64,
    /// Packets delivered end to end (load phase + drain).
    pub delivered: u64,
    /// Mean end-to-end packet latency in cycles.
    pub mean_latency: f64,
    /// Cycles simulated including the drain tail.
    pub cycles: u64,
}

/// Drives a `width`×`height` mesh with Bernoulli traffic at `offered`
/// injection attempts per node per cycle for `load_cycles`, then drains,
/// returning throughput and latency. Deterministic for a given `seed`.
///
/// Each packet is 2 flits (a request-network head+payload). A node whose
/// injection attempt is refused (local queue full) retries the same
/// packet next cycle — offered load counts the first attempt only, so
/// `accepted <= offered` with equality below saturation.
///
/// # Panics
///
/// Panics if the mesh has fewer than 2 nodes or `offered` is outside
/// `(0, 1]`.
pub fn mesh_saturation(
    width: usize,
    height: usize,
    pattern: TrafficPattern,
    offered: f64,
    load_cycles: u64,
    seed: u64,
) -> SaturationPoint {
    let nodes = width * height;
    assert!(nodes >= 2, "saturation needs at least two nodes");
    assert!(
        offered > 0.0 && offered <= 1.0,
        "offered load must be in (0, 1]"
    );
    let mut mesh: Mesh<u32> = Mesh::new(width, height, 8, 2, 1);
    let mut rng = SmallRng::seed_from_u64(seed);
    // Fixed-point Bernoulli threshold out of 2^32.
    let threshold = (offered * 4_294_967_296.0) as u64;
    let pick_dst = |rng: &mut SmallRng, src: usize| -> usize {
        let hot = pattern == TrafficPattern::Hotspot && rng.gen_range(0..2) == 0 && src != 0;
        if hot {
            0
        } else {
            // Uniform over the other nodes: skip src by offset.
            let r = rng.gen_range(0..nodes as u64 - 1) as usize;
            if r >= src {
                r + 1
            } else {
                r
            }
        }
    };

    let mut now = 0u64;
    let mut offered_packets = 0u64;
    let mut accepted = 0u64;
    // Per-node packet awaiting injection after a refused attempt.
    let mut backlog: Vec<Option<usize>> = vec![None; nodes];
    for _ in 0..load_cycles {
        now += 1;
        for (src, slot) in backlog.iter_mut().enumerate() {
            if slot.is_none() && rng.gen_range(0..1u64 << 32) < threshold {
                offered_packets += 1;
                *slot = Some(pick_dst(&mut rng, src));
            }
            if let Some(dst) = *slot {
                if mesh.inject_at(src, dst, 2, src as u32, now).is_ok() {
                    accepted += 1;
                    *slot = None;
                }
            }
        }
        mesh.tick(now);
        for n in 0..nodes {
            while mesh.eject(n).is_some() {}
        }
    }
    // Drain: deliver everything in flight (plus any refused backlog).
    while backlog.iter().any(Option::is_some) || !mesh.is_idle() {
        now += 1;
        for (src, slot) in backlog.iter_mut().enumerate() {
            if let Some(dst) = *slot {
                if mesh.inject_at(src, dst, 2, src as u32, now).is_ok() {
                    accepted += 1;
                    *slot = None;
                }
            }
        }
        mesh.tick(now);
        for n in 0..nodes {
            while mesh.eject(n).is_some() {}
        }
    }
    let stats = mesh.stats();
    SaturationPoint {
        offered: offered_packets as f64 / (nodes as u64 * load_cycles) as f64,
        accepted: accepted as f64 / (nodes as u64 * load_cycles) as f64,
        delivered: stats.delivered,
        mean_latency: stats.mean_latency(),
        cycles: now,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_reports_positive_cost() {
        let mut acc = 0u64;
        let m = measure(|| {
            acc = acc.wrapping_add(black_box(1));
        });
        assert!(m.iters >= 1);
        assert!(m.ns_per_iter > 0.0);
    }

    #[test]
    fn time_it_is_monotone() {
        let d = time_it(|| std::thread::sleep(Duration::from_millis(2)));
        assert!(d >= Duration::from_millis(2));
    }

    #[test]
    fn saturation_is_deterministic_and_lossless() {
        let a = mesh_saturation(4, 3, TrafficPattern::UniformRandom, 0.1, 500, 7);
        let b = mesh_saturation(4, 3, TrafficPattern::UniformRandom, 0.1, 500, 7);
        assert_eq!(format!("{a:?}"), format!("{b:?}"), "same seed, same curve");
        assert!(a.delivered > 0, "traffic must flow");
        assert!(
            a.accepted <= a.offered + 1e-12,
            "cannot accept unoffered load"
        );
        assert!(a.mean_latency > 0.0);
    }

    #[test]
    fn light_load_is_accepted_in_full() {
        let p = mesh_saturation(4, 3, TrafficPattern::UniformRandom, 0.02, 1000, 1);
        assert!(
            (p.accepted - p.offered).abs() < 1e-12,
            "below saturation every offered packet is accepted (offered {}, accepted {})",
            p.offered,
            p.accepted
        );
    }

    #[test]
    fn hotspot_saturates_before_uniform() {
        // At a rate uniform traffic still sustains, the single hot ejection
        // port becomes the bottleneck: latency must be visibly worse.
        let uni = mesh_saturation(4, 4, TrafficPattern::UniformRandom, 0.2, 800, 3);
        let hot = mesh_saturation(4, 4, TrafficPattern::Hotspot, 0.2, 800, 3);
        assert!(
            hot.mean_latency > uni.mean_latency,
            "hotspot latency {} should exceed uniform {}",
            hot.mean_latency,
            uni.mean_latency
        );
    }
}
