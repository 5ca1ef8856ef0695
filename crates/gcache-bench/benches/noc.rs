//! Micro-benchmarks of the 2D-mesh NoC: cycle cost when idle vs
//! saturated, end-to-end drain of an all-to-all burst, a saturation
//! sweep (uniform-random and hotspot traffic at rising injection rates)
//! reporting accepted throughput and mean latency per point, and what a
//! tick and a packet move cost at the load the paper-scale kernels offer.

use gcache_bench::microbench::{bench, black_box, mesh_saturation, TrafficPattern};
use gcache_core::rng::SmallRng;
use gcache_sim::config::GpuConfig;
use gcache_sim::icnt::Mesh;
use std::time::Instant;

fn drain_all_to_all(width: usize, height: usize, per_node: usize) -> u64 {
    let mut mesh: Mesh<u32> = Mesh::new(width, height, 8, 2, 1);
    let nodes = width * height;
    let mut pending: Vec<(usize, usize, u32)> = Vec::new();
    for src in 0..nodes {
        for i in 0..per_node {
            pending.push((src, (src + 1 + i) % nodes, (src * per_node + i) as u32));
        }
    }
    let total = pending.len();
    let mut delivered = 0usize;
    let mut now = 0u64;
    while delivered < total {
        now += 1;
        pending.retain(|&(src, dst, p)| mesh.inject_at(src, dst, 5, p, now).is_err());
        mesh.tick(now);
        for n in 0..nodes {
            while mesh.eject(n).is_some() {
                delivered += 1;
            }
        }
    }
    now
}

/// One gated Table 2 mesh, ticked every cycle like the run loop's
/// no-jump stretches, carrying `rate` packets of `flits` flits per cycle
/// from random `srcs` to random `dsts` — the traffic shape and rate
/// measured on the request and response networks of the paper-scale
/// kernels. Prints the median of five timed runs as ns per tick and ns
/// per packet move (every hop and every delivery), timer included.
fn paper_load(name: &str, cfg: &GpuConfig, srcs: &[usize], dsts: &[usize], rate: f64, flits: u32) {
    const CYCLES: u64 = 100_000;
    let threshold = (rate * 4_294_967_296.0) as u64;
    let mut runs: Vec<(f64, f64)> = (0..6)
        .map(|_| {
            let mut mesh: Mesh<u32> = Mesh::new(
                cfg.mesh_width,
                cfg.mesh_height,
                cfg.router_queue,
                cfg.hop_latency,
                1,
            );
            mesh.set_event_gating(true);
            let mut rng = SmallRng::seed_from_u64(42);
            let mut moves = 0u64;
            let t0 = Instant::now();
            for now in 1..=CYCLES {
                if rng.gen_range(0..1 << 32) < threshold {
                    let src = srcs[rng.gen_range(0..srcs.len() as u64) as usize];
                    let dst = dsts[rng.gen_range(0..dsts.len() as u64) as usize];
                    if mesh.inject_at(src, dst, flits, 0, now).is_ok() {
                        // XY routing: one hop per step of Manhattan
                        // distance, then the delivery.
                        let w = cfg.mesh_width;
                        let hops = (src % w).abs_diff(dst % w) + (src / w).abs_diff(dst / w);
                        moves += hops as u64 + 1;
                    }
                }
                mesh.tick(black_box(now));
                for &node in dsts {
                    while black_box(mesh.eject(node)).is_some() {}
                }
            }
            let ns = t0.elapsed().as_nanos() as f64;
            (ns / CYCLES as f64, ns / moves as f64)
        })
        .skip(1) // warm-up
        .collect();
    runs.sort_by(|a, b| a.0.total_cmp(&b.0));
    let (per_tick, per_move) = runs[runs.len() / 2];
    println!("{name:<40} {per_tick:>14.1} ns/tick  {per_move:>8.1} ns/move");
}

fn main() {
    let mut mesh: Mesh<u32> = Mesh::new(6, 4, 8, 2, 1);
    let mut now = 0;
    bench("noc/idle_tick_6x4", || {
        now += 1;
        mesh.tick(black_box(now));
    });
    bench("noc/all_to_all_6x4_x8", || {
        black_box(drain_all_to_all(6, 4, 8));
    });

    // Saturation sweep on the Table 2 request-network footprint (6x4):
    // wall-clock per point via bench(), then the measured curve itself.
    let patterns = [
        (TrafficPattern::UniformRandom, "uniform"),
        (TrafficPattern::Hotspot, "hotspot"),
    ];
    let rates = [0.05, 0.10, 0.20, 0.40];
    for (pattern, pname) in patterns {
        for rate in rates {
            let name = format!("noc/saturation_{pname}_{rate:.2}");
            bench(&name, || {
                black_box(mesh_saturation(6, 4, pattern, rate, 2_000, 42));
            });
            let p = mesh_saturation(6, 4, pattern, rate, 2_000, 42);
            println!(
                "{:<40} offered {:.3} accepted {:.3} mean-lat {:>6.1} cyc ({} pkts)",
                format!("  {pname} @ {rate:.2}/node/cyc"),
                p.offered,
                p.accepted,
                p.mean_latency,
                p.delivered
            );
        }
    }

    let cfg = GpuConfig::fermi().expect("the Table 2 machine");
    let topo = cfg.topology();
    let (cores, parts) = (&topo.core_nodes, &topo.part_nodes);
    paper_load("noc/paper_load_request", &cfg, cores, parts, 0.9, 1);
    paper_load("noc/paper_load_response", &cfg, parts, cores, 0.85, 5);
}
