//! Hierarchy sweep: the cache hierarchy's *shape* as a design axis.
//!
//! For each hierarchy shape — the flat Table 2 machine plus clustered
//! machines with a shared L1.5 between the private L1s and the L2 — this
//! tables the BS / BS-S / G-Cache IPC, the G-Cache speedup over flat BS,
//! and the G-Cache L1 and L1.5 miss rates over the Figure 8 benchmark
//! set, together with the G-Cache run's interconnect health (mean NoC
//! packet latency, injection-fail rate, cluster-crossbar port occupancy).
//! It turns ROADMAP's "multi-hierarchy sweeps" bullet into a running
//! experiment: does a shared intermediate level still leave room for
//! adaptive bypass, and how much L1 thrash does it absorb?
//!
//! Clustered shapes are additionally swept over the cluster-crossbar port
//! count (default `1,2`): 1 port is the legacy single-injection-port mesh
//! node, >= 2 models a core<->L1.5 crossbar with that many transfer
//! ports, separating the L1.5 capacity effect from the injection
//! serialization artifact.
//!
//! Run with `cargo run --release -p gcache-bench --bin hierarchy`.
//! `--hierarchy flat,c4,c8:128` overrides the swept shapes,
//! `--cluster-ports 1,2,4` the swept port counts.

use gcache_bench::sweep::{DesignPoint, Sweep};
use gcache_bench::{bench_cli, pct, speedup, Table, SIMULATE};
use gcache_core::policy::gcache::GCacheConfig;
use gcache_sim::config::{Hierarchy, L1PolicyKind};
use gcache_sim::icnt::NocStats;
use gcache_sim::stats::{geomean, SimStats};

/// The three policies the shape comparison runs: baseline LRU, static
/// RRIP, and the paper's G-Cache.
fn policies() -> [L1PolicyKind; 3] {
    [
        L1PolicyKind::Lru,
        L1PolicyKind::Srrip { bits: 3 },
        L1PolicyKind::GCache(GCacheConfig::default()),
    ]
}

/// Section label for one swept configuration: `flat`, `c4/64KB (1-port
/// cluster node)`, `c4/64KB (2-port xbar)`, ...
fn label(h: Hierarchy, ports: usize) -> String {
    match h {
        Hierarchy::Flat => "flat".to_string(),
        Hierarchy::SharedL15 { cluster_size, kb } if ports == 1 => {
            format!("c{cluster_size}/{kb}KB (1-port cluster node)")
        }
        Hierarchy::SharedL15 { cluster_size, kb } => {
            format!("c{cluster_size}/{kb}KB ({ports}-port xbar)")
        }
    }
}

/// Both mesh networks of a run as one.
fn noc(s: &SimStats) -> NocStats {
    let mut noc = s.noc_req;
    noc.merge(&s.noc_resp);
    noc
}

fn main() {
    let takes = [SIMULATE, &["--hierarchy", "--cluster-ports"]].concat();
    let sweep = Sweep::new(bench_cli("hierarchy", &takes));
    let c = |cluster_size| Hierarchy::SharedL15 {
        cluster_size,
        kb: 64,
    };
    let combos = sweep.cli.shapes(&[Hierarchy::Flat, c(4), c(8)], &[1, 2]);

    // Per benchmark: configuration-major, then policy — so the flat/BS
    // baseline of a benchmark is the first run of its chunk.
    let all = sweep.grid("shapes", None, |b| {
        combos.iter().flat_map(move |&(hierarchy, cluster_ports)| {
            policies().map(|policy| DesignPoint {
                hierarchy,
                cluster_ports,
                ..DesignPoint::flat(b, policy)
            })
        })
    });

    for (ci, &(shape, nports)) in combos.iter().enumerate() {
        let mut table = Table::new(&[
            "Bench",
            "BS IPC",
            "BS-S IPC",
            "GC IPC",
            "GC vs flat BS",
            "GC L1 miss",
            "GC L1.5 miss",
            "GC NoC lat",
            "GC NoC fail",
            "GC xbar occ",
        ]);
        let mut gc_speedups = Vec::new();
        for (b, chunk) in sweep.benches.iter().zip(&all) {
            let flat_bs = &chunk[0];
            let runs = &chunk[ci * policies().len()..(ci + 1) * policies().len()];
            let (bs, bss, gc) = (&runs[0], &runs[1], &runs[2]);
            let net = noc(gc);
            let s = gc.speedup_over(flat_bs);
            gc_speedups.push(s);
            table.row(vec![
                b.info().name.to_string(),
                format!("{:.3}", bs.ipc()),
                format!("{:.3}", bss.ipc()),
                format!("{:.3}", gc.ipc()),
                speedup(s),
                pct(gc.l1_miss_rate()),
                if shape == Hierarchy::Flat {
                    "-".to_string()
                } else {
                    pct(gc.l15_miss_rate())
                },
                format!("{:.1}", net.mean_latency()),
                pct(net.inject_fail_rate()),
                if gc.xbar_ports == 0 {
                    "-".to_string()
                } else {
                    pct(gc.xbar_occupancy())
                },
            ]);
        }
        table.row(vec![
            "GM (all)".to_string(),
            String::new(),
            String::new(),
            String::new(),
            speedup(geomean(gc_speedups.iter().copied())),
            String::new(),
            String::new(),
            String::new(),
            String::new(),
            String::new(),
        ]);
        println!(
            "## Hierarchy {}: BS / BS-S / GC over the Figure 8 set\n",
            label(shape, nports)
        );
        println!("{}", table.render());
    }

    sweep.finish(None);
}
