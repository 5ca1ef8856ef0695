//! Per-layer drivers: each calls one layer's public functions directly,
//! replaying the workload's own traffic — the op stream of its first
//! kernel, then each stage's output feeding the next (ops → coalesced
//! lines → L1 misses → L2 misses) — so a layer's cost is measured on the
//! addresses it actually sees, outside the cycle loop.

use crate::metrics::Values;
use crate::span::Tracer;
use gcache_core::addr::{Addr, CoreId, LineAddr, PartitionId};
use gcache_core::cache::{Cache, CacheConfig};
use gcache_core::controller::{AtomicHandling, CacheController, ControllerOutcome, FillParams};
use gcache_core::geometry::CacheGeometry;
use gcache_core::policy::lru::Lru;
use gcache_core::policy::{AccessKind, PolicyKind};
use gcache_core::rng::SmallRng;
use gcache_core::tag_array::TagArray;
use gcache_sim::clocked::Clocked;
use gcache_sim::coalescer::coalesce_into;
use gcache_sim::config::{make_l1_policy, GpuConfig, L1PolicyKind};
use gcache_sim::core::SimtCore;
use gcache_sim::dram::{Dram, DramStats};
use gcache_sim::icnt::Mesh;
use gcache_sim::isa::{Kernel, Op, WarpProgram};
use gcache_sim::partition::Partition;
use gcache_sim::port::{RxPort, TxPort};
use gcache_sim::request::{partition_local_line, partition_of, MemRequest, MemResponse};
use gcache_sim::stats::SimStats;
use gcache_sim::system::Interconnect;
use std::hint::black_box;
use std::time::Instant;

/// Memory ops captured for replay; bounds the transient lane-address
/// buffer to 32 MB.
const CAPTURE_OPS: usize = 65_536;
/// Warps interleaved round-robin while capturing — one core's residency.
const CAPTURE_WARPS: usize = 32;
/// Times each timed replay runs (on fresh state); the median is reported.
const REPLAYS: usize = 3;
/// Cycles the mesh driver runs.
const MESH_CYCLES: u64 = 100_000;

/// One global-memory op of the captured stream.
struct MemOp {
    kind: AccessKind,
    lanes: Box<[Option<Addr>]>,
}

/// A line-granular access: the currency between cache levels.
type Access = (LineAddr, AccessKind);

fn median_ns(mut f: impl FnMut() -> f64) -> f64 {
    let samples: Vec<f64> = (0..REPLAYS).map(|_| f()).collect();
    crate::stats::median(&samples)
}

fn per(ns: f64, n: usize) -> f64 {
    if n == 0 {
        0.0
    } else {
        ns / n as f64
    }
}

/// `Kernel::warp_program` → `next_op` over every warp of the grid:
/// `(ns per op, ops)`.
fn generate(kernel: &dyn Kernel) -> (f64, u64) {
    let grid = kernel.grid();
    let t0 = Instant::now();
    let mut ops = 0u64;
    for cta in 0..grid.ctas {
        for warp in 0..grid.warps_per_cta(32) {
            let mut program = kernel.warp_program(cta, warp);
            while let Some(op) = program.next_op() {
                black_box(&op);
                ops += 1;
            }
        }
    }
    (per(t0.elapsed().as_nanos() as f64, ops as usize), ops)
}

/// The first [`CAPTURE_OPS`] memory ops of the kernel in the order one
/// core would roughly see them: warps in groups of [`CAPTURE_WARPS`],
/// one op each in turn.
fn capture(kernel: &dyn Kernel) -> Vec<MemOp> {
    let grid = kernel.grid();
    let wpc = grid.warps_per_cta(32);
    let mut out = Vec::new();
    let mut next_warp = 0;
    while out.len() < CAPTURE_OPS && next_warp < grid.ctas * wpc {
        let mut group: Vec<Box<dyn WarpProgram>> = (next_warp
            ..(next_warp + CAPTURE_WARPS).min(grid.ctas * wpc))
            .map(|w| kernel.warp_program(w / wpc, w % wpc))
            .collect();
        next_warp += CAPTURE_WARPS;
        while !group.is_empty() && out.len() < CAPTURE_OPS {
            group.retain_mut(|program| match program.next_op() {
                Some(Op::Load { addrs }) => {
                    out.push(MemOp {
                        kind: AccessKind::Read,
                        lanes: addrs,
                    });
                    true
                }
                Some(Op::Store { addrs }) => {
                    out.push(MemOp {
                        kind: AccessKind::Write,
                        lanes: addrs,
                    });
                    true
                }
                Some(Op::Atomic { addrs }) => {
                    out.push(MemOp {
                        kind: AccessKind::Atomic,
                        lanes: addrs,
                    });
                    true
                }
                Some(_) => true,
                None => false,
            });
        }
    }
    out
}

/// `coalesce_into` over the captured ops: `(ns per op, line stream)`.
fn coalesce(ops: &[MemOp], line_size: u32) -> (f64, Vec<Access>) {
    let mut lines = Vec::new();
    let mut scratch = Vec::with_capacity(32);
    let ns = median_ns(|| {
        lines.clear();
        let t0 = Instant::now();
        for op in ops {
            coalesce_into(black_box(&op.lanes), line_size, &mut scratch);
            lines.extend(scratch.iter().map(|&l| (l, op.kind)));
        }
        t0.elapsed().as_nanos() as f64
    });
    (per(ns, ops.len()), lines)
}

/// `TagArray::probe`, filling round-robin on a miss: ns per probe.
fn tag_probes(geom: CacheGeometry, lines: &[Access]) -> f64 {
    let ns = median_ns(|| {
        let mut tags = TagArray::new(geom);
        let t0 = Instant::now();
        for (i, &(line, _)) in lines.iter().enumerate() {
            if black_box(tags.probe(line)).is_none() {
                tags.fill(geom.set_of(line), i % geom.ways() as usize, line, false);
            }
        }
        t0.elapsed().as_nanos() as f64
    });
    per(ns, lines.len())
}

/// What one cache level did with a line stream.
struct Replay {
    ns_per_access: f64,
    miss_rate: f64,
    /// What the level sent downstream: primary misses, forwarded stores
    /// and atomics, dirty write-backs.
    downstream: Vec<Access>,
}

/// `CacheController::access` + `fill_with` against a zero-latency next
/// level (every primary miss fills at once).
fn replay_cache(
    cfg: CacheConfig,
    policy: impl Fn() -> PolicyKind,
    atomics: AtomicHandling,
    lines: &[Access],
) -> Replay {
    let mut downstream = Vec::new();
    let mut miss_rate = 0.0;
    let ns = median_ns(|| {
        let mut ctrl: CacheController<u32> =
            CacheController::new(Cache::new(cfg, policy()), 32, 8, atomics);
        let mut woken = Vec::new();
        downstream.clear();
        let t0 = Instant::now();
        for &(line, kind) in lines {
            match ctrl.access(line, kind, CoreId(0), 0) {
                ControllerOutcome::MissPrimary => {
                    let fill = ctrl.fill_with(line, &mut woken, |_| FillParams {
                        core: CoreId(0),
                        victim_hint: false,
                        dirty: kind == AccessKind::Write,
                        class: None,
                    });
                    downstream.push((line, AccessKind::Read));
                    if let Some(victim) = fill.evicted.filter(|v| v.dirty) {
                        downstream.push((victim.line, AccessKind::Write));
                    }
                }
                ControllerOutcome::Forward => downstream.push((line, kind)),
                _ => {}
            }
        }
        let ns = t0.elapsed().as_nanos() as f64;
        miss_rate = ctrl.stats().miss_rate();
        ns
    });
    Replay {
        ns_per_access: per(ns, lines.len()),
        miss_rate,
        downstream,
    }
}

fn request(line: LineAddr, kind: AccessKind, core: usize) -> MemRequest {
    MemRequest {
        line,
        kind,
        core: CoreId(core),
        warp: 0,
        class: None,
    }
}

/// `Partition::push_request/tick/pop_response`, one request per cycle
/// routed to its owning partition, then drained: ns per request.
fn partitions(cfg: &GpuConfig, requests: &[Access]) -> f64 {
    let ns = median_ns(|| {
        let mut parts: Vec<Partition> = (0..cfg.partitions)
            .map(|p| Partition::new(PartitionId(p), cfg))
            .collect();
        let t0 = Instant::now();
        let mut now = 0;
        let mut sent = 0;
        while sent < requests.len() || parts.iter().any(|p| !p.is_idle()) {
            now += 1;
            if let Some(&(line, kind)) = requests.get(sent) {
                parts[partition_of(line, cfg.partitions).index()].push_request(request(
                    line,
                    kind,
                    sent % cfg.cores,
                ));
                sent += 1;
            }
            for p in &mut parts {
                p.tick(now);
                while black_box(p.pop_response(now)).is_some() {}
            }
        }
        t0.elapsed().as_nanos() as f64
    });
    per(ns, requests.len())
}

/// The L2 banks' miss streams (partition-local lines), from replaying
/// each bank's share of `requests` through a cache of its geometry.
fn l2_miss_streams(cfg: &GpuConfig, requests: &[Access]) -> Vec<Vec<Access>> {
    (0..cfg.partitions)
        .map(|p| {
            let local: Vec<Access> = requests
                .iter()
                .filter(|(line, _)| partition_of(*line, cfg.partitions).index() == p)
                .map(|&(line, kind)| (partition_local_line(line, cfg.partitions), kind))
                .collect();
            replay_cache(
                CacheConfig::l2(cfg.l2_geometry, 0),
                || Lru::new(&cfg.l2_geometry).into(),
                AtomicHandling::Execute,
                &local,
            )
            .downstream
        })
        .collect()
}

/// `Dram::enqueue/tick/pop_completed`, every channel draining its own
/// stream in lockstep: `(ns per request, row-hit rate)`.
fn dram(cfg: &GpuConfig, streams: &[Vec<Access>]) -> (f64, f64) {
    let total: usize = streams.iter().map(Vec::len).sum();
    let mut stats = DramStats::default();
    let ns = median_ns(|| {
        let mut channels: Vec<Dram<u32>> = streams
            .iter()
            .map(|_| {
                Dram::new(
                    cfg.dram_timing,
                    cfg.dram_banks,
                    cfg.dram_row_bytes,
                    cfg.dram_queue,
                    cfg.line_size(),
                )
            })
            .collect();
        let mut sent = vec![0; streams.len()];
        let mut done = 0;
        let mut now = 0;
        let t0 = Instant::now();
        while done < total {
            now += 1;
            for (c, channel) in channels.iter_mut().enumerate() {
                while sent[c] < streams[c].len() && channel.can_accept() {
                    let (line, kind) = streams[c][sent[c]];
                    channel
                        .enqueue(line, kind == AccessKind::Write, 0, now)
                        .expect("gated by can_accept");
                    sent[c] += 1;
                }
                channel.tick(now);
                while channel.pop_completed(now).is_some() {
                    done += 1;
                }
            }
        }
        let ns = t0.elapsed().as_nanos() as f64;
        stats = DramStats::default();
        for channel in &channels {
            stats.merge(channel.stats());
        }
        ns
    });
    (per(ns, total), stats.row_hit_rate())
}

/// What the mesh driver measured.
struct MeshRun {
    ns_per_tick: f64,
    ns_per_flit: f64,
    accept_ratio: f64,
}

/// `Mesh::inject_at/tick/eject` on the request-network footprint at the
/// workload's measured injection rate (packets per core node per cycle)
/// and store share, many-to-few: every core node sends to partition
/// nodes drawn from the seeded RNG.
fn mesh(cfg: &GpuConfig, rate: f64, write_share: f64, seed: u64) -> MeshRun {
    let topo = cfg.topology();
    let threshold = (rate.clamp(0.0, 1.0) * 4_294_967_296.0) as u64;
    let write_threshold = (write_share.clamp(0.0, 1.0) * 4_294_967_296.0) as u64;
    let write_flits = (cfg.line_size() + 8).div_ceil(cfg.channel_bytes);
    let (mut offered, mut accepted, mut flits) = (0u64, 0u64, 0u64);
    let ns = median_ns(|| {
        let mut mesh: Mesh<u32> = Mesh::new(
            cfg.mesh_width,
            cfg.mesh_height,
            cfg.router_queue,
            cfg.hop_latency,
            1,
        );
        let mut rng = SmallRng::seed_from_u64(seed);
        (offered, accepted) = (0, 0);
        let t0 = Instant::now();
        for now in 1..=MESH_CYCLES {
            for &src in &topo.core_nodes {
                if rng.gen_range(0..1 << 32) >= threshold {
                    continue;
                }
                offered += 1;
                let dst = topo.part_nodes[rng.gen_range(0..topo.part_nodes.len() as u64) as usize];
                let size = if rng.gen_range(0..1 << 32) < write_threshold {
                    write_flits
                } else {
                    1
                };
                if mesh.inject_at(src, dst, size, 0, now).is_ok() {
                    accepted += 1;
                }
            }
            mesh.tick(now);
            for &node in &topo.part_nodes {
                while black_box(mesh.eject(node)).is_some() {}
            }
        }
        flits = mesh.stats().flits;
        t0.elapsed().as_nanos() as f64
    });
    MeshRun {
        ns_per_tick: ns / MESH_CYCLES as f64,
        ns_per_flit: per(ns, flits as usize),
        accept_ratio: if offered == 0 {
            1.0
        } else {
            accepted as f64 / offered as f64
        },
    }
}

/// The cluster crossbar through `Interconnect`'s port views: the cores of
/// cluster 0 send `requests` up their lanes, the cluster end echoes a
/// response down for every read. Returns ns per crossbar transfer
/// (grant), 0 when `cfg` has no crossbars.
fn xbar(cfg: &GpuConfig, requests: &[Access]) -> f64 {
    let topo = cfg.topology();
    if !topo.is_clustered() || cfg.cluster_ports < 2 {
        return 0.0;
    }
    let cluster_cores: Vec<usize> = (0..cfg.cores)
        .filter(|&c| topo.cluster_of[c] == 0)
        .collect();
    let mut grants = 0;
    let ns = median_ns(|| {
        let mut icnt = Interconnect::new(cfg, cfg.topology());
        let mut sent = 0;
        let mut now = 0;
        let t0 = Instant::now();
        while sent < requests.len() || !Clocked::is_idle(&icnt) {
            now += 1;
            for &core in &cluster_cores {
                let (mut rx, mut tx) = icnt.core_ports(core);
                while black_box(rx.recv()).is_some() {}
                if let Some(&(line, kind)) = requests.get(sent) {
                    if tx.can_send() {
                        tx.send(request(line, kind, core), now);
                        sent += 1;
                    }
                }
            }
            icnt.tick(now);
            let (mut req_io, mut resp_io) = icnt.cluster_io(0);
            while TxPort::<MemResponse>::can_send(&resp_io) {
                let Some(req) = RxPort::<MemRequest>::recv(&mut req_io) else {
                    break;
                };
                if req.wants_response() {
                    resp_io.send(
                        MemResponse {
                            line: req.line,
                            kind: req.kind,
                            core: req.core,
                            warp: req.warp,
                            victim_hint: false,
                            class: None,
                        },
                        now,
                    );
                }
            }
        }
        grants = icnt.xbar_stats().map_or(0, |s| s.grants);
        t0.elapsed().as_nanos() as f64
    });
    per(ns, grants as usize)
}

/// `SimtCore::launch_cta/tick/on_response` against a zero-latency echo
/// memory, running one core's share of the grid: ns per warp instruction.
fn core(cfg: &GpuConfig, kernel: &dyn Kernel) -> f64 {
    let ctas = kernel.grid().ctas.div_ceil(cfg.cores);
    let mut instructions = 0;
    let ns = median_ns(|| {
        let mut core = SimtCore::new(
            CoreId(0),
            cfg,
            make_l1_policy(&cfg.l1_policy, &cfg.l1_geometry),
        );
        let mut launched = 0;
        let mut now = 0;
        let t0 = Instant::now();
        while launched < ctas || !core.is_idle() {
            while launched < ctas && core.can_launch(kernel) {
                core.launch_cta(kernel, launched);
                launched += 1;
            }
            now += 1;
            if let Some(req) = core.tick(now, true) {
                if req.wants_response() {
                    core.on_response(MemResponse {
                        line: req.line,
                        kind: req.kind,
                        core: req.core,
                        warp: req.warp,
                        victim_hint: false,
                        class: req.class,
                    });
                }
            }
        }
        instructions = core.stats().instructions;
        t0.elapsed().as_nanos() as f64
    });
    per(ns, instructions as usize)
}

/// Runs every driver on `kernel`'s traffic under machine `cfg`, one
/// `driver.<module>` span each, and records the per-layer metrics.
/// `stats` are the kernel's simulated statistics (under `cfg`), which set
/// the mesh driver's injection rate and store share.
pub fn run_all(
    cfg: &GpuConfig,
    kernel: &dyn Kernel,
    stats: &SimStats,
    seed: u64,
    tracer: &mut Tracer,
    values: &mut Values,
) {
    let line_size = cfg.line_size();
    let ops = tracer.span("driver.workloads", |t| {
        let (gen_ns, total_ops) = generate(kernel);
        values.set_exact("workloads.gen_ns_per_op", gen_ns);
        values.set_exact("workloads.ops", total_ops as f64);
        t.count("ops", total_ops as f64);
        let ops = capture(kernel);
        t.count("captured_mem_ops", ops.len() as f64);
        ops
    });
    let lines = tracer.span("driver.coalescer", |t| {
        let (ns, lines) = coalesce(&ops, line_size);
        values.set_exact("coalescer.ns_per_op", ns);
        values.set_exact("coalescer.lines_per_op", per(lines.len() as f64, ops.len()));
        t.count("lines", lines.len() as f64);
        lines
    });
    drop(ops);
    tracer.span("driver.tag_array", |_| {
        values.set_exact(
            "tag_array.ns_per_probe",
            tag_probes(cfg.l1_geometry, &lines),
        );
    });
    let l1_misses = tracer.span("driver.l1", |t| {
        let l1_cfg = CacheConfig::l1(cfg.l1_geometry, cfg.l1_epoch_len)
            .with_bypass(cfg.l1_bypass)
            .with_copy_back(cfg.l1_copy_back);
        let replay = |policy: L1PolicyKind| {
            replay_cache(
                l1_cfg,
                || make_l1_policy(&policy, &cfg.l1_geometry),
                AtomicHandling::Forward,
                &lines,
            )
        };
        let bs = replay(L1PolicyKind::Lru);
        let gc = replay(L1PolicyKind::GCache(Default::default()));
        values.set_exact("l1.ns_per_access.bs", bs.ns_per_access);
        values.set_exact("l1.ns_per_access.gc", gc.ns_per_access);
        values.set_exact("l1.replay_miss_rate", bs.miss_rate);
        t.count("accesses", lines.len() as f64);
        t.count("downstream", bs.downstream.len() as f64);
        bs.downstream
    });
    tracer.span("driver.partition", |t| {
        values.set_exact("partition.ns_per_req", partitions(cfg, &l1_misses));
        t.count("requests", l1_misses.len() as f64);
    });
    tracer.span("driver.dram", |t| {
        let streams = l2_miss_streams(cfg, &l1_misses);
        let (ns, row_hit_rate) = dram(cfg, &streams);
        values.set_exact("dram.ns_per_req", ns);
        values.set_exact("dram.replay_row_hit_rate", row_hit_rate);
        t.count(
            "requests",
            streams.iter().map(Vec::len).sum::<usize>() as f64,
        );
    });
    tracer.span("driver.icnt", |t| {
        let rate = per(
            stats.noc_req.packets as f64,
            stats.cycles as usize * cfg.cores,
        );
        let write_share = per(stats.l1.writes as f64, stats.l1.accesses() as usize);
        let run = mesh(cfg, rate, write_share, seed);
        values.set_exact("icnt.ns_per_tick", run.ns_per_tick);
        values.set_exact("icnt.ns_per_flit", run.ns_per_flit);
        values.set_exact("icnt.accept_ratio", run.accept_ratio);
        t.count("packets_per_node_per_kcycle", rate * 1e3);
    });
    tracer.span("driver.xbar", |_| {
        values.set_exact("xbar.ns_per_transfer", xbar(cfg, &l1_misses));
    });
    tracer.span("driver.core", |_| {
        values.set_exact("core.ns_per_instr", core(cfg, kernel));
    });
}
