//! The componentized GPU system: node placement as data
//! ([`Topology`]), the dual-mesh interconnect with typed port views
//! ([`Interconnect`]), the SIMT core array ([`CoreComplex`]) and the
//! memory-partition array ([`MemorySystem`]).
//!
//! [`crate::gpu::Gpu`] is only a driver over these components: it ticks
//! them in pipeline order (cores → interconnect → memory) and watches for
//! progress. Components talk exclusively through [`TxPort`]/[`RxPort`]
//! views handed out by the interconnect, so an alternative hierarchy (more
//! levels, different placement, a shared L1.5) is a new wiring, not a new
//! cycle loop.

use crate::clocked::{min_event, Clocked, ClockedWith};
use crate::config::GpuConfig;
use crate::core::SimtCore;
use crate::icnt::{Mesh, NocStats};
use crate::isa::Kernel;
use crate::l15::L15Cluster;
use crate::partition::Partition;
use crate::port::{RxPort, TxPort};
use crate::request::{partition_of, MemRequest, MemResponse};
use crate::xbar::{ClusterXbar, XbarLane, XbarStats};
use gcache_core::addr::{CoreId, PartitionId};
use gcache_core::snapshot::{Snapshot, SnapshotError, SnapshotReader, SnapshotWriter};
use gcache_core::victim_bits::CoreGrouping;

/// Node placement of cores, partitions and (optionally) cluster caches on
/// the mesh — the topology as data, built by [`GpuConfig::topology`].
/// Components index through it instead of hard-coding a placement rule.
#[derive(Clone, Debug)]
pub struct Topology {
    /// Mesh width in nodes.
    pub mesh_width: usize,
    /// Mesh height in nodes.
    pub mesh_height: usize,
    /// Mesh node of each core, indexed by core id.
    pub core_nodes: Vec<usize>,
    /// Mesh node of each memory partition, indexed by partition id.
    pub part_nodes: Vec<usize>,
    /// Cluster of each core, indexed by core id. Total: defined for every
    /// core even on a flat machine (where it is the identity and no
    /// cluster nodes exist).
    pub cluster_of: Vec<usize>,
    /// Mesh node of each cluster's shared L1.5; empty = flat wiring (cores
    /// talk straight to the partitions).
    pub cluster_nodes: Vec<usize>,
}

impl Topology {
    /// Total mesh nodes.
    pub fn nodes(&self) -> usize {
        self.mesh_width * self.mesh_height
    }

    /// Number of cluster caches (0 = flat).
    pub fn clusters(&self) -> usize {
        self.cluster_nodes.len()
    }

    /// Whether core traffic routes through cluster nodes.
    pub fn is_clustered(&self) -> bool {
        !self.cluster_nodes.is_empty()
    }

    /// The victim-bit core→group map this topology induces for sharing
    /// factor `share` (§4.3): on a clustered machine with `share` ≥ the
    /// cluster size, whole clusters share a bit — the map goes through
    /// `cluster_of`, not through core-index arithmetic, so it stays
    /// correct under any cluster placement. A `share` below the cluster
    /// size subdivides each cluster modularly (the two must nest, see
    /// [`GpuConfig::validate`]), and a flat machine uses the paper's plain
    /// modular grouping.
    pub fn victim_grouping(&self, share: usize) -> CoreGrouping {
        let cores = self.core_nodes.len();
        if !self.is_clustered() {
            return CoreGrouping::modular(cores, share);
        }
        let cluster_size = cores / self.clusters();
        if share >= cluster_size {
            let clusters_per_group = share / cluster_size;
            CoreGrouping::from_map(
                self.cluster_of
                    .iter()
                    .map(|&c| c / clusters_per_group)
                    .collect(),
            )
        } else {
            CoreGrouping::modular(cores, share)
        }
    }
}

/// The request/response mesh pair plus everything needed to address and
/// serialise packets: the [`Topology`], the channel geometry and (with
/// `cluster_ports ≥ 2`) the per-cluster core↔L1.5 crossbars.
#[derive(Debug)]
pub struct Interconnect {
    topo: Topology,
    req: Mesh<MemRequest>,
    resp: Mesh<MemResponse>,
    /// One crossbar per cluster when `cluster_ports ≥ 2`; empty otherwise
    /// (flat machine, or the legacy 1-port wiring through the cluster's
    /// mesh node). When present, core↔L1.5 traffic moves over these lanes
    /// and only L1.5↔partition traffic rides the meshes.
    xbars: Vec<ClusterXbar>,
    /// Cores per cluster (0 when not clustered) — cores of a cluster are
    /// contiguous (see [`GpuConfig::topology`]), so a core's crossbar lane
    /// slot is `core % cluster_size`.
    cluster_size: usize,
    /// Per-lane transfer ports of each crossbar.
    cluster_ports: usize,
    line_size: u32,
    channel_bytes: u32,
    partitions: usize,
}

impl Interconnect {
    /// Builds the two meshes described by `cfg`, placed per `topo`, plus
    /// the per-cluster crossbars when `cfg.cluster_ports ≥ 2` asks for the
    /// modeled core↔L1.5 link.
    pub fn new(cfg: &GpuConfig, topo: Topology) -> Self {
        let mut req = Mesh::new(
            cfg.mesh_width,
            cfg.mesh_height,
            cfg.router_queue,
            cfg.hop_latency,
            1,
        );
        let mut resp = Mesh::new(
            cfg.mesh_width,
            cfg.mesh_height,
            cfg.router_queue,
            cfg.hop_latency,
            1,
        );
        req.set_event_gating(cfg.fast_forward);
        resp.set_event_gating(cfg.fast_forward);
        let cluster_size = if topo.is_clustered() {
            topo.core_nodes.len() / topo.clusters()
        } else {
            0
        };
        let xbars = if topo.is_clustered() && cfg.cluster_ports >= 2 {
            (0..topo.clusters())
                .map(|_| {
                    ClusterXbar::new(
                        cluster_size,
                        cfg.cluster_ports,
                        cfg.router_queue,
                        cfg.hop_latency,
                    )
                })
                .collect()
        } else {
            Vec::new()
        };
        Interconnect {
            topo,
            req,
            resp,
            xbars,
            cluster_size,
            cluster_ports: cfg.cluster_ports,
            line_size: cfg.line_size(),
            channel_bytes: cfg.channel_bytes,
            partitions: cfg.partitions,
        }
    }

    /// The node placement.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Request-mesh statistics.
    pub fn req_stats(&self) -> &NocStats {
        self.req.stats()
    }

    /// Response-mesh statistics.
    pub fn resp_stats(&self) -> &NocStats {
        self.resp.stats()
    }

    /// Combined statistics of all cluster crossbars, `None` when the
    /// machine runs the legacy 1-port (or flat) wiring.
    pub fn xbar_stats(&self) -> Option<XbarStats> {
        if self.xbars.is_empty() {
            return None;
        }
        let mut total = XbarStats::default();
        for xb in &self.xbars {
            total.merge(&xb.stats());
        }
        Some(total)
    }

    /// Total transfer ports across all crossbar lanes (both directions) —
    /// the denominator for a port-occupancy reading; 0 without crossbars.
    pub fn xbar_ports_total(&self) -> usize {
        self.xbars.len() * self.cluster_ports * 2
    }

    /// Gauge: packets currently inside either mesh or any cluster
    /// crossbar (telemetry).
    pub fn in_flight(&self) -> usize {
        self.req.in_flight()
            + self.resp.in_flight()
            + self.xbars.iter().map(ClusterXbar::in_flight).sum::<usize>()
    }

    /// Gauge: the deepest per-router injection queue across both meshes
    /// right now (telemetry congestion reading).
    pub fn max_queue_depth(&self) -> u32 {
        self.req.max_local_queue().max(self.resp.max_local_queue())
    }

    /// The port pair a core sees: responses in, requests out. On a
    /// clustered topology the request view routes to the core's cluster
    /// node instead of straight to the owning partition — and with
    /// crossbars active, both views sit on the core's crossbar lanes
    /// instead of the meshes. The wiring changes, the core does not.
    pub fn core_ports(&mut self, core: usize) -> (CoreRx<'_>, ReqTx<'_>) {
        let Interconnect {
            topo,
            req,
            resp,
            xbars,
            cluster_size,
            line_size,
            channel_bytes,
            partitions,
            ..
        } = self;
        let node = topo.core_nodes[core];
        let via = topo
            .is_clustered()
            .then(|| topo.cluster_nodes[topo.cluster_of[core]]);
        let (rx_lane, tx_lane) = match xbars.get_mut(topo.cluster_of[core]) {
            Some(xb) => {
                let slot = core % *cluster_size;
                (Some((&mut xb.down, slot)), Some((&mut xb.up, slot)))
            }
            None => (None, None),
        };
        (
            CoreRx {
                mesh: resp,
                node,
                xbar: rx_lane,
            },
            ReqTx {
                mesh: req,
                topo,
                src: node,
                via,
                xbar: tx_lane,
                line_size: *line_size,
                channel_bytes: *channel_bytes,
                partitions: *partitions,
            },
        )
    }

    /// Whether core `core`'s local request port currently has room — the
    /// read-only flavour of its `ReqTx::can_send` view, used by the
    /// fast-forward probes. The answer is stable across event-free
    /// cycles: the queue (mesh injection queue, or crossbar up-lane
    /// source queue) drains only through interconnect movement and fills
    /// only through the owning core's own injections.
    pub fn can_inject_core(&self, core: usize) -> bool {
        match self.xbars.get(self.topo.cluster_of[core]) {
            Some(xb) => xb.up.can_accept(core % self.cluster_size),
            None => self.req.can_inject(self.topo.core_nodes[core]),
        }
    }

    /// Whether a response awaits ejection at core `core`'s port — the
    /// "external input" test of the gated core loop, answerable without
    /// borrowing the port pair.
    pub fn resp_pending_core(&self, core: usize) -> bool {
        match self.xbars.get(self.topo.cluster_of[core]) {
            Some(xb) => xb.down.has_delivered(core % self.cluster_size),
            None => self.resp.has_delivered(self.topo.core_nodes[core]),
        }
    }

    /// Whether a request awaits ejection at partition `part`'s port.
    pub fn req_pending_part(&self, part: usize) -> bool {
        self.req.has_delivered(self.topo.part_nodes[part])
    }

    /// Whether a request awaits ejection at cluster `cluster`'s L1.5 —
    /// from its crossbar up lane when active, else from its mesh node.
    pub fn req_pending_cluster(&self, cluster: usize) -> bool {
        match self.xbars.get(cluster) {
            Some(xb) => xb.up.has_delivered(0),
            None => self.req.has_delivered(self.topo.cluster_nodes[cluster]),
        }
    }

    /// Whether a response awaits ejection at cluster `cluster`'s node.
    pub fn resp_pending_cluster(&self, cluster: usize) -> bool {
        self.resp.has_delivered(self.topo.cluster_nodes[cluster])
    }

    /// The port pair a partition sees: requests in, responses out. On a
    /// clustered topology the response view routes back to the requesting
    /// core's cluster node (the L1.5 fills and re-distributes).
    pub fn partition_ports(&mut self, part: usize) -> (MeshRx<'_, MemRequest>, RespTx<'_>) {
        let Interconnect {
            topo,
            req,
            resp,
            line_size,
            channel_bytes,
            ..
        } = self;
        let node = topo.part_nodes[part];
        let to_clusters = topo.is_clustered();
        (
            MeshRx { mesh: req, node },
            RespTx {
                mesh: resp,
                topo,
                src: node,
                to_clusters,
                line_size: *line_size,
                channel_bytes: *channel_bytes,
            },
        )
    }

    /// The combined port views a cluster's shared L1.5 sees: on the
    /// request side it ejects its cores' requests (crossbar up lane when
    /// active, else its mesh node) and injects misses towards the owning
    /// partitions (always over the mesh); on the response side it ejects
    /// partition responses (always the mesh) and injects per-core
    /// responses (crossbar down lane when active, else the mesh).
    pub fn cluster_io(&mut self, cluster: usize) -> (ClusterReqIo<'_>, ClusterRespIo<'_>) {
        let Interconnect {
            topo,
            req,
            resp,
            xbars,
            cluster_size,
            line_size,
            channel_bytes,
            partitions,
            ..
        } = self;
        let topo = &*topo;
        let node = topo.cluster_nodes[cluster];
        let (xbar_up, xbar_down) = match xbars.get_mut(cluster) {
            Some(xb) => (Some(&mut xb.up), Some(&mut xb.down)),
            None => (None, None),
        };
        (
            ClusterReqIo {
                mesh: req,
                topo,
                node,
                xbar_up,
                line_size: *line_size,
                channel_bytes: *channel_bytes,
                partitions: *partitions,
            },
            ClusterRespIo {
                mesh: resp,
                topo,
                node,
                xbar_down,
                cluster_size: *cluster_size,
                line_size: *line_size,
                channel_bytes: *channel_bytes,
            },
        )
    }
}

impl Snapshot for Interconnect {
    /// Saves both meshes and the cluster crossbars; the topology and
    /// channel geometry are construction-time configuration.
    fn save(&self, w: &mut SnapshotWriter) {
        w.section("icnt", |w| {
            self.req.save(w);
            self.resp.save(w);
            w.save_all(&self.xbars);
        });
    }

    fn restore(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        r.section("icnt", |r| {
            self.req.restore(r)?;
            self.resp.restore(r)?;
            r.restore_all(&mut self.xbars, "cluster crossbars")
        })
    }
}

impl Clocked for Interconnect {
    fn tick(&mut self, now: u64) {
        self.req.tick(now);
        self.resp.tick(now);
        for xb in &mut self.xbars {
            xb.tick(now);
        }
    }

    fn is_idle(&self) -> bool {
        self.req.is_idle() && self.resp.is_idle() && self.xbars.iter().all(ClusterXbar::is_idle)
    }

    fn next_event(&self, now: u64) -> Option<u64> {
        // Route through the `Clocked` impls: under event gating they are
        // O(1) reads of the maintained wake words, and they equal the
        // full scans (the wake words are exact minima, with the same
        // `now + 1` clamping).
        let mut ev = min_event(
            Clocked::next_event(&self.req, now),
            Clocked::next_event(&self.resp, now),
        );
        for xb in &self.xbars {
            if ev == Some(now + 1) {
                break;
            }
            ev = min_event(ev, xb.next_event(now));
        }
        ev
    }
}

/// Receiving port view: delivered packets at one mesh node.
#[derive(Debug)]
pub struct MeshRx<'a, M> {
    mesh: &'a mut Mesh<M>,
    node: usize,
}

impl<M> RxPort<M> for MeshRx<'_, M> {
    fn recv(&mut self) -> Option<M> {
        self.mesh.eject(self.node)
    }
}

/// A core's receiving port view: responses delivered at its mesh node —
/// or, with cluster crossbars active, at its slot of the cluster's
/// down lane (the mesh then never carries responses to core nodes).
#[derive(Debug)]
pub struct CoreRx<'a> {
    mesh: &'a mut Mesh<MemResponse>,
    node: usize,
    xbar: Option<(&'a mut XbarLane<MemResponse>, usize)>,
}

impl RxPort<MemResponse> for CoreRx<'_> {
    fn recv(&mut self) -> Option<MemResponse> {
        match &mut self.xbar {
            Some((lane, slot)) => lane.eject(*slot),
            None => self.mesh.eject(self.node),
        }
    }
}

/// Sending port view onto the request mesh: routes each request to the
/// node of the partition owning its line — or, when the source core hangs
/// off a cluster cache, to that cluster's node (`via`) — and serialises it
/// into channel-width flits. With cluster crossbars active the request
/// instead enters the core's slot of its cluster's up lane.
#[derive(Debug)]
pub struct ReqTx<'a> {
    mesh: &'a mut Mesh<MemRequest>,
    topo: &'a Topology,
    src: usize,
    via: Option<usize>,
    xbar: Option<(&'a mut XbarLane<MemRequest>, usize)>,
    line_size: u32,
    channel_bytes: u32,
    partitions: usize,
}

impl TxPort<MemRequest> for ReqTx<'_> {
    fn can_send(&self) -> bool {
        match &self.xbar {
            Some((lane, slot)) => lane.can_accept(*slot),
            None => self.mesh.can_inject(self.src),
        }
    }

    fn send(&mut self, msg: MemRequest, now: u64) {
        let flits = msg
            .packet_bytes(self.line_size)
            .div_ceil(self.channel_bytes);
        if let Some((lane, slot)) = &mut self.xbar {
            let ok = lane.push(*slot, 0, flits, msg, now);
            assert!(ok, "injection gated by can_send");
            return;
        }
        let dst = match self.via {
            Some(node) => node,
            None => self.topo.part_nodes[partition_of(msg.line, self.partitions).index()],
        };
        self.mesh
            .inject_at(self.src, dst, flits, msg, now)
            .expect("injection gated by can_send");
    }
}

/// Sending port view onto the response mesh: routes each response to the
/// node of its destination core — or, on a clustered topology, to that
/// core's cluster node, where the L1.5 fills and re-distributes.
#[derive(Debug)]
pub struct RespTx<'a> {
    mesh: &'a mut Mesh<MemResponse>,
    topo: &'a Topology,
    src: usize,
    to_clusters: bool,
    line_size: u32,
    channel_bytes: u32,
}

impl TxPort<MemResponse> for RespTx<'_> {
    fn can_send(&self) -> bool {
        self.mesh.can_inject(self.src)
    }

    fn send(&mut self, msg: MemResponse, now: u64) {
        let core = msg.core.index();
        let dst = if self.to_clusters {
            self.topo.cluster_nodes[self.topo.cluster_of[core]]
        } else {
            self.topo.core_nodes[core]
        };
        let flits = msg
            .packet_bytes(self.line_size)
            .div_ceil(self.channel_bytes);
        self.mesh
            .inject_at(self.src, dst, flits, msg, now)
            .expect("injection gated by can_send");
    }
}

/// A cluster cache's combined request-side view: requests from its cores
/// eject here ([`RxPort`] — the crossbar up lane when active, else the
/// cluster's mesh node), and misses inject towards the partition owning
/// each line ([`TxPort`] — always over the mesh).
#[derive(Debug)]
pub struct ClusterReqIo<'a> {
    mesh: &'a mut Mesh<MemRequest>,
    topo: &'a Topology,
    node: usize,
    xbar_up: Option<&'a mut XbarLane<MemRequest>>,
    line_size: u32,
    channel_bytes: u32,
    partitions: usize,
}

impl RxPort<MemRequest> for ClusterReqIo<'_> {
    fn recv(&mut self) -> Option<MemRequest> {
        match &mut self.xbar_up {
            Some(lane) => lane.eject(0),
            None => self.mesh.eject(self.node),
        }
    }
}

impl TxPort<MemRequest> for ClusterReqIo<'_> {
    fn can_send(&self) -> bool {
        self.mesh.can_inject(self.node)
    }

    fn send(&mut self, msg: MemRequest, now: u64) {
        let dst = self.topo.part_nodes[partition_of(msg.line, self.partitions).index()];
        let flits = msg
            .packet_bytes(self.line_size)
            .div_ceil(self.channel_bytes);
        self.mesh
            .inject_at(self.node, dst, flits, msg, now)
            .expect("injection gated by can_send");
    }
}

/// A cluster cache's combined response-side view: partition responses
/// eject here ([`RxPort`] — always the mesh), and per-core responses
/// inject towards each destination core ([`TxPort`] — the crossbar down
/// lane when active, else the mesh).
#[derive(Debug)]
pub struct ClusterRespIo<'a> {
    mesh: &'a mut Mesh<MemResponse>,
    topo: &'a Topology,
    node: usize,
    xbar_down: Option<&'a mut XbarLane<MemResponse>>,
    cluster_size: usize,
    line_size: u32,
    channel_bytes: u32,
}

impl RxPort<MemResponse> for ClusterRespIo<'_> {
    fn recv(&mut self) -> Option<MemResponse> {
        self.mesh.eject(self.node)
    }
}

impl TxPort<MemResponse> for ClusterRespIo<'_> {
    fn can_send(&self) -> bool {
        match &self.xbar_down {
            Some(lane) => lane.can_accept(0),
            None => self.mesh.can_inject(self.node),
        }
    }

    fn send(&mut self, msg: MemResponse, now: u64) {
        let flits = msg
            .packet_bytes(self.line_size)
            .div_ceil(self.channel_bytes);
        if let Some(lane) = &mut self.xbar_down {
            let slot = msg.core.index() % self.cluster_size;
            let ok = lane.push(0, slot, flits, msg, now);
            assert!(ok, "injection gated by can_send");
            return;
        }
        let dst = self.topo.core_nodes[msg.core.index()];
        self.mesh
            .inject_at(self.node, dst, flits, msg, now)
            .expect("injection gated by can_send");
    }
}

/// The SIMT core array plus the CTA dispatcher.
#[derive(Debug)]
pub struct CoreComplex {
    cores: Vec<SimtCore>,
    next_cta: usize,
    total_ctas: usize,
    rr_core: usize,
    /// Per-core event gating (the fast-forward flag of the config): a core
    /// whose cached wake-up cycle lies in the future is not ticked — its
    /// per-cycle stall accounting is replayed by [`SimtCore::skip`]
    /// instead, which is cycle-for-cycle identical and much cheaper than
    /// scanning 48 warp slots.
    ff: bool,
    /// Per-core lower bound on the next cycle the core can make progress
    /// without external input (`u64::MAX` = only external input wakes it).
    /// Refreshed after every real tick; reset on CTA launch.
    wake: Vec<u64>,
    /// Whether the core's LD/ST head is parked purely on network
    /// backpressure — the live `can_inject` state overrides `wake` then.
    wake_on_inject: Vec<bool>,
    /// Whether the core has any LD/ST transaction queued. When it does
    /// not, skipped cycles need no `can_inject` answer (the stall
    /// accounting never consults it), so the gated loop avoids probing
    /// the request mesh.
    has_head: Vec<bool>,
    /// `ctas_completed` sum at the last dispatch scan: CTA capacity can
    /// only grow when this advances, so the scan is elided otherwise.
    last_ctas_completed: u64,
    /// Core ticks elided by the wake cache (self-profiling counter).
    wake_skips: u64,
}

impl CoreComplex {
    /// Builds `cfg.cores` SIMT cores, each with a freshly constructed L1
    /// policy instance for the configured design point.
    pub fn new(cfg: &GpuConfig) -> Self {
        let cores = (0..cfg.cores)
            .map(|i| {
                SimtCore::new(
                    CoreId(i),
                    cfg,
                    crate::config::make_l1_policy(&cfg.l1_policy, &cfg.l1_geometry),
                )
            })
            .collect();
        CoreComplex {
            cores,
            next_cta: 0,
            total_ctas: 0,
            rr_core: 0,
            ff: cfg.fast_forward,
            wake: vec![0; cfg.cores],
            wake_on_inject: vec![false; cfg.cores],
            has_head: vec![false; cfg.cores],
            last_ctas_completed: u64::MAX,
            wake_skips: 0,
        }
    }

    /// Starts a kernel launch: resets the dispatcher and performs the
    /// initial round-robin CTA placement.
    pub fn begin_kernel(&mut self, kernel: &dyn Kernel) {
        self.next_cta = 0;
        self.total_ctas = kernel.grid().ctas;
        self.rr_core = 0;
        self.last_ctas_completed = u64::MAX;
        self.dispatch(kernel);
    }

    /// Round-robins pending CTAs over cores with free resources.
    ///
    /// On cycles where no CTA finished since the last scan, capacity
    /// cannot have grown and the scan is skipped under event gating —
    /// state-identically, because a fruitless scan advances the
    /// round-robin cursor by exactly one full lap.
    pub fn dispatch(&mut self, kernel: &dyn Kernel) {
        if self.ff && self.next_cta < self.total_ctas {
            let completed: u64 = self.cores.iter().map(|c| c.stats().ctas_completed).sum();
            if completed == self.last_ctas_completed {
                return;
            }
            self.last_ctas_completed = completed;
        }
        let n = self.cores.len();
        let mut stalled = 0;
        while self.next_cta < self.total_ctas && stalled < n {
            let c = self.rr_core % n;
            if self.cores[c].can_launch(kernel) {
                self.cores[c].launch_cta(kernel, self.next_cta);
                self.wake[c] = 0;
                self.next_cta += 1;
                stalled = 0;
            } else {
                stalled += 1;
            }
            self.rr_core = (self.rr_core + 1) % n;
        }
    }

    /// Whether every CTA of the current kernel has been placed on a core.
    pub fn fully_dispatched(&self) -> bool {
        self.next_cta >= self.total_ctas
    }

    /// The core array.
    pub fn cores(&self) -> &[SimtCore] {
        &self.cores
    }

    /// Mutable core array (kernel-end flush, stat collection).
    pub fn cores_mut(&mut self) -> &mut [SimtCore] {
        &mut self.cores
    }

    /// Total instructions issued across all cores (progress signature).
    pub fn instructions(&self) -> u64 {
        self.cores.iter().map(|c| c.stats().instructions).sum()
    }

    /// Core ticks elided by the per-core wake cache (self-profiling).
    pub const fn wake_skips(&self) -> u64 {
        self.wake_skips
    }

    /// Second half of a restore: rebuilds every restored warp's program
    /// from `kernel` (see [`SimtCore::replay`]).
    pub fn replay(&mut self, kernel: &dyn Kernel) -> Result<(), SnapshotError> {
        self.cores.iter_mut().try_for_each(|c| c.replay(kernel))
    }
}

impl Snapshot for CoreComplex {
    /// Saves the core array and the CTA dispatcher state. The per-core
    /// wake caches are *not* serialized: restore parks them at "tick next
    /// cycle", which is state-identical (a tick on an event-free cycle
    /// equals the replayed skip) and they re-tighten on the first real
    /// tick.
    fn save(&self, w: &mut SnapshotWriter) {
        w.section("core_complex", |w| {
            w.save_all(&self.cores);
            w.usize(self.next_cta);
            w.usize(self.total_ctas);
            w.usize(self.rr_core);
            w.u64(self.last_ctas_completed);
            w.u64(self.wake_skips);
        });
    }

    /// Warp programs come back in [`CoreComplex::replay`].
    fn restore(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        r.section("core_complex", |r| {
            r.restore_all(&mut self.cores, "cores")?;
            self.next_cta = r.usize()?;
            self.total_ctas = r.usize()?;
            self.rr_core = r.usize()?;
            self.last_ctas_completed = r.u64()?;
            self.wake_skips = r.u64()?;
            self.wake.fill(0);
            self.wake_on_inject.fill(false);
            self.has_head.fill(false);
            Ok(())
        })
    }
}

impl ClockedWith<Interconnect> for CoreComplex {
    /// One core-array cycle: each core first drains its response port
    /// (waking warps), then runs its LD/ST pipeline and issue stage,
    /// injecting at most one request if the network has room.
    fn tick_with(&mut self, now: u64, icnt: &mut Interconnect) {
        for (i, core) in self.cores.iter_mut().enumerate() {
            // Gated pre-check, ordered cheapest-first and touching only
            // what the verdict needs: the cached wake bound, then the
            // response port (external input overrides everything), and
            // the request mesh only when a queued LD/ST head makes the
            // answer matter — for stall accounting or for the
            // backpressure wake-up.
            if self.ff && now < self.wake[i] && !icnt.resp_pending_core(i) {
                if !self.has_head[i] {
                    // No LD/ST head: skipped-cycle accounting never reads
                    // `can_inject`.
                    core.skip(now - 1, 1, false);
                    self.wake_skips += 1;
                    continue;
                }
                let can_inject = icnt.can_inject_core(i);
                if !(can_inject && self.wake_on_inject[i]) {
                    // Provably event-free core cycle: replay accounting.
                    core.skip(now - 1, 1, can_inject);
                    self.wake_skips += 1;
                    continue;
                }
            }
            let (mut rx, mut tx) = icnt.core_ports(i);
            while let Some(resp) = rx.recv() {
                core.on_response(resp);
            }
            let can_inject = tx.can_send();
            if let Some(req) = core.tick(now, can_inject) {
                tx.send(req, now);
            }
            if self.ff {
                // Refresh against post-tick state; the send above may have
                // filled the injection queue.
                let can_inject = tx.can_send();
                self.wake[i] = core.next_event(now, can_inject).unwrap_or(u64::MAX);
                self.wake_on_inject[i] = !can_inject && core.head_waiting_on_inject();
                self.has_head[i] = core.has_ldst_head();
            }
        }
    }

    fn is_idle(&self) -> bool {
        self.cores.iter().all(SimtCore::is_idle)
    }

    /// Minimum of the per-core bounds. CTA dispatch needs no bound of its
    /// own: a launch requires a core to free resources first, which
    /// requires a pickable warp — already bounded at `now + 1` — and on
    /// event-free cycles the round-robin dispatch scan is a no-op (its
    /// cursor advances exactly one full lap).
    fn next_event(&self, now: u64, icnt: &Interconnect) -> Option<u64> {
        let mut ev: Option<u64> = None;
        for (i, core) in self.cores.iter().enumerate() {
            // Under event gating the cached per-core bounds are current
            // (ticked cores were just refreshed, skipped cores are
            // unchanged since theirs were computed), so the warp scan is
            // elided.
            let e = if self.ff {
                if self.wake[i] <= now + 1 || (self.wake_on_inject[i] && icnt.can_inject_core(i)) {
                    Some(now + 1)
                } else if self.wake[i] == u64::MAX {
                    None
                } else {
                    Some(self.wake[i])
                }
            } else {
                core.next_event(now, icnt.can_inject_core(i))
            };
            if e == Some(now + 1) {
                return e;
            }
            ev = min_event(ev, e);
        }
        ev
    }

    fn skip(&mut self, now: u64, cycles: u64, icnt: &Interconnect) {
        for (i, core) in self.cores.iter_mut().enumerate() {
            core.skip(now, cycles, icnt.can_inject_core(i));
        }
    }
}

/// The memory-partition array (L2 banks + AOUs + DRAM channels).
#[derive(Debug)]
pub struct MemorySystem {
    partitions: Vec<Partition>,
    /// Per-partition event gating, mirroring [`CoreComplex`]: a partition
    /// whose cached wake-up cycle lies ahead (and that received no request
    /// this cycle) is skipped outright — its event-free tick is a pure
    /// no-op, so unlike cores there is no accounting to replay.
    ff: bool,
    wake: Vec<u64>,
    /// Partition ticks elided by the wake cache (self-profiling counter).
    wake_skips: u64,
}

impl MemorySystem {
    /// Builds `cfg.partitions` memory partitions.
    pub fn new(cfg: &GpuConfig) -> Self {
        MemorySystem {
            partitions: (0..cfg.partitions)
                .map(|p| Partition::new(PartitionId(p), cfg))
                .collect(),
            ff: cfg.fast_forward,
            wake: vec![0; cfg.partitions],
            wake_skips: 0,
        }
    }

    /// Partition ticks elided by the per-partition wake cache
    /// (self-profiling).
    pub const fn wake_skips(&self) -> u64 {
        self.wake_skips
    }

    /// The partition array.
    pub fn partitions(&self) -> &[Partition] {
        &self.partitions
    }

    /// Mutable partition array (kernel-end flush, stat collection).
    pub fn partitions_mut(&mut self) -> &mut [Partition] {
        &mut self.partitions
    }

    /// Total DRAM transactions completed (progress signature).
    pub fn dram_completed(&self) -> u64 {
        self.partitions
            .iter()
            .map(|p| p.dram_stats().completed)
            .sum()
    }
}

impl Snapshot for MemorySystem {
    /// Saves every partition. The wake cache is not serialized; restore
    /// parks every partition at "tick next cycle" (state-identical, see
    /// [`CoreComplex`]'s snapshot notes).
    fn save(&self, w: &mut SnapshotWriter) {
        w.section("mem_system", |w| {
            w.save_all(&self.partitions);
            w.u64(self.wake_skips);
        });
    }

    fn restore(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        r.section("mem_system", |r| {
            r.restore_all(&mut self.partitions, "partitions")?;
            self.wake_skips = r.u64()?;
            self.wake.fill(0);
            Ok(())
        })
    }
}

impl ClockedWith<Interconnect> for MemorySystem {
    /// One memory-system cycle: each partition drains its request port,
    /// advances L2/AOU/DRAM, and injects ready responses while the
    /// response mesh has room.
    fn tick_with(&mut self, now: u64, icnt: &mut Interconnect) {
        for (p, part) in self.partitions.iter_mut().enumerate() {
            if self.ff && now < self.wake[p] && !icnt.req_pending_part(p) {
                // No queued input and no internal event due: the whole
                // partition cycle is a no-op.
                self.wake_skips += 1;
                continue;
            }
            let (mut rx, mut tx) = icnt.partition_ports(p);
            while let Some(req) = rx.recv() {
                part.push_request(req);
            }
            part.tick(now);
            while tx.can_send() {
                let Some(resp) = part.pop_response(now) else {
                    break;
                };
                tx.send(resp, now);
            }
            if self.ff {
                self.wake[p] = part.next_event(now).unwrap_or(u64::MAX);
            }
        }
    }

    fn is_idle(&self) -> bool {
        self.partitions.iter().all(Partition::is_idle)
    }

    fn next_event(&self, now: u64, _icnt: &Interconnect) -> Option<u64> {
        if self.ff {
            // The cached per-partition bounds are current (same argument
            // as for the cores); arrival of new requests is bounded by the
            // request mesh's own next event.
            let m = self.wake.iter().copied().min().unwrap_or(u64::MAX);
            return if m == u64::MAX {
                None
            } else {
                Some(m.max(now + 1))
            };
        }
        let mut ev: Option<u64> = None;
        for p in &self.partitions {
            let e = p.next_event(now);
            if e == Some(now + 1) {
                return e;
            }
            ev = min_event(ev, e);
        }
        ev
    }
}

/// The cluster-cache array — one shared L1.5 per core cluster. Empty on a
/// flat machine, where every method is a no-op so the flat pipeline pays
/// nothing for the extra hierarchy level.
#[derive(Debug)]
pub struct ClusterComplex {
    clusters: Vec<L15Cluster>,
    /// Per-cluster event gating, mirroring [`MemorySystem`]: a cluster
    /// whose cached wake-up cycle lies ahead and that has no traffic
    /// waiting at its node is skipped outright.
    ff: bool,
    wake: Vec<u64>,
    /// Cluster ticks elided by the wake cache (self-profiling counter).
    wake_skips: u64,
}

impl ClusterComplex {
    /// Builds one shared L1.5 per cluster of `topo` (none when flat).
    pub fn new(cfg: &GpuConfig, topo: &Topology) -> Self {
        let n = topo.clusters();
        ClusterComplex {
            clusters: (0..n).map(|_| L15Cluster::new(cfg)).collect(),
            ff: cfg.fast_forward,
            wake: vec![0; n],
            wake_skips: 0,
        }
    }

    /// Cluster ticks elided by the per-cluster wake cache (self-profiling).
    pub const fn wake_skips(&self) -> u64 {
        self.wake_skips
    }

    /// Whether the machine is flat (no cluster caches to tick).
    pub fn is_empty(&self) -> bool {
        self.clusters.is_empty()
    }

    /// The cluster-cache array.
    pub fn clusters(&self) -> &[L15Cluster] {
        &self.clusters
    }

    /// Mutable cluster-cache array (kernel-end flush, stat collection).
    pub fn clusters_mut(&mut self) -> &mut [L15Cluster] {
        &mut self.clusters
    }
}

impl Snapshot for ClusterComplex {
    /// Saves every cluster cache (a no-op payload on a flat machine). The
    /// wake cache is rebuilt, not serialized.
    fn save(&self, w: &mut SnapshotWriter) {
        w.section("cluster_complex", |w| {
            w.save_all(&self.clusters);
            w.u64(self.wake_skips);
        });
    }

    fn restore(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        r.section("cluster_complex", |r| {
            r.restore_all(&mut self.clusters, "clusters")?;
            self.wake_skips = r.u64()?;
            self.wake.fill(0);
            Ok(())
        })
    }
}

impl ClockedWith<Interconnect> for ClusterComplex {
    /// One cluster-array cycle: each L1.5 drains both its mesh ports,
    /// serves one request, and injects ready forwards/responses while the
    /// meshes have room.
    fn tick_with(&mut self, now: u64, icnt: &mut Interconnect) {
        for (c, cluster) in self.clusters.iter_mut().enumerate() {
            if self.ff
                && now < self.wake[c]
                && !icnt.req_pending_cluster(c)
                && !icnt.resp_pending_cluster(c)
            {
                // No queued input on either mesh and no internal event
                // due: the whole cluster cycle is a no-op.
                self.wake_skips += 1;
                continue;
            }
            let (mut req_io, mut resp_io) = icnt.cluster_io(c);
            cluster.tick(now, &mut req_io, &mut resp_io);
            if self.ff {
                self.wake[c] = cluster.next_event(now).unwrap_or(u64::MAX);
            }
        }
    }

    fn is_idle(&self) -> bool {
        self.clusters.iter().all(L15Cluster::is_idle)
    }

    fn next_event(&self, now: u64, _icnt: &Interconnect) -> Option<u64> {
        if self.ff {
            // The cached per-cluster bounds are current (same argument as
            // for the partitions); arrival of new traffic is bounded by
            // each mesh's own next event.
            let m = self.wake.iter().copied().min().unwrap_or(u64::MAX);
            return if m == u64::MAX {
                None
            } else {
                Some(m.max(now + 1))
            };
        }
        let mut ev: Option<u64> = None;
        for cluster in &self.clusters {
            let e = cluster.next_event(now);
            if e == Some(now + 1) {
                return e;
            }
            ev = min_event(ev, e);
        }
        ev
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Hierarchy;
    use gcache_core::addr::LineAddr;
    use gcache_core::policy::AccessKind;

    #[test]
    fn topology_places_cores_then_partitions() {
        let cfg = GpuConfig::fermi().unwrap();
        let topo = cfg.topology();
        assert_eq!(topo.core_nodes, (0..16).collect::<Vec<_>>());
        assert_eq!(topo.part_nodes, (16..24).collect::<Vec<_>>());
        assert_eq!(topo.nodes(), 24);
        assert!(!topo.is_clustered());
        assert_eq!(topo.cluster_of.len(), 16);
    }

    fn clustered_cfg(cluster_size: usize) -> GpuConfig {
        GpuConfig::fermi()
            .unwrap()
            .with_hierarchy(Hierarchy::SharedL15 {
                cluster_size,
                kb: 64,
            })
            .unwrap()
    }

    #[test]
    fn clustered_topology_places_cluster_nodes_after_partitions() {
        let cfg = clustered_cfg(4);
        let topo = cfg.topology();
        assert_eq!(topo.clusters(), 4);
        assert_eq!(topo.cluster_nodes, (24..28).collect::<Vec<_>>());
        assert!(topo.nodes() >= 28);
        // Every core belongs to exactly one cluster, contiguously: cores
        // 0..4 → cluster 0, 4..8 → cluster 1, and so on.
        assert_eq!(topo.cluster_of.len(), 16);
        for (core, &cluster) in topo.cluster_of.iter().enumerate() {
            assert_eq!(cluster, core / 4, "core {core}");
        }
        for cluster in 0..topo.clusters() {
            assert_eq!(topo.cluster_of.iter().filter(|&&c| c == cluster).count(), 4);
        }
    }

    #[test]
    fn victim_grouping_flat_matches_modular() {
        let topo = GpuConfig::fermi().unwrap().topology();
        let g = topo.victim_grouping(4);
        assert_eq!(g.groups(), 4);
        for core in 0..16 {
            assert_eq!(g.group_of(core), core / 4, "core {core}");
        }
    }

    #[test]
    fn victim_grouping_share_equal_to_cluster_follows_cluster_map() {
        let topo = clustered_cfg(4).topology();
        let g = topo.victim_grouping(4);
        assert_eq!(g.groups(), 4);
        for core in 0..16 {
            assert_eq!(g.group_of(core), topo.cluster_of[core], "core {core}");
        }
    }

    #[test]
    fn victim_grouping_share_spanning_clusters_merges_them() {
        // share 8 on 4-core clusters: two whole clusters per victim bit.
        let topo = clustered_cfg(4).topology();
        let g = topo.victim_grouping(8);
        assert_eq!(g.groups(), 2);
        for core in 0..16 {
            assert_eq!(g.group_of(core), topo.cluster_of[core] / 2, "core {core}");
        }
    }

    #[test]
    fn victim_grouping_share_below_cluster_subdivides_it() {
        // share 4 on 8-core clusters: two groups per cluster, and no group
        // straddles a cluster boundary (cores per cluster are contiguous).
        let topo = clustered_cfg(8).topology();
        let g = topo.victim_grouping(4);
        assert_eq!(g.groups(), 4);
        for core in 0..16 {
            assert_eq!(g.group_of(core), core / 4, "core {core}");
            assert_eq!(g.group_of(core) / 2, topo.cluster_of[core], "core {core}");
        }
    }

    #[test]
    fn request_port_routes_to_owning_partition() {
        let cfg = GpuConfig::fermi().unwrap();
        let mut icnt = Interconnect::new(&cfg, cfg.topology());
        // Line 5 lives in partition 5 (low-bit interleaving, node 16 + 5).
        let req = MemRequest {
            line: LineAddr::new(5),
            kind: AccessKind::Read,
            core: CoreId(0),
            warp: 0,
            class: None,
        };
        {
            let (_, mut tx) = icnt.core_ports(0);
            assert!(tx.can_send());
            tx.send(req, 0);
        }
        let mut got = None;
        for now in 1..200 {
            icnt.tick(now);
            let (mut rx, _) = icnt.partition_ports(5);
            if let Some(r) = rx.recv() {
                got = Some(r);
                break;
            }
        }
        assert_eq!(got, Some(req));
        assert!(icnt.is_idle());
    }

    #[test]
    fn response_port_routes_to_destination_core() {
        let cfg = GpuConfig::fermi().unwrap();
        let mut icnt = Interconnect::new(&cfg, cfg.topology());
        let resp = MemResponse {
            line: LineAddr::new(5),
            kind: AccessKind::Read,
            core: CoreId(7),
            warp: 3,
            victim_hint: true,
            class: None,
        };
        {
            let (_, mut tx) = icnt.partition_ports(5);
            tx.send(resp, 0);
        }
        let mut got = None;
        for now in 1..200 {
            icnt.tick(now);
            let (mut rx, _) = icnt.core_ports(7);
            if let Some(r) = rx.recv() {
                got = Some(r);
                break;
            }
        }
        assert_eq!(got, Some(resp));
    }

    /// Runs the mesh until `recv` yields a packet at its node (or panics).
    fn pump<M, F>(icnt: &mut Interconnect, mut recv: F) -> M
    where
        F: FnMut(&mut Interconnect) -> Option<M>,
    {
        for now in 1..200 {
            icnt.tick(now);
            if let Some(m) = recv(icnt) {
                return m;
            }
        }
        panic!("packet never arrived");
    }

    #[test]
    fn clustered_requests_route_via_cluster_node() {
        let cfg = clustered_cfg(4);
        let mut icnt = Interconnect::new(&cfg, cfg.topology());
        let req = MemRequest {
            line: LineAddr::new(5),
            kind: AccessKind::Read,
            core: CoreId(6), // cluster 1
            warp: 0,
            class: None,
        };
        {
            let (_, mut tx) = icnt.core_ports(6);
            tx.send(req, 0);
        }
        // The request ejects at cluster 1's node, not at partition 5.
        let got = pump(&mut icnt, |icnt| icnt.cluster_io(1).0.recv());
        assert_eq!(got, req);
        // Forwarding from the cluster node reaches the owning partition.
        {
            let (mut req_io, _) = icnt.cluster_io(1);
            assert!(TxPort::can_send(&req_io));
            req_io.send(got, 0);
        }
        let got = pump(&mut icnt, |icnt| icnt.partition_ports(5).0.recv());
        assert_eq!(got, req);
    }

    #[test]
    fn crossbar_carries_core_requests_to_l15() {
        let cfg = clustered_cfg(4).with_cluster_ports(2).unwrap();
        let mut icnt = Interconnect::new(&cfg, cfg.topology());
        let req = MemRequest {
            line: LineAddr::new(5),
            kind: AccessKind::Read,
            core: CoreId(6), // cluster 1
            warp: 0,
            class: None,
        };
        {
            let (_, mut tx) = icnt.core_ports(6);
            assert!(tx.can_send());
            tx.send(req, 0);
        }
        // The request crosses cluster 1's up lane, never the mesh.
        let got = pump(&mut icnt, |icnt| icnt.cluster_io(1).0.recv());
        assert_eq!(got, req);
        assert_eq!(icnt.req_stats().packets, 0, "mesh must not see the request");
        assert_eq!(icnt.xbar_stats().unwrap().grants, 1);
        // Misses still ride the mesh to the owning partition.
        {
            let (mut req_io, _) = icnt.cluster_io(1);
            assert!(TxPort::can_send(&req_io));
            req_io.send(got, 0);
        }
        let got = pump(&mut icnt, |icnt| icnt.partition_ports(5).0.recv());
        assert_eq!(got, req);
        assert_eq!(icnt.req_stats().packets, 1);
    }

    #[test]
    fn crossbar_carries_l15_responses_to_cores() {
        let cfg = clustered_cfg(4).with_cluster_ports(2).unwrap();
        let mut icnt = Interconnect::new(&cfg, cfg.topology());
        let resp = MemResponse {
            line: LineAddr::new(5),
            kind: AccessKind::Read,
            core: CoreId(13), // cluster 3, slot 1
            warp: 2,
            victim_hint: true,
            class: None,
        };
        // Partition responses still ride the mesh to the cluster node.
        {
            let (_, mut tx) = icnt.partition_ports(5);
            tx.send(resp, 0);
        }
        let got = pump(&mut icnt, |icnt| icnt.cluster_io(3).1.recv());
        assert_eq!(got, resp);
        // The per-core redistribution crosses the down lane.
        let before = icnt.resp_stats().packets;
        {
            let (_, mut resp_io) = icnt.cluster_io(3);
            assert!(TxPort::can_send(&resp_io));
            resp_io.send(got, 0);
        }
        assert!(!icnt.resp_pending_core(13));
        let got = pump(&mut icnt, |icnt| icnt.core_ports(13).0.recv());
        assert_eq!(got, resp);
        assert_eq!(
            icnt.resp_stats().packets,
            before,
            "redistribution must not touch the mesh"
        );
        assert!(icnt.is_idle());
    }

    #[test]
    fn one_port_setting_keeps_legacy_mesh_wiring() {
        // cluster_ports = 1 (the default) must not build crossbars: the
        // cluster node's mesh port is the serialization-equivalent model,
        // so pre-crossbar results reproduce bit-identically.
        let cfg = clustered_cfg(4);
        assert_eq!(cfg.cluster_ports, 1);
        let icnt = Interconnect::new(&cfg, cfg.topology());
        assert!(icnt.xbar_stats().is_none());
        assert_eq!(icnt.xbar_ports_total(), 0);
    }

    #[test]
    fn clustered_responses_route_via_cluster_node_then_core() {
        let cfg = clustered_cfg(4);
        let mut icnt = Interconnect::new(&cfg, cfg.topology());
        let resp = MemResponse {
            line: LineAddr::new(5),
            kind: AccessKind::Read,
            core: CoreId(13), // cluster 3
            warp: 2,
            victim_hint: true,
            class: None,
        };
        {
            let (_, mut tx) = icnt.partition_ports(5);
            tx.send(resp, 0);
        }
        let got = pump(&mut icnt, |icnt| icnt.cluster_io(3).1.recv());
        assert_eq!(got, resp);
        {
            let (_, mut resp_io) = icnt.cluster_io(3);
            assert!(TxPort::can_send(&resp_io));
            resp_io.send(got, 0);
        }
        let got = pump(&mut icnt, |icnt| icnt.core_ports(13).0.recv());
        assert_eq!(got, resp);
    }
}
