//! The componentized GPU system: node placement as data
//! ([`Topology`]), the dual-mesh interconnect with its one typed port
//! view ([`Interconnect`], [`Port`], [`Route`]), the SIMT core array
//! ([`CoreComplex`]) and the gated station arrays behind it
//! ([`Gated`]: [`MemorySystem`], [`ClusterComplex`]).
//!
//! [`crate::gpu::Gpu`] is only a driver over these components: it ticks
//! them in pipeline order (cores → interconnect → memory) and watches for
//! progress. Components talk exclusively through [`TxPort`]/[`RxPort`]
//! views handed out by the interconnect, so an alternative hierarchy (more
//! levels, different placement, a shared L1.5) is a new wiring, not a new
//! cycle loop.

use crate::clocked::{min_event, Clocked};
use crate::config::GpuConfig;
use crate::core::SimtCore;
use crate::icnt::{Mesh, NocStats};
use crate::isa::Kernel;
use crate::l15::L15Cluster;
use crate::partition::Partition;
use crate::port::{RxPort, TxPort};
use crate::request::{partition_of, MemRequest, MemResponse, Packet};
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

/// Everything a port needs to address and serialise a packet: the node
/// placement and the channel geometry, fixed at construction.
#[derive(Debug)]
struct Wiring {
    topo: Topology,
    /// Cores per cluster (0 when not clustered) — cores of a cluster are
    /// contiguous (see [`GpuConfig::topology`]), so a core's crossbar lane
    /// slot is `core % cluster_size`.
    cluster_size: usize,
    line_size: u32,
    channel_bytes: u32,
    partitions: usize,
}

/// Where a [`Port`] sends a message: a mesh node, or a destination slot
/// when the sending side sits on a crossbar lane.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Route {
    /// The node of the partition owning the message's line.
    Partition,
    /// The node of the cluster cache serving the message's core.
    ClusterOfCore,
    /// The node of the message's core.
    Core,
    /// One fixed destination: a core's cluster node on the mesh, or the
    /// L1.5 end (slot 0) of a crossbar up lane.
    Fixed(usize),
    /// The message's core's slot on its cluster's crossbar down lane.
    CoreSlot,
}

impl Wiring {
    /// The one place a destination is decided.
    fn resolve<M: Packet>(&self, route: Route, msg: &M) -> usize {
        let topo = &self.topo;
        match route {
            Route::Partition => topo.part_nodes[partition_of(msg.line(), self.partitions).index()],
            Route::ClusterOfCore => topo.cluster_nodes[topo.cluster_of[msg.core().index()]],
            Route::Core => topo.core_nodes[msg.core().index()],
            Route::Fixed(dst) => dst,
            Route::CoreSlot => msg.core().index() % self.cluster_size,
        }
    }
}

/// The request/response mesh pair, the per-cluster core↔L1.5 crossbars
/// (with `cluster_ports ≥ 2`) and the wiring (node placement + channel
/// geometry) that addresses and serialises packets on them.
#[derive(Debug)]
pub struct Interconnect {
    wiring: Wiring,
    req: Mesh<MemRequest>,
    resp: Mesh<MemResponse>,
    /// One crossbar per cluster when `cluster_ports ≥ 2`; empty otherwise
    /// (flat machine, or the legacy 1-port wiring through the cluster's
    /// mesh node). When present, core↔L1.5 traffic moves over these lanes
    /// and only L1.5↔partition traffic rides the meshes.
    xbars: Vec<ClusterXbar>,
    /// Per-lane transfer ports of each crossbar.
    cluster_ports: usize,
}

impl Interconnect {
    /// Builds the two meshes described by `cfg`, placed per `topo`, plus
    /// the per-cluster crossbars when `cfg.cluster_ports ≥ 2` asks for the
    /// modeled core↔L1.5 link.
    pub fn new(cfg: &GpuConfig, topo: Topology) -> Self {
        fn mesh<M>(cfg: &GpuConfig) -> Mesh<M> {
            let (w, h) = (cfg.mesh_width, cfg.mesh_height);
            let mut mesh = Mesh::new(w, h, cfg.router_queue, cfg.hop_latency, 1);
            mesh.set_event_gating(cfg.fast_forward);
            mesh
        }
        let cluster_size = match topo.clusters() {
            0 => 0,
            clusters => topo.core_nodes.len() / clusters,
        };
        let lanes = if cfg.cluster_ports >= 2 {
            topo.clusters()
        } else {
            0
        };
        let xbars = (0..lanes)
            .map(|_| {
                ClusterXbar::new(
                    cluster_size,
                    cfg.cluster_ports,
                    cfg.router_queue,
                    cfg.hop_latency,
                )
            })
            .collect();
        Interconnect {
            wiring: Wiring {
                topo,
                cluster_size,
                line_size: cfg.line_size(),
                channel_bytes: cfg.channel_bytes,
                partitions: cfg.partitions,
            },
            req: mesh(cfg),
            resp: mesh(cfg),
            xbars,
            cluster_ports: cfg.cluster_ports,
        }
    }

    /// The node placement.
    pub fn topology(&self) -> &Topology {
        &self.wiring.topo
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
        self.xbars
            .iter()
            .map(ClusterXbar::stats)
            .reduce(|mut total, xb| {
                total.merge(&xb);
                total
            })
    }

    /// Total transfer ports across all crossbar lanes (both directions) —
    /// the denominator for a port-occupancy reading; 0 without crossbars.
    pub fn xbar_ports_total(&self) -> usize {
        self.xbars.len() * self.cluster_ports * 2
    }

    /// Gauge: packets currently inside the request mesh, the response
    /// mesh and the cluster crossbars (`None` without crossbars) — queued,
    /// moving, or delivered and not yet ejected by a stalled consumer.
    pub fn in_flight_by_network(&self) -> (usize, usize, Option<usize>) {
        let xbars = self.xbars.iter().map(ClusterXbar::in_flight).sum();
        (
            self.req.in_flight(),
            self.resp.in_flight(),
            (!self.xbars.is_empty()).then_some(xbars),
        )
    }

    /// Gauge: packets currently inside either mesh or any cluster
    /// crossbar (telemetry).
    pub fn in_flight(&self) -> usize {
        let (req, resp, xbars) = self.in_flight_by_network();
        req + resp + xbars.unwrap_or(0)
    }

    /// Gauge: the deepest per-router injection queue across both meshes
    /// right now (telemetry congestion reading).
    pub fn max_queue_depth(&self) -> u32 {
        self.req.max_local_queue().max(self.resp.max_local_queue())
    }

    /// The port pair a core sees: responses in, requests out. Requests
    /// route to the owning partition — or, on a clustered topology, to the
    /// core's cluster node; with crossbars active both ports sit on the
    /// core's slot of its cluster's lanes instead of the meshes. The
    /// wiring changes, the core does not.
    pub fn core_ports(&mut self, core: usize) -> (Port<'_, MemResponse>, Port<'_, MemRequest>) {
        let Interconnect {
            wiring,
            req,
            resp,
            xbars,
            ..
        } = self;
        let topo = &wiring.topo;
        let node = topo.core_nodes[core];
        let cluster = topo.cluster_of[core];
        let up = match topo.cluster_nodes.get(cluster) {
            Some(&via) => Route::Fixed(via),
            None => Route::Partition,
        };
        let rx = Port::new(wiring, resp, node, Route::Core);
        let tx = Port::new(wiring, req, node, up);
        match xbars.get_mut(cluster) {
            Some(xb) => {
                let slot = core % wiring.cluster_size;
                (
                    rx.rx_on(&mut xb.down, slot),
                    tx.tx_on(&mut xb.up, slot, Route::Fixed(0)),
                )
            }
            None => (rx, tx),
        }
    }

    /// The crossbar of `core`'s cluster and the core's slot on its lanes,
    /// `None` when the core's ports sit on the meshes.
    fn core_lanes(&self, core: usize) -> Option<(&ClusterXbar, usize)> {
        let xb = self.xbars.get(self.wiring.topo.cluster_of[core])?;
        Some((xb, core % self.wiring.cluster_size))
    }

    /// Whether core `core`'s request port currently has room — the
    /// read-only flavour of its port's `can_send`, used by the
    /// fast-forward probes. The answer is stable across event-free
    /// cycles: the queue (mesh injection queue, or crossbar up-lane
    /// source queue) drains only through interconnect movement and fills
    /// only through the owning core's own injections.
    fn can_inject_core(&self, core: usize) -> bool {
        match self.core_lanes(core) {
            Some((xb, slot)) => xb.up.can_accept(slot),
            None => self.req.can_inject(self.wiring.topo.core_nodes[core]),
        }
    }

    /// Whether a response awaits ejection at core `core`'s port — the
    /// "external input" test of the gated core loop, answerable without
    /// borrowing the port pair.
    fn resp_pending_core(&self, core: usize) -> bool {
        match self.core_lanes(core) {
            Some((xb, slot)) => xb.down.has_delivered(slot),
            None => self.resp.has_delivered(self.wiring.topo.core_nodes[core]),
        }
    }

    /// Whether a request awaits ejection at partition `part`'s port.
    fn req_pending_part(&self, part: usize) -> bool {
        self.req.has_delivered(self.wiring.topo.part_nodes[part])
    }

    /// Whether anything awaits ejection at cluster `cluster`'s L1.5: a
    /// partition response at its mesh node, or a core request at its
    /// crossbar up lane when active, else at that node too.
    fn pending_cluster(&self, cluster: usize) -> bool {
        let node = self.wiring.topo.cluster_nodes[cluster];
        self.resp.has_delivered(node)
            || match self.xbars.get(cluster) {
                Some(xb) => xb.up.has_delivered(0),
                None => self.req.has_delivered(node),
            }
    }

    /// The port pair a partition sees: requests in, responses out. On a
    /// clustered topology responses route back to the requesting core's
    /// cluster node (the L1.5 fills and re-distributes).
    fn partition_ports(&mut self, part: usize) -> (Port<'_, MemRequest>, Port<'_, MemResponse>) {
        let Interconnect {
            wiring, req, resp, ..
        } = self;
        let node = wiring.topo.part_nodes[part];
        let down = if wiring.topo.is_clustered() {
            Route::ClusterOfCore
        } else {
            Route::Core
        };
        (
            Port::new(wiring, req, node, Route::Partition),
            Port::new(wiring, resp, node, down),
        )
    }

    /// The two ports a cluster's shared L1.5 sees, both at its mesh node.
    /// Request side: its cores' requests eject here (from the crossbar up
    /// lane when active) and misses inject towards the owning partitions,
    /// always over the mesh. Response side: partition responses eject
    /// here, always from the mesh, and per-core responses inject towards
    /// the cores (down the crossbar lane when active).
    pub fn cluster_io(&mut self, cluster: usize) -> (Port<'_, MemRequest>, Port<'_, MemResponse>) {
        let Interconnect {
            wiring,
            req,
            resp,
            xbars,
            ..
        } = self;
        let node = wiring.topo.cluster_nodes[cluster];
        let req_io = Port::new(wiring, req, node, Route::Partition);
        let resp_io = Port::new(wiring, resp, node, Route::Core);
        match xbars.get_mut(cluster) {
            Some(xb) => (
                req_io.rx_on(&mut xb.up, 0),
                resp_io.tx_on(&mut xb.down, 0, Route::CoreSlot),
            ),
            None => (req_io, resp_io),
        }
    }
}

impl Snapshot for Interconnect {
    /// Saves both meshes and the cluster crossbars; the wiring is
    /// construction-time configuration.
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

/// Which side of a [`Port`] sits on a crossbar lane instead of the mesh,
/// and at which lane slot.
#[derive(Debug)]
enum Lane<'a, M> {
    None,
    /// Delivered packets eject from the lane's sink `slot`.
    Rx(&'a mut XbarLane<M>, usize),
    /// Sends enter the lane's source queue `slot`.
    Tx(&'a mut XbarLane<M>, usize),
}

/// The one port view: what a station attached at mesh node `node` sees of
/// one network. Delivered packets eject at the node, sends inject there
/// towards wherever `route` resolves, serialised into channel-width flits
/// — except that at most one side is moved onto a crossbar lane, which
/// the station cannot tell.
#[derive(Debug)]
pub struct Port<'a, M> {
    wiring: &'a Wiring,
    mesh: &'a mut Mesh<M>,
    node: usize,
    route: Route,
    lane: Lane<'a, M>,
}

impl<'a, M> Port<'a, M> {
    fn new(wiring: &'a Wiring, mesh: &'a mut Mesh<M>, node: usize, route: Route) -> Self {
        Port {
            wiring,
            mesh,
            node,
            route,
            lane: Lane::None,
        }
    }

    /// Moves the receiving side onto sink `slot` of `lane`.
    fn rx_on(self, lane: &'a mut XbarLane<M>, slot: usize) -> Self {
        Port {
            lane: Lane::Rx(lane, slot),
            ..self
        }
    }

    /// Moves the sending side onto source `slot` of `lane`, where `route`
    /// resolves to a sink slot.
    fn tx_on(self, lane: &'a mut XbarLane<M>, slot: usize, route: Route) -> Self {
        Port {
            lane: Lane::Tx(lane, slot),
            route,
            ..self
        }
    }
}

// `#[inline]`: every ticked core and station calls these each cycle, and
// the benchmark's crossbar driver calls them from another crate.
impl<M> RxPort<M> for Port<'_, M> {
    #[inline]
    fn recv(&mut self) -> Option<M> {
        match &mut self.lane {
            Lane::Rx(lane, slot) => lane.eject(*slot),
            _ => self.mesh.eject(self.node),
        }
    }
}

impl<M: Packet> TxPort<M> for Port<'_, M> {
    #[inline]
    fn can_send(&self) -> bool {
        match &self.lane {
            Lane::Tx(lane, slot) => lane.can_accept(*slot),
            _ => self.mesh.can_inject(self.node),
        }
    }

    #[inline]
    fn send(&mut self, msg: M, now: u64) {
        let wiring = self.wiring;
        let flits = msg
            .packet_bytes(wiring.line_size)
            .div_ceil(wiring.channel_bytes);
        let dst = wiring.resolve(self.route, &msg);
        let sent = match &mut self.lane {
            Lane::Tx(lane, slot) => lane.push(*slot, dst, flits, msg, now),
            _ => self.mesh.inject_at(self.node, dst, flits, msg, now).is_ok(),
        };
        assert!(sent, "injection gated by can_send");
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
            w.put(&(self.next_cta, self.total_ctas, self.rr_core));
            w.put(&(self.last_ctas_completed, self.wake_skips));
        });
    }

    /// Warp programs come back in [`CoreComplex::replay`].
    fn restore(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        r.section("core_complex", |r| {
            r.restore_all(&mut self.cores, "cores")?;
            (self.next_cta, self.total_ctas, self.rr_core) = r.get()?;
            (self.last_ctas_completed, self.wake_skips) = r.get()?;
            self.wake.fill(0);
            self.wake_on_inject.fill(false);
            Ok(())
        })
    }
}

impl CoreComplex {
    /// One core-array cycle: each core first drains its response port
    /// (waking warps), then runs its LD/ST pipeline and issue stage,
    /// injecting at most one request if the network has room.
    pub fn tick(&mut self, now: u64, icnt: &mut Interconnect) {
        for (i, core) in self.cores.iter_mut().enumerate() {
            // Gated pre-check, ordered cheapest-first: the cached wake
            // bound, then the response port (external input overrides
            // everything), and the request mesh only for a head parked on
            // its backpressure.
            if self.ff
                && now < self.wake[i]
                && !icnt.resp_pending_core(i)
                && !(self.wake_on_inject[i] && icnt.can_inject_core(i))
            {
                // Provably event-free core cycle: replay accounting.
                core.skip(now - 1, 1);
                self.wake_skips += 1;
                continue;
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
            }
        }
    }

    /// Whether every core has drained.
    pub fn is_idle(&self) -> bool {
        self.cores.iter().all(SimtCore::is_idle)
    }

    /// [`Clocked::next_event`] with read-only port visibility (whether the
    /// network can accept an injection is constant across an event-free
    /// gap): the minimum of the per-core bounds. CTA dispatch needs no bound of its
    /// own: a launch requires a core to free resources first, which
    /// requires a pickable warp — already bounded at `now + 1` — and on
    /// event-free cycles the round-robin dispatch scan is a no-op (its
    /// cursor advances exactly one full lap).
    pub fn next_event(&self, now: u64, icnt: &Interconnect) -> Option<u64> {
        let mut ev: Option<u64> = None;
        for (i, &wake) in self.wake.iter().enumerate() {
            // The cached per-core bounds are current (ticked cores were
            // just refreshed, skipped cores are unchanged since theirs
            // were computed), so the warp scan is elided. Without event
            // gating they stay 0: never skip.
            if wake <= now + 1 || (self.wake_on_inject[i] && icnt.can_inject_core(i)) {
                return Some(now + 1);
            }
            if wake != u64::MAX {
                ev = min_event(ev, Some(wake));
            }
        }
        ev
    }

    /// Replays every core's per-cycle stall accounting across a gap the
    /// driver proved event-free.
    pub fn skip(&mut self, now: u64, cycles: u64) {
        for core in &mut self.cores {
            core.skip(now, cycles);
        }
    }
}

/// One kind of memory-side station on the network — what [`Gated`] needs
/// to build, gate and serve an array of them. A new hierarchy level is
/// one impl of this (and, if its traffic goes somewhere new, one
/// [`Route`] arm).
pub trait Station: Snapshot + Sized {
    /// Snapshot section tag of the array.
    const SECTION: &'static str;

    /// Builds the array `cfg` and `topo` describe (possibly empty).
    fn build(cfg: &GpuConfig, topo: &Topology) -> Vec<Self>;

    /// Whether traffic awaits ejection at station `index`'s ports — the
    /// external input that overrides its cached wake-up cycle.
    fn input_pending(icnt: &Interconnect, index: usize) -> bool;

    /// One cycle of station `index` against its ports: drain what was
    /// delivered, advance, inject what is ready while there is room.
    fn serve(&mut self, now: u64, index: usize, icnt: &mut Interconnect);

    /// Whether all internal work has drained.
    fn is_idle(&self) -> bool;

    /// [`Clocked::next_event`] of the station, given no new input.
    fn next_event(&self, now: u64) -> Option<u64>;
}

impl Station for Partition {
    const SECTION: &'static str = "mem_system";

    fn build(cfg: &GpuConfig, _topo: &Topology) -> Vec<Self> {
        (0..cfg.partitions)
            .map(|p| Partition::new(PartitionId(p), cfg))
            .collect()
    }

    fn input_pending(icnt: &Interconnect, index: usize) -> bool {
        icnt.req_pending_part(index)
    }

    fn serve(&mut self, now: u64, index: usize, icnt: &mut Interconnect) {
        let (mut rx, mut tx) = icnt.partition_ports(index);
        while let Some(req) = rx.recv() {
            self.push_request(req);
        }
        self.tick(now);
        while tx.can_send() {
            let Some(resp) = self.pop_response(now) else {
                break;
            };
            tx.send(resp, now);
        }
    }

    fn is_idle(&self) -> bool {
        Partition::is_idle(self)
    }

    fn next_event(&self, now: u64) -> Option<u64> {
        Partition::next_event(self, now)
    }
}

impl Station for L15Cluster {
    const SECTION: &'static str = "cluster_complex";

    /// One shared L1.5 per cluster of `topo`; none on a flat machine, so
    /// the flat pipeline pays nothing for the extra hierarchy level.
    fn build(cfg: &GpuConfig, topo: &Topology) -> Vec<Self> {
        (0..topo.clusters()).map(|_| L15Cluster::new(cfg)).collect()
    }

    fn input_pending(icnt: &Interconnect, index: usize) -> bool {
        icnt.pending_cluster(index)
    }

    fn serve(&mut self, now: u64, index: usize, icnt: &mut Interconnect) {
        let (mut req_io, mut resp_io) = icnt.cluster_io(index);
        self.tick(now, &mut req_io, &mut resp_io);
    }

    fn is_idle(&self) -> bool {
        L15Cluster::is_idle(self)
    }

    fn next_event(&self, now: u64) -> Option<u64> {
        L15Cluster::next_event(self, now)
    }
}

/// An array of [`Station`]s behind a per-station wake cache, mirroring
/// [`CoreComplex`]'s event gating: a station whose cached wake-up cycle
/// lies ahead and that has no traffic waiting at its ports is skipped
/// outright: its event-free cycle would change nothing.
#[derive(Debug)]
pub struct Gated<S> {
    stations: Vec<S>,
    ff: bool,
    wake: Vec<u64>,
    /// Station ticks elided by the wake cache (self-profiling counter).
    wake_skips: u64,
}

/// The memory-partition array (L2 banks + AOUs + DRAM channels).
pub type MemorySystem = Gated<Partition>;

/// The cluster-cache array — one shared L1.5 per core cluster, empty on a
/// flat machine.
pub type ClusterComplex = Gated<L15Cluster>;

impl<S: Station> Gated<S> {
    /// Builds the stations `cfg` and `topo` describe.
    pub fn new(cfg: &GpuConfig, topo: &Topology) -> Self {
        let stations = S::build(cfg, topo);
        Gated {
            ff: cfg.fast_forward,
            wake: vec![0; stations.len()],
            stations,
            wake_skips: 0,
        }
    }

    /// Station ticks elided by the wake cache (self-profiling).
    pub const fn wake_skips(&self) -> u64 {
        self.wake_skips
    }

    /// Whether there is nothing to tick (cluster caches of a flat machine).
    pub fn is_empty(&self) -> bool {
        self.stations.is_empty()
    }

    /// The station array.
    pub fn stations(&self) -> &[S] {
        &self.stations
    }

    /// Mutable station array (kernel-end flush, stat collection).
    pub fn stations_mut(&mut self) -> &mut [S] {
        &mut self.stations
    }

    /// One cycle of the array: every station with queued input or an
    /// internal event due is served against its ports.
    pub fn tick(&mut self, now: u64, icnt: &mut Interconnect) {
        for (i, station) in self.stations.iter_mut().enumerate() {
            if self.ff && now < self.wake[i] && !S::input_pending(icnt, i) {
                self.wake_skips += 1;
                continue;
            }
            station.serve(now, i, icnt);
            if self.ff {
                self.wake[i] = station.next_event(now).unwrap_or(u64::MAX);
            }
        }
    }

    /// Whether every station has drained.
    pub fn is_idle(&self) -> bool {
        self.stations.iter().all(S::is_idle)
    }

    /// [`Clocked::next_event`] of the array, from the cached bounds: they
    /// are current (ticked stations were just refreshed, skipped ones are
    /// unchanged since theirs were computed), and without event gating
    /// they stay 0 — "never skip". Arrival of new traffic is bounded by
    /// the interconnect's own next event.
    pub fn next_event(&self, now: u64) -> Option<u64> {
        let m = self.wake.iter().copied().min().unwrap_or(u64::MAX);
        (m != u64::MAX).then_some(m.max(now + 1))
    }
}

impl MemorySystem {
    /// Total DRAM transactions completed (progress signature).
    pub fn dram_completed(&self) -> u64 {
        self.stations.iter().map(|p| p.dram_stats().completed).sum()
    }
}

impl<S: Station> Snapshot for Gated<S> {
    /// Saves every station under the array's section tag. The wake cache
    /// is not serialized; restore parks every station at "tick next
    /// cycle" (state-identical, see [`CoreComplex`]'s snapshot notes).
    fn save(&self, w: &mut SnapshotWriter) {
        w.section(S::SECTION, |w| {
            w.save_all(&self.stations);
            w.put(&self.wake_skips);
        });
    }

    fn restore(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        r.section(S::SECTION, |r| {
            r.restore_all(&mut self.stations, S::SECTION)?;
            self.wake_skips = r.get()?;
            self.wake.fill(0);
            Ok(())
        })
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

    /// Ticks `icnt` until `recv` yields a packet (or panics).
    fn pump<M>(
        icnt: &mut Interconnect,
        now: &mut u64,
        mut recv: impl FnMut(&mut Interconnect) -> Option<M>,
    ) -> M {
        for _ in 0..200 {
            *now += 1;
            icnt.tick(*now);
            if let Some(m) = recv(icnt) {
                return m;
            }
        }
        panic!("packet never arrived");
    }

    /// The routing table: on every shape the binaries sweep, a request
    /// from every core for a line of every partition arrives at the owning
    /// partition's port — through its cluster's `cluster_io` when
    /// clustered — and the echoed response reaches the issuing core's port
    /// and no other. The packet counts say which network carried each leg.
    #[test]
    fn every_shape_routes_every_core_to_every_partition_and_back() {
        for cluster_size in [0, 4, 8, 16] {
            for ports in [1, 2, 4] {
                let cfg = match cluster_size {
                    0 => GpuConfig::fermi().unwrap(),
                    n => clustered_cfg(n),
                };
                let cfg = cfg.with_cluster_ports(ports).unwrap();
                let shape = format!("{} x{ports}", cfg.hierarchy.label());
                let mut icnt = Interconnect::new(&cfg, cfg.topology());
                let topo = cfg.topology();
                let mut now = 0;
                for core in 0..cfg.cores {
                    for part in 0..cfg.partitions {
                        let via = topo.is_clustered().then(|| topo.cluster_of[core]);
                        let req = MemRequest {
                            line: LineAddr::new((core * cfg.partitions + part) as u64),
                            kind: AccessKind::Read,
                            core: CoreId(core),
                            warp: part,
                            class: None,
                        };
                        icnt.core_ports(core).1.send(req, now);
                        if let Some(c) = via {
                            let got = pump(&mut icnt, &mut now, |i| i.cluster_io(c).0.recv());
                            assert_eq!(got, req, "{shape}: core {core} up to cluster {c}");
                            icnt.cluster_io(c).0.send(got, now);
                        }
                        let got = pump(&mut icnt, &mut now, |i| i.partition_ports(part).0.recv());
                        assert_eq!(got, req, "{shape}: core {core} to partition {part}");
                        let resp = MemResponse {
                            line: req.line,
                            kind: AccessKind::Read,
                            core: req.core,
                            warp: part,
                            victim_hint: true,
                            class: None,
                        };
                        icnt.partition_ports(part).1.send(resp, now);
                        if let Some(c) = via {
                            let got = pump(&mut icnt, &mut now, |i| i.cluster_io(c).1.recv());
                            assert_eq!(got, resp, "{shape}: partition {part} to cluster {c}");
                            icnt.cluster_io(c).1.send(got, now);
                        }
                        assert!(!icnt.resp_pending_core(core), "{shape}: not there yet");
                        let got = pump(&mut icnt, &mut now, |i| i.core_ports(core).0.recv());
                        assert_eq!(got, resp, "{shape}: partition {part} back to core {core}");
                        // Nothing queued, moving or awaiting ejection at
                        // any other port: the one copy went to `core`.
                        assert!(icnt.is_idle(), "{shape}: core {core}, partition {part}");
                    }
                }
                // Flat: one mesh packet per leg. Clustered through the
                // cluster's mesh node (1 port, the legacy wiring): two.
                // With crossbars the core-side legs never touch a mesh.
                let trips = (cfg.cores * cfg.partitions) as u64;
                let xbars = if cluster_size > 0 && ports >= 2 {
                    Some((2 * trips, topo.clusters() * ports * 2))
                } else {
                    None
                };
                let mesh_legs = if cluster_size > 0 && ports == 1 { 2 } else { 1 };
                assert_eq!(icnt.req_stats().packets, mesh_legs * trips, "{shape}");
                assert_eq!(icnt.resp_stats().packets, mesh_legs * trips, "{shape}");
                assert_eq!(
                    icnt.xbar_stats().map(|s| s.grants),
                    xbars.map(|x| x.0),
                    "{shape}"
                );
                assert_eq!(icnt.xbar_ports_total(), xbars.map_or(0, |x| x.1), "{shape}");
            }
        }
    }

    /// Every station's state, without the array's own skip counter (a
    /// restored array re-ticks cycles the uninterrupted one skipped).
    fn station_bytes<S: Station>(array: &Gated<S>) -> Vec<u8> {
        let mut w = SnapshotWriter::new();
        w.save_all(array.stations());
        w.finish()
    }

    #[test]
    fn restored_gated_arrays_tick_to_the_same_station_states() {
        type Machine = (Interconnect, ClusterComplex, MemorySystem);
        fn build(cfg: &GpuConfig) -> Machine {
            let icnt = Interconnect::new(cfg, cfg.topology());
            let clusters = Gated::new(cfg, icnt.topology());
            let mem = Gated::new(cfg, icnt.topology());
            (icnt, clusters, mem)
        }
        /// One cycle of the memory side; cores only inject (one read each
        /// on the first 16 cycles) and drain their response ports.
        fn step((icnt, clusters, mem): &mut Machine, now: u64, answered: &mut Vec<MemResponse>) {
            for core in 0..16 {
                let (mut rx, mut tx) = icnt.core_ports(core);
                answered.extend(std::iter::from_fn(|| rx.recv()));
                if now == core as u64 + 1 {
                    let req = MemRequest {
                        line: LineAddr::new(core as u64 * 3),
                        kind: AccessKind::Read,
                        core: CoreId(core),
                        warp: 0,
                        class: None,
                    };
                    tx.send(req, now);
                }
            }
            icnt.tick(now);
            clusters.tick(now, icnt);
            mem.tick(now, icnt);
        }
        let cfg = clustered_cfg(4).with_cluster_ports(2).unwrap();
        assert!(cfg.fast_forward, "the wake caches must be live");
        let (mut straight, mut resumed) = (build(&cfg), build(&cfg));
        let (mut answered, mut answered_after_resume) = (Vec::new(), Vec::new());
        (1..=40).for_each(|now| step(&mut straight, now, &mut answered));
        assert!(!straight.2.is_idle(), "snapshot mid-flight");
        let mut w = SnapshotWriter::new();
        straight.0.save(&mut w);
        straight.1.save(&mut w);
        straight.2.save(&mut w);
        let bytes = w.finish();
        // Restore over arrays whose wake caches say "nothing ever again".
        (100..110).for_each(|now| step(&mut resumed, now, &mut Vec::new()));
        assert_eq!(resumed.2.next_event(110), None);
        let mut r = SnapshotReader::new(&bytes).unwrap();
        resumed.0.restore(&mut r).unwrap();
        resumed.1.restore(&mut r).unwrap();
        resumed.2.restore(&mut r).unwrap();
        answered_after_resume.clone_from(&answered);
        for now in 41..=3000 {
            step(&mut straight, now, &mut answered);
            step(&mut resumed, now, &mut answered_after_resume);
            if now % 100 == 0 {
                let stations = |m: &Machine| (station_bytes(&m.1), station_bytes(&m.2));
                assert!(stations(&resumed) == stations(&straight), "cycle {now}");
            }
        }
        assert_eq!(answered.len(), 16, "every read came back");
        assert_eq!(answered_after_resume, answered);
        assert!(straight.1.is_idle() && straight.2.is_idle() && straight.0.is_idle());
        // The reset wake caches cost the resumed arrays their first skips.
        assert!(resumed.2.wake_skips() < straight.2.wake_skips());
        assert!(straight.2.wake_skips() > 0);
    }
}
