//! A shared per-cluster L1.5 cache — the "new hierarchy level" the
//! component model exists for (see README, "Adding a new hierarchy
//! level").
//!
//! Like each core's L1, the L1.5 owns one generic
//! [`CacheController`]: a write-through/no-allocate cache with
//! [`AtomicHandling::Forward`], addressed by *global* line addresses (the
//! partition interleaving is stripped only at the L2 banks). It sits at
//! its cluster's mesh node and talks exclusively through
//! [`RxPort`]/[`TxPort`] views, so the component is testable against fake
//! ports and the cycle loop never changes:
//!
//! * request mesh: core requests eject here; L1.5 misses, stores and
//!   atomics inject onwards to the owning partition;
//! * response mesh: partition responses eject here (fills / atomic
//!   completions); per-core responses inject back to the cores.
//!
//! With [`GpuConfig::cluster_ports`] ≥ 2 the core-facing halves of those
//! port views are backed by the cluster's [`crate::xbar::ClusterXbar`]
//! lanes instead of the mesh (partition traffic always rides the mesh);
//! the component itself is wiring-agnostic and never knows which.
//!
//! The L2's victim hint passes through unchanged on fills: the forwarded
//! miss carries the primary requester's core id, the L2 observes that
//! core's victim bit, and every core the fill releases receives the same
//! hint — faithful to the clustered sharing model of §4.3, where one
//! victim bit serves the whole cluster. L1.5 hits themselves carry no
//! hint (the level keeps no victim bits of its own).

use crate::config::GpuConfig;
use crate::port::{RxPort, TxPort};
use crate::request::{MemRequest, MemResponse, WarpSlot};
use gcache_core::addr::CoreId;
use gcache_core::cache::{Cache, CacheConfig};
use gcache_core::controller::{
    Admission, AtomicHandling, CacheController, ControllerOutcome, FillParams,
};
use gcache_core::policy::lru::Lru;
use gcache_core::policy::AccessKind;
use gcache_core::record;
use gcache_core::snapshot::{Snapshot, SnapshotError, SnapshotReader, SnapshotWriter};
use gcache_core::stats::CacheStats;
use gcache_core::trace::{SharedTraceRing, TraceLevel, TraceSource};
use std::collections::VecDeque;

record! {
    /// A merged requester waiting on one L1.5 miss.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    struct L15Target {
        core: CoreId,
        warp: WarpSlot,
    }
}

/// One cluster's shared L1.5 cache.
#[derive(Debug)]
pub struct L15Cluster {
    ctrl: CacheController<L15Target>,
    /// Requests ejected from the request mesh, awaiting service.
    incoming: VecDeque<MemRequest>,
    /// Misses/stores/atomics to forward towards the partitions.
    forward: VecDeque<MemRequest>,
    /// Responses ready to inject into the response mesh at `ready_at`.
    outgoing: VecDeque<(MemResponse, u64)>,
    /// Scratch for fill targets — reused so the steady-state fill path
    /// performs no heap allocation.
    target_scratch: Vec<L15Target>,
    latency: u64,
    /// Whether the head-of-line request stalled on MSHR resources and no
    /// fill has arrived since. Acceleration state: never serialized, reset
    /// on restore.
    parked: bool,
}

impl L15Cluster {
    /// Builds one shared L1.5 from the configured [`Hierarchy`]
    /// (`cfg.hierarchy` must be `SharedL15`). The MSHR file reuses the
    /// per-core L1 sizing — the level in front of it already rate-limits
    /// each core to one request per cycle.
    ///
    /// [`Hierarchy`]: crate::config::Hierarchy
    pub fn new(cfg: &GpuConfig) -> Self {
        let geom = cfg
            .l15_geometry()
            .expect("L15Cluster requires a SharedL15 hierarchy");
        let cache = Cache::new(CacheConfig::l1(geom, 0), Lru::new(&geom));
        L15Cluster {
            ctrl: CacheController::new(
                cache,
                cfg.l1_mshr_entries,
                cfg.l1_mshr_merge,
                AtomicHandling::Forward,
            ),
            incoming: VecDeque::new(),
            forward: VecDeque::new(),
            outgoing: VecDeque::new(),
            target_scratch: Vec::with_capacity(cfg.l1_mshr_merge),
            latency: cfg.l15_latency,
            parked: false,
        }
    }

    /// L1.5 cache statistics.
    pub fn stats(&self) -> &CacheStats {
        self.ctrl.stats()
    }

    /// Direct access to the cache (kernel-end flush, tests).
    pub fn cache_mut(&mut self) -> &mut Cache {
        self.ctrl.cache_mut()
    }

    /// Read access to the cache (telemetry inspection).
    pub fn cache(&self) -> &Cache {
        self.ctrl.cache()
    }

    /// Highest MSHR occupancy seen so far (telemetry gauge).
    pub fn mshr_peak(&self) -> usize {
        self.ctrl.mshr().peak_occupancy()
    }

    /// Attaches a shared event-trace ring to this cluster cache (fill
    /// events plus MSHR allocate/release events), tagged `L1.5#<cluster>`.
    pub fn attach_trace(&mut self, cluster: usize, ring: &SharedTraceRing) {
        let src = TraceSource::new(TraceLevel::L15, cluster as u16);
        self.ctrl.attach_trace(src, ring);
    }

    /// Whether everything has drained: no queued traffic in either
    /// direction and no outstanding misses.
    pub fn is_idle(&self) -> bool {
        self.incoming.is_empty()
            && self.forward.is_empty()
            && self.outgoing.is_empty()
            && self.ctrl.quiesced()
    }

    /// A lower bound on the cluster's next state-changing cycle (`None` =
    /// nothing internal pending; outstanding fills arrive through the
    /// response mesh, whose own `next_event` bounds them). Queued traffic
    /// pins the bound to the next cycle, except a parked head: only a
    /// fill can unblock it, and a fill is port input, which wakes the
    /// cluster anyway.
    pub fn next_event(&self, now: u64) -> Option<u64> {
        let mut ev: Option<u64> = None;
        let mut fold = |t: u64| ev = Some(ev.map_or(t, |e: u64| e.min(t)));
        if let Some(&(_, ready)) = self.outgoing.front() {
            fold(ready.max(now + 1));
        }
        if !self.forward.is_empty() || (!self.incoming.is_empty() && !self.parked) {
            fold(now + 1);
        }
        ev
    }

    /// One L1.5 cycle against its two mesh views: drain both ejection
    /// sides, serve at most one request, then inject while there is room.
    /// Generic over the port views so the component tests drive it with
    /// plain queue fakes.
    pub fn tick<RQ, RS>(&mut self, now: u64, req_io: &mut RQ, resp_io: &mut RS)
    where
        RQ: RxPort<MemRequest> + TxPort<MemRequest>,
        RS: RxPort<MemResponse> + TxPort<MemResponse>,
    {
        while let Some(resp) = resp_io.recv() {
            self.on_response(resp, now);
        }
        while let Some(req) = req_io.recv() {
            self.incoming.push_back(req);
        }
        self.serve_one(now);
        while TxPort::can_send(req_io) {
            let Some(&req) = self.forward.front() else {
                break;
            };
            req_io.send(req, now);
            self.forward.pop_front();
        }
        while TxPort::can_send(resp_io) {
            let Some(resp) = self.pop_response(now) else {
                break;
            };
            resp_io.send(resp, now);
        }
    }

    /// Applies one returning partition response: read fills release their
    /// merged targets (each receiving the L2's victim hint unchanged),
    /// atomic completions pass straight through to the requesting core.
    fn on_response(&mut self, resp: MemResponse, now: u64) {
        match resp.kind {
            AccessKind::Read => {
                // The fill frees an MSHR entry and may make the head hit.
                self.parked = false;
                let mut targets = std::mem::take(&mut self.target_scratch);
                self.ctrl
                    .fill_with(resp.line, &mut targets, |_| FillParams {
                        core: resp.core,
                        victim_hint: resp.victim_hint,
                        dirty: false,
                        class: resp.class,
                    });
                for t in &targets {
                    self.outgoing.push_back((
                        MemResponse {
                            core: t.core,
                            warp: t.warp,
                            ..resp
                        },
                        now,
                    ));
                }
                targets.clear();
                self.target_scratch = targets;
            }
            AccessKind::Atomic => self.outgoing.push_back((resp, now)),
            AccessKind::Write | AccessKind::CopyBack => {
                unreachable!("stores and copy-backs are fire-and-forget")
            }
        }
    }

    /// Serves at most one incoming request per cycle. The head is decoded
    /// and admitted once; a `Blocked` admission is never committed, so a
    /// stalled head does not perturb statistics or policy ageing while it
    /// waits. It parks until a fill, unprobed.
    fn serve_one(&mut self, now: u64) {
        let Some(&req) = self.incoming.front() else {
            return;
        };
        if self.parked {
            return;
        }
        if req.kind == AccessKind::CopyBack {
            // Clean copy-backs are maintenance traffic destined for the
            // L2: they pass straight through without touching the L1.5
            // lookup path (no hit/miss accounting, no policy ageing).
            self.forward.push_back(req);
            self.incoming.pop_front();
            return;
        }
        let geom = self.ctrl.cache().geometry();
        let (set, tag) = (geom.set_of(req.line), geom.tag_of(req.line));
        let admission = self.ctrl.admit(req.line, set, tag, req.kind);
        if let Admission::Blocked(_) = admission {
            self.parked = true;
            return;
        }
        let target = L15Target {
            core: req.core,
            warp: req.warp,
        };
        match self
            .ctrl
            .commit(admission, req.line, set, tag, req.kind, req.core, target)
        {
            // Forward the original request: the L2 sees the primary
            // requester's core id, so its victim bits observe real cores.
            ControllerOutcome::MissPrimary | ControllerOutcome::Forward => {
                self.forward.push_back(req);
            }
            ControllerOutcome::MissMerged | ControllerOutcome::Blocked(_) => {}
            ControllerOutcome::Hit { .. } => {
                // Only reads reach the hit path under write-through/
                // forward-atomics. An L1.5 hit never carries a hint: the
                // level keeps no victim bits (hints ride fills instead).
                self.outgoing.push_back((
                    MemResponse {
                        line: req.line,
                        kind: AccessKind::Read,
                        core: req.core,
                        warp: req.warp,
                        victim_hint: false,
                        class: req.class,
                    },
                    now + self.latency,
                ));
            }
        }
        self.incoming.pop_front();
    }

    /// Takes one response whose pipeline latency has elapsed.
    fn pop_response(&mut self, now: u64) -> Option<MemResponse> {
        match self.outgoing.front() {
            Some((_, ready)) if *ready <= now => self.outgoing.pop_front().map(|(r, _)| r),
            _ => None,
        }
    }
}

impl Snapshot for L15Cluster {
    /// Saves the controller (cache + MSHRs) and the three traffic queues.
    /// `latency` is configuration and `target_scratch` is reusable scratch
    /// — neither is serialized, and neither is the park bit: a restored
    /// head is probed on its next tick, which parks it again.
    fn save(&self, w: &mut SnapshotWriter) {
        w.section("l15", |w| {
            self.ctrl.save(w);
            w.put(&self.incoming);
            w.put(&self.forward);
            w.put(&self.outgoing);
        });
    }

    fn restore(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        r.section("l15", |r| {
            self.ctrl.restore(r)?;
            self.incoming = r.get()?;
            self.forward = r.get()?;
            self.outgoing = r.get()?;
            self.parked = false;
            Ok(())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Hierarchy;
    use gcache_core::addr::LineAddr;
    use gcache_core::rng::SmallRng;
    use gcache_core::snapshot::assert_round_trip;

    /// Queue-backed fake of a mesh port pair: `to_l15` is what the mesh
    /// would deliver, `from_l15` collects injections.
    struct FakeIo<M> {
        to_l15: VecDeque<M>,
        from_l15: Vec<M>,
        blocked: bool,
    }

    impl<M> Default for FakeIo<M> {
        fn default() -> Self {
            FakeIo {
                to_l15: VecDeque::new(),
                from_l15: Vec::new(),
                blocked: false,
            }
        }
    }

    impl<M> RxPort<M> for FakeIo<M> {
        fn recv(&mut self) -> Option<M> {
            self.to_l15.pop_front()
        }
    }

    impl<M> TxPort<M> for FakeIo<M> {
        fn can_send(&self) -> bool {
            !self.blocked
        }

        fn send(&mut self, msg: M, _now: u64) {
            self.from_l15.push(msg);
        }
    }

    fn cluster_cfg() -> GpuConfig {
        GpuConfig::fermi()
            .unwrap()
            .with_hierarchy(Hierarchy::SharedL15 {
                cluster_size: 4,
                kb: 64,
            })
            .unwrap()
    }

    fn cluster() -> L15Cluster {
        L15Cluster::new(&cluster_cfg())
    }

    fn read(line: u64, core: usize, warp: WarpSlot) -> MemRequest {
        MemRequest {
            line: LineAddr::new(line),
            kind: AccessKind::Read,
            core: CoreId(core),
            warp,
            class: None,
        }
    }

    fn io() -> (FakeIo<MemRequest>, FakeIo<MemResponse>) {
        (FakeIo::default(), FakeIo::default())
    }

    #[test]
    fn miss_forwards_then_fill_releases_and_later_reads_hit() {
        let mut l15 = cluster();
        let (mut rq, mut rs) = io();
        rq.to_l15.push_back(read(5, 0, 7));
        l15.tick(0, &mut rq, &mut rs);
        assert_eq!(
            rq.from_l15,
            vec![read(5, 0, 7)],
            "primary miss must forward"
        );
        assert!(rs.from_l15.is_empty());

        // A second core merges while the miss is outstanding.
        rq.to_l15.push_back(read(5, 2, 3));
        l15.tick(1, &mut rq, &mut rs);
        assert_eq!(rq.from_l15.len(), 1, "merged miss must not forward");

        // The fill releases both targets with the L2's hint attached.
        rs.to_l15.push_back(MemResponse {
            line: LineAddr::new(5),
            kind: AccessKind::Read,
            core: CoreId(0),
            warp: 7,
            victim_hint: true,
            class: None,
        });
        l15.tick(2, &mut rq, &mut rs);
        assert_eq!(rs.from_l15.len(), 2);
        assert_eq!(
            rs.from_l15
                .iter()
                .map(|r| (r.core, r.warp, r.victim_hint))
                .collect::<Vec<_>>(),
            vec![(CoreId(0), 7, true), (CoreId(2), 3, true)],
            "both cores get the fill's hint, in allocation order"
        );

        // A later read hits after the pipeline latency, without a hint.
        rq.to_l15.push_back(read(5, 1, 9));
        let t = 10;
        l15.tick(t, &mut rq, &mut rs);
        assert_eq!(rq.from_l15.len(), 1, "hit must not forward");
        assert_eq!(rs.from_l15.len(), 2, "hit response waits out the latency");
        let mut served_at = None;
        for now in t + 1..t + 40 {
            l15.tick(now, &mut rq, &mut rs);
            if rs.from_l15.len() == 3 {
                served_at = Some(now);
                break;
            }
        }
        assert_eq!(served_at, Some(t + 12), "fermi l15_latency is 12");
        assert!(!rs.from_l15[2].victim_hint);
        assert_eq!(l15.stats().hits(), 1);
        assert!(l15.is_idle());
    }

    #[test]
    fn stores_and_atomics_pass_through() {
        let mut l15 = cluster();
        let (mut rq, mut rs) = io();
        let write = MemRequest {
            line: LineAddr::new(8),
            kind: AccessKind::Write,
            core: CoreId(1),
            warp: 0,
            class: None,
        };
        let atomic = MemRequest {
            kind: AccessKind::Atomic,
            warp: 4,
            ..write
        };
        rq.to_l15.push_back(write);
        l15.tick(0, &mut rq, &mut rs);
        rq.to_l15.push_back(atomic);
        l15.tick(1, &mut rq, &mut rs);
        assert_eq!(rq.from_l15, vec![write, atomic]);
        // The atomic's completion passes straight through to the core.
        rs.to_l15.push_back(MemResponse {
            line: atomic.line,
            kind: AccessKind::Atomic,
            core: atomic.core,
            warp: atomic.warp,
            victim_hint: false,
            class: None,
        });
        l15.tick(2, &mut rq, &mut rs);
        assert_eq!(rs.from_l15.len(), 1);
        assert_eq!(rs.from_l15[0].kind, AccessKind::Atomic);
        assert!(l15.is_idle());
    }

    #[test]
    fn backpressure_holds_forwards_and_pins_next_event() {
        let mut l15 = cluster();
        let (mut rq, mut rs) = io();
        rq.blocked = true;
        rq.to_l15.push_back(read(5, 0, 0));
        l15.tick(0, &mut rq, &mut rs);
        assert!(rq.from_l15.is_empty(), "blocked port must hold the forward");
        assert_eq!(l15.next_event(0), Some(1), "held forward pins the bound");
        assert!(!l15.is_idle());
        rq.blocked = false;
        l15.tick(1, &mut rq, &mut rs);
        assert_eq!(rq.from_l15.len(), 1);
    }

    #[test]
    fn quiet_cluster_reports_no_internal_event() {
        let l15 = cluster();
        assert_eq!(l15.next_event(0), None);
        assert!(l15.is_idle());
    }

    #[test]
    fn target_round_trips_through_a_snapshot() {
        assert_round_trip(&L15Target {
            core: CoreId(1),
            warp: 2,
        });
    }

    /// One seeded case: a cluster with a tiny MSHR file (so heads park),
    /// a core-request script `(cycle, request)` that ignores the cluster's
    /// state, and the two ports refusing sends every `block[0]` /
    /// `block[1]` cycles.
    struct Case {
        cfg: GpuConfig,
        script: Vec<(u64, MemRequest)>,
        block: [u64; 2],
    }

    fn cases() -> Vec<Case> {
        const KINDS: [AccessKind; 4] = [
            AccessKind::Read,
            AccessKind::Write,
            AccessKind::Atomic,
            AccessKind::CopyBack,
        ];
        (0..48u64)
            .map(|case| {
                let mut rng = SmallRng::seed_from_u64(0x1150 ^ case);
                let cfg = GpuConfig {
                    l1_mshr_entries: rng.gen_range(1..5) as usize,
                    l1_mshr_merge: rng.gen_range(1..3) as usize,
                    ..cluster_cfg()
                };
                let load = rng.gen_range(8..64);
                let mut script = Vec::new();
                for cycle in 1..400 {
                    for _ in 0..2 {
                        if rng.gen_range(0..64) >= load {
                            continue;
                        }
                        let kind = KINDS[[0, 0, 0, 0, 1, 2, 3, 3][rng.gen_range(0..8) as usize]];
                        let line = rng.gen_range(0..24);
                        let core = rng.gen_range(0..4) as usize;
                        script.push((
                            cycle,
                            MemRequest {
                                kind,
                                ..read(line, core, script.len())
                            },
                        ));
                    }
                }
                Case {
                    cfg,
                    script,
                    block: [rng.gen_range(3..9), rng.gen_range(3..9)],
                }
            })
            .collect()
    }

    /// The partitions' side of a forwarded request: a read's fill or an
    /// atomic's completion, `(due cycle, response)`; stores and
    /// copy-backs get none.
    fn answer(req: MemRequest, now: u64) -> Option<(u64, MemResponse)> {
        let latency = 5 + (req.line.raw() * 7 + now) % 30;
        let resp = MemResponse {
            line: req.line,
            kind: req.kind,
            core: req.core,
            warp: req.warp,
            victim_hint: req.line.raw().is_multiple_of(3),
            class: None,
        };
        matches!(req.kind, AccessKind::Read | AccessKind::Atomic).then_some((now + latency, resp))
    }

    /// What a driver saw of one cluster over a case.
    struct Run {
        /// Every request forwarded and every response sent to a core, with
        /// its cycle.
        forwarded: Vec<(u64, MemRequest)>,
        responses: Vec<(u64, MemResponse)>,
        /// Snapshots: mid-stream and at the end.
        bytes: Vec<Vec<u8>>,
        end: L15Cluster,
        parked: bool,
        ticks: u64,
    }

    fn bytes_of(l15: &L15Cluster) -> Vec<u8> {
        let mut w = SnapshotWriter::new();
        l15.save(&mut w);
        w.finish()
    }

    /// Drives a cluster over `case` the way [`crate::system::Gated`] does
    /// when `gated` (ticked only at its `next_event` bound or when a port
    /// holds input), else ticked every cycle and never left parked — the
    /// reference. At `restore_at`, an arrival cycle, it is saved and
    /// restored into a fresh cluster.
    fn drive(case: &Case, gated: bool, restore_at: u64) -> Run {
        let mut l15 = L15Cluster::new(&case.cfg);
        let (mut rq, mut rs) = io();
        let mut due: Vec<(u64, MemResponse)> = Vec::new();
        let (mut forwarded, mut responses, mut bytes) = (Vec::new(), Vec::new(), Vec::new());
        let (mut parked, mut ticks) = (false, 0);
        let (mut now, mut next, mut wake) = (0, 0, 0);
        while next < case.script.len() || !due.is_empty() || !l15.is_idle() {
            now += 1;
            assert!(now < 100_000, "cluster failed to drain");
            while let Some(&(_, req)) = case.script.get(next).filter(|&&(at, _)| at == now) {
                rq.to_l15.push_back(req);
                next += 1;
            }
            rs.to_l15
                .extend(due.iter().filter(|d| d.0 == now).map(|d| d.1));
            due.retain(|d| d.0 != now);
            let input = !rq.to_l15.is_empty() || !rs.to_l15.is_empty();
            if gated && now < wake && !input {
                continue;
            }
            rq.blocked = now % case.block[0] == 0;
            rs.blocked = now % case.block[1] == 0;
            if !gated {
                // The reference re-probes its head on every tick.
                l15.parked = false;
            }
            l15.tick(now, &mut rq, &mut rs);
            ticks += 1;
            parked |= l15.parked;
            for req in std::mem::take(&mut rq.from_l15) {
                forwarded.push((now, req));
                due.extend(answer(req, now));
            }
            responses.extend(rs.from_l15.drain(..).map(|r| (now, r)));
            wake = l15.next_event(now).unwrap_or(u64::MAX);
            if now == restore_at {
                bytes.push(bytes_of(&l15));
                l15 = L15Cluster::new(&case.cfg);
                l15.restore(&mut SnapshotReader::new(&bytes[0]).unwrap())
                    .unwrap();
                wake = 0;
            }
        }
        bytes.push(bytes_of(&l15));
        Run {
            forwarded,
            responses,
            bytes,
            end: l15,
            parked,
            ticks,
        }
    }

    /// Seeded property: a cluster ticked only when it asks (or when a port
    /// holds input, which is how a fill reaches it) forwards and answers
    /// the same traffic on the same cycles as one ticked every cycle that
    /// re-probes its stalled head each time, and holds the same statistics
    /// and bytes, across a mid-stream save and restore.
    #[test]
    fn gated_cluster_matches_every_cycle_cluster() {
        let mut parked = 0;
        for (i, case) in cases().iter().enumerate() {
            let restore_at = case.script[case.script.len() / 2].0;
            let every = drive(case, false, restore_at);
            let gated = drive(case, true, restore_at);
            assert_eq!(gated.forwarded, every.forwarded, "case {i}");
            assert_eq!(gated.responses, every.responses, "case {i}");
            assert_eq!(gated.end.stats(), every.end.stats(), "case {i}");
            assert!(gated.bytes == every.bytes, "case {i}: saved state differs");
            assert!(gated.ticks < every.ticks, "case {i}: gating elided nothing");
            parked += u64::from(gated.parked);
        }
        assert!(parked > 0, "no case parked its head");
    }
}
