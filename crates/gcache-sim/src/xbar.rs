//! The core↔L1.5 cluster crossbar.
//!
//! PR 4 wired each cluster's cores to their shared L1.5 *through the
//! cluster's single mesh node*, so every request and every 5-flit fill
//! response of a 4- or 8-core cluster serialised through one injection
//! port — an artificial bandwidth cliff that dominated the clustered
//! results (`results/hierarchy.txt` geomeans of 0.70×/0.47× vs flat).
//! [`ClusterXbar`] replaces that link with an explicitly modeled
//! crossbar: per-source bounded input queues, a configurable number of
//! transfer ports each serialising one packet at a time
//! (`busy_until = now + flits`), round-robin arbitration over sources,
//! and a fixed traversal latency. With `ports ≥ 2` a cluster can move
//! several packets between its cores and its L1.5 concurrently; the
//! mesh still carries all L1.5↔partition traffic.
//!
//! `--cluster-ports 1` (the default) keeps the PR 4 wiring over the
//! mesh node itself — the degenerate serialization-equivalent setting,
//! bit-for-bit reproducing the previous results — so the crossbar's
//! effect can be isolated from the L1.5 capacity effect.

use std::collections::VecDeque;

use crate::clocked::Clocked;
use gcache_core::record;
use gcache_core::snapshot::{Codec, Snapshot, SnapshotError, SnapshotReader, SnapshotWriter};

record! {
    /// Aggregate crossbar statistics (both lanes of one cluster, or summed
    /// over clusters by [`crate::system::Interconnect::xbar_stats`]).
    #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
    pub struct XbarStats {
        /// Packets granted a transfer port.
        pub grants: u64,
        /// Port·cycles spent serialising packets — divide by
        /// `ports × cycles` for mean port occupancy.
        pub flit_cycles: u64,
        /// Failed enqueue attempts (source queue full).
        pub inject_fails: u64,
    }
    impl merge;
}

/// One direction of the crossbar: `sources` bounded input queues feeding
/// `dsts` delivery queues through `ports` serialising transfer ports.
///
/// The up lane of a cluster is `cluster_size → 1` ([`crate::request::MemRequest`]s
/// towards the L1.5); the down lane is `1 → cluster_size`
/// ([`crate::request::MemResponse`]s back to the cores).
#[derive(Debug)]
pub struct XbarLane<T> {
    queue_cap: usize,
    latency: u64,
    /// Per-source FIFO: `(flits, ready_at, dst, payload)`.
    queues: Vec<VecDeque<(u32, u64, usize, T)>>,
    /// Cycle until which each transfer port is serialising a packet.
    port_busy: Vec<u64>,
    /// Round-robin source cursor.
    rr: usize,
    /// Packets in traversal, arrival-ordered (grants are issued in time
    /// order and the latency is constant): `(arrive_at, dst, payload)`.
    in_flight: VecDeque<(u64, usize, T)>,
    /// Per-destination delivery queues (drained by the consumer's tick,
    /// unbounded like the mesh's delivered queues).
    delivered: Vec<VecDeque<T>>,
    /// Packets anywhere in the lane, for O(1) idle checks.
    occupancy: usize,
    stats: XbarStats,
}

impl<T> XbarLane<T> {
    fn new(sources: usize, dsts: usize, ports: usize, queue_cap: usize, latency: u64) -> Self {
        assert!(sources > 0 && dsts > 0 && ports > 0 && queue_cap > 0);
        XbarLane {
            queue_cap,
            latency: latency.max(1),
            queues: (0..sources).map(|_| VecDeque::new()).collect(),
            port_busy: vec![0; ports],
            rr: 0,
            in_flight: VecDeque::new(),
            delivered: (0..dsts).map(|_| VecDeque::new()).collect(),
            occupancy: 0,
            stats: XbarStats::default(),
        }
    }

    /// Whether source `src`'s input queue has room.
    pub fn can_accept(&self, src: usize) -> bool {
        self.queues[src].len() < self.queue_cap
    }

    /// Enqueues a packet at source `src` bound for `dst`. Mirrors
    /// [`crate::icnt::Mesh::inject_at`]: the packet becomes eligible for
    /// arbitration the following cycle, and a full queue counts an
    /// inject-fail and drops nothing (the caller gates on
    /// [`XbarLane::can_accept`] and retries).
    pub fn push(&mut self, src: usize, dst: usize, flits: u32, payload: T, now: u64) -> bool {
        if self.queues[src].len() >= self.queue_cap {
            self.stats.inject_fails += 1;
            return false;
        }
        self.queues[src].push_back((flits.max(1), now + 1, dst, payload));
        self.occupancy += 1;
        true
    }

    /// Whether a delivered packet awaits the consumer at `dst`.
    pub fn has_delivered(&self, dst: usize) -> bool {
        !self.delivered[dst].is_empty()
    }

    /// Takes one delivered packet at `dst`, if any.
    pub fn eject(&mut self, dst: usize) -> Option<T> {
        let p = self.delivered[dst].pop_front();
        if p.is_some() {
            self.occupancy -= 1;
        }
        p
    }

    /// Lane statistics so far.
    pub const fn stats(&self) -> &XbarStats {
        &self.stats
    }

    /// Whether any packet is queued, in traversal or awaiting ejection.
    pub fn is_idle(&self) -> bool {
        self.occupancy == 0
    }

    fn tick(&mut self, now: u64) {
        if self.occupancy == 0 {
            return;
        }
        // Arrivals first: packets whose traversal completes this cycle
        // become visible to their destination's tick.
        while let Some(&(arrive, dst, _)) = self.in_flight.front() {
            if arrive > now {
                break;
            }
            let (_, _, payload) = self.in_flight.pop_front().expect("non-empty front");
            self.delivered[dst].push_back(payload);
        }
        // Arbitration: each free port grants one ready head, round-robin
        // over sources; a source wins at most one port per cycle (its
        // queue head moves, and the next packet only becomes eligible
        // next cycle if it was pushed this one — but an older queued
        // packet is ready, so cap grants per source explicitly by
        // advancing the cursor past granted sources).
        let sources = self.queues.len();
        for port in 0..self.port_busy.len() {
            if self.port_busy[port] > now {
                continue;
            }
            let start = self.rr;
            let mut granted = None;
            for k in 0..sources {
                let src = (start + k) % sources;
                if let Some(&(_, ready_at, _, _)) = self.queues[src].front() {
                    if ready_at <= now {
                        granted = Some(src);
                        break;
                    }
                }
            }
            let Some(src) = granted else { break };
            let (flits, _, dst, payload) = self.queues[src].pop_front().expect("ready head");
            self.port_busy[port] = now + u64::from(flits);
            self.in_flight.push_back((now + self.latency, dst, payload));
            self.stats.grants += 1;
            self.stats.flit_cycles += u64::from(flits);
            self.rr = (src + 1) % sources;
        }
    }

    /// Conservative lower bound on the lane's next state change.
    fn next_event(&self, now: u64) -> Option<u64> {
        if self.occupancy == 0 {
            return None;
        }
        // Delivered packets pin the consumer at the next cycle, and a
        // queued head may be granted as soon as both it and a port are
        // free; the in-flight front arrives at a known cycle.
        if self.delivered.iter().any(|d| !d.is_empty()) {
            return Some(now + 1);
        }
        let mut ev = u64::MAX;
        if let Some(&(arrive, _, _)) = self.in_flight.front() {
            ev = ev.min(arrive);
        }
        let free_port = self.port_busy.iter().copied().min().unwrap_or(u64::MAX);
        for q in &self.queues {
            if let Some(&(_, ready_at, _, _)) = q.front() {
                ev = ev.min(ready_at.max(free_port));
            }
        }
        if ev == u64::MAX {
            None
        } else {
            Some(ev.max(now + 1))
        }
    }
}

impl<T: Codec> Snapshot for XbarLane<T> {
    /// Saves the input queues, port serialisation windows, round-robin
    /// cursor, in-traversal packets, delivery queues and statistics.
    /// `occupancy` is recounted on restore rather than trusted from the
    /// snapshot.
    fn save(&self, w: &mut SnapshotWriter) {
        w.section("xbar_lane", |w| {
            w.put(&self.queues);
            w.put(&self.port_busy);
            w.usize(self.rr);
            w.put(&self.in_flight);
            w.put(&self.delivered);
            w.put(&self.stats);
        });
    }

    fn restore(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        r.section("xbar_lane", |r| {
            r.fill(&mut self.queues, "crossbar sources")?;
            r.fill(&mut self.port_busy, "crossbar ports")?;
            self.rr = r.usize()?;
            self.in_flight = r.get()?;
            r.fill(&mut self.delivered, "crossbar sinks")?;
            self.occupancy = self.in_flight.len()
                + self.queues.iter().map(VecDeque::len).sum::<usize>()
                + self.delivered.iter().map(VecDeque::len).sum::<usize>();
            self.stats = r.get()?;
            Ok(())
        })
    }
}

impl Snapshot for ClusterXbar {
    fn save(&self, w: &mut SnapshotWriter) {
        w.section("xbar", |w| {
            self.up.save(w);
            self.down.save(w);
        });
    }

    fn restore(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        r.section("xbar", |r| {
            self.up.restore(r)?;
            self.down.restore(r)
        })
    }
}

/// A cluster's two crossbar lanes: requests up (cores → shared L1.5) and
/// responses down (L1.5 → cores). The lanes are independent fields so the
/// interconnect can hand out disjoint mutable views of them (a core's
/// receive side borrows `down` while its send side borrows `up`).
#[derive(Debug)]
pub struct ClusterXbar {
    /// Requests towards the L1.5: `cluster_size` sources, one sink.
    pub(crate) up: XbarLane<crate::request::MemRequest>,
    /// Responses towards the cores: one source, `cluster_size` sinks.
    pub(crate) down: XbarLane<crate::request::MemResponse>,
}

impl ClusterXbar {
    /// Builds the two lanes of one cluster's crossbar: `ports` transfer
    /// ports per lane, per-source input queues of `queue_cap`, and a
    /// fixed `latency`-cycle traversal (the modeled analogue of one mesh
    /// hop).
    pub fn new(cluster_size: usize, ports: usize, queue_cap: usize, latency: u64) -> Self {
        ClusterXbar {
            up: XbarLane::new(cluster_size, 1, ports, queue_cap, latency),
            down: XbarLane::new(1, cluster_size, ports, queue_cap, latency),
        }
    }

    /// Combined statistics of both lanes.
    pub fn stats(&self) -> XbarStats {
        let mut both = *self.up.stats();
        both.merge(self.down.stats());
        both
    }

    /// Gauge: packets anywhere in either lane (telemetry).
    pub const fn in_flight(&self) -> usize {
        self.up.occupancy + self.down.occupancy
    }
}

impl Clocked for ClusterXbar {
    fn tick(&mut self, now: u64) {
        self.up.tick(now);
        self.down.tick(now);
    }

    fn is_idle(&self) -> bool {
        self.up.is_idle() && self.down.is_idle()
    }

    fn next_event(&self, now: u64) -> Option<u64> {
        crate::clocked::min_event(self.up.next_event(now), self.down.next_event(now))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::{MemRequest, MemResponse};
    use gcache_core::addr::{CoreId, LineAddr};
    use gcache_core::policy::AccessKind;
    use gcache_core::snapshot::assert_round_trip;

    fn req(core: usize, line: u64) -> MemRequest {
        MemRequest {
            line: LineAddr::new(line),
            kind: AccessKind::Read,
            core: CoreId(core),
            warp: 0,
            class: None,
        }
    }

    fn resp(core: usize, line: u64) -> MemResponse {
        MemResponse {
            line: LineAddr::new(line),
            kind: AccessKind::Read,
            core: CoreId(core),
            warp: 0,
            victim_hint: false,
            class: None,
        }
    }

    #[test]
    fn up_lane_delivers_after_latency() {
        let mut xb = ClusterXbar::new(4, 2, 8, 3);
        assert!(xb.up.can_accept(0));
        assert!(xb.up.push(0, 0, 1, req(0, 7), 0));
        // Pushed at 0: eligible at 1, arrives at 1 + 3 = 4.
        for now in 1..=3 {
            xb.tick(now);
            assert!(!xb.up.has_delivered(0), "early at {now}");
        }
        xb.tick(4);
        assert_eq!(xb.up.eject(0), Some(req(0, 7)));
        assert!(xb.is_idle());
    }

    #[test]
    fn ports_bound_concurrent_transfers() {
        // Four 4-flit responses to distinct cores through 1 port vs 2
        // ports: doubling the ports roughly halves the drain time.
        let drain = |ports: usize| {
            let mut xb = ClusterXbar::new(4, ports, 8, 1);
            for c in 0..4 {
                assert!(xb.down.push(0, c, 4, resp(c, c as u64), 0));
            }
            for now in 1..100 {
                xb.tick(now);
                for c in 0..4 {
                    xb.down.eject(c);
                }
                if xb.is_idle() {
                    return now;
                }
            }
            panic!("never drained");
        };
        let one = drain(1);
        let two = drain(2);
        assert!(
            two + 3 < one,
            "2 ports ({two}) should beat 1 port ({one}) clearly"
        );
    }

    #[test]
    fn round_robin_over_sources_is_fair() {
        // All four cores flood the up lane; the single sink must see
        // grants interleaved, not one source drained to exhaustion.
        let mut xb = ClusterXbar::new(4, 1, 8, 1);
        for c in 0..4 {
            for i in 0..4 {
                assert!(xb.up.push(c, 0, 1, req(c, (c * 10 + i) as u64), 0));
            }
        }
        let mut order = Vec::new();
        for now in 1..100 {
            xb.tick(now);
            while let Some(r) = xb.up.eject(0) {
                order.push(r.core.index());
            }
        }
        assert_eq!(order.len(), 16);
        assert_eq!(
            &order[..4],
            &[0, 1, 2, 3],
            "first lap must visit all sources"
        );
        assert_eq!(xb.stats().grants, 16);
    }

    #[test]
    fn backpressure_counts_inject_fails() {
        let mut xb = ClusterXbar::new(2, 1, 2, 1);
        assert!(xb.up.push(0, 0, 1, req(0, 0), 0));
        assert!(xb.up.push(0, 0, 1, req(0, 1), 0));
        assert!(!xb.up.can_accept(0));
        assert!(!xb.up.push(0, 0, 1, req(0, 2), 0));
        assert_eq!(xb.stats().inject_fails, 1);
        // The other source still has room.
        assert!(xb.up.can_accept(1));
    }

    #[test]
    fn next_event_bounds_progress() {
        let mut xb = ClusterXbar::new(2, 1, 4, 5);
        assert_eq!(Clocked::next_event(&xb, 0), None);
        xb.up.push(0, 0, 1, req(0, 0), 0);
        // Head ready at 1, all ports free: grantable next cycle.
        assert_eq!(Clocked::next_event(&xb, 0), Some(1));
        xb.tick(1);
        // In traversal until 1 + 5 = 6.
        assert_eq!(Clocked::next_event(&xb, 1), Some(6));
        for now in 2..=6 {
            xb.tick(now);
        }
        assert!(xb.up.has_delivered(0));
        assert_eq!(Clocked::next_event(&xb, 6), Some(7));
    }

    #[test]
    fn stats_round_trip_through_a_snapshot() {
        assert_round_trip(&XbarStats {
            grants: 1,
            flit_cycles: 2,
            inject_fails: 3,
        });
    }
}
