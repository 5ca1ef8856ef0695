//! The 2D-mesh interconnection network between SIMT cores and memory
//! partitions (Table 2: 2D mesh, 32 B channel width).
//!
//! Routers use dimension-ordered (XY) routing with per-input FIFO queues,
//! round-robin output arbitration, per-hop pipeline latency and per-packet
//! link serialisation (a packet of *n* flits holds its output port for *n*
//! cycles — virtual cut-through at packet granularity). Backpressure is
//! modelled with bounded input queues; injection fails when the local
//! queue is full, and the GPU runs *separate request and response meshes*
//! to rule out protocol deadlock.
//!
//! ## Hot-path layout
//!
//! The mesh is the simulator's most-ticked component, and counters on
//! paper-scale BFS and SPMV (all six designs) say its gating already
//! works: 3.1–5.2 router visits against 3.0–4.1 packet moves per mesh
//! tick, under 6 % of ticks gated away whole. What a tick costs is
//! therefore what a *visit* costs, so the layout is built around one
//! visit moving as few bytes and taking as few data-dependent branches as
//! the model allows:
//!
//! - **Packets are written once.** `payload` and `injected_at`, which no
//!   router reads, go into a preallocated pool (one record per queue
//!   slot, LIFO free list so a lightly loaded mesh keeps reusing the same
//!   hot records) at [`Mesh::inject_at`] and come out at delivery.
//! - **A hop moves one 24-byte `Copy` record** (`Hop`: `ready_at`, pool
//!   handle, `dst`, `flits`, `out`) between ring buffers over one
//!   preallocated array, indexed by `(node, input port, ring position)`.
//!   A drained ring restarts at position 0, so a queue that holds one
//!   packet at a time touches one slot, not all `queue_cap` in turn.
//! - **One packed record per router** (`Router`) holds everything
//!   arbitration reads: each input's head `ready_at` and `out` (an exact
//!   mirror of the ring's front, `EMPTY` for an empty queue), the ring
//!   cursors, each output's serialisation window, the round-robin cursor
//!   and `want[out]`, the mask of inputs whose head leaves through `out`.
//!   All of it is maintained at every push and pop, never recomputed.
//! - **Arbitration is word arithmetic.** A visit folds five compares into
//!   a `ready` word and the word of outputs those ready heads leave
//!   through, walks that word by `trailing_zeros`, and picks the
//!   round-robin winner of `want[out] & ready` with a rotate and a
//!   `trailing_zeros`. A head exposed by a pop rejoins the scan only if
//!   its output is still ahead of it — the order the per-output probe
//!   loop of the reference model (`RefMesh`, in this file's tests)
//!   produces, which two property tests hold this mesh to. Head updates
//!   are selects, not empty/non-empty branches.
//! - **Tables instead of ladders.** XY routes come from per-node `(x, y)`
//!   (no division) and a 9-entry table indexed by the two three-way
//!   compares; the neighbour across a port and the port it arrives on are
//!   5-entry tables. Routes are computed once per hop, when a packet
//!   enters a router, never during arbitration.
//! - **The router scan is a due-mask.** Every router carries a movement
//!   bound `rwake` (the min over its heads of `max(ready_at,
//!   out_busy[out])`, `u64::MAX` when it holds nothing); a tick builds
//!   one `u64` of due routers per 64 nodes from it without a branch and
//!   visits only the set bits.
//!
//! The mesh-level `wake`, which the gated [`Mesh::tick`] returns early on
//! and [`crate::clocked::Clocked::next_event`] reports in O(1), is the
//! minimum of every router's bound *and of the tick's arrivals*. The
//! second term looks redundant — a hop clamps the bound of the router it
//! lands in — but a router visited after the hop landed recomputes its
//! bound from its heads, and if the newcomer sits mid-queue or behind a
//! busy output that bound is later than the arrival. `wake` then
//! undershoots the true bound by design: the run loop's fast-forward
//! jumps to it, so a tighter value would change which cycles are ticked
//! (`gpu.ticked_cycles` and `gpu.wake_skips`, which the benchmark ledger
//! compares exactly across commits) for a no-op tick's worth of saving.
//! `wake_counts_the_ticks_arrivals` pins the term.
//!
//! Only packets, serialisation windows, round-robin cursors, delivered
//! packets and statistics are saved. Everything else above — pool
//! handles, ring positions, head mirrors, `want` masks, occupancy
//! counters, wake words, and each packet's `out`, which is
//! `route(node, dst)` — is derived: restore rebuilds it by replaying the
//! pushes and rejects a saved `out` that disagrees with the route.

use gcache_core::record;
use gcache_core::snapshot::{Codec, Snapshot, SnapshotError, SnapshotReader, SnapshotWriter};
use std::collections::VecDeque;
use std::fmt;

/// Output/input port indices.
const NORTH: usize = 0;
const EAST: usize = 1;
const SOUTH: usize = 2;
const WEST: usize = 3;
const LOCAL: usize = 4;
const PORTS: usize = 5;

/// Sentinel `ready_at` of an empty input queue's head mirror. No packet
/// carries it: it compares later than every `now`, so an empty queue is
/// never ready and drops out of every wake minimum by itself.
const EMPTY: u64 = u64::MAX;

/// The input port at the neighbour that a packet leaving through each
/// output port arrives on.
const OPPOSITE: [usize; PORTS] = [SOUTH, WEST, NORTH, EAST, LOCAL];

/// XY routing decision, indexed by `3 * cmp(dst.x, x) + cmp(dst.y, y)`
/// with `cmp` = 0 below, 1 equal, 2 above: close the X distance first,
/// then Y, then deliver.
const XY_PORT: [u8; 9] = [
    WEST as u8,
    WEST as u8,
    WEST as u8,
    NORTH as u8,
    LOCAL as u8,
    SOUTH as u8,
    EAST as u8,
    EAST as u8,
    EAST as u8,
];

record! {
    /// Aggregate network statistics.
    #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
    pub struct NocStats {
        /// Packets successfully injected.
        pub packets: u64,
        /// Total flits injected.
        pub flits: u64,
        /// Packets delivered to their destination's local port.
        pub delivered: u64,
        /// Failed injection attempts (local queue full).
        pub inject_fails: u64,
        /// Sum of per-packet latencies (inject → delivery), for averaging.
        pub total_latency: u64,
    }
}

impl NocStats {
    /// Mean packet latency in cycles; 0 if nothing was delivered.
    pub fn mean_latency(&self) -> f64 {
        if self.delivered == 0 {
            0.0
        } else {
            self.total_latency as f64 / self.delivered as f64
        }
    }

    /// Injection-failure rate: failed attempts over all attempts (0 if
    /// nothing was ever offered).
    pub fn inject_fail_rate(&self) -> f64 {
        let attempts = self.packets + self.inject_fails;
        if attempts == 0 {
            0.0
        } else {
            self.inject_fails as f64 / attempts as f64
        }
    }
}

/// A W×H mesh carrying packets with payload `T`.
///
/// # Examples
///
/// ```
/// use gcache_sim::icnt::Mesh;
///
/// let mut mesh: Mesh<&str> = Mesh::new(3, 3, 8, 1, 1);
/// mesh.inject(0, 8, 1, "hello").unwrap();
/// // Node 0 -> node 8 is 4 hops; tick until delivery.
/// let mut got = None;
/// for cycle in 1..100 {
///     mesh.tick(cycle);
///     if let Some(p) = mesh.eject(8) {
///         got = Some(p);
///         break;
///     }
/// }
/// assert_eq!(got, Some("hello"));
/// ```
#[derive(Debug)]
pub struct Mesh<T> {
    queue_cap: usize,
    hop_latency: u64,
    min_serialization: u32,
    /// `(x, y)` of each node, so routing divides nothing.
    xy: Vec<[u32; 2]>,
    /// Node-index step across each output port (`-width`, `+1`, `+width`,
    /// `-1`, `0`, in wrapping arithmetic). XY routes never leave the
    /// grid, so the sum is a node.
    step: [usize; PORTS],
    /// What no router reads of each packet in the network, written at
    /// injection and read at delivery.
    pool: PacketPool<T>,
    /// Ring storage of every input queue: queue `q = node * PORTS + port`
    /// owns `hops[q * queue_cap..][..queue_cap]`, its cursors live in the
    /// router record.
    hops: Vec<Hop>,
    routers: Vec<Router>,
    /// Delivered payloads awaiting each node's local consumer.
    delivered: Vec<VecDeque<(T, u64)>>,
    stats: NocStats,
    /// When event gating is on, [`Mesh::tick`] returns immediately on
    /// cycles before `wake` and visits only routers whose own bound has
    /// passed; when off, it visits every router that holds a packet.
    event_gated: bool,
    /// Lower bound on the next cycle any queued packet can move: the
    /// minimum of `rwake` and of the last tick's arrivals (module doc),
    /// reset by [`Mesh::inject_at`] (the only external way the mesh gains
    /// work).
    wake: u64,
    /// Per-router movement bound: while `now < rwake[n]` router `n`
    /// provably cannot move a packet, and `u64::MAX` means it holds none.
    /// Undershooting (pushes clamp it to the packet's arrival cycle even
    /// when the packet lands mid-queue) costs a fruitless visit, never
    /// correctness.
    rwake: Vec<u64>,
    /// Packets sitting in `delivered` queues, kept as a counter so
    /// [`crate::clocked::Clocked::next_event`] need not scan for them.
    /// Pending deliveries pin the *consumer's* next tick at `now + 1`, but
    /// do not require the mesh itself to tick (ejection is pull-based).
    pending: usize,
    /// Per-node `delivered` queue lengths, mirrored into a flat array so
    /// the per-cycle "anything for me?" probes of gated consumers read one
    /// contiguous counter instead of touching the router.
    delivered_len: Vec<u32>,
    /// Per-node local input queue lengths, mirrored likewise for the
    /// injection-capacity probes.
    local_len: Vec<u32>,
    /// Packets sitting in any input queue (injected or between hops), so
    /// the end-of-kernel idle barrier is a pair of counter reads.
    in_network: usize,
}

/// What a ring slot holds and a hop moves: the fields routers read.
#[derive(Clone, Copy, Debug, Default)]
struct Hop {
    ready_at: u64,
    /// The packet's record in the pool.
    handle: u32,
    dst: u32,
    flits: u32,
    /// Output port at the router whose queue this sits in.
    out: u8,
}

/// Everything arbitration at one router reads, in one record.
#[derive(Clone, Copy, Debug)]
struct Router {
    /// `ready_at` of each input queue's head; `EMPTY` iff the queue is.
    head_ready: [u64; PORTS],
    /// Cycle until which each output port is serialising a packet.
    out_busy: [u64; PORTS],
    /// Ring position of each input queue's head; 0 while it is empty.
    q_head: [u16; PORTS],
    /// Occupancy of each input queue.
    q_len: [u16; PORTS],
    /// `out` of each input queue's head (stale while the queue is empty).
    head_out: [u8; PORTS],
    /// Per output port, the inputs whose head leaves through it.
    want: [u8; PORTS],
    /// Round-robin input cursor.
    rr: u8,
}

impl Router {
    const IDLE: Router = Router {
        head_ready: [EMPTY; PORTS],
        out_busy: [0; PORTS],
        q_head: [0; PORTS],
        q_len: [0; PORTS],
        head_out: [0; PORTS],
        want: [0; PORTS],
        rr: 0,
    };

    /// Earliest cycle a head here clears both its pipeline delay and its
    /// output's serialisation window; `EMPTY` if there is no head. A head
    /// blocked only by downstream backpressure yields a bound in the
    /// past, which callers clamp to "retry next cycle".
    #[inline]
    fn movement_bound(&self) -> u64 {
        let mut bound = EMPTY;
        for input in 0..PORTS {
            let busy = self.out_busy[self.head_out[input] as usize];
            bound = bound.min(self.head_ready[input].max(busy));
        }
        bound
    }
}

/// The part of a packet no router reads, parked from injection to
/// delivery. One record per queue slot, so the pool cannot run dry while
/// the queues have room; freed handles are reused last-out-first.
#[derive(Debug)]
struct PacketPool<T> {
    /// `(injected_at, payload)` by handle; `None` while the record is free.
    records: Vec<(u64, Option<T>)>,
    free: Vec<u32>,
}

impl<T> PacketPool<T> {
    fn new(capacity: u32) -> Self {
        PacketPool {
            records: (0..capacity).map(|_| (0, None)).collect(),
            free: (0..capacity).rev().collect(),
        }
    }

    #[inline]
    fn insert(&mut self, injected_at: u64, payload: T) -> u32 {
        let handle = self.free.pop().expect("one pool record per queue slot");
        self.records[handle as usize] = (injected_at, Some(payload));
        handle
    }

    /// Takes `(injected_at, payload)` out and frees the record.
    #[inline]
    fn remove(&mut self, handle: u32) -> (u64, T) {
        let record = &mut self.records[handle as usize];
        let payload = record.1.take().expect("handle of a queued packet");
        self.free.push(handle);
        (record.0, payload)
    }

    fn get(&self, handle: u32) -> (u64, &T) {
        let record = &self.records[handle as usize];
        (
            record.0,
            record.1.as_ref().expect("handle of a queued packet"),
        )
    }

    fn clear(&mut self) {
        *self = Self::new(self.records.len() as u32);
    }
}

/// Error returned by [`Mesh::inject`] when the source's local input queue
/// is full; the caller must stall and retry.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct InjectFull;

impl fmt::Display for InjectFull {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("network injection queue full")
    }
}

impl std::error::Error for InjectFull {}

impl<T> Mesh<T> {
    /// Creates a mesh. All queue storage is preallocated here — the
    /// steady-state tick loop never allocates.
    ///
    /// # Panics
    ///
    /// Panics if any dimension, the queue capacity or the hop latency is
    /// zero, the queue capacity exceeds `u16::MAX`, or the mesh has more
    /// than `u32::MAX` queue slots.
    pub fn new(
        width: usize,
        height: usize,
        queue_cap: usize,
        hop_latency: u64,
        min_serialization: u32,
    ) -> Self {
        assert!(width > 0 && height > 0, "mesh dimensions must be positive");
        assert!(queue_cap > 0, "queue capacity must be positive");
        assert!(queue_cap <= u16::MAX as usize, "queue capacity too large");
        assert!(hop_latency > 0, "hop latency must be positive");
        let nodes = width * height;
        let slot_count = u32::try_from(nodes * PORTS * queue_cap).expect("mesh too large");
        Mesh {
            queue_cap,
            hop_latency,
            min_serialization: min_serialization.max(1),
            xy: (0..nodes)
                .map(|node| [(node % width) as u32, (node / width) as u32])
                .collect(),
            step: [width.wrapping_neg(), 1, width, usize::MAX, 0],
            pool: PacketPool::new(slot_count),
            hops: vec![Hop::default(); slot_count as usize],
            routers: vec![Router::IDLE; nodes],
            delivered: (0..nodes)
                .map(|_| VecDeque::with_capacity(queue_cap))
                .collect(),
            stats: NocStats::default(),
            event_gated: false,
            wake: 0,
            rwake: vec![0; nodes],
            pending: 0,
            delivered_len: vec![0; nodes],
            local_len: vec![0; nodes],
            in_network: 0,
        }
    }

    /// Enables or disables idle-cycle gating of [`Mesh::tick`]. Gated and
    /// ungated meshes are cycle-for-cycle identical in every observable —
    /// gating only elides ticks that provably would not move a packet.
    pub fn set_event_gating(&mut self, on: bool) {
        self.event_gated = on;
        self.wake = 0;
        self.rwake.fill(0);
    }

    /// Number of nodes.
    pub fn nodes(&self) -> usize {
        self.routers.len()
    }

    /// Network statistics so far.
    pub const fn stats(&self) -> &NocStats {
        &self.stats
    }

    /// Whether any packet is still queued or in flight.
    pub fn is_idle(&self) -> bool {
        self.in_network == 0 && self.pending == 0
    }

    /// Gauge: packets currently anywhere in the mesh — queued between hops
    /// plus delivered-but-not-ejected (for the telemetry sampler).
    pub const fn in_flight(&self) -> usize {
        self.in_network + self.pending
    }

    /// Gauge: the deepest local (injection) queue across all routers right
    /// now — a congestion point reading for the telemetry sampler.
    pub fn max_local_queue(&self) -> u32 {
        self.local_len.iter().copied().max().unwrap_or(0)
    }

    /// XY route: returns the output port at `node` towards `dst`.
    #[inline]
    fn route(&self, node: usize, dst: usize) -> u8 {
        // 0 below, 1 equal, 2 above.
        let cmp = |a: u32, b: u32| 1 + usize::from(a > b) - usize::from(a < b);
        let [x, y] = self.xy[node];
        let [dx, dy] = self.xy[dst];
        XY_PORT[3 * cmp(dx, x) + cmp(dy, y)]
    }

    /// Appends a packet to the ring of input `port` at `node`, maintaining
    /// the router's head mirror and `want` masks.
    #[inline]
    fn push(&mut self, node: usize, port: usize, hop: Hop) {
        let router = &mut self.routers[node];
        let len = router.q_len[port] as usize;
        debug_assert!(len < self.queue_cap, "push into full queue");
        // `head < cap` and `len < cap`, so one conditional subtraction
        // wraps the ring position without a runtime division.
        let mut pos = router.q_head[port] as usize + len;
        if pos >= self.queue_cap {
            pos -= self.queue_cap;
        }
        self.hops[(node * PORTS + port) * self.queue_cap + pos] = hop;
        let first = len == 0;
        if first {
            router.head_ready[port] = hop.ready_at;
            router.head_out[port] = hop.out;
        }
        router.want[hop.out as usize] |= u8::from(first) << port;
        router.q_len[port] = (len + 1) as u16;
    }

    /// Whether a packet can currently be injected at `node`.
    pub fn can_inject(&self, node: usize) -> bool {
        (self.local_len[node] as usize) < self.queue_cap
    }

    /// Injects a packet of `bytes_to_flits(bytes)` flits at `node` bound
    /// for `dst`, at time `now`.
    ///
    /// # Errors
    ///
    /// Returns [`InjectFull`] when the node's local queue is full.
    pub fn inject(
        &mut self,
        node: usize,
        dst: usize,
        flits: u32,
        payload: T,
    ) -> Result<(), InjectFull> {
        self.inject_at(node, dst, flits, payload, 0)
    }

    /// [`Mesh::inject`] with an explicit timestamp for latency accounting.
    /// The packet's first-hop XY route is computed here, once, not on the
    /// arbitration scan.
    ///
    /// # Errors
    ///
    /// Returns [`InjectFull`] when the node's local queue is full.
    pub fn inject_at(
        &mut self,
        node: usize,
        dst: usize,
        flits: u32,
        payload: T,
        now: u64,
    ) -> Result<(), InjectFull> {
        assert!(
            node < self.nodes() && dst < self.nodes(),
            "node out of range"
        );
        if self.local_len[node] as usize >= self.queue_cap {
            self.stats.inject_fails += 1;
            return Err(InjectFull);
        }
        let flits = flits.max(self.min_serialization);
        let hop = Hop {
            ready_at: now + 1,
            handle: self.pool.insert(now, payload),
            dst: dst as u32,
            flits,
            out: self.route(node, dst),
        };
        self.push(node, LOCAL, hop);
        self.stats.packets += 1;
        self.stats.flits += flits as u64;
        self.local_len[node] += 1;
        self.in_network += 1;
        // New work: the gated tick must look again no matter what it
        // concluded from the pre-injection state.
        self.wake = 0;
        self.rwake[node] = 0;
        Ok(())
    }

    /// Whether any delivered packet awaits ejection at `node`.
    pub fn has_delivered(&self, node: usize) -> bool {
        self.delivered_len[node] > 0
    }

    /// Takes one delivered packet at `node`, if any.
    pub fn eject(&mut self, node: usize) -> Option<T> {
        if self.delivered_len[node] == 0 {
            return None;
        }
        let popped = self.delivered[node].pop_front().map(|(p, _)| p);
        if popped.is_some() {
            self.pending -= 1;
            self.delivered_len[node] -= 1;
        }
        popped
    }

    /// A lower bound on the next cycle the mesh (or its consumers) can
    /// make progress: the earliest cycle any queued head packet clears
    /// both its pipeline delay (`ready_at`) and its output port's
    /// serialisation window, or `now + 1` while delivered packets await
    /// ejection (the consumer drains them on its next tick). Downstream
    /// backpressure is deliberately ignored — it can only delay a head
    /// further, and a too-early bound just costs a no-op tick.
    pub fn next_event(&self, now: u64) -> Option<u64> {
        if self.pending > 0 {
            return Some(now + 1);
        }
        let bound = self
            .routers
            .iter()
            .fold(EMPTY, |bound, router| bound.min(router.movement_bound()));
        (bound != EMPTY).then(|| bound.max(now + 1))
    }

    /// Advances the network by one cycle.
    pub fn tick(&mut self, now: u64) {
        if self.event_gated && now < self.wake {
            return;
        }
        // A router is due when its bound has passed; without gating, as
        // soon as it holds a packet (an empty router's bound is `EMPTY`).
        let limit = if self.event_gated { now } else { EMPTY - 1 };
        let mut hopped = false;
        for base in (0..self.rwake.len()).step_by(64) {
            // Built once per 64 routers: a hop this tick arrives after
            // `now`, so the router it lands in gains nothing to do now.
            let end = self.rwake.len().min(base + 64);
            let mut due = self.rwake[base..end]
                .iter()
                .rev()
                .fold(0u64, |due, &bound| (due << 1) | u64::from(bound <= limit));
            while due != 0 {
                hopped |= self.visit(base + due.trailing_zeros() as usize, now);
                due &= due - 1;
            }
        }
        // Every hop of this tick arrives on the same cycle. A router
        // visited after one of them landed has overwritten the clamp it
        // left in `rwake`, so the arrivals are folded in here.
        let arrivals = if hopped {
            now + self.hop_latency
        } else {
            EMPTY
        };
        self.wake = self.rwake.iter().fold(arrivals, |wake, &b| wake.min(b));
    }

    /// Arbitrates router `node` at `now`: each free output that a ready
    /// head wants grants one such head, round-robin, outputs in port
    /// order. Returns whether any packet moved on to a neighbour.
    #[inline]
    fn visit(&mut self, node: usize, now: u64) -> bool {
        let cap = self.queue_cap;
        let r = &self.routers[node];
        let mut ready = 0u32;
        let mut pending = 0u32;
        for input in 0..PORTS {
            let is_ready = u32::from(r.head_ready[input] <= now);
            ready |= is_ready << input;
            pending |= is_ready << r.head_out[input];
        }
        let mut hopped = false;
        while pending != 0 {
            let out = pending.trailing_zeros() as usize;
            pending &= pending - 1;
            let next = node.wrapping_add(self.step[out]);
            let in_port = OPPOSITE[out];
            // Serialisation window, then downstream space, before
            // dequeuing. Local delivery is never refused.
            let full = out != LOCAL && self.routers[next].q_len[in_port] as usize >= cap;
            let r = &mut self.routers[node];
            if r.out_busy[out] > now || full {
                continue;
            }
            // First taker at or after the cursor: the takers twice over,
            // shifted down by the cursor, put it at the lowest set bit.
            let takers = u32::from(r.want[out]) & ready;
            debug_assert!(takers != 0, "pending output without a ready taker");
            let start = u32::from(r.rr);
            let mut input =
                (start + ((takers | (takers << PORTS)) >> start).trailing_zeros()) as usize;
            if input >= PORTS {
                input -= PORTS;
            }
            // Pop the winner. The ring's next entry is read whether or
            // not there is one and selected away if not; a drained ring
            // restarts at position 0.
            let ring = (node * PORTS + input) * cap;
            let pos = r.q_head[input] as usize;
            let left = r.q_len[input] - 1;
            let hop = self.hops[ring + pos];
            let next_pos = if left == 0 || pos + 1 == cap {
                0
            } else {
                pos + 1
            };
            let exposed = self.hops[ring + next_pos];
            let (head_ready, head_out) = if left == 0 {
                (EMPTY, r.head_out[input])
            } else {
                (exposed.ready_at, exposed.out)
            };
            r.q_head[input] = next_pos as u16;
            r.q_len[input] = left;
            r.head_ready[input] = head_ready;
            r.head_out[input] = head_out;
            r.want[out] &= !(1 << input);
            r.want[head_out as usize] |= u8::from(left != 0) << input;
            // The exposed head joins this visit if it is ready and its
            // output is still ahead in the scan.
            let is_ready = u32::from(head_ready <= now);
            ready = (ready & !(1 << input)) | (is_ready << input);
            pending |= (is_ready << head_out) & (!1 << out);
            r.rr = if input + 1 == PORTS {
                0
            } else {
                input as u8 + 1
            };
            // `in_port` is never LOCAL (only N/E/S/W have opposites), so
            // only the source side can shrink a local queue.
            self.local_len[node] -= u32::from(input == LOCAL);
            if out == LOCAL {
                let (injected_at, payload) = self.pool.remove(hop.handle);
                self.stats.delivered += 1;
                self.stats.total_latency += now.saturating_sub(injected_at);
                self.delivered[node].push_back((payload, now));
                self.pending += 1;
                self.delivered_len[node] += 1;
                self.in_network -= 1;
            } else {
                r.out_busy[out] = now + u64::from(hop.flits);
                let arrival = now + self.hop_latency;
                let moved = Hop {
                    ready_at: arrival,
                    out: self.route(next, hop.dst as usize),
                    ..hop
                };
                self.push(next, in_port, moved);
                // `next` may already be behind us in this scan, so its
                // bound is clamped here, not left to its own visit.
                self.rwake[next] = self.rwake[next].min(arrival);
                hopped = true;
            }
        }
        // Remaining heads, with this tick's updated serialisation
        // windows. A plain store is safe: nodes are visited in index
        // order, so a packet pushed into this router by a later node
        // clamps `rwake` at push time, after this store runs.
        self.rwake[node] = self.routers[node].movement_bound().max(now + 1);
        hopped
    }
}

impl<T: Codec> Snapshot for Mesh<T> {
    /// Saves queued packets (per ring queue, head to tail), output-port
    /// serialisation windows, round-robin cursors, delivered-but-not-
    /// ejected packets and statistics. Pool handles, ring positions, head
    /// mirrors, `want` masks, wake words and occupancy counters are
    /// *derived* state: restore rebuilds them by replaying `Mesh::push`
    /// and recounting, so they can never disagree with the queues. So is
    /// each packet's `out`, which stays in the format but must equal the
    /// XY route from the router it is queued at.
    fn save(&self, w: &mut SnapshotWriter) {
        w.section("mesh", |w| {
            w.usize(self.nodes());
            w.usize(self.queue_cap);
            for (node, router) in self.routers.iter().enumerate() {
                for port in 0..PORTS {
                    let ring = (node * PORTS + port) * self.queue_cap;
                    let len = router.q_len[port] as usize;
                    w.usize(len);
                    for k in 0..len {
                        let mut pos = router.q_head[port] as usize + k;
                        if pos >= self.queue_cap {
                            pos -= self.queue_cap;
                        }
                        let hop = &self.hops[ring + pos];
                        let (injected_at, payload) = self.pool.get(hop.handle);
                        w.u64(hop.ready_at);
                        w.u64(injected_at);
                        w.u32(hop.dst);
                        w.u32(hop.flits);
                        w.u8(hop.out);
                        w.put(payload);
                    }
                }
            }
            w.put_each(self.routers.iter().flat_map(|router| &router.out_busy));
            w.put_each(self.routers.iter().map(|router| &router.rr));
            w.put_each(&self.delivered);
            w.put(&self.stats);
        });
    }

    fn restore(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        r.section("mesh", |r| {
            let nodes = self.nodes();
            r.count(nodes, "mesh nodes")?;
            r.count(self.queue_cap, "mesh queue capacity")?;
            self.pool.clear();
            self.routers.fill(Router::IDLE);
            for q in 0..nodes * PORTS {
                let (node, port) = (q / PORTS, q % PORTS);
                let len = r.usize()?;
                if len > self.queue_cap {
                    return Err(SnapshotError::BadValue {
                        what: format!("queue {q} length"),
                        value: len as u64,
                    });
                }
                for _ in 0..len {
                    let ready_at = r.u64()?;
                    let injected_at = r.u64()?;
                    let dst = r.u32()?;
                    let flits = r.u32()?;
                    let out = r.u8()?;
                    let payload = r.get()?;
                    // A route off the XY path can step off the grid, and
                    // `EMPTY` would park a non-empty queue for ever.
                    if dst as usize >= nodes || out != self.route(node, dst as usize) {
                        return Err(SnapshotError::BadValue {
                            what: format!("queue {q} packet route to node {dst}"),
                            value: out as u64,
                        });
                    }
                    if ready_at == EMPTY {
                        return Err(SnapshotError::BadValue {
                            what: format!("queue {q} packet ready cycle"),
                            value: ready_at,
                        });
                    }
                    let handle = self.pool.insert(injected_at, payload);
                    self.push(
                        node,
                        port,
                        Hop {
                            ready_at,
                            handle,
                            dst,
                            flits,
                            out,
                        },
                    );
                }
            }
            for router in &mut self.routers {
                r.get_each(&mut router.out_busy)?;
            }
            for router in &mut self.routers {
                router.rr = r.u8()?;
                if router.rr as usize >= PORTS {
                    return Err(SnapshotError::BadValue {
                        what: "round-robin cursor".to_string(),
                        value: router.rr as u64,
                    });
                }
            }
            r.get_each(&mut self.delivered)?;
            self.pending = 0;
            self.in_network = 0;
            for (node, router) in self.routers.iter().enumerate() {
                let len = self.delivered[node].len();
                self.delivered_len[node] = len as u32;
                self.pending += len;
                self.local_len[node] = u32::from(router.q_len[LOCAL]);
                self.in_network += router.q_len.iter().map(|&l| l as usize).sum::<usize>();
            }
            // Wake words are conservative bounds; parking them at "look
            // next tick" is always sound and they re-tighten on the first
            // tick.
            self.wake = 0;
            self.rwake.fill(0);
            self.stats = r.get()?;
            Ok(())
        })
    }
}

impl<T> crate::clocked::Clocked for Mesh<T> {
    fn tick(&mut self, now: u64) {
        Mesh::tick(self, now);
    }

    fn is_idle(&self) -> bool {
        Mesh::is_idle(self)
    }

    fn next_event(&self, now: u64) -> Option<u64> {
        if self.event_gated {
            // Delivered packets pin the consumer's next tick; otherwise
            // `wake` is exactly the movement bound, maintained
            // incrementally (a fresh injection parks it at 0 = "look next
            // tick").
            if self.pending > 0 {
                return Some(now + 1);
            }
            return if self.wake == u64::MAX {
                None
            } else {
                Some(self.wake.max(now + 1))
            };
        }
        Mesh::next_event(self, now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcache_core::rng::SmallRng;
    use gcache_core::snapshot::assert_round_trip;

    fn run_until_delivered<T>(mesh: &mut Mesh<T>, node: usize, max: u64) -> Option<(T, u64)> {
        for cycle in 1..=max {
            mesh.tick(cycle);
            if let Some(p) = mesh.eject(node) {
                return Some((p, cycle));
            }
        }
        None
    }

    #[test]
    fn local_delivery() {
        let mut mesh: Mesh<u32> = Mesh::new(2, 2, 4, 1, 1);
        mesh.inject(1, 1, 1, 42).unwrap();
        let (p, _) = run_until_delivered(&mut mesh, 1, 10).unwrap();
        assert_eq!(p, 42);
    }

    #[test]
    fn xy_routing_reaches_corner() {
        let mut mesh: Mesh<u32> = Mesh::new(4, 4, 4, 1, 1);
        mesh.inject(0, 15, 1, 7).unwrap();
        let (p, cycle) = run_until_delivered(&mut mesh, 15, 100).unwrap();
        assert_eq!(p, 7);
        // 6 hops minimum (3 east + 3 south) plus pipeline.
        assert!(cycle >= 6, "delivered suspiciously fast at {cycle}");
        assert_eq!(mesh.stats().delivered, 1);
        assert!(mesh.is_idle());
    }

    #[test]
    fn xy_routing_traverses_edge_rows_and_columns() {
        // Packets between nodes on the mesh perimeter must stay on it:
        // XY routing from a corner along the top row uses only EAST/WEST
        // hops, along the left column only NORTH/SOUTH — no route ever
        // steps off the grid (which would underflow `neighbour`).
        let (w, h) = (5, 4);
        let mut mesh: Mesh<u32> = Mesh::new(w, h, 8, 1, 1);
        let corners = [0, w - 1, w * (h - 1), w * h - 1];
        let mut expect = Vec::new();
        for (i, &src) in corners.iter().enumerate() {
            for (j, &dst) in corners.iter().enumerate() {
                if src != dst {
                    let tag = (i * 10 + j) as u32;
                    mesh.inject(src, dst, 1, tag).unwrap();
                    expect.push((dst, tag));
                }
            }
        }
        let mut got = Vec::new();
        for cycle in 1..500 {
            mesh.tick(cycle);
            for &node in &corners {
                while let Some(p) = mesh.eject(node) {
                    got.push((node, p));
                }
            }
        }
        got.sort_unstable();
        expect.sort_unstable();
        assert_eq!(got, expect, "every corner-to-corner packet must arrive");
        assert!(mesh.is_idle());
    }

    #[test]
    fn hop_latency_slows_delivery() {
        let mut fast: Mesh<u32> = Mesh::new(4, 1, 4, 1, 1);
        let mut slow: Mesh<u32> = Mesh::new(4, 1, 4, 4, 1);
        fast.inject(0, 3, 1, 0).unwrap();
        slow.inject(0, 3, 1, 0).unwrap();
        let (_, t_fast) = run_until_delivered(&mut fast, 3, 200).unwrap();
        let (_, t_slow) = run_until_delivered(&mut slow, 3, 200).unwrap();
        assert!(t_slow > t_fast, "slow={t_slow} fast={t_fast}");
    }

    #[test]
    fn serialization_limits_throughput() {
        // Two 8-flit packets over one link: second is delayed ~8 cycles.
        let mut mesh: Mesh<u32> = Mesh::new(2, 1, 8, 1, 1);
        mesh.inject(0, 1, 8, 1).unwrap();
        mesh.inject(0, 1, 8, 2).unwrap();
        let mut deliveries = Vec::new();
        for cycle in 1..100 {
            mesh.tick(cycle);
            while let Some(p) = mesh.eject(1) {
                deliveries.push((p, cycle));
            }
        }
        assert_eq!(deliveries.len(), 2);
        let gap = deliveries[1].1 - deliveries[0].1;
        assert!(gap >= 8, "packets not serialised: gap {gap}");
    }

    #[test]
    fn backpressure_rejects_injection() {
        let mut mesh: Mesh<u32> = Mesh::new(2, 1, 2, 1, 1);
        mesh.inject(0, 1, 1, 0).unwrap();
        mesh.inject(0, 1, 1, 1).unwrap();
        assert!(!mesh.can_inject(0));
        assert_eq!(mesh.inject(0, 1, 1, 2), Err(InjectFull));
        assert_eq!(mesh.stats().inject_fails, 1);
        assert!(mesh.stats().inject_fail_rate() > 0.0);
        // Drain and verify capacity returns.
        for cycle in 1..50 {
            mesh.tick(cycle);
            mesh.eject(1);
        }
        assert!(mesh.can_inject(0));
    }

    #[test]
    fn backpressure_holds_packets_upstream_at_queue_cap() {
        // A 3-node row with the sink's WEST input bounded at queue_cap=2:
        // flood node 0 with packets for node 2 but never eject at node 2,
        // so the middle router's forwarding stalls once the sink's input
        // queue is full. No packet may be dropped or duplicated, and the
        // downstream queue must never exceed its bound.
        let cap = 2;
        let mut mesh: Mesh<u32> = Mesh::new(3, 1, cap, 1, 1);
        let mut sent = 0;
        for cycle in 0..40u64 {
            if mesh.can_inject(0) {
                mesh.inject_at(0, 2, 1, sent, cycle).unwrap();
                sent += 1;
            }
            mesh.tick(cycle + 1);
            // The sink's delivered queue drains nothing mid-flood, so the
            // mesh must eventually refuse injections (upstream pressure).
        }
        assert!(
            mesh.stats().inject_fails == 0,
            "can_inject gated every injection"
        );
        assert!(sent > 0);
        // Everything in the network is accounted: delivered + still queued.
        let delivered_so_far = mesh.stats().delivered;
        assert!(
            delivered_so_far < u64::from(sent),
            "sink was never ejected; backpressure must hold packets back"
        );
        // Now drain; every packet arrives exactly once, in order.
        let mut got = Vec::new();
        for cycle in 41..400 {
            mesh.tick(cycle);
            while let Some(p) = mesh.eject(2) {
                got.push(p);
            }
        }
        assert_eq!(got, (0..sent).collect::<Vec<_>>());
        assert!(mesh.is_idle());
    }

    #[test]
    fn round_robin_arbitration_serves_every_input() {
        // Sustained contention: three sources (WEST, NORTH, LOCAL of the
        // centre router) all target the same EAST output. Round-robin
        // must grant each input in turn — no source may starve while the
        // others drain.
        //
        //      0 1 2
        //      3 4 5   centre = 4, sink = 5
        //      6 7 8
        let mut mesh: Mesh<u32> = Mesh::new(3, 3, 64, 1, 1);
        // Tag packets by source: 100s = from node 3 (WEST input of 4),
        // 200s = from node 1 (NORTH input of 4), 300s = locally injected.
        for i in 0..8u32 {
            mesh.inject(3, 5, 1, 100 + i).unwrap();
            mesh.inject(1, 5, 1, 200 + i).unwrap();
            mesh.inject(4, 5, 1, 300 + i).unwrap();
        }
        let mut order = Vec::new();
        for cycle in 1..300 {
            mesh.tick(cycle);
            while let Some(p) = mesh.eject(5) {
                order.push(p);
            }
        }
        assert_eq!(order.len(), 24, "all packets must arrive");
        // No starvation: within any window of 2 * PORTS consecutive
        // grants through the contended router, every source appears.
        for w in order.windows(2 * PORTS).take(order.len() - 2 * PORTS) {
            for src in [100, 200, 300] {
                assert!(
                    w.iter().any(|&p| p / 100 * 100 == src),
                    "source {src} starved in window {w:?}"
                );
            }
        }
        // Per-source FIFO order is preserved end to end.
        for src in [100, 200, 300] {
            let per: Vec<u32> = order
                .iter()
                .copied()
                .filter(|&p| p >= src && p < src + 100)
                .collect();
            assert_eq!(per, (src..src + 8).collect::<Vec<_>>());
        }
    }

    #[test]
    fn many_packets_all_arrive() {
        let mut mesh: Mesh<u32> = Mesh::new(4, 4, 8, 2, 1);
        let mut sent = 0;
        for src in 0..16 {
            for i in 0..4u32 {
                if mesh
                    .inject(src, (src + 5) % 16, 4, src as u32 * 100 + i)
                    .is_ok()
                {
                    sent += 1;
                }
            }
        }
        let mut got = 0;
        for cycle in 1..5000 {
            mesh.tick(cycle);
            for n in 0..16 {
                while mesh.eject(n).is_some() {
                    got += 1;
                }
            }
        }
        assert_eq!(got, sent);
        assert!(mesh.is_idle());
        assert!(mesh.stats().mean_latency() > 0.0);
    }

    /// Bernoulli traffic of 2-flit packets at `offered` attempts per node
    /// per cycle for `cycles`, then a drain; a refused packet retries the
    /// next cycle. Half of `hotspot` traffic targets node 0, the rest is
    /// uniform over the other nodes. Returns the packets offered and the
    /// mesh's statistics.
    fn synthetic_load(
        side: usize,
        hotspot: bool,
        offered: f64,
        cycles: u64,
        seed: u64,
    ) -> (u64, NocStats) {
        let nodes = side * side;
        let mut mesh: Mesh<u32> = Mesh::new(side, side, 8, 2, 1);
        let mut rng = SmallRng::seed_from_u64(seed);
        let threshold = (offered * 4_294_967_296.0) as u64;
        let mut packets = 0;
        let mut backlog: Vec<Option<usize>> = vec![None; nodes];
        let mut now = 0;
        while now < cycles || backlog.iter().any(Option::is_some) || !mesh.is_idle() {
            now += 1;
            for (src, slot) in backlog.iter_mut().enumerate() {
                if now <= cycles && slot.is_none() && rng.gen_range(0..1u64 << 32) < threshold {
                    packets += 1;
                    let other = rng.gen_range(0..nodes as u64 - 1) as usize;
                    let uniform = other + usize::from(other >= src);
                    let hot = hotspot && src != 0 && rng.gen_range(0..2) == 0;
                    *slot = Some(if hot { 0 } else { uniform });
                }
                if let Some(dst) = *slot {
                    if mesh.inject_at(src, dst, 2, src as u32, now).is_ok() {
                        *slot = None;
                    }
                }
            }
            mesh.tick(now);
            for n in 0..nodes {
                while mesh.eject(n).is_some() {}
            }
        }
        (packets, *mesh.stats())
    }

    #[test]
    fn synthetic_load_is_repeatable_lossless_and_hotspot_bound() {
        let (offered, a) = synthetic_load(4, false, 0.1, 500, 7);
        assert_eq!(
            (offered, a),
            synthetic_load(4, false, 0.1, 500, 7),
            "same seed, same run"
        );
        assert!(offered > 0 && a.mean_latency() > 0.0, "traffic must flow");
        assert_eq!(a.delivered, offered, "every offered packet arrives");
        // Below saturation no injection attempt is ever refused.
        let (offered, light) = synthetic_load(4, false, 0.02, 1000, 1);
        assert_eq!((light.inject_fails, light.delivered), (0, offered));
        // At a rate uniform traffic still sustains, the single hot
        // ejection port is the bottleneck: latency is visibly worse.
        let (_, uni) = synthetic_load(4, false, 0.2, 800, 3);
        let (_, hot) = synthetic_load(4, true, 0.2, 800, 3);
        assert!(
            hot.mean_latency() > uni.mean_latency(),
            "hotspot latency {} should exceed uniform {}",
            hot.mean_latency(),
            uni.mean_latency()
        );
    }

    #[test]
    fn packet_moves_one_hop_per_tick_at_most() {
        // hop_latency 1, distance 3: needs at least 3 ticks.
        let mut mesh: Mesh<u32> = Mesh::new(4, 1, 4, 1, 1);
        mesh.inject_at(0, 3, 1, 9, 0).unwrap();
        mesh.tick(1);
        assert!(mesh.eject(3).is_none());
        mesh.tick(2);
        assert!(mesh.eject(3).is_none());
        mesh.tick(3);
        mesh.tick(4);
        // By now it must have arrived.
        assert!(mesh.eject(3).is_some());
    }

    // ---- Reference model: the plainest router that implements the
    // arbitration rules (per-input `VecDeque`s of whole packets, heads
    // re-read per visit, a probe loop per output, compare ladders for
    // routes), sharing no code or table with `Mesh`. The property tests
    // below hold the mesh to its delivery order, cycles and statistics.

    struct RefPacket {
        dst: usize,
        out: usize,
        flits: u32,
        payload: u32,
        ready_at: u64,
        injected_at: u64,
    }

    struct RefRouter {
        inputs: [VecDeque<RefPacket>; PORTS],
        out_busy: [u64; PORTS],
        delivered: VecDeque<(u32, u64)>,
        rr: usize,
    }

    struct RefMesh {
        width: usize,
        queue_cap: usize,
        hop_latency: u64,
        routers: Vec<RefRouter>,
        stats: NocStats,
    }

    impl RefMesh {
        fn new(width: usize, height: usize, queue_cap: usize, hop_latency: u64) -> Self {
            RefMesh {
                width,
                queue_cap,
                hop_latency,
                routers: (0..width * height)
                    .map(|_| RefRouter {
                        inputs: std::array::from_fn(|_| VecDeque::new()),
                        out_busy: [0; PORTS],
                        delivered: VecDeque::new(),
                        rr: 0,
                    })
                    .collect(),
                stats: NocStats::default(),
            }
        }

        fn coords(&self, node: usize) -> (usize, usize) {
            (node % self.width, node / self.width)
        }

        fn route(&self, node: usize, dst: usize) -> usize {
            let (x, y) = self.coords(node);
            let (dx, dy) = self.coords(dst);
            if dx > x {
                EAST
            } else if dx < x {
                WEST
            } else if dy > y {
                SOUTH
            } else if dy < y {
                NORTH
            } else {
                LOCAL
            }
        }

        fn neighbour(&self, node: usize, port: usize) -> usize {
            match port {
                NORTH => node - self.width,
                SOUTH => node + self.width,
                EAST => node + 1,
                WEST => node - 1,
                _ => node,
            }
        }

        fn opposite(port: usize) -> usize {
            match port {
                NORTH => SOUTH,
                SOUTH => NORTH,
                EAST => WEST,
                WEST => EAST,
                other => other,
            }
        }

        fn can_inject(&self, node: usize) -> bool {
            self.routers[node].inputs[LOCAL].len() < self.queue_cap
        }

        fn inject_at(&mut self, node: usize, dst: usize, flits: u32, payload: u32, now: u64) {
            assert!(self.can_inject(node));
            let out = self.route(node, dst);
            self.routers[node].inputs[LOCAL].push_back(RefPacket {
                dst,
                out,
                flits,
                payload,
                ready_at: now + 1,
                injected_at: now,
            });
            self.stats.packets += 1;
            self.stats.flits += flits as u64;
        }

        fn eject(&mut self, node: usize) -> Option<u32> {
            self.routers[node].delivered.pop_front().map(|(p, _)| p)
        }

        fn tick(&mut self, now: u64) {
            for node in 0..self.routers.len() {
                if self.routers[node].inputs.iter().all(VecDeque::is_empty) {
                    continue;
                }
                let mut heads: [Option<(u64, usize)>; PORTS] = std::array::from_fn(|input| {
                    self.routers[node].inputs[input]
                        .front()
                        .map(|h| (h.ready_at, h.out))
                });
                if !heads.iter().flatten().any(|&(r, _)| r <= now) {
                    continue;
                }
                for out in 0..PORTS {
                    if self.routers[node].out_busy[out] > now {
                        continue;
                    }
                    let start = self.routers[node].rr;
                    let mut chosen = None;
                    for k in 0..PORTS {
                        let input = (start + k) % PORTS;
                        if let Some((ready_at, route)) = heads[input] {
                            if ready_at <= now && route == out {
                                chosen = Some(input);
                                break;
                            }
                        }
                    }
                    let Some(input) = chosen else { continue };
                    if out == LOCAL {
                        let pkt = self.routers[node].inputs[input].pop_front().unwrap();
                        self.stats.delivered += 1;
                        self.stats.total_latency += now.saturating_sub(pkt.injected_at);
                        self.routers[node].delivered.push_back((pkt.payload, now));
                    } else {
                        let next = self.neighbour(node, out);
                        let in_port = Self::opposite(out);
                        if self.routers[next].inputs[in_port].len() >= self.queue_cap {
                            continue;
                        }
                        let mut pkt = self.routers[node].inputs[input].pop_front().unwrap();
                        self.routers[node].out_busy[out] = now + pkt.flits as u64;
                        pkt.ready_at = now + self.hop_latency;
                        pkt.out = self.route(next, pkt.dst);
                        self.routers[next].inputs[in_port].push_back(pkt);
                    }
                    heads[input] = self.routers[node].inputs[input]
                        .front()
                        .map(|h| (h.ready_at, h.out));
                    self.routers[node].rr = (input + 1) % PORTS;
                }
            }
        }
    }

    /// One seeded case of the reference property: a mesh shape and an
    /// injection script (cycle, source, destination, flits) that does not
    /// depend on any model's state. The packet's payload is its index.
    struct Scenario {
        width: usize,
        height: usize,
        queue_cap: usize,
        hop_latency: u64,
        script: Vec<(u64, usize, usize, u32)>,
    }

    /// Every geometry class (a single router, one row, one column, the
    /// smallest grid, a non-square grid, Table 2's 6×4) under seeded queue
    /// capacities 1–8, hop latencies 1–3, packets of 1–5 flits and offered
    /// loads from near idle to every node injecting every cycle, which
    /// fills queues to capacity and makes routers grant several outputs
    /// in one visit.
    fn scenarios() -> Vec<Scenario> {
        const GEOMETRIES: [(usize, usize); 6] = [(1, 1), (1, 5), (5, 1), (2, 2), (4, 3), (6, 4)];
        // Injection attempts per node per cycle, out of 64.
        const LOADS: [u64; 4] = [1, 8, 24, 64];
        let mut out = Vec::new();
        for (g, &(width, height)) in GEOMETRIES.iter().enumerate() {
            for (l, &load) in LOADS.iter().enumerate() {
                let mut rng = SmallRng::seed_from_u64(0xC0FFEE ^ (g * LOADS.len() + l) as u64);
                let nodes = width * height;
                let mut script = Vec::new();
                for cycle in 0..300u64 {
                    for src in 0..nodes {
                        if rng.gen_range(0..64) < load {
                            let dst = rng.gen_range(0..nodes as u64) as usize;
                            let flits = rng.gen_range(1..6) as u32;
                            script.push((cycle, src, dst, flits));
                        }
                    }
                }
                out.push(Scenario {
                    width,
                    height,
                    queue_cap: rng.gen_range(1..9) as usize,
                    hop_latency: rng.gen_range(1..4),
                    script,
                });
            }
        }
        out
    }

    /// What a model did with a scenario: which scripted packets its local
    /// queues had room for, each node's deliveries `(payload, cycle)` in
    /// order, and the statistics.
    #[derive(Debug, PartialEq)]
    struct Outcome {
        accepted: Vec<bool>,
        delivered: Vec<Vec<(u32, u64)>>,
        stats: NocStats,
    }

    /// The reference, ticked every cycle until everything has arrived.
    fn reference_outcome(sc: &Scenario) -> Outcome {
        let nodes = sc.width * sc.height;
        let mut rf = RefMesh::new(sc.width, sc.height, sc.queue_cap, sc.hop_latency);
        let mut accepted = Vec::new();
        let mut delivered = vec![Vec::new(); nodes];
        let mut cycle = 0u64;
        while accepted.len() < sc.script.len() || rf.stats.delivered < rf.stats.packets {
            assert!(cycle < 100_000, "reference model failed to drain");
            while let Some(&(at, src, dst, flits)) = sc.script.get(accepted.len()) {
                if at != cycle {
                    break;
                }
                let room = rf.can_inject(src);
                if room {
                    rf.inject_at(src, dst, flits, accepted.len() as u32, cycle);
                }
                accepted.push(room);
            }
            cycle += 1;
            rf.tick(cycle);
            for (n, stream) in delivered.iter_mut().enumerate() {
                while let Some(p) = rf.eject(n) {
                    stream.push((p, cycle));
                }
            }
        }
        Outcome {
            accepted,
            delivered,
            stats: rf.stats,
        }
    }

    /// The mesh on the same scenario, until everything has arrived. With
    /// `jump` the driver never ticks a cycle the mesh has not asked for:
    /// it goes straight to the gated [`Clocked::next_event`] bound (or to
    /// the tick after the next scripted injection), checking on the way
    /// that the bound never exceeds the full scan's.
    fn mesh_outcome(sc: &Scenario, gated: bool, jump: bool) -> Outcome {
        use crate::clocked::Clocked;
        let nodes = sc.width * sc.height;
        let mut mesh: Mesh<u32> = Mesh::new(sc.width, sc.height, sc.queue_cap, sc.hop_latency, 1);
        mesh.set_event_gating(gated);
        let mut accepted = Vec::new();
        let mut delivered = vec![Vec::new(); nodes];
        let mut now = 0u64;
        while accepted.len() < sc.script.len() || !mesh.is_idle() {
            assert!(now < 100_000, "mesh failed to drain");
            now = if jump {
                let bound = Clocked::next_event(&mesh, now);
                let full = Mesh::next_event(&mesh, now);
                assert!(
                    bound.unwrap_or(u64::MAX) <= full.unwrap_or(u64::MAX),
                    "gated bound {bound:?} beyond the full scan's {full:?} at cycle {now}"
                );
                let injection = sc.script.get(accepted.len()).map(|&(at, ..)| at + 1);
                let next = [bound, injection].into_iter().flatten().min();
                next.expect("a mesh with work left has a bound")
            } else {
                now + 1
            };
            while let Some(&(at, src, dst, flits)) = sc.script.get(accepted.len()) {
                if at + 1 != now {
                    break;
                }
                let room = mesh.can_inject(src);
                if room {
                    let tag = accepted.len() as u32;
                    mesh.inject_at(src, dst, flits, tag, at).unwrap();
                }
                accepted.push(room);
            }
            mesh.tick(now);
            for (n, stream) in delivered.iter_mut().enumerate() {
                while let Some(p) = mesh.eject(n) {
                    stream.push((p, now));
                }
            }
        }
        Outcome {
            accepted,
            delivered,
            stats: *mesh.stats(),
        }
    }

    /// Seeded property: on every scenario the mesh accepts the same
    /// injections as the reference per-queue model and delivers exactly
    /// the same payloads, at the same nodes, in the same per-node order
    /// and on the same cycles — and the statistics agree.
    fn assert_matches_reference(gated: bool, jump: bool) {
        for (i, sc) in scenarios().iter().enumerate() {
            let expect = reference_outcome(sc);
            assert!(expect.stats.delivered > 0, "scenario {i} moved nothing");
            assert_eq!(mesh_outcome(sc, gated, jump), expect, "scenario {i}");
        }
    }

    #[test]
    fn mesh_matches_reference_queue_model() {
        assert_matches_reference(false, false);
    }

    /// Gating elides ticks and router visits, never reorders or retimes
    /// deliveries.
    #[test]
    fn gated_mesh_matches_reference_queue_model() {
        assert_matches_reference(true, false);
    }

    /// What the run loop's fast-forward relies on: a gated mesh whose
    /// driver jumps `now` straight to the mesh's own bound, never ticking
    /// the cycles in between, misses nothing the reference does when
    /// ticked every cycle.
    #[test]
    fn fast_forwarded_mesh_matches_reference_ticked_every_cycle() {
        assert_matches_reference(true, true);
    }

    /// The gated bound counts the tick's arrivals even when every router's
    /// own bound is later (module doc): the run loop then ticks one cycle
    /// it could have skipped, and the ticked-cycle counters stay what the
    /// benchmark ledger has on record.
    #[test]
    fn wake_counts_the_ticks_arrivals() {
        use crate::clocked::Clocked;
        let mut mesh: Mesh<u32> = Mesh::new(3, 1, 4, 2, 1);
        mesh.set_event_gating(true);
        // Ten flits leave node 1 eastwards at cycle 1: busy until 11.
        mesh.inject_at(1, 2, 10, 0, 0).unwrap();
        (1..=4).for_each(|cycle| mesh.tick(cycle));
        assert_eq!(mesh.eject(2), Some(0));
        // At cycle 5 node 0 forwards a packet into node 1, arriving at 7,
        // and node 1, visited next for a local delivery, bounds itself by
        // the newcomer's busy output.
        mesh.inject_at(0, 2, 1, 1, 4).unwrap();
        mesh.inject_at(1, 1, 1, 2, 4).unwrap();
        mesh.tick(5);
        assert_eq!(mesh.eject(1), Some(2));
        assert_eq!(mesh.rwake, [EMPTY, 11, EMPTY]);
        assert_eq!(Mesh::next_event(&mesh, 5), Some(11));
        assert_eq!(Clocked::next_event(&mesh, 5), Some(7));
    }

    fn saved<T: Codec>(mesh: &Mesh<T>) -> Vec<u8> {
        let mut w = SnapshotWriter::new();
        mesh.save(&mut w);
        w.finish()
    }

    /// A mesh saved mid-flight (queued packets between hops, partially
    /// drained delivery queues, live serialisation windows) and restored
    /// into a freshly built mesh continues cycle-for-cycle identically.
    /// The save is taken after the rings have filled, drained and filled
    /// again, so the live mesh holds packets at ring positions and pool
    /// handles a restore (which refills from position 0) will not give
    /// them: the format must not depend on either, and a re-save of the
    /// restored mesh must give the same bytes.
    #[test]
    fn snapshot_round_trip_resumes_mid_flight() {
        let (w, h, cap, lat) = (4, 3, 4, 2);
        let nodes = w * h;
        let mut mesh: Mesh<u64> = Mesh::new(w, h, cap, lat, 1);
        let mut rng = SmallRng::seed_from_u64(7);
        let mut tag = 0u64;
        let mut cycle = 0u64;
        for burst in 0..2 {
            for _ in 0..50 {
                for _ in 0..2 {
                    let src = rng.gen_range(0..nodes as u64) as usize;
                    let dst = rng.gen_range(0..nodes as u64) as usize;
                    if mesh.can_inject(src) {
                        mesh.inject_at(src, dst, 2, tag, cycle).unwrap();
                        tag += 1;
                    }
                }
                cycle += 1;
                mesh.tick(cycle);
                // Partially drain so restored delivery queues are non-trivial.
                if cycle.is_multiple_of(3) {
                    for n in 0..nodes {
                        mesh.eject(n);
                    }
                }
            }
            while burst == 0 && !mesh.is_idle() {
                assert!(cycle < 10_000, "mesh failed to drain");
                cycle += 1;
                mesh.tick(cycle);
                for n in 0..nodes {
                    while mesh.eject(n).is_some() {}
                }
            }
        }
        assert!(
            mesh.routers
                .iter()
                .any(|r| (0..PORTS).any(|p| r.q_len[p] > 0 && r.q_head[p] > 0)),
            "no live ring has its head off position 0"
        );
        let bytes = saved(&mesh);
        let mut restored: Mesh<u64> = Mesh::new(w, h, cap, lat, 1);
        let mut r = SnapshotReader::new(&bytes).unwrap();
        restored.restore(&mut r).unwrap();
        assert!(restored.routers.iter().all(|r| r.q_head == [0; PORTS]));
        assert_eq!(saved(&restored), bytes, "re-save differs from the save");
        for cycle in cycle + 1..cycle + 550 {
            mesh.tick(cycle);
            restored.tick(cycle);
            for n in 0..nodes {
                loop {
                    let a = mesh.eject(n);
                    let b = restored.eject(n);
                    assert_eq!(a, b, "divergence at node {n}, cycle {cycle}");
                    if a.is_none() {
                        break;
                    }
                }
            }
        }
        assert!(mesh.is_idle() && restored.is_idle());
        assert_eq!(mesh.stats(), restored.stats());
    }

    /// A sealed, correctly checksummed `mesh` section for a 2×2 mesh of
    /// queue capacity 4 whose only packet sits in the local queue of
    /// `node`, written field by field the way [`Mesh::save`] does.
    fn one_packet_snapshot(node: usize, dst: u32, out: u8, ready_at: u64, rr: u8) -> Vec<u8> {
        let nodes = 4;
        let mut w = SnapshotWriter::new();
        w.section("mesh", |w| {
            w.usize(nodes);
            w.usize(4);
            for q in 0..nodes * PORTS {
                if q == node * PORTS + LOCAL {
                    w.usize(1);
                    w.u64(ready_at);
                    w.u64(0); // injected_at
                    w.u32(dst);
                    w.u32(1); // flits
                    w.u8(out);
                    w.put(&7u64); // payload
                } else {
                    w.usize(0);
                }
            }
            w.put_each(&[0u64; 4 * PORTS]); // out_busy
            w.put_each(&[rr; 4]);
            w.put_each(&vec![VecDeque::<(u64, u64)>::new(); nodes]); // delivered
            w.put(&NocStats::default());
        });
        w.finish()
    }

    /// `out` and the head mirror's sentinel are derived state: a sealed
    /// snapshot whose saved route would walk the packet off the grid (or
    /// silently misroute it), whose `ready_at` would park its queue for
    /// ever, or whose round-robin cursor names no port is refused, not
    /// restored into a mesh that panics or hangs on its next tick.
    #[test]
    fn snapshot_rejects_underived_routing_state() {
        let restore = |bytes: &[u8]| {
            let mut mesh: Mesh<u64> = Mesh::new(2, 2, 4, 1, 1);
            let mut r = SnapshotReader::new(bytes).unwrap();
            mesh.restore(&mut r).map(|()| mesh)
        };
        // Control: node 0 -> node 3 leaves EAST, and arrives.
        let mut mesh = restore(&one_packet_snapshot(0, 3, EAST as u8, 1, 0)).unwrap();
        assert_eq!(run_until_delivered(&mut mesh, 3, 100), Some((7, 3)));
        let bad_value =
            |bytes: &[u8]| matches!(restore(bytes), Err(SnapshotError::BadValue { .. }));
        // NORTH from the top row steps off the grid.
        assert!(bad_value(&one_packet_snapshot(0, 3, NORTH as u8, 1, 0)));
        // WEST from column 0 of the lower row lands on node 1, silently.
        assert!(bad_value(&one_packet_snapshot(2, 3, WEST as u8, 1, 0)));
        assert!(bad_value(&one_packet_snapshot(0, 3, PORTS as u8, 1, 0)));
        assert!(bad_value(&one_packet_snapshot(0, 4, EAST as u8, 1, 0)));
        assert!(bad_value(&one_packet_snapshot(0, 3, EAST as u8, EMPTY, 0)));
        assert!(bad_value(&one_packet_snapshot(
            0,
            3,
            EAST as u8,
            1,
            PORTS as u8
        )));
    }

    /// Restoring into a mesh of a different shape must fail loudly.
    #[test]
    fn snapshot_rejects_geometry_mismatch() {
        let bytes = saved(&Mesh::<u64>::new(3, 3, 4, 1, 1));
        let mut other: Mesh<u64> = Mesh::new(4, 4, 4, 1, 1);
        let mut r = SnapshotReader::new(&bytes).unwrap();
        assert!(matches!(
            other.restore(&mut r),
            Err(SnapshotError::Mismatch { .. })
        ));
    }

    #[test]
    fn stats_round_trip_through_a_snapshot() {
        assert_round_trip(&NocStats {
            packets: 1,
            flits: 2,
            delivered: 3,
            inject_fails: 4,
            total_latency: 5,
        });
    }
}
