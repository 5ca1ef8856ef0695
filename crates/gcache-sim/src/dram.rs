//! FR-FCFS GDDR5 DRAM channel model (Table 2's DRAM row).
//!
//! One instance models one memory controller: a bounded request queue, a
//! set of banks with open-row state, a shared data bus, and a
//! first-ready–first-come-first-served scheduler (row hits first, then
//! oldest). Timing honours tCL/tRP/tRC/tRAS/tRCD/tRRD and the burst
//! transfer time of a 128 B line over the 32 B channel.

use crate::config::DramTiming;
use gcache_core::addr::LineAddr;
use gcache_core::record;
use gcache_core::snapshot::{Codec, Snapshot, SnapshotError, SnapshotReader, SnapshotWriter};
use gcache_core::trace::{DramRowOutcome, SharedTraceRing, TraceKind, TraceSource, Tracer};
use std::fmt;

/// Error returned by [`Dram::enqueue`] when the controller queue is full.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct DramQueueFull;

impl fmt::Display for DramQueueFull {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("DRAM controller queue full")
    }
}

impl std::error::Error for DramQueueFull {}

record! {
    /// DRAM access statistics.
    #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
    pub struct DramStats {
        /// Read bursts serviced.
        pub reads: u64,
        /// Write bursts serviced.
        pub writes: u64,
        /// CAS issued to an already-open row.
        pub row_hits: u64,
        /// Activations of a closed bank.
        pub row_opens: u64,
        /// Precharge+activate cycles (row conflicts).
        pub row_conflicts: u64,
        /// Sum of queueing+service latencies of completed requests.
        pub total_latency: u64,
        /// Completed requests (for averaging).
        pub completed: u64,
    }
    impl merge;
}

impl DramStats {
    /// Row-hit rate over all serviced bursts.
    pub fn row_hit_rate(&self) -> f64 {
        let total = self.row_hits + self.row_opens + self.row_conflicts;
        if total == 0 {
            0.0
        } else {
            self.row_hits as f64 / total as f64
        }
    }

    /// Mean request latency (arrival → data) in DRAM cycles.
    pub fn mean_latency(&self) -> f64 {
        if self.completed == 0 {
            0.0
        } else {
            self.total_latency as f64 / self.completed as f64
        }
    }
}

record! {
    #[derive(Clone, Copy, Debug)]
    struct Bank {
        open_row: Option<u64>,
        /// Earliest cycle a CAS/PRE/ACT may be issued to this bank.
        ready_at: u64,
        /// Cycle of the last activation (for tRAS/tRC).
        activated_at: u64,
    }
}

record! {
    #[derive(Debug)]
    struct Pending<T> {
        /// Bank/row of `line`, fixed at enqueue so the per-cycle scheduler
        /// scans never redo the division-heavy address mapping.
        bank: usize,
        row: u64,
        write: bool,
        token: T,
        arrived: u64,
    }
}

record! {
    #[derive(Debug)]
    struct Completion<T> {
        token: T,
        ready_at: u64,
        write: bool,
    }
}

/// One GDDR5 channel with FR-FCFS scheduling, generic over the caller's
/// completion token `T`.
///
/// # Examples
///
/// ```
/// use gcache_sim::dram::Dram;
/// use gcache_sim::config::DramTiming;
/// use gcache_core::addr::LineAddr;
///
/// let mut dram: Dram<u32> = Dram::new(DramTiming::default(), 4, 2048, 32, 128);
/// dram.enqueue(LineAddr::new(0), false, 1, 0).unwrap();
/// let mut done = None;
/// for now in 1..200 {
///     dram.tick(now);
///     if let Some(t) = dram.pop_completed(now) {
///         done = Some((t, now));
///         break;
///     }
/// }
/// let (token, cycle) = done.expect("request completed");
/// assert_eq!(token, 1);
/// // Cold access: activate (tRCD=12) + CAS (tCL=12) + burst (4).
/// assert!(cycle >= 28);
/// ```
#[derive(Debug)]
pub struct Dram<T> {
    timing: DramTiming,
    lines_per_row: u64,
    banks: Vec<Bank>,
    queue_cap: usize,
    queue: Vec<Pending<T>>,
    completions: Vec<Completion<T>>,
    bus_busy_until: u64,
    last_activate_any: u64,
    /// When set, [`Dram::tick`] elides scheduler scans on cycles provably
    /// below the [`Dram::next_event`] bound (reject passes mutate nothing,
    /// so the elision is exact). Off by default so the plain loop stays
    /// the reference implementation.
    event_gated: bool,
    /// Cached scan wake-up cycle; 0 forces a scan (reset on enqueue).
    wake: u64,
    stats: DramStats,
    /// Optional structured-event hook; detached (the default) the
    /// scheduler's only extra work is its discriminant test.
    trace: Tracer,
}

impl<T> Dram<T> {
    /// Creates a channel with `banks` banks of `row_bytes` rows, a
    /// `queue_cap`-deep controller queue, and `line_size`-byte bursts.
    ///
    /// # Panics
    ///
    /// Panics if `banks`/`queue_cap` are zero or `row_bytes < line_size`.
    pub fn new(
        timing: DramTiming,
        banks: usize,
        row_bytes: u32,
        queue_cap: usize,
        line_size: u32,
    ) -> Self {
        assert!(banks > 0, "need at least one bank");
        assert!(queue_cap > 0, "queue capacity must be positive");
        assert!(row_bytes >= line_size, "row smaller than a line");
        Dram {
            timing,
            lines_per_row: (row_bytes / line_size) as u64,
            banks: vec![
                Bank {
                    open_row: None,
                    ready_at: 0,
                    activated_at: 0
                };
                banks
            ],
            queue_cap,
            queue: Vec::with_capacity(queue_cap),
            completions: Vec::new(),
            bus_busy_until: 0,
            last_activate_any: 0,
            event_gated: false,
            wake: 0,
            stats: DramStats::default(),
            trace: Tracer::default(),
        }
    }

    /// Attaches the trace ring; every scheduled DRAM command emits a
    /// [`TraceKind::DramAccess`] with its row-buffer outcome.
    pub fn attach_trace(&mut self, src: TraceSource, ring: &SharedTraceRing) {
        self.trace = Tracer::attached(src, ring);
    }

    /// Enables or disables the internal scan elision (see `event_gated`).
    pub fn set_event_gating(&mut self, on: bool) {
        self.event_gated = on;
        self.wake = 0;
    }

    /// The statistics so far.
    pub const fn stats(&self) -> &DramStats {
        &self.stats
    }

    /// Whether the queue can accept another request.
    pub fn can_accept(&self) -> bool {
        self.queue.len() < self.queue_cap
    }

    /// Whether no requests are queued or in flight.
    pub fn is_idle(&self) -> bool {
        self.queue.is_empty() && self.completions.is_empty()
    }

    /// (bank, row) of a line under row-interleaved mapping: consecutive
    /// rows round-robin across banks so streams keep all banks busy.
    fn map(&self, line: LineAddr) -> (usize, u64) {
        let row_id = line.raw() / self.lines_per_row;
        let bank = (row_id % self.banks.len() as u64) as usize;
        (bank, row_id / self.banks.len() as u64)
    }

    /// Enqueues a request.
    ///
    /// # Errors
    ///
    /// Returns [`DramQueueFull`] when the controller queue is full.
    pub fn enqueue(
        &mut self,
        line: LineAddr,
        write: bool,
        token: T,
        now: u64,
    ) -> Result<(), DramQueueFull> {
        if self.queue.len() >= self.queue_cap {
            return Err(DramQueueFull);
        }
        let (bank, row) = self.map(line);
        self.queue.push(Pending {
            bank,
            row,
            write,
            token,
            arrived: now,
        });
        self.wake = 0;
        Ok(())
    }

    /// Pops one completed request whose data is available by `now`.
    pub fn pop_completed(&mut self, now: u64) -> Option<T> {
        let idx = self.completions.iter().position(|c| c.ready_at <= now)?;
        let c = self.completions.swap_remove(idx);
        self.stats.completed += 1;
        if c.write {
            self.stats.writes += 1;
        } else {
            self.stats.reads += 1;
        }
        Some(c.token)
    }

    /// Earliest data-ready cycle among buffered completions, if any.
    /// (Completions are drained by the owner via [`Dram::pop_completed`],
    /// so they are the owner's event, not [`Dram::tick`]'s.)
    pub fn next_completion(&self) -> Option<u64> {
        self.completions.iter().map(|c| c.ready_at).min()
    }

    /// A lower bound on the next cycle [`Dram::tick`] can commit a CAS:
    /// the minimum over pending requests of the earliest cycle their
    /// bank-state path (row hit / closed / conflict) satisfies every
    /// timing constraint the scheduler checks, including data-bus
    /// availability. Bank state cannot change on event-free cycles (the
    /// reject paths of `tick` mutate nothing), so per-request paths are
    /// stable across the gap; cross-request arbitration is ignored — it
    /// can only push the real commit later, never earlier.
    pub fn next_event(&self, now: u64) -> Option<u64> {
        if self.queue.is_empty() {
            return None;
        }
        let t = self.timing;
        let mut ev: Option<u64> = None;
        for p in &self.queue {
            let (row, b) = (p.row, &self.banks[p.bank]);
            let ready = match b.open_row {
                // Row hit: CAS at `t0`, data at `t0 + tCL` must clear the bus.
                Some(open) if open == row => b
                    .ready_at
                    .max(self.bus_busy_until.saturating_sub(t.t_cl as u64)),
                // Conflict: precharge gated by tRAS/tRC/tRRD; CAS lands at
                // `t0 + tRP + tRCD`.
                Some(_) => b
                    .ready_at
                    .max(b.activated_at + t.t_ras as u64)
                    .max((b.activated_at + t.t_rc as u64).saturating_sub(t.t_rp as u64))
                    .max((self.last_activate_any + t.t_rrd as u64).saturating_sub(t.t_rp as u64))
                    .max(
                        self.bus_busy_until
                            .saturating_sub((t.t_cl + t.t_rp + t.t_rcd) as u64),
                    ),
                // Closed bank: activate gated by tRRD; CAS lands at `t0 + tRCD`.
                None => b.ready_at.max(self.last_activate_any + t.t_rrd as u64).max(
                    self.bus_busy_until
                        .saturating_sub((t.t_cl + t.t_rcd) as u64),
                ),
            }
            .max(now + 1);
            if ready == now + 1 {
                return Some(ready);
            }
            ev = Some(ev.map_or(ready, |e| e.min(ready)));
        }
        ev
    }

    /// Advances the controller by one cycle: issues at most one CAS (FR:
    /// oldest row hit first; FCFS otherwise).
    pub fn tick(&mut self, now: u64) {
        if self.queue.is_empty() {
            return;
        }
        // A commit at cycle `c` requires the chosen request's whole timing
        // path to be feasible at `c`, so `c` is at least the
        // [`Dram::next_event`] bound; every earlier tick is a pure no-op
        // (the reject paths below mutate nothing) and may be elided.
        if self.event_gated {
            if now < self.wake {
                return;
            }
            self.tick_scan(now);
            // Recompute from post-pass state: a commit already updated the
            // bank/bus bookkeeping, so the bound stays exact either way.
            self.wake = self.next_event(now).unwrap_or(u64::MAX);
        } else {
            self.tick_scan(now);
        }
    }

    /// One FR-FCFS scheduling pass (the body of [`Dram::tick`]).
    fn tick_scan(&mut self, now: u64) {
        let t = self.timing;
        // First-ready pass: the oldest request whose bank has its row open
        // and is ready, and for which the data bus is free at CAS+tCL.
        let mut choice: Option<(usize, bool)> = None; // (queue idx, is_row_hit)
        for (i, p) in self.queue.iter().enumerate() {
            let bank = &self.banks[p.bank];
            if bank.ready_at <= now && bank.open_row == Some(p.row) {
                choice = Some((i, true));
                break;
            }
        }
        if choice.is_none() {
            // FCFS pass: oldest request whose bank can start an
            // activate/precharge sequence now.
            for (i, p) in self.queue.iter().enumerate() {
                let bank = &self.banks[p.bank];
                if bank.ready_at > now {
                    continue;
                }
                match bank.open_row {
                    Some(_) => {
                        // Conflict: may precharge once tRAS honoured and
                        // re-activate once tRC honoured.
                        if now >= bank.activated_at + t.t_ras as u64
                            && now + t.t_rp as u64 >= bank.activated_at + t.t_rc as u64
                            && now + t.t_rp as u64 >= self.last_activate_any + t.t_rrd as u64
                        {
                            choice = Some((i, false));
                            break;
                        }
                    }
                    None => {
                        if now >= self.last_activate_any + t.t_rrd as u64 {
                            choice = Some((i, false));
                            break;
                        }
                    }
                }
            }
        }
        let Some((idx, row_hit)) = choice else { return };
        let (bank_id, row) = (self.queue[idx].bank, self.queue[idx].row);

        // Compute CAS time and make sure the data bus is free for the burst.
        let cas_at = if row_hit {
            now
        } else if self.banks[bank_id].open_row.is_some() {
            now + (t.t_rp + t.t_rcd) as u64
        } else {
            now + t.t_rcd as u64
        };
        let data_at = cas_at + t.t_cl as u64;
        if data_at < self.bus_busy_until {
            return; // bus conflict: retry next cycle
        }

        let p = self.queue.remove(idx);
        let bank = &mut self.banks[bank_id];
        let outcome = if row_hit {
            self.stats.row_hits += 1;
            DramRowOutcome::Hit
        } else if bank.open_row.is_some() {
            self.stats.row_conflicts += 1;
            bank.activated_at = now + t.t_rp as u64;
            self.last_activate_any = bank.activated_at;
            DramRowOutcome::Conflict
        } else {
            self.stats.row_opens += 1;
            bank.activated_at = now;
            self.last_activate_any = now;
            DramRowOutcome::Open
        };
        bank.open_row = Some(row);
        bank.ready_at = cas_at + 1;
        self.bus_busy_until = data_at + t.t_burst as u64;
        let done_at = data_at + t.t_burst as u64;
        self.stats.total_latency += done_at.saturating_sub(p.arrived);
        self.trace.emit(TraceKind::DramAccess {
            bank: bank_id as u16,
            row,
            outcome,
            write: p.write,
        });
        self.completions.push(Completion {
            token: p.token,
            ready_at: done_at,
            write: p.write,
        });
    }
}

impl<T: Codec> Snapshot for Dram<T> {
    /// Saves the banks, the pending queue (whose `Vec` order *is* the
    /// FCFS order, so it is authoritative), buffered completions, the
    /// bus/activation windows and statistics. The trace hook is an
    /// observation channel and is never serialized; the `wake` cache is
    /// re-derived on the first gated tick.
    fn save(&self, w: &mut SnapshotWriter) {
        w.section("dram", |w| {
            w.put(&self.banks);
            w.put(&self.queue);
            w.put(&self.completions);
            w.u64(self.bus_busy_until);
            w.u64(self.last_activate_any);
            w.put(&self.stats);
        });
    }

    fn restore(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        r.section("dram", |r| {
            r.fill(&mut self.banks, "DRAM banks")?;
            self.queue = r.get()?;
            if self.queue.len() > self.queue_cap {
                return Err(SnapshotError::BadValue {
                    what: "DRAM queue length".to_string(),
                    value: self.queue.len() as u64,
                });
            }
            if let Some(p) = self.queue.iter().find(|p| p.bank >= self.banks.len()) {
                return Err(SnapshotError::BadValue {
                    what: "DRAM request bank".to_string(),
                    value: p.bank as u64,
                });
            }
            self.completions = r.get()?;
            self.bus_busy_until = r.u64()?;
            self.last_activate_any = r.u64()?;
            self.wake = 0;
            self.stats = r.get()?;
            Ok(())
        })
    }
}

impl<T> crate::clocked::Clocked for Dram<T> {
    fn tick(&mut self, now: u64) {
        Dram::tick(self, now);
    }

    fn is_idle(&self) -> bool {
        Dram::is_idle(self)
    }

    fn next_event(&self, now: u64) -> Option<u64> {
        Dram::next_event(self, now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcache_core::snapshot::assert_round_trip;

    fn dram() -> Dram<u64> {
        Dram::new(DramTiming::default(), 4, 2048, 32, 128)
    }

    fn run_one(d: &mut Dram<u64>, line: u64, write: bool, token: u64, start: u64) -> u64 {
        d.enqueue(LineAddr::new(line), write, token, start).unwrap();
        for now in start + 1..start + 10_000 {
            d.tick(now);
            if let Some(t) = d.pop_completed(now) {
                assert_eq!(t, token);
                return now;
            }
        }
        panic!("request never completed");
    }

    #[test]
    fn cold_access_latency() {
        let mut d = dram();
        let done = run_one(&mut d, 0, false, 1, 0);
        // tRCD(12) + tCL(12) + burst(4) = 28 minimum.
        assert!((28..40).contains(&done), "cold access took {done}");
        assert_eq!(d.stats().row_opens, 1);
        assert_eq!(d.stats().reads, 1);
    }

    #[test]
    fn row_hit_is_fast() {
        let mut d = dram();
        let t1 = run_one(&mut d, 0, false, 1, 0);
        let t2 = run_one(&mut d, 1, false, 2, t1); // same 2 KB row (16 lines)
        let hit_latency = t2 - t1;
        // tCL(12) + burst(4) = 16 minimum, definitely < cold 28.
        assert!(hit_latency < 28, "row hit took {hit_latency}");
        assert_eq!(d.stats().row_hits, 1);
        assert!(d.stats().row_hit_rate() > 0.4);
    }

    #[test]
    fn row_conflict_is_slow() {
        let mut d = dram();
        let t1 = run_one(&mut d, 0, false, 1, 0);
        // Same bank, different row: lines_per_row=16, banks=4 → row_id 0
        // and row_id 64 both map to bank 0.
        let t2 = run_one(&mut d, 64 * 16, false, 2, t1);
        let conflict_latency = t2 - t1;
        // tRP + tRCD + tCL + burst = 40 minimum (plus tRAS wait).
        assert!(conflict_latency >= 40, "conflict took {conflict_latency}");
        assert_eq!(d.stats().row_conflicts, 1);
    }

    #[test]
    fn fr_fcfs_prefers_row_hit() {
        let mut d = dram();
        run_one(&mut d, 0, false, 1, 0); // opens bank0/row0
                                         // Enqueue a conflict (bank0, other row) then a row hit (bank0, row0).
        d.enqueue(LineAddr::new(64 * 16), false, 10, 100).unwrap();
        d.enqueue(LineAddr::new(2), false, 11, 100).unwrap();
        let mut order = Vec::new();
        for now in 101..2000 {
            d.tick(now);
            if let Some(t) = d.pop_completed(now) {
                order.push(t);
            }
            if order.len() == 2 {
                break;
            }
        }
        assert_eq!(order, vec![11, 10], "row hit must be served first");
    }

    #[test]
    fn banks_overlap_activations() {
        // Two cold accesses to different banks finish sooner than two
        // cold accesses to the same bank (different rows).
        let mut parallel = dram();
        parallel.enqueue(LineAddr::new(0), false, 1, 0).unwrap(); // bank 0
        parallel.enqueue(LineAddr::new(16), false, 2, 0).unwrap(); // bank 1
        let mut serial = dram();
        serial.enqueue(LineAddr::new(0), false, 1, 0).unwrap(); // bank 0 row 0
        serial.enqueue(LineAddr::new(64 * 16), false, 2, 0).unwrap(); // bank 0 row 64

        let finish = |d: &mut Dram<u64>| {
            let mut done = 0;
            for now in 1..5000 {
                d.tick(now);
                while d.pop_completed(now).is_some() {
                    done += 1;
                }
                if done == 2 {
                    return now;
                }
            }
            panic!("not finished");
        };
        let t_par = finish(&mut parallel);
        let t_ser = finish(&mut serial);
        assert!(t_par < t_ser, "parallel={t_par} serial={t_ser}");
    }

    #[test]
    fn queue_capacity_respected() {
        let mut d: Dram<u64> = Dram::new(DramTiming::default(), 4, 2048, 2, 128);
        d.enqueue(LineAddr::new(0), false, 1, 0).unwrap();
        d.enqueue(LineAddr::new(1), false, 2, 0).unwrap();
        assert!(!d.can_accept());
        assert_eq!(d.enqueue(LineAddr::new(2), false, 3, 0), Err(DramQueueFull));
    }

    #[test]
    fn writes_complete_and_count() {
        let mut d = dram();
        run_one(&mut d, 5, true, 9, 0);
        assert_eq!(d.stats().writes, 1);
        assert_eq!(d.stats().reads, 0);
        assert!(d.is_idle());
    }

    #[test]
    fn streaming_gets_high_row_hit_rate() {
        let mut d = dram();
        let mut sent = 0u64;
        let mut done = 0;
        for now in 1..100_000 {
            while sent < 64 && d.can_accept() {
                d.enqueue(LineAddr::new(sent), false, sent, now).unwrap();
                sent += 1;
            }
            d.tick(now);
            while d.pop_completed(now).is_some() {
                done += 1;
            }
            if done == 64 {
                break;
            }
        }
        assert_eq!(done, 64);
        // 64 consecutive lines = 4 rows of 16 lines: 60/64 row hits.
        assert!(
            d.stats().row_hit_rate() > 0.8,
            "hit rate {}",
            d.stats().row_hit_rate()
        );
    }

    #[test]
    fn mean_latency_positive() {
        let mut d = dram();
        run_one(&mut d, 0, false, 1, 0);
        assert!(d.stats().mean_latency() >= 28.0);
    }

    #[test]
    fn records_round_trip_through_a_snapshot() {
        assert_round_trip(&DramStats {
            reads: 1,
            writes: 2,
            row_hits: 3,
            row_opens: 4,
            row_conflicts: 5,
            total_latency: 6,
            completed: 7,
        });
        for open_row in [Some(1), None] {
            assert_round_trip(&Bank {
                open_row,
                ready_at: 2,
                activated_at: 3,
            });
        }
        assert_round_trip(&Pending {
            bank: 1,
            row: 2,
            write: true,
            token: 3u32,
            arrived: 4,
        });
        assert_round_trip(&Completion {
            token: 1u32,
            ready_at: 2,
            write: false,
        });
    }
}
