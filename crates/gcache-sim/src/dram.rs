//! FR-FCFS GDDR5 DRAM channel model (Table 2's DRAM row).
//!
//! One instance models one memory controller: a bounded request queue, a
//! set of banks with open-row state, a shared data bus, and a
//! first-ready–first-come-first-served scheduler (row hits first, then
//! oldest). Timing honours tCL/tRP/tRC/tRAS/tRCD/tRRD and the burst
//! transfer time of a 128 B line over the 32 B channel.
//!
//! The scheduler decides from the banks, not the queue. Beside the queue
//! (whose order is the FCFS order) each bank keeps two counts: requests
//! queued for it and, of those, the ones whose row is its open row. Every
//! request of one bank in one row-buffer category (hit, conflict, closed)
//! has the same timing bound, so [`Dram::next_event`] folds over banks and
//! is exactly the old per-request minimum; a scheduling pass walks the
//! queue only when some bank says the walk will find a request, and then
//! stops at the same entry the unconditional walk did. The counts move on
//! enqueue and commit; an activation changes a bank's open row and
//! recounts that one bank's hits. The scanning scheduler survives as the
//! reference model (`RefDram`, in this file's tests) the property tests
//! compare against.
//!
//! The bound itself is maintained, not folded per read: every term of it
//! is fixed between commits, so an enqueue can only add terms (it lowers
//! the bound to its bank's term) and only a commit moves the old ones (it
//! refolds over the banks). Reading the bound is O(1).

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

/// One bank's share of the queue. Acceleration state: never serialized,
/// rebuilt from the queue and the banks on restore.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct BankLoad {
    /// Requests queued for the bank.
    queued: u32,
    /// Of those, the ones whose row is the bank's open row.
    open_hits: u32,
}

/// Counts every bank's load from scratch.
fn count_load<T>(banks: &[Bank], queue: &[Pending<T>]) -> Vec<BankLoad> {
    let mut load = vec![BankLoad::default(); banks.len()];
    for p in queue {
        let l = &mut load[p.bank];
        l.queued += 1;
        l.open_hits += u32::from(banks[p.bank].open_row == Some(p.row));
    }
    load
}

/// The terms of the commit bound every bank shares, one per row-buffer
/// path; like the banks' own terms they change only on a commit.
struct Floors {
    hit: u64,
    conflict: u64,
    closed: u64,
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
    /// Per-bank counts of `queue`, indexed like `banks`.
    load: Vec<BankLoad>,
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
    /// The earliest cycle any queued request could commit, unclamped
    /// (`u64::MAX` with an empty queue): the minimum of the per-bank
    /// terms, lowered on enqueue and refolded on commit. Acceleration
    /// state: never serialized, refolded on restore.
    bound: u64,
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
            load: vec![BankLoad::default(); banks],
            queue_cap,
            queue: Vec::with_capacity(queue_cap),
            completions: Vec::new(),
            bus_busy_until: 0,
            last_activate_any: 0,
            event_gated: false,
            bound: u64::MAX,
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
        let load = &mut self.load[bank];
        load.queued += 1;
        load.open_hits += u32::from(self.banks[bank].open_row == Some(row));
        self.queue.push(Pending {
            bank,
            row,
            write,
            token,
            arrived: now,
        });
        self.bound = self.bound.min(self.bank_term(&self.floors(), bank));
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
    ///
    /// A request's path depends only on its bank and on whether its row is
    /// the open one, so the minimum is taken over banks: a bank with open
    /// hits contributes the hit path, a bank with any other request the
    /// conflict or closed path. That minimum is maintained as `bound`
    /// (see the module docs), so this is a read.
    pub fn next_event(&self, now: u64) -> Option<u64> {
        (!self.queue.is_empty()).then(|| self.bound.max(now + 1))
    }

    /// The terms of each path that every bank shares.
    fn floors(&self) -> Floors {
        let t = self.timing;
        Floors {
            // Row hit: CAS at `t0`, data at `t0 + tCL` must clear the bus.
            hit: self.bus_busy_until.saturating_sub(t.t_cl as u64),
            // Conflict: precharge gated by tRAS/tRC/tRRD; CAS lands at
            // `t0 + tRP + tRCD`.
            conflict: (self.last_activate_any + t.t_rrd as u64)
                .saturating_sub(t.t_rp as u64)
                .max(
                    self.bus_busy_until
                        .saturating_sub((t.t_cl + t.t_rp + t.t_rcd) as u64),
                ),
            // Closed bank: activate gated by tRRD; CAS lands at `t0 + tRCD`.
            closed: (self.last_activate_any + t.t_rrd as u64).max(
                self.bus_busy_until
                    .saturating_sub((t.t_cl + t.t_rcd) as u64),
            ),
        }
    }

    /// Bank `bank`'s term of the bound: the earliest cycle one of its
    /// queued requests could commit (`u64::MAX` with none queued).
    fn bank_term(&self, floors: &Floors, bank: usize) -> u64 {
        let (t, b, load) = (self.timing, &self.banks[bank], self.load[bank]);
        let mut ev = u64::MAX;
        if load.open_hits > 0 {
            ev = b.ready_at.max(floors.hit);
        }
        if load.queued > load.open_hits {
            ev = ev.min(match b.open_row {
                Some(_) => b
                    .ready_at
                    .max(b.activated_at + t.t_ras as u64)
                    .max((b.activated_at + t.t_rc as u64).saturating_sub(t.t_rp as u64))
                    .max(floors.conflict),
                None => b.ready_at.max(floors.closed),
            });
        }
        ev
    }

    /// The bound folded from scratch over every bank.
    fn fold_bound(&self) -> u64 {
        let floors = self.floors();
        (0..self.banks.len())
            .map(|b| self.bank_term(&floors, b))
            .min()
            .unwrap_or(u64::MAX)
    }

    /// Advances the controller by one cycle: issues at most one CAS (FR:
    /// oldest row hit first; FCFS otherwise).
    pub fn tick(&mut self, now: u64) {
        // A commit at cycle `c` requires the chosen request's whole timing
        // path to be feasible at `c`, so `c` is at least the bound; every
        // earlier tick is a pure no-op (the reject paths below mutate
        // nothing) and may be elided.
        if self.queue.is_empty() || (self.event_gated && now < self.bound) {
            return;
        }
        self.tick_scan(now);
    }

    /// Whether bank `b` can start an activate/precharge sequence at `now`.
    fn can_activate(&self, b: &Bank, now: u64) -> bool {
        let t = self.timing;
        b.ready_at <= now
            && match b.open_row {
                // Conflict: may precharge once tRAS honoured and
                // re-activate once tRC honoured.
                Some(_) => {
                    now >= b.activated_at + t.t_ras as u64
                        && now + t.t_rp as u64 >= b.activated_at + t.t_rc as u64
                        && now + t.t_rp as u64 >= self.last_activate_any + t.t_rrd as u64
                }
                None => now >= self.last_activate_any + t.t_rrd as u64,
            }
    }

    /// One FR-FCFS scheduling pass (the body of [`Dram::tick`]). A walk of
    /// the queue runs only when some bank guarantees it finds a request.
    fn tick_scan(&mut self, now: u64) {
        let t = self.timing;
        let banks = || self.banks.iter().zip(&self.load);
        let choice = if banks().any(|(b, l)| l.open_hits > 0 && b.ready_at <= now) {
            // First-ready pass: the oldest request whose bank has its row
            // open and is ready.
            let hit = self.queue.iter().position(|p| {
                let bank = &self.banks[p.bank];
                bank.ready_at <= now && bank.open_row == Some(p.row)
            });
            hit.map(|i| (i, true))
        } else if banks().any(|(b, l)| l.queued > 0 && self.can_activate(b, now)) {
            // FCFS pass: the oldest request whose bank can start an
            // activate/precharge sequence now.
            let first = self
                .queue
                .iter()
                .position(|p| self.can_activate(&self.banks[p.bank], now));
            first.map(|i| (i, false))
        } else {
            None
        };
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
        let load = &mut self.load[bank_id];
        load.queued -= 1;
        if row_hit {
            load.open_hits -= 1;
        } else {
            // An activation: the open row changed, and with it which of the
            // bank's queued requests hit.
            let hits = self
                .queue
                .iter()
                .filter(|q| q.bank == bank_id && q.row == row);
            load.open_hits = hits.count() as u32;
        }
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
        // The commit moved the bus, the activation window and one bank:
        // every term may have changed.
        self.bound = self.fold_bound();
    }
}

impl<T: Codec> Snapshot for Dram<T> {
    /// Saves the banks, the pending queue (whose `Vec` order *is* the
    /// FCFS order, so it is authoritative), buffered completions, the
    /// bus/activation windows and statistics. The trace hook is an
    /// observation channel and is never serialized; the per-bank counts
    /// are recounted from the restored queue and banks, and the bound is
    /// refolded once every field it reads is back.
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
            self.load = count_load(&self.banks, &self.queue);
            self.completions = r.get()?;
            self.bus_busy_until = r.u64()?;
            self.last_activate_any = r.u64()?;
            self.stats = r.get()?;
            self.bound = self.fold_bound();
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
    use gcache_core::rng::SmallRng;
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

    impl<T> Dram<T> {
        /// Whether the maintained per-bank counts equal a recount.
        fn counts_consistent(&self) -> bool {
            self.load == count_load(&self.banks, &self.queue)
        }

        /// Whether the maintained bound equals a fold over the banks.
        fn bound_consistent(&self) -> bool {
            self.bound == self.fold_bound()
        }
    }

    /// The scheduler as it was before the per-bank counts: both passes and
    /// the bound walk the whole queue every time. Ticked every cycle, it
    /// is the reference the property tests hold [`Dram`] to.
    struct RefDram {
        timing: DramTiming,
        lines_per_row: u64,
        banks: Vec<Bank>,
        queue_cap: usize,
        queue: Vec<Pending<u64>>,
        completions: Vec<Completion<u64>>,
        bus_busy_until: u64,
        last_activate_any: u64,
        stats: DramStats,
    }

    impl RefDram {
        fn new(timing: DramTiming, banks: usize, row_bytes: u32, queue_cap: usize) -> Self {
            RefDram {
                timing,
                lines_per_row: (row_bytes / 128) as u64,
                banks: vec![
                    Bank {
                        open_row: None,
                        ready_at: 0,
                        activated_at: 0
                    };
                    banks
                ],
                queue_cap,
                queue: Vec::new(),
                completions: Vec::new(),
                bus_busy_until: 0,
                last_activate_any: 0,
                stats: DramStats::default(),
            }
        }

        fn can_accept(&self) -> bool {
            self.queue.len() < self.queue_cap
        }

        fn is_idle(&self) -> bool {
            self.queue.is_empty() && self.completions.is_empty()
        }

        fn enqueue(&mut self, line: u64, write: bool, token: u64, now: u64) {
            assert!(self.can_accept());
            let row_id = line / self.lines_per_row;
            let bank = (row_id % self.banks.len() as u64) as usize;
            self.queue.push(Pending {
                bank,
                row: row_id / self.banks.len() as u64,
                write,
                token,
                arrived: now,
            });
        }

        fn pop_completed(&mut self, now: u64) -> Option<u64> {
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

        fn next_event(&self, now: u64) -> Option<u64> {
            if self.queue.is_empty() {
                return None;
            }
            let t = self.timing;
            let mut ev: Option<u64> = None;
            for p in &self.queue {
                let (row, b) = (p.row, &self.banks[p.bank]);
                let ready = match b.open_row {
                    Some(open) if open == row => b
                        .ready_at
                        .max(self.bus_busy_until.saturating_sub(t.t_cl as u64)),
                    Some(_) => b
                        .ready_at
                        .max(b.activated_at + t.t_ras as u64)
                        .max((b.activated_at + t.t_rc as u64).saturating_sub(t.t_rp as u64))
                        .max(
                            (self.last_activate_any + t.t_rrd as u64).saturating_sub(t.t_rp as u64),
                        )
                        .max(
                            self.bus_busy_until
                                .saturating_sub((t.t_cl + t.t_rp + t.t_rcd) as u64),
                        ),
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

        fn tick(&mut self, now: u64) {
            let t = self.timing;
            let mut choice: Option<(usize, bool)> = None;
            for (i, p) in self.queue.iter().enumerate() {
                let bank = &self.banks[p.bank];
                if bank.ready_at <= now && bank.open_row == Some(p.row) {
                    choice = Some((i, true));
                    break;
                }
            }
            if choice.is_none() {
                for (i, p) in self.queue.iter().enumerate() {
                    let bank = &self.banks[p.bank];
                    if bank.ready_at > now {
                        continue;
                    }
                    match bank.open_row {
                        Some(_) => {
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
            let cas_at = if row_hit {
                now
            } else if self.banks[bank_id].open_row.is_some() {
                now + (t.t_rp + t.t_rcd) as u64
            } else {
                now + t.t_rcd as u64
            };
            let data_at = cas_at + t.t_cl as u64;
            if data_at < self.bus_busy_until {
                return;
            }
            let p = self.queue.remove(idx);
            let bank = &mut self.banks[bank_id];
            if row_hit {
                self.stats.row_hits += 1;
            } else if bank.open_row.is_some() {
                self.stats.row_conflicts += 1;
                bank.activated_at = now + t.t_rp as u64;
                self.last_activate_any = bank.activated_at;
            } else {
                self.stats.row_opens += 1;
                bank.activated_at = now;
                self.last_activate_any = now;
            }
            bank.open_row = Some(row);
            bank.ready_at = cas_at + 1;
            self.bus_busy_until = data_at + t.t_burst as u64;
            let done_at = data_at + t.t_burst as u64;
            self.stats.total_latency += done_at.saturating_sub(p.arrived);
            self.completions.push(Completion {
                token: p.token,
                ready_at: done_at,
                write: p.write,
            });
        }
    }

    /// One seeded case: a channel shape and an arrival script (cycle, line,
    /// write) that does not depend on any model's state. A request the
    /// queue has no room for at its cycle is dropped; its token is its
    /// index in the script.
    struct Scenario {
        timing: DramTiming,
        banks: usize,
        row_bytes: u32,
        queue_cap: usize,
        script: Vec<(u64, u64, bool)>,
    }

    /// Banks 1–8, queue capacities 1–32, Table 2's timing and seeded
    /// variations of it, under three streams — row-hit heavy (a few hot
    /// rows, mostly reads), conflict heavy (a new row nearly every time),
    /// mixed (either, half of them writes) — each offered from a trickle
    /// to two requests a cycle, which keeps small queues full.
    fn scenarios() -> Vec<Scenario> {
        const STREAMS: usize = 3;
        const LOADS: [u64; 3] = [4, 24, 64];
        let mut out = Vec::new();
        for case in 0..48u64 {
            let (stream, load) = (case as usize % STREAMS, LOADS[case as usize / 16]);
            let mut rng = SmallRng::seed_from_u64(0xD7A4 ^ case);
            let banks = rng.gen_range(1..9) as usize;
            let row_bytes = if rng.gen_bool(0.5) { 2048 } else { 256 };
            let lines_per_row = u64::from(row_bytes / 128);
            let timing = if case % 2 == 0 {
                DramTiming::default()
            } else {
                DramTiming {
                    t_cl: rng.gen_range(1..16) as u32,
                    t_rp: rng.gen_range(1..16) as u32,
                    t_rc: rng.gen_range(1..48) as u32,
                    t_ras: rng.gen_range(1..32) as u32,
                    t_rcd: rng.gen_range(1..16) as u32,
                    t_rrd: rng.gen_range(1..8) as u32,
                    t_burst: rng.gen_range(1..6) as u32,
                }
            };
            let mut hot_row = 0u64;
            let mut script = Vec::new();
            for cycle in 1..600u64 {
                for _ in 0..2 {
                    if rng.gen_range(0..64) >= load {
                        continue;
                    }
                    let conflict = match stream {
                        0 => rng.gen_bool(0.05),
                        1 => rng.gen_bool(0.9),
                        _ => rng.gen_bool(0.5),
                    };
                    if conflict {
                        hot_row = rng.gen_range(0..banks as u64 * 64);
                    }
                    let line = hot_row * lines_per_row + rng.gen_range(0..lines_per_row);
                    let write = rng.gen_bool(if stream == 2 { 0.5 } else { 0.1 });
                    script.push((cycle, line, write));
                }
            }
            out.push(Scenario {
                timing,
                banks,
                row_bytes,
                queue_cap: rng.gen_range(1..33) as usize,
                script,
            });
        }
        out
    }

    /// What a model did with a scenario: which scripted requests it
    /// accepted, its completions `(token, cycle)` in pop order, its
    /// `next_event` bound after every cycle, and its statistics.
    #[derive(Debug, PartialEq)]
    struct Outcome {
        accepted: Vec<bool>,
        completed: Vec<(u64, u64)>,
        bounds: Vec<Option<u64>>,
        stats: DramStats,
    }

    /// The reference, ticked every cycle until everything has completed.
    fn reference_outcome(sc: &Scenario) -> Outcome {
        let mut rf = RefDram::new(sc.timing, sc.banks, sc.row_bytes, sc.queue_cap);
        let mut out = Outcome {
            accepted: Vec::new(),
            completed: Vec::new(),
            bounds: Vec::new(),
            stats: DramStats::default(),
        };
        let mut now = 0;
        while out.accepted.len() < sc.script.len() || !rf.is_idle() {
            now += 1;
            assert!(now < 100_000, "reference model failed to drain");
            while let Some(&(at, line, write)) = sc.script.get(out.accepted.len()) {
                if at != now {
                    break;
                }
                let room = rf.can_accept();
                if room {
                    rf.enqueue(line, write, out.accepted.len() as u64, now);
                }
                out.accepted.push(room);
            }
            rf.tick(now);
            while let Some(token) = rf.pop_completed(now) {
                out.completed.push((token, now));
            }
            out.bounds.push(rf.next_event(now));
        }
        out.stats = rf.stats;
        out
    }

    fn build(sc: &Scenario, gated: bool) -> Dram<u64> {
        let mut d = Dram::new(sc.timing, sc.banks, sc.row_bytes, sc.queue_cap, 128);
        d.set_event_gating(gated);
        d
    }

    /// The channel on the same scenario. With `jump` the driver never
    /// ticks a cycle the channel has not asked for: it goes straight to
    /// the earliest of the `next_event` bound, the next buffered
    /// completion and the next scripted arrival, reading the bound of
    /// every skipped cycle on the way (the state it would have had there).
    /// With `restore_at`, the channel is saved after that cycle and the
    /// run continues on a fresh channel restored from the bytes.
    fn dram_outcome(sc: &Scenario, gated: bool, jump: bool, restore_at: Option<u64>) -> Outcome {
        let mut d = build(sc, gated);
        let mut out = Outcome {
            accepted: Vec::new(),
            completed: Vec::new(),
            bounds: Vec::new(),
            stats: DramStats::default(),
        };
        let mut now = 0;
        while out.accepted.len() < sc.script.len() || !d.is_idle() {
            let next = if jump {
                let arrival = sc.script.get(out.accepted.len()).map(|&(at, ..)| at);
                let events = [d.next_event(now), d.next_completion(), arrival];
                let next = events.into_iter().flatten().min();
                next.expect("a channel with work left has an event")
                    .max(now + 1)
            } else {
                now + 1
            };
            out.bounds.extend((now + 1..next).map(|c| d.next_event(c)));
            now = next;
            assert!(now < 100_000, "channel failed to drain");
            while let Some(&(at, line, write)) = sc.script.get(out.accepted.len()) {
                if at != now {
                    break;
                }
                let token = out.accepted.len() as u64;
                let room = d.enqueue(LineAddr::new(line), write, token, now).is_ok();
                out.accepted.push(room);
            }
            d.tick(now);
            while let Some(token) = d.pop_completed(now) {
                out.completed.push((token, now));
            }
            out.bounds.push(d.next_event(now));
            assert!(d.counts_consistent(), "bank counts drifted at cycle {now}");
            assert!(d.bound_consistent(), "bound drifted at cycle {now}");
            if restore_at == Some(now) {
                let mut w = SnapshotWriter::new();
                d.save(&mut w);
                let bytes = w.finish();
                d = build(sc, gated);
                d.restore(&mut SnapshotReader::new(&bytes).unwrap())
                    .unwrap();
                assert!(d.counts_consistent(), "restore left counts unrebuilt");
                assert!(d.bound_consistent(), "restore left the bound unfolded");
            }
        }
        out.stats = *d.stats();
        out
    }

    /// Seeded property: on every scenario the channel accepts the same
    /// requests as the scanning reference, completes the same tokens on
    /// the same cycles in the same order, reports the same bound after
    /// every cycle and ends with the same statistics.
    fn assert_matches_reference(gated: bool, jump: bool, restore: bool) {
        let mut total = DramStats::default();
        let mut dropped = 0;
        for (i, sc) in scenarios().iter().enumerate() {
            let expect = reference_outcome(sc);
            total.merge(&expect.stats);
            dropped += expect.accepted.iter().filter(|&&a| !a).count();
            // Mid-stream: a third of the way in, with the queue still busy.
            let restore_at = restore.then_some(expect.bounds.len() as u64 / 3);
            let got = dram_outcome(sc, gated, jump, restore_at);
            assert_eq!(got, expect, "scenario {i}");
        }
        // The scenarios reach every commit kind and a full queue.
        assert!(total.row_hits > 0 && total.row_opens > 0 && total.row_conflicts > 0);
        assert!(
            total.writes > 0 && dropped > 0,
            "{total:?}, {dropped} dropped"
        );
    }

    #[test]
    fn dram_matches_reference_scheduler() {
        assert_matches_reference(false, false, false);
    }

    /// Gating elides scheduler passes, never reorders or retimes a commit.
    #[test]
    fn gated_dram_matches_reference_scheduler() {
        assert_matches_reference(true, false, false);
    }

    /// What the run loop's fast-forward relies on: a gated channel whose
    /// driver jumps straight to its bound misses nothing the reference
    /// does when ticked every cycle.
    #[test]
    fn fast_forwarded_dram_matches_reference_ticked_every_cycle() {
        assert_matches_reference(true, true, false);
    }

    /// The counts are not in the snapshot: a channel restored mid-stream
    /// into a fresh instance recounts them and continues as the
    /// uninterrupted reference does, gated or not.
    #[test]
    fn restored_dram_recounts_its_banks_and_continues() {
        assert_matches_reference(false, false, true);
        assert_matches_reference(true, true, true);
    }
}
