//! Time-series telemetry and simulator self-profiling.
//!
//! Aggregate [`crate::stats::SimStats`] answer *how the kernel ended*;
//! this module answers *how it got there*. A [`Sampler`] attached to a
//! [`crate::gpu::Gpu`] snapshots the hierarchy's cumulative counters every
//! `interval` cycles and turns consecutive snapshots into per-interval
//! [`Sample`] rows — IPC, miss and bypass ratios per level, the G-Cache
//! switch-on fraction, victim-bit set/hit/clear rates, MSHR high-water
//! marks, mesh occupancy and the DRAM row-hit rate — held in a
//! preallocated ring and exportable as CSV.
//!
//! Sampling is *passive*: it only reads counters that the simulation
//! updates anyway, so a sampled run produces bit-identical [`SimStats`] to
//! an unsampled one (the `telemetry_off_identical` integration test in
//! `gcache-bench` enforces this). With no sampler attached the per-cycle
//! cost is one `Option` discriminant test.
//!
//! ### Alignment with G-Cache epochs
//!
//! G-Cache's epoch resets are *access-count* driven (every
//! `l1_epoch_len` accesses per L1, see
//! [`crate::config::GpuConfig::l1_epoch_len`]), while the sampler is
//! *cycle* driven — per-cache access counts cannot be aligned across 16
//! L1s anyway. The default interval ([`DEFAULT_INTERVAL`]) is sized so
//! that, at typical L1 access rates, one sample spans the same order of
//! magnitude as one epoch; a sample's switch-on fraction is therefore a
//! point reading between (approximately) one epoch's worth of activity.
//!
//! [`SimStats`]: crate::stats::SimStats
//!
//! # Examples
//!
//! ```
//! use gcache_sim::telemetry::{Sample, Sampler};
//!
//! let s = Sampler::new(1024);
//! assert_eq!(s.interval(), 1024);
//! assert!(s.is_empty());
//! // One CSV cell per header column.
//! let row = Sample { cycle: 2048, ipc: 0.875, ..Sample::default() }.csv_row();
//! assert_eq!(row, "2048,0,0,0.875,0,0,0,0,0,0,0,0,0,0,0,0,0,0");
//! assert_eq!(row.split(',').count(), Sample::CSV_HEADER.split(',').count());
//! ```

use gcache_core::record;
use gcache_core::snapshot::{Snapshot, SnapshotError, SnapshotReader, SnapshotWriter};
use std::fmt;

/// Default sampling interval in cycles.
pub const DEFAULT_INTERVAL: u64 = 4096;

/// Default ring capacity in samples.
pub const DEFAULT_CAPACITY: usize = 4096;

record! {
    /// Cumulative counter snapshot of the whole machine at one cycle — the
    /// sampler's input, produced by `Gpu::telemetry_snapshot`. All counter
    /// fields are running totals; the `switch_*`, `mshr_peak` and `noc_*`
    /// fields are point-in-time gauges.
    #[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
    pub struct TelemetrySnapshot {
        /// Cycle at which the snapshot was taken.
        pub cycle: u64,
        /// Warp instructions issued so far.
        pub instructions: u64,
        /// L1 accesses (all cores).
        pub l1_accesses: u64,
        /// L1 misses (all cores).
        pub l1_misses: u64,
        /// L1 fills (all cores).
        pub l1_fills: u64,
        /// L1 fills bypassed (all cores).
        pub l1_bypassed: u64,
        /// L1.5 accesses (all clusters; 0 on a flat machine).
        pub l15_accesses: u64,
        /// L1.5 misses.
        pub l15_misses: u64,
        /// L2 accesses (all banks).
        pub l2_accesses: u64,
        /// L2 misses.
        pub l2_misses: u64,
        /// Victim bits newly set (all L2 banks).
        pub victim_sets: u64,
        /// Victim-bit observations that found the bit set (contention hints).
        pub victim_hits: u64,
        /// Victim-bit line clears that dropped at least one set bit.
        pub victim_clears: u64,
        /// DRAM row-buffer hits (all channels).
        pub dram_row_hits: u64,
        /// DRAM row activations of any kind (hits + opens + conflicts).
        pub dram_row_total: u64,
        /// Gauge: L1 sets with the G-Cache bypass switch open, summed over
        /// cores (0 under non-G-Cache policies).
        pub switch_open: u64,
        /// Gauge: total L1 sets with a switch, summed over cores.
        pub switch_sets: u64,
        /// Gauge: highest L1 MSHR occupancy seen so far on any core.
        pub mshr_peak: u64,
        /// Gauge: packets currently inside both meshes.
        pub noc_in_flight: u64,
        /// Gauge: deepest per-router injection queue across both meshes.
        pub noc_queue_depth: u64,
        /// Packets injected into either mesh.
        pub noc_packets: u64,
        /// Failed mesh injection attempts (local queue full), both meshes.
        pub noc_inject_fails: u64,
        /// Packets delivered by either mesh.
        pub noc_delivered: u64,
        /// Summed inject→delivery latency of delivered packets, both meshes.
        pub noc_total_latency: u64,
    }
}

record! {
    /// One per-interval telemetry row (deltas of two [`TelemetrySnapshot`]s,
    /// rates already derived; gauges carried through).
    #[derive(Clone, Copy, Default, PartialEq, Debug)]
    pub struct Sample {
        /// Cycle at the end of the interval.
        pub cycle: u64,
        /// Interval length in cycles (the final row of a kernel may be
        /// shorter than the configured interval).
        pub cycles: u64,
        /// Instructions issued in the interval.
        pub instructions: u64,
        /// Instructions per cycle over the interval.
        pub ipc: f64,
        /// L1 miss rate over the interval's L1 accesses (0 if none).
        pub l1_miss_rate: f64,
        /// Bypassed fraction of the interval's L1 fills (0 if none).
        pub l1_bypass_ratio: f64,
        /// L1.5 miss rate over the interval (0 if none / flat machine).
        pub l15_miss_rate: f64,
        /// L2 miss rate over the interval (0 if none).
        pub l2_miss_rate: f64,
        /// Gauge: fraction of L1 sets with the bypass switch open at the
        /// sample point (0 under non-G-Cache policies).
        pub switch_on_frac: f64,
        /// Victim bits newly set per L2 access in the interval.
        pub victim_set_rate: f64,
        /// Victim-bit hits (contention signals) per L2 access.
        pub victim_hit_rate: f64,
        /// Victim-bit clears per L2 access.
        pub victim_clear_rate: f64,
        /// Gauge: highest L1 MSHR occupancy seen so far on any core.
        pub mshr_peak: u64,
        /// Gauge: packets inside both meshes at the sample point.
        pub noc_in_flight: u64,
        /// Gauge: deepest per-router injection queue at the sample point.
        pub noc_queue_depth: u64,
        /// DRAM row-hit rate over the interval's activations (0 if none).
        pub dram_row_hit_rate: f64,
        /// Failed fraction of the interval's mesh injection attempts
        /// (fails / (packets + fails), both meshes; 0 if none).
        pub noc_inject_fail_rate: f64,
        /// Mean inject→delivery latency of the packets delivered in the
        /// interval, in cycles (both meshes; 0 if none).
        pub noc_mean_latency: f64,
    }
    impl fields as dyn fmt::Display;
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

impl Sample {
    /// The CSV column names, in [`Sample::csv_row`] order: the field
    /// names of the declaration above.
    pub const CSV_HEADER: &'static str = Sample::FIELDS;

    /// Derives one row from two snapshots (`prev` earlier, `cur` later).
    pub fn between(prev: &TelemetrySnapshot, cur: &TelemetrySnapshot) -> Self {
        let cycles = cur.cycle.saturating_sub(prev.cycle);
        let instructions = cur.instructions - prev.instructions;
        let l1_acc = cur.l1_accesses - prev.l1_accesses;
        let l1_fills = cur.l1_fills + cur.l1_bypassed - prev.l1_fills - prev.l1_bypassed;
        let l2_acc = cur.l2_accesses - prev.l2_accesses;
        Sample {
            cycle: cur.cycle,
            cycles,
            instructions,
            ipc: ratio(instructions, cycles),
            l1_miss_rate: ratio(cur.l1_misses - prev.l1_misses, l1_acc),
            l1_bypass_ratio: ratio(cur.l1_bypassed - prev.l1_bypassed, l1_fills),
            l15_miss_rate: ratio(
                cur.l15_misses - prev.l15_misses,
                cur.l15_accesses - prev.l15_accesses,
            ),
            l2_miss_rate: ratio(cur.l2_misses - prev.l2_misses, l2_acc),
            switch_on_frac: ratio(cur.switch_open, cur.switch_sets),
            victim_set_rate: ratio(cur.victim_sets - prev.victim_sets, l2_acc),
            victim_hit_rate: ratio(cur.victim_hits - prev.victim_hits, l2_acc),
            victim_clear_rate: ratio(cur.victim_clears - prev.victim_clears, l2_acc),
            mshr_peak: cur.mshr_peak,
            noc_in_flight: cur.noc_in_flight,
            noc_queue_depth: cur.noc_queue_depth,
            dram_row_hit_rate: ratio(
                cur.dram_row_hits - prev.dram_row_hits,
                cur.dram_row_total - prev.dram_row_total,
            ),
            noc_inject_fail_rate: {
                let fails = cur.noc_inject_fails - prev.noc_inject_fails;
                let packets = cur.noc_packets - prev.noc_packets;
                ratio(fails, packets + fails)
            },
            noc_mean_latency: ratio(
                cur.noc_total_latency - prev.noc_total_latency,
                cur.noc_delivered - prev.noc_delivered,
            ),
        }
    }

    /// One CSV row in [`Sample::CSV_HEADER`] order. Floats use Rust's
    /// shortest round-trippable representation, so a reader parsing a
    /// cell as `f64` recovers the exact value.
    pub fn csv_row(&self) -> String {
        let cells: Vec<String> = self.fields().iter().map(|(_, v)| v.to_string()).collect();
        cells.join(",")
    }
}

/// The cycle-driven time-series sampler: attach to a
/// [`crate::gpu::Gpu`] via [`crate::gpu::Gpu::attach_sampler`], run a
/// kernel, take it back with [`crate::gpu::Gpu::take_sampler`] and export.
///
/// The ring is preallocated at construction; once full, the oldest rows
/// are overwritten (`dropped` counts them), so a sampled run performs no
/// steady-state allocation.
#[derive(Debug)]
pub struct Sampler {
    interval: u64,
    cap: usize,
    ring: Vec<Sample>,
    /// Index of the oldest row once the ring has wrapped.
    head: usize,
    dropped: u64,
    prev: Option<TelemetrySnapshot>,
    next_due: u64,
}

impl Sampler {
    /// A sampler recording every `interval` cycles into a ring of
    /// [`DEFAULT_CAPACITY`] rows.
    ///
    /// # Panics
    ///
    /// Panics if `interval` is zero.
    pub fn new(interval: u64) -> Self {
        Sampler::with_capacity(interval, DEFAULT_CAPACITY)
    }

    /// A sampler with an explicit ring capacity.
    ///
    /// # Panics
    ///
    /// Panics if `interval` or `capacity` is zero.
    pub fn with_capacity(interval: u64, capacity: usize) -> Self {
        assert!(interval > 0, "sampling interval must be positive");
        assert!(capacity > 0, "sample ring capacity must be positive");
        Sampler {
            interval,
            cap: capacity,
            ring: Vec::with_capacity(capacity),
            head: 0,
            dropped: 0,
            prev: None,
            next_due: 0,
        }
    }

    /// The sampling interval in cycles.
    pub const fn interval(&self) -> u64 {
        self.interval
    }

    /// The cycle at which the next sample is due (`u64::MAX` before the
    /// first [`Sampler::seed`]). The simulation driver caps its idle-cycle
    /// fast-forward jumps at this bound so the sample lands exactly on the
    /// grid.
    pub const fn due(&self) -> u64 {
        self.next_due
    }

    /// Establishes the baseline snapshot (kernel start). Only the first
    /// call per attachment takes effect, so back-to-back kernels on one
    /// GPU keep a continuous series.
    pub fn seed(&mut self, snap: TelemetrySnapshot) {
        if self.prev.is_none() {
            self.next_due = snap.cycle + self.interval;
            self.prev = Some(snap);
        }
    }

    /// Records the interval ending at `snap.cycle` and re-arms the timer.
    ///
    /// # Panics
    ///
    /// Panics if the sampler was never seeded.
    pub fn record(&mut self, snap: TelemetrySnapshot) {
        let prev = self.prev.expect("sampler must be seeded before recording");
        self.push(Sample::between(&prev, &snap));
        self.prev = Some(snap);
        self.next_due = snap.cycle + self.interval;
    }

    /// Records a final, possibly shorter interval at kernel end; a no-op
    /// if no cycles elapsed since the last sample (or the sampler was
    /// never seeded).
    pub fn record_final(&mut self, snap: TelemetrySnapshot) {
        match self.prev {
            Some(prev) if snap.cycle > prev.cycle => self.record(snap),
            _ => {}
        }
    }

    fn push(&mut self, s: Sample) {
        if self.ring.len() < self.cap {
            self.ring.push(s);
        } else {
            self.ring[self.head] = s;
            self.head = (self.head + 1) % self.cap;
            self.dropped += 1;
        }
    }

    /// The recorded rows, oldest first.
    pub fn samples(&self) -> Vec<Sample> {
        let mut out = Vec::with_capacity(self.ring.len());
        out.extend_from_slice(&self.ring[self.head..]);
        out.extend_from_slice(&self.ring[..self.head]);
        out
    }

    /// Number of rows currently held (≤ capacity).
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Rows overwritten because the ring was full.
    pub const fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The whole series as CSV (header + one row per sample).
    pub fn to_csv(&self) -> String {
        let mut out = String::from(Sample::CSV_HEADER);
        out.push('\n');
        for s in self.samples() {
            out.push_str(&s.csv_row());
            out.push('\n');
        }
        out
    }
}

impl Snapshot for Sampler {
    /// Saves the recorded ring (in raw storage order, with the wrap head),
    /// the drop counter and the timer state, so a resumed run extends the
    /// series exactly where the interrupted one left off. The interval and
    /// capacity are construction-time configuration and only checked.
    fn save(&self, w: &mut SnapshotWriter) {
        w.section("sampler", |w| {
            w.put(&(self.interval, self.cap));
            w.put(&self.ring);
            w.put(&(self.head, self.dropped));
            w.put(&self.prev);
            w.put(&self.next_due);
        });
    }

    fn restore(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        r.section("sampler", |r| {
            let interval: u64 = r.get()?;
            if interval != self.interval {
                return Err(SnapshotError::Mismatch {
                    what: format!(
                        "sampler interval (snapshot {interval}, machine {})",
                        self.interval
                    ),
                });
            }
            r.count(self.cap, "sampler capacity")?;
            let rows: Vec<Sample> = r.get()?;
            let len = rows.len();
            if len > self.cap {
                return Err(SnapshotError::BadValue {
                    what: "sampler ring length".into(),
                    value: len as u64,
                });
            }
            // Into the ring allocated at construction, so the resumed run
            // still records without allocating.
            self.ring.clear();
            self.ring.extend(rows);
            self.head = r.get()?;
            if self.head >= len.max(1) {
                return Err(SnapshotError::BadValue {
                    what: "sampler ring head".into(),
                    value: self.head as u64,
                });
            }
            self.dropped = r.get()?;
            self.prev = r.get()?;
            self.next_due = r.get()?;
            Ok(())
        })
    }
}

/// Wall-clock self-profile of one simulation: where the host time went,
/// per pipeline stage, plus fast-forward effectiveness counters. Attached
/// via [`crate::gpu::Gpu::enable_profiling`]; all fields accumulate across
/// kernels run on the same GPU.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct Profile {
    /// Wall-clock nanoseconds inside the core-array tick.
    pub core_ns: u64,
    /// Wall-clock nanoseconds inside the mesh tick.
    pub icnt_ns: u64,
    /// Wall-clock nanoseconds inside the cluster-cache tick.
    pub cluster_ns: u64,
    /// Wall-clock nanoseconds inside the memory-system tick.
    pub mem_ns: u64,
    /// Wall-clock nanoseconds inside CTA dispatch.
    pub dispatch_ns: u64,
    /// Cycles actually ticked (not fast-forwarded).
    pub ticked_cycles: u64,
    /// Fast-forward rounds that computed a next-event bound.
    pub bounds_computed: u64,
    /// Fast-forward jumps that skipped at least one cycle.
    pub ff_jumps: u64,
    /// Cycles elided by fast-forward jumps.
    pub cycles_skipped: u64,
    /// Component ticks elided by the per-component wake caches during
    /// ticked cycles (quiescent cores/partitions/clusters skipped).
    pub wake_skips: u64,
}

impl Profile {
    /// Total instrumented wall-clock nanoseconds.
    pub const fn total_ns(&self) -> u64 {
        self.core_ns + self.icnt_ns + self.cluster_ns + self.mem_ns + self.dispatch_ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcache_core::snapshot::assert_round_trip;

    fn snap(cycle: u64) -> TelemetrySnapshot {
        TelemetrySnapshot {
            cycle,
            instructions: cycle * 2,
            l1_accesses: cycle,
            l1_misses: cycle / 2,
            l1_fills: cycle / 4,
            l1_bypassed: cycle / 8,
            l2_accesses: cycle / 2,
            l2_misses: cycle / 8,
            victim_sets: cycle / 8,
            victim_hits: cycle / 16,
            victim_clears: cycle / 32,
            dram_row_hits: cycle / 16,
            dram_row_total: cycle / 8,
            switch_open: 8,
            switch_sets: 64,
            mshr_peak: 5,
            noc_in_flight: 3,
            noc_queue_depth: 2,
            noc_packets: cycle / 2,
            noc_inject_fails: cycle / 8,
            noc_delivered: cycle / 4,
            noc_total_latency: cycle * 4,
            ..Default::default()
        }
    }

    #[test]
    fn sample_derives_interval_rates() {
        let s = Sample::between(&snap(1024), &snap(2048));
        assert_eq!(s.cycle, 2048);
        assert_eq!(s.cycles, 1024);
        assert!((s.ipc - 2.0).abs() < 1e-12);
        assert!((s.l1_miss_rate - 0.5).abs() < 1e-12);
        assert!((s.switch_on_frac - 0.125).abs() < 1e-12);
        assert_eq!(s.mshr_peak, 5);
        // Δfails / (Δpackets + Δfails) = 128 / (512 + 128).
        assert!((s.noc_inject_fail_rate - 0.2).abs() < 1e-12);
        // Δlatency / Δdelivered = 4096 / 256.
        assert!((s.noc_mean_latency - 16.0).abs() < 1e-12);
    }

    #[test]
    fn empty_denominators_yield_zero() {
        let a = TelemetrySnapshot {
            cycle: 10,
            ..Default::default()
        };
        let b = TelemetrySnapshot {
            cycle: 20,
            ..Default::default()
        };
        let s = Sample::between(&a, &b);
        assert_eq!(s.ipc, 0.0);
        assert_eq!(s.l1_miss_rate, 0.0);
        assert_eq!(s.dram_row_hit_rate, 0.0);
        assert_eq!(s.switch_on_frac, 0.0);
        assert_eq!(s.noc_inject_fail_rate, 0.0);
        assert_eq!(s.noc_mean_latency, 0.0);
    }

    #[test]
    fn sampler_seeds_records_and_rearms() {
        let mut s = Sampler::new(1000);
        s.seed(snap(0));
        assert_eq!(s.due(), 1000);
        s.record(snap(1000));
        assert_eq!(s.due(), 2000);
        s.record_final(snap(1500));
        assert_eq!(s.len(), 2);
        let rows = s.samples();
        assert_eq!(rows[0].cycle, 1000);
        assert_eq!(rows[1].cycle, 1500);
        assert_eq!(rows[1].cycles, 500, "final row may be short");
        // No cycles elapsed: record_final is a no-op.
        s.record_final(snap(1500));
        assert_eq!(s.len(), 2);
        // Re-seeding after the first seed is a no-op.
        s.seed(snap(0));
        assert_eq!(s.due(), 2500);
    }

    #[test]
    fn ring_overwrites_oldest() {
        let mut s = Sampler::with_capacity(10, 3);
        s.seed(snap(0));
        for i in 1..=5u64 {
            s.record(snap(i * 10));
        }
        assert_eq!(s.len(), 3);
        assert_eq!(s.dropped(), 2);
        let rows = s.samples();
        assert_eq!(rows[0].cycle, 30, "oldest surviving row");
        assert_eq!(rows[2].cycle, 50);
    }

    #[test]
    fn csv_lists_every_row_exactly() {
        let mut s = Sampler::new(1000);
        s.seed(snap(0));
        s.record(snap(1000));
        s.record(snap(3000));
        let csv = s.to_csv();
        let mut lines = csv.lines();
        assert_eq!(lines.next(), Some(Sample::CSV_HEADER));
        let rows: Vec<&str> = lines.collect();
        let samples = s.samples();
        assert_eq!(
            rows,
            samples.iter().map(Sample::csv_row).collect::<Vec<_>>()
        );
        // A float cell reads back as the value that was written.
        let bypass = Sample::CSV_HEADER
            .split(',')
            .position(|c| c == "l1_bypass_ratio");
        let cell: f64 = rows[0]
            .split(',')
            .nth(bypass.unwrap())
            .unwrap()
            .parse()
            .unwrap();
        assert_eq!(cell, samples[0].l1_bypass_ratio);
    }

    #[test]
    fn profile_total_sums_every_stage() {
        let p = Profile {
            core_ns: 60,
            icnt_ns: 10,
            cluster_ns: 1,
            mem_ns: 25,
            dispatch_ns: 5,
            ..Profile::default()
        };
        assert_eq!(p.total_ns(), 101);
    }

    #[test]
    fn rows_and_snapshots_round_trip_through_a_snapshot() {
        // `snap` leaves the L1.5 pair at zero; every other field differs.
        let (a, b) = (snap(1024), snap(4096));
        assert_round_trip(&b);
        assert_round_trip(&Sample::between(&a, &b));
    }
}
