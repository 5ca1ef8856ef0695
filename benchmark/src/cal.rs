//! Calibrated host time.
//!
//! Raw wall-clock cannot gate anything on a small shared container (the
//! same binary's median moves by 10–40 % between back-to-back sets, see
//! README.md). Between every two timed points the harness therefore runs
//! a fixed piece of work and scales each point's wall time by how fast
//! the host ran that work just before and just after it. The result is
//! reported in *calibrated seconds*: the time the point would have taken
//! on a host that runs the loop at [`CAL_NOMINAL_NS_PER_STEP`].
//!
//! The work is chosen to slow down when the simulator does. Each step
//! allocates, fills and frees one boxed 512-byte slice (what the warp
//! programs do per memory op) against a live set of 1024, and makes 12
//! xorshift-driven read-modify-writes into a 2 MB table. On the host the
//! benchmark was defined on, tight register or table loops alone did not
//! follow the simulator's slow-downs (block-to-block spread of a
//! paper-scale point stayed at 10–13 %); with the allocation component it
//! fell to 3–7 % (README.md has the measurements).

use crate::span::Tracer;
use std::hint::black_box;
use std::time::Instant;

/// The calibration table: 2 MB of `u64`s — larger than a private L2.
const TABLE_WORDS: usize = (2 << 20) / 8;
/// Table read-modify-writes per step: about as much time as the step's
/// allocation, so both components weigh equally.
const TABLE_TOUCHES: usize = 12;
/// Boxed slices kept live; each step replaces a random one.
const LIVE_BOXES: usize = 1024;
/// Words per boxed slice: 512 bytes, one warp op's lane addresses.
const BOX_WORDS: u64 = 64;

/// Cost of one calibration step on the reference host (the 2-thread
/// container the benchmark was defined on, measured idle). Only the
/// ratio to the measured cost matters, so any fixed value would do; this
/// one keeps calibrated seconds close to wall seconds there.
pub const CAL_NOMINAL_NS_PER_STEP: f64 = 75.0;

/// Steps per calibration before a test-scale point (≈ 30 ms of work).
pub const CAL_STEPS_SMALL: u64 = 100_000;
/// Steps per calibration before a paper-scale point (≈ 400 ms of work).
pub const CAL_STEPS_LARGE: u64 = 600_000;
/// Steps per calibration around a point of a second or more.
pub const CAL_STEPS_HUGE: u64 = 2_000_000;

/// Above this mean relative difference between the calibrations applied
/// to neighbouring timed units the host changed speed faster than the
/// loops can follow, and the run's times cannot be compared with another
/// run's.
pub const CAL_SPREAD_LIMIT: f64 = 0.25;

/// Converts a wall time into calibrated seconds given the measured
/// calibration cost (ns per step) on either side of it.
pub fn calibrated_s(wall_ns: f64, cal_before: f64, cal_after: f64) -> f64 {
    let measured = (cal_before + cal_after) / 2.0;
    wall_ns * (CAL_NOMINAL_NS_PER_STEP / measured) / 1e9
}

/// One timed piece of work.
#[derive(Clone, Copy, Debug)]
pub struct Timing {
    /// Wall-clock nanoseconds, as measured.
    pub raw_ns: f64,
    /// Calibrated seconds.
    pub cal_s: f64,
}

impl Timing {
    fn new(raw_ns: f64, cal_before: f64, cal_after: f64) -> Timing {
        Timing {
            raw_ns,
            cal_s: calibrated_s(raw_ns, cal_before, cal_after),
        }
    }

    /// Calibrated seconds of `wall_ns` of the work this timing timed.
    /// `elasticity` is how strongly that work follows the loop: 1 for
    /// work that slows down as much as the loop does, less for work that
    /// slows by `slowdown^elasticity` when the loop slows by `slowdown`.
    pub fn calibrated(&self, wall_ns: f64, elasticity: f64) -> f64 {
        wall_ns / 1e9 * (self.cal_s * 1e9 / self.raw_ns).powf(elasticity)
    }
}

/// Interleaves calibration loops with timed work.
#[derive(Debug)]
pub struct Timer {
    table: Vec<u64>,
    live: Vec<Box<[u64]>>,
    state: u64,
    steps: u64,
    /// Cost of the calibration that ended last, reused as the next timed
    /// point's "before" sample so exactly one loop runs between points.
    last: Option<f64>,
    /// Every calibration sample taken, in ns per step.
    samples: Vec<f64>,
    /// The calibration cost applied to each timed unit, in ns per step.
    applied: Vec<f64>,
}

impl Timer {
    /// A timer whose calibration loops run `steps` steps each.
    pub fn new(steps: u64) -> Self {
        Timer {
            table: (0..TABLE_WORDS as u64).collect(),
            live: (0..LIVE_BOXES)
                .map(|_| vec![0; BOX_WORDS as usize].into())
                .collect(),
            state: 0x9e37_79b9_7f4a_7c15,
            steps,
            last: None,
            samples: Vec::new(),
            applied: Vec::new(),
        }
    }

    /// Runs one calibration loop and returns its cost in ns per step.
    pub fn calibrate(&mut self) -> f64 {
        let t0 = Instant::now();
        let mut x = self.state;
        for _ in 0..self.steps {
            for _ in 0..TABLE_TOUCHES {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let slot = &mut self.table[x as usize % TABLE_WORDS];
                *slot = slot.wrapping_add(x);
            }
            self.live[x as usize % LIVE_BOXES] = (0..BOX_WORDS).map(|k| x ^ k).collect();
        }
        self.state = black_box(x);
        let ns = t0.elapsed().as_nanos() as f64;
        let per_step = ns / self.steps as f64;
        self.samples.push(per_step);
        self.last = Some(per_step);
        per_step
    }

    /// Times `f` between two calibration loops.
    pub fn time<R>(&mut self, f: impl FnOnce() -> R) -> (R, Timing) {
        let before = match self.last {
            Some(c) => c,
            None => self.calibrate(),
        };
        let t0 = Instant::now();
        let r = f();
        let raw_ns = t0.elapsed().as_nanos() as f64;
        let after = self.calibrate();
        self.applied.push((before + after) / 2.0);
        (r, Timing::new(raw_ns, before, after))
    }

    /// [`Timer::time`] for the traced pass: `f` runs inside a span named
    /// `name` and each calibration loop inside one named `calibrate`, so
    /// the self-time table shows where a rep's time went.
    pub fn time_in<R>(
        &mut self,
        tracer: &mut Tracer,
        name: &str,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> (R, Timing) {
        let before = match self.last {
            Some(c) => c,
            None => tracer.span("calibrate", |_| self.calibrate()),
        };
        let t0 = Instant::now();
        let r = tracer.span(name, f);
        let raw_ns = t0.elapsed().as_nanos() as f64;
        let after = tracer.span("calibrate", |_| self.calibrate());
        self.applied.push((before + after) / 2.0);
        (r, Timing::new(raw_ns, before, after))
    }

    /// Forgets the last calibration, so the next timed point calibrates
    /// afresh (used after untimed work of unknown length).
    pub fn reset(&mut self) {
        self.last = None;
    }

    /// Every calibration sample so far, in ns per step.
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }

    /// Wall-clock length of one calibration loop at the median cost, ms.
    pub fn cal_ms(&self) -> f64 {
        crate::stats::median(&self.samples) * self.steps as f64 / 1e6
    }

    /// Mean relative difference between the calibration costs applied to
    /// neighbouring timed units (0 with fewer than two). A slow drift of
    /// the host's speed, which calibration cancels, keeps this small;
    /// speed changes from one unit to the next, which it cannot follow,
    /// do not.
    pub fn cal_spread(&self) -> f64 {
        let diffs: Vec<f64> = self
            .applied
            .windows(2)
            .map(|w| (w[1] - w[0]).abs() / ((w[0] + w[1]) / 2.0))
            .collect();
        crate::stats::mean(&diffs)
    }
}
