//! The common clocking contract of every simulated component.
//!
//! The GPU's cycle loop no longer hard-codes its topology as control flow:
//! each self-contained hardware block (meshes, crossbars, DRAM channels)
//! implements [`Clocked`]; the arrays that exchange messages through ports
//! on each tick ([`crate::system::CoreComplex`], [`crate::system::Gated`])
//! have them as inherent methods with the interconnect passed in, and the
//! [`crate::gpu::Gpu`] driver just ticks them in pipeline order. The
//! [`Watchdog`] factors out the forward-progress check that guards the
//! loop against protocol deadlocks.
//!
//! # Idle-cycle fast-forward
//!
//! Every component carries a `next_event` hook: a **lower bound** on the
//! earliest cycle strictly after `now` at which ticking the component
//! could change any observable state — statistics included — assuming no
//! external input arrives in between. The driver jumps the global clock
//! to the minimum bound across components instead of ticking cycle by
//! cycle, and calls `skip` so the cores' per-cycle stall accounting is
//! replayed in bulk. (The memory-side stations count no stalls: a parked
//! head-of-line request is simply not ticked until what it waits for
//! arrives.) Undershooting a bound merely costs no-op ticks;
//! *overshooting would change simulated results*, so when in doubt an
//! implementation must return `Some(now + 1)` (the default), which simply
//! disables fast-forward for that component.

/// A self-contained component advanced one core cycle at a time.
pub trait Clocked {
    /// Advances the component to cycle `now`. Called exactly once per
    /// simulated core cycle, with `now` strictly increasing — except on
    /// cycles the driver proved event-free via [`Clocked::next_event`],
    /// which may be skipped entirely (see [`Clocked::skip`]).
    fn tick(&mut self, now: u64);

    /// Whether all internal work has drained (used for the end-of-kernel
    /// barrier: the GPU stops when every component is idle).
    fn is_idle(&self) -> bool;

    /// A lower bound on the earliest cycle `> now` at which ticking this
    /// component could change any observable state (statistics included),
    /// given no external input; `None` means fully drained — nothing will
    /// ever happen again without input. The conservative default returns
    /// `Some(now + 1)`: never skip.
    fn next_event(&self, now: u64) -> Option<u64> {
        Some(now + 1)
    }

    /// Accounts for `cycles` skipped cycles (`now + 1 ..= now + cycles`)
    /// that the driver proved event-free for *every* component:
    /// bulk-advances any per-cycle counters this component would have
    /// incremented had it been ticked. The default does nothing — correct
    /// for components whose event-free ticks are pure no-ops.
    fn skip(&mut self, now: u64, cycles: u64) {
        let _ = (now, cycles);
    }
}

/// The minimum of two event bounds, treating `None` as "drained".
pub fn min_event(a: Option<u64>, b: Option<u64>) -> Option<u64> {
    match (a, b) {
        (Some(a), Some(b)) => Some(a.min(b)),
        (x, y) => x.or(y),
    }
}

/// Detects stalled simulations: samples a progress signature every
/// `interval` cycles and reports a deadlock once the signature has not
/// changed for more than `patience` cycles.
#[derive(Debug)]
pub struct Watchdog<S> {
    interval: u64,
    patience: u64,
    last_progress_cycle: u64,
    last_sig: S,
}

impl<S: PartialEq> Watchdog<S> {
    /// Creates a watchdog sampling every `interval` cycles, declaring a
    /// deadlock after `patience` cycles without change. `now` and `sig`
    /// seed the baseline.
    pub fn new(interval: u64, patience: u64, now: u64, sig: S) -> Self {
        assert!(interval > 0, "watchdog interval must be positive");
        Watchdog {
            interval,
            patience,
            last_progress_cycle: now,
            last_sig: sig,
        }
    }

    /// The first sampling cycle strictly after `now`. A fast-forwarding
    /// driver must not jump past it: skipping non-sample cycles is exact
    /// ([`Watchdog::observe`] is a no-op on them), but deadlocks must be
    /// detected on the same schedule as cycle-by-cycle execution.
    pub fn next_sample(&self, now: u64) -> u64 {
        (now / self.interval + 1) * self.interval
    }

    /// The cycle at which progress was last observed and the signature
    /// seen then — together with the construction parameters, the
    /// watchdog's whole mutable state. A checkpoint records the pair and
    /// resume rebuilds the watchdog via [`Watchdog::new`] with them, so a
    /// restored run detects deadlocks on the same schedule as an
    /// uninterrupted one.
    pub fn last_progress(&self) -> (u64, &S) {
        (self.last_progress_cycle, &self.last_sig)
    }

    /// Samples progress at cycle `now`. `sig` is only evaluated on sample
    /// cycles (multiples of the interval). Returns `true` when the
    /// signature has been stuck past the patience window — a deadlock.
    pub fn observe(&mut self, now: u64, sig: impl FnOnce() -> S) -> bool {
        if !now.is_multiple_of(self.interval) {
            return false;
        }
        let sig = sig();
        if sig == self.last_sig {
            now - self.last_progress_cycle > self.patience
        } else {
            self.last_sig = sig;
            self.last_progress_cycle = now;
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn watchdog_fires_only_after_patience() {
        let mut w = Watchdog::new(4, 10, 0, 0u64);
        for now in 1..=10 {
            assert!(!w.observe(now, || 0), "within patience at {now}");
        }
        // Cycle 12 is a sample point with now - 0 = 12 > 10.
        assert!(!w.observe(11, || 0), "not a sample cycle");
        assert!(w.observe(12, || 0));
    }

    #[test]
    fn watchdog_resets_on_progress() {
        let mut w = Watchdog::new(4, 10, 0, 0u64);
        assert!(!w.observe(8, || 1), "signature changed");
        for now in 9..=18 {
            assert!(!w.observe(now, || 1), "within renewed patience at {now}");
        }
        assert!(w.observe(20, || 1));
    }

    #[test]
    fn min_event_treats_none_as_no_event() {
        assert_eq!(min_event(Some(3), Some(7)), Some(3));
        assert_eq!(min_event(Some(5), None), Some(5));
        assert_eq!(min_event(None, Some(9)), Some(9));
        assert_eq!(min_event(None, None), None);
    }

    #[test]
    fn next_sample_lands_on_the_observation_grid() {
        let w = Watchdog::new(4096, 10, 0, 0u64);
        assert_eq!(w.next_sample(0), 4096);
        assert_eq!(w.next_sample(1), 4096);
        assert_eq!(w.next_sample(4095), 4096);
        // A sample cycle's next sample is the following one, never itself.
        assert_eq!(w.next_sample(4096), 8192);
    }

    #[test]
    fn signature_closure_runs_only_on_sample_cycles() {
        let mut w = Watchdog::new(4096, 10, 0, 0u64);
        let mut evaluated = false;
        // 17 is not a multiple of 4096: the closure must not run.
        assert!(!w.observe(17, || {
            evaluated = true;
            0
        }));
        assert!(!evaluated, "signature must not be computed off-sample");
    }
}
