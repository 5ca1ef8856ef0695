//! The run-time distance estimator of the dynamic Protection-Distance
//! Policy (**PDP-3** / **PDP-8**, Duong et al. MICRO'12).
//!
//! [`crate::policy::pdp::Pdp::estimated`] re-estimates its protection
//! distance with this module from a sampled **reuse-distance distribution**
//! (RDD):
//!
//! * per-set FIFO samplers record the tags of recent accesses; a re-access
//!   found at depth *d* contributes one count to RDD bin *d*;
//! * at every epoch the protection distance is set to the *d* maximising the
//!   PDP benefit estimator `E(d) = W(d) / A(d)` where `W(d) = Σ_{i≤d} N_i`
//!   (accesses that would hit under protection distance `d`) and
//!   `A(d) = Σ_{i≤d} i·N_i + d·(N_t − W(d))` (aggregate cache occupancy) —
//!   hits per unit of occupied cache space;
//! * the estimated PD is clamped to what the per-line RPD counters can
//!   store: **PDP-3** uses 3-bit counters (PD ≤ 7), **PDP-8** uses 8-bit
//!   counters (PD ≤ 255). The paper's §5.1 observes that this cap is why
//!   PDP-3 ≈ PDP-8 on most workloads yet both lose to SPDP-B when the true
//!   optimum exceeds the cap.
//!
//! As in the paper's configuration, every set is sampled, samplers are 32
//! entries deep and the RDD histogram has 256 bins.

use crate::geometry::CacheGeometry;
use crate::snapshot::{Snapshot, SnapshotError, SnapshotReader, SnapshotWriter};
use std::collections::VecDeque;

/// Depth of each per-set sampler FIFO (paper: 32).
pub(crate) const SAMPLER_DEPTH: usize = 32;

/// Number of RDD histogram bins (paper: 256 counters). A sampled distance
/// never exceeds [`SAMPLER_DEPTH`], so every hit in a sampler has a bin.
pub(crate) const RDD_BINS: usize = 256;

/// Protection distance in force before the first estimation.
pub(crate) const INITIAL_PD: u16 = 4;

/// The one tunable of an estimated protection distance.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DynamicPdpConfig {
    /// Width of the per-line RPD counters in bits; caps the PD at
    /// `2^bits − 1`. The paper evaluates 3 and 8.
    pub counter_bits: u8,
}

impl DynamicPdpConfig {
    /// The paper's PDP-3 configuration.
    pub fn pdp3() -> Self {
        DynamicPdpConfig { counter_bits: 3 }
    }

    /// The paper's PDP-8 configuration.
    pub fn pdp8() -> Self {
        DynamicPdpConfig { counter_bits: 8 }
    }

    /// Maximum PD representable by the RPD counters.
    pub const fn max_pd(&self) -> u16 {
        (1u16 << self.counter_bits) - 1
    }

    /// The design name of this configuration: `"PDP-3"`, `"PDP-8"`, or
    /// `"PDP-dyn"` for any other counter width.
    pub const fn name(&self) -> &'static str {
        match self.counter_bits {
            3 => "PDP-3",
            8 => "PDP-8",
            _ => "PDP-dyn",
        }
    }

    fn validate(&self) {
        assert!(
            (1..=15).contains(&self.counter_bits),
            "counter_bits must be 1..=15"
        );
        assert!(
            INITIAL_PD <= self.max_pd(),
            "the initial distance {INITIAL_PD} must fit the RPD counters"
        );
    }
}

/// Estimates the best protection distance from an RDD histogram.
///
/// `rdd[d-1]` holds the number of sampled accesses with reuse distance `d`;
/// `overflow` counts sampled accesses whose reuse distance exceeded the
/// histogram (or that never re-occurred within the sampler window). Returns
/// the `d` in `1..=max_pd` maximising `E(d)`, or `None` when no reuse was
/// sampled at all (pure streaming — protection is pointless, so callers
/// fall back to the minimum PD).
pub fn estimate_pd(rdd: &[u64], overflow: u64, max_pd: u16) -> Option<u16> {
    let n_t: u64 = rdd.iter().sum::<u64>() + overflow;
    if n_t == 0 || rdd.iter().all(|&c| c == 0) {
        return None;
    }
    let mut best: Option<(f64, u16)> = None;
    let mut hits: u64 = 0; // W(d)
    let mut occupancy_hits: u64 = 0; // Σ_{i≤d} i·N_i
    let limit = (max_pd as usize).min(rdd.len());
    for d in 1..=limit {
        hits += rdd[d - 1];
        occupancy_hits += d as u64 * rdd[d - 1];
        if hits == 0 {
            // Protecting to `d` yields no hits at all; never a candidate.
            continue;
        }
        let occupancy = occupancy_hits + d as u64 * (n_t - hits);
        let e = hits as f64 / occupancy as f64;
        if best.is_none_or(|(b, _)| e > b + 1e-12) {
            best = Some((e, d as u16));
        }
    }
    best.map(|(_, d)| d)
}

/// One per-set reuse-distance sampler: a FIFO of recently accessed tags.
#[derive(Clone, Debug, Default)]
struct Sampler {
    fifo: VecDeque<u64>,
}

impl Sampler {
    /// Records an access, returning the reuse distance (1-based) if the tag
    /// was present in the FIFO.
    fn observe(&mut self, tag: u64, depth: usize) -> Option<usize> {
        let pos = self.fifo.iter().position(|&t| t == tag);
        if let Some(p) = pos {
            self.fifo.remove(p);
        }
        self.fifo.push_front(tag);
        self.fifo.truncate(depth);
        pos.map(|p| p + 1)
    }
}

/// The samplers and RDD histogram behind an estimated protection distance.
#[derive(Clone, Debug)]
pub(crate) struct Estimator {
    cfg: DynamicPdpConfig,
    samplers: Vec<Sampler>,
    rdd: Vec<u64>,
    rdd_overflow: u64,
}

impl Estimator {
    /// An empty estimator with one sampler per set.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.counter_bits` is outside `1..=15` or cannot hold the
    /// initial distance 4.
    pub(crate) fn new(geom: &CacheGeometry, cfg: DynamicPdpConfig) -> Self {
        cfg.validate();
        Estimator {
            cfg,
            samplers: vec![Sampler::default(); geom.sets() as usize],
            rdd: vec![0; RDD_BINS],
            rdd_overflow: 0,
        }
    }

    /// The design name of the estimator's configuration.
    pub(crate) const fn name(&self) -> &'static str {
        self.cfg.name()
    }

    /// Samples one access to `set`.
    pub(crate) fn sample(&mut self, set: usize, tag: u64) {
        match self.samplers[set].observe(tag, SAMPLER_DEPTH) {
            Some(d) => self.rdd[d - 1] += 1,
            None => self.rdd_overflow += 1,
        }
    }

    /// The epoch: the distance the histogram favours, then the histogram
    /// decays by half so it stays adaptive across phases. With no sampled
    /// reuse protection buys nothing, and the distance drops to 1 so the
    /// cache degenerates gracefully on streaming phases.
    pub(crate) fn estimate(&mut self) -> u16 {
        let pd = estimate_pd(&self.rdd, self.rdd_overflow, self.cfg.max_pd()).unwrap_or(1);
        for c in &mut self.rdd {
            *c /= 2;
        }
        self.rdd_overflow /= 2;
        pd
    }
}

impl Snapshot for Estimator {
    fn save(&self, w: &mut SnapshotWriter) {
        w.put(&self.samplers.len());
        for s in &self.samplers {
            w.put(&s.fifo);
        }
        w.put(&self.rdd);
        w.put(&self.rdd_overflow);
    }

    fn restore(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        r.count(self.samplers.len(), "PDP samplers")?;
        for s in &mut self.samplers {
            s.fifo = r.get()?;
            if s.fifo.len() > SAMPLER_DEPTH {
                return Err(SnapshotError::BadValue {
                    what: "PDP sampler depth".to_string(),
                    value: s.fifo.len() as u64,
                });
            }
        }
        r.fill(&mut self.rdd, "RDD bins")?;
        self.rdd_overflow = r.get()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::{CoreId, LineAddr};
    use crate::policy::pdp::Pdp;
    use crate::policy::{AccessCtx, FillDecision, ReplacementPolicy};

    fn geom() -> CacheGeometry {
        CacheGeometry::with_sets(4, 4, 128).unwrap()
    }

    fn ctx() -> AccessCtx {
        AccessCtx::plain(LineAddr::new(0), CoreId(0))
    }

    #[test]
    fn config_caps() {
        assert_eq!(DynamicPdpConfig::pdp3().max_pd(), 7);
        assert_eq!(DynamicPdpConfig::pdp8().max_pd(), 255);
    }

    #[test]
    fn estimator_picks_concentrated_distance() {
        // All reuse at distance 5: best PD is exactly 5.
        let mut rdd = vec![0u64; 256];
        rdd[4] = 100;
        assert_eq!(estimate_pd(&rdd, 0, 255), Some(5));
    }

    #[test]
    fn estimator_caps_at_counter_width() {
        let mut rdd = vec![0u64; 256];
        rdd[23] = 100; // optimum 24, beyond a 3-bit counter
        assert_eq!(estimate_pd(&rdd, 0, 7), None); // no benefit within reach
        assert_eq!(estimate_pd(&rdd, 0, 255), Some(24));
    }

    #[test]
    fn estimator_prefers_near_reuse_over_far_tail() {
        // 100 accesses at distance 2 plus 10 at distance 200: protecting to
        // 200 costs far more occupancy than the 10 extra hits are worth.
        let mut rdd = vec![0u64; 256];
        rdd[1] = 100;
        rdd[199] = 10;
        assert_eq!(estimate_pd(&rdd, 0, 255), Some(2));
    }

    #[test]
    fn estimator_handles_streaming() {
        let rdd = vec![0u64; 256];
        assert_eq!(estimate_pd(&rdd, 1000, 255), None);
        assert_eq!(estimate_pd(&rdd, 0, 255), None);
    }

    #[test]
    fn sampler_measures_distance() {
        let mut s = Sampler::default();
        assert_eq!(s.observe(1, 32), None);
        assert_eq!(s.observe(2, 32), None);
        assert_eq!(s.observe(3, 32), None);
        assert_eq!(s.observe(1, 32), Some(3));
        // 1 moved to front; re-access is now distance 1.
        assert_eq!(s.observe(1, 32), Some(1));
    }

    #[test]
    fn sampler_forgets_beyond_depth() {
        let mut s = Sampler::default();
        s.observe(42, 4);
        for t in 0..4 {
            s.observe(100 + t, 4);
        }
        assert_eq!(s.observe(42, 4), None);
    }

    #[test]
    fn epoch_adapts_pd_to_observed_reuse() {
        let mut p = Pdp::estimated(&geom(), DynamicPdpConfig::pdp3());
        // Feed reuse at distance 3 into the set-0 sampler.
        for _ in 0..50 {
            p.on_access(0, 1);
            p.on_access(0, 2);
            p.on_access(0, 3);
        }
        p.on_epoch();
        assert_eq!(p.pd(), 3);
    }

    #[test]
    fn epoch_on_streaming_drops_pd_to_minimum() {
        let mut p = Pdp::estimated(&geom(), DynamicPdpConfig::pdp3());
        for t in 0..1000u64 {
            p.on_access(0, t); // never re-accessed
        }
        p.on_epoch();
        assert_eq!(p.pd(), 1);
    }

    #[test]
    fn pdp3_cannot_reach_large_distances() {
        let mut p = Pdp::estimated(&geom(), DynamicPdpConfig::pdp3());
        // Reuse at distance 20 — visible to the sampler but beyond a 3-bit
        // counter; PDP-3 must fall back to PD 1 (the paper's KMN/NW story).
        for _ in 0..50 {
            for t in 0..20u64 {
                p.on_access(0, t);
            }
        }
        p.on_epoch();
        assert_eq!(p.pd(), 1);

        let mut p8 = Pdp::estimated(&geom(), DynamicPdpConfig::pdp8());
        for _ in 0..50 {
            for t in 0..20u64 {
                p8.on_access(0, t);
            }
        }
        p8.on_epoch();
        assert_eq!(p8.pd(), 20);
    }

    #[test]
    fn bypasses_when_all_protected() {
        let mut p = Pdp::estimated(&geom(), DynamicPdpConfig::pdp3());
        for w in 0..4 {
            p.on_insert(0, w, &ctx());
        }
        assert_eq!(p.fill_decision(0, 0b1111, &ctx()), FillDecision::Bypass);
    }

    #[test]
    fn rdd_decays_at_epoch() {
        let mut e = Estimator::new(&geom(), DynamicPdpConfig::pdp3());
        for _ in 0..10 {
            e.sample(0, 1);
            e.sample(0, 2);
        }
        let before: u64 = e.rdd.iter().sum();
        assert!(before > 0);
        e.estimate();
        let after: u64 = e.rdd.iter().sum();
        assert!(after < before);
    }
}
