//! Dynamic Protection-Distance Policy (**PDP-3** / **PDP-8**, Duong et al.
//! MICRO'12).
//!
//! Like [`crate::policy::pdp::StaticPdp`] but the protection distance is
//! re-estimated at runtime from a sampled **reuse-distance distribution**
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
//! As in the paper's configuration, samplers are 32 entries deep and the
//! RDD histogram has 256 bins.

use super::pdp::RpdTable;
use super::{first_invalid_way, AccessCtx, FillDecision, ReplacementPolicy};
use crate::geometry::CacheGeometry;
use crate::snapshot::{Snapshot, SnapshotError, SnapshotReader, SnapshotWriter};
use std::collections::VecDeque;

/// Tunables for [`DynamicPdp`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DynamicPdpConfig {
    /// Width of the per-line RPD counters in bits; caps the PD at
    /// `2^bits − 1`. The paper evaluates 3 and 8.
    pub counter_bits: u8,
    /// Depth of each per-set sampler FIFO (paper: 32).
    pub sampler_depth: usize,
    /// Number of RDD histogram bins (paper: 256 counters).
    pub rdd_bins: usize,
    /// Sample one set in every `sample_every` (1 = sample all sets).
    pub sample_every: usize,
    /// Initial protection distance before the first estimation.
    pub initial_pd: u16,
}

impl DynamicPdpConfig {
    /// The paper's PDP-3 configuration.
    pub fn pdp3() -> Self {
        DynamicPdpConfig {
            counter_bits: 3,
            sampler_depth: 32,
            rdd_bins: 256,
            sample_every: 1,
            initial_pd: 4,
        }
    }

    /// The paper's PDP-8 configuration.
    pub fn pdp8() -> Self {
        DynamicPdpConfig {
            counter_bits: 8,
            ..DynamicPdpConfig::pdp3()
        }
    }

    /// Maximum PD representable by the RPD counters.
    pub const fn max_pd(&self) -> u16 {
        (1u16 << self.counter_bits) - 1
    }

    fn validate(&self) {
        assert!(
            (1..=15).contains(&self.counter_bits),
            "counter_bits must be 1..=15"
        );
        assert!(self.sampler_depth > 0, "sampler_depth must be positive");
        assert!(self.rdd_bins > 0, "rdd_bins must be positive");
        assert!(self.sample_every > 0, "sample_every must be positive");
        assert!(
            self.initial_pd >= 1 && self.initial_pd <= self.max_pd(),
            "initial_pd must be in 1..=max_pd"
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

/// Dynamic PDP with bypass (paper names: **PDP-3**, **PDP-8**).
///
/// # Examples
///
/// ```
/// use gcache_core::geometry::CacheGeometry;
/// use gcache_core::policy::pdp_dyn::{DynamicPdp, DynamicPdpConfig};
/// use gcache_core::policy::ReplacementPolicy;
///
/// # fn main() -> Result<(), gcache_core::geometry::GeometryError> {
/// let geom = CacheGeometry::new(32 * 1024, 4, 128)?;
/// let pdp3 = DynamicPdp::new(&geom, DynamicPdpConfig::pdp3());
/// assert_eq!(pdp3.name(), "PDP-3");
/// assert_eq!(pdp3.pd(), 4); // initial PD before the first estimation
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct DynamicPdp {
    cfg: DynamicPdpConfig,
    table: RpdTable,
    pd: u16,
    samplers: Vec<Sampler>,
    rdd: Vec<u64>,
    rdd_overflow: u64,
    bypasses: u64,
    estimations: u64,
}

impl DynamicPdp {
    /// Creates a dynamic PDP policy.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is inconsistent (see
    /// [`DynamicPdpConfig`] field docs).
    pub fn new(geom: &CacheGeometry, cfg: DynamicPdpConfig) -> Self {
        cfg.validate();
        let sampled_sets = (geom.sets() as usize).div_ceil(cfg.sample_every);
        DynamicPdp {
            cfg,
            table: RpdTable::new(geom),
            pd: cfg.initial_pd,
            samplers: vec![Sampler::default(); sampled_sets],
            rdd: vec![0; cfg.rdd_bins],
            rdd_overflow: 0,
            bypasses: 0,
            estimations: 0,
        }
    }

    /// The current protection distance.
    pub const fn pd(&self) -> u16 {
        self.pd
    }

    /// How many epoch re-estimations have run.
    pub const fn estimations(&self) -> u64 {
        self.estimations
    }

    /// Read access to the RDD histogram (exposed for tests and the
    /// experiment harness).
    pub fn rdd(&self) -> &[u64] {
        &self.rdd
    }

    fn sample(&mut self, set: usize, tag: u64) {
        if !set.is_multiple_of(self.cfg.sample_every) {
            return;
        }
        let sampler = &mut self.samplers[set / self.cfg.sample_every];
        match sampler.observe(tag, self.cfg.sampler_depth) {
            Some(d) if d <= self.rdd.len() => self.rdd[d - 1] += 1,
            Some(_) => self.rdd_overflow += 1,
            None => self.rdd_overflow += 1,
        }
    }

    fn name_str(&self) -> &'static str {
        match self.cfg.counter_bits {
            3 => "PDP-3",
            8 => "PDP-8",
            _ => "PDP-dyn",
        }
    }
}

impl ReplacementPolicy for DynamicPdp {
    fn name(&self) -> &'static str {
        self.name_str()
    }

    fn on_set_access(&mut self, set: usize) {
        self.table.age(set);
    }

    fn observe_access(&mut self, set: usize, tag: u64) {
        self.sample(set, tag);
    }

    fn on_hit(&mut self, set: usize, way: usize) {
        self.table.protect(set, way, self.pd);
    }

    fn fill_decision(&mut self, set: usize, valid_mask: u64, _ctx: &AccessCtx) -> FillDecision {
        if let Some(way) = first_invalid_way(valid_mask, self.table.ways()) {
            return FillDecision::Insert { way };
        }
        match self.table.find_unprotected(set, valid_mask) {
            Some(way) => FillDecision::Insert { way },
            None => {
                self.bypasses += 1;
                FillDecision::Bypass
            }
        }
    }

    fn on_insert(&mut self, set: usize, way: usize, _ctx: &AccessCtx) {
        self.table.protect(set, way, self.pd);
    }

    fn on_epoch(&mut self) {
        self.estimations += 1;
        if let Some(pd) = estimate_pd(&self.rdd, self.rdd_overflow, self.cfg.max_pd()) {
            self.pd = pd.max(1);
        } else {
            // No sampled reuse: protection buys nothing, drop to minimum so
            // the cache degenerates gracefully on streaming phases.
            self.pd = 1;
        }
        // Exponential decay keeps the histogram adaptive across phases.
        for c in &mut self.rdd {
            *c /= 2;
        }
        self.rdd_overflow /= 2;
    }

    fn bypasses(&self) -> u64 {
        self.bypasses
    }
}

impl Snapshot for DynamicPdp {
    fn save(&self, w: &mut SnapshotWriter) {
        w.section("pdp_dyn", |w| {
            self.table.save(w);
            w.u16(self.pd);
            w.usize(self.samplers.len());
            for s in &self.samplers {
                w.put(&s.fifo);
            }
            w.put(&self.rdd);
            w.u64(self.rdd_overflow);
            w.u64(self.bypasses);
            w.u64(self.estimations);
        });
    }

    fn restore(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        r.section("pdp_dyn", |r| {
            self.table.restore(r)?;
            self.pd = r.u16()?;
            r.count(self.samplers.len(), "PDP samplers")?;
            for s in &mut self.samplers {
                s.fifo = r.get()?;
                if s.fifo.len() > self.cfg.sampler_depth {
                    return Err(SnapshotError::BadValue {
                        what: "PDP sampler depth".to_string(),
                        value: s.fifo.len() as u64,
                    });
                }
            }
            r.fill(&mut self.rdd, "RDD bins")?;
            self.rdd_overflow = r.u64()?;
            self.bypasses = r.u64()?;
            self.estimations = r.u64()?;
            Ok(())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::{CoreId, LineAddr};

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
        let mut p = DynamicPdp::new(&geom(), DynamicPdpConfig::pdp3());
        // Feed reuse at distance 3 into the set-0 sampler.
        for _ in 0..50 {
            p.observe_access(0, 1);
            p.observe_access(0, 2);
            p.observe_access(0, 3);
        }
        p.on_epoch();
        assert_eq!(p.pd(), 3);
        assert_eq!(p.estimations(), 1);
    }

    #[test]
    fn epoch_on_streaming_drops_pd_to_minimum() {
        let mut p = DynamicPdp::new(&geom(), DynamicPdpConfig::pdp3());
        for t in 0..1000u64 {
            p.observe_access(0, t); // never re-accessed
        }
        p.on_epoch();
        assert_eq!(p.pd(), 1);
    }

    #[test]
    fn pdp3_cannot_reach_large_distances() {
        let mut p = DynamicPdp::new(&geom(), DynamicPdpConfig::pdp3());
        // Reuse at distance 20 — visible to the sampler but beyond a 3-bit
        // counter; PDP-3 must fall back to PD 1 (the paper's KMN/NW story).
        for _ in 0..50 {
            for t in 0..20u64 {
                p.observe_access(0, t);
            }
        }
        p.on_epoch();
        assert_eq!(p.pd(), 1);

        let mut p8 = DynamicPdp::new(&geom(), DynamicPdpConfig::pdp8());
        for _ in 0..50 {
            for t in 0..20u64 {
                p8.observe_access(0, t);
            }
        }
        p8.on_epoch();
        assert_eq!(p8.pd(), 20);
    }

    #[test]
    fn bypasses_when_all_protected() {
        let mut p = DynamicPdp::new(&geom(), DynamicPdpConfig::pdp3());
        for w in 0..4 {
            p.on_insert(0, w, &ctx());
        }
        assert_eq!(p.fill_decision(0, 0b1111, &ctx()), FillDecision::Bypass);
        assert_eq!(p.bypasses(), 1);
    }

    #[test]
    fn rdd_decays_at_epoch() {
        let mut p = DynamicPdp::new(&geom(), DynamicPdpConfig::pdp3());
        for _ in 0..10 {
            p.observe_access(0, 1);
            p.observe_access(0, 2);
        }
        let before: u64 = p.rdd().iter().sum();
        assert!(before > 0);
        p.on_epoch();
        let after: u64 = p.rdd().iter().sum();
        assert!(after < before);
    }
}
