//! Differential test for the extracted [`CacheController`]: replays the
//! same randomized access/fill trace through a reference implementation of
//! the *old-shape* L1 miss machine (the write-through/no-allocate state
//! machine that used to live inline in the simulator's L1, expressed
//! directly over `Cache` + `MshrFile`) and through the generic controller,
//! asserting identical per-step outcomes and identical hit/miss/bypass/MSHR
//! statistics after every step.
//!
//! The controller is driven the way every owner drives it — `admit`, then
//! `commit` — and each step also checks that `admit` changed nothing and
//! that the committed outcome is the one admitted. An L2-shaped leg, which
//! has no reference model, checks that agreement alone.

use gcache_core::addr::{CoreId, LineAddr};
use gcache_core::cache::{Cache, CacheConfig, Lookup};
use gcache_core::controller::{
    Admission, AtomicHandling, CacheController, ControllerOutcome, FillParams,
};
use gcache_core::geometry::CacheGeometry;
use gcache_core::mshr::{MshrAlloc, MshrFile, MshrReject};
use gcache_core::policy::gcache::GCache;
use gcache_core::policy::lru::Lru;
use gcache_core::policy::pdp::StaticPdp;
use gcache_core::policy::{AccessCtx, AccessKind, PolicyKind};
use gcache_core::rng::SmallRng;

const CORE: CoreId = CoreId(0);
const MSHR_ENTRIES: usize = 8;
const MSHR_MERGE: usize = 4;

/// Outcome vocabulary shared by both machines, for step-wise comparison.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Step {
    Hit,
    MissSend,
    MissMerge,
    Forward,
    Blocked,
}

/// The pre-refactor L1 miss machine, verbatim: stores update-and-forward,
/// atomics invalidate-and-forward, reads run allocate-on-miss gated by the
/// old `mshr.contains(line) || !mshr.is_full()` pre-check.
struct ReferenceL1 {
    cache: Cache,
    mshr: MshrFile<u32>,
}

impl ReferenceL1 {
    fn new(cache: Cache) -> Self {
        ReferenceL1 {
            cache,
            mshr: MshrFile::new(MSHR_ENTRIES, MSHR_MERGE),
        }
    }

    fn access(&mut self, line: LineAddr, kind: AccessKind, target: u32) -> Step {
        match kind {
            AccessKind::Write => {
                let _ = self.cache.access(line, AccessKind::Write, CORE);
                Step::Forward
            }
            AccessKind::Atomic => {
                self.cache.invalidate_line(line);
                self.cache.note_uncached_access(AccessKind::Atomic);
                Step::Forward
            }
            // The reference machine predates clean copy-backs; the trace
            // generator never emits them.
            AccessKind::CopyBack => unreachable!("trace never emits copy-backs"),
            AccessKind::Read => {
                if self.cache.contains(line) {
                    return match self.cache.access(line, AccessKind::Read, CORE) {
                        Lookup::Hit { .. } => Step::Hit,
                        Lookup::Miss => unreachable!("contains() said hit"),
                    };
                }
                let alloc = if self.mshr.contains(line) || !self.mshr.is_full() {
                    self.mshr.allocate(line, target)
                } else {
                    Err(MshrReject::Full)
                };
                match alloc {
                    Ok(primary_or_merge) => {
                        let _ = self.cache.access(line, AccessKind::Read, CORE);
                        match primary_or_merge {
                            MshrAlloc::Primary => Step::MissSend,
                            MshrAlloc::Merged => Step::MissMerge,
                        }
                    }
                    Err(MshrReject::Full | MshrReject::MergeFull) => Step::Blocked,
                }
            }
        }
    }

    fn fill(&mut self, line: LineAddr) -> Vec<u32> {
        let targets = self
            .mshr
            .complete(line)
            .expect("fill without an outstanding MSHR entry");
        self.cache.fill(AccessCtx::plain(line, CORE), false);
        targets
    }
}

fn step_of(out: ControllerOutcome) -> Step {
    match out {
        ControllerOutcome::Hit { .. } => Step::Hit,
        ControllerOutcome::MissPrimary => Step::MissSend,
        ControllerOutcome::MissMerged => Step::MissMerge,
        ControllerOutcome::Forward => Step::Forward,
        ControllerOutcome::Blocked(_) => Step::Blocked,
    }
}

/// The class of an admission, and of the outcome that commits it.
fn admitted_as(a: Admission) -> &'static str {
    match a {
        Admission::Forward { .. } => "forward",
        Admission::Hit(_) => "hit",
        Admission::Merge => "merge",
        Admission::Miss => "miss",
        Admission::Blocked(MshrReject::Full) => "blocked (full)",
        Admission::Blocked(MshrReject::MergeFull) => "blocked (merge full)",
    }
}

fn committed_as(out: ControllerOutcome) -> &'static str {
    match out {
        ControllerOutcome::Forward => "forward",
        ControllerOutcome::Hit { .. } => "hit",
        ControllerOutcome::MissMerged => "merge",
        ControllerOutcome::MissPrimary => "miss",
        ControllerOutcome::Blocked(MshrReject::Full) => "blocked (full)",
        ControllerOutcome::Blocked(MshrReject::MergeFull) => "blocked (merge full)",
    }
}

/// Presents one access as an owner does: decode, `admit`, `commit`.
/// Asserts that admitting changed no count or occupancy, and that the
/// commit did what was admitted.
fn admit_then_commit(
    ctrl: &mut CacheController<u32>,
    line: LineAddr,
    kind: AccessKind,
    core: CoreId,
    target: u32,
) -> (Admission, ControllerOutcome) {
    let geom = *ctrl.cache().geometry();
    let (set, tag) = (geom.set_of(line), geom.tag_of(line));
    let state = |c: &CacheController<u32>| (c.stats().clone(), c.mshr().len());
    let before = state(ctrl);
    let admission = ctrl.admit(line, set, tag, kind);
    assert_eq!(
        state(ctrl),
        before,
        "admitting {kind:?} {line:?} changed state"
    );
    let out = ctrl.commit(admission, line, set, tag, kind, core, target);
    assert_eq!(
        admitted_as(admission),
        committed_as(out),
        "{kind:?} {line:?}: {admission:?} committed as {out:?}"
    );
    (admission, out)
}

/// Drives both machines through `steps` randomized accesses (with fills
/// arriving for outstanding misses at random points) and asserts lockstep
/// equivalence of outcomes, released targets, and statistics.
fn run_differential(policy: impl Into<PolicyKind> + Clone, epoch_len: u64, seed: u64, steps: u32) {
    let geom = CacheGeometry::new(4 * 1024, 4, 128).unwrap();
    let cfg = CacheConfig::l1(geom, epoch_len);
    let mut reference = ReferenceL1::new(Cache::new(cfg, policy.clone()));
    let mut ctrl: CacheController<u32> = CacheController::new(
        Cache::new(cfg, policy),
        MSHR_ENTRIES,
        MSHR_MERGE,
        AtomicHandling::Forward,
    );

    let mut rng = SmallRng::seed_from_u64(seed);
    let mut outstanding: Vec<LineAddr> = Vec::new();
    let mut fill_buf = Vec::new();

    for step in 0..steps {
        // Fill one pending miss ~30% of the time so hits, merges and MSHR
        // exhaustion all occur along the trace.
        if !outstanding.is_empty() && rng.gen_bool(0.3) {
            let idx = rng.gen_range(0..outstanding.len() as u64) as usize;
            let line = outstanding.swap_remove(idx);
            let ref_targets = reference.fill(line);
            ctrl.fill_with(line, &mut fill_buf, |targets| {
                assert_eq!(
                    targets,
                    ref_targets.as_slice(),
                    "fill targets differ at step {step}"
                );
                FillParams {
                    core: CORE,
                    victim_hint: false,
                    dirty: false,
                    class: None,
                }
            });
            assert_eq!(
                fill_buf, ref_targets,
                "released targets differ at step {step}"
            );
        }

        // A 64-line footprint over a 32-line cache: misses and evictions
        // are both frequent.
        let line = LineAddr::new(rng.gen_range(0..64));
        let kind = match rng.gen_range(0..10) {
            0 => AccessKind::Write,
            1 => AccessKind::Atomic,
            _ => AccessKind::Read,
        };

        let expected = reference.access(line, kind, step);
        let got = step_of(admit_then_commit(&mut ctrl, line, kind, CORE, step).1);
        assert_eq!(
            got, expected,
            "outcome diverged at step {step} ({kind:?} {line:?})"
        );
        if expected == Step::MissSend {
            outstanding.push(line);
        }

        // Statistics must agree after every step, not just at the end.
        assert_eq!(
            ctrl.stats(),
            reference.cache.stats(),
            "cache stats diverged at step {step}"
        );
        assert_eq!(
            ctrl.mshr().len(),
            reference.mshr.len(),
            "MSHR occupancy diverged at step {step}"
        );
    }

    // Drain the remaining misses and compare the final quiescent state.
    for line in outstanding.drain(..) {
        let ref_targets = reference.fill(line);
        ctrl.fill_with(line, &mut fill_buf, |_| FillParams {
            core: CORE,
            victim_hint: false,
            dirty: false,
            class: None,
        });
        assert_eq!(fill_buf, ref_targets, "drain targets differ");
    }
    assert!(ctrl.quiesced() && reference.mshr.is_empty());
    assert_eq!(
        ctrl.stats(),
        reference.cache.stats(),
        "final stats diverged"
    );
}

#[test]
fn lru_traces_match_old_l1_machine() {
    let geom = CacheGeometry::new(4 * 1024, 4, 128).unwrap();
    for seed in 0..8 {
        run_differential(Lru::new(&geom), 0, seed, 4_000);
    }
}

#[test]
fn bypassing_pdp_traces_match_old_l1_machine() {
    let geom = CacheGeometry::new(4 * 1024, 4, 128).unwrap();
    for seed in 0..8 {
        // A short protection distance forces frequent bypass-on-fill, the
        // path where the controller must not double-count statistics.
        run_differential(StaticPdp::new(&geom, 6), 0, seed, 4_000);
    }
}

#[test]
fn gcache_epoch_traces_match_old_l1_machine() {
    let geom = CacheGeometry::new(4 * 1024, 4, 128).unwrap();
    for seed in 0..8 {
        // A tiny epoch exercises the policy's epoch hook through both
        // machines at identical points (blocked accesses record nothing).
        run_differential(GCache::with_defaults(&geom), 64, seed, 4_000);
    }
}

/// The L2 shape — write-back, write-allocate, executed atomics, victim
/// bits for four cores — over a small MSHR file, so that every admission
/// an L2 can give occurs: hit, merge, miss and both kinds of blocked.
#[test]
fn l2_shaped_admissions_match_commits() {
    let geom = CacheGeometry::new(4 * 1024, 4, 128).unwrap();
    const KINDS: [AccessKind; 4] = [
        AccessKind::Read,
        AccessKind::Read,
        AccessKind::Write,
        AccessKind::Atomic,
    ];
    let mut seen = Vec::new();
    for seed in 0..4 {
        let mut ctrl: CacheController<u32> = CacheController::new(
            Cache::with_victim_bits(CacheConfig::l2(geom, 0), Lru::new(&geom), 4, 1),
            4,
            2,
            AtomicHandling::Execute,
        );
        let mut rng = SmallRng::seed_from_u64(0x12 ^ seed);
        let mut outstanding: Vec<LineAddr> = Vec::new();
        let mut fill_buf = Vec::new();
        for step in 0..4_000 {
            if !outstanding.is_empty() && rng.gen_bool(0.3) {
                let idx = rng.gen_range(0..outstanding.len() as u64) as usize;
                let line = outstanding.swap_remove(idx);
                ctrl.fill_with(line, &mut fill_buf, |_| FillParams {
                    core: CORE,
                    victim_hint: false,
                    dirty: true,
                    class: None,
                });
            }
            let line = LineAddr::new(rng.gen_range(0..64));
            let kind = KINDS[rng.gen_range(0..4) as usize];
            let core = CoreId(rng.gen_range(0..4) as usize);
            let (admission, out) = admit_then_commit(&mut ctrl, line, kind, core, step);
            if out == ControllerOutcome::MissPrimary {
                outstanding.push(line);
            }
            if !seen.contains(&admitted_as(admission)) {
                seen.push(admitted_as(admission));
            }
        }
    }
    seen.sort_unstable();
    assert_eq!(
        seen,
        [
            "blocked (full)",
            "blocked (merge full)",
            "hit",
            "merge",
            "miss"
        ]
    );
}
