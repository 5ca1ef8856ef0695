//! The abstract SIMT instruction stream driving the timing model.
//!
//! The simulator is *stream-driven*: instead of functionally executing PTX,
//! each warp pulls [`Op`]s from a [`WarpProgram`] — enough to exercise every
//! timing-relevant path (compute latency, coalesced/divergent global
//! accesses, scratchpad traffic, barriers, atomics) while workloads remain
//! compact generators. See DESIGN.md §2 for why this substitution preserves
//! the paper's results.

use gcache_core::addr::Addr;
use gcache_core::policy::RequestClass;
use std::fmt;

/// One warp-level operation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Op {
    /// Pure computation occupying the warp for `cycles` issue slots.
    Compute {
        /// Warp-occupancy in cycles (≥ 1).
        cycles: u32,
    },
    /// Global-memory load; one optional byte address per lane (inactive
    /// lanes are `None`). The warp blocks until all generated line
    /// transactions have returned.
    Load {
        /// Per-lane addresses, `len() ==` warp width.
        addrs: Box<[Option<Addr>]>,
    },
    /// Global-memory store (write-through, no-allocate at L1). The warp
    /// does not wait for completion but needs queue space to issue.
    Store {
        /// Per-lane addresses, `len() ==` warp width.
        addrs: Box<[Option<Addr>]>,
    },
    /// Read-modify-write performed by the memory partition's atomic unit;
    /// the warp blocks until the old values return.
    Atomic {
        /// Per-lane addresses, `len() ==` warp width.
        addrs: Box<[Option<Addr>]>,
    },
    /// Scratchpad (shared-memory) access: fixed latency, no traffic into
    /// the cache hierarchy.
    Shared,
    /// CTA-wide barrier (`__syncthreads()`).
    Barrier,
    /// Declares the [`RequestClass`] attached to this warp's subsequent
    /// global-memory accesses (`None` clears it) — the compiler-hint
    /// channel of HyDRA-style cacheability. Costs one issue slot and sends
    /// no traffic.
    SetClass {
        /// New class, effective until the next `SetClass`.
        class: Option<RequestClass>,
    },
}

impl Op {
    /// Builds a load where every lane `l` accesses `base + l * stride`
    /// (the canonical coalesced pattern when `stride` equals the element
    /// size).
    pub fn strided_load(base: Addr, stride: u64, lanes: usize) -> Op {
        Op::Load {
            addrs: (0..lanes)
                .map(|l| Some(base.offset(l as u64 * stride)))
                .collect(),
        }
    }

    /// Builds a store with the same shape as [`Op::strided_load`].
    pub fn strided_store(base: Addr, stride: u64, lanes: usize) -> Op {
        Op::Store {
            addrs: (0..lanes)
                .map(|l| Some(base.offset(l as u64 * stride)))
                .collect(),
        }
    }

    /// Builds a load from an explicit per-lane address list.
    pub fn gather(addrs: Vec<Option<Addr>>) -> Op {
        Op::Load {
            addrs: addrs.into_boxed_slice(),
        }
    }

    /// Whether the op sends traffic into the memory hierarchy.
    pub fn is_global_mem(&self) -> bool {
        matches!(self, Op::Load { .. } | Op::Store { .. } | Op::Atomic { .. })
    }
}

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Op::Compute { cycles } => write!(f, "compute({cycles})"),
            Op::Load { addrs } => write!(f, "load[{} lanes]", addrs.iter().flatten().count()),
            Op::Store { addrs } => write!(f, "store[{} lanes]", addrs.iter().flatten().count()),
            Op::Atomic { addrs } => write!(f, "atomic[{} lanes]", addrs.iter().flatten().count()),
            Op::Shared => f.write_str("shared"),
            Op::Barrier => f.write_str("barrier"),
            Op::SetClass { class: Some(c) } => {
                write!(f, "set_class({:?}/{:?})", c.slack, c.reuse)
            }
            Op::SetClass { class: None } => f.write_str("set_class(none)"),
        }
    }
}

/// A per-warp instruction stream. Implementations must be deterministic
/// functions of the identifiers they were constructed from (CTA id, warp
/// id, workload seed) so runs are reproducible.
pub trait WarpProgram: Send {
    /// The next operation, or `None` once the warp has finished.
    fn next_op(&mut self) -> Option<Op>;
}

/// A trivial [`WarpProgram`] replaying a pre-built vector — convenient for
/// tests and tiny examples. It holds the whole stream from construction
/// on, so a kernel of any length belongs on [`steps`] instead.
#[derive(Debug, Clone, Default)]
pub struct TraceProgram {
    ops: std::vec::IntoIter<Op>,
}

impl TraceProgram {
    /// Wraps a list of ops.
    pub fn new(ops: Vec<Op>) -> Self {
        TraceProgram {
            ops: ops.into_iter(),
        }
    }
}

impl WarpProgram for TraceProgram {
    fn next_op(&mut self) -> Option<Op> {
        self.ops.next()
    }
}

/// A [`WarpProgram`] that makes its ops one loop step at a time; built by
/// [`steps`].
pub struct StepProgram<F> {
    body: F,
    /// The steps `body` has not run yet.
    steps: std::ops::Range<usize>,
    /// The current step's ops not yet handed out, last first.
    pending: Vec<Op>,
}

/// The way to write a kernel's warp program: `body(step, ops)` pushes the
/// ops of loop step `step` onto `ops`, and is called for steps `0..n` in
/// order, each only once the ops of the step before are used up. A step
/// may push nothing. Whatever `body` captures (an RNG, a walk position)
/// carries over from step to step, so a `for step in 0..n { … }` loop
/// that pushed a warp's whole op list becomes this closure unchanged —
/// and the program holds one step of ops instead of all of them.
///
/// ```
/// use gcache_core::addr::Addr;
/// use gcache_sim::isa::{self, Op, WarpProgram};
///
/// let mut p = isa::steps(2, |step, ops| {
///     ops.push(Op::strided_load(Addr::new(step as u64 * 128), 4, 32));
///     ops.push(Op::Compute { cycles: 2 });
/// });
/// assert!(matches!(p.next_op(), Some(Op::Load { .. })));
/// assert_eq!(p.next_op(), Some(Op::Compute { cycles: 2 }));
/// assert!(matches!(p.next_op(), Some(Op::Load { .. })));
/// assert_eq!(p.next_op(), Some(Op::Compute { cycles: 2 }));
/// assert_eq!(p.next_op(), None);
/// ```
pub fn steps<F>(n: usize, body: F) -> StepProgram<F>
where
    F: FnMut(usize, &mut Vec<Op>) + Send,
{
    StepProgram {
        body,
        steps: 0..n,
        pending: Vec::new(),
    }
}

impl<F> fmt::Debug for StepProgram<F> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("StepProgram")
            .field("steps", &self.steps)
            .field("pending", &self.pending.len())
            .finish()
    }
}

impl<F> WarpProgram for StepProgram<F>
where
    F: FnMut(usize, &mut Vec<Op>) + Send,
{
    fn next_op(&mut self) -> Option<Op> {
        while self.pending.is_empty() {
            let step = self.steps.next()?;
            (self.body)(step, &mut self.pending);
            self.pending.reverse();
        }
        self.pending.pop()
    }
}

/// Grid dimensions of a kernel launch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GridDim {
    /// Number of CTAs in the grid.
    pub ctas: usize,
    /// Threads per CTA (a multiple of the warp width).
    pub threads_per_cta: usize,
}

impl GridDim {
    /// Warps per CTA for the given warp width (rounded up).
    pub fn warps_per_cta(&self, warp_width: usize) -> usize {
        self.threads_per_cta.div_ceil(warp_width)
    }

    /// Total threads in the grid.
    pub fn total_threads(&self) -> usize {
        self.ctas * self.threads_per_cta
    }
}

/// A kernel: a grid of CTAs, each CTA a set of warp programs.
///
/// The CTA scheduler instantiates warp programs lazily as CTAs are placed
/// on cores, and the contract of [`Kernel::warp_program`] is that a program
/// holds the ops of one loop step, not of the whole warp (write it with
/// [`steps`]). Together they make a grid cost memory proportional to the
/// *resident* warp count only, whatever its size and however long its
/// warps run: a grid that fits the machine in its first dispatch wave
/// would otherwise be written out whole before cycle 1.
///
/// Kernels are `Send + Sync`: a kernel is an immutable description of the
/// work (all mutable per-warp state lives in the [`WarpProgram`]s it
/// creates), which lets the sweep engine share one kernel across worker
/// threads running independent simulations.
pub trait Kernel: Send + Sync {
    /// Kernel name, used in reports.
    fn name(&self) -> &str;

    /// Launch dimensions.
    fn grid(&self) -> GridDim;

    /// Creates the instruction stream of warp `warp_in_cta` of CTA
    /// `cta_id`. Must be deterministic in its arguments, and cheap: the
    /// ops themselves are made as the warp pulls them.
    fn warp_program(&self, cta_id: usize, warp_in_cta: usize) -> Box<dyn WarpProgram>;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strided_load_covers_lanes() {
        let op = Op::strided_load(Addr::new(0x1000), 4, 32);
        if let Op::Load { addrs } = &op {
            assert_eq!(addrs.len(), 32);
            assert_eq!(addrs[0], Some(Addr::new(0x1000)));
            assert_eq!(addrs[31], Some(Addr::new(0x1000 + 31 * 4)));
        } else {
            panic!("not a load");
        }
        assert!(op.is_global_mem());
    }

    #[test]
    fn gather_respects_inactive_lanes() {
        let op = Op::gather(vec![Some(Addr::new(0)), None, Some(Addr::new(128))]);
        assert_eq!(format!("{op}"), "load[2 lanes]");
    }

    #[test]
    fn non_mem_ops() {
        assert!(!Op::Compute { cycles: 3 }.is_global_mem());
        assert!(!Op::Shared.is_global_mem());
        assert!(!Op::Barrier.is_global_mem());
        assert!(!Op::SetClass { class: None }.is_global_mem());
    }

    #[test]
    fn trace_program_replays() {
        let mut p = TraceProgram::new(vec![Op::Shared, Op::Barrier]);
        assert_eq!(p.next_op(), Some(Op::Shared));
        assert_eq!(p.next_op(), Some(Op::Barrier));
        assert_eq!(p.next_op(), None);
    }

    #[test]
    fn step_program_without_steps_is_empty() {
        let mut p = steps(0, |_, _| panic!("no step to run"));
        assert_eq!(p.next_op(), None);
        assert_eq!(p.next_op(), None);
    }

    #[test]
    fn step_program_skips_empty_steps_and_keeps_push_order() {
        // Steps 0, 2 and 5 push nothing; step s otherwise pushes s ops.
        let mut p = steps(6, |step, ops| {
            if step != 2 && step != 5 {
                ops.extend((0..step).map(|i| Op::Compute {
                    cycles: (10 * step + i) as u32,
                }));
            }
        });
        let got: Vec<u32> = std::iter::from_fn(|| p.next_op())
            .map(|op| match op {
                Op::Compute { cycles } => cycles,
                other => panic!("unexpected {other}"),
            })
            .collect();
        assert_eq!(got, vec![10, 30, 31, 32, 40, 41, 42, 43]);
        assert_eq!(p.next_op(), None, "stays finished");
    }

    #[test]
    fn step_program_runs_each_step_once_and_only_when_reached() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;
        let calls = Arc::new(AtomicUsize::new(0));
        let seen = Arc::clone(&calls);
        let mut p = steps(3, move |step, ops| {
            assert_eq!(step, seen.fetch_add(1, Ordering::Relaxed), "in order");
            ops.push(Op::Shared);
            ops.push(Op::Barrier);
        });
        assert_eq!(calls.load(Ordering::Relaxed), 0, "building runs nothing");
        for step in 1..=3 {
            assert_eq!(p.next_op(), Some(Op::Shared));
            assert_eq!(calls.load(Ordering::Relaxed), step);
            assert_eq!(p.next_op(), Some(Op::Barrier));
            assert_eq!(
                calls.load(Ordering::Relaxed),
                step,
                "not ahead of the consumer"
            );
        }
        assert_eq!(p.next_op(), None);
        assert_eq!(calls.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn grid_dim_arithmetic() {
        let g = GridDim {
            ctas: 10,
            threads_per_cta: 100,
        };
        assert_eq!(g.warps_per_cta(32), 4); // 100/32 rounded up
        assert_eq!(g.total_threads(), 1000);
    }
}
