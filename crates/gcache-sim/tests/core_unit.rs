//! Focused tests of the SIMT core: launch capacity, issue behaviour,
//! LD/ST pumping and warp wake-up — driven directly, without the full GPU.

use gcache_core::addr::{Addr, CoreId};
use gcache_core::policy::lru::Lru;
use gcache_core::policy::{AccessKind, RequestClass};
use gcache_sim::config::GpuConfig;
use gcache_sim::core::SimtCore;
use gcache_sim::gpu::Gpu;
use gcache_sim::isa::{self, GridDim, Kernel, Op, TraceProgram, WarpProgram};
use gcache_sim::request::{MemRequest, MemResponse};
use gcache_sim::telemetry::Sampler;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

struct K {
    grid: GridDim,
    ops: Vec<Op>,
}

impl Kernel for K {
    fn name(&self) -> &str {
        "unit"
    }
    fn grid(&self) -> GridDim {
        self.grid
    }
    fn warp_program(&self, _cta: usize, _warp: usize) -> Box<dyn WarpProgram> {
        Box::new(TraceProgram::new(self.ops.clone()))
    }
}

fn core() -> SimtCore {
    let cfg = GpuConfig::fermi().unwrap();
    SimtCore::new(CoreId(0), &cfg, Lru::new(&cfg.l1_geometry))
}

#[test]
fn launch_capacity_limits() {
    let mut c = core();
    // 8 CTA slots, 48 warp slots, 1536 threads. 256-thread CTAs: 6 fit
    // (thread limit), not 8.
    let k = K {
        grid: GridDim {
            ctas: 100,
            threads_per_cta: 256,
        },
        ops: vec![],
    };
    let mut launched = 0;
    while c.can_launch(&k) {
        c.launch_cta(&k, launched);
        launched += 1;
    }
    assert_eq!(launched, 6, "1536 threads / 256 per CTA");
    assert_eq!(c.resident_ctas(), 6);
}

#[test]
fn cta_slot_count_limits() {
    let mut c = core();
    // Tiny CTAs: the 8 CTA slots bind first.
    let k = K {
        grid: GridDim {
            ctas: 100,
            threads_per_cta: 32,
        },
        ops: vec![],
    };
    let mut launched = 0;
    while c.can_launch(&k) {
        c.launch_cta(&k, launched);
        launched += 1;
    }
    assert_eq!(launched, 8, "max CTAs per core");
}

#[test]
fn warp_slot_count_limits() {
    let mut c = core();
    // 12 warps per CTA (384 threads): 48 warp slots bind at 4 CTAs.
    let k = K {
        grid: GridDim {
            ctas: 100,
            threads_per_cta: 384,
        },
        ops: vec![],
    };
    let mut launched = 0;
    while c.can_launch(&k) {
        c.launch_cta(&k, launched);
        launched += 1;
    }
    assert_eq!(launched, 4, "48 warp slots / 12 warps per CTA");
}

#[test]
fn empty_programs_retire_immediately() {
    let mut c = core();
    let k = K {
        grid: GridDim {
            ctas: 1,
            threads_per_cta: 64,
        },
        ops: vec![],
    };
    c.launch_cta(&k, 0);
    assert!(!c.is_idle());
    for now in 1..10 {
        assert!(c.tick(now, true).is_none());
    }
    assert!(c.is_idle(), "empty warps must retire");
    assert_eq!(c.stats().ctas_completed, 1);
    assert_eq!(c.stats().instructions, 0);
}

#[test]
fn compute_occupies_one_issue_slot_per_warp() {
    let mut c = core();
    let k = K {
        grid: GridDim {
            ctas: 1,
            threads_per_cta: 64,
        },
        ops: vec![Op::Compute { cycles: 10 }, Op::Compute { cycles: 10 }],
    };
    c.launch_cta(&k, 0);
    for now in 1..100 {
        c.tick(now, true);
        if c.is_idle() {
            break;
        }
    }
    assert!(c.is_idle());
    assert_eq!(c.stats().instructions, 4, "2 warps x 2 compute ops");
}

#[test]
fn load_blocks_until_response() {
    let mut c = core();
    let k = K {
        grid: GridDim {
            ctas: 1,
            threads_per_cta: 32,
        },
        ops: vec![
            Op::strided_load(Addr::new(0), 4, 32),
            Op::Compute { cycles: 1 },
        ],
    };
    c.launch_cta(&k, 0);
    // Tick until the request pops out.
    let mut req = None;
    for now in 1..20 {
        if let Some(r) = c.tick(now, true) {
            req = Some(r);
            break;
        }
    }
    let req = req.expect("miss must emit a request");
    assert_eq!(req.kind, AccessKind::Read);
    // The warp is blocked: many more ticks, no second instruction.
    for now in 20..200 {
        assert!(c.tick(now, true).is_none());
    }
    assert_eq!(c.stats().instructions, 1);
    assert!(!c.is_idle());
    // Response arrives: warp wakes, compute issues, CTA retires.
    c.on_response(MemResponse {
        line: req.line,
        kind: AccessKind::Read,
        core: CoreId(0),
        warp: req.warp,
        victim_hint: false,
        class: None,
    });
    for now in 200..300 {
        c.tick(now, true);
        if c.is_idle() {
            break;
        }
    }
    assert!(c.is_idle());
    assert_eq!(c.stats().instructions, 2);
}

/// The first request one warp's ops put on the network.
fn first_request(c: &mut SimtCore, ops: Vec<Op>) -> MemRequest {
    let k = K {
        grid: GridDim {
            ctas: 1,
            threads_per_cta: 32,
        },
        ops,
    };
    c.launch_cta(&k, 0);
    (1..20)
        .find_map(|now| c.tick(now, true))
        .expect("the op must emit a request")
}

#[test]
fn primary_miss_request_carries_core_line_and_class() {
    let cfg = GpuConfig::fermi().unwrap();
    let mut c = SimtCore::new(CoreId(3), &cfg, Lru::new(&cfg.l1_geometry));
    let class = RequestClass::from_wire(9).unwrap();
    let base = Addr::new(0x4000);
    let req = first_request(
        &mut c,
        vec![Op::SetClass { class }, Op::strided_load(base, 4, 32)],
    );
    assert_eq!(req.core, CoreId(3));
    assert_eq!(req.line, base.to_line(cfg.line_size()));
    assert_eq!(req.kind, AccessKind::Read);
    assert_eq!(req.class, class);
}

#[test]
fn atomic_request_wants_a_response() {
    let addrs = (0..32).map(|l| Some(Addr::new(l * 4))).collect();
    let req = first_request(&mut core(), vec![Op::Atomic { addrs }]);
    assert_eq!(req.kind, AccessKind::Atomic);
    assert!(req.wants_response());
}

#[test]
fn stores_do_not_block() {
    let mut c = core();
    let k = K {
        grid: GridDim {
            ctas: 1,
            threads_per_cta: 32,
        },
        ops: vec![
            Op::strided_store(Addr::new(0), 4, 32),
            Op::Compute { cycles: 1 },
        ],
    };
    c.launch_cta(&k, 0);
    for now in 1..100 {
        c.tick(now, true);
        if c.is_idle() {
            break;
        }
    }
    assert!(c.is_idle(), "store is fire-and-forget");
    assert_eq!(c.stats().instructions, 2);
}

#[test]
fn network_backpressure_stalls_ldst() {
    let mut c = core();
    let k = K {
        grid: GridDim {
            ctas: 1,
            threads_per_cta: 32,
        },
        ops: vec![Op::strided_load(Addr::new(0), 4, 32)],
    };
    c.launch_cta(&k, 0);
    // can_inject = false: the transaction must never reach the L1.
    for now in 1..50 {
        assert!(c.tick(now, false).is_none());
    }
    assert!(c.stats().mem_stall_cycles > 0);
    assert_eq!(
        c.l1().stats().accesses(),
        0,
        "access must not commit while stalled"
    );
    // Release the backpressure.
    let mut got = false;
    for now in 50..100 {
        if c.tick(now, true).is_some() {
            got = true;
            break;
        }
    }
    assert!(got, "request must flow after backpressure lifts");
}

#[test]
fn l1_hit_completes_without_network() {
    let mut c = core();
    let k = K {
        grid: GridDim {
            ctas: 1,
            threads_per_cta: 32,
        },
        ops: vec![
            Op::strided_load(Addr::new(0), 4, 32),
            Op::strided_load(Addr::new(0), 4, 32), // same line: hit
        ],
    };
    c.launch_cta(&k, 0);
    let mut req = None;
    for now in 1..20 {
        if let Some(r) = c.tick(now, true) {
            req = Some(r);
            break;
        }
    }
    let req = req.unwrap();
    c.on_response(MemResponse {
        line: req.line,
        kind: AccessKind::Read,
        core: CoreId(0),
        warp: req.warp,
        victim_hint: false,
        class: None,
    });
    // Second load hits; no further request may appear.
    for now in 20..100 {
        assert!(c.tick(now, true).is_none());
        if c.is_idle() {
            break;
        }
    }
    assert!(c.is_idle());
    assert_eq!(c.l1().stats().hits(), 1);
}

/// One warp on [`isa::steps`] whose steps emit 0, 1 and 5 ops in turn: a
/// one-cycle compute, then five stores of 32 lines each. The stores
/// outrun the LD/ST queue (128 transactions, one retired a cycle), so
/// from the second round on the warp spends most cycles parked on a store
/// it has pulled but cannot issue. `pulled` counts the ops handed out.
struct Stepped {
    rounds: usize,
    pulled: Arc<AtomicU64>,
}

struct CountPulls<P> {
    program: P,
    pulled: Arc<AtomicU64>,
}

impl<P: WarpProgram> WarpProgram for CountPulls<P> {
    fn next_op(&mut self) -> Option<Op> {
        let op = self.program.next_op();
        self.pulled
            .fetch_add(op.is_some() as u64, Ordering::Relaxed);
        op
    }
}

impl Kernel for Stepped {
    fn name(&self) -> &str {
        "stepped"
    }
    fn grid(&self) -> GridDim {
        GridDim {
            ctas: 1,
            threads_per_cta: 32,
        }
    }
    fn warp_program(&self, _cta: usize, _warp: usize) -> Box<dyn WarpProgram> {
        let program = isa::steps(3 * self.rounds, |step, ops| match step % 3 {
            0 => {}
            1 => ops.push(Op::Compute { cycles: 1 }),
            _ => ops.extend((0..5).map(|j| {
                let first_line = ((step * 5 + j) * 32) as u64;
                Op::strided_store(Addr::new(first_line * 128), 128, 32)
            })),
        });
        Box::new(CountPulls {
            program,
            pulled: Arc::clone(&self.pulled),
        })
    }
}

/// A snapshot taken while the warp is parked on a pulled op in the middle
/// of a step restores to the uninterrupted run: the restore replays the
/// program to its pull count, which lands inside the step, and the parked
/// op comes back as the last one pulled.
#[test]
fn restore_lands_mid_step_with_a_pending_op() {
    const EVERY: u64 = 50;
    let cfg = GpuConfig::fermi().unwrap();
    let kernel = || Stepped {
        rounds: 4,
        pulled: Arc::new(AtomicU64::new(0)),
    };
    let straight = Gpu::new(cfg.clone()).run_kernel(&kernel()).unwrap();

    // The same run, snapshotted every EVERY cycles. A sampler on the same
    // grid says how many ops had issued by each snapshot; the kernel's
    // counter says how many had been pulled.
    let hooked_kernel = kernel();
    let mut gpu = Gpu::new(cfg.clone());
    gpu.attach_sampler(Sampler::new(EVERY));
    let mut snapshots = Vec::new();
    let hooked = gpu
        .run_kernel_checkpointed(&hooked_kernel, EVERY, |cycle, bytes| {
            let pulled = hooked_kernel.pulled.load(Ordering::Relaxed);
            snapshots.push((cycle, pulled, bytes));
            Ok(())
        })
        .unwrap();
    assert_eq!(format!("{straight:?}"), format!("{hooked:?}"));
    let samples = gpu.take_sampler().unwrap().samples();

    let mut resumed_mid_step = 0;
    for (cycle, pulled, bytes) in &snapshots {
        let issued: u64 = samples
            .iter()
            .filter(|s| s.cycle <= *cycle)
            .map(|s| s.instructions)
            .sum();
        // A round is six ops, the last five of them one step: the parked
        // op is mid-step unless it is the step's last.
        let parked = pulled - issued == 1;
        if !(parked && (2..=5).contains(&(pulled % 6))) {
            continue;
        }
        let mut gpu = Gpu::new(cfg.clone());
        gpu.attach_sampler(Sampler::new(EVERY));
        let kernel = kernel();
        gpu.restore_checkpoint(bytes, &kernel).unwrap();
        let resumed = gpu.run_kernel(&kernel).unwrap();
        assert_eq!(
            format!("{straight:?}"),
            format!("{resumed:?}"),
            "resumed from cycle {cycle} with {pulled} ops pulled, {issued} issued"
        );
        resumed_mid_step += 1;
    }
    assert!(
        resumed_mid_step >= 4,
        "only {resumed_mid_step} of {} snapshots caught the warp parked mid-step",
        snapshots.len()
    );
}
