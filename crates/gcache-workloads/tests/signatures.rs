//! Workload-signature tests: every Table 1 generator must exhibit the
//! locality class its real counterpart is known for. These run on the raw
//! address streams (no simulator), using the reuse profiler.

use gcache_core::addr::LineAddr;
use gcache_core::policy::RequestClass;
use gcache_core::reuse::ReuseProfiler;
use gcache_core::snapshot::checksum64;
use gcache_sim::coalescer::coalesce;
use gcache_sim::isa::Op;
use gcache_workloads::{by_name, ml_registry, registry, Benchmark, Category, Scale};
use std::collections::HashSet;

/// Replays the coalesced load stream of a few warps through one profiler,
/// interleaving warps round-robin the way a core's scheduler would.
fn interleaved_profile(name: &str, warps: usize) -> ReuseProfiler {
    let bench = by_name(name, Scale::Paper).expect("table 1 name");
    let mut streams: Vec<Vec<LineAddr>> = (0..warps)
        .map(|w| {
            let mut p = bench.warp_program(w / 4, w % 4);
            let mut lines = Vec::new();
            while let Some(op) = p.next_op() {
                if let Op::Load { addrs } = op {
                    lines.extend(coalesce(&addrs, 128));
                }
            }
            lines
        })
        .collect();
    let mut prof = ReuseProfiler::new(4096);
    let mut exhausted = false;
    let mut idx = 0usize;
    while !exhausted {
        exhausted = true;
        for s in &mut streams {
            if idx < s.len() {
                prof.record(s[idx]);
                exhausted = false;
            }
        }
        idx += 1;
    }
    prof
}

#[test]
fn streaming_benchmarks_have_no_interleaved_reuse() {
    for name in ["FWT", "SD1"] {
        let prof = interleaved_profile(name, 8);
        assert!(
            prof.single_use_fraction() > 0.95,
            "{name}: single-use fraction {:.3}",
            prof.single_use_fraction()
        );
    }
}

#[test]
fn sensitive_benchmarks_have_substantial_reuse() {
    for name in ["SPMV", "SYRK", "KMN", "SSC", "PVC", "IIX", "BFS", "SD2"] {
        let prof = interleaved_profile(name, 8);
        let reused = 1.0 - prof.single_use_fraction();
        assert!(
            reused > 0.2,
            "{name}: only {:.3} of accesses see re-use",
            reused
        );
    }
}

#[test]
fn hot_regions_are_shared_between_ctas() {
    // Shared tables (SPMV x, KMN centroids, SYRK tile) must overlap across
    // CTAs, otherwise no inter-warp contention exists to manage.
    for name in ["SPMV", "KMN", "SYRK", "SSC"] {
        let bench = by_name(name, Scale::Paper).unwrap();
        let lines_of = |cta: usize| -> HashSet<u64> {
            let mut out = HashSet::new();
            for warp in 0..4 {
                let mut p = bench.warp_program(cta, warp);
                while let Some(op) = p.next_op() {
                    if let Op::Load { addrs } = op {
                        out.extend(coalesce(&addrs, 128).iter().map(|l| l.raw()));
                    }
                }
            }
            out
        };
        let a = lines_of(0);
        let b = lines_of(7);
        assert!(
            a.intersection(&b).count() > 0,
            "{name}: CTAs 0 and 7 share no lines"
        );
    }
}

#[test]
fn per_benchmark_footprints_are_ordered_by_class() {
    // The moderate/insensitive split of Table 1 comes from footprint and
    // reuse scale; sanity-check that KMN's hot region is larger than
    // SPMV's (the PD-24 vs PD-6 calibration).
    let kmn = interleaved_profile("KMN", 8);
    let spmv = interleaved_profile("SPMV", 8);
    let kmn_d = kmn.mean_distance().expect("KMN reuse");
    let spmv_d = spmv.mean_distance().expect("SPMV reuse");
    assert!(
        kmn_d > spmv_d,
        "KMN interleaved reuse distance ({kmn_d:.0}) must exceed SPMV's ({spmv_d:.0})"
    );
}

#[test]
fn all_benchmarks_emit_work_at_both_scales() {
    for scale in [Scale::Test, Scale::Paper] {
        for b in registry(scale) {
            let mut p = b.warp_program(0, 0);
            let mut ops = 0;
            let mut mem = 0;
            while let Some(op) = p.next_op() {
                ops += 1;
                if op.is_global_mem() {
                    mem += 1;
                }
                assert!(ops < 1_000_000, "{}: runaway program", b.info().name);
            }
            assert!(ops > 0, "{}: empty program at {scale:?}", b.info().name);
            assert!(mem > 0, "{}: no memory traffic at {scale:?}", b.info().name);
        }
    }
}

#[test]
fn categories_match_table_1_counts() {
    let all = registry(Scale::Test);
    let count = |c: Category| all.iter().filter(|b| b.info().category == c).count();
    assert_eq!(count(Category::Sensitive), 8);
    assert_eq!(count(Category::Moderate), 4);
    assert_eq!(count(Category::Insensitive), 5);
}

/// Appends one op to `out` in a fixed byte form: a variant tag, then
/// `Compute`'s cycles, `SetClass`'s wire byte, or every lane of a memory
/// op as a presence byte plus its little-endian address.
fn write_op(op: &Op, out: &mut Vec<u8>) {
    let (tag, addrs) = match op {
        Op::Compute { cycles } => {
            out.push(0);
            out.extend_from_slice(&cycles.to_le_bytes());
            return;
        }
        Op::Load { addrs } => (1, addrs),
        Op::Store { addrs } => (2, addrs),
        Op::Atomic { addrs } => (3, addrs),
        Op::Shared => return out.push(4),
        Op::Barrier => return out.push(5),
        Op::SetClass { class } => {
            out.push(6);
            out.push(RequestClass::to_wire(*class));
            return;
        }
    };
    out.push(tag);
    for lane in addrs.iter() {
        out.push(lane.is_some() as u8);
        out.extend_from_slice(&lane.map_or(0, |a| a.raw()).to_le_bytes());
    }
}

/// Op count and [`checksum64`] of a stream of ops.
type StreamPin = (u64, u64);

/// The pin of every op the given CTAs' warps emit, written with
/// [`write_op`] in (CTA, warp, program) order.
fn stream_pin(bench: &dyn Benchmark, ctas: &[usize]) -> StreamPin {
    let mut bytes = Vec::new();
    let mut ops = 0;
    for &cta in ctas {
        for warp in 0..bench.grid().warps_per_cta(32) {
            let mut p = bench.warp_program(cta, warp);
            while let Some(op) = p.next_op() {
                write_op(&op, &mut bytes);
                ops += 1;
            }
        }
    }
    (ops, checksum64(&bytes))
}

/// `(kernel, test-scale pin, paper-scale pin)`, captured from the
/// generators while they still built each warp's whole op list up front.
#[rustfmt::skip]
const STREAM_PINS: [(&str, StreamPin, StreamPin); 20] = [
    ("BFS", (7168, 0x1e02bed8e8bc68bf), (3584, 0x3c8c5b43f368e06f)),
    ("KMN", (7296, 0x1f77aefc68fa906d), (3648, 0xc71cded77ef750fc)),
    ("PVC", (6656, 0xbedbbbff80bd3ff5), (3360, 0x43aeda39a03511d4)),
    ("SSC", (8320, 0xfde3fe0de7404be9), (4160, 0x4bc54f166b78c268)),
    ("SD2", (7680, 0xca4b4f05099c0594), (3840, 0xe64c01a0b0c2ca81)),
    ("SPMV", (9216, 0xbbc7da403763f009), (4608, 0xa47aef537c9ade44)),
    ("SYRK", (8192, 0xc28178a0b802b2ee), (4096, 0x12971cd3479ad09f)),
    ("IIX", (7680, 0xcb68928562caef8b), (3840, 0x8780d3cda396fe4a)),
    ("FFT", (7680, 0x4384f64414710d3e), (3840, 0x3c3d0ed88afa07f3)),
    ("CFD", (7680, 0x62d2f846546e6690), (3840, 0x090266334ae9ab4d)),
    ("PVR", (4608, 0xf5c1947f20d213b3), (2304, 0x4ec7e5e773ee7868)),
    ("NW", (12288, 0x2e7dc791427e366e), (6144, 0xc717fa0cce6eedb9)),
    ("SD1", (5120, 0x7c106dc8b3f5d4ed), (2560, 0xe0618f72a38a97ef)),
    ("BP", (4736, 0xa5ae6f18bcf11f68), (2320, 0x03398dc45fb9c514)),
    ("STL", (4736, 0x99fc6bab9cc20c2f), (2352, 0xd1dc5c78ad1f4c94)),
    ("WP", (5632, 0xd5849e82ddc16b6c), (2816, 0x8e8e21ec67c4a80d)),
    ("FWT", (6144, 0x206c353435c955f0), (3072, 0x6b5f9bcb32b85f14)),
    ("GEMM", (13568, 0x0c00776d9e5d6045), (6832, 0xa833fd3ae3a7023a)),
    ("CONV", (11520, 0x50bce73a0bf5627a), (5760, 0x65cead2777b49cbd)),
    ("ATTN", (31488, 0xe25ae96f0c46ec46), (15744, 0x459f8ca1bb38eef5)),
];

/// Every generator's op stream, bit for bit: the whole grid at test scale,
/// CTAs 0, 1, 63 and the last at paper scale (the goldens only ever run
/// `--quick`). A change to *when* a program makes its ops passes this
/// untouched; a change to *which* ops it makes does not.
#[test]
fn op_streams_are_pinned() {
    let kernels = |scale| registry(scale).into_iter().chain(ml_registry(scale));
    let mut got = Vec::new();
    for (test, paper) in kernels(Scale::Test).zip(kernels(Scale::Paper)) {
        let all: Vec<usize> = (0..test.grid().ctas).collect();
        let last = paper.grid().ctas - 1;
        got.push((
            test.info().name,
            stream_pin(test.as_ref(), &all),
            stream_pin(paper.as_ref(), &[0, 1, 63, last]),
        ));
    }
    let table: String = got
        .iter()
        .map(|(n, t, p)| {
            format!(
                "    ({n:?}, ({}, {:#018x}), ({}, {:#018x})),\n",
                t.0, t.1, p.0, p.1
            )
        })
        .collect();
    assert!(
        got == STREAM_PINS,
        "op streams moved; generators now emit:\n{table}"
    );
}
