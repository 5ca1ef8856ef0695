//! Anatomy of the G-Cache mechanism, at cache level (no GPU simulation):
//! replays the paper's Figure 7 access walk against a real `Cache` pair —
//! a 2-way G-Cache L1 backed by an L2 with victim bits — narrates every
//! decision, and then replays the same walk from the structured trace
//! ring, filtered down to one streaming line's contention anatomy.
//!
//! ```text
//! cargo run --example contention_anatomy
//! ```

use gcache::prelude::*;
use gcache_core::geometry::CacheGeometry;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // One 2-way L1 set under G-Cache (Figure 7's configuration).
    let l1_geom = CacheGeometry::new(256, 2, 128)?;
    let mut l1 = Cache::new(CacheConfig::l1(l1_geom, 0), GCache::with_defaults(&l1_geom));

    // A small L2 with one victim bit per core.
    let l2_geom = CacheGeometry::new(16 * 1024, 16, 128)?;
    let mut l2 = Cache::with_victim_bits(CacheConfig::l2(l2_geom, 0), Lru::new(&l2_geom), 2, 1);

    // One shared trace ring records what both caches did, event by event.
    let ring = SharedTraceRing::new(256);
    l1.attach_trace(TraceSource::new(TraceLevel::L1, 0), &ring);
    l2.attach_trace(TraceSource::new(TraceLevel::L2, 0), &ring);

    let core = CoreId(0);
    let a1 = LineAddr::new(0); // hot
    let a2 = LineAddr::new(2); // hot (same L1 set: 2 sets in this tiny L1)
    let b = |i: u64| LineAddr::new(4 + 2 * i); // streaming, same set

    // The access stream of Figure 7: a1 a2 (fill), contention replays, then
    // a stream of b-lines that should be bypassed.
    let walk: Vec<LineAddr> = vec![a1, a2, a1, a2, b(0), b(1), a1, a2, b(2), b(3), a1, a2];

    println!("Figure 7 walk on a 2-way G-Cache set (TH_hot=2):\n");
    for (i, line) in walk.iter().copied().enumerate() {
        ring.set_time(i as u64 + 1); // "cycle" = walk step, for the replay
        let l1_lookup = l1.access(line, AccessKind::Read, core);
        let outcome = match l1_lookup {
            Lookup::Hit { .. } => "L1 hit".to_string(),
            Lookup::Miss => {
                // Go to L2; its victim bit for this core is the hint.
                let hint = match l2.access(line, AccessKind::Read, core) {
                    Lookup::Hit { victim_hint } => victim_hint,
                    Lookup::Miss => {
                        l2.fill(AccessCtx::plain(line, core), false);
                        false
                    }
                };
                let fill = l1.fill(
                    AccessCtx {
                        line,
                        core,
                        victim_hint: hint,
                        class: None,
                    },
                    false,
                );
                match (hint, fill.bypassed) {
                    (true, true) => "L1 miss, hint=1 -> BYPASSED".to_string(),
                    (true, false) => "L1 miss, hint=1 -> inserted hot".to_string(),
                    (false, true) => "L1 miss -> BYPASSED".to_string(),
                    (false, false) => "L1 miss -> inserted".to_string(),
                }
            }
        };
        println!("  {:>2}. access {line}  =>  {outcome}", i + 1);
    }

    let s = l1.stats();
    println!(
        "\nL1 totals: {} accesses, {} hits, {} fills, {} bypassed",
        s.accesses(),
        s.hits(),
        s.fills,
        s.bypassed_fills
    );
    println!("The hot lines survive; the b-stream is kept out of the set.");

    // The same story, replayed from the trace ring. First the G-Cache
    // switch decisions (the per-set state machine the narration above can
    // only infer), then one streaming line's full anatomy across levels.
    let events = ring.events();
    println!(
        "\nSwitch flips recorded by the trace ring ({} events total):\n",
        ring.recorded()
    );
    let switches = dump_filtered(
        &events,
        &TraceFilter {
            level: Some(TraceLevel::L1),
            ..TraceFilter::default()
        },
    );
    for line in switches.lines().filter(|l| l.contains("switch")) {
        println!("  {line}");
    }

    let probe = b(2); // the first bypassed streaming line
    println!("\nAnatomy of streaming line {probe} (all levels, filtered):\n");
    print!(
        "{}",
        dump_filtered(&events, &TraceFilter::line(probe))
            .lines()
            .map(|l| format!("  {l}\n"))
            .collect::<String>()
    );
    Ok(())
}
