//! The telemetry sampler must be passive: attaching it cannot change a
//! single simulated statistic, under any policy or hierarchy shape. Also
//! checks the shape of the exported CSV: one numeric cell per column.

use gcache_bench::sweep::DesignPoint;
use gcache_bench::{telemetry_csv, RunOpts, TelemetrySeries};
use gcache_core::policy::gcache::GCacheConfig;
use gcache_sim::config::{Hierarchy, L1PolicyKind};
use gcache_sim::stats::SimStats;
use gcache_sim::telemetry::{Sample, Sampler};
use gcache_workloads::{by_name, Scale};

/// One point, with or without the sampler.
fn run(point: DesignPoint<'_>, sampled: bool) -> (SimStats, Option<Sampler>) {
    point.run(&RunOpts {
        sampled,
        ..RunOpts::default()
    })
}

#[test]
fn telemetry_off_identical() {
    let bench = by_name("BFS", Scale::Test).expect("benchmark registered");
    let points: [(L1PolicyKind, Hierarchy); 4] = [
        (L1PolicyKind::Lru, Hierarchy::Flat),
        (L1PolicyKind::StaticPdp { pd: 8 }, Hierarchy::Flat),
        (
            L1PolicyKind::GCache(GCacheConfig::default()),
            Hierarchy::Flat,
        ),
        (
            L1PolicyKind::GCache(GCacheConfig::default()),
            Hierarchy::SharedL15 {
                cluster_size: 4,
                kb: 64,
            },
        ),
    ];
    for (policy, hierarchy) in points {
        let point = DesignPoint {
            hierarchy,
            ..DesignPoint::flat(bench.as_ref(), policy)
        };
        let (plain, none) = run(point, false);
        assert!(none.is_none(), "an unsampled run carries no series");
        let (sampled, sampler) = run(point, true);
        let sampler = sampler.expect("a sampled run returns its series");
        assert_eq!(
            format!("{plain:?}"),
            format!("{sampled:?}"),
            "sampler perturbed the simulation under {policy:?} / {hierarchy:?}"
        );
        assert!(
            !sampler.is_empty(),
            "a full run should record at least one sample ({policy:?})"
        );
    }
}

#[test]
fn csv_schema_round_trips() {
    let bench = by_name("BFS", Scale::Test).expect("benchmark registered");
    let (stats, sampler) = run(
        DesignPoint::flat(
            bench.as_ref(),
            L1PolicyKind::GCache(GCacheConfig::default()),
        ),
        true,
    );
    let sampler = sampler.expect("a sampled run returns its series");

    let samples = sampler.samples();
    assert!(!samples.is_empty());

    // The combined document: header plus one prefixed row per sample,
    // each with the header's arity and a finite number in every cell.
    let series: Vec<TelemetrySeries> = vec![("BFS".to_string(), stats.design, sampler)];
    let doc = telemetry_csv(&series);
    let mut lines = doc.lines();
    let header = lines.next().expect("header line");
    assert_eq!(header, format!("bench,design,{}", Sample::CSV_HEADER));
    let mut rows = 0usize;
    for line in lines {
        let rest = line
            .strip_prefix("BFS,GC,")
            .unwrap_or_else(|| panic!("row lacks its labels: {line}"));
        let cells: Vec<&str> = rest.split(',').collect();
        assert_eq!(cells.len(), Sample::CSV_HEADER.split(',').count(), "{line}");
        for cell in cells {
            let finite = cell.parse::<f64>().is_ok_and(f64::is_finite);
            assert!(finite, "cell {cell:?} of {line}");
        }
        rows += 1;
    }
    assert_eq!(rows, samples.len());
}

#[test]
fn header_matches_row_arity() {
    let cols = Sample::CSV_HEADER.split(',').count();
    let row = Sample::default().csv_row();
    assert_eq!(row.split(',').count(), cols, "row/header arity mismatch");
}
