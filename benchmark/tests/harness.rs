//! Self-tests of the benchmark harness: the arithmetic behind its numbers
//! and the shape of what it writes. Run with `cargo test` in `benchmark/`.

use gcache_core::json::Json;
use gcache_perf::cal::{calibrated_s, Timer, CAL_NOMINAL_NS_PER_STEP};
use gcache_perf::metrics::{Values, END_TO_END, PER_LAYER};
use gcache_perf::report;
use gcache_perf::run::{Args, Host, Outcome};
use gcache_perf::seeded::SeededRw;
use gcache_perf::span::{merge_chrome_traces, Span, Tracer};
use gcache_perf::stats::{mean, median, Summary};
use gcache_perf::workloads::{self, Plan, WORKLOADS};
use gcache_sim::isa::Kernel;

#[test]
fn calibrated_time_scales_by_the_neighbouring_loops() {
    let nominal = CAL_NOMINAL_NS_PER_STEP;
    // A host running the loop at the nominal cost: calibrated = wall.
    assert!((calibrated_s(1e9, nominal, nominal) - 1.0).abs() < 1e-12);
    // A host twice as slow on both sides: the same work counts half.
    assert!((calibrated_s(1e9, 2.0 * nominal, 2.0 * nominal) - 0.5).abs() < 1e-12);
    // Different speeds either side: their mean is used.
    let mixed = calibrated_s(3e9, nominal, 2.0 * nominal);
    assert!((mixed - 2.0).abs() < 1e-12, "{mixed}");
}

#[test]
fn timer_runs_one_calibration_between_timed_points() {
    let mut timer = Timer::new(10_000);
    let (value, first) = timer.time(|| 7);
    assert_eq!(value, 7);
    assert_eq!(timer.samples().len(), 2, "before and after the first point");
    let (_, second) = timer.time(|| ());
    assert_eq!(timer.samples().len(), 3, "one more loop per further point");
    assert!(first.cal_s > 0.0 && second.cal_s >= 0.0 && first.raw_ns > 0.0);
    assert!(timer.cal_ms() > 0.0);
    timer.reset();
    timer.time(|| ());
    assert_eq!(timer.samples().len(), 5, "a reset timer calibrates afresh");
    // Part of a timed interval gets the interval's correction ...
    let (_, timing) = timer.time(|| std::hint::black_box((0..10_000u64).sum::<u64>()));
    let half = timing.calibrated(timing.raw_ns / 2.0, 1.0);
    assert!((half - timing.cal_s / 2.0).abs() < 1e-12);
    // ... and work that follows the loop half as strongly the square root
    // of it.
    let correction = timing.cal_s * 1e9 / timing.raw_ns;
    let damped = timing.calibrated(1e9, 0.5);
    assert!(
        (damped - correction.sqrt()).abs() < 1e-9,
        "{damped} {correction}"
    );
}

#[test]
fn mean_median_min_max() {
    assert_eq!(median(&[]), 0.0);
    assert_eq!(median(&[3.0]), 3.0);
    assert_eq!(median(&[4.0, 1.0, 3.0]), 3.0);
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    assert_eq!(mean(&[]), 0.0);
    assert_eq!(mean(&[4.0, 1.0, 4.0]), 3.0);
    let s = Summary::mean_of(&[4.0, 1.0, 4.0, 5.0]);
    assert_eq!((s.value, s.min, s.max, s.n), (3.5, 1.0, 5.0, 4));
    let s = Summary::median_of(&[9.0, 1.0, 3.0]);
    assert_eq!((s.value, s.min, s.max, s.n), (3.0, 1.0, 9.0, 3));
    let empty = Summary::mean_of(&[]);
    assert_eq!(
        (empty.value, empty.min, empty.max, empty.n),
        (0.0, 0.0, 0.0, 0)
    );
    let exact = Summary::exact(1.101);
    assert_eq!(
        (exact.value, exact.min, exact.max, exact.n),
        (1.101, 1.101, 1.101, 1)
    );
}

fn span(name: &str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
    Span {
        name: name.to_string(),
        start_ns,
        end_ns,
        parent,
        counts: Vec::new(),
    }
}

#[test]
fn self_time_is_the_span_minus_the_union_of_its_children() {
    let tracer = Tracer::from_spans(vec![
        span("workload", 0, 1000, None),
        // Nested: a point with two disjoint children.
        span("point", 100, 500, Some(0)),
        span("gpu_new", 100, 150, Some(1)),
        span("run_kernel", 200, 480, Some(1)),
        // Overlapping children of the root, one reaching past its end:
        // [600, 800] and [700, 1100] cover [600, 1000] once.
        span("driver.a", 600, 800, Some(0)),
        span("driver.b", 700, 1100, Some(0)),
    ]);
    let times = tracer.self_times();
    let of = |name: &str| times.iter().find(|s| s.name == name).expect(name).clone();
    // Root: 1000 − (400 of point + 400 of the overlapping pair).
    assert_eq!(
        (of("workload").total_ns, of("workload").self_ns),
        (1000, 200)
    );
    // Point: 400 − (50 + 280).
    assert_eq!((of("point").total_ns, of("point").self_ns), (400, 70));
    // Leaves keep all their time.
    assert_eq!(of("run_kernel").self_ns, 280);
    assert_eq!(
        (of("driver.b").total_ns, of("driver.b").self_ns),
        (400, 400)
    );
}

#[test]
fn recorded_spans_nest_and_carry_counts() {
    let mut tracer = Tracer::new();
    tracer.span("workload", |t| {
        t.span("rep", |t| {
            t.span("point", |t| t.count("cycles", 12.0));
            t.span("point", |_| ());
        });
    });
    let spans = tracer.spans();
    let names: Vec<&str> = spans.iter().map(|s| s.name.as_str()).collect();
    assert_eq!(names, ["workload", "rep", "point", "point"]);
    let parents: Vec<_> = spans.iter().map(|s| s.parent).collect();
    assert_eq!(parents, [None, Some(0), Some(1), Some(1)]);
    assert_eq!(spans[2].counts, [("cycles".to_string(), 12.0)]);
    assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
    let points = tracer.self_times().into_iter().find(|s| s.name == "point");
    assert_eq!(points.expect("point").count, 2);
}

fn sample_run(trace: bool) -> (Args, Outcome) {
    let args = Args {
        workload: workloads::find("sensitive_full").expect("workload"),
        seed: 2,
        seconds: 1.0,
        trace,
        quick: false,
        out_dir: std::env::temp_dir(),
    };
    let mut values = Values::default();
    values.set("host_cost", Summary::mean_of(&[3.5, 3.25, 3.75]));
    values.set_exact("sim_ipc_gm", 1.507);
    values.set_exact("gc_speedup_gm", 1.101);
    values.set_exact("paper_gap_gc", 0.159);
    values.set_exact("failed_points", 0.0);
    let mut tracer = Tracer::new();
    tracer.span("workload", |t| {
        t.span("driver.\"dram\"", |t| t.count("requests", 9.0))
    });
    let outcome = Outcome {
        values,
        attempted: 32,
        failed: 0,
        failures: vec!["a \"quoted\"\nfailure".to_string()],
        per_kernel: vec![("BFS".to_string(), 1.112)],
        host: Host {
            nproc: 2,
            cpu_model: "Test \"CPU\"".to_string(),
            cal_ms: 8.0,
            cal_spread: 0.05,
        },
        tracer: trace.then_some(tracer),
    };
    (args, outcome)
}

#[test]
fn result_files_parse_with_the_repo_json_reader() {
    let (args, outcome) = sample_run(true);
    let tracer = outcome.tracer.as_ref().expect("traced");
    let self_times = tracer.self_times();

    let doc = Json::parse(&report::document(&args, &outcome, &self_times)).expect("document");
    assert_eq!(
        doc.get("workload").and_then(Json::as_str),
        Some("sensitive_full")
    );
    assert_eq!(doc.get("seed").and_then(Json::as_f64), Some(2.0));
    assert_eq!(
        doc.get("why").and_then(Json::as_str),
        Some(args.workload.why)
    );
    assert_eq!(
        doc.get("paper_reference").and_then(Json::as_f64),
        Some(1.309)
    );
    assert_eq!(doc.get("gateable").and_then(Json::as_bool), Some(true));
    assert_eq!(
        doc.at(&["host", "cpu_model"]).and_then(Json::as_str),
        Some("Test \"CPU\"")
    );
    assert_eq!(
        doc.at(&["metrics", "host_cost", "value"])
            .and_then(Json::as_f64),
        Some(3.5)
    );
    assert_eq!(
        doc.at(&["metrics", "host_cost", "n"])
            .and_then(Json::as_f64),
        Some(3.0)
    );
    assert_eq!(
        doc.at(&["metrics", "gc_speedup_gm", "exact"])
            .and_then(Json::as_bool),
        Some(true)
    );
    assert_eq!(
        doc.at(&["gc_speedup_per_kernel", "BFS"])
            .and_then(Json::as_f64),
        Some(1.112)
    );
    assert_eq!(
        doc.get("self_time")
            .and_then(Json::as_arr)
            .map(<[Json]>::len),
        Some(2)
    );

    let trace = Json::parse(&tracer.chrome_trace(3, "sensitive_full")).expect("trace.json");
    let events = trace
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("events");
    assert_eq!(events.len(), 3, "process name + two spans");
    let driver = &events[2];
    assert_eq!(
        driver.get("name").and_then(Json::as_str),
        Some("driver.\"dram\"")
    );
    assert_eq!(driver.get("ph").and_then(Json::as_str), Some("X"));
    assert_eq!(
        driver.at(&["args", "parent"]).and_then(Json::as_f64),
        Some(0.0)
    );
    assert_eq!(
        driver.at(&["args", "workload"]).and_then(Json::as_str),
        Some("sensitive_full")
    );
    assert_eq!(
        driver.at(&["args", "requests"]).and_then(Json::as_f64),
        Some(9.0)
    );
    assert_eq!(events[1].at(&["args", "parent"]), Some(&Json::Null));

    // trace.json: several workloads' documents merged into one.
    let parts = [tracer.chrome_trace(1, "a"), tracer.chrome_trace(2, "b")];
    let merged = Json::parse(&merge_chrome_traces(&parts).expect("merge")).expect("merged");
    let events = merged
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("events");
    let pids: Vec<_> = events
        .iter()
        .map(|e| e.get("pid").and_then(Json::as_f64))
        .collect();
    assert_eq!(
        pids,
        [
            Some(1.0),
            Some(1.0),
            Some(1.0),
            Some(2.0),
            Some(2.0),
            Some(2.0)
        ]
    );
    assert_eq!(merge_chrome_traces(&["{}".to_string()]), None);
}

#[test]
fn result_line_carries_exactly_the_runs_metric_table() {
    for trace in [false, true] {
        let (args, outcome) = sample_run(trace);
        let line = Json::parse(&report::result_line(&args, &outcome)).expect("result line");
        let keys: Vec<&str> = line
            .as_obj()
            .expect("object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(line.get("correct").and_then(Json::as_bool), Some(true));
        assert_eq!(line.get("attempted").and_then(Json::as_f64), Some(32.0));
        let metrics = line.get("metrics").and_then(Json::as_obj).expect("metrics");
        let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
        let table: Vec<&str> = report::table(trace).iter().map(|d| d.name).collect();
        assert_eq!(names, table);
        for (name, m) in metrics {
            assert!(m.get("value").and_then(Json::as_f64).is_some(), "{name}");
            assert!(m.get("unit").and_then(Json::as_str).is_some(), "{name}");
        }
    }
}

/// `BENCHMARK.json` at the repository root lists the same workloads and
/// metrics, with the same units, directions and bounds, as the code.
#[test]
fn benchmark_json_matches_the_metric_tables() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json");
    let spec = Json::parse(&text).expect("BENCHMARK.json parses");
    let str_of = |j: &Json, k: &str| j.get(k).and_then(Json::as_str).map(String::from);

    let listed = spec
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads");
    let names: Vec<_> = listed
        .iter()
        .map(|w| str_of(w, "name").expect("name"))
        .collect();
    assert_eq!(names, WORKLOADS.map(|w| w.name.to_string()));

    for (key, defs) in [
        ("end_to_end", &END_TO_END[..]),
        ("per_layer", &PER_LAYER[..]),
    ] {
        let listed = spec.get(key).and_then(Json::as_arr).expect(key);
        assert_eq!(listed.len(), defs.len(), "{key}");
        for (m, def) in listed.iter().zip(defs) {
            assert_eq!(str_of(m, "name").as_deref(), Some(def.name));
            assert_eq!(str_of(m, "unit").as_deref(), Some(def.unit), "{}", def.name);
            assert_eq!(
                str_of(m, "better").as_deref(),
                Some(def.better.as_str()),
                "{}",
                def.name
            );
            assert_eq!(
                m.get("bound").and_then(Json::as_f64),
                def.bound,
                "{}",
                def.name
            );
        }
    }
    assert!(END_TO_END
        .iter()
        .any(|d| d.name == "setup_s" && d.unit == "s"));
}

fn documents(cpu_model: &str, host_cost: f64, speedup: f64) -> Vec<Json> {
    let (args, mut outcome) = sample_run(false);
    outcome.host.cpu_model = cpu_model.to_string();
    outcome.values.set_exact("host_cost", host_cost);
    outcome.values.set_exact("gc_speedup_gm", speedup);
    vec![Json::parse(&report::document(&args, &outcome, &[])).expect("document")]
}

#[test]
fn comparison_applies_bounds_exactness_and_the_host_fingerprint() {
    let base = documents("cpu", 3.5, 1.101);

    let same = report::compare(&base, &documents("cpu", 3.6, 1.101));
    assert!(
        same.comparable && same.passed(),
        "3 % is inside host_cost's bound"
    );
    let cost = same
        .differences
        .iter()
        .find(|d| d.metric == "host_cost")
        .expect("row");
    assert!((cost.relative - 0.1 / 3.5).abs() < 1e-12 && cost.bound == Some(0.25));

    let slower = report::compare(&base, &documents("cpu", 4.6, 1.101));
    assert!(!slower.passed(), "31 % is outside it");

    let moved = report::compare(&base, &documents("cpu", 3.5, 1.102));
    assert!(!moved.passed(), "an exact metric must repeat bit for bit");

    // Another host: times are unresolved rather than failed, exact
    // metrics still count.
    let elsewhere = report::compare(&base, &documents("other cpu", 4.6, 1.101));
    assert!(!elsewhere.comparable && elsewhere.passed());
    let elsewhere = report::compare(&base, &documents("other cpu", 3.5, 1.102));
    assert!(!elsewhere.comparable && !elsewhere.passed());
}

#[test]
fn an_unsteady_host_is_not_gateable() {
    let (args, mut outcome) = sample_run(false);
    assert!(report::gateable(&args, &outcome));
    outcome.host.cal_spread = 0.3;
    assert!(!report::gateable(&args, &outcome));
    let doc = Json::parse(&report::document(&args, &outcome, &[])).expect("document");
    assert_eq!(
        doc.at(&["host", "comparable"]).and_then(Json::as_bool),
        Some(false)
    );
    let (mut args, outcome) = sample_run(false);
    args.quick = true;
    assert!(
        !report::gateable(&args, &outcome),
        "--quick is never gateable"
    );
}

fn first_ops(seed: u64) -> Vec<String> {
    let mut program = SeededRw::new(seed).warp_program(3, 1);
    (0..64)
        .map_while(|_| program.next_op())
        .map(|op| format!("{op:?}"))
        .collect()
}

#[test]
fn the_seed_changes_seeded_rw_and_nothing_else() {
    assert_eq!(first_ops(1), first_ops(1), "same seed, same stream");
    assert_ne!(first_ops(1), first_ops(2), "another seed, another stream");
    assert!(first_ops(1).iter().any(|op| op.starts_with("Atomic")));
    assert!(first_ops(1).iter().any(|op| op.starts_with("Store")));
    // Every other plan is the same whatever the seed.
    for w in WORKLOADS.iter().filter(|w| w.name != "seeded_rw") {
        let (a, b) = (Plan::build(w.name, 1), Plan::build(w.name, 2));
        let labels = |p: &Plan| (0..p.points.len()).map(|i| p.label(i)).collect::<Vec<_>>();
        assert_eq!(labels(&a), labels(&b), "{}", w.name);
    }
}

#[test]
fn plans_have_the_points_the_workloads_promise() {
    let count = |name: &str| Plan::build(name, 1).points.len();
    assert_eq!(count("grid_smoke"), 102);
    assert_eq!(count("server_ckpt"), 30);
    assert_eq!(count("sensitive_full"), 16);
    assert_eq!(count("insensitive_full"), 10);
    assert_eq!(count("cluster_ml"), 5);
    assert_eq!(count("seeded_rw"), 2);
    let plan = Plan::build("cluster_ml", 1);
    assert!(plan.config(4).topology().is_clustered());
    assert_eq!(plan.label(0), "BFS/GC");
}
