//! What a run prints and writes: the result line the benchmark driver
//! reads, the per-workload result document, the printed tables, and the
//! comparison of two result sets.

use crate::metrics::{def_of, MetricDef, END_TO_END, PER_LAYER};
use crate::run::{Args, Outcome};
use crate::span::SelfTime;
use gcache_core::json::{escape, Json};
use std::fmt::Write as _;

/// A number as JSON (non-finite values, which JSON cannot carry, as 0).
fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".to_string()
    }
}

/// The metric table a run reports: end-to-end untraced, per-layer traced.
pub fn table(trace: bool) -> &'static [MetricDef] {
    if trace {
        &PER_LAYER
    } else {
        &END_TO_END
    }
}

/// The one JSON object the benchmark driver reads off the last line of
/// standard output: `correct`, `attempted`, `failed` and every metric of
/// the run's table (a metric the workload does not define reads 0).
pub fn result_line(args: &Args, outcome: &Outcome) -> String {
    let mut out = format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
        outcome.failed == 0,
        outcome.attempted.max(1),
        outcome.failed
    );
    for (i, def) in table(args.trace).iter().enumerate() {
        let value = outcome.values.get(def.name).map_or(0.0, |v| v.value);
        let _ = write!(
            out,
            "{}\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
            if i == 0 { "" } else { "," },
            def.name,
            num(value),
            def.unit
        );
    }
    out.push_str("}}");
    out
}

/// Whether a run's timings may gate anything: not a `--quick` run, and on
/// a host steady enough to compare.
pub fn gateable(args: &Args, outcome: &Outcome) -> bool {
    !args.quick && outcome.host.steady()
}

/// The per-workload result document: everything the run measured, with
/// the seed, the workload's rationale and the host fingerprint echoed.
pub fn document(args: &Args, outcome: &Outcome, self_times: &[SelfTime]) -> String {
    let w = args.workload;
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"workload\": \"{}\",", w.name);
    let _ = writeln!(out, "  \"why\": \"{}\",", escape(w.why));
    let _ = writeln!(out, "  \"seed\": {},", args.seed);
    let _ = writeln!(out, "  \"trace\": {},", args.trace as u8);
    let _ = writeln!(out, "  \"quick\": {},", args.quick);
    let _ = writeln!(out, "  \"gateable\": {},", gateable(args, outcome));
    let _ = writeln!(
        out,
        "  \"paper_reference\": {},",
        w.reference.map_or("null".to_string(), num)
    );
    let h = &outcome.host;
    let _ = writeln!(
        out,
        "  \"host\": {{\"fingerprint\": \"{}\", \"cpu_model\": \"{}\", \"nproc\": {}, \"cal_ms\": {}, \"cal_spread\": {}, \"comparable\": {}}},",
        escape(&h.fingerprint()),
        escape(&h.cpu_model),
        h.nproc,
        num(h.cal_ms),
        num(h.cal_spread),
        h.steady()
    );
    let _ = writeln!(out, "  \"attempted\": {},", outcome.attempted);
    let _ = writeln!(out, "  \"failed\": {},", outcome.failed);
    let failures: Vec<String> = outcome
        .failures
        .iter()
        .map(|f| format!("\"{}\"", escape(f)))
        .collect();
    let _ = writeln!(out, "  \"failures\": [{}],", failures.join(", "));
    let kernels: Vec<String> = outcome
        .per_kernel
        .iter()
        .map(|(k, v)| format!("\"{}\": {}", escape(k), num(*v)))
        .collect();
    let _ = writeln!(
        out,
        "  \"gc_speedup_per_kernel\": {{{}}},",
        kernels.join(", ")
    );
    out.push_str("  \"metrics\": {\n");
    let rows: Vec<String> = outcome
        .values
        .iter()
        .filter_map(|(name, v)| {
            let def = def_of(name)?;
            Some(format!(
                "    \"{name}\": {{\"value\": {}, \"unit\": \"{}\", \"min\": {}, \"max\": {}, \"n\": {}, \"exact\": {}}}",
                num(v.value),
                def.unit,
                num(v.min),
                num(v.max),
                v.n,
                def.exact
            ))
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  },\n  \"self_time\": [");
    let rows: Vec<String> = self_times
        .iter()
        .map(|s| {
            format!(
                "\n    {{\"span\": \"{}\", \"count\": {}, \"total_ms\": {}, \"self_ms\": {}}}",
                escape(&s.name),
                s.count,
                num(s.total_ns as f64 / 1e6),
                num(s.self_ns as f64 / 1e6)
            )
        })
        .collect();
    out.push_str(&rows.join(","));
    out.push_str("\n  ]\n}\n");
    out
}

/// Prints every measured metric by name with its unit. Timings carry
/// their min, max and n; fewer than 20 reps, so no percentile.
pub fn print(args: &Args, outcome: &Outcome, self_times: &[SelfTime]) {
    let w = args.workload;
    println!(
        "== {} (seed {}, {}) ==",
        w.name,
        args.seed,
        if args.trace {
            "traced pass"
        } else {
            "untraced reps"
        }
    );
    println!("   {}", w.why);
    if !gateable(args, outcome) {
        println!(
            "   NOT GATEABLE: {}",
            if args.quick {
                "--quick runs one rep"
            } else {
                "host.cal_spread above the limit, times are not comparable"
            }
        );
    }
    for (name, v) in outcome.values.iter() {
        let Some(def) = def_of(name) else {
            continue;
        };
        let mut line = format!("   {name:<28} {:>16.6} {:<13}", v.value, def.unit);
        if v.n > 1 {
            let _ = write!(
                line,
                " min {:.6} max {:.6} n {} (n < 20: no percentile)",
                v.min, v.max, v.n
            );
        }
        if def.exact {
            line.push_str(" exact");
        }
        if name == "failed_points" {
            let _ = write!(line, " of points_attempted {}", outcome.attempted);
        }
        if name == "gc_speedup_gm" {
            match (w.reference, outcome.values.get("paper_gap_gc")) {
                (Some(r), Some(gap)) => {
                    let _ = write!(line, " (paper {r:.3}, paper_gap_gc {:.3})", gap.value);
                }
                _ => line.push_str(" (no paper reference: unvalidated)"),
            }
        }
        println!("{line}");
    }
    for (kernel, speedup) in &outcome.per_kernel {
        println!("   gc_speedup {kernel:<6} {speedup:.3}");
    }
    for failure in &outcome.failures {
        println!("   FAILED: {failure}");
    }
    if !self_times.is_empty() {
        println!("   self time (span minus its children):");
        for s in self_times {
            println!(
                "     {:<28} x{:<5} total {:>10.2} ms  self {:>10.2} ms",
                s.name,
                s.count,
                s.total_ns as f64 / 1e6,
                s.self_ns as f64 / 1e6
            );
        }
    }
}

/// One line of a comparison between two result sets.
#[derive(Clone, Debug, PartialEq)]
pub struct Difference {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: String,
    /// Value in the first set.
    pub first: f64,
    /// Value in the second set.
    pub second: f64,
    /// `|second − first| / first` (0 when both are 0).
    pub relative: f64,
    /// The metric's bound; `None` for exact metrics (bound 0).
    pub bound: Option<f64>,
    /// Whether the pair is out of bounds.
    pub violated: bool,
}

/// The verdict of comparing two result sets.
#[derive(Clone, Debug, PartialEq)]
pub struct Comparison {
    /// Whether the sets' times may be compared at all: same host
    /// fingerprint, both steady, neither `--quick`.
    pub comparable: bool,
    /// One entry per workload × compared metric.
    pub differences: Vec<Difference>,
}

impl Comparison {
    /// Whether the second set agrees with the first: every exact metric
    /// equal, and — when the sets are comparable — every bounded metric
    /// within its bound.
    pub fn passed(&self) -> bool {
        self.differences
            .iter()
            .all(|d| !d.violated || (d.bound.is_some() && !self.comparable))
    }
}

/// Compares the per-workload result documents of two sets (each a list of
/// parsed documents as [`document`] writes them): every end-to-end metric
/// against its bound, every exact metric and the failure count for
/// equality.
pub fn compare(first: &[Json], second: &[Json]) -> Comparison {
    let mut comparable = true;
    let mut differences = Vec::new();
    for (a, b) in first.iter().zip(second) {
        let name = a.get("workload").and_then(Json::as_str).unwrap_or("?");
        let gateable = |d: &Json| d.get("gateable").and_then(Json::as_bool) == Some(true);
        let fingerprint = |d: &Json| {
            d.at(&["host", "fingerprint"])
                .and_then(Json::as_str)
                .map(String::from)
        };
        comparable &= gateable(a) && gateable(b) && fingerprint(a) == fingerprint(b);
        let value =
            |d: &Json, metric: &str| d.at(&["metrics", metric, "value"]).and_then(Json::as_f64);
        let mut push = |metric: &str, x: f64, y: f64, bound: Option<f64>| {
            let relative = if x == y { 0.0 } else { (y - x).abs() / x.abs() };
            differences.push(Difference {
                workload: name.to_string(),
                metric: metric.to_string(),
                first: x,
                second: y,
                relative,
                bound,
                violated: relative > bound.unwrap_or(0.0),
            });
        };
        for def in END_TO_END.iter().chain(&PER_LAYER) {
            let bound = match (def.exact, def.bound) {
                (true, _) => None,
                (false, Some(b)) => Some(b),
                (false, None) => continue,
            };
            if let (Some(x), Some(y)) = (value(a, def.name), value(b, def.name)) {
                push(def.name, x, y, bound);
            }
        }
        let failed = |d: &Json| d.get("failed").and_then(Json::as_f64).unwrap_or(f64::NAN);
        push("failed", failed(a), failed(b), None);
    }
    Comparison {
        comparable,
        differences,
    }
}
