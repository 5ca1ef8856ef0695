//! Timeline export: [`TraceEvent`] streams → Chrome `trace_event` JSON.
//!
//! The [`trace`](crate::trace) ring records *what the hierarchy did*,
//! event by event, with simulated-cycle timestamps. This module renders
//! those events (plus optional host-side stage spans, e.g. the
//! simulator's self-profile) as a Chrome `trace_event` document — the
//! JSON Object Format understood by `ui.perfetto.dev` and
//! `chrome://tracing` — so a G-Cache switch-on cascade can be *seen*
//! scrolling across components instead of only counted.
//!
//! Mapping:
//!
//! * **time** — one simulated cycle renders as one microsecond (`ts` is
//!   in µs in the trace_event format), so the Perfetto time axis reads
//!   directly as cycles with the `µ` ignored;
//! * **tracks** — one thread ("track") per emitting component instance
//!   ([`TraceSource`]: every L1, L1.5, L2 bank and DRAM channel), named
//!   via thread-name metadata events, grouped under one process per
//!   simulation;
//! * **events** — every trace kind becomes a thread-scoped *instant*
//!   event (`"ph":"i"`, `"s":"t"`) carrying its payload in `args`;
//!   G-Cache switch flips are named `switch open` / `switch close` so
//!   they stand out when queried;
//! * **host spans** — optional per-stage wall-clock totals (ns) are laid
//!   end-to-end as *complete* events (`"ph":"X"`) on their own track,
//!   giving the host-time budget a visual footprint next to the
//!   simulated timeline.
//!
//! The builder supports multiple processes so one document can hold
//! several benchmarks' timelines side by side (the `--trace-out` flag of
//! the experiment binaries does exactly that, one process per selected
//! benchmark).

use crate::json::JsonWriter;
use crate::trace::{TraceArg, TraceEvent, TraceLevel, TraceSource};

/// The stable thread id of a component track within its process: levels
/// are spaced far apart so tracks sort by hierarchy level first, then by
/// instance index.
fn track_id(src: TraceSource) -> u32 {
    let base = match src.level {
        TraceLevel::L1 => 1_000,
        TraceLevel::L15 => 2_000,
        TraceLevel::L2 => 3_000,
        TraceLevel::Dram => 4_000,
    };
    base + u32::from(src.index)
}

/// Incrementally builds one Chrome `trace_event` JSON document.
#[derive(Debug, Default)]
pub struct ChromeTraceBuilder {
    /// Rendered event objects, in emission order.
    entries: Vec<String>,
    /// `otherData` members (stable order).
    other: Vec<(String, String)>,
}

impl ChromeTraceBuilder {
    /// Starts an empty document.
    pub fn new() -> Self {
        ChromeTraceBuilder::default()
    }

    /// Appends one event object: `name` and `ph`, then whatever `rest`
    /// writes (`ts`, `pid`, `tid`, `args`, …).
    fn entry(&mut self, name: &str, phase: &str, rest: impl FnOnce(&mut JsonWriter)) {
        let mut w = JsonWriter::new();
        w.begin_obj().key("name").str(name).key("ph").str(phase);
        rest(&mut w);
        w.end_obj();
        self.entries.push(w.finish());
    }

    /// Appends one naming record (`"ph":"M"`): process or thread `name`.
    fn name_record(&mut self, record: &str, pid: u32, tid: u32, name: &str) {
        self.entry(record, "M", |w| {
            w.key("pid").num(pid).key("tid").num(tid);
            w.key("args").begin_obj().key("name").str(name).end_obj();
        });
    }

    /// Names process `pid` (a Perfetto process groups that simulation's
    /// tracks under this label).
    pub fn add_process(&mut self, pid: u32, name: &str) {
        self.name_record("process_name", pid, 0, name);
    }

    /// Renders `events` into process `pid`: one thread-name metadata
    /// record per distinct [`TraceSource`] plus one instant event per
    /// trace event (cycle → µs), named and argued as
    /// [`TraceKind::describe`](crate::trace::TraceKind::describe) says.
    /// Returns the number of *instant* events emitted (metadata excluded).
    pub fn add_sim_events(&mut self, pid: u32, events: &[TraceEvent]) -> usize {
        let mut named: Vec<TraceSource> = Vec::new();
        for ev in events {
            let tid = track_id(ev.src);
            if !named.contains(&ev.src) {
                named.push(ev.src);
                self.name_record("thread_name", pid, tid, &ev.src.to_string());
                self.entry("thread_sort_index", "M", |w| {
                    w.key("pid").num(pid).key("tid").num(tid);
                    w.key("args")
                        .begin_obj()
                        .key("sort_index")
                        .num(tid)
                        .end_obj();
                });
            }
            let (name, args) = ev.kind.describe();
            self.entry(name, "i", |w| {
                w.key("ts").num(ev.time).key("pid").num(pid);
                w.key("tid").num(tid).key("s").str("t");
                w.key("args").begin_obj();
                for (key, arg) in args {
                    match arg {
                        TraceArg::Flag(b) => w.key(key).bool(b),
                        TraceArg::Num(n) => w.key(key).num(n),
                        TraceArg::Line(_) | TraceArg::Word(_) => w.key(key).str(&arg.to_string()),
                    };
                }
                w.end_obj();
            });
        }
        events.len()
    }

    /// Lays host-side stage totals (`(stage, nanoseconds)`) end-to-end as
    /// complete events on track `tid` of process `pid`, converting ns to
    /// the µs timebase. Use a dedicated pid so host wall-clock is never
    /// confused with simulated time.
    pub fn add_host_stages(&mut self, pid: u32, name: &str, stages: &[(&str, u64)]) {
        self.add_process(pid, name);
        self.name_record("thread_name", pid, 1, "host stages");
        let mut at_ns: u64 = 0;
        for (stage, ns) in stages {
            self.entry(stage, "X", |w| {
                w.key("ts").fixed(at_ns as f64 / 1e3, 3);
                w.key("dur").fixed((*ns).max(1) as f64 / 1e3, 3);
                w.key("pid").num(pid).key("tid").num(1);
                w.key("args").begin_obj().key("ns").num(ns).end_obj();
            });
            at_ns += ns;
        }
    }

    /// Attaches one `otherData` string member (e.g. provenance notes,
    /// such as how many events the ring dropped — so a truncated timeline
    /// is never mistaken for a complete one).
    pub fn note(&mut self, key: &str, value: &str) {
        self.other.push((key.to_string(), value.to_string()));
    }

    /// Renders the finished document, one event per line.
    pub fn finish(self) -> String {
        let mut w = JsonWriter::new();
        w.begin_obj().key("traceEvents").begin_arr().space("\n");
        w.raw(&self.entries.join(",\n")).space("\n").end_arr();
        w.key("displayTimeUnit").str("ms");
        w.key("otherData").begin_obj();
        for (k, v) in &self.other {
            w.key(k).str(v);
        }
        w.end_obj().end_obj().space("\n");
        w.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::trace::tests::one_of_each_kind;

    #[test]
    fn track_ids_are_stable_and_disjoint_per_level() {
        assert_eq!(track_id(TraceSource::new(TraceLevel::L1, 0)), 1000);
        assert_eq!(track_id(TraceSource::new(TraceLevel::L15, 2)), 2002);
        assert_eq!(track_id(TraceSource::new(TraceLevel::L2, 5)), 3005);
        assert_eq!(track_id(TraceSource::new(TraceLevel::Dram, 1)), 4001);
    }

    #[test]
    fn multi_process_documents_keep_benchmarks_apart() {
        let events = one_of_each_kind();
        let mut b = ChromeTraceBuilder::new();
        b.add_process(1, "BFS");
        b.add_sim_events(1, &events[..3]);
        b.add_process(2, "SPMV");
        b.add_sim_events(2, &events[..1]);
        let j = Json::parse(&b.finish()).expect("valid JSON");
        let te = j.get("traceEvents").unwrap().as_arr().unwrap();
        let pids: Vec<f64> = te
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("i"))
            .map(|e| e.get("pid").unwrap().as_f64().unwrap())
            .collect();
        assert_eq!(pids, [1.0, 1.0, 1.0, 2.0]);
    }

    #[test]
    fn every_kind_renders_valid_json() {
        // Byte pin (captured at the parent of the describe-once fold):
        // every instant, the process/thread metadata, host spans and
        // notes, with names that need escaping.
        let mut b = ChromeTraceBuilder::new();
        b.add_process(1, "B\"FS");
        assert_eq!(b.add_sim_events(1, &one_of_each_kind()), 16);
        b.add_host_stages(
            1_000_001,
            "host: B\"FS",
            &[("core", 1500), ("ic\\nt", 2501), ("idle", 0)],
        );
        b.note("events", "16");
        b.note("no\"te", "a\\b");
        let doc = b.finish();
        Json::parse(&doc).expect("valid JSON");
        assert_eq!(
            doc,
            r#"{"traceEvents":[
{"name":"process_name","ph":"M","pid":1,"tid":0,"args":{"name":"B\"FS"}},
{"name":"thread_name","ph":"M","pid":1,"tid":1003,"args":{"name":"L1#3"}},
{"name":"thread_sort_index","ph":"M","pid":1,"tid":1003,"args":{"sort_index":1003}},
{"name":"ld miss","ph":"i","ts":5,"pid":1,"tid":1003,"s":"t","args":{"line":"0x1234","core":3,"victim_hint":false}},
{"name":"thread_name","ph":"M","pid":1,"tid":3000,"args":{"name":"L2#0"}},
{"name":"thread_sort_index","ph":"M","pid":1,"tid":3000,"args":{"sort_index":3000}},
{"name":"st hit","ph":"i","ts":15,"pid":1,"tid":3000,"s":"t","args":{"line":"0x1234","core":3,"victim_hint":true}},
{"name":"atomic miss","ph":"i","ts":25,"pid":1,"tid":3000,"s":"t","args":{"line":"0x1234","core":1,"victim_hint":false}},
{"name":"thread_name","ph":"M","pid":1,"tid":2001,"args":{"name":"L1.5#1"}},
{"name":"thread_sort_index","ph":"M","pid":1,"tid":2001,"args":{"sort_index":2001}},
{"name":"copy-back hit","ph":"i","ts":35,"pid":1,"tid":2001,"s":"t","args":{"line":"0x1234","core":1,"victim_hint":false}},
{"name":"fill insert","ph":"i","ts":45,"pid":1,"tid":1003,"s":"t","args":{"line":"0x1234","core":1,"victim_hint":true,"set":2,"way":3,"depth":1}},
{"name":"fill bypass","ph":"i","ts":55,"pid":1,"tid":1003,"s":"t","args":{"line":"0x1234","core":1,"victim_hint":false,"set":2}},
{"name":"clean copy-back","ph":"i","ts":65,"pid":1,"tid":2001,"s":"t","args":{"line":"0x1234","set":9,"reuse":4}},
{"name":"switch open","ph":"i","ts":75,"pid":1,"tid":1003,"s":"t","args":{"set":5,"open":true}},
{"name":"switch close","ph":"i","ts":85,"pid":1,"tid":1003,"s":"t","args":{"set":5,"open":false}},
{"name":"epoch reset","ph":"i","ts":95,"pid":1,"tid":1003,"s":"t","args":{"open_switches":12}},
{"name":"mshr alloc","ph":"i","ts":105,"pid":1,"tid":1003,"s":"t","args":{"line":"0x1234","occupancy":7}},
{"name":"mshr merge","ph":"i","ts":115,"pid":1,"tid":3000,"s":"t","args":{"line":"0x1234","occupancy":8}},
{"name":"mshr release","ph":"i","ts":125,"pid":1,"tid":3000,"s":"t","args":{"line":"0x1234","targets":2}},
{"name":"thread_name","ph":"M","pid":1,"tid":4002,"args":{"name":"DRAM#2"}},
{"name":"thread_sort_index","ph":"M","pid":1,"tid":4002,"args":{"sort_index":4002}},
{"name":"dram rd","ph":"i","ts":135,"pid":1,"tid":4002,"s":"t","args":{"bank":1,"row":77,"row_buffer":"hit"}},
{"name":"dram wr","ph":"i","ts":145,"pid":1,"tid":4002,"s":"t","args":{"bank":2,"row":78,"row_buffer":"open"}},
{"name":"dram rd","ph":"i","ts":155,"pid":1,"tid":4002,"s":"t","args":{"bank":3,"row":79,"row_buffer":"conflict"}},
{"name":"process_name","ph":"M","pid":1000001,"tid":0,"args":{"name":"host: B\"FS"}},
{"name":"thread_name","ph":"M","pid":1000001,"tid":1,"args":{"name":"host stages"}},
{"name":"core","ph":"X","ts":0.000,"dur":1.500,"pid":1000001,"tid":1,"args":{"ns":1500}},
{"name":"ic\\nt","ph":"X","ts":1.500,"dur":2.501,"pid":1000001,"tid":1,"args":{"ns":2501}},
{"name":"idle","ph":"X","ts":4.001,"dur":0.001,"pid":1000001,"tid":1,"args":{"ns":0}}
],"displayTimeUnit":"ms","otherData":{"events":"16","no\"te":"a\\b"}}
"#
        );
        assert_eq!(
            ChromeTraceBuilder::new().finish(),
            "{\"traceEvents\":[\n\n],\"displayTimeUnit\":\"ms\",\"otherData\":{}}\n"
        );
    }
}
