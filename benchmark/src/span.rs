//! In-memory spans for the traced pass.
//!
//! One span per boundary the harness crosses — `workload` > `rep` >
//! `point` > {`kernel_build`, `gpu_new`, `run_kernel`} and
//! `driver.<module>` — each with name, start, end and parent, plus the
//! counts taken at that boundary. Spans are recorded from the benchmark's
//! own files only, kept in memory, and written once at exit as Chrome
//! `trace_event` JSON.

use gcache_core::json::escape;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span; times are nanoseconds since the tracer started.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Boundary name (`point`, `run_kernel`, `driver.dram`, ...).
    pub name: String,
    /// Start time.
    pub start_ns: u64,
    /// End time (equal to `start_ns` while the span is open).
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Counts taken at this boundary (`cycles`, `instructions`, ...).
    pub counts: Vec<(String, f64)>,
}

/// Total and self time of every span sharing one name.
#[derive(Clone, Debug, PartialEq)]
pub struct SelfTime {
    /// Span name.
    pub name: String,
    /// Spans with that name.
    pub count: usize,
    /// Summed durations.
    pub total_ns: u64,
    /// Summed durations minus the part of each their children cover.
    pub self_ns: u64,
}

/// Records nested spans on one thread.
#[derive(Debug)]
pub struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty tracer; time zero is now.
    pub fn new() -> Self {
        Tracer {
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Builds a tracer from already-timed spans (tests).
    pub fn from_spans(spans: Vec<Span>) -> Self {
        Tracer {
            t0: Instant::now(),
            spans,
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, child of the innermost open
    /// span; `f` gets the tracer back for nested spans.
    pub fn span<R>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let start = self.now_ns();
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: start,
            end_ns: start,
            parent: self.open.last().copied(),
            counts: Vec::new(),
        });
        self.open.push(id);
        let r = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        r
    }

    /// Attaches a count to the innermost open span.
    pub fn count(&mut self, key: &str, value: f64) {
        if let Some(&id) = self.open.last() {
            self.spans[id].counts.push((key.to_string(), value));
        }
    }

    /// The recorded spans, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per-name totals. A span's self time is its duration minus the part
    /// of that interval its direct children cover — the union of the
    /// children clipped to the parent, so overlapping children are not
    /// subtracted twice.
    pub fn self_times(&self) -> Vec<SelfTime> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                let parent = &self.spans[p];
                let lo = s.start_ns.max(parent.start_ns);
                let hi = s.end_ns.min(parent.end_ns);
                if hi > lo {
                    children[p].push((lo, hi));
                }
            }
        }
        let mut out: Vec<SelfTime> = Vec::new();
        for (s, kids) in self.spans.iter().zip(&mut children) {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = 0;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            let total = s.end_ns - s.start_ns;
            let entry = match out.iter_mut().find(|e| e.name == s.name) {
                Some(e) => e,
                None => {
                    out.push(SelfTime {
                        name: s.name.clone(),
                        count: 0,
                        total_ns: 0,
                        self_ns: 0,
                    });
                    out.last_mut().expect("just pushed")
                }
            };
            entry.count += 1;
            entry.total_ns += total;
            entry.self_ns += total - covered;
        }
        out
    }

    /// The spans as a Chrome `trace_event` document, all under process
    /// `pid` named after the workload. Each event carries its own index
    /// and its parent's, the workload id and its counts in `args`.
    pub fn chrome_trace(&self, pid: u32, workload: &str) -> String {
        let mut events = vec![format!(
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"args\":{{\"name\":\"{}\"}}}}",
            escape(workload)
        )];
        for (id, s) in self.spans.iter().enumerate() {
            let mut event = format!(
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":{pid},\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{id},\"parent\":{},\"workload\":\"{}\"",
                escape(&s.name),
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                escape(workload)
            );
            for (k, v) in &s.counts {
                let _ = write!(event, ",\"{}\":{v}", escape(k));
            }
            event.push_str("}}");
            events.push(event);
        }
        chrome_document(&events)
    }
}

const CHROME_HEAD: &str = "{\"traceEvents\":[\n";
const CHROME_TAIL: &str = "\n],\"displayTimeUnit\":\"ms\"}\n";

/// A Chrome `trace_event` document of `events`, one per line.
fn chrome_document(events: &[String]) -> String {
    format!("{CHROME_HEAD}{}{CHROME_TAIL}", events.join(",\n"))
}

/// One document holding the events of several written by
/// [`Tracer::chrome_trace`] (each with its own `pid`); `None` if one of
/// them is not such a document.
pub fn merge_chrome_traces(documents: &[String]) -> Option<String> {
    let mut events = Vec::new();
    for doc in documents {
        let body = doc.strip_prefix(CHROME_HEAD)?.strip_suffix(CHROME_TAIL)?;
        events.extend(body.split(",\n").map(String::from));
    }
    Some(chrome_document(&events))
}
