//! Benchmark-side wall-clock spans: name, start, end, parent and op id,
//! kept in memory during the traced run and written out once at the end
//! as NDJSON and as a Chrome trace.

use std::cell::Cell;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One closed span. Times are nanoseconds since the recorder's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique id within the recorder (1-based).
    pub id: u64,
    /// Enclosing span, if any.
    pub parent: Option<u64>,
    /// The op this span belongs to; `None` for spans spanning several
    /// ops (a parallel group).
    pub op: Option<u64>,
    /// Layer call, e.g. `rack.solve`.
    pub name: &'static str,
    /// Start, ns since the epoch.
    pub start_ns: u64,
    /// End, ns since the epoch.
    pub end_ns: u64,
    /// Small per-thread number, for the Chrome trace lanes.
    pub tid: u64,
}

static NEXT_TID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static TID: Cell<u64> = const { Cell::new(0) };
}

fn tid() -> u64 {
    TID.with(|t| {
        if t.get() == 0 {
            t.set(NEXT_TID.fetch_add(1, Ordering::Relaxed));
        }
        t.get()
    })
}

/// The in-memory span store. `Sync`, so parallel items record directly.
pub struct Recorder {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    /// An empty recorder whose epoch is now.
    #[must_use]
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Runs `f` inside a span and returns its result and duration. `f`
    /// receives the span's id, to parent nested spans on.
    pub fn time<R>(
        &self,
        name: &'static str,
        op: Option<u64>,
        parent: Option<u64>,
        f: impl FnOnce(u64) -> R,
    ) -> (R, Duration) {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start = Instant::now();
        let result = f(id);
        let end = Instant::now();
        let ns =
            |t: Instant| u64::try_from(t.duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX);
        let span = Span {
            id,
            parent,
            op,
            name,
            start_ns: ns(start),
            end_ns: ns(end),
            tid: tid(),
        };
        self.spans.lock().expect("span store poisoned").push(span);
        (result, end - start)
    }

    /// Every recorded span, ordered by start time.
    #[must_use]
    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self.spans.lock().expect("span store poisoned").clone();
        spans.sort_by_key(|s| (s.start_ns, s.id));
        spans
    }
}

/// [`Recorder::time`] on a traced pass; plain timing (span id 0) on an
/// untraced one.
pub fn time<R>(
    rec: Option<&Recorder>,
    name: &'static str,
    op: Option<u64>,
    parent: Option<u64>,
    f: impl FnOnce(u64) -> R,
) -> (R, Duration) {
    match rec {
        Some(rec) => rec.time(name, op, parent, f),
        None => {
            let start = Instant::now();
            let result = f(0);
            (result, start.elapsed())
        }
    }
}

fn opt(v: Option<u64>) -> String {
    v.map_or_else(|| "null".to_owned(), |v| v.to_string())
}

/// One JSON object per span, one per line.
#[must_use]
pub fn render_ndjson(spans: &[Span]) -> String {
    let mut out = String::new();
    for s in spans {
        let _ = writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"tid\":{}}}",
            s.id,
            opt(s.parent),
            opt(s.op),
            s.name,
            s.start_ns,
            s.end_ns,
            s.tid
        );
    }
    out
}

/// Chrome trace-event JSON (`chrome://tracing`, Perfetto): one complete
/// (`"ph":"X"`) event per span, times in microseconds.
#[must_use]
pub fn render_chrome(spans: &[Span]) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n{{\"name\":\"{}\",\"cat\":\"perfbench\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":{},\"op\":{}}}}}",
            s.name,
            s.tid,
            s.start_ns as f64 / 1e3,
            (s.end_ns - s.start_ns) as f64 / 1e3,
            s.id,
            opt(s.parent),
            opt(s.op)
        );
    }
    out.push_str("\n]}\n");
    out
}
