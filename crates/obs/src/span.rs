//! Deterministic hierarchical span trees in golden work units.
//!
//! A [`SpanSink`] records *where in the call structure* solver effort
//! went, the way the flat `profile.*` counters record *how much*. Every
//! span is timestamped with the owning [`Registry`]'s
//! [work clock](crate::Registry::work_units) — the running sum of the
//! `profile.*` counters — so a span tree contains **no wall-clock
//! values anywhere**: enter/exit order, timestamps, self and total work
//! are all pure functions of the workload, bit-identical at every
//! `RCS_THREADS` setting. Span trees are therefore part of the golden
//! channel and CI byte-diffs their NDJSON export.
//!
//! # Recording model
//!
//! Spans are an explicit stack, not an RAII guard: `enter(label)` /
//! `exit()` pairs. The open stack is plain data ([`SpanState`]), which
//! is what lets `rcs-kernel`'s `SinkState` seal a *mid-span* checkpoint
//! and restore it into fresh sinks such that
//! `run(k); checkpoint; restore; run(n-k)` reproduces the straight
//! run's tree bitwise.
//!
//! Parallel stages give each item a shard sink (`SpanSink::shard`)
//! whose closed tree is spliced under the live parent in **input
//! order** by `SpanSink::absorb_at`, with shard-local timestamps
//! offset by the absorbing registry's work clock at the splice point —
//! exactly the timestamps serial inline execution would have produced.
//!
//! # Bounded fan-out
//!
//! A hot loop entering the same label thousands of times under one
//! parent would make exports unbounded. Per (parent, label) pair, only
//! the first `fanout` spans (the cap [`SpanSink::with_fanout`] sets)
//! become tree nodes; later same-label siblings are *elided*: their
//! subtree is suppressed and their count and total work fold into the
//! parent's [`elided`](SpanNode::elided) summary, so totals stay exact
//! while files stay bounded.
//!
//! # Stable ids
//!
//! Span ids are assigned at render time as
//! `fnv1a64(parent_id, label, ordinal)` where `ordinal` counts earlier
//! same-label siblings. Ids are stable across runs, thread counts and
//! checkpoint splits — `obs_report attribution diff` matches spans by
//! id.
//!
//! # Examples
//!
//! ```
//! use rcs_obs::{span::SpanSink, Registry};
//!
//! let obs = Registry::new();
//! let spans = SpanSink::new();
//! spans.enter("solve", &obs);
//! obs.work("solver.iterations", 40);
//! spans.enter("rung", &obs);
//! obs.work("solver.iterations", 2);
//! spans.exit(&obs);
//! spans.exit(&obs);
//!
//! let tree = spans.snapshot();
//! let text = rcs_obs::span::render_ndjson(&tree);
//! assert!(text.contains("\"label\":\"solve\""));
//! assert!(text.contains("\"total\":42"));
//! ```

use std::sync::{Mutex, PoisonError};

use crate::manifest::escape_json;
use crate::Registry;

/// Environment variable naming the span export file. A `.json` suffix
/// selects Chrome trace-event JSON (loadable in `chrome://tracing` /
/// Perfetto); anything else gets NDJSON `span` lines.
pub(crate) const SPANS_ENV: &str = "RCS_OBS_SPANS";

/// Default per-(parent, label) fan-out cap before same-label siblings
/// are elided into a summary entry.
pub(crate) const DEFAULT_FANOUT: usize = 16;

/// One elided-sibling summary: same-label spans beyond the fan-out cap
/// fold into `(label, count, work)` on their parent.
pub type Elision = (String, u64, u64);

/// One recorded span node (plain data, cheap to clone).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SpanNode {
    /// Caller-supplied label (the id derives from it; keep it stable).
    pub label: String,
    /// Work clock at enter.
    pub start: u64,
    /// Work clock at exit; `None` while the span is still open.
    pub end: Option<u64>,
    /// Child node indices into [`SpanState::nodes`], in enter order.
    pub children: Vec<usize>,
    /// Elided same-label child summaries, in first-elision order.
    pub elided: Vec<Elision>,
}

impl SpanNode {
    /// Total work covered by this span (`end - start`); an open span
    /// reports the work accumulated so far as zero-width.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.end.unwrap_or(self.start).saturating_sub(self.start)
    }
}

/// One frame of the open-span stack.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum Frame {
    /// An ordinary open span: index into [`SpanState::nodes`].
    Node(usize),
    /// An open span past the fan-out cap: no node was created; on exit
    /// its label/work fold into the parent's elision summary.
    Elided {
        /// The label the capped span was entered with.
        label: String,
        /// Work clock at enter.
        start: u64,
    },
    /// A span nested under an elided (or suppressed) ancestor: fully
    /// invisible, tracked only so enter/exit stays balanced.
    #[default]
    Suppressed,
}

/// The full recorded state of a [`SpanSink`]: closed tree, elision
/// summaries and the open stack. Plain data — `rcs-kernel` serializes
/// it field by field for checkpoints, and [`render_ndjson`] /
/// [`render_chrome`] consume it for export.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SpanState {
    /// Arena of nodes; tree edges are index-based.
    pub nodes: Vec<SpanNode>,
    /// Root node indices in enter order.
    pub roots: Vec<usize>,
    /// Elided root-level summaries.
    pub root_elided: Vec<Elision>,
    /// Open frames, outermost first.
    pub stack: Vec<Frame>,
}

impl SpanState {
    /// `true` when nothing was recorded and nothing is open.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty() && self.root_elided.is_empty() && self.stack.is_empty()
    }
}

/// A deterministic hierarchical span recorder.
///
/// Like [`Registry`] and the trace recorder, a disabled sink
/// ([`SpanSink::disabled`]) pays one branch per call and never touches
/// the heap — the `noalloc` test pins that down.
#[derive(Debug)]
pub struct SpanSink {
    enabled: bool,
    fanout: usize,
    inner: Mutex<SpanState>,
}

/// The shared disabled sink behind [`SpanSink::disabled`].
static DISABLED: SpanSink = SpanSink::empty(false, DEFAULT_FANOUT);

impl Default for SpanSink {
    fn default() -> Self {
        Self::new()
    }
}

impl SpanSink {
    /// Creates an empty, enabled sink with the default fan-out cap.
    #[must_use]
    pub fn new() -> Self {
        Self::with_fanout(DEFAULT_FANOUT)
    }

    /// [`SpanSink::new`] with an explicit per-(parent, label) fan-out
    /// cap.
    ///
    /// # Panics
    ///
    /// Panics if `fanout` is zero.
    #[must_use]
    pub fn with_fanout(fanout: usize) -> Self {
        assert!(fanout > 0, "span fanout cap must be positive");
        Self::empty(true, fanout)
    }

    /// A sink with nothing recorded.
    const fn empty(enabled: bool, fanout: usize) -> Self {
        Self {
            enabled,
            fanout,
            inner: Mutex::new(SpanState {
                nodes: Vec::new(),
                roots: Vec::new(),
                root_elided: Vec::new(),
                stack: Vec::new(),
            }),
        }
    }

    /// The shared no-op sink: every call returns after one branch.
    #[must_use]
    pub fn disabled() -> &'static SpanSink {
        &DISABLED
    }

    /// Enabled iff `SPANS_ENV` names a non-empty export path.
    #[must_use]
    pub fn from_env() -> Self {
        match std::env::var(SPANS_ENV) {
            Ok(path) if !path.is_empty() => Self::new(),
            _ => Self::empty(false, DEFAULT_FANOUT),
        }
    }

    /// `true` unless this is (or mirrors) the disabled sink.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// An empty sink sharing this sink's enablement and fan-out cap —
    /// the per-item recorder parallel stages hand each task.
    #[must_use]
    pub(crate) fn shard(&self) -> SpanSink {
        Self::empty(self.enabled, self.fanout)
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, SpanState> {
        // A poisoned lock only means a recording thread panicked; every
        // update leaves the state consistent, so keep recording.
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Counts existing same-label children (nodes plus elided) of the
    /// frame currently on top of `state`'s stack (or of the root set).
    fn same_label_children(state: &SpanState, label: &str) -> usize {
        let (children, elided) = match state.stack.last() {
            Some(Frame::Node(idx)) => (&state.nodes[*idx].children, &state.nodes[*idx].elided),
            None => (&state.roots, &state.root_elided),
            // enter() never consults siblings under an elided or
            // suppressed frame — it pushes Suppressed before getting
            // here.
            Some(_) => return 0,
        };
        let named = children
            .iter()
            .filter(|&&c| state.nodes[c].label == label)
            .count();
        let folded: u64 = elided
            .iter()
            .filter(|(l, _, _)| l == label)
            .map(|(_, n, _)| *n)
            .sum();
        #[allow(clippy::cast_possible_truncation)]
        {
            named + folded as usize
        }
    }

    /// Opens a span labelled `label`, timestamped with `obs`'s work
    /// clock. Same-label siblings beyond the fan-out cap are elided
    /// (their subtree is suppressed and folds into the parent's elision
    /// summary on exit).
    pub fn enter(&self, label: &str, obs: &Registry) {
        if !self.enabled {
            return;
        }
        let now = obs.work_units();
        let mut state = self.lock();
        if let Some(Frame::Elided { .. } | Frame::Suppressed) = state.stack.last() {
            state.stack.push(Frame::Suppressed);
            return;
        }
        if Self::same_label_children(&state, label) >= self.fanout {
            state.stack.push(Frame::Elided {
                label: label.to_owned(),
                start: now,
            });
            return;
        }
        let idx = state.nodes.len();
        state.nodes.push(SpanNode {
            label: label.to_owned(),
            start: now,
            end: None,
            children: Vec::new(),
            elided: Vec::new(),
        });
        match state.stack.last() {
            Some(Frame::Node(parent)) => {
                let parent = *parent;
                state.nodes[parent].children.push(idx);
            }
            None => state.roots.push(idx),
            Some(_) => unreachable!("elided/suppressed parents handled above"),
        }
        state.stack.push(Frame::Node(idx));
    }

    /// Closes the innermost open span, timestamped with `obs`'s work
    /// clock. An exit with no open span is a no-op (the disabled-sink
    /// contract makes unbalanced call sites harmless either way).
    pub fn exit(&self, obs: &Registry) {
        if !self.enabled {
            return;
        }
        let now = obs.work_units();
        let mut state = self.lock();
        match state.stack.pop() {
            Some(Frame::Node(idx)) => state.nodes[idx].end = Some(now),
            Some(Frame::Elided { label, start }) => {
                Self::fold_elided(&mut state, &label, 1, now.saturating_sub(start));
            }
            Some(Frame::Suppressed) | None => {}
        }
    }

    /// Captures the full recorded state — closed tree, elisions and the
    /// open stack.
    #[must_use]
    pub fn snapshot(&self) -> SpanState {
        self.lock().clone()
    }

    /// Replaces this sink's state wholesale — the checkpoint/restore
    /// path. Restoring into a disabled sink is a silent no-op
    /// (mirroring the trace recorder's contract).
    pub fn restore(&self, state: &SpanState) {
        if !self.enabled {
            return;
        }
        *self.lock() = state.clone();
    }

    /// Splices a shard's closed span tree under the currently open span
    /// (or the root set), offsetting every shard-local timestamp by
    /// `base` — the absorbing registry's work clock just before the
    /// shard's counter snapshot was absorbed. Called once per item in
    /// **input order**, this reproduces the timestamps and the fan-out
    /// elision decisions serial inline execution would have made.
    ///
    /// Shard roots still open in `state` are closed at their own start
    /// (zero-width); the parallel maps always close them first.
    pub(crate) fn absorb_at(&self, base: u64, state: &SpanState) {
        if !self.enabled || state.is_empty() {
            return;
        }
        let mut live = self.lock();
        let roots: Vec<usize> = state.roots.clone();
        for root in roots {
            Self::splice(&mut live, self.fanout, base, state, root);
        }
        for (label, count, work) in &state.root_elided {
            Self::fold_elided(&mut live, label, *count, *work);
        }
    }

    /// Folds `count` elided `label` spans carrying `work` into the
    /// elision summary of the open span on top of `state`'s stack (or of
    /// the root set).
    fn fold_elided(state: &mut SpanState, label: &str, count: u64, work: u64) {
        let target = match state.stack.last() {
            Some(Frame::Node(parent)) => {
                let parent = *parent;
                &mut state.nodes[parent].elided
            }
            _ => &mut state.root_elided,
        };
        match target.iter_mut().find(|(l, _, _)| l == label) {
            Some(entry) => {
                entry.1 += count;
                entry.2 += work;
            }
            None => target.push((label.to_owned(), count, work)),
        }
    }

    /// Splices shard subtree `root` under the live parent, applying the
    /// fan-out cap against the live parent exactly as a serial `enter`
    /// of the same label would.
    fn splice(live: &mut SpanState, fanout: usize, base: u64, shard: &SpanState, root: usize) {
        let node = &shard.nodes[root];
        if Self::same_label_children(live, &node.label) >= fanout {
            // Serial execution would have elided this whole subtree.
            Self::fold_elided(live, &node.label, 1, node.total());
            return;
        }
        let idx = Self::copy_subtree(live, base, shard, root);
        match live.stack.last() {
            Some(Frame::Node(parent)) => {
                let parent = *parent;
                live.nodes[parent].children.push(idx);
            }
            _ => live.roots.push(idx),
        }
    }

    /// Deep-copies shard subtree `root` into `live.nodes` with
    /// timestamps offset by `base`; returns the new root index.
    fn copy_subtree(live: &mut SpanState, base: u64, shard: &SpanState, root: usize) -> usize {
        let node = &shard.nodes[root];
        let idx = live.nodes.len();
        live.nodes.push(SpanNode {
            label: node.label.clone(),
            start: base + node.start,
            end: Some(base + node.end.unwrap_or(node.start)),
            children: Vec::new(),
            elided: node
                .elided
                .iter()
                .map(|(l, n, w)| (l.clone(), *n, *w))
                .collect(),
        });
        let children: Vec<usize> = node.children.clone();
        for child in children {
            let c = Self::copy_subtree(live, base, shard, child);
            live.nodes[idx].children.push(c);
        }
        idx
    }
}

/// 64-bit FNV-1a over `bytes`, continuing from `seed` (the span-id
/// hash; implemented here so the crate stays dependency-free).
#[must_use]
fn fnv1a64(seed: u64, bytes: &[u8]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut hash = seed;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(PRIME);
    }
    hash
}

/// FNV-1a offset basis — the virtual root's id seed.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Computes the stable id of a span: `fnv1a64` over the parent's id,
/// the label bytes and the ordinal (count of earlier same-label
/// siblings). Roots use the FNV offset basis as the parent id.
#[must_use]
pub(crate) fn span_id(parent_id: u64, label: &str, ordinal: u64) -> u64 {
    let mut h = fnv1a64(parent_id ^ FNV_OFFSET, label.as_bytes());
    h = fnv1a64(h, &ordinal.to_le_bytes());
    h
}

/// One flattened, id-assigned span row (pre-order DFS output of
/// [`flatten`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct FlatSpan {
    /// Stable id (see [`span_id`]).
    pub id: u64,
    /// Parent's stable id; `None` for roots.
    pub parent: Option<u64>,
    /// Span label.
    pub label: String,
    /// Tree depth (roots are 0).
    pub depth: usize,
    /// Work clock at enter.
    pub start: u64,
    /// Work clock at exit (open spans close at their start).
    pub end: u64,
    /// `end - start`.
    pub total: u64,
    /// `total` minus child totals and elided work.
    pub self_work: u64,
    /// Elided same-label child summaries.
    pub elided: Vec<Elision>,
}

fn flatten_into(
    out: &mut Vec<FlatSpan>,
    state: &SpanState,
    idx: usize,
    parent: Option<u64>,
    parent_id: u64,
    ordinal: u64,
    depth: usize,
) {
    let node = &state.nodes[idx];
    let id = span_id(parent_id, &node.label, ordinal);
    let child_work: u64 = node
        .children
        .iter()
        .map(|&c| state.nodes[c].total())
        .sum::<u64>()
        + node.elided.iter().map(|(_, _, w)| *w).sum::<u64>();
    let total = node.total();
    out.push(FlatSpan {
        id,
        parent,
        label: node.label.clone(),
        depth,
        start: node.start,
        end: node.end.unwrap_or(node.start),
        total,
        self_work: total.saturating_sub(child_work),
        elided: node.elided.clone(),
    });
    let mut seen: Vec<(&str, u64)> = Vec::new();
    for &child in &node.children {
        let label = state.nodes[child].label.as_str();
        let ord = match seen.iter_mut().find(|(l, _)| *l == label) {
            Some(entry) => {
                entry.1 += 1;
                entry.1
            }
            None => {
                seen.push((label, 0));
                0
            }
        };
        flatten_into(out, state, child, Some(id), id, ord, depth + 1);
    }
}

/// Flattens a span state into id-assigned rows in pre-order DFS (the
/// export order). Open spans — a mid-run snapshot — close at their own
/// start so the flattening is total; export paths only run on balanced
/// trees.
#[must_use]
pub(crate) fn flatten(state: &SpanState) -> Vec<FlatSpan> {
    let mut out = Vec::with_capacity(state.nodes.len());
    let mut seen: Vec<(&str, u64)> = Vec::new();
    for &root in &state.roots {
        let label = state.nodes[root].label.as_str();
        let ord = match seen.iter_mut().find(|(l, _)| *l == label) {
            Some(entry) => {
                entry.1 += 1;
                entry.1
            }
            None => {
                seen.push((label, 0));
                0
            }
        };
        flatten_into(&mut out, state, root, None, FNV_OFFSET, ord, 0);
    }
    out
}

/// Renders a span state as NDJSON: one `{"type":"span",...}` line per
/// node in pre-order, followed by the node's
/// `{"type":"span_elided",...}` summaries. All values are golden work
/// units; `obs_report` ingests these lines and older parsers skip them.
#[must_use]
pub fn render_ndjson(state: &SpanState) -> String {
    let mut out = String::new();
    for span in flatten(state) {
        let parent = span
            .parent
            .map_or_else(|| "null".to_owned(), |p| format!("\"{p:016x}\""));
        out.push_str(&format!(
            "{{\"type\":\"span\",\"id\":\"{:016x}\",\"parent\":{},\"label\":\"{}\",\"depth\":{},\"start\":{},\"end\":{},\"self\":{},\"total\":{}}}\n",
            span.id,
            parent,
            escape_json(&span.label),
            span.depth,
            span.start,
            span.end,
            span.self_work,
            span.total,
        ));
        for (label, count, work) in &span.elided {
            out.push_str(&format!(
                "{{\"type\":\"span_elided\",\"parent\":\"{:016x}\",\"label\":\"{}\",\"count\":{},\"work\":{}}}\n",
                span.id,
                escape_json(label),
                count,
                work,
            ));
        }
    }
    for (label, count, work) in &state.root_elided {
        out.push_str(&format!(
            "{{\"type\":\"span_elided\",\"parent\":null,\"label\":\"{}\",\"count\":{},\"work\":{}}}\n",
            escape_json(label),
            count,
            work,
        ));
    }
    out
}

/// Renders a span state as one complete Chrome trace-event JSON
/// document (the `chrome://tracing` / Perfetto format). Every event is
/// a complete (`"ph":"X"`) event whose `ts`/`dur` are **golden work
/// units**, not microseconds — the flamegraph's time axis is
/// deterministic work, and no wall-clock value appears anywhere in the
/// file.
#[must_use]
pub fn render_chrome(state: &SpanState) -> String {
    let mut events = Vec::new();
    for span in flatten(state) {
        events.push(format!(
            "{{\"name\":\"{}\",\"cat\":\"span\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":1,\"tid\":1,\"args\":{{\"id\":\"{:016x}\",\"self\":{}}}}}",
            escape_json(&span.label),
            span.start,
            span.total,
            span.id,
            span.self_work,
        ));
    }
    format!(
        "{{\"traceEvents\":[{}],\"displayTimeUnit\":\"ms\",\"otherData\":{{\"clock\":\"work-units\"}}}}\n",
        events.join(",")
    )
}

/// Exports `state` to the file named by `SPANS_ENV` (appending; a
/// `.json` path gets one complete Chrome trace-event document per
/// emit, anything else NDJSON `span` lines). Without the variable this
/// is a no-op — span export never lands on stdout, which the
/// determinism jobs byte-diff.
pub fn emit(state: &SpanState) {
    let Ok(path) = std::env::var(SPANS_ENV) else {
        return;
    };
    if path.is_empty() {
        return;
    }
    let rendered = if path.ends_with(".json") {
        render_chrome(state)
    } else {
        render_ndjson(state)
    };
    let result = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
        .and_then(|mut f| {
            use std::io::Write as _;
            f.write_all(rendered.as_bytes())
        });
    if let Err(e) = result {
        eprintln!("warning: failed to export spans to {path}: {e}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn work(obs: &Registry, units: u64) {
        obs.work("test.units", units);
    }

    #[test]
    fn records_a_nested_tree_with_exact_self_and_total_work() {
        let obs = Registry::new();
        let spans = SpanSink::new();
        spans.enter("outer", &obs);
        work(&obs, 5);
        spans.enter("inner", &obs);
        work(&obs, 7);
        spans.exit(&obs);
        work(&obs, 3);
        spans.exit(&obs);

        let flat = flatten(&spans.snapshot());
        assert_eq!(flat.len(), 2);
        assert_eq!(flat[0].label, "outer");
        assert_eq!(flat[0].total, 15);
        assert_eq!(flat[0].self_work, 8);
        assert_eq!(flat[0].depth, 0);
        assert_eq!(flat[1].label, "inner");
        assert_eq!(flat[1].total, 7);
        assert_eq!(flat[1].self_work, 7);
        assert_eq!(flat[1].parent, Some(flat[0].id));
    }

    #[test]
    fn work_clock_sums_profile_counters_only() {
        let obs = Registry::new();
        assert_eq!(obs.work_units(), 0);
        obs.inc("some.counter");
        assert_eq!(obs.work_units(), 0);
        obs.work("a.b", 11);
        obs.work("c", 4);
        assert_eq!(obs.work_units(), 15);
        assert_eq!(Registry::disabled().work_units(), 0);
    }

    #[test]
    fn absorbing_a_snapshot_advances_the_work_clock() {
        let shard = Registry::new();
        shard.work("x", 9);
        let obs = Registry::new();
        obs.work("y", 1);
        obs.absorb(&shard.snapshot());
        assert_eq!(obs.work_units(), 10);
    }

    #[test]
    fn fanout_cap_elides_excess_siblings_but_keeps_totals_exact() {
        let obs = Registry::new();
        let spans = SpanSink::with_fanout(2);
        spans.enter("parent", &obs);
        for _ in 0..5 {
            spans.enter("hot", &obs);
            work(&obs, 10);
            // nested spans under an elided frame are suppressed
            spans.enter("nested", &obs);
            spans.exit(&obs);
            spans.exit(&obs);
        }
        spans.exit(&obs);

        let state = spans.snapshot();
        let flat = flatten(&state);
        // parent + 2 kept "hot" + their 2 "nested" children
        assert_eq!(flat.len(), 5);
        let parent = &flat[0];
        assert_eq!(parent.total, 50);
        assert_eq!(parent.elided, vec![("hot".to_owned(), 3, 30)]);
        // kept + elided work covers everything: self work is zero
        assert_eq!(parent.self_work, 0);
    }

    #[test]
    fn ids_are_stable_and_distinguish_same_label_siblings() {
        let build = || {
            let obs = Registry::new();
            let spans = SpanSink::new();
            spans.enter("root", &obs);
            for _ in 0..2 {
                spans.enter("rung", &obs);
                work(&obs, 1);
                spans.exit(&obs);
            }
            spans.exit(&obs);
            flatten(&spans.snapshot())
        };
        let a = build();
        let b = build();
        assert_eq!(a, b);
        assert_ne!(a[1].id, a[2].id, "ordinal must separate same labels");
    }

    #[test]
    fn disabled_sink_ignores_everything() {
        let obs = Registry::new();
        let spans = SpanSink::disabled();
        spans.enter("x", &obs);
        spans.exit(&obs);
        assert!(spans.snapshot().is_empty());
        assert!(!spans.is_enabled());
        assert!(!spans.shard().is_enabled());
    }

    #[test]
    fn absorb_matches_serial_inline_execution() {
        // Serial: two items recorded inline under one open batch span.
        let serial_obs = Registry::new();
        let serial = SpanSink::new();
        serial.enter("batch", &serial_obs);
        for i in 0..2u64 {
            serial.enter(&format!("item.{i}"), &serial_obs);
            serial_obs.work("item", 3 + i);
            serial.enter("sub", &serial_obs);
            serial_obs.work("sub", 2);
            serial.exit(&serial_obs);
            serial.exit(&serial_obs);
        }
        serial.exit(&serial_obs);

        // Sharded: same work in per-item sinks, absorbed in order.
        let obs = Registry::new();
        let spans = SpanSink::new();
        spans.enter("batch", &obs);
        let mut shards = Vec::new();
        for i in 0..2u64 {
            let shard_obs = Registry::new();
            let shard = spans.shard();
            shard.enter(&format!("item.{i}"), &shard_obs);
            shard_obs.work("item", 3 + i);
            shard.enter("sub", &shard_obs);
            shard_obs.work("sub", 2);
            shard.exit(&shard_obs);
            shard.exit(&shard_obs);
            shards.push((shard_obs.snapshot(), shard.snapshot()));
        }
        for (snap, sspan) in shards {
            let base = obs.work_units();
            obs.absorb(&snap);
            spans.absorb_at(base, &sspan);
        }
        spans.exit(&obs);

        assert_eq!(
            render_ndjson(&serial.snapshot()),
            render_ndjson(&spans.snapshot())
        );
    }

    #[test]
    fn absorb_applies_the_fanout_cap_against_the_live_parent() {
        let obs = Registry::new();
        let spans = SpanSink::with_fanout(2);
        spans.enter("batch", &obs);
        for _ in 0..4 {
            let shard_obs = Registry::new();
            let shard = spans.shard();
            shard.enter("item", &shard_obs);
            shard_obs.work("w", 5);
            shard.exit(&shard_obs);
            let base = obs.work_units();
            obs.absorb(&shard_obs.snapshot());
            spans.absorb_at(base, &shard.snapshot());
        }
        spans.exit(&obs);
        let flat = flatten(&spans.snapshot());
        assert_eq!(flat.len(), 3, "2 kept under the cap: {flat:?}");
        assert_eq!(flat[0].elided, vec![("item".to_owned(), 2, 10)]);
        assert_eq!(flat[0].total, 20);
    }

    #[test]
    fn restore_reproduces_an_open_stack() {
        let obs = Registry::new();
        let spans = SpanSink::new();
        spans.enter("session", &obs);
        work(&obs, 4);
        let state = spans.snapshot();
        assert_eq!(state.stack.len(), 1);

        // Fresh sinks: counters re-absorbed, span state restored, the
        // still-open span then closes on the restored tree.
        let fresh_obs = Registry::new();
        fresh_obs.absorb(&obs.snapshot());
        let fresh = SpanSink::new();
        fresh.restore(&state);
        work(&fresh_obs, 6);
        fresh.exit(&fresh_obs);

        let flat = flatten(&fresh.snapshot());
        assert_eq!(flat.len(), 1);
        assert_eq!(flat[0].total, 10);
    }

    #[test]
    fn ndjson_escapes_labels_and_chrome_export_is_valid_json() {
        let obs = Registry::new();
        let spans = SpanSink::new();
        spans.enter("weird \"label\",\nwith newline", &obs);
        work(&obs, 2);
        spans.exit(&obs);
        let state = spans.snapshot();

        let ndjson = render_ndjson(&state);
        assert!(ndjson.contains("weird \\\"label\\\",\\nwith newline"));
        for line in ndjson.lines() {
            crate::report::parse_json(line).expect("every NDJSON line parses");
        }

        let chrome = render_chrome(&state);
        let doc = crate::report::parse_json(chrome.trim()).expect("chrome doc parses");
        assert!(doc.get("traceEvents").is_some());
    }

    #[test]
    fn unbalanced_exit_is_a_noop() {
        let obs = Registry::new();
        let spans = SpanSink::new();
        spans.exit(&obs);
        assert!(spans.snapshot().is_empty());
    }
}
