//! Deterministic telemetry for the `rcs-sim` workspace.
//!
//! Every quantitative figure in this reproduction is a pure function of
//! a `u64` seed at any `RCS_THREADS` setting — and a solver can still
//! silently drift to a different damping rung or iteration count while
//! its *outputs* stay inside golden tolerances. This crate makes the
//! solvers' behaviour itself testable by splitting telemetry into two
//! channels with different contracts:
//!
//! - the **golden channel** — monotonic [`Registry::add`] counters and
//!   fixed-bucket [`Registry::record_histogram`] histograms of integer
//!   observations (iteration counts, damping-rung indices, rejection
//!   counts, residual decades). Everything here must be **bit-identical
//!   at every thread count**: counter merges are integer additions,
//!   which commute, and parallel stages collect per-task snapshots and
//!   [`Registry::absorb`] them in **input order**, so scheduling can
//!   never reorder an observable. [`Registry::snapshot`] captures only
//!   this channel, and the counter-asserting regression tests compare
//!   snapshots directly.
//! - the **non-golden channel** — scheduling-dependent
//!   [`Registry::note`] gauges (worker counts, per-worker task tallies).
//!   These appear in the run manifest for operators but are excluded
//!   from [`Snapshot`] equality and from the CI counter diff, because
//!   they legitimately vary run to run.
//!
//! Every instrumented entry point in the workspace takes one [`Sinks`]
//! bundle — the counter [`Registry`], the [`trace::TraceRecorder`] and
//! the [`span::SpanSink`] — instead of a separate parameter per
//! channel. [`Sinks::disabled`] is the no-op bundle, and
//! [`Sinks::shard`] / [`Sinks::absorb`] split and re-merge all three
//! channels for one parallel work item.
//!
//! The [`manifest`] module renders a registry into the NDJSON run
//! manifest every experiment binary emits (seed, thread count, model
//! version, counter snapshot).
//!
//! # Examples
//!
//! ```
//! use rcs_obs::Registry;
//!
//! let obs = Registry::new();
//! obs.inc("solver.calls");
//! obs.record_histogram("solver.iterations", &[5, 10, 50], 7);
//! obs.note("solver.workers", 4); // non-golden: not in the snapshot
//!
//! let snap = obs.snapshot();
//! assert_eq!(snap.counter("solver.calls"), 1);
//! assert_eq!(snap.counter("solver.workers"), 0);
//! assert_eq!(snap.histogram("solver.iterations").unwrap().counts, [0, 1, 0, 0]);
//! ```

#![warn(missing_docs)]
// Resilience gate: a telemetry sink must never take the lazy panic path
// (a poisoned lock or a foreign id is recovered from, not unwrapped).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

pub mod manifest;
pub mod profile;
pub mod report;
pub mod span;
pub mod trace;

/// Aggregated state behind the registry mutex. `BTreeMap` keeps every
/// iteration (snapshots, manifests) in sorted name order, so rendered
/// telemetry never depends on insertion order.
#[derive(Debug)]
struct Inner {
    /// Golden: monotonic counters.
    counters: BTreeMap<String, u64>,
    /// Golden: fixed-bucket histograms.
    histograms: BTreeMap<String, HistogramSnapshot>,
    /// Golden: fixed-edge float histograms.
    fhistograms: BTreeMap<String, FHistogramSnapshot>,
    /// Non-golden: scheduling-dependent gauges.
    notes: BTreeMap<String, u64>,
}

/// What a registry keeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// Nothing: [`Registry::disabled`].
    Disabled,
    /// The work clock only: the shard [`Sinks::shard`] hands out when
    /// the caller's counters are off.
    Clock,
    /// Everything: [`Registry::new`].
    Live,
}

/// A deterministic telemetry sink.
///
/// `Registry` is `Sync`: concurrent workers may record into one shared
/// registry directly (golden merges are commutative integer additions),
/// or stages may give each task its own registry and [`absorb`] the
/// snapshots in input order — the contract the parallel layer uses.
///
/// A registry is live ([`Registry::new`]), disabled
/// ([`Registry::disabled`]), or **clock-only**. A clock-only registry is
/// what [`Sinks::shard`] hands a parallel item when the caller's
/// counters are off: it keeps just the [`work_units`] clock (so
/// per-item work budgets and span timestamps still read the item's
/// work), bumped by every `profile.*` [`add`] and by [`work`] without
/// building a counter name. Its histograms and notes are no-ops, its
/// [`snapshot`] is empty, and it still reports [`is_enabled`].
///
/// [`absorb`]: Registry::absorb
/// [`work_units`]: Registry::work_units
/// [`add`]: Registry::add
/// [`work`]: Registry::work
/// [`snapshot`]: Registry::snapshot
/// [`is_enabled`]: Registry::is_enabled
#[derive(Debug)]
pub struct Registry {
    mode: Mode,
    /// Golden: running sum of every `profile.*` counter ever recorded
    /// or absorbed — the deterministic work clock behind
    /// [`Registry::work_units`]. Redundant with the counters themselves
    /// but O(1) to read, which the span sink does on every enter/exit.
    work_units: AtomicU64,
    inner: Mutex<Inner>,
}

impl Default for Registry {
    fn default() -> Self {
        Self::new()
    }
}

/// The shared disabled sink behind [`Registry::disabled`].
static DISABLED: Registry = Registry::with_mode(Mode::Disabled);

impl Registry {
    const fn with_mode(mode: Mode) -> Self {
        Self {
            mode,
            work_units: AtomicU64::new(0),
            inner: Mutex::new(Inner {
                counters: BTreeMap::new(),
                histograms: BTreeMap::new(),
                fhistograms: BTreeMap::new(),
                notes: BTreeMap::new(),
            }),
        }
    }

    /// Creates an empty, enabled registry.
    #[must_use]
    pub fn new() -> Self {
        Self::with_mode(Mode::Live)
    }

    /// The shared no-op sink: every record call returns immediately, so
    /// un-observed entry points (`solve`, `run`, …) pay one
    /// branch and nothing else.
    #[must_use]
    pub fn disabled() -> &'static Registry {
        &DISABLED
    }

    /// `true` unless this is the [`Registry::disabled`] sink (a
    /// clock-only shard counts as enabled: it keeps the work clock).
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.mode != Mode::Disabled
    }

    /// `true` only for a registry that keeps every channel, not just the
    /// work clock.
    fn is_live(&self) -> bool {
        self.mode == Mode::Live
    }

    /// Advances the work clock by `units`. The clock publishes no other
    /// data, so `Relaxed` suffices: concurrent adds still sum exactly.
    fn tick(&self, units: u64) {
        self.work_units.fetch_add(units, Ordering::Relaxed);
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        // A poisoned lock only means a recording thread panicked between
        // lock and unlock; every update is a single map write, so the
        // state is still consistent.
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Adds `n` to the golden counter `name` (creating it at zero).
    pub fn add(&self, name: &str, n: u64) {
        match self.mode {
            Mode::Disabled => return,
            Mode::Clock => {}
            Mode::Live => update(&mut self.lock().counters, name, || 0, |c| *c += n),
        }
        if name.starts_with(profile::PREFIX) {
            self.tick(n);
        }
    }

    /// The deterministic work clock: the sum of every `profile.*`
    /// counter recorded into (or absorbed by) this registry so far.
    /// Work units are pure functions of the workload — never wall clock
    /// — so two runs of the same workload read identical clocks at
    /// every `RCS_THREADS`. The disabled sink always reads 0.
    #[must_use]
    pub fn work_units(&self) -> u64 {
        self.work_units.load(Ordering::Relaxed)
    }

    /// Increments the golden counter `name` by one.
    pub fn inc(&self, name: &str) {
        self.add(name, 1);
    }

    /// Records one observation into the fixed-bucket histogram `name`.
    ///
    /// `bounds` are inclusive upper bucket bounds in ascending order; an
    /// observation lands in the first bucket whose bound it does not
    /// exceed, or in the implicit overflow bucket past the last bound
    /// (so the histogram has `bounds.len() + 1` counts). The bounds are
    /// part of the histogram's identity: they are fixed at first use and
    /// every later call must pass the same slice.
    ///
    /// # Panics
    ///
    /// Panics if `bounds` is empty or not strictly ascending, or if the
    /// histogram was first recorded with different bounds.
    pub fn record_histogram(&self, name: &str, bounds: &[u64], value: u64) {
        if !self.is_live() {
            return;
        }
        assert!(!bounds.is_empty(), "histogram {name} needs buckets");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram {name} bounds must be strictly ascending"
        );
        let bucket = bounds
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(bounds.len());
        let new = || HistogramSnapshot {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
        };
        update(&mut self.lock().histograms, name, new, |hist| {
            assert_eq!(
                hist.bounds, bounds,
                "histogram {name} re-recorded with different bounds"
            );
            hist.counts[bucket] += 1;
        });
    }

    /// Records one float observation into the fixed-edge histogram
    /// `name`, hardened against degenerate inputs: every float —
    /// including zero, negative values, `±inf` and `NaN` — lands in a
    /// bucket and nothing panics on a value.
    ///
    /// `edges` are finite, strictly ascending bucket edges. The
    /// histogram has `edges.len() + 1` counts with **explicit
    /// underflow and overflow buckets**: `counts[0]` holds values below
    /// `edges[0]` (including `-inf`), `counts[i]` holds
    /// `edges[i-1] <= v < edges[i]`, and the last bucket holds values
    /// at or above the final edge (including `+inf`). `NaN` counts as
    /// divergence and lands in the overflow bucket. Like
    /// [`Registry::record_histogram`], the edges are fixed at first use
    /// (compared bitwise).
    ///
    /// # Panics
    ///
    /// Panics if `edges` is empty, non-finite, or not strictly
    /// ascending, or if the histogram was first recorded with different
    /// edges — edge sets are compile-time constants, never data.
    pub fn record_histogram_f64(&self, name: &str, edges: &[f64], value: f64) {
        if !self.is_live() {
            return;
        }
        assert!(!edges.is_empty(), "float histogram {name} needs edges");
        assert!(
            edges.iter().all(|e| e.is_finite()),
            "float histogram {name} edges must be finite"
        );
        assert!(
            edges.windows(2).all(|w| w[0] < w[1]),
            "float histogram {name} edges must be strictly ascending"
        );
        let bucket = if value.is_nan() {
            edges.len() // divergence: explicit overflow bucket
        } else {
            edges.partition_point(|&e| e <= value)
        };
        let new = || FHistogramSnapshot {
            edges: edges.to_vec(),
            counts: vec![0; edges.len() + 1],
        };
        update(&mut self.lock().fhistograms, name, new, |hist| {
            assert!(
                hist.edges.len() == edges.len()
                    && hist
                        .edges
                        .iter()
                        .zip(edges)
                        .all(|(a, b)| a.to_bits() == b.to_bits()),
                "float histogram {name} re-recorded with different edges"
            );
            hist.counts[bucket] += 1;
        });
    }

    /// Adds `n` to the **non-golden** gauge `name` — for values that
    /// legitimately depend on scheduling or the machine (worker counts,
    /// per-worker task tallies). Notes appear in the manifest but never
    /// in [`Registry::snapshot`].
    pub fn note(&self, name: &str, n: u64) {
        if !self.is_live() {
            return;
        }
        update(&mut self.lock().notes, name, || 0, |v| *v += n);
    }

    /// Captures the golden channel: all counters and histograms, in
    /// sorted name order. Two runs of the same seeded workload must
    /// produce `==` snapshots at any thread count.
    #[must_use]
    pub fn snapshot(&self) -> Snapshot {
        let inner = self.lock();
        Snapshot {
            counters: inner
                .counters
                .iter()
                .map(|(k, &v)| (k.clone(), v))
                .collect(),
            histograms: inner
                .histograms
                .iter()
                .map(|(k, v)| (k.clone(), v.clone()))
                .collect(),
            fhistograms: inner
                .fhistograms
                .iter()
                .map(|(k, v)| (k.clone(), v.clone()))
                .collect(),
        }
    }

    /// Captures the non-golden note gauges, in sorted name order.
    #[must_use]
    pub fn notes(&self) -> Vec<(String, u64)> {
        self.lock()
            .notes
            .iter()
            .map(|(k, &v)| (k.clone(), v))
            .collect()
    }

    /// Merges a golden snapshot into this registry: counters add,
    /// histogram bucket counts add (bounds must match).
    ///
    /// Parallel stages use this as the shard-merge step: each task
    /// records into its own registry, the pool returns the per-task
    /// snapshots **in input order**, and the caller absorbs them in that
    /// fixed order — so the merged registry is independent of which
    /// worker ran what when.
    ///
    /// A clock-only registry absorbs just the snapshot's `profile.*`
    /// work into its clock.
    ///
    /// # Panics
    ///
    /// Panics if a histogram name collides with different bounds.
    pub fn absorb(&self, snapshot: &Snapshot) {
        if self.mode == Mode::Disabled {
            return;
        }
        let work = snapshot
            .counters
            .iter()
            .filter(|(name, _)| name.starts_with(profile::PREFIX))
            .map(|(_, v)| v)
            .sum();
        self.tick(work);
        if !self.is_live() {
            return;
        }
        let mut inner = self.lock();
        for (name, v) in &snapshot.counters {
            update(&mut inner.counters, name, || 0, |c| *c += v);
        }
        for (name, hist) in &snapshot.histograms {
            let new = || HistogramSnapshot {
                bounds: hist.bounds.clone(),
                counts: vec![0; hist.counts.len()],
            };
            update(&mut inner.histograms, name, new, |target| {
                assert_eq!(
                    target.bounds, hist.bounds,
                    "histogram {name} absorbed with different bounds"
                );
                for (t, s) in target.counts.iter_mut().zip(&hist.counts) {
                    *t += s;
                }
            });
        }
        for (name, hist) in &snapshot.fhistograms {
            let new = || FHistogramSnapshot {
                edges: hist.edges.clone(),
                counts: vec![0; hist.counts.len()],
            };
            update(&mut inner.fhistograms, name, new, |target| {
                assert!(
                    target.edges.len() == hist.edges.len()
                        && target
                            .edges
                            .iter()
                            .zip(&hist.edges)
                            .all(|(a, b)| a.to_bits() == b.to_bits()),
                    "float histogram {name} absorbed with different edges"
                );
                for (t, s) in target.counts.iter_mut().zip(&hist.counts) {
                    *t += s;
                }
            });
        }
    }
}

/// Applies `f` to the value under `key`, first inserting `new()` when
/// the key is absent. A key already in the map is found by `&str`, so
/// recording into a warm name allocates nothing.
fn update<V>(
    map: &mut BTreeMap<String, V>,
    key: &str,
    new: impl FnOnce() -> V,
    f: impl FnOnce(&mut V),
) {
    match map.get_mut(key) {
        Some(value) => f(value),
        None => f(map.entry(key.to_owned()).or_insert_with(new)),
    }
}

/// The three telemetry sinks of one run, passed around as one value:
/// golden counters, bounded trace channels and the work-unit span
/// tree. Every instrumented entry point in the workspace takes a
/// `Sinks`, so a call site chooses which channels are live by what it
/// puts in the bundle, never by which function it calls.
///
/// The bundle is `Copy` (three shared references). Narrow it with
/// struct-update syntax when a nested call must not see a channel,
/// e.g. `Sinks { spans: SpanSink::disabled(), ..sinks }`.
///
/// # Examples
///
/// ```
/// use rcs_obs::{span::SpanSink, trace::TraceRecorder, Registry, Sinks};
///
/// let (obs, trace, spans) = (Registry::new(), TraceRecorder::new(), SpanSink::new());
/// let sinks = Sinks { obs: &obs, trace: &trace, spans: &spans };
/// let shard = sinks.shard();
/// shard.sinks().spans.enter("item", shard.sinks().obs);
/// shard.sinks().obs.work("solver.iterations", 3);
/// shard.sinks().spans.exit(shard.sinks().obs);
/// sinks.absorb("item 0", &shard);
/// assert_eq!(obs.work_units(), 3);
/// assert_eq!(spans.snapshot().nodes[0].total(), 3);
/// assert!(Sinks::counters(&obs).obs.is_enabled());
/// assert!(!Sinks::disabled().trace.is_enabled());
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Sinks<'a> {
    /// Golden counters, histograms and the work clock.
    pub obs: &'a Registry,
    /// Bounded, deterministically decimated sample channels.
    pub trace: &'a trace::TraceRecorder,
    /// Hierarchical span tree stamped in work units.
    pub spans: &'a span::SpanSink,
}

impl Sinks<'static> {
    /// All three channels off: every record call returns after one
    /// branch and nothing touches the heap.
    #[must_use]
    pub fn disabled() -> Self {
        Self {
            obs: Registry::disabled(),
            trace: trace::TraceRecorder::disabled(),
            spans: span::SpanSink::disabled(),
        }
    }
}

impl<'a> Sinks<'a> {
    /// Counters only: `obs` live, trace and spans disabled.
    #[must_use]
    pub fn counters(obs: &'a Registry) -> Self {
        Self {
            obs,
            ..Sinks::disabled()
        }
    }

    /// Empty per-item sinks for one parallel work item: trace and span
    /// shards that mirror this bundle's enablement, and a registry that
    /// is never disabled, because per-item work budgets and the shard's
    /// span timestamps read its work clock. Under live counters the
    /// shard registry is live too; when this bundle's counters are
    /// disabled or themselves clock-only, it is a private **clock-only**
    /// registry (see [`Registry`]), which keeps only
    /// [`Registry::work_units`] — no lock, map update or name formatting
    /// per record call, and nothing to snapshot at merge time.
    #[must_use]
    pub fn shard(&self) -> Shard {
        let mode = if self.obs.is_live() {
            Mode::Live
        } else {
            Mode::Clock
        };
        Shard {
            obs: Registry::with_mode(mode),
            trace: self.trace.shard(),
            spans: self.spans.shard(),
        }
    }

    /// Merges one finished shard into these sinks — the only place the
    /// three channels are re-merged. Counters are absorbed (a clock-only
    /// target adds just the shard's work clock, so nested shards still
    /// charge their parent item), trace channels are appended under the
    /// prefix `label` (empty = merged unprefixed), and the shard's span
    /// tree is spliced under the currently open span with its
    /// timestamps offset by the work clock read just before the counters
    /// were absorbed. Called once per item in **input order**, this
    /// reproduces exactly what serial inline execution would have
    /// recorded.
    pub fn absorb(&self, label: &str, shard: &Shard) {
        // Snapshots are built only for live targets: with disabled sinks a
        // parallel map pays nothing for the merge.
        let base = self.obs.work_units();
        match self.obs.mode {
            Mode::Disabled => {}
            Mode::Clock => self.obs.tick(shard.obs.work_units()),
            Mode::Live => self.obs.absorb(&shard.obs.snapshot()),
        }
        if self.trace.is_enabled() {
            self.trace.absorb_prefixed(label, &shard.trace.snapshot());
        }
        if self.spans.is_enabled() {
            self.spans.absorb_at(base, &shard.spans.snapshot());
        }
    }
}

/// The owned per-item sinks handed out by [`Sinks::shard`] and merged
/// back by [`Sinks::absorb`].
#[derive(Debug)]
pub struct Shard {
    obs: Registry,
    trace: trace::TraceRecorder,
    spans: span::SpanSink,
}

impl Shard {
    /// The shard as a [`Sinks`] bundle to record into.
    #[must_use]
    pub fn sinks(&self) -> Sinks<'_> {
        Sinks {
            obs: &self.obs,
            trace: &self.trace,
            spans: &self.spans,
        }
    }
}

/// One histogram's state: inclusive upper bucket bounds plus counts
/// (one extra overflow bucket past the last bound).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Inclusive upper bucket bounds, ascending.
    pub bounds: Vec<u64>,
    /// Per-bucket observation counts; `counts.len() == bounds.len() + 1`.
    pub counts: Vec<u64>,
}

impl HistogramSnapshot {
    /// Total observations across all buckets.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }
}

/// One float histogram's state: finite, strictly ascending bucket
/// edges plus counts with explicit underflow (`counts[0]`) and
/// overflow (`counts[edges.len()]`) buckets — see
/// [`Registry::record_histogram_f64`].
///
/// Equality compares edges **bitwise** (`f64::to_bits`): edges are
/// compile-time constants, so bitwise equality is exact and keeps
/// [`Snapshot`] `Eq`.
#[derive(Debug, Clone)]
pub struct FHistogramSnapshot {
    /// Finite bucket edges, strictly ascending.
    pub edges: Vec<f64>,
    /// Per-bucket counts; `counts.len() == edges.len() + 1`.
    pub counts: Vec<u64>,
}

impl PartialEq for FHistogramSnapshot {
    fn eq(&self, other: &Self) -> bool {
        self.counts == other.counts
            && self.edges.len() == other.edges.len()
            && self
                .edges
                .iter()
                .zip(&other.edges)
                .all(|(a, b)| a.to_bits() == b.to_bits())
    }
}

impl Eq for FHistogramSnapshot {}

impl FHistogramSnapshot {
    /// Total observations across all buckets.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// The explicit underflow bucket (`value < edges[0]`, incl. `-inf`).
    #[must_use]
    pub fn underflow(&self) -> u64 {
        self.counts[0]
    }

    /// The explicit overflow bucket (`value >= last edge`, incl. `+inf`
    /// and `NaN`).
    #[must_use]
    pub fn overflow(&self) -> u64 {
        self.counts.last().copied().unwrap_or(0)
    }
}

/// A captured golden channel: the thing the regression tests compare
/// and the manifest serializes. Entries are in sorted name order.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Snapshot {
    /// `(name, value)` counters.
    pub counters: Vec<(String, u64)>,
    /// `(name, histogram)` pairs.
    pub histograms: Vec<(String, HistogramSnapshot)>,
    /// `(name, float histogram)` pairs.
    pub fhistograms: Vec<(String, FHistogramSnapshot)>,
}

impl Snapshot {
    /// The value of counter `name`, zero if it was never touched.
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(k, _)| k == name)
            .map_or(0, |(_, v)| *v)
    }

    /// The histogram `name`, if any observation was recorded.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, h)| h)
    }

    /// The float histogram `name`, if any observation was recorded.
    #[must_use]
    pub fn fhistogram(&self, name: &str) -> Option<&FHistogramSnapshot> {
        self.fhistograms
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, h)| h)
    }

    /// `true` if nothing was recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.histograms.is_empty() && self.fhistograms.is_empty()
    }
}

/// The decade of a solver residual as a histogram-ready integer:
/// `residual_decade(r)` is `floor(-log10(r))` clamped into `[0, 16]`
/// (so `1e-9 → 9`). An exactly-zero or negative residual means
/// "converged past every bucket" and maps to 16; an infinite or NaN
/// residual means divergence and maps to 0, the worst bucket.
/// Residuals are deterministic floats, so their decade is a
/// deterministic integer: the golden channel can summarize a residual
/// trajectory without ever storing a float.
#[must_use]
pub fn residual_decade(residual: f64) -> u64 {
    if residual.is_nan() || residual.is_infinite() {
        return 0;
    }
    if residual <= 0.0 {
        return 16;
    }
    // the epsilon absorbs log10 rounding at exact powers of ten
    // (-log10(1e-9) can land a hair below 9.0); it is the same constant
    // on every run, so the bucketing stays deterministic
    let decade = -residual.log10() + 1e-9;
    if decade < 0.0 {
        0
    } else {
        #[allow(clippy::cast_sign_loss, clippy::cast_possible_truncation)]
        let d = decade.floor() as u64;
        d.min(16)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_snapshot_sorted() {
        let obs = Registry::new();
        obs.inc("z.last");
        obs.add("a.first", 3);
        obs.inc("a.first");
        let snap = obs.snapshot();
        assert_eq!(
            snap.counters,
            vec![("a.first".to_owned(), 4), ("z.last".to_owned(), 1)]
        );
        assert_eq!(snap.counter("a.first"), 4);
        assert_eq!(snap.counter("never"), 0);
    }

    #[test]
    fn histogram_buckets_are_inclusive_upper_bounds_with_overflow() {
        let obs = Registry::new();
        for v in [0, 5, 6, 50, 51, 1000] {
            obs.record_histogram("h", &[5, 50], v);
        }
        let snap = obs.snapshot();
        let h = snap.histogram("h").unwrap();
        assert_eq!(h.bounds, vec![5, 50]);
        assert_eq!(h.counts, vec![2, 2, 2]);
        assert_eq!(h.total(), 6);
    }

    #[test]
    #[should_panic(expected = "different bounds")]
    fn histogram_bounds_are_fixed_at_first_use() {
        let obs = Registry::new();
        obs.record_histogram("h", &[5, 50], 1);
        obs.record_histogram("h", &[5, 51], 1);
    }

    #[test]
    fn disabled_registry_records_nothing() {
        let obs = Registry::disabled();
        obs.inc("c");
        obs.record_histogram("h", &[1], 0);
        obs.record_histogram_f64("fh", &[1.0], 0.5);
        obs.note("n", 1);
        obs.work("phase.step", 3);
        assert!(!obs.is_enabled());
        assert!(obs.snapshot().is_empty());
        assert!(obs.notes().is_empty());
    }

    #[test]
    fn f64_histogram_has_explicit_underflow_and_overflow_buckets() {
        let obs = Registry::new();
        let edges = [1e-9, 1e-6, 1e-3];
        // underflow: below the first edge, incl. zero, negatives, -inf
        for v in [0.0, -5.0, 1e-12, f64::NEG_INFINITY] {
            obs.record_histogram_f64("resid", &edges, v);
        }
        // interior buckets: [1e-9, 1e-6) and [1e-6, 1e-3)
        obs.record_histogram_f64("resid", &edges, 1e-9);
        obs.record_histogram_f64("resid", &edges, 5e-7);
        obs.record_histogram_f64("resid", &edges, 1e-4);
        // overflow: at/above the last edge, incl. +inf and NaN
        for v in [1e-3, 7.0, f64::INFINITY, f64::NAN] {
            obs.record_histogram_f64("resid", &edges, v);
        }
        let snap = obs.snapshot();
        let h = snap.fhistogram("resid").expect("recorded");
        // 3 edges → 4 buckets: underflow, [1e-9,1e-6), [1e-6,1e-3), overflow
        assert_eq!(h.counts, vec![4, 2, 1, 4]);
        assert_eq!(h.underflow(), 4);
        assert_eq!(h.overflow(), 4);
        assert_eq!(h.total(), 11);
    }

    #[test]
    #[should_panic(expected = "different edges")]
    fn f64_histogram_edges_are_fixed_at_first_use() {
        let obs = Registry::new();
        obs.record_histogram_f64("fh", &[1.0, 2.0], 0.5);
        obs.record_histogram_f64("fh", &[1.0, 3.0], 0.5);
    }

    #[test]
    #[should_panic(expected = "must be finite")]
    fn f64_histogram_rejects_non_finite_edges() {
        let obs = Registry::new();
        obs.record_histogram_f64("fh", &[1.0, f64::INFINITY], 0.5);
    }

    #[test]
    fn f64_histograms_absorb_additively() {
        let edges = [0.5];
        let shard_a = Registry::new();
        shard_a.record_histogram_f64("fh", &edges, 0.1);
        let shard_b = Registry::new();
        shard_b.record_histogram_f64("fh", &edges, 0.9);
        let total = Registry::new();
        total.absorb(&shard_a.snapshot());
        total.absorb(&shard_b.snapshot());
        let snap = total.snapshot();
        assert_eq!(snap.fhistogram("fh").unwrap().counts, vec![1, 1]);
        assert!(!snap.is_empty());
    }

    #[test]
    fn notes_stay_out_of_the_golden_snapshot() {
        let obs = Registry::new();
        obs.note("workers", 7);
        assert!(obs.snapshot().is_empty());
        assert_eq!(obs.notes(), vec![("workers".to_owned(), 7)]);
    }

    #[test]
    fn absorb_merges_counters_and_histograms_additively() {
        let shard_a = Registry::new();
        shard_a.add("c", 2);
        shard_a.record_histogram("h", &[10], 3);
        let shard_b = Registry::new();
        shard_b.add("c", 5);
        shard_b.record_histogram("h", &[10], 30);

        let total = Registry::new();
        total.absorb(&shard_a.snapshot());
        total.absorb(&shard_b.snapshot());
        let snap = total.snapshot();
        assert_eq!(snap.counter("c"), 7);
        assert_eq!(snap.histogram("h").unwrap().counts, vec![1, 1]);

        // merge order cannot matter: integer additions commute
        let reversed = Registry::new();
        reversed.absorb(&shard_b.snapshot());
        reversed.absorb(&shard_a.snapshot());
        assert_eq!(reversed.snapshot(), snap);
    }

    #[test]
    fn concurrent_recording_is_deterministic() {
        let obs = Registry::new();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..1000 {
                        obs.inc("hits");
                        obs.record_histogram("vals", &[10], 5);
                    }
                });
            }
        });
        let snap = obs.snapshot();
        assert_eq!(snap.counter("hits"), 4000);
        assert_eq!(snap.histogram("vals").unwrap().counts, vec![4000, 0]);
    }

    #[test]
    fn clock_only_shards_keep_the_work_clock_and_charge_their_parent() {
        let item = Sinks::disabled().shard();
        let chunk = item.sinks().shard();
        chunk.sinks().obs.work("mc.trials", 64);
        chunk.sinks().obs.add("profile.mc.events", 3);
        chunk.sinks().obs.inc("mc.runs"); // not work: the clock ignores it
        assert_eq!(chunk.sinks().obs.work_units(), 67);
        item.sinks().obs.work("immersion.iterations", 10);
        item.sinks().absorb("", &chunk);
        assert_eq!(item.sinks().obs.work_units(), 77);
        assert!(item.sinks().obs.snapshot().is_empty());
        // a clock-only registry absorbs just a snapshot's profile work
        let live = Registry::new();
        live.work("a", 5);
        live.inc("b");
        item.sinks().obs.absorb(&live.snapshot());
        assert_eq!(item.sinks().obs.work_units(), 82);
        // the disabled bundle itself stays untouched
        Sinks::disabled().absorb("", &item);
        assert_eq!(Registry::disabled().work_units(), 0);
        // live callers keep live shards
        let obs = Registry::new();
        let shard = Sinks::counters(&obs).shard();
        shard.sinks().obs.work("a", 4);
        shard.sinks().obs.inc("b");
        Sinks::counters(&obs).absorb("", &shard);
        assert_eq!(obs.snapshot().counter("b"), 1);
        assert_eq!(obs.work_units(), 4);
    }

    #[test]
    fn residual_decades() {
        assert_eq!(residual_decade(1e-9), 9);
        assert_eq!(residual_decade(0.5), 0);
        assert_eq!(residual_decade(2.0), 0);
        assert_eq!(residual_decade(1e-30), 16);
        assert_eq!(residual_decade(0.0), 16);
        assert_eq!(residual_decade(f64::NAN), 0);
        assert_eq!(residual_decade(f64::NEG_INFINITY), 0);
        assert_eq!(residual_decade(-1.0), 16);
        assert_eq!(residual_decade(f64::INFINITY), 0);
    }
}
