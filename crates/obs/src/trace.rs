//! Deterministic, bounded time-series traces.
//!
//! A [`TraceRecorder`] captures *trajectories* — the per-scan chip and
//! bath temperatures of a fault drill, the residual of each fallback
//! rung a solver ladder climbs, the node temperatures of a thermal
//! transient — where the golden counters of [`crate::Registry`] capture
//! only totals. Traces sit in the **golden channel**: every sample is a
//! deterministic float produced by seeded physics, so two runs of the
//! same workload must produce `==` [`TraceSnapshot`]s at any
//! `RCS_THREADS` setting. Parallel stages record into per-task shard
//! recorders and [`TraceRecorder::absorb_prefixed`] them in **input
//! order**, exactly like registry snapshots.
//!
//! # Bounded memory, deterministic decimation
//!
//! Every channel keeps at most `capacity` samples. When a push would
//! overflow, the channel *decimates*: it doubles its keep-stride and
//! drops every retained sample whose push index is no longer a stride
//! multiple. Which samples survive is a pure function of the push
//! sequence — never of time or scheduling — so a decimated trace is
//! still golden.
//!
//! # Export
//!
//! [`emit`] writes NDJSON (or CSV, if the target path ends in `.csv`)
//! to the file named by the `RCS_OBS_TRACE` environment variable and
//! does nothing when it is unset — stdout stays byte-exact for the
//! experiment-determinism CI jobs.
//!
//! # Examples
//!
//! ```
//! use rcs_obs::trace::{ChannelKind, TraceRecorder};
//!
//! let trace = TraceRecorder::new();
//! let chip = trace.channel("t_chip", ChannelKind::Temperature);
//! trace.record(chip, 0.0, 45.0);
//! trace.record(chip, 2.0, 45.4);
//! let snap = trace.snapshot();
//! assert_eq!(snap.channel("t_chip").unwrap().samples.len(), 2);
//! ```

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::{Mutex, PoisonError};

/// Environment variable naming the trace export file. Unset (or empty)
/// means "do not export" — the recorder still records, the file is
/// simply never written.
pub const TRACE_ENV: &str = "RCS_OBS_TRACE";

/// Default per-channel sample capacity.
pub const DEFAULT_CAPACITY: usize = 512;

/// What a trace channel measures. The kind is part of the channel's
/// identity: recording a channel under two kinds is a bug and panics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChannelKind {
    /// A temperature, °C.
    Temperature,
    /// A volumetric flow, L/min.
    Flow,
    /// A solver residual (dimension depends on the solver).
    Residual,
    /// An alarm level (count of active alarms, or a severity code).
    Alarm,
    /// A supervisor action code ([`severity rank`]-style ordering).
    ///
    /// [`severity rank`]: ChannelKind::Action
    Action,
    /// Any other dimensionless scalar (utilization, iteration counts…).
    Scalar,
}

impl ChannelKind {
    /// Stable lowercase token used in NDJSON/CSV exports.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Self::Temperature => "temperature",
            Self::Flow => "flow",
            Self::Residual => "residual",
            Self::Alarm => "alarm",
            Self::Action => "action",
            Self::Scalar => "scalar",
        }
    }

    /// Parses the token produced by [`ChannelKind::as_str`].
    #[must_use]
    pub fn parse(token: &str) -> Option<Self> {
        Some(match token {
            "temperature" => Self::Temperature,
            "flow" => Self::Flow,
            "residual" => Self::Residual,
            "alarm" => Self::Alarm,
            "action" => Self::Action,
            "scalar" => Self::Scalar,
            _ => return None,
        })
    }
}

/// Handle to a channel of one [`TraceRecorder`], returned by
/// [`TraceRecorder::channel`]. Cheap to copy; only valid on the
/// recorder that produced it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChannelId(usize);

/// One retained sample: the push index it survived under, the caller's
/// time coordinate, and the value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// 0-based index of this sample in the channel's push sequence.
    pub index: u64,
    /// Caller-supplied time coordinate (seconds, trial index, rung…).
    pub t: f64,
    /// The sampled value.
    pub value: f64,
}

#[derive(Debug)]
struct ChannelState {
    name: String,
    kind: ChannelKind,
    /// Samples are kept when `push index % stride == 0`; doubles on
    /// every decimation.
    stride: u64,
    /// Total pushes ever seen (kept or not).
    pushed: u64,
    samples: Vec<Sample>,
}

#[derive(Debug)]
struct TraceInner {
    channels: Vec<ChannelState>,
    index: BTreeMap<String, usize>,
}

/// A deterministic, bounded multi-channel trace sink.
///
/// `TraceRecorder` is `Sync` the same way [`crate::Registry`] is; the
/// deterministic usage pattern is per-task shard recorders merged in
/// input order via [`TraceRecorder::absorb_prefixed`].
#[derive(Debug)]
pub struct TraceRecorder {
    enabled: bool,
    capacity: usize,
    inner: Mutex<TraceInner>,
}

impl Default for TraceRecorder {
    fn default() -> Self {
        Self::new()
    }
}

/// The shared no-op sink behind [`TraceRecorder::disabled`].
static DISABLED: TraceRecorder = TraceRecorder::empty(false, DEFAULT_CAPACITY);

impl TraceRecorder {
    /// Creates an enabled recorder with [`DEFAULT_CAPACITY`] samples per
    /// channel.
    #[must_use]
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_CAPACITY)
    }

    /// Creates an enabled recorder keeping at most `capacity` samples
    /// per channel.
    ///
    /// # Panics
    ///
    /// Panics if `capacity < 2` (decimation needs room to halve).
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity >= 2, "trace capacity must be at least 2");
        Self::empty(true, capacity)
    }

    /// A recorder with no channels.
    const fn empty(enabled: bool, capacity: usize) -> Self {
        Self {
            enabled,
            capacity,
            inner: Mutex::new(TraceInner {
                channels: Vec::new(),
                index: BTreeMap::new(),
            }),
        }
    }

    /// The shared no-op sink: [`TraceRecorder::record`] returns
    /// immediately, [`TraceRecorder::snapshot`] is empty.
    #[must_use]
    pub fn disabled() -> &'static TraceRecorder {
        &DISABLED
    }

    /// An enabled recorder when the `RCS_OBS_TRACE` export destination
    /// is set (non-empty), otherwise a no-op recorder — the standard
    /// binary entry point: recording costs nothing unless the run asked
    /// for a trace file.
    #[must_use]
    pub fn from_env() -> TraceRecorder {
        match std::env::var(TRACE_ENV) {
            Ok(path) if !path.is_empty() => Self::new(),
            _ => Self::empty(false, DEFAULT_CAPACITY),
        }
    }

    /// An empty recorder with this recorder's capacity and enablement —
    /// the shard constructor the parallel layer uses, so a disabled
    /// parent produces no-op shards.
    #[must_use]
    pub fn shard(&self) -> TraceRecorder {
        Self::empty(self.enabled, self.capacity)
    }

    /// `true` unless this is the [`TraceRecorder::disabled`] sink.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Per-channel sample capacity.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, TraceInner> {
        // A poisoned lock only means a recording thread panicked; every
        // update leaves the state consistent, so keep recording.
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Finds or creates the channel `name` of the given kind.
    ///
    /// # Panics
    ///
    /// Panics if `name` already exists with a different kind.
    #[must_use]
    pub fn channel(&self, name: &str, kind: ChannelKind) -> ChannelId {
        if !self.enabled {
            return ChannelId(usize::MAX);
        }
        let mut inner = self.lock();
        if let Some(&i) = inner.index.get(name) {
            assert_eq!(
                inner.channels[i].kind, kind,
                "trace channel {name} re-opened with a different kind"
            );
            return ChannelId(i);
        }
        let i = inner.channels.len();
        inner.channels.push(ChannelState {
            name: name.to_owned(),
            kind,
            stride: 1,
            pushed: 0,
            samples: Vec::new(),
        });
        inner.index.insert(name.to_owned(), i);
        ChannelId(i)
    }

    /// Pushes one sample into `channel`. Kept or decimated according to
    /// the channel's current stride; a no-op on the disabled sink and
    /// for an id this recorder never handed out.
    pub fn record(&self, channel: ChannelId, t: f64, value: f64) {
        if !self.enabled {
            return;
        }
        let mut inner = self.lock();
        let capacity = self.capacity;
        // An id from another recorder (or from a disabled one) names no
        // channel here: the sample is dropped, never a panic.
        if let Some(c) = inner.channels.get_mut(channel.0) {
            push(c, capacity, t, value);
        }
    }

    /// [`TraceRecorder::channel`] + [`TraceRecorder::record`] in one
    /// call, for sites that record a channel only occasionally.
    pub fn record_named(&self, name: &str, kind: ChannelKind, t: f64, value: f64) {
        if !self.enabled {
            return;
        }
        let id = self.channel(name, kind);
        self.record(id, t, value);
    }

    /// Captures every channel, sorted by name. Two runs of the same
    /// seeded workload must produce `==` snapshots at any thread count.
    #[must_use]
    pub fn snapshot(&self) -> TraceSnapshot {
        let inner = self.lock();
        let mut channels: Vec<ChannelSnapshot> = inner
            .channels
            .iter()
            .map(|c| ChannelSnapshot {
                name: c.name.clone(),
                kind: c.kind,
                stride: c.stride,
                pushed: c.pushed,
                samples: c.samples.clone(),
            })
            .collect();
        channels.sort_by(|a, b| a.name.cmp(&b.name));
        TraceSnapshot { channels }
    }

    /// [`TraceRecorder::absorb_prefixed`] with no prefix.
    pub fn absorb(&self, snapshot: &TraceSnapshot) {
        self.absorb_prefixed("", snapshot);
    }

    /// Replays a shard snapshot into this recorder, channel by channel
    /// in the snapshot's (sorted) order, renaming each channel to
    /// `{prefix}/{name}` when `prefix` is non-empty. Every retained
    /// shard sample is re-pushed through this recorder's own bounded
    /// decimation, so the merge is a pure function of the absorb order —
    /// the parallel layer absorbs shards in **input order** to keep the
    /// merged trace bit-identical at every thread count.
    ///
    /// # Panics
    ///
    /// Panics if a merged channel name already exists with a different
    /// kind.
    pub fn absorb_prefixed(&self, prefix: &str, snapshot: &TraceSnapshot) {
        if !self.enabled {
            return;
        }
        for ch in &snapshot.channels {
            let name = if prefix.is_empty() {
                ch.name.clone()
            } else {
                format!("{prefix}/{}", ch.name)
            };
            let id = self.channel(&name, ch.kind);
            for s in &ch.samples {
                self.record(id, s.t, s.value);
            }
        }
    }

    /// Installs a snapshot **verbatim** — stride, push count and
    /// retained samples copied exactly, with no re-push and therefore no
    /// re-decimation. This is the checkpoint/restore hook of the
    /// simulation kernel: where [`TraceRecorder::absorb`] *replays* a
    /// shard (advancing push counts and possibly re-decimating), a
    /// restore must reproduce the recorder's exact mid-run state so the
    /// resumed run's future pushes decimate identically to an
    /// uninterrupted one.
    ///
    /// Intended for a **fresh recorder of the same capacity** as the one
    /// captured; a channel name that already exists is overwritten in
    /// place (its kind must match). A no-op on the disabled sink.
    ///
    /// # Panics
    ///
    /// Panics if an existing channel name is restored with a different
    /// kind — the same identity rule as [`TraceRecorder::channel`].
    pub fn restore_channels(&self, snapshot: &TraceSnapshot) {
        if !self.enabled {
            return;
        }
        let mut inner = self.lock();
        for ch in &snapshot.channels {
            if let Some(&i) = inner.index.get(&ch.name) {
                assert_eq!(
                    inner.channels[i].kind, ch.kind,
                    "trace channel {} restored with a different kind",
                    ch.name
                );
                inner.channels[i].stride = ch.stride;
                inner.channels[i].pushed = ch.pushed;
                inner.channels[i].samples = ch.samples.clone();
            } else {
                let i = inner.channels.len();
                inner.channels.push(ChannelState {
                    name: ch.name.clone(),
                    kind: ch.kind,
                    stride: ch.stride,
                    pushed: ch.pushed,
                    samples: ch.samples.clone(),
                });
                inner.index.insert(ch.name.clone(), i);
            }
        }
    }
}

/// The bounded push: keep the sample if its index is on-stride, and
/// decimate (double the stride, drop off-stride survivors) when full.
fn push(c: &mut ChannelState, capacity: usize, t: f64, value: f64) {
    let index = c.pushed;
    c.pushed += 1;
    if !index.is_multiple_of(c.stride) {
        return;
    }
    if c.samples.len() >= capacity {
        c.stride = c.stride.saturating_mul(2);
        let stride = c.stride;
        c.samples.retain(|s| s.index.is_multiple_of(stride));
        if !index.is_multiple_of(c.stride) {
            return;
        }
    }
    c.samples.push(Sample { index, t, value });
}

/// One channel's captured state.
#[derive(Debug, Clone, PartialEq)]
pub struct ChannelSnapshot {
    /// Channel name (possibly `{prefix}/{name}` after an absorb).
    pub name: String,
    /// What the channel measures.
    pub kind: ChannelKind,
    /// Keep-stride at capture time (1 = nothing decimated yet).
    pub stride: u64,
    /// Total pushes the channel ever saw.
    pub pushed: u64,
    /// The retained samples, in push order.
    pub samples: Vec<Sample>,
}

/// A captured trace: every channel, sorted by name. Samples are
/// deterministic (and finite) floats, so `==` is the right comparison
/// for the determinism tests.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TraceSnapshot {
    /// Channels sorted by name.
    pub channels: Vec<ChannelSnapshot>,
}

impl TraceSnapshot {
    /// The channel `name`, if it was ever opened.
    #[must_use]
    pub fn channel(&self, name: &str) -> Option<&ChannelSnapshot> {
        self.channels.iter().find(|c| c.name == name)
    }

    /// `true` if no channel was ever opened.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.channels.is_empty()
    }
}

/// Renders a trace snapshot as NDJSON: one
/// `{"type":"trace","name":…,"kind":…,"stride":…,"pushed":…,"samples":[[t,v],…]}`
/// line per channel, in snapshot (sorted-name) order. Non-finite values
/// render as `null` so every line stays valid JSON.
#[must_use]
pub fn render_ndjson(snapshot: &TraceSnapshot) -> String {
    let mut out = String::new();
    for ch in &snapshot.channels {
        let _ = write!(
            out,
            "{{\"type\":\"trace\",\"name\":\"{}\",\"kind\":\"{}\",\"stride\":{},\"pushed\":{},\"samples\":[",
            crate::manifest::escape_json(&ch.name),
            ch.kind.as_str(),
            ch.stride,
            ch.pushed,
        );
        for (i, s) in ch.samples.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "[{},{}]", json_f64(s.t), json_f64(s.value));
        }
        out.push_str("]}\n");
    }
    out
}

/// Renders a trace snapshot as CSV with a `channel,kind,index,t,value`
/// header and one row per retained sample. Channel names containing a
/// comma, double quote, newline, or carriage return are RFC-4180
/// quoted (embedded quotes doubled) — an unquoted embedded newline
/// would split the row in two.
#[must_use]
pub fn render_csv(snapshot: &TraceSnapshot) -> String {
    let mut out = String::from("channel,kind,index,t,value\n");
    for ch in &snapshot.channels {
        let name = if ch.name.contains([',', '"', '\n', '\r']) {
            format!("\"{}\"", ch.name.replace('"', "\"\""))
        } else {
            ch.name.clone()
        };
        for s in &ch.samples {
            let _ = writeln!(
                out,
                "{name},{},{},{},{}",
                ch.kind.as_str(),
                s.index,
                s.t,
                s.value
            );
        }
    }
    out
}

/// A finite float as a JSON number; non-finite as `null`.
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

/// Exports `snapshot` to the file named by [`TRACE_ENV`] (appending;
/// CSV when the path ends in `.csv`, NDJSON otherwise). Does nothing
/// when the variable is unset or empty — and never touches stdout, so
/// experiment stdout stays byte-exact.
pub fn emit(snapshot: &TraceSnapshot) {
    use std::io::Write as _;
    let Ok(path) = std::env::var(TRACE_ENV) else {
        return;
    };
    if path.is_empty() {
        return;
    }
    let rendered = if path.ends_with(".csv") {
        render_csv(snapshot)
    } else {
        render_ndjson(snapshot)
    };
    match std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
    {
        Ok(mut f) => {
            if let Err(err) = f.write_all(rendered.as_bytes()) {
                eprintln!("rcs-obs: cannot write trace file {path}: {err}");
            }
        }
        Err(err) => eprintln!("rcs-obs: cannot open trace file {path}: {err}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_snapshots_in_sorted_order() {
        let trace = TraceRecorder::new();
        let z = trace.channel("z", ChannelKind::Scalar);
        let a = trace.channel("a", ChannelKind::Flow);
        trace.record(z, 0.0, 1.0);
        trace.record(a, 0.0, 2.0);
        let snap = trace.snapshot();
        assert_eq!(snap.channels.len(), 2);
        assert_eq!(snap.channels[0].name, "a");
        assert_eq!(snap.channels[1].name, "z");
        assert_eq!(snap.channel("z").unwrap().samples[0].value, 1.0);
    }

    #[test]
    fn channel_is_idempotent_by_name() {
        let trace = TraceRecorder::new();
        let a = trace.channel("t", ChannelKind::Temperature);
        let b = trace.channel("t", ChannelKind::Temperature);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "different kind")]
    fn channel_kind_is_part_of_identity() {
        let trace = TraceRecorder::new();
        let _ = trace.channel("t", ChannelKind::Temperature);
        let _ = trace.channel("t", ChannelKind::Flow);
    }

    #[test]
    fn decimation_is_bounded_and_deterministic() {
        let trace = TraceRecorder::with_capacity(8);
        let ch = trace.channel("x", ChannelKind::Scalar);
        for i in 0..1000 {
            trace.record(ch, f64::from(i), f64::from(i) * 2.0);
        }
        let snap = trace.snapshot();
        let c = snap.channel("x").unwrap();
        assert!(c.samples.len() <= 8, "kept {}", c.samples.len());
        assert_eq!(c.pushed, 1000);
        assert!(c.stride > 1);
        // every survivor is on-stride and in push order
        for w in c.samples.windows(2) {
            assert!(w[0].index < w[1].index);
        }
        for s in &c.samples {
            assert_eq!(s.index % c.stride, 0);
            assert_eq!(s.value, s.t * 2.0);
        }
        // an identical second run keeps exactly the same samples
        let again = TraceRecorder::with_capacity(8);
        let ch2 = again.channel("x", ChannelKind::Scalar);
        for i in 0..1000 {
            again.record(ch2, f64::from(i), f64::from(i) * 2.0);
        }
        assert_eq!(again.snapshot(), snap);
    }

    #[test]
    fn csv_export_quotes_hostile_channel_names() {
        let trace = TraceRecorder::new();
        trace.record_named("plain", ChannelKind::Scalar, 0.0, 1.0);
        trace.record_named("a,b", ChannelKind::Scalar, 0.0, 2.0);
        trace.record_named("say \"hi\"", ChannelKind::Scalar, 0.0, 3.0);
        trace.record_named("line\nbreak", ChannelKind::Scalar, 0.0, 4.0);
        trace.record_named("car\rreturn", ChannelKind::Scalar, 0.0, 5.0);
        let csv = render_csv(&trace.snapshot());
        assert!(csv.contains("\nplain,scalar,"), "{csv}");
        assert!(csv.contains("\n\"a,b\",scalar,"), "{csv}");
        assert!(csv.contains("\n\"say \"\"hi\"\"\",scalar,"), "{csv}");
        assert!(csv.contains("\"line\nbreak\",scalar,"), "{csv}");
        assert!(csv.contains("\"car\rreturn\",scalar,"), "{csv}");
        // a data row never starts with an unquoted name fragment: every
        // line is either the header, a quoted-name row, a quote
        // continuation, or starts with an unquoted full name
        let header_cols = csv.lines().next().unwrap().split(',').count();
        assert_eq!(header_cols, 5);
    }

    #[test]
    fn ndjson_export_escapes_hostile_channel_names() {
        let trace = TraceRecorder::new();
        trace.record_named("a,b \"c\"\nd", ChannelKind::Scalar, 0.0, 1.0);
        let ndjson = render_ndjson(&trace.snapshot());
        assert!(
            ndjson.contains("\"name\":\"a,b \\\"c\\\"\\nd\""),
            "{ndjson}"
        );
        // the line stays one line: the raw newline was escaped
        assert_eq!(ndjson.trim_end().lines().count(), 1, "{ndjson}");
        let parsed = crate::report::parse_json(ndjson.trim_end()).expect("valid JSON");
        assert_eq!(
            parsed.get("name").and_then(crate::report::Json::as_str),
            Some("a,b \"c\"\nd")
        );
    }

    #[test]
    fn absorb_prefixed_replays_in_input_order() {
        let shard_a = TraceRecorder::new();
        shard_a.record_named("t", ChannelKind::Temperature, 0.0, 1.0);
        let shard_b = TraceRecorder::new();
        shard_b.record_named("t", ChannelKind::Temperature, 0.0, 9.0);

        let total = TraceRecorder::new();
        total.absorb_prefixed("cell 0", &shard_a.snapshot());
        total.absorb_prefixed("cell 1", &shard_b.snapshot());
        let snap = total.snapshot();
        assert_eq!(snap.channels.len(), 2);
        assert_eq!(snap.channel("cell 0/t").unwrap().samples[0].value, 1.0);
        assert_eq!(snap.channel("cell 1/t").unwrap().samples[0].value, 9.0);
    }

    #[test]
    fn restore_is_verbatim_where_absorb_replays() {
        // Fill a channel past capacity so it decimates mid-stream.
        let original = TraceRecorder::with_capacity(8);
        let ch = original.channel("x", ChannelKind::Scalar);
        for i in 0..37 {
            original.record(ch, f64::from(i), f64::from(i) * 3.0);
        }
        let snap = original.snapshot();

        // Verbatim restore reproduces stride/pushed/samples exactly...
        let restored = TraceRecorder::with_capacity(8);
        restored.restore_channels(&snap);
        assert_eq!(restored.snapshot(), snap);

        // ...so continuing both recorders stays bit-identical.
        let ch2 = restored.channel("x", ChannelKind::Scalar);
        for i in 37..200 {
            original.record(ch, f64::from(i), f64::from(i) * 3.0);
            restored.record(ch2, f64::from(i), f64::from(i) * 3.0);
        }
        assert_eq!(restored.snapshot(), original.snapshot());

        // An absorb of the same snapshot is a replay, not a restore:
        // push counts differ (only retained samples are re-pushed).
        let absorbed = TraceRecorder::with_capacity(8);
        absorbed.absorb(&snap);
        assert_ne!(absorbed.snapshot().channel("x").unwrap().pushed, 37);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let trace = TraceRecorder::disabled();
        let ch = trace.channel("t", ChannelKind::Temperature);
        trace.record(ch, 0.0, 1.0);
        trace.record_named("u", ChannelKind::Flow, 0.0, 2.0);
        trace.absorb(&TraceSnapshot::default());
        assert!(!trace.is_enabled());
        assert!(trace.snapshot().is_empty());
        // shards of a disabled recorder are disabled too
        assert!(!trace.shard().is_enabled());
    }

    #[test]
    fn ndjson_and_csv_exports_render_every_channel() {
        let trace = TraceRecorder::new();
        trace.record_named("t_chip", ChannelKind::Temperature, 0.0, 45.5);
        trace.record_named("t_chip", ChannelKind::Temperature, 2.0, 45.75);
        let snap = trace.snapshot();
        let ndjson = render_ndjson(&snap);
        assert_eq!(
            ndjson,
            "{\"type\":\"trace\",\"name\":\"t_chip\",\"kind\":\"temperature\",\
             \"stride\":1,\"pushed\":2,\"samples\":[[0,45.5],[2,45.75]]}\n"
        );
        let csv = render_csv(&snap);
        assert_eq!(
            csv,
            "channel,kind,index,t,value\n\
             t_chip,temperature,0,0,45.5\n\
             t_chip,temperature,1,2,45.75\n"
        );
    }

    #[test]
    fn non_finite_samples_render_as_null() {
        let trace = TraceRecorder::new();
        trace.record_named("r", ChannelKind::Residual, 0.0, f64::NAN);
        let ndjson = render_ndjson(&trace.snapshot());
        assert!(ndjson.contains("[0,null]"), "{ndjson}");
    }

    #[test]
    fn kind_tokens_round_trip() {
        for kind in [
            ChannelKind::Temperature,
            ChannelKind::Flow,
            ChannelKind::Residual,
            ChannelKind::Alarm,
            ChannelKind::Action,
            ChannelKind::Scalar,
        ] {
            assert_eq!(ChannelKind::parse(kind.as_str()), Some(kind));
        }
        assert_eq!(ChannelKind::parse("volts"), None);
    }
}
