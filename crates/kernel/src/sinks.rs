//! Checkpointing the observability sinks.
//!
//! A kernel checkpoint must carry not just the solver state but the
//! *telemetry* state: every golden counter, histogram bucket, trace
//! sample and span-tree node recorded so far, plus each trace channel's
//! decimation cursor (stride and push count) and the span sink's
//! **open-span stack**. Restoring into a **fresh** [`Sinks`] bundle
//! then reproduces, bitwise, the
//! sinks a straight uninterrupted run would have produced — including
//! spans that were still open when the checkpoint was taken.
//!
//! One obs channel is deliberately *not* captured: notes. Notes are
//! non-golden by design (wall-clock, worker counts), excluded from
//! snapshot equality and from profile diffs, so a resumed run may
//! legitimately differ there. (The hierarchical span tree, by contrast,
//! is recorded in golden work units and *is* captured.)
//!
//! Restore semantics mirror straight-through behavior: absorbing into a
//! disabled sink is a silent no-op, because a straight run against a
//! disabled sink records nothing either.

use rcs_obs::span::{Frame, SpanNode, SpanState};
use rcs_obs::trace::{ChannelKind, ChannelSnapshot, Sample, TraceSnapshot};
use rcs_obs::{FHistogramSnapshot, HistogramSnapshot, Sinks, Snapshot};

use crate::snap::{SnapReader, SnapWriter, SnapshotError};

/// Captured state of one run's [`Sinks`]: the golden
/// counter snapshot plus the full trace recorder state
/// (channels, samples, decimation cursors, capacity, enablement) plus
/// the full span sink state (closed tree, elision summaries, open
/// stack).
#[derive(Debug, Clone, PartialEq)]
pub struct SinkState {
    /// Golden counters / histograms at capture time.
    pub obs: Snapshot,
    /// Trace channels at capture time, including decimation cursors.
    pub trace: TraceSnapshot,
    /// Capacity of the captured recorder — restore targets must match,
    /// or decimation would diverge from the straight-through run.
    pub trace_capacity: usize,
    /// Whether the captured recorder was enabled at all.
    pub trace_enabled: bool,
    /// Span tree at capture time, open stack included. Empty when the
    /// captured sink was disabled (or the state predates spans).
    pub spans: SpanState,
}

impl SinkState {
    /// Captures the current state of all three sinks — including the
    /// span sink's open stack, so a span that brackets the checkpoint
    /// closes correctly on the restored sink.
    #[must_use]
    pub fn capture(sinks: Sinks<'_>) -> Self {
        Self {
            obs: sinks.obs.snapshot(),
            trace: sinks.trace.snapshot(),
            trace_capacity: sinks.trace.capacity(),
            trace_enabled: sinks.trace.is_enabled(),
            spans: sinks.spans.snapshot(),
        }
    }

    /// Restores the captured state into **fresh** sinks: golden
    /// counters are absorbed (exact additive merge into empty sinks is
    /// an exact restore), trace channels are installed verbatim,
    /// cursors included, and the span tree — open stack and all — is
    /// installed wholesale.
    ///
    /// A disabled target sink is skipped silently — that matches what a
    /// straight-through run against the same disabled sink records.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Malformed`] when the target recorder is enabled
    /// with a different capacity than the captured one: future
    /// decimation would then diverge from the uninterrupted run, which
    /// breaks the resume-equivalence contract.
    pub fn restore(&self, sinks: Sinks<'_>) -> Result<(), SnapshotError> {
        let Sinks { obs, trace, spans } = sinks;
        obs.absorb(&self.obs);
        if trace.is_enabled() {
            if self.trace_enabled && trace.capacity() != self.trace_capacity {
                return Err(SnapshotError::Malformed(format!(
                    "trace capacity mismatch: snapshot captured at {}, restore target has {}",
                    self.trace_capacity,
                    trace.capacity()
                )));
            }
            trace.restore_channels(&self.trace);
        }
        spans.restore(&self.spans);
        Ok(())
    }

    /// Serializes the sink state into `w`.
    pub fn write_into(&self, w: &mut SnapWriter) {
        w.count(self.obs.counters.len());
        for (name, value) in &self.obs.counters {
            w.str(name);
            w.u64(*value);
        }
        w.count(self.obs.histograms.len());
        for (name, h) in &self.obs.histograms {
            w.str(name);
            w.u64_slice(&h.bounds);
            w.u64_slice(&h.counts);
        }
        w.count(self.obs.fhistograms.len());
        for (name, h) in &self.obs.fhistograms {
            w.str(name);
            w.f64_slice(&h.edges);
            w.u64_slice(&h.counts);
        }
        w.bool(self.trace_enabled);
        // A capacity, not a byte length — skip the length sanity bound.
        w.u64(self.trace_capacity as u64);
        w.count(self.trace.channels.len());
        for ch in &self.trace.channels {
            w.str(&ch.name);
            w.str(ch.kind.as_str());
            w.u64(ch.stride);
            w.u64(ch.pushed);
            w.count(ch.samples.len());
            for s in &ch.samples {
                w.u64(s.index);
                w.f64(s.t);
                w.f64(s.value);
            }
        }
        Self::write_spans(w, &self.spans);
    }

    fn write_spans(w: &mut SnapWriter, spans: &SpanState) {
        w.count(spans.nodes.len());
        for node in &spans.nodes {
            w.str(&node.label);
            w.u64(node.start);
            w.bool(node.end.is_some());
            w.u64(node.end.unwrap_or(0));
            w.count(node.children.len());
            for &c in &node.children {
                w.u64(c as u64);
            }
            Self::write_elided(w, &node.elided);
        }
        w.count(spans.roots.len());
        for &r in &spans.roots {
            w.u64(r as u64);
        }
        Self::write_elided(w, &spans.root_elided);
        w.count(spans.stack.len());
        for frame in &spans.stack {
            match frame {
                Frame::Node(idx) => {
                    w.u8(0);
                    w.u64(*idx as u64);
                }
                Frame::Elided { label, start } => {
                    w.u8(1);
                    w.str(label);
                    w.u64(*start);
                }
                Frame::Suppressed => w.u8(2),
            }
        }
    }

    fn write_elided(w: &mut SnapWriter, elided: &[(String, u64, u64)]) {
        w.count(elided.len());
        for (label, count, work) in elided {
            w.str(label);
            w.u64(*count);
            w.u64(*work);
        }
    }

    /// Reconstructs a sink state serialized by [`SinkState::write_into`].
    ///
    /// # Errors
    ///
    /// [`SnapshotError`] on truncated bytes, an unknown channel-kind
    /// token, or span-tree indices out of range.
    pub fn read_from(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        let n = r.count()?;
        let mut counters = Vec::with_capacity(n);
        for _ in 0..n {
            counters.push((r.str()?, r.u64()?));
        }
        let n = r.count()?;
        let mut histograms = Vec::with_capacity(n);
        for _ in 0..n {
            let name = r.str()?;
            let bounds = r.u64_vec()?;
            let counts = r.u64_vec()?;
            histograms.push((name, HistogramSnapshot { bounds, counts }));
        }
        let n = r.count()?;
        let mut fhistograms = Vec::with_capacity(n);
        for _ in 0..n {
            let name = r.str()?;
            let edges = r.f64_vec()?;
            let counts = r.u64_vec()?;
            fhistograms.push((name, FHistogramSnapshot { edges, counts }));
        }
        let trace_enabled = r.bool()?;
        let raw_capacity = r.u64()?;
        let trace_capacity = usize::try_from(raw_capacity).map_err(|_| {
            SnapshotError::Malformed(format!("trace capacity {raw_capacity} overflows usize"))
        })?;
        let n = r.count()?;
        let mut channels = Vec::with_capacity(n);
        for _ in 0..n {
            let name = r.str()?;
            let kind_token = r.str()?;
            let kind = ChannelKind::parse(&kind_token).ok_or_else(|| {
                SnapshotError::Malformed(format!("unknown channel kind {kind_token:?}"))
            })?;
            let stride = r.u64()?;
            let pushed = r.u64()?;
            let m = r.count()?;
            let mut samples = Vec::with_capacity(m);
            for _ in 0..m {
                samples.push(Sample {
                    index: r.u64()?,
                    t: r.f64()?,
                    value: r.f64()?,
                });
            }
            channels.push(ChannelSnapshot {
                name,
                kind,
                stride,
                pushed,
                samples,
            });
        }
        let spans = Self::read_spans(r)?;
        Ok(Self {
            obs: Snapshot {
                counters,
                histograms,
                fhistograms,
            },
            trace: TraceSnapshot { channels },
            trace_capacity,
            trace_enabled,
            spans,
        })
    }

    fn read_spans(r: &mut SnapReader<'_>) -> Result<SpanState, SnapshotError> {
        let node_count = r.count()?;
        let index = |raw: u64| -> Result<usize, SnapshotError> {
            let idx = usize::try_from(raw)
                .map_err(|_| SnapshotError::Malformed(format!("span index {raw} overflows")))?;
            if idx >= node_count {
                return Err(SnapshotError::Malformed(format!(
                    "span index {idx} out of range ({node_count} nodes)"
                )));
            }
            Ok(idx)
        };
        let mut nodes = Vec::with_capacity(node_count);
        for _ in 0..node_count {
            let label = r.str()?;
            let start = r.u64()?;
            let has_end = r.bool()?;
            let end_raw = r.u64()?;
            let end = has_end.then_some(end_raw);
            let m = r.count()?;
            let mut children = Vec::with_capacity(m);
            for _ in 0..m {
                children.push(index(r.u64()?)?);
            }
            let elided = Self::read_elided(r)?;
            nodes.push(SpanNode {
                label,
                start,
                end,
                children,
                elided,
            });
        }
        let m = r.count()?;
        let mut roots = Vec::with_capacity(m);
        for _ in 0..m {
            roots.push(index(r.u64()?)?);
        }
        let root_elided = Self::read_elided(r)?;
        let m = r.count()?;
        let mut stack = Vec::with_capacity(m);
        for _ in 0..m {
            let tag = r.u8()?;
            stack.push(match tag {
                0 => Frame::Node(index(r.u64()?)?),
                1 => Frame::Elided {
                    label: r.str()?,
                    start: r.u64()?,
                },
                2 => Frame::Suppressed,
                other => {
                    return Err(SnapshotError::Malformed(format!(
                        "unknown span frame tag {other}"
                    )))
                }
            });
        }
        Ok(SpanState {
            nodes,
            roots,
            root_elided,
            stack,
        })
    }

    fn read_elided(r: &mut SnapReader<'_>) -> Result<Vec<(String, u64, u64)>, SnapshotError> {
        let m = r.count()?;
        let mut elided = Vec::with_capacity(m);
        for _ in 0..m {
            elided.push((r.str()?, r.u64()?, r.u64()?));
        }
        Ok(elided)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcs_obs::span::SpanSink;
    use rcs_obs::trace::TraceRecorder;
    use rcs_obs::Registry;

    fn busy_sinks() -> (Registry, TraceRecorder) {
        let obs = Registry::new();
        obs.inc("kernel.test.runs");
        obs.add("kernel.test.items", 41);
        obs.record_histogram("kernel.test.sizes", &[2, 4, 8], 5);
        obs.record_histogram("kernel.test.sizes", &[2, 4, 8], 3);
        obs.record_histogram_f64("kernel.test.temps", &[10.0, 20.0], 14.25);
        let trace = TraceRecorder::with_capacity(8);
        let ch = trace.channel("kernel.test.temp", ChannelKind::Temperature);
        for i in 0..37 {
            trace.record(ch, f64::from(i) * 0.5, 20.0 + f64::from(i));
        }
        (obs, trace)
    }

    fn busy_spans(obs: &Registry) -> SpanSink {
        let spans = SpanSink::with_fanout(2);
        spans.enter("session", obs);
        obs.work("kernel.test.work", 6);
        for _ in 0..4 {
            spans.enter("step", obs);
            obs.work("kernel.test.work", 2);
            spans.exit(obs);
        }
        // leave "session" open: checkpoints happen mid-span
        spans
    }

    #[test]
    fn capture_serialize_restore_is_bitwise() {
        let (obs, trace) = busy_sinks();
        let spans = busy_spans(&obs);
        let state = SinkState::capture(Sinks {
            obs: &obs,
            trace: &trace,
            spans: &spans,
        });
        assert_eq!(state.spans.stack.len(), 1, "mid-span checkpoint");

        let mut w = SnapWriter::new();
        state.write_into(&mut w);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        let decoded = SinkState::read_from(&mut r).unwrap();
        assert!(r.is_exhausted());
        assert_eq!(decoded, state);

        let obs2 = Registry::new();
        let trace2 = TraceRecorder::with_capacity(8);
        let spans2 = SpanSink::with_fanout(2);
        decoded
            .restore(Sinks {
                obs: &obs2,
                trace: &trace2,
                spans: &spans2,
            })
            .unwrap();
        assert_eq!(obs2.snapshot(), obs.snapshot());
        assert_eq!(obs2.work_units(), obs.work_units());
        assert_eq!(trace2.snapshot(), trace.snapshot());
        assert_eq!(spans2.snapshot(), spans.snapshot());

        // The restored recorder decimates exactly like the original on
        // further pushes — the cursor survived the round trip.
        let ch1 = trace.channel("kernel.test.temp", ChannelKind::Temperature);
        let ch2 = trace2.channel("kernel.test.temp", ChannelKind::Temperature);
        for i in 37..200 {
            trace.record(ch1, f64::from(i) * 0.5, 20.0 + f64::from(i));
            trace2.record(ch2, f64::from(i) * 0.5, 20.0 + f64::from(i));
        }
        assert_eq!(trace2.snapshot(), trace.snapshot());

        // The restored span sink continues the open span exactly like
        // the original: same work, same elision decisions, same exit.
        for (o, s) in [(&obs, &spans), (&obs2, &spans2)] {
            s.enter("step", o);
            o.work("kernel.test.work", 3);
            s.exit(o);
            s.exit(o);
        }
        assert_eq!(spans2.snapshot(), spans.snapshot());
        assert!(spans.snapshot().stack.is_empty());
    }

    #[test]
    fn a_disabled_span_sink_captures_no_spans() {
        let (obs, trace) = busy_sinks();
        let state = SinkState::capture(Sinks {
            obs: &obs,
            trace: &trace,
            spans: SpanSink::disabled(),
        });
        assert!(state.spans.is_empty());
        let obs2 = Registry::new();
        let trace2 = TraceRecorder::with_capacity(8);
        state
            .restore(Sinks {
                obs: &obs2,
                trace: &trace2,
                spans: SpanSink::disabled(),
            })
            .unwrap();
        assert_eq!(obs2.snapshot(), obs.snapshot());
    }

    #[test]
    fn restore_into_disabled_sinks_is_a_silent_noop() {
        let (obs, trace) = busy_sinks();
        let spans = busy_spans(&obs);
        let state = SinkState::capture(Sinks {
            obs: &obs,
            trace: &trace,
            spans: &spans,
        });
        let obs2 = Registry::disabled();
        let trace2 = TraceRecorder::disabled();
        let spans2 = SpanSink::disabled();
        state
            .restore(Sinks {
                obs: obs2,
                trace: trace2,
                spans: spans2,
            })
            .unwrap();
        assert!(obs2.snapshot().counters.is_empty());
        assert!(trace2.snapshot().is_empty());
        assert!(spans2.snapshot().is_empty());
    }

    #[test]
    fn capacity_mismatch_is_a_structured_error() {
        let (obs, trace) = busy_sinks();
        let state = SinkState::capture(Sinks {
            obs: &obs,
            trace: &trace,
            spans: SpanSink::disabled(),
        });
        let obs2 = Registry::new();
        let trace2 = TraceRecorder::with_capacity(16);
        assert!(matches!(
            state.restore(Sinks {
                obs: &obs2,
                trace: &trace2,
                spans: SpanSink::disabled()
            }),
            Err(SnapshotError::Malformed(_))
        ));
    }

    #[test]
    fn truncated_sink_bytes_decode_to_an_error() {
        let (obs, trace) = busy_sinks();
        let spans = busy_spans(&obs);
        let state = SinkState::capture(Sinks {
            obs: &obs,
            trace: &trace,
            spans: &spans,
        });
        let mut w = SnapWriter::new();
        state.write_into(&mut w);
        let bytes = w.into_bytes();
        for n in (0..bytes.len()).step_by(7) {
            let mut r = SnapReader::new(&bytes[..n]);
            assert!(SinkState::read_from(&mut r).is_err(), "truncated at {n}");
        }
    }

    #[test]
    fn out_of_range_span_index_is_rejected() {
        let (obs, trace) = busy_sinks();
        let spans = SpanSink::new();
        spans.enter("only", &obs);
        spans.exit(&obs);
        let mut state = SinkState::capture(Sinks {
            obs: &obs,
            trace: &trace,
            spans: &spans,
        });
        state.spans.roots = vec![7]; // node 7 does not exist
        let mut w = SnapWriter::new();
        state.write_into(&mut w);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        assert!(matches!(
            SinkState::read_from(&mut r),
            Err(SnapshotError::Malformed(_))
        ));
    }
}
