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

use rcs_obs::span::{Elision, Frame, SpanState};
use rcs_obs::trace::{ChannelKind, TraceSnapshot};
use rcs_obs::{Sinks, Snapshot};

use crate::snap::{open, seal, Codec, SnapshotError};

/// Seals a session checkpoint of `kind`: the session's fields as its
/// `layout` writes them, then the state of `sinks`.
///
/// # Panics
///
/// If `layout` fails while writing, which a layout built from [`Codec`]
/// calls never does: a writing codec fails no call and checks nothing.
#[must_use]
pub fn seal_session(
    kind: &str,
    sinks: Sinks<'_>,
    layout: impl FnOnce(&mut Codec<'_>) -> Result<(), SnapshotError>,
) -> Vec<u8> {
    let mut c = Codec::writer();
    let written = layout(&mut c).and_then(|()| SinkState::capture(sinks).layout(&mut c));
    assert!(written.is_ok(), "writing a snapshot failed: {written:?}");
    seal(kind, &c.into_bytes())
}

/// Opens a session checkpoint of `kind` sealed by [`seal_session`]:
/// runs `layout` as a reader over the session's fields, decodes the
/// sink state after them and rejects trailing bytes — and only then
/// restores the captured telemetry into the (fresh) `sinks`, so a
/// rejected snapshot leaves them untouched.
///
/// # Errors
///
/// Any [`SnapshotError`] from the envelope, the layout or the sink
/// state; [`SnapshotError::Malformed`] when `sinks` records traces at
/// another capacity than the captured recorder did.
pub fn open_session(
    kind: &str,
    bytes: &[u8],
    sinks: Sinks<'_>,
    layout: impl FnOnce(&mut Codec<'_>) -> Result<(), SnapshotError>,
) -> Result<(), SnapshotError> {
    let mut c = Codec::reader(open(kind, bytes)?);
    layout(&mut c)?;
    let mut captured = SinkState::default();
    captured.layout(&mut c)?;
    c.finish(&format!("the {kind} session state"))?;
    captured.restore(sinks)
}

/// Captured state of one run's [`Sinks`]: the golden
/// counter snapshot plus the full trace recorder state
/// (channels, samples, decimation cursors, capacity, enablement) plus
/// the full span sink state (closed tree, elision summaries, open
/// stack).
#[derive(Debug, Clone, PartialEq, Default)]
pub(crate) struct SinkState {
    /// Golden counters / histograms at capture time.
    obs: Snapshot,
    /// Trace channels at capture time, including decimation cursors.
    trace: TraceSnapshot,
    /// Capacity of the captured recorder — restore targets must match,
    /// or decimation would diverge from the straight-through run.
    trace_capacity: usize,
    /// Whether the captured recorder was enabled at all.
    trace_enabled: bool,
    /// Span tree at capture time, open stack included. Empty when the
    /// captured sink was disabled (or the state predates spans).
    spans: SpanState,
}

impl SinkState {
    /// Captures the current state of all three sinks — including the
    /// span sink's open stack, so a span that brackets the checkpoint
    /// closes correctly on the restored sink.
    fn capture(sinks: Sinks<'_>) -> Self {
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
    fn restore(&self, sinks: Sinks<'_>) -> Result<(), SnapshotError> {
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

    /// The one wire layout of a sink state: counters, histograms, trace
    /// channels, then the span tree.
    ///
    /// Decoding rejects a histogram `Registry::record_histogram` could
    /// not have built (bounds empty or not strictly ascending, counts
    /// not one more than bounds), a golden histogram at other bounds
    /// than [`rcs_obs::golden_bounds`] lists, histogram names out of
    /// sorted order or repeated, an unknown channel-kind token, and
    /// span-tree indices out of range.
    fn layout(&mut self, c: &mut Codec<'_>) -> Result<(), SnapshotError> {
        c.vec(&mut self.obs.counters, |c, (name, value)| {
            c.str(name)?;
            c.u64(value)
        })?;
        c.vec(&mut self.obs.histograms, |c, (name, h)| {
            c.str(name)?;
            c.vec(&mut h.bounds, Codec::u64)?;
            c.vec(&mut h.counts, Codec::u64)?;
            // `Registry::record_histogram` indexes `counts` by bucket, and
            // a golden histogram's producer records at fixed bounds.
            let (bounds, counts) = (h.bounds.as_slice(), h.counts.len());
            let shaped = !bounds.is_empty()
                && bounds.windows(2).all(|w| w[0] < w[1])
                && counts == bounds.len() + 1;
            let golden = rcs_obs::golden_bounds(name).is_none_or(|b| b == bounds);
            c.ensure(shaped && golden, || {
                format!(
                    "histogram {name:?}: {counts} counts over bounds {bounds:?}, \
                     a shape its producer does not record"
                )
            })
        })?;
        // A registry snapshot lists each name once, in sorted order; a
        // repeated name with other bounds would panic `restore`.
        let misordered = self.obs.histograms.windows(2).find(|w| w[0].0 >= w[1].0);
        c.ensure(misordered.is_none(), || {
            let name = misordered.map_or("", |w| w[1].0.as_str());
            format!("histogram {name:?} repeated or out of name order")
        })?;
        c.bool(&mut self.trace_enabled)?;
        // A capacity, not a byte length — no bound by the bytes remaining.
        c.usize(&mut self.trace_capacity)?;
        c.vec(&mut self.trace.channels, |c, ch| {
            c.str(&mut ch.name)?;
            let mut kind = ch.kind.as_str().to_owned();
            c.str(&mut kind)?;
            ch.kind = ChannelKind::parse(&kind).ok_or_else(|| {
                SnapshotError::Malformed(format!("unknown channel kind {kind:?}"))
            })?;
            c.u64(&mut ch.stride)?;
            c.u64(&mut ch.pushed)?;
            c.vec(&mut ch.samples, |c, s| {
                c.u64(&mut s.index)?;
                c.f64(&mut s.t)?;
                c.f64(&mut s.value)
            })
        })?;
        span_layout(c, &mut self.spans)
    }
}

/// The span tree's layout: nodes (each with its children and elisions),
/// roots, root elisions, then the open stack.
fn span_layout(c: &mut Codec<'_>, spans: &mut SpanState) -> Result<(), SnapshotError> {
    let mut nodes = spans.nodes.len();
    c.count(&mut nodes)?;
    let index = move |c: &mut Codec<'_>, i: &mut usize| {
        c.usize(i)?;
        c.ensure(*i < nodes, || {
            format!("span index {i} out of range ({nodes} nodes)")
        })
    };
    c.items(&mut spans.nodes, nodes, |c, node| {
        c.str(&mut node.label)?;
        c.u64(&mut node.start)?;
        // `end` travels as a presence flag and a value, 0 while open.
        let (mut closed, mut end) = (node.end.is_some(), node.end.unwrap_or(0));
        c.bool(&mut closed)?;
        c.u64(&mut end)?;
        node.end = closed.then_some(end);
        c.vec(&mut node.children, index)?;
        elided_layout(c, &mut node.elided)
    })?;
    c.vec(&mut spans.roots, index)?;
    elided_layout(c, &mut spans.root_elided)?;
    c.vec(&mut spans.stack, |c, frame| {
        let (mut tag, mut i, mut label, mut start) = match frame {
            Frame::Node(i) => (0, *i, String::new(), 0),
            Frame::Elided { label, start } => (1, 0, label.clone(), *start),
            Frame::Suppressed => (2, 0, String::new(), 0),
        };
        c.tag(&mut tag, 3, "span frame")?;
        *frame = match tag {
            0 => {
                index(c, &mut i)?;
                Frame::Node(i)
            }
            1 => {
                c.str(&mut label)?;
                c.u64(&mut start)?;
                Frame::Elided { label, start }
            }
            _ => Frame::Suppressed,
        };
        Ok(())
    })
}

fn elided_layout(c: &mut Codec<'_>, elided: &mut Vec<Elision>) -> Result<(), SnapshotError> {
    c.vec(elided, |c, (label, count, work)| {
        c.str(label)?;
        c.u64(count)?;
        c.u64(work)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcs_obs::span::SpanSink;
    use rcs_obs::trace::TraceRecorder;
    use rcs_obs::{HistogramSnapshot, Registry};

    fn encode(state: &SinkState) -> Vec<u8> {
        let mut c = Codec::writer();
        state.clone().layout(&mut c).unwrap();
        c.into_bytes()
    }

    fn decode(bytes: &[u8]) -> Result<SinkState, SnapshotError> {
        let mut c = Codec::reader(bytes);
        let mut state = SinkState::default();
        state.layout(&mut c)?;
        c.finish("the sink state")?;
        Ok(state)
    }

    fn busy_sinks() -> (Registry, TraceRecorder) {
        let obs = Registry::new();
        obs.inc("kernel.test.runs");
        obs.add("kernel.test.items", 41);
        obs.record_histogram("kernel.test.sizes", &[2, 4, 8], 5);
        obs.record_histogram("kernel.test.sizes", &[2, 4, 8], 3);
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

        let decoded = decode(&encode(&state)).unwrap();
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
        let bytes = encode(&state);
        for n in (0..bytes.len()).step_by(7) {
            assert!(decode(&bytes[..n]).is_err(), "truncated at {n}");
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
        assert!(matches!(
            decode(&encode(&state)),
            Err(SnapshotError::Malformed(_))
        ));
    }

    #[test]
    fn a_histogram_the_registry_could_not_have_built_is_rejected() {
        let decode = |histograms: Vec<(&str, Vec<u64>, Vec<u64>)>| {
            let state = SinkState {
                obs: Snapshot {
                    counters: Vec::new(),
                    histograms: histograms
                        .into_iter()
                        .map(|(name, bounds, counts)| {
                            (name.to_owned(), HistogramSnapshot { bounds, counts })
                        })
                        .collect(),
                },
                trace: TraceSnapshot::default(),
                trace_capacity: 8,
                trace_enabled: false,
                spans: SpanState::default(),
            };
            decode(&encode(&state))
        };
        // Each state would restore and then panic (or misbucket) on the
        // next `record_histogram` into the same name — or, for the
        // repeated name, in `restore` itself.
        let rung = "hydraulics.ladder.rung";
        for histograms in [
            vec![(rung, vec![0, 1, 2], vec![])],
            vec![(rung, vec![0, 1, 2], vec![0, 0, 0])],
            vec![(rung, vec![], vec![0])],
            vec![(rung, vec![0, 2, 1], vec![0, 0, 0, 0])],
            vec![(rung, vec![1, 1], vec![0, 0, 0])],
            vec![
                (rung, vec![0, 1, 2], vec![0; 4]),
                (rung, vec![5, 9], vec![0; 3]),
            ],
        ] {
            let shapes = format!("{histograms:?}");
            match decode(histograms) {
                Err(SnapshotError::Malformed(msg)) => assert!(msg.contains(rung), "{msg}"),
                other => panic!("{shapes} decoded to {other:?}"),
            }
        }
    }
}
