//! Deterministic parallel execution for the `rcs-sim` workspace.
//!
//! Every quantitative figure in this reproduction is a pure function of
//! a `u64` seed, and the determinism contract (see `DESIGN.md`) says it
//! must stay one at **any** thread count. This crate supplies the
//! execution half of that contract with nothing but `std`:
//!
//! - [`par_map_indexed`] — a scoped thread pool (`std::thread::scope`
//!   workers pulling from a channel work queue) whose results are always
//!   collected in **input order**, so a parallel map is observably
//!   identical to the serial `iter().map()` no matter how the items were
//!   scheduled;
//! - [`fixed_chunks`] — the fixed-size chunk partition the Monte-Carlo
//!   loops use. Chunk boundaries depend only on the workload size, never
//!   on the thread count, so the chunk → RNG-stream mapping (one
//!   [`jump`]ed stream per chunk) is pinned by the seed alone;
//! - [`thread_count`] — worker-count resolution: the `RCS_THREADS`
//!   environment variable when set, otherwise the machine's available
//!   parallelism;
//! - [`par_map`] — the instrumented map: every item records into its
//!   own shard of the caller's [`Sinks`] bundle (counters, trace, spans)
//!   and the shards merge back in input order, so telemetry is as
//!   thread-invariant as the results;
//! - [`par_map_isolated`] — [`par_map`] with panic isolation: each item
//!   runs under [`isolate`] (`catch_unwind`), so a panicking closure
//!   yields a per-item [`WorkerPanic`] `Err` instead of poisoning the
//!   pool and losing the rest of the batch; every caught panic counts on
//!   the golden `resilience.worker.panics` counter, in input order;
//! - [`par_map_shards`] — [`par_map`] without the map-shape counters,
//!   for resumable sessions that split one logical map across calls.
//!
//! The pool is deliberately not work-stealing and not persistent: sweeps
//! in this workspace are dozens-to-thousands of coarse items, where a
//! one-shot scoped pool costs microseconds and keeps every closure
//! borrow-checked against the caller's stack (no `'static` bounds, no
//! `Arc`).
//!
//! [`jump`]: https://prng.di.unimi.it/
//!
//! # Examples
//!
//! ```
//! let squares = rcs_parallel::par_map_indexed(vec![1u64, 2, 3, 4], 2, |i, x| (i, x * x));
//! assert_eq!(squares, vec![(0, 1), (1, 4), (2, 9), (3, 16)]);
//!
//! // The instrumented map: each item records into its own shard of the
//! // caller's sinks; shards merge back in input order.
//! let obs = rcs_obs::Registry::new();
//! let sinks = rcs_obs::Sinks::counters(&obs);
//! let doubled = rcs_parallel::par_map(vec![1u64, 2, 3], 2, sinks, |_| String::new(), |_, x, shard| {
//!     shard.obs.inc("items.seen");
//!     x * 2
//! });
//! assert_eq!(doubled, vec![2, 4, 6]);
//! assert_eq!(obs.snapshot().counter("items.seen"), 3);
//! ```

#![warn(missing_docs)]
// Resilience gate: non-test code in this crate must never take the lazy
// panic path — a worker that `unwrap`s poisons a whole pool. Explicit
// `panic!`/`unreachable!` with a message remain available for genuine
// invariant violations.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::ops::Range;
use std::sync::mpsc;
use std::sync::{Mutex, PoisonError};

use rcs_obs::{Shard, Sinks};

/// Environment variable overriding the worker count (`thread_count`).
pub const THREADS_ENV: &str = "RCS_THREADS";

/// Resolves the worker count for parallel sweeps.
///
/// Honours `RCS_THREADS` when it parses as a positive integer (the CI
/// matrix pins it to 1 and 4 so both the serial and the pooled path are
/// exercised on every push); otherwise falls back to
/// [`std::thread::available_parallelism`], and to 1 if even that is
/// unavailable. Results never depend on this value — only wall-clock
/// time does.
#[must_use]
pub fn thread_count() -> usize {
    parse_threads(std::env::var(THREADS_ENV).ok().as_deref()).unwrap_or_else(|| {
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    })
}

/// Parses an `RCS_THREADS`-style override; `None` means "not set or
/// invalid, use the machine default".
fn parse_threads(var: Option<&str>) -> Option<usize> {
    var.and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n > 0)
}

/// Partitions `0..total` into fixed-size chunks of `chunk_size` (the
/// last chunk may be shorter).
///
/// The partition depends only on `total` and `chunk_size` — never on the
/// thread count — which is what lets a chunked Monte-Carlo assign RNG
/// stream `i` to chunk `i` and stay bit-identical from 1 thread to N.
///
/// # Panics
///
/// Panics if `chunk_size` is zero.
#[must_use]
pub fn fixed_chunks(total: usize, chunk_size: usize) -> Vec<Range<usize>> {
    assert!(chunk_size > 0, "chunk_size must be positive");
    (0..total)
        .step_by(chunk_size)
        .map(|start| start..(start + chunk_size).min(total))
        .collect()
}

/// Maps `f` over `items` on up to `threads` scoped workers, returning
/// results in **input order**.
///
/// `f` receives each item's index alongside the item, so stages can
/// label work (e.g. pick RNG stream `i`) without threading state through
/// the closure. With `threads <= 1` (or fewer than two items) the map
/// runs inline on the caller's thread — that path is the reference the
/// pooled path is tested to be bit-identical against.
///
/// Work distribution is a channel work queue: items are enqueued once,
/// workers pull the next `(index, item)` whenever they finish one, and
/// every result is slotted back by index. Scheduling order therefore
/// affects only timing, never the returned `Vec`.
///
/// # Panics
///
/// Panics if any invocation of `f` panics (the panic is propagated once
/// all workers have stopped).
pub fn par_map_indexed<T, R, F>(items: Vec<T>, threads: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    let n = items.len();
    if threads <= 1 || n <= 1 {
        return items
            .into_iter()
            .enumerate()
            .map(|(i, x)| f(i, x))
            .collect();
    }

    pooled_map(items, threads.min(n), &f).0
}

/// The pooled path shared by [`par_map_indexed`] and the sink-taking
/// maps: runs `workers` scoped threads over a channel
/// work queue and returns the input-order results plus how many items
/// each worker happened to process (a scheduling artifact — callers
/// that surface it must treat it as non-golden).
fn pooled_map<T, R, F>(items: Vec<T>, workers: usize, f: &F) -> (Vec<R>, Vec<u64>)
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    let n = items.len();
    // Work queue: pre-filled, sender dropped, so `recv` drains the queue
    // and then reports disconnection — no sentinel values needed.
    let (work_tx, work_rx) = mpsc::channel::<(usize, T)>();
    for pair in items.into_iter().enumerate() {
        // The receiver is alive until after this loop, so the send can
        // only fail if the channel itself is broken — unrecoverable.
        if work_tx.send(pair).is_err() {
            unreachable!("work-queue receiver dropped while enqueueing");
        }
    }
    drop(work_tx);
    let work_rx = Mutex::new(work_rx);

    let (result_tx, result_rx) = mpsc::channel::<(usize, R)>();
    let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
    let tallies = Mutex::new(vec![0u64; workers]);

    std::thread::scope(|scope| {
        for worker in 0..workers {
            let result_tx = result_tx.clone();
            let work_rx = &work_rx;
            let tallies = &tallies;
            let f = &f;
            scope.spawn(move || {
                let mut processed = 0u64;
                loop {
                    // Hold the lock only while pulling the next item, not
                    // while computing on it. A poisoned lock just means a
                    // sibling worker panicked between lock and unlock;
                    // the queue itself is still consistent, so keep
                    // draining it rather than cascading the failure.
                    let next = work_rx
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner)
                        .recv();
                    let Ok((index, item)) = next else { break };
                    let result = f(index, item);
                    processed += 1;
                    if result_tx.send((index, result)).is_err() {
                        break;
                    }
                }
                tallies.lock().unwrap_or_else(PoisonError::into_inner)[worker] = processed;
            });
        }
        drop(result_tx);
        for (index, result) in result_rx {
            slots[index] = Some(result);
        }
    });

    let results = slots
        .into_iter()
        .map(|r| r.unwrap_or_else(|| unreachable!("every index produced exactly one result")))
        .collect();
    (
        results,
        tallies.into_inner().unwrap_or_else(PoisonError::into_inner),
    )
}

/// One worker panic caught by [`isolate`] or [`par_map_isolated`],
/// converted into a value: the panic payload's message when it
/// was a string (the overwhelmingly common case — `panic!`, `assert!`),
/// a fixed placeholder otherwise. The message of a deterministic panic
/// is itself deterministic, so it may appear in golden artifacts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerPanic {
    /// Human-readable panic message.
    pub message: String,
}

impl WorkerPanic {
    fn from_payload(payload: &(dyn std::any::Any + Send)) -> Self {
        let message = payload
            .downcast_ref::<&'static str>()
            .map(|s| (*s).to_owned())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".to_owned());
        Self { message }
    }
}

impl core::fmt::Display for WorkerPanic {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "worker panicked: {}", self.message)
    }
}

impl std::error::Error for WorkerPanic {}

/// Runs `f` under `catch_unwind`, converting a panic into a
/// [`WorkerPanic`] value instead of unwinding into the caller. This is
/// the per-attempt containment primitive the query engine's retry
/// ladder uses; [`par_map_isolated`] applies it per item.
///
/// `AssertUnwindSafe` is deliberate: callers of this workspace pass
/// closures over plain data (queries, solver inputs) whose partial
/// state is discarded on `Err`, so broken invariants cannot leak.
///
/// # Errors
///
/// Returns the caught panic as a [`WorkerPanic`].
pub fn isolate<R>(f: impl FnOnce() -> R) -> Result<R, WorkerPanic> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f))
        .map_err(|payload| WorkerPanic::from_payload(payload.as_ref()))
}

/// Maps `f` over `items` on up to `threads` scoped workers, giving each
/// item its own telemetry shard ([`Sinks::shard`]) and merging the
/// shards back into `sinks` in **input order** ([`Sinks::absorb`]).
///
/// That merge discipline is what keeps every golden channel
/// bit-identical at any `RCS_THREADS`: no matter which worker recorded a
/// shard, or when, the merged counters, trace samples and span trees are
/// the same as serial inline execution would produce. Each item runs
/// inside one span labelled `label(i)` on its shard span sink, and its
/// trace channels merge under the prefix `label(i)` (an empty label
/// merges them unprefixed, concatenated in input order). Every item's
/// shard registry is live even when `sinks` is disabled, so per-item
/// work budgets still see the item's work.
///
/// The map is recorded under the golden `parallel.maps` /
/// `parallel.tasks` counters (workload shape does not depend on
/// scheduling), while the worker count and the largest per-worker item
/// tally go to the non-golden note channel (`parallel.workers`,
/// `parallel.worker_tasks.max`), because those *are* scheduling.
///
/// # Panics
///
/// Panics if any invocation of `f` panics (see [`par_map_isolated`]
/// for the containing form).
pub fn par_map<T, R, F, L>(
    items: Vec<T>,
    threads: usize,
    sinks: Sinks<'_>,
    label: L,
    f: F,
) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T, Sinks<'_>) -> R + Sync,
    L: Fn(usize) -> String + Sync,
{
    sinks.obs.inc("parallel.maps");
    sinks.obs.add("parallel.tasks", items.len() as u64);
    par_map_shards(items, threads, sinks, label, f)
}

/// [`par_map`] with per-item panic isolation: each invocation of `f`
/// runs under [`isolate`], so a panicking item becomes its own
/// `Err(WorkerPanic)` slot while every other item's result survives.
/// The partition into `Ok`/`Err` is a pure function of the items (a
/// deterministic closure panics deterministically), never of the
/// scheduler, so isolated maps stay bit-identical at every
/// `RCS_THREADS`.
///
/// A panicked item's shard is merged like any other — it keeps the
/// deterministic prefix of telemetry recorded before the panic, and
/// its item span is closed, so merged span trees stay balanced — and
/// every caught panic lands one count on the golden
/// `resilience.worker.panics` counter right after its shard, in input
/// order.
pub fn par_map_isolated<T, R, F, L>(
    items: Vec<T>,
    threads: usize,
    sinks: Sinks<'_>,
    label: L,
    f: F,
) -> Vec<Result<R, WorkerPanic>>
where
    T: Send,
    R: Send,
    F: Fn(usize, T, Sinks<'_>) -> R + Sync,
    L: Fn(usize) -> String + Sync,
{
    sinks.obs.inc("parallel.maps");
    sinks.obs.add("parallel.tasks", items.len() as u64);
    let shards = run_shards(items, threads, sinks, &label, |i, x, shard| {
        isolate(|| f(i, x, shard))
    });
    shards
        .into_iter()
        .enumerate()
        .map(|(i, (result, shard))| {
            sinks.absorb(&label(i), &shard);
            if result.is_err() {
                sinks.obs.inc("resilience.worker.panics");
                sinks.obs.work("resilience.worker.panics", 1);
            }
            result
        })
        .collect()
}

/// [`par_map`] **without** the golden map-shape counters
/// (`parallel.maps` / `parallel.tasks`) — the shard-collect primitive
/// for resumable kernel sessions. A session that records its map shape
/// once at construction can then run the same work in one call or in
/// several batches: each batch merges its shards in input order, and
/// because this primitive records no golden counters of its own, the
/// merged sinks are bit-identical however the items were split across
/// calls. The non-golden worker notes are still emitted per call (they
/// are scheduling, not results).
pub fn par_map_shards<T, R, F, L>(
    items: Vec<T>,
    threads: usize,
    sinks: Sinks<'_>,
    label: L,
    f: F,
) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T, Sinks<'_>) -> R + Sync,
    L: Fn(usize) -> String + Sync,
{
    run_shards(items, threads, sinks, &label, f)
        .into_iter()
        .enumerate()
        .map(|(i, (result, shard))| {
            sinks.absorb(&label(i), &shard);
            result
        })
        .collect()
}

/// The shared body of the sink-taking maps: runs every item on its own
/// [`Shard`] inside a `label(i)` span, records the worker notes, and
/// hands back the results with their unmerged shards in input order.
fn run_shards<T, R, F, L>(
    items: Vec<T>,
    threads: usize,
    sinks: Sinks<'_>,
    label: &L,
    f: F,
) -> Vec<(R, Shard)>
where
    T: Send,
    R: Send,
    F: Fn(usize, T, Sinks<'_>) -> R + Sync,
    L: Fn(usize) -> String + Sync,
{
    let n = items.len();
    let worker = |i: usize, item: T| {
        let shard = sinks.shard();
        let s = shard.sinks();
        s.spans.enter(&label(i), s.obs);
        let result = f(i, item, s);
        s.spans.exit(s.obs);
        (result, shard)
    };
    let (pairs, tallies) = if threads <= 1 || n <= 1 {
        let pairs = items
            .into_iter()
            .enumerate()
            .map(|(i, x)| worker(i, x))
            .collect();
        (pairs, vec![n as u64])
    } else {
        pooled_map(items, threads.min(n), &worker)
    };
    sinks.obs.note("parallel.workers", tallies.len() as u64);
    sinks.obs.note(
        "parallel.worker_tasks.max",
        tallies.iter().copied().max().unwrap_or(0),
    );
    pairs
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcs_obs::span::{render_ndjson, SpanSink};
    use rcs_obs::trace::{ChannelKind, TraceRecorder, TraceSnapshot};
    use rcs_obs::{Registry, Snapshot};
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn results_come_back_in_input_order_at_every_thread_count() {
        let items: Vec<usize> = (0..97).collect();
        let expected: Vec<usize> = items.iter().map(|&x| x * x).collect();
        for threads in [1, 2, 4, 7, 128] {
            let got = par_map_indexed(items.clone(), threads, |i, x| {
                assert_eq!(i, x, "index must match the item's input position");
                x * x
            });
            assert_eq!(got, expected, "threads = {threads}");
        }
    }

    #[test]
    fn every_item_is_processed_exactly_once() {
        let calls = AtomicUsize::new(0);
        let results = par_map_indexed((0..1000).collect::<Vec<usize>>(), 8, |_, x| {
            calls.fetch_add(1, Ordering::Relaxed);
            x
        });
        assert_eq!(calls.load(Ordering::Relaxed), 1000);
        assert_eq!(results, (0..1000).collect::<Vec<usize>>());
    }

    #[test]
    fn borrows_caller_state_without_arc() {
        let offsets = [10usize, 20, 30];
        let got = par_map_indexed(vec![1usize, 2, 3], 3, |i, x| offsets[i] + x);
        assert_eq!(got, vec![11, 22, 33]);
    }

    #[test]
    fn empty_and_singleton_inputs_work() {
        let empty: Vec<u8> = Vec::new();
        assert!(par_map_indexed(empty, 4, |_, x: u8| x).is_empty());
        assert_eq!(par_map_indexed(vec![9u8], 4, |i, x| (i, x)), vec![(0, 9)]);
    }

    #[test]
    fn more_threads_than_items_is_fine() {
        assert_eq!(
            par_map_indexed(vec![1, 2], 64, |_, x: u64| x + 1),
            vec![2, 3]
        );
    }

    #[test]
    fn nested_maps_compose() {
        // An outer sweep whose stages are themselves parallel — the shape
        // the experiment harness uses (architectures × MC chunks).
        let got = par_map_indexed(vec![3usize, 4, 5], 2, |_, n| {
            par_map_indexed((0..n).collect::<Vec<usize>>(), 2, |_, x| x)
                .into_iter()
                .sum::<usize>()
        });
        assert_eq!(got, vec![3, 6, 10]);
    }

    #[test]
    #[should_panic(expected = "scoped thread panicked")]
    fn worker_panics_propagate() {
        let _ = par_map_indexed(vec![0usize, 1, 2, 3], 2, |_, x| {
            assert!(x != 2, "worker boom");
            x
        });
    }

    #[test]
    fn fixed_chunks_cover_the_range_without_overlap() {
        for (total, chunk) in [(0usize, 5usize), (1, 5), (5, 5), (6, 5), (257, 64)] {
            let chunks = fixed_chunks(total, chunk);
            let mut covered = 0;
            for (i, r) in chunks.iter().enumerate() {
                assert_eq!(
                    r.start, covered,
                    "chunk {i} must start where {total}/{chunk} left off"
                );
                assert!(r.len() <= chunk);
                covered = r.end;
            }
            assert_eq!(covered, total);
            // all but the last chunk are full-size
            for r in chunks.iter().rev().skip(1) {
                assert_eq!(r.len(), chunk);
            }
        }
    }

    #[test]
    #[should_panic(expected = "chunk_size must be positive")]
    fn zero_chunk_size_panics() {
        let _ = fixed_chunks(10, 0);
    }

    /// Live sinks of one test run: counters, a small trace recorder (so
    /// decimation kicks in) and a span sink.
    fn live() -> (Registry, TraceRecorder, SpanSink) {
        (
            Registry::new(),
            TraceRecorder::with_capacity(16),
            SpanSink::new(),
        )
    }

    fn bundle<'a>(sinks: &'a (Registry, TraceRecorder, SpanSink)) -> Sinks<'a> {
        Sinks {
            obs: &sinks.0,
            trace: &sinks.1,
            spans: &sinks.2,
        }
    }

    /// Everything a run left in its sinks, golden channels only.
    fn golden(sinks: &(Registry, TraceRecorder, SpanSink)) -> (Snapshot, TraceSnapshot, String) {
        (
            sinks.0.snapshot(),
            sinks.1.snapshot(),
            render_ndjson(&sinks.2.snapshot()),
        )
    }

    /// One item's work: a counter, a histogram, a 40-sample trace
    /// series and a nested span carrying work units.
    fn record(x: u64, shard: Sinks<'_>) -> u64 {
        shard.obs.inc("seen");
        shard.obs.record_histogram("vals", &[10, 20], x);
        for step in 0..40u64 {
            #[allow(clippy::cast_precision_loss)]
            shard.trace.record_named(
                "series",
                ChannelKind::Scalar,
                step as f64,
                (x * 100 + step) as f64,
            );
        }
        shard.spans.enter("solve", shard.obs);
        shard.obs.work("units", 10 + x);
        shard.spans.exit(shard.obs);
        x * 2
    }

    #[test]
    fn sink_map_merges_every_channel_in_input_order_at_every_thread_count() {
        for labelled in [false, true] {
            let label = |i: usize| {
                if labelled {
                    format!("cell {i}")
                } else {
                    String::new()
                }
            };
            let run = |threads: usize| {
                let sinks = live();
                sinks.2.enter("batch", &sinks.0);
                let got = par_map(
                    (0..33).collect::<Vec<u64>>(),
                    threads,
                    bundle(&sinks),
                    label,
                    {
                        |i, x, shard| {
                            assert_eq!(i as u64, x, "index must match the input position");
                            record(x, shard)
                        }
                    },
                );
                sinks.2.exit(&sinks.0);
                assert_eq!(got, (0..33).map(|x| 2 * x).collect::<Vec<u64>>());
                golden(&sinks)
            };
            let reference = run(1);
            let (snap, trace, spans) = &reference;
            assert_eq!(snap.counter("seen"), 33);
            assert_eq!(snap.counter("parallel.maps"), 1);
            assert_eq!(snap.counter("parallel.tasks"), 33);
            assert_eq!(snap.histogram("vals").unwrap().counts, vec![11, 10, 12]);
            if labelled {
                assert_eq!(trace.channels.len(), 33);
                assert!(trace.channel("cell 0/series").is_some());
                assert_eq!(spans.matches("\"label\":\"cell ").count(), 33);
            } else {
                // unlabelled shards concatenate into one channel through
                // the bounded decimation, in input order
                assert_eq!(trace.channels.len(), 1);
                let c = trace.channel("series").unwrap();
                assert!(c.pushed > 0 && c.pushed <= 33 * 40);
                assert!(c.samples.len() <= 16);
            }
            for threads in [2, 4, 7] {
                assert_eq!(
                    run(threads),
                    reference,
                    "threads = {threads}, labelled = {labelled}"
                );
            }
        }
    }

    #[test]
    fn isolated_map_contains_panics_with_balanced_spans_at_every_thread_count() {
        let body = |x: u64, shard: Sinks<'_>| {
            shard.obs.inc("pre_panic_work");
            shard.spans.enter("solve", shard.obs);
            shard.obs.work("units", 10 + x);
            shard.spans.exit(shard.obs);
            assert!(x % 5 != 2, "injected panic on {x}");
            x * 10
        };
        let run = |threads: usize| {
            let sinks = live();
            sinks.2.enter("batch", &sinks.0);
            let got = par_map_isolated(
                (0..20).collect::<Vec<u64>>(),
                threads,
                bundle(&sinks),
                |i| format!("item.{i}"),
                |_, x, shard| body(x, shard),
            );
            sinks.2.exit(&sinks.0);
            (got, golden(&sinks))
        };
        let (ref_got, reference) = run(1);
        assert_eq!(ref_got.len(), 20, "no item may be lost");
        for (i, r) in ref_got.iter().enumerate() {
            if i % 5 == 2 {
                let e = r.as_ref().unwrap_err();
                assert!(e.message.contains("injected panic"), "{e:?}");
            } else {
                assert_eq!(*r, Ok((i as u64) * 10));
            }
        }
        let (snap, _, spans) = &reference;
        assert_eq!(snap.counter("resilience.worker.panics"), 4);
        assert_eq!(snap.counter("profile.resilience.worker.panics"), 4);
        // the deterministic pre-panic prefix of every shard is kept
        assert_eq!(snap.counter("pre_panic_work"), 20);
        // each item span present (the panicked ones included), balanced
        assert_eq!(spans.matches("\"label\":\"item.").count(), 20);
        assert_eq!(spans.matches("\"label\":\"solve\"").count(), 20);
        for threads in [2, 4, 7] {
            let (got, golden) = run(threads);
            assert_eq!(got, ref_got, "threads = {threads}");
            assert_eq!(golden, reference, "threads = {threads}");
        }
        // disabled sinks: the same results, nothing recorded
        let off = par_map_isolated(
            (0..20).collect::<Vec<u64>>(),
            4,
            Sinks::disabled(),
            |i| format!("item.{i}"),
            |_, x, shard| body(x, shard),
        );
        assert_eq!(off, ref_got);
        assert!(Registry::disabled().snapshot().is_empty());
    }

    #[test]
    fn shards_are_live_even_when_the_caller_sinks_are_disabled() {
        for threads in [1, 2, 4, 7] {
            let got = par_map(
                (0..9).collect::<Vec<u64>>(),
                threads,
                Sinks::disabled(),
                |_| String::new(),
                |_, x, shard| {
                    assert!(shard.obs.is_enabled(), "per-item budgets read this shard");
                    assert!(!shard.trace.is_enabled() && !shard.spans.is_enabled());
                    shard.obs.work("units", x);
                    shard.obs.work_units()
                },
            );
            assert_eq!(got, (0..9).collect::<Vec<u64>>(), "threads = {threads}");
        }
    }

    #[test]
    fn shard_map_split_across_calls_matches_one_map() {
        let work = |x: u64, shard: Sinks<'_>| {
            shard.obs.add("units", x);
            #[allow(clippy::cast_precision_loss)]
            shard
                .trace
                .record_named("series", ChannelKind::Scalar, x as f64, (x * 7) as f64);
            x * 7
        };
        let whole = live();
        let got_a = par_map(
            (0..24).collect::<Vec<u64>>(),
            4,
            bundle(&whole),
            |_| String::new(),
            |_, x, shard| work(x, shard),
        );
        // Split run: map-shape counters recorded once up front, then the
        // same items through par_map_shards in two batches.
        let split = live();
        split.0.inc("parallel.maps");
        split.0.add("parallel.tasks", 24);
        let mut got_b = Vec::new();
        for batch in [(0u64..9).collect::<Vec<_>>(), (9..24).collect::<Vec<_>>()] {
            got_b.extend(par_map_shards(
                batch,
                4,
                bundle(&split),
                |_| String::new(),
                |_, x, shard| work(x, shard),
            ));
        }
        assert_eq!(got_a, got_b);
        assert_eq!(golden(&whole), golden(&split));
    }

    #[test]
    fn worker_tallies_are_notes_not_golden() {
        let obs = Registry::new();
        let _ = par_map(
            (0..20).collect::<Vec<u64>>(),
            4,
            Sinks::counters(&obs),
            |_| String::new(),
            |_, x, _| x,
        );
        let notes = obs.notes();
        let workers = notes.iter().find(|(k, _)| k == "parallel.workers");
        assert_eq!(workers, Some(&("parallel.workers".to_owned(), 4)));
        // scheduling artifacts never leak into the golden snapshot
        assert_eq!(obs.snapshot().counter("parallel.workers"), 0);
    }

    #[test]
    fn isolate_converts_panics_into_values() {
        assert_eq!(isolate(|| 41 + 1), Ok(42));
        let err = isolate(|| -> u32 { panic!("boom {}", 7) }).unwrap_err();
        assert_eq!(err.message, "boom 7");
        let err = isolate(|| -> u32 { std::panic::panic_any(13u64) }).unwrap_err();
        assert_eq!(err.message, "non-string panic payload");
    }

    #[test]
    fn thread_env_parsing() {
        assert_eq!(parse_threads(None), None);
        assert_eq!(parse_threads(Some("")), None);
        assert_eq!(parse_threads(Some("0")), None);
        assert_eq!(parse_threads(Some("-3")), None);
        assert_eq!(parse_threads(Some("4")), Some(4));
        assert_eq!(parse_threads(Some(" 16 ")), Some(16));
        assert_eq!(parse_threads(Some("lots")), None);
        assert!(thread_count() >= 1);
    }
}
