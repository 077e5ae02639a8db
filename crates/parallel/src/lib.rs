//! Deterministic parallel execution for the `rcs-sim` workspace.
//!
//! Every quantitative figure in this reproduction is a pure function of
//! a `u64` seed, and the determinism contract (see `DESIGN.md`) says it
//! must stay one at **any** thread count. This crate supplies the
//! execution half of that contract with nothing but `std`:
//!
//! - [`par_map_indexed`] — a scoped thread pool (the calling thread
//!   plus `std::thread::scope` workers, all pulling from one shared work
//!   queue) whose results are always collected in **input order**, so a
//!   parallel map is observably identical to the serial `iter().map()`
//!   no matter how the items were scheduled;
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
//!   the golden `resilience.worker.panics` counter, in input order. Its
//!   pooled path starts items largest-first by a caller-supplied cost;
//! - [`par_map_shards`] — [`par_map`] without the map-shape counters,
//!   for resumable sessions that split one logical map across calls.
//!
//! The pool is deliberately not work-stealing and not persistent. Each
//! map builds it afresh: the caller becomes worker 0, spawns the other
//! `threads - 1` workers as scoped threads and works the queue beside
//! them, so a map spawns one thread fewer than it has workers and no
//! thread ever blocks idle waiting for results. That spawn is most of
//! the fixed cost of a map: on a 2-vCPU x86-64 VM a map of 16 trivial
//! items at 2 threads takes ≈35 µs (perfbench's
//! `parallel.dispatch_us_per_item` reads ≈2.2 µs), against items of
//! 0.1–1 ms for a query-batch miss and more for a fault drill.
//! [`par_map_isolated`] takes a per-item cost estimate and starts the
//! largest items first (ties in input order), so the last item to start
//! is a small one and no worker idles behind a late large item. A
//! resident pool would save the spawn, but handing it closures that
//! borrow the caller's stack needs `unsafe` lifetime erasure, which this
//! workspace does not use outside tests; scoped threads keep every
//! closure borrow-checked (no `'static` bounds, no `Arc`).
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
use std::panic::AssertUnwindSafe;
use std::sync::{Mutex, PoisonError};

use rcs_obs::{Shard, Sinks};

/// Environment variable overriding the worker count (`thread_count`).
pub(crate) const THREADS_ENV: &str = "RCS_THREADS";

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

/// Maps `f` over `items` on up to `threads` workers, returning results
/// in **input order**.
///
/// `f` receives each item's index alongside the item, so stages can
/// label work (e.g. pick RNG stream `i`) without threading state through
/// the closure. With `threads <= 1` (or fewer than two items) the map
/// runs inline on the caller's thread — that path is the reference the
/// pooled path is tested to be bit-identical against.
///
/// Otherwise the caller is worker 0: it spawns `threads - 1` scoped
/// workers (never more than there are items) and all of them pull the
/// next `(index, item)` from one shared queue whenever they finish one.
/// Every result is put back by index, so scheduling order affects only
/// timing, never the returned `Vec`.
///
/// # Panics
///
/// Panics if any invocation of `f` panics, on whichever worker ran it.
/// The panic is re-raised once all workers have stopped, as
/// `a scoped thread panicked: <message>`.
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

    pooled_map(items.into_iter().enumerate(), threads.min(n), &f).0
}

/// The pooled path shared by [`par_map_indexed`] and the sink-taking
/// maps. `queue` yields `(input index, item)` pairs in dispatch order.
/// The calling thread is worker 0: it spawns `workers - 1` scoped
/// threads and then drains the same work queue alongside them, so a
/// map costs one spawn fewer than it has workers and the caller never
/// sits idle waiting for results. Returns the input-order results plus
/// how many items each worker happened to process, the caller first (a
/// scheduling artifact — callers that surface it must treat it as
/// non-golden).
///
/// A panic in any worker, the caller included, is re-raised once every
/// worker has stopped, as `a scoped thread panicked: <message>`.
fn pooled_map<I, T, R, F>(queue: I, workers: usize, f: &F) -> (Vec<R>, Vec<u64>)
where
    I: ExactSizeIterator<Item = (usize, T)> + Send,
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    let n = queue.len();
    // Work queue: each worker pulls the next `(index, item)` under the
    // lock and computes outside it. Pulling cannot panic, so the lock is
    // never poisoned in practice; if it were, the iterator would still be
    // consistent, so keep draining it.
    let queue = Mutex::new(queue);
    let drain = || {
        let mut done = Vec::new();
        loop {
            let next = queue.lock().unwrap_or_else(PoisonError::into_inner).next();
            let Some((index, item)) = next else { break };
            done.push((index, f(index, item)));
        }
        done
    };
    let per_worker: Vec<std::thread::Result<Vec<(usize, R)>>> = std::thread::scope(|scope| {
        let spawned: Vec<_> = (1..workers).map(|_| scope.spawn(drain)).collect();
        // The caller's panic is caught only so that the spawned workers
        // are joined before it is re-raised below; nothing it left
        // half-done is read.
        let caller = std::panic::catch_unwind(AssertUnwindSafe(drain));
        std::iter::once(caller)
            .chain(spawned.into_iter().map(|h| h.join()))
            .collect()
    });

    let mut tallies = Vec::with_capacity(workers);
    let mut indexed = Vec::with_capacity(n);
    for done in per_worker {
        match done {
            Ok(done) => {
                tallies.push(done.len() as u64);
                indexed.extend(done);
            }
            Err(payload) => panic!(
                "a scoped thread panicked: {}",
                WorkerPanic::from_payload(payload.as_ref()).message
            ),
        }
    }
    // Every index was pulled exactly once, so sorting by it restores
    // input order whichever worker ran which item.
    indexed.sort_unstable_by_key(|&(index, _)| index);
    (indexed.into_iter().map(|(_, r)| r).collect(), tallies)
}

/// The pooled dispatch order of `items`: descending `cost`, ties in
/// input order (a stable sort), each item paired with its input index.
/// Starting the most expensive items first keeps one late large item
/// from running alone while the other workers idle.
fn largest_first<T>(items: Vec<T>, cost: impl Fn(&T) -> u64) -> Vec<(usize, T)> {
    let mut queue: Vec<(usize, T)> = items.into_iter().enumerate().collect();
    queue.sort_by_key(|(_, item)| std::cmp::Reverse(cost(item)));
    queue
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
    std::panic::catch_unwind(AssertUnwindSafe(f))
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
/// shard registry keeps at least the work clock, even when `sinks` is
/// disabled, so per-item work budgets still see the item's work.
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
/// `cost` estimates each item's relative cost: the pooled path starts
/// items in descending cost, ties in input order, so a constant cost
/// keeps plain first-in-first-out dispatch. Only timing depends on it;
/// results, shard merges and the panic tally stay in input order.
///
/// A panicked item's shard is merged like any other — it keeps the
/// deterministic prefix of telemetry recorded before the panic, and
/// its item span is closed, so merged span trees stay balanced — and
/// every caught panic lands one count on the golden
/// `resilience.worker.panics` counter right after its shard, in input
/// order.
pub fn par_map_isolated<T, R, F, L, C>(
    items: Vec<T>,
    threads: usize,
    sinks: Sinks<'_>,
    label: L,
    cost: C,
    f: F,
) -> Vec<Result<R, WorkerPanic>>
where
    T: Send,
    R: Send,
    F: Fn(usize, T, Sinks<'_>) -> R + Sync,
    L: Fn(usize) -> String + Sync,
    C: Fn(&T) -> u64,
{
    sinks.obs.inc("parallel.maps");
    sinks.obs.add("parallel.tasks", items.len() as u64);
    let shards = run_shards(items, threads, sinks, &label, cost, |i, x, shard| {
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
    run_shards(items, threads, sinks, &label, |_| 0, f)
        .into_iter()
        .enumerate()
        .map(|(i, (result, shard))| {
            sinks.absorb(&label(i), &shard);
            result
        })
        .collect()
}

/// The shared body of the sink-taking maps: runs every item on its own
/// [`Shard`] inside a `label(i)` span (pooled items start in
/// [`largest_first`] order of `cost`), records the worker notes, and
/// hands back the results with their unmerged shards in input order.
fn run_shards<T, R, F, L>(
    items: Vec<T>,
    threads: usize,
    sinks: Sinks<'_>,
    label: &L,
    cost: impl Fn(&T) -> u64,
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
        pooled_map(
            largest_first(items, cost).into_iter(),
            threads.min(n),
            &worker,
        )
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
    fn a_panic_on_any_worker_carries_its_message() {
        // Every item panics, so the caller's own item does too.
        let caught = isolate(|| par_map_indexed(vec![0u8; 6], 3, |_, _| -> u8 { panic!("boom") }));
        assert_eq!(
            caught.unwrap_err().message,
            "a scoped thread panicked: boom"
        );
    }

    #[test]
    fn worker_tallies_cover_every_worker_and_sum_to_the_item_count() {
        for (n, workers) in [(2usize, 2usize), (5, 2), (97, 4), (10, 7), (3, 3)] {
            let (got, tallies) = pooled_map((0..n).enumerate(), workers, &|_, x| x);
            assert_eq!(got, (0..n).collect::<Vec<usize>>());
            assert_eq!(tallies.len(), workers, "n = {n}, workers = {workers}");
            assert_eq!(
                tallies.iter().sum::<u64>(),
                n as u64,
                "n = {n}, workers = {workers}"
            );
        }
    }

    #[test]
    fn the_caller_is_worker_zero() {
        // One item per worker, each held at a barrier until every worker
        // holds one: the map can only finish if the caller takes an item.
        let workers = 3;
        let barrier = std::sync::Barrier::new(workers);
        let caller = std::thread::current().id();
        let (ran_on, tallies) = pooled_map(
            vec![(); workers].into_iter().enumerate(),
            workers,
            &|_, ()| {
                barrier.wait();
                std::thread::current().id()
            },
        );
        assert_eq!(tallies, vec![1; workers]);
        assert_eq!(ran_on.iter().filter(|&&id| id == caller).count(), 1);
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
            #[allow(clippy::cast_precision_loss)]
            shard
                .trace
                .record_named("series", ChannelKind::Scalar, x as f64, x as f64);
            shard.spans.enter("solve", shard.obs);
            shard.obs.work("units", 10 + x);
            shard.spans.exit(shard.obs);
            assert!(x % 5 != 2, "injected panic on {x}");
            x * 10
        };
        // A cost falling with the input index makes the pooled path start
        // the items in reverse input order; nothing observable may change.
        let run = |threads: usize, reversed: bool| {
            let sinks = live();
            sinks.2.enter("batch", &sinks.0);
            let got = par_map_isolated(
                (0..20).collect::<Vec<u64>>(),
                threads,
                bundle(&sinks),
                |i| format!("item.{i}"),
                |&x| if reversed { 100 - x } else { 0 },
                |_, x, shard| body(x, shard),
            );
            sinks.2.exit(&sinks.0);
            (got, golden(&sinks))
        };
        let (ref_got, reference) = run(1, false);
        assert_eq!(ref_got.len(), 20, "no item may be lost");
        for (i, r) in ref_got.iter().enumerate() {
            if i % 5 == 2 {
                let e = r.as_ref().unwrap_err();
                assert!(e.message.contains("injected panic"), "{e:?}");
            } else {
                assert_eq!(*r, Ok((i as u64) * 10));
            }
        }
        let (snap, trace, spans) = &reference;
        assert_eq!(snap.counter("resilience.worker.panics"), 4);
        assert_eq!(snap.counter("profile.resilience.worker.panics"), 4);
        // the deterministic pre-panic prefix of every shard is kept
        assert_eq!(snap.counter("pre_panic_work"), 20);
        assert_eq!(trace.channels.len(), 20);
        // each item span present (the panicked ones included), balanced
        assert_eq!(spans.matches("\"label\":\"item.").count(), 20);
        assert_eq!(spans.matches("\"label\":\"solve\"").count(), 20);
        for threads in [2, 4, 7] {
            for reversed in [false, true] {
                let (got, golden) = run(threads, reversed);
                assert_eq!(got, ref_got, "threads = {threads}, reversed = {reversed}");
                assert_eq!(
                    golden, reference,
                    "threads = {threads}, reversed = {reversed}"
                );
            }
        }
        // disabled sinks: the same results, nothing recorded
        let off = par_map_isolated(
            (0..20).collect::<Vec<u64>>(),
            4,
            Sinks::disabled(),
            |i| format!("item.{i}"),
            |_| 0,
            |_, x, shard| body(x, shard),
        );
        assert_eq!(off, ref_got);
        assert!(Registry::disabled().snapshot().is_empty());
    }

    #[test]
    fn pooled_dispatch_is_descending_cost_with_ties_in_input_order() {
        let costs = [3u64, 9, 1, 9, 3, 0, 9];
        let queue = largest_first(costs.to_vec(), |&c| c);
        let order: Vec<usize> = queue.iter().map(|&(i, _)| i).collect();
        assert_eq!(order, vec![1, 3, 6, 0, 4, 2, 5]);
        // a lone worker drains the queue front to back: that is the
        // dequeue order, and results still come back in input order
        let started = Mutex::new(Vec::new());
        let (got, _) = pooled_map(queue.into_iter(), 1, &|i, c| {
            started.lock().unwrap().push(i);
            c
        });
        assert_eq!(started.into_inner().unwrap(), order);
        assert_eq!(got, costs);
        // a constant cost keeps first-in-first-out dispatch
        let fifo: Vec<usize> = largest_first(costs.to_vec(), |_| 7)
            .into_iter()
            .map(|(i, _)| i)
            .collect();
        assert_eq!(fifo, (0..costs.len()).collect::<Vec<_>>());
    }

    #[test]
    fn shards_keep_the_work_clock_when_the_caller_sinks_are_disabled() {
        for threads in [1, 2, 4, 7] {
            let got = par_map(
                (0..9).collect::<Vec<u64>>(),
                threads,
                Sinks::disabled(),
                |_| String::new(),
                |_, x, shard| {
                    assert!(shard.obs.is_enabled(), "per-item budgets read this shard");
                    assert!(!shard.trace.is_enabled() && !shard.spans.is_enabled());
                    shard.obs.inc("ignored");
                    shard.obs.work("units", x);
                    assert!(shard.obs.snapshot().is_empty(), "clock-only shard");
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
