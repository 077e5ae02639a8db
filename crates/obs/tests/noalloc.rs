//! The disabled sinks are free: every record call on the
//! [`Sinks::disabled`] bundle — counters, trace and spans — must return
//! without touching the heap. A counting global allocator proves it —
//! not "fast enough", but **zero allocations**, so entry points called
//! with disabled sinks pay one branch per call and nothing else.
//!
//! A live registry is nearly as cheap once warm: recording into a name
//! it already holds — counters, both histogram kinds, notes, profile
//! work — looks the name up by `&str` and allocates nothing either.
//!
//! A shard of the disabled bundle keeps only the work clock: every
//! record call on it is allocation-free, and the clock advances by
//! exactly the `profile.*` work recorded.
//!
//! Everything lives in one `#[test]` so no sibling test can allocate
//! concurrently and poison the counter delta.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use rcs_obs::trace::ChannelKind;
use rcs_obs::{Registry, Sinks};

/// Forwards to the system allocator, counting every `alloc`/`realloc`.
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::SeqCst);
        unsafe { System.alloc(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::SeqCst);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Runs `f` and returns how many heap allocations it performed.
fn allocations_in(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    f();
    ALLOCATIONS.load(Ordering::SeqCst) - before
}

#[test]
fn disabled_sinks_never_touch_the_heap() {
    let Sinks { obs, trace, spans } = Sinks::disabled();
    assert!(!obs.is_enabled());
    assert!(!trace.is_enabled());
    assert!(!spans.is_enabled());

    // Channel handles from a disabled recorder are inert sentinels;
    // opening them is part of the hot path and must also be free.
    let chip = trace.channel("t_chip", ChannelKind::Temperature);

    let count = allocations_in(|| {
        for i in 0..1000 {
            obs.inc("solver.calls");
            obs.add("solver.iterations", i);
            obs.work("solver.sweeps", i);
            obs.record_histogram("solver.rung", &[1, 2, 4], i);
            obs.note("workers", 4);

            let ch = trace.channel("t_chip", ChannelKind::Temperature);
            assert_eq!(ch, chip);
            trace.record(ch, f64::from(u32::try_from(i).unwrap()), 45.0);
            trace.record_named("t_bath", ChannelKind::Temperature, 0.0, 30.0);

            // Disabled span recording — enter, nested enter, unbalanced
            // exits, the work-clock read — must all be free too.
            spans.enter("session", obs);
            spans.enter("rung", obs);
            spans.exit(obs);
            spans.exit(obs);
            spans.exit(obs); // unbalanced: still a no-op
            assert_eq!(obs.work_units(), 0);
        }
    });
    assert_eq!(count, 0, "disabled telemetry made {count} heap allocations");

    // And nothing was secretly buffered: the golden snapshots are empty.
    assert!(obs.snapshot().is_empty());
    assert!(trace.snapshot().is_empty());
    assert!(spans.snapshot().is_empty());

    // A warm live registry: the first round inserts every name, the
    // later rounds only find them.
    let live = Registry::new();
    let record = |i: u64| {
        live.inc("solver.calls");
        live.add("solver.iterations", i);
        live.record_histogram("solver.rung", &[1, 2, 4], i);
        live.note("workers", 4);
        live.work("solver.sweeps", i);
    };
    record(0);
    let count = allocations_in(|| (1..1000).for_each(record));
    assert_eq!(
        count, 0,
        "a warm live registry made {count} heap allocations"
    );
    let snap = live.snapshot();
    assert_eq!(snap.counter("solver.calls"), 1000);
    assert_eq!(snap.counter("solver.iterations"), 999 * 1000 / 2);
    assert_eq!(
        snap.histogram("solver.rung").unwrap().counts,
        vec![2, 1, 2, 995]
    );
    assert_eq!(live.notes(), vec![("workers".to_owned(), 4000)]);
    assert_eq!(snap.counter("profile.solver.sweeps"), 999 * 1000 / 2);
    assert_eq!(live.work_units(), 999 * 1000 / 2);

    // A shard of the disabled bundle: a clock-only registry.
    let shard = Sinks::disabled().shard();
    let Sinks { obs, spans, .. } = shard.sinks();
    assert!(obs.is_enabled(), "per-item budgets read the shard's clock");
    let count = allocations_in(|| {
        for i in 0..1000 {
            obs.inc("solver.calls");
            obs.add("solver.iterations", i);
            obs.add("profile.solver.direct", 2);
            obs.work("solver.sweeps", i);
            obs.record_histogram("solver.rung", &[1, 2, 4], i);
            obs.note("workers", 4);
            spans.enter("session", obs);
            spans.exit(obs);
        }
    });
    assert_eq!(count, 0, "a clock-only shard made {count} heap allocations");
    assert_eq!(obs.work_units(), 999 * 1000 / 2 + 2 * 1000);
    assert!(obs.snapshot().is_empty());
    assert!(obs.notes().is_empty());
}
