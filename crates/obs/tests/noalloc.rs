//! The disabled sinks are free: every record call on the
//! [`Sinks::disabled`] bundle — counters, trace and spans — must return
//! without touching the heap. A counting global allocator proves it —
//! not "fast enough", but **zero allocations**, so entry points called
//! with disabled sinks pay one branch per call and nothing else.
//!
//! Everything lives in one `#[test]` so no sibling test can allocate
//! concurrently and poison the counter delta.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use rcs_obs::trace::ChannelKind;
use rcs_obs::Sinks;

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
            obs.record_histogram_f64("solver.residual", &[1e-9, 1e-6, 1e-3], 1e-7);
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
}
