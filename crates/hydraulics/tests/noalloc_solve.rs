//! A warm Newton solve through a reused [`SolverContext`] allocates only
//! what it hands back: the returned solution's pressure vector and the
//! copy of the converged flows kept as the next seed (the flows vector
//! itself is the previous seed, moved into the solution). Every
//! per-iteration workspace lives in the context, so the count does not
//! grow with the number of Newton iterations.
//!
//! A counting global allocator proves it. Everything lives in one
//! `#[test]` so no sibling test can allocate concurrently and poison the
//! counter delta.

mod common;

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use rcs_fluids::{Coolant, FluidState};
use rcs_hydraulics::{SolveOptions, SolverContext};
use rcs_obs::Sinks;
use rcs_units::Celsius;

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

/// Runs `f` and returns its result with the number of heap allocations
/// it performed.
fn allocations_in<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    let out = f();
    (out, ALLOCATIONS.load(Ordering::SeqCst) - before)
}

/// Heap allocations of one warm solve: the solution's pressures and the
/// next seed.
const WARM_SOLVE_ALLOCATIONS: u64 = 2;

fn oil(t: f64) -> FluidState {
    Coolant::src_dielectric().state(Celsius::new(t))
}

#[test]
fn warm_solves_allocate_a_constant_independent_of_newton_iterations() {
    let net = common::bath_circulation(2, 1.0);
    let off = Sinks::disabled();
    let mut ctx: SolverContext = net.solver_context();
    // cold start and first warm solve size every workspace
    net.solve_with_ladder(&oil(30.0), &SolveOptions::ladder(), &mut ctx, off)
        .unwrap();
    net.solve_with_ladder(&oil(30.5), &SolveOptions::ladder(), &mut ctx, off)
        .unwrap();

    // Warm ladder solves over a drifting oil temperature — the shape of
    // the immersion fixed point.
    let mut default_iterations = 0;
    for step in 0..20u32 {
        let fluid = oil(31.0 + 0.25 * f64::from(step));
        let (sol, count) = allocations_in(|| {
            net.solve_with_ladder(&fluid, &SolveOptions::ladder(), &mut ctx, off)
                .unwrap()
        });
        assert_eq!(
            count,
            WARM_SOLVE_ALLOCATIONS,
            "warm solve {step} ({} iterations) made {count} heap allocations",
            sol.iterations()
        );
        default_iterations = default_iterations.max(sol.iterations());
    }

    // Heavy under-relaxation converges only linearly, so it takes many
    // more iterations than the default full Newton steps; the
    // allocation count must not move.
    let crawl = [SolveOptions::damped(0.05, 1500)];
    for step in 0..5u32 {
        let fluid = oil(36.0 + 0.5 * f64::from(step));
        let (sol, count) = allocations_in(|| {
            net.solve_with_ladder(&fluid, &crawl, &mut ctx, off)
                .unwrap()
        });
        assert!(
            sol.iterations() > 10 * default_iterations,
            "damped solve took {} iterations vs {default_iterations} at the default",
            sol.iterations()
        );
        assert_eq!(
            count,
            WARM_SOLVE_ALLOCATIONS,
            "damped warm solve {step} ({} iterations) made {count} heap allocations",
            sol.iterations()
        );
    }
}
