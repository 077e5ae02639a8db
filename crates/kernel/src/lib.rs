//! rcs-kernel — the unified deterministic stepping kernel.
//!
//! Every long-running loop in the workspace — the thermal transient
//! integrator, the fault-drill scanner, the immersion warmup, the
//! availability Monte-Carlo, the chaos matrix — advances some state on
//! a deterministic schedule while recording golden telemetry. This
//! crate is the one implementation of that shape:
//!
//! * [`grid::Clock`] — a resumable cursor over a `grid::TimeGrid`,
//!   preserving the exact floating-point time arithmetic of each
//!   legacy loop (accumulated `t += dt` for RK4, multiplied
//!   `t = i * dt` with a clamped final step for scans, bare indices
//!   for trials).
//! * [`snap`] — the versioned, CRC-checked, byte-stable snapshot wire
//!   format and its symmetric [`Codec`]: each snapshot type states its
//!   layout in one function that writes on checkpoint and reads on
//!   resume. Floats travel as bit patterns; decoding is total
//!   (structured [`snap::SnapshotError`], never a panic).
//! * [`sinks`] — [`seal_session`] / [`open_session`], which seal a
//!   session's layout together with its observability sinks: golden
//!   counters, histograms, trace channels with their decimation
//!   cursors, and the hierarchical span tree including its open-span
//!   stack (spans are recorded in golden work units, so a resumed run
//!   reproduces the straight run's tree bitwise). Notes are non-golden
//!   and deliberately not captured.
//!
//! # The resume-equivalence contract
//!
//! For every session built on this kernel, `run(n)` is **bitwise**
//! equal to `run(k); checkpoint; restore; run(n - k)` for every `k` —
//! on every channel: final state, verdicts, traces, golden `profile.*`
//! counters, and RNG draws. The differential tests in
//! `tests/kernel_equivalence.rs` and the randomized roundtrip property
//! in this crate's `tests/` directory enforce that contract at
//! `RCS_THREADS` 1, 2 and 4.

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod grid;
pub mod sinks;
pub mod snap;

pub use grid::{Clock, Tick};
pub use sinks::{open_session, seal_session};
pub use snap::{open, seal, Codec, SnapshotError, FORMAT_VERSION, MAGIC};
