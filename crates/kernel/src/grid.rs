//! Deterministic stepping clocks.
//!
//! Every simulation loop in the workspace advances one of three time
//! grids, and the arithmetic of each is load-bearing: the ported loops
//! must reproduce their pre-port trajectories **bitwise**, so each grid
//! preserves the exact floating-point recurrence of the loop it
//! replaced.
//!
//! * `TimeGrid::Uniform` — the RK4 transient grid: `dt` fixed,
//!   current time *accumulated* (`t += dt`), matching
//!   `TransientSession`'s accumulation.
//! * `TimeGrid::FixedClamped` — the fault-drill scan grid: time
//!   *multiplied* (`t = i * dt`), final step clamped to the horizon,
//!   matching `FaultDrill::simulate`.
//! * `TimeGrid::Counted` — unitless iteration (Monte-Carlo chunks,
//!   chaos-matrix cells).
//!
//! A [`Clock`] is a cursor over a grid: it hands out [`Tick`]s, can be
//! paused after any tick, serialized into a snapshot, and resumed — the
//! resumed clock produces exactly the ticks the uninterrupted clock
//! would have.

use crate::snap::{Codec, SnapshotError};

/// The shape of a stepping schedule. See the module docs for which
/// legacy loop each variant mirrors.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum TimeGrid {
    /// `steps` equal steps of width `dt` starting at `t0`; time is
    /// accumulated (`t += dt`) so rounding matches `TransientSession`.
    Uniform {
        /// Start time.
        t0: f64,
        /// Step width.
        dt: f64,
        /// Number of steps.
        steps: u64,
    },
    /// Steps of width `dt` with the final step clamped so the grid
    /// never overshoots `horizon`; time is recomputed per step
    /// (`t = i * dt`) so rounding matches the fault-drill scanner.
    FixedClamped {
        /// Nominal step width.
        dt: f64,
        /// Total span to cover.
        horizon: f64,
        /// Number of steps (`ceil(horizon / dt)`, possibly rounded up
        /// one extra by floating-point division — see [`Clock::tick`]).
        steps: u64,
    },
    /// `count` unitless iterations (index only, no time axis).
    Counted {
        /// Number of iterations.
        count: u64,
    },
}

/// One step handed out by a [`Clock`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tick {
    /// Zero-based step index.
    pub index: u64,
    /// Time at the *start* of the step (0.0 on `TimeGrid::Counted`).
    pub t: f64,
    /// Width of this step (0.0 on `TimeGrid::Counted`).
    pub dt: f64,
}

/// A resumable cursor over a `TimeGrid`.
#[derive(Debug, Clone, PartialEq)]
pub struct Clock {
    grid: TimeGrid,
    next_index: u64,
    /// Accumulated time — meaningful only for [`TimeGrid::Uniform`],
    /// where `t += dt` rounding must be preserved across checkpoints.
    t: f64,
}

impl Clock {
    /// A clock over `steps` uniform steps of `dt` from `t0`.
    ///
    /// # Panics
    ///
    /// Panics if `dt` is not finite and positive.
    #[must_use]
    pub fn uniform(t0: f64, dt: f64, steps: u64) -> Self {
        assert!(dt.is_finite() && dt > 0.0, "uniform clock needs dt > 0");
        Self {
            grid: TimeGrid::Uniform { t0, dt, steps },
            next_index: 0,
            t: t0,
        }
    }

    /// A clock covering `horizon` in steps of `dt`, final step clamped.
    /// The step count is `ceil(horizon / dt)` — the same expression the
    /// legacy fault-drill scanner used, including its floating-point
    /// quirk where the division can round *up* past an exact multiple
    /// (e.g. `0.9 / 0.1 == 9.000000000000002`, so `ceil` gives 10). The
    /// cursor guards that seam: a step whose remaining span is `<= 0`
    /// is skipped entirely, so callers never see a zero or negative
    /// `dt`.
    ///
    /// # Panics
    ///
    /// Panics if `dt` is not finite and positive, or `horizon` is not
    /// finite and non-negative.
    #[must_use]
    pub fn fixed_clamped(dt: f64, horizon: f64) -> Self {
        assert!(dt.is_finite() && dt > 0.0, "clamped clock needs dt > 0");
        assert!(
            horizon.is_finite() && horizon >= 0.0,
            "clamped clock needs horizon >= 0"
        );
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let steps = (horizon / dt).ceil() as u64;
        Self {
            grid: TimeGrid::FixedClamped { dt, horizon, steps },
            next_index: 0,
            t: 0.0,
        }
    }

    /// A clock over `count` unitless iterations.
    #[must_use]
    pub fn counted(count: u64) -> Self {
        Self {
            grid: TimeGrid::Counted { count },
            next_index: 0,
            t: 0.0,
        }
    }

    /// `true` once every tick has been produced.
    #[must_use]
    pub fn is_finished(&self) -> bool {
        match self.grid {
            TimeGrid::Uniform { steps, .. } | TimeGrid::FixedClamped { steps, .. } => {
                self.next_index >= steps
            }
            TimeGrid::Counted { count } => self.next_index >= count,
        }
    }

    /// Marks the clock exhausted immediately — the kernel analogue of a
    /// `break` out of a legacy stepping loop (e.g. on a mid-run solver
    /// failure). Subsequent [`Clock::tick`] calls return `None`.
    pub fn finish(&mut self) {
        self.next_index = match self.grid {
            TimeGrid::Uniform { steps, .. } | TimeGrid::FixedClamped { steps, .. } => steps,
            TimeGrid::Counted { count } => count,
        };
    }

    /// Accumulated time after the last tick taken — on
    /// `TimeGrid::Uniform` this is the `t += dt` running sum the RK4
    /// transient observes at, preserved bitwise across checkpoints.
    #[must_use]
    pub fn now(&self) -> f64 {
        self.t
    }

    /// Produces the next [`Tick`], or `None` when the grid is
    /// exhausted. Advancing past the end is a no-op.
    pub fn tick(&mut self) -> Option<Tick> {
        match self.grid {
            TimeGrid::Uniform { dt, steps, .. } => {
                if self.next_index >= steps {
                    return None;
                }
                let tick = Tick {
                    index: self.next_index,
                    t: self.t,
                    dt,
                };
                self.next_index += 1;
                self.t += dt;
                Some(tick)
            }
            TimeGrid::FixedClamped { dt, horizon, steps } => {
                if self.next_index >= steps {
                    return None;
                }
                #[allow(clippy::cast_precision_loss)]
                let t = self.next_index as f64 * dt;
                let remaining = horizon - t;
                if remaining <= 0.0 {
                    // The ceil seam: horizon/dt rounded up past an
                    // exact multiple, scheduling a phantom step with no
                    // span left. Finish instead of emitting dt <= 0.
                    self.next_index = steps;
                    return None;
                }
                let tick = Tick {
                    index: self.next_index,
                    t,
                    dt: dt.min(remaining),
                };
                self.next_index += 1;
                Some(tick)
            }
            TimeGrid::Counted { count } => {
                if self.next_index >= count {
                    return None;
                }
                let tick = Tick {
                    index: self.next_index,
                    t: 0.0,
                    dt: 0.0,
                };
                self.next_index += 1;
                Some(tick)
            }
        }
    }

    /// The one wire layout of a cursor — grid tag and shape, position,
    /// accumulated time — run by both checkpoint and resume.
    ///
    /// # Errors
    ///
    /// [`SnapshotError`] on truncated bytes or an unknown grid tag.
    pub fn layout(&mut self, c: &mut Codec<'_>) -> Result<(), SnapshotError> {
        // Tag, then the variant's fields in declaration order.
        let (mut tag, mut t0, mut dt, mut horizon, mut steps) = match self.grid {
            TimeGrid::Uniform { t0, dt, steps } => (0, t0, dt, 0.0, steps),
            TimeGrid::FixedClamped { dt, horizon, steps } => (1, 0.0, dt, horizon, steps),
            TimeGrid::Counted { count } => (2, 0.0, 0.0, 0.0, count),
        };
        c.tag(&mut tag, 3, "time-grid")?;
        let floats = match tag {
            0 => vec![&mut t0, &mut dt],
            1 => vec![&mut dt, &mut horizon],
            _ => vec![],
        };
        for x in floats {
            c.f64(x)?;
        }
        c.u64(&mut steps)?;
        self.grid = match tag {
            0 => TimeGrid::Uniform { t0, dt, steps },
            1 => TimeGrid::FixedClamped { dt, horizon, steps },
            _ => TimeGrid::Counted { count: steps },
        };
        c.u64(&mut self.next_index)?;
        c.f64(&mut self.t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_ticks(mut c: Clock) -> Vec<Tick> {
        let mut out = Vec::new();
        while let Some(t) = c.tick() {
            out.push(t);
        }
        out
    }

    #[test]
    fn uniform_accumulates_time_exactly_like_the_rk4_transient() {
        // Mirror TransientSession's `t += dt` recurrence.
        let span = 1.0f64;
        let steps = 7u64;
        #[allow(clippy::cast_precision_loss)]
        let dt = span / steps as f64;
        let ticks = all_ticks(Clock::uniform(0.0, dt, steps));
        assert_eq!(ticks.len(), 7);
        let mut t = 0.0f64;
        for (i, tick) in ticks.iter().enumerate() {
            assert_eq!(tick.index, i as u64);
            assert_eq!(tick.t.to_bits(), t.to_bits(), "accumulated, not i*dt");
            assert_eq!(tick.dt.to_bits(), dt.to_bits());
            t += dt;
        }
    }

    #[test]
    fn fixed_clamped_multiplies_time_and_clamps_the_final_step() {
        // 301 s at 2 s scans: 151 steps, last one clamped to 1 s —
        // exactly what FaultDrill::simulate produced before the port.
        let ticks = all_ticks(Clock::fixed_clamped(2.0, 301.0));
        assert_eq!(ticks.len(), 151);
        assert_eq!(ticks[150].t, 300.0);
        assert_eq!(ticks[150].dt, 1.0);
        assert_eq!(ticks[149].dt, 2.0);
    }

    #[test]
    fn ceil_seam_never_emits_a_zero_width_step() {
        // horizon = 3 * 0.1 is 0.30000000000000004 in f64, and dividing
        // it back by 0.1 gives 3.0000000000000004 — ceil schedules a
        // fourth step with nothing left to cover. The guard drops it.
        let horizon = 3.0 * 0.1;
        let clock = Clock::fixed_clamped(0.1, horizon);
        assert!(matches!(
            clock.grid,
            TimeGrid::FixedClamped { steps: 4, .. }
        ));
        let ticks = all_ticks(clock);
        assert_eq!(ticks.len(), 3);
        assert!(ticks.iter().all(|t| t.dt > 0.0));
    }

    #[test]
    fn horizon_perturbed_around_a_multiple_behaves_sanely() {
        let n = 150u64;
        #[allow(clippy::cast_precision_loss)]
        let exact = 2.0 * n as f64;
        let eps = 1e-9;
        let below = all_ticks(Clock::fixed_clamped(2.0, exact - eps));
        let at = all_ticks(Clock::fixed_clamped(2.0, exact));
        let above = all_ticks(Clock::fixed_clamped(2.0, exact + eps));
        assert_eq!(below.len() as u64, n);
        assert_eq!(at.len() as u64, n);
        assert_eq!(above.len() as u64, n + 1);
        assert!(below.last().unwrap().dt > 0.0);
        assert!(above.last().unwrap().dt > 0.0);
        assert!(above.last().unwrap().dt <= eps * 2.0);
    }

    #[test]
    fn counted_ticks_are_index_only() {
        let ticks = all_ticks(Clock::counted(3));
        assert_eq!(ticks.len(), 3);
        assert_eq!(
            ticks[2],
            Tick {
                index: 2,
                t: 0.0,
                dt: 0.0
            }
        );
    }

    #[test]
    fn a_resumed_clock_finishes_identically_to_a_straight_run() {
        for (mk, split) in [
            (Clock::uniform(0.5, 0.1, 17), 6u64),
            (Clock::fixed_clamped(2.0, 301.0), 77),
            (Clock::fixed_clamped(0.1, 3.0 * 0.1), 2),
            (Clock::counted(9), 0),
        ] {
            let straight = all_ticks(mk.clone());

            let mut front = mk.clone();
            let mut ticks: Vec<Tick> = (0..split).map_while(|_| front.tick()).collect();
            let mut w = Codec::writer();
            front.clone().layout(&mut w).unwrap();
            let bytes = w.into_bytes();
            let mut r = Codec::reader(&bytes);
            let mut back = Clock::counted(0);
            back.layout(&mut r).unwrap();
            r.finish("the clock").unwrap();
            assert_eq!(back, front);
            while let Some(t) = back.tick() {
                ticks.push(t);
            }

            assert_eq!(ticks.len(), straight.len());
            for (a, b) in ticks.iter().zip(&straight) {
                assert_eq!(a.index, b.index);
                assert_eq!(a.t.to_bits(), b.t.to_bits());
                assert_eq!(a.dt.to_bits(), b.dt.to_bits());
            }
        }
    }

    #[test]
    fn unknown_grid_tag_is_a_structured_error() {
        assert!(matches!(
            Clock::counted(0).layout(&mut Codec::reader(&[9])),
            Err(SnapshotError::Malformed(_))
        ));
    }
}
