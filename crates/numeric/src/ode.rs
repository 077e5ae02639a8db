//! Fixed-step ODE integration.

/// Scratch buffers for [`rk4_step`]: the four stage slopes plus one
/// stage-state buffer, all of the state dimension. Reused across steps
/// so a long transient allocates once.
#[derive(Debug, Clone)]
pub struct Rk4Scratch {
    k1: Vec<f64>,
    k2: Vec<f64>,
    k3: Vec<f64>,
    k4: Vec<f64>,
    tmp: Vec<f64>,
}

impl Rk4Scratch {
    /// Scratch space for an `n`-dimensional state.
    #[must_use]
    pub fn new(n: usize) -> Self {
        Self {
            k1: vec![0.0; n],
            k2: vec![0.0; n],
            k3: vec![0.0; n],
            k4: vec![0.0; n],
            tmp: vec![0.0; n],
        }
    }
}

/// One classic fourth-order Runge-Kutta step of `dy/dt = f(t, y)` from
/// `t` to `t + dt`, mutating `y` in place. The stepping kernel
/// (`rcs-kernel` sessions) drives it one tick at a time, so a resumed
/// transient performs the exact same arithmetic, in the exact same
/// order, as an uninterrupted one.
///
/// # Examples
///
/// Exponential decay keeps its analytic solution:
///
/// ```
/// use rcs_numeric::ode::{rk4_step, Rk4Scratch};
///
/// let mut y = vec![1.0];
/// let mut scratch = Rk4Scratch::new(1);
/// let dt = 1e-3;
/// let mut f = |_t: f64, y: &[f64], dy: &mut [f64]| dy[0] = -y[0];
/// let mut t = 0.0;
/// for _ in 0..1000 {
///     rk4_step(&mut y, t, dt, &mut f, &mut scratch);
///     t += dt;
/// }
/// assert!((y[0] - (-1.0f64).exp()).abs() < 1e-9);
/// ```
pub fn rk4_step<F>(y: &mut [f64], t: f64, dt: f64, f: &mut F, scratch: &mut Rk4Scratch)
where
    F: FnMut(f64, &[f64], &mut [f64]),
{
    let n = y.len();
    let Rk4Scratch {
        k1,
        k2,
        k3,
        k4,
        tmp,
    } = scratch;
    f(t, y, k1);
    for i in 0..n {
        tmp[i] = y[i] + 0.5 * dt * k1[i];
    }
    f(t + 0.5 * dt, tmp, k2);
    for i in 0..n {
        tmp[i] = y[i] + 0.5 * dt * k2[i];
    }
    f(t + 0.5 * dt, tmp, k3);
    for i in 0..n {
        tmp[i] = y[i] + dt * k3[i];
    }
    f(t + dt, tmp, k4);
    for i in 0..n {
        y[i] += dt / 6.0 * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn harmonic_oscillator_conserves_energy() {
        // y'' = -y as a 2-state system; RK4 should hold |E - E0| tiny over
        // a few periods at modest step size.
        let mut y = vec![1.0, 0.0];
        let mut scratch = Rk4Scratch::new(2);
        let mut f = |_t: f64, y: &[f64], dy: &mut [f64]| {
            dy[0] = y[1];
            dy[1] = -y[0];
        };
        let steps = (4.0 * std::f64::consts::PI / 1e-3).ceil() as usize;
        let dt = 4.0 * std::f64::consts::PI / steps as f64;
        let mut t = 0.0;
        for _ in 0..steps {
            rk4_step(&mut y, t, dt, &mut f, &mut scratch);
            t += dt;
        }
        let energy = 0.5 * (y[0] * y[0] + y[1] * y[1]);
        assert!((energy - 0.5).abs() < 1e-9, "E = {energy}");
        // two full periods: back to the start
        assert!((y[0] - 1.0).abs() < 1e-7);
        assert!(y[1].abs() < 1e-7);
    }

    #[test]
    fn a_zero_width_step_leaves_the_state_unchanged() {
        let mut y = vec![7.0];
        let mut scratch = Rk4Scratch::new(1);
        rk4_step(
            &mut y,
            2.0,
            0.0,
            &mut |_t, _y, dy| dy[0] = 100.0,
            &mut scratch,
        );
        assert_eq!(y[0].to_bits(), 7.0f64.to_bits());
    }
}
