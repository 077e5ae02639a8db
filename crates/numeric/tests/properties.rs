//! Property-based tests for the numeric kernels.

use rcs_numeric::{ode, Matrix};
use rcs_testkit::check;

/// Random diagonally dominant matrix: always solvable, well conditioned.
fn dominant_matrix(n: usize, seed: &[f64]) -> Matrix {
    let mut m = Matrix::zeros(n, n);
    let mut k = 0;
    for i in 0..n {
        let mut row_sum = 0.0;
        for j in 0..n {
            if i != j {
                let v = seed[k % seed.len()] % 1.0;
                m[(i, j)] = v;
                row_sum += v.abs();
                k += 1;
            }
        }
        m[(i, i)] = row_sum + 1.0 + seed[k % seed.len()].abs() % 3.0;
        k += 1;
    }
    m
}

/// solve() really solves: A * x equals b to high precision.
#[test]
fn solve_satisfies_the_system() {
    check("solve_satisfies_the_system", |g| {
        let n = g.draw(1usize..12);
        let seed = g.vec_f64(-10.0..10.0, 16);
        let b_seed = g.vec_f64(-100.0..100.0, 12);
        let a = dominant_matrix(n, &seed);
        let b: Vec<f64> = (0..n).map(|i| b_seed[i % b_seed.len()]).collect();
        let x = a.solve(&b).unwrap();
        let back = a.mul_vec(&x).unwrap();
        let scale = b.iter().fold(1.0f64, |m, v| m.max(v.abs()));
        for (got, want) in back.iter().zip(&b) {
            assert!((got - want).abs() < 1e-9 * scale, "{got} vs {want}");
        }
    });
}

/// Solving with a scaled RHS scales the solution (linearity).
#[test]
fn solve_is_linear() {
    check("solve_is_linear", |g| {
        let n = g.draw(1usize..10);
        let seed = g.vec_f64(-10.0..10.0, 16);
        let k = g.draw(0.1..50.0f64);
        let a = dominant_matrix(n, &seed);
        let b: Vec<f64> = (0..n).map(|i| (i as f64 + 1.0).sin()).collect();
        let x1 = a.solve(&b).unwrap();
        let b2: Vec<f64> = b.iter().map(|v| v * k).collect();
        let x2 = a.solve(&b2).unwrap();
        for (u, v) in x1.iter().zip(&x2) {
            assert!((v - u * k).abs() < 1e-8 * k.max(1.0) * u.abs().max(1.0));
        }
    });
}

/// RK4 integrates linear decay to the analytic solution.
#[test]
fn rk4_matches_exponential_decay() {
    check("rk4_matches_exponential_decay", |g| {
        let lambda = g.draw(0.05..5.0f64);
        let y0 = g.draw(-50.0..50.0f64);
        let t1 = g.draw(0.1..5.0f64);
        let mut y = vec![y0];
        ode::rk4(
            &mut y,
            0.0,
            t1,
            1e-3,
            |_t, y, dy| dy[0] = -lambda * y[0],
            |_t, _y| {},
        );
        let analytic = y0 * (-lambda * t1).exp();
        assert!((y[0] - analytic).abs() < 1e-6 * y0.abs().max(1.0));
    });
}
