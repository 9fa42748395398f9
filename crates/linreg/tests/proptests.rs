//! Property-based tests for the regression substrate: invariants that must
//! hold for *any* well-conditioned input, not just hand-picked examples.

use proptest::prelude::*;
use teem_linreg::dist::{f_upper_p, inc_beta, t_two_sided_p};
use teem_linreg::quantile::{quantile, FiveNum};
use teem_linreg::solve::{cholesky, lu_solve, Lu};
use teem_linreg::{Dataset, LinregError, Matrix};

/// Strategy: a small well-conditioned SPD matrix built as `A = B B^T + c I`.
fn spd_matrix(n: usize) -> impl Strategy<Value = Matrix> {
    proptest::collection::vec(-2.0..2.0f64, n * n).prop_map(move |vals| {
        let mut b = Matrix::zeros(n, n);
        for r in 0..n {
            for c in 0..n {
                b[(r, c)] = vals[r * n + c];
            }
        }
        let mut a = b.matmul(&b.transpose()).expect("square matmul");
        for i in 0..n {
            a[(i, i)] += 1.0; // guarantee positive definiteness
        }
        a
    })
}

/// The one-shot LU solve `lu_solve` used before the factor was split from
/// the solve: the right-hand side is carried through the elimination,
/// swapped and updated step by step. Kept as the bit-identity reference.
fn interleaved_lu_solve(a: &Matrix, b: &[f64]) -> Result<Vec<f64>, LinregError> {
    let n = a.rows();
    let mut lu = a.clone();
    let mut x: Vec<f64> = b.to_vec();
    let scale = lu.max_abs();
    let tol = scale * 1e-13 + f64::MIN_POSITIVE;
    for k in 0..n {
        let mut piv = k;
        let mut max = lu[(k, k)].abs();
        for i in (k + 1)..n {
            if lu[(i, k)].abs() > max {
                max = lu[(i, k)].abs();
                piv = i;
            }
        }
        if max <= tol {
            return Err(LinregError::Singular);
        }
        if piv != k {
            for c in 0..n {
                let tmp = lu[(k, c)];
                lu[(k, c)] = lu[(piv, c)];
                lu[(piv, c)] = tmp;
            }
            x.swap(k, piv);
        }
        for i in (k + 1)..n {
            let f = lu[(i, k)] / lu[(k, k)];
            lu[(i, k)] = f;
            for c in (k + 1)..n {
                let v = lu[(k, c)];
                lu[(i, c)] -= f * v;
            }
            x[i] -= f * x[k];
        }
    }
    for i in (0..n).rev() {
        let mut s = x[i];
        for c in (i + 1)..n {
            s -= lu[(i, c)] * x[c];
        }
        x[i] = s / lu[(i, i)];
    }
    Ok(x)
}

/// A solve result with every float as its bit pattern, so equality is
/// bit-for-bit (and errors compare as errors).
fn bits(r: &Result<Vec<f64>, LinregError>) -> Result<Vec<u64>, LinregError> {
    r.clone().map(|x| x.iter().map(|v| v.to_bits()).collect())
}

/// Strategy: an `n × n` matrix (`n` in 1..=8) whose elimination needs row
/// swaps — the leading entry is zeroed — and, for `kind == 0`, an exactly
/// repeated row so the factorisation must report it singular. Returned
/// with three right-hand sides.
fn pivoting_system() -> impl Strategy<Value = (Matrix, Vec<Vec<f64>>)> {
    (
        1usize..=8,
        0u32..4,
        proptest::collection::vec(-4.0..4.0f64, 64),
        proptest::collection::vec(-10.0..10.0f64, 24),
    )
        .prop_map(|(n, kind, vals, rhs)| {
            let mut a = Matrix::zeros(n, n);
            for r in 0..n {
                for c in 0..n {
                    a[(r, c)] = vals[r * 8 + c];
                }
            }
            a[(0, 0)] = 0.0;
            if kind == 0 && n > 1 {
                for c in 0..n {
                    a[(n - 1, c)] = a[(0, c)];
                }
            }
            let bs = rhs.chunks(8).map(|b| b[..n].to_vec()).collect();
            (a, bs)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn cholesky_solves_spd_systems(a in spd_matrix(4), b in proptest::collection::vec(-10.0..10.0f64, 4)) {
        let ch = cholesky(&a).expect("SPD by construction");
        let x = ch.solve(&b).expect("dimensions match");
        // Check A x = b.
        let ax = a.matvec(&x).expect("dimensions match");
        for (l, r) in ax.iter().zip(b.iter()) {
            prop_assert!((l - r).abs() < 1e-6, "Ax={l} b={r}");
        }
    }

    #[test]
    fn lu_factor_then_solve_is_bit_identical_to_interleaved_elimination(
        (a, bs) in pivoting_system(),
    ) {
        let factor = Lu::factor(&a);
        for b in &bs {
            let got = lu_solve(&a, b);
            prop_assert_eq!(bits(&interleaved_lu_solve(&a, b)), bits(&got));
            // One factor serves every right-hand side unchanged.
            let reused = factor.clone().and_then(|lu| {
                let mut x = b.clone();
                lu.solve_in_place(&mut x).map(|()| x)
            });
            prop_assert_eq!(bits(&got), bits(&reused));
        }
    }

    #[test]
    fn cholesky_and_lu_agree(a in spd_matrix(3), b in proptest::collection::vec(-5.0..5.0f64, 3)) {
        let x1 = cholesky(&a).expect("SPD").solve(&b).expect("solve");
        let x2 = lu_solve(&a, &b).expect("solve");
        for (l, r) in x1.iter().zip(x2.iter()) {
            prop_assert!((l - r).abs() < 1e-6);
        }
    }

    #[test]
    fn ols_recovers_noiseless_coefficients(
        b0 in -5.0..5.0f64,
        b1 in -5.0..5.0f64,
        b2 in -5.0..5.0f64,
        xs in proptest::collection::vec((-10.0..10.0f64, -10.0..10.0f64), 8..30),
    ) {
        // Skip degenerate designs where x1 and x2 are (nearly) collinear.
        let x1: Vec<f64> = xs.iter().map(|p| p.0).collect();
        let x2: Vec<f64> = xs.iter().map(|p| p.1).collect();
        if let Some(r) = teem_linreg::corr::pearson(&x1, &x2) {
            prop_assume!(r.abs() < 0.95);
        } else {
            prop_assume!(false);
        }
        let var1 = x1.iter().map(|v| v * v).sum::<f64>();
        let var2 = x2.iter().map(|v| v * v).sum::<f64>();
        prop_assume!(var1 > 1.0 && var2 > 1.0);

        let y: Vec<f64> = xs.iter().map(|(a, b)| b0 + b1 * a + b2 * b).collect();
        let mut d = Dataset::new("y");
        d.push_predictor("x1", x1);
        d.push_predictor("x2", x2);
        d.set_response(y);
        let fit = d.fit().expect("well-conditioned design");
        let c = fit.coefficients();
        prop_assert!((c[0].estimate - b0).abs() < 1e-5, "b0: {} vs {b0}", c[0].estimate);
        prop_assert!((c[1].estimate - b1).abs() < 1e-5, "b1: {} vs {b1}", c[1].estimate);
        prop_assert!((c[2].estimate - b2).abs() < 1e-5, "b2: {} vs {b2}", c[2].estimate);
    }

    #[test]
    fn residuals_orthogonal_to_fitted(
        xs in proptest::collection::vec((-10.0..10.0f64, -1.0..1.0f64), 10..40),
    ) {
        // OLS residuals are orthogonal to the column space; in particular
        // they sum to ~0 (intercept column) and are uncorrelated with x.
        let x: Vec<f64> = xs.iter().map(|p| p.0).collect();
        let noise: Vec<f64> = xs.iter().map(|p| p.1).collect();
        let spread = x.iter().map(|v| v * v).sum::<f64>();
        prop_assume!(spread > 1.0);
        let y: Vec<f64> = x.iter().zip(noise.iter()).map(|(a, n)| 1.0 + 0.5 * a + n).collect();
        let mut d = Dataset::new("y");
        d.push_predictor("x", x.clone());
        d.set_response(y);
        let fit = d.fit().expect("fits");
        let scale = fit.residuals().iter().map(|e| e.abs()).fold(0.0_f64, f64::max).max(1.0);
        let sum: f64 = fit.residuals().iter().sum();
        prop_assert!(sum.abs() < 1e-7 * scale * xs.len() as f64, "sum={sum}");
        let dot: f64 = fit.residuals().iter().zip(x.iter()).map(|(e, v)| e * v).sum();
        prop_assert!(dot.abs() < 1e-6 * scale * spread.sqrt() * xs.len() as f64, "dot={dot}");
    }

    #[test]
    fn r_squared_in_unit_interval(
        xs in proptest::collection::vec((-10.0..10.0f64, -3.0..3.0f64), 8..30),
    ) {
        let x: Vec<f64> = xs.iter().map(|p| p.0).collect();
        let y: Vec<f64> = xs.iter().map(|(a, n)| 2.0 * a + n).collect();
        let spread = {
            let m = x.iter().sum::<f64>() / x.len() as f64;
            x.iter().map(|v| (v - m) * (v - m)).sum::<f64>()
        };
        prop_assume!(spread > 1.0);
        let yvar = {
            let m = y.iter().sum::<f64>() / y.len() as f64;
            y.iter().map(|v| (v - m) * (v - m)).sum::<f64>()
        };
        prop_assume!(yvar > 1e-6);
        let mut d = Dataset::new("y");
        d.push_predictor("x", x);
        d.set_response(y);
        let fit = d.fit().expect("fits");
        prop_assert!(fit.r_squared() >= -1e-12 && fit.r_squared() <= 1.0 + 1e-12,
            "R2 = {}", fit.r_squared());
        prop_assert!(fit.adj_r_squared() <= fit.r_squared() + 1e-12);
    }

    #[test]
    fn inc_beta_monotone_in_x(a in 0.5..10.0f64, b in 0.5..10.0f64, x1 in 0.01..0.99f64, dx in 0.001..0.3f64) {
        let x2 = (x1 + dx).min(0.999);
        let i1 = inc_beta(a, b, x1);
        let i2 = inc_beta(a, b, x2);
        prop_assert!(i2 >= i1 - 1e-12, "I decreasing: {i1} -> {i2}");
        prop_assert!((0.0..=1.0).contains(&i1));
    }

    #[test]
    fn t_p_value_valid_and_monotone(t in 0.0..30.0f64, df in 1.0..100.0f64) {
        let p = t_two_sided_p(t, df);
        prop_assert!((0.0..=1.0).contains(&p), "p = {p}");
        let p2 = t_two_sided_p(t + 1.0, df);
        prop_assert!(p2 <= p + 1e-12);
    }

    #[test]
    fn f_p_value_valid_and_monotone(f in 0.0..100.0f64, d1 in 1.0..20.0f64, d2 in 1.0..50.0f64) {
        let p = f_upper_p(f, d1, d2);
        prop_assert!((0.0..=1.0).contains(&p), "p = {p}");
        let p2 = f_upper_p(f + 1.0, d1, d2);
        prop_assert!(p2 <= p + 1e-12);
    }

    #[test]
    fn quantile_is_bounded_and_monotone(
        mut xs in proptest::collection::vec(-100.0..100.0f64, 1..50),
        p1 in 0.0..1.0f64,
        dp in 0.0..0.5f64,
    ) {
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let p2 = (p1 + dp).min(1.0);
        let q1 = quantile(&xs, p1).expect("non-empty");
        let q2 = quantile(&xs, p2).expect("non-empty");
        prop_assert!(q1 >= xs[0] - 1e-12 && q1 <= xs[xs.len() - 1] + 1e-12);
        prop_assert!(q2 >= q1 - 1e-12);
    }

    #[test]
    fn five_num_is_ordered(xs in proptest::collection::vec(-1e6..1e6f64, 1..100)) {
        let f = FiveNum::of(&xs).expect("non-empty");
        prop_assert!(f.min <= f.q1 && f.q1 <= f.median && f.median <= f.q3 && f.q3 <= f.max);
    }
}
