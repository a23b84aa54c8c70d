//! Incremental-forest contract: the warm-start/partial-refit protocol
//! the adaptive explorer trains through must (a) never report a
//! negative prediction variance — the acquisition function takes a
//! square root of it — (b) converge to a from-scratch fit once the
//! rotating refresh window has covered every tree on the full dataset,
//! and (c) fit the same ensemble at any thread count. The fused
//! `predict_mean_variance` must also reproduce `predict_one` and the
//! two-pass variance over the member trees bit for bit.
//!
//! (b) is a tolerance check, not equality: a from-scratch fit draws its
//! bootstraps from one sequential RNG stream while partial refits draw
//! per-(round, tree) streams, so the two ensembles are different members
//! of the same bootstrap distribution. What must agree is what they
//! learned.

use armdse_mltree::{mae, r2, ForestParams, Matrix, RandomForest, Regressor};

/// A deterministic nonlinear target at cycle-count magnitudes (~1e7),
/// where a one-pass variance formula would lose to cancellation.
fn dataset(n: usize) -> (Matrix, Vec<f64>) {
    let rows: Vec<Vec<f64>> = (0..n)
        .map(|i| {
            let a = (i % 17) as f64;
            let b = ((i * 7) % 13) as f64;
            let c = ((i * 31) % 5) as f64;
            vec![a, b, c]
        })
        .collect();
    let y: Vec<f64> = rows
        .iter()
        .enumerate()
        .map(|(i, r)| 1.0e7 + 4.0e5 * r[0] * r[0] + 3.0e5 * r[0] * r[1] + ((i * 97) % 1000) as f64)
        .collect();
    (Matrix::from_rows(&rows), y)
}

#[test]
fn prediction_variance_is_nonnegative_and_finite_everywhere() {
    let (x, y) = dataset(300);
    for seed in 0..5u64 {
        let f = RandomForest::fit(&x, &y, seed);
        for r in 0..x.rows() {
            let (_, v) = f.predict_mean_variance(x.row(r));
            assert!(v.is_finite(), "seed {seed} row {r}: variance {v}");
            assert!(v >= 0.0, "seed {seed} row {r}: negative variance {v}");
        }
        // Off-grid probes too (the explorer scores unseen candidates).
        for q in 0..50 {
            let row = [q as f64 * 0.37, q as f64 * 0.11, (q % 7) as f64];
            let (_, v) = f.predict_mean_variance(&row);
            assert!(v >= 0.0 && v.is_finite(), "probe {q}: variance {v}");
        }
    }
}

#[test]
fn variance_is_zero_when_all_trees_agree() {
    // A constant target forces every bootstrap tree to the same single
    // leaf; ensemble disagreement must be exactly zero, not epsilon.
    let rows: Vec<Vec<f64>> = (0..64).map(|i| vec![i as f64, (i % 9) as f64]).collect();
    let y = vec![2.5e7; 64];
    let f = RandomForest::fit(&Matrix::from_rows(&rows), &y, 42);
    for q in 0..40 {
        assert_eq!(f.predict_mean_variance(&[q as f64, (q % 5) as f64]).1, 0.0);
    }
}

#[test]
fn partial_refit_on_full_data_converges_to_a_from_scratch_fit() {
    let (x, y) = dataset(400);
    let params = ForestParams::default();

    // Incremental path: grow through prefixes the way the explorer
    // streams rows in, then refresh twice on the full dataset (the
    // rotating half-window covers every tree in two rounds).
    let mut warm = RandomForest::warm_start(params, 77);
    let mut round = 0u64;
    for frac in [100, 200, 300, 400] {
        let xs = Matrix::from_rows(&(0..frac).map(|r| x.row(r).to_vec()).collect::<Vec<_>>());
        warm.partial_refit(&xs, &y[..frac], round, 1);
        round += 1;
    }
    warm.partial_refit(&x, &y, round, 1);
    warm.partial_refit(&x, &y, round + 1, 1);

    let scratch = RandomForest::fit_with(&x, &y, params, 77);
    let pw = warm.predict(&x);
    let ps = scratch.predict(&x);

    // Both ensembles must have learned the signal...
    assert!(r2(&pw, &y) > 0.95, "warm R² {}", r2(&pw, &y));
    assert!(r2(&ps, &y) > 0.95, "scratch R² {}", r2(&ps, &y));
    // ...and must agree with each other to within bootstrap noise:
    // their mutual MAE must be a small fraction of the target's spread.
    let lo = y.iter().cloned().fold(f64::INFINITY, f64::min);
    let hi = y.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let disagreement = mae(&pw, &ps) / (hi - lo);
    assert!(
        disagreement < 0.02,
        "converged partial refit diverges from a from-scratch fit by {:.3}% of the target range",
        100.0 * disagreement
    );
}

#[test]
fn stale_trees_are_valid_until_their_window_comes_round() {
    // After one refit on a prefix and one rotating refresh on the full
    // data, half the ensemble is stale — predictions must still be
    // finite and inside the training hull (stale trees saw a subset of
    // the same rows, never garbage).
    let (x, y) = dataset(200);
    let mut f = RandomForest::warm_start(ForestParams::default(), 5);
    let xs = Matrix::from_rows(&(0..100).map(|r| x.row(r).to_vec()).collect::<Vec<_>>());
    f.partial_refit(&xs, &y[..100], 0, 1);
    f.partial_refit(&x, &y, 1, 1);
    let lo = y.iter().cloned().fold(f64::INFINITY, f64::min);
    let hi = y.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    for r in 0..x.rows() {
        let p = f.predict_one(x.row(r));
        assert!((lo..=hi).contains(&p), "row {r}: {p} outside [{lo}, {hi}]");
    }
}

/// The variance the fused call must reproduce: population variance of
/// the member trees' predictions, mean first, then squared deviations.
fn two_pass_variance(f: &RandomForest, row: &[f64]) -> f64 {
    let preds: Vec<f64> = f.trees().iter().map(|t| t.predict_one(row)).collect();
    let n = preds.len() as f64;
    let mean = preds.iter().sum::<f64>() / n;
    preds.iter().map(|p| (p - mean) * (p - mean)).sum::<f64>() / n
}

#[test]
fn fused_mean_variance_matches_predict_one_and_two_pass_variance_bitwise() {
    let (x, y) = dataset(300);
    let fitted = RandomForest::fit(&x, &y, 4);
    let constant = RandomForest::fit(&x, &vec![2.5e7; x.rows()], 4);
    for f in [&fitted, &constant] {
        let probes = (0..x.rows())
            .map(|r| x.row(r).to_vec())
            .chain((0..50).map(|q| vec![q as f64 * 0.37, q as f64 * 0.11, (q % 7) as f64]));
        for row in probes {
            let (mean, var) = f.predict_mean_variance(&row);
            assert_eq!(
                mean.to_bits(),
                f.predict_one(&row).to_bits(),
                "mean at {row:?}"
            );
            assert_eq!(
                var.to_bits(),
                two_pass_variance(f, &row).to_bits(),
                "variance at {row:?}"
            );
        }
    }
    assert_eq!(constant.predict_mean_variance(x.row(7)), (2.5e7, 0.0));
}

#[test]
fn partial_refit_is_thread_count_invariant_over_a_multi_round_history() {
    let (x, y) = dataset(240);
    let history = |threads: usize| {
        let mut f = RandomForest::warm_start(ForestParams::default(), 21);
        let mut models = Vec::new();
        for (round, rows) in [60, 120, 180, 240, 240].into_iter().enumerate() {
            let xs = Matrix::from_rows(&(0..rows).map(|r| x.row(r).to_vec()).collect::<Vec<_>>());
            f.partial_refit(&xs, &y[..rows], round as u64, threads);
            models.push(f.clone());
        }
        models
    };
    let serial = history(1);
    for threads in [2, 8] {
        assert!(
            history(threads) == serial,
            "{threads} threads fitted a different ensemble"
        );
    }
}
