//! Property tests for the explorer's acquisition layer: scores are
//! finite and deterministic, the uncertainty term vanishes when the
//! ensemble agrees, and top-k selection is invariant under any
//! permutation of the candidate pool.

use armdse_core::explorer::{acquisition_scores, pareto_ranks, select_top_k, structure_cost};
use armdse_core::space::ParamSpace;
use armdse_mltree::{ForestParams, Matrix, RandomForest};
use armdse_rng::{Rng, SeedableRng, SliceRandom, Xoshiro256pp};

/// A spread of plausible (prediction, uncertainty) pairs at cycle-count
/// magnitudes, deterministic per seed.
fn pool(seed: u64, n: usize) -> (Vec<u64>, Vec<f64>, Vec<f64>) {
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    let ids: Vec<u64> = (0..n as u64).collect();
    let preds: Vec<f64> = (0..n)
        .map(|_| 1.0e7 + rng.gen_range(0..5_000_000u64) as f64)
        .collect();
    let stds: Vec<f64> = (0..n)
        .map(|_| rng.gen_range(0..200_000u64) as f64)
        .collect();
    (ids, preds, stds)
}

#[test]
fn scores_are_finite_and_deterministic_for_a_fixed_seed() {
    for seed in 0..10u64 {
        let (_, preds, stds) = pool(seed, 100);
        for eps in [0.0, 0.05, 0.5, 1.0] {
            let a = acquisition_scores(&preds, &stds, eps);
            let b = acquisition_scores(&preds, &stds, eps);
            assert_eq!(a, b, "same inputs must give identical scores");
            for (i, s) in a.iter().enumerate() {
                assert!(s.is_finite(), "seed {seed} eps {eps} cand {i}: {s}");
                assert!(
                    (-1e-12..=1.0 + 1e-12).contains(s),
                    "score {s} outside [0, 1]"
                );
            }
        }
    }
}

#[test]
fn degenerate_pools_still_score_finite() {
    // All predictions equal (zero exploitation span), all stds zero
    // (zero uncertainty span), and both at once.
    let flat = vec![3.0e7; 16];
    let varied: Vec<f64> = (0..16).map(|i| 1.0e7 + i as f64 * 1e5).collect();
    let zeros = vec![0.0; 16];
    let some: Vec<f64> = (0..16).map(|i| i as f64 * 100.0).collect();
    for (p, s) in [(&flat, &some), (&varied, &zeros), (&flat, &zeros)] {
        for score in acquisition_scores(p, s, 0.3) {
            assert!(score.is_finite());
        }
    }
}

#[test]
fn uncertainty_term_is_zero_when_all_trees_agree() {
    // A constant-target forest: every tree predicts the same value, so
    // the ensemble variance is exactly 0 and an all-exploration score
    // (eps = 1) must be 0 everywhere — no phantom uncertainty.
    let rows: Vec<Vec<f64>> = (0..60).map(|i| vec![i as f64, (i % 7) as f64]).collect();
    let y = vec![1.25e7; 60];
    let f = RandomForest::fit_with(
        &Matrix::from_rows(&rows),
        &y,
        ForestParams {
            n_trees: 16,
            ..Default::default()
        },
        9,
    );
    let stds: Vec<f64> = (0..30)
        .map(|q| {
            f.predict_mean_variance(&[q as f64, (q % 5) as f64])
                .1
                .sqrt()
        })
        .collect();
    assert!(
        stds.iter().all(|&s| s == 0.0),
        "ensemble must agree: {stds:?}"
    );
    let preds = vec![1.25e7; 30];
    for s in acquisition_scores(&preds, &stds, 1.0) {
        assert_eq!(s, 0.0);
    }
}

#[test]
fn top_k_selection_is_invariant_under_pool_permutation() {
    for seed in 0..20u64 {
        let (ids, preds, stds) = pool(seed, 64);
        let scores = acquisition_scores(&preds, &stds, 0.25);
        let baseline = select_top_k(&ids, &scores, 8);
        // Shuffle the (id, score) pairing and reselect.
        let mut order: Vec<usize> = (0..ids.len()).collect();
        let mut rng = Xoshiro256pp::seed_from_u64(seed ^ 0xDEAD);
        order.shuffle(&mut rng);
        let p_ids: Vec<u64> = order.iter().map(|&i| ids[i]).collect();
        let p_scores: Vec<f64> = order.iter().map(|&i| scores[i]).collect();
        assert_eq!(
            select_top_k(&p_ids, &p_scores, 8),
            baseline,
            "seed {seed}: permuting the pool changed the selection"
        );
    }
}

#[test]
fn top_k_breaks_score_ties_by_candidate_id() {
    let ids = vec![9, 4, 7, 1];
    let scores = vec![0.5, 0.5, 0.9, 0.5];
    assert_eq!(select_top_k(&ids, &scores, 3), vec![7, 1, 4]);
}

#[test]
fn pareto_ranks_identify_a_known_frontier() {
    // (cycles, cost): a and b trade off (rank 0); c is dominated by a
    // (rank 1); d is dominated by everything (rank 2, after c).
    let objs = vec![
        (1.0, 10.0), // a
        (5.0, 2.0),  // b
        (2.0, 11.0), // c: dominated by a
        (6.0, 12.0), // d: dominated by a, b, c
    ];
    assert_eq!(pareto_ranks(&objs), vec![0, 0, 1, 2]);
}

#[test]
fn pareto_ranks_are_permutation_consistent() {
    let (_, preds, stds) = pool(3, 40);
    let objs: Vec<(f64, f64)> = preds.iter().zip(&stds).map(|(&a, &b)| (a, b)).collect();
    let ranks = pareto_ranks(&objs);
    let mut order: Vec<usize> = (0..objs.len()).collect();
    order.reverse();
    let perm: Vec<(f64, f64)> = order.iter().map(|&i| objs[i]).collect();
    let perm_ranks = pareto_ranks(&perm);
    for (pos, &orig) in order.iter().enumerate() {
        assert_eq!(perm_ranks[pos], ranks[orig]);
    }
}

#[test]
fn structure_cost_tracks_the_sized_structures() {
    // Widening the ROB (feature 10) must raise the cost; changing a
    // latency-like feature outside the cost window must not.
    let space = ParamSpace::paper();
    let base = space.sample_seeded(7).to_features();
    let cost = structure_cost(&base);
    assert!(cost > 0.0 && cost.is_finite());
    let mut bigger = base;
    bigger[10] += 64.0;
    assert!(structure_cost(&bigger) > cost);
    let mut elsewhere = base;
    elsewhere[0] += 64.0;
    assert_eq!(structure_cost(&elsewhere), cost);
}
