//! Benchmarks of the adaptive-exploration stack: the acquisition
//! layer's hot functions (scoring, top-k selection, Pareto ranking),
//! the incremental-forest operations the retrain loop leans on, and one
//! end-to-end tiny exploration round-trip through [`Explorer`].
//!
//! The end-to-end bench pins the cost of a whole acquire → simulate →
//! retrain campaign at smoke scale; the component benches localise a
//! regression to the layer that caused it.

use armdse_bench::harness::Harness;
use armdse_core::engine::Engine;
use armdse_core::explorer::{
    acquisition_scores, pareto_ranks, score_pool, select_top_k, structure_cost, ExploreControl,
    ExploreOptions, Explorer,
};
use armdse_core::space::ParamSpace;
use armdse_kernels::{App, WorkloadScale};
use armdse_mltree::{ForestParams, Matrix, RandomForest};
use std::hint::black_box;

/// Deterministic (prediction, uncertainty) pool at cycle magnitudes.
fn pool(n: usize) -> (Vec<u64>, Vec<f64>, Vec<f64>) {
    let ids: Vec<u64> = (0..n as u64).collect();
    let preds: Vec<f64> = (0..n as u64)
        .map(|i| 1.0e7 + ((i * 2654435761) % 5_000_000) as f64)
        .collect();
    let stds: Vec<f64> = (0..n as u64)
        .map(|i| ((i * 40503) % 200_000) as f64)
        .collect();
    (ids, preds, stds)
}

fn training_data(n: usize) -> (Matrix, Vec<f64>) {
    let space = ParamSpace::paper();
    let mut x = Matrix::new(30);
    let mut y = Vec::with_capacity(n);
    for i in 0..n as u64 {
        let f = space.sample_seeded(i).to_features();
        y.push(structure_cost(&f) * 1.0e4);
        x.push_row(&f);
    }
    (x, y)
}

fn main() {
    let mut h = Harness::from_args("explore");

    // Acquisition scoring throughput over a large candidate pool.
    let (ids, preds, stds) = pool(4096);
    h.bench_throughput("acquisition/scores_4096", 4096, || {
        black_box(acquisition_scores(&preds, &stds, 0.25))
    });

    // Top-k selection (sort-dominated) over the same pool.
    let scores = acquisition_scores(&preds, &stds, 0.25);
    h.bench_throughput("acquisition/top_k_4096", 4096, || {
        black_box(select_top_k(&ids, &scores, 64))
    });

    // Pareto non-dominated sorting (quadratic in the pool size).
    let objs: Vec<(f64, f64)> = preds
        .iter()
        .zip(&stds)
        .take(1024)
        .map(|(&a, &b)| (a, b))
        .collect();
    h.bench_throughput("acquisition/pareto_ranks_1024", 1024, || {
        black_box(pareto_ranks(&objs))
    });

    // Incremental refit: the per-round retrain cost on an accrued
    // dataset (rotating half-window), serial and at the explore
    // workload's 2 threads, vs variance-aware prediction.
    let (x, y) = training_data(256);
    let params = ForestParams {
        n_trees: 32,
        ..Default::default()
    };
    for (id, threads) in [
        ("forest/partial_refit_256x30", 1),
        ("forest/partial_refit_256x30_2threads", 2),
    ] {
        h.bench(id, || {
            let mut f = RandomForest::warm_start(params, 7);
            f.partial_refit(&x, &y, 0, threads);
            f.partial_refit(&x, &y, 1, threads);
            black_box(f.trees().len())
        });
    }

    let mut fitted = RandomForest::warm_start(params, 7);
    fitted.partial_refit(&x, &y, 0, 1);
    let probe = ParamSpace::paper().sample_seeded(9001).to_features();
    h.bench_throughput("forest/predict_variance_1000", 1000, || {
        let mut acc = 0.0;
        for _ in 0..1000 {
            acc += fitted.predict_mean_variance(black_box(&probe)).1;
        }
        black_box(acc)
    });

    // One acquisition round's surrogate pass over a 20 000-candidate
    // pool (the explore workload's pool) at its 2 threads.
    let space = ParamSpace::paper();
    let candidates: Vec<[f64; 30]> = (0..20_000)
        .map(|i| space.sample_seeded(i).to_features())
        .collect();
    let cand_ids: Vec<u64> = (0..candidates.len() as u64).collect();
    h.bench_throughput("acquisition/score_pool_20000_2threads", 20_000, || {
        black_box(score_pool(&fitted, &cand_ids, &candidates, 2))
    });

    // End-to-end tiny campaign: acquire → simulate → retrain for a
    // 12-simulation budget from a 60-point pool, artifacts included.
    let engine = Engine::idealized();
    let dir = std::env::temp_dir().join("armdse_bench_explore");
    std::fs::create_dir_all(&dir).expect("bench scratch dir");
    let opts = ExploreOptions {
        scale: WorkloadScale::Tiny,
        seed: 11,
        pool: 60,
        budget: 12,
        batch: 4,
        holdout: 10,
        threads: 1,
        forest: ForestParams {
            n_trees: 8,
            ..Default::default()
        },
        ..ExploreOptions::for_app(App::Stream)
    };
    h.bench("explorer/tiny_campaign_60pool_12budget", || {
        let report = Explorer::new(&engine, &space, opts.clone(), &dir)
            .expect("bench options validate")
            .run(ExploreControl::default())
            .expect("tiny campaign runs");
        black_box(report.samples)
    });
    std::fs::remove_dir_all(&dir).ok();

    h.finish();
}
