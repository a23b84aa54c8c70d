//! Benchmarks of the reuse stack: cold-memo vs warm-memo campaign
//! throughput through the memoized tier, the plain backend for context,
//! the sampled screening tier, and the raw job-memo hit path.
//!
//! A cold memo costs the plain simulation plus one key hash and one
//! insertion per job, so `reuse/cold_jobs` should track
//! `reuse/plain_jobs`. A warm memo must push simulated-jobs/sec well
//! past both, because a repeated job reduces to one key hash and one
//! lookup instead of cycle-by-cycle simulation.

use armdse_bench::harness::Harness;
use armdse_core::dataset::DseDataset;
use armdse_core::engine::{Engine, RunPlan};
use armdse_core::orchestrator::GenOptions;
use armdse_core::space::ParamSpace;
use armdse_kernels::{App, WorkloadScale};
use armdse_simcore::{
    CoreParams, Idealized, Memoized, Sampled, SimBackend, DEFAULT_INTERVAL_LEN, DEFAULT_WARMUP,
};
use std::hint::black_box;

/// The benchmark campaign: a small single-threaded dataset plan, so the
/// measured quantity is backend time, not thread scheduling.
fn plan() -> RunPlan {
    let opts = GenOptions {
        configs: 6,
        scale: WorkloadScale::Tiny,
        seed: 0xBE7C_2024,
        threads: 1,
        apps: vec![App::Stream, App::TeaLeaf],
    };
    RunPlan::new(&ParamSpace::paper(), &opts).expect("bench plan validates")
}

/// Run the campaign once on `engine`, returning rows (kept black-boxed).
fn run_once(engine: &Engine, p: &RunPlan) -> usize {
    let mut sink = DseDataset::default();
    engine.run(p, &mut sink).expect("bench campaign runs");
    sink.rows.len()
}

fn main() {
    let mut h = Harness::from_args("reuse");
    let p = plan();
    let jobs = p.jobs() as u64;

    // Context: the exact backend with no caching at all.
    let plain = Engine::idealized();
    h.bench_throughput("reuse/plain_jobs", jobs, || black_box(run_once(&plain, &p)));

    // Cold memo: every job is simulated and inserted. This pays the
    // plain simulation plus one key hash and one insertion per job.
    let cold = Engine::memoized(DEFAULT_INTERVAL_LEN);
    h.bench_throughput("reuse/cold_jobs", jobs, || {
        cold.backend().clear_reuse_cache();
        black_box(run_once(&cold, &p))
    });

    // Warm memo: the same campaign re-run against a populated memo —
    // every job resolves to one lookup. The warm/cold ratio is the
    // reuse speedup the tier is accepted on (>= 1.5x).
    let warm = Engine::memoized(DEFAULT_INTERVAL_LEN);
    run_once(&warm, &p);
    h.bench_throughput("reuse/warm_jobs", jobs, || black_box(run_once(&warm, &p)));

    // Sampled screening tier: warmup + one measured interval +
    // extrapolation, the explorer's low-fidelity candidate ranker.
    let sampled = Engine::sampled(DEFAULT_INTERVAL_LEN, DEFAULT_WARMUP);
    h.bench_throughput("reuse/sampled_jobs", jobs, || {
        black_box(run_once(&sampled, &p))
    });

    // Raw single-workload hit path: repeated simulation of one program
    // through a warm memo, isolating key-hash and lookup overhead from
    // campaign orchestration.
    let core = CoreParams::thunderx2();
    let mem = armdse_memsim::MemParams::thunderx2();
    let w = plain.workload(App::Stream, WorkloadScale::Tiny, core.vector_length);
    let memo = Memoized::with_interval_len(Idealized, DEFAULT_INTERVAL_LEN);
    memo.run(&w.program, &core, &mem);
    h.bench("reuse/warm_hit_single_workload", || {
        black_box(memo.run(&w.program, &core, &mem).cycles)
    });

    // Sampled single-workload run for the same program, for the
    // tier-vs-tier per-job comparison at identical inputs.
    let s = Sampled::with_params(Idealized, DEFAULT_INTERVAL_LEN, DEFAULT_WARMUP);
    h.bench("reuse/sampled_single_workload", || {
        black_box(s.run(&w.program, &core, &mem).cycles)
    });

    h.finish();
}
