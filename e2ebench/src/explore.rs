//! The `explore` workload: the adaptive `Explorer` at `tiny` scale
//! over a large seeded candidate pool with a budget of some hundreds,
//! closed loop with one caller.
//!
//! Simulation is a minor share here; host time goes to the incremental
//! forest refits and `predict_variance` over the pool. One request is
//! one fresh `Explorer::run` over a candidate pool of its own.

use crate::campaign::{sim_totals, simcore_rates, simulated_counts};
use crate::stats::Sample;
use crate::trace::{timed, Layer, Recorder, SimCount, Span, TracedBackend};
use crate::{
    file_digest, file_lines, peak_rss_mb, reset_peak_rss, Args, Outcome, SetupTimes,
    SETUP_REPS_PER_REQUEST, THREADS,
};
use armdse_core::{
    ArmdseError, DseDataset, Engine, ExploreControl, ExploreOptions, ExploreProgress, ExploreReport, Explorer,
    ParamSpace,
};
use armdse_kernels::{App, WorkloadScale};
use armdse_simcore::Idealized;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Candidate pool size.
pub const POOL: usize = 20_000;
/// Simulation budget.
pub const BUDGET: usize = 400;

/// The `repro explore` option derivation for this pool and budget.
fn options(seed: u64) -> ExploreOptions {
    ExploreOptions {
        scale: WorkloadScale::Tiny,
        seed,
        pool: POOL,
        budget: BUDGET,
        batch: BUDGET.div_ceil(6).max(2),
        holdout: (POOL / 6).clamp(10, 200),
        threads: THREADS,
        ..ExploreOptions::for_app(App::Stream)
    }
}

struct Setup {
    engine: Engine,
    /// Architectural instructions of the explored app's program per
    /// vector length.
    per_vl: Vec<(u32, u64)>,
    /// Feature vectors of the first request's candidate pool, by id.
    first_pool: Vec<[f64; 30]>,
}

/// Option validation, workload generation for every vector length, and
/// sampling of the first request's candidate pool (which the output
/// check uses; `Explorer::run` samples its pool again inside each
/// request, as it does for a user).
fn setup(seed: u64, work: &Path, rec: Option<&Arc<Recorder>>) -> Result<Setup, ArmdseError> {
    let space = ParamSpace::paper();
    let opts = options(seed);
    let engine = match rec {
        Some(r) => Engine::new(Box::new(TracedBackend::new(Box::new(Idealized), Arc::clone(r)))),
        None => Engine::idealized(),
    };
    Explorer::new(&engine, &space, opts.clone(), work)?;
    let mut per_vl = Vec::new();
    for &vl in &space.vector_lengths {
        let start = rec.map(|r| r.now());
        let n = engine.workload(opts.app, opts.scale, vl).program.dynamic_len();
        if let (Some(r), Some(start)) = (rec, start) {
            let count = SimCount {
                app: Some(opts.app),
                instrs: n,
                ..Default::default()
            };
            r.record(Layer::Kernels, start, r.now(), Some(count));
        }
        per_vl.push((vl, n));
    }
    let first_pool = (0..opts.pool as u64)
        .map(|i| space.sample_seeded(seed + i).to_features())
        .collect();
    Ok(Setup {
        engine,
        per_vl,
        first_pool,
    })
}

/// Explore seed of request `k`: disjoint candidate pools per request.
fn request_seed(seed: u64, k: usize) -> u64 {
    let o = options(0);
    seed + (k * (o.pool + o.holdout)) as u64
}

/// Architectural instructions request `seed` covered: its selected
/// candidates plus the holdout (from the workload programs).
fn request_instrs(s: &Setup, seed: u64, report: &ExploreReport) -> u64 {
    let space = ParamSpace::paper();
    let o = options(seed);
    let holdout = o.pool as u64..(o.pool + o.holdout) as u64;
    report
        .selected
        .iter()
        .copied()
        .chain(holdout)
        .map(|id| {
            let vl = space.sample_seeded(seed + id).core.vector_length;
            s.per_vl.iter().find(|(v, _)| *v == vl).map_or(0, |(_, n)| *n)
        })
        .sum()
}

struct Request {
    latency: f64,
    report: ExploreReport,
    /// Host ns since the recorder epoch at which each round ended.
    round_ends: Vec<u64>,
    chunks: usize,
    digests: [u64; 4],
    csv_lines: usize,
    /// Feature vectors of the dataset rows.
    rows: Vec<[f64; 30]>,
}

fn request(
    s: &Setup,
    seed: u64,
    work: &Path,
    rec: Option<&Arc<Recorder>>,
) -> Result<Request, ArmdseError> {
    let space = ParamSpace::paper();
    let mut round_ends = Vec::new();
    let mut chunks = 0;
    let t0 = Instant::now();
    let req_start = rec.map(|r| r.now());
    let report = {
        let mut observer = |p: &ExploreProgress| {
            chunks += 1;
            if let Some(r) = rec {
                r.mark();
                if p.jobs_done == p.round_jobs {
                    round_ends.push(r.now());
                }
            }
            true
        };
        let explorer = Explorer::new(&s.engine, &space, options(seed), work)?;
        timed(rec, Layer::Explorer, || {
            explorer.run(ExploreControl {
                resume: false,
                observer: Some(&mut observer),
            })
        })?
    };
    let latency = t0.elapsed().as_secs_f64();
    if let (Some(r), Some(start)) = (rec, req_start) {
        r.record(Layer::Request, start, r.now(), None);
    }
    let hashes: String = report
        .curve
        .iter()
        .map(|p| format!("{:016x} {:016x}\n", p.model_hash, p.r2.to_bits()))
        .collect();
    Ok(Request {
        latency,
        round_ends,
        chunks,
        digests: [
            file_digest(&work.join("explore_dataset.csv")),
            file_digest(&work.join("explore_curve.csv")),
            file_digest(&work.join("explore_curve.json")),
            crate::fnv1a(hashes.as_bytes()),
        ],
        csv_lines: file_lines(&work.join("explore_dataset.csv")),
        rows: DseDataset::load_csv(&work.join("explore_dataset.csv"))
            .map(|d| d.rows.iter().map(|r| r.features).collect())
            .unwrap_or_default(),
        report,
    })
}

const DIGEST_KEYS: [&str; 4] = [
    "explore_dataset.csv",
    "explore_curve.csv",
    "explore_curve.json",
    "explore.model_hashes",
];

/// Request-level checks: complete, budget spent, dataset length, and
/// (traced runs) the same artifacts as its untraced `twin`.
fn check_request(r: &Request, twin: Option<&Request>, out: &mut Outcome) {
    let opts = options(0);
    let rep = &r.report;
    out.checks.check(rep.completed && rep.rounds_done == opts.rounds(), || {
        format!("explore: stopped after {} rounds", rep.rounds_done)
    });
    out.checks.check(rep.selected.len() == BUDGET && rep.samples <= BUDGET, || {
        format!("explore: {} selected, {} rows", rep.selected.len(), rep.samples)
    });
    out.checks.check(r.csv_lines == rep.samples + 1, || {
        format!("explore: dataset has {} lines for {} rows", r.csv_lines, rep.samples)
    });
    if let Some(t) = twin {
        out.checks.check(r.digests == t.digests, || {
            "explore: the same seed produced different artifacts".into()
        });
    }
}

/// Every dataset row of the first request is the design point of one
/// of its selected candidates, one row per validated simulation.
fn check_rows(s: &Setup, first: &Request, out: &mut Outcome) {
    let selected: std::collections::HashSet<[u64; 30]> = first
        .report
        .selected
        .iter()
        .map(|&id| s.first_pool[id as usize].map(f64::to_bits))
        .collect();
    out.checks.check(selected.len() == BUDGET, || {
        format!("explore: {} distinct selected design points", selected.len())
    });
    let in_pool = first.rows.iter().all(|f| selected.contains(&f.map(f64::to_bits)));
    out.checks.check(in_pool && first.rows.len() == first.report.samples, || {
        "explore: a dataset row is not the design point of a selected candidate".into()
    });
}

/// Simulations one request runs: the budget plus the holdout.
fn jobs() -> usize {
    let o = options(0);
    o.budget + o.holdout
}

/// Run the workload for `args.seconds` and report.
pub fn run(args: &Args) -> Result<Outcome, ArmdseError> {
    let seed = args.seed.wrapping_mul(1_000_003) ^ 0x6578;
    let mut out = Outcome::default();
    let mut setups = SetupTimes::default();
    let plain = setups.first(|_| setup(seed, &args.work, None))?;
    let rec = args.trace.then(Recorder::new);
    let traced = match &rec {
        Some(r) => Some(setup(seed, &args.work, Some(r))?),
        None => None,
    };

    let start = Instant::now();
    let mut plain_reqs: Vec<Request> = Vec::new();
    let mut traced_reqs: Vec<(u32, Request)> = Vec::new();
    let (mut rss, mut instrs) = (Vec::new(), 0u64);
    while start.elapsed().as_secs_f64() < args.seconds || plain_reqs.len() < 2 {
        let k = plain_reqs.len();
        let req_seed = request_seed(seed, k);
        if rec.is_none() {
            for _ in 0..SETUP_REPS_PER_REQUEST {
                setups.time(|| setup(seed, &args.work, None))?;
            }
        }
        reset_peak_rss();
        let r = request(&plain, req_seed, &args.work, None)?;
        rss.push(peak_rss_mb());
        check_request(&r, None, &mut out);
        instrs += request_instrs(&plain, req_seed, &r.report);
        plain_reqs.push(r);
        if let (Some(t), Some(rc)) = (&traced, &rec) {
            let id = traced_reqs.len() as u32 + 1;
            rc.set_request(id);
            let r = request(t, req_seed, &args.work, Some(rc))?;
            check_request(&r, plain_reqs.last(), &mut out);
            traced_reqs.push((id, r));
        }
    }
    let first = &plain_reqs[0];
    check_rows(&plain, first, &mut out);
    for (key, d) in DIGEST_KEYS.iter().zip(first.digests) {
        out.digest(key, d);
    }
    out.info("explore_r2", format!("{:.6} (first request)", first.report.final_r2()));

    let latencies = Sample::new(plain_reqs.iter().map(|r| r.latency * 1e3));
    let busy_s: f64 = plain_reqs.iter().map(|r| r.latency).sum();
    let n = plain_reqs.len() as f64;
    if let Some(rc) = &rec {
        layers(rc, &traced_reqs, &latencies, &mut out);
        if let Err(e) = rc.write_tsv(&crate::trace_path(args)) {
            eprintln!("[e2ebench] cannot write trace: {e}");
        }
    } else {
        setups.report(&mut out);
        out.set("jobs_per_s", n * jobs() as f64 / busy_s);
        out.set("sim_minstr_per_s", instrs as f64 / 1e6 / busy_s);
        let rss = Sample::new(rss);
        out.set_with("peak_rss_mb", rss.median(), format!("median over requests of each request's VmHWM, {}", rss.describe("MB")));
        out.set_with("job_p50_ms", latencies.median(), latencies.describe("ms"));
        out.set_with("job_p90_ms", latencies.percentile(90.0), latencies.describe("ms"));
    }
    Ok(out)
}

fn layers(rec: &Recorder, traced: &[(u32, Request)], plain: &Sample, out: &mut Outcome) {
    let builds: Vec<Span> = rec
        .spans_of(0)
        .into_iter()
        .filter(|s| s.layer == Layer::Kernels)
        .collect();
    out.set(
        "kernels.build_ms",
        builds.iter().map(Span::ns).sum::<u64>() as f64 / 1e6,
    );
    out.set(
        "kernels.instrs_m",
        builds.iter().filter_map(|s| s.sim).map(|c| c.instrs).sum::<u64>() as f64 / 1e6,
    );
    let (mut busy, mut share, mut self_s, mut unattributed, mut walls) =
        (vec![], vec![], vec![], vec![], vec![]);
    let mut rounds = Vec::new();
    let mut totals = Vec::new();
    let mut all_spans = Vec::new();
    for (id, req) in traced {
        let spans = rec.spans_of(*id);
        let t = sim_totals(&spans);
        let (wall, run, run_start) = {
            let span = |l: Layer| spans.iter().find(|s| s.layer == l).copied();
            let request = span(Layer::Request).expect("request span");
            let run = span(Layer::Explorer).expect("explorer span");
            (request.ns() as f64, run.ns() as f64, run.start)
        };
        busy.push(t.busy as f64 / 1e9);
        share.push(t.busy as f64 / THREADS as f64 / wall);
        self_s.push((wall - t.busy as f64 / THREADS as f64) / 1e9);
        unattributed.push((wall - run).max(0.0) / wall);
        walls.push(req.latency * 1e3);
        let mut prev = run_start;
        for &end in &req.round_ends {
            rounds.push((end - prev) as f64 / 1e6);
            prev = end;
        }
        if totals.is_empty() {
            out.set("simcore.calls", t.calls as f64);
            out.set("engine.chunks", req.chunks as f64);
            out.set("explorer.rounds", req.round_ends.len() as f64);
            out.set("explorer.r2", req.report.final_r2());
            simulated_counts(&t, out, "explore");
            out.check_calls("explore", t.calls, jobs());
        }
        totals.push(t);
        all_spans.extend(spans);
    }
    let med = |v: &[f64]| Sample::new(v.iter().copied()).median();
    out.set("simcore.busy_s", med(&busy));
    out.set("simcore.share", med(&share));
    simcore_rates(&totals, &all_spans, out);
    let rounds = Sample::new(rounds);
    out.set_with("explorer.round_p50_ms", rounds.median(), rounds.describe("ms"));
    out.set("explorer.self_s", med(&self_s));
    out.set("trace.unattributed_share", med(&unattributed));
    let traced_walls = Sample::new(walls);
    out.set_with(
        "trace.overhead_pct",
        (traced_walls.median() / plain.median() - 1.0) * 100.0,
        format!(
            "traced {} vs untraced {}",
            traced_walls.describe("ms"),
            plain.describe("ms")
        ),
    );
}
