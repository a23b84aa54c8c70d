//! The `campaign` and `multicore` workloads: closed-loop engine
//! campaigns with one caller.
//!
//! * `campaign` is `repro dataset` followed by `fig3`: a fresh
//!   Full-fidelity campaign of the four paper apps at `standard` scale
//!   streamed to a `CsvSink` with a checkpoint per chunk, then the
//!   dataset is reloaded, the `SurrogateSuite` trained and the Fig. 3
//!   permutation importances ranked.
//! * `multicore` is a 2-core `MultiCore` campaign (shared banked L2 and
//!   DRAM) over `App::EXTENDED` at `small` scale.
//!
//! One request is one whole campaign over design points no earlier
//! request of the run used.

use crate::stats::Sample;
use crate::trace::{
    engine_breakdown, timed, Layer, Recorder, SimCount, Span, TracedBackend, TracedSink,
};
use crate::{
    file_digest, file_lines, peak_rss_mb, reset_peak_rss, Args, Checks, Outcome, SetupTimes,
    SETUP_REPS_PER_REQUEST, THREADS,
};
use armdse_analysis::importance;
use armdse_core::config::FEATURE_NAMES;
use armdse_core::orchestrator::GenOptions;
use armdse_core::{
    ArmdseError, CsvSink, DseDataset, Engine, ParamSpace, Progress, RowSink, RunControl, RunPlan,
    RunSummary, SurrogateSuite,
};
use armdse_kernels::{build_workload, App, WorkloadScale};
use armdse_mltree::{permutation_importance, train_test_split};
use armdse_simcore::{Idealized, MultiCore, SimBackend};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Shape of one closed-loop campaign workload.
pub struct Shape {
    /// Workload name.
    pub name: &'static str,
    /// Applications per design point.
    pub apps: &'static [App],
    /// Workload input scale.
    pub scale: WorkloadScale,
    /// Design points per request.
    pub configs: usize,
    /// Simulated cores (1: the single-core idealized machine).
    pub cores: u32,
    /// Reload the dataset, train the surrogate suite and rank the
    /// Fig. 3 importances after the campaign.
    pub fig3: bool,
}

/// `repro dataset` + `fig3`: 4 paper apps, standard scale.
pub const CAMPAIGN: Shape = Shape {
    name: "campaign",
    apps: &App::ALL,
    scale: WorkloadScale::Standard,
    configs: 6,
    cores: 1,
    fig3: true,
};

/// 2-core shared-L2 campaign over the extended kernel set, small scale.
pub const MULTICORE: Shape = Shape {
    name: "multicore",
    apps: &App::EXTENDED,
    scale: WorkloadScale::Small,
    configs: 12,
    cores: 2,
    fig3: false,
};

/// Design points simulated per request.
fn jobs(shape: &Shape) -> usize {
    shape.configs * shape.apps.len()
}

fn backend(shape: &Shape) -> Box<dyn SimBackend> {
    if shape.cores > 1 {
        Box::new(MultiCore::new(
            shape.cores,
            armdse_memsim::banked::DEFAULT_BANKS as u32,
        ))
    } else {
        Box::new(Idealized)
    }
}

/// A ready-to-run campaign: an engine whose workload cache holds every
/// (app, scale, vector length).
struct Setup {
    engine: Engine,
    /// Architectural instructions of one design point (every app) per
    /// vector length, from the workload programs.
    per_vl: Vec<(u32, u64)>,
}

/// Workload generation for every (app, scale, VL) and validation of
/// the first request's plan: the work a fresh `repro dataset` does
/// before its first simulation.
fn setup(shape: &Shape, seed: u64, rec: Option<&Arc<Recorder>>) -> Result<Setup, ArmdseError> {
    let space = ParamSpace::paper();
    let engine = match rec {
        Some(r) => Engine::new(Box::new(TracedBackend::new(backend(shape), Arc::clone(r)))),
        None => Engine::new(backend(shape)),
    };
    let mut per_vl = Vec::new();
    for &vl in &space.vector_lengths {
        let mut instrs = 0;
        for &app in shape.apps {
            let start = rec.map(|r| r.now());
            let n = engine.workload(app, shape.scale, vl).program.dynamic_len();
            if let (Some(r), Some(start)) = (rec, start) {
                let count = SimCount {
                    app: Some(app),
                    instrs: n,
                    ..Default::default()
                };
                r.record(Layer::Kernels, start, r.now(), Some(count));
            }
            instrs += n;
        }
        per_vl.push((vl, instrs));
    }
    plan(shape, seed, 0)?;
    Ok(Setup { engine, per_vl })
}

/// The plan of request `k`: config seeds `seed + k·configs ..`, so no
/// two requests of a run share a design point.
fn plan(shape: &Shape, seed: u64, k: usize) -> Result<RunPlan, ArmdseError> {
    RunPlan::new(
        &ParamSpace::paper(),
        &GenOptions {
            configs: shape.configs,
            scale: shape.scale,
            seed: seed + (k * shape.configs) as u64,
            threads: THREADS,
            apps: shape.apps.to_vec(),
        },
    )
}

/// Architectural instructions `plan` covers (× cores).
fn plan_instrs(shape: &Shape, s: &Setup, plan: &RunPlan) -> u64 {
    let space = ParamSpace::paper();
    let n: u64 = (0..shape.configs as u64)
        .map(|i| {
            let vl = space.sample_seeded(plan.seed() + i).core.vector_length;
            s.per_vl.iter().find(|(v, _)| *v == vl).map_or(0, |(_, n)| *n)
        })
        .sum();
    n * u64::from(shape.cores)
}

/// What one request produced.
struct Request {
    /// Host seconds, campaign start to figure ranked.
    latency: f64,
    summary: RunSummary,
    discarded: usize,
    csv_lines: usize,
    csv_digest: u64,
    fig3_digest: u64,
    accuracy_pct: f64,
    suite: Option<SurrogateSuite>,
    data: Option<DseDataset>,
}

fn run_engine<S: RowSink>(
    engine: &Engine,
    plan: &RunPlan,
    sink: &mut S,
    ckpt: &Path,
    rec: Option<&Arc<Recorder>>,
) -> Result<RunSummary, ArmdseError> {
    let mut observer = |_: &Progress| {
        if let Some(r) = rec {
            r.mark();
        }
        true
    };
    let ctl = RunControl {
        checkpoint: Some(ckpt),
        observer: Some(&mut observer),
        ..RunControl::default()
    };
    timed(rec, Layer::EngineRun, || engine.run_controlled(plan, sink, ctl))
}

/// One request: the campaign into a fresh CSV with a checkpoint per
/// chunk, then (campaign only) reload, train and rank.
fn request(
    shape: &Shape,
    s: &Setup,
    plan: &RunPlan,
    work: &Path,
    rec: Option<&Arc<Recorder>>,
) -> Result<Request, ArmdseError> {
    let csv = work.join("dataset.csv");
    let ckpt = work.join("dataset.ckpt");
    let _ = std::fs::remove_file(&ckpt);
    let t0 = Instant::now();
    let req_start = rec.map(|r| r.now());
    let (summary, discarded) = match rec {
        Some(r) => {
            let mut sink = TracedSink::new(CsvSink::create(&csv)?, Arc::clone(r));
            let summary = run_engine(&s.engine, plan, &mut sink, &ckpt, rec)?;
            (summary, sink.inner.discarded.len())
        }
        None => {
            let mut sink = CsvSink::create(&csv)?;
            let summary = run_engine(&s.engine, plan, &mut sink, &ckpt, rec)?;
            (summary, sink.discarded.len())
        }
    };
    let (mut suite, mut data, mut fig3_digest, mut accuracy_pct) = (None, None, 0, 0.0);
    if shape.fig3 {
        let d = timed(rec, Layer::LoadCsv, || DseDataset::load_csv(&csv))?;
        let st = timed(rec, Layer::Surrogate, || {
            SurrogateSuite::train(&d, 0.2, plan.seed())
        });
        let fig = importance::from_suite(&st, "Fig. 3");
        let text: String = fig
            .per_app
            .iter()
            .flat_map(|(app, fs)| fs.iter().map(move |(f, p)| format!("{app}\t{f}\t{p:?}\n")))
            .collect();
        fig3_digest = crate::fnv1a(text.as_bytes());
        accuracy_pct = st.mean_accuracy_pct();
        suite = Some(st);
        data = Some(d);
    }
    let latency = t0.elapsed().as_secs_f64();
    if let (Some(r), Some(start)) = (rec, req_start) {
        r.record(Layer::Request, start, r.now(), None);
    }
    Ok(Request {
        latency,
        summary,
        discarded,
        csv_lines: file_lines(&csv),
        csv_digest: file_digest(&csv),
        fig3_digest,
        accuracy_pct,
        suite,
        data,
    })
}

/// Request-level checks: complete, every job accounted for, CSV length,
/// and (traced runs) the same bytes as its untraced `twin`.
fn check_request(shape: &Shape, r: &Request, twin: Option<&Request>, checks: &mut Checks) {
    let jobs = jobs(shape);
    let s = &r.summary;
    checks.check(s.completed && s.jobs_done == jobs, || {
        format!("{}: campaign stopped at {}/{jobs}", shape.name, s.jobs_done)
    });
    checks.check(s.rows + s.discarded == jobs && r.discarded == s.discarded, || {
        format!(
            "{}: rows {} + discarded {} != jobs {jobs}",
            shape.name, s.rows, s.discarded
        )
    });
    checks.check(r.csv_lines == s.rows + 1, || {
        format!("{}: CSV has {} lines for {} rows", shape.name, r.csv_lines, s.rows)
    });
    if let Some(t) = twin {
        checks.check(
            r.csv_digest == t.csv_digest && r.fig3_digest == t.fig3_digest,
            || format!("{}: the same plan produced different bytes", shape.name),
        );
    }
}

/// Re-simulate the first row of the request's dataset through the
/// backend directly (fresh workload build, no engine) and compare
/// cycles.
fn spot_check(shape: &Shape, plan: &RunPlan, csv: &Path, checks: &mut Checks) {
    let row = DseDataset::load_csv(csv).ok().and_then(|d| d.rows.first().cloned());
    let Some(row) = row else {
        checks.check(false, || format!("{}: dataset CSV has no rows", shape.name));
        return;
    };
    let space = ParamSpace::paper();
    let Some(cfg) = (0..shape.configs as u64)
        .map(|i| space.sample_seeded(plan.seed() + i))
        .find(|c| c.to_features() == row.features)
    else {
        checks.check(false, || format!("{}: row matches no design point", shape.name));
        return;
    };
    let w = build_workload(row.app, shape.scale, cfg.core.vector_length);
    let stats = backend(shape).run(&w.program, &cfg.core, &cfg.mem);
    checks.check(stats.cycles == row.cycles, || {
        format!(
            "{}: {}: CSV {} cycles, direct run {}",
            shape.name,
            row.app.name(),
            row.cycles,
            stats.cycles
        )
    });
}

/// Campaign seed for benchmark seed `seed` (keeps workloads' inputs
/// apart when run with the same seed).
fn campaign_seed(shape: &Shape, seed: u64) -> u64 {
    seed.wrapping_mul(1_000_003) ^ if shape.cores > 1 { 0x6d63 } else { 0x6361 }
}

/// Run the workload for `args.seconds` and report.
pub fn run(args: &Args, shape: &Shape) -> Result<Outcome, ArmdseError> {
    let seed = campaign_seed(shape, args.seed);
    let mut out = Outcome::default();
    let mut setups = SetupTimes::default();
    let plain = setups.first(|_| setup(shape, seed, None))?;
    let rec = args.trace.then(Recorder::new);
    let traced = match &rec {
        Some(r) => Some(setup(shape, seed, Some(r))?),
        None => None,
    };

    // The window: untraced requests, each after a few timed set-ups, or
    // each untraced request followed by its traced twin (traced
    // requests get ids 1, 2, ...).
    let start = Instant::now();
    let mut plain_reqs: Vec<Request> = Vec::new();
    let mut traced_reqs: Vec<(u32, Request)> = Vec::new();
    let (mut rss, mut instrs) = (Vec::new(), 0u64);
    while start.elapsed().as_secs_f64() < args.seconds || plain_reqs.len() < 2 {
        let plan = plan(shape, seed, plain_reqs.len())?;
        if rec.is_none() {
            for _ in 0..SETUP_REPS_PER_REQUEST {
                setups.time(|| setup(shape, seed, None))?;
            }
        }
        reset_peak_rss();
        let r = request(shape, &plain, &plan, &args.work, None)?;
        rss.push(peak_rss_mb());
        check_request(shape, &r, None, &mut out.checks);
        spot_check(shape, &plan, &args.work.join("dataset.csv"), &mut out.checks);
        instrs += plan_instrs(shape, &plain, &plan);
        plain_reqs.push(r);
        if let (Some(t), Some(rc)) = (&traced, &rec) {
            let id = traced_reqs.len() as u32 + 1;
            rc.set_request(id);
            let r = request(shape, t, &plan, &args.work, Some(rc))?;
            check_request(shape, &r, plain_reqs.last(), &mut out.checks);
            if let Some((st, d)) = r.suite.as_ref().zip(r.data.as_ref()) {
                importance_probe(rc, st, d, plan.seed(), &mut out.checks);
            }
            traced_reqs.push((id, r));
        }
    }
    let first = &plain_reqs[0];
    out.digest(&format!("{}.csv", shape.name), first.csv_digest);
    if shape.fig3 {
        out.digest("fig3.importances", first.fig3_digest);
    }
    out.info(
        "surrogate_acc_pct",
        if shape.fig3 {
            format!("{:.4} % (first request)", first.accuracy_pct)
        } else {
            "n/a (no surrogate on this workload)".into()
        },
    );

    let latencies = Sample::new(plain_reqs.iter().map(|r| r.latency * 1e3));
    let busy_s: f64 = plain_reqs.iter().map(|r| r.latency).sum();
    if let Some(rc) = &rec {
        layers(shape, rc, &traced_reqs, &latencies, &mut out);
        if let Err(e) = rc.write_tsv(&crate::trace_path(args)) {
            eprintln!("[e2ebench] cannot write trace: {e}");
        }
    } else {
        setups.report(&mut out);
        out.set("jobs_per_s", (plain_reqs.len() * jobs(shape)) as f64 / busy_s);
        out.set("sim_minstr_per_s", instrs as f64 / 1e6 / busy_s);
        let rss = Sample::new(rss);
        out.set_with("peak_rss_mb", rss.median(), format!("median over requests of each request's VmHWM, {}", rss.describe("MB")));
        out.set_with("job_p50_ms", latencies.median(), latencies.describe("ms"));
        out.set_with("job_p90_ms", latencies.percentile(90.0), latencies.describe("ms"));
    }
    Ok(out)
}

/// Time the suite's permutation importances through `armdse_mltree`
/// directly (outside the request's wall time) and check the direct
/// computation reproduces the suite's report.
fn importance_probe(
    rec: &Recorder,
    suite: &SurrogateSuite,
    data: &DseDataset,
    seed: u64,
    checks: &mut Checks,
) {
    let names: Vec<String> = FEATURE_NAMES.iter().map(|s| s.to_string()).collect();
    for m in &suite.models {
        let (_, test) = train_test_split(&data.ml_dataset(m.app), 0.2, seed);
        let report = rec.time(Layer::Importance, || {
            permutation_importance(&m.tree, &test.x, &test.y, &names, 10, seed ^ 0xABCD)
        });
        checks.check(report == m.importance, || {
            format!("{}: direct permutation importance differs", m.app.name())
        });
    }
}

/// Simulation spans of a request, summed.
pub struct SimTotals {
    /// Calls.
    pub calls: usize,
    /// Host busy time (ns).
    pub busy: u64,
    /// Simulated cycles.
    pub cycles: u64,
    /// Simulated memory counts.
    pub mem: armdse_memsim::MemStats,
    /// Per app: (busy ns, instructions).
    pub per_app: Vec<(App, u64, u64)>,
}

/// Sum the `simcore` spans of one request.
pub fn sim_totals(spans: &[Span]) -> SimTotals {
    let mut t = SimTotals {
        calls: 0,
        busy: 0,
        cycles: 0,
        mem: Default::default(),
        per_app: App::EXTENDED.iter().map(|&a| (a, 0, 0)).collect(),
    };
    for s in spans.iter().filter(|s| s.layer == Layer::Simcore) {
        let c = s.sim.expect("simcore spans carry counts");
        t.calls += 1;
        t.busy += s.ns();
        t.cycles += c.cycles;
        t.mem.merge(&c.mem);
        if let Some(slot) = t.per_app.iter_mut().find(|(a, ..)| Some(*a) == c.app) {
            slot.1 += s.ns();
            slot.2 += c.instrs;
        }
    }
    t
}

/// Report the simulated (deterministic) counts of one request.
pub fn simulated_counts(t: &SimTotals, out: &mut Outcome, key: &str) {
    let m = &t.mem;
    let rate = |miss: u64, hit: u64| miss as f64 / (miss + hit).max(1) as f64;
    out.set("simcore.sim_cycles", t.cycles as f64);
    out.set("memsim.l1_miss_rate", rate(m.l1_misses, m.l1_hits));
    out.set("memsim.l2_miss_rate", rate(m.l2_misses, m.l2_hits));
    out.set("memsim.requests", m.requests as f64);
    out.set("memsim.dram_queue_wait_cycles", m.dram_queue_wait_cycles as f64);
    out.set("memsim.mshr_mean_occupancy", m.mshr_mean_occupancy().unwrap_or(0.0));
    let text = format!("{} {:?}", t.cycles, m.values());
    out.digest(&format!("{key}.sim_counts"), crate::fnv1a(text.as_bytes()));
}

/// Host time per simulation and per architectural instruction, summed
/// over the traced requests.
pub fn simcore_rates(totals: &[SimTotals], spans: &[Span], out: &mut Outcome) {
    let busy: u64 = totals.iter().map(|t| t.busy).sum();
    let cycles: u64 = totals.iter().map(|t| t.cycles).sum();
    out.set("simcore.ns_per_cycle", busy as f64 / cycles.max(1) as f64);
    for (i, &app) in App::EXTENDED.iter().enumerate() {
        let (b, n) = totals
            .iter()
            .fold((0, 0), |(b, n), t| (b + t.per_app[i].1, n + t.per_app[i].2));
        let name = crate::PER_LAYER
            .iter()
            .map(|(n, _)| *n)
            .find(|n| n.strip_prefix("simcore.ns_per_instr.") == Some(app.name()))
            .expect("every extended app has a metric");
        out.set(name, if n == 0 { 0.0 } else { b as f64 / n as f64 });
    }
    let calls = Sample::new(
        spans
            .iter()
            .filter(|s| s.layer == Layer::Simcore)
            .map(|s| s.ns() as f64 / 1e6),
    );
    out.set_with("simcore.call_p50_ms", calls.median(), calls.describe("ms"));
    out.set_with("simcore.call_p99_ms", calls.percentile(99.0), calls.describe("ms"));
}

fn layers(
    shape: &Shape,
    rec: &Recorder,
    traced: &[(u32, Request)],
    plain: &Sample,
    out: &mut Outcome,
) {
    let setup_spans = rec.spans_of(0);
    let builds: Vec<&Span> = setup_spans.iter().filter(|s| s.layer == Layer::Kernels).collect();
    out.set(
        "kernels.build_ms",
        builds.iter().map(|s| s.ns()).sum::<u64>() as f64 / 1e6,
    );
    out.set(
        "kernels.instrs_m",
        builds.iter().filter_map(|s| s.sim).map(|c| c.instrs).sum::<u64>() as f64 / 1e6,
    );
    let mut all_spans = Vec::new();
    let mut totals = Vec::new();
    let (mut busy, mut share, mut sink, mut fsync, mut ckpt, mut io, mut straggle) =
        (vec![], vec![], vec![], vec![], vec![], vec![], vec![]);
    let (mut train, mut imp, mut unattributed, mut walls) = (vec![], vec![], vec![], vec![]);
    for (id, req) in traced {
        let spans = rec.spans_of(*id);
        let t = sim_totals(&spans);
        let b = engine_breakdown(&spans, THREADS);
        let wall = spans
            .iter()
            .find(|s| s.layer == Layer::Request)
            .map_or(1, Span::ns) as f64;
        let sum_of = |l: Layer| spans.iter().filter(|s| s.layer == l).map(Span::ns).sum::<u64>();
        busy.push(t.busy as f64 / 1e9);
        share.push(t.busy as f64 / THREADS as f64 / wall);
        sink.push(b.sink as f64 / 1e6);
        fsync.push(b.fsync as f64 / 1e6);
        ckpt.push(b.ckpt as f64 / 1e6);
        io.push((b.sink + b.fsync + b.ckpt) as f64 / b.wall.max(1) as f64);
        straggle.push(b.straggle as f64 / 1e6);
        train.push(sum_of(Layer::Surrogate) as f64 / 1e6);
        imp.push(sum_of(Layer::Importance) as f64 / 1e6);
        let covered = sum_of(Layer::EngineRun) + sum_of(Layer::LoadCsv) + sum_of(Layer::Surrogate);
        unattributed.push((wall - covered as f64).max(0.0) / wall);
        walls.push(req.latency * 1e3);
        if totals.is_empty() {
            out.set("simcore.calls", t.calls as f64);
            out.set("engine.chunks", b.chunks as f64);
            simulated_counts(&t, out, shape.name);
            out.check_calls(shape.name, t.calls, jobs(shape));
        }
        totals.push(t);
        all_spans.extend(spans);
    }
    let med = |v: &[f64]| Sample::new(v.iter().copied()).median();
    out.set("simcore.busy_s", med(&busy));
    out.set("simcore.share", med(&share));
    simcore_rates(&totals, &all_spans, out);
    out.set("engine.sink_ms", med(&sink));
    out.set("engine.fsync_ms", med(&fsync));
    out.set("engine.ckpt_ms", med(&ckpt));
    out.set("engine.io_share", med(&io));
    out.set("engine.straggle_ms", med(&straggle));
    out.set("surrogate.train_ms", med(&train));
    out.set("importance.ms", med(&imp));
    if shape.fig3 {
        out.set("surrogate.acc_pct", traced[0].1.accuracy_pct);
    }
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

impl Outcome {
    /// Check the traced backend saw exactly the plan's simulations.
    pub fn check_calls(&mut self, name: &str, calls: usize, want: usize) {
        self.checks.check(calls == want, || {
            format!("{name}: {calls} simulations traced, plan has {want}")
        });
    }
}
