//! The `serve` workload: a `repro --serve`-equivalent job server with
//! two runners, in this process, driven over HTTP by an open-loop
//! generator.
//!
//! Arrivals follow a seeded schedule at a fixed offered rate
//! ([`RATE_PER_S`], below half the measured two-runner capacity; see
//! `--calibrate`): gaps are uniform in `[1 - JITTER, 1 + JITTER] /
//! RATE_PER_S` ([`JITTER`]). Every job is [`CONFIGS`] design points ×
//! the 4 paper apps at `small` scale. Of every 20 arrivals, the
//! [`REPEAT_SLOTS`] re-submit an earlier spec byte for byte; of every
//! 10 new specs, one runs at the memoized tier ([`MEMOIZED_SLOT`],
//! design points from the fixed [`MEMOIZED_SEED`] sequence) and one at
//! the sampled tier ([`SAMPLED_SLOT`]); the rest run Full. Each job checkpoints every
//! [`CHUNK_JOBS`] simulations, so many small chunks hit fsync.
//!
//! The generator uses two threads and at most one connection each: a
//! submitter that sends `POST /jobs` when each arrival is due, and a
//! poller that polls `GET /jobs/{id}` every [`POLL`] for every
//! outstanding job and, once a job is `Done`, fetches its rows through
//! `GET /jobs/{id}/rows`. Latency runs from a job's *due* time to the
//! first poll that sees it `Done`, so it includes any lag of the
//! generator and is resolved to the poll period plus one poll sweep.

use crate::campaign::{sim_totals, simcore_rates, simulated_counts};
use crate::stats::Sample;
use crate::trace::{
    engine_breakdown, timed, timed_for, Layer, Recorder, SimCount, Span, TracedBackend, TracedSink,
};
use crate::{fnv1a, peak_rss_mb, Args, Outcome, SetupTimes, SETUP_REPS};
use armdse_core::{
    ArmdseError, CsvSink, Engine, JobId, JobSpec, JobState, JobStatus, ParamSpace, Progress,
    RunControl,
};
use armdse_kernels::{build_workload, App, WorkloadScale};
use armdse_rng::{Rng, SeedableRng, Xoshiro256pp};
use armdse_server::{client, Server, ServerConfig};
use armdse_simcore::{
    Fidelity, Idealized, Memoized, Sampled, SimBackend, DEFAULT_INTERVAL_LEN, DEFAULT_WARMUP,
};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Runner threads of the server.
pub const RUNNERS: usize = 2;
/// Offered arrival rate (jobs per host second): 26–45% of the
/// two-runner capacity measured with `--calibrate`, which moves with
/// the host's speed (SIZING.md). Higher rates queue more and turn the
/// host's speed drift into larger latency swings.
pub const RATE_PER_S: f64 = 20.0;
/// Half-width of the inter-arrival gap around `1 / RATE_PER_S`, as a
/// share of it. Burstier arrivals queue more, and queueing turns the
/// host's slow phases into larger tail latencies (SIZING.md).
pub const JITTER: f64 = 0.2;
/// Poll period of the completion poller.
pub const POLL: Duration = Duration::from_millis(10);
/// Latency limit for goodput (due time → `Done`).
pub const LIMIT_MS: f64 = 500.0;
/// Of every 20 arrivals, these slots re-submit an earlier Full or
/// sampled spec byte for byte (15% repeats). Fixed slots keep the mix
/// identical from seed to seed; the seed picks which spec is repeated.
/// A repeated memoized spec would add one more retained interval cache
/// (see [`MEMOIZED_SEED`]) whose size, from a few to hundreds of MB,
/// would depend on which spec the seed picked.
const REPEAT_SLOTS: [usize; 3] = [4, 11, 17];
/// Of every 10 new specs, this slot runs at the memoized tier (10%)…
const MEMOIZED_SLOT: usize = 3;
/// …and this one at the sampled tier (10%); the rest run Full.
const SAMPLED_SLOT: usize = 7;
/// Memoized job `j` of every run uses config seeds
/// `MEMOIZED_SEED + j·CONFIGS ..`, whatever the benchmark seed. A
/// served job keeps its engine, so a memoized job's interval cache
/// stays resident for the server's lifetime, and its size follows the
/// job's design points (vector length, cache geometry): one job holds
/// from a few to hundreds of MB. The same memoized jobs in every run
/// keep that retained memory, and so `peak_rss_mb`, the same from seed
/// to seed, over the whole design space.
const MEMOIZED_SEED: u64 = 0x6d65_6d6f;
/// Design points per served job (× the 4 paper apps).
const CONFIGS: usize = 3;
/// Simulations per checkpointed chunk in every served job.
pub const CHUNK_JOBS: usize = 4;
/// Served jobs whose CSV bytes the default-seed reference pins.
pub const REF_JOBS: usize = 64;
/// New (non-repeat) jobs replayed through a traced engine in the
/// per-layer run.
pub const REPLAY_JOBS: usize = 12;
/// Longest the generator waits for the backlog to drain.
const DRAIN_LIMIT: Duration = Duration::from_secs(60);
/// Longest the server may take to shut down.
const SHUTDOWN_LIMIT: Duration = Duration::from_secs(10);
/// Delay before a discarded set-up server is shut down.
const SETTLE: Duration = Duration::from_millis(20);
/// Period of the set-ups timed during the window (one each, on the
/// benchmark's main thread, while the generator runs).
pub const SETUP_PERIOD: Duration = Duration::from_millis(500);

/// A bound server from one set-up repetition. Shutting a scheduler
/// down right after its runner threads spawned can lose the wake-up
/// (a runner that has checked the shutdown flag but not yet waited
/// never wakes), so a discarded server is dropped on a detached thread
/// after [`SETTLE`]: set-up never blocks on it.
struct Bound(Option<Server>);

impl Drop for Bound {
    fn drop(&mut self) {
        if let Some(server) = self.0.take() {
            std::thread::spawn(move || {
                std::thread::sleep(SETTLE);
                drop(server);
            });
        }
    }
}

/// One scheduled submission.
#[derive(Debug, Clone)]
struct Arrival {
    /// Offset from the start of the window (host seconds).
    due: f64,
    /// Exact request body.
    body: String,
    spec: JobSpec,
    /// Earlier arrival whose spec this one re-submits.
    repeat_of: Option<usize>,
    /// Architectural instructions the job covers (from the programs).
    instrs: u64,
}

/// New spec number `k` of the schedule: tier by slot; seeded design
/// points, or the fixed memoized sequence.
fn new_spec(rng: &mut Xoshiro256pp, k: usize) -> JobSpec {
    let seed = u64::from(rng.next_u32());
    let (fidelity, seed) = if k % 10 == SAMPLED_SLOT {
        let f = Fidelity::Sampled {
            interval_len: DEFAULT_INTERVAL_LEN,
            warmup: DEFAULT_WARMUP,
        };
        (f, seed)
    } else if k % 10 == MEMOIZED_SLOT {
        let f = Fidelity::Memoized {
            interval_len: DEFAULT_INTERVAL_LEN,
        };
        (f, MEMOIZED_SEED + (k / 10 * CONFIGS) as u64)
    } else {
        (Fidelity::Full, seed)
    };
    JobSpec {
        configs: CONFIGS,
        scale: WorkloadScale::Small,
        seed,
        threads: 1,
        apps: App::ALL.to_vec(),
        chunk_jobs: CHUNK_JOBS,
        fidelity,
        ..JobSpec::default()
    }
}

/// The seeded arrival schedule over `seconds` (at most `max_jobs`
/// arrivals), with every body validated (parse + plan) and its
/// instruction count computed.
fn schedule(seed: u64, seconds: f64, max_jobs: usize) -> Result<Vec<Arrival>, ArmdseError> {
    let space = ParamSpace::paper();
    let mut per_vl = Vec::new();
    for &vl in &space.vector_lengths {
        let n: u64 = App::ALL
            .iter()
            .map(|&a| build_workload(a, WorkloadScale::Small, vl).program.dynamic_len())
            .sum();
        per_vl.push((vl, n));
    }
    let mut rng = Xoshiro256pp::seed_from_u64(seed ^ 0x7365_7276_6531);
    let mut out: Vec<Arrival> = Vec::new();
    let (mut t, mut new_specs) = (0.0, 0);
    let mut repeatable = Vec::new();
    loop {
        t += (1.0 - JITTER + 2.0 * JITTER * rng.gen_f64()) / RATE_PER_S;
        if t >= seconds || out.len() == max_jobs {
            break;
        }
        let arrival = if REPEAT_SLOTS.contains(&(out.len() % 20)) {
            let original = repeatable[rng.bounded_u64(repeatable.len() as u64) as usize];
            Arrival {
                due: t,
                repeat_of: Some(original),
                ..out[original].clone()
            }
        } else {
            let spec = new_spec(&mut rng, new_specs);
            new_specs += 1;
            if !matches!(spec.fidelity, Fidelity::Memoized { .. }) {
                repeatable.push(out.len());
            }
            let body = spec.to_json();
            let parsed = JobSpec::from_json(&body)?;
            parsed.plan(&space)?;
            let instrs = (0..spec.configs as u64)
                .map(|i| {
                    let vl = space.sample_seeded(spec.seed + i).core.vector_length;
                    per_vl.iter().find(|(v, _)| *v == vl).map_or(0, |(_, n)| *n)
                })
                .sum();
            Arrival {
                due: t,
                body,
                spec: parsed,
                repeat_of: None,
                instrs,
            }
        };
        out.push(arrival);
    }
    Ok(out)
}

/// What the generator observed about one submission.
#[derive(Debug, Clone)]
struct JobRec {
    arrival: usize,
    id: Option<JobId>,
    due: Instant,
    sent: Instant,
    acked: Instant,
    running_seen: Option<Instant>,
    done_seen: Option<Instant>,
    /// Terminal state, or `None` while outstanding / on error.
    state: Option<JobState>,
    /// Final status (rows, discarded, total jobs).
    status: Option<JobStatus>,
    /// FNV-1a of the rows fetched over HTTP.
    rows_digest: u64,
    /// Fetched rows equal the job's CSV file.
    rows_match: bool,
    rows_lines: usize,
}

impl JobRec {
    /// When the job was first seen running (its acknowledgement if the
    /// poller never caught it running).
    fn started(&self) -> Instant {
        self.running_seen.unwrap_or(self.acked).max(self.acked)
    }
}

#[derive(Default)]
struct Live {
    recs: Vec<JobRec>,
    submitted_all: bool,
    poll_ms: Vec<f64>,
    backlog_max: usize,
    http_errors: Vec<String>,
}

/// Everything one window produced.
struct Drive {
    recs: Vec<JobRec>,
    poll_ms: Vec<f64>,
    backlog_max: usize,
    http_errors: Vec<String>,
    start: Instant,
    server_requests: u64,
}

/// Request id (arrival index + 1) of the `k`-th submission.
fn l_arrival(live: &Mutex<Live>, k: usize) -> u32 {
    live.lock().unwrap().recs[k].arrival as u32 + 1
}

fn get_status(addr: &str, id: JobId) -> Result<JobStatus, String> {
    let r = client::request(addr, "GET", &format!("/jobs/{id}"), None)?;
    if r.status != 200 {
        return Err(format!("GET /jobs/{id}: HTTP {}", r.status));
    }
    JobStatus::from_json(&r.text())
}

/// Fetch a finished job's rows and compare them with its CSV file.
fn fetch_rows(addr: &str, jobs_dir: &Path, rec: &mut JobRec, id: JobId) -> Result<(), String> {
    let r = client::request(addr, "GET", &format!("/jobs/{id}/rows"), None)?;
    if r.status != 200 {
        return Err(format!("GET /jobs/{id}/rows: HTTP {}", r.status));
    }
    let file = std::fs::read(jobs_dir.join(format!("job-{id}.csv"))).unwrap_or_default();
    rec.rows_digest = fnv1a(&r.body);
    rec.rows_match = r.body == file;
    rec.rows_lines = r.body.iter().filter(|&&b| b == b'\n').count();
    Ok(())
}

/// Run the open-loop generator against the server at `addr` until
/// every arrival is submitted and the backlog drained.
/// `max_polled` caps how many of the oldest outstanding jobs one poll
/// sweep visits (the calibration burst would otherwise poll its whole
/// backlog every period and steal the runners' CPU).
/// With `rec`, every HTTP call is recorded as a span of its job
/// (request id = arrival index + 1). Until the last submission, the
/// calling thread runs `between` every [`SETUP_PERIOD`].
fn drive(
    addr: &str,
    jobs_dir: &Path,
    arrivals: &[Arrival],
    max_polled: usize,
    rec: Option<&Recorder>,
    between: &mut dyn FnMut(),
) -> Drive {
    let live = Mutex::new(Live::default());
    let start = Instant::now();
    std::thread::scope(|s| {
        s.spawn(|| {
            for (i, a) in arrivals.iter().enumerate() {
                let due = start + Duration::from_secs_f64(a.due);
                if let Some(wait) = due.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                let sent = Instant::now();
                let resp = timed_for(rec, i as u32 + 1, Layer::HttpSubmit, || {
                    client::request(addr, "POST", "/jobs", Some(&a.body))
                });
                let acked = Instant::now();
                let id = match resp {
                    Ok(r) if r.status == 201 => JobStatus::from_json(&r.text()).ok().map(|st| st.id),
                    Ok(r) => {
                        live.lock().unwrap().http_errors.push(format!("POST /jobs: HTTP {}", r.status));
                        None
                    }
                    Err(e) => {
                        live.lock().unwrap().http_errors.push(e);
                        None
                    }
                };
                live.lock().unwrap().recs.push(JobRec {
                    arrival: i,
                    id,
                    due,
                    sent,
                    acked,
                    running_seen: None,
                    done_seen: None,
                    state: None,
                    status: None,
                    rows_digest: 0,
                    rows_match: false,
                    rows_lines: 0,
                });
            }
            live.lock().unwrap().submitted_all = true;
        });
        s.spawn(|| {
            let mut deadline = None;
            loop {
                let tick = Instant::now();
                let (outstanding, submitted_all) = {
                    let mut l = live.lock().unwrap();
                    let out: Vec<(usize, JobId)> = l
                        .recs
                        .iter()
                        .enumerate()
                        .filter(|(_, r)| r.done_seen.is_none())
                        .filter_map(|(k, r)| r.id.map(|id| (k, id)))
                        .collect();
                    l.backlog_max = l.backlog_max.max(out.len());
                    (out, l.submitted_all)
                };
                if outstanding.is_empty() && submitted_all {
                    break;
                }
                if submitted_all {
                    let d = *deadline.get_or_insert(tick + DRAIN_LIMIT);
                    if tick > d {
                        live.lock().unwrap().http_errors.push(format!(
                            "{} jobs still outstanding after the drain limit",
                            outstanding.len()
                        ));
                        break;
                    }
                }
                for (k, id) in outstanding.into_iter().take(max_polled) {
                    let t = Instant::now();
                    let req = l_arrival(&live, k);
                    let status = timed_for(rec, req, Layer::HttpPoll, || get_status(addr, id));
                    let now = Instant::now();
                    let mut l = live.lock().unwrap();
                    l.poll_ms.push((now - t).as_secs_f64() * 1e3);
                    let st = match status {
                        Ok(st) => st,
                        Err(e) => {
                            l.http_errors.push(e);
                            continue;
                        }
                    };
                    let job = &mut l.recs[k];
                    if st.state != JobState::Queued {
                        job.running_seen.get_or_insert(now);
                    }
                    if st.state.is_terminal() || st.state == JobState::Paused {
                        job.done_seen = Some(now);
                        job.state = Some(st.state);
                        job.status = Some(st.clone());
                        if st.state == JobState::Done {
                            let mut r = job.clone();
                            drop(l);
                            let req = r.arrival as u32 + 1;
                            let fetched = timed_for(rec, req, Layer::HttpRows, || {
                                fetch_rows(addr, jobs_dir, &mut r, id)
                            });
                            let mut l = live.lock().unwrap();
                            l.recs[k] = r;
                            if let Err(e) = fetched {
                                l.http_errors.push(e);
                            }
                        }
                    }
                }
                if let Some(rest) = POLL.checked_sub(tick.elapsed()) {
                    std::thread::sleep(rest);
                }
            }
        });
        while !live.lock().unwrap().submitted_all {
            std::thread::sleep(SETUP_PERIOD);
            between();
        }
    });
    let l = live.into_inner().unwrap();
    Drive {
        recs: l.recs,
        poll_ms: l.poll_ms,
        backlog_max: l.backlog_max,
        http_errors: l.http_errors,
        start,
        server_requests: 0,
    }
}

/// A bound server on an ephemeral port, serving from its own thread.
struct Running {
    addr: String,
    handle: std::thread::JoinHandle<std::io::Result<()>>,
}

fn bind(jobs_dir: PathBuf) -> Result<Server, ArmdseError> {
    Server::bind(&ServerConfig {
        addr: "127.0.0.1:0".into(),
        jobs_dir,
        runners: RUNNERS,
    })
}

fn start(server: Server) -> Running {
    let addr = server.local_addr().to_string();
    let handle = std::thread::spawn(move || server.serve());
    Running { addr, handle }
}

/// `GET /stats` request count, then `POST /shutdown` and join.
fn stop(run: Running) -> Result<u64, String> {
    let stats = client::request(&run.addr, "GET", "/stats", None)?;
    let requests = armdse_core::json::parse_json(&stats.text())
        .ok()
        .and_then(|v| v.as_object().and_then(|o| o.get("requests").and_then(|r| r.as_u64())))
        .unwrap_or(0);
    let r = client::request(&run.addr, "POST", "/shutdown", None)?;
    // A runner that misses the shutdown wake-up never exits; report it
    // instead of hanging the benchmark (the thread ends with the
    // process).
    let deadline = Instant::now() + SHUTDOWN_LIMIT;
    while !run.handle.is_finished() {
        if Instant::now() > deadline {
            return Err(format!("server did not shut down within {SHUTDOWN_LIMIT:?}"));
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    let joined = run.handle.join().map_err(|_| "server thread panicked".to_string())?;
    joined.map_err(|e| e.to_string())?;
    if r.status != 200 {
        return Err(format!("POST /shutdown: HTTP {}", r.status));
    }
    Ok(requests)
}

/// Open-loop run seed for benchmark seed `seed`.
fn serve_seed(seed: u64) -> u64 {
    seed.wrapping_mul(1_000_003) ^ 0x7376
}

/// One set-up: the schedule (every spec parsed and planned, workloads
/// built for every vector length) and a server bound on `jobs-{k}`.
fn set_up(seed: u64, args: &Args, k: usize) -> Result<(Vec<Arrival>, Bound, PathBuf), ArmdseError> {
    let arrivals = schedule(seed, args.seconds, usize::MAX)?;
    let jobs_dir = args.work.join(format!("jobs-{k}"));
    let server = Bound(Some(bind(jobs_dir.clone())?));
    Ok((arrivals, server, jobs_dir))
}

/// Run the workload for `args.seconds` and report.
pub fn run(args: &Args) -> Result<Outcome, ArmdseError> {
    let seed = serve_seed(args.seed);
    let mut out = Outcome::default();
    let mut setups = SetupTimes::default();
    let (arrivals, mut server, jobs_dir) = setups.first(|k| set_up(seed, args, k))?;
    let running = start(server.0.take().expect("bound"));
    let rec = args.trace.then(Recorder::new);
    let mut setup_errors = Vec::new();
    let mut next_dir = SETUP_REPS;
    let mut between = || {
        if rec.is_none() {
            next_dir += 1;
            if let Err(e) = setups.time(|| set_up(seed, args, next_dir)) {
                setup_errors.push(format!("serve: set-up during the window: {e}"));
            }
        }
    };
    let mut d = drive(&running.addr, &jobs_dir, &arrivals, usize::MAX, rec.as_deref(), &mut between);
    d.http_errors.append(&mut setup_errors);
    match stop(running) {
        Ok(n) => d.server_requests = n,
        Err(e) => d.http_errors.push(e),
    }
    check(&d, &arrivals, &mut out);

    let done: Vec<&JobRec> = d
        .recs
        .iter()
        .filter(|r| r.state == Some(JobState::Done))
        .collect();
    let latency = Sample::new(done.iter().map(|r| ms(r.done_seen.unwrap() - r.due)));
    let wall = done
        .iter()
        .map(|r| r.done_seen.unwrap() - d.start)
        .max()
        .unwrap_or_default()
        .as_secs_f64()
        .max(1e-9);
    // Throughput per runner-busy second, Σ(started → Done) ÷ runners:
    // completions per window second would only echo the offered rate.
    let busy_s = done
        .iter()
        .map(|r| (r.done_seen.unwrap() - r.started()).as_secs_f64())
        .sum::<f64>()
        / RUNNERS as f64;
    let busy_s = busy_s.max(1e-9);
    let sims: usize = done
        .iter()
        .map(|r| arrivals[r.arrival].spec.configs * App::ALL.len())
        .sum();
    let instrs: u64 = done.iter().map(|r| arrivals[r.arrival].instrs).sum();
    let good = done
        .iter()
        .filter(|r| ms(r.done_seen.unwrap() - r.due) <= LIMIT_MS)
        .count() as f64;
    let repeats = arrivals.iter().filter(|a| a.repeat_of.is_some()).count();
    let memoized = arrivals
        .iter()
        .filter(|a| matches!(a.spec.fidelity, Fidelity::Memoized { .. }))
        .count();
    let repeat_share = repeat_design_points(&arrivals);
    for tag in ["full", "sampled", "memoized"] {
        let tier: Vec<&&JobRec> = done
            .iter()
            .filter(|r| arrivals[r.arrival].spec.fidelity.tag() == tag)
            .collect();
        let latency = Sample::new(tier.iter().map(|r| ms(r.done_seen.unwrap() - r.due)));
        let service = Sample::new(tier.iter().map(|r| ms(r.done_seen.unwrap() - r.started())));
        out.info(&format!("serve.latency.{tag}"), latency.describe("ms"));
        out.info(&format!("serve.service.{tag}"), service.describe("ms"));
    }
    out.info("serve.jobs", format!("{} submitted, {} done", arrivals.len(), done.len()));
    out.info(
        "serve.goodput_jobs_per_s",
        format!("{:.4} 1/s (latency limit {LIMIT_MS} ms)", good / wall),
    );
    out.info(
        "serve.mix",
        format!(
            "{repeats} repeats, {memoized} memoized of {}; repeated design points {:.4}",
            arrivals.len(),
            repeat_share
        ),
    );

    if let Some(rec) = &rec {
        let submit: Vec<f64> = d.recs.iter().map(|r| ms(r.acked - r.sent)).collect();
        let submit_s = Sample::new(submit.iter().copied());
        out.set_with("http.submit_p50_ms", submit_s.median(), submit_s.describe("ms"));
        out.set_with("http.submit_p90_ms", submit_s.percentile(90.0), submit_s.describe("ms"));
        let polls = Sample::new(d.poll_ms.iter().copied());
        out.set_with("http.poll_p50_ms", polls.median(), polls.describe("ms"));
        let queue = Sample::new(done.iter().map(|r| ms(r.started() - r.acked)));
        let service = Sample::new(done.iter().map(|r| ms(r.done_seen.unwrap() - r.started())));
        out.set_with("sched.queue_wait_p50_ms", queue.median(), queue.describe("ms"));
        out.set_with("sched.run_p50_ms", service.median(), service.describe("ms"));
        out.set("server.requests", d.server_requests as f64);
        out.set("serve.repeat_share", repeat_share);
        out.set("serve.memoized_share", memoized as f64 / arrivals.len().max(1) as f64);
        out.set("serve.goodput_jobs_per_s", good / wall);
        let lag = Sample::new(d.recs.iter().map(|r| ms(r.sent.saturating_duration_since(r.due))));
        out.set_with("loadgen.lag_p99_ms", lag.percentile(99.0), lag.describe("ms"));
        out.set("loadgen.backlog_max", d.backlog_max as f64);
        replay(rec, &arrivals, &d, &jobs_dir, &mut out)?;
        if let Err(e) = rec.write_tsv(&crate::trace_path(args)) {
            eprintln!("[e2ebench] cannot write trace: {e}");
        }
    } else {
        setups.report(&mut out);
        out.set("jobs_per_s", sims as f64 / busy_s);
        out.set("sim_minstr_per_s", instrs as f64 / 1e6 / busy_s);
        out.set("peak_rss_mb", peak_rss_mb());
        let detail = format!("{}; poll period {} ms", latency.describe("ms"), POLL.as_millis());
        out.set_with("job_p50_ms", latency.median(), detail.clone());
        out.set_with("job_p90_ms", latency.percentile(90.0), detail);
    }
    Ok(out)
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Share of submitted design points — (config seed, scale, fidelity)
/// × app — already submitted earlier in the run.
fn repeat_design_points(arrivals: &[Arrival]) -> f64 {
    let mut seen = std::collections::HashSet::new();
    let (mut total, mut repeated) = (0usize, 0usize);
    for a in arrivals {
        for i in 0..a.spec.configs as u64 {
            total += 1;
            if !seen.insert((a.spec.seed + i, a.spec.fidelity.tag())) {
                repeated += 1;
            }
        }
    }
    repeated as f64 / total.max(1) as f64
}

/// Output checks: every submission accepted, every job `Done`, fetched
/// rows equal the job's CSV, rows + discarded = jobs, repeats
/// byte-identical, and (default seed) the first [`REF_JOBS`] CSVs.
fn check(d: &Drive, arrivals: &[Arrival], out: &mut Outcome) {
    for e in &d.http_errors {
        out.checks.check(false, || e.clone());
    }
    out.checks.check(d.recs.len() == arrivals.len(), || {
        format!("serve: {} of {} arrivals submitted", d.recs.len(), arrivals.len())
    });
    for r in &d.recs {
        out.checks.check(r.id.is_some(), || format!("serve: arrival {} not accepted", r.arrival));
        let Some(id) = r.id else { continue };
        out.checks.check(r.state == Some(JobState::Done), || {
            format!("serve: job {id} ended {:?}", r.state)
        });
        if r.state != Some(JobState::Done) {
            continue;
        }
        let st = r.status.as_ref().expect("terminal status");
        out.checks.check(r.rows_match, || format!("serve: job {id} rows differ from its CSV"));
        out.checks.check(st.rows + st.discarded == st.total_jobs && r.rows_lines == st.rows + 1, || {
            format!(
                "serve: job {id}: rows {} + discarded {} vs jobs {}, {} lines",
                st.rows, st.discarded, st.total_jobs, r.rows_lines
            )
        });
        if let Some(orig) = arrivals[r.arrival].repeat_of {
            let first = d.recs.iter().find(|o| o.arrival == orig);
            out.checks.check(first.is_some_and(|o| o.rows_digest == r.rows_digest), || {
                format!("serve: job {id} repeats arrival {orig} but its rows differ")
            });
        }
    }
    if d.recs.len() >= REF_JOBS {
        let text: String = d.recs[..REF_JOBS]
            .iter()
            .map(|r| format!("{:016x}\n", r.rows_digest))
            .collect();
        out.digest("serve.first_csvs", fnv1a(text.as_bytes()));
    }
}

/// The backend a job spec's private engine runs, built outside the
/// engine so it can be wrapped.
fn backend_for(f: Fidelity) -> Box<dyn SimBackend> {
    match f {
        Fidelity::Full => Box::new(Idealized),
        Fidelity::Memoized { interval_len } => {
            Box::new(Memoized::with_interval_len(Idealized, interval_len))
        }
        Fidelity::Sampled {
            interval_len,
            warmup,
        } => Box::new(Sampled::with_params(Idealized, interval_len, warmup)),
    }
}

/// Re-run the first [`REPLAY_JOBS`] new specs outside the server, each
/// on a fresh engine as the server builds one: once as the server does
/// (`JobSpec::engine`, `CsvSink`, a checkpoint per chunk) and once with
/// a traced backend, traced sink and observer marks. Both must write
/// the served CSV's bytes. The traced replays give the engine, simcore
/// and kernels layers of served jobs, which the server's runners do not
/// expose from outside.
fn replay(
    rec: &Arc<Recorder>,
    arrivals: &[Arrival],
    d: &Drive,
    jobs_dir: &Path,
    out: &mut Outcome,
) -> Result<(), ArmdseError> {
    let space = ParamSpace::paper();
    let dir = jobs_dir.with_file_name("replay");
    std::fs::create_dir_all(&dir)?;
    let picks: Vec<&JobRec> = d
        .recs
        .iter()
        .filter(|r| arrivals[r.arrival].repeat_of.is_none() && r.state == Some(JobState::Done))
        .take(REPLAY_JOBS)
        .collect();
    let (mut plain_ns, mut traced_ns) = (0u64, 0u64);
    let mut totals = Vec::new();
    let mut all_spans = Vec::new();
    let (mut builds, mut instrs_m, mut sink, mut fsync, mut ckpt, mut io, mut straggle) =
        (vec![], vec![], vec![], vec![], vec![], vec![], vec![]);
    let (mut busy, mut share, mut unattributed, mut chunks) = (vec![], vec![], vec![], vec![]);
    for (k, r) in picks.iter().enumerate() {
        let spec = &arrivals[r.arrival].spec;
        let plan = spec.plan(&space)?;
        let served = std::fs::read(jobs_dir.join(format!("job-{}.csv", r.id.unwrap())))?;
        let csv = dir.join("job.csv");
        let ckpt_path = dir.join("job.ckpt");

        // As the server runs it.
        let _ = std::fs::remove_file(&ckpt_path);
        let t = Instant::now();
        let engine = spec.engine();
        let mut sink_plain = CsvSink::create(&csv)?;
        engine.run_controlled(
            &plan,
            &mut sink_plain,
            RunControl {
                checkpoint: Some(&ckpt_path),
                ..RunControl::default()
            },
        )?;
        plain_ns += t.elapsed().as_nanos() as u64;
        drop(sink_plain);
        out.checks.check(std::fs::read(&csv)? == served, || {
            format!("serve: replay of job {} differs from the served CSV", r.id.unwrap())
        });

        // Traced.
        let id = k as u32 + 1_000_000;
        rec.set_request(id);
        let _ = std::fs::remove_file(&ckpt_path);
        let t = Instant::now();
        let req_start = rec.now();
        let engine = Engine::new(Box::new(TracedBackend::new(
            backend_for(spec.fidelity),
            Arc::clone(rec),
        )));
        for i in 0..spec.configs as u64 {
            let vl = space.sample_seeded(spec.seed + i).core.vector_length;
            for &app in &spec.apps {
                let start = rec.now();
                let w = engine.workload(app, spec.scale, vl);
                let count = SimCount {
                    app: Some(app),
                    instrs: w.program.dynamic_len(),
                    ..Default::default()
                };
                rec.record(Layer::Kernels, start, rec.now(), Some(count));
            }
        }
        let mut sink_traced = TracedSink::new(CsvSink::create(&csv)?, Arc::clone(rec));
        let mut observer = |_: &Progress| {
            rec.mark();
            true
        };
        timed(Some(rec), Layer::EngineRun, || {
            engine.run_controlled(
                &plan,
                &mut sink_traced,
                RunControl {
                    checkpoint: Some(&ckpt_path),
                    observer: Some(&mut observer),
                    ..RunControl::default()
                },
            )
        })?;
        rec.record(Layer::Request, req_start, rec.now(), None);
        traced_ns += t.elapsed().as_nanos() as u64;
        drop(sink_traced);
        out.checks.check(std::fs::read(&csv)? == served, || {
            format!("serve: traced replay of job {} differs from the served CSV", r.id.unwrap())
        });

        let spans = rec.spans_of(id);
        let t = sim_totals(&spans);
        let b = engine_breakdown(&spans, spec.threads);
        let sum_of = |l: Layer| spans.iter().filter(|s| s.layer == l).map(Span::ns).sum::<u64>();
        let wall = spans
            .iter()
            .find(|s| s.layer == Layer::Request)
            .map_or(1, Span::ns) as f64;
        builds.push(sum_of(Layer::Kernels) as f64 / 1e6);
        instrs_m.push(
            spans
                .iter()
                .filter(|s| s.layer == Layer::Kernels)
                .filter_map(|s| s.sim)
                .map(|c| c.instrs)
                .sum::<u64>() as f64
                / 1e6,
        );
        sink.push(b.sink as f64 / 1e6);
        fsync.push(b.fsync as f64 / 1e6);
        ckpt.push(b.ckpt as f64 / 1e6);
        io.push((b.sink + b.fsync + b.ckpt) as f64 / b.wall.max(1) as f64);
        straggle.push(b.straggle as f64 / 1e6);
        chunks.push(b.chunks as f64);
        busy.push(t.busy as f64 / 1e9);
        share.push(t.busy as f64 / spec.threads.max(1) as f64 / wall);
        let covered = sum_of(Layer::Kernels) + sum_of(Layer::EngineRun);
        unattributed.push((wall - covered as f64).max(0.0) / wall);
        totals.push(t);
        all_spans.extend(spans);
    }
    // Simulated counts over the whole replay set (deterministic: the
    // picks depend only on the seed).
    let mut sum = sim_totals(&all_spans);
    sum.per_app.clear();
    simulated_counts(&sum, out, "serve");
    let med = |v: &[f64]| Sample::new(v.iter().copied()).median();
    out.set("simcore.calls", sum.calls as f64);
    out.set("simcore.busy_s", med(&busy));
    out.set("simcore.share", med(&share));
    simcore_rates(&totals, &all_spans, out);
    out.set("kernels.build_ms", med(&builds));
    out.set("kernels.instrs_m", med(&instrs_m));
    out.set("engine.chunks", med(&chunks));
    out.set("engine.sink_ms", med(&sink));
    out.set("engine.fsync_ms", med(&fsync));
    out.set("engine.ckpt_ms", med(&ckpt));
    out.set("engine.io_share", med(&io));
    out.set("engine.straggle_ms", med(&straggle));
    out.set("trace.unattributed_share", med(&unattributed));
    out.set_with(
        "trace.overhead_pct",
        (traced_ns as f64 / plain_ns.max(1) as f64 - 1.0) * 100.0,
        format!("{} replayed jobs, traced vs as served", picks.len()),
    );
    Ok(())
}

/// `--calibrate`: submit a burst of jobs from the schedule all at once
/// (a saturated closed system) and report jobs completed per second by
/// the two runners.
pub fn calibrate(args: &Args) -> i32 {
    let result = (|| -> Result<(f64, usize), ArmdseError> {
        let mut arrivals = schedule(serve_seed(args.seed), f64::INFINITY, 120)?;
        for a in &mut arrivals {
            a.due = 0.0;
        }
        let jobs_dir = args.work.join("jobs");
        let running = start(bind(jobs_dir.clone())?);
        let d = drive(&running.addr, &jobs_dir, &arrivals, 2 * RUNNERS, None, &mut || {});
        let _ = stop(running);
        let wall = d
            .recs
            .iter()
            .filter_map(|r| r.done_seen)
            .max()
            .map_or(0.0, |t| (t - d.start).as_secs_f64());
        Ok((d.recs.len() as f64 / wall, d.recs.len()))
    })();
    match result {
        Ok((cap, n)) => {
            println!(
                "serve capacity: {cap:.2} jobs/s over {n} jobs with {RUNNERS} runners; \
                 RATE_PER_S = {RATE_PER_S} is {:.0}% of it",
                100.0 * RATE_PER_S / cap
            );
            0
        }
        Err(e) => {
            eprintln!("e2ebench: calibration failed: {e}");
            1
        }
    }
}
