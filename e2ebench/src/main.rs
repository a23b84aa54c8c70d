//! `armdse-e2ebench` — the end-to-end DSE benchmark.
//!
//! ```text
//! armdse-e2ebench --workload campaign|explore|serve|multicore
//!                 [--seed N] [--seconds S] [--trace 0|1]
//!                 [--record-reference] [--calibrate]
//! ```
//!
//! Each workload sets up (several times; the median is `setup_s`),
//! measures for `--seconds` of host time, checks its outputs, prints
//! every metric by name and unit, and ends with one JSON line:
//! `{"correct", "attempted", "failed", "metrics"}`. `--trace 0` reports
//! the end-to-end metrics with no wrapper in the measured path;
//! `--trace 1` alternates traced and untraced requests and reports the
//! per-layer metrics instead (see README.md for the layer map).
//!
//! Host time (what the simulator costs) and simulated time (what the
//! modelled machine would take) are named apart everywhere: `_ms`,
//! `_s` and `ns_per_` figures are host time; `sim_` counts and
//! `memsim.*` are simulated. The model is unvalidated against real
//! hardware, so no simulator-error figure is reported; correctness
//! means bit-identical simulated output.

mod campaign;
mod explore;
mod serve;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// The seed whose output digests are pinned in `reference.txt`.
pub const DEFAULT_SEED: u64 = 1;
/// Host threads every workload simulates with (the target is a 2-vCPU
/// host).
pub const THREADS: usize = 2;
/// Set-ups timed before the measurement window…
pub const SETUP_REPS: usize = 5;
/// …and before each closed-loop request inside it (serve times one
/// every `serve::SETUP_PERIOD` instead). Host speed here shifts on a
/// scale of tenths of a second, so set-ups timed back to back all land
/// in one phase; spread over the window, their median sees the same
/// host as the throughput figures do.
pub const SETUP_REPS_PER_REQUEST: usize = 3;

/// Digests recorded from a default-seed run (`--record-reference`).
const REFERENCE: &str = include_str!("../reference.txt");

/// End-to-end metrics (`--trace 0`), with units.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("jobs_per_s", "1/s"),
    ("sim_minstr_per_s", "Minstr/s"),
    ("peak_rss_mb", "MB"),
    ("job_p50_ms", "ms"),
    ("job_p90_ms", "ms"),
];

/// Per-layer metrics (`--trace 1`), with units. A layer a workload
/// does not exercise, or that cannot be seen from outside on it,
/// reports 0.
pub const PER_LAYER: [(&str, &str); 47] = [
    ("kernels.build_ms", "ms"),
    ("kernels.instrs_m", "Minstr"),
    ("simcore.calls", "count"),
    ("simcore.busy_s", "s"),
    ("simcore.share", "ratio"),
    ("simcore.ns_per_cycle", "ns"),
    ("simcore.ns_per_instr.STREAM", "ns"),
    ("simcore.ns_per_instr.MiniBude", "ns"),
    ("simcore.ns_per_instr.TeaLeaf", "ns"),
    ("simcore.ns_per_instr.MiniSweep", "ns"),
    ("simcore.ns_per_instr.SpMV", "ns"),
    ("simcore.ns_per_instr.GEMM", "ns"),
    ("simcore.ns_per_instr.Graph", "ns"),
    ("simcore.call_p50_ms", "ms"),
    ("simcore.call_p99_ms", "ms"),
    ("simcore.sim_cycles", "cycles"),
    ("memsim.l1_miss_rate", "ratio"),
    ("memsim.l2_miss_rate", "ratio"),
    ("memsim.requests", "count"),
    ("memsim.dram_queue_wait_cycles", "cycles"),
    ("memsim.mshr_mean_occupancy", "entries"),
    ("engine.chunks", "count"),
    ("engine.sink_ms", "ms"),
    ("engine.fsync_ms", "ms"),
    ("engine.ckpt_ms", "ms"),
    ("engine.io_share", "ratio"),
    ("engine.straggle_ms", "ms"),
    ("surrogate.train_ms", "ms"),
    ("surrogate.acc_pct", "%"),
    ("importance.ms", "ms"),
    ("explorer.rounds", "count"),
    ("explorer.round_p50_ms", "ms"),
    ("explorer.self_s", "s"),
    ("explorer.r2", "ratio"),
    ("http.submit_p50_ms", "ms"),
    ("http.submit_p90_ms", "ms"),
    ("http.poll_p50_ms", "ms"),
    ("sched.queue_wait_p50_ms", "ms"),
    ("sched.run_p50_ms", "ms"),
    ("server.requests", "count"),
    ("serve.repeat_share", "ratio"),
    ("serve.memoized_share", "ratio"),
    ("serve.goodput_jobs_per_s", "1/s"),
    ("loadgen.lag_p99_ms", "ms"),
    ("loadgen.backlog_max", "count"),
    ("trace.overhead_pct", "%"),
    ("trace.unattributed_share", "ratio"),
];

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measurement window (host seconds).
    pub seconds: f64,
    /// Per-layer (traced) run.
    pub trace: bool,
    /// Rewrite this workload's lines of `reference.txt`.
    pub record: bool,
    /// Measure 2-runner serving capacity instead of running a workload.
    pub calibrate: bool,
    /// Scratch directory inside the working directory.
    pub work: PathBuf,
}

/// Operations attempted and failed: caller requests, HTTP requests and
/// output checks. A mismatch is a failed operation.
#[derive(Debug, Default)]
pub struct Checks {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
}

impl Checks {
    /// Count one operation; `what` describes it if it failed.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("[e2ebench] FAILED: {}", what());
        }
    }
}

/// What a workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operation accounting.
    pub checks: Checks,
    /// Metric values by name (units come from the tables above).
    pub metrics: BTreeMap<&'static str, f64>,
    /// Human-readable detail printed beside a metric (sample counts).
    pub detail: BTreeMap<&'static str, String>,
    /// Workload figures outside the JSON contract, printed for people.
    pub info: Vec<(String, String)>,
    /// Output digests compared against `reference.txt` at the default
    /// seed.
    pub digests: Vec<(String, u64)>,
}

impl Outcome {
    /// Set a metric; the name must be in the table for this mode.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(value.is_finite(), "{name} is not finite: {value}");
        self.metrics.insert(name, value);
    }

    /// Set a metric with a human-readable detail line.
    pub fn set_with(&mut self, name: &'static str, value: f64, detail: String) {
        self.set(name, value);
        self.detail.insert(name, detail);
    }

    /// Record an informational figure.
    pub fn info(&mut self, name: &str, value: String) {
        self.info.push((name.to_string(), value));
    }

    /// Record an output digest.
    pub fn digest(&mut self, key: &str, value: u64) {
        self.digests.push((key.to_string(), value));
    }
}

/// 64-bit FNV-1a over `bytes`.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// FNV-1a of a file's bytes (0 when unreadable, which never matches a
/// recorded digest).
pub fn file_digest(path: &Path) -> u64 {
    std::fs::read(path).map_or(0, |b| fnv1a(&b))
}

/// Lines in a file (0 when unreadable).
pub fn file_lines(path: &Path) -> usize {
    std::fs::read(path).map_or(0, |b| b.iter().filter(|&&c| c == b'\n').count())
}

/// Peak resident set (`VmHWM`) of this process in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Reset this process's peak-RSS mark (`VmHWM`) to its current RSS
/// (Linux `clear_refs` value 5), so the next [`peak_rss_mb`] reads the
/// peak of what ran since. Returns false where that is unsupported;
/// the mark then keeps covering the whole process lifetime.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Where a traced run writes its spans.
pub fn trace_path(args: &Args) -> PathBuf {
    let dir = PathBuf::from(".bench_work").join("traces");
    let _ = std::fs::create_dir_all(&dir);
    dir.join(format!("{}-seed{}.tsv", args.workload, args.seed))
}

/// Host seconds of each timed set-up; `setup_s` is their median.
#[derive(Debug, Default)]
pub struct SetupTimes(Vec<f64>);

impl SetupTimes {
    /// Run and time one set-up.
    pub fn time<T, E>(&mut self, f: impl FnOnce() -> Result<T, E>) -> Result<T, E> {
        let t = std::time::Instant::now();
        let ready = f()?;
        self.0.push(t.elapsed().as_secs_f64());
        Ok(ready)
    }

    /// Run [`SETUP_REPS`] timed set-ups (`f` gets the repetition
    /// number) and keep the last one's result.
    pub fn first<T, E>(&mut self, mut f: impl FnMut(usize) -> Result<T, E>) -> Result<T, E> {
        for k in 1..SETUP_REPS {
            self.time(|| f(k))?;
        }
        self.time(|| f(SETUP_REPS))
    }

    /// Report `setup_s` with its sample count.
    pub fn report(&self, out: &mut Outcome) {
        let ms = stats::Sample::new(self.0.iter().map(|s| s * 1e3));
        out.set_with("setup_s", ms.median() / 1e3, ms.describe("ms"));
    }
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut record = false;
    let mut calibrate = false;
    while let Some(flag) = args.next() {
        let mut val = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(val()?),
            "--seed" => seed = val()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = val()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => trace = val()? != "0",
            "--record-reference" => record = true,
            "--calibrate" => calibrate = true,
            f => return Err(format!("unknown flag {f}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if !["campaign", "explore", "serve", "multicore"].contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    if !(seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    if record && seed != DEFAULT_SEED {
        return Err(format!("--record-reference needs the default seed {DEFAULT_SEED}"));
    }
    let work = PathBuf::from(".bench_work").join(format!("{workload}-{}", std::process::id()));
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        record,
        calibrate,
        work,
    })
}

/// Reference digests of `workload`: key → digest.
fn reference(workload: &str) -> BTreeMap<String, u64> {
    REFERENCE
        .lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (w, k, d) = (f.next()?, f.next()?, f.next()?);
            let d = u64::from_str_radix(d, 16).ok()?;
            (w == workload).then(|| (k.to_string(), d))
        })
        .collect()
}

/// Compare the run's digests with the recorded reference (default seed
/// only: the reference pins one seed's outputs).
fn check_reference(args: &Args, out: &mut Outcome) {
    if args.seed != DEFAULT_SEED {
        return;
    }
    let want = reference(&args.workload);
    let digests = std::mem::take(&mut out.digests);
    for (key, got) in &digests {
        let expected = want.get(key).copied();
        out.checks.check(expected == Some(*got), || match expected {
            Some(e) => format!("{key}: digest {got:016x} != reference {e:016x}"),
            None => format!("{key}: no reference digest recorded"),
        });
    }
    out.digests = digests;
}

/// Rewrite this workload's lines of `reference.txt` from the run.
fn record_reference(args: &Args, out: &Outcome) -> std::io::Result<()> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("reference.txt");
    let old = std::fs::read_to_string(&path).unwrap_or_default();
    let mut lines: Vec<String> = old
        .lines()
        .filter(|l| l.split_whitespace().next() != Some(args.workload.as_str()))
        .map(str::to_string)
        .collect();
    for (k, d) in &out.digests {
        lines.push(format!("{} {k} {d:016x}", args.workload));
    }
    std::fs::write(&path, lines.join("\n") + "\n")
}

fn json_result(out: &Outcome, table: &[(&str, &str)]) -> String {
    let metrics: Vec<String> = table
        .iter()
        .map(|(name, unit)| {
            let v = out.metrics.get(name).copied().unwrap_or(0.0);
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.checks.failed == 0,
        out.checks.attempted.max(1),
        out.checks.failed,
        metrics.join(", ")
    )
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            std::process::exit(2);
        }
    };
    let _ = std::fs::remove_dir_all(&args.work);
    if let Err(e) = std::fs::create_dir_all(&args.work) {
        eprintln!("e2ebench: cannot create {}: {e}", args.work.display());
        std::process::exit(1);
    }
    if args.calibrate {
        let code = if args.workload == "serve" {
            serve::calibrate(&args)
        } else {
            eprintln!("e2ebench: --calibrate applies to the serve workload only");
            2
        };
        let _ = std::fs::remove_dir_all(&args.work);
        std::process::exit(code);
    }
    let result = match args.workload.as_str() {
        "campaign" => campaign::run(&args, &campaign::CAMPAIGN),
        "multicore" => campaign::run(&args, &campaign::MULTICORE),
        "explore" => explore::run(&args),
        _ => serve::run(&args),
    };
    let _ = std::fs::remove_dir_all(&args.work);
    let mut out = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("e2ebench: {} failed: {e}", args.workload);
            std::process::exit(1);
        }
    };
    if args.record {
        if let Err(e) = record_reference(&args, &out) {
            eprintln!("e2ebench: cannot record reference: {e}");
            std::process::exit(1);
        }
        eprintln!("[e2ebench] recorded {} digests", out.digests.len());
    } else {
        check_reference(&args, &mut out);
    }

    let table: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    for (name, _) in table {
        assert!(
            args.trace || out.metrics.contains_key(name),
            "{} did not report {name}",
            args.workload
        );
    }
    println!(
        "{} seed={} seconds={} trace={}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    for (name, unit) in table {
        let v = out.metrics.get(name).copied().unwrap_or(0.0);
        let detail = out.detail.get(name).map_or(String::new(), |d| format!("  [{d}]"));
        println!("  {name:<32} {v:>14.4} {unit}{detail}");
    }
    for (name, value) in &out.info {
        println!("  {name:<32} {value}");
    }
    let failed_frac = out.checks.failed as f64 / out.checks.attempted.max(1) as f64;
    println!(
        "  {:<32} {failed_frac:>14.4} ratio  [{} of {} operations]",
        "failed_frac", out.checks.failed, out.checks.attempted
    );
    println!("{}", json_result(&out, table));
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Names and units declared in `BENCHMARK.json` (a flat scan of its
    /// `"name"`/`"unit"` pairs under one section key).
    fn declared(section: &str) -> Vec<(String, String)> {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
        let start = text.find(&format!("\"{section}\"")).expect("section present");
        let body = &text[start..];
        let body = &body[..body.find(']').expect("section closes")];
        let field = |obj: &str, key: &str| -> String {
            let at = obj.find(&format!("\"{key}\"")).expect("field present");
            let rest = &obj[at + key.len() + 2..];
            let open = rest.find('"').expect("value opens") + 1;
            let close = rest[open..].find('"').expect("value closes");
            rest[open..open + close].to_string()
        };
        body.split('{')
            .skip(1)
            .map(|obj| (field(obj, "name"), field(obj, "unit")))
            .collect()
    }

    fn table(t: &[(&str, &str)]) -> Vec<(String, String)> {
        t.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn metric_tables_match_benchmark_json() {
        assert_eq!(declared("end_to_end"), table(&END_TO_END));
        assert_eq!(declared("per_layer"), table(&PER_LAYER));
    }

    #[test]
    fn fnv1a_matches_known_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn json_result_lists_every_metric_of_the_table() {
        let mut out = Outcome::default();
        out.set("setup_s", 0.5);
        let line = json_result(&out, &END_TO_END);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0"));
        for (name, unit) in END_TO_END {
            assert!(line.contains(&format!("\"{name}\": {{\"value\": ")));
            assert!(line.contains(&format!("\"unit\": \"{unit}\"")));
        }
    }
}
