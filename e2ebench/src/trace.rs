//! Outside-in tracing: spans recorded around calls into the armdse
//! crates' public API, never inside them.
//!
//! * [`TracedBackend`] is a delegating [`SimBackend`] handed to
//!   `Engine::new`. It forwards every trait method to the wrapped
//!   backend (so Memoized, Sampled and MultiCore behave unchanged) and
//!   records one `simcore` span per simulation, with the program's
//!   architectural instruction count and the simulated cycle and
//!   memory-hierarchy counts the backend returned.
//! * [`TracedSink`] is a delegating [`RowSink`] around a `CsvSink`:
//!   `engine.sink` spans for rows, `engine.fsync` for chunk ends.
//! * Progress observers call [`Recorder::mark`] at every chunk
//!   boundary; the engine saves its checkpoint between the sink's
//!   chunk end and the observer, so the gap is the checkpoint time.
//!
//! Spans stay in memory and are written out once, when the run ends
//! ([`Recorder::write_tsv`]). Every span carries the id of the request
//! (campaign iteration, explore run, served job) that caused it.

use armdse_core::dataset::{DiscardedRun, Row};
use armdse_core::{ArmdseError, RowSink};
use armdse_isa::instr::DynInstr;
use armdse_isa::Program;
use armdse_kernels::{build_workload, App, WorkloadScale};
use armdse_memsim::{MemParams, MemStats};
use armdse_simcore::{
    CoreParams, Counters, Fidelity, PerCoreMetrics, ReuseStats, SimBackend, SimStats, Topology,
};
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Which layer boundary a span was recorded at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// One caller-visible request (the parent of every other span).
    Request,
    /// A workload build through the engine's `WorkloadCache`.
    Kernels,
    /// One call into the simulation backend.
    Simcore,
    /// One `Engine::run_controlled` call.
    EngineRun,
    /// A row or discarded-run hand-off to the sink.
    EngineSink,
    /// The sink's chunk end (flush + fsync).
    EngineFsync,
    /// A progress-observer call (zero length: a timestamp).
    Mark,
    /// Dataset reload after the campaign (`DseDataset::load_csv`).
    LoadCsv,
    /// `SurrogateSuite::train` (fit, evaluation and importances).
    Surrogate,
    /// Permutation importance re-run through `armdse_mltree`.
    Importance,
    /// One `Explorer::run` call.
    Explorer,
    /// `POST /jobs`.
    HttpSubmit,
    /// `GET /jobs/{id}`.
    HttpPoll,
    /// `GET /jobs/{id}/rows`.
    HttpRows,
}

impl Layer {
    fn name(self) -> &'static str {
        match self {
            Layer::Request => "request",
            Layer::Kernels => "kernels.build",
            Layer::Simcore => "simcore.run",
            Layer::EngineRun => "engine.run",
            Layer::EngineSink => "engine.sink",
            Layer::EngineFsync => "engine.fsync",
            Layer::Mark => "engine.chunk_mark",
            Layer::LoadCsv => "dataset.load_csv",
            Layer::Surrogate => "surrogate.train",
            Layer::Importance => "importance.permutation",
            Layer::Explorer => "explorer.run",
            Layer::HttpSubmit => "http.submit",
            Layer::HttpPoll => "http.poll",
            Layer::HttpRows => "http.rows",
        }
    }
}

/// What one simulation covered: architectural work (from the program)
/// and simulated results (from the backend).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SimCount {
    /// Application index into `App::EXTENDED` (`None`: unknown program).
    pub app: Option<App>,
    /// Architectural instructions covered (program length × cores).
    pub instrs: u64,
    /// Simulated cycles.
    pub cycles: u64,
    /// Simulated memory-hierarchy counts.
    pub mem: MemStats,
}

/// One recorded span; times are host nanoseconds since the recorder's
/// epoch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    /// Layer boundary.
    pub layer: Layer,
    /// Request that caused the span.
    pub req: u32,
    /// Start (host ns).
    pub start: u64,
    /// End (host ns).
    pub end: u64,
    /// Simulation counts (`Simcore` and `Kernels` spans only).
    pub sim: Option<SimCount>,
}

impl Span {
    /// Duration in host nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end - self.start
    }
}

/// In-memory span store shared by every wrapper of one run.
pub struct Recorder {
    epoch: Instant,
    req: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    /// A recorder whose epoch is now.
    pub fn new() -> Arc<Recorder> {
        Arc::new(Recorder {
            epoch: Instant::now(),
            req: AtomicU32::new(0),
            spans: Mutex::new(Vec::with_capacity(1 << 14)),
        })
    }

    /// Host nanoseconds since the epoch.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Attribute subsequent spans to request `req`.
    pub fn set_request(&self, req: u32) {
        self.req.store(req, Ordering::Relaxed);
    }

    /// Record a span of the current request.
    pub fn record(&self, layer: Layer, start: u64, end: u64, sim: Option<SimCount>) {
        let req = self.req.load(Ordering::Relaxed);
        self.record_for(req, layer, start, end, sim);
    }

    /// Record a span of an explicit request.
    pub fn record_for(&self, req: u32, layer: Layer, start: u64, end: u64, sim: Option<SimCount>) {
        let span = Span {
            layer,
            req,
            start,
            end,
            sim,
        };
        self.spans.lock().expect("recorder poisoned").push(span);
    }

    /// Time `f` as one span of `layer`.
    pub fn time<T>(&self, layer: Layer, f: impl FnOnce() -> T) -> T {
        let start = self.now();
        let out = f();
        self.record(layer, start, self.now(), None);
        out
    }

    /// Record a progress-observer timestamp.
    pub fn mark(&self) {
        let t = self.now();
        self.record(Layer::Mark, t, t, None);
    }

    /// Snapshot of the spans of request `req`, in recording order.
    pub fn spans_of(&self, req: u32) -> Vec<Span> {
        let spans = self.spans.lock().expect("recorder poisoned");
        spans.iter().filter(|s| s.req == req).copied().collect()
    }

    /// Write every span as tab-separated text: layer, request, start,
    /// end (host ns), then app, instructions and simulated cycles.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        let spans = self.spans.lock().expect("recorder poisoned");
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "layer\treq\tstart_ns\tend_ns\tapp\tinstrs\tsim_cycles")?;
        for s in spans.iter() {
            let (app, instrs, cycles) = s.sim.map_or(("", 0, 0), |c| {
                (c.app.map_or("?", App::name), c.instrs, c.cycles)
            });
            writeln!(
                w,
                "{}\t{}\t{}\t{}\t{app}\t{instrs}\t{cycles}",
                s.layer.name(),
                s.req,
                s.start,
                s.end
            )?;
        }
        w.flush()
    }
}

/// Run `f`, recording it as one span of `layer` when tracing.
pub fn timed<T>(rec: Option<&Arc<Recorder>>, layer: Layer, f: impl FnOnce() -> T) -> T {
    match rec {
        Some(r) => r.time(layer, f),
        None => f(),
    }
}

/// Run `f`, recording it as one span of `layer` for request `req` when
/// tracing (for callers on threads that serve many requests).
pub fn timed_for<T>(rec: Option<&Recorder>, req: u32, layer: Layer, f: impl FnOnce() -> T) -> T {
    let Some(r) = rec else { return f() };
    let start = r.now();
    let out = f();
    r.record_for(req, layer, start, r.now(), None);
    out
}

/// The application a lowered program was built from, matched by
/// program name (names do not depend on scale or vector length).
pub fn app_of(program: &Program) -> Option<App> {
    static NAMES: OnceLock<Vec<(String, App)>> = OnceLock::new();
    let names = NAMES.get_or_init(|| {
        App::EXTENDED
            .iter()
            .map(|&a| (build_workload(a, WorkloadScale::Tiny, 128).program.name, a))
            .collect()
    });
    names
        .iter()
        .find(|(n, _)| *n == program.name)
        .map(|&(_, a)| a)
}

/// Delegating backend: forwards every [`SimBackend`] method and records
/// a `simcore` span around each simulation.
pub struct TracedBackend {
    inner: Box<dyn SimBackend>,
    rec: Arc<Recorder>,
    cores: u64,
}

impl TracedBackend {
    /// Wrap `inner`, recording into `rec`.
    pub fn new(inner: Box<dyn SimBackend>, rec: Arc<Recorder>) -> TracedBackend {
        let cores = u64::from(inner.topology().cores.max(1));
        TracedBackend { inner, rec, cores }
    }

    fn timed<T>(&self, program: &Program, f: impl FnOnce() -> T, stats: fn(&T) -> &SimStats) -> T {
        let start = self.rec.now();
        let out = f();
        let end = self.rec.now();
        let s = stats(&out);
        let count = SimCount {
            app: app_of(program),
            instrs: program.dynamic_len() * self.cores,
            cycles: s.cycles,
            mem: s.mem,
        };
        self.rec.record(Layer::Simcore, start, end, Some(count));
        out
    }
}

impl SimBackend for TracedBackend {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn run(&self, program: &Program, core: &CoreParams, mem: &MemParams) -> SimStats {
        self.timed(program, || self.inner.run(program, core, mem), |s| s)
    }

    fn run_traced(
        &self,
        program: &Program,
        core: &CoreParams,
        mem: &MemParams,
    ) -> (SimStats, Vec<DynInstr>) {
        self.timed(
            program,
            || self.inner.run_traced(program, core, mem),
            |r| &r.0,
        )
    }

    fn run_with_metrics(
        &self,
        program: &Program,
        core: &CoreParams,
        mem: &MemParams,
    ) -> (SimStats, Counters) {
        self.timed(
            program,
            || self.inner.run_with_metrics(program, core, mem),
            |r| &r.0,
        )
    }

    fn reuse_stats(&self) -> Option<ReuseStats> {
        self.inner.reuse_stats()
    }

    fn fidelity(&self) -> Fidelity {
        self.inner.fidelity()
    }

    fn clear_reuse_cache(&self) {
        self.inner.clear_reuse_cache()
    }

    fn topology(&self) -> Topology {
        self.inner.topology()
    }

    fn run_with_metrics_per_core(
        &self,
        program: &Program,
        core: &CoreParams,
        mem: &MemParams,
    ) -> (SimStats, Counters, Vec<PerCoreMetrics>) {
        self.timed(
            program,
            || self.inner.run_with_metrics_per_core(program, core, mem),
            |r| &r.0,
        )
    }
}

/// Delegating row sink: `engine.sink` spans per row, `engine.fsync`
/// spans per chunk end.
pub struct TracedSink<S: RowSink> {
    /// The wrapped sink.
    pub inner: S,
    rec: Arc<Recorder>,
}

impl<S: RowSink> TracedSink<S> {
    /// Wrap `inner`, recording into `rec`.
    pub fn new(inner: S, rec: Arc<Recorder>) -> TracedSink<S> {
        TracedSink { inner, rec }
    }
}

impl<S: RowSink> RowSink for TracedSink<S> {
    fn row(&mut self, row: &Row) -> Result<(), ArmdseError> {
        let rec = Arc::clone(&self.rec);
        rec.time(Layer::EngineSink, || self.inner.row(row))
    }

    fn discarded(&mut self, d: &DiscardedRun) -> Result<(), ArmdseError> {
        let rec = Arc::clone(&self.rec);
        rec.time(Layer::EngineSink, || self.inner.discarded(d))
    }

    fn chunk_end(&mut self) -> Result<(), ArmdseError> {
        let rec = Arc::clone(&self.rec);
        rec.time(Layer::EngineFsync, || self.inner.chunk_end())
    }
}

/// Host-time breakdown of one `Engine::run_controlled` call,
/// reconstructed from its spans.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EngineBreakdown {
    /// Run wall time (ns).
    pub wall: u64,
    /// Chunks completed.
    pub chunks: usize,
    /// Time in sink row hand-offs (ns).
    pub sink: u64,
    /// Time in chunk-end flush + fsync (ns).
    pub fsync: u64,
    /// Sink chunk end → observer: the checkpoint write (ns).
    pub ckpt: u64,
    /// Per chunk, simulate-phase wall minus in-chunk simulate busy ÷
    /// threads, summed (ns; can be negative when threads idle-wait
    /// less than a chunk's scheduling slack).
    pub straggle: i64,
}

/// Reconstruct the engine timeline of the `EngineRun` span in `spans`
/// (all of one request). Chunk `k` runs from the previous observer mark
/// (or the run start) to its own mark; its simulate phase ends at the
/// first sink call, which the engine only makes after every job of the
/// chunk finished.
pub fn engine_breakdown(spans: &[Span], threads: usize) -> EngineBreakdown {
    let Some(run) = spans.iter().find(|s| s.layer == Layer::EngineRun) else {
        return EngineBreakdown::default();
    };
    let inside = |s: &&Span| s.start >= run.start && s.end <= run.end;
    let marks: Vec<u64> = spans
        .iter()
        .filter(inside)
        .filter(|s| s.layer == Layer::Mark)
        .map(|s| s.start)
        .collect();
    let mut b = EngineBreakdown {
        wall: run.ns(),
        chunks: marks.len(),
        ..EngineBreakdown::default()
    };
    let mut chunk_start = run.start;
    for &mark in &marks {
        let in_chunk: Vec<&Span> = spans
            .iter()
            .filter(inside)
            .filter(|s| s.start >= chunk_start && s.end <= mark)
            .collect();
        let first_sink = in_chunk
            .iter()
            .filter(|s| matches!(s.layer, Layer::EngineSink | Layer::EngineFsync))
            .map(|s| s.start)
            .min()
            .unwrap_or(mark);
        let busy: u64 = in_chunk
            .iter()
            .filter(|s| s.layer == Layer::Simcore)
            .map(|s| s.ns())
            .sum();
        b.straggle += (first_sink - chunk_start) as i64 - (busy / threads.max(1) as u64) as i64;
        for s in &in_chunk {
            match s.layer {
                Layer::EngineSink => b.sink += s.ns(),
                Layer::EngineFsync => {
                    b.fsync += s.ns();
                    b.ckpt += mark - s.end;
                }
                _ => {}
            }
        }
        chunk_start = mark;
    }
    b
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(layer: Layer, start: u64, end: u64) -> Span {
        Span {
            layer,
            req: 0,
            start,
            end,
            sim: None,
        }
    }

    #[test]
    fn breakdown_splits_chunks_at_observer_marks() {
        let spans = [
            span(Layer::EngineRun, 0, 100),
            span(Layer::Simcore, 0, 30),
            span(Layer::Simcore, 0, 40),
            span(Layer::EngineSink, 42, 44),
            span(Layer::EngineFsync, 45, 50),
            span(Layer::Mark, 55, 55),
            span(Layer::Simcore, 55, 80),
            span(Layer::EngineSink, 90, 91),
            span(Layer::EngineFsync, 91, 95),
            span(Layer::Mark, 99, 99),
        ];
        let b = engine_breakdown(&spans, 2);
        assert_eq!(b.wall, 100);
        assert_eq!(b.chunks, 2);
        assert_eq!(b.sink, 3);
        assert_eq!(b.fsync, 9);
        assert_eq!(b.ckpt, 5 + 4);
        // chunk 1: 42 wall - 70/2 busy; chunk 2: 35 wall - 25/2 busy.
        assert_eq!(b.straggle, (42 - 35) + (35 - 12));
    }

    #[test]
    fn program_names_map_back_to_apps() {
        for app in App::EXTENDED {
            let w = build_workload(app, WorkloadScale::Small, 512);
            assert_eq!(app_of(&w.program), Some(app));
        }
    }
}
