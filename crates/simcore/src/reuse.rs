//! Computation reuse and reduced-fidelity tiers.
//!
//! * [`Memoized`] — an exact tier: a whole-job result memo. Each run is
//!   keyed by `(program, relevant parameter slice, metrics flag)` and
//!   its statistics (plus counters for a metrics run) are stored in a
//!   bounded, shard-locked [`ShardedCache`]. A repeated job is one
//!   lookup; results are **bit-identical** to the uncached backend
//!   (pinned by `tests/reuse_equivalence.rs` and the differential fuzz
//!   reuse lane).
//! * [`Sampled`] — a SimPoint-style lower-fidelity tier: simulate a
//!   warmup prefix plus one representative interval, then extrapolate
//!   the remaining retirements at the measured rate. Timing is
//!   approximate (bounded by `tests/sampled_fidelity.rs`); the
//!   *architectural* result (retired-op summary, validation) stays
//!   exact because the tail is synthesized from the trace cursor.
//!
//! ## Reuse legality
//!
//! A run is a deterministic function of `(program, CoreParams, memory
//! model)`, and the memo key covers every input a run can observe:
//! the program's full static identity, every parameter the program can
//! exercise, and whether counters were collected. A hit therefore
//! returns exactly what simulation would have produced. See
//! `docs/DESIGN.md` §13 for why the parameter slice may soundly
//! *exclude* parameters a program provably never exercises.

use std::sync::Arc;

use crate::backend::SimBackend;
use crate::counters::Counters;
use crate::cycle_limit;
use crate::params::CoreParams;
use crate::pipeline::Pipeline;
use crate::stats::SimStats;
use armdse_isa::instr::DynInstr;
use armdse_isa::{OpSummary, Program, RegClass, TraceCursor};
use armdse_kernels::{CacheStats, ShardedCache};
use armdse_memsim::{BankedHierarchy, Hierarchy, MemParams, MemStats, MemoryModel};

/// Re-exported cache counters surfaced through
/// [`SimBackend::reuse_stats`] (hits, misses, insertions, evictions).
pub type ReuseStats = CacheStats;

/// Default measured-interval length of the sampled tier (instructions),
/// also the memoized tier's default recorded tag.
pub const DEFAULT_INTERVAL_LEN: u64 = 4096;

/// Default warmup prefix for the [`Sampled`] tier (instructions). One
/// full interval of warmup: the four paper kernels reach their steady
/// state only after the first few thousand retirements (TeaLeaf's
/// stencil in particular), and measuring earlier inflates cycle
/// estimates several-fold — `tests/sampled_fidelity.rs` pins the
/// resulting error bound at the Small scale.
pub const DEFAULT_WARMUP: u64 = 4096;

/// Job-memo bound (entries across all shards). One entry per distinct
/// job keeps the memo's footprint a few megabytes at most.
const MEMO_ENTRIES: usize = 1024;

/// Shard count for the job memo (matches the workload cache's
/// lock-splitting granularity).
const MEMO_SHARDS: usize = 16;

/// Simulation fidelity tier a backend runs at, reported via
/// [`SimBackend::fidelity`] so orchestration layers (checkpoints, the
/// repro CLI, the bench harness) can record what produced a number.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fidelity {
    /// Exact, uncached cycle-approximate simulation (the default).
    Full,
    /// Exact simulation with a whole-job result memo ([`Memoized`]).
    Memoized {
        /// Recorded tier tag only: reported and checkpointed, but not
        /// part of the memo key and without effect on any result.
        interval_len: u64,
    },
    /// Approximate warmup-plus-representative-interval extrapolation
    /// ([`Sampled`]).
    Sampled {
        /// Measured-interval length in instructions.
        interval_len: u64,
        /// Warmup prefix in instructions (simulated but not used as the
        /// extrapolation base rate).
        warmup: u64,
    },
}

impl Fidelity {
    /// Stable lowercase tag for checkpoints and CLI flags
    /// (`full` / `memoized` / `sampled`).
    pub fn tag(&self) -> &'static str {
        match self {
            Fidelity::Full => "full",
            Fidelity::Memoized { .. } => "memoized",
            Fidelity::Sampled { .. } => "sampled",
        }
    }
}

/// A [`SimBackend`] whose memory model can be *constructed as a value*,
/// which is what the [`Sampled`] tier needs: it drives [`Pipeline`]
/// incrementally (warmup, measure, stop) instead of calling the
/// backend's one-shot entry points.
pub trait IntervalBackend: SimBackend {
    /// The concrete memory model this backend simulates against.
    type Mem: MemoryModel + Send + Sync;

    /// Build a fresh (cold) memory model for one run.
    fn build_mem(&self, mem: &MemParams) -> Self::Mem;
}

impl IntervalBackend for crate::backend::Idealized {
    type Mem = Hierarchy;

    fn build_mem(&self, mem: &MemParams) -> Hierarchy {
        Hierarchy::new(*mem)
    }
}

impl IntervalBackend for crate::backend::BankedProxy {
    type Mem = BankedHierarchy;

    fn build_mem(&self, mem: &MemParams) -> BankedHierarchy {
        BankedHierarchy::new(*mem)
    }
}

impl IntervalBackend for crate::backend::Contended {
    type Mem = BankedHierarchy;

    fn build_mem(&self, mem: &MemParams) -> BankedHierarchy {
        BankedHierarchy::with_contention(
            *mem,
            armdse_memsim::banked::DEFAULT_BANKS,
            self.co_runners,
        )
    }
}

// ---------------------------------------------------------------------
// Fingerprinting
// ---------------------------------------------------------------------

const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Incremental FNV-1a over byte and word feeds.
#[derive(Debug, Clone, Copy)]
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(FNV_BASIS)
    }

    fn bytes(&mut self, bytes: &[u8]) -> &mut Fnv {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        }
        self
    }

    fn u64(&mut self, v: u64) -> &mut Fnv {
        self.bytes(&v.to_le_bytes())
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Which design-space parameters a program can actually exercise.
/// Derived by a conservative static scan of the lowered program; see
/// `docs/DESIGN.md` §13 ("relevant parameter slice").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ParamRelevance {
    /// Any op allocates an FP/SVE destination register.
    fp: bool,
    /// Any op allocates a predicate destination register.
    pred: bool,
    /// Any op allocates a condition-flag destination register.
    cond: bool,
    /// Any op touches memory (load or store).
    mem: bool,
}

impl ParamRelevance {
    fn of(program: &Program) -> ParamRelevance {
        let mut r = ParamRelevance {
            fp: false,
            pred: false,
            cond: false,
            mem: false,
        };
        for op in &program.ops {
            for d in op.template.dests.iter() {
                match d.class {
                    RegClass::Gp => {}
                    RegClass::Fp => r.fp = true,
                    RegClass::Pred => r.pred = true,
                    RegClass::Cond => r.cond = true,
                }
            }
            r.mem |= op.template.mem.is_some();
        }
        r
    }
}

/// Hash the *relevant slice* of the design point: parameters the static
/// scan proves the program cannot exercise are excluded, so two design
/// points differing only in provably-irrelevant parameters share one
/// memo entry. Exclusion is sound because a physical register file
/// that is never allocated from and a memory hierarchy that is never
/// accessed cannot influence any pipeline transition.
fn param_slice_hash(relevance: ParamRelevance, core: &CoreParams, mem: &MemParams) -> u64 {
    let mut h = Fnv::new();
    // Always-relevant core parameters (fetch, rename, commit, window).
    h.u64(u64::from(core.vector_length))
        .u64(u64::from(core.fetch_block_bytes))
        .u64(u64::from(core.loop_buffer_size))
        .u64(u64::from(core.gp_regs))
        .u64(u64::from(core.commit_width))
        .u64(u64::from(core.frontend_width))
        .u64(u64::from(core.lsq_completion_width))
        .u64(u64::from(core.rob_size));
    if relevance.fp {
        h.u64(u64::from(core.fp_regs));
    }
    if relevance.pred {
        h.u64(u64::from(core.pred_regs));
    }
    if relevance.cond {
        h.u64(u64::from(core.cond_regs));
    }
    if relevance.mem {
        h.u64(u64::from(core.load_queue))
            .u64(u64::from(core.store_queue))
            .u64(u64::from(core.load_bandwidth))
            .u64(u64::from(core.store_bandwidth))
            .u64(u64::from(core.mem_requests_per_cycle))
            .u64(u64::from(core.loads_per_cycle))
            .u64(u64::from(core.stores_per_cycle));
        h.u64(u64::from(mem.line_bytes))
            .u64(u64::from(mem.l1_size_kib))
            .u64(u64::from(mem.l1_assoc))
            .u64(u64::from(mem.l1_latency))
            .u64(mem.l1_clock_ghz.to_bits())
            .u64(u64::from(mem.l2_size_kib))
            .u64(u64::from(mem.l2_assoc))
            .u64(u64::from(mem.l2_latency))
            .u64(mem.l2_clock_ghz.to_bits())
            .u64(mem.ram_access_ns.to_bits())
            .u64(mem.ram_clock_ghz.to_bits())
            .u64(u64::from(mem.prefetch_depth));
    }
    h.finish()
}

/// The memo key of one run: program identity, relevant parameter
/// slice, and whether counters are enabled (a metrics run also returns
/// counters, so metrics and plain results never alias).
fn base_key(program: &Program, core: &CoreParams, mem: &MemParams, metrics: bool) -> u64 {
    let mut h = Fnv::new();
    // The Debug rendering covers every field of the lowered program
    // (ops, loop table, trip counts) — the full static identity.
    h.bytes(format!("{program:?}").as_bytes());
    h.u64(param_slice_hash(ParamRelevance::of(program), core, mem));
    h.u64(u64::from(metrics));
    h.finish()
}

// ---------------------------------------------------------------------
// Memoized tier
// ---------------------------------------------------------------------

/// Exact whole-job memo around any [`SimBackend`].
///
/// `run` and `run_with_metrics` look the job up under its key
/// (program, relevant parameter slice, metrics flag); a hit returns the
/// stored result, a miss runs the inner backend once and stores its
/// statistics (plus counters for a metrics run). A run is a
/// deterministic function of its key, so a hit is exactly what
/// simulation would have produced. The memo pays off only when the
/// same engine runs a job twice: `repro all` repeats 74 of its 1536
/// lookups across experiments, and a warm re-run on the same engine
/// repeats every job. Each served job and each resumed process builds
/// a fresh engine, so those start with an empty memo; on a fresh
/// campaign of distinct design points it never hits. The memo holds
/// at most 1024 entries in total (FIFO per shard), so a warm re-run
/// hits only when the campaign has at most about 1024 jobs.
///
/// `run_traced` bypasses the memo and delegates to the inner backend —
/// traces are an oracle-only path where caching would buy nothing.
pub struct Memoized<B: SimBackend> {
    inner: B,
    interval_len: u64,
    cache: ShardedCache<u64, (SimStats, Option<Counters>)>,
}

impl<B: SimBackend> Memoized<B> {
    /// Memoizing wrapper with the default recorded interval length.
    pub fn new(inner: B) -> Memoized<B> {
        Memoized::with_interval_len(inner, DEFAULT_INTERVAL_LEN)
    }

    /// Memoizing wrapper recording `interval_len` (≥ 1) as its tier
    /// tag. The length is reported by [`SimBackend::fidelity`] and
    /// written to checkpoints, but it is not part of the memo key and
    /// changes no result.
    pub fn with_interval_len(inner: B, interval_len: u64) -> Memoized<B> {
        assert!(interval_len >= 1, "interval length must be at least 1");
        Memoized {
            inner,
            interval_len,
            cache: ShardedCache::new(MEMO_SHARDS, MEMO_ENTRIES),
        }
    }

    /// The wrapped backend.
    pub fn inner(&self) -> &B {
        &self.inner
    }

    /// The recorded interval length (a tier tag only).
    pub fn interval_len(&self) -> u64 {
        self.interval_len
    }

    /// Memo hit/miss/insertion/eviction counters since construction or
    /// the last [`SimBackend::clear_reuse_cache`].
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// The memo lookup shared by `run` and `run_with_metrics`.
    fn run_cached(
        &self,
        program: &Program,
        core: &CoreParams,
        mem: &MemParams,
        metrics: bool,
    ) -> Arc<(SimStats, Option<Counters>)> {
        // Validate before the lookup: the key slices out parameters the
        // program never exercises, so an invalid value there would
        // otherwise be answered from another design point's entry.
        core.validate().expect("core parameters must validate");
        let key = base_key(program, core, mem, metrics);
        self.cache.get(&key).unwrap_or_else(|| {
            let result = if metrics {
                let (stats, counters) = self.inner.run_with_metrics(program, core, mem);
                (stats, Some(counters))
            } else {
                (self.inner.run(program, core, mem), None)
            };
            self.cache.insert(key, result)
        })
    }
}

impl<B: SimBackend> SimBackend for Memoized<B> {
    fn name(&self) -> &'static str {
        "memoized"
    }

    fn run(&self, program: &Program, core: &CoreParams, mem: &MemParams) -> SimStats {
        self.run_cached(program, core, mem, false).0.clone()
    }

    fn run_traced(
        &self,
        program: &Program,
        core: &CoreParams,
        mem: &MemParams,
    ) -> (SimStats, Vec<DynInstr>) {
        self.inner.run_traced(program, core, mem)
    }

    fn run_with_metrics(
        &self,
        program: &Program,
        core: &CoreParams,
        mem: &MemParams,
    ) -> (SimStats, Counters) {
        let hit = self.run_cached(program, core, mem, true);
        let counters = hit.1.clone().expect("metrics runs store counters");
        (hit.0.clone(), counters)
    }

    fn reuse_stats(&self) -> Option<ReuseStats> {
        Some(self.cache.stats())
    }

    fn fidelity(&self) -> Fidelity {
        Fidelity::Memoized {
            interval_len: self.interval_len,
        }
    }

    fn clear_reuse_cache(&self) {
        self.cache.clear();
    }
}

/// Recompute the validation verdict exactly as the one-shot entry points
/// do (`simulate_with` and friends): a run validates iff it finished
/// within the cycle limit and retired exactly the statically expected
/// operation mix.
fn finish_validation(stats: &mut SimStats, program: &Program) {
    stats.validated = !stats.hit_cycle_limit && stats.observed == OpSummary::of(program);
}

// ---------------------------------------------------------------------
// Sampled tier
// ---------------------------------------------------------------------

/// SimPoint-style sampled fidelity tier: simulate `warmup` retirements
/// to heat the caches and predictors, measure one representative
/// interval of `interval_len` retirements, then extrapolate the
/// remaining retirements at the measured cycles-per-instruction rate.
///
/// Timing statistics (cycles, memory counters, stall attribution) are
/// *estimates*; the architectural result is exact — the unsimulated tail
/// is synthesized by walking the trace cursor, so `observed` and
/// `validated` match a full run bit-for-bit. Programs short enough to
/// finish inside warmup + measurement return fully exact results.
pub struct Sampled<B: IntervalBackend> {
    inner: B,
    interval_len: u64,
    warmup: u64,
}

impl<B: IntervalBackend> Sampled<B> {
    /// Sampled tier with the default warmup and interval length.
    pub fn new(inner: B) -> Sampled<B> {
        Sampled::with_params(inner, DEFAULT_INTERVAL_LEN, DEFAULT_WARMUP)
    }

    /// Sampled tier with explicit measured-interval length (≥ 1) and
    /// warmup prefix (instructions).
    pub fn with_params(inner: B, interval_len: u64, warmup: u64) -> Sampled<B> {
        assert!(interval_len >= 1, "interval length must be at least 1");
        Sampled {
            inner,
            interval_len,
            warmup,
        }
    }

    /// The wrapped backend.
    pub fn inner(&self) -> &B {
        &self.inner
    }

    fn run_sampled(
        &self,
        program: &Program,
        core: &CoreParams,
        mem: &MemParams,
        metrics: bool,
    ) -> (SimStats, Option<Box<Counters>>) {
        core.validate().expect("core parameters must validate");
        let limit = cycle_limit(program);
        let dyn_len = program.dynamic_len();
        let mut m = Pipeline::new(program, *core, self.inner.build_mem(mem));
        if metrics {
            m.enable_counters();
        }
        // Warmup prefix.
        m.drive_until_retired(limit, self.warmup);
        if m.is_finished() || m.stats().hit_cycle_limit {
            return exact_finish(m, program);
        }
        let warm = m.stats().clone();
        let warm_counters = m.counters().cloned();
        // Representative interval. Commit-width overshoot past the
        // warmup target is possible, so guard the measurement window
        // against being empty (retired must strictly increase).
        let target = (self.warmup + self.interval_len).max(warm.retired + 1);
        m.drive_until_retired(limit, target);
        if m.is_finished() || m.stats().hit_cycle_limit {
            return exact_finish(m, program);
        }
        let end = m.stats().clone();
        debug_assert!(end.retired > warm.retired);
        let remaining = dyn_len - end.retired;
        let span = end.retired - warm.retired;
        // Extrapolate an additive quantity at the measured per-retire
        // rate, rounding to nearest.
        let extra = |q_warm: u64, q_end: u64| -> u64 {
            let delta = u128::from(q_end - q_warm);
            let scaled = delta * u128::from(remaining);
            let d = u128::from(span);
            u64::try_from((scaled + d / 2) / d).unwrap_or(u64::MAX)
        };
        let est = |q_warm: u64, q_end: u64| q_end + extra(q_warm, q_end);

        let mut stats = end.clone();
        stats.cycles = est(warm.cycles, end.cycles);
        stats.retired = dyn_len;
        stats.mem = extrapolate_mem(&warm.mem, &end.mem, &est);
        // All stall buckets are additive cycle counts.
        stats.stalls.rename_gp = est(warm.stalls.rename_gp, end.stalls.rename_gp);
        stats.stalls.rename_fp = est(warm.stalls.rename_fp, end.stalls.rename_fp);
        stats.stalls.rename_pred = est(warm.stalls.rename_pred, end.stalls.rename_pred);
        stats.stalls.rename_cond = est(warm.stalls.rename_cond, end.stalls.rename_cond);
        stats.stalls.rob_full = est(warm.stalls.rob_full, end.stalls.rob_full);
        stats.stalls.rs_full = est(warm.stalls.rs_full, end.stalls.rs_full);
        stats.stalls.lq_full = est(warm.stalls.lq_full, end.stalls.lq_full);
        stats.stalls.sq_full = est(warm.stalls.sq_full, end.stalls.sq_full);
        stats.stalls.fetch_starved = est(warm.stalls.fetch_starved, end.stalls.fetch_starved);
        stats.stalls.loop_buffer_cycles = est(
            warm.stalls.loop_buffer_cycles,
            end.stalls.loop_buffer_cycles,
        );
        // Synthesize the architectural tail exactly: walk the dynamic
        // stream from the cursor (the same source commit retires from)
        // and record everything past the last simulated retirement.
        let mut cursor = TraceCursor::new(program);
        let mut produced = 0u64;
        while let Some(d) = cursor.next_instr() {
            if produced >= end.retired {
                stats.observed.record(
                    d.op,
                    d.mem.map_or(0, |r| u64::from(r.bytes)),
                    d.mem.map(|r| r.kind),
                );
            }
            produced += 1;
        }
        debug_assert_eq!(produced, dyn_len);
        stats.hit_cycle_limit = false;
        finish_validation(&mut stats, program);

        let counters = if metrics {
            let warm_c = warm_counters.expect("counters enabled");
            let end_c = m.counters().expect("counters enabled");
            Some(Box::new(extrapolate_counters(&warm_c, end_c, &stats, &est)))
        } else {
            None
        };
        (stats, counters)
    }
}

/// The program ended inside the simulated prefix: return the exact
/// machine result (identical to the full-fidelity backend).
fn exact_finish<M: MemoryModel>(
    mut m: Pipeline<'_, M>,
    program: &Program,
) -> (SimStats, Option<Box<Counters>>) {
    let mut stats = m.stats().clone();
    finish_validation(&mut stats, program);
    (stats, m.take_counters_finalized())
}

/// Extrapolate the memory counters: every field is an additive event
/// count except `mshr_peak`, a high-water mark kept at its observed
/// value.
fn extrapolate_mem(warm: &MemStats, end: &MemStats, est: &dyn Fn(u64, u64) -> u64) -> MemStats {
    MemStats {
        l1_hits: est(warm.l1_hits, end.l1_hits),
        l1_misses: est(warm.l1_misses, end.l1_misses),
        l2_hits: est(warm.l2_hits, end.l2_hits),
        l2_misses: est(warm.l2_misses, end.l2_misses),
        merged: est(warm.merged, end.merged),
        prefetches: est(warm.prefetches, end.prefetches),
        writebacks: est(warm.writebacks, end.writebacks),
        l1_writebacks: est(warm.l1_writebacks, end.l1_writebacks),
        l2_writebacks: est(warm.l2_writebacks, end.l2_writebacks),
        requests: est(warm.requests, end.requests),
        mshr_peak: end.mshr_peak,
        mshr_occupancy_sum: est(warm.mshr_occupancy_sum, end.mshr_occupancy_sum),
        dram_queue_waits: est(warm.dram_queue_waits, end.dram_queue_waits),
        dram_queue_wait_cycles: est(warm.dram_queue_wait_cycles, end.dram_queue_wait_cycles),
    }
}

/// Extrapolate the cycle-accounting counters so they stay consistent
/// with the extrapolated statistics: buckets scale at the measured rate,
/// then the rounding residue versus the estimated total cycle count is
/// folded into the largest bucket so [`Counters::conserves`] holds;
/// occupancy sums/bins/full-cycles scale, capacities and peaks are kept.
fn extrapolate_counters(
    warm: &Counters,
    end: &Counters,
    stats: &SimStats,
    est: &dyn Fn(u64, u64) -> u64,
) -> Counters {
    let mut c = end.clone();
    c.cycles = stats.cycles;
    c.loop_buffer_cycles = stats.stalls.loop_buffer_cycles;
    for (i, b) in c.buckets.iter_mut().enumerate() {
        *b = est(warm.buckets[i], end.buckets[i]);
    }
    let attributed: u64 = c.buckets.iter().sum();
    let residue = i128::from(c.cycles) - i128::from(attributed);
    let argmax = c
        .buckets
        .iter()
        .enumerate()
        .max_by_key(|&(_, &b)| b)
        .map(|(i, _)| i)
        .expect("buckets non-empty");
    let adjusted = i128::from(c.buckets[argmax]) + residue;
    c.buckets[argmax] = u64::try_from(adjusted.max(0)).unwrap_or(0);
    for (i, o) in c.occupancy.iter_mut().enumerate() {
        let w = &warm.occupancy[i];
        let e = &end.occupancy[i];
        o.sum = est(w.sum, e.sum);
        o.full_cycles = est(w.full_cycles, e.full_cycles);
        for (j, bin) in o.bins.iter_mut().enumerate() {
            *bin = est(w.bins[j], e.bins[j]);
        }
    }
    c
}

impl<B: IntervalBackend> SimBackend for Sampled<B> {
    fn name(&self) -> &'static str {
        "sampled"
    }

    fn run(&self, program: &Program, core: &CoreParams, mem: &MemParams) -> SimStats {
        self.run_sampled(program, core, mem, false).0
    }

    fn run_traced(
        &self,
        program: &Program,
        core: &CoreParams,
        mem: &MemParams,
    ) -> (SimStats, Vec<DynInstr>) {
        // Commit order is program order, so the full trace is exactly
        // the cursor walk; timing stays identical to `run` as the
        // trait contract requires.
        let stats = self.run(program, core, mem);
        let mut cursor = TraceCursor::new(program);
        let mut trace = Vec::new();
        while let Some(d) = cursor.next_instr() {
            trace.push(d);
        }
        (stats, trace)
    }

    fn run_with_metrics(
        &self,
        program: &Program,
        core: &CoreParams,
        mem: &MemParams,
    ) -> (SimStats, Counters) {
        let (stats, counters) = self.run_sampled(program, core, mem, true);
        (stats, *counters.expect("metrics run builds counters"))
    }

    fn fidelity(&self) -> Fidelity {
        Fidelity::Sampled {
            interval_len: self.interval_len,
            warmup: self.warmup,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{BankedProxy, Contended, Idealized};
    use armdse_kernels::{build_workload, App, WorkloadScale};

    fn fixture(app: App) -> (Program, CoreParams, MemParams) {
        fixture_scaled(app, WorkloadScale::Tiny)
    }

    fn fixture_scaled(app: App, scale: WorkloadScale) -> (Program, CoreParams, MemParams) {
        let core = CoreParams::thunderx2();
        let w = build_workload(app, scale, core.vector_length);
        (w.program, core, MemParams::thunderx2())
    }

    #[test]
    fn memoized_is_bit_identical_to_plain_backends() {
        for app in [App::Stream, App::MiniBude] {
            let (p, c, m) = fixture(app);
            let plain: [&dyn SimBackend; 3] =
                [&Idealized, &BankedProxy, &Contended { co_runners: 2 }];
            let cached: [&dyn SimBackend; 3] = [
                &Memoized::with_interval_len(Idealized, 64),
                &Memoized::with_interval_len(BankedProxy, 64),
                &Memoized::with_interval_len(Contended { co_runners: 2 }, 64),
            ];
            for (b, cb) in plain.iter().zip(&cached) {
                let want = b.run(&p, &c, &m);
                assert!(want.validated);
                // Cold pass, then a fully warm pass: both bit-identical.
                assert_eq!(cb.run(&p, &c, &m), want, "{} cold", b.name());
                assert_eq!(cb.run(&p, &c, &m), want, "{} warm", b.name());
                let rs = cb.reuse_stats().expect("memoized reports reuse stats");
                assert!(rs.hits > 0, "{}: warm pass produced no hits", b.name());
                assert!(rs.misses > 0, "{}: cold pass produced no misses", b.name());
            }
        }
    }

    #[test]
    fn memoized_metrics_are_transparent_and_cached() {
        let (p, c, m) = fixture(App::TeaLeaf);
        let mem = Memoized::with_interval_len(Idealized, 128);
        let (want_stats, want_counters) = Idealized.run_with_metrics(&p, &c, &m);
        let (cold_stats, cold_counters) = mem.run_with_metrics(&p, &c, &m);
        assert_eq!(cold_stats, want_stats);
        assert_eq!(cold_counters, want_counters);
        assert!(cold_counters.conserves());
        let (warm_stats, warm_counters) = mem.run_with_metrics(&p, &c, &m);
        assert_eq!(warm_stats, want_stats);
        assert_eq!(warm_counters, want_counters);
        let rs = mem.cache_stats();
        assert!(rs.hits > 0, "warm metrics pass must hit");
        // The plain (non-metrics) entry is disjoint: running it now
        // must miss even though the metrics entry is warm.
        let before = mem.cache_stats().misses;
        assert_eq!(mem.run(&p, &c, &m), want_stats);
        assert!(mem.cache_stats().misses > before);
    }

    #[test]
    fn irrelevant_params_share_the_entry_and_relevant_ones_split_it() {
        let (p, c, m) = fixture(App::MiniSweep);
        // MiniSweep's scalar sweep allocates FP, GP, and condition-flag
        // destinations and touches memory, but never writes a predicate
        // register — so pred_regs must be sliced out while rob_size and
        // l1_size_kib stay in.
        let rel = ParamRelevance::of(&p);
        assert!(rel.fp && rel.cond && rel.mem && !rel.pred);
        let base = base_key(&p, &c, &m, false);
        let mut c2 = c;
        c2.pred_regs *= 2;
        assert_eq!(base_key(&p, &c2, &m, false), base);
        let mut c3 = c;
        c3.rob_size += 4;
        assert_ne!(base_key(&p, &c3, &m, false), base);
        let mut m2 = m;
        m2.l1_size_kib *= 2;
        assert_ne!(base_key(&p, &c, &m2, false), base);
        // And the shared entry is observable: a run at c2 on a warm
        // memo is a hit.
        let mem_b = Memoized::with_interval_len(Idealized, 64);
        let want = mem_b.run(&p, &c, &m);
        let before = mem_b.cache_stats().misses;
        assert_eq!(mem_b.run(&p, &c2, &m), want);
        assert_eq!(
            mem_b.cache_stats().misses,
            before,
            "c2 must reuse c's entry"
        );
    }

    #[test]
    #[should_panic(expected = "core parameters must validate")]
    fn invalid_params_panic_even_on_a_warm_memo() {
        let (p, c, m) = fixture(App::MiniSweep);
        let mem = Memoized::new(Idealized);
        mem.run(&p, &c, &m);
        // pred_regs is sliced out of MiniSweep's key, so this invalid
        // design point shares c's warm entry; it must still be refused.
        let mut bad = c;
        bad.pred_regs = 16;
        assert!(bad.validate().is_err());
        assert_eq!(base_key(&p, &bad, &m, false), base_key(&p, &c, &m, false));
        mem.run(&p, &bad, &m);
    }

    #[test]
    fn clear_reuse_cache_forces_cold_start() {
        let (p, c, m) = fixture(App::Stream);
        let mem = Memoized::with_interval_len(Idealized, 256);
        let want = mem.run(&p, &c, &m);
        mem.clear_reuse_cache();
        let rs = mem.cache_stats();
        assert_eq!((rs.hits, rs.misses), (0, 0), "clear resets counters");
        assert_eq!(mem.run(&p, &c, &m), want);
        let rs = mem.cache_stats();
        assert_eq!(rs.hits, 0, "cleared cache cannot hit");
        assert!(rs.misses > 0);
    }

    #[test]
    fn memoized_fidelity_and_default_methods() {
        let mem = Memoized::with_interval_len(BankedProxy, 512);
        assert_eq!(mem.fidelity(), Fidelity::Memoized { interval_len: 512 });
        assert_eq!(mem.fidelity().tag(), "memoized");
        assert_eq!(mem.name(), "memoized");
        assert_eq!(mem.inner().name(), "banked-proxy");
        // Plain backends report the Full tier and no reuse stats.
        assert_eq!(Idealized.fidelity(), Fidelity::Full);
        assert_eq!(Idealized.fidelity().tag(), "full");
        assert!(Idealized.reuse_stats().is_none());
        Idealized.clear_reuse_cache(); // no-op, must not panic
    }

    #[test]
    fn memoized_traced_runs_are_exact_and_uncached() {
        let (p, c, m) = fixture(App::Stream);
        let mem = Memoized::with_interval_len(Idealized, 64);
        let (want_stats, want_trace) = Idealized.run_traced(&p, &c, &m);
        let (stats, trace) = mem.run_traced(&p, &c, &m);
        assert_eq!(stats, want_stats);
        assert_eq!(trace, want_trace);
        let rs = mem.cache_stats();
        assert_eq!(
            (rs.hits, rs.misses),
            (0, 0),
            "traced path bypasses the cache"
        );
    }

    #[test]
    fn sampled_is_exact_when_the_program_finishes_early() {
        let (p, c, m) = fixture(App::Stream);
        let dyn_len = p.dynamic_len();
        let s = Sampled::with_params(Idealized, 1024, dyn_len + 1);
        let want = Idealized.run(&p, &c, &m);
        assert_eq!(s.run(&p, &c, &m), want, "warmup covers the whole run");
        let (stats, counters) = s.run_with_metrics(&p, &c, &m);
        let (want_stats, want_counters) = Idealized.run_with_metrics(&p, &c, &m);
        assert_eq!(stats, want_stats);
        assert_eq!(counters, want_counters);
    }

    #[test]
    fn sampled_estimates_are_bounded_and_architecturally_exact() {
        for app in [App::Stream, App::TeaLeaf, App::MiniSweep] {
            let (p, c, m) = fixture_scaled(app, WorkloadScale::Small);
            let dyn_len = p.dynamic_len();
            let warmup = dyn_len / 4;
            let interval = dyn_len / 4;
            let s = Sampled::with_params(Idealized, interval.max(1), warmup);
            let want = Idealized.run(&p, &c, &m);
            let got = s.run(&p, &c, &m);
            // Architectural exactness.
            assert_eq!(got.observed, want.observed, "{app:?}");
            assert_eq!(got.retired, want.retired, "{app:?}");
            assert!(got.validated, "{app:?}");
            assert!(!got.hit_cycle_limit);
            // Timing is an estimate; sanity-bound it loosely here (the
            // dedicated tolerance test pins the paper-shapes grid).
            let err = (got.cycles as f64 - want.cycles as f64).abs() / want.cycles as f64;
            assert!(err < 0.5, "{app:?}: sampled error {err} out of range");
        }
    }

    #[test]
    fn sampled_metrics_are_self_consistent() {
        let (p, c, m) = fixture(App::TeaLeaf);
        let dyn_len = p.dynamic_len();
        let s = Sampled::with_params(Idealized, (dyn_len / 8).max(1), dyn_len / 8);
        let plain = s.run(&p, &c, &m);
        let (stats, counters) = s.run_with_metrics(&p, &c, &m);
        assert_eq!(stats, plain, "metrics must not perturb the estimate");
        assert_eq!(counters.cycles, stats.cycles);
        assert!(
            counters.conserves(),
            "{} cycles but {} attributed",
            counters.cycles,
            counters.attributed_cycles()
        );
    }

    #[test]
    fn sampled_traced_matches_run_timing_and_full_trace() {
        let (p, c, m) = fixture(App::Stream);
        let dyn_len = p.dynamic_len();
        let s = Sampled::with_params(BankedProxy, (dyn_len / 8).max(1), dyn_len / 8);
        let (stats, trace) = s.run_traced(&p, &c, &m);
        assert_eq!(stats, s.run(&p, &c, &m));
        assert_eq!(trace.len() as u64, dyn_len);
        let (_, want_trace) = Idealized.run_traced(&p, &c, &m);
        assert_eq!(trace, want_trace, "trace is the exact dynamic stream");
        assert_eq!(
            s.fidelity(),
            Fidelity::Sampled {
                interval_len: (dyn_len / 8).max(1),
                warmup: dyn_len / 8,
            }
        );
        assert_eq!(s.fidelity().tag(), "sampled");
        assert!(s.reuse_stats().is_none());
    }

    #[test]
    fn interval_keys_chain_deterministically() {
        let (p, c, m) = fixture(App::Stream);
        let b1 = base_key(&p, &c, &m, false);
        assert_eq!(b1, base_key(&p, &c, &m, false));
        assert_ne!(b1, base_key(&p, &c, &m, true), "metrics flag keys");
        let (p2, ..) = fixture(App::MiniBude);
        assert_ne!(b1, base_key(&p2, &c, &m, false), "program keys");
    }

    #[test]
    fn memoized_stores_one_entry_per_job() {
        let mem = Memoized::new(Idealized);
        let jobs: Vec<_> = [App::Stream, App::TeaLeaf, App::MiniSweep]
            .into_iter()
            .map(|app| fixture_scaled(app, WorkloadScale::Small))
            .collect();
        for (p, c, m) in &jobs {
            mem.run(p, c, m);
        }
        let n = jobs.len() as u64;
        let cold = mem.cache_stats();
        assert_eq!(cold.insertions, n, "one memo entry per distinct job");
        for (p, c, m) in &jobs {
            mem.run(p, c, m);
        }
        let warm = mem.cache_stats();
        assert_eq!(warm.hits - cold.hits, n, "every repeated job hits");
        assert_eq!(warm.insertions, n, "repeats insert nothing");
    }
}
