//! Pluggable simulation backends.
//!
//! The paper's workflow hard-wires one executor per entry point
//! (`simulate`, `simulate_hardware_proxy`, `simulate_traced*`); this
//! module turns the backend choice into a *value* so orchestration code
//! (the `armdse-core` engine, the analysis harnesses, the oracle's
//! differential checker) can be written once against [`SimBackend`] and
//! handed whichever executor a campaign needs. This is the
//! ArchGym-style standardized interface between the explorer and
//! interchangeable simulators: new backends (sharded, remote,
//! trace-replay) plug in without touching any caller.
//!
//! Provided backends:
//!
//! * [`Idealized`] — the default infinite-bank, SST-like hierarchy (the
//!   paper's simulation path).
//! * [`BankedProxy`] — the finite-banked "hardware proxy" hierarchy
//!   standing in for the physical ThunderX2 of Table I.
//! * [`Contended`] — the banked hierarchy with phantom co-runners
//!   saturating the shared DRAM controller (the §VII multi-core
//!   future-work scenario).
//! * [`Traced`] — adapter selecting a backend's commit-trace entry
//!   point as the value's call operator (used by the oracle's replay
//!   checks).

use crate::counters::Counters;
use crate::multicore::{PerCoreMetrics, Topology};
use crate::params::CoreParams;
use crate::reuse::{Fidelity, ReuseStats};
use crate::stats::SimStats;
use crate::{simulate_traced_with, simulate_with, simulate_with_metrics_with};
use armdse_isa::instr::DynInstr;
use armdse_isa::Program;
use armdse_memsim::{BankedHierarchy, Hierarchy, MemParams};

/// A simulation executor: how a lowered program is run against one
/// `(core, mem)` design point.
///
/// Backends are cheap, stateless values (`Send + Sync`) so one instance
/// can be shared by every worker thread of a campaign. All backends
/// model the *same* architectural machine — only timing may differ —
/// which is what the differential oracle and the proxy-agreement tests
/// pin down.
pub trait SimBackend: Send + Sync {
    /// Stable backend name for reports, labels, and failure records.
    fn name(&self) -> &'static str;

    /// Simulate and return the run statistics.
    fn run(&self, program: &Program, core: &CoreParams, mem: &MemParams) -> SimStats;

    /// Simulate and additionally return the commit-order retirement
    /// stream (timing must be identical to [`SimBackend::run`]).
    fn run_traced(
        &self,
        program: &Program,
        core: &CoreParams,
        mem: &MemParams,
    ) -> (SimStats, Vec<DynInstr>);

    /// Simulate with cycle accounting enabled and return the per-cycle
    /// attribution counters alongside the statistics. The contract is
    /// *metrics transparency*: the returned [`SimStats`] must be
    /// identical to [`SimBackend::run`] on the same inputs (counter
    /// collection may not perturb architectural or timing state), and
    /// the counters must satisfy [`Counters::conserves`]. The oracle's
    /// differential metrics lane checks both properties.
    fn run_with_metrics(
        &self,
        program: &Program,
        core: &CoreParams,
        mem: &MemParams,
    ) -> (SimStats, Counters);

    /// Job-memo counters, for backends that reuse computation
    /// across runs ([`crate::reuse::Memoized`]). `None` for backends
    /// with no reuse state (the default).
    fn reuse_stats(&self) -> Option<ReuseStats> {
        None
    }

    /// The fidelity tier this backend simulates at. Defaults to
    /// [`Fidelity::Full`]: exact, uncached simulation.
    fn fidelity(&self) -> Fidelity {
        Fidelity::Full
    }

    /// Drop any memoized job results so the next run starts cold.
    /// No-op for backends without reuse state (the default).
    fn clear_reuse_cache(&self) {}

    /// The machine shape this backend simulates. Every classic backend
    /// is the default single-core machine; [`crate::MultiCore`] reports
    /// its core and shared-bank counts so orchestration code can label
    /// rows and checkpoints without downcasting.
    fn topology(&self) -> Topology {
        Topology::default()
    }

    /// Like [`SimBackend::run_with_metrics`], additionally returning one
    /// [`PerCoreMetrics`] entry per core for machines with more than one
    /// core. Single-core backends (the default) return an empty vector:
    /// the aggregate *is* the machine.
    fn run_with_metrics_per_core(
        &self,
        program: &Program,
        core: &CoreParams,
        mem: &MemParams,
    ) -> (SimStats, Counters, Vec<PerCoreMetrics>) {
        let (stats, counters) = self.run_with_metrics(program, core, mem);
        (stats, counters, Vec::new())
    }
}

/// The default infinite-bank (SST-like) hierarchy — the paper's
/// simulation path.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Idealized;

impl SimBackend for Idealized {
    fn name(&self) -> &'static str {
        "idealized"
    }

    fn run(&self, program: &Program, core: &CoreParams, mem: &MemParams) -> SimStats {
        simulate_with(program, core, Hierarchy::new(*mem))
    }

    fn run_traced(
        &self,
        program: &Program,
        core: &CoreParams,
        mem: &MemParams,
    ) -> (SimStats, Vec<DynInstr>) {
        simulate_traced_with(program, core, Hierarchy::new(*mem))
    }

    fn run_with_metrics(
        &self,
        program: &Program,
        core: &CoreParams,
        mem: &MemParams,
    ) -> (SimStats, Counters) {
        simulate_with_metrics_with(program, core, Hierarchy::new(*mem))
    }
}

/// The finite-banked "hardware proxy" hierarchy (the Table I hardware
/// side; see the DESIGN.md substitution table).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BankedProxy;

impl SimBackend for BankedProxy {
    fn name(&self) -> &'static str {
        "banked-proxy"
    }

    fn run(&self, program: &Program, core: &CoreParams, mem: &MemParams) -> SimStats {
        simulate_with(program, core, BankedHierarchy::new(*mem))
    }

    fn run_traced(
        &self,
        program: &Program,
        core: &CoreParams,
        mem: &MemParams,
    ) -> (SimStats, Vec<DynInstr>) {
        simulate_traced_with(program, core, BankedHierarchy::new(*mem))
    }

    fn run_with_metrics(
        &self,
        program: &Program,
        core: &CoreParams,
        mem: &MemParams,
    ) -> (SimStats, Counters) {
        simulate_with_metrics_with(program, core, BankedHierarchy::new(*mem))
    }
}

/// The banked hierarchy under multi-core DRAM contention: `co_runners`
/// phantom cores saturate the shared controller (paper §VII).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Contended {
    /// Number of phantom co-runners (0 = the single-core setting).
    pub co_runners: u32,
}

impl Contended {
    fn hierarchy(&self, mem: &MemParams) -> BankedHierarchy {
        BankedHierarchy::with_contention(
            *mem,
            armdse_memsim::banked::DEFAULT_BANKS,
            self.co_runners,
        )
    }
}

impl SimBackend for Contended {
    fn name(&self) -> &'static str {
        "contended"
    }

    fn run(&self, program: &Program, core: &CoreParams, mem: &MemParams) -> SimStats {
        simulate_with(program, core, self.hierarchy(mem))
    }

    fn run_traced(
        &self,
        program: &Program,
        core: &CoreParams,
        mem: &MemParams,
    ) -> (SimStats, Vec<DynInstr>) {
        simulate_traced_with(program, core, self.hierarchy(mem))
    }

    fn run_with_metrics(
        &self,
        program: &Program,
        core: &CoreParams,
        mem: &MemParams,
    ) -> (SimStats, Counters) {
        simulate_with_metrics_with(program, core, self.hierarchy(mem))
    }
}

/// Adapter fixing a backend's *traced* entry point as the value's call
/// operator: `Traced(BankedProxy).run(..)` yields the statistics plus
/// the commit-order retirement stream. Lets callers that always need
/// the trace (the oracle's replay checker) hold one value instead of
/// remembering which method to call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Traced<B: SimBackend>(pub B);

impl<B: SimBackend> Traced<B> {
    /// Simulate, returning statistics and the commit-order trace.
    pub fn run(
        &self,
        program: &Program,
        core: &CoreParams,
        mem: &MemParams,
    ) -> (SimStats, Vec<DynInstr>) {
        self.0.run_traced(program, core, mem)
    }

    /// The wrapped backend's name.
    pub fn name(&self) -> &'static str {
        self.0.name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use armdse_kernels::{build_workload, App, WorkloadScale};

    fn fixture() -> (Program, CoreParams, MemParams) {
        let core = CoreParams::thunderx2();
        let w = build_workload(App::Stream, WorkloadScale::Tiny, core.vector_length);
        (w.program, core, MemParams::thunderx2())
    }

    #[test]
    fn backends_match_the_free_functions() {
        let (p, c, m) = fixture();
        assert_eq!(
            Idealized.run(&p, &c, &m).cycles,
            crate::simulate(&p, &c, &m).cycles
        );
        assert_eq!(
            BankedProxy.run(&p, &c, &m).cycles,
            crate::simulate_hardware_proxy(&p, &c, &m).cycles
        );
        assert_eq!(
            Contended { co_runners: 3 }.run(&p, &c, &m).cycles,
            crate::simulate_contended(&p, &c, &m, 3).cycles
        );
    }

    #[test]
    fn backend_choice_works_through_dyn_dispatch() {
        let (p, c, m) = fixture();
        let backends: [&dyn SimBackend; 3] =
            [&Idealized, &BankedProxy, &Contended { co_runners: 1 }];
        let mut names = Vec::new();
        for b in backends {
            let s = b.run(&p, &c, &m);
            assert!(s.validated, "{} failed validation", b.name());
            names.push(b.name());
        }
        assert_eq!(names, ["idealized", "banked-proxy", "contended"]);
    }

    #[test]
    fn metrics_runs_are_transparent_and_conserve_cycles() {
        let (p, c, m) = fixture();
        let backends: [&dyn SimBackend; 3] =
            [&Idealized, &BankedProxy, &Contended { co_runners: 2 }];
        for b in backends {
            let plain = b.run(&p, &c, &m);
            let (stats, counters) = b.run_with_metrics(&p, &c, &m);
            assert_eq!(stats, plain, "{}: metrics perturbed the run", b.name());
            assert_eq!(counters.cycles, stats.cycles);
            assert!(
                counters.conserves(),
                "{}: {} cycles but {} attributed",
                b.name(),
                counters.cycles,
                counters.attributed_cycles()
            );
            assert!(
                counters.retire_cycles() > 0,
                "{}: nothing retired",
                b.name()
            );
        }
    }

    #[test]
    fn traced_adapter_matches_untraced_timing() {
        let (p, c, m) = fixture();
        let plain = BankedProxy.run(&p, &c, &m);
        let (stats, trace) = Traced(BankedProxy).run(&p, &c, &m);
        assert_eq!(stats.cycles, plain.cycles);
        assert_eq!(trace.len() as u64, stats.retired);
        assert_eq!(Traced(BankedProxy).name(), "banked-proxy");
    }
}
