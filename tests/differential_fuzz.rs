//! Differential fuzzing lane: random KIR programs, interpreter vs. core.
//!
//! Each program is run through three independent machines — the oracle's
//! tree-walking interpreter, a straight-line trace replay of the lowered
//! program, and the out-of-order pipeline (every 4th program on the
//! banked hardware-proxy hierarchy) — and their architectural state and
//! retired-operation counts must agree exactly. This campaign is the
//! repo's substitute for the paper's Table I validation against physical
//! ThunderX2/A64FX hardware: instead of two physical machines, we cross
//! check three independently implemented semantics.
//!
//! The campaign is fixed-seed and fully deterministic. Override the
//! program count with `ARMDSE_FUZZ_PROGRAMS=N` (CI smoke uses a smaller
//! N; the acceptance campaign is the 200-program default).

use armdse::oracle::{fuzz, fuzz_with, FuzzConfig};
use armdse::simcore::{Idealized, Memoized, SimBackend};

fn campaign_config() -> FuzzConfig {
    let mut cfg = FuzzConfig::default();
    if let Ok(n) = std::env::var("ARMDSE_FUZZ_PROGRAMS") {
        cfg.programs = n.parse().expect("ARMDSE_FUZZ_PROGRAMS must be an integer");
    }
    cfg
}

#[test]
fn differential_fuzz_campaign_is_clean() {
    let cfg = campaign_config();
    let report = fuzz(&cfg);
    assert_eq!(report.programs, cfg.programs);
    assert!(
        report.ok(),
        "differential fuzz found {} divergence(s); first: program #{} on {:?}: {}",
        report.failures.len(),
        report.failures[0].index,
        report.failures[0].backend,
        report.failures[0].error,
    );
}

/// Reuse lane: the same fixed-seed program population, every program
/// forced through the job-memoizing backend. `check_kernel`
/// cross-checks the backend's memoized entry points (`run`,
/// `run_with_metrics`) against its own uncached trace (`run_traced`)
/// and the reference interpreter, so any memo-key collision (two
/// distinct jobs sharing one stored result) surfaces as a divergence.
/// The interval length is a recorded tier tag and does not affect the
/// memo.
#[test]
fn differential_fuzz_reuse_lane_is_clean() {
    let cfg = campaign_config();
    let backend = Memoized::with_interval_len(Idealized, 64);
    let report = fuzz_with(&cfg, &backend);
    assert_eq!(report.programs, cfg.programs);
    assert!(
        report.ok(),
        "reuse-lane fuzz found {} divergence(s); first: program #{} on {:?}: {}",
        report.failures.len(),
        report.failures[0].index,
        report.failures[0].backend,
        report.failures[0].error,
    );
    // The campaign must actually have exercised the cache: every program
    // runs the plain and the metrics chain, so lookups dominate.
    let rs = backend
        .reuse_stats()
        .expect("memoized backend reports stats");
    assert!(
        rs.misses > 0 && rs.insertions > 0,
        "reuse lane never touched the interval cache: {rs:?}"
    );
}
