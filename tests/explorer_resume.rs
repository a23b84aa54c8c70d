//! Pause/resume byte-identity for the adaptive explorer.
//!
//! A run paused mid-round through the observer hook and resumed must
//! produce byte-identical artifacts (dataset CSV, curve CSV, curve
//! JSON) and the same selected design-point sequence as an
//! uninterrupted run — at 1, 2 and 8 threads, and across them (thread
//! count must never leak into the artifacts) — and on every non-default
//! engine (memoized, sampled, 2-core machine).

use armdse_core::engine::Engine;
use armdse_core::explorer::{ExploreControl, ExploreOptions, ExploreProgress, Explorer};
use armdse_core::space::ParamSpace;
use armdse_kernels::{App, WorkloadScale};
use armdse_mltree::ForestParams;
use armdse_simcore::{DEFAULT_INTERVAL_LEN, DEFAULT_WARMUP};
use std::path::{Path, PathBuf};

fn opts(threads: usize) -> ExploreOptions {
    ExploreOptions {
        app: App::Stream,
        scale: WorkloadScale::Tiny,
        seed: 1234,
        pool: 60,
        budget: 12,
        batch: 4,
        holdout: 10,
        threads,
        pareto: false,
        forest: ForestParams {
            n_trees: 8,
            ..Default::default()
        },
        chunk_jobs: 2, // several chunks per round: mid-round pause points
        ..ExploreOptions::for_app(App::Stream)
    }
}

fn fresh_dir(name: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("armdse_explorer_resume_{name}"));
    std::fs::remove_dir_all(&d).ok();
    std::fs::create_dir_all(&d).unwrap();
    d
}

fn artifact_bytes(dir: &Path, name: &str) -> Vec<u8> {
    std::fs::read(dir.join(name)).unwrap_or_else(|e| panic!("{name} in {dir:?}: {e}"))
}

const ARTIFACTS: [&str; 3] = [
    "explore_dataset.csv",
    "explore_curve.csv",
    "explore_curve.json",
];

/// A fresh engine of one table row, built anew for every run as a new
/// process would.
fn engine_for(name: &str) -> Engine {
    match name {
        "idealized" => Engine::idealized(),
        "memoized" => Engine::memoized(DEFAULT_INTERVAL_LEN),
        "sampled" => Engine::sampled(DEFAULT_INTERVAL_LEN, DEFAULT_WARMUP),
        "cores2" => Engine::multicore(2, 4),
        _ => unreachable!("unknown engine row {name}"),
    }
}

#[test]
fn paused_exploration_resumes_to_byte_identical_artifacts() {
    let space = ParamSpace::paper();
    // Full-fidelity artifacts at 2 threads, which the memoized row must
    // reproduce byte-for-byte.
    let mut full_t2: Option<Vec<Vec<u8>>> = None;
    for (name, threads) in [
        ("idealized", 1usize),
        ("idealized", 2),
        ("idealized", 8),
        ("memoized", 2),
        ("sampled", 2),
        ("cores2", 2),
    ] {
        let row = format!("{name} threads={threads}");

        // Uninterrupted reference run: a fresh run completes.
        let ref_dir = fresh_dir(&format!("ref_{name}_t{threads}"));
        let reference = Explorer::new(&engine_for(name), &space, opts(threads), &ref_dir)
            .unwrap()
            .run(ExploreControl::default())
            .unwrap_or_else(|e| panic!("{row}: fresh run failed: {e}"));
        assert!(reference.completed, "{row}");
        assert_eq!(
            reference.samples, 12,
            "{row}: tiny stream runs all validate"
        );
        assert_eq!(reference.rounds_done, 3, "{row}");

        // Paused run: stop mid-round-1 (after 2 of its 4 jobs), resume.
        let dir = fresh_dir(&format!("paused_{name}_t{threads}"));
        let mut pause = |p: &ExploreProgress| !(p.round == 1 && p.jobs_done >= 2);
        let first = Explorer::new(&engine_for(name), &space, opts(threads), &dir)
            .unwrap()
            .run(ExploreControl {
                resume: false,
                observer: Some(&mut pause),
            })
            .unwrap();
        assert!(!first.completed, "{row}: observer must have paused the run");
        assert_eq!(
            first.rounds_done, 1,
            "{row}: round 0 finished, round 1 paused"
        );

        let resumed = Explorer::new(&engine_for(name), &space, opts(threads), &dir)
            .unwrap()
            .run(ExploreControl {
                resume: true,
                observer: None,
            })
            .unwrap_or_else(|e| panic!("{row}: resume failed: {e}"));
        assert!(resumed.completed, "{row}");

        assert_eq!(
            resumed.selected, reference.selected,
            "{row}: resumed run selected a different design-point sequence"
        );
        assert_eq!(resumed.curve, reference.curve, "{row}");
        for artifact in ARTIFACTS {
            assert_eq!(
                artifact_bytes(&dir, artifact),
                artifact_bytes(&ref_dir, artifact),
                "{row}: {artifact} differs after pause+resume"
            );
        }
        let artifacts: Vec<Vec<u8>> = ARTIFACTS
            .iter()
            .map(|a| artifact_bytes(&ref_dir, a))
            .collect();
        match (name, threads) {
            ("idealized", 2) => full_t2 = Some(artifacts),
            ("memoized", _) => assert!(
                Some(&artifacts) == full_t2.as_ref(),
                "memoized artifacts differ from full fidelity"
            ),
            _ => {}
        }

        // Resuming a completed exploration is a no-op with the same report.
        let again = Explorer::new(&engine_for(name), &space, opts(threads), &dir)
            .unwrap()
            .run(ExploreControl {
                resume: true,
                observer: None,
            })
            .unwrap();
        assert!(again.completed, "{row}");
        assert_eq!(again.selected, reference.selected, "{row}");
        assert_eq!(again.curve, reference.curve, "{row}");

        std::fs::remove_dir_all(&dir).ok();
        std::fs::remove_dir_all(&ref_dir).ok();
    }
}

#[test]
fn thread_count_never_leaks_into_the_artifacts() {
    let engine = Engine::idealized();
    let space = ParamSpace::paper();
    let d1 = fresh_dir("t1");
    let r1 = Explorer::new(&engine, &space, opts(1), &d1)
        .unwrap()
        .run(ExploreControl::default())
        .unwrap();
    for threads in [2usize, 8] {
        let dn = fresh_dir(&format!("t{threads}"));
        let rn = Explorer::new(&engine, &space, opts(threads), &dn)
            .unwrap()
            .run(ExploreControl::default())
            .unwrap();
        assert_eq!(r1.selected, rn.selected);
        assert_eq!(r1.curve, rn.curve);
        for artifact in [
            "explore_dataset.csv",
            "explore_curve.csv",
            "explore_curve.json",
        ] {
            assert_eq!(
                artifact_bytes(&d1, artifact),
                artifact_bytes(&dn, artifact),
                "{artifact} differs between 1 and {threads} threads"
            );
        }
        std::fs::remove_dir_all(&dn).ok();
    }
    std::fs::remove_dir_all(&d1).ok();
}

#[test]
fn resume_under_different_options_is_refused() {
    let engine = Engine::idealized();
    let space = ParamSpace::paper();
    let dir = fresh_dir("foreign");
    let ex = Explorer::new(&engine, &space, opts(1), &dir).unwrap();
    let mut pause = |p: &ExploreProgress| p.jobs_done < 2;
    ex.run(ExploreControl {
        resume: false,
        observer: Some(&mut pause),
    })
    .unwrap();
    let mut other = opts(1);
    other.seed = 9999; // a different exploration entirely
    let err = Explorer::new(&engine, &space, other, &dir)
        .unwrap()
        .run(ExploreControl {
            resume: true,
            observer: None,
        })
        .unwrap_err();
    assert!(
        err.to_string().contains("different exploration"),
        "unexpected error: {err}"
    );
    std::fs::remove_dir_all(&dir).ok();
}
