//! The coverage-guided fuzzer, as a tier-1 gate.
//!
//! Three properties anchor this PR:
//!
//! 1. **Efficiency** — the fuzzer must hit the coverage plateau of a
//!    256-seed random sweep within 64 campaign executions (a quarter of
//!    the random budget). This is the whole point of coverage guidance:
//!    scenario diversity per CPU-second.
//! 2. **Determinism** — the same root seed and starting corpus produce an
//!    identical corpus and trophy list, across runs and across rayon
//!    worker counts (candidate derivation and corpus merging are
//!    sequential; parallel evaluation is order-preserving).
//! 3. **Isolation** — a panicking scenario costs its own outcome, never
//!    the sweep; the resulting violation shrinks like any other.

use throughout::scengen::{
    random_coverage, run_fuzz, run_swarm, seed_block, Corpus, FuzzConfig, OracleKind, Oracles,
};

/// Acceptance: coverage-guided search reaches the 256-seed random plateau
/// in ≤ 64 executions (the numbers live in BENCH_5.json).
#[test]
fn fuzzer_reaches_the_random_plateau_in_a_quarter_budget() {
    let (random_corpus, _) = random_coverage(&seed_block(1, 256));
    let plateau = random_corpus.len();
    assert!(plateau > 30, "random plateau collapsed to {plateau} — signature too coarse");

    let cfg = FuzzConfig {
        root_seed: 1,
        budget: 64,
        ..FuzzConfig::default()
    };
    let report = run_fuzz(&cfg, Corpus::new());
    assert_eq!(report.executions, 64);
    let reached = report.executions_to_reach(plateau);
    assert!(
        reached.is_some_and(|n| n <= 64),
        "fuzzer found {} signatures in 64 executions; random found {plateau} in 256",
        report.corpus.len()
    );
}

/// Determinism: identical corpus and trophies across runs and across
/// rayon worker counts (the vendored fan-out honours RAYON_NUM_THREADS).
#[test]
fn fuzz_loop_is_deterministic_across_runs_and_worker_counts() {
    let cfg = FuzzConfig {
        root_seed: 7,
        budget: 40,
        batch: 8,
        // Oracles on so the trophy path is exercised by the determinism
        // check too (the trip wire fires on whatever exceeds 400 tests).
        oracles: Oracles {
            tests_run_limit: Some(400),
            ..Oracles::none()
        },
        ..FuzzConfig::default()
    };
    let mut start = Corpus::new();
    {
        // A non-empty starting corpus: determinism must hold from any
        // resume point, not just from scratch.
        let warmup = run_fuzz(
            &FuzzConfig {
                root_seed: 99,
                budget: 8,
                ..FuzzConfig::default()
            },
            Corpus::new(),
        );
        for e in warmup.corpus.entries() {
            start.add(e.spec.clone(), e.signature.clone());
        }
    }

    let fingerprint = |report: &throughout::scengen::FuzzReport| {
        (
            report.corpus.to_json(),
            report.coverage_curve.clone(),
            report
                .trophies
                .iter()
                .map(|t| (t.spec.seed, format!("{:?}", t.violations)))
                .collect::<Vec<_>>(),
        )
    };

    let baseline = fingerprint(&run_fuzz(&cfg, start.clone()));
    let rerun = fingerprint(&run_fuzz(&cfg, start.clone()));
    assert_eq!(baseline, rerun, "same-process rerun diverged");

    for workers in ["1", "3", "16"] {
        std::env::set_var("RAYON_NUM_THREADS", workers);
        let narrow = fingerprint(&run_fuzz(&cfg, start.clone()));
        std::env::remove_var("RAYON_NUM_THREADS");
        assert_eq!(baseline, narrow, "{workers} workers diverged");
    }
}

/// Isolation: a deliberately panicking scenario (the panic trip wire)
/// still yields every other outcome, and its violation carries a minimal
/// reproducer like any other failure.
#[test]
fn panicking_scenario_does_not_abort_the_swarm() {
    let seeds = seed_block(1, 6);
    let oracles = Oracles {
        panic_on_seed: Some(3),
        ..Oracles::none()
    };
    let report = run_swarm(&seeds, &oracles, true);

    // Every seed reports an outcome, in order.
    let got: Vec<u64> = report.outcomes.iter().map(|o| o.seed).collect();
    assert_eq!(got, seeds);

    // Exactly the poisoned seed failed, with a Panicked violation.
    let failures = report.failures();
    assert_eq!(failures.len(), 1);
    let poisoned = failures[0];
    assert_eq!(poisoned.seed, 3);
    assert_eq!(poisoned.violations[0].oracle, OracleKind::Panicked);
    assert!(
        poisoned.violations[0].detail.contains("panicked"),
        "unhelpful detail: {}",
        poisoned.violations[0].detail
    );

    // The panic shrinks like any other violation: probes re-run the
    // scenario, observe "still panics", and minimize on that.
    let repro = poisoned.reproducer.as_ref().expect("panic must shrink");
    assert_eq!(repro.violation.oracle, OracleKind::Panicked);
    assert!(
        repro.spec.duration_hours < poisoned.spec.duration_hours
            || repro.spec.fault_mix.len() < poisoned.spec.fault_mix.len(),
        "shrinker made no progress on a panicking scenario"
    );

    // The other five scenarios genuinely ran.
    assert!(report.total_tests_run() > 0);
}

/// The trophy path: fuzzing with an oracle trip wire shrinks what it
/// catches, and the corpus still grows.
#[test]
fn fuzz_trophies_carry_reproducers() {
    let cfg = FuzzConfig {
        root_seed: 11,
        budget: 12,
        batch: 4,
        oracles: Oracles {
            tests_run_limit: Some(30),
            ..Oracles::none()
        },
        ..FuzzConfig::default()
    };
    let report = run_fuzz(&cfg, Corpus::new());
    assert!(!report.corpus.is_empty());
    assert!(
        !report.trophies.is_empty(),
        "a 30-test trip wire over 12 scenarios must catch something"
    );
    for trophy in &report.trophies {
        assert_eq!(trophy.violations[0].oracle, OracleKind::TestsRunLimit);
        let repro = trophy.reproducer.as_ref().expect("trophies shrink");
        assert!(repro.spec.duration_hours <= trophy.spec.duration_hours);
    }
}
