//! The scenario swarm, as a tier-1 gate: ≥32 generated scenarios must pass
//! every differential oracle (engine equivalence, detection soundness,
//! conservation), and an intentionally injected oracle violation must be
//! shrunk to a minimal reproducer whose dump replays as a one-liner.

use throughout::scengen::{
    replay, run_scenario, run_seed, run_swarm, seed_block, shrink, Oracles, OracleKind,
    ScenarioSpec,
};

/// The headline acceptance: a 32-seed swarm, all oracles on.
#[test]
fn swarm_of_32_seeds_passes_every_oracle() {
    let report = run_swarm(&seed_block(1, 32), &Oracles::default(), true);
    let mut log = String::new();
    for o in report.failures() {
        for v in &o.violations {
            log.push_str(&format!("\nseed {}: {v}", o.seed));
        }
        if let Some(r) = &o.reproducer {
            log.push_str(&format!("\nseed {}: reproducer {}", o.seed, r.dump));
        }
    }
    assert!(report.all_passed(), "swarm failures:{log}");
    assert_eq!(report.outcomes.len(), 32);
    // The swarm exercises real campaigns, not empty worlds.
    assert!(
        report.total_tests_run() > 1000,
        "swarm only ran {} tests",
        report.total_tests_run()
    );
    // Outcomes come back in seed order (rayon map preserves input order).
    let seeds: Vec<u64> = report.outcomes.iter().map(|o| o.seed).collect();
    assert_eq!(seeds, seed_block(1, 32));
}

/// The grammar actually spans the dimensions it promises: across a block
/// of seeds both scheduling modes, several rollout patterns and a range of
/// topologies appear.
#[test]
fn grammar_covers_its_dimensions() {
    use throughout::scengen::{ModeDim, RolloutDim};
    let specs: Vec<ScenarioSpec> = (1..=64).map(ScenarioSpec::from_seed).collect();
    assert!(specs.iter().any(|s| s.mode == ModeDim::External));
    assert!(specs
        .iter()
        .any(|s| matches!(s.mode, ModeDim::NaiveCron { .. })));
    assert!(specs.iter().any(|s| s.rollout == RolloutDim::AllAtStart));
    assert!(specs
        .iter()
        .any(|s| matches!(s.rollout, RolloutDim::Staged { .. })));
    assert!(specs.iter().any(|s| s.rollout == RolloutDim::NoTesting));
    assert!(specs.iter().any(|s| s.per_node_hardware));
    let min_nodes = specs.iter().map(ScenarioSpec::node_count).min().unwrap();
    let max_nodes = specs.iter().map(ScenarioSpec::node_count).max().unwrap();
    assert!(min_nodes < max_nodes, "topologies do not vary");
    // The multi-site dimension: single-site and ≥3-site topologies both
    // occur, and some scenario mixes in an inter-site fault kind.
    assert!(specs.iter().any(|s| s.site_count() == 1));
    assert!(specs.iter().any(|s| s.site_count() >= 3));
    assert!(specs.iter().any(ScenarioSpec::has_site_faults));
    // Every legacy fault kind appears in some scenario's mix; bare-seed
    // expansion is append-frozen, so the service-process kinds must NOT
    // appear here — they are reachable only through the service-chaos
    // cells and the ToggleFaultKind mutator.
    use throughout::testbed::FaultKind;
    for kind in &FaultKind::ALL[..FaultKind::LEGACY] {
        assert!(
            specs
                .iter()
                .any(|s| s.fault_mix.iter().any(|&(k, _)| k == *kind)),
            "{kind} never generated"
        );
    }
    for kind in FaultKind::SERVICE_PROCESS {
        assert!(
            !specs
                .iter()
                .any(|s| s.fault_mix.iter().any(|&(k, _)| k == kind)),
            "{kind} leaked into bare-seed expansion (append-only discipline)"
        );
    }
    assert!(specs.iter().all(|s| s.buggify_rate == 0.0));
    // The service-chaos dimension is reachable by pinning a frontier cell.
    use throughout::scengen::{pin_to_cell, StructuralCell};
    use throughout::sim::rng::stream_rng;
    let cell = StructuralCell::all()
        .into_iter()
        .find(|c| c.service_faults)
        .expect("service-chaos cells exist");
    let mut spec = ScenarioSpec::from_seed(5);
    pin_to_cell(&mut spec, cell, &mut stream_rng(23, "swarm-service-cell"));
    assert!(spec.has_service_faults());
    assert!(spec.buggify_rate > 0.0);
    for kind in FaultKind::SERVICE_PROCESS {
        assert!(spec.fault_mix.iter().any(|&(k, _)| k == kind), "{kind} not pinned");
    }
}

/// An intentionally injected oracle violation (the tests-run trip wire)
/// must come back as a minimal reproducer seed + config dump.
#[test]
fn injected_violation_shrinks_to_minimal_reproducer() {
    let oracles = Oracles {
        // The real oracles stay off so the probe budget goes to shrinking;
        // the trip wire plays the role of a genuine invariant violation.
        tests_run_limit: Some(50),
        ..Oracles::none()
    };
    let outcome = run_seed(4, &oracles, true);
    assert!(
        !outcome.passed(),
        "seed 4 must trip the 50-test limit (ran {})",
        outcome.tests_run
    );
    assert_eq!(outcome.violations[0].oracle, OracleKind::TestsRunLimit);

    let repro = outcome.reproducer.expect("failure must shrink");
    assert_eq!(repro.seed, 4);
    // Shrinking made real progress on both announced axes.
    assert!(
        repro.spec.duration_hours < outcome.spec.duration_hours,
        "horizon was not bisected: {} h",
        repro.spec.duration_hours
    );
    assert!(
        repro.spec.fault_mix.len() < outcome.spec.fault_mix.len()
            || outcome.spec.fault_mix.is_empty(),
        "fault mix was not pruned: {} entries",
        repro.spec.fault_mix.len()
    );

    // The dump replays as a one-line regression test and still violates.
    let violations = replay(&repro.dump, &oracles).expect("dump is a valid scenario.v1 file");
    assert_eq!(violations, vec![repro.violation.clone()]);

    // And the dump is a scenario file that parses back to the spec,
    // exactly.
    assert_eq!(
        throughout::scengen::parse_scenario(&repro.dump).unwrap(),
        repro.spec
    );
}

/// Regression, found by the swarm itself (seed 117, NaiveCron mode): when
/// `start_work` finished a build immediately (unstable — no testbed
/// resources), the freed executor plus the still-queued builds were due
/// work on the very next grid instant, but the next-event engine had no
/// wake term for that state and slept until the next unrelated event,
/// diverging from lockstep on every subsequently planned OAR job. Keep the
/// seed pinned on the full oracle suite.
#[test]
fn swarm_regression_seed_117_engine_equivalence() {
    let run = run_scenario(&ScenarioSpec::from_seed(117), &Oracles::default());
    assert!(run.violations.is_empty(), "seed 117 regressed: {:?}", run.violations);
    assert!(run.tests_run() > 0);
}

/// The federation acceptance scenario: a topology spanning ≥ 3 sites with
/// every site-scoped fault kind active (outages, inter-site partitions,
/// clock skew) must pass all three oracles — engines bit-identical across
/// the sharded per-site queues, every active site fault resolvable from
/// its diagnostic signature, and per-site + global conservation intact.
#[test]
fn multi_site_scenario_with_site_faults_passes_every_oracle() {
    use throughout::testbed::FaultKind;
    // Start from a generated point of the grammar and pin the multi-site
    // dimension explicitly.
    let mut spec = ScenarioSpec::from_seed(6);
    assert!(spec.clusters.len() >= 3, "seed 6 grew {} clusters", spec.clusters.len());
    for (i, c) in spec.clusters.iter_mut().enumerate() {
        c.site = format!("swarm-s{}", i % 3);
    }
    spec.fault_mix.retain(|(k, _)| !k.is_site_fault());
    spec.fault_mix.push((FaultKind::SitePowerOutage, 0.6));
    spec.fault_mix.push((FaultKind::SiteLinkPartition, 0.8));
    spec.fault_mix.push((FaultKind::ClockSkew, 1.0));
    // No pre-applied burden: a t=0 blackout of every site would leave the
    // campaign with nothing to schedule on (outages must *arrive*).
    spec.initial_fault_burden = 0;
    assert!(spec.site_count() >= 3);
    assert!(spec.has_site_faults());

    let run = run_scenario(&spec, &Oracles::default());
    assert!(run.violations.is_empty(), "multi-site scenario failed: {:?}", run.violations);
    assert!(run.tests_run() > 0, "scenario ran no tests");

    // The dimension was genuinely exercised: the campaign's testing
    // pipeline filed at least one site-scoped bug.
    let campaign = throughout::scengen::oracle::run_campaign(&spec, throughout::core::Engine::NextEvent);
    let site_bugs = campaign
        .tracker()
        .bugs()
        .iter()
        .filter(|b| {
            b.signature.starts_with("site-power-outage@")
                || b.signature.starts_with("site-link-partition@")
                || b.signature.starts_with("clock-skew@")
        })
        .count();
    assert!(
        site_bugs > 0,
        "no site-scoped bug filed over {} h with site fault rates active",
        spec.duration_hours
    );
}

/// Regression guard from this PR's bug-hunt batch (blocks 2000–9255 plus
/// two forced-multi-site stress sweeps, 2176 scenarios). The hunt's two
/// findings were fixed during development — a dead site could never be
/// diagnosed by its own site's tests, deadlocking outage repair (fixed by
/// the federation-wide `oarstate` status view), and the next-event wake
/// computation over eight per-site queues made the event engine slower
/// than lockstep on saturated grids (fixed by the short-circuited
/// `next_wake` scan). Seed 9026 pins the hardest natural point the sweeps
/// covered: a 3-site NaiveCron scenario with site-scoped faults in the
/// mix, where blocked builds hold executors while the site hosting their
/// testbed job can lose power mid-wait.
#[test]
fn swarm_regression_seed_9026_multi_site_naive_cron() {
    use throughout::scengen::ModeDim;
    let spec = ScenarioSpec::from_seed(9026);
    assert!(spec.site_count() >= 3, "seed 9026 lost its multi-site shape");
    assert!(matches!(spec.mode, ModeDim::NaiveCron { .. }));
    assert!(spec.has_site_faults());
    let run = run_scenario(&spec, &Oracles::default());
    assert!(run.violations.is_empty(), "seed 9026 regressed: {:?}", run.violations);
    assert!(run.tests_run() > 0);
}

/// The large-scale acceptance: an eight-site world (the sharded engine's
/// home turf) pinned from the fuzzer's large-scale cell block must pass
/// every oracle — in particular the three-way engine equivalence, whose
/// ParallelSite leg exercises one run-queue shard per site plus the
/// parallel federation/scheduler fan-outs. The horizon is capped so the
/// three campaign runs stay CI-affordable.
#[test]
fn eight_site_scenario_passes_every_oracle() {
    use throughout::scengen::{pin_to_cell, StructuralCell};
    use throughout::sim::rng::stream_rng;
    let mut rng = stream_rng(17, "swarm-grid");
    let mut spec = ScenarioSpec::from_seed(33);
    let cell = StructuralCell {
        mode: 0,
        rollout: 0,
        sites: 8,
        site_faults: true,
        calm: false,
        service_faults: false,
    };
    pin_to_cell(&mut spec, cell, &mut rng);
    assert_eq!(spec.site_count(), 8);
    assert!(spec.has_site_faults());
    spec.duration_hours = spec.duration_hours.min(48);

    let run = run_scenario(&spec, &Oracles::default());
    assert!(run.violations.is_empty(), "eight-site scenario failed: {:?}", run.violations);
    assert!(run.tests_run() > 0, "scenario ran no tests");
}

/// The service-chaos acceptance scenario: a ≥3-site grid whose Kadeploy
/// (and sibling) server processes crash, restart and lose RPC calls
/// mid-campaign, with buggify armed — the "kadeploy server on site 3
/// crashed mid-deployment" class as a first-class generated scenario. It
/// must pass all three oracles: the engines bit-identical (process
/// crash/restart draws and buggify decisions replay across NextEvent,
/// Lockstep and the sharded ParallelSite), every diagnosed service fault
/// resolvable by the matrix, and conservation intact. The campaign must
/// actually exercise the dimension: service-crash bugs filed and the
/// digest's per-service chaos ledger non-empty.
#[test]
fn service_chaos_scenario_on_multi_site_grid_passes_every_oracle() {
    use throughout::scengen::{pin_to_cell, StructuralCell};
    use throughout::sim::rng::stream_rng;
    use throughout::testbed::FaultKind;
    let cell = StructuralCell::all()
        .into_iter()
        .find(|c| c.service_faults && c.sites == 8 && c.mode == 0 && c.rollout == 0)
        .expect("eight-site service-chaos cell exists");
    let mut spec = ScenarioSpec::from_seed(41);
    pin_to_cell(&mut spec, cell, &mut stream_rng(29, "swarm-service-accept"));
    assert!(spec.site_count() >= 3, "the acceptance grid spans ≥3 sites");
    assert!(spec.has_service_faults());
    assert!(spec.buggify_rate > 0.0, "buggify must be armed");
    for kind in FaultKind::SERVICE_PROCESS {
        assert!(spec.fault_mix.iter().any(|&(k, _)| k == kind));
    }
    spec.duration_hours = spec.duration_hours.min(48);

    let run = run_scenario(&spec, &Oracles::default());
    assert!(run.violations.is_empty(), "service-chaos scenario failed: {:?}", run.violations);
    assert!(run.tests_run() > 0, "scenario ran no tests");

    let campaign =
        throughout::scengen::oracle::run_campaign(&spec, throughout::core::Engine::NextEvent);
    let service_bugs = campaign
        .tracker()
        .bugs()
        .iter()
        .filter(|b| {
            b.signature.starts_with("service-crash@")
                || b.signature.starts_with("rpc-degraded@")
        })
        .count();
    assert!(
        service_bugs > 0,
        "no service-process bug filed over {} h with service fault rates active",
        spec.duration_hours
    );
    let digest = throughout::scengen::CampaignDigest::capture(&campaign);
    assert!(
        !digest.service_processes.is_empty(),
        "the digest's per-service chaos ledger stayed empty"
    );
}

/// The service-fault shrink regression: a violation inside a fully armed
/// service-chaos scenario (three service kinds + buggify + a fault-mix
/// tail) must shrink to a reproducer with at most two fault kinds and
/// buggify disarmed — the shrinker's service pruning at work — and the
/// dump must replay the violation from tier-1.
#[test]
fn service_chaos_violation_shrinks_to_minimal_reproducer() {
    use throughout::scengen::run_seed_service_chaos;
    let oracles = Oracles {
        // The trip wire stands in for a real invariant violation; the
        // expensive oracles stay off so the probe budget goes to shrinking.
        tests_run_limit: Some(40),
        ..Oracles::none()
    };
    let outcome = run_seed_service_chaos(20005, &oracles, true);
    assert!(
        !outcome.passed(),
        "seed 20005 must trip the 40-test limit (ran {})",
        outcome.tests_run
    );
    assert!(outcome.spec.has_service_faults(), "the chaos dimensions were armed");

    let repro = outcome.reproducer.expect("failure must shrink");
    assert!(
        repro.spec.fault_mix.len() <= 2,
        "service faults not pruned: {} kinds survive",
        repro.spec.fault_mix.len()
    );
    assert_eq!(repro.spec.buggify_rate, 0.0, "shrink must disarm buggify");
    assert!(repro.spec.duration_hours < outcome.spec.duration_hours);

    // The dump replays as a one-liner and still violates.
    let violations = replay(&repro.dump, &oracles).expect("dump is a valid scenario.v1 file");
    assert_eq!(violations, vec![repro.violation.clone()]);
    assert_eq!(
        throughout::scengen::parse_scenario(&repro.dump).unwrap(),
        repro.spec
    );
}

/// A spec that violates nothing does not shrink into a reproducer.
#[test]
fn passing_spec_does_not_shrink() {
    let oracles = Oracles {
        conservation: true,
        ..Oracles::none()
    };
    let spec = ScenarioSpec::from_seed(3);
    assert!(shrink(&spec, &oracles).is_none());
}
