//! Engine equivalence: the next-event engine must produce bit-identical
//! campaigns to the legacy lockstep engine — same seeds, same metrics,
//! same tracker counts, same scheduler decisions. NextEvent earns this by
//! processing exactly the grid instants where something is due.
//!
//! The observable state is captured by `scengen`'s [`CampaignDigest`]
//! (floats taken bitwise, so "identical" means identical); the scenario
//! swarm (`tests/scenario_swarm.rs`) extends the same check from these
//! hand-written scenarios to the whole generated grammar.

use throughout::core::{Campaign, CampaignConfig, Engine, Rollout, SchedulingMode};
use throughout::scengen::CampaignDigest;
use throughout::sim::{SimDuration, SimTime};
use throughout::suite::Family;

fn run(mut cfg: CampaignConfig, engine: Engine) -> CampaignDigest {
    cfg.engine = engine;
    let mut c = Campaign::new(cfg);
    c.run();
    CampaignDigest::capture(&c)
}

/// Equivalence is judged by [`CampaignDigest::diff`]: every observable
/// except the wake-reason mix, which only the event-driven engines
/// produce.
fn assert_equivalent(reference: &CampaignDigest, other: &CampaignDigest, label: &str) {
    let diverging = other.diff(reference);
    assert!(diverging.is_empty(), "{label} diverged on {diverging:?}");
}

/// Run both engines on `cfg` and require bit-identity, with the
/// next-event digest as the reference. Returns that reference for extra
/// scenario-specific assertions.
fn assert_engines_agree(cfg: CampaignConfig, label: &str) -> CampaignDigest {
    let event = run(cfg.clone(), Engine::NextEvent);
    let lockstep = run(cfg, Engine::Lockstep);
    assert_equivalent(&event, &lockstep, &format!("{label}: Lockstep"));
    event
}

#[test]
fn small_campaign_identical_across_engines_and_seeds() {
    for seed in [7, 42, 1234] {
        let event = assert_engines_agree(CampaignConfig::small(seed), &format!("seed {seed}"));
        assert!(event.tests_run > 0, "seed {seed} ran nothing");
    }
}

#[test]
fn small_naive_mode_identical_across_engines() {
    for seed in [3, 99] {
        let mut cfg = CampaignConfig::small(seed);
        cfg.mode = SchedulingMode::NaiveCron {
            period: SimDuration::from_days(1),
        };
        cfg.duration = SimDuration::from_days(6);
        let event = assert_engines_agree(cfg, &format!("naive seed {seed}"));
        assert!(event.tests_run > 0);
    }
}

#[test]
fn paper_scale_scheduling_scenario_identical_across_engines() {
    // The bench workload, shortened: paper-scale 8-site testbed, external
    // scheduler, heavy user load.
    for seed in [7, 42] {
        let mut cfg =
            throughout::core::scenario::scheduling_scenario(seed, SchedulingMode::External);
        cfg.duration = SimDuration::from_days(1);
        let event = assert_engines_agree(cfg, &format!("paper-scale seed {seed}"));
        assert!(event.tests_run > 0);
    }
}

/// Forced co-allocation: a two-site grid world whose only active family is
/// kavlan, so the global-VLAN configuration (one node on each of two
/// sites, `oargridsub`-style) dominates the run: the split books two
/// domains atomically, and both engines must book it identically.
#[test]
fn forced_co_allocation_identical_across_engines() {
    let mut cfg = throughout::core::scenario::grid_of_grids_scenario(11, 2);
    cfg.duration = SimDuration::from_days(2);
    cfg.rollout = Rollout {
        phases: vec![(SimTime::ZERO, vec![Family::Kavlan])],
    };
    let event = assert_engines_agree(cfg, "forced co-allocation");
    assert!(event.tests_run > 0, "kavlan-only campaign ran nothing");
    assert!(
        event.co_allocations > 0,
        "the global-VLAN configuration never co-allocated"
    );
}

/// Heavy service chaos: a multi-site campaign where the service-process
/// kinds arrive several times a day and buggify fires at a high rate must
/// still be bit-identical across both engines — crash/restart
/// applications draw RNG at the same instants, the restart wake term must
/// fire at the same instants, and the hashed buggify decisions must not
/// depend on which instants an engine visits. The digest
/// includes the per-service chaos ledger, so a single divergent dropped
/// call fails the diff.
#[test]
fn service_chaos_identical_across_engines() {
    use throughout::testbed::FaultKind;
    for seed in [5, 77] {
        let mut cfg = throughout::core::scenario::grid_of_grids_scenario(seed, 3);
        cfg.duration = SimDuration::from_days(3);
        cfg.buggify_rate = 0.10;
        for (kind, rate) in &mut cfg.injector.rates_per_day {
            if FaultKind::SERVICE_PROCESS.contains(kind) {
                *rate = 3.0;
            }
        }
        let event = assert_engines_agree(cfg, &format!("service chaos seed {seed}"));
        assert!(event.tests_run > 0, "seed {seed} ran nothing");
        assert!(
            !event.service_processes.is_empty(),
            "seed {seed}: chaos ledger stayed empty at 3 arrivals/day"
        );
    }
}

/// The read plane rides the same determinism contract: with the query
/// workload armed, both engines must publish the identical snapshot
/// sequence (captured as a running fold over every published epoch) and
/// execute the identical query mix (same issued/executed counts, same
/// answer fold) — snapshots are taken at the sample-cadence instants,
/// which both engines hit exactly.
#[test]
fn armed_query_plane_identical_across_engines() {
    for seed in [7, 42] {
        let mut cfg = CampaignConfig::small(seed);
        cfg.queries_per_day = 50_000.0;
        cfg.query_users = 100_000;
        let mut folds = Vec::new();
        for engine in [Engine::NextEvent, Engine::Lockstep] {
            let mut c = cfg.clone();
            c.engine = engine;
            let mut campaign = Campaign::new(c);
            campaign.run();
            let hub = campaign
                .snapshot_hub()
                .expect("armed campaign has a snapshot hub");
            folds.push((
                campaign.snapshot_fold(),
                campaign.query_stats(),
                hub.published(),
            ));
        }
        assert!(folds[0].2 > 0, "seed {seed}: no snapshots published");
        assert!(folds[0].1.executed > 0, "seed {seed}: no queries executed");
        assert_eq!(folds[0], folds[1], "seed {seed}: Lockstep read plane diverged");
    }
}

#[test]
fn digest_diff_names_the_diverging_fields() {
    let a = run(CampaignConfig::small(7), Engine::NextEvent);
    let mut b = a.clone();
    assert!(a.diff(&b).is_empty());
    b.tests_run += 1;
    b.filed += 1;
    assert_eq!(a.diff(&b), vec!["tests_run", "filed"]);
}

#[test]
fn partial_advance_matches_single_run() {
    // Driving a campaign in several run_until legs lands on the same grid
    // and the same outcome as one shot, on either engine.
    for engine in [Engine::NextEvent, Engine::Lockstep] {
        let mut cfg = CampaignConfig::small(5);
        cfg.engine = engine;
        let mut a = Campaign::new(cfg.clone());
        a.run();
        let mut b = Campaign::new(cfg);
        for day in [2u64, 5, 7] {
            b.run_until(SimTime::from_days(day));
        }
        b.run();
        assert_eq!(a.metrics().tests_run, b.metrics().tests_run, "{engine:?}");
        assert_eq!(a.tracker().filed(), b.tracker().filed(), "{engine:?}");
        assert_eq!(a.tracker().fixed(), b.tracker().fixed(), "{engine:?}");
    }
}
