//! The read plane's hard contracts, checked from outside the crates:
//!
//! 1. **Digest neutrality** — arming the multi-tenant query workload must
//!    not perturb the campaign. The write-plane digest is bit-identical
//!    with the read plane on and off, across 32 seeds, both engines, and
//!    with buggify chaos armed (the read plane's own
//!    chaos callsites may refuse reads, but only the *answers* degrade —
//!    never the campaign). The query traffic draws from its own named RNG
//!    stream, so arming it shifts no other stream.
//! 2. **Snapshot = live** — a published epoch is a faithful copy of the
//!    campaign's observable state at its sample instant: every view in
//!    the snapshot equals the live accessor evaluated at that instant.
//!    Checked with buggify off and via immutable accessors only
//!    (`RefApi::latest`, `RingSeries::window`), so the comparison itself
//!    cannot tick the chaos-audited read counters.

use proptest::prelude::*;
use throughout::core::snapshot::{Query, QueryAnswer, QueryEngine, ServiceLiveness};
use throughout::core::{Campaign, CampaignConfig, Engine};
use throughout::scengen::CampaignDigest;
use throughout::sim::SimTime;
use throughout::status::StatusGrid;
use throughout::testbed::NodeId;

fn digest(mut cfg: CampaignConfig, engine: Engine) -> CampaignDigest {
    cfg.engine = engine;
    let mut c = Campaign::new(cfg);
    c.run();
    CampaignDigest::capture(&c)
}

/// `small(seed)` with the read plane armed at realistic volume.
fn armed(seed: u64) -> CampaignConfig {
    let mut cfg = CampaignConfig::small(seed);
    cfg.queries_per_day = 50_000.0;
    cfg.query_users = 1_000_000;
    cfg
}

/// The acceptance sweep: query plane on vs off, 32 seeds. The unarmed
/// next-event digest is the reference; the armed run must reproduce it
/// bitwise (armed NextEvent ≡ Lockstep is pinned by `engine_equivalence`'s
/// armed test).
#[test]
fn query_plane_on_off_is_digest_neutral_across_32_seeds() {
    for seed in 1..=32 {
        let reference = digest(CampaignConfig::small(seed), Engine::NextEvent);
        let diverging = digest(armed(seed), Engine::NextEvent).diff(&reference);
        assert!(
            diverging.is_empty(),
            "seed {seed}: arming the query plane moved {diverging:?}"
        );
    }
}

/// The chaos leg: with buggify firing at a high rate — including the read
/// plane's own `refapi-describe` and `kwapi-window` callsites — the digest
/// must still be bit-identical armed vs not. Chaos may serve a reader a
/// stale description or drop a window row, but it must never leak into
/// the write plane.
#[test]
fn query_plane_is_digest_neutral_under_chaos() {
    for seed in [5, 77] {
        let mut off = CampaignConfig::small(seed);
        off.buggify_rate = 0.10;
        let reference = digest(off.clone(), Engine::NextEvent);
        let mut on = off;
        on.queries_per_day = 50_000.0;
        on.query_users = 1_000_000;
        for engine in [Engine::NextEvent, Engine::Lockstep] {
            let armed = digest(on.clone(), engine);
            let diverging = armed.diff(&reference);
            assert!(
                diverging.is_empty(),
                "seed {seed} {engine:?}: armed chaos run moved {diverging:?}"
            );
        }
        // And the armed run really served traffic under that chaos.
        let mut c = Campaign::new(on);
        c.run();
        assert!(c.query_stats().executed > 0, "seed {seed}: no queries ran");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Stop an armed campaign at an arbitrary sample instant and compare
    /// the last published epoch against the live campaign, field by
    /// field: CI views, status grid, queue depths and spillovers,
    /// service liveness rows, description version, and every per-node
    /// power window. Then cross-check the query engine: answers against
    /// the snapshot must equal the live state the snapshot mirrors.
    #[test]
    fn published_epoch_matches_live_state(seed in 0u64..1_000_000, hours in 1u64..=48) {
        let mut cfg = CampaignConfig::small(seed);
        cfg.queries_per_day = 10_000.0;
        cfg.query_users = 1_000;
        let mut c = Campaign::new(cfg);
        let hub = c.snapshot_hub().expect("armed config builds a hub");
        c.run_until(SimTime::from_hours(hours));
        let snap = hub.latest().expect("at least one epoch published");

        // The snapshot is stamped at the exact sample instant we stopped
        // on, one epoch per elapsed cadence.
        prop_assert_eq!(snap.at, SimTime::from_hours(hours));
        prop_assert_eq!(snap.epoch, hub.published());

        // CI views and the grid rendered from them.
        let live_views = c.ci_views();
        prop_assert_eq!(&snap.jobs, &live_views);
        prop_assert_eq!(
            StatusGrid::from_snapshot(&snap),
            StatusGrid::from_views(&live_views)
        );

        // Queues: depth and spillovers per site, in domain order.
        let depths = c.federation().queue_depths();
        let spill = c.federation().spillovers_by_domain();
        prop_assert_eq!(snap.queues.len(), c.federation().domains().len());
        for (i, q) in snap.queues.iter().enumerate() {
            prop_assert_eq!(q.waiting, depths[i] as u64, "site {}", &q.site);
            prop_assert_eq!(q.spillovers, spill[i], "site {}", &q.site);
        }

        // Service liveness rows.
        prop_assert_eq!(&snap.services, &ServiceLiveness::rows_from_testbed(c.testbed()));

        // Reference API: version via the immutable accessor.
        prop_assert_eq!(snap.description_version, c.refapi().latest().map(|d| d.version));

        // Power windows: every snapshot row equals the immutable ring
        // read over the same [from, to) span.
        for (node, agg) in &snap.windows {
            let live = c
                .power_store()
                .power(NodeId(*node))
                .window(snap.window_from, snap.window_to);
            prop_assert_eq!(Some(*agg), live, "node {}", node);
        }

        // The query engine answers from the snapshot alone; spot-check it
        // against the live state the snapshot mirrors.
        for q in &snap.queues {
            let a = QueryEngine::answer(&snap, &Query::QueueDepth { site: q.site.clone() });
            prop_assert_eq!(
                a,
                QueryAnswer::Depth { waiting: q.waiting, spillovers: q.spillovers }
            );
        }
        let (up, down) = snap.services.iter().fold((0u64, 0u64), |(u, d), s| {
            if s.up { (u + 1, d) } else { (u, d + 1) }
        });
        prop_assert_eq!(
            QueryEngine::answer(&snap, &Query::ServiceCensus),
            QueryAnswer::Census { up, down }
        );
    }
}
