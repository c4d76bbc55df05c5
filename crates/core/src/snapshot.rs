//! The read plane: immutable epoch snapshots and the multi-tenant query
//! engine.
//!
//! The paper's testbed exists to *serve researchers*: the reference API,
//! status pages and metrics series are the product. This module separates
//! that read side from the mutable write plane. At every sample-cadence
//! instant the campaign publishes an immutable, `Arc`-shared
//! [`CampaignSnapshot`] — job views, per-site queue depths, service
//! liveness, the testbed description version with its property database,
//! and per-node power windows — into a [`SnapshotHub`]. Any number of
//! concurrent readers then answer typed [`Query`]s against any held epoch
//! through [`QueryEngine`], without ever touching live campaign state.
//!
//! ## Determinism contract
//!
//! * Query answers are pure functions of `(epoch, query)`:
//!   [`QueryEngine::answer`] receives only the snapshot and the query.
//! * Both campaign engines publish identical snapshot sequences —
//!   every published snapshot is folded into a running digest
//!   ([`fold_snapshot`]) compared across engines by the equivalence suite.
//! * Arming the read plane never perturbs the campaign digest: the query
//!   mix draws from its own dedicated `"queries"` RNG stream, read-side
//!   chaos decisions hash monotone read counters, and nothing on the read
//!   path writes campaign state.
//!
//! ## Locking honesty
//!
//! The crate forbids `unsafe`, so the hub is not a bare atomic-pointer
//! swap: it is a bounded ring behind an `RwLock` plus a lock-free epoch
//! counter. The critical sections are a single `Arc` clone (readers) and
//! a single push/evict (the writer) — readers never hold the lock while
//! evaluating queries, and a reader holding an epoch's `Arc` keeps that
//! snapshot alive after eviction, so the writer never waits for readers
//! to finish with their data.

use rand::seq::SliceRandom;
use rand::Rng;
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, PoisonError, RwLock};
use ttt_ci::JobView;
use ttt_kwapi::WindowAgg;
use ttt_refapi::PropertyMap;
// Re-exported so read-plane consumers get the full typed query surface
// from one module.
pub use ttt_refapi::{Query, QueryAnswer};
use ttt_sim::rpc::Liveness;
use ttt_sim::{PeriodSeries, SimDuration, SimTime};
use ttt_testbed::Testbed;

/// One site's OAR queue, as captured at the publish instant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SiteQueueView {
    /// Site name.
    pub site: String,
    /// Jobs waiting in the site's OAR queue.
    pub waiting: u64,
    /// Jobs this site absorbed away from their home site so far.
    pub spillovers: u64,
}

/// One service process, flattened exactly like the status page's
/// `ServiceRow` — `ttt_status` builds its panel straight from these rows,
/// so the two views can never drift.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceLiveness {
    /// Service name (e.g. `oar-server`).
    pub service: String,
    /// Site name the process serves.
    pub site: String,
    /// Host node index, if pinned.
    pub host: Option<u32>,
    /// Rendered liveness: `up`, `CRASHED` or `restarting@<min>m`.
    pub state: String,
    /// Whether the process answers right now.
    pub up: bool,
    /// Lifetime halts (crash or restart faults).
    pub crashes: u64,
    /// Lifetime recoveries.
    pub restarts: u64,
    /// Calls the RPC envelope refused or dropped.
    pub dropped_calls: u64,
}

impl ServiceLiveness {
    /// Flatten every registered service process, with the same rendering
    /// the status page uses.
    pub fn rows_from_testbed(tb: &Testbed) -> Vec<ServiceLiveness> {
        tb.processes()
            .iter()
            .map(|e| {
                let state = match e.state {
                    Liveness::Up => "up".to_string(),
                    Liveness::Crashed => "CRASHED".to_string(),
                    Liveness::RestartingAt(t) => {
                        format!("restarting@{}m", t.as_secs() / 60)
                    }
                };
                let idx = e.id.site.index();
                ServiceLiveness {
                    service: e.id.kind.to_string(),
                    site: tb
                        .sites()
                        .get(idx)
                        .map(|s| s.name.clone())
                        .unwrap_or_else(|| format!("site-{idx}")),
                    host: e.host.map(|n| n.0),
                    state,
                    up: e.state.is_up(),
                    crashes: e.crashes,
                    restarts: e.restarts,
                    dropped_calls: e.dropped_calls,
                }
            })
            .collect()
    }
}

/// One immutable epoch of campaign state, shared by `Arc` with every
/// reader that holds it.
#[derive(Debug, Clone)]
pub struct CampaignSnapshot {
    /// Epoch number, 1-based and strictly increasing.
    pub epoch: u64,
    /// Publish instant (a sample-cadence grid instant).
    pub at: SimTime,
    /// CI REST views, registration-ordered, full build history.
    pub jobs: Vec<JobView>,
    /// Per-site queue depths and spillovers, in domain (site) order.
    pub queues: Vec<SiteQueueView>,
    /// Service process rows, registry-ordered.
    pub services: Vec<ServiceLiveness>,
    /// Version of the testbed description this epoch serves. Carried
    /// stale over refused describe reads under chaos; `None` until the
    /// first successful read.
    pub description_version: Option<u64>,
    /// The OAR property database derived from that description (shared —
    /// recomputed only when the version changes).
    pub properties: Arc<BTreeMap<String, PropertyMap>>,
    /// Per-node power windows over `[window_from, window_to)`, ascending
    /// node id. Nodes with no samples (or whose window read was refused
    /// under chaos) have no row.
    pub windows: Vec<(u32, WindowAgg)>,
    /// Start of the power window (the previous sample instant).
    pub window_from: SimTime,
    /// End of the power window (the publish instant, exclusive).
    pub window_to: SimTime,
}

/// The epoch-tagged snapshot exchange between the write plane and its
/// readers. See the module docs for the locking contract.
#[derive(Debug)]
pub struct SnapshotHub {
    /// Bounded ring of the most recent epochs, newest at the back. It
    /// holds whole `Arc`s, so a writer that panicked mid-publish cannot
    /// leave a half-written entry: every access ignores lock poisoning.
    ring: RwLock<VecDeque<Arc<CampaignSnapshot>>>,
    /// Epoch of the newest published snapshot (0 before the first).
    published: AtomicU64,
    capacity: usize,
}

impl SnapshotHub {
    /// A hub retaining the `capacity` most recent epochs (at least one).
    pub fn new(capacity: usize) -> Self {
        SnapshotHub {
            ring: RwLock::new(VecDeque::with_capacity(capacity.max(1))),
            published: AtomicU64::new(0),
            capacity: capacity.max(1),
        }
    }

    /// Publish the next epoch, evicting the oldest beyond capacity, and
    /// hand the caller its shared handle.
    pub fn publish(&self, snap: CampaignSnapshot) -> Arc<CampaignSnapshot> {
        let epoch = snap.epoch;
        let snap = Arc::new(snap);
        {
            let mut ring = self.ring.write().unwrap_or_else(PoisonError::into_inner);
            ring.push_back(Arc::clone(&snap));
            while ring.len() > self.capacity {
                ring.pop_front();
            }
        }
        self.published.store(epoch, Ordering::Release);
        snap
    }

    /// The newest epoch, if anything has been published.
    pub fn latest(&self) -> Option<Arc<CampaignSnapshot>> {
        self.ring
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .back()
            .cloned()
    }

    /// A specific held epoch (`None` once it aged out of the ring).
    pub fn at_epoch(&self, epoch: u64) -> Option<Arc<CampaignSnapshot>> {
        self.ring
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .find(|s| s.epoch == epoch)
            .cloned()
    }

    /// Epoch number of the newest published snapshot (0 before the
    /// first). Lock-free — a reader polling for a fresh epoch never
    /// touches the ring.
    pub fn published(&self) -> u64 {
        self.published.load(Ordering::Acquire)
    }

    /// Number of epochs currently held.
    pub fn held(&self) -> usize {
        self.ring
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }
}

/// Read-plane traffic counters. All three fields are engine-equivalence
/// observables: engines publishing identical snapshot sequences must
/// issue, execute and fold identically.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryStats {
    /// Total simulated query arrivals (the full daily volume).
    pub issued: u64,
    /// Queries concretely answered inline (bounded per epoch; the rayon
    /// reader bench is where full volumes run).
    pub executed: u64,
    /// Running fold of every executed answer, bit-exact across engines.
    pub answer_fold: u64,
}

/// Upper bound on the queries the campaign answers inline per epoch. The
/// epoch's remaining arrivals are counted in [`QueryStats::issued`] —
/// simulating the *effect* of millions of users needs the volume and a
/// representative answered sample, not millions of inline evaluations.
pub const QUERY_SAMPLE_PER_EPOCH: u64 = 32;

/// The multi-tenant query engine: answers any typed [`Query`] against any
/// held epoch. Stateless — concurrency is the caller sharing snapshots
/// across threads, which is safe because snapshots are immutable.
#[derive(Debug, Clone, Copy, Default)]
pub struct QueryEngine;

impl QueryEngine {
    /// Answer one query against one epoch. Pure: same `(snapshot, query)`
    /// always yields the same answer, bit-for-bit (float paths reuse the
    /// exact accumulators the live views use).
    pub fn answer(snap: &CampaignSnapshot, q: &Query) -> QueryAnswer {
        match q {
            Query::StatusCell { job, target } => {
                let Some(view) = snap.jobs.iter().find(|v| &v.name == job) else {
                    return QueryAnswer::NotFound;
                };
                let (mut total, mut pass) = (0u64, 0u64);
                for b in &view.builds {
                    let Some(result) = b.result else { continue };
                    if ttt_ci::cell_target(b.cell.as_deref()) != *target {
                        continue;
                    }
                    total += 1;
                    if result.is_success() {
                        pass += 1;
                    }
                }
                if total == 0 {
                    QueryAnswer::NotFound
                } else {
                    QueryAnswer::Ratio { pass, total }
                }
            }
            Query::JobTrend { job, period_mins } => {
                let Some(view) = snap.jobs.iter().find(|v| &v.name == job) else {
                    return QueryAnswer::NotFound;
                };
                // Same accumulator as the status page's HistoryReport, so
                // the two planes agree to the last bit.
                let mut series =
                    PeriodSeries::new(SimDuration::from_mins((*period_mins).max(1)));
                for b in &view.builds {
                    if let (Some(result), Some(t)) = (b.result, b.finished_at) {
                        series.push(t, if result.is_success() { 1.0 } else { 0.0 });
                    }
                }
                let means = series.means();
                match (means.first(), means.last()) {
                    (Some((_, first)), Some((_, last))) => QueryAnswer::Trend {
                        first: *first,
                        last: *last,
                    },
                    _ => QueryAnswer::NotFound,
                }
            }
            Query::NodeFilter { key, value } => QueryAnswer::Nodes(
                snap.properties
                    .iter()
                    .filter(|(_, props)| {
                        props.get(key).is_some_and(|v| v.matches_literal(value))
                    })
                    .map(|(name, _)| name.clone())
                    .collect(),
            ),
            Query::MetricsWindow { node } => {
                match snap.windows.binary_search_by_key(node, |(n, _)| *n) {
                    Ok(i) => {
                        let w = snap.windows[i].1;
                        QueryAnswer::Window {
                            count: w.count,
                            min: w.min,
                            mean: w.mean,
                            max: w.max,
                        }
                    }
                    Err(_) => QueryAnswer::NotFound,
                }
            }
            Query::QueueDepth { site } => snap
                .queues
                .iter()
                .find(|qv| &qv.site == site)
                .map(|qv| QueryAnswer::Depth {
                    waiting: qv.waiting,
                    spillovers: qv.spillovers,
                })
                .unwrap_or(QueryAnswer::NotFound),
            Query::ServiceCensus => {
                let up = snap.services.iter().filter(|r| r.up).count() as u64;
                QueryAnswer::Census {
                    up,
                    down: snap.services.len() as u64 - up,
                }
            }
        }
    }
}

/// Draw one query of the mixed read workload against a published epoch.
/// Pure function of the RNG stream and the snapshot content, so engines
/// publishing identical snapshot sequences draw identical mixes.
pub fn random_query<R: Rng>(rng: &mut R, snap: &CampaignSnapshot) -> Query {
    let pick_job = |rng: &mut R| -> String {
        snap.jobs
            .choose(rng)
            .map(|v| v.name.clone())
            .unwrap_or_else(|| "none".to_string())
    };
    let pick_site = |rng: &mut R| -> String {
        snap.queues
            .choose(rng)
            .map(|q| q.site.clone())
            .unwrap_or_else(|| "nowhere".to_string())
    };
    match rng.gen_range(0..6u8) {
        0 => {
            let job = pick_job(rng);
            let target = if rng.gen_bool(0.25) {
                "global".to_string()
            } else {
                pick_site(rng)
            };
            Query::StatusCell { job, target }
        }
        1 => Query::JobTrend {
            job: pick_job(rng),
            period_mins: *[60u64, 360, 1440, 10_080]
                .choose(rng)
                .unwrap_or(&1440),
        },
        2 => {
            let (key, value) = match rng.gen_range(0..5u8) {
                0 => ("gpu", if rng.gen_bool(0.5) { "YES" } else { "NO" }),
                1 => ("ib", if rng.gen_bool(0.5) { "YES" } else { "NO" }),
                2 => ("eth10g", if rng.gen_bool(0.5) { "YES" } else { "NO" }),
                3 => ("disktype", if rng.gen_bool(0.5) { "SSD" } else { "HDD" }),
                _ => {
                    let site = pick_site(rng);
                    return Query::NodeFilter {
                        key: "site".to_string(),
                        value: site,
                    };
                }
            };
            Query::NodeFilter {
                key: key.to_string(),
                value: value.to_string(),
            }
        }
        3 => Query::MetricsWindow {
            node: snap
                .windows
                .choose(rng)
                .map(|(n, _)| *n)
                .unwrap_or(u32::MAX),
        },
        4 => Query::QueueDepth { site: pick_site(rng) },
        _ => Query::ServiceCensus,
    }
}

/// FNV-1a-flavoured 64-bit mixer behind the determinism folds.
fn mix(acc: u64, v: u64) -> u64 {
    (acc ^ v).wrapping_mul(0x0000_0100_0000_01b3).rotate_left(23)
}

fn mix_str(acc: u64, s: &str) -> u64 {
    s.bytes()
        .fold(mix(acc, s.len() as u64), |a, b| mix(a, b as u64))
}

/// Fold one answer into a running digest, bit-exact (floats by their raw
/// bits). The campaign folds every inline answer so engine equivalence
/// covers query *results*, not just query counts.
pub fn fold_answer(acc: u64, a: &QueryAnswer) -> u64 {
    match a {
        QueryAnswer::Ratio { pass, total } => mix(mix(mix(acc, 1), *pass), *total),
        QueryAnswer::Trend { first, last } => {
            mix(mix(mix(acc, 2), first.to_bits()), last.to_bits())
        }
        QueryAnswer::Nodes(names) => names
            .iter()
            .fold(mix(mix(acc, 3), names.len() as u64), |h, n| mix_str(h, n)),
        QueryAnswer::Window {
            count,
            min,
            mean,
            max,
        } => mix(
            mix(
                mix(mix(mix(acc, 4), *count as u64), min.to_bits()),
                mean.to_bits(),
            ),
            max.to_bits(),
        ),
        QueryAnswer::Depth {
            waiting,
            spillovers,
        } => mix(mix(mix(acc, 5), *waiting), *spillovers),
        QueryAnswer::Census { up, down } => mix(mix(mix(acc, 6), *up), *down),
        QueryAnswer::NotFound => mix(acc, 7),
    }
}

/// Fold one published snapshot into a running digest. The fold covers
/// every section structurally (job histories, queues, liveness rows,
/// description version, property count, window stats with float bits), so
/// "both engines publish identical snapshot sequences" is a single
/// u64 comparison per campaign.
pub fn fold_snapshot(acc: u64, s: &CampaignSnapshot) -> u64 {
    let mut h = mix(acc, s.epoch);
    h = mix(h, s.at.as_nanos());
    for view in &s.jobs {
        h = mix_str(h, &view.name);
        h = mix(h, view.builds.len() as u64);
        let (mut finished, mut ok) = (0u64, 0u64);
        for b in &view.builds {
            if let Some(r) = b.result {
                finished += 1;
                if r.is_success() {
                    ok += 1;
                }
            }
        }
        h = mix(mix(h, finished), ok);
    }
    for q in &s.queues {
        h = mix(mix(mix_str(h, &q.site), q.waiting), q.spillovers);
    }
    for r in &s.services {
        h = mix_str(mix_str(h, &r.service), &r.state);
        h = mix(mix(mix(h, r.crashes), r.restarts), r.dropped_calls);
    }
    h = mix(h, s.description_version.unwrap_or(0));
    h = mix(h, s.properties.len() as u64);
    for (node, w) in &s.windows {
        h = mix(mix(h, *node as u64), w.count as u64);
        h = mix(mix(mix(h, w.min.to_bits()), w.mean.to_bits()), w.max.to_bits());
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use ttt_ci::{BuildResult, BuildView, Cause};

    fn snap(epoch: u64) -> CampaignSnapshot {
        let build = |cell: Option<&str>, result, day| BuildView {
            number: 1,
            cell: cell.map(String::from),
            cause: Cause::Cron,
            result: Some(result),
            queued_at: SimTime::from_days(day),
            finished_at: Some(SimTime::from_days(day)),
            log: vec![],
        };
        CampaignSnapshot {
            epoch,
            at: SimTime::from_days(epoch),
            jobs: vec![JobView {
                name: "disk".into(),
                builds: vec![
                    build(Some("cluster=east"), BuildResult::Failure, 1),
                    build(Some("cluster=east"), BuildResult::Success, 9),
                    build(Some("site=west"), BuildResult::Success, 9),
                ],
            }],
            queues: vec![SiteQueueView {
                site: "east".into(),
                waiting: 4,
                spillovers: 1,
            }],
            services: vec![
                ServiceLiveness {
                    service: "oar-server".into(),
                    site: "east".into(),
                    host: Some(0),
                    state: "up".into(),
                    up: true,
                    crashes: 0,
                    restarts: 0,
                    dropped_calls: 0,
                },
                ServiceLiveness {
                    service: "kwapi-server".into(),
                    site: "east".into(),
                    host: Some(1),
                    state: "CRASHED".into(),
                    up: false,
                    crashes: 1,
                    restarts: 0,
                    dropped_calls: 2,
                },
            ],
            description_version: Some(1),
            properties: Arc::new(BTreeMap::new()),
            windows: vec![(
                3,
                WindowAgg {
                    count: 5,
                    min: 80.0,
                    mean: 90.0,
                    max: 101.0,
                },
            )],
            window_from: SimTime::ZERO,
            window_to: SimTime::from_days(epoch),
        }
    }

    #[test]
    fn hub_publishes_evicts_and_serves_epochs() {
        let hub = SnapshotHub::new(2);
        assert_eq!(hub.published(), 0);
        assert!(hub.latest().is_none());
        for e in 1..=3 {
            hub.publish(snap(e));
        }
        assert_eq!(hub.published(), 3);
        assert_eq!(hub.held(), 2);
        assert_eq!(hub.latest().map(|s| s.epoch), Some(3));
        // Epoch 1 aged out; a reader that still holds its Arc keeps it.
        assert!(hub.at_epoch(1).is_none());
        assert_eq!(hub.at_epoch(2).map(|s| s.epoch), Some(2));
    }

    #[test]
    fn readers_on_other_threads_share_the_hub() {
        let hub = Arc::new(SnapshotHub::new(4));
        hub.publish(snap(1));
        let held = hub.latest().expect("published");
        let h2 = Arc::clone(&hub);
        let answered = std::thread::spawn(move || {
            let s = h2.latest().expect("published");
            QueryEngine::answer(&s, &Query::ServiceCensus)
        })
        .join()
        .expect("reader thread");
        assert_eq!(answered, QueryAnswer::Census { up: 1, down: 1 });
        // The writer moved on; the old reader's epoch is still intact.
        hub.publish(snap(2));
        assert_eq!(held.epoch, 1);
    }

    #[test]
    fn hub_survives_a_writer_that_panicked_holding_the_ring() {
        let hub = Arc::new(SnapshotHub::new(2));
        hub.publish(snap(1));
        let h2 = Arc::clone(&hub);
        let crashed = std::thread::spawn(move || {
            let _guard = h2.ring.write();
            panic!("writer died holding the ring");
        })
        .join();
        assert!(crashed.is_err());
        assert!(hub.ring.is_poisoned());
        // The ring holds whole `Arc`s, so the poisoned ring is still a
        // valid one: publishing and reading carry on.
        hub.publish(snap(2));
        assert_eq!(hub.latest().map(|s| s.epoch), Some(2));
        assert_eq!(hub.at_epoch(1).map(|s| s.epoch), Some(1));
        assert_eq!(hub.held(), 2);
    }

    #[test]
    fn status_cell_counts_like_the_grid() {
        let s = snap(1);
        let a = QueryEngine::answer(
            &s,
            &Query::StatusCell {
                job: "disk".into(),
                target: "east".into(),
            },
        );
        assert_eq!(a, QueryAnswer::Ratio { pass: 1, total: 2 });
        let miss = QueryEngine::answer(
            &s,
            &Query::StatusCell {
                job: "disk".into(),
                target: "nowhere".into(),
            },
        );
        assert_eq!(miss, QueryAnswer::NotFound);
    }

    #[test]
    fn trend_window_depth_and_census_answer() {
        let s = snap(1);
        match QueryEngine::answer(
            &s,
            &Query::JobTrend {
                job: "disk".into(),
                period_mins: 7 * 24 * 60,
            },
        ) {
            QueryAnswer::Trend { first, last } => {
                assert_eq!(first, 0.0);
                assert_eq!(last, 1.0);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(
            QueryEngine::answer(&s, &Query::MetricsWindow { node: 3 }),
            QueryAnswer::Window {
                count: 5,
                min: 80.0,
                mean: 90.0,
                max: 101.0
            }
        );
        assert_eq!(
            QueryEngine::answer(&s, &Query::MetricsWindow { node: 9 }),
            QueryAnswer::NotFound
        );
        assert_eq!(
            QueryEngine::answer(&s, &Query::QueueDepth { site: "east".into() }),
            QueryAnswer::Depth {
                waiting: 4,
                spillovers: 1
            }
        );
        assert_eq!(
            QueryEngine::answer(&s, &Query::ServiceCensus),
            QueryAnswer::Census { up: 1, down: 1 }
        );
    }

    #[test]
    fn folds_are_deterministic_and_content_sensitive() {
        let s = snap(1);
        assert_eq!(fold_snapshot(0, &s), fold_snapshot(0, &s));
        assert_ne!(fold_snapshot(0, &s), fold_snapshot(0, &snap(2)));
        let a = QueryEngine::answer(&s, &Query::ServiceCensus);
        assert_eq!(fold_answer(1, &a), fold_answer(1, &a));
        assert_ne!(fold_answer(1, &a), fold_answer(1, &QueryAnswer::NotFound));
    }

    #[test]
    fn random_query_is_a_pure_function_of_stream_and_snapshot() {
        let s = snap(1);
        let draw = || {
            let mut rng = ttt_sim::rng::stream_rng(11, "queries");
            (0..64).map(|_| random_query(&mut rng, &s)).collect::<Vec<_>>()
        };
        let qs = draw();
        assert_eq!(qs, draw());
        // The mix actually covers every query kind at this stream.
        for probe in [
            |q: &Query| matches!(q, Query::StatusCell { .. }),
            |q: &Query| matches!(q, Query::JobTrend { .. }),
            |q: &Query| matches!(q, Query::NodeFilter { .. }),
            |q: &Query| matches!(q, Query::MetricsWindow { .. }),
            |q: &Query| matches!(q, Query::QueueDepth { .. }),
            |q: &Query| matches!(q, Query::ServiceCensus),
        ] {
            assert!(qs.iter().any(probe), "kind missing from 64 draws");
        }
    }
}
