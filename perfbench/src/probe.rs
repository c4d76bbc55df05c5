//! Measurement and output checks shared by the workloads: timed reads of
//! snapshot epochs, the final status snapshot of a finished campaign, the
//! sliced (traced) campaign run with its layer probes, and the counts read
//! back from the layers' accessors.

use crate::stats::{median, quantile, ratio};
use crate::trace::Tracer;
use crate::Metrics;
use rand::rngs::SmallRng;
use rand::Rng;
use std::hint::black_box;
use std::time::Instant;
use ttt_core::snapshot::{
    fold_answer, random_query, CampaignSnapshot, Query, QueryEngine, ServiceLiveness, SiteQueueView,
};
use ttt_core::Campaign;
use ttt_sim::rng::stream_rng;
use ttt_sim::{SimDuration, SimTime};

/// Span names of one answer, per query kind, in [`query_kind`] order.
const ANSWER_SPANS: [&str; 6] = [
    "snapshot.answer.status_cell",
    "snapshot.answer.job_trend",
    "snapshot.answer.node_filter",
    "snapshot.answer.metrics_window",
    "snapshot.answer.queue_depth",
    "snapshot.answer.service_census",
];

/// One answer in this many (drawn from a seeded stream) is recomputed.
const RECHECK_ONE_IN: u32 = 8;

/// Index of `q`'s kind in [`ANSWER_SPANS`].
pub fn query_kind(q: &Query) -> usize {
    match q {
        Query::StatusCell { .. } => 0,
        Query::JobTrend { .. } => 1,
        Query::NodeFilter { .. } => 2,
        Query::MetricsWindow { .. } => 3,
        Query::QueueDepth { .. } => 4,
        Query::ServiceCensus => 5,
    }
}

/// 64-bit mixer for the benchmark's own output folds.
pub fn mix(acc: u64, v: u64) -> u64 {
    (acc ^ v)
        .wrapping_mul(0x0000_0100_0000_01b3)
        .rotate_left(29)
}

/// Everything measured about one set of reads.
#[derive(Debug, Default)]
pub struct Reads {
    /// Per answer, µs from the moment its epoch was first seen.
    pub latency_us: Vec<f64>,
    /// Per kind, µs spent in `QueryEngine::answer` alone.
    pub answer_us: [Vec<f64>; 6],
    /// µs spent obtaining an epoch from the hub (`at_epoch`, lock wait
    /// included).
    pub wait_us: Vec<f64>,
    /// Seconds the reader spent answering batches.
    pub busy_s: f64,
    /// Queries drawn.
    pub attempted: u64,
    /// Queries answered.
    pub answered: u64,
    /// Queries lost: epoch aged out, or a recomputed answer differed.
    pub failed: u64,
    /// Epochs that aged out of the hub before they were read.
    pub aged_out: u64,
    /// Fold of every `(epoch, index, answer)` in reading order.
    pub fold: u64,
    /// `[qps, p50 µs]` of every merged unit of reads (one repetition),
    /// in reference-host time.
    pub units: Vec<[f64; 2]>,
}

impl Reads {
    /// Append `other`'s samples and counts as one unit of the end-to-end
    /// read metrics, its timings scaled by `scale` (see [`crate::calib`]).
    pub fn merge_unit(&mut self, other: Reads, scale: f64) {
        if other.attempted > 0 {
            self.units.push([
                ratio(other.answered as f64, other.busy_s) / scale,
                quantile(&other.latency_us, 0.50) * scale,
            ]);
        }
        self.latency_us.extend(other.latency_us);
        for (a, b) in self.answer_us.iter_mut().zip(other.answer_us) {
            a.extend(b);
        }
        self.wait_us.extend(other.wait_us);
        self.busy_s += other.busy_s;
        self.attempted += other.attempted;
        self.answered += other.answered;
        self.failed += other.failed;
        self.aged_out += other.aged_out;
        self.fold = mix(self.fold, other.fold);
    }

    /// A whole batch lost because its epoch aged out.
    pub fn lose_batch(&mut self, n: usize) {
        self.attempted += n as u64;
        self.failed += n as u64;
        self.aged_out += 1;
    }

    /// Answer `n` queries drawn for `(seed, epoch)` against `snap`, timing
    /// each from `seen`. A seeded sample is recomputed through `recheck`
    /// (`None` when the epoch is gone); a differing or missing recomputed
    /// answer fails the query.
    #[allow(clippy::too_many_arguments)]
    pub fn answer_batch(
        &mut self,
        snap: &CampaignSnapshot,
        seed: u64,
        epoch: u64,
        n: usize,
        seen: Instant,
        tracer: &mut Tracer,
        recheck: &mut dyn FnMut(&Query) -> Option<u64>,
    ) {
        let batch = tracer.enter("reader.batch");
        let key = seed ^ epoch.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let mut rng: SmallRng = stream_rng(key, "perfbench-reader");
        let mut sample: SmallRng = stream_rng(key, "perfbench-recheck");
        for i in 0..n {
            self.attempted += 1;
            let q = random_query(&mut rng, snap);
            let kind = query_kind(&q);
            let span = tracer.enter(ANSWER_SPANS[kind]);
            let a = QueryEngine::answer(snap, &q);
            let answer_s = tracer.exit(span);
            let latency_s = seen.elapsed().as_secs_f64();
            let folded = fold_answer(0, &a);
            black_box(&a);
            self.latency_us.push(latency_s * 1e6);
            self.answer_us[kind].push(answer_s * 1e6);
            self.fold = mix(mix(mix(self.fold, epoch), i as u64), folded);
            if sample.gen_range(0..RECHECK_ONE_IN) == 0 && recheck(&q) != Some(folded) {
                self.failed += 1;
            } else {
                self.answered += 1;
            }
        }
        self.busy_s += tracer.exit(batch);
    }

    /// The end-to-end read metrics: the median over units of each unit's
    /// throughput and latency percentiles, so one disturbed repetition
    /// cannot move them.
    pub fn emit_end_to_end(&self, m: &mut Metrics) {
        let col = |i: usize| median(&self.units.iter().map(|u| u[i]).collect::<Vec<_>>());
        m.insert("read_qps", col(0));
        m.insert("read_p50_us", col(1));
    }

    /// The snapshot layer's per-kind answer times and hub wait.
    pub fn emit_layer(&self, m: &mut Metrics) {
        const P50: [&str; 6] = [
            "snapshot.answer_us.status_cell.p50",
            "snapshot.answer_us.job_trend.p50",
            "snapshot.answer_us.node_filter.p50",
            "snapshot.answer_us.metrics_window.p50",
            "snapshot.answer_us.queue_depth.p50",
            "snapshot.answer_us.service_census.p50",
        ];
        const P99: [&str; 6] = [
            "snapshot.answer_us.status_cell.p99",
            "snapshot.answer_us.job_trend.p99",
            "snapshot.answer_us.node_filter.p99",
            "snapshot.answer_us.metrics_window.p99",
            "snapshot.answer_us.queue_depth.p99",
            "snapshot.answer_us.service_census.p99",
        ];
        for k in 0..ANSWER_SPANS.len() {
            m.insert(P50[k], quantile(&self.answer_us[k], 0.50));
            m.insert(P99[k], quantile(&self.answer_us[k], 0.99));
        }
        m.insert("snapshot.read_p99_us", quantile(&self.latency_us, 0.99));
        m.insert("snapshot.latest_wait_us.p99", quantile(&self.wait_us, 0.99));
        m.insert("snapshot.aged_out", self.aged_out as f64);
    }
}

/// The status a user reads once `c` has finished: the same sections a
/// published epoch carries, built from the campaign's public accessors,
/// with power windows over the last simulated day.
pub fn final_snapshot(c: &Campaign, epoch: u64) -> CampaignSnapshot {
    let to = c.now();
    let from = SimTime::from_nanos(
        to.as_nanos()
            .saturating_sub(SimDuration::from_days(1).as_nanos()),
    );
    let tb = c.testbed();
    let windows = tb
        .nodes()
        .iter()
        .filter_map(|n| {
            let series = c.power_store().power(n.id);
            (series.raw_len() > 0)
                .then(|| series.window(from, to).map(|w| (n.id.0, w)))
                .flatten()
        })
        .collect();
    let fed = c.federation();
    let depths = fed.queue_depths();
    let spill = fed.spillovers_by_domain();
    let queues = fed
        .domains()
        .iter()
        .enumerate()
        .map(|(i, d)| SiteQueueView {
            site: d.name.clone(),
            waiting: depths.get(i).copied().unwrap_or(0) as u64,
            spillovers: spill.get(i).copied().unwrap_or(0),
        })
        .collect();
    let latest = c.refapi().latest();
    CampaignSnapshot {
        epoch,
        at: to,
        jobs: c.ci_views(),
        queues,
        services: ServiceLiveness::rows_from_testbed(tb),
        description_version: latest.map(|d| d.version),
        properties: std::sync::Arc::new(latest.map(ttt_refapi::all_properties).unwrap_or_default()),
        windows,
        window_from: from,
        window_to: to,
    }
}

/// Read pages `pages` of `batch` queries each against `snap` into
/// `reads`, one page after the other, each answer timed from the start of
/// its page.
pub fn read_pages(
    reads: &mut Reads,
    snap: &CampaignSnapshot,
    seed: u64,
    pages: std::ops::Range<u64>,
    batch: usize,
    tracer: &mut Tracer,
) {
    for page in pages {
        reads.answer_batch(snap, seed, page, batch, Instant::now(), tracer, &mut |q| {
            Some(fold_answer(0, &QueryEngine::answer(snap, q)))
        });
    }
}

/// Host-time probes of the layers reached through `&self` accessors,
/// taken at every slice boundary of a traced run.
#[derive(Debug, Default)]
pub struct LayerProbes {
    /// Host seconds per simulated day, in day order.
    pub day_s: Vec<f64>,
    /// `Campaign::ci_views()`, ms.
    pub ci_views_ms: Vec<f64>,
    /// `Federation::utilization()`, µs.
    pub utilization_us: Vec<f64>,
    /// `Federation::next_event_time()`, µs.
    pub next_event_us: Vec<f64>,
    /// Power windows of every node over the slice, ms.
    pub window_ms: Vec<f64>,
}

impl LayerProbes {
    /// Run `c` to `days` in one-day `run_until` slices (grid-aligned: every
    /// tick divides a day), probing the layers after each slice, then
    /// finish it with `run()`. Returns the host seconds spent advancing
    /// the campaign, probes excluded.
    pub fn sliced_run(&mut self, c: &mut Campaign, days: u64, tracer: &mut Tracer) -> f64 {
        let mut advancing = 0.0;
        for day in 0..days {
            let from = SimTime::from_days(day);
            let to = SimTime::from_days(day + 1);
            let (_, s) = tracer.time("core.run_until", || c.run_until(to));
            advancing += s;
            self.day_s.push(s);
            let (_, s) = tracer.time("ci.views", || black_box(c.ci_views().len()));
            self.ci_views_ms.push(s * 1e3);
            let fed = c.federation();
            let (_, s) = tracer.time("oar.utilization", || black_box(fed.utilization()));
            self.utilization_us.push(s * 1e6);
            let (_, s) = tracer.time("oar.next_event", || black_box(fed.next_event_time()));
            self.next_event_us.push(s * 1e6);
            let store = c.power_store();
            let nodes = c.testbed().nodes();
            let (_, s) = tracer.time("kwapi.window", || {
                nodes
                    .iter()
                    .filter_map(|n| store.power(n.id).window(from, to))
                    .count()
            });
            self.window_ms.push(s * 1e3);
        }
        let (_, s) = tracer.time("core.finalize", || c.run());
        advancing + s
    }

    /// Per-layer metrics of the probes, plus the host-seconds-per-day
    /// profile by tenth of the horizon.
    pub fn emit(&self, m: &mut Metrics) {
        let deciles = self.deciles();
        let first = deciles.first().copied().unwrap_or(0.0);
        let last = deciles.last().copied().unwrap_or(0.0);
        m.insert("core.sim_day_s.first", first);
        m.insert("core.sim_day_s.last", last);
        m.insert("core.sim_day_growth", ratio(last, first));
        m.insert("ci.views_ms", median(&self.ci_views_ms));
        m.insert("oar.utilization_us", median(&self.utilization_us));
        m.insert("oar.next_event_us", median(&self.next_event_us));
        m.insert("kwapi.window_ms", median(&self.window_ms));
    }

    /// Mean host seconds per simulated day over each tenth of the horizon
    /// (fewer parts when the horizon is shorter than ten days).
    pub fn deciles(&self) -> Vec<f64> {
        let n = self.day_s.len();
        let parts = n.min(10);
        (0..parts)
            .map(|p| {
                let lo = p * n / parts;
                let hi = (p + 1) * n / parts;
                crate::stats::mean(&self.day_s[lo..hi])
            })
            .collect()
    }
}

/// Counts read from the layers' accessors after a run.
#[derive(Debug, Default, Clone)]
pub struct Counts {
    pub tests_run: u64,
    pub tests_failed: u64,
    pub triggered: u64,
    pub deferred: u64,
    pub cancelled: u64,
    pub builds: u64,
    pub unstable: u64,
    pub oar_jobs: u64,
    pub spillovers: u64,
    pub co_allocations: u64,
    pub filed: u64,
    pub fixed: u64,
    pub active_faults: u64,
    pub epochs: u64,
    pub inline_answers: u64,
    /// `(reason, wakes)` for every wake reason, summed.
    pub wakes: Vec<(&'static str, u64)>,
}

impl Counts {
    /// Read every count from a finished campaign.
    pub fn capture(c: &Campaign) -> Self {
        let stats = &c.scheduler().stats;
        let m = c.metrics();
        Counts {
            tests_run: m.tests_run,
            tests_failed: m.tests_failed,
            triggered: stats.triggered,
            deferred: stats.deferred_peak + stats.deferred_site + stats.deferred_resources,
            cancelled: stats.cancelled_not_immediate,
            builds: c.ci().all_history().values().map(|b| b.len() as u64).sum(),
            unstable: m.unstable_builds,
            oar_jobs: c.federation().all_jobs().count() as u64,
            spillovers: c.federation().spillovers(),
            co_allocations: c.federation().co_allocations(),
            filed: c.tracker().filed() as u64,
            fixed: c.tracker().fixed() as u64,
            active_faults: c.testbed().active_faults().len() as u64,
            epochs: c.snapshot_hub().map_or(0, |h| h.published()),
            inline_answers: c.query_stats().executed,
            wakes: c.wake_reasons(),
        }
    }

    /// Add `other` into `self` (swarm totals).
    pub fn add(&mut self, other: &Counts) {
        self.tests_run += other.tests_run;
        self.tests_failed += other.tests_failed;
        self.triggered += other.triggered;
        self.deferred += other.deferred;
        self.cancelled += other.cancelled;
        self.builds += other.builds;
        self.unstable += other.unstable;
        self.oar_jobs += other.oar_jobs;
        self.spillovers += other.spillovers;
        self.co_allocations += other.co_allocations;
        self.filed += other.filed;
        self.fixed += other.fixed;
        self.active_faults += other.active_faults;
        self.epochs += other.epochs;
        self.inline_answers += other.inline_answers;
        for &(reason, n) in &other.wakes {
            match self.wakes.iter_mut().find(|(r, _)| *r == reason) {
                Some(slot) => slot.1 += n,
                None => self.wakes.push((reason, n)),
            }
        }
    }

    /// Wakes won by `reason`.
    pub fn wakes_of(&self, reason: &str) -> u64 {
        self.wakes
            .iter()
            .find(|(r, _)| *r == reason)
            .map_or(0, |&(_, n)| n)
    }

    /// The count metrics, plus the per-test and per-wake costs of
    /// `run_s` host seconds.
    pub fn emit(&self, run_s: f64, m: &mut Metrics) {
        let wakes: u64 = self.wakes.iter().map(|&(_, n)| n).sum();
        m.insert(
            "core.us_per_test",
            ratio(run_s * 1e6, self.tests_run as f64),
        );
        m.insert("core.wakes", wakes as f64);
        m.insert(
            "core.wakes.test-completion",
            self.wakes_of("test-completion") as f64,
        );
        m.insert(
            "core.wakes.scheduler-due",
            self.wakes_of("scheduler-due") as f64,
        );
        m.insert(
            "core.wakes.user-arrival",
            self.wakes_of("user-arrival") as f64,
        );
        m.insert("core.wakes.oar-event", self.wakes_of("oar-event") as f64);
        m.insert("core.us_per_wake", ratio(run_s * 1e6, wakes as f64));
        m.insert("suite.tests_run", self.tests_run as f64);
        m.insert("suite.tests_failed", self.tests_failed as f64);
        m.insert("jobsched.triggered", self.triggered as f64);
        m.insert("jobsched.deferred", self.deferred as f64);
        m.insert("jobsched.cancelled_not_immediate", self.cancelled as f64);
        m.insert(
            "jobsched.useful_ratio",
            ratio(
                self.triggered as f64 - self.cancelled as f64,
                (self.triggered + self.deferred) as f64,
            ),
        );
        m.insert("ci.builds", self.builds as f64);
        m.insert("ci.unstable_builds", self.unstable as f64);
        m.insert("oar.jobs", self.oar_jobs as f64);
        m.insert("oar.spillovers", self.spillovers as f64);
        m.insert("oar.co_allocations", self.co_allocations as f64);
        m.insert("bugs.filed", self.filed as f64);
        m.insert("bugs.fixed", self.fixed as f64);
        m.insert("testbed.active_faults", self.active_faults as f64);
        m.insert("snapshot.epochs", self.epochs as f64);
        m.insert("snapshot.inline_answers", self.inline_answers as f64);
    }
}
