//! The repository's benchmark: three workloads that each drive the
//! library's public API from outside, check the outputs, and report
//! end-to-end metrics (untraced runs) or per-layer metrics (traced runs).
//!
//! * `paper_campaign` — the paper's 180-day paper-scale campaign;
//! * `grid_readers` — the 64-site grid with the query plane armed, one
//!   writer running the campaign beside one reader answering queries
//!   against the epochs it publishes;
//! * `swarm_oracles` — a seed block through every swarm oracle.
//!
//! README.md explains why each exists and which layer moves which metric.

#![forbid(unsafe_code)]

pub mod calib;
pub mod env;
pub mod grid;
pub mod paper;
pub mod probe;
pub mod stats;
pub mod swarm;
pub mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;
use ttt_core::CampaignConfig;

/// Metric values by name.
pub type Metrics = BTreeMap<&'static str, f64>;

/// End-to-end metrics `(name, unit)`, printed by every untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("run_s", "s"),
    ("scenarios_per_s", "1/s"),
    ("read_qps", "1/s"),
    ("read_p50_us", "us"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics `(name, unit)`, printed by every traced run. A layer
/// a workload does not reach reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("core.new_s", "s"),
    ("core.new.calls", "count"),
    ("core.sim_day_s.first", "s"),
    ("core.sim_day_s.last", "s"),
    ("core.sim_day_growth", "ratio"),
    ("core.us_per_test", "us"),
    ("core.wakes", "count"),
    ("core.wakes.test-completion", "count"),
    ("core.wakes.scheduler-due", "count"),
    ("core.wakes.user-arrival", "count"),
    ("core.wakes.oar-event", "count"),
    ("core.us_per_wake", "us"),
    ("suite.tests_run", "count"),
    ("suite.tests_failed", "count"),
    ("jobsched.triggered", "count"),
    ("jobsched.deferred", "count"),
    ("jobsched.cancelled_not_immediate", "count"),
    ("jobsched.useful_ratio", "ratio"),
    ("ci.builds", "count"),
    ("ci.unstable_builds", "count"),
    ("ci.views_ms", "ms"),
    ("oar.jobs", "count"),
    ("oar.spillovers", "count"),
    ("oar.co_allocations", "count"),
    ("oar.utilization_us", "us"),
    ("oar.next_event_us", "us"),
    ("kwapi.window_ms", "ms"),
    ("snapshot.epochs", "count"),
    ("snapshot.inline_answers", "count"),
    ("snapshot.aged_out", "count"),
    ("snapshot.read_p99_us", "us"),
    ("snapshot.latest_wait_us.p99", "us"),
    ("snapshot.answer_us.status_cell.p50", "us"),
    ("snapshot.answer_us.status_cell.p99", "us"),
    ("snapshot.answer_us.job_trend.p50", "us"),
    ("snapshot.answer_us.job_trend.p99", "us"),
    ("snapshot.answer_us.node_filter.p50", "us"),
    ("snapshot.answer_us.node_filter.p99", "us"),
    ("snapshot.answer_us.metrics_window.p50", "us"),
    ("snapshot.answer_us.metrics_window.p99", "us"),
    ("snapshot.answer_us.queue_depth.p50", "us"),
    ("snapshot.answer_us.queue_depth.p99", "us"),
    ("snapshot.answer_us.service_census.p50", "us"),
    ("snapshot.answer_us.service_census.p99", "us"),
    ("bugs.filed", "count"),
    ("bugs.fixed", "count"),
    ("testbed.active_faults", "count"),
    ("scengen.generate_us", "us"),
    ("scengen.next_event_s", "s"),
    ("scengen.lockstep_s", "s"),
    ("scengen.parallel_site_s", "s"),
    ("scengen.detection_s", "s"),
    ("scengen.conservation_s", "s"),
    ("scengen.seed_s.p50", "s"),
    ("scengen.seed_s.max", "s"),
    ("scengen.pool_busy_ratio", "ratio"),
    ("trace.overhead_ratio", "ratio"),
];

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's 180-day campaign.
    PaperCampaign,
    /// The armed 64-site grid with a live reader.
    GridReaders,
    /// A seed block through every swarm oracle.
    SwarmOracles,
}

impl Workload {
    /// Every workload, in the order BENCHMARK.json lists them.
    pub const ALL: [Workload; 3] = [
        Workload::PaperCampaign,
        Workload::GridReaders,
        Workload::SwarmOracles,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperCampaign => "paper_campaign",
            Workload::GridReaders => "grid_readers",
            Workload::SwarmOracles => "swarm_oracles",
        }
    }

    /// Parse a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// How much work one run does. [`Sizes::default`] is the benchmark;
/// tests shrink it.
#[derive(Debug, Clone)]
pub struct Sizes {
    /// Simulated days of the paper campaign.
    pub paper_days: u64,
    /// Simulated days of the grid campaign.
    pub grid_days: u64,
    /// Sites of the grid (two eight-node clusters each).
    pub grid_sites: u32,
    /// Seeds in the swarm's block.
    pub swarm_seeds: usize,
    /// Queries per page: the grid reader answers one page per published
    /// epoch; final-status reads come in pages of the same size.
    pub epoch_batch: usize,
    /// Pages read from the final status of each finished paper or grid
    /// campaign.
    pub final_pages: usize,
    /// Pages read from the final status of each reference swarm seed,
    /// per block.
    pub seed_pages: usize,
}

impl Default for Sizes {
    fn default() -> Self {
        Sizes {
            paper_days: 180,
            grid_days: 10,
            grid_sites: 64,
            swarm_seeds: 128,
            epoch_batch: 48,
            final_pages: 40,
            seed_pages: 4,
        }
    }
}

/// Set-ups timed for `setup_s` before each repetition (constructions of
/// its campaign; for the swarm, set-ups of its block), so the samples
/// spread over the whole run.
pub const SETUP_REPS: usize = 3;

/// Repetitions every run makes, whatever `--seconds` says: the second
/// checks the first.
pub const MIN_REPS: usize = 2;

/// Deliberate faults, for the benchmark's own tests: each must show up as
/// failed work.
#[derive(Debug, Clone, Copy, Default)]
pub struct Faults {
    /// Perturb the reference digest (or swarm outcome) after capturing it.
    pub digest_mismatch: bool,
    /// Hold the grid reader back until the writer has finished, so every
    /// epoch but the newest 16 ages out before it is read.
    pub age_out: bool,
}

/// One benchmark run.
#[derive(Debug, Clone)]
pub struct Config {
    pub workload: Workload,
    pub seed: u64,
    /// Measurement budget, seconds.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    pub sizes: Sizes,
    pub faults: Faults,
}

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Units of work attempted: campaign runs, swarm seeds, reader queries.
    pub attempted: u64,
    /// Units that failed: a panic, a digest or outcome that differs from
    /// the reference, an oracle violation, a wrong or aged-out answer.
    pub failed: u64,
    /// One line per failure cause.
    pub problems: Vec<String>,
    /// The metrics of this run's kind (end-to-end or per-layer).
    pub metrics: Metrics,
    /// Human-readable report lines (share table, decile profile).
    pub report: Vec<String>,
    /// Spans of a traced run.
    pub spans: Option<trace::Tracer>,
    /// Every calibration sample taken, seconds per unit.
    pub calibration: Vec<f64>,
}

impl Outcome {
    /// Record `n` failed units with their cause.
    pub fn fail(&mut self, n: u64, problem: String) {
        self.failed += n;
        self.problems.push(problem);
    }

    /// The failed share of attempted work.
    pub fn error_rate(&self) -> f64 {
        stats::ratio(self.failed as f64, self.attempted as f64)
    }

    /// The result line: one JSON object with every metric of the run's
    /// kind, by name, with its unit.
    pub fn result_line(&self, trace: bool) -> String {
        let catalogue = if trace { PER_LAYER } else { END_TO_END };
        let mut metrics = String::new();
        for (i, (name, unit)) in catalogue.iter().enumerate() {
            let v = self.metrics.get(name).copied().unwrap_or(0.0);
            let v = if v.is_finite() { v } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                metrics,
                "{sep}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted.max(1),
            self.failed,
        )
    }

    /// Append the outside-in phase profile of a traced run: self time per
    /// span name, largest first, as a share of all traced time.
    pub fn push_share_table(&mut self, workload: Workload, tracer: &trace::Tracer) {
        let selfs = tracer.self_times();
        let total: f64 = selfs.values().sum();
        let mut rows: Vec<(&str, f64)> = selfs.into_iter().collect();
        rows.sort_by(|a, b| b.1.total_cmp(&a.1));
        self.report.push(format!(
            "share table ({}, self time of every span):",
            workload.name()
        ));
        for (name, s) in rows {
            self.report.push(format!(
                "  {name:<36} {s:>10.4} s {:>6.2} %",
                100.0 * stats::ratio(s, total)
            ));
        }
    }

    /// Append the host-seconds-per-simulated-day profile by tenth of the
    /// horizon.
    pub fn push_deciles(&mut self, deciles: &[f64]) {
        let cells: Vec<String> = deciles.iter().map(|d| format!("{d:.4}")).collect();
        self.report.push(format!(
            "host s per simulated day, by tenth of the horizon: {}",
            cells.join(" ")
        ));
    }
}

/// The timings of a run's repetitions, kept raw until the calibration
/// sample after the last one is taken: repetition `k` is scaled by the mean
/// of the samples taken just before and just after it (see [`calib`]).
/// Each repetition's peak RSS is measured on its own, because a process's
/// lifetime peak depends on how many repetitions the budget allowed.
#[derive(Debug, Default)]
pub struct Reps {
    calibration: Vec<f64>,
    peak_rss_mb: Vec<f64>,
    setup: Vec<Vec<f64>>,
    run: Vec<Option<f64>>,
    total: Vec<Option<f64>>,
    reads: Vec<probe::Reads>,
}

/// A run's repetitions in reference-host seconds.
#[derive(Debug, Default)]
pub struct Scaled {
    /// Every set-up sample.
    pub setup: Vec<f64>,
    /// Each completed repetition's run time.
    pub run: Vec<f64>,
    /// Each completed repetition's whole time.
    pub total: Vec<f64>,
    /// Every repetition's reads, one unit each.
    pub reads: probe::Reads,
    /// Each repetition's peak RSS, MB.
    pub peak_rss_mb: Vec<f64>,
}

impl Reps {
    /// Close the previous repetition's peak RSS window, if one is open.
    fn close_rss(&mut self) {
        if self.peak_rss_mb.len() < self.run.len() {
            self.peak_rss_mb.push(env::peak_rss_mb());
        }
    }

    /// Start the next repetition with a calibration sample.
    pub fn begin(&mut self) {
        self.close_rss();
        self.calibration.push(calib::sample());
        env::reset_peak_rss();
        self.setup.push(Vec::new());
        self.run.push(None);
        self.total.push(None);
        self.reads.push(probe::Reads::default());
    }

    fn last<T>(v: &mut [T]) -> &mut T {
        v.last_mut().expect("begin() starts every repetition")
    }

    /// Record set-up samples of the current repetition.
    pub fn setup(&mut self, samples: Vec<f64>) {
        Self::last(&mut self.setup).extend(samples);
    }

    /// Record the current repetition's run time.
    pub fn run(&mut self, s: f64) {
        *Self::last(&mut self.run) = Some(s);
    }

    /// Record the current repetition's whole time.
    pub fn total(&mut self, s: f64) {
        *Self::last(&mut self.total) = Some(s);
    }

    /// Record the current repetition's reads.
    pub fn reads(&mut self, reads: probe::Reads) {
        *Self::last(&mut self.reads) = reads;
    }

    /// Take the closing calibration sample and scale every timing; the
    /// samples are kept in `out` for the report.
    pub fn finish(mut self, out: &mut Outcome) -> Scaled {
        self.close_rss();
        self.calibration.push(calib::sample());
        let mut scaled = Scaled {
            peak_rss_mb: std::mem::take(&mut self.peak_rss_mb),
            ..Scaled::default()
        };
        for (k, reads) in self.reads.into_iter().enumerate() {
            let f = calib::factor((self.calibration[k] + self.calibration[k + 1]) / 2.0);
            scaled.setup.extend(self.setup[k].iter().map(|s| s * f));
            scaled.run.extend(self.run[k].map(|s| s * f));
            scaled.total.extend(self.total[k].map(|s| s * f));
            scaled.reads.merge_unit(reads, f);
        }
        out.calibration = self.calibration;
        scaled
    }
}

/// Time `reps` constructions of `cfg` (`Campaign::new`, arming
/// included); returns every duration in seconds.
pub fn time_setup(cfg: &CampaignConfig, reps: usize, tracer: &mut trace::Tracer) -> Vec<f64> {
    (0..reps)
        .map(|_| {
            let cfg = cfg.clone();
            let (c, s) = tracer.time("core.new", || ttt_core::Campaign::new(cfg));
            drop(c);
            s
        })
        .collect()
}

/// Campaign seed of repetition `rep` of a run with workload seed `seed`.
/// The second repetition re-runs the first, which is its reference; the
/// others use seeds derived from the workload seed, so a run's medians
/// cover several campaigns instead of one.
pub fn rep_seed(seed: u64, rep: usize) -> u64 {
    match rep {
        0 | 1 => seed,
        _ => ttt_sim::rng::stream_seed(seed, "perfbench-rep").wrapping_add(rep as u64),
    }
}

/// Whether a repetition-bounded loop that started at `start` should run
/// repetition number `done` (0-based): always below [`MIN_REPS`], then
/// while the budget lasts.
pub fn another_rep(start: Instant, done: usize, cfg: &Config) -> bool {
    done < MIN_REPS || start.elapsed().as_secs_f64() < cfg.seconds
}

/// Check a finished campaign's outputs with the swarm's fault-resolution
/// and conservation oracles; a violation fails the campaign.
pub fn check_outputs(c: &ttt_core::Campaign, out: &mut Outcome) {
    let violations: Vec<String> = ttt_scengen::oracle::check_fault_resolution(c.testbed())
        .into_iter()
        .chain(ttt_scengen::oracle::check_conservation(c))
        .map(|v| format!("{:?}: {}", v.oracle, v.detail))
        .collect();
    if !violations.is_empty() {
        out.fail(1, format!("campaign violates oracles: {violations:?}"));
    }
}

/// Render a caught panic payload.
pub fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

/// Run one workload.
pub fn run(cfg: &Config) -> Outcome {
    match cfg.workload {
        Workload::PaperCampaign => paper::run(cfg),
        Workload::GridReaders => grid::run(cfg),
        Workload::SwarmOracles => swarm::run(cfg),
    }
}
