//! `grid_readers`: the 64-site grid-of-grids campaign (128 clusters, 1024
//! nodes) with the query plane armed at 2 M queries a day from 1 M users.
//! One writer thread runs the campaign; one reader thread answers a fixed
//! batch of queries against every epoch the writer publishes, while the
//! writer keeps publishing. The widest OAR scan, the per-epoch snapshot
//! publish and the query engine do most of its work.
//!
//! Each epoch's batch is drawn from a stream seeded by (seed, epoch), so
//! the set of (epoch, query) pairs is the same on every run. An answer is
//! timed from the moment the reader first saw its epoch; a batch whose
//! epoch aged out of the hub's 16-slot ring before it was read fails.

use crate::paper::reference_digest;
use crate::probe::{Counts, LayerProbes, Reads};
use crate::stats::{median, ratio};
use crate::trace::Tracer;
use crate::{
    another_rep, check_outputs, panic_text, rep_seed, time_setup, Config, Outcome, Reps, Workload,
    SETUP_REPS,
};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};
use ttt_core::snapshot::{fold_answer, QueryEngine, SnapshotHub};
use ttt_core::{scenario, Campaign, CampaignConfig};
use ttt_scengen::CampaignDigest;
use ttt_sim::SimDuration;

/// Simulated query arrivals per day.
const QUERIES_PER_DAY: f64 = 2_000_000.0;
/// Distinct query users.
const QUERY_USERS: u64 = 1_000_000;

/// The campaign with seed `seed` a run of `cfg` drives.
pub fn campaign_config(cfg: &Config, seed: u64) -> CampaignConfig {
    let mut c = scenario::grid_of_grids_scenario(seed, cfg.sizes.grid_sites);
    c.duration = SimDuration::from_days(cfg.sizes.grid_days);
    c.queries_per_day = QUERIES_PER_DAY;
    c.query_users = QUERY_USERS;
    c
}

/// The reader thread: answer every epoch's batch in epoch order until the
/// writer is done and every published epoch has been read.
fn reader(
    hub: &SnapshotHub,
    done: &AtomicBool,
    seed: u64,
    cfg: &Config,
    mut tracer: Tracer,
) -> (Reads, Tracer) {
    let mut reads = Reads::default();
    let batch = cfg.sizes.epoch_batch;
    if cfg.faults.age_out {
        while !done.load(Ordering::Acquire) {
            std::thread::sleep(Duration::from_millis(1));
        }
    }
    let mut next = 1u64;
    let mut pending: VecDeque<(u64, Instant)> = VecDeque::new();
    loop {
        let published = hub.published();
        if published >= next {
            let seen = Instant::now();
            pending.extend((next..=published).map(|e| (e, seen)));
            next = published + 1;
        }
        if let Some((epoch, seen)) = pending.pop_front() {
            let (snap, wait) = tracer.time("snapshot.at_epoch", || hub.at_epoch(epoch));
            reads.wait_us.push(wait * 1e6);
            match snap {
                None => reads.lose_batch(batch),
                Some(snap) => {
                    reads.answer_batch(&snap, seed, epoch, batch, seen, &mut tracer, &mut |q| {
                        hub.at_epoch(epoch)
                            .map(|s| fold_answer(0, &QueryEngine::answer(&s, q)))
                    })
                }
            }
            continue;
        }
        // `published` is stored before the writer raises `done`, so once
        // `done` reads true the epoch count is final.
        if done.load(Ordering::Acquire) {
            if hub.published() < next {
                break;
            }
            continue;
        }
        std::thread::sleep(Duration::from_micros(50));
    }
    (reads, tracer)
}

/// One repetition's results.
struct Rep {
    campaign: Campaign,
    /// Host seconds of the writer's run (probes excluded when sliced).
    run_s: f64,
    /// Host seconds of the whole writer side, probes included.
    wall_s: f64,
    reads: Reads,
    reader_spans: Tracer,
}

/// One campaign with its reader beside it. Sliced (traced) runs advance
/// day by day and probe the layers between slices.
fn run_rep(
    ccfg: &CampaignConfig,
    cfg: &Config,
    tracer: &mut Tracer,
    probes: Option<&mut LayerProbes>,
) -> Result<Rep, String> {
    let (mut c, _) = tracer.time("core.new", || Campaign::new(ccfg.clone()));
    let hub = c
        .snapshot_hub()
        .ok_or_else(|| "query volume did not arm the snapshot hub".to_string())?;
    let done = AtomicBool::new(false);
    let reader_tracer = tracer.sibling(1);
    std::thread::scope(|s| {
        let handle = s.spawn(|| reader(&hub, &done, ccfg.seed, cfg, reader_tracer));
        let started = Instant::now();
        let writer = catch_unwind(AssertUnwindSafe(|| match probes {
            Some(p) => p.sliced_run(&mut c, cfg.sizes.grid_days, tracer),
            None => {
                let started = Instant::now();
                c.run();
                started.elapsed().as_secs_f64()
            }
        }));
        let wall_s = started.elapsed().as_secs_f64();
        done.store(true, Ordering::Release);
        let reader = handle.join();
        let run_s = writer.map_err(|p| format!("writer panicked: {}", panic_text(p.as_ref())))?;
        let (reads, reader_spans) =
            reader.map_err(|p| format!("reader panicked: {}", panic_text(p.as_ref())))?;
        Ok(Rep {
            campaign: c,
            run_s,
            wall_s,
            reads,
            reader_spans,
        })
    })
}

/// Count a repetition's reader failures against `out`.
fn count_reads(rep: &Rep, out: &mut Outcome) {
    out.attempted += rep.reads.attempted;
    if rep.reads.failed > 0 {
        out.fail(
            rep.reads.failed,
            format!(
                "{} reader queries failed ({} epochs aged out)",
                rep.reads.failed, rep.reads.aged_out
            ),
        );
    }
}

/// Run the workload: repetitions until the budget is spent, each a whole
/// campaign with its reader. The second repetition re-runs the first and
/// must reproduce its digest and every reader answer.
pub fn run(cfg: &Config) -> Outcome {
    let origin = Instant::now();
    let mut out = Outcome::default();
    if cfg.trace {
        return run_traced(cfg, &campaign_config(cfg, cfg.seed), origin, out);
    }
    let mut untraced = Tracer::new(false, origin, 0);
    let mut timings = Reps::default();
    let mut reference: Option<(CampaignDigest, u64)> = None;
    let start = Instant::now();
    let mut reps = 0;
    while another_rep(start, reps, cfg) {
        timings.begin();
        let ccfg = campaign_config(cfg, rep_seed(cfg.seed, reps));
        timings.setup(time_setup(&ccfg, SETUP_REPS, &mut untraced));
        let began = Instant::now();
        let result = run_rep(&ccfg, cfg, &mut untraced, None);
        reps += 1;
        out.attempted += 1;
        let rep = match result {
            Ok(r) => r,
            Err(e) => {
                out.fail(1, e);
                continue;
            }
        };
        timings.run(rep.run_s);
        count_reads(&rep, &mut out);
        match (reps, &reference) {
            (2, Some((d, fold))) => {
                let got = CampaignDigest::capture(&rep.campaign);
                if *d != got {
                    out.fail(
                        1,
                        format!("digest differs from the reference on {:?}", d.diff(&got)),
                    );
                } else if *fold != rep.reads.fold {
                    out.fail(
                        1,
                        "reader answers differ from the reference run".to_string(),
                    );
                }
            }
            _ => {
                check_outputs(&rep.campaign, &mut out);
                if reps == 1 {
                    reference = Some((reference_digest(&rep.campaign, cfg), rep.reads.fold));
                }
            }
        }
        timings.reads(rep.reads);
        timings.total(began.elapsed().as_secs_f64());
    }
    let scaled = timings.finish(&mut out);
    let m = &mut out.metrics;
    m.insert("setup_s", median(&scaled.setup));
    m.insert("run_s", median(&scaled.run));
    m.insert("scenarios_per_s", ratio(1.0, median(&scaled.total)));
    m.insert("peak_rss_mb", median(&scaled.peak_rss_mb));
    scaled.reads.emit_end_to_end(m);
    out
}

/// The traced run: an untraced reference repetition, then a traced one
/// whose writer advances in one-day slices with the layers probed between
/// slices. Digests and reader answers must agree.
fn run_traced(cfg: &Config, ccfg: &CampaignConfig, origin: Instant, mut out: Outcome) -> Outcome {
    out.attempted += 2;
    let mut untraced = Tracer::new(false, origin, 0);
    let mut timings = Reps::default();
    timings.begin();
    let reference = match run_rep(ccfg, cfg, &mut untraced, None) {
        Ok(r) => {
            timings.run(r.run_s);
            r
        }
        Err(e) => {
            out.fail(2, e);
            return out;
        }
    };
    count_reads(&reference, &mut out);
    let reference_digest = reference_digest(&reference.campaign, cfg);
    let mut tracer = Tracer::new(true, origin, 0);
    tracer.set_run(1);
    let setup = time_setup(ccfg, SETUP_REPS, &mut tracer);
    let mut probes = LayerProbes::default();
    timings.begin();
    let rep = match run_rep(ccfg, cfg, &mut tracer, Some(&mut probes)) {
        Ok(r) => {
            timings.run(r.wall_s);
            r
        }
        Err(e) => {
            out.fail(1, e);
            return out;
        }
    };
    count_reads(&rep, &mut out);
    let d = CampaignDigest::capture(&rep.campaign);
    let diff = d.diff(&reference_digest);
    if !diff.is_empty() {
        out.fail(
            1,
            format!("traced digest differs from the untraced one on {diff:?}"),
        );
    } else if rep.reads.fold != reference.reads.fold {
        out.fail(
            1,
            "traced reader answers differ from the untraced run".to_string(),
        );
    }
    check_outputs(&rep.campaign, &mut out);
    let scaled = timings.finish(&mut out);
    let m = &mut out.metrics;
    m.insert("core.new_s", median(&setup));
    m.insert("core.new.calls", tracer.durations("core.new").len() as f64);
    probes.emit(m);
    Counts::capture(&rep.campaign).emit(rep.run_s, m);
    rep.reads.emit_layer(m);
    m.insert("trace.overhead_ratio", ratio(scaled.run[1], scaled.run[0]));
    out.push_deciles(&probes.deciles());
    tracer.absorb(rep.reader_spans);
    out.push_share_table(Workload::GridReaders, &tracer);
    out.spans = Some(tracer);
    out
}
