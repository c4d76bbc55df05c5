//! `paper_campaign`: the paper's own 180-day paper-scale campaign
//! (staged rollout, read plane off, NextEvent engine), on one thread.
//! Test execution and the CI + scheduler pass do most of its work.

use crate::probe::{final_snapshot, read_pages, Counts, LayerProbes, Reads};
use crate::stats::{median, ratio};
use crate::trace::Tracer;
use crate::{
    another_rep, check_outputs, panic_text, rep_seed, time_setup, Config, Outcome, Reps, Workload,
    SETUP_REPS,
};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;
use ttt_core::{scenario, Campaign, CampaignConfig};
use ttt_scengen::CampaignDigest;
use ttt_sim::SimDuration;

/// The campaign with seed `seed` a run of `cfg` drives.
pub fn campaign_config(cfg: &Config, seed: u64) -> CampaignConfig {
    let mut c = scenario::paper_scenario(seed);
    c.duration = SimDuration::from_days(cfg.sizes.paper_days);
    c
}

/// One whole campaign: construction, then `run()` timed on its own.
fn run_once(ccfg: &CampaignConfig) -> Result<(Campaign, f64), String> {
    catch_unwind(AssertUnwindSafe(|| {
        let mut c = Campaign::new(ccfg.clone());
        let started = Instant::now();
        c.run();
        (c, started.elapsed().as_secs_f64())
    }))
    .map_err(|p| panic_text(p.as_ref()))
}

/// Capture the reference digest, perturbed when the run forces a
/// mismatch.
pub(crate) fn reference_digest(c: &Campaign, cfg: &Config) -> CampaignDigest {
    let mut d = CampaignDigest::capture(c);
    if cfg.faults.digest_mismatch {
        d.tests_run += 1;
    }
    d
}

/// Check a finished campaign's outputs, then drop it and read its final
/// status; the failures count against `out`.
fn check_campaign(
    c: Campaign,
    seed: u64,
    cfg: &Config,
    tracer: &mut Tracer,
    out: &mut Outcome,
) -> Reads {
    check_outputs(&c, out);
    let (snap, _) = tracer.time("snapshot.build_final", || final_snapshot(&c, 1));
    drop(c);
    let mut reads = Reads::default();
    let pages = 0..cfg.sizes.final_pages as u64;
    read_pages(
        &mut reads,
        &snap,
        seed,
        pages,
        cfg.sizes.epoch_batch,
        tracer,
    );
    out.attempted += reads.attempted;
    if reads.failed > 0 {
        out.fail(
            reads.failed,
            format!(
                "{} final-status answers differ when recomputed",
                reads.failed
            ),
        );
    }
    reads
}

/// Run the workload: repetitions until the budget is spent, each a whole
/// campaign whose outputs are checked and whose final status is read.
/// The second repetition re-runs the first and must reproduce its digest.
pub fn run(cfg: &Config) -> Outcome {
    let origin = Instant::now();
    let mut out = Outcome::default();
    if cfg.trace {
        return run_traced(cfg, &campaign_config(cfg, cfg.seed), origin, out);
    }
    let mut untraced = Tracer::new(false, origin, 0);
    let mut reps = Reps::default();
    let mut reference: Option<CampaignDigest> = None;
    let start = Instant::now();
    let mut rep = 0;
    while another_rep(start, rep, cfg) {
        out.attempted += 1;
        reps.begin();
        let seed = rep_seed(cfg.seed, rep);
        rep += 1;
        let ccfg = campaign_config(cfg, seed);
        reps.setup(time_setup(&ccfg, SETUP_REPS, &mut untraced));
        let began = Instant::now();
        let (c, secs) = match run_once(&ccfg) {
            Ok(r) => r,
            Err(e) => {
                out.fail(1, format!("campaign panicked: {e}"));
                continue;
            }
        };
        reps.run(secs);
        match (rep, &reference) {
            (2, Some(r)) => {
                let d = CampaignDigest::capture(&c);
                if *r != d {
                    out.fail(
                        1,
                        format!("digest differs from the reference on {:?}", r.diff(&d)),
                    );
                }
            }
            _ => {
                if rep == 1 {
                    reference = Some(reference_digest(&c, cfg));
                }
                reps.reads(check_campaign(c, seed, cfg, &mut untraced, &mut out));
            }
        }
        reps.total(began.elapsed().as_secs_f64());
    }
    let scaled = reps.finish(&mut out);
    let m = &mut out.metrics;
    m.insert("setup_s", median(&scaled.setup));
    m.insert("run_s", median(&scaled.run));
    m.insert("scenarios_per_s", ratio(1.0, median(&scaled.total)));
    m.insert("peak_rss_mb", median(&scaled.peak_rss_mb));
    scaled.reads.emit_end_to_end(m);
    out
}

/// The traced run: one untraced reference campaign, then the same
/// campaign advanced in one-day slices with the layers probed between
/// slices. The two digests must agree.
fn run_traced(cfg: &Config, ccfg: &CampaignConfig, origin: Instant, mut out: Outcome) -> Outcome {
    out.attempted += 2;
    let mut reps = Reps::default();
    reps.begin();
    let reference = match run_once(ccfg) {
        Ok((c, s)) => {
            reps.run(s);
            reference_digest(&c, cfg)
        }
        Err(e) => {
            out.fail(2, format!("reference campaign panicked: {e}"));
            return out;
        }
    };
    let mut tracer = Tracer::new(true, origin, 0);
    tracer.set_run(1);
    let setup = time_setup(ccfg, SETUP_REPS, &mut tracer);
    let mut probes = LayerProbes::default();
    reps.begin();
    let traced = catch_unwind(AssertUnwindSafe(|| {
        let (mut c, _) = tracer.time("core.new", || Campaign::new(ccfg.clone()));
        let started = Instant::now();
        let advancing = probes.sliced_run(&mut c, cfg.sizes.paper_days, &mut tracer);
        (c, advancing, started.elapsed().as_secs_f64())
    }));
    let (c, advancing) = match traced {
        Ok((c, advancing, traced_s)) => {
            reps.run(traced_s);
            (c, advancing)
        }
        Err(p) => {
            out.fail(
                1,
                format!("traced campaign panicked: {}", panic_text(p.as_ref())),
            );
            return out;
        }
    };
    let d = CampaignDigest::capture(&c);
    let diff = d.diff(&reference);
    if !diff.is_empty() {
        out.fail(
            1,
            format!("traced digest differs from the untraced one on {diff:?}"),
        );
    }
    let counts = Counts::capture(&c);
    let reads = check_campaign(c, cfg.seed, cfg, &mut tracer, &mut out);
    let scaled = reps.finish(&mut out);
    let m = &mut out.metrics;
    m.insert("core.new_s", median(&setup));
    m.insert("core.new.calls", tracer.durations("core.new").len() as f64);
    probes.emit(m);
    counts.emit(advancing, m);
    reads.emit_layer(m);
    m.insert("trace.overhead_ratio", ratio(scaled.run[1], scaled.run[0]));
    out.push_deciles(&probes.deciles());
    out.push_share_table(Workload::PaperCampaign, &tracer);
    out.spans = Some(tracer);
    out
}
