//! `swarm_oracles`: a block of scenario seeds through every swarm oracle
//! (NextEvent, Lockstep and ParallelSite equivalence, detection,
//! conservation), with whole campaigns as the unit of parallel work.
//! Construction, the Lockstep tick grind, the oracles and pool load
//! balance do most of its work.
//!
//! Per-seed cost varies by more than an order of magnitude, so one block
//! says little; the untraced run times `run_swarm` on consecutive blocks
//! until its budget is spent and reports totals. The first block's
//! reference is the same block replayed stage by stage on the same pool:
//! each seed's outcome (tests run, violation kinds) must agree between the
//! two, and every seed of every block must pass every oracle. The read
//! metrics come from pages read off the final status of the reference
//! block's NextEvent campaigns.

use crate::probe::{final_snapshot, mix, read_pages, Counts, Reads};
use crate::stats::{median, quantile, ratio};
use crate::trace::Tracer;
use crate::{another_rep, panic_text, Config, Outcome, Reps, Workload, SETUP_REPS};
use rayon::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;
use ttt_core::snapshot::CampaignSnapshot;
use ttt_core::{Campaign, Engine};
use ttt_scengen::oracle::{check_conservation, check_fault_resolution, check_kind_detectability};
use ttt_scengen::{
    run_swarm, seed_block, CampaignDigest, OracleKind, Oracles, ScenarioSpec, SwarmReport,
};

/// Scenario seeds reserved per workload seed: block `k` of workload seed
/// `s` is `seed_block(s * BLOCK_STRIDE + k * n, n)`, so runs with
/// different seeds check disjoint scenarios.
const BLOCK_STRIDE: u64 = 1 << 16;

/// Block `k` of a run.
fn block(cfg: &Config, k: usize) -> Vec<u64> {
    let n = cfg.sizes.swarm_seeds;
    seed_block(
        cfg.seed
            .wrapping_mul(BLOCK_STRIDE)
            .wrapping_add((k * n) as u64),
        n,
    )
}

/// The outcome of one seed, reduced to what must agree between runs.
fn entry(seed: u64, tests_run: u64, oracles: &[OracleKind]) -> u64 {
    oracles.iter().fold(
        mix(mix(mix(0, seed), tests_run), oracles.len() as u64),
        |h, k| mix(h, *k as u64),
    )
}

/// Per-seed outcome entries of a swarm report, in seed order.
fn report_entries(report: &SwarmReport) -> Vec<u64> {
    report
        .outcomes
        .iter()
        .map(|o| {
            let kinds: Vec<OracleKind> = o.violations.iter().map(|v| v.oracle).collect();
            entry(o.seed, o.tests_run, &kinds)
        })
        .collect()
}

/// One seed replayed stage by stage.
struct Staged {
    entry: u64,
    violations: usize,
    counts: Counts,
    /// Final status of the seed's NextEvent campaign (none after a panic).
    snapshot: Option<CampaignSnapshot>,
    seed_s: f64,
    tracer: Tracer,
}

/// Run one engine over `spec` to completion, construction and run in
/// their own spans.
fn run_engine(spec: &ScenarioSpec, engine: Engine, tracer: &mut Tracer) -> Campaign {
    let (mut c, _) = tracer.time("core.new", || Campaign::new(spec.campaign_config(engine)));
    tracer.time("core.run", || c.run());
    c
}

/// What the stages of one seed leave behind.
type StageResult = (Vec<OracleKind>, u64, Counts, CampaignSnapshot);

/// The swarm's oracle pipeline for one seed, in the order `run_swarm`
/// applies it, each stage in its own span.
fn stages(seed: u64, tracer: &mut Tracer) -> StageResult {
    let (spec, _) = tracer.time("scengen.generate", || ScenarioSpec::from_seed(seed));
    let open = tracer.enter("scengen.next_event");
    let c = run_engine(&spec, Engine::NextEvent, tracer);
    let (digest, _) = tracer.time("scengen.digest", || CampaignDigest::capture(&c));
    tracer.exit(open);
    let mut kinds = Vec::new();
    for (engine, span) in [
        (Engine::Lockstep, "scengen.lockstep"),
        (Engine::ParallelSite, "scengen.parallel_site"),
    ] {
        let open = tracer.enter(span);
        let other = run_engine(&spec, engine, tracer);
        let (diff, _) = tracer.time("scengen.digest", || {
            CampaignDigest::capture(&other).diff(&digest)
        });
        tracer.exit(open);
        if !diff.is_empty() {
            kinds.push(OracleKind::EngineEquivalence);
            break;
        }
    }
    let (detection, _) = tracer.time("scengen.detection", || {
        let mut v = check_fault_resolution(c.testbed());
        v.extend(check_kind_detectability(&spec));
        v
    });
    kinds.extend(detection.iter().map(|v| v.oracle));
    let (conservation, _) = tracer.time("scengen.conservation", || check_conservation(&c));
    kinds.extend(conservation.iter().map(|v| v.oracle));
    let (snapshot, _) = tracer.time("snapshot.build_final", || final_snapshot(&c, 1));
    (kinds, digest.tests_run, Counts::capture(&c), snapshot)
}

/// Replay one seed stage by stage; a panic counts as a `Panicked`
/// violation, as in `run_swarm`.
fn replay_seed(seed: u64, tracer: Tracer) -> Staged {
    let mut tracer = tracer;
    let started = Instant::now();
    let open = tracer.enter("scengen.seed");
    let staged = catch_unwind(AssertUnwindSafe(|| stages(seed, &mut tracer)));
    tracer.exit(open);
    let seed_s = started.elapsed().as_secs_f64();
    let (kinds, tests_run, counts, snapshot) = match staged {
        Ok((k, t, c, s)) => (k, t, c, Some(s)),
        Err(_) => (vec![OracleKind::Panicked], 0, Counts::default(), None),
    };
    Staged {
        entry: entry(seed, tests_run, &kinds),
        violations: kinds.len(),
        counts,
        snapshot,
        seed_s,
        tracer,
    }
}

/// Replay the block on the worker pool (same contiguous chunking as
/// `run_swarm`); returns the per-seed results and the wall time.
fn replay_block(seeds: &[u64], tracer: &Tracer) -> (Vec<Staged>, f64) {
    let started = Instant::now();
    let staged: Vec<Staged> = (0..seeds.len())
        .into_par_iter()
        .map(|i| {
            let mut t = tracer.sibling(0);
            t.set_run(i as u32);
            replay_seed(seeds[i], t)
        })
        .collect();
    (staged, started.elapsed().as_secs_f64())
}

/// Time `reps` set-ups of a block: expand every seed and construct its
/// NextEvent campaign.
fn time_block_setup(seeds: &[u64], reps: usize) -> Vec<f64> {
    (0..reps)
        .map(|_| {
            let started = Instant::now();
            for &seed in seeds {
                let spec = ScenarioSpec::from_seed(seed);
                drop(std::hint::black_box(Campaign::new(
                    spec.campaign_config(Engine::NextEvent),
                )));
            }
            started.elapsed().as_secs_f64()
        })
        .collect()
}

/// Compare a run's per-seed entries with the reference; failures count
/// against `out`.
fn check_entries(reference: &[u64], got: &[u64], what: &str, out: &mut Outcome) {
    let differing = reference.iter().zip(got).filter(|(a, b)| a != b).count()
        + reference.len().abs_diff(got.len());
    if differing > 0 {
        out.fail(
            differing as u64,
            format!("{differing} seeds of {what} differ from the reference"),
        );
    }
}

/// Reference entries, the first perturbed when the run forces a
/// mismatch.
fn reference_entries(mut entries: Vec<u64>, cfg: &Config) -> Vec<u64> {
    if cfg.faults.digest_mismatch {
        if let Some(e) = entries.first_mut() {
            *e = mix(*e, 1);
        }
    }
    entries
}

/// Count a staged replay's seeds and violations against `out`.
fn count_staged(staged: &[Staged], out: &mut Outcome) {
    out.attempted += staged.len() as u64;
    let violating = staged.iter().filter(|s| s.violations > 0).count() as u64;
    if violating > 0 {
        out.fail(
            violating,
            format!("{violating} replayed seeds violate an oracle"),
        );
    }
}

/// Read `pages` from the final status of every replayed seed; the answers
/// are checked, and failures count against `out`.
fn read_statuses(
    staged: &[Staged],
    pages: std::ops::Range<u64>,
    cfg: &Config,
    tracer: &mut Tracer,
    out: &mut Outcome,
) -> Reads {
    let mut reads = Reads::default();
    for (s, seed) in staged.iter().zip(block(cfg, 0)) {
        if let Some(snap) = &s.snapshot {
            read_pages(
                &mut reads,
                snap,
                seed,
                pages.clone(),
                cfg.sizes.epoch_batch,
                tracer,
            );
        }
    }
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

/// Run the workload: the first block replayed stage by stage as the
/// reference, then `run_swarm` on consecutive blocks until the budget is
/// spent. Before each block its set-up is timed, and pages are read from
/// the final status of every reference seed, so set-up and read samples
/// spread over the whole run.
pub fn run(cfg: &Config) -> Outcome {
    let origin = Instant::now();
    let mut out = Outcome::default();
    let first = block(cfg, 0);
    if cfg.trace {
        return run_traced(cfg, &first, origin, out);
    }
    let mut untraced = Tracer::new(false, origin, 0);
    let (staged, _) = replay_block(&first, &untraced);
    let reference = reference_entries(staged.iter().map(|s| s.entry).collect(), cfg);
    count_staged(&staged, &mut out);
    let oracles = Oracles::default();
    let mut reps = Reps::default();
    let start = Instant::now();
    let mut k = 0;
    while another_rep(start, k, cfg) {
        reps.begin();
        let seeds = block(cfg, k);
        reps.setup(time_block_setup(&seeds, SETUP_REPS));
        let pages = (k * cfg.sizes.seed_pages) as u64..((k + 1) * cfg.sizes.seed_pages) as u64;
        reps.reads(read_statuses(&staged, pages, cfg, &mut untraced, &mut out));
        k += 1;
        out.attempted += seeds.len() as u64;
        let started = Instant::now();
        let report = match catch_unwind(AssertUnwindSafe(|| run_swarm(&seeds, &oracles, false))) {
            Ok(r) => r,
            Err(p) => {
                out.fail(
                    seeds.len() as u64,
                    format!("swarm panicked: {}", panic_text(p.as_ref())),
                );
                continue;
            }
        };
        reps.run(started.elapsed().as_secs_f64());
        if k == 1 {
            check_entries(&reference, &report_entries(&report), "the swarm", &mut out);
        }
        if !report.all_passed() {
            let n = report.failures().len() as u64;
            out.fail(n, format!("{n} swarm seeds violate an oracle"));
        }
    }
    let scaled = reps.finish(&mut out);
    let total: f64 = scaled.run.iter().sum();
    let m = &mut out.metrics;
    m.insert("setup_s", median(&scaled.setup));
    m.insert("run_s", ratio(total, scaled.run.len() as f64));
    m.insert(
        "scenarios_per_s",
        ratio((scaled.run.len() * first.len()) as f64, total),
    );
    m.insert("peak_rss_mb", median(&scaled.peak_rss_mb));
    scaled.reads.emit_end_to_end(m);
    out
}

/// The traced run: one untraced `run_swarm` as the reference, then the
/// block replayed stage by stage with every stage in a span. Per-seed
/// outcomes must agree.
fn run_traced(cfg: &Config, seeds: &[u64], origin: Instant, mut out: Outcome) -> Outcome {
    out.attempted += seeds.len() as u64;
    let mut reps = Reps::default();
    reps.begin();
    let started = Instant::now();
    let report = match catch_unwind(AssertUnwindSafe(|| {
        run_swarm(seeds, &Oracles::default(), false)
    })) {
        Ok(r) => r,
        Err(p) => {
            out.fail(
                seeds.len() as u64,
                format!("swarm panicked: {}", panic_text(p.as_ref())),
            );
            return out;
        }
    };
    reps.run(started.elapsed().as_secs_f64());
    let reference = reference_entries(report_entries(&report), cfg);
    let mut tracer = Tracer::new(true, origin, 0);
    reps.begin();
    let (staged, wall_s) = replay_block(seeds, &tracer);
    reps.run(wall_s);
    let scaled = reps.finish(&mut out);
    let got: Vec<u64> = staged.iter().map(|s| s.entry).collect();
    check_entries(&reference, &got, "the staged replay", &mut out);
    count_staged(&staged, &mut out);
    let reads = read_statuses(
        &staged,
        0..cfg.sizes.seed_pages as u64,
        cfg,
        &mut tracer,
        &mut out,
    );
    let seed_s: Vec<f64> = staged.iter().map(|s| s.seed_s).collect();
    let mut counts = Counts::default();
    for s in staged {
        counts.add(&s.counts);
        tracer.absorb(s.tracer);
    }
    let per_seed = |name: &str| tracer.total(name) / seeds.len().max(1) as f64;
    let m = &mut out.metrics;
    m.insert("core.new_s", median(&tracer.durations("core.new")));
    m.insert("core.new.calls", tracer.durations("core.new").len() as f64);
    m.insert("scengen.generate_us", per_seed("scengen.generate") * 1e6);
    m.insert("scengen.next_event_s", per_seed("scengen.next_event"));
    m.insert("scengen.lockstep_s", per_seed("scengen.lockstep"));
    m.insert("scengen.parallel_site_s", per_seed("scengen.parallel_site"));
    m.insert("scengen.detection_s", per_seed("scengen.detection"));
    m.insert("scengen.conservation_s", per_seed("scengen.conservation"));
    m.insert("scengen.seed_s.p50", median(&seed_s));
    m.insert("scengen.seed_s.max", quantile(&seed_s, 1.0));
    let width = rayon::current_num_threads() as f64;
    m.insert(
        "scengen.pool_busy_ratio",
        ratio(seed_s.iter().sum(), wall_s * width),
    );
    counts.emit(tracer.total("scengen.next_event"), m);
    reads.emit_layer(m);
    m.insert("trace.overhead_ratio", ratio(scaled.run[1], scaled.run[0]));
    out.push_share_table(Workload::SwarmOracles, &tracer);
    out.spans = Some(tracer);
    out
}
