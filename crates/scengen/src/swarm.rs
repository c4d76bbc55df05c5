//! The swarm runner and the coverage-guided fuzz driver.
//!
//! [`run_swarm`] sweeps a fixed seed block rayon-parallel through the
//! differential oracles; failures are shrunk to minimal reproducers. A
//! panicking scenario is caught per seed and reported as a
//! [`OracleKind::Panicked`] violation — one poisoned campaign never costs
//! the other outcomes of a CI sweep.
//!
//! [`run_fuzz`] is the feedback-directed counterpart: instead of a fixed
//! block, it evolves a [`Corpus`] of coverage-novel specs. Each round it
//! sequentially derives a batch of mutants from corpus parents (one RNG,
//! one order — fully deterministic from the root seed), evaluates the
//! batch rayon-parallel, then merges results back in batch order. The
//! merge being sequential and order-preserving makes the whole loop
//! reproducible across runs *and* across worker counts.

use crate::corpus::Corpus;
use crate::coverage::{CoverageSignature, StructuralCell};
use crate::grammar::ScenarioSpec;
use crate::mutate::{mutate, pin_to_cell};
use std::collections::BTreeSet;
use crate::oracle::{
    check_conservation, check_engine_equivalence, check_fault_resolution,
    check_kind_detectability, run_campaign, CampaignDigest, OracleKind, Violation,
};
use crate::shrink::{shrink, Reproducer};
use rand::Rng;
use rayon::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};
use ttt_core::Engine;
use ttt_sim::rng::stream_rng;

/// Which oracles a swarm (or a shrink probe) checks.
#[derive(Debug, Clone)]
pub struct Oracles {
    /// NextEvent ≡ Lockstep bit-identity (runs the campaign twice).
    pub equivalence: bool,
    /// Fault resolution + per-kind detectability.
    pub detection: bool,
    /// Accounting invariants.
    pub conservation: bool,
    /// Self-test trip wire: fail any scenario that runs more than this
    /// many tests. Real campaigns violate it at will, which is exactly the
    /// point — it lets the swarm-and-shrink pipeline prove, in CI, that an
    /// oracle violation produces a minimal replayable reproducer.
    pub tests_run_limit: Option<u64>,
    /// Second self-test trip wire: panic while evaluating the scenario
    /// whose campaign seed matches. Lets tests and CI prove that a
    /// panicking scenario is isolated to its own outcome (and that the
    /// resulting `Panicked` violation shrinks like any other).
    pub panic_on_seed: Option<u64>,
}

impl Default for Oracles {
    fn default() -> Self {
        Oracles {
            equivalence: true,
            detection: true,
            conservation: true,
            tests_run_limit: None,
            panic_on_seed: None,
        }
    }
}

impl Oracles {
    /// A coverage-only configuration: run the campaign once, capture the
    /// digest, check nothing (what the fuzzer uses while exploring).
    pub fn none() -> Self {
        Oracles {
            equivalence: false,
            detection: false,
            conservation: false,
            tests_run_limit: None,
            panic_on_seed: None,
        }
    }
}

/// The result of evaluating one spec: violations plus the next-event
/// campaign's digest (absent when the campaign panicked).
#[derive(Debug)]
pub struct ScenarioRun {
    /// Oracle violations (empty = passed).
    pub violations: Vec<Violation>,
    /// The next-event campaign's digest; `None` when the run panicked
    /// before producing one.
    pub digest: Option<CampaignDigest>,
}

impl ScenarioRun {
    /// Tests the (next-event) campaign ran, 0 for panicked runs.
    pub fn tests_run(&self) -> u64 {
        self.digest.as_ref().map_or(0, |d| d.tests_run)
    }
}

/// The outcome of one scenario.
#[derive(Debug)]
pub struct ScenarioOutcome {
    /// The seed the scenario expanded from.
    pub seed: u64,
    /// The expanded spec.
    pub spec: ScenarioSpec,
    /// Oracle violations (empty = scenario passed).
    pub violations: Vec<Violation>,
    /// Minimal reproducer, when the scenario failed and shrinking was on.
    pub reproducer: Option<Reproducer>,
    /// Tests the (next-event) campaign ran.
    pub tests_run: u64,
}

impl ScenarioOutcome {
    /// Whether every oracle held.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Aggregate result of a swarm run.
#[derive(Debug)]
pub struct SwarmReport {
    /// Per-scenario outcomes, in seed order.
    pub outcomes: Vec<ScenarioOutcome>,
}

impl SwarmReport {
    /// Whether every scenario passed every oracle.
    pub fn all_passed(&self) -> bool {
        self.outcomes.iter().all(ScenarioOutcome::passed)
    }

    /// The failing outcomes.
    pub fn failures(&self) -> Vec<&ScenarioOutcome> {
        self.outcomes.iter().filter(|o| !o.passed()).collect()
    }

    /// Total tests run across all (next-event) campaigns.
    pub fn total_tests_run(&self) -> u64 {
        self.outcomes.iter().map(|o| o.tests_run).sum()
    }
}

/// The oracle pipeline, unguarded — a panic anywhere in here unwinds to
/// [`run_scenario`]'s catch.
fn run_scenario_unguarded(spec: &ScenarioSpec, oracles: &Oracles) -> ScenarioRun {
    if oracles.panic_on_seed == Some(spec.seed) {
        panic!("deliberate swarm self-test panic (campaign seed {})", spec.seed);
    }
    let campaign = run_campaign(spec, Engine::NextEvent);
    let digest = CampaignDigest::capture(&campaign);
    // The oracles that read the finished campaign run first, so it is
    // dropped before the equivalence oracle builds the Lockstep one: a
    // swarm worker holds one campaign at a time. Violations are still
    // reported in oracle order.
    let resolution = if oracles.detection {
        check_fault_resolution(campaign.testbed())
    } else {
        Vec::new()
    };
    let conservation = if oracles.conservation {
        check_conservation(&campaign)
    } else {
        Vec::new()
    };
    drop(campaign);
    let mut violations = Vec::new();
    if oracles.equivalence {
        violations.extend(check_engine_equivalence(spec, &digest));
    }
    violations.extend(resolution);
    if oracles.detection {
        violations.extend(check_kind_detectability(spec));
    }
    violations.extend(conservation);
    if let Some(limit) = oracles.tests_run_limit {
        if digest.tests_run > limit {
            violations.push(Violation {
                oracle: OracleKind::TestsRunLimit,
                detail: format!("ran {} tests, limit {limit}", digest.tests_run),
            });
        }
    }
    ScenarioRun {
        violations,
        digest: Some(digest),
    }
}

/// Render a panic payload into a violation detail.
fn panic_detail(payload: Box<dyn std::any::Any + Send>, seed: u64) -> String {
    let msg = payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string());
    format!("campaign seed {seed} panicked: {msg}")
}

/// Run one scenario through every enabled oracle. Panics are caught here,
/// per scenario, and surface as a [`OracleKind::Panicked`] violation — so
/// a swarm loses one outcome to a poisoned spec, never the whole sweep,
/// and the shrinker can minimize "still panics" like any other failure.
pub fn run_scenario(spec: &ScenarioSpec, oracles: &Oracles) -> ScenarioRun {
    match catch_unwind(AssertUnwindSafe(|| run_scenario_unguarded(spec, oracles))) {
        Ok(run) => run,
        Err(payload) => ScenarioRun {
            violations: vec![Violation {
                oracle: OracleKind::Panicked,
                detail: panic_detail(payload, spec.seed),
            }],
            digest: None,
        },
    }
}

/// Expand and check one seed, shrinking on failure when `shrink_failures`.
pub fn run_seed(seed: u64, oracles: &Oracles, shrink_failures: bool) -> ScenarioOutcome {
    let spec = ScenarioSpec::from_seed(seed);
    let run = run_scenario(&spec, oracles);
    let tests_run = run.tests_run();
    let reproducer = if !run.violations.is_empty() && shrink_failures {
        shrink(&spec, oracles)
    } else {
        None
    };
    ScenarioOutcome {
        seed,
        spec,
        violations: run.violations,
        reproducer,
        tests_run,
    }
}

/// Run `seeds` rayon-parallel through the oracle suite.
pub fn run_swarm(seeds: &[u64], oracles: &Oracles, shrink_failures: bool) -> SwarmReport {
    let outcomes: Vec<ScenarioOutcome> = seeds
        .par_iter()
        .map(|&seed| run_seed(seed, oracles, shrink_failures))
        .collect();
    SwarmReport { outcomes }
}

/// Expand one seed and pin it into a service-chaos cell (round-robin over
/// the catalogue's service-fault block), which arms all three
/// service-process fault kinds plus a low buggify rate — the CI
/// `service-chaos-smoke` mode. Seeds that fail shrink like any other.
pub fn run_seed_service_chaos(
    seed: u64,
    oracles: &Oracles,
    shrink_failures: bool,
) -> ScenarioOutcome {
    let cells: Vec<StructuralCell> = StructuralCell::all()
        .into_iter()
        .filter(|c| c.service_faults)
        .collect();
    let cell = cells[seed as usize % cells.len()];
    let mut spec = ScenarioSpec::from_seed(seed);
    pin_to_cell(&mut spec, cell, &mut stream_rng(seed, "swarm-service-chaos"));
    let run = run_scenario(&spec, oracles);
    let tests_run = run.tests_run();
    let reproducer = if !run.violations.is_empty() && shrink_failures {
        shrink(&spec, oracles)
    } else {
        None
    };
    ScenarioOutcome {
        seed,
        spec,
        violations: run.violations,
        reproducer,
        tests_run,
    }
}

/// The service-chaos counterpart of [`run_swarm`]: every seed runs with
/// killed/restarting service processes, degraded RPC links and buggify
/// armed.
pub fn run_swarm_service_chaos(
    seeds: &[u64],
    oracles: &Oracles,
    shrink_failures: bool,
) -> SwarmReport {
    let outcomes: Vec<ScenarioOutcome> = seeds
        .par_iter()
        .map(|&seed| run_seed_service_chaos(seed, oracles, shrink_failures))
        .collect();
    SwarmReport { outcomes }
}

/// The conventional seed block `base..base+n` a swarm sweeps.
pub fn seed_block(base: u64, n: usize) -> Vec<u64> {
    (0..n as u64).map(|i| base + i).collect()
}

// ---------------------------------------------------------------------------
// Coverage-guided fuzzing
// ---------------------------------------------------------------------------

/// Configuration of a fuzzing run.
#[derive(Debug, Clone)]
pub struct FuzzConfig {
    /// Root seed: the run's single source of randomness (candidate
    /// derivation is sequential, so the whole run replays from it).
    pub root_seed: u64,
    /// Campaign-execution budget (candidate evaluations; shrink probes on
    /// trophies are not counted).
    pub budget: usize,
    /// Candidates derived per round (the parallel width).
    pub batch: usize,
    /// Probability a candidate is a fresh random spec instead of a mutant
    /// (keeps exploration alive once the corpus is rich).
    pub fresh_prob: f64,
    /// Oracles each candidate is checked against ([`Oracles::none`] for
    /// pure coverage exploration).
    pub oracles: Oracles,
    /// Whether oracle violations are shrunk into reproducers.
    pub shrink_failures: bool,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        FuzzConfig {
            root_seed: 1,
            budget: 64,
            batch: 16,
            fresh_prob: 0.15,
            oracles: Oracles::none(),
            shrink_failures: true,
        }
    }
}

/// What a fuzzing run produced.
#[derive(Debug)]
pub struct FuzzReport {
    /// The evolved corpus (starting corpus plus every novel signature).
    pub corpus: Corpus,
    /// Candidate evaluations actually performed.
    pub executions: usize,
    /// Batch rounds run.
    pub rounds: usize,
    /// Coverage growth: corpus size after each execution, in execution
    /// order (`coverage_curve[i]` = signatures known after `i + 1`
    /// evaluations). The plateau comparison against random sweeps reads
    /// this curve.
    pub coverage_curve: Vec<usize>,
    /// Oracle-violating outcomes found along the way, with reproducers
    /// when shrinking was enabled.
    pub trophies: Vec<ScenarioOutcome>,
}

impl FuzzReport {
    /// Executions needed to first reach `signatures` distinct signatures,
    /// if the run ever did.
    pub fn executions_to_reach(&self, signatures: usize) -> Option<usize> {
        self.coverage_curve
            .iter()
            .position(|&n| n >= signatures)
            .map(|i| i + 1)
    }
}

/// Evolve `corpus` under `cfg`: derive mutants from coverage-novel
/// parents, evaluate them in parallel batches, keep whatever reaches a new
/// signature. Deterministic from `cfg.root_seed` and the starting corpus —
/// across runs and across rayon worker counts (candidate derivation and
/// corpus merging are sequential; the parallel evaluation preserves batch
/// order and touches no shared state).
pub fn run_fuzz(cfg: &FuzzConfig, mut corpus: Corpus) -> FuzzReport {
    let mut rng = stream_rng(cfg.root_seed, "fuzz");
    let mut executions = 0usize;
    let mut rounds = 0usize;
    let mut coverage_curve = Vec::with_capacity(cfg.budget);
    let mut trophies = Vec::new();

    let cells = StructuralCell::all();
    while executions < cfg.budget {
        let want = (cfg.budget - executions).min(cfg.batch.max(1));
        // The frontier: structural cells no corpus signature lives in yet.
        // Re-derived from the corpus each round, so a cell whose pinned
        // candidate missed (stochastic bits) is retried with fresh streams.
        let covered: BTreeSet<StructuralCell> = corpus
            .entries()
            .iter()
            .map(|e| e.signature.cell())
            .collect();
        let mut frontier = cells.iter().filter(|c| !covered.contains(c));
        // Sequential derivation: one RNG, one order.
        let candidates: Vec<ScenarioSpec> = (0..want)
            .map(|_| {
                if let Some(&cell) = frontier.next() {
                    // Frontier move: pin a corpus parent (or a fresh spec)
                    // onto an unreached structural cell.
                    let mut spec = if corpus.is_empty() {
                        ScenarioSpec::from_seed(rng.gen())
                    } else {
                        let parent = rng.gen_range(0..corpus.len());
                        corpus.entry(parent).spec.clone()
                    };
                    pin_to_cell(&mut spec, cell, &mut rng);
                    spec
                } else if corpus.is_empty() || rng.gen_bool(cfg.fresh_prob) {
                    ScenarioSpec::from_seed(rng.gen())
                } else {
                    let parent = rng.gen_range(0..corpus.len());
                    let donor = rng.gen_range(0..corpus.len());
                    mutate(
                        &corpus.entry(parent).spec,
                        &corpus.entry(donor).spec,
                        &mut rng,
                    )
                }
            })
            .collect();

        // Parallel evaluation (order-preserving, no shared state).
        let runs: Vec<ScenarioRun> = candidates
            .par_iter()
            .map(|spec| run_scenario(spec, &cfg.oracles))
            .collect();

        // Sequential merge, in batch order.
        for (spec, run) in candidates.into_iter().zip(runs) {
            executions += 1;
            if let Some(digest) = &run.digest {
                let signature = CoverageSignature::capture(&spec, digest);
                corpus.add(spec.clone(), signature);
            }
            coverage_curve.push(corpus.len());
            if !run.violations.is_empty() {
                let tests_run = run.tests_run();
                let reproducer = if cfg.shrink_failures {
                    shrink(&spec, &cfg.oracles)
                } else {
                    None
                };
                trophies.push(ScenarioOutcome {
                    seed: spec.seed,
                    spec,
                    violations: run.violations,
                    reproducer,
                    tests_run,
                });
            }
        }
        rounds += 1;
    }

    FuzzReport {
        corpus,
        executions,
        rounds,
        coverage_curve,
        trophies,
    }
}

/// The random baseline the fuzzer is judged against: sweep `seeds` through
/// coverage capture only (no oracles) and return the corpus a pure-random
/// search of that budget reaches, plus its coverage curve. Evaluations run
/// rayon-parallel; the curve is folded in seed order.
pub fn random_coverage(seeds: &[u64]) -> (Corpus, Vec<usize>) {
    let runs: Vec<(ScenarioSpec, ScenarioRun)> = seeds
        .par_iter()
        .map(|&seed| {
            let spec = ScenarioSpec::from_seed(seed);
            let run = run_scenario(&spec, &Oracles::none());
            (spec, run)
        })
        .collect();
    let mut corpus = Corpus::new();
    let mut curve = Vec::with_capacity(seeds.len());
    for (spec, run) in runs {
        if let Some(digest) = &run.digest {
            let signature = CoverageSignature::capture(&spec, digest);
            corpus.add(spec, signature);
        }
        curve.push(corpus.len());
    }
    (corpus, curve)
}
