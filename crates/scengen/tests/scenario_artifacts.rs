//! On-disk artifacts reproduce campaigns bit-for-bit.
//!
//! The acceptance spine of the scenario pipeline: a hand-written
//! `scenario.v1` file and a fuzzer reproducer dump (itself a `scenario.v1`
//! file) must both re-run from their on-disk form to the same
//! [`CampaignDigest`] on every engine, and no artifact parser — scenario
//! files, reproducer replay, corpora, run logs — may panic or lose
//! precision: checked here both on the checked-in examples and
//! property-style across the grammar.

use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::OnceLock;
use ttt_core::Engine;
use ttt_scengen::{
    load_scenario_file, parse_scenario, replay, run_logged, to_scenario_json, CampaignDigest,
    Corpus, CoverageSignature, Oracles, RunLogArtifact, ScenarioSpec,
};

fn digest(spec: &ScenarioSpec, engine: Engine) -> CampaignDigest {
    CampaignDigest::capture(&ttt_scengen::oracle::run_campaign(spec, engine))
}

/// Both engines agree on `spec`, and return the shared digest.
fn digest_all_engines(spec: &ScenarioSpec) -> CampaignDigest {
    let next_event = digest(spec, Engine::NextEvent);
    assert_eq!(
        digest(spec, Engine::Lockstep).diff(&next_event),
        Vec::<&str>::new(),
        "Lockstep diverges from NextEvent"
    );
    next_event
}

fn example_scenarios() -> Vec<PathBuf> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../examples/scenarios");
    let mut files: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", dir.display()))
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    files.sort();
    assert!(!files.is_empty(), "no example scenarios checked in");
    files
}

/// Every checked-in example scenario loads, round-trips bit-for-bit, and
/// reproduces one digest across both engines from its on-disk form.
#[test]
fn example_scenario_files_reproduce_identically_on_every_engine() {
    for path in example_scenarios() {
        let spec = load_scenario_file(&path)
            .unwrap_or_else(|errs| panic!("{} does not validate: {errs:?}", path.display()));
        let reparsed = parse_scenario(&to_scenario_json(&spec))
            .unwrap_or_else(|errs| panic!("{} does not round-trip: {errs:?}", path.display()));
        assert_eq!(reparsed, spec, "{} round-trip changed the spec", path.display());
        // Re-load from disk a second time: same digest — the file IS the
        // reproducer.
        let again = load_scenario_file(&path).unwrap();
        let d1 = digest_all_engines(&spec);
        let d2 = digest_all_engines(&again);
        assert_eq!(d1.diff(&d2), Vec::<&str>::new(), "{}", path.display());
    }
}

/// A fuzzer reproducer dump re-runs from disk to the identical digest on
/// every engine — the artifact loop an operator actually uses: shrink
/// writes the dump, a later build loads it as a scenario file and
/// reproduces.
#[test]
fn reproducer_dumps_reproduce_identically_on_every_engine() {
    let spec = ScenarioSpec::from_seed(17);
    let original = digest_all_engines(&spec);

    let dir = std::env::temp_dir().join("ttt-scenario-artifacts-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("repro.json");
    std::fs::write(&path, to_scenario_json(&spec)).unwrap();

    let loaded = load_scenario_file(&path).unwrap();
    assert_eq!(loaded, spec, "dump round-trip changed the spec");
    let replayed = digest_all_engines(&loaded);
    assert_eq!(replayed.diff(&original), Vec::<&str>::new());
    std::fs::remove_dir_all(&dir).ok();
}

/// Run-log artifacts close the loop too: the embedded spec re-drives to
/// the embedded digest on the embedded engine.
#[test]
fn run_log_artifacts_reproduce_from_disk() {
    let spec = ScenarioSpec::from_seed(23);
    let artifact = run_logged(&spec, Engine::NextEvent);

    let dir = std::env::temp_dir().join("ttt-runlog-artifacts-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("run.json");
    std::fs::write(&path, artifact.to_json()).unwrap();

    let replay = ttt_scengen::replay_run_log_file(&path).unwrap();
    assert!(
        replay.is_identical(),
        "replay diverged: digest fields {:?}, events_match {}",
        replay.digest_diff,
        replay.events_match
    );
    std::fs::remove_dir_all(&dir).ok();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Grammar spec → scenario file → parse → bit-identical spec. Spec
    /// equality is digest equality: lowering is a pure function of the
    /// spec, so the file format never perturbs a campaign.
    #[test]
    fn any_grammar_spec_roundtrips_through_the_file_format(seed in 0u64..u64::MAX) {
        let spec = ScenarioSpec::from_seed(seed);
        let json = to_scenario_json(&spec);
        let back = parse_scenario(&json)
            .unwrap_or_else(|errs| panic!("seed {seed} does not re-validate: {errs:?}"));
        prop_assert_eq!(back, spec);
    }

    /// Corrupting a valid artifact never panics its parser: a scenario
    /// file either still validates or reports non-empty, path-qualified
    /// errors, and reproducer replay, corpora and run logs either still
    /// load or return a non-empty [`ttt_scengen::ReplayError`].
    #[test]
    fn corrupted_scenario_files_error_cleanly(
        seed in 0u64..64,
        cut in 0usize..100_000,
        junk in prop::collection::vec(0x20u8..0x7f, 0..24),
    ) {
        // Splice arbitrary printable bytes mid-document (the artifacts are
        // ASCII JSON, so any byte index is a char boundary).
        let junk = String::from_utf8(junk).expect("printable ASCII");
        let splice = |doc: &str| {
            let at = cut % (doc.len() + 1);
            format!("{}{}{}", &doc[..at], junk, &doc[at..])
        };
        match parse_scenario(&splice(&to_scenario_json(&ScenarioSpec::from_seed(seed)))) {
            Ok(_) => {} // corruption happened to stay valid (e.g. whitespace)
            Err(errors) => {
                prop_assert!(!errors.is_empty());
                for e in &errors {
                    prop_assert!(!e.message.is_empty());
                }
            }
        }
        let docs = artifact_docs();
        if let Err(e) = replay(&splice(&docs.dump), &Oracles::none()) {
            prop_assert!(!e.to_string().is_empty());
        }
        if let Err(e) = Corpus::from_json(&splice(&docs.corpus)) {
            prop_assert!(!e.to_string().is_empty());
        }
        if let Err(e) = RunLogArtifact::from_json(&splice(&docs.run_log)) {
            prop_assert!(!e.to_string().is_empty());
        }
    }
}

/// One valid document of each artifact kind, built once for the splice
/// test: a short campaign's reproducer dump, a one-entry corpus and a
/// run log.
struct ArtifactDocs {
    dump: String,
    corpus: String,
    run_log: String,
}

fn artifact_docs() -> &'static ArtifactDocs {
    static DOCS: OnceLock<ArtifactDocs> = OnceLock::new();
    DOCS.get_or_init(|| {
        let mut spec = ScenarioSpec::from_seed(5);
        spec.duration_hours = 12;
        let log = run_logged(&spec, Engine::NextEvent);
        let mut corpus = Corpus::new();
        corpus.add(spec.clone(), CoverageSignature::capture(&spec, &log.digest));
        ArtifactDocs {
            dump: to_scenario_json(&spec),
            corpus: corpus.to_json(),
            run_log: log.to_json(),
        }
    })
}
