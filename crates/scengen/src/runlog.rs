//! Replayable per-run artifacts: scenario, engine, digest, event log.
//!
//! A run log is everything one campaign run leaves behind — the exact
//! [`ScenarioSpec`] it lowered, which engine drove it, the bitwise
//! [`CampaignDigest`] it produced, and the structured
//! [`EventLog`](ttt_sim::EventLog) of what happened along the way (fault
//! arrivals and repairs, RPC outcomes, job lifecycle, wake reasons,
//! digest checkpoints). [`run_logged`] produces one; [`replay_run_log`]
//! consumes one from disk, re-drives the campaign from the embedded spec,
//! and bitwise-diffs both the digest and the observable event stream
//! against the original — the determinism claim, checked end to end from
//! an on-disk artifact.
//!
//! Event recording is purely observational: a recorded run and a silent
//! run of the same spec produce identical digests (pinned by a test
//! here), so logging a run never changes what it reproduces.

use crate::artifact::{from_envelope, ReplayError};
use crate::grammar::ScenarioSpec;
use crate::oracle::CampaignDigest;
use serde::{Deserialize, Serialize};
use ttt_core::{Campaign, Engine};
use ttt_sim::EventLog;

/// Format version of run-log artifacts, matched exactly on load.
///
/// v2: the spec became an embedded `scenario.v1` document.
pub const RUN_LOG_VERSION: u32 = 2;

/// Stable on-disk name of each engine (the `Engine` enum is not part of
/// any serialization surface, so the artifact carries a string).
pub fn engine_name(engine: Engine) -> &'static str {
    match engine {
        Engine::NextEvent => "next-event",
        Engine::Lockstep => "lockstep",
        Engine::ParallelSite => "parallel-site",
    }
}

/// Inverse of [`engine_name`].
pub fn parse_engine(name: &str) -> Option<Engine> {
    match name {
        "next-event" => Some(Engine::NextEvent),
        "lockstep" => Some(Engine::Lockstep),
        "parallel-site" => Some(Engine::ParallelSite),
        _ => None,
    }
}

/// One run's replayable record.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunLogArtifact {
    /// Artifact format version ([`RUN_LOG_VERSION`]).
    pub version: u32,
    /// Which engine drove the run (see [`engine_name`]).
    pub engine: String,
    /// The exact spec the run lowered (a `scenario.v1` document on disk).
    pub spec: ScenarioSpec,
    /// The digest the run produced, floats bitwise.
    pub digest: CampaignDigest,
    /// The structured event stream of the run.
    pub events: EventLog,
}

impl RunLogArtifact {
    /// Serialize to the version-tagged JSON envelope.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("run log serializes")
    }

    /// Parse an artifact. A version other than [`RUN_LOG_VERSION`], or a
    /// parse failure, is a [`ReplayError`] (with the file path when the
    /// caller attaches one), never a panic.
    pub fn from_json(json: &str) -> Result<RunLogArtifact, ReplayError> {
        from_envelope(json, "run log", RUN_LOG_VERSION)
    }
}

/// Run `spec` under `engine` with event recording on, and package the
/// result as a replayable artifact.
pub fn run_logged(spec: &ScenarioSpec, engine: Engine) -> RunLogArtifact {
    let mut campaign = Campaign::new(spec.campaign_config(engine));
    campaign.record_events();
    campaign.run();
    let events = campaign
        .take_event_log()
        .expect("recording was enabled before the run");
    RunLogArtifact {
        version: RUN_LOG_VERSION,
        engine: engine_name(engine).to_string(),
        spec: spec.clone(),
        digest: CampaignDigest::capture(&campaign),
        events,
    }
}

/// The outcome of replaying a run log: the fresh run's digest and events,
/// diffed against the artifact's.
#[derive(Debug, Clone)]
pub struct RunLogReplay {
    /// Digest fields that diverged (empty on a faithful replay; the
    /// field names come from [`CampaignDigest::diff`], which excludes the
    /// engine-private wake-reason mix).
    pub digest_diff: Vec<&'static str>,
    /// Whether the observable event streams (everything but `Wake`, which
    /// only the next-event engine emits) match exactly.
    pub events_match: bool,
    /// The digest the replay produced.
    pub digest: CampaignDigest,
    /// The event log the replay produced.
    pub events: EventLog,
}

impl RunLogReplay {
    /// Did the replay reproduce the original run bit-for-bit?
    pub fn is_identical(&self) -> bool {
        self.digest_diff.is_empty() && self.events_match
    }
}

/// Re-drive the campaign recorded in `artifact` and bitwise-diff the
/// result against it. An unknown engine name is a [`ReplayError`] — it
/// means the artifact came from a newer build, not that the run diverged.
pub fn replay_run_log(artifact: &RunLogArtifact) -> Result<RunLogReplay, ReplayError> {
    let engine = parse_engine(&artifact.engine).ok_or_else(|| {
        ReplayError::parse(format!("unknown engine {:?} in run log", artifact.engine))
    })?;
    let fresh = run_logged(&artifact.spec, engine);
    Ok(RunLogReplay {
        digest_diff: fresh.digest.diff(&artifact.digest),
        events_match: fresh.events.observably_equal(&artifact.events),
        digest: fresh.digest,
        events: fresh.events,
    })
}

/// [`replay_run_log`] from a file on disk, every failure attributed to
/// the path — the shape CI uses to re-check an uploaded trophy log.
pub fn replay_run_log_file(path: &std::path::Path) -> Result<RunLogReplay, ReplayError> {
    let shown = path.display().to_string();
    let json = std::fs::read_to_string(path)
        .map_err(|e| ReplayError::parse(format!("cannot read file: {e}")).with_path(&shown))?;
    let artifact = RunLogArtifact::from_json(&json).map_err(|e| e.with_path(&shown))?;
    replay_run_log(&artifact).map_err(|e| e.with_path(&shown))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::ReplayErrorKind;
    use crate::oracle::run_campaign;

    #[test]
    fn recording_does_not_change_the_campaign() {
        // The event log is observational: a recorded run must produce the
        // same digest, bit for bit, as a silent run of the same spec.
        let spec = ScenarioSpec::from_seed(5);
        let silent = CampaignDigest::capture(&run_campaign(&spec, Engine::NextEvent));
        let logged = run_logged(&spec, Engine::NextEvent);
        assert_eq!(logged.digest.diff(&silent), Vec::<&str>::new());
        assert!(!logged.events.is_empty(), "a campaign run must leave events");
    }

    #[test]
    fn run_log_roundtrips_and_replays_identically() {
        let spec = ScenarioSpec::from_seed(8);
        let artifact = run_logged(&spec, Engine::NextEvent);
        let json = artifact.to_json();
        let back = RunLogArtifact::from_json(&json).unwrap();
        assert_eq!(back, artifact);
        let replay = replay_run_log(&back).unwrap();
        assert!(
            replay.is_identical(),
            "replay diverged: digest fields {:?}, events_match {}",
            replay.digest_diff,
            replay.events_match
        );
    }

    #[test]
    fn every_engine_replays_its_own_log() {
        let spec = ScenarioSpec::from_seed(2);
        for engine in [Engine::NextEvent, Engine::Lockstep, Engine::ParallelSite] {
            let artifact = run_logged(&spec, engine);
            let replay = replay_run_log(&artifact).unwrap();
            assert!(replay.is_identical(), "{} replay diverged", artifact.engine);
        }
    }

    #[test]
    fn engines_agree_on_the_observable_event_stream() {
        // Wake events are engine-private; everything else is part of the
        // campaign's observable behaviour and must match across engines.
        let spec = ScenarioSpec::from_seed(4);
        let next_event = run_logged(&spec, Engine::NextEvent);
        for engine in [Engine::Lockstep, Engine::ParallelSite] {
            let other = run_logged(&spec, engine);
            assert!(
                next_event.events.observably_equal(&other.events),
                "{} event stream diverges from next-event",
                other.engine
            );
        }
    }

    #[test]
    fn tampered_artifacts_are_reported_not_replayed() {
        // Older logs (v1 embedded the serde-derived spec) are reported,
        // never migrated.
        for found in [1, 99] {
            match RunLogArtifact::from_json(&format!("{{\"version\": {found}}}")) {
                Err(ReplayError {
                    kind: ReplayErrorKind::Version { found: f, .. },
                    ..
                }) if f == found => {}
                other => panic!("expected version error, got {other:?}"),
            }
        }
        assert!(RunLogArtifact::from_json("not json").is_err());
        assert!(RunLogArtifact::from_json("{\"engine\": \"next-event\"}").is_err());

        let mut artifact = run_logged(&ScenarioSpec::from_seed(3), Engine::NextEvent);
        artifact.engine = "quantum".to_string();
        assert!(replay_run_log(&artifact).is_err());
    }

    #[test]
    fn run_log_file_errors_name_the_file() {
        let dir = std::env::temp_dir().join("ttt-runlog-file-error-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("stale.json");
        std::fs::write(&path, "{\"version\": 1, \"engine\": \"next-event\"}").unwrap();
        let err = replay_run_log_file(&path).unwrap_err();
        assert_eq!(
            err.path.as_deref(),
            Some(path.display().to_string().as_str())
        );
        let shown = err.to_string();
        assert!(shown.contains("stale.json"), "path missing from: {shown}");
        assert!(
            shown.contains("run log version 1"),
            "cause missing from: {shown}"
        );

        let missing = replay_run_log_file(&dir.join("absent.json")).unwrap_err();
        assert!(missing.to_string().contains("absent.json"));
        std::fs::remove_dir_all(&dir).ok();
    }
}
