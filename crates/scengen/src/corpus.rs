//! The fuzzer's corpus: every coverage-novel scenario, with its signature.
//!
//! The corpus is the fuzzer's memory — one [`CorpusEntry`] per distinct
//! [`CoverageSignature`] ever observed, holding the first spec that
//! reached it. Mutation parents and splice donors are drawn from here, so
//! the search walks outward from behaviorally distinct points instead of
//! resampling the dense center of the seed distribution.
//!
//! Corpora persist as a version-tagged JSON envelope whose entry specs
//! are `scenario.v1` documents: a corpus written under another envelope
//! version loads as a reported error, never a panic, so CI can carry a
//! corpus across revisions and fall back to a fresh one when the format
//! moves.

use crate::artifact::{from_envelope, ReplayError};
use crate::coverage::CoverageSignature;
use crate::grammar::ScenarioSpec;
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// Format version of serialized corpora, matched exactly on load. Bump
/// when the envelope or [`CoverageSignature`] changes; spec changes live
/// in the embedded `scenario.v1` documents and need no bump.
///
/// v4: entry specs became `scenario.v1` documents.
pub const CORPUS_VERSION: u32 = 4;

/// One coverage-novel scenario: the first spec observed to produce its
/// signature.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CorpusEntry {
    /// The spec that reached the signature.
    pub spec: ScenarioSpec,
    /// The behavioral signature it produced.
    pub signature: CoverageSignature,
}

/// Serialized corpus envelope.
#[derive(Serialize, Deserialize)]
struct CorpusFile {
    version: u32,
    entries: Vec<CorpusEntry>,
}

/// The set of coverage-novel scenarios found so far, insertion-ordered.
#[derive(Debug, Clone, Default)]
pub struct Corpus {
    entries: Vec<CorpusEntry>,
    seen: BTreeSet<CoverageSignature>,
}

impl Corpus {
    /// An empty corpus.
    pub fn new() -> Self {
        Corpus::default()
    }

    /// Number of entries (= distinct signatures).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the corpus holds nothing yet.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The entries, in the order their signatures were first reached.
    pub fn entries(&self) -> &[CorpusEntry] {
        &self.entries
    }

    /// One entry by index.
    pub fn entry(&self, i: usize) -> &CorpusEntry {
        &self.entries[i]
    }

    /// Whether a signature is already covered.
    pub fn covers(&self, signature: &CoverageSignature) -> bool {
        self.seen.contains(signature)
    }

    /// Admit `spec` if its signature is novel. Returns true when the entry
    /// was added (the scenario found new behavior).
    pub fn add(&mut self, spec: ScenarioSpec, signature: CoverageSignature) -> bool {
        if !self.seen.insert(signature.clone()) {
            return false;
        }
        self.entries.push(CorpusEntry { spec, signature });
        true
    }

    /// Serialize to the version-tagged JSON envelope.
    pub fn to_json(&self) -> String {
        serde_json::to_string(&CorpusFile {
            version: CORPUS_VERSION,
            entries: self.entries.clone(),
        })
        .expect("corpus serializes")
    }

    /// Parse a corpus from its JSON envelope. A version other than
    /// [`CORPUS_VERSION`], or a parse failure, is a [`ReplayError`], not a
    /// panic — callers (the CLI, CI) report it and start from an empty
    /// corpus.
    pub fn from_json(json: &str) -> Result<Corpus, ReplayError> {
        let file: CorpusFile = from_envelope(json, "corpus", CORPUS_VERSION)?;
        let mut corpus = Corpus::new();
        for entry in file.entries {
            corpus.add(entry.spec, entry.signature);
        }
        Ok(corpus)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coverage::CoverageSignature;
    use crate::oracle::{run_campaign, CampaignDigest};
    use ttt_core::Engine;

    fn entry_for(seed: u64) -> (ScenarioSpec, CoverageSignature) {
        let spec = ScenarioSpec::from_seed(seed);
        let digest = CampaignDigest::capture(&run_campaign(&spec, Engine::NextEvent));
        let sig = CoverageSignature::capture(&spec, &digest);
        (spec, sig)
    }

    #[test]
    fn add_deduplicates_on_signature() {
        let mut corpus = Corpus::new();
        let (spec, sig) = entry_for(1);
        assert!(corpus.add(spec.clone(), sig.clone()));
        assert!(!corpus.add(spec, sig.clone()), "same signature admitted twice");
        assert_eq!(corpus.len(), 1);
        assert!(corpus.covers(&sig));
    }

    #[test]
    fn corpus_roundtrips_through_json() {
        let mut corpus = Corpus::new();
        for seed in 1..=6 {
            let (spec, sig) = entry_for(seed);
            corpus.add(spec, sig);
        }
        let json = corpus.to_json();
        let back = Corpus::from_json(&json).unwrap();
        assert_eq!(back.entries(), corpus.entries());
    }

    #[test]
    fn incompatible_corpus_is_an_error_not_a_panic() {
        assert!(Corpus::from_json("not json").is_err());
        assert!(Corpus::from_json("{\"entries\": []}").is_err());
        // Older corpora are reported, never migrated; the version is
        // checked before the entries parse, so a corpus whose entry shape
        // changed still reports the version, not a field error.
        for found in [3, 99] {
            let stale = format!("{{\"version\": {found}, \"entries\": [{{\"bogus\": 1}}]}}");
            let err = Corpus::from_json(&stale).unwrap_err().to_string();
            assert!(
                err.contains(&format!("corpus version {found}")),
                "unhelpful error: {err}"
            );
        }
        // A current envelope whose spec fails the scenario.v1 validator.
        let (spec, sig) = entry_for(2);
        let mut corpus = Corpus::new();
        corpus.add(spec, sig);
        let broken = corpus
            .to_json()
            .replace("\"scenario.v1\"", "\"scenario.v0\"");
        let err = Corpus::from_json(&broken).unwrap_err().to_string();
        assert!(err.contains("scenario.v0"), "unhelpful error: {err}");
    }
}
