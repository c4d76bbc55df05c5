//! The one error type of every on-disk artifact, and the one envelope
//! check corpora and run logs share.
//!
//! A reproducer dump is a bare `scenario.v1` document; a corpus and a run
//! log wrap `scenario.v1` specs in a `{"version": N, …}` envelope around
//! their own payload (signatures; digest and events). That envelope
//! version is matched exactly: an older or newer file is reported as
//! incompatible and never migrated. Every failure is a [`ReplayError`],
//! never a panic, and carries the file it came from when the caller
//! knows it — a stale `--corpus` or `--replay-log` reports
//! `corpus.json: corpus version 3 incompatible…`, not an anonymous error.

use serde::{Deserialize, Value};
use std::fmt;

/// Why an artifact could not be loaded or replayed — and, when it came
/// off disk, *which file* it was.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplayError {
    /// The file the artifact was read from, when known.
    pub path: Option<String>,
    /// What actually went wrong.
    pub kind: ReplayErrorKind,
}

/// The failure itself, independent of where the artifact came from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplayErrorKind {
    /// The envelope declares a format version this build does not read.
    Version {
        /// Which artifact ("corpus", "run log").
        artifact: &'static str,
        /// The version the file declares.
        found: i64,
        /// The one version this build reads.
        reads: u32,
    },
    /// The file is unreadable, not valid JSON, or not a valid artifact of
    /// its kind (including an embedded spec the `scenario.v1` validator
    /// rejects).
    Parse(String),
}

impl ReplayError {
    /// A parse error with no file attached.
    pub fn parse(message: impl Into<String>) -> Self {
        ReplayError {
            path: None,
            kind: ReplayErrorKind::Parse(message.into()),
        }
    }

    /// The same error, attributed to the file it came from.
    pub fn with_path(mut self, path: impl Into<String>) -> Self {
        self.path = Some(path.into());
        self
    }
}

impl fmt::Display for ReplayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(path) = &self.path {
            write!(f, "{path}: ")?;
        }
        match &self.kind {
            ReplayErrorKind::Version {
                artifact,
                found,
                reads,
            } => write!(
                f,
                "{artifact} version {found} incompatible with this build (reads v{reads})"
            ),
            ReplayErrorKind::Parse(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ReplayError {}

/// Parse a `{"version": N, …}` envelope of `artifact` into `T`. The
/// version is checked first and must equal `reads` exactly, so a file
/// from another build reports its version rather than whatever field its
/// payload happens to fail on.
pub(crate) fn from_envelope<T: Deserialize>(
    json: &str,
    artifact: &'static str,
    reads: u32,
) -> Result<T, ReplayError> {
    let unreadable =
        |e: &dyn fmt::Display| ReplayError::parse(format!("unreadable {artifact}: {e}"));
    let value = serde_json::parse(json).map_err(|e| unreadable(&e))?;
    let version = value
        .as_object()
        .and_then(|fields| fields.iter().find(|(k, _)| k == "version"));
    match version {
        Some((_, Value::I64(found))) if *found == i64::from(reads) => {}
        Some((_, Value::I64(found))) => {
            return Err(ReplayError {
                path: None,
                kind: ReplayErrorKind::Version {
                    artifact,
                    found: *found,
                    reads,
                },
            })
        }
        _ => return Err(unreadable(&"no integer \"version\" field")),
    }
    T::from_value(&value).map_err(|e| unreadable(&e))
}
