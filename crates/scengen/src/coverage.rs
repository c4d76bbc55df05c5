//! Behavioral coverage signatures: the feedback signal of the fuzzer.
//!
//! A [`CoverageSignature`] compresses a finished campaign's
//! [`CampaignDigest`] (plus the structural dimensions of its
//! [`ScenarioSpec`]) into a small discrete fingerprint. Two scenarios with
//! the same signature are behaviorally interchangeable as far as the
//! swarm's oracles are concerned — running both buys nothing over running
//! one — so the fuzzer keeps a corpus of signature-novel specs and spends
//! its budget mutating those.
//!
//! ## Granularity is the whole game
//!
//! The signature must be *coarse*. Measured on this grammar: fingerprint
//! campaigns by their full digest feature set (per-kind injection counts,
//! the 14-bit wake-reason mask, bucketed deferral/spillover counts, …) and
//! a 256-seed random sweep produces 251 distinct signatures — every
//! scenario is "novel", the corpus is the whole history, and coverage
//! guidance degenerates to random search. Each digest feature therefore
//! folds to the bit that separates behavioral *regimes*:
//!
//! * **fault kinds injected × detected** → did a *site-scoped* kind ever
//!   inject (the dimension that splits single-domain from federated
//!   failure handling), and did the pipeline detect *anything*;
//! * **engine wake-reason mix** → did stochastic arrivals ever drive the
//!   timeline, and did the engine ever find a quiet stretch to jump;
//! * **per-site spillovers / co-allocation events** → did federated
//!   placement ever move or split work across sites;
//! * **scheduler mode**, rollout pattern and site count are kept exact —
//!   they are the structural axes the mutators steer directly.
//!
//! Saturation and blackout *episode counts* stay in the digest (they are
//! engine-equivalence observables and appear in swarm reports) but are
//! deliberately not part of the novelty key: measured over the same
//! 256-seed sweep, adding even a folded stressed bit pushes the random
//! plateau past what any 64-execution budget could match (65–75 distinct),
//! while contributing no mutator-steerable axis that the load and
//! fault-rate dimensions do not already cover.

use crate::grammar::{ModeDim, RolloutDim, ScenarioSpec};
use crate::oracle::CampaignDigest;
use serde::{Deserialize, Serialize};
use ttt_core::campaign::WAKE_REASONS;
use ttt_testbed::FaultKind;

/// Whether a fault-kind name (a digest ledger key) is site-scoped.
fn is_site_kind(kind_name: &str) -> bool {
    FaultKind::SITE_SCOPED.iter().any(|k| k.name() == kind_name)
}

/// Index of a wake-reason label in [`WAKE_REASONS`].
fn wake_index(label: &str) -> Option<usize> {
    WAKE_REASONS.iter().position(|r| *r == label)
}

/// A campaign's behavioral fingerprint: three structural axes kept exact,
/// five behavioral regime bits folded from the digest.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub struct CoverageSignature {
    /// Scheduling mode: 0 external, 1 naive cron.
    pub mode: u8,
    /// Rollout pattern: 0 all-at-start, 1 staged, 2 no-testing.
    pub rollout: u8,
    /// Distinct sites the topology spans (1–4 or 8 from the grammar and
    /// the structural cells; wider for hand-grown grid-of-grids specs —
    /// `u16` so a 300-site world is not clamped into the 255 bucket).
    pub sites: u16,
    /// A site-scoped fault kind (outage, partition, skew) was injected.
    pub site_faults_injected: bool,
    /// The testing pipeline attributed at least one diagnostic to a fault.
    pub any_fault_detected: bool,
    /// Federated placement fired: work spilled to a remote site or a
    /// cross-site request was co-allocated.
    pub federated_placement: bool,
    /// A stochastic arrival (user job or fault) won a next-event wake —
    /// the timeline was driven by the world, not only by cadences.
    pub arrival_driven: bool,
    /// The next-event engine found at least one quiet stretch with nothing
    /// pending anywhere.
    pub quiet_stretch: bool,
    /// A service process was killed (crash or bounded restart) — the
    /// killable-process dimension of the scenario.
    pub service_crash_seen: bool,
    /// A site's RPC link was degraded (injected latency/loss).
    pub rpc_degraded_seen: bool,
}

impl CoverageSignature {
    /// Fingerprint one finished campaign.
    pub fn capture(spec: &ScenarioSpec, digest: &CampaignDigest) -> Self {
        let wake_bit = |label: &str| {
            let idx = wake_index(label);
            digest
                .wake_reasons
                .iter()
                .any(|(r, n)| *n > 0 && wake_index(r) == idx)
        };
        CoverageSignature {
            mode: match spec.mode {
                ModeDim::External => 0,
                ModeDim::NaiveCron { .. } => 1,
            },
            rollout: match spec.rollout {
                RolloutDim::AllAtStart => 0,
                RolloutDim::Staged { .. } => 1,
                RolloutDim::NoTesting => 2,
            },
            sites: spec.site_count().min(u16::MAX as usize) as u16,
            site_faults_injected: digest
                .injected_by_kind
                .iter()
                .any(|(k, n)| *n > 0 && is_site_kind(k)),
            any_fault_detected: digest.detected_by_kind.iter().any(|(_, n)| *n > 0),
            federated_placement: digest.spillovers > 0 || digest.co_allocations > 0,
            arrival_driven: wake_bit("user-arrival") || wake_bit("fault-arrival"),
            quiet_stretch: wake_bit("quiet"),
            service_crash_seen: digest.injected_by_kind.iter().any(|(k, n)| {
                *n > 0 && (k == FaultKind::ServiceCrash.name() || k == FaultKind::ServiceRestart.name())
            }),
            rpc_degraded_seen: digest
                .injected_by_kind
                .iter()
                .any(|(k, n)| *n > 0 && k == FaultKind::RpcDegraded.name()),
        }
    }

    /// The structural cell this signature lives in — the axes a mutator
    /// can pin deterministically. The fuzzer enumerates unseen cells as
    /// its frontier (see [`crate::swarm::run_fuzz`]).
    pub fn cell(&self) -> StructuralCell {
        StructuralCell {
            mode: self.mode,
            rollout: self.rollout,
            sites: self.sites,
            site_faults: self.site_faults_injected,
            calm: !self.arrival_driven,
            service_faults: self.service_crash_seen || self.rpc_degraded_seen,
        }
    }
}

/// A point of the spec-controlled sub-lattice: scheduling mode × rollout ×
/// site count × whether site-scoped faults are in play × whether the world
/// is calm (no stochastic arrivals at all). Every cell is constructible by
/// direct spec surgery, so the fuzzer can walk the whole lattice instead
/// of waiting for random draws to land on rare corners.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct StructuralCell {
    /// 0 external, 1 naive cron.
    pub mode: u8,
    /// 0 all-at-start, 1 staged, 2 no-testing.
    pub rollout: u8,
    /// Sites the topology must span (1–4, or 8 for the large-scale cells).
    pub sites: u16,
    /// Whether site-scoped fault kinds should be injected.
    pub site_faults: bool,
    /// Whether the world should be arrival-free (no faults, no users, no
    /// maintenance, no burden).
    pub calm: bool,
    /// Whether service-process fault kinds (crash, bounded restart, RPC
    /// degradation) should be injected, with buggify armed.
    pub service_faults: bool,
}

impl StructuralCell {
    /// Every meaningful cell, in a stable order. Calm cells with site
    /// faults are contradictory (calm means *no* fault arrivals) and are
    /// skipped: 2 modes × 3 rollouts × 4 site counts × 3 regimes = 72,
    /// plus a large-scale block (sites = 8, same mode/rollout/regime
    /// cross) appended at the end so wide federations get coverage
    /// without reordering the original frontier (72 + 18 = 90),
    /// plus a service-chaos block (service faults + buggify armed, 2 and
    /// 8 sites) appended after that: 90 + 12 = 102.
    pub fn all() -> Vec<StructuralCell> {
        let mut out = Vec::with_capacity(102);
        for mode in 0..2u8 {
            for rollout in 0..3u8 {
                for sites in 1..=4u16 {
                    for (site_faults, calm) in [(false, false), (true, false), (false, true)] {
                        out.push(StructuralCell {
                            mode,
                            rollout,
                            sites,
                            site_faults,
                            calm,
                            service_faults: false,
                        });
                    }
                }
            }
        }
        // Large-scale cells last: the fuzzer walks this list as its
        // frontier, so appending keeps every pre-existing seed's walk
        // byte-identical while still making 8-site worlds reachable.
        for mode in 0..2u8 {
            for rollout in 0..3u8 {
                for (site_faults, calm) in [(false, false), (true, false), (false, true)] {
                    out.push(StructuralCell {
                        mode,
                        rollout,
                        sites: 8,
                        site_faults,
                        calm,
                        service_faults: false,
                    });
                }
            }
        }
        // Service-chaos cells appended last, same frontier discipline:
        // every killable-process kind in the mix, buggify armed, on a
        // small federated world and the large-scale one.
        for mode in 0..2u8 {
            for rollout in 0..3u8 {
                for sites in [2u16, 8] {
                    out.push(StructuralCell {
                        mode,
                        rollout,
                        sites,
                        site_faults: false,
                        calm: false,
                        service_faults: true,
                    });
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::run_campaign;
    use ttt_core::Engine;

    fn signature_of_seed(seed: u64) -> CoverageSignature {
        let spec = ScenarioSpec::from_seed(seed);
        let digest = CampaignDigest::capture(&run_campaign(&spec, Engine::NextEvent));
        CoverageSignature::capture(&spec, &digest)
    }

    #[test]
    fn every_site_kind_classifies() {
        for kind in FaultKind::SITE_SCOPED {
            assert!(is_site_kind(kind.name()));
        }
        assert!(!is_site_kind(FaultKind::ConsoleDead.name()));
        assert!(!is_site_kind("not-a-kind"));
    }

    #[test]
    fn signature_is_deterministic_and_varies_across_seeds() {
        assert_eq!(signature_of_seed(1), signature_of_seed(1));
        let sigs: std::collections::BTreeSet<CoverageSignature> =
            (1..=8).map(signature_of_seed).collect();
        assert!(sigs.len() > 1, "eight seeds collapsed onto one signature");
    }

    #[test]
    fn signature_roundtrips_through_json() {
        let sig = signature_of_seed(3);
        let json = serde_json::to_string(&sig).unwrap();
        let back: CoverageSignature = serde_json::from_str(&json).unwrap();
        assert_eq!(sig, back);
    }

    #[test]
    fn cells_enumerate_the_lattice_once() {
        let cells = StructuralCell::all();
        assert_eq!(cells.len(), 102);
        let mut dedup = cells.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), cells.len(), "duplicate cells");
        assert!(cells.iter().all(|c| !(c.calm && c.site_faults)));
        // The original 90-cell prefix must stay in place: the fuzzer's
        // frontier order is part of every pinned seed's replay.
        assert!(cells[..72].iter().all(|c| c.sites <= 4 && !c.service_faults));
        assert!(cells[72..90].iter().all(|c| c.sites == 8 && !c.service_faults));
        assert!(cells[90..].iter().all(|c| c.service_faults && !c.calm && !c.site_faults));
    }

    #[test]
    fn site_counts_beyond_255_do_not_saturate() {
        // Regression: `sites` was a u8 clamped via `min(u8::MAX)`, so a
        // 256-site and a 300-site world shared one signature bucket and
        // the coverage search could never tell grid-of-grids scales apart.
        let mk = |n_sites: usize| {
            let mut spec = ScenarioSpec::from_seed(1);
            spec.clusters = (0..n_sites)
                .map(|i| {
                    ttt_testbed::gen::ClusterSpec::new(
                        &format!("wide-c{i}"),
                        &crate::grammar::site_name(i),
                        1,
                        8,
                        ttt_testbed::hardware::Vendor::Dell,
                        false,
                        true,
                    )
                })
                .collect();
            spec
        };
        let wide = mk(300);
        assert_eq!(wide.site_count(), 300);
        // The site axis comes from the spec alone, so one cheap digest
        // (from the small base scenario) serves both signatures.
        let digest = CampaignDigest::capture(&run_campaign(&ScenarioSpec::from_seed(1), Engine::NextEvent));
        let sig_300 = CoverageSignature::capture(&wide, &digest);
        let sig_256 = CoverageSignature::capture(&mk(256), &digest);
        assert_eq!(sig_300.sites, 300);
        assert_eq!(sig_256.sites, 256);
        assert_ne!(sig_300, sig_256, "wide site counts must not collapse");
        assert_eq!(sig_300.cell().sites, 300);
    }

    #[test]
    fn structural_axes_come_from_the_spec() {
        let spec = ScenarioSpec::from_seed(6);
        let digest = CampaignDigest::capture(&run_campaign(&spec, Engine::NextEvent));
        let sig = CoverageSignature::capture(&spec, &digest);
        assert_eq!(sig.sites as usize, spec.site_count());
        let mode = match spec.mode {
            ModeDim::External => 0,
            ModeDim::NaiveCron { .. } => 1,
        };
        assert_eq!(sig.mode, mode);
    }
}
