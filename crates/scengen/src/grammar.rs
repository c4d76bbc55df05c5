//! The scenario grammar: a seeded composition of every campaign dimension.
//!
//! Any `u64` seed expands deterministically into a [`ScenarioSpec`] —
//! testbed topology (cluster count, size, heterogeneity), fault mix over
//! every [`FaultKind`], user-load and rollout patterns, scheduling mode,
//! tick grid and horizon — and a spec lowers into a runnable
//! [`CampaignConfig`] for either engine. Specs serialize as `scenario.v1`
//! documents ([`crate::scenario_file`]) so a failing swarm seed can be
//! dumped, shrunk and replayed as a one-line test (see [`crate::shrink`]).
//!
//! The dimension bounds are deliberately small: the swarm re-runs every
//! scenario under both engines, so a scenario must stay in the
//! "lockstep is affordable" regime (≤ 48 nodes, ≤ 10 days, tick ≥ 10 min).

use rand::seq::SliceRandom;
use rand::Rng;
use ttt_core::{CampaignConfig, Engine, Rollout, SchedulingMode, TestbedScale};
use ttt_jobsched::PolicyConfig;
use ttt_oar::userload::UserLoadConfig;
use ttt_sim::rng::stream_rng;
use ttt_sim::{SimDuration, SimTime};
use ttt_suite::Family;
use ttt_testbed::gen::ClusterSpec;
use ttt_testbed::hardware::Vendor;
use ttt_testbed::{FaultKind, InjectorConfig, LinkModelSpec};

/// Hardware and time menus shared by the seed expansion ([`ScenarioSpec::
/// from_seed`]) and the structural mutators ([`crate::mutate`]) — one
/// source of truth, so extending the grammar never desynchronizes the
/// mutants from the generator.
pub(crate) const CORE_MENU: [u32; 6] = [4, 8, 12, 16, 20, 24];
pub(crate) const VENDOR_MENU: [Vendor; 4] = [Vendor::Dell, Vendor::Hp, Vendor::Bull, Vendor::Ibm];
pub(crate) const TICK_MENU: [u64; 5] = [10, 15, 20, 30, 60];
pub(crate) const CADENCE_MENU: [u64; 3] = [1, 2, 4];

/// Canonical name of the i-th generated site (clusters reference sites by
/// name; the shrinker's single-site collapse and the mutators' site
/// re-spread must agree with the generator on this scheme).
pub(crate) fn site_name(i: usize) -> String {
    format!("swarm-s{i}")
}

/// Scheduling-mode dimension.
#[derive(Debug, Clone, PartialEq)]
pub enum ModeDim {
    /// The paper's external scheduler.
    External,
    /// The naive Jenkins-cron baseline with the given period.
    NaiveCron {
        /// Cron period, hours.
        period_hours: u64,
    },
}

/// Rollout dimension.
#[derive(Debug, Clone, PartialEq)]
pub enum RolloutDim {
    /// Every family active from t=0.
    AllAtStart,
    /// Families staged in `phases` evenly-spaced waves over the first half
    /// of the horizon ("tests still being added", slide 23).
    Staged {
        /// Number of waves (≥ 1).
        phases: usize,
    },
    /// The no-testing baseline: faults accumulate silently.
    NoTesting,
}

/// A fully-expanded scenario: every campaign dimension pinned.
///
/// The spec is the replayable artifact — it serializes as a `scenario.v1`
/// document (its only serialized form, see [`crate::scenario_file`]),
/// lowers to a [`CampaignConfig`] via [`ScenarioSpec::campaign_config`],
/// and is what the shrinker mutates when minimizing a failure.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// Master seed (drives both the expansion and the campaign's streams).
    pub seed: u64,
    /// Generated topology (lowered via [`TestbedScale::Custom`]).
    pub clusters: Vec<ClusterSpec>,
    /// Campaign horizon, hours.
    pub duration_hours: u64,
    /// Decision-grid tick, minutes.
    pub tick_mins: u64,
    /// CI executor pool size.
    pub executors: usize,
    /// Fault mix: `(kind, events/day)` over any subset of the catalogue.
    pub fault_mix: Vec<(FaultKind, f64)>,
    /// Correlated maintenance events per day.
    pub maintenance_per_day: f64,
    /// Nodes touched per maintenance event (upper bound).
    pub maintenance_spread: usize,
    /// Faults pre-applied at t=0.
    pub initial_fault_burden: usize,
    /// Synthetic user load: peak jobs per day.
    pub peak_jobs_per_day: f64,
    /// User cluster affinity (0..1).
    pub cluster_affinity: f64,
    /// Probability a user job requests a whole cluster.
    pub whole_cluster_prob: f64,
    /// Scheduling mode.
    pub mode: ModeDim,
    /// Family rollout pattern.
    pub rollout: RolloutDim,
    /// Per-node hardware-test ablation (slide 23's open question).
    pub per_node_hardware: bool,
    /// Operator fixing capacity, bugs per week.
    pub operator_capacity_per_week: f64,
    /// Operator triage delay, hours.
    pub operator_triage_hours: u64,
    /// Operator-model cadence, hours.
    pub operator_cadence_hours: u64,
    /// Utilization-sampling cadence, hours.
    pub sample_cadence_hours: u64,
    /// Buggify rate for IO-shaped callsites (0.0 = off). Bare-seed
    /// expansion always leaves this off; the service-chaos cells and the
    /// `ToggleBuggify` mutator arm it.
    pub buggify_rate: f64,
    /// Backbone link model (Ideal = the historical free backbone).
    /// Bare-seed expansion always leaves this ideal; the `WarpLinkModel`
    /// mutator and hand-written scenario files select the others.
    pub link_model: LinkModelSpec,
    /// Read-plane query volume, queries per simulated day (0.0 = the read
    /// plane stays disarmed). Bare-seed expansion always leaves this off;
    /// the `ToggleQueries` mutator and scenario files arm it.
    pub queries_per_day: f64,
    /// Distinct simulated query users behind that volume.
    pub query_users: u64,
}

impl ScenarioSpec {
    /// Expand `seed` into a scenario. Deterministic: the same seed always
    /// yields the same spec (its own RNG stream, disjoint from every
    /// campaign stream).
    pub fn from_seed(seed: u64) -> Self {
        let mut rng = stream_rng(seed, "scengen");

        // Topology: 1–4 sites, 2–6 clusters, 2–8 nodes each, mixed
        // vendors/interconnects — the heterogeneity the paper blames for
        // many of its bugs, in miniature. The multi-site dimension is what
        // exposes the federated scheduler (per-site OAR domains, spillover,
        // site outages/partitions/skew from the fault mix) to the swarm.
        let n_sites = rng.gen_range(1..=4usize);
        let n_clusters = rng.gen_range(2..=6usize);
        let clusters: Vec<ClusterSpec> = (0..n_clusters)
            .map(|i| {
                let mut spec = ClusterSpec::new(
                    &format!("swarm-c{i}"),
                    &site_name(rng.gen_range(0..n_sites)),
                    rng.gen_range(2..=8u32),
                    *CORE_MENU.choose(&mut rng).unwrap(),
                    *VENDOR_MENU.choose(&mut rng).unwrap(),
                    rng.gen_bool(0.35),
                    rng.gen_bool(0.40),
                );
                if rng.gen_bool(0.15) {
                    spec = spec.with_gpu();
                }
                spec
            })
            .collect();

        // Time dimensions.
        let duration_hours = rng.gen_range(36..=240u64);
        let tick_mins = *TICK_MENU.choose(&mut rng).unwrap();

        // Fault mix: each catalogue entry joins with p=½; rates are high
        // relative to the paper (tiny testbed, short horizon) so scenarios
        // actually accumulate faults. Only the legacy prefix of the
        // catalogue is drawn here — bare-seed expansion is append-frozen so
        // every historical seed keeps its spec byte-for-byte. The
        // service-process kinds enter scenarios through the structural
        // cells and the `ToggleFaultKind` mutator instead.
        let fault_mix: Vec<(FaultKind, f64)> = FaultKind::ALL[..FaultKind::LEGACY]
            .iter()
            .filter_map(|&kind| {
                // Draw the rate unconditionally so inclusion of one kind
                // never shifts another kind's draw.
                let rate = rng.gen_range(0.2..1.5);
                rng.gen_bool(0.5).then_some((kind, rate))
            })
            .collect();
        let maintenance_per_day = if rng.gen_bool(0.5) {
            rng.gen_range(0.05..0.40)
        } else {
            0.0
        };

        let mode = if rng.gen_bool(0.7) {
            ModeDim::External
        } else {
            ModeDim::NaiveCron {
                period_hours: rng.gen_range(2..=36),
            }
        };
        let rollout = match rng.gen_range(0..10u32) {
            0..=5 => RolloutDim::AllAtStart,
            6..=8 => RolloutDim::Staged {
                phases: rng.gen_range(2..=4),
            },
            _ => RolloutDim::NoTesting,
        };

        ScenarioSpec {
            seed,
            clusters,
            duration_hours,
            tick_mins,
            executors: rng.gen_range(2..=8),
            fault_mix,
            maintenance_per_day,
            maintenance_spread: rng.gen_range(1..=4),
            initial_fault_burden: rng.gen_range(0..=8),
            peak_jobs_per_day: rng.gen_range(0.0..100.0),
            cluster_affinity: rng.gen_range(0.2..0.9),
            whole_cluster_prob: rng.gen_range(0.0..0.25),
            mode,
            rollout,
            per_node_hardware: rng.gen_bool(0.25),
            operator_capacity_per_week: rng.gen_range(1.0..12.0),
            operator_triage_hours: rng.gen_range(4..=72),
            operator_cadence_hours: *CADENCE_MENU.choose(&mut rng).unwrap(),
            sample_cadence_hours: *CADENCE_MENU.choose(&mut rng).unwrap(),
            // No draw: arming buggify here would shift every later stream
            // and break the append-only seed discipline.
            buggify_rate: 0.0,
            // Same no-draw rule: bare seeds keep the historical ideal
            // backbone so every pre-link-model seed expands byte-for-byte.
            link_model: LinkModelSpec::Ideal,
            // Same no-draw rule again: the read plane stays disarmed on
            // bare seeds so pre-query-plane seeds expand byte-for-byte.
            queries_per_day: 0.0,
            query_users: 0,
        }
    }

    /// Whether the fault mix contains any service-process kind (crash,
    /// bounded restart, RPC degradation) or buggify is armed — the
    /// service-chaos dimension of the scenario.
    pub fn has_service_faults(&self) -> bool {
        self.buggify_rate > 0.0
            || self
                .fault_mix
                .iter()
                .any(|&(k, _)| FaultKind::SERVICE_PROCESS.contains(&k))
    }

    /// Total node count of the generated topology.
    pub fn node_count(&self) -> u32 {
        self.clusters.iter().map(|c| c.nodes).sum()
    }

    /// Number of distinct sites the generated topology spans.
    pub fn site_count(&self) -> usize {
        let mut sites: Vec<&str> = self.clusters.iter().map(|c| c.site.as_str()).collect();
        sites.sort_unstable();
        sites.dedup();
        sites.len()
    }

    /// Whether the fault mix contains any site-scoped kind (outage,
    /// partition, skew) — the inter-site dimension of the scenario.
    pub fn has_site_faults(&self) -> bool {
        self.fault_mix.iter().any(|&(k, _)| k.is_site_fault())
    }

    /// The campaign horizon as a duration.
    pub fn duration(&self) -> SimDuration {
        SimDuration::from_hours(self.duration_hours)
    }

    /// The family rollout this spec describes, with staged waves evenly
    /// spaced over the first half of the horizon.
    pub fn rollout(&self) -> Rollout {
        match self.rollout {
            RolloutDim::AllAtStart => Rollout::all_at_start(),
            RolloutDim::NoTesting => Rollout { phases: vec![] },
            RolloutDim::Staged { phases } => {
                let phases = phases.max(1);
                let wave_len = Family::ALL.len().div_ceil(phases);
                let gap_hours = (self.duration_hours / 2).max(1) / phases as u64;
                Rollout {
                    phases: Family::ALL
                        .chunks(wave_len)
                        .enumerate()
                        .map(|(i, wave)| {
                            (
                                SimTime::from_hours(i as u64 * gap_hours.max(1)),
                                wave.to_vec(),
                            )
                        })
                        .collect(),
                }
            }
        }
    }

    /// Lower the spec into a runnable campaign configuration for `engine`.
    pub fn campaign_config(&self, engine: Engine) -> CampaignConfig {
        CampaignConfig {
            seed: self.seed,
            scale: TestbedScale::Custom(self.clusters.clone()),
            duration: self.duration(),
            tick: SimDuration::from_mins(self.tick_mins),
            engine,
            operator_cadence: SimDuration::from_hours(self.operator_cadence_hours),
            sample_cadence: SimDuration::from_hours(self.sample_cadence_hours),
            executors: self.executors,
            injector: InjectorConfig {
                rates_per_day: self.fault_mix.clone(),
                maintenance_per_day: self.maintenance_per_day,
                maintenance_spread: self.maintenance_spread,
            },
            initial_fault_burden: self.initial_fault_burden,
            user_load: UserLoadConfig {
                peak_jobs_per_day: self.peak_jobs_per_day,
                cluster_affinity: self.cluster_affinity,
                whole_cluster_prob: self.whole_cluster_prob,
            },
            policy: PolicyConfig::default(),
            mode: match self.mode {
                ModeDim::External => SchedulingMode::External,
                ModeDim::NaiveCron { period_hours } => SchedulingMode::NaiveCron {
                    period: SimDuration::from_hours(period_hours),
                },
            },
            operator_capacity_per_week: self.operator_capacity_per_week,
            operator_triage: SimDuration::from_hours(self.operator_triage_hours),
            rollout: self.rollout(),
            per_node_hardware: self.per_node_hardware,
            buggify_rate: self.buggify_rate,
            link_model: self.link_model,
            queries_per_day: self.queries_per_day,
            query_users: self.query_users,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expansion_is_deterministic() {
        for seed in [0u64, 1, 42, u64::MAX] {
            assert_eq!(ScenarioSpec::from_seed(seed), ScenarioSpec::from_seed(seed));
        }
    }

    #[test]
    fn different_seeds_differ() {
        assert_ne!(ScenarioSpec::from_seed(1), ScenarioSpec::from_seed(2));
    }

    #[test]
    fn specs_stay_in_the_lockstep_affordable_regime() {
        for seed in 0..200u64 {
            let s = ScenarioSpec::from_seed(seed);
            assert!((2..=6).contains(&s.clusters.len()), "seed {seed}");
            assert!(s.node_count() <= 48, "seed {seed}: {} nodes", s.node_count());
            assert!((36..=240).contains(&s.duration_hours), "seed {seed}");
            assert!(s.tick_mins >= 10, "seed {seed}");
            // Lockstep cost bound: grid instants per campaign.
            let ticks = s.duration_hours * 60 / s.tick_mins;
            assert!(ticks <= 1440, "seed {seed}: {ticks} ticks");
        }
    }

    #[test]
    fn spec_roundtrips_through_json() {
        let spec = ScenarioSpec::from_seed(7);
        let json = serde_json::to_string(&spec).unwrap();
        assert!(
            json.contains(crate::scenario_file::SCENARIO_FORMAT),
            "{json}"
        );
        let back: ScenarioSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(spec, back);
    }

    #[test]
    fn lowering_honours_the_spec() {
        let spec = ScenarioSpec::from_seed(11);
        let cfg = spec.campaign_config(Engine::NextEvent);
        assert_eq!(cfg.seed, 11);
        assert_eq!(cfg.duration, spec.duration());
        assert_eq!(cfg.executors, spec.executors);
        assert_eq!(cfg.injector.rates_per_day, spec.fault_mix);
        match &cfg.scale {
            TestbedScale::Custom(specs) => assert_eq!(specs, &spec.clusters),
            other => panic!("expected custom scale, got {other:?}"),
        }
    }

    #[test]
    fn staged_rollout_waves_cover_every_family() {
        let mut spec = ScenarioSpec::from_seed(3);
        spec.rollout = RolloutDim::Staged { phases: 3 };
        let rollout = spec.rollout();
        assert_eq!(rollout.phases.len(), 3);
        let families: Vec<Family> = rollout
            .phases
            .iter()
            .flat_map(|(_, fs)| fs.iter().copied())
            .collect();
        assert_eq!(families.len(), Family::ALL.len());
    }
}
