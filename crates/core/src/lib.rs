//! # ttt-core — the testbed testing framework
//!
//! The paper's system, assembled: a [`Campaign`] owns the simulated
//! testbed and every service around it, and advances virtual time through
//! the full loop —
//!
//! 1. synthetic **users** submit jobs to OAR (contention);
//! 2. the **fault injector** drifts hardware and services;
//! 3. the **external scheduler** (or the naive cron baseline) decides which
//!    test configurations to launch, honouring availability, backoff,
//!    peak-hours and same-site policies;
//! 4. **CI executors** pick builds up, submit OAR jobs, and run the test
//!    scripts of `ttt-suite` against the testbed;
//! 5. failing tests file deduplicated **bugs**; **operators** fix them at a
//!    bounded rate, repairing the underlying faults;
//! 6. the **status page** and the campaign metrics aggregate everything.
//!
//! [`scenario::paper_scenario`] reproduces the paper's longitudinal
//! numbers (118 bugs filed / 84 fixed, success rate 85 % → 93 %); the other
//! constructors support the scheduling-policy and ablation experiments.
//!
//! The campaign is the **write plane**. Its read side — status pages,
//! reference-API queries, metrics dashboards — is served off immutable
//! [`snapshot::CampaignSnapshot`] epochs published into a
//! [`snapshot::SnapshotHub`] at sample cadence, so any number of
//! concurrent readers run without ever blocking the simulation.

#![forbid(unsafe_code)]

pub mod campaign;
pub mod config;
pub mod matching;
pub mod metrics;
pub mod scenario;
pub mod snapshot;

pub use campaign::Campaign;
pub use config::{CampaignConfig, Engine, Rollout, SchedulingMode, TestbedScale};
pub use metrics::CampaignMetrics;
pub use snapshot::{
    fold_answer, fold_snapshot, random_query, CampaignSnapshot, Query, QueryAnswer, QueryEngine,
    QueryStats, ServiceLiveness, SiteQueueView, SnapshotHub, QUERY_SAMPLE_PER_EPOCH,
};
