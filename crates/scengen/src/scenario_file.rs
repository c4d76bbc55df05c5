//! The `scenario.v1` format: the one serialized form of a scenario.
//!
//! Every artifact that carries a [`ScenarioSpec`] carries it as a
//! `scenario.v1` document: hand-written files loaded with `--scenario`,
//! shrunk reproducer dumps (which *are* scenario files), corpus entries
//! and run logs (which embed one through the spec's `Serialize`/
//! `Deserialize` impls below). The format is sectioned, with human-named
//! fields and defaults for everything but the topology, a `"format":
//! "scenario.v1"` tag, and a validator that reports **every** problem in
//! one pass with a JSON path per error (`clusters[2].nodes: must be
//! between 1 and 8`) instead of dying on the first. Defaults live here
//! and nowhere else, so a new spec field touches only this file and the
//! grammar.
//!
//! Every grammar-generated spec round-trips: `parse_scenario(
//! to_scenario_json(&spec))` returns the spec bit-for-bit (floats are
//! printed shortest-exact by the JSON layer), so a scenario file lowers
//! to the same [`CampaignDigest`](crate::oracle::CampaignDigest) as the
//! spec it was written from, on every engine.
//!
//! An annotated example lives in `examples/scenarios/` at the repo root.

use crate::grammar::{site_name, ModeDim, RolloutDim, ScenarioSpec, CADENCE_MENU, TICK_MENU};
use serde::Value;
use std::fmt;
use ttt_suite::Family;
use ttt_testbed::gen::ClusterSpec;
use ttt_testbed::hardware::Vendor;
use ttt_testbed::{FaultKind, LinkModelSpec};

/// The format tag every scenario file must carry.
pub const SCENARIO_FORMAT: &str = "scenario.v1";

/// Envelope bounds shared with [`crate::mutate::sanitize`]: scenarios are
/// differential-tested under every engine, so hand-written files obey the
/// same "lockstep is affordable" ceiling as fuzzer mutants.
const MAX_CLUSTERS: usize = 8;
const MAX_NODES_PER_CLUSTER: u64 = 8;
const MAX_TOTAL_NODES: u64 = 48;
const MAX_TICKS: u64 = 1440;
const MAX_DURATION_HOURS: u64 = 240;
const MAX_PEAK_JOBS: f64 = 300.0;
const MAX_QUERIES_PER_DAY: f64 = 10_000_000.0;
const MAX_QUERY_USERS: u64 = 10_000_000;

/// One validation problem: where in the file, and what is wrong. The
/// validator collects every issue before returning, so an operator fixes
/// a file in one edit-run cycle, not one per field.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScenarioFileError {
    /// JSON path of the offending value (`clusters[2].nodes`; empty for
    /// document-level problems).
    pub path: String,
    /// What is wrong, phrased for the person editing the file.
    pub message: String,
}

impl fmt::Display for ScenarioFileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.path.is_empty() {
            write!(f, "{}", self.message)
        } else {
            write!(f, "{}: {}", self.path, self.message)
        }
    }
}

/// Error-collecting parse context.
struct Ctx {
    errors: Vec<ScenarioFileError>,
}

impl Ctx {
    fn err(&mut self, path: impl Into<String>, message: impl Into<String>) {
        self.errors.push(ScenarioFileError {
            path: path.into(),
            message: message.into(),
        });
    }
}

fn get<'a>(fields: &'a [(String, Value)], key: &str) -> Option<&'a Value> {
    fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

/// Reject keys outside `known` — a typoed field must fail loudly, not
/// silently fall back to its default.
fn check_keys(ctx: &mut Ctx, fields: &[(String, Value)], path: &str, known: &[&str]) {
    for (k, _) in fields {
        if !known.contains(&k.as_str()) {
            let at = join(path, k);
            ctx.err(at, format!("unknown field (expected one of: {})", known.join(", ")));
        }
    }
}

fn join(path: &str, key: &str) -> String {
    if path.is_empty() {
        key.to_string()
    } else {
        format!("{path}.{key}")
    }
}

/// An object-valued section, defaulting to empty (all defaults) when the
/// section is omitted entirely.
fn section<'a>(
    ctx: &mut Ctx,
    fields: &'a [(String, Value)],
    path: &str,
    key: &str,
) -> &'a [(String, Value)] {
    match get(fields, key) {
        Some(Value::Object(inner)) => inner,
        Some(v) => {
            ctx.err(join(path, key), format!("must be an object, got {}", v.kind()));
            &[]
        }
        None => &[],
    }
}

fn f64_field(ctx: &mut Ctx, fields: &[(String, Value)], path: &str, key: &str, default: f64) -> f64 {
    match get(fields, key) {
        Some(Value::F64(n)) => *n,
        Some(Value::I64(n)) => *n as f64,
        Some(Value::U64(n)) => *n as f64,
        Some(v) => {
            ctx.err(join(path, key), format!("must be a number, got {}", v.kind()));
            default
        }
        None => default,
    }
}

fn u64_field(ctx: &mut Ctx, fields: &[(String, Value)], path: &str, key: &str, default: u64) -> u64 {
    match get(fields, key) {
        Some(Value::U64(n)) => *n,
        Some(Value::I64(n)) if *n >= 0 => *n as u64,
        Some(v) => {
            ctx.err(
                join(path, key),
                format!("must be a non-negative integer, got {}", v.kind()),
            );
            default
        }
        None => default,
    }
}

fn bool_field(
    ctx: &mut Ctx,
    fields: &[(String, Value)],
    path: &str,
    key: &str,
    default: bool,
) -> bool {
    match get(fields, key) {
        Some(Value::Bool(b)) => *b,
        Some(v) => {
            ctx.err(join(path, key), format!("must be true or false, got {}", v.kind()));
            default
        }
        None => default,
    }
}

fn str_field<'a>(
    ctx: &mut Ctx,
    fields: &'a [(String, Value)],
    path: &str,
    key: &str,
    default: &'a str,
) -> &'a str {
    match get(fields, key) {
        Some(Value::String(s)) => s,
        Some(v) => {
            ctx.err(join(path, key), format!("must be a string, got {}", v.kind()));
            default
        }
        None => default,
    }
}

fn check_f64_range(ctx: &mut Ctx, path: String, value: f64, lo: f64, hi: f64) {
    if !(lo..=hi).contains(&value) || !value.is_finite() {
        ctx.err(path, format!("must be between {lo} and {hi}, got {value}"));
    }
}

fn check_u64_range(ctx: &mut Ctx, path: String, value: u64, lo: u64, hi: u64) {
    if !(lo..=hi).contains(&value) {
        ctx.err(path, format!("must be between {lo} and {hi}, got {value}"));
    }
}

fn vendor_name(v: Vendor) -> &'static str {
    match v {
        Vendor::Dell => "dell",
        Vendor::Hp => "hp",
        Vendor::Bull => "bull",
        Vendor::Ibm => "ibm",
    }
}

fn parse_vendor(s: &str) -> Option<Vendor> {
    match s.to_ascii_lowercase().as_str() {
        "dell" => Some(Vendor::Dell),
        "hp" | "hpe" => Some(Vendor::Hp),
        "bull" | "atos" => Some(Vendor::Bull),
        "ibm" | "lenovo" => Some(Vendor::Ibm),
        _ => None,
    }
}

/// Parse a `scenario.v1` document into a runnable [`ScenarioSpec`]. On
/// failure, *every* problem found is returned, each with the JSON path of
/// the offending value. Never panics on any input.
pub fn parse_scenario(json: &str) -> Result<ScenarioSpec, Vec<ScenarioFileError>> {
    match serde_json::parse(json) {
        Ok(value) => scenario_from_value(&value),
        Err(e) => Err(vec![ScenarioFileError {
            path: String::new(),
            message: format!("not valid JSON: {e}"),
        }]),
    }
}

/// [`parse_scenario`] on an already-parsed JSON value — the entry the
/// spec's `Deserialize` impl uses for documents embedded in artifacts.
fn scenario_from_value(value: &Value) -> Result<ScenarioSpec, Vec<ScenarioFileError>> {
    let mut ctx = Ctx { errors: Vec::new() };
    let Value::Object(doc) = value else {
        ctx.err("", format!("a scenario file is a JSON object, got {}", value.kind()));
        return Err(ctx.errors);
    };

    // The format tag gates everything else: a file from a future revision
    // gets one clear error, not a shower of unknown-field noise.
    match get(doc, "format") {
        Some(Value::String(s)) if s == SCENARIO_FORMAT => {}
        Some(Value::String(s)) => {
            ctx.err("format", format!("unsupported format {s:?} (this build reads {SCENARIO_FORMAT:?})"));
            return Err(ctx.errors);
        }
        Some(v) => {
            ctx.err("format", format!("must be the string {SCENARIO_FORMAT:?}, got {}", v.kind()));
            return Err(ctx.errors);
        }
        None => {
            ctx.err("format", format!("missing (a scenario file starts with \"format\": {SCENARIO_FORMAT:?})"));
            return Err(ctx.errors);
        }
    }

    check_keys(
        &mut ctx,
        doc,
        "",
        &[
            "format",
            "name",
            "notes",
            "seed",
            "duration_hours",
            "tick_mins",
            "clusters",
            "faults",
            "users",
            "scheduling",
            "rollout",
            "operators",
            "sampling",
            "network",
            "chaos",
            "queries",
            "per_node_hardware",
        ],
    );
    // `name` and `notes` are annotation: validated as strings, ignored by
    // the lowering (JSON has no comments, so the format carries them).
    str_field(&mut ctx, doc, "", "name", "");
    str_field(&mut ctx, doc, "", "notes", "");

    let seed = u64_field(&mut ctx, doc, "", "seed", 1);
    let tick_mins = u64_field(&mut ctx, doc, "", "tick_mins", 15);
    if !TICK_MENU.contains(&tick_mins) {
        ctx.err("tick_mins", format!("must be one of {TICK_MENU:?}, got {tick_mins}"));
    }
    let duration_hours = u64_field(&mut ctx, doc, "", "duration_hours", 96);
    let floor_hours = (tick_mins / 60).max(1);
    let max_hours = (MAX_TICKS * tick_mins.max(1) / 60).min(MAX_DURATION_HOURS);
    if !(floor_hours..=max_hours).contains(&duration_hours) {
        ctx.err(
            "duration_hours",
            format!(
                "must be between {floor_hours} and {max_hours} at a {tick_mins}-minute tick \
                 (campaigns are differential-tested under the lockstep engine), got {duration_hours}"
            ),
        );
    }

    // --- clusters ----------------------------------------------------
    let clusters = parse_clusters(&mut ctx, doc);

    // --- faults ------------------------------------------------------
    let faults = section(&mut ctx, doc, "", "faults");
    check_keys(
        &mut ctx,
        faults,
        "faults",
        &["arrivals", "maintenance_per_day", "maintenance_spread", "initial_burden"],
    );
    let fault_mix = parse_arrivals(&mut ctx, faults);
    let maintenance_per_day = f64_field(&mut ctx, faults, "faults", "maintenance_per_day", 0.0);
    check_f64_range(&mut ctx, "faults.maintenance_per_day".into(), maintenance_per_day, 0.0, 1.0);
    let maintenance_spread = u64_field(&mut ctx, faults, "faults", "maintenance_spread", 1);
    check_u64_range(&mut ctx, "faults.maintenance_spread".into(), maintenance_spread, 1, 4);
    let initial_fault_burden = u64_field(&mut ctx, faults, "faults", "initial_burden", 0);
    check_u64_range(&mut ctx, "faults.initial_burden".into(), initial_fault_burden, 0, 8);

    // --- users -------------------------------------------------------
    let users = section(&mut ctx, doc, "", "users");
    check_keys(
        &mut ctx,
        users,
        "users",
        &["peak_jobs_per_day", "cluster_affinity", "whole_cluster_prob"],
    );
    let peak_jobs_per_day = f64_field(&mut ctx, users, "users", "peak_jobs_per_day", 0.0);
    check_f64_range(&mut ctx, "users.peak_jobs_per_day".into(), peak_jobs_per_day, 0.0, MAX_PEAK_JOBS);
    let cluster_affinity = f64_field(&mut ctx, users, "users", "cluster_affinity", 0.5);
    check_f64_range(&mut ctx, "users.cluster_affinity".into(), cluster_affinity, 0.0, 1.0);
    let whole_cluster_prob = f64_field(&mut ctx, users, "users", "whole_cluster_prob", 0.1);
    check_f64_range(&mut ctx, "users.whole_cluster_prob".into(), whole_cluster_prob, 0.0, 0.5);

    // --- scheduling --------------------------------------------------
    let scheduling = section(&mut ctx, doc, "", "scheduling");
    check_keys(&mut ctx, scheduling, "scheduling", &["mode", "executors", "period_hours"]);
    let executors = u64_field(&mut ctx, scheduling, "scheduling", "executors", 4);
    check_u64_range(&mut ctx, "scheduling.executors".into(), executors, 1, 8);
    let mode = match str_field(&mut ctx, scheduling, "scheduling", "mode", "external") {
        "external" => {
            if get(scheduling, "period_hours").is_some() {
                ctx.err(
                    "scheduling.period_hours",
                    "only meaningful when mode is \"naive-cron\"",
                );
            }
            ModeDim::External
        }
        "naive-cron" => {
            let period_hours = u64_field(&mut ctx, scheduling, "scheduling", "period_hours", 6);
            check_u64_range(&mut ctx, "scheduling.period_hours".into(), period_hours, 1, 48);
            ModeDim::NaiveCron { period_hours }
        }
        other => {
            ctx.err(
                "scheduling.mode",
                format!("must be \"external\" or \"naive-cron\", got {other:?}"),
            );
            ModeDim::External
        }
    };

    // --- rollout -----------------------------------------------------
    let rollout_obj = section(&mut ctx, doc, "", "rollout");
    check_keys(&mut ctx, rollout_obj, "rollout", &["pattern", "phases"]);
    let rollout = match str_field(&mut ctx, rollout_obj, "rollout", "pattern", "all-at-start") {
        "all-at-start" | "no-testing" if get(rollout_obj, "phases").is_some() => {
            ctx.err("rollout.phases", "only meaningful when pattern is \"staged\"");
            RolloutDim::AllAtStart
        }
        "all-at-start" => RolloutDim::AllAtStart,
        "no-testing" => RolloutDim::NoTesting,
        "staged" => {
            let phases = u64_field(&mut ctx, rollout_obj, "rollout", "phases", 3);
            check_u64_range(&mut ctx, "rollout.phases".into(), phases, 1, Family::ALL.len() as u64);
            RolloutDim::Staged {
                phases: phases as usize,
            }
        }
        other => {
            ctx.err(
                "rollout.pattern",
                format!("must be \"all-at-start\", \"staged\" or \"no-testing\", got {other:?}"),
            );
            RolloutDim::AllAtStart
        }
    };

    // --- operators ---------------------------------------------------
    let operators = section(&mut ctx, doc, "", "operators");
    check_keys(
        &mut ctx,
        operators,
        "operators",
        &["capacity_per_week", "triage_hours", "cadence_hours"],
    );
    let operator_capacity_per_week =
        f64_field(&mut ctx, operators, "operators", "capacity_per_week", 5.0);
    check_f64_range(
        &mut ctx,
        "operators.capacity_per_week".into(),
        operator_capacity_per_week,
        0.5,
        20.0,
    );
    let operator_triage_hours = u64_field(&mut ctx, operators, "operators", "triage_hours", 24);
    check_u64_range(&mut ctx, "operators.triage_hours".into(), operator_triage_hours, 1, 96);
    let operator_cadence_hours = u64_field(&mut ctx, operators, "operators", "cadence_hours", 1);
    if !CADENCE_MENU.contains(&operator_cadence_hours) {
        ctx.err(
            "operators.cadence_hours",
            format!("must be one of {CADENCE_MENU:?}, got {operator_cadence_hours}"),
        );
    }

    // --- sampling ----------------------------------------------------
    let sampling = section(&mut ctx, doc, "", "sampling");
    check_keys(&mut ctx, sampling, "sampling", &["cadence_hours"]);
    let sample_cadence_hours = u64_field(&mut ctx, sampling, "sampling", "cadence_hours", 1);
    if !CADENCE_MENU.contains(&sample_cadence_hours) {
        ctx.err(
            "sampling.cadence_hours",
            format!("must be one of {CADENCE_MENU:?}, got {sample_cadence_hours}"),
        );
    }

    // --- network -----------------------------------------------------
    let network = section(&mut ctx, doc, "", "network");
    check_keys(&mut ctx, network, "network", &["link_model", "latency_s", "loss_prob"]);
    let link_model = match str_field(&mut ctx, network, "network", "link_model", "ideal") {
        "ideal" | "distance-tiered"
            if get(network, "latency_s").is_some() || get(network, "loss_prob").is_some() =>
        {
            ctx.err(
                "network.link_model",
                "latency_s/loss_prob are only meaningful when link_model is \"uniform\"",
            );
            LinkModelSpec::Ideal
        }
        "ideal" => LinkModelSpec::Ideal,
        "distance-tiered" => LinkModelSpec::DistanceTiered,
        "uniform" => {
            let latency_s = f64_field(&mut ctx, network, "network", "latency_s", 0.01);
            check_f64_range(&mut ctx, "network.latency_s".into(), latency_s, 0.0, 30.0);
            let loss_prob = f64_field(&mut ctx, network, "network", "loss_prob", 0.0);
            check_f64_range(&mut ctx, "network.loss_prob".into(), loss_prob, 0.0, 0.5);
            LinkModelSpec::Uniform {
                latency_s,
                loss_prob,
            }
        }
        other => {
            ctx.err(
                "network.link_model",
                format!("must be \"ideal\", \"uniform\" or \"distance-tiered\", got {other:?}"),
            );
            LinkModelSpec::Ideal
        }
    };

    // --- chaos -------------------------------------------------------
    let chaos = section(&mut ctx, doc, "", "chaos");
    check_keys(&mut ctx, chaos, "chaos", &["buggify_rate"]);
    let buggify_rate = f64_field(&mut ctx, chaos, "chaos", "buggify_rate", 0.0);
    check_f64_range(&mut ctx, "chaos.buggify_rate".into(), buggify_rate, 0.0, 0.25);

    // --- queries -----------------------------------------------------
    let queries = section(&mut ctx, doc, "", "queries");
    check_keys(&mut ctx, queries, "queries", &["per_day", "users"]);
    let queries_per_day = f64_field(&mut ctx, queries, "queries", "per_day", 0.0);
    check_f64_range(
        &mut ctx,
        "queries.per_day".into(),
        queries_per_day,
        0.0,
        MAX_QUERIES_PER_DAY,
    );
    let query_users = u64_field(&mut ctx, queries, "queries", "users", 0);
    check_u64_range(&mut ctx, "queries.users".into(), query_users, 0, MAX_QUERY_USERS);

    let per_node_hardware = bool_field(&mut ctx, doc, "", "per_node_hardware", false);

    if !ctx.errors.is_empty() {
        return Err(ctx.errors);
    }
    Ok(ScenarioSpec {
        seed,
        clusters,
        duration_hours,
        tick_mins,
        executors: executors as usize,
        fault_mix,
        maintenance_per_day,
        maintenance_spread: maintenance_spread as usize,
        initial_fault_burden: initial_fault_burden as usize,
        peak_jobs_per_day,
        cluster_affinity,
        whole_cluster_prob,
        mode,
        rollout,
        per_node_hardware,
        operator_capacity_per_week,
        operator_triage_hours,
        operator_cadence_hours,
        sample_cadence_hours,
        buggify_rate,
        link_model,
        queries_per_day,
        query_users,
    })
}

fn parse_clusters(ctx: &mut Ctx, doc: &[(String, Value)]) -> Vec<ClusterSpec> {
    let entries = match get(doc, "clusters") {
        Some(Value::Array(entries)) => entries.as_slice(),
        Some(v) => {
            ctx.err("clusters", format!("must be an array, got {}", v.kind()));
            return Vec::new();
        }
        None => {
            ctx.err("clusters", "missing (a scenario needs at least one cluster)");
            return Vec::new();
        }
    };
    if entries.is_empty() {
        ctx.err("clusters", "must not be empty (a scenario needs at least one cluster)");
    }
    if entries.len() > MAX_CLUSTERS {
        ctx.err(
            "clusters",
            format!("at most {MAX_CLUSTERS} clusters, got {}", entries.len()),
        );
    }
    let mut out = Vec::new();
    for (i, entry) in entries.iter().enumerate() {
        let path = format!("clusters[{i}]");
        let Value::Object(fields) = entry else {
            ctx.err(path, format!("must be an object, got {}", entry.kind()));
            continue;
        };
        check_keys(
            ctx,
            fields,
            &path,
            &["name", "site", "nodes", "cores_per_node", "vendor", "infiniband", "disk_checkable", "gpu"],
        );
        let name = str_field(ctx, fields, &path, "name", "").to_string();
        if name.is_empty() {
            ctx.err(join(&path, "name"), "missing or empty (clusters are named)");
        }
        let site = str_field(ctx, fields, &path, "site", &site_name(0)).to_string();
        if site.is_empty() {
            ctx.err(join(&path, "site"), "must not be empty");
        }
        let nodes = u64_field(ctx, fields, &path, "nodes", 2);
        check_u64_range(ctx, join(&path, "nodes"), nodes, 1, MAX_NODES_PER_CLUSTER);
        let cores = u64_field(ctx, fields, &path, "cores_per_node", 8);
        check_u64_range(ctx, join(&path, "cores_per_node"), cores, 1, 64);
        let vendor = match parse_vendor(str_field(ctx, fields, &path, "vendor", "dell")) {
            Some(v) => v,
            None => {
                ctx.err(
                    join(&path, "vendor"),
                    "must be one of: dell, hp, bull, ibm (case-insensitive)",
                );
                Vendor::Dell
            }
        };
        let mut cluster = ClusterSpec::new(
            &name,
            &site,
            nodes as u32,
            cores as u32,
            vendor,
            bool_field(ctx, fields, &path, "infiniband", false),
            bool_field(ctx, fields, &path, "disk_checkable", true),
        );
        if bool_field(ctx, fields, &path, "gpu", false) {
            cluster = cluster.with_gpu();
        }
        out.push(cluster);
    }
    let seen: std::collections::BTreeSet<&str> = out.iter().map(|c| c.name.as_str()).collect();
    if seen.len() != out.len() {
        ctx.err("clusters", "cluster names must be unique");
    }
    let total: u64 = out.iter().map(|c| c.nodes as u64).sum();
    if total > MAX_TOTAL_NODES {
        ctx.err(
            "clusters",
            format!("total node count {total} exceeds the differential-testable ceiling of {MAX_TOTAL_NODES}"),
        );
    }
    out
}

fn parse_arrivals(ctx: &mut Ctx, faults: &[(String, Value)]) -> Vec<(FaultKind, f64)> {
    let entries = match get(faults, "arrivals") {
        Some(Value::Array(entries)) => entries.as_slice(),
        Some(v) => {
            ctx.err("faults.arrivals", format!("must be an array, got {}", v.kind()));
            return Vec::new();
        }
        None => return Vec::new(),
    };
    let mut out: Vec<(FaultKind, f64)> = Vec::new();
    for (i, entry) in entries.iter().enumerate() {
        let path = format!("faults.arrivals[{i}]");
        let Value::Object(fields) = entry else {
            ctx.err(path, format!("must be an object, got {}", entry.kind()));
            continue;
        };
        check_keys(ctx, fields, &path, &["kind", "per_day"]);
        let kind_name = str_field(ctx, fields, &path, "kind", "");
        let Some(kind) = FaultKind::ALL.iter().copied().find(|k| k.name() == kind_name) else {
            let catalogue: Vec<&str> = FaultKind::ALL.iter().map(|k| k.name()).collect();
            ctx.err(
                join(&path, "kind"),
                format!("unknown fault kind {kind_name:?} (catalogue: {})", catalogue.join(", ")),
            );
            continue;
        };
        if out.iter().any(|&(k, _)| k == kind) {
            ctx.err(join(&path, "kind"), format!("duplicate fault kind {kind_name:?}"));
        }
        let per_day = f64_field(ctx, fields, &path, "per_day", 0.5);
        check_f64_range(ctx, join(&path, "per_day"), per_day, 0.05, 6.0);
        out.push((kind, per_day));
    }
    out
}

/// Render a spec as a `scenario.v1` document ([`parse_scenario`] of the
/// result returns the spec bit-for-bit — floats print shortest-exact).
pub fn to_scenario_value(spec: &ScenarioSpec) -> Value {
    let clusters: Vec<Value> = spec
        .clusters
        .iter()
        .map(|c| {
            Value::Object(vec![
                ("name".into(), Value::String(c.name.clone())),
                ("site".into(), Value::String(c.site.clone())),
                ("nodes".into(), Value::U64(c.nodes as u64)),
                ("cores_per_node".into(), Value::U64(c.cores_per_node as u64)),
                ("vendor".into(), Value::String(vendor_name(c.vendor).into())),
                ("infiniband".into(), Value::Bool(c.has_ib)),
                ("disk_checkable".into(), Value::Bool(c.disk_checkable)),
                ("gpu".into(), Value::Bool(c.has_gpu)),
            ])
        })
        .collect();
    let arrivals: Vec<Value> = spec
        .fault_mix
        .iter()
        .map(|&(kind, per_day)| {
            Value::Object(vec![
                ("kind".into(), Value::String(kind.name().into())),
                ("per_day".into(), Value::F64(per_day)),
            ])
        })
        .collect();
    let scheduling = match spec.mode {
        ModeDim::External => vec![
            ("mode".into(), Value::String("external".into())),
            ("executors".into(), Value::U64(spec.executors as u64)),
        ],
        ModeDim::NaiveCron { period_hours } => vec![
            ("mode".into(), Value::String("naive-cron".into())),
            ("executors".into(), Value::U64(spec.executors as u64)),
            ("period_hours".into(), Value::U64(period_hours)),
        ],
    };
    let rollout = match spec.rollout {
        RolloutDim::AllAtStart => vec![("pattern".into(), Value::String("all-at-start".into()))],
        RolloutDim::NoTesting => vec![("pattern".into(), Value::String("no-testing".into()))],
        RolloutDim::Staged { phases } => vec![
            ("pattern".into(), Value::String("staged".into())),
            ("phases".into(), Value::U64(phases as u64)),
        ],
    };
    let network = match spec.link_model {
        LinkModelSpec::Ideal => vec![("link_model".into(), Value::String("ideal".into()))],
        LinkModelSpec::DistanceTiered => {
            vec![("link_model".into(), Value::String("distance-tiered".into()))]
        }
        LinkModelSpec::Uniform {
            latency_s,
            loss_prob,
        } => vec![
            ("link_model".into(), Value::String("uniform".into())),
            ("latency_s".into(), Value::F64(latency_s)),
            ("loss_prob".into(), Value::F64(loss_prob)),
        ],
    };
    Value::Object(vec![
        ("format".into(), Value::String(SCENARIO_FORMAT.into())),
        ("seed".into(), Value::U64(spec.seed)),
        ("duration_hours".into(), Value::U64(spec.duration_hours)),
        ("tick_mins".into(), Value::U64(spec.tick_mins)),
        ("clusters".into(), Value::Array(clusters)),
        (
            "faults".into(),
            Value::Object(vec![
                ("arrivals".into(), Value::Array(arrivals)),
                ("maintenance_per_day".into(), Value::F64(spec.maintenance_per_day)),
                ("maintenance_spread".into(), Value::U64(spec.maintenance_spread as u64)),
                ("initial_burden".into(), Value::U64(spec.initial_fault_burden as u64)),
            ]),
        ),
        (
            "users".into(),
            Value::Object(vec![
                ("peak_jobs_per_day".into(), Value::F64(spec.peak_jobs_per_day)),
                ("cluster_affinity".into(), Value::F64(spec.cluster_affinity)),
                ("whole_cluster_prob".into(), Value::F64(spec.whole_cluster_prob)),
            ]),
        ),
        ("scheduling".into(), Value::Object(scheduling)),
        ("rollout".into(), Value::Object(rollout)),
        (
            "operators".into(),
            Value::Object(vec![
                ("capacity_per_week".into(), Value::F64(spec.operator_capacity_per_week)),
                ("triage_hours".into(), Value::U64(spec.operator_triage_hours)),
                ("cadence_hours".into(), Value::U64(spec.operator_cadence_hours)),
            ]),
        ),
        (
            "sampling".into(),
            Value::Object(vec![(
                "cadence_hours".into(),
                Value::U64(spec.sample_cadence_hours),
            )]),
        ),
        ("network".into(), Value::Object(network)),
        (
            "chaos".into(),
            Value::Object(vec![("buggify_rate".into(), Value::F64(spec.buggify_rate))]),
        ),
        (
            "queries".into(),
            Value::Object(vec![
                ("per_day".into(), Value::F64(spec.queries_per_day)),
                ("users".into(), Value::U64(spec.query_users)),
            ]),
        ),
        ("per_node_hardware".into(), Value::Bool(spec.per_node_hardware)),
    ])
}

/// [`to_scenario_value`] pretty-printed, ready to write to disk.
pub fn to_scenario_json(spec: &ScenarioSpec) -> String {
    serde_json::to_string_pretty(&to_scenario_value(spec)).expect("scenario value serializes")
}

/// A spec serializes as its `scenario.v1` document, so every artifact that
/// derives `Serialize` over a spec embeds the one on-disk format.
impl serde::Serialize for ScenarioSpec {
    fn to_value(&self) -> Value {
        to_scenario_value(self)
    }
}

/// The validator is the deserializer: an embedded spec that does not pass
/// it fails the artifact's parse with every problem listed.
impl serde::Deserialize for ScenarioSpec {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        scenario_from_value(v).map_err(|errors| {
            let shown: Vec<String> = errors.iter().map(ToString::to_string).collect();
            serde::Error::new(format!(
                "invalid {SCENARIO_FORMAT} document: {}",
                shown.join("; ")
            ))
        })
    }
}

/// Load and validate a scenario file. I/O failures come back in the same
/// all-errors shape as validation failures, attributed to the file.
pub fn load_scenario_file(path: &std::path::Path) -> Result<ScenarioSpec, Vec<ScenarioFileError>> {
    let json = std::fs::read_to_string(path).map_err(|e| {
        vec![ScenarioFileError {
            path: path.display().to_string(),
            message: format!("cannot read file: {e}"),
        }]
    })?;
    parse_scenario(&json)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(spec: &ScenarioSpec, what: &str) {
        let json = to_scenario_json(spec);
        let back = parse_scenario(&json)
            .unwrap_or_else(|errs| panic!("{what} did not round-trip: {errs:?}\n{json}"));
        assert_eq!(&back, spec, "{what} round-trip is not bit-identical");
    }

    #[test]
    fn every_grammar_spec_roundtrips() {
        for seed in 0..32 {
            roundtrip(&ScenarioSpec::from_seed(seed), &format!("seed {seed}"));
        }
    }

    /// Reproducer dumps, corpus entries and run logs all carry their spec
    /// as a `scenario.v1` document, so every spec the fuzzer, the
    /// structural frontier, the service-chaos swarm and the shrinker emit
    /// must pass the validator and come back bit-for-bit.
    #[test]
    fn mutated_specs_roundtrip_too() {
        // Grammar seeds beyond the quick block above.
        for seed in 32..288 {
            roundtrip(&ScenarioSpec::from_seed(seed), &format!("seed {seed}"));
        }
        // Every structural cell the frontier pins, from several parents.
        let mut rng = ttt_sim::rng::stream_rng(11, "scenario-file-test-cells");
        for cell in crate::coverage::StructuralCell::all() {
            for seed in 0..4 {
                let mut spec = ScenarioSpec::from_seed(seed);
                crate::mutate::pin_to_cell(&mut spec, cell, &mut rng);
                roundtrip(&spec, &format!("{cell:?} from seed {seed}"));
            }
        }
        // The service-chaos swarm's specs (buggify armed, process faults).
        for seed in 0..48 {
            let outcome =
                crate::swarm::run_seed_service_chaos(seed, &crate::Oracles::none(), false);
            roundtrip(&outcome.spec, &format!("service-chaos seed {seed}"));
        }
        // The shrunk seed-30 trophy CI mints and reloads as a scenario.
        let trip_wire = crate::Oracles {
            tests_run_limit: Some(22),
            ..crate::Oracles::none()
        };
        let trophy = crate::shrink::shrink(&ScenarioSpec::from_seed(30), &trip_wire)
            .expect("seed 30 trips the 22-test wire");
        roundtrip(&trophy.spec, "seed-30 trophy");
        assert_eq!(parse_scenario(&trophy.dump).as_ref(), Ok(&trophy.spec));
        // Mutants reach the dimensions bare seeds never set: buggify,
        // non-ideal link models, staged rollouts at the clamp edges.
        let mut rng = ttt_sim::rng::stream_rng(7, "scenario-file-test");
        let donor = ScenarioSpec::from_seed(99);
        let mut spec = ScenarioSpec::from_seed(3);
        for i in 0..200 {
            spec = crate::mutate::mutate(&spec, &donor, &mut rng);
            roundtrip(&spec, &format!("mutant {i}"));
        }
    }

    #[test]
    fn minimal_file_gets_the_documented_defaults() {
        let json = r#"{
            "format": "scenario.v1",
            "clusters": [
                {"name": "alpha", "site": "east", "nodes": 4}
            ]
        }"#;
        let spec = parse_scenario(json).expect("minimal file is valid");
        assert_eq!(spec.seed, 1);
        assert_eq!(spec.duration_hours, 96);
        assert_eq!(spec.tick_mins, 15);
        assert_eq!(spec.executors, 4);
        assert!(spec.fault_mix.is_empty());
        assert_eq!(spec.mode, ModeDim::External);
        assert_eq!(spec.rollout, RolloutDim::AllAtStart);
        assert_eq!(spec.link_model, LinkModelSpec::Ideal);
        assert_eq!(spec.buggify_rate, 0.0);
        assert_eq!(spec.clusters[0].cores_per_node, 8);
        assert!(spec.clusters[0].disk_checkable);
    }

    #[test]
    fn validator_reports_every_error_with_its_path() {
        let json = r#"{
            "format": "scenario.v1",
            "tick_mins": 13,
            "clusters": [
                {"name": "a", "site": "s", "nodes": 4},
                {"name": "b", "site": "s", "nodes": 99, "vendor": "cray"}
            ],
            "users": {"cluster_affinity": 7.5},
            "scheduling": {"mode": "quantum"},
            "network": {"link_model": "uniform", "loss_prob": 0.9},
            "typo_section": {}
        }"#;
        let errs = parse_scenario(json).unwrap_err();
        let paths: Vec<&str> = errs.iter().map(|e| e.path.as_str()).collect();
        for expected in [
            "tick_mins",
            "clusters[1].nodes",
            "clusters[1].vendor",
            "users.cluster_affinity",
            "scheduling.mode",
            "network.loss_prob",
            "typo_section",
        ] {
            assert!(
                paths.contains(&expected),
                "missing error at {expected}; got {errs:?}"
            );
        }
        // All of them in ONE pass, not one per run.
        assert!(errs.len() >= 7, "expected >= 7 errors, got {errs:?}");
    }

    #[test]
    fn wrong_or_missing_format_is_one_clear_error() {
        let errs = parse_scenario("{\"clusters\": []}").unwrap_err();
        assert_eq!(errs.len(), 1);
        assert_eq!(errs[0].path, "format");

        let errs = parse_scenario("{\"format\": \"scenario.v9\"}").unwrap_err();
        assert_eq!(errs.len(), 1);
        assert!(errs[0].message.contains("scenario.v9"));

        let errs = parse_scenario("[1, 2]").unwrap_err();
        assert_eq!(errs.len(), 1);
        assert!(errs[0].message.contains("object"));
    }

    #[test]
    fn corrupted_inputs_never_panic() {
        for junk in [
            "",
            "not json",
            "{",
            "null",
            "3.14",
            "{\"format\": \"scenario.v1\", \"clusters\": [null, 7, []]}",
            "{\"format\": \"scenario.v1\", \"clusters\": {\"a\": 1}}",
            "{\"format\": \"scenario.v1\", \"clusters\": [], \"faults\": 9}",
            "{\"format\": 1}",
        ] {
            let result = parse_scenario(junk);
            assert!(result.is_err(), "junk accepted: {junk}");
        }
    }

    #[test]
    fn scheduling_and_network_misuse_is_flagged() {
        let json = r#"{
            "format": "scenario.v1",
            "clusters": [{"name": "a", "site": "s", "nodes": 2}],
            "scheduling": {"mode": "external", "period_hours": 4},
            "rollout": {"pattern": "all-at-start", "phases": 2},
            "network": {"link_model": "ideal", "latency_s": 1.0}
        }"#;
        let errs = parse_scenario(json).unwrap_err();
        let paths: Vec<&str> = errs.iter().map(|e| e.path.as_str()).collect();
        assert!(paths.contains(&"scheduling.period_hours"));
        assert!(paths.contains(&"rollout.phases"));
        assert!(paths.contains(&"network.link_model"));
    }

    #[test]
    fn display_is_path_qualified() {
        let e = ScenarioFileError {
            path: "clusters[2].nodes".into(),
            message: "must be between 1 and 8, got 99".into(),
        };
        assert_eq!(e.to_string(), "clusters[2].nodes: must be between 1 and 8, got 99");
    }
}
