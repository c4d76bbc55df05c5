//! The benchmark's own tests, at tiny horizons and seed blocks: every
//! metric BENCHMARK.json names is printed with its unit, deliberate faults
//! raise the error rate, and traced runs reproduce untraced digests.

use perfbench::{Config, Faults, Outcome, Sizes, Workload, END_TO_END, PER_LAYER};
use serde_json::Value;

fn tiny(workload: Workload, trace: bool, faults: Faults) -> Config {
    Config {
        workload,
        seed: 7,
        seconds: 0.01,
        trace,
        sizes: Sizes {
            paper_days: 3,
            grid_days: 1,
            grid_sites: 4,
            swarm_seeds: 4,
            epoch_batch: 8,
            final_pages: 2,
            seed_pages: 1,
        },
        faults,
    }
}

fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
    v.as_object()
        .and_then(|o| o.iter().find(|(k, _)| k == key))
        .map(|(_, v)| v)
        .unwrap_or_else(|| panic!("missing key {key}"))
}

fn number(v: &Value) -> f64 {
    match v {
        Value::F64(x) => *x,
        Value::I64(x) => *x as f64,
        Value::U64(x) => *x as f64,
        other => panic!("not a number: {}", other.kind()),
    }
}

/// `(name, unit)` of every metric in one list of BENCHMARK.json.
fn declared(list: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
    let doc = serde_json::parse(&text).expect("BENCHMARK.json parses");
    field(&doc, list)
        .as_array()
        .expect("metric list")
        .iter()
        .map(|m| {
            (
                field(m, "name").as_str().expect("name").to_string(),
                field(m, "unit").as_str().expect("unit").to_string(),
            )
        })
        .collect()
}

/// Parse a run's result line back into `(name, value, unit)` triples.
fn printed(out: &Outcome, trace: bool) -> (Value, Vec<(String, f64, String)>) {
    let line = out.result_line(trace);
    let doc = serde_json::parse(&line).expect("result line is JSON");
    let metrics = field(&doc, "metrics")
        .as_object()
        .expect("metrics object")
        .iter()
        .map(|(name, m)| {
            (
                name.clone(),
                number(field(m, "value")),
                field(m, "unit").as_str().expect("unit").to_string(),
            )
        })
        .collect();
    (doc, metrics)
}

fn failed(doc: &Value) -> f64 {
    number(field(doc, "failed"))
}

#[test]
fn catalogue_matches_benchmark_json() {
    let own = |c: &[(&str, &str)]| -> Vec<(String, String)> {
        c.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(declared("end_to_end"), own(END_TO_END));
    assert_eq!(declared("per_layer"), own(PER_LAYER));
}

#[test]
fn every_metric_is_printed_with_its_unit_on_every_workload() {
    for workload in Workload::ALL {
        for (trace, list) in [(false, "end_to_end"), (true, "per_layer")] {
            let out = perfbench::run(&tiny(workload, trace, Faults::default()));
            let (doc, metrics) = printed(&out, trace);
            assert_eq!(
                field(&doc, "correct"),
                &Value::Bool(true),
                "{workload:?}: {:?}",
                out.problems
            );
            assert_eq!(failed(&doc), 0.0);
            assert!(number(field(&doc, "attempted")) >= 1.0);
            let names: Vec<(String, String)> = metrics
                .iter()
                .map(|(n, _, u)| (n.clone(), u.clone()))
                .collect();
            assert_eq!(names, declared(list), "{workload:?} trace={trace}");
            if !trace {
                for (name, value, _) in &metrics {
                    assert!(*value > 0.0, "{workload:?}: {name} reads {value}");
                }
            }
        }
    }
}

#[test]
fn forced_digest_mismatch_raises_error_rate() {
    let faults = Faults {
        digest_mismatch: true,
        ..Faults::default()
    };
    for workload in Workload::ALL {
        for trace in [false, true] {
            let out = perfbench::run(&tiny(workload, trace, faults));
            let (doc, _) = printed(&out, trace);
            assert!(out.error_rate() > 0.0, "{workload:?} trace={trace}");
            assert!(failed(&doc) > 0.0);
            assert_eq!(field(&doc, "correct"), &Value::Bool(false));
        }
    }
}

#[test]
fn forced_aged_out_epoch_raises_error_rate() {
    let faults = Faults {
        age_out: true,
        ..Faults::default()
    };
    let out = perfbench::run(&tiny(Workload::GridReaders, false, faults));
    assert!(out.error_rate() > 0.0);
    assert!(
        out.problems.iter().any(|p| p.contains("aged out")),
        "{:?}",
        out.problems
    );
    let traced = perfbench::run(&tiny(Workload::GridReaders, true, faults));
    let (_, metrics) = printed(&traced, true);
    let aged = metrics
        .iter()
        .find(|(n, _, _)| n == "snapshot.aged_out")
        .expect("printed");
    assert!(aged.1 > 0.0);
}

#[test]
fn traced_runs_reproduce_untraced_digests() {
    // Each traced run compares its digests (and, for the grid, its reader
    // answers; for the swarm, its per-seed outcomes) with an untraced
    // reference; the mismatch test above shows that comparison fails
    // when the two differ.
    for workload in Workload::ALL {
        let mut cfg = tiny(workload, true, Faults::default());
        cfg.sizes.paper_days = 9;
        cfg.sizes.grid_days = 2;
        let out = perfbench::run(&cfg);
        assert_eq!(out.failed, 0, "{workload:?}: {:?}", out.problems);
        assert!(out.spans.as_ref().is_some_and(|s| !s.spans().is_empty()));
        assert!(out.report.iter().any(|l| l.starts_with("share table")));
    }
}
