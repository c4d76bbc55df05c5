//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints, in order: the environment, any failure
//! causes, the report (traced runs: the decile profile and the share
//! table), every metric with its unit, and as the last line one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`. Traced runs
//! also write their spans as JSON lines under `<target dir>/perfbench/`.

use perfbench::env::Environment;
use perfbench::{Config, Faults, Sizes, Workload, END_TO_END, PER_LAYER};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str =
    "usage: perfbench --workload <paper_campaign|grid_readers|swarm_oracles> --seed <n> --seconds <s> --trace <0|1>";

/// Parse the command line into a run configuration.
fn parse(args: &[String]) -> Result<Config, String> {
    let mut workload = None;
    let mut seed = 42u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(seconds > 0.0 && seconds.is_finite()) {
                    return Err(format!("bad seconds {value}"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Config {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        sizes: Sizes::default(),
        faults: Faults::default(),
    })
}

/// Where traced runs leave their spans: the build's target directory.
fn trace_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("perfbench/target"));
    target.join("perfbench")
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let env = Environment::pin(cfg.seed);
    println!("env {}", env.to_json());
    let out = perfbench::run(&cfg);
    for p in &out.problems {
        println!("FAILED: {p}");
    }
    for line in &out.report {
        println!("{line}");
    }
    if let Some(spans) = &out.spans {
        let dir = trace_dir();
        let file = dir.join(format!("{}-seed{}.jsonl", cfg.workload.name(), cfg.seed));
        match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&file, spans.to_jsonl())) {
            Ok(()) => println!(
                "spans: {} written to {}",
                spans.spans().len(),
                file.display()
            ),
            Err(e) => println!("spans: not written ({e})"),
        }
    }
    println!(
        "calibration unit: median {:.5} s over {} samples (reference host {} s); timings are in reference-host seconds",
        perfbench::stats::median(&out.calibration),
        out.calibration.len(),
        perfbench::calib::REFERENCE_UNIT_S
    );
    let catalogue = if cfg.trace { PER_LAYER } else { END_TO_END };
    println!(
        "{} ({} run, seed {}): attempted {}, failed {}, error_rate {}",
        cfg.workload.name(),
        if cfg.trace { "traced" } else { "untraced" },
        cfg.seed,
        out.attempted,
        out.failed,
        out.error_rate()
    );
    for (name, unit) in catalogue {
        let v = out.metrics.get(name).copied().unwrap_or(0.0);
        println!("  {name:<40} {v:>16.6} {unit}");
    }
    println!("{}", out.result_line(cfg.trace));
    ExitCode::SUCCESS
}
