//! Read-plane throughput: the multi-tenant query engine against held
//! snapshot epochs.
//!
//! Two shapes:
//!
//! - `parallel_readers_10k`: a rayon fan-out answering a fixed
//!   deterministic batch of 10 000 queries against the hub's held epochs
//!   — the pure read-plane ceiling. QPS = 10 000 / (median seconds);
//!   `BENCH_10.json` records the derived figure next to the median.
//! - `grid_of_grids_day_1m_users`: the acceptance workload — a 64-site
//!   grid-of-grids campaign day with the query shaper set to one million
//!   users and 2 M queries/day, versus the same day disarmed. The 2 M
//!   queries are issued, not answered: the campaign answers at most
//!   `QUERY_SAMPLE_PER_EPOCH` (32) per epoch. The spread between the two
//!   is the write-plane cost of publishing + inline sampling.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use rayon::IntoParallelRefIterator;
use std::hint::black_box;
use std::sync::Arc;
use ttt_core::snapshot::{fold_answer, random_query, CampaignSnapshot, Query, QueryEngine};
use ttt_core::{Campaign, CampaignConfig};
use ttt_sim::SimDuration;

/// An armed small campaign's hub contents plus a deterministic query
/// batch: `(epoch index, query)` pairs drawn from the `queries` stream
/// against the epoch they target.
fn held_epochs_and_batch(n: usize) -> (Vec<Arc<CampaignSnapshot>>, Vec<(usize, Query)>) {
    let mut cfg = CampaignConfig::small(42);
    cfg.queries_per_day = 10_000.0;
    cfg.query_users = 1_000;
    let mut c = Campaign::new(cfg);
    let hub = c.snapshot_hub().expect("armed config builds a hub");
    c.run();
    let epochs: Vec<Arc<CampaignSnapshot>> = (hub.published() - hub.held() as u64 + 1
        ..=hub.published())
        .filter_map(|e| hub.at_epoch(e))
        .collect();
    let mut rng = ttt_sim::rng::stream_rng(7, "bench-queries");
    let batch = (0..n)
        .map(|i| {
            let idx = i % epochs.len();
            (idx, random_query(&mut rng, &epochs[idx]))
        })
        .collect();
    (epochs, batch)
}

fn bench_parallel_readers(c: &mut Criterion) {
    let mut group = c.benchmark_group("queries");
    group.sample_size(20);
    let (epochs, batch) = held_epochs_and_batch(10_000);
    group.bench_function("parallel_readers_10k", |b| {
        b.iter(|| {
            let folds: Vec<u64> = batch
                .par_iter()
                .map(|(idx, q)| fold_answer(0, &QueryEngine::answer(&epochs[*idx], q)))
                .collect();
            black_box(folds.into_iter().fold(0u64, |a, f| a ^ f))
        })
    });
    group.finish();
}

fn bench_armed_grid_day(c: &mut Criterion) {
    let mut group = c.benchmark_group("queries");
    group.sample_size(10);
    for (name, per_day, users) in [
        ("grid_of_grids_day_disarmed", 0.0, 0u64),
        ("grid_of_grids_day_1m_users", 2_000_000.0, 1_000_000),
    ] {
        group.bench_function(name, |b| {
            b.iter_batched(
                || {
                    let mut cfg = ttt_core::scenario::grid_of_grids_scenario(42, 64);
                    cfg.duration = SimDuration::from_days(1);
                    cfg.queries_per_day = per_day;
                    cfg.query_users = users;
                    cfg
                },
                |cfg| {
                    let mut campaign = Campaign::new(cfg);
                    campaign.run();
                    let stats = campaign.query_stats();
                    black_box((campaign.metrics().tests_run, stats.issued, stats.executed))
                },
                BatchSize::LargeInput,
            )
        });
    }
    group.finish();
}

criterion_group!(benches, bench_parallel_readers, bench_armed_grid_day);
criterion_main!(benches);
