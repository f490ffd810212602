//! Matcher micro-benchmarks: a panel of the counting engine versus the naive
//! baseline across subscription counts and event widths, plus pruning and
//! construction benchmarks, on the auction workload.
//!
//! The `matching_panel` bin produces the same panel as machine-readable JSON
//! (`BENCH_matching.json`); this criterion target is the interactive variant
//! with per-iteration timing and throughput reporting.

use bench::narrow_events;
use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use filtering::{
    ATreeEngine, CountSink, CountingEngine, MatchingEngine, NaiveEngine, ShardedEngine,
};
use pruning::{Dimension, Pruner, PrunerConfig};
use pubsub_core::{EventBatch, EventMessage, Subscription, SubscriptionId};
use selectivity::SelectivityEstimator;
use workload::{WorkloadConfig, WorkloadGenerator};

const SUBSCRIPTION_PANEL: [usize; 2] = [2_000, 10_000];
const WIDTH_PANEL: [usize; 2] = [10, 4];
const EVENTS: usize = 200;

/// Matches `events` one at a time through one reused one-event batch and
/// sink, returning the match count — the per-event probe a broker runs for
/// a one-event `PublishBatch` frame.
fn match_one_by_one(
    engine: &mut dyn MatchingEngine,
    events: &EventBatch,
    one: &mut EventBatch,
    sink: &mut CountSink,
) -> u64 {
    let mut matches = 0;
    for i in 0..events.len() {
        one.clear();
        one.push_from(events, i);
        engine.match_batch(one, sink);
        matches += sink.count();
    }
    matches
}

fn workload(subscriptions: usize, events: usize) -> (Vec<Subscription>, Vec<EventMessage>) {
    let mut generator = WorkloadGenerator::new(WorkloadConfig::small());
    (
        generator.subscriptions(subscriptions),
        generator.events(events),
    )
}

fn bench_matching_panel(c: &mut Criterion) {
    let (all_subs, full_events) = workload(*SUBSCRIPTION_PANEL.iter().max().unwrap(), EVENTS);
    let mut group = c.benchmark_group("matching");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.throughput(Throughput::Elements(EVENTS as u64));

    for &width in &WIDTH_PANEL {
        let events: EventBatch = if width >= 10 {
            full_events.iter().cloned().collect()
        } else {
            narrow_events(&full_events, width).into_iter().collect()
        };
        let mut one = EventBatch::new();
        let mut sink = CountSink::new();
        for &sub_count in &SUBSCRIPTION_PANEL {
            let subs = &all_subs[..sub_count];

            let mut counting = CountingEngine::with_capacity(subs.len());
            for s in subs {
                counting.insert(s.clone());
            }
            group.bench_function(format!("counting/subs{sub_count}/width{width}"), |b| {
                b.iter(|| match_one_by_one(&mut counting, &events, &mut one, &mut sink));
            });

            let mut naive = NaiveEngine::new();
            for s in subs {
                naive.insert(s.clone());
            }
            group.bench_function(format!("naive/subs{sub_count}/width{width}"), |b| {
                b.iter(|| match_one_by_one(&mut naive, &events, &mut one, &mut sink));
            });
        }
    }
    group.finish();
}

/// The batch-first hot path: the same events pre-chunked into
/// `EventBatch`es and driven through `match_batch` with a reusable
/// `CountSink`. Batch size 1 measures the batch API's fixed overhead; the
/// larger sizes show the per-event amortization.
fn bench_batched_matching(c: &mut Criterion) {
    let (all_subs, events) = workload(*SUBSCRIPTION_PANEL.iter().max().unwrap(), EVENTS);
    let mut group = c.benchmark_group("matching_batch");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.throughput(Throughput::Elements(EVENTS as u64));

    for &sub_count in &SUBSCRIPTION_PANEL {
        let mut engine = CountingEngine::with_capacity(sub_count);
        for s in &all_subs[..sub_count] {
            engine.insert(s.clone());
        }
        for batch_size in [1usize, 16, 200] {
            let batches: Vec<EventBatch> = events
                .chunks(batch_size)
                .map(|chunk| chunk.iter().cloned().collect())
                .collect();
            let mut sink = CountSink::new();
            group.bench_function(format!("counting/subs{sub_count}/batch{batch_size}"), |b| {
                b.iter(|| {
                    let mut matches = 0u64;
                    for batch in &batches {
                        engine.match_batch(batch, &mut sink);
                        matches += sink.count();
                    }
                    matches
                });
            });
        }
    }
    group.finish();
}

/// The sharded parallel engine at rising shard counts, driven with large
/// batches so the per-batch thread fan-out amortizes. The 1-shard cell
/// measures the sharding machinery's overhead against the plain counting
/// engine of `matching_batch`; whether the higher counts scale depends on
/// the host's core count.
fn bench_sharded_matching(c: &mut Criterion) {
    let (all_subs, events) = workload(*SUBSCRIPTION_PANEL.iter().max().unwrap(), EVENTS);
    let mut group = c.benchmark_group("matching_sharded");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.throughput(Throughput::Elements(EVENTS as u64));

    let sub_count = *SUBSCRIPTION_PANEL.iter().max().unwrap();
    let batch: pubsub_core::EventBatch = events.iter().cloned().collect();
    for shards in [1usize, 2, 4, 8] {
        let mut engine = ShardedEngine::with_shards_and_capacity(shards, sub_count);
        for s in &all_subs[..sub_count] {
            engine.insert(s.clone());
        }
        let mut sink = CountSink::new();
        group.bench_function(format!("subs{sub_count}/shards{shards}"), |b| {
            b.iter(|| {
                engine.match_batch(&batch, &mut sink);
                sink.count()
            });
        });
    }
    group.finish();
}

/// The A-Tree shared-subexpression DAG engine against the counting engine
/// on the same batches, on both the raw auction workload and a
/// redundancy-heavy variant (the base expressions cycled under fresh
/// subscriber ids) where subtree sharing pays the most.
fn bench_atree_matching(c: &mut Criterion) {
    let (all_subs, events) = workload(*SUBSCRIPTION_PANEL.iter().max().unwrap(), EVENTS);
    let mut group = c.benchmark_group("matching_atree");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.throughput(Throughput::Elements(EVENTS as u64));

    let sub_count = *SUBSCRIPTION_PANEL.iter().max().unwrap();
    let shared: Vec<Subscription> = (0..sub_count)
        .map(|i| {
            let base = &all_subs[i % all_subs.len().min(512)];
            Subscription::new(
                SubscriptionId::from_raw(1 + i as u64),
                pubsub_core::SubscriberId::from_raw(1 + (i % 64) as u64),
                base.tree().clone(),
            )
        })
        .collect();
    let batch: EventBatch = events.iter().cloned().collect();
    for (population, subs) in [("auction", &all_subs[..sub_count]), ("shared", &shared[..])] {
        let mut atree = ATreeEngine::with_capacity(subs.len());
        let mut counting = CountingEngine::with_capacity(subs.len());
        for s in subs {
            atree.insert(s.clone());
            counting.insert(s.clone());
        }
        let mut sink = CountSink::new();
        group.bench_function(format!("atree/{population}/subs{sub_count}"), |b| {
            b.iter(|| {
                atree.match_batch(&batch, &mut sink);
                sink.count()
            });
        });
        group.bench_function(format!("counting/{population}/subs{sub_count}"), |b| {
            b.iter(|| {
                counting.match_batch(&batch, &mut sink);
                sink.count()
            });
        });
    }
    group.finish();
}

fn bench_pruned_and_construction(c: &mut Criterion) {
    let (subscriptions, events) = workload(2_000, EVENTS);
    let mut group = c.benchmark_group("matching");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.throughput(Throughput::Elements(EVENTS as u64));

    group.bench_function("counting_engine_fully_pruned", |b| {
        // The same subscriptions after exhaustive network-based pruning:
        // smaller trees, more matches per event.
        let mut generator = WorkloadGenerator::new(WorkloadConfig::small());
        let sample = generator.events(500);
        let estimator = SelectivityEstimator::from_events(&sample);
        let mut pruner = Pruner::new(
            PrunerConfig::for_dimension(Dimension::NetworkLoad),
            estimator,
        );
        pruner.register_all(subscriptions.iter().cloned());
        pruner.prune_all();
        let mut engine = CountingEngine::with_capacity(subscriptions.len());
        for s in pruner.pruned_subscriptions() {
            engine.insert(s);
        }
        let events: EventBatch = events.iter().cloned().collect();
        let mut one = EventBatch::new();
        let mut sink = CountSink::new();
        b.iter(|| match_one_by_one(&mut engine, &events, &mut one, &mut sink));
    });

    group.bench_function("engine_construction", |b| {
        b.iter_batched(
            || subscriptions.clone(),
            |subs| {
                let mut engine = CountingEngine::with_capacity(subs.len());
                for s in subs {
                    engine.insert(s);
                }
                engine.len()
            },
            BatchSize::SmallInput,
        );
    });

    group.finish();
}

criterion_group!(
    benches,
    bench_matching_panel,
    bench_batched_matching,
    bench_sharded_matching,
    bench_atree_matching,
    bench_pruned_and_construction
);
criterion_main!(benches);
