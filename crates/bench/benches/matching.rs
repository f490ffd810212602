//! Matcher micro-benchmarks the `matching_panel` bin does not cover: the
//! counting engine over fully pruned subscriptions, and engine
//! construction, on the auction workload. The engine comparisons (counting
//! vs naive, batch sizes, shard counts, A-Tree vs counting) live in the
//! panel's cell table (`BENCH_matching.json`).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use filtering::{CountSink, CountingEngine, MatchingEngine};
use pruning::{Dimension, Pruner, PrunerConfig};
use pubsub_core::{EventBatch, EventMessage, Subscription};
use selectivity::SelectivityEstimator;
use workload::{WorkloadConfig, WorkloadGenerator};

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

criterion_group!(benches, bench_pruned_and_construction);
criterion_main!(benches);
