//! Differential property tests for registration-time subscription analysis.
//!
//! Analysis is a semantics-preserving registration-time rewrite, so an
//! engine with `AnalyzeMode::On` must produce byte-identical match sets to
//! the same engine with `AnalyzeMode::Off` — on `CountingEngine`,
//! `ShardedEngine`, and `NaiveEngine`, through whole batches and one-event
//! batches, and across subscription churn. The strategies are
//! deliberately redundancy-heavy: duplicated subtrees, absorbable
//! disjuncts, contradictory conjuncts (unsatisfiable trees), NaN
//! constants, and nested equality disjunctions, so every analyzer pass is
//! exercised against the unanalyzed baseline.

use filtering::{
    AnalyzeMode, CountingEngine, EngineConfig, FilterStats, MatchingEngine, NaiveEngine,
    PerEventSink, ShardedEngine,
};
use proptest::prelude::*;
use pubsub_core::{
    EventBatch, EventMessage, Expr, Operator, Predicate, SubscriberId, Subscription,
    SubscriptionId, Value,
};

/// Fixed attribute pool: the attribute interner is process-global and
/// append-only, so random names would grow it without bound.
const ATTR_POOL: &[&str] = &["fa", "fb", "fc", "fd", "fe"];

fn attr_name() -> impl Strategy<Value = &'static str> {
    (0usize..ATTR_POOL.len()).prop_map(|i| ATTR_POOL[i])
}

/// Values drawn from a deliberately narrow range so random predicates
/// overlap, contradict, and subsume each other often.
fn value() -> BoxedStrategy<Value> {
    prop_oneof![
        (0i64..8).prop_map(Value::Int).boxed(),
        (-2.0..6.0).prop_map(Value::Float).boxed(),
        prop::bool::ANY.prop_map(Value::Bool).boxed(),
        (0usize..3)
            .prop_map(|i| Value::from(["alpha", "beta", "gamma"][i]))
            .boxed(),
        Just(Value::Float(f64::NAN)).boxed(),
    ]
    .boxed()
}

fn predicate() -> impl Strategy<Value = Predicate> {
    (attr_name(), 0usize..Operator::ALL.len(), value())
        .prop_map(|(name, op, value)| Predicate::new(name, Operator::ALL[op], value))
}

fn base_expr() -> BoxedStrategy<Expr> {
    predicate()
        .prop_map(Expr::Pred)
        .boxed()
        .prop_recursive(4, 24, 3, |inner| {
            prop_oneof![
                prop::collection::vec(inner.clone(), 1..=3).prop_map(Expr::and),
                prop::collection::vec(inner.clone(), 1..=3).prop_map(Expr::or),
                inner.prop_map(Expr::not),
            ]
        })
}

/// Wraps a random expression in one of the shapes the analyzer targets:
/// duplicate subtrees, absorbable disjuncts, contradictory conjuncts
/// (whole-tree unsatisfiability), NaN conjuncts, redundant range chains,
/// and nested same-attribute equality disjunctions.
fn redundant_expr() -> BoxedStrategy<Expr> {
    (base_expr(), 0usize..7, predicate())
        .prop_map(|(e, mode, p)| match mode {
            0 => e,
            1 => Expr::and(vec![e.clone(), e]),
            2 => Expr::or(vec![e.clone(), Expr::and(vec![e, Expr::Pred(p)])]),
            3 => Expr::and(vec![e, Expr::gt("fa", 5i64), Expr::lt("fa", 3i64)]),
            4 => Expr::and(vec![e, Expr::eq("fb", f64::NAN)]),
            5 => Expr::or(vec![
                e,
                Expr::or(vec![
                    Expr::eq("fc", 1i64),
                    Expr::or(vec![Expr::eq("fc", 2i64), Expr::eq("fc", 3i64)]),
                ]),
            ]),
            _ => Expr::and(vec![e, Expr::gt("fd", 1i64), Expr::gt("fd", 3i64)]),
        })
        .boxed()
}

fn subscriptions() -> impl Strategy<Value = Vec<Subscription>> {
    prop::collection::vec(redundant_expr(), 1..=40).prop_map(|exprs| {
        exprs
            .into_iter()
            .enumerate()
            .map(|(i, expr)| {
                Subscription::from_expr(
                    SubscriptionId::from_raw(i as u64 + 1),
                    SubscriberId::from_raw(i as u64 % 5),
                    &expr,
                )
            })
            .collect()
    })
}

fn event() -> impl Strategy<Value = EventMessage> {
    prop::collection::vec((attr_name(), value()), 0..=5).prop_map(|pairs| {
        let mut builder = EventMessage::builder();
        for (name, value) in pairs {
            builder = builder.attr(name, value);
        }
        builder.build()
    })
}

struct EnginePair {
    name: &'static str,
    on: Box<dyn MatchingEngine>,
    off: Box<dyn MatchingEngine>,
}

fn engine_pairs() -> Vec<EnginePair> {
    let on = EngineConfig::with_analyze(AnalyzeMode::On);
    let off = EngineConfig::with_analyze(AnalyzeMode::Off);
    vec![
        EnginePair {
            name: "counting",
            on: Box::new(CountingEngine::with_config(on)),
            off: Box::new(CountingEngine::with_config(off)),
        },
        EnginePair {
            name: "sharded",
            on: Box::new(ShardedEngine::with_config_shards_and_capacity(on, 3, 0)),
            off: Box::new(ShardedEngine::with_config_shards_and_capacity(off, 3, 0)),
        },
        EnginePair {
            name: "naive",
            on: Box::new(NaiveEngine::with_config(on)),
            off: Box::new(NaiveEngine::with_config(off)),
        },
    ]
}

/// The number of live ids an analyze-on engine must report: every inserted
/// id minus those whose latest tree was rejected as unsatisfiable.
fn expected_len(stats: &FilterStats, inserted: usize) -> usize {
    inserted - stats.unsatisfiable_rejected as usize
}

proptest! {
    /// Analyzed and unanalyzed engines produce byte-identical match sets on
    /// redundancy-heavy workloads, per event and per batch, on every engine
    /// kind — and unsatisfiable subscriptions are never indexed by the
    /// analyzed engines (observable through `len()` and
    /// `FilterStats::unsatisfiable_rejected`).
    #[test]
    fn analysis_on_off_match_sets_agree(
        subs in subscriptions(),
        events in prop::collection::vec(event(), 1..=20),
    ) {
        let mut pairs = engine_pairs();
        for pair in &mut pairs {
            for s in &subs {
                pair.on.insert(s.clone());
                pair.off.insert(s.clone());
            }
            prop_assert_eq!(pair.off.len(), subs.len(), "{} off dropped a sub", pair.name);
            prop_assert_eq!(
                pair.on.len(),
                expected_len(pair.on.stats(), subs.len()),
                "{} on: len disagrees with rejection counter", pair.name
            );
            // Rejected subscriptions are not just uncounted — they are gone.
            if pair.on.stats().unsatisfiable_rejected > 0 {
                prop_assert!(pair.on.len() < subs.len());
            }
        }

        let batch: EventBatch = events.iter().cloned().collect();
        let mut on_sink = PerEventSink::new();
        let mut off_sink = PerEventSink::new();
        for pair in &mut pairs {
            pair.on.match_batch(&batch, &mut on_sink);
            pair.off.match_batch(&batch, &mut off_sink);
            for (i, event) in events.iter().enumerate() {
                prop_assert_eq!(
                    on_sink.for_event(i),
                    off_sink.for_event(i),
                    "{} batch divergence on event {}", pair.name, i
                );
                prop_assert_eq!(
                    on_sink.for_event(i),
                    &pair.on.match_event(event)[..],
                    "{} on: batch vs single divergence on event {}", pair.name, i
                );
                prop_assert_eq!(
                    off_sink.for_event(i),
                    &pair.off.match_event(event)[..],
                    "{} off: batch vs single divergence on event {}", pair.name, i
                );
            }
        }
    }

    /// Agreement survives churn, including replacement of a satisfiable
    /// subscription by an unsatisfiable one under the same id (the analyzed
    /// engine must drop the old version, not keep matching it).
    #[test]
    fn analysis_agreement_survives_churn(
        subs in subscriptions(),
        events in prop::collection::vec(event(), 1..=12),
    ) {
        let unsat_replacement = Expr::and(vec![
            Expr::gt("fe", 5i64),
            Expr::lt("fe", 3i64),
        ]);
        let mut pairs = engine_pairs();
        for pair in &mut pairs {
            for s in &subs {
                pair.on.insert(s.clone());
                pair.off.insert(s.clone());
            }
            // Churn: drop every third, re-add every sixth, then replace the
            // first subscription with an unsatisfiable body in place.
            for s in subs.iter().step_by(3) {
                pair.on.remove(s.id());
                pair.off.remove(s.id());
            }
            for s in subs.iter().step_by(6) {
                pair.on.insert(s.clone());
                pair.off.insert(s.clone());
            }
            let replaced = Subscription::from_expr(
                subs[0].id(),
                SubscriberId::from_raw(99),
                &unsat_replacement,
            );
            pair.on.insert(replaced.clone());
            pair.off.insert(replaced);
            prop_assert!(
                pair.on.get(subs[0].id()).is_none(),
                "{}: unsatisfiable replacement still indexed", pair.name
            );
            for event in &events {
                let single_on = pair.on.match_event(event);
                let single_off = pair.off.match_event(event);
                prop_assert_eq!(
                    &single_on,
                    &single_off,
                    "{} diverged under churn", pair.name
                );
                prop_assert!(
                    !single_on.contains(&subs[0].id()),
                    "{} matched an unsatisfiable subscription", pair.name
                );
            }
        }
    }
}

/// Deterministic pinning of the rejection contract on all three engines: an
/// unsatisfiable subscription is counted, never indexed, and never matches;
/// with analysis off it is indexed but still never matches.
#[test]
fn unsatisfiable_subscription_is_rejected_not_indexed() {
    let unsat = Subscription::from_expr(
        SubscriptionId::from_raw(7),
        SubscriberId::from_raw(1),
        &Expr::and(vec![Expr::gt("fa", 5i64), Expr::lt("fa", 3i64)]),
    );
    let event = EventMessage::builder().attr("fa", 4i64).build();

    let mut pairs = engine_pairs();
    for pair in &mut pairs {
        pair.on.insert(unsat.clone());
        assert_eq!(pair.on.len(), 0, "{}: unsat sub was indexed", pair.name);
        assert!(pair.on.get(unsat.id()).is_none());
        assert_eq!(
            pair.on.stats().unsatisfiable_rejected,
            1,
            "{}: rejection not counted",
            pair.name
        );
        assert!(pair.on.match_event(&event).is_empty());

        pair.off.insert(unsat.clone());
        assert_eq!(pair.off.len(), 1, "{}: analyze-off must index", pair.name);
        assert_eq!(pair.off.stats().unsatisfiable_rejected, 0);
        assert!(pair.off.match_event(&event).is_empty());
    }
}

/// Simplification counters move when (and only when) the analyzer rewrites
/// a tree, and the normalized tree is what the engine stores.
#[test]
fn simplification_is_counted_and_stored() {
    let redundant = Subscription::from_expr(
        SubscriptionId::from_raw(3),
        SubscriberId::from_raw(1),
        &Expr::and(vec![
            Expr::gt("fb", 1i64),
            Expr::gt("fb", 1i64),
            Expr::gt("fb", 3i64),
        ]),
    );
    let mut engine = CountingEngine::with_config(EngineConfig::with_analyze(AnalyzeMode::On));
    engine.insert(redundant.clone());
    assert_eq!(engine.stats().subs_simplified, 1);
    assert!(engine.stats().nodes_eliminated >= 2);
    assert_eq!(engine.stats().unsatisfiable_rejected, 0);
    let stored = engine.get(redundant.id()).expect("indexed");
    assert!(
        stored.tree().node_count() < redundant.tree().node_count(),
        "stored tree was not normalized"
    );

    // Re-inserting the already-normal tree is a no-op for the counters.
    let normal = stored.clone();
    engine.insert(normal);
    assert_eq!(engine.stats().subs_simplified, 1);

    let mut off = CountingEngine::with_config(EngineConfig::with_analyze(AnalyzeMode::Off));
    off.insert(redundant.clone());
    assert_eq!(off.stats().subs_simplified, 0);
    assert_eq!(
        off.get(redundant.id())
            .expect("indexed")
            .tree()
            .node_count(),
        redundant.tree().node_count()
    );
}
