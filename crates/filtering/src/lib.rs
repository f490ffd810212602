//! # filtering
//!
//! Event-filtering engines for Boolean subscriptions.
//!
//! Four engines are provided behind the common [`MatchingEngine`] trait:
//!
//! * [`CountingEngine`] — the production engine. Predicate leaves of all
//!   registered subscriptions are indexed per attribute (hash index for
//!   equalities, interval index for ordering predicates, a scan list for the
//!   rest). An incoming event first resolves which predicates it fulfils
//!   through the index, then only evaluates subscription trees whose number
//!   of fulfilled predicates reaches the tree's `pmin` — the minimum number of
//!   fulfilled predicates that can possibly fulfil the subscription. This is
//!   the non-canonical counting algorithm of Bittner & Hinze \[2\] that the
//!   paper's throughput heuristic (`Δ≈eff`) reasons about.
//! * [`ATreeEngine`] — the shared-subexpression engine for very large
//!   (100k–1M) redundant subscription populations: every registered tree is
//!   hash-consed into one slab-backed DAG, identical subtrees across
//!   subscriptions become a single node with a subscriber list, and matching
//!   evaluates each shared node at most once per event.
//! * [`ShardedEngine`] — a base engine partitioned over N shards, one per
//!   core by default: `match_batch` fans the batch out to all shards on
//!   scoped worker threads and merges the per-shard streams id-sorted, so the
//!   output is byte-identical to the single-shard engine while the matching
//!   work scales with the available cores. Generic over the per-shard engine
//!   ([`CountingEngine`] by default, [`ATreeEngine`] optionally);
//!   [`EngineKind::build_with_config`] returns any of them as an
//!   [`AnyEngine`] (a boxed [`MatchingEngine`]), so components pick an
//!   engine at configuration time.
//! * [`NaiveEngine`] — a brute-force baseline that evaluates every
//!   subscription tree against every event. Used for differential testing and
//!   as the unindexed baseline in benchmarks.
//!
//! Every engine exposes the *predicate/subscription association count*, the
//! memory metric reported in the paper's Figures 1(c) and 1(f).
//!
//! ## Batch-first matching
//!
//! The primary entry point is [`MatchingEngine::match_batch`]: it drives a
//! whole [`EventBatch`](pubsub_core::EventBatch) through the engine and
//! streams every `(event index, subscription)` match into a [`MatchSink`]
//! ([`VecSink`], [`CountSink`], and [`PerEventSink`] are provided). The
//! counting engine keeps its generation-stamped scratch hot across the
//! batch, so steady-state batch matching performs no allocation at all.
//! [`MatchingEngine::match_event`] is a wrapper over a one-event batch for
//! tests and tools; every other engine method (configuration, hints,
//! subscription listing, scratch gauges) is on the trait too, so there is
//! one way into every engine.
//!
//! ```
//! use filtering::{CountingEngine, MatchingEngine, PerEventSink};
//! use pubsub_core::{Expr, EventBatch, EventMessage, Subscription, SubscriptionId, SubscriberId};
//!
//! let mut engine = CountingEngine::new();
//! engine.insert(Subscription::from_expr(
//!     SubscriptionId::from_raw(1),
//!     SubscriberId::from_raw(1),
//!     &Expr::and(vec![Expr::eq("category", "books"), Expr::le("price", 20i64)]),
//! ));
//!
//! let batch: EventBatch = (0..3)
//!     .map(|i| {
//!         EventMessage::builder()
//!             .attr("category", "books")
//!             .attr("price", 10 * i as i64)
//!             .build()
//!     })
//!     .collect();
//! let mut sink = PerEventSink::new();
//! engine.match_batch(&batch, &mut sink);
//! // All three prices (0, 10, 20) satisfy `price <= 20`.
//! assert_eq!(sink.total_matches(), 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod analyze;
mod atree;
mod config;
mod counting;
mod engine;
mod index;
mod naive;
mod prefilter;
mod probe;
mod sharded;
mod sink;
mod stats;

pub use atree::{ATreeEngine, AtreeMemory};
pub use config::{AnalyzeMode, EngineConfig, PrefilterMode};
pub use counting::CountingEngine;
pub use engine::{EngineReport, MatchingEngine};
pub use index::{AttributeIndex, PredicateKey, SubSlot};
pub use naive::NaiveEngine;
pub use prefilter::PreFilter;
pub use probe::ProbePlan;
pub use sharded::{AnyEngine, EngineKind, ShardedEngine};
pub use sink::{CountSink, MatchSink, PerEventSink, VecSink};
pub use stats::FilterStats;

// Re-exported so engine callers can build hints without depending on the
// `selectivity` crate directly.
pub use selectivity::DiscriminationHint;
