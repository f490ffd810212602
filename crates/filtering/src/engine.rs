//! The common interface of all matching engines.

use crate::{EngineConfig, FilterStats, MatchSink, VecSink};
use pubsub_core::{EventBatch, EventMessage, Subscription, SubscriptionId};
use selectivity::DiscriminationHint;
use std::fmt;

/// A point-in-time summary of an engine's contents, used by the memory
/// experiments (Figures 1(c) and 1(f) of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineReport {
    /// Number of registered subscriptions.
    pub subscription_count: usize,
    /// Number of predicate/subscription associations, i.e. the total number
    /// of predicate leaves registered across all subscriptions. This is the
    /// quantity whose *proportional reduction* the paper plots as "memory
    /// usage".
    pub association_count: usize,
    /// Estimated memory footprint of all subscription trees in bytes.
    pub tree_bytes: usize,
}

impl EngineReport {
    /// Proportional reduction in predicate/subscription associations relative
    /// to a baseline report (the un-optimized engine). `0.5` means half of
    /// the associations have disappeared.
    pub fn association_reduction_vs(&self, baseline: &EngineReport) -> f64 {
        if baseline.association_count == 0 {
            return 0.0;
        }
        1.0 - self.association_count as f64 / baseline.association_count as f64
    }

    /// Proportional reduction in estimated tree bytes relative to a baseline.
    pub fn bytes_reduction_vs(&self, baseline: &EngineReport) -> f64 {
        if baseline.tree_bytes == 0 {
            return 0.0;
        }
        1.0 - self.tree_bytes as f64 / baseline.tree_bytes as f64
    }
}

/// A filtering engine: stores subscriptions and matches events against them.
///
/// The API is **batch-first**: [`match_batch`](Self::match_batch) is the one
/// way to match — it drives a whole [`EventBatch`] through the engine and
/// streams every `(event index, subscription)` match into a [`MatchSink`].
/// [`match_event`](Self::match_event) is a convenience wrapper over a
/// one-event batch for tests and tools; engines never override it.
///
/// Implementations must be deterministic: matching the same events against
/// the same set of subscriptions always yields the same matches, with each
/// event's matches emitted sorted by subscription id.
pub trait MatchingEngine: fmt::Debug {
    /// Registers a subscription, replacing any existing subscription with the
    /// same id.
    fn insert(&mut self, subscription: Subscription);

    /// Removes a subscription. Returns the removed subscription if present.
    fn remove(&mut self, id: SubscriptionId) -> Option<Subscription>;

    /// Returns the registered subscription with the given id, if any.
    fn get(&self, id: SubscriptionId) -> Option<&Subscription>;

    /// Matches every event of a batch, streaming each match into `sink`.
    ///
    /// The engine calls [`MatchSink::begin_batch`] exactly once, then
    /// [`MatchSink::on_match`] once per match, with event indexes
    /// non-decreasing and each event's matches sorted by subscription id.
    /// Engines keep their per-event scratch hot across the whole batch, so
    /// driving one large batch is strictly cheaper than many small ones.
    fn match_batch(&mut self, batch: &EventBatch, sink: &mut dyn MatchSink);

    /// Matches a single event, returning the ids of all fulfilled
    /// subscriptions sorted by id.
    ///
    /// Wrapper over a one-event batch: it clones the event and allocates the
    /// result, so hot paths drive [`match_batch`](Self::match_batch) with a
    /// reused batch instead.
    fn match_event(&mut self, event: &EventMessage) -> Vec<SubscriptionId> {
        let batch = EventBatch::builder().event(event.clone()).build();
        let mut sink = VecSink::new();
        self.match_batch(&batch, &mut sink);
        sink.into_matches().into_iter().map(|(_, id)| id).collect()
    }

    /// Number of registered subscriptions.
    fn len(&self) -> usize;

    /// Returns `true` if no subscriptions are registered.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterates over the registered subscriptions in an engine-specific
    /// order; callers that need a canonical order sort by id.
    fn subscriptions(&self) -> Box<dyn Iterator<Item = &Subscription> + '_>;

    /// Cumulative filtering statistics since construction (or the last
    /// [`reset_stats`](Self::reset_stats)).
    fn stats(&self) -> &FilterStats;

    /// Resets the cumulative filtering statistics.
    fn reset_stats(&mut self);

    /// A point-in-time summary of the engine contents.
    fn report(&self) -> EngineReport;

    /// The pipeline configuration the engine runs with.
    fn config(&self) -> EngineConfig;

    /// Replaces the pipeline configuration. Takes effect at the next insert
    /// or match call; match output is unaffected (only the work done
    /// changes).
    fn set_config(&mut self, config: EngineConfig);

    /// Installs (or clears) the sampled discrimination hint that steers the
    /// stage-0 pre-filter's key choice and the registration-time analyzer.
    /// Engines that use neither ignore it.
    fn set_discrimination_hint(&mut self, _hint: Option<DiscriminationHint>) {}

    /// Whether the stage-0 pre-filter is active for the current
    /// configuration and subscription population. `false` for engines
    /// without one.
    fn prefilter_enabled(&mut self) -> bool {
        false
    }

    /// Size of the reusable match scratch currently allocated (an opaque
    /// grow-only figure). Constant across match calls once the engine has
    /// warmed up; `0` for engines that keep no scratch.
    fn scratch_capacity(&self) -> usize {
        0
    }

    /// Number of times the match scratch had to grow since construction.
    /// Does not move in steady state; the regression tests assert exactly
    /// that.
    fn scratch_grows(&self) -> u64 {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn association_reduction_is_proportional() {
        let baseline = EngineReport {
            subscription_count: 10,
            association_count: 100,
            tree_bytes: 1000,
        };
        let pruned = EngineReport {
            subscription_count: 10,
            association_count: 40,
            tree_bytes: 400,
        };
        assert!((pruned.association_reduction_vs(&baseline) - 0.6).abs() < 1e-12);
        assert!((pruned.bytes_reduction_vs(&baseline) - 0.6).abs() < 1e-12);
        assert_eq!(baseline.association_reduction_vs(&baseline), 0.0);
    }

    #[test]
    fn zero_baseline_yields_zero_reduction() {
        let empty = EngineReport {
            subscription_count: 0,
            association_count: 0,
            tree_bytes: 0,
        };
        assert_eq!(empty.association_reduction_vs(&empty), 0.0);
        assert_eq!(empty.bytes_reduction_vs(&empty), 0.0);
    }
}
