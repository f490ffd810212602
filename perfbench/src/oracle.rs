//! The correctness oracle: `NaiveEngine` over the clients' original,
//! unpruned subscriptions, with registration-time analysis off, so every
//! tree is evaluated exactly as the client wrote it.

use filtering::{AnalyzeMode, EngineConfig, MatchingEngine, NaiveEngine, PerEventSink};
use pubsub_core::{EventBatch, EventId, SubscriberId, Subscription, SubscriptionId};
use std::collections::{BTreeMap, HashMap};

/// One event's expected deliveries, sorted.
pub type DeliverySet = Vec<(SubscriberId, SubscriptionId)>;

/// The live subscriptions as the clients registered them.
#[derive(Debug)]
pub struct Oracle {
    engine: NaiveEngine,
    subscriber: HashMap<SubscriptionId, SubscriberId>,
    sink: PerEventSink,
}

impl Oracle {
    /// An oracle holding `subscriptions`.
    pub fn new<'a>(subscriptions: impl IntoIterator<Item = &'a Subscription>) -> Self {
        let mut oracle = Oracle {
            engine: NaiveEngine::with_config(EngineConfig::with_analyze(AnalyzeMode::Off)),
            subscriber: HashMap::new(),
            sink: PerEventSink::new(),
        };
        for subscription in subscriptions {
            oracle.insert(subscription.clone());
        }
        oracle
    }

    /// Adds a subscription.
    pub fn insert(&mut self, subscription: Subscription) {
        self.subscriber
            .insert(subscription.id(), subscription.subscriber());
        self.engine.insert(subscription);
    }

    /// Removes a subscription.
    pub fn remove(&mut self, id: SubscriptionId) {
        self.subscriber.remove(&id);
        self.engine.remove(id);
    }

    /// The expected deliveries of each event of `batch`.
    pub fn deliveries(&mut self, batch: &EventBatch) -> Vec<DeliverySet> {
        self.engine.match_batch(batch, &mut self.sink);
        self.sink
            .iter()
            .map(|ids| {
                let mut set: DeliverySet =
                    ids.iter().map(|id| (self.subscriber[id], *id)).collect();
                set.sort_unstable();
                set
            })
            .collect()
    }

    /// The expected number of deliveries of `batch`.
    pub fn count(&mut self, batch: &EventBatch) -> u64 {
        self.engine.match_batch(batch, &mut self.sink);
        self.sink.total_matches() as u64
    }
}

/// Groups a delivery log by event, each set sorted.
pub fn group_log(
    log: Vec<(EventId, SubscriberId, SubscriptionId)>,
) -> BTreeMap<EventId, DeliverySet> {
    let mut grouped: BTreeMap<EventId, DeliverySet> = BTreeMap::new();
    for (event, subscriber, id) in log {
        grouped.entry(event).or_default().push((subscriber, id));
    }
    for set in grouped.values_mut() {
        set.sort_unstable();
    }
    grouped
}
