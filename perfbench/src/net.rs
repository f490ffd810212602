//! The two ways the benchmark drives the broker line: the program's own
//! [`Simulation`] (untraced, for the end-to-end metrics) and the traced
//! network in [`crate::traced`]. Workload code is written once against
//! [`Net`], so both run exactly the same operations.

use broker::{BrokerId, NetworkStats, RoutingMemoryReport, Simulation, SimulationConfig, Topology};
use pubsub_core::{
    EventBatch, EventId, EventMessage, SubscriberId, Subscription, SubscriptionId, SubscriptionTree,
};

/// The configuration every run uses: the paper's five-broker line with
/// reliable links and an in-memory durable log. Engine, analysis and
/// pre-filter stay at the program's defaults.
pub fn config() -> SimulationConfig {
    SimulationConfig::new(Topology::line(5))
        .with_reliability(true)
        .with_durability(broker::DurabilityConfig::default())
}

/// A broker network the workloads can drive.
pub trait Net {
    /// Registers a subscription at its home broker and runs to quiescence.
    fn subscribe(&mut self, subscription: Subscription);
    /// Floods an unsubscribe from `at` and runs to quiescence.
    fn unsubscribe(&mut self, id: SubscriptionId, at: BrokerId);
    /// Publishes one event; returns the deliveries it caused.
    fn publish(&mut self, event: EventMessage) -> u64;
    /// Publishes a batch; returns the deliveries it caused.
    fn publish_batch(&mut self, batch: &EventBatch) -> u64;
    /// Cumulative inter-broker traffic.
    fn network(&self) -> &NetworkStats;
    /// The broker a subscriber's client is connected to.
    fn home_broker_of(&self, subscriber: SubscriberId) -> BrokerId;
    /// The remote routing entries of one broker.
    fn remote_subscriptions(&self, broker: BrokerId) -> Vec<Subscription>;
    /// Installs a pruned tree for a remote entry.
    fn install_remote_tree(
        &mut self,
        broker: BrokerId,
        id: SubscriptionId,
        tree: SubscriptionTree,
    ) -> bool;
    /// Routing-table sizes over all brokers.
    fn memory_report(&self) -> RoutingMemoryReport;
    /// Starts recording every delivery.
    fn enable_delivery_log(&mut self);
    /// Takes the recorded deliveries.
    fn take_delivery_log(&mut self) -> Vec<(EventId, SubscriberId, SubscriptionId)>;
}

/// The broker ids of the benchmark's topology.
pub fn brokers() -> Vec<BrokerId> {
    config().topology.broker_ids().collect()
}

impl Net for Simulation {
    fn subscribe(&mut self, subscription: Subscription) {
        self.register_subscription(subscription);
    }

    fn unsubscribe(&mut self, id: SubscriptionId, at: BrokerId) {
        self.unregister_subscription(id, at);
    }

    fn publish(&mut self, event: EventMessage) -> u64 {
        Simulation::publish(self, event).deliveries.len() as u64
    }

    fn publish_batch(&mut self, batch: &EventBatch) -> u64 {
        Simulation::publish_batch(self, batch).deliveries
    }

    fn network(&self) -> &NetworkStats {
        self.network_stats()
    }

    fn home_broker_of(&self, subscriber: SubscriberId) -> BrokerId {
        Simulation::home_broker_of(self, subscriber)
    }

    fn remote_subscriptions(&self, broker: BrokerId) -> Vec<Subscription> {
        Simulation::remote_subscriptions(self, broker)
    }

    fn install_remote_tree(
        &mut self,
        broker: BrokerId,
        id: SubscriptionId,
        tree: SubscriptionTree,
    ) -> bool {
        Simulation::install_remote_tree(self, broker, id, tree)
    }

    fn memory_report(&self) -> RoutingMemoryReport {
        Simulation::memory_report(self)
    }

    fn enable_delivery_log(&mut self) {
        Simulation::enable_delivery_log(self);
    }

    fn take_delivery_log(&mut self) -> Vec<(EventId, SubscriberId, SubscriptionId)> {
        Simulation::take_delivery_log(self)
    }
}
