//! Per-broker routing tables: local-client entries and per-neighbor remote
//! entries.

use crate::metrics::RoutingMemoryReport;
use filtering::{
    AnyEngine, DiscriminationHint, EngineConfig, EngineKind, FilterStats, MatchSink, VecSink,
};
use pubsub_core::{
    BrokerId, EventBatch, SubscriberId, Subscription, SubscriptionId, SubscriptionTree,
};
use std::collections::BTreeMap;

/// A [`MatchSink`] that only remembers *whether* each batch event matched —
/// all the per-neighbor forwarding decision needs. Reused across neighbors
/// and batches, so batch routing allocates nothing in steady state.
#[derive(Debug, Default)]
struct AnyMatchSink {
    matched: Vec<bool>,
}

impl MatchSink for AnyMatchSink {
    fn begin_batch(&mut self, batch_len: usize) {
        self.matched.clear();
        self.matched.resize(batch_len, false);
    }

    fn on_match(&mut self, event_index: usize, _sub: SubscriptionId) {
        self.matched[event_index] = true;
    }
}

/// The routing table of one broker.
///
/// Subscription forwarding installs each subscription in two kinds of places:
///
/// * at the subscriber's **home broker** as a *local entry* — these are exact
///   and are never pruned (otherwise notifications could be lost);
/// * at every **other broker** as a *remote entry* pointing towards the
///   neighbor that leads to the home broker — these are the entries the
///   pruning optimization may generalize, because any false positive they
///   admit is post-filtered closer to (or at) the home broker.
///
/// Each destination is backed by its own matching engine (a
/// single-threaded `CountingEngine` by default, or a sharded parallel engine
/// — see [`RoutingTable::with_engine`] and [`EngineKind`]), so matching an
/// event against the routing table answers both "which local subscribers get
/// a notification" and "which neighbors need a copy of this event".
#[derive(Debug, Default)]
pub struct RoutingTable {
    /// The engine kind new per-destination engines are built as.
    engine_kind: EngineKind,
    /// The staged-pipeline configuration every destination engine runs with
    /// (applied to lazily-built per-neighbor engines too).
    engine_config: EngineConfig,
    /// Selectivity hint handed to every destination engine, including ones
    /// built after the hint was installed.
    hint: Option<DiscriminationHint>,
    local: AnyEngine,
    per_neighbor: BTreeMap<BrokerId, AnyEngine>,
    /// Where each remote entry currently lives (subscription id → neighbor).
    remote_destination: BTreeMap<SubscriptionId, BrokerId>,
    /// Reusable sink for batch-matching the local engine.
    batch_sink: VecSink,
    /// Reusable per-event matched flags for the per-neighbor forwarding
    /// decision.
    any_match: AnyMatchSink,
    /// Spare per-event forwarding buckets parked here when `forward_batch`
    /// shrinks its output to a smaller batch, so alternating hop sizes do
    /// not free and reallocate the nested buffers.
    forward_spares: Vec<Vec<BrokerId>>,
}

impl RoutingTable {
    /// Creates an empty routing table backed by single-threaded
    /// [`EngineKind::Counting`] engines.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty routing table whose local and per-neighbor engines
    /// are built as the given [`EngineKind`] with the default pipeline
    /// configuration.
    pub fn with_engine(kind: EngineKind) -> Self {
        Self::with_engine_config(kind, EngineConfig::default())
    }

    /// Creates an empty routing table whose local and per-neighbor engines
    /// are built as the given [`EngineKind`], all running the given
    /// staged-pipeline configuration — including per-neighbor engines built
    /// lazily when the first remote entry towards that neighbor arrives.
    pub fn with_engine_config(kind: EngineKind, config: EngineConfig) -> Self {
        Self {
            engine_kind: kind,
            engine_config: config,
            local: kind.build_with_config(config),
            ..Self::default()
        }
    }

    /// The engine kind this table builds its destination engines as.
    pub fn engine_kind(&self) -> EngineKind {
        self.engine_kind
    }

    /// The staged-pipeline configuration this table's engines run with.
    pub fn engine_config(&self) -> EngineConfig {
        self.engine_config
    }

    /// Replaces the staged-pipeline configuration on every existing
    /// destination engine and for every engine built afterwards.
    pub fn set_engine_config(&mut self, config: EngineConfig) {
        self.engine_config = config;
        self.local.set_config(config);
        for engine in self.per_neighbor.values_mut() {
            engine.set_config(config);
        }
    }

    /// Installs (or clears) the selectivity hint steering each engine's
    /// stage-0 discrimination choice. Every destination engine — current and
    /// future — receives its own copy.
    pub fn set_discrimination_hint(&mut self, hint: Option<DiscriminationHint>) {
        self.local.set_discrimination_hint(hint.clone());
        for engine in self.per_neighbor.values_mut() {
            engine.set_discrimination_hint(hint.clone());
        }
        self.hint = hint;
    }

    /// Registers a local-client subscription.
    pub fn add_local(&mut self, subscription: Subscription) {
        self.local.insert(subscription);
    }

    /// Registers a remote entry whose matches must be forwarded towards the
    /// given neighbor. An entry with the same id that pointed towards a
    /// different neighbor is moved, not duplicated.
    pub fn add_remote(&mut self, subscription: Subscription, toward: BrokerId) {
        let id = subscription.id();
        let previous = self.remote_destination.insert(id, toward);
        if let Some(previous) = previous.filter(|&previous| previous != toward) {
            if let Some(engine) = self.per_neighbor.get_mut(&previous) {
                engine.remove(id);
            }
        }
        let kind = self.engine_kind;
        let config = self.engine_config;
        let hint = &self.hint;
        let engine = self.per_neighbor.entry(toward).or_insert_with(|| {
            let mut engine = kind.build_with_config(config);
            if hint.is_some() {
                engine.set_discrimination_hint(hint.clone());
            }
            engine
        });
        engine.insert(subscription);
        if engine.get(id).is_none() {
            // The engine's registration-time analysis rejected the tree as
            // unsatisfiable; keep the destination map consistent with what
            // is actually indexed.
            self.remote_destination.remove(&id);
        }
    }

    /// Removes a subscription from wherever it is registered.
    pub fn remove(&mut self, id: SubscriptionId) -> Option<Subscription> {
        if let Some(sub) = self.local.remove(id) {
            return Some(sub);
        }
        let toward = self.remote_destination.remove(&id)?;
        self.per_neighbor.get_mut(&toward)?.remove(id)
    }

    /// Replaces the tree of a remote entry (installing a pruned version).
    /// Returns `false` if the subscription is not a remote entry of this
    /// table.
    pub fn install_remote_tree(&mut self, id: SubscriptionId, tree: SubscriptionTree) -> bool {
        let Some(toward) = self.remote_destination.get(&id) else {
            return false;
        };
        let Some(engine) = self.per_neighbor.get_mut(toward) else {
            return false;
        };
        let Some(existing) = engine.get(id) else {
            return false;
        };
        let replacement = existing.with_tree(tree);
        engine.insert(replacement);
        true
    }

    /// The current remote entries (their possibly pruned form), in
    /// subscription-id order.
    pub fn remote_subscriptions(&self) -> Vec<Subscription> {
        let mut subs: Vec<Subscription> = self
            .per_neighbor
            .values()
            .flat_map(|engine| engine.subscriptions().cloned())
            .collect();
        subs.sort_by_key(Subscription::id);
        subs
    }

    /// The current local entries, in subscription-id order.
    pub fn local_subscriptions(&self) -> Vec<Subscription> {
        let mut subs: Vec<Subscription> = self.local.subscriptions().cloned().collect();
        subs.sort_by_key(Subscription::id);
        subs
    }

    /// The neighbor a remote entry currently points towards.
    pub fn remote_destination(&self, id: SubscriptionId) -> Option<BrokerId> {
        self.remote_destination.get(&id).copied()
    }

    /// Looks up a registered subscription — local or remote — by id,
    /// returning its currently indexed (possibly normalized or pruned) form.
    pub fn subscription(&self, id: SubscriptionId) -> Option<&Subscription> {
        if let Some(sub) = self.local.get(id) {
            return Some(sub);
        }
        let toward = self.remote_destination.get(&id)?;
        self.per_neighbor.get(toward)?.get(id)
    }

    /// Iterates over every registered entry as `(origin, subscription)`:
    /// `None` for local-client entries, `Some(neighbor)` for remote entries
    /// pointing towards that neighbor. Order is unspecified.
    pub fn entries(&self) -> impl Iterator<Item = (Option<BrokerId>, &Subscription)> {
        self.local
            .subscriptions()
            .map(|sub| (None, sub))
            .chain(self.per_neighbor.iter().flat_map(|(neighbor, engine)| {
                engine
                    .subscriptions()
                    .map(move |sub| (Some(*neighbor), sub))
            }))
    }

    /// Matches a whole batch against the local entries, replacing `out` with
    /// `(event index, subscriber, subscription)` triples to notify.
    ///
    /// The local engine is driven once for the whole batch, and the table's
    /// reusable sink keeps the operation allocation-free in steady state
    /// (apart from growing `out`).
    pub fn match_local_batch(
        &mut self,
        batch: &EventBatch,
        out: &mut Vec<(usize, SubscriberId, SubscriptionId)>,
    ) {
        out.clear();
        self.local.match_batch(batch, &mut self.batch_sink);
        out.extend(self.batch_sink.matches().iter().map(|&(event_index, id)| {
            let subscriber = self
                .local
                .get(id)
                .expect("matched subscription is registered")
                .subscriber();
            (event_index, subscriber, id)
        }));
    }

    /// Determines, per batch event, which neighbors need a copy: for each
    /// event `i` of the batch, `out[i]` lists every neighbor (except
    /// `exclude`, the link the batch arrived on) whose engine reports at
    /// least one matching remote entry, in ascending broker-id order.
    ///
    /// Each per-neighbor engine is driven once for the whole batch; the
    /// nested buffers of `out` are reused across calls.
    pub fn forward_batch(
        &mut self,
        batch: &EventBatch,
        exclude: Option<BrokerId>,
        out: &mut Vec<Vec<BrokerId>>,
    ) {
        for neighbors in out.iter_mut() {
            neighbors.clear();
        }
        // Resize to exactly `batch.len()` entries without freeing nested
        // buffers: shrinking parks the (cleared) tail buckets in the spare
        // pool, growing takes them back before allocating fresh ones.
        while out.len() > batch.len() {
            self.forward_spares
                .push(out.pop().expect("len checked above"));
        }
        while out.len() < batch.len() {
            out.push(self.forward_spares.pop().unwrap_or_default());
        }
        for (neighbor, engine) in &mut self.per_neighbor {
            if Some(*neighbor) == exclude {
                continue;
            }
            engine.match_batch(batch, &mut self.any_match);
            for (event_index, matched) in self.any_match.matched.iter().enumerate() {
                if *matched {
                    out[event_index].push(*neighbor);
                }
            }
        }
    }

    /// Number of local entries.
    pub fn local_len(&self) -> usize {
        self.local.len()
    }

    /// Number of remote entries.
    pub fn remote_len(&self) -> usize {
        self.remote_destination.len()
    }

    /// Memory accounting for this routing table.
    pub fn memory_report(&self) -> RoutingMemoryReport {
        let local = self.local.report();
        let mut remote_associations = 0;
        let mut remote_bytes = 0;
        let mut remote_subscriptions = 0;
        for engine in self.per_neighbor.values() {
            let report = engine.report();
            remote_associations += report.association_count;
            remote_bytes += report.tree_bytes;
            remote_subscriptions += report.subscription_count;
        }
        RoutingMemoryReport {
            local_subscriptions: local.subscription_count,
            local_associations: local.association_count,
            local_bytes: local.tree_bytes,
            remote_subscriptions,
            remote_associations,
            remote_bytes,
        }
    }

    /// Merged filtering statistics of all engines in this table.
    pub fn filter_stats(&self) -> FilterStats {
        let mut stats = *self.local.stats();
        for engine in self.per_neighbor.values() {
            stats.merge(engine.stats());
        }
        stats
    }

    /// Resets the filtering statistics of all engines.
    pub fn reset_filter_stats(&mut self) {
        self.local.reset_stats();
        for engine in self.per_neighbor.values_mut() {
            engine.reset_stats();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pubsub_core::{EventMessage, Expr};

    fn b(i: u32) -> BrokerId {
        BrokerId::from_raw(i)
    }

    fn sub(id: u64, subscriber: u64, expr: &Expr) -> Subscription {
        Subscription::from_expr(
            SubscriptionId::from_raw(id),
            SubscriberId::from_raw(subscriber),
            expr,
        )
    }

    fn books_event(price: i64) -> EventMessage {
        EventMessage::builder()
            .attr("category", "books")
            .attr("price", price)
            .build()
    }

    fn one(event: &EventMessage) -> EventBatch {
        std::iter::once(event.clone()).collect()
    }

    /// The local `(subscriber, subscription)` hits of one event.
    fn local_hits(
        table: &mut RoutingTable,
        event: &EventMessage,
    ) -> Vec<(SubscriberId, SubscriptionId)> {
        let mut out = Vec::new();
        table.match_local_batch(&one(event), &mut out);
        out.into_iter()
            .map(|(_, subscriber, id)| (subscriber, id))
            .collect()
    }

    /// The neighbors one event is forwarded to.
    fn forward_targets(
        table: &mut RoutingTable,
        event: &EventMessage,
        exclude: Option<BrokerId>,
    ) -> Vec<BrokerId> {
        let mut out = Vec::new();
        table.forward_batch(&one(event), exclude, &mut out);
        out.pop().unwrap_or_default()
    }

    #[test]
    fn local_matching_reports_subscribers() {
        let mut table = RoutingTable::new();
        table.add_local(sub(1, 10, &Expr::eq("category", "books")));
        table.add_local(sub(2, 20, &Expr::eq("category", "music")));
        let hits = local_hits(&mut table, &books_event(5));
        assert_eq!(
            hits,
            vec![(SubscriberId::from_raw(10), SubscriptionId::from_raw(1))]
        );
        assert_eq!(table.local_len(), 2);
        assert_eq!(table.remote_len(), 0);
    }

    #[test]
    fn forwarding_targets_only_matching_neighbors() {
        let mut table = RoutingTable::new();
        table.add_remote(sub(1, 10, &Expr::eq("category", "books")), b(1));
        table.add_remote(sub(2, 20, &Expr::eq("category", "music")), b(2));
        let forward = forward_targets(&mut table, &books_event(5), None);
        assert_eq!(forward, vec![b(1)]);
        // The link the event arrived on is excluded even if it matches.
        let forward = forward_targets(&mut table, &books_event(5), Some(b(1)));
        assert!(forward.is_empty());
    }

    #[test]
    fn re_homing_a_remote_entry_moves_it() {
        let mut table = RoutingTable::new();
        let entry = sub(1, 10, &Expr::eq("category", "books"));
        table.add_remote(entry.clone(), b(1));
        table.add_remote(entry, b(2));
        assert_eq!(
            table.remote_destination(SubscriptionId::from_raw(1)),
            Some(b(2))
        );
        assert_eq!(table.remote_len(), 1);
        assert_eq!(table.remote_subscriptions().len(), 1);
        assert_eq!(table.memory_report().remote_subscriptions, 1);
        // The event goes towards the new home only.
        assert_eq!(
            forward_targets(&mut table, &books_event(5), None),
            vec![b(2)]
        );
        // Removal leaves nothing behind at either neighbor.
        assert!(table.remove(SubscriptionId::from_raw(1)).is_some());
        assert!(table.remote_subscriptions().is_empty());
        assert!(forward_targets(&mut table, &books_event(5), None).is_empty());
    }

    #[test]
    fn install_remote_tree_generalizes_entry() {
        let mut table = RoutingTable::new();
        let original = sub(
            1,
            10,
            &Expr::and(vec![
                Expr::eq("category", "books"),
                Expr::le("price", 10i64),
            ]),
        );
        table.add_remote(original.clone(), b(1));
        // An expensive book does not match the exact entry.
        assert!(forward_targets(&mut table, &books_event(50), None).is_empty());
        // Install the pruned entry (price constraint removed).
        let pruned_tree = SubscriptionTree::from_expr(&Expr::eq("category", "books"));
        assert!(table.install_remote_tree(SubscriptionId::from_raw(1), pruned_tree));
        assert_eq!(
            forward_targets(&mut table, &books_event(50), None),
            vec![b(1)]
        );
        // Destination is unchanged.
        assert_eq!(
            table.remote_destination(SubscriptionId::from_raw(1)),
            Some(b(1))
        );
        // Installing for an unknown subscription fails.
        assert!(!table.install_remote_tree(
            SubscriptionId::from_raw(99),
            SubscriptionTree::from_expr(&Expr::eq("category", "books"))
        ));
    }

    #[test]
    fn memory_report_separates_local_and_remote() {
        let mut table = RoutingTable::new();
        table.add_local(sub(
            1,
            10,
            &Expr::and(vec![
                Expr::eq("category", "books"),
                Expr::le("price", 10i64),
            ]),
        ));
        table.add_remote(sub(2, 20, &Expr::eq("category", "music")), b(1));
        table.add_remote(
            sub(
                3,
                30,
                &Expr::and(vec![Expr::eq("a", 1i64), Expr::eq("b", 2i64)]),
            ),
            b(2),
        );
        let report = table.memory_report();
        assert_eq!(report.local_subscriptions, 1);
        assert_eq!(report.local_associations, 2);
        assert_eq!(report.remote_subscriptions, 2);
        assert_eq!(report.remote_associations, 3);
        assert!(report.remote_bytes > 0);
        assert_eq!(report.total_associations(), 5);
    }

    #[test]
    fn remove_works_for_both_kinds() {
        let mut table = RoutingTable::new();
        table.add_local(sub(1, 10, &Expr::eq("a", 1i64)));
        table.add_remote(sub(2, 20, &Expr::eq("b", 2i64)), b(1));
        assert!(table.remove(SubscriptionId::from_raw(1)).is_some());
        assert!(table.remove(SubscriptionId::from_raw(2)).is_some());
        assert!(table.remove(SubscriptionId::from_raw(2)).is_none());
        assert_eq!(table.local_len(), 0);
        assert_eq!(table.remote_len(), 0);
    }

    #[test]
    fn subscription_listings_are_sorted() {
        let mut table = RoutingTable::new();
        table.add_remote(sub(5, 20, &Expr::eq("b", 2i64)), b(1));
        table.add_remote(sub(3, 20, &Expr::eq("c", 2i64)), b(2));
        table.add_local(sub(9, 10, &Expr::eq("a", 1i64)));
        table.add_local(sub(4, 10, &Expr::eq("a", 2i64)));
        let remote_ids: Vec<u64> = table
            .remote_subscriptions()
            .iter()
            .map(|s| s.id().raw())
            .collect();
        assert_eq!(remote_ids, vec![3, 5]);
        let local_ids: Vec<u64> = table
            .local_subscriptions()
            .iter()
            .map(|s| s.id().raw())
            .collect();
        assert_eq!(local_ids, vec![4, 9]);
    }

    #[test]
    fn batch_matching_agrees_with_per_event_matching() {
        let mut table = RoutingTable::new();
        table.add_local(sub(1, 10, &Expr::eq("category", "books")));
        table.add_local(sub(2, 20, &Expr::le("price", 3i64)));
        table.add_remote(sub(3, 30, &Expr::eq("category", "books")), b(1));
        table.add_remote(sub(4, 40, &Expr::ge("price", 100i64)), b(2));

        let events: Vec<EventMessage> = vec![books_event(2), books_event(50), books_event(200)];
        let batch: EventBatch = events.iter().cloned().collect();

        let mut local = Vec::new();
        table.match_local_batch(&batch, &mut local);
        let mut forward = Vec::new();
        table.forward_batch(&batch, None, &mut forward);
        assert_eq!(forward.len(), batch.len());

        for (i, event) in events.iter().enumerate() {
            let expected_local = local_hits(&mut table, event);
            let got_local: Vec<(SubscriberId, SubscriptionId)> = local
                .iter()
                .filter(|(e, _, _)| *e == i)
                .map(|&(_, subscriber, id)| (subscriber, id))
                .collect();
            assert_eq!(got_local, expected_local, "event {i}");
            let expected_forward = forward_targets(&mut table, event, None);
            assert_eq!(forward[i], expected_forward, "event {i}");
        }

        // Exclusion applies to every event of the batch.
        table.forward_batch(&batch, Some(b(1)), &mut forward);
        assert!(forward.iter().all(|n| !n.contains(&b(1))));
    }

    #[test]
    fn forward_batch_resizes_and_clears_reused_buffers() {
        let mut table = RoutingTable::new();
        table.add_remote(sub(1, 10, &Expr::eq("category", "books")), b(1));
        let big: EventBatch = (0..4).map(|_| books_event(1)).collect();
        let mut out = Vec::new();
        table.forward_batch(&big, None, &mut out);
        assert_eq!(out.len(), 4);
        assert!(out.iter().all(|n| n == &vec![b(1)]));
        // A smaller follow-up batch must not leak entries from the big one.
        let small: EventBatch =
            std::iter::once(EventMessage::builder().attr("category", "music").build()).collect();
        table.forward_batch(&small, None, &mut out);
        assert_eq!(out.len(), 1);
        assert!(out[0].is_empty());
    }

    #[test]
    fn sharded_table_routes_and_matches_like_the_default_table() {
        let mut counting = RoutingTable::new();
        let mut sharded = RoutingTable::with_engine(EngineKind::Sharded(2));
        assert_eq!(sharded.engine_kind(), EngineKind::Sharded(2));
        for table in [&mut counting, &mut sharded] {
            table.add_local(sub(1, 10, &Expr::eq("category", "books")));
            table.add_local(sub(2, 20, &Expr::le("price", 3i64)));
            table.add_remote(sub(3, 30, &Expr::eq("category", "books")), b(1));
            table.add_remote(sub(4, 40, &Expr::ge("price", 100i64)), b(2));
        }
        let batch: EventBatch = vec![books_event(2), books_event(50), books_event(200)]
            .into_iter()
            .collect();
        let mut expected_local = Vec::new();
        counting.match_local_batch(&batch, &mut expected_local);
        let mut got_local = Vec::new();
        sharded.match_local_batch(&batch, &mut got_local);
        assert_eq!(got_local, expected_local);
        let mut expected_forward = Vec::new();
        counting.forward_batch(&batch, None, &mut expected_forward);
        let mut got_forward = Vec::new();
        sharded.forward_batch(&batch, None, &mut got_forward);
        assert_eq!(got_forward, expected_forward);
        // Removal and listings work through the sharded engines too.
        assert!(sharded.remove(SubscriptionId::from_raw(3)).is_some());
        assert_eq!(sharded.remote_len(), 1);
        assert_eq!(sharded.local_subscriptions().len(), 2);
    }

    #[test]
    fn engine_config_reaches_every_destination_engine() {
        use filtering::PrefilterMode;
        let mut table = RoutingTable::with_engine_config(
            EngineKind::Counting,
            EngineConfig::with_prefilter(PrefilterMode::On),
        );
        assert_eq!(table.engine_config().prefilter, PrefilterMode::On);
        let conjunction = Expr::and(vec![
            Expr::eq("category", "books"),
            Expr::le("price", 10i64),
        ]);
        table.add_local(sub(1, 10, &conjunction));
        // Neighbor engines are built lazily *after* construction and must
        // still pick up the configured mode (and hint, were one installed).
        table.set_discrimination_hint(None);
        table.add_remote(sub(2, 20, &conjunction), b(1));
        // A partial match — the category predicate fires but the required
        // `price` attribute is absent — is killed by stage 0 on both the
        // local and the per-neighbor engine, and the stage counters must
        // surface in the merged stats.
        let no_price = EventMessage::builder().attr("category", "books").build();
        assert!(local_hits(&mut table, &no_price).is_empty());
        assert!(forward_targets(&mut table, &no_price, None).is_empty());
        let stats = table.filter_stats();
        assert_eq!(stats.killed_by_prefilter, 2);
        assert_eq!(stats.stage2_candidates, 0);
        // Switching the mode off propagates to existing engines: the same
        // event now reaches stage 2 (and is rejected there by pmin counting).
        table.set_engine_config(EngineConfig::with_prefilter(PrefilterMode::Off));
        assert_eq!(table.engine_config().prefilter, PrefilterMode::Off);
        assert!(local_hits(&mut table, &no_price).is_empty());
        assert!(forward_targets(&mut table, &no_price, None).is_empty());
        let stats = table.filter_stats();
        assert_eq!(stats.killed_by_prefilter, 2, "stage 0 no longer killing");
        assert_eq!(stats.stage2_candidates, 2);
    }

    #[test]
    fn filter_stats_accumulate_and_reset() {
        let mut table = RoutingTable::new();
        table.add_local(sub(1, 10, &Expr::eq("category", "books")));
        table.add_remote(sub(2, 20, &Expr::eq("category", "books")), b(1));
        let _ = local_hits(&mut table, &books_event(1));
        let _ = forward_targets(&mut table, &books_event(1), None);
        let stats = table.filter_stats();
        assert_eq!(stats.events_filtered, 2); // one per engine touched
        assert_eq!(stats.matches, 2);
        table.reset_filter_stats();
        assert_eq!(table.filter_stats().events_filtered, 0);
    }
}
