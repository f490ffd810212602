//! The traced network: moves frames between the [`Broker`]s with the same
//! public calls `Simulation::pump` and `Simulation::handle_frame` make, and
//! opens a span (see [`crate::trace`]) around each call into a layer.
//!
//! Every broker gets a [`DurableLog`] over [`TimedStorage`], so journal
//! writes made inside `Broker::handle_message_into` show up as child spans
//! of the broker's handling span. It covers the fault-free path
//! only: no crashes, restarts or fault plans.

use crate::net::Net;
use crate::trace::{self, Layer};
use broker::{
    AnalysisStats, Broker, BrokerId, ChannelTransport, Codec, DurableLog, MemoryStorage,
    MessageHandling, NetworkStats, ReliableSession, RoutingMemoryReport, SendOutcome,
    SimulationConfig, Storage, Transport, WireMessage,
};
use filtering::FilterStats;
use pubsub_core::{
    EventBatch, EventId, EventMessage, SubscriberId, Subscription, SubscriptionId, SubscriptionTree,
};
use std::collections::BTreeMap;

/// A [`Storage`] that opens a durability span around every call.
#[derive(Debug, Default)]
pub struct TimedStorage {
    inner: MemoryStorage,
}

impl Storage for TimedStorage {
    fn read(&self, name: &str) -> Option<Vec<u8>> {
        let _span = trace::span(Layer::DurabilityOther);
        self.inner.read(name)
    }

    fn write(&mut self, name: &str, bytes: &[u8]) {
        let _span = trace::span(Layer::DurabilityOther);
        self.inner.write(name, bytes);
    }

    fn append(&mut self, name: &str, bytes: &[u8]) {
        let _span = trace::span(Layer::DurabilityAppend);
        self.inner.append(name, bytes);
    }

    fn rename(&mut self, from: &str, to: &str) {
        let _span = trace::span(Layer::DurabilityOther);
        self.inner.rename(from, to);
    }

    fn remove(&mut self, name: &str) {
        let _span = trace::span(Layer::DurabilityOther);
        self.inner.remove(name);
    }
}

/// Counts the traced network keeps at the layer boundaries.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    /// Frames encoded (client injections and broker responses).
    pub frames_encoded: u64,
    /// Bytes of the frames encoded.
    pub bytes_encoded: u64,
    /// Outer frames taken off the transport.
    pub frames_received: u64,
    /// Reliable-link acks sent.
    pub ack_frames: u64,
    /// Largest number of frames in flight seen after a send.
    pub max_in_flight: u64,
    /// `PublishBatch` frames a broker handled.
    pub data_frames_handled: u64,
    /// Responses those data frames caused.
    pub data_outgoing: u64,
}

impl Counters {
    /// The counts accumulated since `earlier`; the in-flight high-water
    /// mark is kept as is.
    pub fn since(&self, earlier: &Counters) -> Counters {
        Counters {
            frames_encoded: self.frames_encoded - earlier.frames_encoded,
            bytes_encoded: self.bytes_encoded - earlier.bytes_encoded,
            frames_received: self.frames_received - earlier.frames_received,
            ack_frames: self.ack_frames - earlier.ack_frames,
            max_in_flight: self.max_in_flight,
            data_frames_handled: self.data_frames_handled - earlier.data_frames_handled,
            data_outgoing: self.data_outgoing - earlier.data_outgoing,
        }
    }
}

/// A traced re-implementation of the simulation's frame loop over the
/// program's public broker, codec, reliable-link, transport and
/// durability types.
#[derive(Debug)]
pub struct TracedNet {
    config: SimulationConfig,
    broker_ids: Vec<BrokerId>,
    brokers: BTreeMap<BrokerId, Broker>,
    network: NetworkStats,
    codec: Codec,
    transport: ChannelTransport,
    session: ReliableSession,
    recv_frame: Vec<u8>,
    send_frame: Vec<u8>,
    wrap_frame: Vec<u8>,
    message: WireMessage,
    handling: MessageHandling,
    batch: EventBatch,
    publish_counter: u64,
    delivery_log: Option<Vec<(EventId, SubscriberId, SubscriptionId)>>,
    counters: Counters,
}

impl TracedNet {
    /// Builds the brokers of `config` and brings every link up.
    ///
    /// # Panics
    /// Panics unless `config` has reliable links and a durable log: the
    /// traced network mirrors exactly that configuration.
    pub fn new(config: SimulationConfig) -> Self {
        assert!(config.reliability, "the traced network runs reliable links");
        let durability = config
            .durability
            .expect("the traced network runs with a durable log");
        let broker_ids: Vec<BrokerId> = config.topology.broker_ids().collect();
        let brokers = broker_ids
            .iter()
            .map(|&id| {
                let mut broker = Broker::with_engine_config(
                    id,
                    config.topology.neighbors(id),
                    config.engine,
                    config.engine_config,
                );
                broker.attach_durable_log(DurableLog::new(
                    Box::<TimedStorage>::default(),
                    durability,
                ));
                (id, broker)
            })
            .collect();
        let mut net = Self {
            config,
            broker_ids,
            brokers,
            network: NetworkStats::new(),
            codec: Codec::new(),
            transport: ChannelTransport::new(),
            session: ReliableSession::new(),
            recv_frame: Vec::new(),
            send_frame: Vec::new(),
            wrap_frame: Vec::new(),
            message: WireMessage::Ack {
                broker: BrokerId::from_raw(0),
            },
            handling: MessageHandling::new(),
            batch: EventBatch::new(),
            publish_counter: 0,
            delivery_log: None,
            counters: Counters::default(),
        };
        net.handshake();
        net
    }

    /// The layer-boundary counts so far.
    pub fn counters(&self) -> Counters {
        self.counters
    }

    /// Forgets the in-flight high-water mark, to measure a new stretch.
    pub fn reset_max_in_flight(&mut self) {
        self.counters.max_in_flight = 0;
    }

    /// Merged filtering counters of all brokers.
    pub fn filter_stats(&self) -> FilterStats {
        let mut stats = FilterStats::new();
        for broker in self.brokers.values() {
            stats.merge(&broker.filter_stats());
        }
        stats
    }

    /// Merged registration-time analysis counters of all brokers.
    pub fn analysis_stats(&self) -> AnalysisStats {
        let mut stats = AnalysisStats::default();
        for broker in self.brokers.values() {
            stats.merge(&broker.analysis_stats());
        }
        stats
    }

    /// String-cache misses of the traced network's codec so far.
    pub fn string_cache_misses(&self) -> u64 {
        self.codec.string_cache_misses()
    }

    fn handshake(&mut self) {
        for (a, b) in self.config.topology.links() {
            for (from, to) in [(a, b), (b, a)] {
                self.encode(&WireMessage::Hello { broker: from });
                let wire = self.transmit(from, to);
                self.network.record_control(wire);
            }
        }
        self.pump();
    }

    fn encode(&mut self, message: &WireMessage) {
        let _span = trace::span(Layer::WireEncode);
        self.send_frame.clear();
        self.codec.encode_into(message, &mut self.send_frame);
        self.counters.frames_encoded += 1;
        self.counters.bytes_encoded += self.send_frame.len() as u64;
    }

    fn send(&mut self, from: Option<BrokerId>, to: BrokerId, wrapped: bool) {
        let _span = trace::span(Layer::TransportSend);
        let frame = if wrapped {
            &self.wrap_frame
        } else {
            &self.send_frame
        };
        self.transport.send(from, to, frame);
        self.counters.max_in_flight = self
            .counters
            .max_in_flight
            .max(self.transport.in_flight() as u64);
    }

    /// Client injection of the frame in `send_frame`: a bare codec frame.
    fn inject(&mut self, to: BrokerId) {
        self.send(None, to, false);
    }

    fn transmit(&mut self, from: BrokerId, to: BrokerId) -> usize {
        let outcome = {
            let _span = trace::span(Layer::ReliableWrap);
            self.session.wrap_send(
                from,
                to,
                &self.send_frame,
                &mut self.wrap_frame,
                &mut self.network,
            )
        };
        match outcome {
            SendOutcome::Sent(len) => {
                self.send(Some(from), to, true);
                len
            }
            SendOutcome::Queued(len) => len,
            SendOutcome::Dropped => 0,
        }
    }

    fn pump(&mut self) -> u64 {
        let mut delivered = 0u64;
        let mut inner_frames = Vec::new();
        let mut acks = Vec::new();
        let mut retransmit = Vec::new();
        loop {
            loop {
                let received = {
                    let _span = trace::span(Layer::TransportRecv);
                    self.transport.recv_into(&mut self.recv_frame)
                };
                let Some((from, to)) = received else {
                    break;
                };
                self.counters.frames_received += 1;
                match from {
                    Some(from) => {
                        {
                            let _span = trace::span(Layer::ReliableUnwrap);
                            self.session.recv(
                                from,
                                to,
                                &self.recv_frame,
                                &mut inner_frames,
                                &mut acks,
                                &mut self.network,
                            );
                        }
                        for (ack_from, ack_to, frame) in acks.drain(..) {
                            self.network.record_control(frame.len());
                            self.counters.ack_frames += 1;
                            let _span = trace::span(Layer::TransportSend);
                            self.transport.send(Some(ack_from), ack_to, &frame);
                        }
                        for inner in inner_frames.drain(..) {
                            self.recv_frame.clear();
                            self.recv_frame.extend_from_slice(&inner);
                            delivered += self.handle_frame(Some(from), to);
                        }
                    }
                    None => delivered += self.handle_frame(None, to),
                }
            }
            if !self.session.has_unacked() {
                break;
            }
            {
                let _span = trace::span(Layer::ReliableTick);
                self.session.tick(&mut retransmit, &mut self.network);
            }
            for (from, to, frame) in retransmit.drain(..) {
                let _span = trace::span(Layer::TransportSend);
                self.transport.send(Some(from), to, &frame);
            }
        }
        for broker in self.brokers.values_mut() {
            if let Some(journal) = broker.durable_log_mut() {
                let stats = journal.drain_stats();
                self.network.log_records_replayed += stats.log_records_replayed;
                self.network.snapshot_compactions += stats.snapshot_compactions;
                self.network.log_bytes += stats.log_bytes;
                self.network.log_corrupt_truncations += stats.log_corrupt_truncations;
            }
        }
        delivered
    }

    fn handle_frame(&mut self, from: Option<BrokerId>, to: BrokerId) -> u64 {
        let decoded = {
            let _span = trace::span(Layer::WireDecode);
            self.codec.decode_into(&self.recv_frame, &mut self.message)
        };
        if decoded.is_err() {
            self.network.decode_errors += 1;
            return 0;
        }
        let layer = match &self.message {
            WireMessage::PublishBatch { .. } => Layer::BrokerPublish,
            WireMessage::Subscribe { .. } => Layer::BrokerSubscribe,
            WireMessage::Unsubscribe { .. } => Layer::BrokerUnsubscribe,
            _ => Layer::BrokerControl,
        };
        let broker = self
            .brokers
            .get_mut(&to)
            .expect("frame addressed to a known broker");
        let mut handling = std::mem::take(&mut self.handling);
        {
            let _span = trace::span(layer);
            broker.handle_message_into(&self.message, from, &mut handling);
        }
        let mut delivered = 0u64;
        if let WireMessage::PublishBatch { events } = &self.message {
            self.counters.data_frames_handled += 1;
            self.counters.data_outgoing += handling.outgoing.len() as u64;
            let suppress = from.is_none() && !self.config.deliver_at_origin;
            if !suppress {
                delivered += handling.deliveries.len() as u64;
                if let Some(log) = self.delivery_log.as_mut() {
                    log.extend(handling.deliveries.iter().map(|&(index, subscriber, id)| {
                        (events.event(index).id(), subscriber, id)
                    }));
                }
            }
        }
        for index in 0..handling.outgoing.len() {
            let (neighbor, response) = &handling.outgoing[index];
            let neighbor = *neighbor;
            let events = match response {
                WireMessage::PublishBatch { events } => Some(events.len() as u64),
                _ => None,
            };
            self.encode(response);
            let wire = self.transmit(to, neighbor);
            if wire == 0 {
                continue;
            }
            match events {
                Some(events) => self.network.record_frame(to, neighbor, events, wire),
                None => self.network.record_control(wire),
            }
        }
        self.handling = handling;
        delivered
    }

    fn publisher_broker(&self, n: u64) -> BrokerId {
        self.broker_ids[(n % self.broker_ids.len() as u64) as usize]
    }
}

impl Net for TracedNet {
    fn subscribe(&mut self, subscription: Subscription) {
        let _op = trace::span(Layer::OpSubscribe);
        let home = self.home_broker_of(subscription.subscriber());
        self.encode(&WireMessage::Subscribe { subscription });
        self.inject(home);
        self.pump();
    }

    fn unsubscribe(&mut self, id: SubscriptionId, at: BrokerId) {
        let _op = trace::span(Layer::OpUnsubscribe);
        self.encode(&WireMessage::Unsubscribe { id });
        self.inject(at);
        self.pump();
    }

    fn publish(&mut self, event: EventMessage) -> u64 {
        let _op = trace::span(Layer::OpPublish);
        let origin = self.publisher_broker(self.publish_counter);
        self.publish_counter += 1;
        self.batch.clear();
        self.batch.push(event);
        {
            let _span = trace::span(Layer::WireEncode);
            self.send_frame.clear();
            self.codec
                .encode_publish_batch(&self.batch, &mut self.send_frame);
            self.counters.frames_encoded += 1;
            self.counters.bytes_encoded += self.send_frame.len() as u64;
        }
        self.inject(origin);
        self.pump()
    }

    fn publish_batch(&mut self, batch: &EventBatch) -> u64 {
        let _op = trace::span(Layer::OpPublish);
        let mut origin_groups: BTreeMap<BrokerId, Vec<usize>> = BTreeMap::new();
        for index in 0..batch.len() {
            let origin = self.publisher_broker(self.publish_counter + index as u64);
            origin_groups.entry(origin).or_default().push(index);
        }
        self.publish_counter += batch.len() as u64;
        for (origin, indexes) in &origin_groups {
            {
                let _span = trace::span(Layer::WireEncode);
                self.send_frame.clear();
                self.codec
                    .encode_publish_batch_indexes(batch, Some(indexes), &mut self.send_frame);
                self.counters.frames_encoded += 1;
                self.counters.bytes_encoded += self.send_frame.len() as u64;
            }
            self.inject(*origin);
        }
        self.pump()
    }

    fn network(&self) -> &NetworkStats {
        &self.network
    }

    fn home_broker_of(&self, subscriber: SubscriberId) -> BrokerId {
        self.broker_ids[(subscriber.raw() % self.broker_ids.len() as u64) as usize]
    }

    fn remote_subscriptions(&self, broker: BrokerId) -> Vec<Subscription> {
        self.brokers
            .get(&broker)
            .map(Broker::remote_subscriptions)
            .unwrap_or_default()
    }

    fn install_remote_tree(
        &mut self,
        broker: BrokerId,
        id: SubscriptionId,
        tree: SubscriptionTree,
    ) -> bool {
        self.brokers
            .get_mut(&broker)
            .is_some_and(|b| b.install_remote_tree(id, tree))
    }

    fn memory_report(&self) -> RoutingMemoryReport {
        let mut total = RoutingMemoryReport::default();
        for broker in self.brokers.values() {
            total.merge(&broker.memory_report());
        }
        total
    }

    fn enable_delivery_log(&mut self) {
        self.delivery_log.get_or_insert_with(Vec::new);
    }

    fn take_delivery_log(&mut self) -> Vec<(EventId, SubscriberId, SubscriptionId)> {
        self.delivery_log
            .as_mut()
            .map(std::mem::take)
            .unwrap_or_default()
    }
}
