//! One broker network driven through a workload: set-up, the closed loop,
//! and the checks against the oracle.

use crate::meter::{Kind, Meter, Samples};
use crate::net::{self, Net};
use crate::oracle::{self, Oracle};
use crate::spec::{Inputs, Spec};
use crate::trace::{self, Layer};
use pruning::{Dimension, Pruner, PrunerConfig};
use pubsub_core::{EventBatch, Subscription, SubscriptionId};
use selectivity::SelectivityEstimator;
use std::collections::VecDeque;
use std::time::Instant;

/// What set-up does with the dimension-based pruning plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanMode {
    /// No plan is computed.
    Skip,
    /// The plan is computed and timed but not applied.
    Compute,
    /// Half of each broker's plan is applied to its remote entries.
    ApplyHalf,
}

/// What one set-up cost and produced. Times are scaled to the reference
/// host (see [`crate::meter`]) unless marked unscaled.
#[derive(Debug, Clone, Default)]
pub struct SetupReport {
    /// Construction + registration + pruning + warm-up, in seconds.
    pub setup_s: f64,
    /// Registration alone, in seconds.
    pub register_s: f64,
    /// Building the selectivity estimator, in unscaled seconds.
    pub estimator_s: f64,
    /// Computing the pruning plans, in unscaled seconds.
    pub plan_s: f64,
    /// Prunings installed.
    pub prunings: usize,
    /// Remote routing-entry associations removed by pruning, as a share.
    pub remote_assoc_reduction: f64,
    /// Latency of each registration, in scaled nanoseconds.
    pub subscribe_ns: Vec<u64>,
    /// Control-plane bytes registration caused.
    pub control_bytes: u64,
}

/// When the closed loop stops.
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    /// After `seconds` of wall time, once `min_subscribes` subscribe calls
    /// were timed (churn's subscribe p99 needs them).
    Time { seconds: f64, min_subscribes: usize },
    /// After exactly this many operations.
    Ops(u64),
}

impl Stop {
    fn reached(self, meter: &Meter) -> bool {
        match self {
            Stop::Time {
                seconds,
                min_subscribes,
            } => meter.elapsed_s() >= seconds && meter.subscribes() >= min_subscribes,
            Stop::Ops(limit) => meter.ops() >= limit,
        }
    }
}

/// Traffic and deliveries of a whole session, compared between the traced
/// and untraced networks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Totals {
    pub deliveries: u64,
    pub messages: u64,
    pub bytes: u64,
    pub control_bytes: u64,
}

/// A broker network plus the position in its workload's operation stream.
#[derive(Debug)]
pub struct Session<N> {
    pub net: N,
    pub setup: SetupReport,
    /// Next operation index.
    next: u64,
    /// Publishes so far (churn picks its batch by this).
    publishes: u64,
    /// Live subscriptions, oldest first.
    live: VecDeque<Subscription>,
    /// Churn: deliveries of every publish call by publish number, for the
    /// oracle replay in [`check_counts`](Self::check_counts).
    churn_published: Vec<(u64, u64)>,
    /// Other workloads: publish calls whose delivery count differed from
    /// the oracle's, checked as they return.
    count_mismatches: u64,
    /// Deliveries of all publish calls of the operation stream.
    delivered: u64,
    /// Publish, subscribe and unsubscribe calls made.
    pub calls: u64,
    /// Subscribe and unsubscribe calls made.
    pub writes: u64,
}

impl<N: Net> Session<N> {
    /// Builds a network with `make`, registers the initial subscriptions,
    /// applies `plan`, and warms up.
    pub fn setup(make: impl FnOnce() -> N, spec: &Spec, inputs: &Inputs, plan: PlanMode) -> Self {
        let live: VecDeque<Subscription> = inputs.initial.iter().cloned().collect();
        let mut meter = Meter::start();
        let net = meter.time(Kind::Other, make);
        let mut report = SetupReport::default();
        let mut session = Session {
            net,
            setup: SetupReport::default(),
            next: 0,
            publishes: 0,
            live,
            churn_published: Vec::new(),
            count_mismatches: 0,
            delivered: 0,
            calls: 0,
            writes: 0,
        };
        let control_before = session.net.network().control_bytes;
        for subscription in &inputs.initial {
            let subscription = subscription.clone();
            meter.time(Kind::Register, || session.net.subscribe(subscription));
        }
        report.control_bytes = session.net.network().control_bytes - control_before;
        session.calls += inputs.initial.len() as u64;
        session.writes += inputs.initial.len() as u64;
        if plan != PlanMode::Skip {
            meter.time(Kind::Other, || {
                session.prune(inputs, plan == PlanMode::ApplyHalf, &mut report)
            });
        }
        for _ in 0..spec.warmup_ops {
            session.op(spec, inputs, &mut meter);
        }
        let samples = meter.finish();
        report.setup_s = samples.total_ns as f64 / 1e9;
        report.register_s = samples.register_ns.iter().sum::<u64>() as f64 / 1e9;
        report.subscribe_ns = samples.register_ns;
        session.setup = report;
        session
    }

    /// Computes each broker's throughput pruning plan over its remote
    /// entries, as the distributed experiment does, and installs the first
    /// half of it when `apply` is set.
    fn prune(&mut self, inputs: &Inputs, apply: bool, report: &mut SetupReport) {
        let estimator_start = Instant::now();
        let estimator = {
            let _span = trace::span(Layer::SelectivityEstimator);
            SelectivityEstimator::from_events(&inputs.stats_sample)
        };
        report.estimator_s = estimator_start.elapsed().as_secs_f64();
        let before = self.net.memory_report();
        for broker in net::brokers() {
            let remote = self.net.remote_subscriptions(broker);
            if remote.is_empty() {
                continue;
            }
            let plan_start = Instant::now();
            let (plan, mut trees) = {
                let _span = trace::span(Layer::PruningPlan);
                let mut pruner = Pruner::new(
                    PrunerConfig::for_dimension(Dimension::Throughput),
                    estimator.clone(),
                );
                pruner.register_all(remote);
                let trees = pruner.original_trees();
                pruner.prune_all();
                (pruner.plan().clone(), trees)
            };
            report.plan_s += plan_start.elapsed().as_secs_f64();
            if !apply {
                continue;
            }
            let target = plan.len() / 2;
            let changed: Vec<SubscriptionId> = plan.as_slice()[..target]
                .iter()
                .map(|p| p.subscription)
                .collect();
            plan.apply_range(&mut trees, 0, target);
            for id in changed {
                assert!(
                    self.net.install_remote_tree(broker, id, trees[&id].clone()),
                    "remote entry {id} must exist at {broker}"
                );
            }
            report.prunings += target;
        }
        report.remote_assoc_reduction = self.net.memory_report().remote_reduction_vs(&before);
    }

    /// Runs the next operation of the workload's stream: one publish, or
    /// for churn one step (register a fresh subscription, unregister the
    /// oldest, and publish a batch every `churn_publish_every` steps).
    pub fn op(&mut self, spec: &Spec, inputs: &Inputs, meter: &mut Meter) {
        let index = self.next;
        self.next += 1;
        meter.count_op();
        if !spec.is_churn() {
            let slot = (index % inputs.expected_counts.len() as u64) as usize;
            let delivered = if spec.batch == 1 {
                let event = inputs.events[slot].clone();
                meter.time(Kind::Publish, || self.net.publish(event))
            } else {
                let batch = &inputs.batches[slot];
                meter.time(Kind::Publish, || self.net.publish_batch(batch))
            };
            meter.count_events(spec.batch as u64);
            if delivered != inputs.expected_counts[slot] {
                self.count_mismatches += 1;
            }
            self.delivered += delivered;
            self.calls += 1;
            return;
        }
        let fresh = inputs.fresh(index);
        self.live.push_back(fresh.clone());
        meter.time(Kind::Subscribe, || self.net.subscribe(fresh));
        let oldest = self.live.pop_front().expect("churn keeps a live set");
        let home = self.net.home_broker_of(oldest.subscriber());
        meter.time(Kind::Unsubscribe, || {
            self.net.unsubscribe(oldest.id(), home)
        });
        self.calls += 2;
        self.writes += 2;
        if (index + 1).is_multiple_of(spec.churn_publish_every as u64) {
            let number = self.publishes;
            self.publishes += 1;
            let batch = &inputs.batches[(number % inputs.batches.len() as u64) as usize];
            let delivered = meter.time(Kind::Publish, || self.net.publish_batch(batch));
            meter.count_events(batch.len() as u64);
            self.churn_published.push((number, delivered));
            self.delivered += delivered;
            self.calls += 1;
        }
    }

    /// Runs the closed loop until `stop`.
    pub fn run(&mut self, spec: &Spec, inputs: &Inputs, stop: Stop) -> Samples {
        let mut meter = Meter::start();
        while !stop.reached(&meter) {
            self.op(spec, inputs, &mut meter);
        }
        meter.finish()
    }

    /// The fixed stretch the traffic counts are taken from: the whole pool
    /// published once, or for churn `churn_fixed_steps` steps. It starts
    /// from the same state for a given seed, so its counts repeat exactly.
    pub fn count_pass(&mut self, spec: &Spec, inputs: &Inputs) -> Samples {
        let ops = if spec.is_churn() {
            spec.churn_fixed_steps as u64
        } else if spec.batch == 1 {
            inputs.events.len() as u64
        } else {
            inputs.batches.len() as u64
        };
        self.run(spec, inputs, Stop::Ops(ops))
    }

    /// Unregisters the `count` oldest live subscriptions.
    pub fn tail(&mut self, count: usize) {
        for _ in 0..count.min(self.live.len()) {
            let oldest = self.live.pop_front().expect("checked length");
            let home = self.net.home_broker_of(oldest.subscriber());
            self.net.unsubscribe(oldest.id(), home);
            self.calls += 1;
            self.writes += 1;
        }
    }

    /// The number of publish calls so far whose delivery count differs
    /// from the oracle's. Churn's calls are checked here by replaying its
    /// subscribe/unsubscribe stream on the oracle; the others were checked
    /// as they returned, against [`Inputs::expected_counts`].
    pub fn check_counts(&self, spec: &Spec, inputs: &Inputs) -> u64 {
        if !spec.is_churn() {
            return self.count_mismatches;
        }
        let mut oracle = Oracle::new(&inputs.initial);
        let mut mismatched = 0u64;
        let mut live: VecDeque<SubscriptionId> = inputs.initial.iter().map(|s| s.id()).collect();
        let mut publishes = self.churn_published.iter();
        for step in 0..self.next {
            let fresh = inputs.fresh(step);
            live.push_back(fresh.id());
            oracle.insert(fresh);
            oracle.remove(live.pop_front().expect("churn keeps a live set"));
            if (step + 1).is_multiple_of(spec.churn_publish_every as u64) {
                let &(number, delivered) = publishes.next().expect("every publish was recorded");
                let batch = &inputs.batches[(number % inputs.batches.len() as u64) as usize];
                if oracle.count(batch) != delivered {
                    mismatched += 1;
                }
            }
        }
        mismatched
    }

    /// Publishes the event pool once more with the delivery log on and
    /// compares each event's delivered `(subscriber, subscription)` set with
    /// the oracle over the live subscriptions. Returns the number of events
    /// whose set differs. `drop_one` removes one logged delivery first, to
    /// show that a mismatch is caught.
    pub fn verify(&mut self, spec: &Spec, inputs: &Inputs, drop_one: bool) -> u64 {
        let mut oracle = Oracle::new(&self.live);
        self.net.enable_delivery_log();
        let singles: Vec<EventBatch>;
        let batches: &[EventBatch] = if spec.batch == 1 {
            for event in &inputs.events {
                self.net.publish(event.clone());
            }
            self.calls += inputs.events.len() as u64;
            singles = inputs
                .events
                .chunks(64)
                .map(|chunk| chunk.iter().cloned().collect())
                .collect();
            &singles
        } else {
            for batch in &inputs.batches {
                self.net.publish_batch(batch);
            }
            self.calls += inputs.batches.len() as u64;
            &inputs.batches
        };
        let mut log = self.net.take_delivery_log();
        if drop_one {
            log.pop();
        }
        let delivered = oracle::group_log(log);
        let mut mismatched = 0u64;
        for batch in batches {
            for (index, expected) in oracle.deliveries(batch).into_iter().enumerate() {
                let id = batch.event(index).id();
                let got = delivered.get(&id).map_or(&[][..], Vec::as_slice);
                if got != expected.as_slice() {
                    mismatched += 1;
                }
            }
        }
        mismatched
    }

    /// Deliveries and traffic of the whole session.
    pub fn totals(&self) -> Totals {
        let network = self.net.network();
        Totals {
            deliveries: self.delivered,
            messages: network.messages,
            bytes: network.bytes,
            control_bytes: network.control_bytes,
        }
    }

    /// Frames the fault-free transport should never produce: decode errors,
    /// queue drops, retransmits, suppressed duplicates and corrupt drops.
    pub fn transport_faults(&self) -> u64 {
        let n = self.net.network();
        n.decode_errors + n.queue_drops + n.retransmits + n.dup_suppressed + n.corrupt_dropped
    }
}
