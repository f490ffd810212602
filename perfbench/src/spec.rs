//! The four workloads, their sizes, and seeded input generation.

use crate::oracle::Oracle;
use pubsub_core::{EventBatch, EventMessage, SubscriberId, Subscription, SubscriptionId};
use workload::{WorkloadConfig, WorkloadGenerator};

/// The seed the benchmark uses when none is given.
pub const DEFAULT_SEED: u64 = 1;
/// A seed kept out of tuning, for re-checking a claim on unseen inputs.
pub const HELD_OUT_SEED: u64 = 2_718_281;

/// Ids of churn's fresh subscriptions start here, clear of the generator's.
const FRESH_ID_BASE: u64 = 1 << 40;

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 100 subscriptions, events published one at a time.
    LineSingle,
    /// 4,000 subscriptions, remote entries pruned, 64-event batches.
    LineBatch,
    /// 3,000 live subscriptions replaced one per step, with batches between.
    Churn,
    /// 4,000 subscriptions over 400 shared expressions, 64-event batches.
    SharedBatch,
}

impl Workload {
    /// Every workload, in the order the documentation lists them.
    pub const ALL: [Workload; 4] = [
        Workload::LineSingle,
        Workload::LineBatch,
        Workload::Churn,
        Workload::SharedBatch,
    ];

    /// The name used on the command line and in results.
    pub fn name(self) -> &'static str {
        match self {
            Workload::LineSingle => "line_single",
            Workload::LineBatch => "line_batch",
            Workload::Churn => "churn",
            Workload::SharedBatch => "shared_batch",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// The sizes one workload runs at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Spec {
    /// The workload.
    pub workload: Workload,
    /// Subscriptions registered at set-up (the live set for churn).
    pub subscriptions: usize,
    /// Distinct expressions the subscriptions cycle through, if shared.
    pub shared_exprs: Option<usize>,
    /// Whether the subscriptions come from [`DEFAULT_SEED`] whatever the
    /// run's seed, which then varies the events alone. For a population
    /// so small that which subscriptions are drawn moves the results more
    /// than any change worth measuring.
    pub fixed_population: bool,
    /// Events per publish call; 1 publishes with `Simulation::publish`.
    pub batch: usize,
    /// Events generated for the closed loop to cycle through.
    pub pool_events: usize,
    /// Whether half of each broker's throughput pruning plan is applied.
    pub prune_half: bool,
    /// Churn only: a publish follows every this many steps.
    pub churn_publish_every: usize,
    /// Churn only: steps of the fixed segment the counts are taken from.
    pub churn_fixed_steps: usize,
    /// Set-ups per run; `setup_s` is their median.
    pub setup_repeats: usize,
    /// Operations (publishes, or churn steps) run as warm-up in set-up.
    pub warmup_ops: usize,
    /// Events the selectivity estimator is built from.
    pub stats_sample: usize,
    /// Samples a p99 needs, so that ten lie beyond it. Churn's timed loop
    /// runs on past `--seconds` until it has this many subscribe calls.
    pub min_samples: usize,
    /// Unsubscribes that close a traced run.
    pub tail_unsubscribes: usize,
}

impl Spec {
    /// The sizes the benchmark runs at.
    pub fn full(workload: Workload) -> Self {
        let base = Spec {
            workload,
            subscriptions: 4_000,
            shared_exprs: None,
            fixed_population: false,
            batch: 64,
            pool_events: 2_048,
            prune_half: false,
            churn_publish_every: 4,
            churn_fixed_steps: 0,
            setup_repeats: 3,
            warmup_ops: 4,
            stats_sample: 2_000,
            min_samples: 1_000,
            tail_unsubscribes: 16,
        };
        match workload {
            Workload::LineSingle => Spec {
                subscriptions: 100,
                fixed_population: true,
                batch: 1,
                // Latencies are bimodal (events no remote broker wants stay
                // at their origin), so the p50 sits on the edge between the
                // modes; a large pool keeps the mix, and the p50, steady
                // from seed to seed.
                pool_events: 8_192,
                // Registering 100 subscriptions takes ~15 ms; fifty set-ups
                // give 5,000 subscribe samples spread over ~1 s.
                setup_repeats: 50,
                warmup_ops: 256,
                ..base
            },
            // Two set-ups, not three, for the two workloads whose set-up
            // takes seconds: it keeps a run within the time budget.
            Workload::LineBatch => Spec {
                prune_half: true,
                setup_repeats: 2,
                ..base
            },
            Workload::Churn => Spec {
                subscriptions: 3_000,
                setup_repeats: 2,
                batch: 16,
                pool_events: 1_024,
                churn_fixed_steps: 256,
                warmup_ops: 16,
                ..base
            },
            Workload::SharedBatch => Spec {
                shared_exprs: Some(400),
                ..base
            },
        }
    }

    /// A few dozen subscriptions and events: every code path in well under
    /// a second, for the benchmark's own tests.
    pub fn tiny(workload: Workload) -> Self {
        let full = Self::full(workload);
        Spec {
            subscriptions: if workload == Workload::LineSingle {
                20
            } else {
                60
            },
            shared_exprs: full.shared_exprs.map(|_| 12),
            batch: full.batch.min(8),
            pool_events: 64,
            churn_fixed_steps: if workload == Workload::Churn { 16 } else { 0 },
            setup_repeats: 2,
            warmup_ops: 2,
            stats_sample: 200,
            min_samples: 20,
            tail_unsubscribes: 4,
            ..full
        }
    }

    /// Whether the timed loop runs churn steps rather than plain publishes.
    pub fn is_churn(&self) -> bool {
        self.workload == Workload::Churn
    }
}

/// Everything a run feeds the brokers, generated from the seed alone.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// The subscriptions registered at set-up.
    pub initial: Vec<Subscription>,
    /// Churn only: the expressions fresh subscriptions are drawn from.
    pub templates: Vec<Subscription>,
    /// The event pool.
    pub events: Vec<EventMessage>,
    /// The pool cut into publish batches (empty when `batch` is 1).
    pub batches: Vec<EventBatch>,
    /// Events the selectivity estimator is built from.
    pub stats_sample: Vec<EventMessage>,
    /// The oracle's delivery count for each publish call of the pool (per
    /// event, or per batch), against the initial subscriptions. Empty for
    /// churn, whose live set moves.
    pub expected_counts: Vec<u64>,
}

impl Inputs {
    /// Generates the inputs of `spec` from `seed` with the paper's auction
    /// schema.
    pub fn generate(spec: &Spec, seed: u64) -> Self {
        let mut generator = WorkloadGenerator::new(WorkloadConfig::paper().with_seed(seed));
        let initial = match spec.shared_exprs {
            Some(distinct) => {
                let base = generator.subscriptions(distinct);
                shared_population(&base, spec.subscriptions)
            }
            None if spec.fixed_population => {
                WorkloadGenerator::new(WorkloadConfig::paper().with_seed(DEFAULT_SEED))
                    .subscriptions(spec.subscriptions)
            }
            None => generator.subscriptions(spec.subscriptions),
        };
        let templates = if spec.is_churn() {
            generator.subscriptions(spec.subscriptions)
        } else {
            Vec::new()
        };
        let events = generator.events(spec.pool_events);
        let batches = if spec.batch > 1 {
            events
                .chunks(spec.batch)
                .map(|chunk| chunk.iter().cloned().collect())
                .collect()
        } else {
            Vec::new()
        };
        let stats_sample = generator.events(spec.stats_sample);
        let expected_counts = if spec.is_churn() {
            Vec::new()
        } else {
            let mut oracle = Oracle::new(&initial);
            if spec.batch == 1 {
                events
                    .chunks(64)
                    .flat_map(|chunk| {
                        let batch: EventBatch = chunk.iter().cloned().collect();
                        oracle
                            .deliveries(&batch)
                            .into_iter()
                            .map(|set| set.len() as u64)
                    })
                    .collect()
            } else {
                batches.iter().map(|batch| oracle.count(batch)).collect()
            }
        };
        Inputs {
            initial,
            templates,
            events,
            batches,
            stats_sample,
            expected_counts,
        }
    }

    /// The subscription churn step `step` registers: a template's
    /// expression under a fresh id.
    pub fn fresh(&self, step: u64) -> Subscription {
        let template = &self.templates[(step % self.templates.len() as u64) as usize];
        Subscription::new(
            SubscriptionId::from_raw(FRESH_ID_BASE + step),
            template.subscriber(),
            template.tree().clone(),
        )
    }
}

/// `count` subscriptions cycling through `base`'s expressions under fresh
/// ids, spread over 64 subscribers.
fn shared_population(base: &[Subscription], count: usize) -> Vec<Subscription> {
    (0..count)
        .map(|i| {
            Subscription::new(
                SubscriptionId::from_raw(1 + i as u64),
                SubscriberId::from_raw(1 + (i % 64) as u64),
                base[i % base.len()].tree().clone(),
            )
        })
        .collect()
}
