//! One benchmark run: the end-to-end measurement (`--trace 0`) or the
//! traced attribution run (`--trace 1`).

use crate::meter::{Samples, REFERENCE_PROBE_NS};
use crate::net::{self, Net};
use crate::report::{median, metric, peak_rss_mb, percentile, ratio, Metric};
use crate::session::{PlanMode, Session, Stop};
use crate::spec::{Inputs, Spec};
use crate::trace::{self, Layer, LayerTotals, Phase, LAYERS, PHASES};
use crate::traced::TracedNet;
use broker::Simulation;
use std::path::PathBuf;

/// Samples a percentile must have for ten of them to lie beyond a p99.
const P99_MIN_SAMPLES: usize = 1_000;
/// Largest share of the traced wall the layer self times may leave out.
const MAX_UNACCOUNTED: f64 = 0.10;

/// What to run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    pub spec: Spec,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Drops one logged delivery before the oracle comparison, to show that
    /// a mismatch is counted.
    pub inject_mismatch: bool,
    /// Where the traced run writes its spans, if anywhere.
    pub span_file: Option<PathBuf>,
}

/// What a run measured.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// The metrics of the result line.
    pub metrics: Vec<Metric>,
    /// Further measurements printed beside them.
    pub extra: Vec<Metric>,
    /// Host and run facts.
    pub facts: Vec<(&'static str, String)>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed a check.
    pub failed: u64,
    /// What failed, for the log.
    pub problems: Vec<String>,
}

impl Outcome {
    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    /// Looks a metric up by name among the result and extra metrics.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .chain(&self.extra)
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}

/// Runs one workload as configured.
pub fn run(config: &RunConfig) -> Outcome {
    let inputs = Inputs::generate(&config.spec, config.seed);
    let mut outcome = if config.trace {
        run_traced(config, &inputs)
    } else {
        run_end_to_end(config, &inputs)
    };
    let spec = &config.spec;
    outcome.facts.splice(
        0..0,
        [
            ("workload", spec.workload.name().to_owned()),
            ("seed", config.seed.to_string()),
            ("host_parallelism", host_parallelism().to_string()),
            ("build_profile", build_profile().to_owned()),
            ("run_seconds", config.seconds.to_string()),
            ("subscriptions", spec.subscriptions.to_string()),
            ("events_per_publish", spec.batch.to_string()),
            ("setup_repeats", spec.setup_repeats.to_string()),
            ("warmup_ops", spec.warmup_ops.to_string()),
        ],
    );
    outcome.extra.push(metric(
        "failed_ops_ratio",
        "ratio",
        ratio(outcome.failed as f64, outcome.attempted as f64),
    ));
    outcome
}

/// How fast the host ran during `samples` against the reference host:
/// the reference probe time over the median probe time.
fn host_speed(samples: &Samples) -> f64 {
    let probes: Vec<f64> = samples.probe_ns.iter().map(|&ns| ns as f64).collect();
    REFERENCE_PROBE_NS / median(&probes)
}

/// Cores the host offers this process.
pub fn host_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The Cargo profile the benchmark was built with.
pub fn build_profile() -> &'static str {
    if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    }
}

fn simulation() -> Simulation {
    Simulation::new(net::config())
}

fn us(ns: Option<u64>) -> f64 {
    ns.map_or(0.0, |ns| ns as f64 / 1e3)
}

/// Segments a run's throughput is taken over; the reported rate is their
/// median, so a burst of host noise moves at most a few of them.
const RATE_SEGMENTS: usize = 10;

/// The median over `segments` contiguous, equal stretches of `ns` (call
/// latencies in order) of each stretch's rate, each call doing `per_call`
/// units of work.
fn segment_rate(ns: &[u64], per_call: f64, segments: usize) -> f64 {
    let size = ns.len().div_ceil(segments.max(1)).max(1);
    let rates: Vec<f64> = ns
        .chunks(size)
        .map(|chunk| {
            ratio(
                chunk.len() as f64 * per_call,
                chunk.iter().sum::<u64>() as f64 / 1e9,
            )
        })
        .collect();
    if rates.is_empty() {
        0.0
    } else {
        median(&rates)
    }
}

fn run_end_to_end(config: &RunConfig, inputs: &Inputs) -> Outcome {
    let spec = &config.spec;
    let plan = if spec.prune_half {
        PlanMode::ApplyHalf
    } else {
        PlanMode::Skip
    };
    let mut setup_s = Vec::new();
    let mut registrations = Vec::new();
    let mut kept = None;
    for _ in 0..spec.setup_repeats.max(1) {
        drop(kept.take());
        let session = Session::setup(simulation, spec, inputs, plan);
        setup_s.push(session.setup.setup_s);
        registrations.extend_from_slice(&session.setup.subscribe_ns);
        kept = Some(session);
    }
    let mut session = kept.expect("at least one set-up");

    // The fixed stretch: traffic counts repeat exactly for a seed.
    let before = session.net.network().clone();
    let fixed = session.count_pass(spec, inputs);
    let after = session.net.network().clone();
    let routing_assocs = session.net.memory_report().total_associations();
    let control_bytes_per_op = if spec.is_churn() {
        ratio(
            (after.control_bytes - before.control_bytes) as f64,
            (fixed.subscribe_ns.len() + fixed.unsubscribe_ns.len()) as f64,
        )
    } else {
        ratio(
            session.setup.control_bytes as f64,
            inputs.initial.len() as f64,
        )
    };
    let events = fixed.publish_events as f64;
    let messages_per_event = ratio((after.messages - before.messages) as f64, events);
    let wire_bytes_per_event = ratio((after.bytes - before.bytes) as f64, events);

    let mut timed = session.run(
        spec,
        inputs,
        Stop::Time {
            seconds: config.seconds,
            min_subscribes: if spec.is_churn() { spec.min_samples } else { 0 },
        },
    );

    let mut problems = Vec::new();
    let failed = note(
        &mut problems,
        "publish calls with a wrong delivery count",
        session.check_counts(spec, inputs),
    ) + note(
        &mut problems,
        "events with a wrong delivery set",
        session.verify(spec, inputs, config.inject_mismatch),
    ) + note(
        &mut problems,
        "faulty frames on the fault-free transport",
        session.transport_faults(),
    );

    // Subscribe latencies: churn's timed subscribe calls, otherwise the
    // registrations of every set-up. The rate counts unsubscribes too:
    // churn's per-step subscribe + unsubscribe time, otherwise each
    // set-up's registrations.
    let (mut subscribe_ns, subscribe_ops) = if spec.is_churn() {
        let steps: Vec<u64> = timed
            .subscribe_ns
            .iter()
            .zip(&timed.unsubscribe_ns)
            .map(|(s, u)| s + u)
            .collect();
        (
            timed.subscribe_ns.clone(),
            segment_rate(&steps, 2.0, RATE_SEGMENTS),
        )
    } else {
        let rate = segment_rate(&registrations, 1.0, spec.setup_repeats);
        (registrations, rate)
    };
    let publish_eps = segment_rate(&timed.publish_ns.samples, spec.batch as f64, RATE_SEGMENTS);
    let publish_samples = timed.publish_ns.samples.len();
    let subscribe_samples = subscribe_ns.len();
    let metrics = vec![
        metric("publish_eps", "events/s", publish_eps),
        metric(
            "publish_p50_us",
            "us",
            us(percentile(&mut timed.publish_ns.samples, 0.50)),
        ),
        metric("subscribe_ops", "ops/s", subscribe_ops),
        metric(
            "subscribe_p50_us",
            "us",
            us(percentile(&mut subscribe_ns, 0.50)),
        ),
        metric(
            "subscribe_p99_us",
            "us",
            us(percentile(&mut subscribe_ns, 0.99)),
        ),
        metric("messages_per_event", "messages/event", messages_per_event),
        metric("wire_bytes_per_event", "B/event", wire_bytes_per_event),
        metric("control_bytes_per_op", "B/op", control_bytes_per_op),
        metric("routing_assocs", "count", routing_assocs as f64),
        metric("peak_rss_mb", "MiB", peak_rss_mb()),
        metric("setup_s", "s", median(&setup_s)),
    ];
    let mut extra = Vec::new();
    if publish_samples >= P99_MIN_SAMPLES {
        extra.push(metric(
            "publish_p99_us",
            "us",
            us(percentile(&mut timed.publish_ns.samples, 0.99)),
        ));
    }
    if spec.is_churn() {
        let unsubscribe_samples = timed.unsubscribe_ns.len();
        extra.push(metric(
            "unsubscribe_p50_us",
            "us",
            us(percentile(&mut timed.unsubscribe_ns, 0.50)),
        ));
        if unsubscribe_samples >= P99_MIN_SAMPLES {
            extra.push(metric(
                "unsubscribe_p99_us",
                "us",
                us(percentile(&mut timed.unsubscribe_ns, 0.99)),
            ));
        }
    }
    if subscribe_samples < spec.min_samples {
        problems.push(format!(
            "only {subscribe_samples} subscribe samples; subscribe_p99_us needs {}",
            spec.min_samples
        ));
    }
    extra.push(metric("timed_wall_s", "s", timed.wall_s));
    let facts = vec![
        ("publish_calls", timed.publish_ns.calls().to_string()),
        ("publish_samples", publish_samples.to_string()),
        ("subscribe_samples", subscribe_samples.to_string()),
        (
            "unsubscribe_samples",
            timed.unsubscribe_ns.len().to_string(),
        ),
        ("timed_ops", timed.ops.to_string()),
        ("host_speed", host_speed(&timed).to_string()),
        ("fixed_ops", fixed.ops.to_string()),
    ];
    Outcome {
        metrics,
        extra,
        facts,
        attempted: session.calls,
        failed,
        problems,
    }
}

/// Records a failed check's count under `what` and returns the count.
fn note(problems: &mut Vec<String>, what: &str, count: u64) -> u64 {
    if count > 0 {
        problems.push(format!("{what}: {count}"));
    }
    count
}

/// Sums one layer's totals over the given phases.
fn sum(totals: &[[LayerTotals; LAYERS]; PHASES], layer: Layer, phases: &[Phase]) -> LayerTotals {
    let mut out = LayerTotals::default();
    for &phase in phases {
        let t = totals[phase as usize][layer as usize];
        out.count += t.count;
        out.total_ns += t.total_ns;
        out.self_ns += t.self_ns;
    }
    out
}

fn mean_ns(t: LayerTotals) -> f64 {
    ratio(t.total_ns as f64, t.count as f64)
}

fn run_traced(config: &RunConfig, inputs: &Inputs) -> Outcome {
    let spec = &config.spec;
    let mut problems = Vec::new();
    let mut failed = 0u64;
    let mut attempted = 0u64;

    // Untraced reference: the program's own Simulation.
    let plan = if spec.prune_half {
        PlanMode::ApplyHalf
    } else {
        PlanMode::Skip
    };
    let mut plain = Session::setup(simulation, spec, inputs, plan);
    plain.count_pass(spec, inputs);
    let plain_ops = plain.run(
        spec,
        inputs,
        Stop::Time {
            seconds: config.seconds / 2.0,
            min_subscribes: 0,
        },
    );
    plain.tail(spec.tail_unsubscribes);
    let plain_totals = plain.totals();
    failed += note(
        &mut problems,
        "untraced count mismatches",
        plain.check_counts(spec, inputs),
    );
    failed += note(
        &mut problems,
        "untraced transport faults",
        plain.transport_faults(),
    );
    attempted += plain.calls;
    drop(plain);

    // Traced run of exactly the same operations. Every workload computes
    // the pruning plan so that its cost is measured everywhere; only
    // line_batch applies it.
    trace::start();
    trace::set_phase(Phase::Setup);
    let plan = if spec.prune_half {
        PlanMode::ApplyHalf
    } else {
        PlanMode::Compute
    };
    let mut traced = Session::setup(|| TracedNet::new(net::config()), spec, inputs, plan);
    traced.count_pass(spec, inputs);
    trace::set_phase(Phase::Ops);
    let counters_before = traced.net.counters();
    let network_before = traced.net.network().clone();
    let filter_before = traced.net.filter_stats();
    let misses_before = traced.net.string_cache_misses();
    traced.net.reset_max_in_flight();
    let ops = traced.run(spec, inputs, Stop::Ops(plain_ops.ops));
    let counters = traced.net.counters().since(&counters_before);
    let network_after = traced.net.network().clone();
    let filter_after = traced.net.filter_stats();
    let misses = traced.net.string_cache_misses() - misses_before;
    trace::set_phase(Phase::Tail);
    traced.tail(spec.tail_unsubscribes);
    let (totals, spans) = trace::finish();

    let traced_totals = traced.totals();
    if traced_totals != plain_totals {
        problems.push(format!(
            "traced run diverged from the untraced run: {traced_totals:?} vs {plain_totals:?}"
        ));
        failed += 1;
    }
    failed += note(
        &mut problems,
        "traced count mismatches",
        traced.check_counts(spec, inputs),
    );
    failed += note(
        &mut problems,
        "traced transport faults",
        traced.transport_faults(),
    );
    failed += note(
        &mut problems,
        "traced delivery-set mismatches",
        traced.verify(spec, inputs, config.inject_mismatch),
    );
    attempted += traced.calls;

    if let Some(path) = &config.span_file {
        if let Err(error) = trace::write_spans(path, &spans) {
            eprintln!("could not write spans to {}: {error}", path.display());
        }
    }

    // Self times of the measured operations.
    let ops_phase = [Phase::Ops];
    let all = [Phase::Setup, Phase::Ops, Phase::Tail];
    // The measured calls' own time, unscaled, which the root spans cover.
    let wall_ns = ops.raw_ns as f64;
    let self_sum: u64 = Layer::ALL
        .iter()
        .map(|&layer| sum(&totals, layer, &ops_phase).self_ns)
        .sum();
    let unaccounted = ratio(wall_ns - self_sum as f64, wall_ns);
    if unaccounted.abs() > MAX_UNACCOUNTED {
        problems.push(format!(
            "layer self times cover {:.1}% of the traced wall",
            100.0 * (1.0 - unaccounted)
        ));
        failed += 1;
    }
    let layer = |l: Layer| sum(&totals, l, &ops_phase);
    let pump_self: u64 = [Layer::OpPublish, Layer::OpSubscribe, Layer::OpUnsubscribe]
        .iter()
        .map(|&l| layer(l).self_ns)
        .sum();
    let filter_ns = (filter_after.filter_time - filter_before.filter_time).as_nanos() as f64;
    let events_filtered = (filter_after.events_filtered - filter_before.events_filtered) as f64;
    let stage2 = (filter_after.stage2_candidates - filter_before.stage2_candidates) as f64;
    let matches = (filter_after.matches - filter_before.matches) as f64;
    let per_event = |after: u64, before: u64| ratio((after - before) as f64, events_filtered);
    let publish_handle = layer(Layer::BrokerPublish);
    let subscribe_handle = sum(&totals, Layer::BrokerSubscribe, &all);
    let unsubscribe_handle = sum(&totals, Layer::BrokerUnsubscribe, &all);
    let append = sum(&totals, Layer::DurabilityAppend, &all);
    let analysis = traced.net.analysis_stats();
    let journal = traced.net.network();
    let setup = &traced.setup;

    let metrics = vec![
        metric(
            "wire.encode_ns_per_frame",
            "ns",
            mean_ns(layer(Layer::WireEncode)),
        ),
        metric(
            "wire.decode_ns_per_frame",
            "ns",
            mean_ns(layer(Layer::WireDecode)),
        ),
        metric("wire.frames", "count", counters.frames_encoded as f64),
        metric(
            "wire.bytes_per_frame",
            "B",
            ratio(
                counters.bytes_encoded as f64,
                counters.frames_encoded as f64,
            ),
        ),
        metric("wire.string_cache_misses", "count", misses as f64),
        metric(
            "transport.send_ns_per_frame",
            "ns",
            mean_ns(layer(Layer::TransportSend)),
        ),
        metric(
            "transport.recv_ns_per_frame",
            "ns",
            ratio(
                layer(Layer::TransportRecv).total_ns as f64,
                counters.frames_received as f64,
            ),
        ),
        metric(
            "transport.max_in_flight",
            "count",
            counters.max_in_flight as f64,
        ),
        metric(
            "reliable.wrap_ns_per_frame",
            "ns",
            mean_ns(layer(Layer::ReliableWrap)),
        ),
        metric(
            "reliable.unwrap_ns_per_frame",
            "ns",
            mean_ns(layer(Layer::ReliableUnwrap)),
        ),
        metric("reliable.ack_frames", "count", counters.ack_frames as f64),
        metric(
            "reliable.retransmits",
            "count",
            (network_after.retransmits - network_before.retransmits) as f64,
        ),
        metric(
            "reliable.dup_suppressed",
            "count",
            (network_after.dup_suppressed - network_before.dup_suppressed) as f64,
        ),
        metric(
            "simulation.pump_self_ns_per_frame",
            "ns",
            ratio(pump_self as f64, counters.frames_received as f64),
        ),
        metric(
            "broker.publish_handle_self_ns",
            "ns",
            ratio(
                publish_handle.self_ns as f64 - filter_ns,
                publish_handle.count as f64,
            ),
        ),
        metric(
            "broker.subscribe_handle_ns",
            "ns",
            mean_ns(subscribe_handle),
        ),
        metric(
            "broker.unsubscribe_handle_ns",
            "ns",
            mean_ns(unsubscribe_handle),
        ),
        metric(
            "broker.outgoing_per_frame",
            "count",
            ratio(
                counters.data_outgoing as f64,
                counters.data_frames_handled as f64,
            ),
        ),
        metric(
            "analysis.subsumed_not_flooded",
            "count",
            analysis.subsumed_not_flooded as f64,
        ),
        metric("analysis.reflooded", "count", analysis.reflooded as f64),
        metric(
            "analysis.subs_simplified",
            "count",
            analysis.subs_simplified as f64,
        ),
        metric(
            "filtering.match_ns_per_event",
            "ns",
            ratio(filter_ns, events_filtered),
        ),
        metric("filtering.share", "ratio", ratio(filter_ns, wall_ns)),
        metric(
            "filtering.batches",
            "count",
            (filter_after.batches_filtered - filter_before.batches_filtered) as f64,
        ),
        metric(
            "filtering.stage2_candidates_per_event",
            "count",
            ratio(stage2, events_filtered),
        ),
        metric(
            "filtering.killed_by_prefilter_per_event",
            "count",
            per_event(
                filter_after.killed_by_prefilter,
                filter_before.killed_by_prefilter,
            ),
        ),
        metric(
            "filtering.trees_evaluated_per_event",
            "count",
            per_event(filter_after.trees_evaluated, filter_before.trees_evaluated),
        ),
        metric(
            "filtering.skipped_by_pmin_per_event",
            "count",
            per_event(filter_after.skipped_by_pmin, filter_before.skipped_by_pmin),
        ),
        metric(
            "filtering.matches_per_event",
            "count",
            ratio(matches, events_filtered),
        ),
        metric("filtering.match_yield", "ratio", ratio(matches, stage2)),
        metric("durability.append_ns_per_record", "ns", mean_ns(append)),
        metric(
            "durability.log_bytes_per_op",
            "B",
            ratio(journal.log_bytes as f64, traced.writes as f64),
        ),
        metric(
            "durability.compactions",
            "count",
            journal.snapshot_compactions as f64,
        ),
        metric("setup.register_s", "s", setup.register_s),
        metric("selectivity.estimator_s", "s", setup.estimator_s),
        metric("pruning.plan_s", "s", setup.plan_s),
        metric("pruning.prunings", "count", setup.prunings as f64),
        metric(
            "pruning.remote_assoc_reduction",
            "ratio",
            setup.remote_assoc_reduction,
        ),
        metric(
            "trace.overhead_pct",
            "%",
            100.0
                * ratio(
                    ops.total_ns as f64 - plain_ops.total_ns as f64,
                    plain_ops.total_ns as f64,
                ),
        ),
        metric("trace.unaccounted_pct", "%", 100.0 * unaccounted),
    ];

    // Each layer's share of the traced wall, with filtering taken out of
    // broker publish handling; printed, not part of the result line.
    let mut extra: Vec<Metric> = Layer::ALL
        .iter()
        .filter(|&&l| layer(l).count > 0)
        .map(|&l| {
            let own = layer(l).self_ns as f64
                - if l == Layer::BrokerPublish {
                    filter_ns
                } else {
                    0.0
                };
            metric(
                format!("self_share.{}", l.name()),
                "ratio",
                ratio(own, wall_ns),
            )
        })
        .collect();
    extra.push(metric(
        "self_share.filtering",
        "ratio",
        ratio(filter_ns, wall_ns),
    ));
    extra.push(metric("traced_ops_s", "s", ops.raw_ns as f64 / 1e9));
    extra.push(metric("untraced_ops_s", "s", plain_ops.raw_ns as f64 / 1e9));
    let facts = vec![
        ("traced_ops", ops.ops.to_string()),
        ("spans_kept", spans.len().to_string()),
        (
            "span_file",
            config
                .span_file
                .as_ref()
                .map_or_else(|| "-".to_owned(), |p| p.display().to_string()),
        ),
    ];
    Outcome {
        metrics,
        extra,
        facts,
        attempted,
        failed,
        problems,
    }
}
