//! Matching-layer panel: one declarative table of cells, measured by one
//! loop and written as `BENCH_matching.json`.
//!
//! ```text
//! matching_panel [--quick | --wire-check | --deep] [--out PATH] [--seed N]
//! ```
//!
//! The mode picks the table's sizes ([`Mode::sizes`]): by default up to
//! 10,000 subscriptions and 2,000 events (100,000 subscriptions in the
//! A-Tree series); `--quick` is a smoke test; `--wire-check` runs 2,000
//! subscriptions at batch 256, where the 15% overhead bounds mean
//! something; `--deep` adds the million-subscription A-Tree cell (minutes).
//!
//! A [`Cell`] is a population, an engine with its [`EngineConfig`], a batch
//! size and a pipeline. [`run_cell`] holds the one warm-up-then-time loop
//! and returns one [`Row`] of key/value pairs; each series writes the
//! columns [`SERIES`] declares. The durable-log cells and a lossy
//! crash/restart probe have their own functions but emit rows too. The
//! condensed [`FIGURES`] are declared as (numerator, denominator, bounds).
//! After writing the JSON, [`check`] asserts the shape, identical match
//! streams for identical inputs, the [`RULES`] and the bounds, and any
//! failure makes the exit status 1. Compare timings within one run only:
//! across runs the host's noise exceeds many of the deltas.

use bench::narrow_events;
use broker::wire::Codec;
use broker::{
    Broker, BrokerId, ChannelTransport, DurabilityConfig, DurableLog, FaultPlan, FaultyTransport,
    NetworkStats, ReliableSession, SendOutcome, Simulation, SimulationConfig, Topology,
    WireMessage,
};
use filtering::{
    ATreeEngine, AnalyzeMode, CountSink, DiscriminationHint, EngineConfig, EngineKind, MatchSink,
    MatchingEngine, NaiveEngine, PrefilterMode,
};
use pubsub_core::{EventBatch, EventMessage, SubscriberId, Subscription, SubscriptionId};
use std::collections::BTreeSet;
use std::time::Instant;
use workload::{WorkloadConfig, WorkloadGenerator};

/// Attributes of a generated event, and of a narrowed one.
const FULL_WIDTH: usize = 10;
const NARROW_WIDTH: usize = 4;

/// Which table the run measures.
#[derive(Clone, Copy, PartialEq)]
enum Mode {
    Full,
    Quick,
    WireCheck,
    Deep,
}

const ALL: &[Mode] = &[Mode::Full, Mode::Quick, Mode::WireCheck, Mode::Deep];
const QUICK: &[Mode] = &[Mode::Quick];
const WIRE: &[Mode] = &[Mode::WireCheck];

/// The sizes of one mode's table.
struct Sizes {
    /// Subscription counts of the single-event series; the largest is the
    /// count of every other uniform cell.
    subs: &'static [usize],
    events: usize,
    passes: usize,
    /// Whether the single-event series also runs the narrowed events.
    narrow: bool,
    /// Batch sizes of the batch, wire and reliable series.
    batches: &'static [usize],
    shards: &'static [usize],
    shard_batch: usize,
    /// Batch size of the pre-filter and analysis series.
    stage_batch: usize,
    /// Subscription counts of the A-Tree's shared population.
    atree_subs: &'static [usize],
    /// Leading events the A-Tree series matches: fewer keep the big cells
    /// bounded, and a cell records a per-event cost.
    atree_events: usize,
}

impl Mode {
    fn name(self) -> &'static str {
        match self {
            Mode::Full => "full",
            Mode::Quick => "quick",
            Mode::WireCheck => "wire_check",
            Mode::Deep => "deep",
        }
    }

    fn sizes(self) -> Sizes {
        let full = Sizes {
            subs: &[1_000, 10_000],
            events: 2_000,
            passes: 3,
            narrow: true,
            batches: &[1, 16, 256],
            shards: &[1, 2, 4, 8],
            shard_batch: 256,
            stage_batch: 256,
            atree_subs: &[100_000],
            atree_events: 512,
        };
        match self {
            Mode::Full => full,
            Mode::Deep => Sizes {
                atree_subs: &[100_000, 1_000_000],
                ..full
            },
            Mode::Quick => Sizes {
                subs: &[50, 200],
                events: 50,
                passes: 2,
                batches: &[1, 16],
                shards: &[1, 2],
                shard_batch: 16,
                stage_batch: 16,
                atree_subs: &[2_000],
                atree_events: 64,
                ..full
            },
            Mode::WireCheck => Sizes {
                subs: &[2_000],
                events: 1_024,
                passes: 2,
                narrow: false,
                shards: &[1, 2],
                atree_subs: &[2_000],
                atree_events: 128,
                ..full
            },
        }
    }
}

/// The subscriptions and events a cell runs on.
#[derive(Clone, Copy, PartialEq)]
enum Population {
    /// The generated auction workload.
    Uniform,
    /// The same, with events narrowed to [`NARROW_WIDTH`] attributes.
    Narrow,
    /// Zipf ~1.6 title popularity, title-watcher-heavy subscriptions.
    HotKey,
    /// The uniform subscriptions in structure the analyzer removes, every
    /// 20th made unsatisfiable ([`redundant_subs`]).
    Redundant,
    /// The uniform expressions cycled under fresh ids ([`shared_population`]).
    Shared,
    /// The uniform subscriptions at the A-Tree series' event count: the
    /// paper's own workload, where little is shared.
    Auction,
}

impl Population {
    fn name(self) -> &'static str {
        match self {
            Population::Uniform => "uniform",
            Population::Narrow => "narrow",
            Population::HotKey => "hot_key",
            Population::Redundant => "redundant",
            Population::Shared => "shared",
            Population::Auction => "auction",
        }
    }

    fn subscriptions(self, data: &Data, count: usize) -> Vec<Subscription> {
        match self {
            Population::HotKey => data.hot_subs[..count].to_vec(),
            Population::Redundant => redundant_subs(&data.subs[..count]),
            Population::Shared => shared_population(&data.subs, count),
            _ => data.subs[..count].to_vec(),
        }
    }

    fn events(self, data: &Data) -> &[EventMessage] {
        match self {
            Population::Narrow => &data.narrow_events,
            Population::HotKey => &data.hot_events,
            _ => &data.events,
        }
    }
}

/// The generated workloads every population is drawn from.
struct Data {
    subs: Vec<Subscription>,
    events: Vec<EventMessage>,
    narrow_events: Vec<EventMessage>,
    hot_subs: Vec<Subscription>,
    hot_events: Vec<EventMessage>,
}

impl Data {
    fn generate(seed: u64, subs: usize, events: usize) -> Self {
        let mut base = WorkloadGenerator::new(WorkloadConfig::small().with_seed(seed));
        let mut hot = WorkloadGenerator::new(WorkloadConfig::hot_key().with_seed(seed));
        let (base_subs, base_events) = (base.subscriptions(subs), base.events(events));
        Data {
            narrow_events: narrow_events(&base_events, NARROW_WIDTH),
            subs: base_subs,
            events: base_events,
            hot_subs: hot.subscriptions(subs),
            hot_events: hot.events(events),
        }
    }
}

#[derive(Clone, Copy, PartialEq)]
enum Engine {
    Naive,
    Counting,
    ATree,
    Sharded(usize),
}

/// What carries each batch to the engine.
#[derive(Clone, Copy, PartialEq)]
enum Pipeline {
    /// The batch is matched as is.
    Match,
    /// Encode a `PublishBatch` frame, decode it into a reused batch, match:
    /// one broker hop.
    Wire,
    /// The wire hop inside a clean reliable link: wrap (sequence number,
    /// checksum), unwrap, feed the ack back, decode, match.
    Reliable,
}

/// One measured cell of the table.
struct Cell {
    series: &'static str,
    population: Population,
    subscriptions: usize,
    /// Leading events of the population matched per pass.
    events: usize,
    engine: Engine,
    config: EngineConfig,
    /// `"on"`/`"off"` in the pre-filter and analysis series.
    mode: &'static str,
    batch: usize,
    pipeline: Pipeline,
    passes: usize,
}

/// Every cell of one mode's table, in measurement order.
fn table(sizes: &Sizes) -> Vec<Cell> {
    let max_subs = *sizes.subs.iter().max().expect("the panel has sizes");
    let cell = |series, population, subscriptions, engine, batch| Cell {
        series,
        population,
        subscriptions,
        events: sizes.events,
        engine,
        config: EngineConfig::default(),
        mode: "",
        batch,
        pipeline: Pipeline::Match,
        passes: sizes.passes,
    };
    let (uniform, counting) = (Population::Uniform, Engine::Counting);
    let mut cells = Vec::new();
    // Single events: each is its own batch, as a broker handles a one-event
    // `PublishBatch` frame.
    let widths = [uniform, Population::Narrow];
    for &population in &widths[..1 + sizes.narrow as usize] {
        for &subs in sizes.subs {
            for engine in [counting, Engine::Naive] {
                cells.push(cell("results", population, subs, engine, 1));
            }
        }
    }
    for (series, pipeline) in [
        ("batch_results", Pipeline::Match),
        ("wire_results", Pipeline::Wire),
        ("reliable_results", Pipeline::Reliable),
    ] {
        for &batch in sizes.batches {
            let mut c = cell(series, uniform, max_subs, counting, batch);
            c.pipeline = pipeline;
            cells.push(c);
        }
    }
    for &shards in sizes.shards {
        let (engine, batch) = (Engine::Sharded(shards), sizes.shard_batch);
        cells.push(cell("sharded_results", uniform, max_subs, engine, batch));
    }
    let prefilter = [PrefilterMode::On, PrefilterMode::Off];
    let analyze = [AnalyzeMode::On, AnalyzeMode::Off];
    for (series, population) in [
        ("prefilter_results", uniform),
        ("prefilter_results", Population::HotKey),
        ("analysis_results", uniform),
        ("analysis_results", Population::Redundant),
    ] {
        for (i, mode) in ["on", "off"].into_iter().enumerate() {
            let mut c = cell(series, population, max_subs, counting, sizes.stage_batch);
            c.mode = mode;
            c.config = match series {
                "prefilter_results" => EngineConfig::with_prefilter(prefilter[i]),
                _ => EngineConfig::default().analyze(analyze[i]),
            };
            cells.push(c);
        }
    }
    let shared = sizes.atree_subs.iter().map(|&n| (Population::Shared, n));
    for (population, subs) in shared.chain([(Population::Auction, max_subs)]) {
        for engine in [counting, Engine::ATree] {
            let mut c = cell("atree_results", population, subs, engine, 64);
            c.events = sizes.atree_events.min(sizes.events);
            // One timed pass at the million-subscription cell.
            c.passes = if subs >= 1_000_000 { 1 } else { sizes.passes };
            cells.push(c);
        }
    }
    cells
}

/// A number as written in the JSON.
fn fixed(v: f64) -> String {
    format!("{v:.1}")
}

/// A string as written in the JSON.
fn text(s: &str) -> String {
    format!("\"{s}\"")
}

/// The input a row's match stream came from (population, subscriptions,
/// events) and an order-insensitive digest of that stream.
type Output = ((&'static str, usize, usize), u64);

/// One measured row: its series, its key/value pairs as written in the
/// JSON (a superset of the series' columns) and, for matching cells, its
/// output.
struct Row {
    series: &'static str,
    values: Vec<(&'static str, String)>,
    output: Option<Output>,
}

impl Row {
    fn new(series: &'static str, values: Vec<(&'static str, String)>) -> Self {
        Row {
            series,
            values,
            output: None,
        }
    }

    fn get(&self, key: &str) -> Option<&str> {
        let value = self.values.iter().find(|(k, _)| *k == key);
        value.map(|(_, v)| v.as_str())
    }

    fn num(&self, key: &str) -> f64 {
        self.get(key)
            .and_then(|v| v.parse().ok())
            .unwrap_or(f64::NAN)
    }

    /// Whether `lhs op rhs` holds ([`RULES`] syntax).
    fn meets(&self, lhs: &str, op: &str, rhs: &str) -> bool {
        let a: f64 = lhs.split('+').map(|metric| self.num(metric)).sum();
        if a.is_nan() && op == "==" {
            return self.has(lhs, rhs);
        }
        holds(a, op, rhs.parse().unwrap_or_else(|_| self.num(rhs)))
    }

    /// Whether the row's `key` reads `value` (strings without quotes).
    fn has(&self, key: &str, value: &str) -> bool {
        self.get(key).is_some_and(|v| v.trim_matches('"') == value)
    }
}

/// The rows `spec` selects: `"series key=value ..."`.
fn select<'a>(rows: &'a [Row], spec: &'a str) -> impl Iterator<Item = &'a Row> + 'a {
    let mut words = spec.split_whitespace();
    let series = words.next().unwrap_or_default();
    let labels: Vec<(&str, &str)> = words.filter_map(|w| w.split_once('=')).collect();
    rows.iter()
        .filter(move |r| r.series == series && labels.iter().all(|&(k, v)| r.has(k, v)))
}

/// Folds every (event, subscription) match into a sum of hashes, so
/// engines that emit the same set in another order agree.
#[derive(Default)]
struct DigestSink {
    next_event: u64,
    first_event: u64,
    digest: u64,
}

impl MatchSink for DigestSink {
    fn begin_batch(&mut self, batch_len: usize) {
        self.first_event = self.next_event;
        self.next_event += batch_len as u64;
    }

    fn on_match(&mut self, event_index: usize, sub: SubscriptionId) {
        // The splitmix64 finalizer over (event index in the pass, id).
        let mut x = ((self.first_event + event_index as u64) << 32) ^ sub.raw();
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        self.digest = self.digest.wrapping_add(x ^ (x >> 31));
    }
}

/// Carries batches through a cell's pipeline, reusing every buffer.
#[derive(Default)]
struct Carrier {
    codec: Codec,
    frame: Vec<u8>,
    decoded: EventBatch,
    session: ReliableSession,
    stats: NetworkStats,
    outer: Vec<u8>,
    delivered: Vec<Vec<u8>>,
    acks: Vec<(BrokerId, BrokerId, Vec<u8>)>,
}

impl Carrier {
    /// The batch the receiving engine matches.
    fn carry<'a>(&'a mut self, pipeline: Pipeline, batch: &'a EventBatch) -> &'a EventBatch {
        if pipeline == Pipeline::Match {
            return batch;
        }
        let Carrier {
            codec,
            frame,
            decoded,
            session,
            stats,
            outer,
            delivered,
            acks,
        } = self;
        frame.clear();
        codec.encode_publish_batch(batch, frame);
        let frames = if pipeline == Pipeline::Wire {
            std::slice::from_ref(&*frame)
        } else {
            let (from, to) = (BrokerId::from_raw(0), BrokerId::from_raw(1));
            let sent = session.wrap_send(from, to, frame, outer, stats);
            assert!(
                matches!(sent, SendOutcome::Sent(_)),
                "a clean link sends at once"
            );
            delivered.clear();
            session.recv(from, to, outer, delivered, acks, stats);
            for (from, to, ack) in acks.drain(..) {
                // An ack delivers and acks nothing: neither `Vec` allocates.
                session.recv(from, to, &ack, &mut Vec::new(), &mut Vec::new(), stats);
            }
            &delivered[..]
        };
        for inner in frames {
            let decode = codec.decode_publish_batch_into(inner, decoded);
            decode.expect("panel frames are well-formed");
        }
        decoded
    }
}

/// Builds the cell's engine and measures it, adding the DAG's edge count.
fn measure(cell: &Cell, data: &Data) -> Row {
    let config = cell.config;
    let of_kind = |kind: EngineKind| run_cell(cell, data, kind.build_with_config(config).as_mut());
    let mut dag_edges = 0;
    let mut row = match cell.engine {
        Engine::ATree => {
            // Built directly, not through `EngineKind`, to read the edges.
            let mut atree = ATreeEngine::with_config(config);
            let row = run_cell(cell, data, &mut atree);
            dag_edges = atree.memory().edge_count;
            row
        }
        Engine::Naive => run_cell(cell, data, &mut NaiveEngine::with_config(config)),
        Engine::Counting => of_kind(EngineKind::Counting),
        Engine::Sharded(shards) => of_kind(EngineKind::Sharded(shards)),
    };
    row.values.push(("dag_edges", dag_edges.to_string()));
    row
}

/// Inserts the population, runs one untimed warm-up pass (sizing every
/// buffer and recording the match-stream digest), resets the stats and
/// times the passes; the wire and reliable pipelines then time the same
/// passes without matching.
fn run_cell(cell: &Cell, data: &Data, engine: &mut dyn MatchingEngine) -> Row {
    let events = &cell.population.events(data)[..cell.events];
    if cell.config.prefilter == PrefilterMode::On {
        let sample = &events[..events.len().min(500)];
        engine.set_discrimination_hint(Some(DiscriminationHint::from_events(sample)));
    }
    for subscription in cell.population.subscriptions(data, cell.subscriptions) {
        engine.insert(subscription);
    }
    let registration = *engine.stats();
    // The wire bytes to flood every stored (possibly normalized) tree once.
    let (mut codec, mut frame) = (Codec::new(), Vec::new());
    let subscribe_bytes: usize = engine
        .subscriptions()
        .map(|s| {
            frame.clear();
            let subscription = s.clone();
            codec.encode_into(&WireMessage::Subscribe { subscription }, &mut frame)
        })
        .sum();

    let batches: Vec<EventBatch> = events
        .chunks(cell.batch)
        .map(|chunk| chunk.iter().cloned().collect())
        .collect();
    let mut carrier = Carrier::default();
    let mut digest = DigestSink::default();
    for batch in &batches {
        engine.match_batch(carrier.carry(cell.pipeline, batch), &mut digest);
    }
    engine.reset_stats();

    let mut sink = CountSink::new();
    let mut timed = |matching: bool| {
        let (start, mut matches) = (Instant::now(), 0);
        for _ in 0..cell.passes {
            for batch in &batches {
                let carried = carrier.carry(cell.pipeline, batch);
                if matching {
                    engine.match_batch(carried, &mut sink);
                    matches += sink.count();
                }
            }
        }
        (start.elapsed().as_nanos() as f64, matches)
    };
    let per_event = (cell.passes * events.len()) as f64;
    let (elapsed, matches) = timed(true);
    let overhead = match cell.pipeline {
        Pipeline::Match => None,
        Pipeline::Wire => Some(("codec_ns_per_event", timed(false).0 / per_event)),
        Pipeline::Reliable => Some(("framing_ns_per_event", timed(false).0 / per_event)),
    };
    assert!(
        !carrier.session.has_unacked() && carrier.stats.retransmits == 0,
        "the clean measurement link must stay fully acked"
    );

    let ns_per_event = elapsed / per_event;
    let (stats, report) = (*engine.stats(), engine.report());
    let (engine_name, shards) = match cell.engine {
        Engine::Naive => ("naive", 1),
        Engine::Counting => ("counting", 1),
        Engine::ATree => ("atree", 1),
        Engine::Sharded(shards) => ("sharded", shards),
    };
    let width = if cell.population == Population::Narrow {
        NARROW_WIDTH
    } else {
        FULL_WIDTH
    };
    let mut values = vec![
        ("workload", text(cell.population.name())),
        ("mode", text(cell.mode)),
        ("engine", text(engine_name)),
        ("subscriptions", cell.subscriptions.to_string()),
        ("indexed", engine.len().to_string()),
        ("event_width", width.to_string()),
        ("shards", shards.to_string()),
        ("batch_size", cell.batch.to_string()),
        ("events", events.len().to_string()),
        ("passes", cell.passes.to_string()),
        (
            "matches_per_pass",
            (matches / cell.passes as u64).to_string(),
        ),
        ("killed_by_prefilter", stats.killed_by_prefilter.to_string()),
        ("stage2_candidates", stats.stage2_candidates.to_string()),
        ("subs_simplified", registration.subs_simplified.to_string()),
        (
            "nodes_eliminated",
            registration.nodes_eliminated.to_string(),
        ),
        (
            "unsatisfiable_rejected",
            registration.unsatisfiable_rejected.to_string(),
        ),
        ("subscribe_bytes", subscribe_bytes.to_string()),
        ("ns_per_event", fixed(ns_per_event)),
        ("events_per_sec", fixed(1e9 / ns_per_event.max(1e-9))),
        // The stored subscription structure: the counting engine's trees
        // or the A-Tree's DAG slab.
        ("memory_bytes", report.tree_bytes.to_string()),
        (
            "bytes_per_sub",
            fixed(report.tree_bytes as f64 / cell.subscriptions as f64),
        ),
        ("associations", report.association_count.to_string()),
        ("dag_nodes", stats.dag_nodes.to_string()),
        ("shared_subtrees", stats.shared_subtrees.to_string()),
        ("node_evals_saved", stats.node_evals_saved.to_string()),
    ];
    values.extend(overhead.map(|(key, ns)| (key, fixed(ns))));
    let input = (cell.population.name(), cell.subscriptions, events.len());
    Row {
        output: Some((input, digest.digest)),
        ..Row::new(cell.series, values)
    }
}

/// Each subscription wrapped in structure the analyzer removes without
/// changing what it matches (duplicated subtrees, an absorption, a
/// redundant range pair), and every 20th replaced by a contradiction.
fn redundant_subs(base: &[Subscription]) -> Vec<Subscription> {
    use pubsub_core::Expr;
    base.iter()
        .enumerate()
        .map(|(i, sub)| {
            let expr = sub.tree().to_expr();
            let (gt, lt) = (
                |v: i64| Expr::gt("panel_pad", v),
                |v: i64| Expr::lt("panel_pad", v),
            );
            let wrapped = match (i % 20 == 19, i % 3) {
                (true, _) => Expr::and(vec![expr, gt(5), lt(3)]),
                (false, 0) => Expr::and(vec![expr.clone(), expr]),
                (false, 1) => Expr::or(vec![expr.clone(), Expr::and(vec![expr, gt(0)])]),
                _ => Expr::and(vec![expr, gt(1), gt(3)]),
            };
            Subscription::from_expr(sub.id(), sub.subscriber(), &wrapped)
        })
        .collect()
}

/// `count` subscriptions cycling the base expressions under fresh ids:
/// the repeated popular filter shapes of very large populations, which the
/// A-Tree's hash-consed DAG shares.
fn shared_population(base: &[Subscription], count: usize) -> Vec<Subscription> {
    (0..count)
        .map(|i| {
            Subscription::from_expr(
                SubscriptionId::from_raw(1 + i as u64),
                SubscriberId::from_raw(1 + (i % 64) as u64),
                &base[i % base.len()].tree().to_expr(),
            )
        })
        .collect()
}

/// The durable-log cells: the subscribe path of a broker without
/// neighbours (analyze + index + append) with the journal off and on, then
/// replay of the log into a fresh broker (recovery's step 0).
fn measure_durability(subscriptions: &[Subscription], passes: usize) -> Vec<Row> {
    let home = BrokerId::from_raw(0);
    // A pass takes a few ms, so host noise swamps a mean over 2-3 passes:
    // run more and keep the fastest. The modes alternate pass by pass, so
    // frequency drift hits both alike.
    let passes = (passes * 8).max(20);
    let mut best = [f64::INFINITY; 3];
    let mut journal = None;
    for _ in 0..passes {
        for on in [false, true] {
            let mut broker = Broker::new(home, Vec::new());
            if on {
                // No compaction: the cell measures the pure append cost.
                let config = DurabilityConfig::new().with_compact_every(0);
                broker.attach_durable_log(DurableLog::in_memory(config));
            }
            let start = Instant::now();
            for subscription in subscriptions {
                let subscription = subscription.clone();
                broker.handle_message(&WireMessage::Subscribe { subscription }, None);
            }
            best[on as usize] = best[on as usize].min(start.elapsed().as_nanos() as f64);
            if on {
                journal = broker.take_durable_log();
            }
        }
    }
    let log_bytes = journal.as_ref().map_or(0, |log| log.stats().log_bytes);
    let mut replayed = 0;
    for _ in 0..passes {
        let mut fresh = Broker::new(home, Vec::new());
        fresh.attach_durable_log(journal.take().expect("the journal round-trips"));
        let start = Instant::now();
        replayed = fresh.recover();
        best[2] = best[2].min(start.elapsed().as_nanos() as f64);
        journal = fresh.take_durable_log();
    }
    let subs = subscriptions.len() as u64;
    let row = |mode, ns: f64, ops: u64, log_bytes: u64, replayed: u64| {
        let values = vec![
            ("mode", text(mode)),
            ("subscriptions", subs.to_string()),
            ("passes", passes.to_string()),
            ("ns_per_op", fixed(ns / ops.max(1) as f64)),
            ("total_ms", format!("{:.2}", ns / 1e6)),
            ("log_bytes", log_bytes.to_string()),
            ("records_replayed", replayed.to_string()),
        ];
        Row::new("durability_results", values)
    };
    vec![
        row("journal_off", best[0], subs, 0, 0),
        row("journal_on", best[1], subs, log_bytes, 0),
        row("replay", best[2], replayed, log_bytes, replayed),
    ]
}

/// A lossy line (20% drop, 10% duplication, 10% corruption, reordering)
/// with a crash/restart of the middle broker, through the reliable
/// simulation: its `NetworkStats` show the fault counters at work.
fn reliability_probe(seed: u64) -> Row {
    let topology = Topology::line(3);
    let mut transport = FaultyTransport::new(Box::new(ChannelTransport::new()));
    for (a, b) in topology.links() {
        let plan = FaultPlan::new(seed ^ ((a.raw() as u64) << 16) ^ b.raw() as u64)
            .with_drop(0.2)
            .with_duplicate(0.1)
            .with_corrupt(0.1)
            .with_reorder(4);
        transport.set_link_plan(a, b, plan);
    }
    let config = SimulationConfig::new(topology).with_reliability(true);
    let mut sim = Simulation::with_transport(config, Box::new(transport));
    let mut generator = WorkloadGenerator::new(WorkloadConfig::small().with_seed(seed));
    sim.register_all(generator.subscriptions(32));
    let events = generator.events(192);
    let batches: Vec<EventBatch> = events
        .chunks(64)
        .map(|chunk| chunk.iter().cloned().collect())
        .collect();
    let middle = BrokerId::from_raw(1);
    let _ = sim.publish_batch(&batches[0]);
    sim.crash_broker(middle);
    let _ = sim.publish_batch(&batches[1]);
    sim.restart_broker(middle);
    let _ = sim.publish_batch(&batches[2]);
    let s = sim.network_stats();
    Row::new(
        "reliability_stats",
        vec![
            ("frames", s.frames.to_string()),
            ("retransmits", s.retransmits.to_string()),
            ("dup_suppressed", s.dup_suppressed.to_string()),
            ("corrupt_dropped", s.corrupt_dropped.to_string()),
            ("resyncs", s.resyncs.to_string()),
            ("decode_errors", s.decode_errors.to_string()),
            ("queue_drops", s.queue_drops.to_string()),
        ],
    )
}

/// Every series in JSON order (`"name: columns"`), with the columns each
/// row carries. The probe's single row is written as an object.
const SERIES: &[&str] = &[
    "results: engine subscriptions event_width events passes matches_per_pass ns_per_event \
     events_per_sec",
    "batch_results: engine subscriptions event_width batch_size events passes matches_per_pass \
     ns_per_event events_per_sec",
    "wire_results: engine subscriptions event_width batch_size events passes matches_per_pass \
     ns_per_event events_per_sec codec_ns_per_event",
    "reliable_results: subscriptions batch_size events passes matches_per_pass ns_per_event \
     events_per_sec framing_ns_per_event",
    "reliability_stats: frames retransmits dup_suppressed corrupt_dropped resyncs decode_errors \
     queue_drops",
    "durability_results: mode subscriptions passes ns_per_op total_ms log_bytes records_replayed",
    "sharded_results: engine subscriptions event_width shards batch_size events passes \
     matches_per_pass ns_per_event events_per_sec",
    "prefilter_results: workload mode subscriptions batch_size events passes matches_per_pass \
     killed_by_prefilter stage2_candidates ns_per_event events_per_sec",
    "analysis_results: workload mode subscriptions indexed batch_size events passes \
     matches_per_pass stage2_candidates subs_simplified nodes_eliminated unsatisfiable_rejected \
     subscribe_bytes ns_per_event events_per_sec",
    "atree_results: engine workload subscriptions batch_size events passes matches_per_pass \
     ns_per_event events_per_sec memory_bytes bytes_per_sub associations dag_nodes dag_edges \
     shared_subtrees node_evals_saved",
];

/// The series `row` belongs to, and the columns it writes.
fn series_of(row: &Row) -> (&'static str, &'static str) {
    SERIES
        .iter()
        .filter_map(|s| s.split_once(": "))
        .find(|(name, _)| *name == row.series)
        .expect("every row belongs to a series")
}

/// How a figure combines its numerator `a` and denominator `b`.
#[derive(Clone, Copy)]
enum Form {
    /// `a / b`.
    Ratio,
    /// `100 a / b`.
    Pct,
    /// `100 (a / b - 1)`: how much slower `a` is than `b`.
    Overhead,
    /// `100 (1 - a / b)`: how much of `b` the `a` cell removed.
    Reduction,
}

/// A condensed figure: its name, its cells (`"numerator / denominator"`,
/// each `"series key=value ... metric"`; of several matching rows the one
/// with the most subscriptions, then the largest batch), how they combine,
/// and the bounds (`"op number"`) it must meet in the given modes. A figure
/// is written after its numerator's series.
type Figure = (
    &'static str,
    &'static str,
    Form,
    &'static [(&'static [Mode], &'static str)],
);

/// Overheads divide by the pure-match batch cell at the largest batch, so
/// the codec and reliability figures compare directly.
const FIGURES: &[Figure] = &[
    (
        "codec_overhead_pct",
        "wire_results codec_ns_per_event / batch_results ns_per_event",
        Form::Pct,
        &[(QUICK, "> 0"), (WIRE, "< 15")],
    ),
    (
        "reliability_overhead_pct",
        "reliable_results framing_ns_per_event / batch_results ns_per_event",
        Form::Pct,
        &[(WIRE, "< 15")],
    ),
    (
        "durability_overhead_pct",
        "durability_results mode=journal_on ns_per_op \
         / durability_results mode=journal_off ns_per_op",
        Form::Overhead,
        &[(WIRE, "< 15")],
    ),
    (
        "prefilter_speedup_hot_key",
        "prefilter_results workload=hot_key mode=off ns_per_event \
         / prefilter_results workload=hot_key mode=on ns_per_event",
        Form::Ratio,
        &[],
    ),
    // Stage 0 may only buy speed: at most 5% slower on the uniform cell.
    (
        "prefilter_overhead_uniform_pct",
        "prefilter_results workload=uniform mode=on ns_per_event \
         / prefilter_results workload=uniform mode=off ns_per_event",
        Form::Overhead,
        &[(QUICK, "<= 5")],
    ),
    // Analysis must shrink the redundant cell's stage-2 volume and its
    // subscribe traffic.
    (
        "analysis_stage2_reduction_pct",
        "analysis_results workload=redundant mode=on stage2_candidates \
         / analysis_results workload=redundant mode=off stage2_candidates",
        Form::Reduction,
        &[(ALL, "> 0")],
    ),
    (
        "analysis_subscribe_bytes_reduction_pct",
        "analysis_results workload=redundant mode=on subscribe_bytes \
         / analysis_results workload=redundant mode=off subscribe_bytes",
        Form::Reduction,
        &[(ALL, "> 0")],
    ),
    (
        "atree_memory_per_sub_vs_counting_pct",
        "atree_results workload=shared engine=atree bytes_per_sub \
         / atree_results workload=shared engine=counting bytes_per_sub",
        Form::Pct,
        &[(QUICK, "> 0"), (QUICK, "< 100")],
    ),
    // The A-Tree's losing case: time per event on the paper's workload.
    (
        "atree_auction_ns_vs_counting_pct",
        "atree_results workload=auction engine=atree ns_per_event \
         / atree_results workload=auction engine=counting ns_per_event",
        Form::Pct,
        &[],
    ),
];

/// A figure's value, or `None` if a cell is missing or the denominator is 0.
fn figure_value(rows: &[Row], &(_, cells, form, _): &Figure) -> Option<f64> {
    let pick = |spec: &'static str| {
        let (cell, metric) = spec.trim().rsplit_once(' ')?;
        let row = select(rows, cell).max_by(|a, b| {
            let by = |key| a.num(key).total_cmp(&b.num(key));
            by("subscriptions").then(by("batch_size"))
        })?;
        Some(row.num(metric))
    };
    let (num, den) = cells.split_once(" / ")?;
    let (a, b) = (pick(num)?, pick(den)?);
    (b > 0.0).then(|| match form {
        Form::Ratio => a / b,
        Form::Pct => 100.0 * a / b,
        Form::Overhead => 100.0 * (a / b - 1.0),
        Form::Reduction => 100.0 * (1.0 - a / b),
    })
}

/// `"series key=value ...: metrics op operand"`, the metrics one or a
/// `+`-joined sum and the operand a number, another metric or (after `==`
/// on a text key) a text: the selector must select a row, and every
/// selected row must meet the condition (if there is one).
const RULES: &[&str] = &[
    "batch_results batch_size=1",
    "batch_results batch_size=16",
    "wire_results: codec_ns_per_event < ns_per_event",
    "reliable_results: framing_ns_per_event < ns_per_event",
    "sharded_results shards=1",
    "sharded_results: engine == sharded",
    // Stage 0 kills candidates only when on.
    "prefilter_results workload=uniform mode=on: killed_by_prefilter > 0",
    "prefilter_results workload=hot_key mode=on: killed_by_prefilter > 0",
    "prefilter_results workload=uniform mode=off: killed_by_prefilter == 0",
    "prefilter_results workload=hot_key mode=off: killed_by_prefilter == 0",
    // With analysis off nothing is rejected and everything is indexed.
    "analysis_results mode=off: unsatisfiable_rejected == 0",
    "analysis_results mode=off: indexed == subscriptions",
    // Every offered subscription is indexed or rejected as unsatisfiable.
    "analysis_results: indexed+unsatisfiable_rejected == subscriptions",
    "analysis_results workload=redundant mode=on: unsatisfiable_rejected > 0",
    "analysis_results workload=redundant mode=on: subs_simplified > 0",
    "durability_results mode=journal_off: log_bytes == 0",
    "durability_results mode=journal_on: log_bytes > 0",
    "durability_results mode=replay: records_replayed == subscriptions",
    "atree_results: memory_bytes > 0",
    "atree_results engine=counting: dag_nodes == 0",
    "atree_results workload=shared engine=atree: shared_subtrees > 0",
    "atree_results workload=auction engine=atree",
    "atree_results workload=auction engine=counting",
    // The lossy probe exercises every fault counter, resyncs once after
    // its one crash/restart, and no corrupt frame reaches the codec.
    "reliability_stats: retransmits > 0",
    "reliability_stats: dup_suppressed > 0",
    "reliability_stats: corrupt_dropped > 0",
    "reliability_stats: resyncs == 1",
    "reliability_stats: decode_errors == 0",
];

/// `"series keys: combinations"`: the series' rows carry exactly these
/// combinations of the keys' values (`/`-joined), no more and no fewer.
const CELL_SETS: &[&str] = &[
    "prefilter_results workload mode: uniform/on uniform/off hot_key/on hot_key/off",
    "analysis_results workload mode: uniform/on uniform/off redundant/on redundant/off",
    "durability_results mode: journal_off journal_on replay",
    "atree_results engine: counting atree",
];

/// The [`RULES`] of `--wire-check` only: its overhead figures are taken at
/// batch 256.
const WIRE_RULES: &[&str] = &[
    "wire_results batch_size=256",
    "reliable_results batch_size=256",
];

/// Whether `a op b` holds for a condition operator.
fn holds(a: f64, op: &str, b: f64) -> bool {
    match op {
        "==" => a == b,
        "<" => a < b,
        "<=" => a <= b,
        ">" => a > b,
        _ => unreachable!("unknown operator {op}"),
    }
}

fn host_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Every assertion the panel makes about its own rows; returns the failures.
fn check(mode: Mode, rows: &[Row]) -> Vec<String> {
    let mut failures = Vec::new();
    if host_parallelism() < 1 {
        failures.push("host_parallelism < 1".to_owned());
    }
    for (series, columns) in SERIES.iter().filter_map(|s| s.split_once(": ")) {
        if select(rows, series).next().is_none() {
            failures.push(format!("{series} is empty"));
        }
        for row in select(rows, series) {
            for column in columns.split_whitespace().filter(|c| row.get(c).is_none()) {
                failures.push(format!("a {series} row misses {column}"));
            }
        }
    }
    // Same input, same output: cells over the same subscriptions and events
    // (single-event and batched, naive and counting, pre-filter and analysis
    // on and off, A-Tree and counting) emit the same matches per pass.
    let describe = |r: &Row| format!("{} {}", r.series, render_row(r, "workload mode engine"));
    for row in rows.iter().filter(|r| r.output.is_some()) {
        let input = row.output.map(|(input, _)| input);
        let first = rows.iter().find(|r| r.output.map(|(i, _)| i) == input);
        if let Some(first) = first.filter(|f| {
            f.output != row.output || f.num("matches_per_pass") != row.num("matches_per_pass")
        }) {
            let (this, that) = (describe(row), describe(first));
            failures.push(format!("{this} disagrees with {that}"));
        }
    }
    for &rule in RULES
        .iter()
        .chain(WIRE_RULES.iter().filter(|_| mode == Mode::WireCheck))
    {
        let (cells, condition) = rule.split_once(": ").unwrap_or((rule, ""));
        if select(rows, cells).next().is_none() {
            failures.push(format!("no {cells} cell"));
        }
        if let [lhs, op, rhs] = condition.split_whitespace().collect::<Vec<_>>()[..] {
            for row in select(rows, cells).filter(|row| !row.meets(lhs, op, rhs)) {
                let values = render_row(row, &lhs.replace('+', " "));
                failures.push(format!("{rule} fails: {values}"));
            }
        }
    }
    for spec in CELL_SETS {
        let (head, want) = spec.split_once(": ").expect("`series keys: values`");
        let (series, keys) = head.split_once(' ').expect("a cell set names its keys");
        let label = |r: &Row| {
            let values = keys
                .split(' ')
                .map(|k| r.get(k).unwrap_or("").trim_matches('"'));
            values.collect::<Vec<_>>().join("/")
        };
        let got: BTreeSet<String> = select(rows, series).map(label).collect();
        if got != want.split(' ').map(str::to_owned).collect() {
            failures.push(format!("{series} holds {got:?}, not {want}"));
        }
    }
    for figure @ &(name, _, _, bounds) in FIGURES {
        let Some(value) = figure_value(rows, figure) else {
            failures.push(format!("{name} cannot be computed"));
            continue;
        };
        for &(_, bound) in bounds.iter().filter(|(modes, _)| modes.contains(&mode)) {
            let (op, b) = bound.split_once(' ').expect("a bound reads `op number`");
            if !holds(value, op, b.parse().expect("a bound is a number")) {
                failures.push(format!("{name} = {value:.2} breaks {bound}"));
            }
        }
    }
    failures
}

/// `{"key": value, ...}` over `columns`, in column order.
fn render_row(row: &Row, columns: &str) -> String {
    let mut out = String::from("{");
    for (i, column) in columns.split_whitespace().enumerate() {
        out.push_str(&format!("{}\"{column}\": ", if i > 0 { ", " } else { "" }));
        // A missing column fails `check`; keep the JSON valid meanwhile.
        out.push_str(row.get(column).unwrap_or("\"missing\""));
    }
    out.push('}');
    out
}

/// The document: the header, then each series followed by the figures
/// whose numerator it holds.
fn render_json(mode: Mode, seed: u64, rows: &[Row]) -> String {
    let mut entries = vec![
        "\"benchmark\": \"matching\"".to_owned(),
        format!("\"seed\": {seed}"),
        format!("\"mode\": \"{}\"", mode.name()),
        format!("\"host_parallelism\": {}", host_parallelism()),
    ];
    for (series, columns) in SERIES.iter().filter_map(|s| s.split_once(": ")) {
        let members: Vec<_> = select(rows, series)
            .map(|r| render_row(r, columns))
            .collect();
        entries.push(if series == "reliability_stats" {
            format!("\"{series}\": {}", members.concat())
        } else {
            format!("\"{series}\": [\n    {}\n  ]", members.join(",\n    "))
        });
        for figure in FIGURES
            .iter()
            .filter(|f| f.1.starts_with(&format!("{series} ")))
        {
            let value = figure_value(rows, figure).unwrap_or(0.0);
            entries.push(format!("\"{}\": {value:.2}", figure.0));
        }
    }
    format!("{{\n  {}\n}}\n", entries.join(",\n  "))
}

const USAGE: &str =
    "usage: matching_panel [--quick | --wire-check | --deep] [--out PATH] [--seed N]";

fn parse_args() -> Result<(Mode, String, u64), String> {
    let (mut mode, mut out, mut seed) = (None, "BENCH_matching.json".to_owned(), 42);
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let chosen = match arg.as_str() {
            "--quick" => Mode::Quick,
            "--wire-check" => Mode::WireCheck,
            "--deep" => Mode::Deep,
            "--out" => {
                out = args.next().ok_or("--out requires a path")?;
                continue;
            }
            "--seed" => {
                let value = args.next().ok_or("--seed requires a number")?;
                seed = value.parse().map_err(|e| format!("invalid --seed: {e}"))?;
                continue;
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument: {other}")),
        };
        if mode.replace(chosen).is_some() {
            return Err("--quick, --wire-check and --deep are exclusive".to_owned());
        }
    }
    Ok((mode.unwrap_or(Mode::Full), out, seed))
}

fn main() {
    let (mode, out, seed) = parse_args().unwrap_or_else(|e| {
        eprintln!("error: {e}\n{USAGE}");
        std::process::exit(2);
    });
    let sizes = mode.sizes();
    let max_subs = *sizes.subs.iter().max().expect("the panel has sizes");
    let data = Data::generate(seed, max_subs, sizes.events);
    let print = |row: &Row| eprintln!("{}: {}", row.series, render_row(row, series_of(row).1));

    let mut rows = Vec::new();
    for cell in table(&sizes) {
        rows.push(measure(&cell, &data));
        print(&rows[rows.len() - 1]);
    }
    rows.push(reliability_probe(seed));
    rows.extend(measure_durability(&data.subs, sizes.passes));
    rows[rows.len() - 4..].iter().for_each(print);

    if let Err(e) = std::fs::write(&out, render_json(mode, seed, &rows)) {
        eprintln!("error: cannot write {out}: {e}");
        std::process::exit(1);
    }
    println!("wrote {out}");
    let failures = check(mode, &rows);
    for failure in &failures {
        eprintln!("check failed: {failure}");
    }
    if !failures.is_empty() {
        std::process::exit(1);
    }
}
