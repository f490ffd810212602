//! In-memory span recorder for the traced run.
//!
//! A span is opened around one call into a layer's public function and
//! closed when the call returns. Each span records its name, start, end,
//! parent span and the id of the publish or subscribe operation that caused
//! it. Self time (span time minus the time its children cover) is folded
//! into per-layer totals as spans close, so the totals need no second pass;
//! the raw spans are also kept, up to [`RAW_SPAN_CAP`], and written out with
//! [`write_spans`] when the run ends.
//!
//! The recorder is thread-local: the simulation is single-threaded, and the
//! timed [`Storage`](broker::Storage) wrapper in [`crate::traced`] reaches it
//! from inside `Broker::handle_message_into` without any plumbing through
//! the program.

use std::cell::RefCell;
use std::io::Write;
use std::time::Instant;

/// Raw spans kept for the span file; later spans only feed the totals.
pub const RAW_SPAN_CAP: usize = 200_000;

/// The layer a span belongs to. The first three are the roots: one client
/// operation each, whose self time is the traced network's pump loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Layer {
    OpPublish,
    OpSubscribe,
    OpUnsubscribe,
    WireEncode,
    WireDecode,
    TransportSend,
    TransportRecv,
    ReliableWrap,
    ReliableUnwrap,
    ReliableTick,
    BrokerPublish,
    BrokerSubscribe,
    BrokerUnsubscribe,
    BrokerControl,
    DurabilityAppend,
    DurabilityOther,
    SelectivityEstimator,
    PruningPlan,
}

/// Number of [`Layer`] variants.
pub const LAYERS: usize = 18;

impl Layer {
    /// Every layer, in declaration order (index = discriminant).
    pub const ALL: [Layer; LAYERS] = [
        Layer::OpPublish,
        Layer::OpSubscribe,
        Layer::OpUnsubscribe,
        Layer::WireEncode,
        Layer::WireDecode,
        Layer::TransportSend,
        Layer::TransportRecv,
        Layer::ReliableWrap,
        Layer::ReliableUnwrap,
        Layer::ReliableTick,
        Layer::BrokerPublish,
        Layer::BrokerSubscribe,
        Layer::BrokerUnsubscribe,
        Layer::BrokerControl,
        Layer::DurabilityAppend,
        Layer::DurabilityOther,
        Layer::SelectivityEstimator,
        Layer::PruningPlan,
    ];

    /// The span name written to the span file.
    pub fn name(self) -> &'static str {
        match self {
            Layer::OpPublish => "op.publish",
            Layer::OpSubscribe => "op.subscribe",
            Layer::OpUnsubscribe => "op.unsubscribe",
            Layer::WireEncode => "wire.encode",
            Layer::WireDecode => "wire.decode",
            Layer::TransportSend => "transport.send",
            Layer::TransportRecv => "transport.recv",
            Layer::ReliableWrap => "reliable.wrap",
            Layer::ReliableUnwrap => "reliable.unwrap",
            Layer::ReliableTick => "reliable.tick",
            Layer::BrokerPublish => "broker.publish",
            Layer::BrokerSubscribe => "broker.subscribe",
            Layer::BrokerUnsubscribe => "broker.unsubscribe",
            Layer::BrokerControl => "broker.control",
            Layer::DurabilityAppend => "durability.append",
            Layer::DurabilityOther => "durability.storage",
            Layer::SelectivityEstimator => "selectivity.estimator",
            Layer::PruningPlan => "pruning.plan",
        }
    }

    /// Whether spans of this layer are the roots of one client operation.
    pub fn is_op(self) -> bool {
        matches!(
            self,
            Layer::OpPublish | Layer::OpSubscribe | Layer::OpUnsubscribe
        )
    }
}

/// The part of a traced run a span belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Phase {
    /// Construction, initial registration, pruning and warm-up.
    Setup,
    /// The measured operation sequence.
    Ops,
    /// The closing unsubscribes that give every workload an unsubscribe
    /// sample.
    Tail,
}

/// Number of [`Phase`] variants.
pub const PHASES: usize = 3;

impl Phase {
    fn name(self) -> &'static str {
        match self {
            Phase::Setup => "setup",
            Phase::Ops => "ops",
            Phase::Tail => "tail",
        }
    }
}

/// One recorded span. Times are nanoseconds since the recorder's epoch.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub layer: Layer,
    pub phase: Phase,
    pub op: u32,
    /// Index of the parent span in the raw list, `u32::MAX` for a root or a
    /// parent that fell beyond the raw cap.
    pub parent: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Per-layer totals of one phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

struct Open {
    layer: Layer,
    raw: u32,
    start_ns: u64,
    child_ns: u64,
}

struct Recorder {
    epoch: Instant,
    phase: Phase,
    op: u32,
    stack: Vec<Open>,
    raw: Vec<Span>,
    totals: [[LayerTotals; LAYERS]; PHASES],
}

impl Recorder {
    fn new() -> Self {
        Self {
            epoch: Instant::now(),
            phase: Phase::Setup,
            op: 0,
            stack: Vec::new(),
            raw: Vec::new(),
            totals: [[LayerTotals::default(); LAYERS]; PHASES],
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }
}

thread_local! {
    static RECORDER: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Starts recording on this thread, discarding any earlier recording.
pub fn start() {
    RECORDER.with(|r| *r.borrow_mut() = Some(Recorder::new()));
}

/// Stops recording and returns the per-phase totals and the raw spans.
pub fn finish() -> ([[LayerTotals; LAYERS]; PHASES], Vec<Span>) {
    RECORDER.with(|r| {
        let recorder = r.borrow_mut().take().expect("trace::start was called");
        assert!(recorder.stack.is_empty(), "a span was left open");
        (recorder.totals, recorder.raw)
    })
}

/// Sets the phase later spans are filed under.
pub fn set_phase(phase: Phase) {
    RECORDER.with(|r| {
        if let Some(recorder) = r.borrow_mut().as_mut() {
            recorder.phase = phase;
        }
    });
}

/// An open span; closes when dropped.
#[must_use = "a span closes when the guard is dropped"]
pub struct SpanGuard {
    armed: bool,
}

/// Opens a span of `layer`. A root (operation) span also starts a new
/// operation id, which every span beneath it carries. Without an active
/// recording this is a no-op.
pub fn span(layer: Layer) -> SpanGuard {
    let armed = RECORDER.with(|r| {
        let mut borrow = r.borrow_mut();
        let Some(recorder) = borrow.as_mut() else {
            return false;
        };
        if layer.is_op() {
            recorder.op += 1;
        }
        let parent = recorder.stack.last().map_or(u32::MAX, |open| open.raw);
        let raw = if recorder.raw.len() < RAW_SPAN_CAP {
            recorder.raw.push(Span {
                layer,
                phase: recorder.phase,
                op: recorder.op,
                parent,
                start_ns: 0,
                end_ns: 0,
            });
            (recorder.raw.len() - 1) as u32
        } else {
            u32::MAX
        };
        let start_ns = recorder.now_ns();
        recorder.stack.push(Open {
            layer,
            raw,
            start_ns,
            child_ns: 0,
        });
        true
    });
    SpanGuard { armed }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if !self.armed {
            return;
        }
        RECORDER.with(|r| {
            let mut borrow = r.borrow_mut();
            let recorder = borrow.as_mut().expect("recording outlives its spans");
            let end_ns = recorder.now_ns();
            let open = recorder.stack.pop().expect("span stack matches guards");
            let duration = end_ns.saturating_sub(open.start_ns);
            if let Some(parent) = recorder.stack.last_mut() {
                parent.child_ns += duration;
            }
            if let Some(span) = recorder.raw.get_mut(open.raw as usize) {
                span.start_ns = open.start_ns;
                span.end_ns = end_ns;
            }
            let totals = &mut recorder.totals[recorder.phase as usize][open.layer as usize];
            totals.count += 1;
            totals.total_ns += duration;
            totals.self_ns += duration.saturating_sub(open.child_ns);
        });
    }
}

/// Writes spans as tab-separated lines: index, name, phase, op, parent,
/// start and end in nanoseconds since the recorder's epoch.
pub fn write_spans(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "index\tname\tphase\top\tparent\tstart_ns\tend_ns")?;
    for (index, span) in spans.iter().enumerate() {
        let parent = if span.parent == u32::MAX {
            String::from("-")
        } else {
            span.parent.to_string()
        };
        writeln!(
            out,
            "{index}\t{}\t{}\t{}\t{parent}\t{}\t{}",
            span.layer.name(),
            span.phase.name(),
            span.op,
            span.start_ns,
            span.end_ns
        )?;
    }
    out.flush()
}
