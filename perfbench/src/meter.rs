//! Timing that factors out the host's speed.
//!
//! On a shared virtual machine the speed of a core changes from one tenth
//! of a second to the next with what other tenants run, by ±15% and more,
//! and no run-queue wait or steal time shows it. A [`Meter`] therefore runs
//! a fixed piece of work of its own, the [`Probe`], every
//! [`PROBE_INTERVAL_MS`] between the timed calls, and scales each call's
//! time by how fast the probes around it ran against
//! [`REFERENCE_PROBE_NS`]. A call time is thus reported as it would be on a
//! host where the probe takes exactly the reference time. The probe shares
//! no code with the program, so a change to the program moves the scaled
//! times as much as the raw ones.

use std::hint::black_box;
use std::time::Instant;

/// Probe time of the reference host: the median on the 2-core x86-64 VM
/// the benchmark was written on.
pub const REFERENCE_PROBE_NS: f64 = 550_000.0;
/// Wall time between probes.
pub const PROBE_INTERVAL_MS: u128 = 20;
/// Keys the probe sorts and then searches.
const PROBE_KEYS: usize = 8_192;

/// The probe: sort a fixed pseudo-random key set and look keys up in it,
/// which exercises branches, caches and memory like the program does.
#[derive(Debug, Default)]
pub struct Probe {
    keys: Vec<u64>,
}

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

impl Probe {
    /// Runs the probe once; returns its time in nanoseconds.
    pub fn run(&mut self) -> u64 {
        let start = Instant::now();
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        self.keys.clear();
        self.keys.extend((0..PROBE_KEYS).map(|_| xorshift(&mut x)));
        self.keys.sort_unstable();
        let mut y = 0x2545_F491_4F6C_DD1Du64;
        let hits = (0..PROBE_KEYS)
            .filter(|_| self.keys.binary_search(&xorshift(&mut y)).is_ok())
            .count();
        black_box(hits);
        start.elapsed().as_nanos() as u64
    }
}

/// Call latencies in call order, thinned so that memory stays bounded
/// however fast the program runs: once the buffer holds [`Self::CAP`]
/// samples, every other one is dropped and from then on only every
/// `stride`-th call is kept. The kept samples stay evenly spread over the
/// calls, so percentiles and stretch rates over them are unbiased.
#[derive(Debug, Clone)]
pub struct Thinned {
    pub samples: Vec<u64>,
    stride: u64,
    calls: u64,
}

impl Thinned {
    const CAP: usize = 1 << 16;

    /// Records one call's latency.
    pub fn push(&mut self, ns: u64) {
        // Invariant: `samples` holds the calls 0, stride, 2 * stride, ...
        // The buffer fills on a call that is a multiple of twice the
        // stride (CAP is even), so that call is kept after the thinning.
        if self.calls.is_multiple_of(self.stride) {
            if self.samples.len() == Self::CAP {
                self.samples = self.samples.iter().copied().step_by(2).collect();
                self.stride *= 2;
            }
            self.samples.push(ns);
        }
        self.calls += 1;
    }

    /// Calls recorded, kept or not.
    pub fn calls(&self) -> u64 {
        self.calls
    }
}

impl Default for Thinned {
    fn default() -> Self {
        Thinned {
            samples: Vec::new(),
            stride: 1,
            calls: 0,
        }
    }
}

/// What a timed call was.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Publish,
    Subscribe,
    Unsubscribe,
    /// A set-up registration.
    Register,
    /// Set-up work other than registration: construction, pruning.
    Other,
}

/// Scaled latencies and counts of a stretch of operations.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    /// Latency of publish calls, in scaled nanoseconds.
    pub publish_ns: Thinned,
    /// Events those calls published.
    pub publish_events: u64,
    /// Latency of each subscribe call, in scaled nanoseconds.
    pub subscribe_ns: Vec<u64>,
    /// Latency of each unsubscribe call, in scaled nanoseconds.
    pub unsubscribe_ns: Vec<u64>,
    /// Latency of each set-up registration, in scaled nanoseconds.
    pub register_ns: Vec<u64>,
    /// Scaled time of all timed work, every kind.
    pub total_ns: u64,
    /// Unscaled time of all timed work.
    pub raw_ns: u64,
    /// Operations run: publishes, or churn steps.
    pub ops: u64,
    /// Wall time of the stretch, probes included, in seconds.
    pub wall_s: f64,
    /// Every probe time, in nanoseconds.
    pub probe_ns: Vec<u64>,
}

/// Times calls and scales them by the probes around them.
#[derive(Debug)]
pub struct Meter {
    probe: Probe,
    last_probe_ns: u64,
    last_probe_at: Instant,
    /// Calls since the last probe, unscaled.
    pending: Vec<(Kind, u64)>,
    samples: Samples,
    started: Instant,
    subscribes: usize,
}

impl Meter {
    /// Starts a stretch with a probe.
    pub fn start() -> Self {
        let mut probe = Probe::default();
        let last_probe_ns = probe.run();
        let now = Instant::now();
        Meter {
            probe,
            last_probe_ns,
            last_probe_at: now,
            pending: Vec::new(),
            samples: Samples {
                probe_ns: vec![last_probe_ns],
                ..Samples::default()
            },
            started: now,
            subscribes: 0,
        }
    }

    /// Runs and times `call`, filed under `kind`.
    pub fn time<R>(&mut self, kind: Kind, call: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let result = call();
        self.pending.push((kind, start.elapsed().as_nanos() as u64));
        self.subscribes += usize::from(kind == Kind::Subscribe);
        if self.last_probe_at.elapsed().as_millis() >= PROBE_INTERVAL_MS {
            self.probe_and_scale();
        }
        result
    }

    /// Counts one operation of the stream.
    pub fn count_op(&mut self) {
        self.samples.ops += 1;
    }

    /// Counts events a publish call published.
    pub fn count_events(&mut self, events: u64) {
        self.samples.publish_events += events;
    }

    /// Operations counted so far.
    pub fn ops(&self) -> u64 {
        self.samples.ops
    }

    /// Subscribe calls timed so far.
    pub fn subscribes(&self) -> usize {
        self.subscribes
    }

    /// Wall time since the stretch started, probes included.
    pub fn elapsed_s(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }

    fn probe_and_scale(&mut self) {
        let probe_ns = self.probe.run();
        let scale = REFERENCE_PROBE_NS / ((self.last_probe_ns + probe_ns) as f64 / 2.0);
        let samples = &mut self.samples;
        for (kind, raw) in self.pending.drain(..) {
            let scaled = (raw as f64 * scale) as u64;
            samples.raw_ns += raw;
            samples.total_ns += scaled;
            match kind {
                Kind::Publish => samples.publish_ns.push(scaled),
                Kind::Subscribe => samples.subscribe_ns.push(scaled),
                Kind::Unsubscribe => samples.unsubscribe_ns.push(scaled),
                Kind::Register => samples.register_ns.push(scaled),
                Kind::Other => {}
            }
        }
        samples.probe_ns.push(probe_ns);
        self.last_probe_ns = probe_ns;
        self.last_probe_at = Instant::now();
    }

    /// Ends the stretch with a probe and returns its samples.
    pub fn finish(mut self) -> Samples {
        self.probe_and_scale();
        self.samples.wall_s = self.started.elapsed().as_secs_f64();
        self.samples
    }
}
