//! # bench
//!
//! The experiment harness that regenerates every panel of the paper's
//! Figure 1 plus the ablation and baseline studies described in DESIGN.md.
//!
//! The library part contains the experiment runners; the binaries
//! (`figure1`, `ablation`, `baselines`) parse a tiny CLI, call the runners,
//! and print CSV series that correspond one-to-one to the paper's curves.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod centralized;
pub mod cli;
pub mod distributed;

pub use centralized::{run_centralized, CentralizedPoint};
pub use distributed::{run_distributed, run_distributed_with_engine, DistributedPoint};

use pruning::Dimension;
use pubsub_core::EventMessage;

/// Returns a copy of `events` narrowed to their first `width` attributes in
/// attribute-name order (events with at most `width` attributes are copied
/// unchanged). The `matching_panel` bin uses this to vary event width over
/// one generated workload.
pub fn narrow_events(events: &[EventMessage], width: usize) -> Vec<EventMessage> {
    events
        .iter()
        .map(|ev| {
            let mut narrowed = ev.clone();
            let drop: Vec<String> = ev
                .iter()
                .skip(width)
                .map(|(name, _)| name.to_owned())
                .collect();
            for name in drop {
                narrowed.remove(&name);
            }
            narrowed
        })
        .collect()
}

/// The pruning fractions (x-axis samples) used by default: 0.0, 0.1, …, 1.0.
pub fn default_fractions() -> Vec<f64> {
    (0..=10).map(|i| i as f64 / 10.0).collect()
}

/// The three heuristics in the order the paper's figures list them.
pub fn all_dimensions() -> [Dimension; 3] {
    [
        Dimension::NetworkLoad,
        Dimension::Throughput,
        Dimension::Memory,
    ]
}

/// Formats a floating point cell for CSV output with enough precision for
/// the experiment reports.
pub fn csv_cell(value: f64) -> String {
    format!("{value:.6}")
}
