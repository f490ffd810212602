//! End-to-end benchmark of the paper's five-broker line.
//!
//! Each run drives one workload through the public `broker::Simulation`
//! API as a closed loop from one client on one thread, checks every
//! delivery against a `NaiveEngine` oracle, and reports end-to-end metrics.
//! A traced run repeats the same operations through [`traced::TracedNet`],
//! which times each call into a layer's public functions, and reports how
//! the time splits across the layers. See `README.md` for the workloads,
//! metrics and the layer-to-metric relations.

#![forbid(unsafe_code)]

pub mod meter;
pub mod net;
pub mod oracle;
pub mod report;
pub mod run;
pub mod session;
pub mod spec;
pub mod trace;
pub mod traced;
