//! The repository benchmark: four workloads that separate the leader's
//! CPU from transport and simulator cost, end-to-end metrics from an
//! untraced run, and per-layer attribution from a traced one. See
//! `README.md` next to `Cargo.toml` for the metrics and how to run it.

mod openloop;
pub mod probes;
pub mod report;
mod stats;
mod sys;
pub mod trace;
pub mod workloads;
