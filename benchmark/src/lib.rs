//! # gcache-perf
//!
//! The repository's benchmark. It drives the G-Cache simulator strictly
//! from outside — the sweep engine, `Gpu`'s public methods, the
//! `sweep_server` binary and each layer's public functions — and reports
//! calibrated host cost, exact simulated metrics and per-layer numbers
//! for six workloads. `README.md` has the metric glossary, the workload
//! table and how the metrics interact.

#![warn(missing_docs)]

pub mod cal;
pub mod drivers;
pub mod metrics;
pub mod pass;
pub mod report;
pub mod run;
pub mod seeded;
pub mod server;
pub mod span;
pub mod stats;
pub mod workloads;
