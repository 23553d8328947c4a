//! # oat-benchmark
//!
//! The repository's benchmark: seven named workloads, eight end-to-end
//! metrics with fixed regression bounds, and a traced pass that
//! attributes time and work to layers (module names). Everything is
//! measured from outside, through the crates' public API; see
//! `README.md` for what each workload and metric is for and how the
//! per-layer metrics are expected to move the end-to-end ones.

#![warn(missing_docs)]

pub mod cluster;
pub mod compare;
pub mod contract;
pub mod gen;
pub mod json;
pub mod lane;
pub mod metrics;
pub mod micro;
pub mod proc_stat;
pub mod query;
pub mod runner;
pub mod set;
pub mod stats;
pub mod workload;
