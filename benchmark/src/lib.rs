//! The repository's fixed benchmark: six workloads, end-to-end metrics
//! from an untraced run, per-layer metrics from a traced one. See
//! `README.md` in this directory for every workload, metric and bound.

pub mod compare;
pub mod fold;
pub mod host;
pub mod inputs;
pub mod json;
pub mod kernels;
pub mod manifest;
pub mod run;
pub mod span;
pub mod stats;
pub mod workload;
