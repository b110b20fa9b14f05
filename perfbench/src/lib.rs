//! End-to-end and per-layer benchmark of the paper's lws × topology
//! sweep. See `README.md` in this directory for the workloads, the
//! metrics and how to run it.

#![forbid(unsafe_code)]

pub mod procfs;
pub mod rowcheck;
pub mod rows;
pub mod sample;
pub mod spans;
pub mod stats;
pub mod workloads;
