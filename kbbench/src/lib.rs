//! # kbbench
//!
//! The repository's benchmark: one seeded program that drives the LTEE
//! ingest → publish → query → recover stack end to end and takes it apart
//! layer by layer. See `README.md` for the metrics, the workloads and how
//! to read the output; `BENCHMARK.json` at the repository root is the
//! machine-readable contract.

pub mod compare;
pub mod digest;
pub mod json;
pub mod layers;
pub mod load;
pub mod plan;
pub mod report;
pub mod rng;
pub mod run;
pub mod shadow;
pub mod stats;
pub mod trace;
