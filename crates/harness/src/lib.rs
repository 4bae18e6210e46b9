//! # ltee-harness
//!
//! The workload harness: named, seeded traffic mixes driven end to end
//! through the serve pipeline (`ltee-serve`), with every run emitting a
//! **canonical** `BENCH_harness.json` — a report whose bytes depend only on
//! `(workload, seed)`, never on wall-clock time or thread count.
//!
//! ## Design
//!
//! A run is `config → tasks → metrics → report`:
//!
//! 1. [`config`] — a [`HarnessConfig`] names the world seed, the corpus
//!    source (one of the [`ltee::scenario::Scenario`] generators or the
//!    standard corpus generator), the ingest batching, the query mix
//!    ratios, and the zipf skew. Named presets live in [`workloads`].
//! 2. [`traffic`] — the mix ratios are apportioned into an *exact* query
//!    schedule (largest-remainder, virtual-time interleaved, so e.g. a
//!    3:1:0:0 mix over 4 queries is exactly `[E, E, F, E]`), then rendered
//!    into concrete [`ltee::serve::Query`] values: zipfian label skew
//!    ([`zipf`]) over the snapshot's popularity-ranked label universe.
//! 3. [`runner`] — ingest the corpus micro-batch by micro-batch, running
//!    one query phase per published snapshot version; then (optionally) a
//!    reader-churn phase with threads joining and leaving mid-ingest, and
//!    a sustained-ingest soak. Metrics ([`metrics`]) count only
//!    deterministic facts — hit counts, fingerprints, invariant booleans.
//! 4. [`report`] — a tiny canonical JSON writer: fixed key order, fixed
//!    float formatting, fingerprints as hex strings.
//!
//! ## The determinism contract
//!
//! `BENCH_harness.json` is byte-identical across repeated runs *and*
//! across `LTEE_NUM_THREADS=1,4`, because the serve pipeline's responses
//! are bit-identical at every thread count and the report deliberately
//! excludes every nondeterministic observable: wall-clock timings print to
//! stdout only, and the churn phase contributes only invariants (version
//! monotonicity, replay identity against [`snapshot_at`]) rather than the
//! nondeterministic interleavings it observed.
//!
//! [`snapshot_at`]: ltee::serve::SnapshotReader::snapshot_at
//!
//! ```sh
//! cargo run -p ltee-harness -- --workload steady-read --seed 42
//! cargo run -p ltee-harness -- --list
//! ```

#![warn(missing_docs)]

pub mod config;
pub mod metrics;
pub mod report;
pub mod runner;
pub mod traffic;
pub mod workloads;
pub mod zipf;

pub use config::{ConfigError, HarnessConfig, MixRatios};
pub use report::Json;
pub use runner::{run, RunReport};
pub use workloads::{named_workload, workload_names, WORKLOADS};
