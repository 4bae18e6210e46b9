//! Workloads and their sizes.
//!
//! The driver's contract has every workload report every end-to-end
//! metric, so every workload runs the same three phases — ingest a stream
//! of micro-batches durably, query the resulting knowledge base, recover
//! it from disk. What differs is where the time goes: the read workloads'
//! ingest is the short stream that builds the knowledge base they query
//! (what would otherwise be untimed set-up), the write workload's query
//! phase is brief, and one workload queries beside the writer.

use ltee_kb::Scale;
use ltee_webtables::CorpusConfig;

/// World seed shared by every run: the knowledge base and the training
/// corpus never depend on `--seed`, only the served tables and queries do.
pub const WORLD_SEED: u64 = 4242;

/// How big a run is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScaleKind {
    /// The measured size.
    Full,
    /// Seconds-long size for the crate's own smoke test.
    Smoke,
}

impl ScaleKind {
    /// Name used on the command line and in result files.
    pub fn name(self) -> &'static str {
        match self {
            ScaleKind::Full => "full",
            ScaleKind::Smoke => "smoke",
        }
    }

    /// Parse a command-line name.
    pub fn parse(name: &str) -> Option<Self> {
        [ScaleKind::Full, ScaleKind::Smoke]
            .into_iter()
            .find(|s| s.name() == name)
    }
}

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Long durable ingest stream: the write path as the KB grows.
    StreamIngest,
    /// Zipf-skewed mix of cheap reads with a hot, repeating head.
    LookupHot,
    /// Cross-class fuzzy lookups, every query string distinct.
    FuzzyScan,
    /// Ingest stream with a query client running beside the writer.
    IngestUnderRead,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::StreamIngest,
        Workload::LookupHot,
        Workload::FuzzyScan,
        Workload::IngestUnderRead,
    ];

    /// Name used on the command line and in result files.
    pub fn name(self) -> &'static str {
        match self {
            Workload::StreamIngest => "stream-ingest",
            Workload::LookupHot => "lookup-hot",
            Workload::FuzzyScan => "fuzzy-scan",
            Workload::IngestUnderRead => "ingest-under-read",
        }
    }

    /// Parse a command-line name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Which queries a schedule holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// 40 % exact / 30 % class-restricted fuzzy (k=5, one typo) / 20 %
    /// entity fetch / 10 % paging, labels zipf(1.1) over the
    /// popularity-ranked universe.
    Hot,
    /// 100 % cross-class fuzzy (k=10), labels uniform, each query string
    /// distinct (1-2 edits).
    FuzzyScan,
}

/// Cycles of a plain run: each ingests the same stream into a fresh
/// store, replays query rounds on it and recovers it, and every timing is
/// the quietest of its repeats across the cycles (see `run.rs`). Three
/// brought same-seed repeats of `ingest_rows_per_s` on the reference host
/// from 13 % apart (one pass) to 2 %. The traced run makes one.
pub const CYCLES: usize = 3;

/// Sizes of one run.
#[derive(Debug, Clone)]
pub struct Plan {
    /// World size.
    pub world: Scale,
    /// Corpus the models are trained on.
    pub train: CorpusConfig,
    /// Template of the served corpus (`tables_per_class` and `seed` are
    /// filled in per run).
    pub serve: CorpusConfig,
    /// Tables per micro-batch.
    pub batch_tables: usize,
    /// A checkpoint is cut after every this many batches.
    pub checkpoint_every: u64,
    /// Batches ingested during set-up, before the timed stream.
    pub preload_batches: usize,
    /// Batches of the timed stream.
    pub stream_batches: usize,
    /// Whether a query client runs beside the writer (its queries are then
    /// the workload's query figures, and no rounds follow).
    pub concurrent_reader: bool,
    /// The query mix.
    pub mix: Mix,
    /// Queries in the schedule one round replays.
    pub schedule_len: usize,
    /// The query phases (one per cycle) replay rounds for this long together ...
    pub query_secs: f64,
    /// ... and for at least this many rounds.
    pub min_rounds: usize,
    /// Operations per per-layer block of the traced run.
    pub block_ops: usize,
}

impl Plan {
    /// Batches the run ingests (per cycle).
    pub fn batches(&self) -> usize {
        self.preload_batches + self.stream_batches
    }

    /// Tables the run ingests (per cycle).
    pub fn tables(&self) -> usize {
        self.batches() * self.batch_tables
    }

    /// Batches past the last checkpoint at the end of every stream: a
    /// quarter of a checkpoint period, so a cold recovery restores a
    /// checkpoint *and* replays a short WAL tail.
    pub fn tail_batches(&self) -> usize {
        (self.checkpoint_every as usize / 4).max(1)
    }
}

/// The sizes of `workload` at `scale` for a `--seconds` of `seconds`.
///
/// An ingest stream is a fixed amount of work — a whole number of
/// checkpoint periods plus the tail, the number growing with `seconds` —
/// so one seed always ingests the same tables and the output digests
/// repeat exactly. Query rounds replay until their time is up. At the
/// default `--seconds 10` on the 2-core reference host the three cycles
/// take 15-20 s together.
pub fn plan(workload: Workload, scale: ScaleKind, seconds: u32) -> Plan {
    let seconds = seconds.max(1) as usize;
    let full = scale == ScaleKind::Full;
    let mut plan = if full {
        Plan {
            world: Scale::profiling(),
            train: CorpusConfig::gold(),
            serve: CorpusConfig::profiling(),
            batch_tables: 4,
            checkpoint_every: 32,
            preload_batches: 0,
            stream_batches: 0,
            concurrent_reader: false,
            mix: Mix::Hot,
            schedule_len: 100_000,
            query_secs: 0.5 * seconds as f64,
            min_rounds: 12,
            block_ops: 20_000,
        }
    } else {
        Plan {
            world: Scale::tiny(),
            train: CorpusConfig::tiny(),
            serve: CorpusConfig::tiny(),
            batch_tables: 3,
            checkpoint_every: 4,
            preload_batches: 0,
            stream_batches: 0,
            concurrent_reader: false,
            mix: Mix::Hot,
            schedule_len: 2_000,
            query_secs: 0.05 * seconds as f64,
            min_rounds: 4,
            block_ops: 400,
        }
    };
    // Checkpoint periods a read workload's knowledge base is built from;
    // the write workloads ingest twice as many.
    let periods = seconds.div_ceil(10);
    let period = plan.checkpoint_every as usize;
    match workload {
        Workload::StreamIngest => {
            plan.stream_batches = 2 * periods * period + plan.tail_batches();
            // A short query phase: the write path is this workload's subject.
            plan.schedule_len /= 4;
            plan.query_secs *= 0.2;
        }
        Workload::LookupHot => {
            plan.stream_batches = periods * period + plan.tail_batches();
        }
        Workload::FuzzyScan => {
            plan.stream_batches = periods * period + plan.tail_batches();
            plan.mix = Mix::FuzzyScan;
            plan.schedule_len /= 10;
        }
        Workload::IngestUnderRead => {
            plan.concurrent_reader = true;
            plan.preload_batches = periods * period + plan.tail_batches();
            plan.stream_batches = periods * period;
        }
    }
    plan
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
        assert_eq!(ScaleKind::parse("smoke"), Some(ScaleKind::Smoke));
    }

    #[test]
    fn stream_size_follows_seconds_and_medians_are_supported() {
        assert_eq!(
            plan(Workload::StreamIngest, ScaleKind::Full, 10).stream_batches,
            72
        );
        assert_eq!(
            plan(Workload::StreamIngest, ScaleKind::Full, 20).stream_batches,
            136
        );
        assert_eq!(
            plan(Workload::LookupHot, ScaleKind::Full, 10).stream_batches,
            40
        );
        for scale in [ScaleKind::Full, ScaleKind::Smoke] {
            for w in Workload::ALL {
                let p = plan(w, scale, 10);
                assert_eq!(p.concurrent_reader, w == Workload::IngestUnderRead);
                assert_eq!(
                    p.batches() % p.checkpoint_every as usize,
                    p.tail_batches(),
                    "{w:?}: recovery replays a short tail"
                );
                assert!(p.min_rounds >= 4, "{w:?}");
            }
        }
        for w in Workload::ALL {
            let p = plan(w, ScaleKind::Full, 10);
            // A per-batch median needs 20 samples (10 beyond the rank).
            assert!(p.stream_batches >= 20, "{w:?}");
            assert!(
                p.schedule_len >= 2_000,
                "{w:?}: p99 of a round needs 1000 samples"
            );
        }
    }
}
