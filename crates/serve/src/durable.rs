//! Durable serving: a [`ServePipeline`] whose accumulated state survives
//! the process.
//!
//! [`DurableServePipeline`] pairs the serve layer with an
//! [`ltee_store::KbStore`] directory and upholds one protocol:
//!
//! 1. **Check, then WAL, then apply.** Every non-empty micro-batch is
//!    checked first ([`IncrementalPipeline::check`]): a batch the pipeline
//!    would refuse (a duplicate table id, or a table the log's decoder
//!    would refuse) is refused before it reaches the log. Every other batch
//!    is encoded and fsynced to the write-ahead log *before* it is applied
//!    in memory, so the log holds only batches that apply, and never one
//!    that recovery cannot read.
//! 2. **Checkpoints are cuts, not copies of the log.** A checkpoint
//!    captures the full accumulated state after batch *N*; the store then
//!    compacts the WAL down to what the retained fallback checkpoint
//!    cannot reconstruct.
//! 3. **Recovery = newest valid checkpoint + WAL tail replay.** The PR 3
//!    incremental-equivalence contract makes the replay deterministic, so
//!    the recovered process is *bit-identical* — snapshot fingerprints and
//!    all — to the process that never crashed
//!    (`tests/recovery_equivalence.rs` proves this at every crash point).
//!
//! The recovered snapshot sequence resumes at the recovered batch count.
//! Only that version is resident after recovery: the versions published
//! before the crash died with the process that held them, and the
//! versions replay publishes are freed as it supersedes them, like any
//! superseded version no reader holds.

use std::path::Path;

use ltee_core::checkpoint::{decode_corpus, encode_corpus};
use ltee_core::{config_fingerprint, IngestReport, PipelineConfig, TrainedModels};
use ltee_kb::{Footprint, KnowledgeBase};
use ltee_store::{DirStorage, KbStore, Storage, StoreError, StoreRecovery, WalTail};
use ltee_webtables::Corpus;

use crate::{IncrementalPipeline, KbSnapshot, ServePipeline, SnapshotReader};

use std::sync::Arc;

/// When [`DurableServePipeline::ingest`] should cut a checkpoint on its
/// own.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckpointPolicy {
    /// Never automatically — the caller invokes
    /// [`DurableServePipeline::checkpoint`] explicitly.
    Manual,
    /// After every `n`-th applied batch (clamped to at least 1: `0`
    /// checkpoints after every batch).
    EveryBatches(u64),
}

/// What [`DurableServePipeline::open`] recovered from the store directory.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryReport {
    /// Applied-batch count of the checkpoint recovery started from, if one
    /// was usable.
    pub from_checkpoint: Option<u64>,
    /// WAL batches replayed on top of the checkpoint.
    pub replayed_batches: u64,
    /// How the WAL scan ended; [`WalTail::Truncated`] means a torn tail
    /// was dropped (and repaired on disk).
    pub wal_tail: WalTail,
}

impl RecoveryReport {
    /// Total batches the recovered process serves (checkpoint + replay) —
    /// equals the published snapshot version after recovery.
    pub fn recovered_batches(&self) -> u64 {
        self.from_checkpoint.unwrap_or(0) + self.replayed_batches
    }
}

/// A [`ServePipeline`] backed by a durable store directory: crash-safe
/// ingest (WAL-first), periodic checkpoints, and restart recovery that is
/// bit-identical to never having crashed. See the [module docs](self).
#[derive(Debug)]
pub struct DurableServePipeline<'a> {
    serve: ServePipeline<'a>,
    store: KbStore,
    policy: CheckpointPolicy,
}

impl<'a> DurableServePipeline<'a> {
    /// [`DurableServePipeline::open_in`] on the store directory `dir` (a
    /// [`DirStorage`]).
    pub fn open(
        dir: impl AsRef<Path>,
        kb: &'a KnowledgeBase,
        models: TrainedModels,
        config: PipelineConfig,
        policy: CheckpointPolicy,
    ) -> Result<(Self, RecoveryReport), StoreError> {
        Self::open_in(DirStorage::open(dir)?, kb, models, config, policy)
    }

    /// Open (or initialise) the store on `storage` and recover whatever
    /// state survived: newest structurally valid checkpoint, then replay of
    /// the WAL tail. A checkpoint or WAL minted under a different config
    /// fingerprint is a hard typed error; a torn WAL tail is dropped and
    /// repaired. On success the published snapshot version equals the
    /// number of batches recovered.
    pub fn open_in(
        storage: impl Storage + 'static,
        kb: &'a KnowledgeBase,
        models: TrainedModels,
        config: PipelineConfig,
        policy: CheckpointPolicy,
    ) -> Result<(Self, RecoveryReport), StoreError> {
        let policy = match policy {
            CheckpointPolicy::EveryBatches(n) => CheckpointPolicy::EveryBatches(n.max(1)),
            manual => manual,
        };
        let fingerprint = config_fingerprint(&config);
        let StoreRecovery { store, checkpoint, tail, wal_tail } = KbStore::open_in(storage, fingerprint)?;

        // The decoded state is held once: the checkpoint moves into the
        // pipeline, and each WAL payload is freed as soon as it is applied.
        let from_checkpoint = checkpoint.as_ref().map(|ckpt| ckpt.applied_batches);
        let pipeline = match checkpoint {
            Some(ckpt) => ckpt.restore(kb, models, config).map_err(StoreError::Checkpoint)?,
            None => IncrementalPipeline::new(kb, models, config),
        };
        let mut serve = ServePipeline::from_pipeline(kb, pipeline, from_checkpoint.unwrap_or(0));

        let mut replayed = 0u64;
        for record in tail {
            let seq = record.seq;
            let batch = decode_corpus(&record.payload)
                .map_err(|error| StoreError::WalRecord { seq, error })?;
            drop(record);
            serve.ingest(&batch)?;
            replayed += 1;
        }
        debug_assert_eq!(serve.version(), store.next_seq() - 1);

        let report = RecoveryReport { from_checkpoint, replayed_batches: replayed, wal_tail };
        Ok((Self { serve, store, policy }, report))
    }

    /// Ingest one micro-batch durably: check it, fsync it to the WAL,
    /// apply it, then cut a checkpoint if the policy says so. Empty batches
    /// are no-ops and touch neither the log nor the version; refused
    /// batches never reach the log. Every error but
    /// [`StoreError::CheckpointFailed`] leaves the version unchanged; that
    /// one reports a batch applied and logged whose checkpoint failed.
    pub fn ingest(&mut self, batch: &Corpus) -> Result<IngestReport, StoreError> {
        if batch.is_empty() {
            return Ok(self.serve.ingest(batch)?);
        }
        self.serve.pipeline.check(batch)?;
        self.store.append_batch(&encode_corpus(batch))?;
        let report = self.serve.ingest(batch)?;
        let applied = self.serve.version();
        if let CheckpointPolicy::EveryBatches(n) = self.policy {
            if applied.is_multiple_of(n) {
                let failed = |error| StoreError::CheckpointFailed { applied, error: Box::new(error) };
                self.checkpoint().map_err(failed)?;
            }
        }
        Ok(report)
    }

    /// Cut a checkpoint of the current state now (retention and WAL
    /// compaction included — see [`KbStore::write_checkpoint`]). The state
    /// is encoded where it lives: nothing is copied but the bytes written.
    pub fn checkpoint(&mut self) -> Result<(), StoreError> {
        let checkpoint = self.serve.pipeline.checkpoint(self.serve.version());
        self.store.write_checkpoint(&checkpoint)
    }

    /// See [`ServePipeline::reclaim`].
    pub fn reclaim(&mut self) {
        self.serve.reclaim();
    }

    /// A reader handle (see [`ServePipeline::reader`]).
    pub fn reader(&self) -> SnapshotReader {
        self.serve.reader()
    }

    /// The current snapshot (see [`ServePipeline::snapshot`]).
    pub fn snapshot(&self) -> Arc<KbSnapshot> {
        self.serve.snapshot()
    }

    /// The latest published version — equals the number of non-empty
    /// batches this KB has absorbed across all processes that wrote to the
    /// store.
    pub fn version(&self) -> u64 {
        self.serve.version()
    }

    /// [`ServePipeline::footprint`] plus the store's buffers, as `store`.
    pub fn footprint(&self) -> Footprint {
        let mut footprint = self.serve.footprint();
        footprint.add("store", None, self.store.heap_bytes(), 0);
        footprint
    }

    /// The wrapped serve pipeline.
    pub fn serve(&self) -> &ServePipeline<'a> {
        &self.serve
    }

    /// The backing store (for diagnostics: the next batch number).
    pub fn store(&self) -> &KbStore {
        &self.store
    }
}
