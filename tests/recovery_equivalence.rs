//! Crash-injected recovery equivalence: a serve process that crashes at
//! *any* storage operation and recovers must end up bit-identical —
//! snapshot fingerprints and query results — to the process that never
//! crashed.
//!
//! `crash_sweep_every_storage_operation` drives one seeded stream through
//! `DurableServePipeline` on the in-memory `FaultStorage`
//! (`tests/support/fault_storage.rs`): 13 batches checkpointed every 4
//! (three checkpoints, and the WAL compactions after them), a duplicate-id
//! batch and a ragged-table batch the pipeline refuses, and a close and
//! reopen mid-stream, so `open`'s own operations are crash points too. The
//! fault-free run records every storage operation; then, for every
//! operation index, the sweep rebuilds what a crash there leaves — the
//! operation done, the last removal the directory has not synced undone,
//! an append torn inside its record header and inside its payload —
//! reopens on it and checks:
//!
//! 1. **No lost or phantom batch** — reopen succeeds, and recovers the
//!    acknowledged batches plus the in-flight one exactly when its append
//!    landed whole; the recovered snapshot's fingerprint equals the
//!    fault-free run's at that version.
//! 2. **Convergence** — after re-ingesting the rest of the stream, the
//!    final snapshot fingerprint and a full deterministic query mix (exact,
//!    fuzzy, fetch, paging, stats — per class) equal the fault-free run's,
//!    and the store left behind reopens to the end from its newest
//!    checkpoint and, that one gone, from the fallback one.
//!
//! Reopening is a function of the files, so files a crash leaves at more
//! than one operation are reopened once. `fault_sweep_every_write_fails_once`
//! runs the same stream once per I/O fault — ENOSPC, a short write, a
//! failed sync, a failed rename — with every distinct write failing once:
//! every error but `StoreError::CheckpointFailed` leaves the version
//! unchanged, the retry goes through, and the run ends where the fault-free
//! one does. `crash_sweep_every_fault_injected_retry` crashes each of those
//! runs after every operation it recorded, as the crash sweep does, and
//! before the retry of each failed append, on the bytes the failure left:
//! every distinct store reopens to the acknowledged batches (plus the
//! in-flight one exactly when its record landed whole) with the fault-free
//! run's fingerprint at that version.
//!
//! Thread and shard matrix: the sweeps run under `Parallelism::Auto` and
//! `ShardPlan::Auto`, so the CI `LTEE_NUM_THREADS=1,4` ×
//! `LTEE_NUM_SHARDS=1,4` matrix runs them at threads∈{1,4} ×
//! shards∈{1,4}; `checkpoint_is_portable_across_thread_counts`
//! and `checkpoint_is_portable_across_shard_counts` additionally prove a
//! checkpoint written under one `Threads(n)`/`ShardPlan::Shards(n)` setting
//! recovers bit-identically under another (the config fingerprint excludes
//! parallelism and shards by design — checkpoints persist logical per-class
//! state, never shard layout).
//!
//! Deterministic: `Scale::tiny()` world with fixed seed 4711, exotic
//! labels appended; where the stream refuses and reopens and where the
//! sweep tears an append come from a keyed ChaCha RNG.

use std::collections::{HashMap, HashSet};
use std::fs;
use std::path::PathBuf;

use ltee::scenario as common;
use ltee_core::prelude::*;
use ltee_serve::{CheckpointPolicy, DurableServePipeline, EntityRef, Query, QueryOutput, RecoveryReport};
use ltee_store::wal::{encode_wal_header, encode_wal_record, WAL_RECORD_HEADER_LEN};
use ltee_store::{KbStore, StoreError};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

#[path = "support/fault_storage.rs"]
mod fault_storage;
use fault_storage::{crash_images, Fault, FaultStorage, Files, OpKind};

fn config_sharded(parallelism: Parallelism, shards: ShardPlan) -> PipelineConfig {
    PipelineConfig { parallelism, shards, ..PipelineConfig::fast() }
}

/// One trained world + the serve-time stream (training corpus plus exotic
/// labels, as in `incremental_equivalence.rs`).
struct Setup {
    tw: common::TrainedWorld,
    stream: GeneratedCorpus,
}

fn setup(parallelism: Parallelism) -> Setup {
    setup_sharded(parallelism, ShardPlan::Auto)
}

fn setup_sharded(parallelism: Parallelism, shards: ShardPlan) -> Setup {
    let tw = common::TrainedWorld::train_with(4711, config_sharded(parallelism, shards));
    let stream = common::with_exotic_labels(
        tw.corpus.clone(),
        ["(Live)", "[Zürich]", "\u{130}zmir"],
    );
    Setup { tw, stream }
}

/// Make a table ragged: its last column one cell short.
fn drop_last_cell(table: &mut ltee_webtables::WebTable) {
    let column = table.columns.last_mut().unwrap();
    column.cells = column.cells.iter().take(column.cells.len() - 1).collect();
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join(format!("ltee-recovery-test-{}-{tag}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// A deterministic query mix touching every query kind and every class:
/// exact lookups of real stream labels, fuzzy lookups with a typo (across
/// classes and restricted to one), record fetches inside and past a
/// class's range, paging and stats.
fn query_mix(stream: &GeneratedCorpus) -> Vec<Query> {
    let mut queries = vec![Query::Stats];
    let labels: Vec<String> = stream
        .annotated_tables()
        .step_by(7)
        .take(8)
        .filter_map(|(t, truth)| t.columns[truth.label_column].cells.get(0))
        .filter(|l| !l.is_empty())
        .map(str::to_string)
        .collect();
    assert!(labels.len() >= 4, "query mix needs real labels from the stream");
    for (i, label) in labels.iter().enumerate() {
        queries.push(Query::Exact { class: None, label: label.clone() });
        let mut typo = label.clone();
        typo.pop();
        queries.push(Query::Fuzzy { class: None, label: typo, k: 1 + i % 4 });
    }
    for &class in CLASS_KEYS.iter() {
        queries.push(Query::List { class, offset: 0, limit: 5 });
        queries.push(Query::List { class, offset: 3, limit: 2 });
        queries.push(Query::Entity { entity: EntityRef { class, id: 0 } });
        queries.push(Query::Entity { entity: EntityRef { class, id: u32::MAX } });
        let (own, truth) = stream
            .annotated_tables()
            .find(|(_, truth)| truth.class == class)
            .expect("a table per class");
        let mut typo = own.cell(0, truth.label_column).expect("a labelled row").to_string();
        typo.pop();
        queries.push(Query::Fuzzy { class: Some(class), label: typo, k: 3 });
    }
    queries
}

/// Run the uncrashed reference: ingest `batches` through a durable
/// pipeline under `policy`, returning the snapshot fingerprint published
/// after every version 0..=K plus the final query-mix outputs.
fn reference_run(
    setup: &Setup,
    batches: &[Corpus],
    dir: &PathBuf,
    policy: CheckpointPolicy,
) -> (Vec<u64>, Vec<QueryOutput>) {
    let (mut durable, report) = DurableServePipeline::open(
        dir,
        setup.tw.world.kb(),
        setup.tw.models.clone(),
        setup.tw.config.clone(),
        policy,
    )
    .expect("fresh store opens");
    assert_eq!(report.recovered_batches(), 0);
    let mut fingerprints = vec![durable.snapshot().fingerprint()];
    for batch in batches {
        durable.ingest(batch).expect("fresh table ids");
        fingerprints.push(durable.snapshot().fingerprint());
    }
    let outputs = durable.snapshot().execute_batch(&query_mix(&setup.stream));
    (fingerprints, outputs)
}

/// A checkpoint damaged after it was renamed into place: run with periodic
/// checkpoints, then cut the newest *checkpoint file* to several byte
/// prefixes (empty, mid-header, header only, half, all but one byte). A
/// crash cannot tear a checkpoint that has been renamed into place, so this
/// is corruption, not a crash (the crash points are `crash_sweep`'s).
/// Recovery must fall back to the older retained checkpoint, replay the
/// tail compaction kept for it, and serve bit-identically.
#[test]
fn torn_checkpoints_fall_back_and_converge() {
    let setup = setup(Parallelism::Auto);
    let batches = setup.stream.split_into_batches(4);
    let dir = scratch_dir("ckpt-ref");
    let (fingerprints, outputs) =
        reference_run(&setup, &batches, &dir, CheckpointPolicy::EveryBatches(2));

    // The reference checkpointed at versions 2 and 4; its WAL is compacted.
    let wal_bytes = fs::read(KbStore::wal_path(&dir)).unwrap();
    let newest = KbStore::checkpoint_path(&dir, 4);
    let ckpt_bytes = fs::read(&newest).unwrap();
    for cut in [0, 7, 44, ckpt_bytes.len() / 2, ckpt_bytes.len() - 1] {
        let label = format!("ckpt-cut{cut}");
        let crash_dir = scratch_dir(&format!("crash-{label}"));
        fs::create_dir_all(&crash_dir).unwrap();
        // Older checkpoint intact, newest torn at `cut`, WAL as compacted.
        fs::copy(KbStore::checkpoint_path(&dir, 2), KbStore::checkpoint_path(&crash_dir, 2))
            .unwrap();
        fs::write(KbStore::checkpoint_path(&crash_dir, 4), &ckpt_bytes[..cut]).unwrap();
        // The compacted WAL retains batches 3.. for exactly this fallback;
        // a crash-during-checkpoint-write leaves it intact.
        fs::write(KbStore::wal_path(&crash_dir), &wal_bytes).unwrap();

        let (recovered, report) = DurableServePipeline::open(
            &crash_dir,
            setup.tw.world.kb(),
            setup.tw.models.clone(),
            setup.tw.config.clone(),
            CheckpointPolicy::Manual,
        )
        .unwrap_or_else(|e| panic!("{label}: recovery failed: {e}"));
        assert_eq!(report.from_checkpoint, Some(2), "{label}: fell back to checkpoint 2");
        assert_eq!(recovered.version(), 4, "{label}: replayed the retained tail");
        assert_eq!(recovered.snapshot().fingerprint(), fingerprints[4], "{label}");
        let got = recovered.snapshot().execute_batch(&query_mix(&setup.stream));
        assert_eq!(got, outputs, "{label}: query-mix outputs");
        fs::remove_dir_all(&crash_dir).unwrap();
    }
    fs::remove_dir_all(&dir).unwrap();
}

/// `EveryBatches(0)` is clamped to one, as a zero shard, thread or
/// retention count is: the store checkpoints after every batch and
/// recovers bit-identically from the newest.
#[test]
fn every_zero_batches_checkpoints_after_every_batch() {
    let setup = setup(Parallelism::Auto);
    let batches = setup.stream.split_into_batches(3);
    let dir = scratch_dir("every-zero");
    let (fingerprints, outputs) =
        reference_run(&setup, &batches, &dir, CheckpointPolicy::EveryBatches(0));
    // Retention keeps the newest two: the checkpoints of batches 2 and 3.
    for version in [2, 3] {
        assert!(KbStore::checkpoint_path(&dir, version).exists(), "checkpoint {version}");
    }
    let (recovered, report) = DurableServePipeline::open(
        &dir,
        setup.tw.world.kb(),
        setup.tw.models.clone(),
        setup.tw.config.clone(),
        CheckpointPolicy::Manual,
    )
    .expect("reopen");
    assert_eq!((report.from_checkpoint, report.replayed_batches), (Some(3), 0));
    assert_eq!(recovered.snapshot().fingerprint(), fingerprints[3]);
    assert_eq!(recovered.snapshot().execute_batch(&query_mix(&setup.stream)), outputs);
    fs::remove_dir_all(&dir).unwrap();
}

/// A checkpoint written under `Threads(1)` must recover bit-identically
/// under `Threads(4)` (and the recovered process keeps ingesting): the
/// durable state is parallelism-independent, like every other output.
#[test]
fn checkpoint_is_portable_across_thread_counts() {
    let writer = setup(Parallelism::Threads(1));
    let k = 4usize;
    let batches = writer.stream.split_into_batches(k);
    let dir = scratch_dir("portable");
    let (fingerprints, outputs) =
        reference_run(&writer, &batches, &dir, CheckpointPolicy::EveryBatches(2));

    let reader = setup(Parallelism::Threads(4));
    let (mut recovered, report) = DurableServePipeline::open(
        &dir,
        reader.tw.world.kb(),
        reader.tw.models.clone(),
        reader.tw.config.clone(),
        CheckpointPolicy::Manual,
    )
    .expect("thread count is not part of the config fingerprint");
    assert_eq!(report.from_checkpoint, Some(4));
    assert_eq!(recovered.snapshot().fingerprint(), fingerprints[4]);
    assert_eq!(recovered.snapshot().execute_batch(&query_mix(&reader.stream)), outputs);

    // Keep serving under the other thread count: still deterministic.
    let extra = reader.stream.split_into_batches(k);
    assert!(matches!(
        recovered.ingest(&extra[0]),
        Err(StoreError::Pipeline(_)),
    ), "re-ingesting already-stored tables must be refused before the log");
    assert_eq!(recovered.version(), 4, "rejected batch published nothing");
    fs::remove_dir_all(&dir).unwrap();
}

/// A checkpoint written under `Shards(1)` must restore bit-identically
/// under `Shards(4)` — and the other way round: the checkpoint persists
/// logical per-class state, never the shard layout, so any process can
/// restore under any `ShardPlan`. The matrix also crosses thread counts
/// to make sure the two axes compose.
#[test]
fn checkpoint_is_portable_across_shard_counts() {
    let writer = setup_sharded(Parallelism::Threads(1), ShardPlan::Shards(1));
    let k = 4usize;
    let batches = writer.stream.split_into_batches(k);
    let dir = scratch_dir("portable-shards");
    let (fingerprints, outputs) =
        reference_run(&writer, &batches, &dir, CheckpointPolicy::EveryBatches(2));

    for (shards, threads) in [(4usize, 4usize), (2, 1)] {
        let reader = setup_sharded(Parallelism::Threads(threads), ShardPlan::Shards(shards));
        let (recovered, report) = DurableServePipeline::open(
            &dir,
            reader.tw.world.kb(),
            reader.tw.models.clone(),
            reader.tw.config.clone(),
            CheckpointPolicy::Manual,
        )
        .expect("shard count is not part of the config fingerprint");
        assert_eq!(report.from_checkpoint, Some(4), "shards={shards}");
        assert_eq!(
            recovered.snapshot().fingerprint(),
            fingerprints[4],
            "shards={shards}, threads={threads}: restored fingerprint"
        );
        assert_eq!(
            recovered.snapshot().execute_batch(&query_mix(&reader.stream)),
            outputs,
            "shards={shards}, threads={threads}: query-mix outputs"
        );
    }

    // And the reverse direction: write sharded, restore unsharded.
    let sharded_writer = setup_sharded(Parallelism::Threads(4), ShardPlan::Shards(4));
    let sharded_dir = scratch_dir("portable-shards-rev");
    let (rev_fingerprints, rev_outputs) =
        reference_run(&sharded_writer, &batches, &sharded_dir, CheckpointPolicy::EveryBatches(2));
    assert_eq!(rev_fingerprints, fingerprints, "sharded writer reproduces the reference");
    let reader = setup_sharded(Parallelism::Threads(1), ShardPlan::Shards(1));
    let (recovered, report) = DurableServePipeline::open(
        &sharded_dir,
        reader.tw.world.kb(),
        reader.tw.models.clone(),
        reader.tw.config.clone(),
        CheckpointPolicy::Manual,
    )
    .expect("restore under one shard");
    assert_eq!(report.from_checkpoint, Some(4));
    assert_eq!(recovered.snapshot().fingerprint(), fingerprints[4]);
    assert_eq!(recovered.snapshot().execute_batch(&query_mix(&reader.stream)), rev_outputs);

    fs::remove_dir_all(&dir).unwrap();
    fs::remove_dir_all(&sharded_dir).unwrap();
}

/// Config-fingerprint guard: a store written under one `PipelineConfig`
/// must be rejected — with the typed mismatch errors — when opened under a
/// different config, for both the checkpoint and the WAL-only paths.
#[test]
fn recovery_rejects_stores_written_under_a_different_config() {
    let setup = setup(Parallelism::Auto);
    let batches = setup.stream.split_into_batches(2);

    let mut other_config = setup.tw.config.clone();
    other_config.iterations += 1;

    // WAL-only store (no checkpoint yet).
    let dir = scratch_dir("config-wal");
    let (mut durable, _) = DurableServePipeline::open(
        &dir,
        setup.tw.world.kb(),
        setup.tw.models.clone(),
        setup.tw.config.clone(),
        CheckpointPolicy::Manual,
    )
    .unwrap();
    durable.ingest(&batches[0]).unwrap();
    drop(durable);
    match DurableServePipeline::open(
        &dir,
        setup.tw.world.kb(),
        setup.tw.models.clone(),
        other_config.clone(),
        CheckpointPolicy::Manual,
    ) {
        Err(StoreError::Wal(CodecError::ConfigMismatch { .. })) => {}
        other => panic!("expected Wal(ConfigMismatch), got {:?}", other.map(|_| ())),
    }

    // Checkpointed store: the checkpoint's own fingerprint is checked too.
    let (mut durable, _) = DurableServePipeline::open(
        &dir,
        setup.tw.world.kb(),
        setup.tw.models.clone(),
        setup.tw.config.clone(),
        CheckpointPolicy::Manual,
    )
    .unwrap();
    durable.checkpoint().unwrap();
    drop(durable);
    // Remove the WAL so the checkpoint is the first thing recovery meets.
    fs::remove_file(KbStore::wal_path(&dir)).unwrap();
    match DurableServePipeline::open(
        &dir,
        setup.tw.world.kb(),
        setup.tw.models.clone(),
        other_config,
        CheckpointPolicy::Manual,
    ) {
        Err(StoreError::Checkpoint(CodecError::ConfigMismatch { .. })) => {}
        other => panic!("expected Checkpoint(ConfigMismatch), got {:?}", other.map(|_| ())),
    }
    fs::remove_dir_all(&dir).unwrap();
}

/// A batch holding a table the log's decoder would refuse is refused by
/// ingest before it reaches the log: an acknowledged batch always reads
/// back, so the store cannot be bricked by one.
#[test]
fn a_ragged_table_is_refused_and_the_store_still_reopens() {
    let setup = setup(Parallelism::Auto);
    let open = |dir: &PathBuf| {
        DurableServePipeline::open(
            dir,
            setup.tw.world.kb(),
            setup.tw.models.clone(),
            setup.tw.config.clone(),
            CheckpointPolicy::Manual,
        )
    };
    let table = setup.tw.corpus.tables()[0].clone();
    let mut ragged = table.clone();
    drop_last_cell(&mut ragged);

    let dir = scratch_dir("ragged");
    let (mut durable, _) = open(&dir).unwrap();
    let wal_len = || fs::metadata(KbStore::wal_path(&dir)).unwrap().len();
    let before = wal_len();
    match durable.ingest(&Corpus::from_tables(vec![ragged])) {
        Err(StoreError::Pipeline(PipelineError::MalformedTable { table: id, reason })) => {
            assert_eq!(id, table.id);
            assert!(reason.contains("cells"), "{reason}");
        }
        other => panic!("expected MalformedTable, got {:?}", other.map(|_| ())),
    }
    assert_eq!(durable.version(), 0, "the refused batch published nothing");
    assert_eq!(wal_len(), before, "and left the log as it was");
    durable.ingest(&Corpus::from_tables(vec![table])).unwrap();
    drop(durable);
    let (reopened, report) = open(&dir).expect("the store reopens");
    assert_eq!((reopened.version(), report.replayed_batches), (1, 1));
    fs::remove_dir_all(&dir).unwrap();
}

/// A WAL record that passes its checksum but whose batch does not decode
/// is reported as that record, by batch number — not as a checkpoint.
#[test]
fn an_undecodable_wal_record_is_named_by_its_batch_number() {
    let setup = setup(Parallelism::Auto);
    let mut ragged = setup.tw.corpus.tables()[0].clone();
    drop_last_cell(&mut ragged);
    let fingerprint = ltee_core::config_fingerprint(&setup.tw.config);
    let batch = ltee_core::encode_corpus(&setup.tw.corpus.split_into_batches(2)[0]);
    for (payload, tag) in
        [(ltee_core::encode_corpus(&Corpus::from_tables(vec![ragged])), "ragged"), (vec![0xFF], "garbage")]
    {
        let dir = scratch_dir(&format!("undecodable-{tag}"));
        fs::create_dir_all(&dir).unwrap();
        let mut wal = encode_wal_header(fingerprint);
        wal.extend_from_slice(&encode_wal_record(1, &batch).unwrap());
        wal.extend_from_slice(&encode_wal_record(2, &payload).unwrap());
        fs::write(KbStore::wal_path(&dir), &wal).unwrap();
        let err = DurableServePipeline::open(
            &dir,
            setup.tw.world.kb(),
            setup.tw.models.clone(),
            setup.tw.config.clone(),
            CheckpointPolicy::Manual,
        )
        .map(|_| ())
        .unwrap_err();
        assert!(matches!(err, StoreError::WalRecord { seq: 2, .. }), "{tag}: {err:?}");
        let message = err.to_string();
        assert!(
            message.starts_with("write-ahead log record 2") && !message.contains("checkpoint"),
            "{tag}: {message}"
        );
        fs::remove_dir_all(&dir).unwrap();
    }
}

/// The seed of the sweep's keyed RNG.
const SWEEP_SEED: u64 = 0xC4A54;

/// Batches the sweep's stream takes.
const SWEEP_BATCHES: usize = 13;

/// The sweep's checkpoint interval: three checkpoints in the stream.
const SWEEP_CHECKPOINT_EVERY: u64 = 4;

/// A ChaCha stream for one `topic` of the sweep: a topic draws the same
/// values whatever the other topics draw.
fn keyed_rng(topic: &str) -> ChaCha8Rng {
    let mut seed = [0u8; 32];
    seed[..8].copy_from_slice(&SWEEP_SEED.to_le_bytes());
    seed[8..16].copy_from_slice(&ltee_intern::fnv1a64(topic.as_bytes()).to_le_bytes());
    ChaCha8Rng::from_seed(seed)
}

/// One step of the sweep's stream.
enum Step {
    /// A batch the pipeline takes.
    Ingest(Corpus),
    /// A batch the pipeline refuses before anything reaches storage.
    Refuse(Corpus),
    /// Close the store and open it again.
    Reopen,
}

/// The sweep's stream: [`SWEEP_BATCHES`] batches of the setup's stream,
/// with a duplicate-id batch, a ragged-table batch and a reopen placed
/// among them by the keyed RNG. Returns the steps and the batches taken.
fn sweep_stream(setup: &Setup) -> (Vec<Step>, Vec<Corpus>) {
    let batches = setup.stream.split_into_batches(SWEEP_BATCHES);
    assert_eq!(batches.len(), SWEEP_BATCHES);
    let mut rng = keyed_rng("stream shape");
    let duplicate_at = rng.gen_range(1..4);
    let reopen_at = rng.gen_range(5..8);
    let ragged_at = rng.gen_range(9..SWEEP_BATCHES);
    let mut steps = Vec::new();
    for (i, batch) in batches.iter().enumerate() {
        let mut tables = batch.tables().to_vec();
        if i == duplicate_at {
            // The next batch plus a table already taken: refused whole.
            tables.push(batches[0].tables()[0].clone());
            steps.push(Step::Refuse(Corpus::from_tables(tables)));
        } else if i == ragged_at {
            // The next batch with one table a cell short.
            drop_last_cell(&mut tables[0]);
            steps.push(Step::Refuse(Corpus::from_tables(tables)));
        } else if i == reopen_at {
            steps.push(Step::Reopen);
        }
        steps.push(Step::Ingest(batch.clone()));
    }
    (steps, batches)
}

/// What one run of the sweep's stream published.
struct Run {
    /// Snapshot fingerprint at every version `0..=SWEEP_BATCHES`.
    fingerprints: Vec<u64>,
    /// The query mix's outputs at the end.
    outputs: Vec<QueryOutput>,
    /// Per storage operation of a fault-free run, the version a crash
    /// right after it recovers: the acknowledged batches, and the in-flight
    /// one from its append (an ingest's first operation) on.
    expected: Vec<u64>,
}

/// Open the sweep's store on `storage`, under its checkpoint policy.
fn open_sweep<'a>(
    setup: &'a Setup,
    storage: &FaultStorage,
) -> Result<(DurableServePipeline<'a>, RecoveryReport), StoreError> {
    let policy = CheckpointPolicy::EveryBatches(SWEEP_CHECKPOINT_EVERY);
    let (kb, models, config) = (setup.tw.world.kb(), setup.tw.models.clone(), setup.tw.config.clone());
    DurableServePipeline::open_in(storage.clone(), kb, models, config, policy)
}

/// `attempt` until it succeeds: each distinct write fails at most once, so
/// a few attempts always do.
fn retried<T>(what: &str, mut attempt: impl FnMut() -> Result<T, StoreError>) -> T {
    let mut errors = Vec::new();
    while errors.len() < 8 {
        match attempt() {
            Ok(done) => return done,
            Err(error) => errors.push(error.to_string()),
        }
    }
    panic!("{what} kept failing: {errors:?}")
}

/// Run the sweep's stream on `storage`, retrying whatever an injected
/// fault failed, and check what every step promises: a refused batch
/// reaches no storage operation and leaves the version alone, so does any
/// failed ingest but one whose checkpoint failed after the batch applied,
/// and a reopen recovers what was acknowledged.
fn drive(setup: &Setup, steps: &[Step], storage: &FaultStorage) -> Run {
    let mut durable = retried("open", || open_sweep(setup, storage)).0;
    let mut expected = vec![0; storage.op_count()];
    let mut fingerprints = vec![durable.snapshot().fingerprint()];
    for step in steps {
        let acked = durable.version();
        match step {
            Step::Ingest(batch) => {
                retried("ingest", || match durable.ingest(batch) {
                    Err(StoreError::CheckpointFailed { applied, error }) => {
                        assert_eq!((applied, durable.version()), (acked + 1, acked + 1), "{error}");
                        retried("checkpoint", || durable.checkpoint());
                        Ok(())
                    }
                    outcome => {
                        let moved = if outcome.is_ok() { acked + 1 } else { acked };
                        assert_eq!(durable.version(), moved, "{:?}", outcome.as_ref().err());
                        outcome.map(|_| ())
                    }
                });
                expected.resize(storage.op_count(), acked + 1);
                fingerprints.push(durable.snapshot().fingerprint());
            }
            Step::Refuse(batch) => {
                let ops = storage.op_count();
                match durable.ingest(batch) {
                    Err(StoreError::Pipeline(
                        PipelineError::DuplicateTable(_) | PipelineError::MalformedTable { .. },
                    )) => {}
                    other => panic!("expected a refusal, got {:?}", other.map(|_| ())),
                }
                assert_eq!((durable.version(), storage.op_count()), (acked, ops), "refused batch");
            }
            Step::Reopen => {
                drop(durable);
                durable = retried("reopen", || open_sweep(setup, storage)).0;
                assert_eq!(durable.snapshot().fingerprint(), fingerprints[acked as usize]);
                expected.resize(storage.op_count(), acked);
            }
        }
    }
    let outputs = durable.snapshot().execute_batch(&query_mix(&setup.stream));
    Run { fingerprints, outputs, expected }
}

/// Reopen the store in `storage` and check that it recovers a version of
/// the fault-free run: the snapshot is that run's at the version reported.
fn reopen_checked<'a>(
    setup: &'a Setup,
    reference: &Run,
    storage: &FaultStorage,
    label: &str,
) -> Result<DurableServePipeline<'a>, StoreError> {
    let (durable, report) = open_sweep(setup, storage)?;
    let version = durable.version();
    assert_eq!(report.recovered_batches(), version, "{label}: report consistency");
    assert_eq!(
        durable.snapshot().fingerprint(),
        reference.fingerprints[version as usize],
        "{label}: recovered snapshot differs from the fault-free run's version {version}"
    );
    Ok(durable)
}

/// Reopen a store left in `files`, check that it recovers a version of the
/// fault-free run, re-ingest the rest of the stream and check that it
/// converges; returns the recovered version and the files left at the end.
fn recover_and_converge(
    setup: &Setup,
    batches: &[Corpus],
    reference: &Run,
    files: Files,
    label: &str,
) -> (u64, Files) {
    let storage = FaultStorage::with_files(files);
    let mut durable = reopen_checked(setup, reference, &storage, label)
        .unwrap_or_else(|e| panic!("{label}: reopen failed: {e}"));
    let version = durable.version();
    for batch in &batches[version as usize..] {
        durable.ingest(batch).unwrap_or_else(|e| panic!("{label}: re-ingest failed: {e}"));
    }
    assert_eq!(durable.snapshot().fingerprint(), reference.fingerprints[batches.len()], "{label}");
    let outputs = durable.snapshot().execute_batch(&query_mix(&setup.stream));
    assert_eq!(outputs, reference.outputs, "{label}: query-mix outputs");
    (version, storage.files())
}

/// Check that a store the whole stream went into reopens to its end from
/// its newest checkpoint and, with that one gone, from the fallback one:
/// retention kept every record that replay needs.
fn reopens_to_the_end(setup: &Setup, reference: &Run, files: &Files, label: &str) {
    let mut fallback = files.clone();
    let newest = files.keys().filter(|name| name.starts_with("ckpt-")).max();
    fallback.remove(newest.expect("the stream checkpoints"));
    for (files, from) in [(files.clone(), "newest"), (fallback, "fallback")] {
        let (reopened, _) = open_sweep(setup, &FaultStorage::with_files(files))
            .unwrap_or_else(|e| panic!("{label}: reopen from the {from} checkpoint failed: {e}"));
        let end = reference.fingerprints.last();
        assert_eq!(Some(&reopened.snapshot().fingerprint()), end, "{label}: from the {from} checkpoint");
    }
}

/// One place a recorded run can crash: what the storage holds then, and
/// the version reopening it must recover.
struct Crash {
    /// `crash at op i (kind name, variant)`.
    label: String,
    /// How the files were derived from the operation: a [`crash_images`]
    /// label, or `residue` for what a failed append left before its retry.
    variant: String,
    files: Files,
    expected: u64,
}

/// Every crash of a run that recorded `ops`, `expected` being the versions
/// [`drive`] reported for them: the [`crash_images`] of each operation,
/// with each append torn once inside its record header and once inside
/// its payload at places `tears` draws — a torn append loses its batch,
/// nothing else loses any — and, where a failed append left bytes behind,
/// what a crash before its retry leaves: the batch is recovered exactly
/// when they are the whole record.
fn crashes(ops: &[fault_storage::Op], expected: &[u64], tears: &mut ChaCha8Rng) -> Vec<Crash> {
    let mut crashes = Vec::new();
    for (i, op) in ops.iter().enumerate() {
        let label = |variant: &str| format!("crash at op {i} ({:?} {}, {variant})", op.kind, op.name);
        if i > 0 && ops[i - 1].after != op.before {
            let residue = label("residue");
            assert_eq!(op.kind, OpKind::Append, "{residue}: only a failed append leaves bytes");
            let whole = op.before["wal.log"] == op.after["wal.log"];
            crashes.push(Crash {
                label: residue,
                variant: "residue".into(),
                files: op.before.clone(),
                expected: expected[i] - u64::from(!whole),
            });
        }
        let cuts = match op.kind {
            OpKind::Append => vec![
                tears.gen_range(1..WAL_RECORD_HEADER_LEN),
                tears.gen_range(WAL_RECORD_HEADER_LEN..op.bytes.len()),
            ],
            _ => Vec::new(),
        };
        for (variant, files) in crash_images(op, &cuts) {
            let expected = expected[i] - u64::from(variant.starts_with("torn"));
            crashes.push(Crash { label: label(&variant), variant, files, expected });
        }
    }
    crashes
}

/// Crash at every storage operation of the sweep's stream: see the
/// [module docs](self).
#[test]
fn crash_sweep_every_storage_operation() {
    let setup = setup(Parallelism::Auto);
    let (steps, batches) = sweep_stream(&setup);
    let storage = FaultStorage::default();
    let reference = drive(&setup, &steps, &storage);
    let ops = storage.ops();
    assert_eq!(reference.expected.len(), ops.len());

    // The stream's shape: three checkpoints, a WAL compaction, two opens.
    let replaced = |prefix: &'static str| {
        ops.iter().filter(move |op| op.kind == OpKind::Replace && op.name.starts_with(prefix))
    };
    assert_eq!(replaced("ckpt-").count(), 3);
    let shrinks = |op: &&fault_storage::Op| {
        op.before.get("wal.log").is_some_and(|old| op.after["wal.log"].len() < old.len())
    };
    assert!(replaced("wal.log").filter(shrinks).count() >= 1, "no WAL compaction");
    assert_eq!(ops.iter().filter(|op| op.kind == OpKind::Append).count(), batches.len());

    reopens_to_the_end(&setup, &reference, &storage.files(), "fault-free run");
    // Files a crash leaves → the version they reopen to; files a converged
    // process leaves, checked to reopen to the end.
    let mut reopened: HashMap<Files, u64> = HashMap::new();
    let mut ends: HashSet<Files> = HashSet::new();
    let (mut torn, mut undone) = (0, 0);
    for crash in crashes(&ops, &reference.expected, &mut keyed_rng("tears")) {
        torn += usize::from(crash.variant.starts_with("torn"));
        undone += usize::from(crash.variant == "undone");
        let version = match reopened.get(&crash.files) {
            Some(&version) => version,
            None => {
                let (version, end) = recover_and_converge(
                    &setup,
                    &batches,
                    &reference,
                    crash.files.clone(),
                    &crash.label,
                );
                if !ends.contains(&end) {
                    reopens_to_the_end(&setup, &reference, &end, &crash.label);
                    ends.insert(end);
                }
                *reopened.entry(crash.files).or_insert(version)
            }
        };
        assert_eq!(version, crash.expected, "{}: recovered version", crash.label);
    }
    println!(
        "crash sweep: {} operation indexes, {torn} torn and {undone} undone variants, \
         {} distinct stores reopened, {} distinct converged stores reopened twice",
        ops.len(),
        reopened.len(),
        ends.len()
    );
}

/// Every distinct write of the sweep's stream fails once, under each I/O
/// fault in turn: see the [module docs](self).
#[test]
fn fault_sweep_every_write_fails_once() {
    let setup = setup(Parallelism::Auto);
    let (steps, _) = sweep_stream(&setup);
    let reference = drive(&setup, &steps, &FaultStorage::default());
    for fault in Fault::ALL {
        let storage = FaultStorage::failing(fault);
        let run = drive(&setup, &steps, &storage);
        assert!(storage.faults_injected() > 0, "{fault:?}");
        assert_eq!(run.fingerprints, reference.fingerprints, "{fault:?}: fingerprints");
        assert_eq!(run.outputs, reference.outputs, "{fault:?}: query-mix outputs");
        reopens_to_the_end(&setup, &reference, &storage.files(), &format!("{fault:?}"));
        println!("fault sweep: {fault:?} failed {} writes", storage.faults_injected());
    }
}

/// Crash at every storage operation of each fault sweep run, so during
/// and between the retries of what an injected fault failed: see the
/// [module docs](self). Each distinct store is reopened once.
#[test]
fn crash_sweep_every_fault_injected_retry() {
    let setup = setup(Parallelism::Auto);
    let (steps, _) = sweep_stream(&setup);
    let reference = drive(&setup, &steps, &FaultStorage::default());
    // Files a crash leaves → the version they reopen to.
    let mut reopened: HashMap<Files, u64> = HashMap::new();
    for fault in Fault::ALL {
        let storage = FaultStorage::failing(fault);
        let run = drive(&setup, &steps, &storage);
        let ops = storage.ops();
        assert_eq!(run.expected.len(), ops.len(), "{fault:?}");
        let crashes = crashes(&ops, &run.expected, &mut keyed_rng(&format!("tears {fault:?}")));
        let mut visited: HashSet<&Files> = HashSet::new();
        let mut new = 0;
        for crash in &crashes {
            let label = format!("{fault:?}: {}", crash.label);
            let version = reopened.entry(crash.files.clone()).or_insert_with(|| {
                new += 1;
                let storage = FaultStorage::with_files(crash.files.clone());
                reopen_checked(&setup, &reference, &storage, &label)
                    .unwrap_or_else(|e| panic!("{label}: reopen failed: {e}"))
                    .version()
            });
            assert_eq!(*version, crash.expected, "{label}: recovered version");
            visited.insert(&crash.files);
        }
        let residue = crashes.iter().filter(|crash| crash.variant == "residue").count();
        println!(
            "fault crash sweep: {fault:?}: {} operation indexes, {} crash images \
             ({residue} residues of a failed append), {} distinct stores reopened \
             ({new} unseen under an earlier fault)",
            ops.len(),
            crashes.len(),
            visited.len()
        );
    }
}
