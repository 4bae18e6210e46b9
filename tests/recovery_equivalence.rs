//! Crash-injected recovery equivalence: a serve process that crashes at
//! *any* byte boundary of its durability files and recovers must end up
//! bit-identical — snapshot fingerprints and query results — to the
//! process that never crashed.
//!
//! The harness is byte-level crash simulation: run an uncrashed reference,
//! capture its WAL (and checkpoint files), then for every enumerated crash
//! point materialise a store directory holding exactly the bytes that
//! would have survived a kill at that point, recover a fresh
//! `DurableServePipeline` from it, and check:
//!
//! 1. **Prefix property** — the recovered version is some `R ≤ K`, and its
//!    snapshot fingerprint equals the reference's fingerprint *at version
//!    `R`* (recovery lands on a prefix of the applied batches, never an
//!    inconsistent in-between).
//! 2. **Convergence** — after re-ingesting batches `R+1..K`, the recovered
//!    process's final snapshot fingerprint and a full deterministic query
//!    mix (exact, fuzzy, fetch, paging, stats — per class) are identical to
//!    the reference's.
//!
//! Thread and shard matrix: the sweeps run under `Parallelism::Auto` and
//! `ShardPlan::Auto`, so the CI `LTEE_NUM_THREADS=1,4` ×
//! `LTEE_NUM_SHARDS=1,4` matrix supplies the threads∈{1,4} × shards∈{1,4}
//! plane of the K∈{1,4,9} product; `checkpoint_is_portable_across_thread_counts`
//! and `checkpoint_is_portable_across_shard_counts` additionally prove a
//! checkpoint written under one `Threads(n)`/`ShardPlan::Shards(n)` setting
//! recovers bit-identically under another (the config fingerprint excludes
//! parallelism and shards by design — checkpoints persist logical per-class
//! state, never shard layout).
//!
//! Deterministic: `Scale::tiny()` world with fixed seed 4711, exotic
//! labels appended, ChaCha-seeded crash choice in the smoke test.

use std::fs;
use std::path::PathBuf;

use ltee::scenario as common;
use ltee_core::prelude::*;
use ltee_serve::{CheckpointPolicy, DurableServePipeline, EntityRef, Query};
use ltee_store::wal::{encode_wal_header, encode_wal_record};
use ltee_store::{crashpoints, KbStore, StoreError, WalTail};
use ltee_webtables::WebTable;
use rand::{RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;

fn config_sharded(parallelism: Parallelism, shards: ShardPlan) -> PipelineConfig {
    PipelineConfig { parallelism, shards, ..PipelineConfig::fast() }
}

/// One trained world + the serve-time stream (training corpus plus exotic
/// labels, as in `incremental_equivalence.rs`).
struct Setup {
    tw: common::TrainedWorld,
    stream: Corpus,
}

fn setup(parallelism: Parallelism) -> Setup {
    setup_sharded(parallelism, ShardPlan::Auto)
}

fn setup_sharded(parallelism: Parallelism, shards: ShardPlan) -> Setup {
    let tw = common::TrainedWorld::train_with(
        4711,
        &ltee_webtables::CorpusConfig::tiny(),
        config_sharded(parallelism, shards),
    );
    let stream = common::with_exotic_labels(
        tw.corpus.clone(),
        ["(Live)", "[Zürich]", "\u{130}zmir"],
    );
    Setup { tw, stream }
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
fn query_mix(stream: &Corpus) -> Vec<Query> {
    let mut queries = vec![Query::Stats];
    let labels: Vec<String> = stream
        .tables()
        .iter()
        .step_by(7)
        .take(8)
        .filter_map(|t| t.columns[t.truth.as_ref()?.label_column].cells.first())
        .filter(|l| !l.is_empty())
        .cloned()
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
            .tables()
            .iter()
            .find_map(|t| Some((t, t.truth.as_ref().filter(|truth| truth.class == class)?)))
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
) -> (Vec<u64>, Vec<ltee_serve::QueryOutput>) {
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

/// Materialise a crashed copy of `reference_dir` (checkpoint files intact,
/// WAL cut to `wal_prefix` bytes), recover, assert the prefix property,
/// re-ingest the missing batches and assert bit-identical convergence.
fn recover_and_converge(
    setup: &Setup,
    batches: &[Corpus],
    reference_dir: &PathBuf,
    wal_prefix: &[u8],
    fingerprints: &[u64],
    reference_outputs: &[ltee_serve::QueryOutput],
    label: &str,
) {
    let crash_dir = scratch_dir(&format!("crash-{label}"));
    fs::create_dir_all(&crash_dir).unwrap();
    for entry in fs::read_dir(reference_dir).unwrap() {
        let entry = entry.unwrap();
        let name = entry.file_name();
        if name.to_str().is_some_and(|n| n.starts_with("ckpt-")) {
            fs::copy(entry.path(), crash_dir.join(name)).unwrap();
        }
    }
    fs::write(KbStore::wal_path(&crash_dir), wal_prefix).unwrap();

    let (mut recovered, report) = DurableServePipeline::open(
        &crash_dir,
        setup.tw.world.kb(),
        setup.tw.models.clone(),
        setup.tw.config.clone(),
        CheckpointPolicy::Manual,
    )
    .unwrap_or_else(|e| panic!("{label}: recovery failed: {e}"));

    // Prefix property: the recovered state is exactly some version R ≤ K.
    let recovered_version = recovered.version();
    assert!(
        (recovered_version as usize) < fingerprints.len(),
        "{label}: recovered version {recovered_version} beyond the reference"
    );
    assert_eq!(report.recovered_batches(), recovered_version, "{label}: report consistency");
    assert_eq!(
        recovered.snapshot().fingerprint(),
        fingerprints[recovered_version as usize],
        "{label}: recovered snapshot differs from reference version {recovered_version}"
    );

    // Convergence: re-ingest what the crash lost, compare everything.
    for batch in &batches[recovered_version as usize..] {
        recovered.ingest(batch).unwrap_or_else(|e| panic!("{label}: re-ingest failed: {e}"));
    }
    assert_eq!(recovered.version(), batches.len() as u64, "{label}: final version");
    assert_eq!(
        recovered.snapshot().fingerprint(),
        fingerprints[batches.len()],
        "{label}: converged snapshot fingerprint"
    );
    let outputs = recovered.snapshot().execute_batch(&query_mix(&setup.stream));
    assert_eq!(outputs, reference_outputs, "{label}: query-mix outputs");

    fs::remove_dir_all(&crash_dir).unwrap();
}

/// The headline sweep: for K∈{1,4,9} micro-batches, crash at *every*
/// enumerated WAL byte boundary (record boundaries, torn record headers,
/// torn payloads, torn file header, empty file) and prove recovery +
/// convergence. ~2+3K crash points per K, each a full recovery.
#[test]
fn every_wal_crash_point_recovers_bit_identically_for_k_1_4_9() {
    let setup = setup(Parallelism::Auto);
    for k in [1usize, 4, 9] {
        let batches = setup.stream.split_into_batches(k);
        assert_eq!(batches.len(), k);
        let dir = scratch_dir(&format!("ref-k{k}"));
        let (fingerprints, outputs) =
            reference_run(&setup, &batches, &dir, CheckpointPolicy::Manual);
        assert_eq!(fingerprints.len(), k + 1);

        let wal_bytes = fs::read(KbStore::wal_path(&dir)).unwrap();
        let cuts = crashpoints::wal_crash_prefixes(&wal_bytes);
        assert!(cuts.len() >= 3 + 3 * k, "k={k}: expected a cut per write boundary");
        for &cut in &cuts {
            recover_and_converge(
                &setup,
                &batches,
                &dir,
                &wal_bytes[..cut],
                &fingerprints,
                &outputs,
                &format!("k{k}-cut{cut}"),
            );
        }
        fs::remove_dir_all(&dir).unwrap();
    }
}

/// Checkpoint write boundaries: run with periodic checkpoints, then crash
/// the *checkpoint file* at several byte prefixes (including empty and
/// torn-header). Recovery must fall back — to the older retained
/// checkpoint or a fresh replay — and still converge bit-identically.
#[test]
fn torn_checkpoints_fall_back_and_converge() {
    let setup = setup(Parallelism::Auto);
    let k = 4usize;
    let batches = setup.stream.split_into_batches(k);
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

    // Sanity: the untouched reference directory also recovers identically.
    recover_and_converge(
        &setup,
        &batches,
        &dir,
        &wal_bytes,
        &fingerprints,
        &outputs,
        "ckpt-intact",
    );
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
    ), "re-ingesting already-stored tables must be rejected (and rolled back)");
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
        Err(StoreError::WalConfigMismatch { .. }) => {}
        other => panic!("expected WalConfigMismatch, got {:?}", other.map(|_| ())),
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
        Err(StoreError::Checkpoint(CheckpointError::ConfigMismatch { .. })) => {}
        other => panic!("expected Checkpoint(ConfigMismatch), got {:?}", other.map(|_| ())),
    }
    fs::remove_dir_all(&dir).unwrap();
}

/// The store holds what the pipeline decided, not the answer key: the same
/// batches with and without their tables' ground truth publish the same
/// snapshot after every batch, answer the query mix alike and leave
/// byte-identical checkpoints and WAL.
#[test]
fn the_served_kb_does_not_depend_on_ground_truth() {
    let setup = setup(Parallelism::Auto);
    let batches = setup.stream.split_into_batches(4);
    let stripped: Vec<Corpus> = batches
        .iter()
        .map(|batch| {
            let tables = batch.tables().iter().map(|t| WebTable { truth: None, ..t.clone() });
            Corpus::from_tables(tables.collect())
        })
        .collect();
    assert!(batches.iter().flat_map(Corpus::tables).all(|t| t.truth.is_some()));

    let run = |batches: &[Corpus], tag: &str| {
        let dir = scratch_dir(tag);
        let (fingerprints, outputs) =
            reference_run(&setup, batches, &dir, CheckpointPolicy::EveryBatches(2));
        let mut files: Vec<(String, Vec<u8>)> = fs::read_dir(&dir)
            .unwrap()
            .map(|entry| {
                let entry = entry.unwrap();
                (entry.file_name().to_string_lossy().into_owned(), fs::read(entry.path()).unwrap())
            })
            .collect();
        files.sort();
        fs::remove_dir_all(&dir).unwrap();
        (fingerprints, outputs, files)
    };
    let (fingerprints, outputs, files) = run(&batches, "with-truth");
    let (bare_fingerprints, bare_outputs, bare_files) = run(&stripped, "without-truth");
    assert_eq!(fingerprints, bare_fingerprints, "snapshot fingerprints after every batch");
    assert_eq!(outputs, bare_outputs, "query-mix outputs");
    assert_eq!(files.len(), 3, "two checkpoints and the WAL");
    assert!(files == bare_files, "the store's bytes depend on ground truth");
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
    ragged.columns.last_mut().unwrap().cells.pop();

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
    ragged.columns.last_mut().unwrap().cells.pop();
    let fingerprint = ltee_core::config_fingerprint(&setup.tw.config);
    let batch = ltee_core::encode_corpus(&setup.tw.corpus.split_into_batches(2)[0]);
    for (payload, tag) in
        [(ltee_core::encode_corpus(&Corpus::from_tables(vec![ragged])), "ragged"), (vec![0xFF], "garbage")]
    {
        let dir = scratch_dir(&format!("undecodable-{tag}"));
        fs::create_dir_all(&dir).unwrap();
        let mut wal = encode_wal_header(fingerprint);
        wal.extend_from_slice(&encode_wal_record(1, &batch));
        wal.extend_from_slice(&encode_wal_record(2, &payload));
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

/// Release-mode CI smoke: one seeded-random crash point, recover, golden
/// query check against the uncrashed run. Small on purpose — the full
/// sweep runs in the debug matrix.
#[test]
fn seeded_random_crash_smoke() {
    let setup = setup(Parallelism::Auto);
    let k = 4usize;
    let batches = setup.stream.split_into_batches(k);
    let dir = scratch_dir("smoke-ref");
    let (fingerprints, outputs) =
        reference_run(&setup, &batches, &dir, CheckpointPolicy::Manual);

    let wal_bytes = fs::read(KbStore::wal_path(&dir)).unwrap();
    let cuts = crashpoints::wal_crash_prefixes(&wal_bytes);
    let mut rng = ChaCha8Rng::seed_from_u64(0xC4A54);
    let cut = cuts[(rng.next_u32() as usize) % cuts.len()];
    recover_and_converge(
        &setup,
        &batches,
        &dir,
        &wal_bytes[..cut],
        &fingerprints,
        &outputs,
        &format!("smoke-cut{cut}"),
    );
    // Golden check: the known stream labels resolve after recovery exactly
    // as they did before the crash (non-trivially: at least one exact hit).
    let hits = outputs
        .iter()
        .filter(|o| matches!(o, ltee_serve::QueryOutput::Hits(h) if !h.is_empty()))
        .count();
    assert!(hits >= 1, "the query mix must resolve at least one label");
    // A truncated tail must have been repaired: reopening is clean.
    let reopened = KbStore::open(&dir, ltee_core::config_fingerprint(&setup.tw.config)).unwrap();
    assert_eq!(reopened.wal_tail, WalTail::Clean);
    fs::remove_dir_all(&dir).unwrap();
}
