//! Snapshot-isolation contract of the `ltee-serve` query layer: N reader
//! threads issue mixed query batches while K micro-batches ingest
//! concurrently, and
//!
//! * every query batch observes **exactly one** snapshot version (proved
//!   by bracketing `Stats` queries and by replay),
//! * every logged result is **bit-identical** to re-executing the same
//!   queries against the same (archived) version single-threaded,
//! * no query ever sees a **partially ingested** batch: every observed
//!   version's table/row counts sit exactly on a batch boundary, and its
//!   stats equal what the writer recorded right after publishing it,
//! * versions are monotonic per reader.
//!
//! Replay runs against the versions the writer archived itself: holding
//! the `Arc<KbSnapshot>` of a version is all a repeatable read needs.
//!
//! Runs under the CI `LTEE_NUM_THREADS=1,4` matrix (the pipeline's
//! parallelism is `Auto`, so the env var sizes the pool in both legs).
//!
//! Deterministic: `Scale::tiny()` world with fixed seed 9001; the reader
//! interleaving is scheduler-dependent, but every assertion is phrased
//! over whatever interleaving occurred.
//!
//! Expected runtime: ~30 s in debug (one training run, five ingests,
//! replay verification).

use std::sync::Arc;
use std::time::Duration;

use ltee_core::prelude::*;
use ltee_serve::{EntityRef, KbSnapshot, Query, QueryOutput, ServePipeline, SnapshotStats};

use ltee::scenario as common;

const READERS: usize = 4;
const MICRO_BATCHES: usize = 5;

fn setup() -> (World, GeneratedCorpus, ModelArtifact) {
    let TrainedWorld { world, corpus, models, config, .. } = TrainedWorld::train_with(9001, config());
    let artifact = ModelArtifact::new(models, &config);
    // Exotic labels keep the interned lookup paths inside the proof.
    let corpus = common::with_exotic_labels(corpus, ["(Live)", "[Zürich]", "\u{130}zmir"]);
    (world, corpus, artifact)
}

fn config() -> PipelineConfig {
    // Auto: the CI matrix's LTEE_NUM_THREADS sizes the pool.
    PipelineConfig { parallelism: Parallelism::Auto, ..PipelineConfig::fast() }
}

/// A mixed query batch derived deterministically from a snapshot: stats
/// (bracketing the batch on both ends), paging, exact and fuzzy label
/// lookups (incl. typos and misses), entity fetches (incl. out of range).
fn mixed_queries(snap: &KbSnapshot) -> Vec<Query> {
    let mut queries = vec![Query::Stats];
    for slice in snap.classes() {
        let class = slice.class();
        queries.push(Query::List { class, offset: 0, limit: 8 });
        queries.push(Query::List { class, offset: slice.len().saturating_sub(2), limit: 8 });
        for (i, record) in slice.records().iter().take(3).enumerate() {
            let label = record.canonical_label().to_string();
            let typo: String = label.chars().skip(1).collect();
            queries.push(Query::Exact { class: Some(class), label: label.clone() });
            queries.push(Query::Exact { class: None, label });
            queries.push(Query::Fuzzy {
                class: (i % 2 == 0).then_some(class),
                label: typo,
                k: 5,
            });
            queries.push(Query::Entity { entity: EntityRef { class, id: i as u32 } });
        }
        queries.push(Query::Entity { entity: EntityRef { class, id: u32::MAX } });
    }
    queries.push(Query::Fuzzy { class: None, label: "zzz unknown entity".into(), k: 3 });
    queries.push(Query::Stats);
    queries
}

/// One reader's log: for every loop iteration, the pinned version, the
/// queries issued against it, and the outputs observed concurrently.
type ReaderLog = Vec<(u64, Vec<Query>, Vec<QueryOutput>)>;

#[test]
fn concurrent_readers_observe_isolated_bit_identical_versions() {
    let (world, corpus, artifact) = setup();
    let mut serving = ServePipeline::from_artifact(world.kb(), &artifact, config())
        .expect("artifact fingerprint matches");
    let batches = corpus.split_into_batches(MICRO_BATCHES);
    let final_version = batches.len() as u64;

    // Writer-side ground truth: every version, archived right after
    // publishing it, plus the cumulative batch-boundary table/row counts
    // every consistent version must sit on.
    let mut archive: Vec<Arc<KbSnapshot>> = vec![serving.snapshot()];
    let mut boundaries: Vec<(usize, usize)> = vec![(0, 0)];
    {
        let (mut t, mut r) = (0, 0);
        for batch in &batches {
            t += batch.len();
            r += batch.total_rows();
            boundaries.push((t, r));
        }
    }

    let reader_logs: Vec<ReaderLog> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..READERS)
            .map(|_| {
                let reader = serving.reader();
                scope.spawn(move || {
                    let mut log: ReaderLog = Vec::new();
                    let mut last_version = 0u64;
                    // If the writer fails, the final version never appears;
                    // the deadline turns that into a loud test failure
                    // instead of a joined-forever CI hang.
                    let deadline = std::time::Instant::now() + Duration::from_secs(300);
                    loop {
                        assert!(
                            std::time::Instant::now() < deadline,
                            "reader timed out waiting for version {final_version} — \
                             did the writer fail?"
                        );
                        // Wait-free pin of one version.
                        let snap = reader.snapshot();
                        let version = snap.version();
                        assert!(
                            version >= last_version,
                            "reader versions must be monotonic: {version} after {last_version}"
                        );
                        last_version = version;

                        let queries = mixed_queries(&snap);
                        let outputs = snap.execute_batch(&queries);
                        // Exactly one version per query batch: the stats
                        // queries bracketing the batch both carry the
                        // pinned version even if ingest published newer
                        // versions mid-batch.
                        for output in &outputs {
                            if let QueryOutput::Stats(stats) = output {
                                assert_eq!(
                                    stats.version, version,
                                    "a query observed a version other than its snapshot's"
                                );
                            }
                        }
                        log.push((version, queries, outputs));
                        if version >= final_version {
                            return log;
                        }
                        std::thread::sleep(Duration::from_millis(2));
                    }
                })
            })
            .collect();

        // The writer ingests concurrently with all readers.
        for batch in &batches {
            let report = serving.ingest(batch).expect("fresh table ids");
            assert_eq!(report.tables, batch.len());
            archive.push(serving.snapshot());
        }
        assert_eq!(serving.version(), final_version);

        handles.into_iter().map(|h| h.join().expect("reader thread panicked")).collect()
    });

    // ── Verification (single-threaded, after the fact) ──────────────────
    // The archive holds every published version, in order.
    for (version, snap) in archive.iter().enumerate() {
        assert_eq!(snap.version(), version as u64, "archived version {version} out of order");
    }
    let expected_stats: Vec<SnapshotStats> = archive.iter().map(|snap| snap.stats()).collect();

    let mut total_batches = 0usize;
    for (reader_id, log) in reader_logs.iter().enumerate() {
        assert!(!log.is_empty(), "reader {reader_id} never queried");
        for (version, queries, outputs) in log {
            total_batches += 1;
            let snap = &archive[*version as usize];

            // Bit-identical replay: the same queries, re-executed
            // sequentially against the archived version, must reproduce
            // exactly what the reader observed under concurrency.
            let replay: Vec<QueryOutput> = queries.iter().map(|q| snap.execute(q)).collect();
            assert_eq!(
                outputs, &replay,
                "reader {reader_id}: concurrent results for version {version} are not \
                 bit-identical to a single-threaded replay"
            );

            // No partially ingested batch: the observed version's counts
            // sit exactly on a batch boundary, and equal the writer's
            // post-publish record.
            let stats = match &outputs[0] {
                QueryOutput::Stats(stats) => stats,
                other => panic!("first query is Stats, got {other:?}"),
            };
            assert!(
                boundaries.contains(&(stats.tables, stats.rows)),
                "reader {reader_id} saw a mid-batch state: {} tables / {} rows is not a \
                 batch boundary ({boundaries:?})",
                stats.tables,
                stats.rows
            );
            assert_eq!(stats, &expected_stats[*version as usize]);
        }
    }
    assert!(
        total_batches >= READERS,
        "every reader issues at least one query batch (got {total_batches})"
    );
}

#[test]
fn published_snapshots_project_the_pipeline_output_faithfully() {
    let (world, corpus, artifact) = setup();
    let mut serving = ServePipeline::from_artifact(world.kb(), &artifact, config())
        .expect("artifact fingerprint matches");
    for batch in corpus.split_into_batches(3) {
        serving.ingest(&batch).expect("fresh table ids");
    }
    let snap = serving.snapshot();
    assert_eq!(snap.version(), 3);
    assert_eq!(snap.tables(), corpus.len());
    assert_eq!(snap.rows(), corpus.total_rows());

    // The snapshot is the pipeline's output, projected record for record.
    let output = serving.pipeline().output();
    for class_output in &output.classes {
        let slice = snap.class(class_output.class).expect("served class");
        assert_eq!(slice.len(), class_output.entities.len(), "{}", class_output.class);
        for ((record, entity), result) in slice
            .records()
            .iter()
            .zip(&class_output.entities)
            .zip(&class_output.results)
        {
            assert_eq!(record.labels, entity.labels);
            assert_eq!(record.facts, entity.facts);
            assert_eq!(record.rows, entity.rows);
            assert_eq!(record.tables, entity.provenance_tables());
            assert_eq!(record.outcome.is_new(), result.outcome.is_new());
            assert_eq!(record.best_score.to_bits(), result.best_score.to_bits());
            assert_eq!(record.candidate_count, result.candidate_count);
        }
    }

    // Empty batches publish nothing; duplicate batches change nothing.
    let before = serving.version();
    serving.ingest(&Corpus::new()).expect("empty batch is a no-op");
    assert_eq!(serving.version(), before, "empty batches must not publish");
    let doubled = Corpus::from_tables(vec![corpus.tables()[0].clone()]);
    assert!(serving.ingest(&doubled).is_err(), "duplicate table ids are rejected");
    assert_eq!(serving.version(), before, "rejected batches must not publish");
}
