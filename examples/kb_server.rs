//! KB server walkthrough: the consumption surface of the reproduction.
//!
//! Trains the models once, then serves the growing knowledge base through
//! `ltee-serve`: micro-batches ingest on the writer thread while reader
//! threads concurrently query **pinned snapshot versions**, never waiting
//! for ingest work, each reader seeing one consistent KB version per
//! query, never a partially ingested batch. A superseded version stays
//! resident only while some reader still holds it, and the writer frees
//! it on the next publish after the last holder lets go, so the server's
//! memory stays flat under indefinite ingest. Afterwards it tours the query API (exact and
//! fuzzy label lookup, entity fetch with fused facts + table provenance,
//! per-class paging, batched execution) against the final version, after
//! printing the heap it holds by component and class twice: while one
//! superseded version is held, and once it is let go.
//! The last act makes the KB durable: the same stream ingests through
//! [`DurableServePipeline`] (WAL + periodic checkpoints), the process
//! "crashes", and a reopened server recovers **bit-identically** —
//! fingerprint-equal snapshots, same answers.
//!
//! Run with: `cargo run --release --example kb_server`

use ltee_core::prelude::*;
use ltee_serve::{
    CheckpointPolicy, DurableServePipeline, LinkOutcome, Query, QueryOutput, ServePipeline,
};

fn main() {
    // ── Train phase (offline, once) ─────────────────────────────────────
    let TrainedWorld { world, corpus, models, config, .. } = TrainedWorld::train(58);

    // ── Serve phase: one writer, many concurrent readers ────────────────
    let mut serving = ServePipeline::new(world.kb(), models.clone(), config.clone());
    println!(
        "serve : version {} published (empty KB), {} tables queued as micro-batches",
        serving.version(),
        corpus.len()
    );

    let batches = corpus.split_into_batches(4);
    let final_version = batches.len() as u64;
    let mut held = None; // the version the last batch supersedes
    std::thread::scope(|scope| {
        // Two readers hammer the evolving KB while batches ingest. Each
        // query pins one snapshot version; observations are collected and
        // printed after the join so the output stays readable.
        let handles: Vec<_> = (0..2)
            .map(|reader_id| {
                let reader = serving.reader();
                scope.spawn(move || {
                    let mut observations: Vec<(u64, usize, usize)> = Vec::new();
                    let mut last_version = 0;
                    // Deadline so a failed writer can't leave the readers
                    // (and therefore the scope join) spinning forever.
                    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
                    while last_version < final_version && std::time::Instant::now() < deadline {
                        let snap = reader.snapshot(); // one pinned version
                        let stats = snap.stats();
                        let hits = snap.fuzzy_lookup(None, "the river song", 3);
                        observations.push((snap.version(), stats.rows, hits.len()));
                        last_version = snap.version();
                        std::thread::yield_now();
                    }
                    (reader_id, observations)
                })
            })
            .collect();

        for (i, batch) in batches.iter().enumerate() {
            if i + 1 == batches.len() {
                held = Some(serving.snapshot());
            }
            let report = serving.ingest(batch).expect("fresh table ids");
            println!(
                "ingest: version {} published: +{} tables, +{} rows -> {} new / {} updated clusters",
                serving.version(),
                report.tables,
                report.rows,
                report.new_clusters,
                report.updated_clusters
            );
        }

        for handle in handles {
            let (reader_id, observations) = handle.join().expect("reader thread");
            let versions: Vec<u64> = observations.iter().map(|(v, _, _)| *v).collect();
            assert!(versions.windows(2).all(|w| w[0] <= w[1]), "versions are monotonic");
            println!(
                "reader {reader_id}: {} loads across versions {:?}..={:?}",
                observations.len(),
                versions.first().unwrap_or(&0),
                versions.last().unwrap_or(&0)
            );
        }
    });

    // ── What the server holds, by component and class ───────────────────
    serving.reclaim(); // what the finished reader threads left behind
    println!("\nmemory: {} versions resident, version {} held\n{}", serving.versions_retained(), final_version - 1, serving.footprint());
    drop(held);
    serving.reclaim();
    println!("memory: {} version resident once it is let go\n{}", serving.versions_retained(), serving.footprint());

    // ── Query tour against the final pinned version ─────────────────────
    let snap = serving.snapshot();
    let stats = snap.stats();
    println!("\nfinal snapshot: version {}, {} tables, {} rows", snap.version(), stats.tables, stats.rows);
    for class in &stats.classes {
        println!(
            "  {:<22} {:>4} entities ({} new, {} linked to the KB)",
            class.class.to_string(),
            class.entities,
            class.new_entities,
            class.linked_entities
        );
    }

    // Pick a served entity and show the full record: fused facts plus
    // row- and table-level provenance.
    let first_class = snap.classes().next().expect("non-empty snapshot");
    let record = &first_class.records()[0];
    println!("\nentity fetch: `{}` ({})", record.canonical_label(), first_class.class());
    match &record.outcome {
        LinkOutcome::New => println!("  verdict: NEW — extends the knowledge base"),
        LinkOutcome::Existing { label, .. } => println!("  verdict: matches existing `{label}`"),
    }
    for (prop, value, score) in record.facts.iter().take(4) {
        println!("  {prop} = {value}  (support {score:.2})");
    }
    println!("  provenance: {} rows from {} tables", record.rows.len(), record.tables.len());

    // Exact vs fuzzy lookup on the same label.
    let label = record.canonical_label().to_string();
    let exact = snap.exact_lookup(None, &label);
    let chars = label.chars().count();
    let typo: String =
        label.chars().take(chars.saturating_sub(1)).chain(std::iter::once('x')).collect();
    let fuzzy = snap.fuzzy_lookup(None, &typo, 3);
    println!("\nexact  `{label}`: {} hit(s)", exact.len());
    println!("fuzzy  `{typo}`: {} hit(s), best score {:.3}", fuzzy.len(), fuzzy.first().map(|h| h.score).unwrap_or(0.0));

    // Batched execution on the work-stealing pool: responses arrive in
    // request order, bit-identical to sequential execution.
    let queries = vec![
        Query::Exact { class: None, label: label.clone() },
        Query::Fuzzy { class: None, label: typo, k: 3 },
        Query::List { class: first_class.class(), offset: 0, limit: 5 },
        Query::Stats,
    ];
    let outputs = snap.execute_batch(&queries);
    let sequential: Vec<QueryOutput> = queries.iter().map(|q| snap.execute(q)).collect();
    assert_eq!(outputs, sequential, "batched == sequential, per the determinism contract");
    println!("\nbatch : {} queries fanned out on the pool, responses identical to sequential ✓", queries.len());

    // ── Durability: the KB survives a restart ───────────────────────────
    // Re-run the same stream through the durable layer: every batch is
    // fsynced to a write-ahead log before it applies, and every 3rd batch
    // cuts a full checkpoint of the accumulated state.
    let dir = std::env::temp_dir().join("ltee-kb-server-demo");
    if dir.exists() {
        std::fs::remove_dir_all(&dir).expect("clear stale store dir");
    }
    let (mut durable, _) = DurableServePipeline::open(
        &dir,
        world.kb(),
        models.clone(),
        config.clone(),
        CheckpointPolicy::EveryBatches(3),
    )
    .expect("fresh store dir");
    for batch in &batches {
        durable.ingest(batch).expect("fresh table ids");
    }
    let fingerprint = durable.snapshot().fingerprint();
    println!(
        "\ndurable: version {} persisted to {} (snapshot fingerprint {fingerprint:016x})",
        durable.version(),
        dir.display()
    );

    // "Crash": drop the whole in-memory state. Only the store directory
    // survives — exactly what a killed process would leave behind.
    drop(durable);

    let (revived, report) = DurableServePipeline::open(
        &dir,
        world.kb(),
        models,
        config,
        CheckpointPolicy::EveryBatches(3),
    )
    .expect("recoverable store dir");
    println!(
        "revive : checkpoint@{} + {} WAL batch(es) replayed -> version {}",
        report.from_checkpoint.unwrap_or(0),
        report.replayed_batches,
        revived.version()
    );
    assert_eq!(
        revived.snapshot().fingerprint(),
        fingerprint,
        "recovery is bit-identical to the process that never crashed"
    );
    let hits = revived.snapshot().exact_lookup(None, &label);
    println!(
        "revive : exact `{label}` answers with {} hit(s) — bit-identical after restart ✓",
        hits.len()
    );
    std::fs::remove_dir_all(&dir).ok();
}
