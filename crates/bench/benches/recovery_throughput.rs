//! Durability-layer throughput: checkpoint encode+write MB/s, WAL append
//! rows/s, and the headline comparison — cold recovery (newest
//! checkpoint plus WAL-tail replay) versus re-ingesting the whole corpus
//! from scratch — at three corpus scales. Written to
//! `BENCH_recovery.json` at the repository root.
//!
//! Runs as a plain binary (`harness = false`):
//!
//! ```sh
//! cargo bench -p ltee-bench --bench recovery_throughput
//! ```
//!
//! Recovery must beat re-ingest at every scale: a checkpoint restore skips
//! corpus matching, pair scoring and fusion entirely and only rebuilds the
//! derived indices, so `"recovery_faster_than_reingest"` is asserted and
//! recorded for the CI gate. As a side effect the bench re-checks the
//! crash-consistency contract: the recovered snapshot fingerprint must be
//! bit-identical to the never-crashed run's.

use std::time::Instant;

use ltee_core::prelude::*;
use ltee_serve::{CheckpointPolicy, DurableServePipeline, ServePipeline};
use ltee_store::KbStore;
use ltee_webtables::Corpus;

const BATCHES: usize = 4;

fn scratch_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir()
        .join(format!("ltee-bench-recovery-{}-{tag}", std::process::id()));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).expect("clear stale scratch dir");
    }
    dir
}

/// Take the first `numer`/`denom` of the corpus tables (arrival order), so
/// each scale is a strict prefix of the next and the workloads nest.
fn corpus_fraction(corpus: &Corpus, numer: usize, denom: usize) -> Corpus {
    let tables = corpus.tables();
    let keep = (tables.len() * numer / denom).max(BATCHES);
    Corpus::from_tables(tables[..keep].to_vec())
}

struct ScaleResult {
    label: &'static str,
    tables: usize,
    rows: usize,
    reingest_secs: f64,
    wal_secs: f64,
    wal_bytes: u64,
    checkpoint_secs: f64,
    checkpoint_bytes: u64,
    recovery_secs: f64,
}

fn run_scale(
    label: &'static str,
    kb: &KnowledgeBase,
    models: &TrainedModels,
    config: &PipelineConfig,
    corpus: &Corpus,
) -> ScaleResult {
    let rows: usize = corpus.tables().iter().map(|t| t.num_rows()).sum();
    let batches = corpus.split_into_batches(BATCHES);

    // Baseline: the never-crashed run, all batches ingested in memory.
    let start = Instant::now();
    let mut baseline = ServePipeline::new(kb, models.clone(), config.clone());
    for batch in &batches {
        baseline.ingest(batch).expect("fresh table ids");
    }
    let reingest_secs = start.elapsed().as_secs_f64();
    let baseline_fp = baseline.snapshot().fingerprint();

    let dir = scratch_dir(label);
    let (mut durable, _) = DurableServePipeline::open(
        &dir,
        kb,
        models.clone(),
        config.clone(),
        CheckpointPolicy::Manual,
    )
    .expect("fresh store dir");

    let mut wal_secs = 0.0f64;
    let mut checkpoint_secs = 0.0f64;
    for (i, batch) in batches.iter().enumerate() {
        let start = Instant::now();
        durable.ingest(batch).expect("fresh table ids");
        wal_secs += start.elapsed().as_secs_f64();
        if i + 1 == batches.len() - 1 {
            // Checkpoint after the penultimate batch so cold recovery below
            // exercises both paths: restore + one-batch WAL replay.
            let start = Instant::now();
            durable.checkpoint().expect("checkpoint write");
            checkpoint_secs = start.elapsed().as_secs_f64();
        }
    }
    // The durable ingest timing includes the in-memory apply; subtract the
    // baseline's apply time to approximate pure WAL overhead (floored at a
    // microsecond so rows/s stays finite on noisy hosts).
    let wal_overhead = (wal_secs - reingest_secs).max(1e-6);
    let wal_bytes = std::fs::metadata(KbStore::wal_path(&dir)).map(|m| m.len()).unwrap_or(0);
    let checkpoint_bytes =
        std::fs::metadata(KbStore::checkpoint_path(&dir, (BATCHES - 1) as u64))
            .expect("one checkpoint written")
            .len();
    assert_eq!(durable.snapshot().fingerprint(), baseline_fp, "durable run diverged");
    drop(durable);

    // Cold recovery: newest checkpoint + WAL-tail replay, timed end to end.
    let start = Instant::now();
    let (recovered, report) = DurableServePipeline::open(
        &dir,
        kb,
        models.clone(),
        config.clone(),
        CheckpointPolicy::Manual,
    )
    .expect("recoverable store dir");
    let recovery_secs = start.elapsed().as_secs_f64();
    assert_eq!(report.recovered_batches(), BATCHES as u64);
    assert_eq!(
        recovered.snapshot().fingerprint(),
        baseline_fp,
        "recovered snapshot is not bit-identical to the never-crashed run"
    );
    drop(recovered);
    std::fs::remove_dir_all(&dir).ok();

    ScaleResult {
        label,
        tables: corpus.len(),
        rows,
        reingest_secs,
        wal_secs: wal_overhead,
        wal_bytes,
        checkpoint_secs,
        checkpoint_bytes,
        recovery_secs,
    }
}

fn main() {
    let world = generate_world(&GeneratorConfig::new(Scale::tiny(), 9091));
    let corpus = generate_corpus(&world, &CorpusConfig::tiny());
    let golds: Vec<GoldStandard> =
        CLASS_KEYS.iter().map(|&c| GoldStandard::build(&world, &corpus, c)).collect();
    let config = PipelineConfig::fast();
    let models = train_models(&corpus, world.kb(), &golds, &config).expect("trainable corpus");

    let scales: [(&'static str, usize, usize); 3] = [("quarter", 1, 4), ("half", 1, 2), ("full", 1, 1)];
    let mut results = Vec::new();
    for (label, numer, denom) in scales {
        let sub = corpus_fraction(&corpus, numer, denom);
        let result = run_scale(label, world.kb(), &models, &config, &sub);
        println!(
            "bench: recovery_throughput {label:>8} — {} tables / {} rows: re-ingest {:>7.3} s, recovery {:>7.3} s ({:.2}x), checkpoint {:.1} KiB in {:.4} s, WAL {:.1} KiB",
            result.tables,
            result.rows,
            result.reingest_secs,
            result.recovery_secs,
            result.reingest_secs / result.recovery_secs,
            result.checkpoint_bytes as f64 / 1024.0,
            result.checkpoint_secs,
            result.wal_bytes as f64 / 1024.0,
        );
        results.push(result);
    }

    let recovery_faster = results.iter().all(|r| r.recovery_secs < r.reingest_secs);
    assert!(
        recovery_faster,
        "cold recovery must beat full re-ingest at every scale — a restore skips \
         matching/scoring/fusion, so losing means the checkpoint path regressed"
    );

    let mut scale_json = Vec::new();
    for r in &results {
        let ckpt_mb_per_s = r.checkpoint_bytes as f64 / (1024.0 * 1024.0) / r.checkpoint_secs.max(1e-6);
        let wal_rows_per_s = r.rows as f64 / r.wal_secs;
        scale_json.push(format!(
            "    {{ \"scale\": \"{}\", \"tables\": {}, \"rows\": {}, \"reingest_secs\": {:.6}, \"recovery_secs\": {:.6}, \"recovery_speedup\": {:.4}, \"checkpoint_bytes\": {}, \"checkpoint_secs\": {:.6}, \"checkpoint_mb_per_sec\": {:.2}, \"wal_bytes\": {}, \"wal_overhead_secs\": {:.6}, \"wal_rows_per_sec\": {:.1} }}",
            r.label,
            r.tables,
            r.rows,
            r.reingest_secs,
            r.recovery_secs,
            r.reingest_secs / r.recovery_secs,
            r.checkpoint_bytes,
            r.checkpoint_secs,
            ckpt_mb_per_s,
            r.wal_bytes,
            r.wal_secs,
            wal_rows_per_s,
        ));
    }
    let json = format!(
        "{{\n  \"bench\": \"recovery_throughput\",\n  \"batches\": {BATCHES},\n  \"recovery_faster_than_reingest\": {recovery_faster},\n  \"scales\": [\n{}\n  ]\n}}\n",
        scale_json.join(",\n")
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_recovery.json");
    std::fs::write(path, &json).expect("write BENCH_recovery.json");
    println!("bench: wrote {path}");
}
