//! Serve-layer query throughput: queries/second against pinned
//! `KbSnapshot` versions, single- vs multi-reader, plus reader throughput
//! while ingest publishes new versions concurrently. Written to
//! `BENCH_serve.json` at the repository root.
//!
//! Runs as a plain binary (`harness = false`):
//!
//! ```sh
//! cargo bench -p ltee-bench --bench serve_throughput
//! ```
//!
//! Environment knobs: `LTEE_BENCH_READERS` (reader thread count, default:
//! available parallelism, at least 2), `LTEE_BENCH_QUERIES` (target query
//! count per measured phase, default 4000) and `LTEE_BENCH_INGESTS`
//! (sustained-ingest batch count, default 1000). As a side effect the
//! bench re-checks the read-path determinism contract: every concurrent
//! reader pinned to the same snapshot version must produce a bit-identical
//! result fingerprint — and the sustained-ingest phase re-checks the
//! bounded-memory contract: resident snapshot versions must stay at the
//! retention window while a thousand micro-batches publish (the
//! `resident_bounded` verdict CI gates on).
//!
//! Note: on a single-core host the multi-reader number cannot exceed the
//! single-reader number — the point of recording both is exactly to make
//! the scaling (or its absence) visible per host.

use std::time::Instant;

use ltee_bench::support::env_usize;
use ltee_core::prelude::*;
use ltee_serve::{Query, QueryOutput, ServePipeline, SnapshotReader};
use ltee_webtables::TableId;

/// A mixed workload derived from what the snapshot actually serves: exact
/// lookups of served labels, fuzzy lookups of typo'd labels (prefix-
/// mangled, so the Levenshtein paths run), entity fetches, pages, stats.
fn build_workload(snap: &ltee_serve::KbSnapshot) -> Vec<Query> {
    let mut queries = Vec::new();
    for slice in snap.classes() {
        let class = slice.class();
        for (i, record) in slice.records().iter().enumerate() {
            let label = record.canonical_label().to_string();
            let typo: String = label.chars().skip(1).collect();
            queries.push(Query::Exact { class: Some(class), label: label.clone() });
            queries.push(Query::Fuzzy { class: None, label: typo, k: 5 });
            queries.push(Query::Entity {
                entity: ltee_serve::EntityRef { class, id: i as u32 },
            });
            if i % 8 == 0 {
                queries.push(Query::List { class, offset: i, limit: 10 });
            }
        }
    }
    queries.push(Query::Stats);
    queries
}

/// Structural fingerprint of a response stream: FNV-1a over the complete
/// `Debug` rendering, so *any* divergence — ids, classes, scores, labels,
/// fused facts, provenance, page contents, every stats field — changes
/// the value. The hashing runs outside the timed window (see
/// [`run_reader`]), so completeness costs no measured throughput.
fn fingerprint(outputs: &[QueryOutput]) -> u64 {
    ltee_ml::codec::fnv1a64(format!("{outputs:?}").as_bytes())
}

/// Run `passes` full workload passes against the reader's current
/// snapshot, returning (queries executed, busy seconds, fingerprint).
/// Only snapshot acquisition + query execution are timed; the per-pass
/// fingerprinting happens off the clock. Fingerprints chain (not XOR —
/// XOR would cancel a stable-but-wrong reader to 0 whenever the pass
/// count is even).
fn run_reader(reader: &SnapshotReader, workload: &[Query], passes: usize) -> (usize, f64, u64) {
    let mut executed = 0usize;
    let mut busy = 0.0f64;
    let mut fp = 0u64;
    for _ in 0..passes {
        let start = Instant::now();
        let snap = reader.snapshot();
        let outputs = snap.execute_batch(workload);
        busy += start.elapsed().as_secs_f64();
        executed += workload.len();
        fp = ltee_intern::fnv1a64_extend(fp, &fingerprint(&outputs).to_le_bytes());
    }
    (executed, busy, fp)
}

fn main() {
    let world = generate_world(&GeneratorConfig::new(Scale::tiny(), 4242));
    let corpus = generate_corpus(&world, &CorpusConfig::tiny());
    let golds: Vec<GoldStandard> =
        CLASS_KEYS.iter().map(|&c| GoldStandard::build(&world, &corpus, c)).collect();

    let host_cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let readers = env_usize("LTEE_BENCH_READERS", host_cores.max(2));
    let target_queries = env_usize("LTEE_BENCH_QUERIES", 4000);

    let config = PipelineConfig::fast();
    let models = train_models(&corpus, world.kb(), &golds, &config).expect("trainable corpus");

    // Build the served KB (not measured): ingest the corpus as 4 batches.
    let mut serving = ServePipeline::new(world.kb(), models, config);
    for batch in corpus.split_into_batches(4) {
        serving.ingest(&batch).expect("fresh table ids");
    }
    let snap = serving.snapshot();
    let workload = build_workload(&snap);
    let passes = target_queries.div_ceil(workload.len()).max(1);
    println!(
        "bench: serve_throughput — {} entities served, workload of {} queries x {passes} passes",
        snap.classes().map(|c| c.len()).sum::<usize>(),
        workload.len(),
    );

    // Warm-up pass (page-in, pool spin-up).
    let warm = serving.reader();
    let _ = run_reader(&warm, &workload, 1);

    // Phase 1: single reader.
    let (n, secs, single_fp) = run_reader(&serving.reader(), &workload, passes);
    let single_qps = n as f64 / secs;
    println!("bench: serve_throughput single-reader  {n:>7} queries {secs:>8.3} s {single_qps:>12.1} q/s");

    // Phase 2: multi-reader, same pinned version, all readers concurrent.
    // Throughput is total queries over the slowest reader's busy time, so
    // the off-clock fingerprinting does not dilute the number.
    let per_reader: Vec<(usize, f64, u64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..readers)
            .map(|_| {
                let reader = serving.reader();
                let workload = &workload;
                scope.spawn(move || run_reader(&reader, workload, passes))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("reader thread")).collect()
    });
    let wall = per_reader.iter().map(|(_, busy, _)| *busy).fold(0.0f64, f64::max);
    let multi_total: usize = per_reader.iter().map(|(n, _, _)| n).sum();
    let multi_qps = multi_total as f64 / wall;
    println!(
        "bench: serve_throughput {readers}-reader      {multi_total:>7} queries {wall:>8.3} s {multi_qps:>12.1} q/s ({:.2}x single)",
        multi_qps / single_qps
    );

    // Determinism contract: every reader was pinned to the same (final)
    // version, so every fingerprint must be identical.
    for (i, (_, _, fp)) in per_reader.iter().enumerate() {
        assert_eq!(
            *fp, single_fp,
            "reader {i} diverged from the single-reader results on the same version"
        );
    }

    // Phase 3: readers during ingest — re-serve the same corpus under
    // shifted table ids while the readers hammer the evolving KB.
    let shifted = Corpus::from_tables(
        corpus
            .tables()
            .iter()
            .map(|t| {
                let mut t = t.clone();
                t.id = TableId(t.id.raw() + 1_000_000);
                t
            })
            .collect(),
    );
    let (ingest_secs, during): (f64, Vec<(usize, f64, u64)>) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..readers)
            .map(|_| {
                let reader = serving.reader();
                let workload = &workload;
                scope.spawn(move || run_reader(&reader, workload, passes))
            })
            .collect();
        let ingest_start = Instant::now();
        for batch in shifted.split_into_batches(8) {
            serving.ingest(&batch).expect("shifted ids are fresh");
        }
        let ingest_secs = ingest_start.elapsed().as_secs_f64();
        (ingest_secs, handles.into_iter().map(|h| h.join().expect("reader thread")).collect())
    });
    let wall_during = during.iter().map(|(_, busy, _)| *busy).fold(0.0f64, f64::max);
    let during_total: usize = during.iter().map(|(n, _, _)| n).sum();
    let during_qps = during_total as f64 / wall_during;
    println!(
        "bench: serve_throughput during-ingest  {during_total:>7} queries {wall_during:>8.3} s {during_qps:>12.1} q/s (8 batches ingested in {ingest_secs:.3} s, final version {})",
        serving.version()
    );

    // Phase 4: sustained ingest — queries/s and resident snapshot versions
    // while a long stream of single-table micro-batches publishes. This is
    // the indefinite-ingest regime the epoch reclamation exists for: the
    // retention window (not the version count) must bound resident
    // versions throughout.
    let ingests = env_usize("LTEE_BENCH_INGESTS", 1000);
    let retention_window = match serving.retention() {
        ltee_serve::RetentionPolicy::KeepLast(n) => n,
        ltee_serve::RetentionPolicy::KeepAll => usize::MAX,
    };
    let smallest = corpus
        .tables()
        .iter()
        .min_by_key(|t| t.num_rows())
        .expect("corpus has tables")
        .clone();
    let done = std::sync::atomic::AtomicBool::new(false);
    let (ingest_stats, reader_stats): ((f64, usize), Vec<(usize, f64)>) =
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..readers)
                .map(|_| {
                    let reader = serving.reader();
                    let workload = &workload;
                    let done = &done;
                    scope.spawn(move || {
                        let (mut queries, mut busy) = (0usize, 0.0f64);
                        while !done.load(std::sync::atomic::Ordering::Relaxed) {
                            let (n, secs, _) = run_reader(&reader, workload, 1);
                            queries += n;
                            busy += secs;
                        }
                        (queries, busy)
                    })
                })
                .collect();
            let mut max_resident = 0usize;
            let sustain_start = Instant::now();
            for i in 0..ingests {
                let mut table = smallest.clone();
                table.id = TableId(10_000_000 + i as u64);
                serving
                    .ingest(&Corpus::from_tables(vec![table]))
                    .expect("sustained ids are fresh");
                max_resident = max_resident.max(serving.versions_retained());
            }
            let sustain_secs = sustain_start.elapsed().as_secs_f64();
            done.store(true, std::sync::atomic::Ordering::Relaxed);
            let per_reader = handles.into_iter().map(|h| h.join().expect("reader thread"));
            ((sustain_secs, max_resident), per_reader.collect())
        });
    let (sustain_secs, max_resident) = ingest_stats;
    // Quiescent: readers joined, so one explicit reclaim must collapse
    // residency to exactly the retention window.
    serving.reclaim();
    let final_resident = serving.versions_retained();
    let sustain_queries: usize = reader_stats.iter().map(|(n, _)| n).sum();
    let sustain_wall = reader_stats.iter().map(|(_, busy)| *busy).fold(0.0f64, f64::max);
    let sustain_qps = sustain_queries as f64 / sustain_wall.max(f64::EPSILON);
    let ingests_per_sec = ingests as f64 / sustain_secs;
    // The CI gate: resident versions bounded by the retention window — at
    // quiescence exactly, and during ingest within a transient-pin slack
    // far below anything version retention would produce.
    let resident_bounded = final_resident <= retention_window && max_resident <= retention_window + 64;
    println!(
        "bench: serve_throughput sustained      {sustain_queries:>7} queries {sustain_wall:>8.3} s {sustain_qps:>12.1} q/s ({ingests} ingests at {ingests_per_sec:.1}/s, resident max {max_resident} final {final_resident} window {retention_window}, reclaimed {})",
        serving.versions_reclaimed()
    );
    assert!(
        resident_bounded,
        "resident versions exceeded the retention window (max {max_resident}, final \
         {final_resident}, window {retention_window})"
    );

    let json = format!(
        "{{\n  \"bench\": \"serve_throughput\",\n  \"host_cores\": {host_cores},\n  \"readers\": {readers},\n  \"workload_queries\": {},\n  \"passes\": {passes},\n  \"single_reader\": {{ \"queries\": {}, \"secs\": {:.6}, \"queries_per_sec\": {:.2} }},\n  \"multi_reader\": {{ \"queries\": {multi_total}, \"secs\": {wall:.6}, \"queries_per_sec\": {multi_qps:.2}, \"speedup_vs_single\": {:.4} }},\n  \"during_ingest\": {{ \"queries\": {during_total}, \"secs\": {wall_during:.6}, \"queries_per_sec\": {during_qps:.2}, \"ingest_secs\": {ingest_secs:.6}, \"final_version\": {} }},\n  \"sustained_ingest\": {{ \"ingests\": {ingests}, \"ingest_secs\": {sustain_secs:.6}, \"ingests_per_sec\": {ingests_per_sec:.2}, \"queries\": {sustain_queries}, \"queries_per_sec\": {sustain_qps:.2}, \"retention_window\": {retention_window}, \"max_resident_versions\": {max_resident}, \"final_resident_versions\": {final_resident}, \"versions_reclaimed\": {}, \"resident_bounded\": {resident_bounded} }}\n}}\n",
        workload.len(),
        n,
        secs,
        single_qps,
        multi_qps / single_qps,
        serving.version(),
        serving.versions_reclaimed(),
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_serve.json");
    std::fs::write(path, &json).expect("write BENCH_serve.json");
    println!("bench: wrote {path}");
}
