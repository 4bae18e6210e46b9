//! Class-sharded ingest & serve throughput: micro-batch ingest rows/second
//! and fuzzy-lookup queries/second at 1, 2 and 4 shards, plus the
//! cross-shard determinism proof. Written to `BENCH_shard.json` at the
//! repository root.
//!
//! Runs as a plain binary (`harness = false`):
//!
//! ```sh
//! cargo bench -p ltee-bench --bench shard_throughput
//! ```
//!
//! Environment knobs: `LTEE_BENCH_QUERIES` (target fuzzy query count per
//! shard setting, default 2000) and `LTEE_BENCH_BATCHES` (micro-batch
//! count for the ingest phase, default 8).
//!
//! As a side effect the bench re-checks the sharding keystone: the
//! snapshot fingerprint and the fuzzy result fingerprint must be
//! bit-identical at every shard count — a `ShardPlan` is pure execution
//! placement, never a unit of state.
//!
//! Note: shards parallelise across *classes*, so on a single-core host
//! (or with `LTEE_NUM_THREADS=1`) the 2- and 4-shard numbers cannot beat
//! the 1-shard number; `host_cores` and `single_core_host` are recorded
//! precisely so per-host scaling (or its absence) stays interpretable.

use std::time::Instant;

use ltee_bench::support::env_usize;
use ltee_core::prelude::*;
use ltee_serve::{Query, QueryOutput, ServePipeline};

/// Fuzzy-only workload over everything the snapshot serves: typo'd
/// (prefix-mangled) labels with class `None`, so every query fans out
/// across all class indexes — the sharded serve path under test.
fn build_fuzzy_workload(snap: &ltee_serve::KbSnapshot) -> Vec<Query> {
    let mut queries = Vec::new();
    for slice in snap.classes() {
        for record in slice.records() {
            let label = record.canonical_label();
            let typo: String = label.chars().skip(1).collect();
            if !typo.is_empty() {
                queries.push(Query::Fuzzy { class: None, label: typo, k: 5 });
            }
        }
    }
    queries
}

/// FNV-1a over the complete `Debug` rendering — any divergence in ids,
/// scores, labels or ordering changes the value.
fn fingerprint(outputs: &[QueryOutput]) -> u64 {
    ltee_ml::codec::fnv1a64(format!("{outputs:?}").as_bytes())
}

struct ShardRun {
    shards: usize,
    rows: usize,
    ingest_secs: f64,
    rows_per_sec: f64,
    queries: usize,
    fuzzy_secs: f64,
    queries_per_sec: f64,
    snapshot_fp: u64,
    result_fp: u64,
}

fn main() {
    let world = generate_world(&GeneratorConfig::new(Scale::tiny(), 4242));
    let corpus = generate_corpus(&world, &CorpusConfig::tiny());
    let golds: Vec<GoldStandard> =
        CLASS_KEYS.iter().map(|&c| GoldStandard::build(&world, &corpus, c)).collect();

    let host_cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let target_queries = env_usize("LTEE_BENCH_QUERIES", 2000);
    let num_batches = env_usize("LTEE_BENCH_BATCHES", 8);

    let base_config = PipelineConfig::fast();
    let models =
        train_models(&corpus, world.kb(), &golds, &base_config).expect("trainable corpus");

    let mut runs: Vec<ShardRun> = Vec::new();
    for shards in [1usize, 2, 4] {
        let config =
            PipelineConfig { shards: ShardPlan::Shards(shards), ..base_config.clone() };
        let mut serving = ServePipeline::new(world.kb(), models.clone(), config);

        // Every shard setting ingests the identical micro-batch stream
        // into a pipeline that starts empty.
        let batches = corpus.split_into_batches(num_batches);

        let ingest_start = Instant::now();
        let mut rows = 0usize;
        for batch in &batches {
            rows += serving.ingest(batch).expect("fresh table ids").rows;
        }
        let ingest_secs = ingest_start.elapsed().as_secs_f64();

        let snap = serving.snapshot();
        let snapshot_fp = snap.fingerprint();
        let workload = build_fuzzy_workload(&snap);
        let passes = target_queries.div_ceil(workload.len()).max(1);

        let fuzzy_start = Instant::now();
        let mut queries = 0usize;
        let mut result_fp = 0u64;
        for _ in 0..passes {
            let outputs = snap.execute_batch(&workload);
            queries += workload.len();
            // Chain, don't XOR: XOR cancels a stable-but-wrong result to 0
            // whenever the pass count is even.
            result_fp =
                ltee_intern::fnv1a64_extend(result_fp, &fingerprint(&outputs).to_le_bytes());
        }
        let fuzzy_secs = fuzzy_start.elapsed().as_secs_f64();

        let run = ShardRun {
            shards,
            rows,
            ingest_secs,
            rows_per_sec: rows as f64 / ingest_secs,
            queries,
            fuzzy_secs,
            queries_per_sec: queries as f64 / fuzzy_secs,
            snapshot_fp,
            result_fp,
        };
        println!(
            "bench: shard_throughput shards={} ingest {:>6} rows {:>8.3} s {:>10.1} rows/s | fuzzy {:>6} queries {:>8.3} s {:>10.1} q/s",
            run.shards, run.rows, run.ingest_secs, run.rows_per_sec,
            run.queries, run.fuzzy_secs, run.queries_per_sec,
        );
        runs.push(run);
    }

    // The keystone assertion: identical snapshots and identical fuzzy
    // results at every shard count.
    let reference = &runs[0];
    for run in &runs[1..] {
        assert_eq!(
            run.snapshot_fp, reference.snapshot_fp,
            "snapshot fingerprint diverged between 1 and {} shards",
            run.shards
        );
        assert_eq!(
            run.result_fp, reference.result_fp,
            "fuzzy result fingerprint diverged between 1 and {} shards",
            run.shards
        );
    }
    println!(
        "bench: shard_throughput fingerprints identical across shard counts (snapshot {:016x}, results {:016x})",
        reference.snapshot_fp, reference.result_fp
    );

    let scaling = runs[2].rows_per_sec / runs[0].rows_per_sec;
    println!(
        "bench: shard_throughput 1->4 shard ingest scaling {:.2}x on {} core(s)",
        scaling, host_cores
    );

    let mut shard_entries = String::new();
    for (i, run) in runs.iter().enumerate() {
        if i > 0 {
            shard_entries.push_str(",\n");
        }
        shard_entries.push_str(&format!(
            "    {{ \"shards\": {}, \"ingest_rows\": {}, \"ingest_secs\": {:.6}, \"rows_per_sec\": {:.2}, \"fuzzy_queries\": {}, \"fuzzy_secs\": {:.6}, \"queries_per_sec\": {:.2}, \"snapshot_fingerprint\": \"{:016x}\", \"result_fingerprint\": \"{:016x}\" }}",
            run.shards,
            run.rows,
            run.ingest_secs,
            run.rows_per_sec,
            run.queries,
            run.fuzzy_secs,
            run.queries_per_sec,
            run.snapshot_fp,
            run.result_fp,
        ));
    }
    let json = format!(
        "{{\n  \"bench\": \"shard_throughput\",\n  \"host_cores\": {host_cores},\n  \"single_core_host\": {},\n  \"batches\": {num_batches},\n  \"shard_runs\": [\n{shard_entries}\n  ],\n  \"ingest_scaling_1_to_4\": {scaling:.4},\n  \"fingerprints_identical_across_shards\": true\n}}\n",
        host_cores == 1,
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_shard.json");
    std::fs::write(path, &json).expect("write BENCH_shard.json");
    println!("bench: wrote {path}");
}
