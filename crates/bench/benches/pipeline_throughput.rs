//! Pipeline throughput bench: rows/second through the full two-iteration
//! pipeline at 1 worker thread versus N worker threads, written to
//! `BENCH_pipeline.json` at the repository root.
//!
//! Runs as a plain binary (`harness = false`):
//!
//! ```sh
//! cargo bench -p ltee-bench --bench pipeline_throughput
//! ```
//!
//! The N-thread count comes from `LTEE_BENCH_THREADS`, defaulting to the
//! machine's available parallelism (at least 2, so the work-stealing pool is
//! exercised even on a single-core host). The determinism contract makes
//! the two configurations produce bit-identical pipeline output, which this
//! bench re-checks as a side effect.

use std::time::Instant;

use ltee_core::prelude::*;

const SAMPLES: usize = 3;

struct Measurement {
    threads: usize,
    secs_per_run: f64,
    rows_per_sec: f64,
}

fn measure(pipeline: &Pipeline, corpus: &Corpus, rows: usize, threads: usize) -> (Measurement, usize) {
    // The thread pin lives inside the pipeline's own config (Pipeline::run
    // installs it); pinning only here would be undone by that install.
    // Warm-up run, also used for the output fingerprint.
    let output = pipeline.run(corpus).expect("non-empty corpus");
    let fingerprint: usize = output
        .classes
        .iter()
        .map(|c| c.clusters.len() + 31 * c.results.iter().filter(|r| r.outcome.is_new()).count())
        .sum();
    let mut best = f64::INFINITY;
    for _ in 0..SAMPLES {
        let start = Instant::now();
        let out = pipeline.run(corpus).expect("non-empty corpus");
        let secs = start.elapsed().as_secs_f64();
        assert!(!out.classes.is_empty());
        best = best.min(secs);
    }
    (Measurement { threads, secs_per_run: best, rows_per_sec: rows as f64 / best }, fingerprint)
}

fn main() {
    let world = generate_world(&GeneratorConfig::new(Scale::tiny(), 501));
    let corpus = generate_corpus(&world, &CorpusConfig::tiny());
    let golds: Vec<GoldStandard> =
        CLASS_KEYS.iter().map(|&c| GoldStandard::build(&world, &corpus, c)).collect();
    let rows = corpus.total_rows();

    let host_cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let multi_threads = std::env::var("LTEE_BENCH_THREADS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(|| host_cores.max(2));

    // One pipeline per thread count: Pipeline::run installs its config's
    // parallelism, so the pin must live in the config itself. The trained
    // models are thread-count independent (determinism contract), so train
    // once and share them.
    let config_for = |threads: usize| PipelineConfig {
        parallelism: Parallelism::Threads(threads),
        ..PipelineConfig::fast()
    };
    let models = train_models(&corpus, world.kb(), &golds, &config_for(multi_threads)).expect("trainable corpus");
    let pipeline_single = Pipeline::new(world.kb(), models.clone(), config_for(1));
    let pipeline_multi = Pipeline::new(world.kb(), models, config_for(multi_threads));

    let (single, fp1) = measure(&pipeline_single, &corpus, rows, 1);
    let (multi, fp_n) = measure(&pipeline_multi, &corpus, rows, multi_threads);
    assert_eq!(fp1, fp_n, "determinism contract violated across thread counts");

    let speedup = single.secs_per_run / multi.secs_per_run;
    for m in [&single, &multi] {
        println!(
            "bench: pipeline_throughput threads={:<2} {:>8.3} s/run {:>10.1} rows/s",
            m.threads, m.secs_per_run, m.rows_per_sec
        );
    }
    println!("bench: pipeline_throughput speedup {speedup:.2}x ({host_cores} host cores)");

    let json = format!(
        "{{\n  \"bench\": \"pipeline_throughput\",\n  \"corpus_rows\": {rows},\n  \"host_cores\": {host_cores},\n  \"samples\": {SAMPLES},\n  \"threads_1\": {{ \"threads\": 1, \"secs_per_run\": {:.6}, \"rows_per_sec\": {:.2} }},\n  \"threads_n\": {{ \"threads\": {}, \"secs_per_run\": {:.6}, \"rows_per_sec\": {:.2} }},\n  \"speedup\": {speedup:.4}\n}}\n",
        single.secs_per_run,
        single.rows_per_sec,
        multi.threads,
        multi.secs_per_run,
        multi.rows_per_sec,
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_pipeline.json");
    std::fs::write(path, &json).expect("write BENCH_pipeline.json");
    println!("bench: wrote {path}");
}
