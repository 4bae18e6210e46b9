//! Footprint gate for the durable store: what a stream costs on disk.
//!
//! Bytes on disk per ingested row is the one cost that grows for as long
//! as the system runs, and — unlike a timing — it is an exact function of
//! the stream: the checkpoint and WAL encoders are deterministic, so the
//! same seeded stream leaves the same bytes at every thread count. This
//! gate streams two renderings of a tiny world through a
//! [`DurableServePipeline`] under [`CheckpointPolicy::EveryBatches`],
//! prints where the bytes of the store went — the newest checkpoint's raw
//! stream by section, then every file raw and as stored, compressed — and
//! holds three things:
//!
//! * the store is the regular files directly in its directory — one WAL
//!   and the two retained checkpoints, nothing else, nowhere else;
//! * every one of them is byte-identical at 1 and at 4 threads;
//! * the store's size is the pinned [`STORE_BYTES`] — 64.35 B/row, under
//!   [`BYTES_PER_ROW_CEILING`].
//!
//! A change that moves [`STORE_BYTES`] changed either what the pipeline
//! decides (the golden files move with it) or an on-disk format (which
//! needs a version bump and `tests/format_pin.rs`); re-pin it from the
//! printed table in the first case only.

use std::fs;
use std::path::{Path, PathBuf};

use ltee_core::checkpoint::{CHECKPOINT, CHECKPOINT_PAYLOAD_START};
use ltee_core::prelude::*;
use ltee_core::CheckpointLayout;
use ltee_codec::open;
use ltee_serve::{CheckpointPolicy, DurableServePipeline};
use ltee_store::wal::{WAL_HEADER_LEN, WAL_RECORD_HEADER_LEN};
use ltee_store::{scan_wal, KbStore};
use ltee_webtables::{TableId, WebTable};

/// Micro-batches in the stream: checkpoints after 4, 8 and 12 (the first
/// is retired by retention), then a two-batch WAL tail.
const BATCHES: usize = 14;
const CHECKPOINT_EVERY: u64 = 4;

/// Bytes of every file in the store at the end of the stream.
const STORE_BYTES: u64 = 16_924;

/// Store bytes per ingested row the gate allows.
const BYTES_PER_ROW_CEILING: f64 = 65.5;

/// Two renderings of a tiny world, the second under fresh table ids: the
/// repetition across tables that row clustering feeds on, and that the
/// checkpoint's string table stores once.
fn stream(world: &World, first: &Corpus) -> Vec<Corpus> {
    let second = generate_corpus(world, &CorpusConfig { seed: 77, ..CorpusConfig::tiny() });
    let mut tables = first.tables().to_vec();
    tables.extend(
        second
            .tables()
            .iter()
            .enumerate()
            .map(|(i, table)| WebTable { id: TableId(10_000 + i as u64), ..table.clone() }),
    );
    Corpus::from_tables(tables).split_into_batches(BATCHES)
}

/// Every entry of the store directory as `(file name, bytes)`, sorted by
/// name; anything that is not a regular file fails the gate.
fn store_files(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut files: Vec<(String, Vec<u8>)> = fs::read_dir(dir)
        .expect("list the store")
        .map(|entry| {
            let entry = entry.expect("store entry");
            let name = entry.file_name().to_string_lossy().into_owned();
            assert!(
                entry.file_type().expect("entry type").is_file(),
                "{name} is not a regular file: the store is flat"
            );
            (name, fs::read(entry.path()).expect("read store file"))
        })
        .collect();
    files.sort();
    files
}

/// A store file's bytes with every payload decompressed: a checkpoint's
/// envelope and raw stream, or the log's header and each record's header
/// and raw batch (which the scan decompresses).
fn raw_bytes(name: &str, bytes: &[u8]) -> usize {
    if name == "wal.log" {
        let log = scan_wal(bytes).expect("the log scans");
        WAL_HEADER_LEN
            + log.records.iter().map(|r| WAL_RECORD_HEADER_LEN + r.payload.len()).sum::<usize>()
    } else {
        let (_, raw) = open::<2>(&CHECKPOINT, bytes)
            .expect("the checkpoint opens");
        CHECKPOINT_PAYLOAD_START + raw.len()
    }
}

#[test]
fn a_stream_costs_its_pinned_bytes_on_disk_at_every_thread_count() {
    let TrainedWorld { world, corpus, models, config, .. } = TrainedWorld::train(2024);
    let batches = stream(&world, &corpus);

    let run = |threads: usize| -> (PathBuf, usize) {
        let dir = std::env::temp_dir()
            .join(format!("ltee-disk-footprint-{}-t{threads}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let config = PipelineConfig { parallelism: Parallelism::Threads(threads), ..config.clone() };
        let (mut durable, _) = DurableServePipeline::open(
            &dir,
            world.kb(),
            models.clone(),
            config,
            CheckpointPolicy::EveryBatches(CHECKPOINT_EVERY),
        )
        .expect("open a fresh store");
        for batch in &batches {
            durable.ingest(batch).expect("fresh table ids");
        }
        let rows = durable.serve().pipeline().ingested_rows();
        (dir, rows)
    };
    let (dir, rows) = run(1);
    let (dir_4, rows_4) = run(4);
    let files = store_files(&dir);
    assert_eq!(rows, rows_4);
    assert!(files == store_files(&dir_4), "the store's bytes depend on the thread count");

    // One WAL and the two retained checkpoints, by name.
    let newest = BATCHES as u64 / CHECKPOINT_EVERY * CHECKPOINT_EVERY;
    let name = |path: PathBuf| path.file_name().expect("file name").to_string_lossy().into_owned();
    let expected = [
        name(KbStore::checkpoint_path(&dir, newest - CHECKPOINT_EVERY)),
        name(KbStore::checkpoint_path(&dir, newest)),
        name(KbStore::wal_path(&dir)),
    ];
    assert_eq!(files.iter().map(|(name, _)| name.as_str()).collect::<Vec<_>>(), expected);
    let [older, newest, wal] = [0, 1, 2].map(|i| files[i].1.len());

    // Where the newest checkpoint's bytes went: re-encoding the decoded
    // file reproduces it, so the layout is that of the file on disk.
    let decoded = PipelineCheckpoint::decode(&files[1].1).expect("the newest checkpoint decodes");
    let (reencoded, layout) = decoded.view().encode_with_layout();
    assert!(reencoded == files[1].1);
    let CheckpointLayout { string_table, corpus, mapping, interner, clusters, results, .. } = layout;
    assert_eq!(CHECKPOINT_PAYLOAD_START + layout.payload_len(), newest);
    let raw_stream = layout.raw_len();
    assert_eq!(CHECKPOINT_PAYLOAD_START + raw_stream, raw_bytes(&files[1].0, &files[1].1));

    let store_bytes = (older + newest + wal) as u64;
    let per_row = store_bytes as f64 / rows as f64;
    println!(
        "disk footprint: {BATCHES} batches, {rows} rows, a checkpoint every {CHECKPOINT_EVERY}; \
         the newest checkpoint's raw stream by section, then every file raw and stored"
    );
    println!("{:<28} {:>9} {:>7}", "", "raw bytes", "share");
    let row = |what: &str, bytes: usize| {
        println!("{what:<28} {bytes:>9} {:>6.1}%", 100.0 * bytes as f64 / raw_stream as f64);
    };
    row("string table", string_table);
    row("corpus", corpus);
    row("mapping", mapping);
    row("interner", interner);
    row("clusters", clusters);
    row("results", results);
    row("class count", 1);
    println!(
        "strings: {} distinct over {} written ({:.1}%)",
        layout.strings_distinct,
        layout.strings_written,
        100.0 * layout.strings_distinct as f64 / layout.strings_written as f64
    );
    println!("{:<28} {:>9} {:>9} {:>7}", "", "raw", "stored", "stored/raw");
    let file = |what: &str, raw: usize, stored: usize| {
        println!("{what:<28} {raw:>9} {stored:>9} {:>6.1}%", 100.0 * stored as f64 / raw as f64);
    };
    let mut raw_total = 0;
    for (name, bytes) in &files {
        let raw = raw_bytes(name, bytes);
        raw_total += raw;
        file(name, raw, bytes.len());
    }
    file("store", raw_total, store_bytes as usize);
    println!(
        "{per_row:.2} B/row stored, {:.2} raw (ceiling {BYTES_PER_ROW_CEILING})",
        raw_total as f64 / rows as f64
    );

    assert_eq!(store_bytes, STORE_BYTES, "the store's size moved: see the module docs");
    assert!(per_row <= BYTES_PER_ROW_CEILING, "{per_row:.2} B/row");

    fs::remove_dir_all(&dir).expect("remove the store");
    fs::remove_dir_all(&dir_4).expect("remove the store");
}
