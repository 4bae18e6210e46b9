//! Recovery across a write-ahead-log segment reset.
//!
//! The store compresses each WAL record against the records before it in
//! its segment, and starts a new segment at every checkpoint, so a replay
//! from any retained checkpoint starts at a segment start. This drives 72
//! micro-batches through a `DurableServePipeline` that checkpoints every
//! 32, corrupts the newest checkpoint (`ckpt-64`) and checks that recovery
//! falls back to `ckpt-32` and replays batches 33 to 72 — across the reset
//! at batch 65 — into a process bit-identical to the one that never
//! stopped: the same snapshot fingerprint and the same query outputs.
//!
//! Deterministic: `Scale::tiny()` world with fixed seed 4711, two
//! renderings of its corpus.

use std::fs;

use ltee::scenario::TrainedWorld;
use ltee_core::prelude::*;
use ltee_serve::{CheckpointPolicy, DurableServePipeline, Query};
use ltee_store::{scan_wal, KbStore};
use ltee_webtables::{TableId, WebTable};

const BATCHES: usize = 72;
const CHECKPOINT_EVERY: u64 = 32;

#[test]
fn a_corrupt_newest_checkpoint_falls_back_across_the_segment_reset() {
    let tw = TrainedWorld::train(4711);
    // Two renderings of the world, the second under fresh table ids, so
    // the stream holds a table for every batch.
    let second = generate_corpus(&tw.world, &CorpusConfig { seed: 77, ..CorpusConfig::tiny() });
    let mut tables = tw.corpus.tables().to_vec();
    tables.extend(
        second
            .tables()
            .iter()
            .enumerate()
            .map(|(i, table)| WebTable { id: TableId(10_000 + i as u64), ..table.clone() }),
    );
    let batches = Corpus::from_tables(tables).split_into_batches(BATCHES);
    assert_eq!(batches.len(), BATCHES);
    let queries: Vec<Query> = std::iter::once(Query::Stats)
        .chain(CLASS_KEYS.iter().map(|&class| Query::List { class, offset: 0, limit: 8 }))
        .chain(CLASS_KEYS.iter().map(|&class| Query::Fuzzy { class: Some(class), label: "the".into(), k: 5 }))
        .collect();

    let dir = std::env::temp_dir().join(format!("ltee-wal-segments-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    let open = |policy| {
        DurableServePipeline::open(&dir, tw.world.kb(), tw.models.clone(), tw.config.clone(), policy)
    };
    let (mut durable, _) = open(CheckpointPolicy::EveryBatches(CHECKPOINT_EVERY)).expect("a fresh store");
    for batch in &batches {
        durable.ingest(batch).expect("fresh table ids");
    }
    let (fingerprint, outputs) = (durable.snapshot().fingerprint(), durable.snapshot().execute_batch(&queries));
    drop(durable);

    // Checkpoints 32 and 64 are retained, and the log holds what the older
    // one does not cover, as two segments: from 33, and from 65.
    for applied in [32, 64] {
        assert!(KbStore::checkpoint_path(&dir, applied).exists(), "checkpoint {applied}");
    }
    let scan = scan_wal(&fs::read(KbStore::wal_path(&dir)).unwrap()).expect("the log scans");
    assert_eq!(scan.records.iter().map(|r| r.seq).collect::<Vec<_>>(), (33..=72).collect::<Vec<_>>());
    let starts: Vec<u64> = scan.records.iter().filter(|r| r.dictionary == 0).map(|r| r.seq).collect();
    assert_eq!(starts, [33, 65]);

    // Corrupt the newest checkpoint: recovery falls back to 32 and replays
    // 40 batches through the reset.
    let newest = KbStore::checkpoint_path(&dir, 64);
    let mut bytes = fs::read(&newest).unwrap();
    *bytes.last_mut().unwrap() ^= 0x01;
    fs::write(&newest, &bytes).unwrap();
    let (recovered, report) = open(CheckpointPolicy::Manual).expect("recovery");
    assert_eq!((report.from_checkpoint, report.replayed_batches), (Some(32), 40));
    assert_eq!(recovered.version(), BATCHES as u64);
    assert_eq!(recovered.snapshot().fingerprint(), fingerprint);
    assert_eq!(recovered.snapshot().execute_batch(&queries), outputs);
    fs::remove_dir_all(&dir).unwrap();
}

/// Tables with empty, non-ASCII and bracketed cells, repeated across
/// columns, tables and batches, come back from the log cell for cell:
/// each batch is one WAL record of one segment, compressed against the
/// batch before it.
#[test]
fn cells_the_generator_never_writes_round_trip_through_the_log() {
    let table = |id: u64, shift: usize| {
        let cells = ["", "Ça plane pour moi (chanson)", "北京 [2]", "İstanbul", "", "(1970)", "[]"];
        let column = |header: &str, from: usize| ltee_webtables::Column {
            header: header.into(),
            cells: cells.iter().cycle().skip(from + shift).take(5).collect(),
        };
        WebTable { id: TableId(id), columns: vec![column("titre", 0), column("année", 2)] }
    };
    let batches = [Corpus::from_tables(vec![table(1, 0), table(2, 1)]), Corpus::from_tables(vec![table(3, 2)])];
    let dir = std::env::temp_dir().join(format!("ltee-wal-odd-cells-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    let mut store = KbStore::open(&dir, 7).expect("a fresh store").store;
    for batch in &batches {
        store.append_batch(&ltee_core::checkpoint::encode_corpus(batch)).expect("an append");
    }
    drop(store);
    let recovery = KbStore::open(&dir, 7).expect("the store reopens");
    assert_eq!(recovery.tail.len(), batches.len());
    for (record, batch) in recovery.tail.iter().zip(&batches) {
        let replayed = ltee_core::checkpoint::decode_corpus(&record.payload).expect("a decodable batch");
        assert_eq!(replayed.tables(), batch.tables());
    }
    fs::remove_dir_all(&dir).expect("the store directory is removable");
}
