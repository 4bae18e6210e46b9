//! The memory ledger's fixture, shared by its four gates
//! (`tests/{world,index,state,version}_footprint.rs`), dev-only support
//! pulled in beside the allocator it is checked against:
//! `#[path = "support/counting_alloc.rs"] mod counting_alloc;` and
//! `#[path = "support/ledger.rs"] mod ledger;`.
//!
//! The fixture is the benchmark's world (`Scale::profiling()`, seed 4242),
//! generated under the counting allocator, models trained on a tiny corpus,
//! and one seeded stream through [`DurableServePipeline`] with a reader
//! holding the version the last batch superseded. Every [`run`] checks the
//! ledger the pipeline reports against the allocator, so a component the
//! ledger forgets fails whichever gate ran it:
//!
//! * the stream's growth, partly built on pool workers, within
//!   [`STREAM_TOLERANCE`] of the process-wide account;
//! * what letting the held version go freed, exactly, on this thread's.
//!
//! The allocator's accounts are process-global, so each gate file holds a
//! single `#[test]`: its own process.

#![allow(dead_code)]

use std::sync::Arc;

use ltee_core::prelude::*;
use ltee_kb::{Footprint, HeapBytes, HeapSize};
use ltee_serve::{CheckpointPolicy, ClassSnapshot, DurableServePipeline, EntityRecord, KbSnapshot};

use crate::counting_alloc::{measured, process_live_bytes, Heap};

const BATCHES: usize = 12;

/// How far the stream's measured growth may stray from the ledger's, as a
/// share of it (what else is live is one ingest report).
pub const STREAM_TOLERANCE: f64 = 0.01;

/// An allocator reading as heap; `sign` −1 reads a drop as what it freed.
pub fn heap(counted: Heap, sign: i64) -> HeapBytes {
    HeapBytes { bytes: (sign * counted.bytes) as usize, blocks: (sign * counted.blocks) as usize }
}

/// The benchmark's world and what generating it left live on this thread.
pub fn world() -> (World, Heap) {
    measured(|| generate_world(&GeneratorConfig::new(Scale::profiling(), 4242)))
}

fn config(threads: usize, shards: usize) -> PipelineConfig {
    PipelineConfig { parallelism: Parallelism::Threads(threads), shards: ShardPlan::Shards(shards), ..PipelineConfig::fast() }
}

/// Models trained on a tiny corpus of `world`, and a stream of 24 tables
/// per class cut into [`BATCHES`] micro-batches.
pub fn stream(world: &World) -> (TrainedModels, Vec<Corpus>) {
    let train = generate_corpus(world, &CorpusConfig::tiny());
    let golds: Vec<GoldStandard> = CLASS_KEYS.iter().map(|&c| GoldStandard::build(world, &train, c)).collect();
    let models = train_models(&train, world.kb(), &golds, &config(1, 1)).expect("trainable corpus");
    let stream = CorpusConfig { tables_per_class: 24, max_rows: 12, seed: 77, ..CorpusConfig::tiny() };
    (models, generate_corpus(world, &stream).split_into_batches(BATCHES))
}

/// One stream's ledger, checked against the allocator.
pub struct Run {
    /// While the reader holds the version the last batch superseded.
    pub held: Footprint,
    /// Once the reader let go and the writer reclaimed.
    pub quiescent: Footprint,
    /// The version then current.
    pub current: Arc<KbSnapshot>,
    /// What the held version should cost by the last ingest report: of each
    /// class the batch touched, the slice's box, label index and pointers
    /// and the records the batch retired, plus the version's box and slots.
    pub bound: HeapBytes,
    /// Records the last batch retired, of how many in the slices it replaced.
    pub retired: usize,
    pub replaced: usize,
}

pub fn run(world: &World, models: &TrainedModels, batches: &[Corpus], threads: usize, shards: usize) -> Run {
    let at = format!("threads {threads} shards {shards}");
    let dir = std::env::temp_dir().join(format!("ltee-memory-ledger-{}-{threads}x{shards}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let policy = CheckpointPolicy::EveryBatches(5);
    let (mut durable, _) =
        DurableServePipeline::open(&dir, world.kb(), models.clone(), config(threads, shards), policy).expect("fresh store");
    let (live, ledger) = (process_live_bytes(), durable.footprint().total());
    let reader = durable.reader();
    let (mut held, mut report) = (None, IngestReport::default());
    for (i, batch) in batches.iter().enumerate() {
        if i + 1 == batches.len() {
            held = Some(reader.snapshot());
        }
        report = durable.ingest(batch).expect("fresh table ids");
    }
    let grown = process_live_bytes() - live;
    let footprint = durable.footprint();
    let ledger = (footprint.total() - ledger).bytes as i64;
    println!("{at}: the stream grew {grown} B by the allocator, {ledger} B by the ledger");
    assert!((grown - ledger).abs() as f64 <= STREAM_TOLERANCE * ledger as f64, "{at}: stream growth");

    let held = held.expect("a held version");
    let mut bound = HeapBytes::arc_box::<KbSnapshot>() + HeapBytes::buffer::<Option<Arc<ClassSnapshot>>>(CLASS_KEYS.len());
    let (mut retired, mut replaced) = (0, 0);
    for (&class, touched) in report.touched_classes.iter().zip(&report.touched_clusters) {
        let Some(slice) = held.class(class) else { continue };
        let records: Vec<_> = touched.iter().filter_map(|&cluster| slice.record(cluster as u32)).collect();
        (retired, replaced) = (retired + records.len(), replaced + slice.len());
        bound = bound + HeapBytes::arc_box::<ClassSnapshot>() + HeapBytes::buffer::<Arc<EntityRecord>>(slice.len());
        bound = bound + slice.index().heap_bytes() + records.into_iter().map(|r| r.heap_bytes()).sum();
    }
    let ((), freed) = measured(|| {
        drop(held);
        durable.reclaim();
    });
    let quiescent = durable.footprint();
    println!("{at}: letting the held version go freed {} B in {} blocks", -freed.bytes, -freed.blocks);
    assert_eq!(footprint.total() - quiescent.total(), heap(freed, -1), "{at}: freed, by the allocator");
    let current = durable.snapshot();
    drop(durable);
    let _ = std::fs::remove_dir_all(&dir);
    Run { held: footprint, quiescent, current, bound, retired, replaced }
}
