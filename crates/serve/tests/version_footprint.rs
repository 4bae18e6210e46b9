//! Footprint gate for held versions: what a superseded snapshot version
//! costs while a reader holds it.
//!
//! A served record exists once. A version owns the label indexes of the
//! classes its batch touched, one pointer per entity of those classes, and
//! the records of the clusters its batch re-projected; every other record
//! it serves is the `Arc` an older version already holds. So what seven
//! superseded versions a client holds for repeatable reads cost is what
//! *dropping* them frees, and that must be no more than
//!
//! * the label indexes of the class slices the next batch replaced,
//! * one pointer per entity of those slices,
//! * the records the next batch retired — the previous projections of the
//!   clusters it extended, as [`IngestReport::touched_clusters`] names them,
//! * a constant per slice and per version (the `Arc` boxes, the slot table)
//!
//! — and **not one heap block per entity the batch left alone**. The bound
//! is computed from the ingest reports, never from which records happen to
//! be shared, so a publisher that copies records (as every version did
//! before records were shared) frees far more than the bound and fails.
//!
//! The workspace's counting allocator (`tests/support/counting_alloc.rs`)
//! measures what each drop frees;
//! the same allocator prices the bound's parts by rebuilding an index or
//! cloning a record under measurement. The allocator is process-global, so
//! this file holds a single `#[test]` — its own process. It counts the test
//! thread's calls only, and only inside [`measured`].

use std::mem::size_of;
use std::sync::Arc;

use ltee_core::prelude::*;
use ltee_index::LabelIndex;
use ltee_serve::{ClassSnapshot, EntityRecord, KbSnapshot, ServePipeline};
use ltee_webtables::{TableId, WebTable};

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::{measured, Heap};

/// The strong and weak counts in front of every `Arc` payload.
const ARC_HEADER: i64 = 2 * size_of::<usize>() as i64;

/// What one record holds live: its `Arc` box plus every label, fact and
/// provenance vector behind it, priced by cloning it under measurement.
/// `provenance_tables` dedups in place, so the original's table list may
/// keep one slot per row where the clone keeps one per table.
fn record_cost(record: &Arc<EntityRecord>) -> Heap {
    let (copy, mut cost) = measured(|| Arc::new(EntityRecord::clone(record)));
    drop(copy);
    cost.bytes += ((record.rows.len() - record.tables.len()) * size_of::<TableId>()) as i64;
    cost
}

/// What a slice holds live besides its records: its own `Arc` box, the
/// frozen label index (priced by building it again, the way
/// `ClassSnapshot` does) and one pointer per entity.
fn slice_cost(slice: &ClassSnapshot) -> Heap {
    let (index, mut cost) = measured(|| {
        let mut index = LabelIndex::new();
        for (pos, record) in slice.records().iter().enumerate() {
            for label in &record.labels {
                index.insert(pos as u64, label);
            }
        }
        index.into_shared()
    });
    assert_eq!(index.len(), slice.index().len());
    drop(index);
    cost += Heap { blocks: 1, bytes: size_of::<ClassSnapshot>() as i64 + ARC_HEADER, ..Heap::default() };
    cost += Heap { blocks: 1, bytes: (slice.len() * size_of::<Arc<EntityRecord>>()) as i64, ..Heap::default() };
    cost
}

/// A version's own two blocks: its `Arc` box and its class slot table.
fn version_cost() -> Heap {
    let slots = CLASS_KEYS.len() * size_of::<Option<Arc<ClassSnapshot>>>();
    Heap { blocks: 2, bytes: size_of::<KbSnapshot>() as i64 + ARC_HEADER + slots as i64, ..Heap::default() }
}

const BATCHES: usize = 12;

/// Versions the test holds at the end of the stream, the current one
/// included.
const HELD: usize = 8;

/// The figures of the issue that introduced record sharing, measured with
/// a counting allocator around `kbbench stream-ingest` seed 42 at the
/// parent commit (every version a private copy of every record of every
/// class its batch touched) and with the sharing prototype. Printed for
/// comparison only.
const KBBENCH_NOTE: &str = "kbbench stream-ingest seed 42, live heap at the end of the stream \
(1 119 entities, a batch touches ~33): parent 26.5 MB in 359 k blocks, of which the seven \
superseded versions 5.7 MB / 80 k blocks; records shared 23.5 MB / 295 k blocks";

/// Two renderings of a tiny world, the second under fresh table ids, cut
/// into [`BATCHES`] micro-batches: the later batches mostly extend
/// clusters the earlier ones founded.
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

#[test]
fn superseded_versions_cost_their_indexes_and_the_records_their_batches_retired() {
    let world = generate_world(&GeneratorConfig::new(Scale::tiny(), 2024));
    let corpus = generate_corpus(&world, &CorpusConfig::tiny());
    let golds: Vec<GoldStandard> =
        CLASS_KEYS.iter().map(|&c| GoldStandard::build(&world, &corpus, c)).collect();
    let config = PipelineConfig::fast();
    let models = train_models(&corpus, world.kb(), &golds, &config).expect("trainable corpus");

    // Hold every version as it is published, like a client that wants to
    // read it again later; then let the oldest go.
    let mut serving = ServePipeline::new(world.kb(), models, config);
    let mut held: Vec<Arc<KbSnapshot>> = Vec::new();
    let reports: Vec<IngestReport> = stream(&world, &corpus)
        .iter()
        .map(|batch| {
            let report = serving.ingest(batch).expect("fresh table ids");
            held.push(serving.snapshot());
            report
        })
        .collect();
    assert_eq!(reports.len(), BATCHES);
    let oldest = BATCHES + 1 - HELD;
    held.drain(..oldest - 1);

    // The cell frees exactly what nobody holds — then the cell and the
    // pipeline go, so the handles in `held` are the only owners.
    serving.reclaim();
    assert_eq!(serving.versions_retained(), HELD);
    assert_eq!(serving.versions_reclaimed(), oldest as u64);
    drop(serving);

    // Oldest first: dropping version v frees what the batch that published
    // v + 1 replaced — `reports[v]`, versions being 1-based.
    struct Row {
        version: usize,
        /// Entities of the class slices the next batch replaced.
        entities: usize,
        /// Records among them the next batch re-projected.
        retired: usize,
        freed: Heap,
        bound: Heap,
        /// The part of `bound` that is retired records.
        retired_cost: Heap,
        /// A private copy of every record of the replaced slices — what
        /// the version held in their place before records were shared.
        copied_cost: Heap,
    }
    let mut rows = Vec::new();
    let current = held.pop().expect("the current version");
    for (version, snapshot) in (oldest..BATCHES).zip(held) {
        let report = &reports[version];
        let mut row = Row {
            version,
            entities: 0,
            retired: 0,
            freed: Heap::default(),
            bound: version_cost(),
            retired_cost: Heap::default(),
            copied_cost: Heap::default(),
        };
        for (&class, touched) in report.touched_classes.iter().zip(&report.touched_clusters) {
            let Some(slice) = snapshot.class(class) else { continue };
            row.entities += slice.len();
            row.bound += slice_cost(slice);
            for record in touched.iter().filter_map(|&cluster| slice.record(cluster as u32)) {
                row.retired_cost += record_cost(record);
                row.retired += 1;
            }
            for record in slice.records() {
                row.copied_cost += record_cost(record);
            }
        }
        row.bound += row.retired_cost;
        let ((), freed) = measured(|| drop(snapshot));
        row.freed = Heap { blocks: -freed.blocks, bytes: -freed.bytes, ..Heap::default() };
        rows.push(row);
    }
    assert_eq!(rows.len(), HELD - 1);

    println!(
        "version footprint: {BATCHES} batches, {HELD} versions held, version {BATCHES} serves {} entities; \
         per superseded version, what dropping it frees against its bound \
         (label indexes + one pointer per entity + retired records + constants)",
        current.stats().classes.iter().map(|c| c.entities).sum::<usize>()
    );
    println!(
        "{:>7} {:>9} {:>8} {:>9} {:>9} {:>11} {:>10} {:>10} {:>13}",
        "version", "entities", "retired", "freed B", "bound B", "retired B", "freed blk", "bound blk", "all copied B"
    );
    let (mut freed, mut retired, mut copied) = (Heap::default(), Heap::default(), Heap::default());
    for row in &rows {
        println!(
            "{:>7} {:>9} {:>8} {:>9} {:>9} {:>11} {:>10} {:>10} {:>13}",
            row.version,
            row.entities,
            row.retired,
            row.freed.bytes,
            row.bound.bytes,
            row.retired_cost.bytes,
            row.freed.blocks,
            row.bound.blocks,
            row.copied_cost.bytes
        );
        freed += row.freed;
        retired += row.retired_cost;
        copied += row.copied_cost;
    }
    println!(
        "seven versions: {} B in {} blocks; their retired records {} B in {} blocks, where a \
         private copy of every record of every replaced slice is {} B in {} blocks",
        freed.bytes, freed.blocks, retired.bytes, retired.blocks, copied.bytes, copied.blocks
    );
    println!("{KBBENCH_NOTE}");

    for row in &rows {
        assert!(
            row.freed.bytes <= row.bound.bytes,
            "version {}: dropping it freed {} B, its indexes, pointers and retired records are {} B",
            row.version,
            row.freed.bytes,
            row.bound.bytes
        );
        // Exactly the blocks of the bound: none per entity left alone.
        assert_eq!(
            row.freed.blocks, row.bound.blocks,
            "version {}: heap blocks freed by dropping it",
            row.version
        );
    }
    // The gate is only worth something on a stream that retires some
    // records and leaves most alone.
    assert!(retired.blocks > 0);
    assert!(retired.bytes < copied.bytes, "{} B retired of {} B", retired.bytes, copied.bytes);
}
