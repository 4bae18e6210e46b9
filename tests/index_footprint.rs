//! Footprint gate: what one indexed label costs in heap blocks and bytes,
//! for the sealed [`LabelIndex`](ltee_index::LabelIndex) of each KB class
//! and of each served class, read off the memory ledger of the shared
//! fixture (`tests/support/ledger.rs`, which checks the ledger against the
//! counting allocator). Both are sealed by `LabelIndex::into_shared`, so
//! they share one layout.
//!
//! Every table under a label is a flat vector whose size depends on counts
//! only, never on hash seeds, and no entry owns a heap block of its own
//! (its tokens sit in the index's one token arena). So the **block count
//! is asserted exactly**, a constant however many labels an index holds,
//! and the **bytes are held under a ceiling**.

use ltee_core::prelude::*;
use ltee_kb::FootprintRow;

#[path = "support/counting_alloc.rs"]
mod counting_alloc;
#[path = "support/ledger.rs"]
mod ledger;

/// Flat tables behind a sealed index, each one heap block however many
/// labels it holds: the entry vector and the token arena; the interner's
/// arena, span table and probe table; span table + slot arena for the
/// postings and again for the exact-label blocks; the token-length table
/// and the deletion neighborhood's bucket and node vectors.
const TABLE_BLOCKS: usize = 2 + 3 + 2 + 2 + 3;

/// Ceilings on bytes per label, a few percent above the most any class
/// measures: 250.1 over a KB class's thousands of labels, 387.4 over a
/// served class's few hundred, where the tables' fixed part weighs more.
const KB_BYTES_PER_LABEL_CEILING: f64 = 258.0;
const SERVED_BYTES_PER_LABEL_CEILING: f64 = 400.0;

#[test]
fn blocks_per_label_are_exact_and_bytes_per_label_stay_under_the_ceiling() {
    let (world, _) = ledger::world();
    let (models, batches) = ledger::stream(&world);
    let run = ledger::run(&world, &models, &batches, 1, 1);
    let per_label = |row: FootprintRow| row.heap.bytes as f64 / row.items as f64;
    for class in CLASS_KEYS {
        let kb = run.quiescent.row("kb.label_index", Some(class));
        assert_eq!(kb.heap.blocks, TABLE_BLOCKS, "{class}: KB index blocks");
        let served = run.quiescent.row("snapshot.index", Some(class));
        assert_eq!(served.heap.blocks, TABLE_BLOCKS, "{class}: served index blocks");
        println!("{class}: {:.1} B per label in the KB, {:.1} served", per_label(kb), per_label(served));
        assert!(per_label(kb) <= KB_BYTES_PER_LABEL_CEILING, "{class}: KB index bytes");
        assert!(per_label(served) <= SERVED_BYTES_PER_LABEL_CEILING, "{class}: served index bytes");
    }
}
