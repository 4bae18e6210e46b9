//! Footprint gate: what one indexed label costs in heap blocks and bytes,
//! for the growing [`LabelIndex`](ltee_index::LabelIndex) of each KB class
//! and the frozen [`SharedLabelIndex`](ltee_index::SharedLabelIndex) each
//! served class holds, read off the memory ledger of the shared fixture
//! (`tests/support/ledger.rs`, which checks the ledger against the counting
//! allocator).
//!
//! Every table under a label is a flat vector whose size depends on counts
//! only, never on hash seeds. So the **block count is asserted exactly**
//! (one block per entry, its token sequence, plus a constant number of
//! flat tables) and the **bytes are held under a ceiling**.

use ltee_core::prelude::*;
use ltee_kb::FootprintRow;

#[path = "support/counting_alloc.rs"]
mod counting_alloc;
#[path = "support/ledger.rs"]
mod ledger;

/// Flat tables behind a growing index, each one heap block however many
/// labels it holds: the entry vector; the interner's arena, span table
/// and probe table; span table + slot arena for the postings and again
/// for the exact-label blocks; the token-length table and the deletion
/// neighborhood's bucket and node vectors. Freezing adds the two `Arc`
/// boxes (interner, tables).
const GROWING_TABLE_BLOCKS: usize = 1 + 3 + 2 + 2 + 3;
const FROZEN_TABLE_BLOCKS: usize = GROWING_TABLE_BLOCKS + 2;

/// Ceilings on bytes per label, a few percent above the most any class
/// measures (358.3 growing, the doubling slack of vectors still being
/// pushed to included; 398.2 frozen, over a served class's few labels).
const GROWING_BYTES_PER_LABEL_CEILING: f64 = 370.0;
const FROZEN_BYTES_PER_LABEL_CEILING: f64 = 410.0;

/// An entry owns a heap block, its token sequence, unless its label
/// normalises to no tokens at all.
fn with_tokens(labels: impl IntoIterator<Item = impl AsRef<str>>) -> usize {
    labels.into_iter().filter(|label| label.as_ref().chars().any(char::is_alphanumeric)).count()
}

#[test]
fn blocks_per_label_are_exact_and_bytes_per_label_stay_under_the_ceiling() {
    let (world, _) = ledger::world();
    let (models, batches) = ledger::stream(&world);
    let run = ledger::run(&world, &models, &batches, 1, 1);
    let per_label = |row: FootprintRow| row.heap.bytes as f64 / row.items as f64;
    for class in CLASS_KEYS {
        let labels = world.kb().instances().iter().filter(|i| i.class == class).flat_map(|i| &i.labels);
        let growing = run.quiescent.row("kb.label_index", Some(class));
        assert_eq!(growing.heap.blocks, with_tokens(labels) + GROWING_TABLE_BLOCKS, "{class}: growing index blocks");
        let labels = run.current.class(class).expect("a served class").records().iter().flat_map(|r| &r.labels);
        let frozen = run.quiescent.row("snapshot.index", Some(class));
        assert_eq!(frozen.heap.blocks, with_tokens(labels) + FROZEN_TABLE_BLOCKS, "{class}: frozen index blocks");
        println!("{class}: {:.1} B per label growing, {:.1} frozen", per_label(growing), per_label(frozen));
        assert!(per_label(growing) <= GROWING_BYTES_PER_LABEL_CEILING, "{class}: growing index bytes");
        assert!(per_label(frozen) <= FROZEN_BYTES_PER_LABEL_CEILING, "{class}: frozen index bytes");
    }
}
