//! Footprint gate for the state a serving class accumulates per ingested
//! row: the PHI statistics and frozen table vectors of `StreamingPhi`, and
//! the bag-of-words vector every row context keeps, read off the memory
//! ledger of the shared fixture (`tests/support/ledger.rs`, which checks
//! the stream's growth against the counting allocator's process-wide
//! account).
//!
//! Both layouts are integer tables, so what is asserted is structural: the
//! PHI state owns no heap block per co-occurrence pair, per vector
//! component or per label string (its blocks grow with labels, at most one
//! per row, and tables only), and a `BowVector` is at most two blocks
//! whatever its term count. The bytes are held under ceilings a little
//! above what the layouts measure.

use ltee_core::prelude::*;
use ltee_kb::FootprintRow;

#[path = "support/counting_alloc.rs"]
mod counting_alloc;
#[path = "support/ledger.rs"]
mod ledger;

/// A class's PHI blocks whatever it holds: the label interner's arena,
/// span table and probe table, the occurrence table, the table of
/// adjacency lists and the table-vector map.
const PHI_TABLE_BLOCKS: usize = 3 + 1 + 1 + 1;

/// Ceilings on bytes per co-occurrence pair (statistics and frozen vectors
/// together) and per bag term, a few percent above the most any class
/// measures (30.6 and 10.5).
const PHI_BYTES_PER_PAIR_CEILING: f64 = 32.0;
const BAG_BYTES_PER_TERM_CEILING: f64 = 11.0;

#[test]
fn stream_state_is_integer_tables_with_no_block_per_pair_entry_or_term() {
    let (world, _) = ledger::world();
    let (models, batches) = ledger::stream(&world);
    let ledger = ledger::run(&world, &models, &batches, 1, 1).quiescent;
    let per_item = |row: FootprintRow| row.heap.bytes as f64 / row.items as f64;
    for class in CLASS_KEYS {
        let at = Some(class);
        let (rows, tables) = (ledger.row("stream.rows", at).items, ledger.row("stream.tables", at).items);
        let (phi, bags) = (ledger.row("stream.phi", at), ledger.row("stream.bags", at));
        println!("{class}: {:.1} B per PHI pair, {:.1} B per bag term", per_item(phi), per_item(bags));
        assert!(phi.items > 3 * phi.heap.blocks && bags.items > 2 * bags.heap.blocks, "{class}: too thin to tell");
        assert!(phi.heap.blocks <= PHI_TABLE_BLOCKS + rows + tables, "{class}: {} PHI blocks", phi.heap.blocks);
        assert!(bags.heap.blocks <= 2 * rows, "{class}: {} bag blocks for {rows} rows", bags.heap.blocks);
        assert!(per_item(phi) <= PHI_BYTES_PER_PAIR_CEILING, "{class}: PHI bytes per pair");
        assert!(per_item(bags) <= BAG_BYTES_PER_TERM_CEILING, "{class}: bag bytes per term");
    }
}
