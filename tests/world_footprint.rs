//! Footprint gate for the generated world and the knowledge base it
//! projects: the largest resident structure of every process that
//! generates a world, the benchmark's included.
//!
//! The ledger `World::footprint` and `KnowledgeBase::footprint` report must
//! equal, block for block and byte for byte, what the counting allocator
//! saw `generate_world(Scale::profiling(), 4242)` leave live, and again
//! what building the KB's label indexes and property samples added. Their
//! rows are pinned with the rest of the ledger in
//! `tests/golden/memory_ledger.txt` (`tests/version_footprint.rs`).

use ltee_kb::HeapBytes;

#[path = "support/counting_alloc.rs"]
mod counting_alloc;
#[path = "support/ledger.rs"]
mod ledger;
use counting_alloc::measured;

#[test]
fn the_world_holds_its_pinned_blocks_within_its_byte_ceilings() {
    let (world, generated) = ledger::world();
    let world_ledger = || -> HeapBytes { world.footprint().total() + world.kb().footprint().total() };
    assert_eq!(world_ledger(), ledger::heap(generated, 1), "the world: ledger against the allocator");
    let before = world_ledger();
    let ((), derived) = measured(|| {
        world.kb().class_label_indexes();
        world.kb().properties().iter().for_each(|property| _ = world.kb().property_value_sample(property.id));
    });
    assert_eq!(world_ledger() - before, ledger::heap(derived, 1), "label indexes and samples: ledger against the allocator");
    print!("{}{}", world.footprint(), world.kb().footprint());
}
