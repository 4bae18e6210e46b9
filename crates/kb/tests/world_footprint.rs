//! Footprint gate for the generated world and the knowledge base it
//! projects — the largest resident structure of every process that
//! generates a world, the benchmark's included.
//!
//! The workspace's counting allocator (`tests/support/counting_alloc.rs`)
//! measures live heap blocks and net live bytes after
//! `generate_world(Scale::profiling(), 4242)` (the benchmark's world), and
//! again after the KB's label indexes and property samples are built. The
//! block counts are an exact function of the world, so they are pinned;
//! the bytes are held under ceilings 2 % above what was measured. The
//! figures of the previous layout — ground truth as a `BTreeMap` with an
//! owned property-name `String` per fact, hash-mapped entity → instance and
//! instance-id lookups — measured once with this file, are printed beside
//! them.
//!
//! The allocator is process-global, so this file holds a single `#[test]`
//! — its own process. It counts the test thread's allocations only and
//! prints only after the last measurement.

use ltee_kb::{generate_world, GeneratorConfig, Scale};

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::{measured, Heap};

/// `(live blocks, net live bytes)` of the previous layout: the world, its
/// entities alone, and the label indexes plus property samples.
const PREVIOUS_WORLD: (i64, i64) = (147_610, 10_488_352);
const PREVIOUS_ENTITIES: (i64, i64) = (111_745, 7_249_449);
const PREVIOUS_DERIVED: (i64, i64) = (9_927, 2_201_359);

/// Exact live blocks, and ceilings 2 % above the measured net live bytes
/// (7 101 712, 4 312 009 and 2 201 359). An entity holds its labels, its
/// fact values' strings and one block of facts.
const WORLD_BLOCKS: i64 = 91_929;
const WORLD_BYTES_CEILING: i64 = 7_243_746;
const ENTITY_BLOCKS: i64 = 56_065;
const ENTITY_BYTES_CEILING: i64 = 4_398_249;
const DERIVED_BLOCKS: i64 = 9_927;
const DERIVED_BYTES_CEILING: i64 = 2_245_386;

#[test]
fn the_world_holds_its_pinned_blocks_within_its_byte_ceilings() {
    let (mut world, generated) = measured(|| generate_world(&GeneratorConfig::new(Scale::profiling(), 4242)));
    let ((), derived) = measured(|| {
        let kb = world.kb();
        kb.class_label_indexes();
        for property in kb.properties() {
            kb.property_value_sample(property.id);
        }
    });
    let entity_count = world.entities.len();
    let fact_count: usize = world.entities.iter().map(|e| e.facts.len()).sum();
    let instance_count = world.kb().instances().len();
    let (_, freed) = measured(|| drop(std::mem::take(&mut world.entities)));
    let entities = Heap::default() - freed;

    println!(
        "world footprint, Scale::profiling() seed 4242: {entity_count} entities, {fact_count} ground-truth facts, \
         {instance_count} KB instances"
    );
    println!("{:<34} {:>22} {:>22}", "live (blocks, bytes)", "previous layout", "this layout");
    let row = |name: &str, previous: (i64, i64), now: Heap| {
        println!("{name:<34} {:>22} {:>22}", format!("{previous:?}"), format!("{:?}", (now.blocks, now.bytes)));
    };
    row("generate_world", PREVIOUS_WORLD, generated);
    row("  of which the entities", PREVIOUS_ENTITIES, entities);
    row("label indexes + property samples", PREVIOUS_DERIVED, derived);

    assert_eq!(generated.blocks, WORLD_BLOCKS);
    assert!(generated.bytes <= WORLD_BYTES_CEILING, "{} B, ceiling {WORLD_BYTES_CEILING}", generated.bytes);
    assert_eq!(entities.blocks, ENTITY_BLOCKS);
    assert!(entities.bytes <= ENTITY_BYTES_CEILING, "{} B, ceiling {ENTITY_BYTES_CEILING}", entities.bytes);
    assert_eq!(derived.blocks, DERIVED_BLOCKS);
    assert!(derived.bytes <= DERIVED_BYTES_CEILING, "{} B, ceiling {DERIVED_BYTES_CEILING}", derived.bytes);
}
