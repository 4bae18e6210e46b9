//! Pin of the generated world and the knowledge base it projects.
//!
//! Every corpus, gold standard, model and benchmark digest of the
//! repository starts from `generate_world`, so its output is pinned here
//! directly: the FNV-1a64 of a canonical text rendering of three worlds —
//! the benchmark's (`Scale::profiling()`, seed 4242), the default
//! configuration and the tiny world at seed 7. A change to the world's
//! layout must leave these constants alone; a change that moves one is a
//! change to the world, and every downstream pin moves with it.
//!
//! Per entity the rendering holds its id, class, labels, ground-truth facts
//! in property-name order, popularity, flags, homonym group and KB
//! instance; per KB instance its id, class, labels, abstract, page links
//! and facts. Values render as `Debug`, which spells every `f64` exactly.

use std::fmt::Write;

use ltee_intern::fnv1a64;
use ltee_kb::{generate_world, GeneratorConfig, Scale, World};

fn render(world: &World) -> String {
    let mut out = String::new();
    for e in &world.entities {
        let _ = write!(out, "E{} {:?} {:?} {:?} |", e.id.raw(), e.class, e.canonical_label, e.alt_labels);
        for (name, value) in e.facts.iter() {
            let _ = write!(out, " {name}={value:?}");
        }
        let _ = writeln!(
            out,
            " | pop={} in_kb={} confusable={} group={} instance={:?}",
            e.popularity,
            e.in_kb,
            e.confusable,
            e.homonym_group,
            world.instance_for_entity(e.id).map(|id| id.raw()),
        );
    }
    for inst in world.kb().instances() {
        let _ = write!(
            out,
            "I{} {:?} {:?} {:?} links={} |",
            inst.id.raw(),
            inst.class,
            inst.labels().collect::<Vec<_>>(),
            inst.abstract_text(),
            inst.page_links
        );
        for fact in &inst.facts {
            let _ = write!(out, " {}={:?}", fact.property.raw(), fact.value);
        }
        out.push('\n');
    }
    out
}

fn world_fnv(config: &GeneratorConfig) -> u64 {
    fnv1a64(render(&generate_world(config)).as_bytes())
}

#[test]
fn the_benchmark_world_is_pinned() {
    assert_eq!(world_fnv(&GeneratorConfig::new(Scale::profiling(), 4242)), 0x8bdb87d8913d420e);
}

#[test]
fn the_default_world_is_pinned() {
    assert_eq!(world_fnv(&GeneratorConfig::default()), 0xeb7530b5b76df81c);
}

#[test]
fn the_tiny_world_is_pinned() {
    assert_eq!(world_fnv(&GeneratorConfig::new(Scale::tiny(), 7)), 0xc50a69e253bf3f22);
}
