//! Delta publication against its oracle.
//!
//! [`ServePipeline::ingest`] builds a touched class's next slice on top of
//! the previous one ([`ClassSnapshot::build_delta`]): a pointer copy for
//! every cluster the batch left alone, a fresh projection for the rest.
//! Two things must hold at every version of a stream, and these tests hold
//! them on one that mixes ordinary batches with an update-only batch, a
//! batch of tables no class claims and a batch of one class only:
//!
//! * **sharing is exactly the complement of `touched_clusters`** — a record
//!   is the previous version's `Arc` iff its cluster existed and is not in
//!   the batch's touched list;
//! * **what is served is what a full build serves** — records, stats,
//!   fingerprint and every lookup equal [`ClassSnapshot::build`] /
//!   [`ServePipeline::from_pipeline`] (the path recovery takes) over the
//!   same pipeline state.
//!
//! In debug builds `build_delta` additionally asserts every record it
//! reuses against a fresh projection, so the whole suite is an oracle for
//! the first half of the second point.
//!
//! Deterministic: `Scale::tiny()` world, fixed seeds throughout.

use std::sync::Arc;

use ltee_core::prelude::*;
use ltee_webtables::{Column, TableId, WebTable};

use crate::{ClassSnapshot, KbSnapshot, Query, ServePipeline};

struct Fixture {
    world: World,
    config: PipelineConfig,
    models: TrainedModels,
    /// The stream, one corpus per micro-batch.
    batches: Vec<Corpus>,
}

/// Positions in `batches` of the three special batches.
const UPDATE_ONLY: usize = 4;
const UNMAPPED: usize = 5;
const ONE_CLASS: usize = 6;

/// `tables` under their ids shifted by `base`.
fn with_ids_from<'a>(tables: impl IntoIterator<Item = &'a WebTable>, base: u64) -> Vec<WebTable> {
    tables.into_iter().map(|table| WebTable { id: TableId(base + table.id.raw()), ..table.clone() }).collect()
}

/// A well-formed table whose labels match nothing in any class, so the
/// schema matcher maps it to no class.
fn unclaimed_table(id: u64) -> WebTable {
    let labels = ["qzxv wkjq 0x1f", "vvkq zzxj 0x2e", "jqxz kkvw 0x3d"];
    WebTable {
        id: TableId(id),
        columns: vec![
            Column { header: "zzq".into(), cells: labels.iter().map(|l| l.to_string()).collect() },
            Column { header: "xxk".into(), cells: std::iter::repeat_n("qq", labels.len()).collect() },
        ],
    }
}

fn fixture() -> Fixture {
    let TrainedWorld { world, corpus, models, config, .. } = TrainedWorld::train(2024);

    // Four ordinary batches over all classes.
    let mut batches = corpus.split_into_batches(4);
    assert_eq!(batches.len(), UPDATE_ONLY);
    // Rows the KB has seen already, under new table ids: every one joins
    // the cluster of its original, none founds one.
    batches.push(Corpus::from_tables(with_ids_from(batches[0].tables().iter().take(3), 10_000)));
    // Tables no class claims: a version is published, nothing is touched.
    batches.push(Corpus::from_tables(vec![unclaimed_table(20_000), unclaimed_table(20_001)]));
    // A second rendering of the world, first the tables of one class
    // alone, then the rest.
    let second = generate_corpus(&world, &CorpusConfig { seed: 77, ..CorpusConfig::tiny() });
    let (one_class, rest): (Vec<&WebTable>, Vec<&WebTable>) =
        second.tables().iter().partition(|t| second.truth(t.id).is_some_and(|t| t.class == ClassKey::Settlement));
    batches.push(Corpus::from_tables(with_ids_from(one_class, 30_000)));
    batches.extend(Corpus::from_tables(with_ids_from(rest, 30_000)).split_into_batches(2));

    Fixture { world, config, models, batches }
}

/// Every published version of the fixture's stream, with the report of
/// the batch that produced it, handed to `check` together with the
/// version before it and the pipeline that published both.
fn for_every_version(
    fixture: &Fixture,
    mut check: impl FnMut(usize, &ServePipeline<'_>, &KbSnapshot, &KbSnapshot, &IngestReport),
) {
    let mut serving =
        ServePipeline::new(fixture.world.kb(), fixture.models.clone(), fixture.config.clone());
    for (step, batch) in fixture.batches.iter().enumerate() {
        let before = serving.snapshot();
        let report = serving.ingest(batch).expect("fresh table ids");
        let after = serving.snapshot();
        assert_eq!(after.version(), before.version() + 1, "batch {step} publishes one version");
        match step {
            UPDATE_ONLY => assert!(
                report.new_clusters == 0 && report.updated_clusters > 0,
                "batch {step} must only extend clusters: {report:?}"
            ),
            UNMAPPED => assert!(
                report.mapped_rows == 0 && report.touched_classes.is_empty(),
                "batch {step} must map to no class: {report:?}"
            ),
            ONE_CLASS => assert_eq!(
                report.touched_classes.len(),
                1,
                "batch {step} must touch one class: {report:?}"
            ),
            _ => {}
        }
        check(step, &serving, &before, &after, &report);
    }
}

#[test]
fn records_are_shared_exactly_where_the_batch_did_not_touch() {
    let fixture = fixture();
    let (mut shared, mut fresh, mut carried_slices) = (0usize, 0usize, 0usize);
    for_every_version(&fixture, |step, _, before, after, report| {
        for &class in CLASS_KEYS.iter() {
            let (Some(old), Some(new)) = (before.class(class), after.class(class)) else {
                // A class with no previous slice has nothing to share.
                continue;
            };
            let Some(at) = report.touched_classes.iter().position(|&c| c == class) else {
                assert!(std::ptr::eq(old, new), "batch {step}: untouched {class} keeps its slice");
                carried_slices += 1;
                continue;
            };
            let touched = &report.touched_clusters[at];
            assert!(new.len() >= old.len(), "batch {step}: {class} never loses a cluster");
            for (pos, record) in new.records().iter().enumerate() {
                let Some(previous) = old.record(pos as u32) else {
                    assert!(touched.contains(&pos), "batch {step}: new cluster {pos} is touched");
                    continue;
                };
                if touched.contains(&pos) {
                    assert!(
                        !Arc::ptr_eq(previous, record),
                        "batch {step}: {class} cluster {pos} was touched and must be re-projected"
                    );
                    fresh += 1;
                } else {
                    assert!(
                        Arc::ptr_eq(previous, record),
                        "batch {step}: {class} cluster {pos} was not touched and must be shared"
                    );
                    shared += 1;
                }
            }
        }
    });
    // The stream exercised all three cases, not just one of them.
    assert!(shared > 0 && fresh > 0 && carried_slices > 0, "{shared} / {fresh} / {carried_slices}");
}

/// Every label the snapshot serves, each once, in (class, record) order.
fn served_labels(snapshot: &KbSnapshot) -> Vec<(ClassKey, String)> {
    let mut labels = Vec::new();
    for slice in snapshot.classes() {
        for record in slice.records() {
            labels.extend(record.labels.iter().map(|l| (slice.class(), l.clone())));
        }
    }
    labels.dedup();
    labels
}

#[test]
fn every_delta_published_version_equals_a_full_build() {
    let fixture = fixture();
    let kb = fixture.world.kb();
    for_every_version(&fixture, |step, serving, _, published, _| {
        // The path recovery takes: every class built in full.
        let rebuilt =
            ServePipeline::from_pipeline(kb, serving.pipeline().clone(), published.version())
                .snapshot();
        assert_eq!(published.fingerprint(), rebuilt.fingerprint(), "batch {step}: fingerprint");
        assert_eq!(published.stats(), rebuilt.stats(), "batch {step}: stats");

        for &class in CLASS_KEYS.iter() {
            let Some((entities, results)) = serving.pipeline().class_entities(class) else {
                assert!(published.class(class).is_none(), "batch {step}: {class} has no entities");
                continue;
            };
            let delta = published.class(class).expect("a class with entities is served");
            let full = ClassSnapshot::build(kb, class, entities, results);
            assert_eq!(delta.records(), full.records(), "batch {step}: {class} records");
            assert_eq!(delta.stats(), full.stats(), "batch {step}: {class} stats");
            assert_eq!(delta.index().len(), full.index().len(), "batch {step}: {class} index");
        }

        // Every served label, exact and one edit away, in its class and
        // across classes, answers identically from both snapshots.
        let mut queries = Vec::new();
        for (class, label) in served_labels(published) {
            let mut typo = label.clone();
            typo.pop();
            for class in [Some(class), None] {
                queries.push(Query::Exact { class, label: label.clone() });
                queries.push(Query::Fuzzy { class, label: typo.clone(), k: 5 });
            }
        }
        assert!(queries.len() >= 4, "batch {step}: the snapshot serves labels");
        for query in &queries {
            assert_eq!(published.execute(query), rebuilt.execute(query), "batch {step}: {query:?}");
        }
    });
}
