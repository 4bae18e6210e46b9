//! Allocation gate for the read path: a cross-class label query costs what
//! its class indexes cost, plus its hits — and runs on the caller's thread.
//!
//! * `Query::Exact { class: None }` on a served label calls the allocator
//!   exactly as often as **one** normalisation of the label, plus once for
//!   the hit vector per class that holds the label (one class, unless
//!   classes share it), plus once per hit for the label it surfaces. What
//!   it leaves live is the hit vector and those labels.
//! * `Query::Fuzzy { class: None, k: 10 }` calls it no more often than the
//!   per-class [`LabelIndex::lookup`]s it is made of, plus once for
//!   the merged hit vector and once per merged hit for its label.
//! * Neither spawns a thread at any pool size: a sampler watches
//!   `/proc/self/status` while 1 000 queries run at `Parallelism::Threads(4)`.
//!
//! The workspace's counting allocator (`tests/support/counting_alloc.rs`)
//! counts the test thread only, and only inside `measured`. It is
//! process-global, so this file holds a single `#[test]` — its own
//! process — and prints only after the last measurement.
//!
//! [`LabelIndex::lookup`]: ltee_index::LabelIndex::lookup

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;

use ltee_core::prelude::*;
use ltee_index::NormalizedLabel;
use ltee_serve::{KbSnapshot, Query, QueryOutput, ServePipeline};

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::{measured, Heap};

/// The same queries at the parent commit, where every class index
/// normalised the exact query again and returned its ids in a vector of
/// their own, and a cross-class fuzzy query opened a scoped thread per
/// class: mean allocator calls on the querying thread per query, on this
/// snapshot. Printed for comparison only.
const PARENT_CALLS_PER_QUERY: (f64, f64) = (13.00, 52.59);

const K: usize = 10;
const QUERIES_WATCHED: usize = 1_000;

/// The `Threads:` line of `/proc/self/status`; `None` off Linux.
fn process_threads() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status.lines().find_map(|line| line.strip_prefix("Threads:")?.trim().parse().ok())
}

/// A served label with its second character dropped: a fuzzy query no
/// exact block answers.
fn typo(label: &str) -> String {
    label.chars().enumerate().filter(|&(i, _)| i != 1).map(|(_, c)| c).collect()
}

fn hits(output: QueryOutput) -> Vec<ltee_serve::EntityHit> {
    match output {
        QueryOutput::Hits(hits) => hits,
        other => panic!("a label query answers with hits, got {other:?}"),
    }
}

fn snapshot() -> std::sync::Arc<KbSnapshot> {
    let config = PipelineConfig { parallelism: Parallelism::Threads(4), ..PipelineConfig::fast() };
    let TrainedWorld { world, corpus, models, config, .. } = TrainedWorld::train_with(2024, config);
    let mut serving = ServePipeline::new(world.kb(), models, config);
    for batch in corpus.split_into_batches(4) {
        serving.ingest(&batch).expect("fresh table ids");
    }
    serving.snapshot()
}

#[test]
fn cross_class_queries_allocate_what_their_indexes_do_and_spawn_no_thread() {
    let snap = snapshot();
    // The pool size the ingest above installed; said again because the
    // queries below are what must ignore it.
    Parallelism::Threads(4).install();
    assert_eq!(snap.classes().count(), CLASS_KEYS.len(), "every class serves entities");
    let labels: Vec<String> = snap
        .classes()
        .flat_map(|slice| slice.records().iter().map(|record| record.canonical_label().to_string()))
        .filter(|label| label.chars().count() > 3)
        .collect();
    assert!(labels.len() >= 60, "{} served labels", labels.len());

    // Exact: one normalisation, one hit vector per holding class, a label
    // per hit.
    let (mut exact_calls, mut exact_hits, mut shared) = (0u64, 0usize, 0usize);
    for label in &labels {
        let (normalized, normalisation) = measured(|| NormalizedLabel::new(label));
        drop(normalized);
        let query = Query::Exact { class: None, label: label.clone() };
        let (output, cost) = measured(|| snap.execute(&query));
        let found = hits(output);
        assert!(!found.is_empty(), "{label:?} is served");
        let mut holders: Vec<_> = found.iter().map(|hit| hit.entity.class).collect();
        holders.dedup();
        assert_eq!(
            cost.calls,
            normalisation.calls + (holders.len() + found.len()) as u64,
            "{label:?}: {} hits in {} classes, one normalisation is {} calls",
            found.len(),
            holders.len(),
            normalisation.calls
        );
        assert_eq!(cost.blocks, 1 + found.len() as i64, "{label:?}: the hit vector and a label per hit");
        exact_calls += cost.calls;
        exact_hits += found.len();
        shared += usize::from(holders.len() > 1);
    }

    // Fuzzy: the per-class lookups, the merged vector, a label per match.
    let (mut fuzzy_calls, mut lookup_calls, mut fuzzy_matches) = (0u64, 0u64, 0usize);
    let typos: Vec<String> = labels.iter().map(|label| typo(label)).collect();
    for label in &typos {
        let mut lookups = Heap::default();
        let mut matches = 0;
        for slice in snap.classes() {
            let (found, cost) = measured(|| slice.index().lookup(label, K));
            matches += found.len();
            lookups += cost;
        }
        let query = Query::Fuzzy { class: None, label: label.clone(), k: K };
        let (output, cost) = measured(|| snap.execute(&query));
        let found = hits(output);
        assert_eq!(found.len(), matches.min(K), "{label:?}: the merge keeps the best {K}");
        assert!(
            cost.calls <= lookups.calls + 1 + matches as u64,
            "{label:?}: {} allocator calls, its lookups make {} and match {matches}",
            cost.calls,
            lookups.calls
        );
        assert_eq!(cost.blocks, 1 + found.len() as i64, "{label:?}: the hit vector and a label per hit");
        fuzzy_calls += cost.calls;
        lookup_calls += lookups.calls;
        fuzzy_matches += matches;
    }
    assert!(fuzzy_matches > typos.len(), "the typo'd labels match too little to tell");

    // No thread per query: the sampler reads the process's thread count
    // for as long as the queries run, and never sees it move.
    let queries: Vec<Query> = (0..QUERIES_WATCHED)
        .map(|i| match i % 2 {
            0 => Query::Exact { class: None, label: labels[i % labels.len()].clone() },
            _ => Query::Fuzzy { class: None, label: typos[i % typos.len()].clone(), k: K },
        })
        .collect();
    let (started, done) = (Barrier::new(2), AtomicBool::new(false));
    let watched = std::thread::scope(|scope| {
        let sampler = scope.spawn(|| {
            let baseline = process_threads();
            started.wait();
            let (mut samples, mut steady) = (0usize, true);
            while !done.load(Ordering::Acquire) {
                steady &= process_threads() == baseline;
                samples += 1;
            }
            (baseline, samples, steady)
        });
        started.wait();
        for query in &queries {
            std::hint::black_box(snap.execute(query));
        }
        done.store(true, Ordering::Release);
        sampler.join().expect("the sampler only reads /proc")
    });

    let per = |calls: u64, queries: usize| calls as f64 / queries as f64;
    println!(
        "read path allocations, {} served labels in {} classes ({shared} shared between classes), k = {K}",
        labels.len(),
        CLASS_KEYS.len()
    );
    println!("{:<28} {:>12} {:>12} {:>14}", "allocator calls per query", "parent", "now", "hits or matches");
    println!(
        "{:<28} {:>12.2} {:>12.2} {:>14.2}",
        "exact, all classes",
        PARENT_CALLS_PER_QUERY.0,
        per(exact_calls, labels.len()),
        exact_hits as f64 / labels.len() as f64
    );
    println!(
        "{:<28} {:>12.2} {:>12.2} {:>14.2}",
        "fuzzy, all classes",
        PARENT_CALLS_PER_QUERY.1,
        per(fuzzy_calls, typos.len()),
        fuzzy_matches as f64 / typos.len() as f64
    );
    println!("{:<28} {:>12} {:>12.2}", "  of which index lookups", "", per(lookup_calls, typos.len()));
    match watched {
        (Some(threads), samples, steady) => {
            println!("{QUERIES_WATCHED} queries at Threads(4): {threads} process threads in each of {samples} samples");
            assert!(samples > 0 && steady, "the process's thread count moved while queries ran");
        }
        (None, ..) => println!("no /proc/self/status here: thread count not watched"),
    }
}
