//! Read-side per-layer measurements of the traced run: single-client,
//! kind-homogeneous blocks against the final snapshot, timed from the
//! benchmark's side of each layer's public entry points.

use std::hint::black_box;
use std::time::Instant;

use ltee_index::{metrics as index_metrics, LabelIndex};
use ltee_kb::CLASS_KEYS;
use ltee_serve::{EntityRef, KbSnapshot, Query, SnapshotReader};
use ltee_text::{bounded_levenshtein, normalize_label};
use rand::Rng;

use crate::load::with_typos;
use crate::report::Metric;
use crate::rng::stream;
use crate::trace::Recorder;

/// Mean nanoseconds per call of `op` over `n` calls, as one block span.
fn per_op(rec: &mut Recorder, span: &'static str, n: usize, mut op: impl FnMut(usize)) -> f64 {
    let (_, secs) = rec.time(span, 0, || (0..n).for_each(&mut op));
    secs * 1e9 / n.max(1) as f64
}

/// Microseconds of each call of `op` over `n` calls, under one block span.
fn each_us(
    rec: &mut Recorder,
    span: &'static str,
    n: usize,
    mut op: impl FnMut(usize),
) -> Vec<f64> {
    let open = rec.enter(span, 0);
    let samples = (0..n)
        .map(|i| {
            let start = Instant::now();
            op(i);
            start.elapsed().as_nanos() as f64 / 1e3
        })
        .collect();
    rec.exit(open);
    samples
}

/// Run every read-side block against `snap`.
pub fn read_side(
    snap: &KbSnapshot,
    reader: &SnapshotReader,
    seed: u64,
    block_ops: usize,
    rec: &mut Recorder,
) -> Vec<Metric> {
    let mut out = Vec::new();
    // Served labels in (class, record) order, and a typo'd copy of each.
    let served: Vec<(usize, u32, String)> = snap
        .classes()
        .flat_map(|class| {
            let slot = CLASS_KEYS
                .iter()
                .position(|&c| c == class.class())
                .unwrap_or(0);
            class
                .records()
                .iter()
                .enumerate()
                .map(move |(id, r)| (slot, id as u32, r.canonical_label().to_string()))
        })
        .collect();
    assert!(
        !served.is_empty(),
        "the traced run needs a populated knowledge base"
    );
    let mut rng = stream(seed, "layer-blocks");
    let mut pick =
        |n: usize| -> Vec<usize> { (0..n).map(|_| rng.gen_range(0..served.len())).collect() };
    let mut typo_rng = stream(seed, "layer-typos");
    let fuzzy_ops = (block_ops * 3 / 5).max(20);
    let fuzzy_picks = pick(fuzzy_ops);
    let typod: Vec<String> = fuzzy_picks
        .iter()
        .map(|&i| with_typos(&served[i].2, 1, &mut typo_rng))
        .collect();
    let picks = pick(block_ops);

    let exact: Vec<Query> = picks
        .iter()
        .map(|&i| Query::Exact {
            class: None,
            label: served[i].2.clone(),
        })
        .collect();
    let ns = per_op(rec, "serve.block.exact", exact.len(), |i| {
        black_box(snap.execute(&exact[i]));
    });
    out.push(Metric::of("serve.exact.ns_per_op", ns, exact.len()));

    let fetch: Vec<Query> = picks
        .iter()
        .map(|&i| Query::Entity {
            entity: EntityRef {
                class: CLASS_KEYS[served[i].0],
                id: served[i].1,
            },
        })
        .collect();
    let ns = per_op(rec, "serve.block.fetch", fetch.len(), |i| {
        black_box(snap.execute(&fetch[i]));
    });
    out.push(Metric::of("serve.fetch.ns_per_op", ns, fetch.len()));

    let paging: Vec<Query> = picks
        .iter()
        .map(|&i| Query::List {
            class: CLASS_KEYS[served[i].0],
            offset: served[i].1 as usize / 20 * 20,
            limit: 20,
        })
        .collect();
    let ns = per_op(rec, "serve.block.paging", paging.len(), |i| {
        black_box(snap.execute(&paging[i]));
    });
    out.push(Metric::of("serve.paging.ns_per_op", ns, paging.len()));

    let ns = per_op(rec, "serve.block.stats", block_ops, |_| {
        black_box(snap.execute(&Query::Stats));
    });
    out.push(Metric::of("serve.stats.ns_per_op", ns, block_ops));

    let loads = block_ops * 10;
    let ns = per_op(rec, "serve.block.snapshot_load", loads, |_| {
        black_box(reader.snapshot());
    });
    out.push(Metric::of("serve.snapshot_load_ns", ns, loads));

    let fuzzy_class: Vec<Query> = fuzzy_picks
        .iter()
        .zip(&typod)
        .map(|(&i, label)| Query::Fuzzy {
            class: Some(CLASS_KEYS[served[i].0]),
            label: label.clone(),
            k: 5,
        })
        .collect();
    let us = each_us(rec, "serve.block.fuzzy_class", fuzzy_class.len(), |i| {
        black_box(snap.execute(&fuzzy_class[i]));
    });
    out.push(Metric::percentile("serve.fuzzy_class.p50_us", &us, 50.0));
    out.push(Metric::percentile("serve.fuzzy_class.p99_us", &us, 99.0));

    // Cross-class fuzzy: the block the index work counters are read around.
    // One client, one kind, so the counter deltas are a pure function of
    // the inputs and repeat exactly.
    let fuzzy_all: Vec<Query> = typod
        .iter()
        .map(|label| Query::Fuzzy {
            class: None,
            label: label.clone(),
            k: 10,
        })
        .collect();
    let before = index_metrics::snapshot();
    let us = each_us(rec, "serve.block.fuzzy_all", fuzzy_all.len(), |i| {
        black_box(snap.execute(&fuzzy_all[i]));
    });
    let work = index_metrics::snapshot().delta_since(before);
    let fuzzy_all_p50 = Metric::percentile("serve.fuzzy_all.p50_us", &us, 50.0);
    out.push(fuzzy_all_p50.clone());
    out.push(Metric::percentile("serve.fuzzy_all.p99_us", &us, 99.0));
    out.push(Metric::percentile("serve.fuzzy_all.p999_us", &us, 99.9));
    let per_query = |count: u64| count as f64 / fuzzy_all.len() as f64;
    out.push(Metric::of(
        "index.edit_calls_per_query",
        per_query(work.edit_distance_calls),
        fuzzy_all.len(),
    ));
    out.push(Metric::of(
        "index.candidates_scored_per_query",
        per_query(work.candidates_scored),
        fuzzy_all.len(),
    ));
    out.push(Metric::of(
        "index.candidates_skipped_per_query",
        per_query(work.candidates_skipped),
        fuzzy_all.len(),
    ));
    out.push(Metric::of(
        "index.skip_ratio",
        work.candidates_skipped as f64 / work.candidates_examined().max(1) as f64,
        fuzzy_all.len(),
    ));

    // The same lookups on each class index directly: what the cross-class
    // query costs without the serve layer's fan-out and merge.
    let mut all_lookups = Vec::new();
    let mut sum_of_class_p50s = 0.0;
    for class in snap.classes() {
        let index = class.index();
        let us = each_us(rec, "index.block.lookup", typod.len(), |i| {
            black_box(index.lookup(&typod[i], 10));
        });
        sum_of_class_p50s += Metric::percentile("index.lookup_p50_us", &us, 50.0).value;
        all_lookups.extend(us);
    }
    out.push(Metric::percentile(
        "index.lookup_p50_us",
        &all_lookups,
        50.0,
    ));
    out.push(Metric::percentile(
        "index.lookup_p99_us",
        &all_lookups,
        99.0,
    ));
    out.push(Metric::of(
        "serve.fanout_us",
        fuzzy_all_p50.value - sum_of_class_p50s,
        fuzzy_all_p50.samples,
    ));

    let slices: Vec<_> = snap.classes().collect();
    let ns = per_op(rec, "index.block.exact", picks.len(), |i| {
        let (slot, _, label) = &served[picks[i]];
        let slice = slices
            .iter()
            .find(|s| s.class() == CLASS_KEYS[*slot])
            .expect("served class");
        black_box(slice.index().exact_ids(label));
    });
    out.push(Metric::of("index.exact_ns_per_op", ns, picks.len()));

    let (labels, build_s) = rec.time("index.block.build", 0, || {
        let mut labels = 0usize;
        for class in snap.classes() {
            let mut index = LabelIndex::new();
            for (id, record) in class.records().iter().enumerate() {
                for label in &record.labels {
                    index.insert(id as u64, label);
                    labels += 1;
                }
            }
            black_box(index.into_shared());
        }
        labels
    });
    out.push(Metric::of("index.build_s", build_s, labels));

    // Text kernels over served-label pairs: each label against its typo'd
    // copy (near) and against another served label (far).
    let pairs: Vec<(String, String)> = picks
        .iter()
        .enumerate()
        .map(|(n, &i)| {
            let a = normalize_label(&served[i].2);
            let b = if n % 2 == 0 {
                normalize_label(&typod[n % typod.len()])
            } else {
                normalize_label(&served[picks[(n + 1) % picks.len()]].2)
            };
            (a, b)
        })
        .collect();
    let ns = per_op(rec, "text.block.myers", pairs.len(), |i| {
        black_box(bounded_levenshtein(&pairs[i].0, &pairs[i].1, 2));
    });
    out.push(Metric::of("text.myers_ns_per_call", ns, pairs.len()));
    let ns = per_op(rec, "text.block.normalize", picks.len(), |i| {
        black_box(normalize_label(&served[picks[i]].2));
    });
    out.push(Metric::of("text.normalize_ns_per_label", ns, picks.len()));
    out
}
