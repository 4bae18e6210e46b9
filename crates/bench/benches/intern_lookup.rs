//! Flat-scan vs pruned fuzzy-lookup scaling bench, written to
//! `BENCH_intern.json` at the repository root.
//!
//! Runs as a plain binary (`harness = false`):
//!
//! ```sh
//! cargo bench -p ltee-bench --bench intern_lookup
//! ```
//!
//! Builds generated corpora of 5k, 50k and 500k labels, indexes each
//! twice — once with the real `ltee_index::LabelIndex` (pruned candidate
//! generation: document-at-a-time merge, length-bucket upper bounds,
//! top-k early termination, bounded bit-parallel Levenshtein) and once
//! with the unpruned reference scan `ltee_index::reference` (score every
//! candidate, full sort) — and replays an identical deterministic
//! query stream (exact labels, typos, partial labels) against both.
//!
//! Before any timing, the two paths are asserted **id-for-id and
//! score-bit-for-score-bit identical** on every query at every size.
//!
//! Besides lookups/s the bench records the deterministic work counters
//! (`ltee_index::metrics`): edit-distance kernel invocations and
//! candidates scored/skipped. The scaling claim CI enforces is counter-
//! based, not wall-clock-based: edit calls per query must grow
//! sublinearly as the corpus grows 5k → 500k (×100 labels must cost far
//! less than ×100 work), recorded as `"sublinear_candidates"`.

use std::time::Instant;

use ltee_bench::support::{allocated_bytes, CountingAlloc};
use ltee_index::reference::ScanIndex;
use ltee_index::{metrics, LabelIndex};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

// ---------------------------------------------------------------------------
// Deterministic corpora + query streams.
// ---------------------------------------------------------------------------

const FIRST: [&str; 20] = [
    "tom", "peyton", "eli", "aaron", "patrick", "johnny", "maria", "paris", "london", "austin",
    "yellow", "purple", "golden", "silver", "crimson", "abbey", "penny", "norwegian", "lucy", "jude",
];
const LAST: [&str; 25] = [
    "brady", "manning", "rodgers", "mahomes", "unitas", "submarine", "road", "lane", "wood",
    "fields", "springs", "heights", "falls", "city", "creek", "song", "anthem", "ballad", "hymn",
    "march", "texas", "ohio", "kansas", "dakota", "maine",
];
const QUALIFIER: [&str; 5] = ["(Remastered)", "(Live)", "(1968)", "[Demo]", "(Texas)"];

/// `size` labels over 500 name pairs with numeric volume suffixes; every
/// seventh label gains a bracketed qualifier. All sizes share the same
/// token shape so counter curves compare like for like.
fn labels(size: usize) -> Vec<String> {
    let mut labels = Vec::with_capacity(size);
    let per_pair = size.div_ceil(FIRST.len() * LAST.len());
    let mut n = 0u64;
    'outer: for f in FIRST {
        for l in LAST {
            for suffix in 0..per_pair as u64 {
                let mut label = if suffix == 0 {
                    format!("{f} {l}")
                } else {
                    format!("{f} {l} {suffix}")
                };
                if n % 7 == 3 {
                    label = format!("{label} {}", QUALIFIER[(n % 5) as usize]);
                }
                labels.push(label);
                n += 1;
                if labels.len() == size {
                    break 'outer;
                }
            }
        }
    }
    assert_eq!(labels.len(), size, "label pool exhausted early");
    labels
}

/// `count` queries sampled evenly from the labels: exact lookups (as when
/// blocking rows against their own label set), typo'd variants and
/// partial labels.
fn queries(labels: &[String], count: usize) -> Vec<String> {
    let step = (labels.len() / count).max(1);
    let mut queries = Vec::with_capacity(count);
    for i in 0..count {
        let label = &labels[(i * step) % labels.len()];
        let q = match i % 4 {
            0 | 1 => label.clone(),
            // Typo: drop the second character.
            2 => {
                let mut chars: Vec<char> = label.chars().collect();
                chars.remove(1);
                chars.into_iter().collect()
            }
            // Partial: first token only.
            _ => label.split(' ').next().unwrap_or(label).to_string(),
        };
        queries.push(q);
    }
    queries
}

const TOP_K: usize = 8;
const SIZES: [usize; 3] = [5_000, 50_000, 500_000];

struct PathResult {
    secs: f64,
    lookups_per_sec: f64,
    bytes_allocated: u64,
    build_secs: f64,
    edit_calls: u64,
}

struct SizeResult {
    labels: usize,
    queries: usize,
    scan: PathResult,
    pruned: PathResult,
    candidates_scored: u64,
    candidates_skipped: u64,
    speedup: f64,
}

fn run_size(size: usize) -> SizeResult {
    let labels = labels(size);
    // Fewer queries at the largest size keeps the (deliberately slow)
    // scan baseline's timing pass tractable; counters are compared per
    // query so the curves stay like for like.
    let query_count = if size >= 500_000 { 400 } else { 2_000 };
    let queries = queries(&labels, query_count);

    let build_start = Instant::now();
    let mut pruned = LabelIndex::new();
    for (i, label) in labels.iter().enumerate() {
        pruned.insert(i as u64, label);
    }
    let pruned_build_secs = build_start.elapsed().as_secs_f64();

    let build_start = Instant::now();
    let scan = ScanIndex::build(labels.iter().enumerate().map(|(i, l)| (i as u64, l.as_str())));
    let scan_build_secs = build_start.elapsed().as_secs_f64();

    // Parity: every query, ids and score bits identical, before any
    // timing means anything.
    for q in &queries {
        let a = pruned.lookup(q, TOP_K);
        let (b, _) = scan.lookup(q, TOP_K);
        assert_eq!(a.len(), b.len(), "{size} labels: result count diverges for {q:?}");
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.id, y.id, "{size} labels: ids diverge for {q:?}");
            assert_eq!(
                x.score.to_bits(),
                y.score.to_bits(),
                "{size} labels: score bits diverge for {q:?} (id {})",
                x.id
            );
            assert_eq!(
                pruned.resolve(x.normalized),
                y.normalized,
                "{size} labels: surfaced label diverges for {q:?}"
            );
        }
    }

    // Warm-up (scan last so any cache warming favours the baseline).
    let mut sink = 0usize;
    for q in queries.iter().take(100) {
        sink += pruned.lookup(q, TOP_K).len() + scan.lookup(q, TOP_K).0.len();
    }

    let mut scan_calls = 0u64;
    let alloc_before = allocated_bytes();
    let start = Instant::now();
    for q in &queries {
        let (hits, edit_calls) = scan.lookup(q, TOP_K);
        sink += hits.len();
        scan_calls += edit_calls;
    }
    let scan_secs = start.elapsed().as_secs_f64();
    let scan_bytes = allocated_bytes() - alloc_before;

    metrics::reset();
    let alloc_before = allocated_bytes();
    let start = Instant::now();
    for q in &queries {
        sink += pruned.lookup(q, TOP_K).len();
    }
    let pruned_secs = start.elapsed().as_secs_f64();
    let pruned_bytes = allocated_bytes() - alloc_before;
    let counters = metrics::snapshot();

    assert!(sink > 0, "lookups returned nothing at all");

    let n = queries.len() as f64;
    let scan_lps = n / scan_secs;
    let pruned_lps = n / pruned_secs;
    let speedup = pruned_lps / scan_lps;

    println!(
        "bench: {size} labels, {} queries, top-{TOP_K}: scan {scan_lps:>10.1}/s \
         pruned {pruned_lps:>10.1}/s speedup {speedup:>6.2}x | edit calls/query \
         scan {:>8.1} pruned {:>8.1} | scored {} skipped {}",
        queries.len(),
        scan_calls as f64 / n,
        counters.edit_distance_calls as f64 / n,
        counters.candidates_scored,
        counters.candidates_skipped,
    );

    SizeResult {
        labels: size,
        queries: queries.len(),
        scan: PathResult {
            secs: scan_secs,
            lookups_per_sec: scan_lps,
            bytes_allocated: scan_bytes,
            build_secs: scan_build_secs,
            edit_calls: scan_calls,
        },
        pruned: PathResult {
            secs: pruned_secs,
            lookups_per_sec: pruned_lps,
            bytes_allocated: pruned_bytes,
            build_secs: pruned_build_secs,
            edit_calls: counters.edit_distance_calls,
        },
        candidates_scored: counters.candidates_scored,
        candidates_skipped: counters.candidates_skipped,
        speedup,
    }
}

fn path_json(p: &PathResult) -> String {
    format!(
        "{{ \"secs\": {:.6}, \"lookups_per_sec\": {:.2}, \"bytes_allocated\": {}, \
         \"build_secs\": {:.6}, \"edit_distance_calls\": {} }}",
        p.secs, p.lookups_per_sec, p.bytes_allocated, p.build_secs, p.edit_calls
    )
}

fn main() {
    let results: Vec<SizeResult> = SIZES.iter().map(|&s| run_size(s)).collect();

    let per_query = |r: &SizeResult| r.pruned.edit_calls as f64 / r.queries as f64;
    let small = &results[0];
    let large = &results[results.len() - 1];
    let growth = per_query(large) / per_query(small).max(1e-9);
    let size_growth = large.labels as f64 / small.labels as f64;
    // Sublinear: ×100 corpus must cost far less than ×100 edit work per
    // query. The factor-20 margin keeps the assertion robust to corpus
    // vocabulary growth while still rejecting any linear-scan regression.
    let sublinear = growth < size_growth / 5.0;
    let speedup_50k = results
        .iter()
        .find(|r| r.labels == 50_000)
        .map(|r| r.speedup)
        .unwrap_or(0.0);

    println!(
        "bench: edit-calls/query growth {growth:.2}x over {size_growth:.0}x labels \
         (sublinear: {sublinear}), speedup at 50k: {speedup_50k:.2}x"
    );
    assert!(
        sublinear,
        "pruned lookup lost sublinearity: {growth:.2}x edit-call growth over \
         {size_growth:.0}x label growth"
    );

    let mut sizes_json = String::new();
    for (i, r) in results.iter().enumerate() {
        if i > 0 {
            sizes_json.push_str(",\n");
        }
        sizes_json.push_str(&format!(
            "    {{ \"labels\": {}, \"queries\": {}, \"scan\": {}, \"pruned\": {}, \
             \"candidates_scored\": {}, \"candidates_skipped\": {}, \"speedup\": {:.4} }}",
            r.labels,
            r.queries,
            path_json(&r.scan),
            path_json(&r.pruned),
            r.candidates_scored,
            r.candidates_skipped,
            r.speedup
        ));
    }
    let json = format!(
        "{{\n  \"bench\": \"intern_lookup\",\n  \"top_k\": {TOP_K},\n  \"sizes\": [\n{sizes_json}\n  ],\n  \"speedup_50k\": {speedup_50k:.4},\n  \"edit_calls_per_query_growth\": {growth:.4},\n  \"sublinear_candidates\": {sublinear}\n}}\n"
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_intern.json");
    std::fs::write(path, &json).expect("write BENCH_intern.json");
    println!("bench: wrote {path}");
}
