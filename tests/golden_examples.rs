//! Golden-snapshot tests for the example scenarios: each example's exact
//! stdout is pinned as a fixture under `tests/golden/`, so any change to
//! pipeline output — clustering, fusion, detection, evaluation, even
//! formatting — surfaces as a tier-1 failure with a first-difference diff.
//!
//! The examples are deterministic by construction (fixed seeds, and the
//! pipeline is bit-identical at every thread count), so the fixtures hold
//! under the `LTEE_NUM_THREADS=1,4` CI matrix.
//!
//! To regenerate after an *intentional* output change:
//! `LTEE_UPDATE_GOLDEN=1 cargo test --test golden_examples` — then review
//! the fixture diff like any other code change.
//!
//! Expected runtime: ~6 s in debug on 2 vCPU (one training run per
//! example, the paper tables' included).

use std::io::Write;
use std::path::PathBuf;

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden").join(format!("{name}.txt"))
}

/// Run one example body into a buffer and compare byte-for-byte against its
/// fixture (or rewrite the fixture under `LTEE_UPDATE_GOLDEN=1`).
fn assert_golden(name: &str, run: fn(&mut dyn Write) -> std::io::Result<()>) {
    let mut actual: Vec<u8> = Vec::new();
    run(&mut actual).expect("example body writes to an in-memory buffer");
    let path = golden_path(name);

    if std::env::var_os("LTEE_UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, &actual).expect("fixture directory is writable");
        return;
    }

    let expected = std::fs::read(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden fixture {path:?} ({e}); generate it with \
             LTEE_UPDATE_GOLDEN=1 cargo test --test golden_examples"
        )
    });
    if actual != expected {
        let actual_text = String::from_utf8_lossy(&actual);
        let expected_text = String::from_utf8_lossy(&expected);
        let diff_line = expected_text
            .lines()
            .zip(actual_text.lines())
            .position(|(e, a)| e != a)
            .map(|i| i + 1)
            .unwrap_or_else(|| expected_text.lines().count().min(actual_text.lines().count()) + 1);
        panic!(
            "example `{name}` diverged from its golden fixture at line {diff_line}.\n\
             expected (fixture): {:?}\n\
             actual            : {:?}\n\
             If the change is intentional, regenerate with \
             LTEE_UPDATE_GOLDEN=1 cargo test --test golden_examples and review the diff.",
            expected_text.lines().nth(diff_line - 1).unwrap_or("<end of fixture>"),
            actual_text.lines().nth(diff_line - 1).unwrap_or("<end of output>"),
        );
    }
}

#[test]
fn quickstart_output_is_pinned() {
    assert_golden("quickstart", ltee::examples::quickstart);
}

#[test]
fn football_players_output_is_pinned() {
    assert_golden("football_players", ltee::examples::football_players);
}

#[test]
fn settlement_gazetteer_output_is_pinned() {
    assert_golden("settlement_gazetteer", ltee::examples::settlement_gazetteer);
}

#[test]
fn song_discography_output_is_pinned() {
    assert_golden("song_discography", ltee::examples::song_discography);
}

#[test]
fn multilingual_headers_output_is_pinned() {
    assert_golden("multilingual_headers", ltee::examples::multilingual_headers);
}

#[test]
fn scientific_tables_output_is_pinned() {
    assert_golden("scientific_tables", ltee::examples::scientific_tables);
}

#[test]
fn novel_entity_stream_output_is_pinned() {
    assert_golden("novel_entity_stream", ltee::examples::novel_entity_stream);
}

#[test]
fn near_duplicate_flood_output_is_pinned() {
    assert_golden("near_duplicate_flood", ltee::examples::near_duplicate_flood);
}

#[test]
fn paper_tables_output_is_pinned() {
    // The per-table seconds are wall-clock; only the tables are pinned.
    assert_golden("paper_tables", |w| ltee::examples::paper_tables(w, &mut std::io::sink()));
}
