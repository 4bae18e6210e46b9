//! Footprint gate for held versions, and the memory ledger's golden pin.
//!
//! A served record exists once. A version owns the label indexes of the
//! classes its batch touched, one pointer per entity of those classes, and
//! the records of the clusters its batch re-projected; every other record
//! it serves is the `Arc` an older version already holds. So what letting
//! a superseded version go frees (the ledger's drop, which the fixture
//! `tests/support/ledger.rs` checks against the counting allocator) must be
//! exactly the bound the next batch's ingest report gives, and not one
//! heap block per entity the batch left alone. Once the reader lets go, one
//! version is resident.
//!
//! The ledger while the reader holds the superseded version is pinned as
//! golden text, every component's bytes and blocks per class, the same at
//! threads {1, 4} × shards {1, 4}. The pin is for x86_64: std's hash tables
//! size their control bytes by the target's probe group, so elsewhere only
//! the allocator and structural checks run. Regenerate with
//! `LTEE_UPDATE_GOLDEN=1 cargo test --test version_footprint` and review
//! the diff.

#[path = "support/counting_alloc.rs"]
mod counting_alloc;
#[path = "support/ledger.rs"]
mod ledger;

#[test]
fn superseded_versions_cost_their_indexes_and_the_records_their_batches_retired() {
    let (world, _) = ledger::world();
    let (models, batches) = ledger::stream(&world);
    let runs = [(1, 1), (1, 4), (4, 1), (4, 4)].map(|(t, s)| ledger::run(&world, &models, &batches, t, s));
    for run in &runs {
        assert_eq!((&run.held, &run.quiescent), (&runs[0].held, &runs[0].quiescent), "the ledger moved with threads or shards");
        assert_eq!(run.held.total() - run.quiescent.total(), run.bound, "freed, by the last ingest report");
        assert_eq!(run.quiescent.row("snapshot.versions", None).items, 1, "resident versions at quiescence");
    }
    let run = &runs[0];
    assert!(0 < run.retired && run.retired < run.replaced, "{} of {} records retired", run.retired, run.replaced);

    let mut ledger = world.footprint();
    ledger.extend(run.held.clone());
    let after = run.quiescent.total();
    let text = format!("{ledger}\nafter the reader let go and the writer reclaimed: {} B in {} blocks\n", after.bytes, after.blocks);
    print!("{text}");
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/memory_ledger.txt");
    if std::env::var_os("LTEE_UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, &text).expect("fixture directory is writable");
    }
    if cfg!(target_arch = "x86_64") {
        let golden = std::fs::read_to_string(&path).expect("tests/golden/memory_ledger.txt");
        assert_eq!(text, golden, "the ledger moved; regenerate with LTEE_UPDATE_GOLDEN=1 and review the diff");
    }
}
