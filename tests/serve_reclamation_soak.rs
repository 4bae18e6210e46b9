//! Long-run reclamation soak: resident memory stays at the current version
//! plus the versions readers hold — not the version count — under
//! indefinite ingest with concurrent churning readers.
//!
//! Two soaks, both measured with the workspace's counting allocator
//! (`tests/support/counting_alloc.rs`), which tracks the process's **net
//! live bytes** (allocations minus deallocations):
//!
//! 1. A raw [`SnapshotCell`] publishing ≥ 2000 synthetic constant-size
//!    snapshots (32 KiB payload each) under 4 concurrent readers. Constant
//!    payload makes the plateau crisp: at every quiescent checkpoint
//!    exactly one version must be resident and net live bytes must sit
//!    within a fixed slack of the first checkpoint — whereas retaining
//!    history would grow ~13 MiB between checkpoints.
//! 2. A real [`ServePipeline`] sustaining single-table micro-batch
//!    ingests of a hot class under 4 churning readers: resident versions
//!    stay at the current one plus those the readers hold throughout,
//!    collapse to exactly one at quiescence with every superseded version
//!    freed, and (on big runs) net-live growth stays linear in ingest
//!    count instead of the quadratic growth version retention would cost.
//!
//! `LTEE_SOAK_INGESTS` scales the pipeline soak (CI runs 2000 in
//! release); the cell soak always publishes at least 2000 versions. Runs
//! under the `LTEE_NUM_THREADS=1,4` CI matrix like the rest of the suite.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use ltee_core::prelude::*;
use ltee_serve::{KbSnapshot, ServePipeline, SnapshotCell};
use ltee_webtables::TableId;

#[path = "support/counting_alloc.rs"]
mod counting_alloc;
// Allocations minus frees on any thread: *resident* heap, the quantity
// reclamation is supposed to bound.
use counting_alloc::process_live_bytes as net_live_bytes;

/// Byte measurements are global, so the two soaks must not interleave;
/// the default parallel test runner would otherwise let one soak's
/// allocations pollute the other's plateau checkpoints.
static SERIAL: Mutex<()> = Mutex::new(());

fn soak_ingests(default: u64) -> u64 {
    std::env::var("LTEE_SOAK_INGESTS")
        .ok()
        .and_then(|value| value.parse().ok())
        .unwrap_or(default)
}

const READERS: usize = 4;

// ---------------------------------------------------------------------------
// Soak 1: raw cell, constant-size synthetic snapshots, crisp plateau.
// ---------------------------------------------------------------------------

/// 32 KiB of payload per synthetic snapshot: big enough that retained
/// history would dominate every noise source, small enough to publish
/// thousands of times in debug builds.
const PAYLOAD_SLOTS: usize = 4096;
const PAYLOAD_BYTES: i64 = (PAYLOAD_SLOTS * 8) as i64;

#[test]
fn cell_soak_memory_plateaus_at_the_retention_window() {
    let _serial = SERIAL.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    // ≥ 2000 publishes regardless of the env knob — this is the headline
    // bounded-memory proof and it is cheap.
    let publishes = soak_ingests(2000).max(2000);
    let checkpoint_every = publishes / 5;

    let baseline = net_live_bytes();
    let cell = Arc::new(SnapshotCell::new_for_tests(Arc::new(KbSnapshot::synthetic_for_soak(
        0,
        PAYLOAD_SLOTS,
    ))));

    let done = AtomicBool::new(false);
    let paused = AtomicBool::new(false);
    let parked = AtomicUsize::new(0);
    let total_loads = AtomicU64::new(0);

    let checkpoints: Vec<(usize, i64)> = std::thread::scope(|scope| {
        for _ in 0..READERS {
            let cell = Arc::clone(&cell);
            let (done, paused, parked, total_loads) = (&done, &paused, &parked, &total_loads);
            scope.spawn(move || {
                let mut last_version = 0u64;
                let mut loads = 0u64;
                loop {
                    if done.load(Ordering::SeqCst) {
                        break;
                    }
                    // Quiescent-checkpoint protocol: park (holding no
                    // snapshot) while the writer measures.
                    if paused.load(Ordering::SeqCst) {
                        parked.fetch_add(1, Ordering::SeqCst);
                        while paused.load(Ordering::SeqCst) && !done.load(Ordering::SeqCst) {
                            std::thread::yield_now();
                        }
                        parked.fetch_sub(1, Ordering::SeqCst);
                        continue;
                    }
                    let snap = cell.load();
                    // Canary: content is a pure function of the version,
                    // so freed-memory reuse trips this.
                    assert_eq!(snap.tables() as u64, snap.version() + 7, "canary mismatch");
                    assert_eq!(snap.rows() as u64, 3 * snap.version(), "canary mismatch");
                    assert!(snap.version() >= last_version, "reader versions must be monotone");
                    last_version = snap.version();
                    loads += 1;
                }
                total_loads.fetch_add(loads, Ordering::Relaxed);
            });
        }

        let mut checkpoints = Vec::new();
        for version in 1..=publishes {
            cell.publish_for_tests(Arc::new(KbSnapshot::synthetic_for_soak(
                version,
                PAYLOAD_SLOTS,
            )));
            if version % checkpoint_every == 0 {
                // Quiesce: all readers parked between loads, holding no
                // snapshot, so limbo must drain completely.
                paused.store(true, Ordering::SeqCst);
                while parked.load(Ordering::SeqCst) != READERS {
                    std::thread::yield_now();
                }
                cell.reclaim_for_tests();
                assert_eq!(
                    cell.versions_retained(),
                    1,
                    "quiescent cell must hold the current version only at v{version}"
                );
                checkpoints.push((version as usize, net_live_bytes()));
                paused.store(false, Ordering::SeqCst);
            }
        }
        done.store(true, Ordering::SeqCst);
        checkpoints
    });

    // The plateau: every quiescent checkpoint sits within a fixed slack
    // of the first, no matter how many thousands of versions were
    // published in between. Retained history would add
    // `checkpoint_every × 32 KiB` (≈ 13 MiB at the 2000-publish floor)
    // per checkpoint instead.
    let (_, first_bytes) = checkpoints[0];
    let slack = PAYLOAD_BYTES + (1 << 20);
    for &(version, bytes) in &checkpoints {
        assert!(
            (bytes - first_bytes).abs() < slack,
            "resident bytes drifted {} at v{version} (slack {slack}): memory is not \
             plateauing at the current version",
            bytes - first_bytes
        );
    }

    assert_eq!(cell.version(), publishes);
    assert_eq!(cell.versions_reclaimed(), publishes, "every superseded version must have been freed");
    assert!(
        total_loads.load(Ordering::Relaxed) > 0,
        "readers must actually have loaded during the soak"
    );

    // Teardown accounting: dropping the cell releases the current version.
    drop(cell);
    let residue = net_live_bytes() - baseline;
    assert!(
        residue.abs() < (1 << 20),
        "soak left {residue} net bytes live after teardown — something retained snapshots"
    );
}

// ---------------------------------------------------------------------------
// Soak 2: real pipeline, sustained hot-class ingest, churning readers.
// ---------------------------------------------------------------------------

/// One fresh single-table micro-batch: the smallest corpus table, re-keyed
/// to a unique id, so every ingest extends the same hot class.
fn shifted_batch(base: &ltee_webtables::WebTable, ingest: u64) -> Corpus {
    let mut table = base.clone();
    table.id = TableId(1_000_000 + ingest);
    Corpus::from_tables(vec![table])
}

#[test]
fn pipeline_soak_bounds_resident_versions_under_sustained_ingest() {
    let _serial = SERIAL.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    // Debug-mode tier-1 runs keep this modest; CI's release soak step
    // drives it to 2000 via LTEE_SOAK_INGESTS.
    let ingests = soak_ingests(if cfg!(debug_assertions) { 150 } else { 600 });

    let TrainedWorld { world, corpus, models, config, .. } = TrainedWorld::train_with(
        4711,
        PipelineConfig { parallelism: Parallelism::Auto, ..PipelineConfig::fast() },
    );
    let base_table = corpus
        .tables()
        .iter()
        .min_by_key(|t| t.num_rows())
        .expect("tiny corpus has tables")
        .clone();

    let mut serving = ServePipeline::new(world.kb(), models, config);

    let done = AtomicBool::new(false);
    let total_loads = AtomicU64::new(0);
    let quarters: Vec<i64> = std::thread::scope(|scope| {
        for _ in 0..READERS {
            let reader = serving.reader();
            let (done, total_loads) = (&done, &total_loads);
            scope.spawn(move || {
                let mut reader = reader;
                let mut last_version = 0u64;
                let mut loads = 0u64;
                while !done.load(Ordering::SeqCst) {
                    let snap = reader.snapshot();
                    assert!(snap.version() >= last_version, "reader versions must be monotone");
                    // The held snapshot stays internally consistent even
                    // once superseded.
                    assert_eq!(snap.stats().version, snap.version());
                    last_version = snap.version();
                    loads += 1;
                    // Churn: a fresh handle replaces the old one, like
                    // reconnecting clients.
                    if loads.is_multiple_of(64) {
                        reader = reader.clone();
                    }
                    std::thread::sleep(std::time::Duration::from_micros(200));
                }
                total_loads.fetch_add(loads, Ordering::Relaxed);
            });
        }

        let mut quarters = Vec::new();
        let quarter = (ingests / 4).max(1);
        for ingest in 1..=ingests {
            serving.ingest(&shifted_batch(&base_table, ingest)).expect("fresh table ids");
            // Bounded at every step: the current version plus the one
            // each reader holds. Nothing else can keep a version alive.
            let resident = serving.versions_retained();
            assert!(
                resident <= 1 + READERS,
                "resident versions unbounded: {resident} after ingest {ingest}"
            );
            if ingest % quarter == 0 {
                quarters.push(net_live_bytes());
            }
        }
        done.store(true, Ordering::SeqCst);
        quarters
    });

    assert!(total_loads.load(Ordering::Relaxed) > 0, "readers never loaded");

    // Quiescent, the readers gone: the current version remains and every
    // superseded one was freed.
    serving.reclaim();
    assert_eq!(serving.versions_retained(), 1);
    assert_eq!(serving.version(), ingests);
    assert_eq!(serving.versions_reclaimed(), ingests);

    // Growth-shape check (big runs only, where step noise has smoothed
    // out): the pipeline's own state legitimately grows ~linearly with
    // ingested rows, so per-quarter growth should be roughly flat.
    // Retaining every version would make it grow ~linearly per quarter
    // (quadratic in total) — rejected with a generous 3× margin.
    if ingests >= 1000 {
        let early = (quarters[1] - quarters[0]).max(1);
        let late = quarters[3] - quarters[2];
        assert!(
            late < early.saturating_mul(3),
            "net-live growth accelerating ({early} then {late} bytes/quarter): superseded \
             versions are accumulating"
        );
    }
}
