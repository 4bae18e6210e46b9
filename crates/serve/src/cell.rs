//! The published-snapshot cell: the current version behind an
//! `RwLock<Arc<KbSnapshot>>`, superseded ones in a writer-owned limbo.
//!
//! A reader's [`SnapshotCell::load`] takes the read lock and clones the
//! `Arc`. `publish` holds the write lock for one `mem::replace` and an
//! atomic store, so a reader may wait for that pointer replacement, but
//! never for ingest work, encoding or a free.
//!
//! A superseded version stays resident while some reader holds its `Arc`
//! (the reader's repeatable read). Limbo frees it on the first `publish`
//! or `reclaim` after the last reader drops it, so the writer, never a
//! reader's `Drop` mid-query, pays for the free. No reader can clone a
//! version that has left `current`, so a strong count of one in limbo
//! stays one. A quiescent cell whose readers hold nothing retains exactly
//! one version.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, RwLock};

use ltee_kb::HeapBytes;

use crate::snapshot::KbSnapshot;

/// Superseded versions not freed yet, and the count of those freed.
#[derive(Debug, Default)]
struct Limbo {
    versions: Vec<Arc<KbSnapshot>>,
    reclaimed: u64,
}

/// Publication point for [`KbSnapshot`] versions (see the
/// [module docs](self)). One writer publishes (the serve pipeline,
/// serialised by `&mut self` on ingest); any number of readers
/// [`load`](SnapshotCell::load) concurrently.
#[derive(Debug)]
pub struct SnapshotCell {
    current: RwLock<Arc<KbSnapshot>>,
    /// The latest published version number, for lock-free `version()`.
    latest: AtomicU64,
    limbo: Mutex<Limbo>,
}

impl SnapshotCell {
    /// Create a cell publishing `initial` as the current version.
    /// Crate-internal: only [`crate::ServePipeline`] creates and writes
    /// cells, which enforces the single writer at the type level.
    pub(crate) fn new(initial: Arc<KbSnapshot>) -> Self {
        Self {
            latest: AtomicU64::new(initial.version()),
            current: RwLock::new(initial),
            limbo: Mutex::default(),
        }
    }

    /// Test support for the reclamation soak, not API: production cells
    /// are created and written only by [`crate::ServePipeline`].
    #[doc(hidden)]
    pub fn new_for_tests(initial: Arc<KbSnapshot>) -> Self {
        Self::new(initial)
    }

    /// Test support (see [`SnapshotCell::new_for_tests`]); the caller
    /// serialises publishes as `ServePipeline::ingest`'s `&mut self` does.
    #[doc(hidden)]
    pub fn publish_for_tests(&self, snapshot: Arc<KbSnapshot>) {
        self.publish(snapshot);
    }

    /// Test support (see [`SnapshotCell::new_for_tests`]).
    #[doc(hidden)]
    pub fn reclaim_for_tests(&self) {
        self.reclaim();
    }

    /// The current snapshot. The returned `Arc` keeps that version alive
    /// for as long as the caller holds it.
    pub fn load(&self) -> Arc<KbSnapshot> {
        // Neither section under this lock can panic, so a poisoned lock
        // still guards a valid `Arc`.
        Arc::clone(&self.current.read().unwrap_or_else(PoisonError::into_inner))
    }

    fn limbo(&self) -> MutexGuard<'_, Limbo> {
        self.limbo.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Publish a new version, move the superseded one to limbo, and
    /// reclaim whatever limbo may free. Crate-internal: the only writer is
    /// [`crate::ServePipeline::ingest`] (`&mut self`), so no second
    /// publisher can break version monotonicity.
    pub(crate) fn publish(&self, snapshot: Arc<KbSnapshot>) {
        let version = snapshot.version();
        let superseded = {
            let mut current = self.current.write().unwrap_or_else(PoisonError::into_inner);
            self.latest.store(version, Ordering::Release);
            std::mem::replace(&mut *current, snapshot)
        };
        self.limbo().versions.push(superseded);
        self.reclaim();
    }

    /// Free every limbo version no reader holds. Runs on every publish;
    /// also callable explicitly (via [`crate::ServePipeline::reclaim`]) to
    /// free what readers let go of without publishing.
    pub(crate) fn reclaim(&self) {
        let mut limbo = self.limbo();
        let freed: Vec<_> =
            limbo.versions.extract_if(.., |snapshot| Arc::strong_count(snapshot) == 1).collect();
        limbo.reclaimed += freed.len() as u64;
        // Release the lock before `freed` drops the versions.
        drop(limbo);
    }

    /// The resident versions, current first, and the limbo's own table.
    pub(crate) fn resident(&self) -> (Vec<Arc<KbSnapshot>>, HeapBytes) {
        let limbo = self.limbo();
        let versions = std::iter::once(self.load()).chain(limbo.versions.iter().cloned()).collect();
        (versions, HeapBytes::buffer::<Arc<KbSnapshot>>(limbo.versions.capacity()))
    }

    /// The current version number. Lock-free (one atomic load).
    pub fn version(&self) -> u64 {
        self.latest.load(Ordering::Acquire)
    }

    /// Versions currently resident: the current one plus the limbo
    /// versions not freed yet. A quiescent cell whose readers hold nothing
    /// reports exactly 1 after a publish or reclaim.
    pub fn versions_retained(&self) -> usize {
        1 + self.limbo().versions.len()
    }

    /// Versions freed by reclamation so far.
    pub fn versions_reclaimed(&self) -> u64 {
        self.limbo().reclaimed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A snapshot whose content is a pure function of its version:
    /// `tables = version + 7`, `rows = 3 * version` (what
    /// `synthetic_for_soak` stamps). Every test that loads a snapshot
    /// re-checks this canary, so a load that materialised the wrong
    /// version's memory trips an assertion.
    fn snap(version: u64) -> Arc<KbSnapshot> {
        Arc::new(KbSnapshot::synthetic_for_soak(version, 0))
    }

    fn check_canary(s: &KbSnapshot) {
        assert_eq!(s.tables() as u64, s.version() + 7, "canary: tables drifted from version");
        assert_eq!(s.rows() as u64, 3 * s.version(), "canary: rows drifted from version");
    }

    #[test]
    fn load_returns_latest_published() {
        let cell = SnapshotCell::new(snap(0));
        assert_eq!(cell.load().version(), 0);
        cell.publish(snap(1));
        cell.publish(snap(2));
        assert_eq!(cell.load().version(), 2);
        assert_eq!(cell.version(), 2);
        assert_eq!(cell.versions_retained(), 1);
        assert_eq!(cell.versions_reclaimed(), 2);
    }

    #[test]
    fn superseded_versions_nobody_holds_are_freed_by_the_publish() {
        let cell = SnapshotCell::new(snap(0));
        for v in 1..=10 {
            cell.publish(snap(v));
            // Quiescent: the publish's own reclaim frees what it retired.
            assert_eq!(cell.versions_retained(), 1);
            assert_eq!(cell.versions_reclaimed(), v);
        }
        check_canary(&cell.load());
    }

    #[test]
    fn loaded_snapshot_outlives_supersession_and_reclamation() {
        let cell = SnapshotCell::new(snap(0));
        let pinned = cell.load();
        for v in 1..=5 {
            cell.publish(snap(v));
        }
        // Versions 1..=4 were freed; the reader's Arc keeps version 0
        // resident and intact.
        assert_eq!(cell.versions_reclaimed(), 4);
        assert_eq!(cell.versions_retained(), 2, "the current version plus the held one");
        assert_eq!(pinned.version(), 0, "a pinned version never changes under the reader");
        check_canary(&pinned);
        assert_eq!(cell.load().version(), 5);
    }

    /// A reader that drops the last handle of a superseded version does
    /// not free it: the version stays in limbo, intact, until the writer's
    /// next `publish` or `reclaim` frees it. Observed through a `Weak` to
    /// the canary snapshot, which does not count as a holder.
    #[test]
    fn the_writer_not_the_reader_frees_a_released_version() {
        for by_publish in [false, true] {
            let v0 = snap(0);
            let canary = Arc::downgrade(&v0);
            let cell = SnapshotCell::new(v0);
            let held = cell.load();
            cell.publish(snap(1));
            assert_eq!(cell.versions_reclaimed(), 0, "a held version is not freed");

            drop(held);
            let lingering = canary.upgrade().expect("the reader's drop must not free version 0");
            check_canary(&lingering);
            drop(lingering);
            assert_eq!(cell.versions_retained(), 2);

            if by_publish {
                cell.publish(snap(2));
            } else {
                cell.reclaim();
            }
            assert_eq!(canary.strong_count(), 0, "the writer frees version 0");
            assert_eq!(cell.versions_reclaimed(), 1 + u64::from(by_publish));
            assert_eq!(cell.versions_retained(), 1);
        }
    }

    #[test]
    fn concurrent_loads_during_publishes_are_consistent() {
        let cell = Arc::new(SnapshotCell::new(snap(0)));
        let (iterations, publishes) = (1000, 50);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let cell = Arc::clone(&cell);
                scope.spawn(move || {
                    let mut last = 0u64;
                    for _ in 0..iterations {
                        let s = cell.load();
                        check_canary(&s);
                        assert!(s.version() >= last, "versions must be monotonic per reader");
                        last = s.version();
                    }
                });
            }
            for v in 1..=publishes {
                cell.publish(snap(v));
            }
        });
        assert_eq!(cell.version(), publishes);
        cell.reclaim();
        assert_eq!(cell.versions_retained(), 1, "quiescent cell retains the current version only");
        assert_eq!(cell.versions_reclaimed(), publishes);
    }

    /// Seeded randomized interleaving stress: four readers load with
    /// randomized pauses and sometimes hold a version across many
    /// publishes, while the writer publishes with its own randomized
    /// pauses, reclaiming on every publish — so the writer also frees
    /// versions whose last holder let go. Every loaded and every held
    /// snapshot must carry an intact canary, every reader's version
    /// sequence must be monotone, and at quiescence every superseded
    /// version must have been freed.
    #[test]
    fn randomized_interleaving_stress_yields_no_use_after_free() {
        use rand::{Rng, SeedableRng};

        let (publishes, loads_per_reader) = (600u64, 800);

        for seed in 0..3u64 {
            let cell = Arc::new(SnapshotCell::new(snap(0)));
            std::thread::scope(|scope| {
                for reader_id in 0..4u64 {
                    let cell = Arc::clone(&cell);
                    scope.spawn(move || {
                        let mut rng =
                            rand_chacha::ChaCha8Rng::seed_from_u64(seed * 100 + reader_id);
                        let mut last = 0u64;
                        let mut held: Option<Arc<KbSnapshot>> = None;
                        for _ in 0..loads_per_reader {
                            if rng.gen_range(0..4u32) == 0 {
                                std::thread::yield_now();
                            }
                            let s = cell.load();
                            check_canary(&s);
                            assert!(s.version() >= last, "monotone versions per reader");
                            last = s.version();
                            if let Some(old) = &held {
                                check_canary(old);
                            }
                            match rng.gen_range(0..8u32) {
                                0 => {
                                    held = Some(s);
                                    std::thread::yield_now();
                                }
                                1 => held = None,
                                _ => {}
                            }
                        }
                    });
                }
                let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed.wrapping_mul(31) + 7);
                for v in 1..=publishes {
                    cell.publish(snap(v));
                    if rng.gen_range(0..3u32) == 0 {
                        std::thread::yield_now();
                    }
                }
            });
            cell.reclaim();
            assert_eq!(cell.versions_retained(), 1);
            assert_eq!(cell.versions_reclaimed(), publishes);
        }
    }

    /// The write lock covers the pointer replacement only: a thread
    /// holding the limbo lock must not stop a publish from making the new
    /// version visible to loads.
    #[test]
    fn publish_swaps_outside_the_retention_lock() {
        let cell = Arc::new(SnapshotCell::new(snap(0)));
        let lock = cell.limbo.lock().unwrap();
        let seen = std::thread::scope(|scope| {
            let cell2 = Arc::clone(&cell);
            let publisher = scope.spawn(move || cell2.publish(snap(1)));
            // Wait (bounded) for the replacement to land while *holding*
            // the limbo lock the whole time.
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
            let mut observed = 0;
            while std::time::Instant::now() < deadline {
                let v = cell.load().version();
                if v == 1 {
                    observed = v;
                    break;
                }
                std::thread::yield_now();
            }
            drop(lock); // let the publisher finish its bookkeeping
            publisher.join().expect("publisher");
            observed
        });
        assert_eq!(seen, 1, "publish must swap before (not inside) the limbo lock");
        assert_eq!(cell.versions_retained(), 1);
    }
}
