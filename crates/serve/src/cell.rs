//! The published-snapshot cell: wait-free reads, epoch-reclaimed history.
//!
//! [`SnapshotCell`] is a hand-rolled `Arc` swap. The constraint it is
//! built for: **readers must be wait-free** — a query must never block on
//! (or even contend a lock with) an ingest publishing the next version.
//! `RwLock<Arc<KbSnapshot>>` fails that bar (a writer stalls every
//! reader); this cell's [`SnapshotCell::load`] is a handful of
//! uncontended atomic operations, unconditionally: pin the epoch, load
//! the pointer, bump the refcount, unpin.
//!
//! ## The hazard, and the epoch scheme that closes it
//!
//! The classic hazard of a raw `AtomicPtr<T>` swap is the load/increment
//! race: a reader loads the pointer, the writer swaps the value out and
//! frees it, the reader increments a freed refcount. Earlier revisions of
//! this cell sidestepped the hazard by never freeing anything — every
//! superseded version stayed resident for the cell's lifetime, so
//! sustained ingest of a hot class accumulated O(versions × class size).
//! This revision reclaims superseded versions with an epoch protocol:
//!
//! * The cell keeps a monotonically increasing **global epoch**
//!   (starting at 1), advanced by the writer once per publish, *after*
//!   the pointer swap.
//! * Every reader owns a registered **epoch slot** ([`ReaderSlot`]). A
//!   load **pins** the slot — stores the current global epoch into it —
//!   *before* loading the pointer, and unpins (stores the idle value 0)
//!   after the refcount increment.
//! * When a version falls out of the [`RetentionPolicy`] window it is not
//!   freed immediately: it moves to a **limbo** list tagged with the
//!   epoch at which it was retired. A limbo entry is freed only once
//!   every slot is idle or pinned at a *strictly greater* epoch.
//!
//! **Why that is safe.** All four protocol operations — the reader's slot
//! store `S` and pointer load `L`, the writer's swap `W` and slot scan
//! `R` — are `SeqCst`, so they sit in one total order. Suppose the writer
//! frees a version `V` that a reader is about to resurrect. For the
//! writer to free `V`, its scan `R` (which runs after `W`, the swap that
//! unlinked `V`) must have observed the reader's slot as idle or pinned
//! past `V`'s retire epoch. Two cases:
//!
//! * `R` did not see the pin `S` at all. Then `R` precedes `S` in the
//!   total order, so `W < R < S < L` — and a `SeqCst` load ordered after
//!   the swap cannot return the swapped-out pointer. The reader loads the
//!   *new* current version, not `V`. (This also covers a reader that
//!   stalls between reading the epoch and storing the pin: the stored pin
//!   may be arbitrarily stale, but then the pointer load is even later
//!   and sees an even newer current.)
//! * `R` saw a pin with epoch `e` greater than `V`'s retire epoch. A pin
//!   of epoch `e` means the reader read the global epoch *after* the
//!   writer advanced it past `V`'s retirement — and that advance happens
//!   after the swap that unlinked `V`, so again the reader's subsequent
//!   pointer load cannot return `V`.
//!
//! Conversely, a reader that *did* load `V` pinned an epoch no greater
//! than `V`'s retire epoch (the pin is stored before the load, and the
//! epoch only advances after `V` is swapped out), so the scan keeps `V`
//! in limbo until the reader unpins. Pins last for the handful of
//! instructions inside `load`, so limbo is transient: a quiescent cell
//! retains exactly the retention window.
//!
//! ## Retention window
//!
//! Reclamation is subject to an explicit [`RetentionPolicy`]: keep-last-N
//! versions (or everything, for bounded runs that want full replay).
//! [`SnapshotCell::snapshot_at`] serves any version inside the window;
//! outside it the answer is a typed [`SnapshotAtError::VersionReclaimed`]
//! — never a panic, and never a "maybe, if no reader raced you" from
//! limbo, which would make replay timing-dependent. A version a reader
//! already holds an `Arc` to stays alive for that reader regardless — the
//! cell only drops *its own* reference.

use std::collections::VecDeque;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicPtr, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use crate::snapshot::KbSnapshot;

/// How many superseded versions a [`SnapshotCell`] keeps replayable.
///
/// The window is counted in *versions resident*, current included: with
/// `KeepLast(n)`, `snapshot_at` serves the latest `n` versions and
/// anything older is reclaimed once no reader can still be mid-load on
/// it. The policy is fixed at cell construction — a knob on
/// [`crate::ServePipeline::with_retention`]; a
/// [`crate::DurableServePipeline`] keeps the default window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RetentionPolicy {
    /// Retain every published version for the cell's lifetime (the
    /// pre-reclamation behaviour). Memory grows with version count; only
    /// sensible for bounded runs that want unlimited `snapshot_at`
    /// replay, such as the isolation stress tests.
    KeepAll,
    /// Retain the latest `n` versions (clamped to at least 1 — the
    /// current version is always resident).
    KeepLast(usize),
}

impl RetentionPolicy {
    /// The default replay window of [`RetentionPolicy::default`].
    pub const DEFAULT_KEEP_LAST: usize = 8;

    /// Versions this policy keeps resident (`usize::MAX` for `KeepAll`).
    pub fn window(self) -> usize {
        match self {
            RetentionPolicy::KeepAll => usize::MAX,
            RetentionPolicy::KeepLast(n) => n.max(1),
        }
    }
}

impl Default for RetentionPolicy {
    /// Keep the last [`RetentionPolicy::DEFAULT_KEEP_LAST`] versions.
    fn default() -> Self {
        RetentionPolicy::KeepLast(Self::DEFAULT_KEEP_LAST)
    }
}

/// Why [`SnapshotCell::snapshot_at`] could not serve a version.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnapshotAtError {
    /// The version is older than the retention window: it was published
    /// (by this process or, after a durable restart, a predecessor) and
    /// has been reclaimed.
    VersionReclaimed {
        /// The requested version.
        version: u64,
        /// The oldest version still replayable.
        oldest_retained: u64,
    },
    /// The version is newer than anything published so far.
    NotYetPublished {
        /// The requested version.
        version: u64,
        /// The latest published version.
        latest: u64,
    },
}

impl std::fmt::Display for SnapshotAtError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotAtError::VersionReclaimed { version, oldest_retained } => write!(
                f,
                "snapshot version {version} has been reclaimed (oldest retained: \
                 {oldest_retained})"
            ),
            SnapshotAtError::NotYetPublished { version, latest } => {
                write!(f, "snapshot version {version} not yet published (latest: {latest})")
            }
        }
    }
}

impl std::error::Error for SnapshotAtError {}

/// The idle value of an epoch slot. Real epochs start at 1.
const SLOT_IDLE: u64 = 0;

/// Shared state of one epoch slot: the registry holds one `Arc`, the
/// owning [`ReaderSlot`] the other. `pinned` is the only field the read
/// path touches.
#[derive(Debug)]
struct SlotState {
    /// [`SLOT_IDLE`] when no load is in flight; otherwise the global
    /// epoch the in-flight load pinned.
    pinned: AtomicU64,
}

/// A registered epoch slot — the reader-side half of the reclamation
/// protocol, required by [`SnapshotCell::load`].
///
/// One slot serialises one load at a time, so it must not be shared
/// across threads (`!Sync`, enforced at the type level); it is `Send` and
/// cheap, so create one per reader thread via
/// [`SnapshotCell::register_slot`] (or just clone a
/// [`crate::SnapshotReader`], which carries its own). Dropping the slot
/// deregisters it: the writer prunes orphaned slots on the next publish,
/// so reader churn does not accumulate registry entries.
#[derive(Debug)]
pub struct ReaderSlot {
    state: Arc<SlotState>,
    /// Identity of the cell the slot is registered with; `load` rejects
    /// a slot minted by a different cell (its pins would be invisible to
    /// this cell's reclamation scan — an unsoundness, not a misuse).
    cell_id: u64,
    /// One slot, one concurrent load: `Cell` makes the type `!Sync`.
    _single_thread: PhantomData<std::cell::Cell<()>>,
}

/// Writer-side bookkeeping, behind a mutex readers never touch.
#[derive(Debug)]
struct Retained {
    /// The retention window's newest version: the current one, except for
    /// the instants inside the (single-writer) `publish`. A field of its
    /// own, so the window is never empty.
    newest: Arc<KbSnapshot>,
    /// The rest of the window, oldest first, contiguous up to `newest`.
    older: VecDeque<Arc<KbSnapshot>>,
    /// Versions evicted from the window but possibly still observable by
    /// a reader mid-load: `(retire_epoch, version)`. Freed by `reclaim`
    /// once every slot is idle or pinned past `retire_epoch`.
    limbo: Vec<(u64, Arc<KbSnapshot>)>,
    /// Every registered slot, scanned by `reclaim`, pruned when only the
    /// registry still holds the `Arc` (the `ReaderSlot` was dropped).
    slots: Vec<Arc<SlotState>>,
    /// Versions freed so far (diagnostics; monotone).
    reclaimed: u64,
}

/// Source of unique cell identities (see [`ReaderSlot::cell_id`]).
static NEXT_CELL_ID: AtomicU64 = AtomicU64::new(1);

/// Lock-free publication point for [`KbSnapshot`] versions, with
/// epoch-based reclamation of superseded versions.
///
/// One writer publishes (the serve pipeline, serialised by `&mut self` on
/// ingest); any number of readers [`load`](SnapshotCell::load)
/// concurrently and wait-free through registered [`ReaderSlot`]s. See the
/// [module docs](self) for the protocol and its safety argument.
#[derive(Debug)]
pub struct SnapshotCell {
    /// Points at the data of the current version's `Arc`. The pointed-to
    /// snapshot always carries one outstanding `into_raw` count owned by
    /// this field, *and* a strong count owned by the retention window — so
    /// it stays backed through the swap that supersedes it.
    current: AtomicPtr<KbSnapshot>,
    /// The global epoch: starts at 1, advanced once per publish, after
    /// the swap. A pinned slot holding epoch `e` proves its reader can
    /// only materialise versions retired at epoch ≥ `e`.
    epoch: AtomicU64,
    /// The latest published version number, for lock-free `version()`.
    latest: AtomicU64,
    /// Retention window, limbo, slot registry (writer side + diagnostics;
    /// the read path never touches it).
    retained: Mutex<Retained>,
    policy: RetentionPolicy,
    /// This cell's identity, stamped into every slot it registers.
    id: u64,
}

impl SnapshotCell {
    /// Create a cell publishing `initial` as the current version, with
    /// superseded versions retained per `policy`. Crate-internal: cells
    /// are only created (and written) by [`crate::ServePipeline`], which
    /// is what enforces the single-writer requirement at the type level.
    pub(crate) fn new(initial: Arc<KbSnapshot>, policy: RetentionPolicy) -> Self {
        Self {
            latest: AtomicU64::new(initial.version()),
            current: AtomicPtr::new(Arc::into_raw(Arc::clone(&initial)).cast_mut()),
            epoch: AtomicU64::new(SLOT_IDLE + 1),
            retained: Mutex::new(Retained {
                newest: initial,
                older: VecDeque::new(),
                limbo: Vec::new(),
                slots: Vec::new(),
                reclaimed: 0,
            }),
            policy,
            id: NEXT_CELL_ID.fetch_add(1, Ordering::Relaxed),
        }
    }

    /// Construct a raw cell outside the crate. Test support for the
    /// reclamation soak (which publishes synthetic constant-size
    /// snapshots without a pipeline), not API: production cells are
    /// created and written only by [`crate::ServePipeline`], which is
    /// what enforces the single-writer requirement.
    #[doc(hidden)]
    pub fn new_for_tests(initial: Arc<KbSnapshot>, policy: RetentionPolicy) -> Self {
        Self::new(initial, policy)
    }

    /// Publish through a raw cell outside the crate. Test support (see
    /// [`SnapshotCell::new_for_tests`]); the caller must serialise
    /// publishes exactly as `ServePipeline::ingest`'s `&mut self` would.
    #[doc(hidden)]
    pub fn publish_for_tests(&self, snapshot: Arc<KbSnapshot>) {
        self.publish(snapshot);
    }

    /// Drain reclaimable limbo outside the crate. Test support (see
    /// [`SnapshotCell::new_for_tests`]).
    #[doc(hidden)]
    pub fn reclaim_for_tests(&self) {
        self.reclaim();
    }

    /// Register an epoch slot for a reader thread. Takes the registry
    /// lock — reader *creation* is not wait-free, only [`load`] is; do it
    /// once per thread, not per query.
    ///
    /// [`load`]: SnapshotCell::load
    pub fn register_slot(&self) -> ReaderSlot {
        let state = Arc::new(SlotState { pinned: AtomicU64::new(SLOT_IDLE) });
        self.retained().slots.push(Arc::clone(&state));
        ReaderSlot { state, cell_id: self.id, _single_thread: PhantomData }
    }

    /// The current snapshot. **Wait-free**: two atomic loads, two atomic
    /// stores and one refcount increment, no locks, no CAS loops, no
    /// spinning — regardless of concurrent publishes and reclamation. The
    /// returned `Arc` pins that version for as long as the caller holds
    /// it.
    ///
    /// # Panics
    ///
    /// If `slot` was registered with a different cell (using it here
    /// would hide its pin from this cell's reclamation scan).
    pub fn load(&self, slot: &ReaderSlot) -> Arc<KbSnapshot> {
        assert_eq!(slot.cell_id, self.id, "ReaderSlot used with a cell it was not registered with");
        // Pin: announce the epoch before touching the pointer. SeqCst on
        // the pin, the pointer load, the writer's swap and the writer's
        // slot scan puts all four in one total order — the module docs
        // carry the two-case proof that the writer can then never free a
        // version this load can still return.
        slot.state.pinned.store(self.epoch.load(Ordering::SeqCst), Ordering::SeqCst);
        let ptr = self.current.load(Ordering::SeqCst);
        // SAFETY: `ptr` was produced by `Arc::into_raw` (in `new` or
        // `publish`) and its snapshot is still alive: it is either the
        // current version (owned by this field plus the retention window)
        // or was retired at an epoch ≥ our pin — and `reclaim` never
        // frees a version retired at an epoch ≥ any pinned slot's value.
        let snapshot = unsafe {
            Arc::increment_strong_count(ptr);
            Arc::from_raw(ptr)
        };
        // Unpin. Release suffices: reclamation may free retired versions
        // from here on, but we hold an owning strong count.
        slot.state.pinned.store(SLOT_IDLE, Ordering::Release);
        snapshot
    }

    /// The current snapshot, without an epoch slot. Writer-side only:
    /// sound *only* while no `publish`/`reclaim` can run concurrently,
    /// which [`crate::ServePipeline`] guarantees by requiring `&mut self`
    /// for both. Takes the retention lock (never contended on the read
    /// path) — the writer's own loads are setup/diagnostics, not the hot
    /// path.
    pub(crate) fn load_writer(&self) -> Arc<KbSnapshot> {
        Arc::clone(&self.retained().newest)
    }

    /// Poisoned only if a publish or reclaim panicked while moving versions
    /// between window and limbo, when one may have been freed under a
    /// reader's pin: nothing sound is left to serve, so the panic spreads.
    #[allow(clippy::expect_used)]
    fn retained(&self) -> MutexGuard<'_, Retained> {
        self.retained.lock().expect("snapshot retention bookkeeping panicked")
    }

    /// Publish a new version, retire the current one into the retention
    /// window, and reclaim whatever fell out of it (epoch-safely).
    ///
    /// Writer-side and crate-internal: publishes must be serialised, and
    /// keeping this `pub(crate)` makes the only writer
    /// [`crate::ServePipeline::ingest`] (`&mut self`), so the
    /// monotonicity contract cannot be broken by a second publisher
    /// racing the swap. Readers are unaffected either way: a reader that
    /// loaded the old pointer just before the swap pinned an epoch that
    /// keeps the old version out of reclamation until it unpins.
    ///
    /// The retention lock is **not** held across the swap: the writer
    /// critical section observed by [`versions_retained`] diagnostics is
    /// pure bookkeeping (a push, at most a few pops, the slot scan), and
    /// freed snapshots are dropped after the lock is released, so a large
    /// reclaimed version never extends it either. The old version stays
    /// reachable throughout — it entered the window when *it* was
    /// published — so there is no swapped-but-untracked gap for
    /// `snapshot_at` to observe.
    ///
    /// [`versions_retained`]: SnapshotCell::versions_retained
    pub(crate) fn publish(&self, snapshot: Arc<KbSnapshot>) {
        let version = snapshot.version();
        let new_raw = Arc::into_raw(Arc::clone(&snapshot)).cast_mut();
        let old_raw = self.current.swap(new_raw, Ordering::SeqCst);
        // SAFETY: `old_raw` carries the `into_raw` count minted when it
        // was published; the window still owns it, so this balance only
        // releases the pointer's share.
        unsafe { drop(Arc::from_raw(old_raw)) };
        // Advance the epoch *after* the swap: any version evicted below
        // was swapped out at an epoch ≤ `retire_epoch`, so a reader that
        // could still materialise it is pinned at ≤ `retire_epoch`.
        let retire_epoch = self.epoch.fetch_add(1, Ordering::SeqCst);
        self.latest.store(version, Ordering::Release);

        {
            let mut retained = self.retained();
            let Retained { newest, older, limbo, .. } = &mut *retained;
            older.push_back(std::mem::replace(newest, snapshot));
            // `newest` is the one window version `older` does not hold.
            let evictions = older.len().saturating_sub(self.policy.window() - 1);
            limbo.extend(older.drain(..evictions).map(|evicted| (retire_epoch, evicted)));
        }
        self.reclaim();
    }

    /// Free every limbo version no reader can still be mid-load on, and
    /// prune slots whose [`ReaderSlot`] was dropped. Runs on every
    /// publish; also callable explicitly (via
    /// [`crate::ServePipeline::reclaim`]) to drain limbo without
    /// publishing. The freed snapshots are dropped outside the lock.
    pub(crate) fn reclaim(&self) {
        let mut freed: Vec<Arc<KbSnapshot>> = Vec::new();
        {
            let mut retained = self.retained();
            retained.slots.retain(|slot| Arc::strong_count(slot) > 1);
            // SeqCst slot loads: the scan must order against reader pins
            // and pointer loads (see the module docs' proof).
            let min_pin = retained
                .slots
                .iter()
                .map(|slot| slot.pinned.load(Ordering::SeqCst))
                .filter(|&pin| pin != SLOT_IDLE)
                .min()
                .unwrap_or(u64::MAX);
            let mut kept = Vec::with_capacity(retained.limbo.len());
            for (retire_epoch, snapshot) in retained.limbo.drain(..) {
                if retire_epoch < min_pin {
                    freed.push(snapshot);
                } else {
                    kept.push((retire_epoch, snapshot));
                }
            }
            retained.reclaimed += freed.len() as u64;
            retained.limbo = kept;
        }
        // Dropping (potentially large) snapshots happens off-lock so the
        // writer critical section stays O(bookkeeping).
        drop(freed);
    }

    /// The current version number. Lock-free (one atomic load).
    pub fn version(&self) -> u64 {
        self.latest.load(Ordering::Acquire)
    }

    /// A specific published version, if it is still inside the retention
    /// window. Versions older than the window yield
    /// [`SnapshotAtError::VersionReclaimed`] — deterministically, even if
    /// the bytes happen to linger in limbo: replayability is a property
    /// of the policy, not of reader timing. Takes the retention lock —
    /// meant for diagnostics and verification, not the hot query path.
    pub fn snapshot_at(&self, version: u64) -> Result<Arc<KbSnapshot>, SnapshotAtError> {
        let retained = self.retained();
        let newest = retained.newest.version();
        let oldest = retained.older.front().map_or(newest, |oldest| oldest.version());
        if version > newest {
            return Err(SnapshotAtError::NotYetPublished { version, latest: newest });
        }
        if version < oldest {
            return Err(SnapshotAtError::VersionReclaimed { version, oldest_retained: oldest });
        }
        // Contiguous ascending: direct index; one past `older` is `newest`.
        Ok(Arc::clone(retained.older.get((version - oldest) as usize).unwrap_or(&retained.newest)))
    }

    /// The oldest version still replayable via [`snapshot_at`].
    ///
    /// [`snapshot_at`]: SnapshotCell::snapshot_at
    pub fn oldest_retained(&self) -> u64 {
        let retained = self.retained();
        retained.older.front().unwrap_or(&retained.newest).version()
    }

    /// Versions currently resident: the retention window plus any limbo
    /// versions awaiting a safe free. Quiescent cells (no load in flight)
    /// report exactly `min(published, window)`.
    pub fn versions_retained(&self) -> usize {
        let retained = self.retained();
        1 + retained.older.len() + retained.limbo.len()
    }

    /// Versions freed by reclamation so far.
    pub fn versions_reclaimed(&self) -> u64 {
        self.retained().reclaimed
    }

    /// The cell's retention policy.
    pub fn retention(&self) -> RetentionPolicy {
        self.policy
    }
}

impl Drop for SnapshotCell {
    fn drop(&mut self) {
        // Balance the current version's outstanding `into_raw` count.
        // SAFETY: `&mut self` — no reader can be mid-`load`.
        unsafe {
            drop(Arc::from_raw(self.current.load(Ordering::Acquire)));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A snapshot whose content is a pure function of its version:
    /// `tables = version + 7`, `rows = 3 * version` (what
    /// `synthetic_for_soak` stamps). Every test that loads a snapshot
    /// re-checks this canary, so a load that materialised freed or
    /// foreign memory trips an assertion even outside miri.
    fn snap(version: u64) -> Arc<KbSnapshot> {
        Arc::new(KbSnapshot::synthetic_for_soak(version, 0))
    }

    fn check_canary(s: &KbSnapshot) {
        assert_eq!(s.tables() as u64, s.version() + 7, "canary: tables drifted from version");
        assert_eq!(s.rows() as u64, 3 * s.version(), "canary: rows drifted from version");
    }

    #[test]
    fn load_returns_latest_published() {
        let cell = SnapshotCell::new(snap(0), RetentionPolicy::KeepAll);
        let slot = cell.register_slot();
        assert_eq!(cell.load(&slot).version(), 0);
        cell.publish(snap(1));
        cell.publish(snap(2));
        assert_eq!(cell.load(&slot).version(), 2);
        assert_eq!(cell.version(), 2);
        assert_eq!(cell.versions_retained(), 3);
        assert_eq!(cell.versions_reclaimed(), 0);
    }

    #[test]
    fn keep_all_serves_every_version() {
        let cell = SnapshotCell::new(snap(0), RetentionPolicy::KeepAll);
        cell.publish(snap(1));
        cell.publish(snap(2));
        for v in 0..=2 {
            let s = cell.snapshot_at(v).expect("retained");
            assert_eq!(s.version(), v);
            check_canary(&s);
        }
        assert_eq!(
            cell.snapshot_at(3).err(),
            Some(SnapshotAtError::NotYetPublished { version: 3, latest: 2 })
        );
        assert_eq!(cell.oldest_retained(), 0);
    }

    #[test]
    fn keep_last_reclaims_behind_the_window() {
        let cell = SnapshotCell::new(snap(0), RetentionPolicy::KeepLast(3));
        for v in 1..=10 {
            cell.publish(snap(v));
        }
        // Quiescent: limbo drains on every publish, so exactly the
        // window is resident and everything older was freed.
        assert_eq!(cell.versions_retained(), 3);
        assert_eq!(cell.versions_reclaimed(), 8);
        assert_eq!(cell.oldest_retained(), 8);
        for v in 8..=10 {
            check_canary(&cell.snapshot_at(v).expect("inside the window"));
        }
        for v in 0..8 {
            assert_eq!(
                cell.snapshot_at(v).err(),
                Some(SnapshotAtError::VersionReclaimed { version: v, oldest_retained: 8 }),
                "outside the window must be a typed rejection"
            );
        }
    }

    #[test]
    fn keep_last_zero_clamps_to_current() {
        let cell = SnapshotCell::new(snap(0), RetentionPolicy::KeepLast(0));
        cell.publish(snap(1));
        assert_eq!(cell.versions_retained(), 1, "the current version is always resident");
        check_canary(&cell.snapshot_at(1).expect("current"));
    }

    #[test]
    fn loaded_snapshot_outlives_supersession_and_reclamation() {
        let cell = SnapshotCell::new(snap(0), RetentionPolicy::KeepLast(1));
        let slot = cell.register_slot();
        let pinned = cell.load(&slot);
        for v in 1..=5 {
            cell.publish(snap(v));
        }
        // Version 0 was reclaimed from the cell's perspective...
        assert!(matches!(
            cell.snapshot_at(0),
            Err(SnapshotAtError::VersionReclaimed { version: 0, .. })
        ));
        // ...but the reader's own Arc keeps it alive and intact.
        assert_eq!(pinned.version(), 0, "a pinned version never changes under the reader");
        check_canary(&pinned);
        assert_eq!(cell.load(&slot).version(), 5);
    }

    /// The interleaving the epoch protocol exists for: a reader pins and
    /// reads the raw pointer, then parks *before* incrementing the
    /// refcount, while the writer publishes past the retention window and
    /// tries to reclaim. The pinned epoch must hold the version in limbo
    /// (no use-after-free when the reader resumes); the unpin must then
    /// release it. White-box: drives the slot and pointer directly, in
    /// exactly the order `load` does.
    #[test]
    fn parked_reader_between_pin_and_increment_blocks_reclaim() {
        let cell = SnapshotCell::new(snap(0), RetentionPolicy::KeepLast(1));
        let slot = cell.register_slot();

        // Reader half 1: pin the epoch, load the raw pointer... and park.
        slot.state.pinned.store(cell.epoch.load(Ordering::SeqCst), Ordering::SeqCst);
        let parked_ptr = cell.current.load(Ordering::SeqCst);

        // Writer: supersede version 0 several times over; each publish
        // runs a reclaim pass.
        for v in 1..=4 {
            cell.publish(snap(v));
        }
        assert_eq!(
            cell.versions_reclaimed(),
            0,
            "a version observable by the parked reader must not be freed"
        );
        assert_eq!(cell.versions_retained(), 1 + 4, "window (1) plus all of limbo (4)");

        // Reader half 2: resume — increment and materialise. The memory
        // must still be the version-0 snapshot, canary intact.
        let resumed = unsafe {
            Arc::increment_strong_count(parked_ptr);
            Arc::from_raw(parked_ptr)
        };
        assert_eq!(resumed.version(), 0);
        check_canary(&resumed);
        slot.state.pinned.store(SLOT_IDLE, Ordering::Release);

        // Unpinned: the next reclaim frees all four limbo versions.
        cell.reclaim();
        assert_eq!(cell.versions_reclaimed(), 4);
        assert_eq!(cell.versions_retained(), 1);
        // The reader's Arc still backs its copy.
        check_canary(&resumed);
    }

    /// A stale pin — stored from an epoch read long ago, after the writer
    /// already advanced past it — must be conservative (block reclaim),
    /// and a load through it must still return the *current* version:
    /// the swapped-out one is unreachable via the pointer by then.
    #[test]
    fn stale_pin_is_conservative_not_unsound() {
        let cell = SnapshotCell::new(snap(0), RetentionPolicy::KeepLast(1));
        let slot = cell.register_slot();
        let stale_epoch = cell.epoch.load(Ordering::SeqCst);

        for v in 1..=3 {
            cell.publish(snap(v));
        }
        assert_eq!(cell.versions_reclaimed(), 3, "idle slot blocks nothing");

        // The reader resumes with its stale epoch: pin, then load.
        slot.state.pinned.store(stale_epoch, Ordering::SeqCst);
        let ptr = cell.current.load(Ordering::SeqCst);
        let loaded = unsafe {
            Arc::increment_strong_count(ptr);
            Arc::from_raw(ptr)
        };
        assert_eq!(loaded.version(), 3, "a late pointer load sees the current version");
        check_canary(&loaded);

        // While pinned at the stale epoch, evictions stay in limbo.
        cell.publish(snap(4));
        assert_eq!(cell.versions_reclaimed(), 3, "stale pin holds limbo conservatively");
        slot.state.pinned.store(SLOT_IDLE, Ordering::Release);
        cell.reclaim();
        assert_eq!(cell.versions_reclaimed(), 4);
    }

    #[test]
    fn dropped_slots_are_pruned_and_release_limbo() {
        let cell = SnapshotCell::new(snap(0), RetentionPolicy::KeepLast(1));
        let slot = cell.register_slot();
        // Park the slot pinned, then drop it (a reader thread that died
        // mid-protocol can only do this by leaking the load, but the
        // registry must still not grow unboundedly under churn).
        slot.state.pinned.store(cell.epoch.load(Ordering::SeqCst), Ordering::SeqCst);
        drop(slot);
        cell.publish(snap(1));
        // The dropped slot was pruned before the scan, so nothing blocks.
        assert_eq!(cell.versions_reclaimed(), 1);
        // Churn: registering and dropping many slots leaves no residue.
        for _ in 0..100 {
            let s = cell.register_slot();
            let _ = cell.load(&s);
        }
        cell.publish(snap(2));
        let retained = cell.retained.lock().unwrap();
        assert!(retained.slots.len() <= 1, "orphaned slots must be pruned, not accumulated");
    }

    #[test]
    #[should_panic(expected = "ReaderSlot used with a cell it was not registered with")]
    fn foreign_slot_is_rejected() {
        let a = SnapshotCell::new(snap(0), RetentionPolicy::default());
        let b = SnapshotCell::new(snap(0), RetentionPolicy::default());
        let slot_b = b.register_slot();
        let _ = a.load(&slot_b);
    }

    #[test]
    fn concurrent_loads_during_publishes_are_consistent() {
        let cell = Arc::new(SnapshotCell::new(snap(0), RetentionPolicy::KeepLast(2)));
        let iterations = if cfg!(miri) { 40 } else { 1000 };
        let publishes = if cfg!(miri) { 10 } else { 50 };
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let cell = Arc::clone(&cell);
                scope.spawn(move || {
                    let slot = cell.register_slot();
                    let mut last = 0u64;
                    for _ in 0..iterations {
                        let s = cell.load(&slot);
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
        assert_eq!(cell.versions_retained(), 2, "quiescent cell retains exactly the window");
        assert_eq!(cell.versions_reclaimed(), publishes - 1);
    }

    /// Seeded randomized interleaving stress: four readers load through
    /// the full protocol with randomized pauses injected at the two
    /// hazard points (between pin and pointer load, and between pointer
    /// load and increment — driven white-box so the pause really lands
    /// inside the window), while the writer publishes with its own
    /// randomized pauses and a tight retention window, reclaiming
    /// aggressively. Every materialised snapshot must carry an intact
    /// canary, and every reader's version sequence must be monotone.
    /// Miri-sized under `cfg(miri)`; run it there to machine-check the
    /// absence of use-after-free.
    #[test]
    fn randomized_interleaving_stress_yields_no_use_after_free() {
        use rand::{Rng, SeedableRng};

        let publishes: u64 = if cfg!(miri) { 30 } else { 600 };
        let loads_per_reader = if cfg!(miri) { 30 } else { 800 };

        for seed in 0..3u64 {
            let cell = Arc::new(SnapshotCell::new(snap(0), RetentionPolicy::KeepLast(2)));
            std::thread::scope(|scope| {
                for reader_id in 0..4u64 {
                    let cell = Arc::clone(&cell);
                    scope.spawn(move || {
                        let mut rng =
                            rand_chacha::ChaCha8Rng::seed_from_u64(seed * 100 + reader_id);
                        let slot = cell.register_slot();
                        let mut last = 0u64;
                        for _ in 0..loads_per_reader {
                            // White-box load with pauses injected at the
                            // two points an unlucky scheduler could park
                            // a real reader.
                            slot.state
                                .pinned
                                .store(cell.epoch.load(Ordering::SeqCst), Ordering::SeqCst);
                            if rng.gen_range(0..4u32) == 0 {
                                std::thread::yield_now();
                            }
                            let ptr = cell.current.load(Ordering::SeqCst);
                            if rng.gen_range(0..4u32) == 0 {
                                std::thread::yield_now();
                            }
                            // SAFETY: identical to `load` — the pin was
                            // announced before the pointer load.
                            let s = unsafe {
                                Arc::increment_strong_count(ptr);
                                Arc::from_raw(ptr)
                            };
                            slot.state.pinned.store(SLOT_IDLE, Ordering::Release);
                            check_canary(&s);
                            assert!(s.version() >= last, "monotone versions per reader");
                            last = s.version();
                            if rng.gen_range(0..8u32) == 0 {
                                std::thread::yield_now();
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
            assert_eq!(cell.versions_retained(), 2);
            assert_eq!(cell.versions_reclaimed(), publishes - 1);
            for v in 0..publishes - 1 {
                assert!(
                    matches!(
                        cell.snapshot_at(v),
                        Err(SnapshotAtError::VersionReclaimed { .. })
                    ),
                    "reclaimed versions reject typed, never panic (v{v})"
                );
            }
        }
    }

    /// The writer critical section (what `versions_retained` waits on)
    /// must stay pure bookkeeping: publish must not hold the retention
    /// lock across the pointer swap. Probed behaviourally — a thread
    /// holding the retention lock must not be able to stop a publish from
    /// making the new version visible to wait-free loads.
    #[test]
    fn publish_swaps_outside_the_retention_lock() {
        let cell = Arc::new(SnapshotCell::new(snap(0), RetentionPolicy::KeepAll));
        let lock = cell.retained.lock().unwrap();
        let seen = std::thread::scope(|scope| {
            let cell2 = Arc::clone(&cell);
            let publisher = scope.spawn(move || {
                // Swap + epoch advance happen before the (blocked)
                // bookkeeping; signal how far we got via the version a
                // fresh load observes.
                cell2.publish(snap(1));
            });
            // Wait (bounded) for the swap to land while *holding* the
            // retention lock the whole time.
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
            let mut observed = 0;
            while std::time::Instant::now() < deadline {
                // `load` is lock-free, so it cannot deadlock against the
                // held retention lock. (No registered slot needed for the
                // assertion: use the raw pointer + canary, read-only.)
                let ptr = cell.current.load(Ordering::SeqCst);
                // SAFETY: KeepAll — nothing is ever freed, and the lock
                // we hold blocks the window push but not liveness (the
                // publish argument itself keeps the new version alive).
                let v = unsafe { (*ptr).version() };
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
        assert_eq!(seen, 1, "publish must swap before (not inside) the retention lock");
        assert_eq!(cell.versions_retained(), 2);
    }
}
