//! Deterministic instrumentation of the fuzzy lookup path.
//!
//! The pruned lookup's whole point is doing *less work per query as the
//! index grows*; wall-clock measurements can show that but cannot assert
//! it reproducibly on shared CI hardware. These counters can: the lookup
//! visits candidates in a deterministic order (document-at-a-time over
//! sorted postings, entry token order within a candidate, sorted sym
//! order in the deletion-neighborhood probe), so for a fixed corpus and
//! query stream every counter value is a pure function of the input and
//! can be asserted exactly. `tests/lookup_scaling.rs` fails if edit
//! calls per query stop growing sublinearly in the label count, and
//! `kbbench` pins the per-query counters of its seeded workloads in
//! `kbbench/expected.json` (its `index.*` per-layer metrics).
//!
//! Counters are process-global relaxed atomics: lookups may run
//! concurrently (shared snapshots), so a test that asserts exact values
//! must be the only lookup caller in its process (an integration test
//! file with a single `#[test]`); everything else asserts on monotone
//! deltas. A lookup tallies its work in a local [`LookupMetrics`] and
//! publishes it once, when it ends: concurrent lookups touch the shared
//! cache line a few times per query rather than once per candidate, and
//! every count is the same as if each unit of work were added as it
//! happened.

use std::sync::atomic::{AtomicU64, Ordering};

/// The counters, alone on their cache lines (128 B covers the adjacent-
/// line prefetch pair): every candidate of every concurrent lookup writes
/// here, and hot written counters must not share a line with read-mostly
/// globals the linker happens to place beside them.
#[repr(align(128))]
struct Counters {
    lookups: AtomicU64,
    edit_distance_calls: AtomicU64,
    candidates_scored: AtomicU64,
    candidates_skipped: AtomicU64,
}

static COUNTERS: Counters = Counters {
    lookups: AtomicU64::new(0),
    edit_distance_calls: AtomicU64::new(0),
    candidates_scored: AtomicU64::new(0),
    candidates_skipped: AtomicU64::new(0),
};

/// A point-in-time copy of the lookup counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LookupMetrics {
    /// Fuzzy top-k lookups run.
    pub lookups: u64,
    /// Edit-distance kernel invocations: bounded Levenshtein runs plus
    /// the cheap one-edit verifications behind deletion-neighborhood
    /// probes. The headline sublinearity counter.
    pub edit_distance_calls: u64,
    /// Candidate entries that were actually scored.
    pub candidates_scored: u64,
    /// Candidate entries dismissed from their upper bound alone, without
    /// scoring.
    pub candidates_skipped: u64,
}

impl LookupMetrics {
    /// The work done since `earlier`, counter by counter (saturating, so
    /// snapshots passed in the wrong order yield zeros instead of
    /// wrapping). Because the counters are process-global, a fan-out that
    /// queries several shard/class indexes — concurrently or not —
    /// accumulates into the *same* counters; one delta around the whole
    /// fan-out therefore measures the total per-lookup work, which is
    /// what the sublinearity gate divides by the query count.
    pub fn delta_since(self, earlier: LookupMetrics) -> LookupMetrics {
        LookupMetrics {
            lookups: self.lookups.saturating_sub(earlier.lookups),
            edit_distance_calls: self
                .edit_distance_calls
                .saturating_sub(earlier.edit_distance_calls),
            candidates_scored: self.candidates_scored.saturating_sub(earlier.candidates_scored),
            candidates_skipped: self
                .candidates_skipped
                .saturating_sub(earlier.candidates_skipped),
        }
    }

    /// Candidates examined in any way: scored plus skipped-by-bound.
    pub fn candidates_examined(self) -> u64 {
        self.candidates_scored + self.candidates_skipped
    }
}

/// Read the current counter values.
pub fn snapshot() -> LookupMetrics {
    LookupMetrics {
        lookups: COUNTERS.lookups.load(Ordering::Relaxed),
        edit_distance_calls: COUNTERS.edit_distance_calls.load(Ordering::Relaxed),
        candidates_scored: COUNTERS.candidates_scored.load(Ordering::Relaxed),
        candidates_skipped: COUNTERS.candidates_skipped.load(Ordering::Relaxed),
    }
}

/// Add one lookup's tally to the counters.
pub(crate) fn publish(tally: LookupMetrics) {
    let add = |counter: &AtomicU64, n: u64| {
        if n > 0 {
            counter.fetch_add(n, Ordering::Relaxed);
        }
    };
    add(&COUNTERS.lookups, tally.lookups);
    add(&COUNTERS.edit_distance_calls, tally.edit_distance_calls);
    add(&COUNTERS.candidates_scored, tally.candidates_scored);
    add(&COUNTERS.candidates_skipped, tally.candidates_skipped);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delta_and_sum_aggregate_across_fanout() {
        // Simulate a two-shard fuzzy fan-out: each "shard" lookup adds to
        // the same process-global counters, so one delta around both
        // covers (at least) what this thread contributed. Monotone ≥
        // assertions only — other tests may count concurrently.
        let overall_before = snapshot();

        let shard_a_before = snapshot();
        publish(LookupMetrics { edit_distance_calls: 2, candidates_scored: 1, ..LookupMetrics::default() });
        let shard_a = snapshot().delta_since(shard_a_before);

        let shard_b_before = snapshot();
        publish(LookupMetrics { edit_distance_calls: 5, candidates_skipped: 1, ..LookupMetrics::default() });
        let shard_b = snapshot().delta_since(shard_b_before);

        assert!(shard_a.edit_distance_calls >= 2);
        assert!(shard_b.edit_distance_calls >= 5);

        let overall = snapshot().delta_since(overall_before);
        assert!(overall.edit_distance_calls >= 7, "fan-out accumulates into one delta");
        assert!(overall.candidates_scored >= 1);
        assert!(overall.candidates_skipped >= 1);

        // A delta taken backwards saturates instead of wrapping.
        let backwards = overall_before.delta_since(snapshot());
        assert_eq!(backwards.edit_distance_calls, 0);
    }

    #[test]
    fn counters_accumulate_and_snapshot() {
        // Other tests in the process may add concurrently; assert deltas
        // are at least what this thread contributed.
        let before = snapshot();
        publish(LookupMetrics { lookups: 1, edit_distance_calls: 3, candidates_scored: 1, candidates_skipped: 1 });
        let after = snapshot();
        assert!(after.lookups > before.lookups);
        assert!(after.edit_distance_calls >= before.edit_distance_calls + 3);
        assert!(after.candidates_scored > before.candidates_scored);
        assert!(after.candidates_skipped > before.candidates_skipped);
    }
}
