//! Class-shard control for the serve pipeline.
//!
//! The LTEE pipeline is embarrassingly partitionable by KB class: schema
//! matching assigns every table to exactly one class, and clustering,
//! fusion and new detection never look across class boundaries. A
//! [`ShardPlan`] exploits that: it groups the per-class serve states of an
//! [`crate::IncrementalPipeline`] into hashed shard buckets that ingest
//! concurrently on the work-stealing pool.
//!
//! ## Determinism contract
//!
//! A shard is **pure execution placement**, never a unit of state: every
//! class's accumulated state (streaming clusterer, interner, fused
//! entities) is fully self-contained, shards operate on disjoint sets
//! of classes, and the cross-shard merge reads the per-class results back
//! in [`ltee_kb::CLASS_KEYS`] order regardless of the grouping. Outputs are
//! therefore **bit-identical at every (shard count × thread count)** — the
//! same proof obligation as the thread-count contract, extended by
//! `tests/incremental_equivalence.rs` and `tests/recovery_equivalence.rs`
//! to a shards × threads matrix. For the same reason checkpoints persist
//! logical per-class state and restore under any shard count.

use ltee_intern::fnv1a64;
use ltee_kb::ClassKey;

/// How the per-class serve states are grouped into concurrently-ingesting
/// shards. Results are bit-identical at every setting; see the
/// [module docs](self).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum ShardPlan {
    /// Resolve from the environment: `LTEE_NUM_SHARDS`, else a single
    /// shard (every class in one bucket — the pre-sharding behaviour).
    #[default]
    Auto,
    /// Pin exactly this many shard buckets (minimum 1). More shards than
    /// classes simply leaves some buckets empty.
    Shards(usize),
}

impl ShardPlan {
    /// The pinned shard count, or `None` for environment resolution.
    pub fn shard_count(self) -> Option<usize> {
        match self {
            ShardPlan::Auto => None,
            ShardPlan::Shards(n) => Some(n.max(1)),
        }
    }

    /// The number of shard buckets an ingest would use right now:
    /// the pinned count, else `LTEE_NUM_SHARDS`, else 1.
    pub fn resolve(self) -> usize {
        self.shard_count().unwrap_or_else(|| {
            std::env::var("LTEE_NUM_SHARDS")
                .ok()
                .and_then(|s| s.trim().parse::<usize>().ok())
                .map(|n| n.max(1))
                .unwrap_or(1)
        })
    }

    /// The shard bucket `class` lands in under a plan of `num_shards`
    /// buckets: an FNV-1a hash of the class code, reduced modulo the
    /// count. Stable across processes (no randomized hasher), so the same
    /// plan always produces the same grouping — which keeps bench and test
    /// runs comparable, even though the grouping never affects results.
    pub fn shard_of(class: ClassKey, num_shards: usize) -> usize {
        (fnv1a64(&[class.code()]) % num_shards.max(1) as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ltee_kb::CLASS_KEYS;

    #[test]
    fn shard_counts_resolve() {
        // Auto resolves from the environment (which the CI matrix sets),
        // so only assert the invariant, not a specific count.
        assert!(ShardPlan::Auto.resolve() >= 1);
        assert_eq!(ShardPlan::Shards(4).resolve(), 4);
        // Zero shards makes no sense; clamp to one.
        assert_eq!(ShardPlan::Shards(0).resolve(), 1);
    }

    #[test]
    fn assignment_is_stable_and_in_range() {
        for num_shards in 1..=5 {
            for class in CLASS_KEYS {
                let shard = ShardPlan::shard_of(class, num_shards);
                assert!(shard < num_shards);
                assert_eq!(shard, ShardPlan::shard_of(class, num_shards), "stable");
            }
        }
        // One shard degenerates to the unsharded pipeline.
        assert!(CLASS_KEYS.iter().all(|&c| ShardPlan::shard_of(c, 1) == 0));
    }
}
