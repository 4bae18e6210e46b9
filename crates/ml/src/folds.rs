//! Group-aware k-fold cross-validation splits.
//!
//! The gold standard evaluation uses three-fold cross-validation where "we
//! ensured that we evenly split new clusters and homonym groups … All
//! clusters of a homonym group were always placed in one fold"
//! (Section 2.3). The splitter therefore assigns *groups* (not individual
//! items) to folds, balancing fold sizes greedily.

use std::collections::HashMap;

use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// One train/test split produced by [`grouped_k_folds`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FoldSplit {
    /// Indices of the items in the training portion.
    pub train: Vec<usize>,
    /// Indices of the items in the test portion.
    pub test: Vec<usize>,
}

/// Split `n` items into `k` folds such that all items sharing a group id are
/// placed in the same fold and fold sizes stay as balanced as possible.
///
/// * `groups[i]` is the group id of item `i`; items may share groups.
/// * Returns one [`FoldSplit`] per fold: the fold's items are the test set,
///   everything else is the training set.
///
/// Groups are shuffled deterministically from `seed` and then assigned
/// greedily to the currently smallest fold, which balances fold sizes even
/// when group sizes are skewed.
pub fn grouped_k_folds(groups: &[u64], k: usize, seed: u64) -> Vec<FoldSplit> {
    assert!(k >= 2, "need at least two folds");
    let n = groups.len();
    if n == 0 {
        return (0..k).map(|_| FoldSplit { train: Vec::new(), test: Vec::new() }).collect();
    }

    // Collect members per group.
    let mut members: HashMap<u64, Vec<usize>> = HashMap::new();
    for (i, &g) in groups.iter().enumerate() {
        members.entry(g).or_default().push(i);
    }
    let mut group_ids: Vec<u64> = members.keys().copied().collect();
    group_ids.sort_unstable();
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    group_ids.shuffle(&mut rng);
    // Large groups first so that greedy balancing works well; shuffle above
    // breaks ties randomly but deterministically.
    group_ids.sort_by_key(|g| std::cmp::Reverse(members[g].len()));

    let mut fold_items: Vec<Vec<usize>> = vec![Vec::new(); k];
    for g in group_ids {
        // The first of the smallest folds.
        let mut smallest = 0;
        for (fold, items) in fold_items.iter().enumerate() {
            if items.len() < fold_items[smallest].len() {
                smallest = fold;
            }
        }
        fold_items[smallest].extend(&members[&g]);
    }

    (0..k)
        .map(|fold| {
            let mut test = fold_items[fold].clone();
            test.sort_unstable();
            let mut train: Vec<usize> =
                (0..k).filter(|&f| f != fold).flat_map(|f| fold_items[f].iter().copied()).collect();
            train.sort_unstable();
            FoldSplit { train, test }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashSet;

    #[test]
    fn every_item_appears_in_exactly_one_test_fold() {
        let groups: Vec<u64> = (0..30).map(|i| i % 11).collect();
        let folds = grouped_k_folds(&groups, 3, 42);
        let mut seen = HashSet::new();
        for f in &folds {
            for &i in &f.test {
                assert!(seen.insert(i), "item {i} appears in two test folds");
            }
        }
        assert_eq!(seen.len(), 30);
    }

    #[test]
    fn train_and_test_are_disjoint_and_cover_all() {
        let groups: Vec<u64> = (0..20).map(|i| i % 7).collect();
        for f in grouped_k_folds(&groups, 3, 1) {
            let train: HashSet<_> = f.train.iter().collect();
            let test: HashSet<_> = f.test.iter().collect();
            assert!(train.is_disjoint(&test));
            assert_eq!(train.len() + test.len(), 20);
        }
    }

    #[test]
    fn groups_stay_together() {
        let groups = vec![5, 5, 5, 9, 9, 2, 2, 2, 2, 7];
        for f in grouped_k_folds(&groups, 3, 3) {
            for g in [5u64, 9, 2, 7] {
                let members: Vec<usize> =
                    groups.iter().enumerate().filter(|(_, &x)| x == g).map(|(i, _)| i).collect();
                let in_test = members.iter().filter(|i| f.test.contains(i)).count();
                assert!(
                    in_test == 0 || in_test == members.len(),
                    "group {g} split across folds"
                );
            }
        }
    }

    #[test]
    fn folds_are_reasonably_balanced() {
        let groups: Vec<u64> = (0..90).map(|i| i as u64 / 2).collect();
        let folds = grouped_k_folds(&groups, 3, 0);
        for f in &folds {
            assert!(f.test.len() >= 20 && f.test.len() <= 40, "fold size {}", f.test.len());
        }
    }

    #[test]
    fn deterministic_for_same_seed() {
        let groups: Vec<u64> = (0..25).map(|i| i % 9).collect();
        assert_eq!(grouped_k_folds(&groups, 3, 11), grouped_k_folds(&groups, 3, 11));
    }

    #[test]
    fn empty_input_yields_empty_folds() {
        let folds = grouped_k_folds(&[], 3, 0);
        assert_eq!(folds.len(), 3);
        assert!(folds.iter().all(|f| f.test.is_empty() && f.train.is_empty()));
    }

    #[test]
    #[should_panic(expected = "at least two folds")]
    fn rejects_single_fold() {
        grouped_k_folds(&[1, 2, 3], 1, 0);
    }

    proptest! {
        #[test]
        fn partition_property(groups in proptest::collection::vec(0u64..10, 0..60), k in 2usize..5, seed in 0u64..20) {
            let folds = grouped_k_folds(&groups, k, seed);
            prop_assert_eq!(folds.len(), k);
            let total: usize = folds.iter().map(|f| f.test.len()).sum();
            prop_assert_eq!(total, groups.len());
            for f in &folds {
                prop_assert_eq!(f.train.len() + f.test.len(), groups.len());
            }
        }
    }
}
