//! Clustering evaluation following Hassanzadeh et al. (paper Section 3.2).

use std::collections::{HashMap, HashSet};

use ltee_webtables::RowRef;

use crate::f1;

/// Result of evaluating a clustering against the gold clusters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusteringEvaluation {
    /// Penalised clustering precision (PCP).
    pub penalized_precision: f64,
    /// Average recall (AR) over the gold clusters.
    pub average_recall: f64,
    /// F1 of the two.
    pub f1: f64,
    /// Number of produced clusters.
    pub produced_clusters: usize,
    /// Number of gold clusters.
    pub gold_clusters: usize,
}

/// Evaluate produced clusters `c` against gold clusters `g`.
///
/// * A produced cluster is mapped to the gold cluster from which it contains
///   the highest fraction of rows (ties broken by the absolute overlap).
/// * **Average recall**: for each gold cluster, the fraction of its rows
///   contained in the produced cluster mapped to it (0 if none mapped).
/// * **Clustering precision**: the fraction of same-produced-cluster row
///   pairs that are also same-gold-cluster pairs; clusters of size one count
///   as correct pairs of size one (so that singleton-heavy clusterings are
///   not unfairly advantaged or penalised).
/// * **Penalty**: the precision is multiplied by
///   `min(|C|, |G|, |M|) / max(|C|, |G|, |M|)` where `M` is the number of
///   mapped cluster pairs — deviations from the correct number of clusters
///   are punished.
pub fn evaluate_clustering(produced: &[Vec<RowRef>], gold: &[Vec<RowRef>]) -> ClusteringEvaluation {
    let gold_of_row: HashMap<RowRef, usize> = gold
        .iter()
        .enumerate()
        .flat_map(|(gi, rows)| rows.iter().map(move |r| (*r, gi)))
        .collect();

    // Map each produced cluster to a gold cluster.
    let mut mapping: HashMap<usize, usize> = HashMap::new();
    for (ci, rows) in produced.iter().enumerate() {
        if rows.is_empty() {
            continue;
        }
        let mut counts: HashMap<usize, usize> = HashMap::new();
        for row in rows {
            if let Some(&gi) = gold_of_row.get(row) {
                *counts.entry(gi).or_insert(0) += 1;
            }
        }
        if let Some((&gi, _)) = counts.iter().max_by(|a, b| {
            let frac_a = *a.1 as f64 / rows.len() as f64;
            let frac_b = *b.1 as f64 / rows.len() as f64;
            frac_a.partial_cmp(&frac_b).unwrap_or(std::cmp::Ordering::Equal).then(a.1.cmp(b.1))
        }) {
            mapping.insert(ci, gi);
        }
    }

    // A gold cluster may be targeted by several produced clusters; for
    // recall, use the best mapped produced cluster per gold cluster.
    let mut best_for_gold: HashMap<usize, usize> = HashMap::new();
    for (&ci, &gi) in &mapping {
        let overlap = produced[ci].iter().filter(|r| gold_of_row.get(r) == Some(&gi)).count();
        let current_best = best_for_gold
            .get(&gi)
            .map(|&prev| produced[prev].iter().filter(|r| gold_of_row.get(r) == Some(&gi)).count())
            .unwrap_or(0);
        if overlap > current_best {
            best_for_gold.insert(gi, ci);
        }
    }

    // Average recall.
    let mut recall_sum = 0.0;
    for (gi, rows) in gold.iter().enumerate() {
        if rows.is_empty() {
            continue;
        }
        let recall = match best_for_gold.get(&gi) {
            Some(&ci) => {
                let gold_rows: HashSet<&RowRef> = rows.iter().collect();
                produced[ci].iter().filter(|r| gold_rows.contains(r)).count() as f64 / rows.len() as f64
            }
            None => 0.0,
        };
        recall_sum += recall;
    }
    let non_empty_gold = gold.iter().filter(|g| !g.is_empty()).count();
    let average_recall = if non_empty_gold == 0 { 0.0 } else { recall_sum / non_empty_gold as f64 };

    // Pairwise clustering precision.
    let mut correct_pairs = 0usize;
    let mut total_pairs = 0usize;
    for rows in produced {
        if rows.is_empty() {
            continue;
        }
        if rows.len() == 1 {
            // A singleton is a trivially correct "pair".
            total_pairs += 1;
            correct_pairs += 1;
            continue;
        }
        for i in 0..rows.len() {
            for j in (i + 1)..rows.len() {
                total_pairs += 1;
                if let (Some(a), Some(b)) = (gold_of_row.get(&rows[i]), gold_of_row.get(&rows[j])) {
                    if a == b {
                        correct_pairs += 1;
                    }
                }
            }
        }
    }
    let precision = if total_pairs == 0 { 0.0 } else { correct_pairs as f64 / total_pairs as f64 };

    // Penalty for deviating from the correct number of clusters.
    let produced_count = produced.iter().filter(|c| !c.is_empty()).count();
    let mapped_count = mapping.len();
    let sizes = [produced_count, non_empty_gold, mapped_count];
    let min = *sizes.iter().min().unwrap_or(&0) as f64;
    let max = *sizes.iter().max().unwrap_or(&1) as f64;
    let penalty = if max <= 0.0 { 0.0 } else { min / max };
    let penalized_precision = precision * penalty;

    ClusteringEvaluation {
        penalized_precision,
        average_recall,
        f1: f1(penalized_precision, average_recall),
        produced_clusters: produced_count,
        gold_clusters: non_empty_gold,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ltee_webtables::TableId;

    fn r(t: u64, row: usize) -> RowRef {
        RowRef::new(TableId(t), row)
    }

    #[test]
    fn perfect_clustering_scores_one() {
        let gold = vec![vec![r(1, 0), r(2, 0)], vec![r(3, 0)], vec![r(4, 0), r(5, 0), r(6, 0)]];
        let eval = evaluate_clustering(&gold, &gold);
        assert!((eval.penalized_precision - 1.0).abs() < 1e-12);
        assert!((eval.average_recall - 1.0).abs() < 1e-12);
        assert!((eval.f1 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn over_merging_reduces_precision() {
        let gold = vec![vec![r(1, 0), r(2, 0)], vec![r(3, 0), r(4, 0)]];
        let produced = vec![vec![r(1, 0), r(2, 0), r(3, 0), r(4, 0)]];
        let eval = evaluate_clustering(&produced, &gold);
        assert!(eval.penalized_precision < 0.5, "pcp {}", eval.penalized_precision);
        assert!(eval.average_recall <= 1.0);
        assert!(eval.f1 < 0.8);
    }

    #[test]
    fn over_splitting_reduces_recall_and_is_penalised() {
        let gold = vec![vec![r(1, 0), r(2, 0), r(3, 0), r(4, 0)]];
        let produced = vec![vec![r(1, 0)], vec![r(2, 0)], vec![r(3, 0)], vec![r(4, 0)]];
        let eval = evaluate_clustering(&produced, &gold);
        assert!(eval.average_recall < 0.5);
        assert!(eval.penalized_precision < 0.5, "penalty should kick in: {}", eval.penalized_precision);
    }

    #[test]
    fn unknown_rows_count_as_wrong_pairs() {
        let gold = vec![vec![r(1, 0), r(2, 0)]];
        let produced = vec![vec![r(1, 0), r(2, 0), r(9, 9)]];
        let eval = evaluate_clustering(&produced, &gold);
        assert!(eval.penalized_precision < 1.0);
        assert!((eval.average_recall - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_inputs() {
        let eval = evaluate_clustering(&[], &[]);
        assert_eq!(eval.f1, 0.0);
        let gold = vec![vec![r(1, 0)]];
        let eval = evaluate_clustering(&[], &gold);
        assert_eq!(eval.average_recall, 0.0);
    }

    #[test]
    fn partially_correct_clustering_between_zero_and_one() {
        let gold = vec![vec![r(1, 0), r(2, 0), r(3, 0)], vec![r(4, 0), r(5, 0)]];
        let produced = vec![vec![r(1, 0), r(2, 0)], vec![r(3, 0), r(4, 0), r(5, 0)]];
        let eval = evaluate_clustering(&produced, &gold);
        assert!(eval.f1 > 0.3 && eval.f1 < 1.0, "f1 {}", eval.f1);
    }
}
