//! Greedy parallel correlation clustering with KLj refinement and blocking.

use std::collections::{HashMap, HashSet};

use ltee_index::LabelIndex;
use ltee_intern::{Interner, Sym};
use ltee_webtables::RowRef;
use rayon::prelude::*;

use crate::context::{ImplicitAttributes, RowContext};
use crate::metrics::{PhiTableVectors, RowProbe, RowSimilarityModel};

/// Minimum number of member pairs before the KLj merge scan scores a
/// cluster pair on the thread pool; smaller cross-products are cheaper than
/// a thread spawn. The gate depends only on cluster sizes — never on the
/// thread count — so the scored value stays deterministic.
const MIN_PARALLEL_MERGE_PAIRS: usize = 256;

/// Configuration of the clustering algorithm: the two switches whose off
/// paths tests use as references. The rest of the algorithm's settings are
/// the associated constants.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusteringConfig {
    /// Whether blocking is applied (rows are only compared to clusters
    /// sharing a block). Disable to measure blocking's effect.
    pub use_blocking: bool,
    /// Whether the KLj refinement runs after the greedy pass.
    pub use_klj: bool,
}

impl ClusteringConfig {
    /// Number of similar labels retrieved per row when assigning blocks.
    pub const BLOCK_CANDIDATES: usize = 8;
    /// Number of rows assigned per parallel batch of the greedy pass.
    pub const BATCH_SIZE: usize = 64;
    /// Ceiling on KLj refinement passes. The refinement loop also stops as
    /// soon as a full pass makes no improving move (convergence), so this
    /// bounds the worst case rather than the typical one.
    pub const MAX_KLJ_PASSES: usize = 3;
}

impl Default for ClusteringConfig {
    fn default() -> Self {
        Self { use_blocking: true, use_klj: true }
    }
}

/// The result of clustering: clusters of row indices (into the context
/// slice) plus the corresponding row references.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Clustering {
    /// Clusters as indices into the input row slice.
    pub clusters: Vec<Vec<usize>>,
}

impl Clustering {
    /// Number of clusters.
    pub fn len(&self) -> usize {
        self.clusters.len()
    }

    /// True when there are no clusters.
    pub fn is_empty(&self) -> bool {
        self.clusters.is_empty()
    }

    /// Translate the clusters into row references.
    pub fn to_row_refs(&self, contexts: &[RowContext]) -> Vec<Vec<RowRef>> {
        self.clusters
            .iter()
            .map(|c| c.iter().map(|&i| contexts[i].row).collect())
            .collect()
    }
}

/// Cluster the rows using the learned row similarity model. `interner` is
/// the run interner behind the contexts' interned label tokens (block keys
/// use a separate index-local interner and stay internal to this call).
pub fn cluster_rows(
    contexts: &[RowContext],
    model: &RowSimilarityModel,
    phi: &PhiTableVectors,
    implicit: &ImplicitAttributes,
    config: &ClusteringConfig,
    interner: &Interner,
) -> Clustering {
    if contexts.is_empty() {
        return Clustering::default();
    }

    // --- Blocking -----------------------------------------------------------
    // Build a label index over the normalised row labels; each row's blocks
    // are the *syms* of its own label plus its most similar indexed labels —
    // dense integers of the index's interner, so block-overlap tests are
    // integer set operations. `label_syms[i]` is row i's own block key.
    let mut label_syms: Vec<Option<Sym>> = vec![None; contexts.len()];
    let blocks: Vec<HashSet<Sym>> = if config.use_blocking {
        let mut index = LabelIndex::new();
        for (i, ctx) in contexts.iter().enumerate() {
            if !ctx.normalized_label.is_empty() {
                label_syms[i] = Some(index.insert(i as u64, &ctx.normalized_label));
            }
        }
        let label_syms = &label_syms;
        contexts
            .par_iter()
            .enumerate()
            .map(|(i, ctx)| {
                let mut set = HashSet::new();
                if let Some(sym) = label_syms[i] {
                    set.insert(sym);
                    for m in index.lookup(&ctx.normalized_label, ClusteringConfig::BLOCK_CANDIDATES) {
                        set.insert(m.normalized);
                    }
                }
                set
            })
            .collect()
    } else {
        // Without blocking the disjointness gates below are never
        // consulted; rows carry empty block sets.
        vec![HashSet::new(); contexts.len()]
    };

    // --- Parallel greedy correlation clustering -----------------------------
    // Rows are assigned batch by batch: scores against the current clusters
    // are computed in parallel against a snapshot, then applied sequentially
    // (creating new clusters as needed). This mirrors the paper's parallel
    // greedy pass whose occasional mistakes the KLj step repairs.
    let mut clusters: Vec<Vec<usize>> = Vec::new();
    let mut cluster_blocks: Vec<HashSet<Sym>> = Vec::new();

    let order: Vec<usize> = (0..contexts.len()).collect();
    for batch in order.chunks(ClusteringConfig::BATCH_SIZE) {
        let assignments: Vec<(usize, Option<usize>)> = batch
            .par_iter()
            .map(|&row_idx| {
                let row_blocks = &blocks[row_idx];
                let probe = RowProbe::new(&contexts[row_idx], implicit);
                let mut best: Option<(usize, f64)> = None;
                for (cluster_idx, members) in clusters.iter().enumerate() {
                    if config.use_blocking && row_blocks.is_disjoint(&cluster_blocks[cluster_idx]) {
                        continue;
                    }
                    let score: f64 = members
                        .iter()
                        .map(|&m| probe.score(model, &contexts[m], phi, interner))
                        .sum();
                    if score > 0.0 && best.map(|(_, s)| score > s).unwrap_or(true) {
                        best = Some((cluster_idx, score));
                    }
                }
                (row_idx, best.map(|(c, _)| c))
            })
            .collect();

        for (row_idx, target) in assignments {
            match target {
                Some(cluster_idx) => {
                    clusters[cluster_idx].push(row_idx);
                    cluster_blocks[cluster_idx].extend(blocks[row_idx].iter().copied());
                }
                None => {
                    clusters.push(vec![row_idx]);
                    cluster_blocks.push(blocks[row_idx].clone());
                }
            }
        }
    }

    // --- KLj refinement ------------------------------------------------------
    if config.use_klj {
        refine_klj(
            contexts,
            &label_syms,
            model,
            phi,
            implicit,
            &mut clusters,
            &mut cluster_blocks,
            config,
            interner,
        );
    }

    clusters.retain(|c| !c.is_empty());
    Clustering { clusters }
}

/// Sum of pairwise scores between a row and a cluster's members.
#[allow(clippy::too_many_arguments)]
fn row_to_cluster_score(
    row: usize,
    members: &[usize],
    contexts: &[RowContext],
    model: &RowSimilarityModel,
    phi: &PhiTableVectors,
    implicit: &ImplicitAttributes,
    interner: &Interner,
) -> f64 {
    let probe = RowProbe::new(&contexts[row], implicit);
    members
        .iter()
        .filter(|&&m| m != row)
        .map(|&m| probe.score(model, &contexts[m], phi, interner))
        .sum()
}

/// Kernighan-Lin with joins: for cluster pairs sharing a block, try moving
/// individual rows between them and merging them entirely; additionally try
/// splitting rows out of their cluster when that improves the local fitness.
///
/// `label_syms[i]` is row i's own block key (its normalised label's sym in
/// the blocking index), `None` for label-less rows.
#[allow(clippy::too_many_arguments)]
fn refine_klj(
    contexts: &[RowContext],
    label_syms: &[Option<Sym>],
    model: &RowSimilarityModel,
    phi: &PhiTableVectors,
    implicit: &ImplicitAttributes,
    clusters: &mut Vec<Vec<usize>>,
    cluster_blocks: &mut Vec<HashSet<Sym>>,
    config: &ClusteringConfig,
    interner: &Interner,
) {
    for _ in 0..ClusteringConfig::MAX_KLJ_PASSES {
        let mut improved = false;

        // Move / split: for every row, check whether leaving its cluster (to
        // another block-sharing cluster or to a fresh singleton) increases
        // the fitness.
        let mut row_cluster: HashMap<usize, usize> = HashMap::new();
        for (ci, members) in clusters.iter().enumerate() {
            for &m in members {
                row_cluster.insert(m, ci);
            }
        }
        // Process rows in index order: KLj moves depend on the moves made
        // before them, so iterating the map's keys in hash order would make
        // the final clustering differ from process to process.
        let mut all_rows: Vec<usize> = row_cluster.keys().copied().collect();
        all_rows.sort_unstable();
        for row in all_rows {
            let current = row_cluster[&row];
            let current_score = row_to_cluster_score(
                row, &clusters[current], contexts, model, phi, implicit, interner,
            );
            // Candidate targets: clusters sharing a block with the row.
            let mut best_target: Option<(usize, f64)> = None;
            for (ci, members) in clusters.iter().enumerate() {
                if ci == current || members.is_empty() {
                    continue;
                }
                if config.use_blocking {
                    // A member shares the row's block iff the two label syms
                    // are equal (label-less rows share no block).
                    let shares = label_syms[row]
                        .map(|s| members.iter().any(|&m| label_syms[m] == Some(s)))
                        .unwrap_or(false);
                    let shares = shares || !cluster_blocks[ci].is_disjoint(&cluster_blocks[current]);
                    if !shares {
                        continue;
                    }
                }
                let score =
                    row_to_cluster_score(row, members, contexts, model, phi, implicit, interner);
                if best_target.map(|(_, s)| score > s).unwrap_or(true) {
                    best_target = Some((ci, score));
                }
            }
            // Option 1: move to the best other cluster.
            if let Some((target, score)) = best_target {
                if score > current_score && score > 0.0 {
                    clusters[current].retain(|&m| m != row);
                    clusters[target].push(row);
                    cluster_blocks[target].extend(label_syms[row]);
                    row_cluster.insert(row, target);
                    improved = true;
                    continue;
                }
            }
            // Option 2: split into a singleton when the row hurts its cluster.
            if current_score < 0.0 && clusters[current].len() > 1 {
                clusters[current].retain(|&m| m != row);
                clusters.push(vec![row]);
                cluster_blocks.push(label_syms[row].into_iter().collect());
                row_cluster.insert(row, clusters.len() - 1);
                improved = true;
            }
        }

        // Merge: try merging block-sharing cluster pairs when the cross
        // similarity is positive.
        for i in 0..clusters.len() {
            if clusters[i].is_empty() {
                continue;
            }
            for j in (i + 1)..clusters.len() {
                if clusters[j].is_empty() {
                    continue;
                }
                if config.use_blocking && cluster_blocks[i].is_disjoint(&cluster_blocks[j]) {
                    continue;
                }
                let member_pairs = clusters[i].len() * clusters[j].len();
                let pair_count = member_pairs.max(1) as f64;
                // Cross-similarity of the cluster pair: every (a, b) member
                // pair is scored, parallel over the left cluster for large
                // pairs. The branch below depends only on the cluster sizes
                // (never the thread count) and the pool's chunked summation
                // order is fixed, so the merge decision is identical at
                // every thread count.
                let right = &clusters[j];
                let score_row = |&a: &usize| {
                    let probe = RowProbe::new(&contexts[a], implicit);
                    right
                        .iter()
                        .map(|&b| probe.score(model, &contexts[b], phi, interner))
                        .sum::<f64>()
                };
                let cross: f64 = if member_pairs >= MIN_PARALLEL_MERGE_PAIRS {
                    clusters[i].par_iter().map(score_row).sum()
                } else {
                    clusters[i].iter().map(score_row).sum()
                };
                // Merge only when the clusters are positively similar on
                // average, not merely in aggregate — merging two large
                // homonym clusters on the strength of a few positive pairs
                // is the dominant KLj failure mode for the Song class.
                if cross > 0.0 && cross / pair_count > 0.05 {
                    let (from, to) = (j, i);
                    let moved: Vec<usize> = clusters[from].drain(..).collect();
                    clusters[to].extend(moved);
                    let blocks: Vec<Sym> = cluster_blocks[from].drain().collect();
                    cluster_blocks[to].extend(blocks);
                    improved = true;
                }
            }
        }

        if !improved {
            break;
        }
    }
    clusters.retain(|c| !c.is_empty());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::RowMetricKind;
    use ltee_matching::RowValues;
    use ltee_ml::{AggregationMethod, Dataset, Sample};
    use ltee_text::BowVector;
    use ltee_webtables::TableId;

    /// Number of synthetic training points for the hand-built label model
    /// below (dense enough to pin the learned threshold).
    const LABEL_MODEL_TRAINING_POINTS: usize = 40;

    /// Build a simple label-only model: match iff labels are very similar.
    fn label_model() -> RowSimilarityModel {
        let metrics = vec![RowMetricKind::Label];
        let mut ds = Dataset::new(RowSimilarityModel::feature_names(&metrics));
        for i in 0..LABEL_MODEL_TRAINING_POINTS {
            let x = i as f64 / LABEL_MODEL_TRAINING_POINTS as f64;
            ds.push(Sample::new(vec![x], if x > 0.8 { 1.0 } else { 0.0 }));
        }
        RowSimilarityModel::train(
            &ds,
            metrics,
            AggregationMethod::WeightedAverage,
            &ltee_ml::aggregate::PairwiseTrainingConfig {
                genetic: ltee_ml::GeneticConfig { population: 20, generations: 15, seed: 1 },
                ..Default::default()
            },
        )
    }

    fn ctx(interner: &mut ltee_intern::Interner, table: u64, row: usize, label: &str) -> RowContext {
        let values = RowValues { label: label.to_string(), values: vec![] };
        RowContext::new(RowRef::new(TableId(table), row), values, BowVector::from_text(label), interner)
    }

    fn run(
        contexts: &[RowContext],
        config: &ClusteringConfig,
        interner: &ltee_intern::Interner,
    ) -> Vec<Vec<usize>> {
        let model = label_model();
        let clustering = cluster_rows(
            contexts,
            &model,
            &PhiTableVectors::default(),
            &ImplicitAttributes::default(),
            config,
            interner,
        );
        clustering.clusters
    }

    fn cluster_of(clusters: &[Vec<usize>], row: usize) -> usize {
        clusters.iter().position(|c| c.contains(&row)).expect("row clustered")
    }

    #[test]
    fn identical_labels_cluster_together() {
        let mut interner = ltee_intern::Interner::new();
        let contexts = vec![
            ctx(&mut interner, 1, 0, "Tom Brady"),
            ctx(&mut interner, 2, 0, "Tom Brady"),
            ctx(&mut interner, 3, 0, "Eli Manning"),
            ctx(&mut interner, 4, 0, "Eli Manning"),
            ctx(&mut interner, 5, 0, "Yellow Submarine"),
        ];
        let clusters = run(&contexts, &ClusteringConfig::default(), &interner);
        assert_eq!(clusters.len(), 3);
        assert_eq!(cluster_of(&clusters, 0), cluster_of(&clusters, 1));
        assert_eq!(cluster_of(&clusters, 2), cluster_of(&clusters, 3));
        assert_ne!(cluster_of(&clusters, 0), cluster_of(&clusters, 4));
    }

    #[test]
    fn every_row_is_clustered_exactly_once() {
        let mut interner = ltee_intern::Interner::new();
        let contexts: Vec<RowContext> =
            (0..30).map(|i| ctx(&mut interner, i as u64, 0, &format!("Entity {}", i % 10))).collect();
        let clusters = run(&contexts, &ClusteringConfig::default(), &interner);
        let total: usize = clusters.iter().map(|c| c.len()).sum();
        assert_eq!(total, 30);
        let mut seen = HashSet::new();
        for c in &clusters {
            for &r in c {
                assert!(seen.insert(r));
            }
        }
    }

    #[test]
    fn typo_labels_still_cluster() {
        let mut interner = ltee_intern::Interner::new();
        let contexts =
            vec![ctx(&mut interner, 1, 0, "Peyton Manning"), ctx(&mut interner, 2, 0, "Peyton Maning")];
        let clusters = run(&contexts, &ClusteringConfig::default(), &interner);
        assert_eq!(clusters.len(), 1, "near-identical labels should merge: {clusters:?}");
    }

    #[test]
    fn blocking_and_no_blocking_agree_on_easy_data() {
        let mut interner = ltee_intern::Interner::new();
        let contexts: Vec<RowContext> =
            (0..20).map(|i| ctx(&mut interner, i as u64, 0, &format!("Entity {}", i % 5))).collect();
        let with = run(&contexts, &ClusteringConfig::default(), &interner);
        let without = run(
            &contexts,
            &ClusteringConfig { use_blocking: false, ..Default::default() },
            &interner,
        );
        assert_eq!(with.len(), without.len());
    }

    #[test]
    fn klj_disabled_still_produces_valid_clustering() {
        let mut interner = ltee_intern::Interner::new();
        let contexts: Vec<RowContext> =
            (0..12).map(|i| ctx(&mut interner, i as u64, 0, &format!("Entity {}", i % 4))).collect();
        let clusters =
            run(&contexts, &ClusteringConfig { use_klj: false, ..Default::default() }, &interner);
        let total: usize = clusters.iter().map(|c| c.len()).sum();
        assert_eq!(total, 12);
    }

    #[test]
    fn empty_input_gives_empty_clustering() {
        let clusters = run(&[], &ClusteringConfig::default(), &ltee_intern::Interner::new());
        assert!(clusters.is_empty());
    }

    #[test]
    fn rows_of_same_table_can_still_separate() {
        // Two different entities in one table must not be forced together.
        let mut interner = ltee_intern::Interner::new();
        let contexts =
            vec![ctx(&mut interner, 1, 0, "Alpha Bravo"), ctx(&mut interner, 1, 1, "Charlie Delta")];
        let clusters = run(&contexts, &ClusteringConfig::default(), &interner);
        assert_eq!(clusters.len(), 2);
    }

    #[test]
    fn to_row_refs_preserves_membership() {
        let mut interner = ltee_intern::Interner::new();
        let contexts = vec![ctx(&mut interner, 1, 0, "A"), ctx(&mut interner, 2, 0, "A")];
        let model = label_model();
        let clustering = cluster_rows(
            &contexts,
            &model,
            &PhiTableVectors::default(),
            &ImplicitAttributes::default(),
            &ClusteringConfig::default(),
            &interner,
        );
        let refs = clustering.to_row_refs(&contexts);
        let total: usize = refs.iter().map(|c| c.len()).sum();
        assert_eq!(total, 2);
    }
}
