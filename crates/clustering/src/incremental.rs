//! Streaming (serve-phase) clustering primitives.
//!
//! The batch path ([`crate::cluster::cluster_rows`]) assumes the whole
//! corpus is available: blocking looks rows up in an index over *all* row
//! labels, the greedy pass snapshots clusters per configured batch, and the
//! KLj refinement repeatedly rescans every cluster pair. None of that
//! extends to a stream of micro-batches without reprocessing everything.
//!
//! This module provides the streaming alternative used by
//! `ltee_core::IncrementalPipeline`: per-class state that grows append-only
//! and whose result is — by construction — **independent of how the stream
//! is split into micro-batches**:
//!
//! * [`StreamingPhi`] freezes each table's PHI vector at the moment the
//!   table is ingested, computed from the label statistics accumulated *up
//!   to and including that table*. A table's vector never changes
//!   afterwards, so scores between earlier and later rows do not depend on
//!   where a batch boundary fell.
//! * [`StreamingClusterer`] runs a strictly row-sequential greedy
//!   correlation clustering: each row is blocked against the labels of the
//!   rows before it and scored, on the calling thread, against every
//!   cluster blocking admits, then assigned. Because each
//!   decision depends only on the rows that came before, clustering a
//!   corpus in one batch or in K micro-batches yields bit-identical
//!   clusters.
//!
//! The trade-offs versus the batch path are deliberate and documented:
//! blocking is prefix-based (a row cannot share a block with a label that
//! only appears later), and there is no KLj refinement (it is a global
//! repair pass; running it per batch would make results depend on batch
//! boundaries).

use std::collections::{BTreeSet, HashMap, HashSet};

use ltee_index::LabelIndex;
use ltee_intern::{Interner, Sym};
use ltee_webtables::{RowRef, TableId};

use crate::cluster::ClusteringConfig;
use crate::context::{ImplicitAttributes, RowContext};
use crate::metrics::{PhiTableVectors, RowProbe, RowSimilarityModel};

/// Incrementally built PHI table vectors with per-table freezing.
///
/// Mirrors the counting scheme of [`PhiTableVectors::build`] (label
/// occurrence counts, within-table co-occurrence counts, table count), but
/// computes each table's sparse vector once — when the table is added —
/// from the statistics accumulated so far, and never revises it. See the
/// module docs for why.
#[derive(Debug, Clone, Default)]
pub struct StreamingPhi {
    /// Number of occurrences of each normalised label across added tables.
    occurrences: HashMap<String, f64>,
    /// Ordered within-table co-occurrence counts: `a → (b → count)`.
    cooccur: HashMap<String, HashMap<String, f64>>,
    /// Number of tables added (only tables with at least one label count).
    tables: usize,
    /// The frozen per-table vectors.
    frozen: PhiTableVectors,
}

impl StreamingPhi {
    /// Create an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add one table's normalised row labels (empty labels must already be
    /// filtered out) and freeze the table's PHI vector against the
    /// statistics accumulated so far. Tables must be added in global ingest
    /// order; re-adding an already frozen table is ignored (its vector and
    /// the accumulated statistics stay untouched).
    pub fn add_table(&mut self, table: TableId, labels: &[String]) {
        if labels.is_empty() || self.frozen.contains(table) {
            return;
        }
        // Update the statistics with this table first (the batch builder
        // also counts a label's own table).
        for i in 0..labels.len() {
            *self.occurrences.entry(labels[i].clone()).or_insert(0.0) += 1.0;
            for j in 0..labels.len() {
                if i == j {
                    continue;
                }
                *self
                    .cooccur
                    .entry(labels[i].clone())
                    .or_default()
                    .entry(labels[j].clone())
                    .or_insert(0.0) += 1.0;
            }
        }
        self.tables += 1;

        // Freeze the table vector: average of its labels' correlation
        // vectors under the current statistics.
        let n = self.tables.max(1) as f64;
        let mut acc: HashMap<String, f64> = HashMap::new();
        for label in labels {
            let Some(pairs) = self.cooccur.get(label) else { continue };
            let na = self.occurrences.get(label).copied().unwrap_or(0.0);
            for (other, nab) in pairs {
                let nb = self.occurrences.get(other).copied().unwrap_or(0.0);
                let denom = (na * nb * (n - na) * (n - nb)).sqrt();
                if denom < 1e-12 {
                    continue;
                }
                let phi = (n * *nab - na * nb) / denom;
                if phi.abs() > 1e-9 {
                    *acc.entry(other.clone()).or_insert(0.0) += phi;
                }
            }
        }
        let count = labels.len().max(1) as f64;
        let mut sorted: Vec<(String, f64)> = acc.into_iter().map(|(k, v)| (k, v / count)).collect();
        sorted.retain(|(_, v)| v.abs() > 0.0);
        sorted.sort_by(|a, b| a.0.cmp(&b.0));
        self.frozen.insert_vector(table, sorted);
    }

    /// The frozen vectors, in the form the row similarity metrics consume.
    pub fn vectors(&self) -> &PhiTableVectors {
        &self.frozen
    }

    /// Number of tables with a frozen vector.
    pub fn table_count(&self) -> usize {
        self.frozen.table_count()
    }
}

/// Append-only greedy correlation clusterer whose output is invariant to
/// micro-batch boundaries (see the module docs).
#[derive(Debug, Clone)]
pub struct StreamingClusterer {
    config: ClusteringConfig,
    contexts: Vec<RowContext>,
    clusters: Vec<Vec<usize>>,
    /// Integer block keys per cluster: syms of `block_index`'s interner.
    /// Sym ids are a function of row ingest order alone, so they are
    /// identical however the stream is split into micro-batches.
    cluster_blocks: Vec<HashSet<Sym>>,
    /// Labels of all ingested rows (prefix blocking index; owns the
    /// interner that mints the block syms).
    block_index: LabelIndex,
}

impl StreamingClusterer {
    /// Create an empty clusterer. Only the `use_blocking` /
    /// `block_candidates` fields of the config are consulted — the greedy
    /// batch size and KLj settings belong to the batch path.
    pub fn new(config: ClusteringConfig) -> Self {
        Self {
            config,
            contexts: Vec::new(),
            clusters: Vec::new(),
            cluster_blocks: Vec::new(),
            block_index: LabelIndex::new(),
        }
    }

    /// Rebuild a clusterer from persisted cluster assignments, replaying
    /// the blocking side effects of [`StreamingClusterer::ingest`] without
    /// re-scoring a single row pair.
    ///
    /// Used by checkpoint recovery: the assignment decisions are the
    /// expensive model-driven part of ingest, so they are persisted, while
    /// the prefix blocking index and the per-cluster block-key sets are a
    /// pure function of `(contexts, clusters, config)` and are replayed
    /// here row by row — the exact sequence of `intern_label` / `lookup` /
    /// `insert` calls ingest performed, so the rebuilt state (including
    /// every internal `Sym` id) is bit-identical to the clusterer that
    /// produced the assignments.
    ///
    /// Caller contract (validated by the checkpoint decoder before this is
    /// reached): every row index in `clusters` is `< contexts.len()`,
    /// every row appears in exactly one cluster, each cluster's rows are
    /// ascending, and clusters are ordered by founding row.
    pub fn from_parts(
        config: ClusteringConfig,
        contexts: Vec<RowContext>,
        clusters: Vec<Vec<usize>>,
    ) -> Self {
        let mut cluster_of_row = vec![usize::MAX; contexts.len()];
        for (ci, members) in clusters.iter().enumerate() {
            for &row in members {
                assert!(row < contexts.len(), "cluster row index out of bounds");
                assert_eq!(cluster_of_row[row], usize::MAX, "row assigned to two clusters");
                cluster_of_row[row] = ci;
            }
        }
        assert!(
            cluster_of_row.iter().all(|&c| c != usize::MAX),
            "clusters must partition the rows"
        );

        let mut cluster_blocks: Vec<HashSet<Sym>> = vec![HashSet::new(); clusters.len()];
        let mut block_index = LabelIndex::new();
        for (row_idx, ctx) in contexts.iter().enumerate() {
            let label = &ctx.normalized_label;
            // Same order of operations as ingest: block keys are computed
            // against the strict prefix, then the row itself is indexed.
            let mut blocks: HashSet<Sym> = HashSet::new();
            if !label.is_empty() {
                blocks.insert(block_index.intern_label(label));
                if config.use_blocking {
                    for m in block_index.lookup(label, config.block_candidates) {
                        blocks.insert(m.normalized);
                    }
                }
            }
            cluster_blocks[cluster_of_row[row_idx]].extend(blocks);
            if !label.is_empty() {
                block_index.insert(row_idx as u64, label);
            }
        }
        Self { config, contexts, clusters, cluster_blocks, block_index }
    }

    /// Ingest a micro-batch of rows, assigning each to the best existing
    /// cluster (or founding a new one). Returns the sorted indices of the
    /// clusters that were created or extended.
    ///
    /// Rows are processed strictly in order and scored on the calling
    /// thread: a pair scores in microseconds and blocking admits a few
    /// dozen pairs per row, so a scoped spawn-and-join per row costs more
    /// than it shares out. `interner` is the pipeline interner behind the
    /// contexts' interned label tokens.
    pub fn ingest(
        &mut self,
        new_contexts: Vec<RowContext>,
        model: &RowSimilarityModel,
        phi: &PhiTableVectors,
        implicit: &ImplicitAttributes,
        interner: &Interner,
    ) -> Vec<usize> {
        let mut touched: BTreeSet<usize> = BTreeSet::new();
        // Per-row scratch, reused from row to row.
        let mut blocks: HashSet<Sym> = HashSet::new();
        for ctx in new_contexts {
            let row_idx = self.contexts.len();
            self.contexts.push(ctx);
            let Self { config, contexts, clusters, cluster_blocks, block_index } = &mut *self;
            let label = contexts[row_idx].normalized_label.as_str();

            // Blocks: the row's own label plus similar labels among the
            // rows ingested before it — as integer syms of the prefix
            // index. The row's own label is interned *before* the lookup
            // (interning never changes lookup results) so its block key
            // exists even though the row itself is only indexed below,
            // after the assignment decision.
            blocks.clear();
            if !label.is_empty() {
                blocks.insert(block_index.intern_label(label));
                if config.use_blocking {
                    for m in block_index.lookup(label, config.block_candidates) {
                        blocks.insert(m.normalized);
                    }
                }
            }

            // Score the row against the members, in member order, of each
            // cluster blocking admits — a small share of all clusters. Best
            // strictly-positive score wins; ties go to the lowest cluster
            // index (scan order, strict `>`), matching the batch greedy
            // pass.
            let probe = RowProbe::new(&contexts[row_idx], implicit);
            let mut best: Option<(usize, f64)> = None;
            for ci in 0..clusters.len() {
                if config.use_blocking && blocks.is_disjoint(&cluster_blocks[ci]) {
                    continue;
                }
                let score: f64 = clusters[ci]
                    .iter()
                    .map(|&m| model.score(&probe, &contexts[m], phi, interner))
                    .sum();
                if score > 0.0 && best.map(|(_, s)| score > s).unwrap_or(true) {
                    best = Some((ci, score));
                }
            }
            match best {
                Some((ci, _)) => {
                    clusters[ci].push(row_idx);
                    cluster_blocks[ci].extend(blocks.iter().copied());
                    touched.insert(ci);
                }
                None => {
                    clusters.push(vec![row_idx]);
                    cluster_blocks.push(blocks.clone());
                    touched.insert(clusters.len() - 1);
                }
            }
            if !label.is_empty() {
                block_index.insert(row_idx as u64, label);
            }
        }
        touched.into_iter().collect()
    }

    /// All clusters, as indices into [`StreamingClusterer::contexts`].
    pub fn clusters(&self) -> &[Vec<usize>] {
        &self.clusters
    }

    /// All ingested row contexts, in global ingest order.
    pub fn contexts(&self) -> &[RowContext] {
        &self.contexts
    }

    /// The row references of one cluster.
    pub fn cluster_row_refs(&self, cluster: usize) -> Vec<RowRef> {
        self.clusters[cluster].iter().map(|&i| self.contexts[i].row).collect()
    }

    /// All clusters as row references.
    pub fn all_row_refs(&self) -> Vec<Vec<RowRef>> {
        (0..self.clusters.len()).map(|c| self.cluster_row_refs(c)).collect()
    }

    /// Number of clusters.
    pub fn len(&self) -> usize {
        self.clusters.len()
    }

    /// Whether nothing has been ingested.
    pub fn is_empty(&self) -> bool {
        self.clusters.is_empty()
    }

    /// Number of ingested rows.
    pub fn num_rows(&self) -> usize {
        self.contexts.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{metric_feature_names, RowMetricKind};
    use ltee_matching::RowValues;
    use ltee_ml::{AggregationMethod, Dataset, PairwiseModel, PairwiseTrainingConfig, Sample};
    use ltee_text::BowVector;

    fn label_model() -> RowSimilarityModel {
        let metrics = vec![RowMetricKind::Label];
        let mut ds = Dataset::new(metric_feature_names(&metrics));
        for i in 0..40 {
            let x = i as f64 / 40.0;
            ds.push(Sample::new(vec![x], if x > 0.8 { 1.0 } else { 0.0 }));
        }
        let model = PairwiseModel::train(
            &ds,
            1,
            AggregationMethod::WeightedAverage,
            &PairwiseTrainingConfig {
                genetic: ltee_ml::GeneticConfig {
                    population: 20,
                    generations: 15,
                    seed: 1,
                    ..Default::default()
                },
                ..Default::default()
            },
        );
        RowSimilarityModel { metrics, model }
    }

    fn ctx(interner: &mut Interner, table: u64, row: usize, label: &str) -> RowContext {
        let values = RowValues { label: label.to_string(), values: vec![] };
        RowContext::new(RowRef::new(TableId(table), row), values, BowVector::from_text(label), interner)
    }

    fn sample_rows(interner: &mut Interner) -> Vec<RowContext> {
        (0..24).map(|i| ctx(interner, i as u64, 0, &format!("Entity {}", i % 6))).collect()
    }

    #[test]
    fn one_batch_and_many_batches_cluster_identically() {
        let model = label_model();
        let phi = PhiTableVectors::default();
        let implicit = ImplicitAttributes::default();
        let mut interner = Interner::new();
        let rows = sample_rows(&mut interner);

        let mut all = StreamingClusterer::new(ClusteringConfig::default());
        all.ingest(rows.clone(), &model, &phi, &implicit, &interner);

        for split in [1usize, 3, 5, 7, 24] {
            let mut parts = StreamingClusterer::new(ClusteringConfig::default());
            for chunk in rows.chunks(split) {
                parts.ingest(chunk.to_vec(), &model, &phi, &implicit, &interner);
            }
            assert_eq!(parts.clusters(), all.clusters(), "split size {split}");
        }
    }

    #[test]
    fn from_parts_replays_blocking_state_bit_identically() {
        let model = label_model();
        let phi = PhiTableVectors::default();
        let implicit = ImplicitAttributes::default();
        let mut interner = Interner::new();
        let rows = sample_rows(&mut interner);

        // Reference: ingest the first 16 rows, then the rest.
        let mut reference = StreamingClusterer::new(ClusteringConfig::default());
        reference.ingest(rows[..16].to_vec(), &model, &phi, &implicit, &interner);

        // Rebuild from the persisted parts (contexts + assignments only),
        // then continue ingesting: every later decision reads the replayed
        // blocking state, so divergence anywhere would surface here.
        let mut rebuilt = StreamingClusterer::from_parts(
            ClusteringConfig::default(),
            reference.contexts().to_vec(),
            reference.clusters().to_vec(),
        );
        assert_eq!(rebuilt.cluster_blocks, reference.cluster_blocks);
        let t_ref = reference.ingest(rows[16..].to_vec(), &model, &phi, &implicit, &interner);
        let t_new = rebuilt.ingest(rows[16..].to_vec(), &model, &phi, &implicit, &interner);
        assert_eq!(t_ref, t_new);
        assert_eq!(rebuilt.clusters(), reference.clusters());
        assert_eq!(rebuilt.cluster_blocks, reference.cluster_blocks);
    }

    #[test]
    fn touched_clusters_are_reported() {
        let model = label_model();
        let phi = PhiTableVectors::default();
        let implicit = ImplicitAttributes::default();
        let mut interner = Interner::new();
        let mut clusterer = StreamingClusterer::new(ClusteringConfig::default());
        let touched = clusterer.ingest(
            vec![ctx(&mut interner, 1, 0, "Tom Brady"), ctx(&mut interner, 2, 0, "Eli Manning")],
            &model,
            &phi,
            &implicit,
            &interner,
        );
        assert_eq!(touched, vec![0, 1]);
        // A repeat label joins its cluster; only that cluster is touched.
        let row = ctx(&mut interner, 3, 0, "Tom Brady");
        let touched = clusterer.ingest(vec![row], &model, &phi, &implicit, &interner);
        assert_eq!(touched, vec![0]);
        assert_eq!(clusterer.len(), 2);
        assert_eq!(clusterer.num_rows(), 3);
    }

    #[test]
    fn empty_ingest_is_a_no_op() {
        let model = label_model();
        let phi = PhiTableVectors::default();
        let implicit = ImplicitAttributes::default();
        let mut clusterer = StreamingClusterer::new(ClusteringConfig::default());
        let touched = clusterer.ingest(Vec::new(), &model, &phi, &implicit, &Interner::new());
        assert!(touched.is_empty());
        assert!(clusterer.is_empty());
    }

    #[test]
    fn rows_without_labels_become_singletons_under_blocking() {
        let model = label_model();
        let phi = PhiTableVectors::default();
        let implicit = ImplicitAttributes::default();
        let mut interner = Interner::new();
        let mut clusterer = StreamingClusterer::new(ClusteringConfig::default());
        let rows = vec![ctx(&mut interner, 1, 0, ""), ctx(&mut interner, 2, 0, "")];
        clusterer.ingest(rows, &model, &phi, &implicit, &interner);
        assert_eq!(clusterer.len(), 2);
    }

    #[test]
    fn streaming_phi_is_batch_invariant_and_orders_similarity() {
        // Tables 1 and 2 share labels; table 3 shares none.
        let tables: Vec<(TableId, Vec<String>)> = vec![
            (TableId(1), vec!["alpha".into(), "beta".into()]),
            (TableId(2), vec!["alpha".into(), "beta".into()]),
            (TableId(3), vec!["gamma".into(), "delta".into()]),
            (TableId(4), vec!["alpha".into(), "gamma".into()]),
        ];
        let mut one = StreamingPhi::new();
        for (t, labels) in &tables {
            one.add_table(*t, labels);
        }
        // Adding the same tables in the same order through any grouping is
        // identical because each vector is frozen per table.
        let mut again = StreamingPhi::new();
        for (t, labels) in &tables {
            again.add_table(*t, labels);
        }
        let s12 = one.vectors().table_similarity(TableId(1), TableId(2));
        let s13 = one.vectors().table_similarity(TableId(1), TableId(3));
        assert_eq!(
            s12.to_bits(),
            again.vectors().table_similarity(TableId(1), TableId(2)).to_bits()
        );
        assert!(s12 >= s13, "label-sharing tables should be at least as similar ({s12} vs {s13})");
        assert_eq!(one.table_count(), 4);
    }

    #[test]
    fn streaming_phi_ignores_label_free_tables() {
        let mut phi = StreamingPhi::new();
        phi.add_table(TableId(9), &[]);
        assert_eq!(phi.table_count(), 0);
    }

    #[test]
    fn streaming_phi_ignores_duplicate_re_adds() {
        let mut phi = StreamingPhi::new();
        phi.add_table(TableId(1), &["alpha".into(), "beta".into()]);
        phi.add_table(TableId(2), &["alpha".into(), "beta".into()]);
        let before = phi.vectors().table_similarity(TableId(1), TableId(2));
        // Re-adding table 1 must not double-count its labels' statistics —
        // neither its own vector nor any later table's may shift.
        phi.add_table(TableId(1), &["alpha".into(), "beta".into()]);
        assert_eq!(phi.table_count(), 2);
        assert_eq!(
            phi.vectors().table_similarity(TableId(1), TableId(2)).to_bits(),
            before.to_bits()
        );
        phi.add_table(TableId(3), &["alpha".into(), "gamma".into()]);
        assert_eq!(phi.table_count(), 3);
    }
}
