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
//!   rows before it and scored, on the calling thread, against the
//!   clusters blocking admits (a cluster is dropped mid-sum once it can no
//!   longer win), then assigned. Because each decision depends only on
//!   the rows that came before, clustering a corpus in one batch or in K
//!   micro-batches yields bit-identical clusters.
//!
//! The trade-offs versus the batch path are deliberate and documented:
//! blocking is prefix-based (a row cannot share a block with a label that
//! only appears later), and there is no KLj refinement (it is a global
//! repair pass; running it per batch would make results depend on batch
//! boundaries).

use std::collections::{BTreeSet, HashMap};

use ltee_index::LabelIndex;
use ltee_intern::{Interner, Sym};
use ltee_webtables::{RowRef, TableId};

use crate::cluster::ClusteringConfig;
use crate::context::{ImplicitAttributes, RowContext};
use crate::metrics::{PhiStats, PhiTableVectors, RowProbe, RowSimilarityModel};

/// Incrementally built PHI table vectors with per-table freezing.
///
/// Mirrors the counting scheme of [`PhiTableVectors::build`] (label
/// occurrence counts, within-table co-occurrence counts, table count), but
/// computes each table's sparse vector once — when the table is added —
/// from the statistics accumulated so far, and never revises it. See the
/// module docs for why.
#[derive(Debug, Clone, Default)]
pub struct StreamingPhi {
    /// Label statistics of the added tables (only tables with at least one
    /// label count), keyed by the syms of `frozen`'s label interner.
    stats: PhiStats,
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
        self.frozen.freeze(table, labels, &mut self.stats);
    }

    /// The frozen vectors, in the form the row similarity metrics consume.
    pub fn vectors(&self) -> &PhiTableVectors {
        &self.frozen
    }

    /// Number of tables with a frozen vector.
    pub fn table_count(&self) -> usize {
        self.frozen.table_count()
    }

    /// Number of distinct ordered label pairs that shared a table
    /// (diagnostics).
    pub fn pair_count(&self) -> usize {
        self.stats.pair_count()
    }
}

/// Append-only greedy correlation clusterer whose output is invariant to
/// micro-batch boundaries (see the module docs).
#[derive(Debug, Clone)]
pub struct StreamingClusterer {
    config: ClusteringConfig,
    contexts: Vec<RowContext>,
    clusters: Vec<Vec<usize>>,
    /// Which clusters hold which block key (see [`BlockPostings`]).
    block_clusters: BlockPostings,
    /// Labels of all ingested rows (prefix blocking index; owns the
    /// interner that mints the block syms).
    block_index: LabelIndex,
}

/// Block key → the clusters holding it, ascending. A cluster holds the
/// blocks of every row assigned to it. Keys are syms of the prefix
/// index's interner, whose ids are a function of row ingest order alone,
/// so the postings are identical however the stream is split into
/// micro-batches. Admitting clusters for a row reads the postings of the
/// row's few blocks; it never walks the class's clusters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct BlockPostings {
    /// Indexed by `Sym::raw`; empty for a sym that is no cluster's block
    /// (the index interns tokens next to labels).
    by_block: Vec<Vec<u32>>,
}

impl BlockPostings {
    /// The clusters holding `block`, ascending.
    fn clusters_of(&self, block: Sym) -> &[u32] {
        self.by_block.get(block.raw() as usize).map_or(&[], Vec::as_slice)
    }

    /// Record that `cluster` holds `blocks`. A cluster index fits a `u32`:
    /// a class holds no more clusters than rows, and the serving pipeline
    /// refuses a batch, or a checkpoint, that would take the rows it holds
    /// past `u32::MAX` (`ltee_core::IncrementalPipeline::ingest`).
    fn post(&mut self, blocks: &[Sym], cluster: usize) {
        let cluster = cluster as u32;
        for block in blocks {
            let raw = block.raw() as usize;
            if raw >= self.by_block.len() {
                self.by_block.resize_with(raw + 1, Vec::new);
            }
            let posting = &mut self.by_block[raw];
            if let Err(at) = posting.binary_search(&cluster) {
                posting.insert(at, cluster);
            }
        }
    }
}

/// Collect a row's blocks into `blocks`: its own label and the similar
/// labels among the rows indexed before it — as integer syms of the
/// prefix index, each once. A row without a label has no blocks. The
/// row's own label is interned *before* the lookup (interning never
/// changes lookup results) so its block key exists even though the row
/// itself is only indexed after its assignment decision.
fn blocks_of_row(block_index: &mut LabelIndex, config: &ClusteringConfig, label: &str, blocks: &mut Vec<Sym>) {
    blocks.clear();
    if label.is_empty() {
        return;
    }
    blocks.push(block_index.intern_label(label));
    if config.use_blocking {
        for m in block_index.lookup(label, config.block_candidates) {
            if !blocks.contains(&m.normalized) {
                blocks.push(m.normalized);
            }
        }
    }
}

/// An upper bound on what the running sum `partial` can reach when `left`
/// more pair scores are added to it, one rounded addition at a time.
///
/// A pair scores at most 1.0 (`ltee_ml::PairwiseModel::score` clamps to
/// `[-1, 1]`), so in real numbers the sum ends at or below
/// `partial + left`. The `left` rounded additions can carry the computed
/// sum above the real one by at most `left · ε · (|partial| + left)`
/// (the error bound of recursive summation, `γₙ ≤ n·ε` with
/// `ε = f64::EPSILON`, over terms of magnitude at most 1.0). The margin
/// is four times that, which also absorbs the roundings of this
/// expression itself — so the bound is never below the finished sum, and
/// a cluster abandoned on it could not have won.
fn reachable(partial: f64, left: usize) -> f64 {
    let left = left as f64;
    partial + left + 4.0 * f64::EPSILON * left * (partial.abs() + left)
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
            block_clusters: BlockPostings::default(),
            block_index: LabelIndex::new(),
        }
    }

    /// Rebuild a clusterer from persisted cluster assignments, replaying
    /// the blocking side effects of [`StreamingClusterer::ingest`] without
    /// re-scoring a single row pair.
    ///
    /// Used by checkpoint recovery: the assignment decisions are the
    /// expensive model-driven part of ingest, so they are persisted, while
    /// the prefix blocking index and the block postings are a pure
    /// function of `(contexts, clusters, config)` and are replayed here
    /// row by row — the exact sequence of `intern_label` / `lookup` /
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

        let mut block_clusters = BlockPostings::default();
        let mut block_index = LabelIndex::new();
        let mut blocks: Vec<Sym> = Vec::new();
        for (row_idx, ctx) in contexts.iter().enumerate() {
            let label = &ctx.normalized_label;
            // Same order of operations as ingest: block keys are computed
            // against the strict prefix, then the row itself is indexed.
            blocks_of_row(&mut block_index, &config, label, &mut blocks);
            block_clusters.post(&blocks, cluster_of_row[row_idx]);
            if !label.is_empty() {
                block_index.insert(row_idx as u64, label);
            }
        }
        Self { config, contexts, clusters, block_clusters, block_index }
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
        let mut blocks: Vec<Sym> = Vec::new();
        let mut admitted: Vec<usize> = Vec::new();
        // The PHI cosine is a pure function of two frozen table vectors,
        // and a batch's rows meet the same few tables pair after pair:
        // each table pair is computed once per call. The memo is scratch
        // of this call, dropped at return — not a field of
        // `PhiTableVectors`, which the batch path shares across pool
        // workers and which therefore holds no lock and no cell.
        let mut phi_pairs: HashMap<(TableId, TableId), f64> = HashMap::new();
        let mut phi_of =
            |a: TableId, b: TableId| *phi_pairs.entry((a, b)).or_insert_with(|| phi.table_similarity(a, b));
        for ctx in new_contexts {
            let row_idx = self.contexts.len();
            self.contexts.push(ctx);
            let Self { config, contexts, clusters, block_clusters, block_index } = &mut *self;
            let label = contexts[row_idx].normalized_label.as_str();
            blocks_of_row(block_index, config, label, &mut blocks);

            // The clusters blocking admits — those holding one of the
            // row's blocks, a small share of all clusters — read off the
            // postings, in index order.
            admitted.clear();
            if config.use_blocking {
                for &block in &blocks {
                    admitted.extend(block_clusters.clusters_of(block).iter().map(|&ci| ci as usize));
                }
                admitted.sort_unstable();
                admitted.dedup();
            } else {
                admitted.extend(0..clusters.len());
            }

            // Score the row against the members, in member order, of each
            // admitted cluster. The highest score wins, ties go to the
            // lowest cluster index (index order, strict `>`), and only a
            // strictly positive score wins at all — the batch greedy
            // pass's rule. A pair scores at most 1.0, so a cluster is
            // abandoned as soon as even that from every member still to
            // come would not exceed the score to beat; a cluster that is
            // finished has summed all its members in member order. The
            // winner and its score are therefore what scoring every
            // member of every admitted cluster would have found.
            let probe = RowProbe::new(&contexts[row_idx], implicit);
            let mut best: Option<usize> = None;
            let mut to_beat = 0.0;
            for &ci in &admitted {
                let members = &clusters[ci];
                let mut score = 0.0;
                let mut scored = 0;
                while scored < members.len() && reachable(score, members.len() - scored) > to_beat {
                    score += model.score_with(&probe, &contexts[members[scored]], &mut phi_of, interner);
                    scored += 1;
                }
                if scored == members.len() && score > to_beat {
                    best = Some(ci);
                    to_beat = score;
                }
            }
            let target = match best {
                Some(ci) => {
                    clusters[ci].push(row_idx);
                    ci
                }
                None => {
                    clusters.push(vec![row_idx]);
                    clusters.len() - 1
                }
            };
            block_clusters.post(&blocks, target);
            touched.insert(target);
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
    use crate::seeded_words::SplitMix64;
    use std::collections::HashSet;
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
        assert_eq!(rebuilt.block_clusters, reference.block_clusters);
        let t_ref = reference.ingest(rows[16..].to_vec(), &model, &phi, &implicit, &interner);
        let t_new = rebuilt.ingest(rows[16..].to_vec(), &model, &phi, &implicit, &interner);
        assert_eq!(t_ref, t_new);
        assert_eq!(rebuilt.clusters(), reference.clusters());
        assert_eq!(rebuilt.block_clusters, reference.block_clusters);
    }

    /// The loop the postings and the bound gate replaced, kept as the
    /// oracle: a set of block keys per cluster, a disjointness probe of
    /// every cluster for every row, every member of every admitted cluster
    /// scored, clusters visited in index order under a strict `>`.
    struct ScanEverything {
        config: ClusteringConfig,
        contexts: Vec<RowContext>,
        clusters: Vec<Vec<usize>>,
        cluster_blocks: Vec<HashSet<Sym>>,
        block_index: LabelIndex,
        /// Rows for which a later cluster exactly tied the best score.
        tied_rows: usize,
        /// Rows that were admitted somewhere and scored positive nowhere.
        rejected_rows: usize,
    }

    impl ScanEverything {
        fn new(config: ClusteringConfig) -> Self {
            Self {
                config,
                contexts: Vec::new(),
                clusters: Vec::new(),
                cluster_blocks: Vec::new(),
                block_index: LabelIndex::new(),
                tied_rows: 0,
                rejected_rows: 0,
            }
        }

        fn ingest(
            &mut self,
            new_contexts: Vec<RowContext>,
            model: &RowSimilarityModel,
            phi: &PhiTableVectors,
            implicit: &ImplicitAttributes,
            interner: &Interner,
        ) -> Vec<usize> {
            let mut touched: BTreeSet<usize> = BTreeSet::new();
            let mut blocks: HashSet<Sym> = HashSet::new();
            for ctx in new_contexts {
                let row_idx = self.contexts.len();
                self.contexts.push(ctx);
                let Self {
                    config,
                    contexts,
                    clusters,
                    cluster_blocks,
                    block_index,
                    tied_rows,
                    rejected_rows,
                } = &mut *self;
                let label = contexts[row_idx].normalized_label.as_str();
                blocks.clear();
                if !label.is_empty() {
                    blocks.insert(block_index.intern_label(label));
                    if config.use_blocking {
                        for m in block_index.lookup(label, config.block_candidates) {
                            blocks.insert(m.normalized);
                        }
                    }
                }
                let probe = RowProbe::new(&contexts[row_idx], implicit);
                let mut best: Option<(usize, f64)> = None;
                let (mut admitted, mut tied) = (0, false);
                for ci in 0..clusters.len() {
                    if config.use_blocking && blocks.is_disjoint(&cluster_blocks[ci]) {
                        continue;
                    }
                    admitted += 1;
                    let score: f64 = clusters[ci]
                        .iter()
                        .map(|&m| model.score(&probe, &contexts[m], phi, interner))
                        .sum();
                    tied |= best.is_some_and(|(_, s)| score == s);
                    if score > 0.0 && best.map(|(_, s)| score > s).unwrap_or(true) {
                        best = Some((ci, score));
                        tied = false;
                    }
                }
                *tied_rows += usize::from(tied);
                *rejected_rows += usize::from(admitted > 0 && best.is_none());
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
    }

    /// LABEL, BOW, PHI and SAME_TABLE under a combined model fitted to
    /// "same label and not the same table": continuous scores of both
    /// signs, and two rows of one table sharing a label stay apart — which
    /// is what makes a later row of that label tie exactly between them.
    fn mixed_model() -> RowSimilarityModel {
        let metrics =
            vec![RowMetricKind::Label, RowMetricKind::Bow, RowMetricKind::Phi, RowMetricKind::SameTable];
        let mut ds = Dataset::new(metric_feature_names(&metrics));
        let mut rng = SplitMix64(3);
        for _ in 0..240 {
            let (label, bow, phi) = (rng.unit(), rng.unit(), rng.unit());
            let other_table = if rng.below(4) == 0 { 0.0 } else { 1.0 };
            let same = label > 0.7 && other_table == 1.0;
            ds.push(Sample::new(vec![label, bow, phi, other_table], if same { 1.0 } else { 0.0 }));
        }
        let model = PairwiseModel::train(
            &ds,
            metrics.len(),
            AggregationMethod::Combined,
            &PairwiseTrainingConfig {
                genetic: ltee_ml::GeneticConfig { population: 20, generations: 15, seed: 1, ..Default::default() },
                forest: ltee_ml::RandomForestConfig { num_trees: 12, max_depth: 6, ..Default::default() },
                ..Default::default()
            },
        );
        RowSimilarityModel { metrics, model }
    }

    /// A stream of small tables over a six-word vocabulary: one- and
    /// two-word labels that repeat within and across tables, near-miss
    /// spellings, and now and then a row without a label. Returned with
    /// the frozen PHI vectors of its tables.
    fn seeded_stream(seed: u64, rows: usize, interner: &mut Interner) -> (Vec<RowContext>, StreamingPhi) {
        const WORDS: [&str; 6] = ["alpha", "alpa", "beta", "gamma", "gama", "delta"];
        let mut rng = SplitMix64(seed);
        let mut contexts = Vec::new();
        let mut phi = StreamingPhi::new();
        let mut table = 0;
        while contexts.len() < rows {
            table += 1;
            let mut labels = Vec::new();
            for row in 0..1 + rng.below(4) {
                let label = match rng.below(10) {
                    0 => String::new(),
                    1..=5 => WORDS[rng.below(WORDS.len())].to_string(),
                    _ => format!("{} {}", WORDS[rng.below(WORDS.len())], WORDS[rng.below(WORDS.len())]),
                };
                let context = ctx(interner, table, row, &label);
                if !context.normalized_label.is_empty() {
                    labels.push(context.normalized_label.clone());
                }
                contexts.push(context);
            }
            phi.add_table(TableId(table), &labels);
        }
        (contexts, phi)
    }

    #[test]
    fn postings_and_bound_gate_cluster_like_the_scan_everything_loop() {
        let models = [label_model(), mixed_model()];
        let implicit = ImplicitAttributes::default();
        let configs = [
            ClusteringConfig::default(),
            ClusteringConfig { block_candidates: 2, ..ClusteringConfig::default() },
            ClusteringConfig { use_blocking: false, ..ClusteringConfig::default() },
        ];
        let (mut tied_rows, mut rejected_rows) = (0, 0);
        for seed in 0..6u64 {
            let mut interner = Interner::new();
            let (rows, phi) = seeded_stream(seed, 90, &mut interner);
            assert!(rows.iter().any(|r| r.normalized_label.is_empty()), "seed {seed}: no label-free row");
            let model = &models[seed as usize % models.len()];
            let config = &configs[seed as usize % configs.len()];
            let mut oracle = ScanEverything::new(config.clone());
            let mut clusterer = StreamingClusterer::new(config.clone());
            for chunk in rows.chunks(1 + seed as usize * 7) {
                let expected = oracle.ingest(chunk.to_vec(), model, phi.vectors(), &implicit, &interner);
                let touched = clusterer.ingest(chunk.to_vec(), model, phi.vectors(), &implicit, &interner);
                assert_eq!(touched, expected, "seed {seed}: touched");
                assert_eq!(clusterer.clusters(), oracle.clusters, "seed {seed}: clusters");
            }
            // The postings are the oracle's per-cluster block sets, inverted.
            for (ci, blocks) in oracle.cluster_blocks.iter().enumerate() {
                for &block in blocks {
                    assert!(clusterer.block_clusters.clusters_of(block).contains(&(ci as u32)));
                }
            }
            let posted: usize = clusterer.block_clusters.by_block.iter().map(Vec::len).sum();
            assert_eq!(posted, oracle.cluster_blocks.iter().map(HashSet::len).sum::<usize>());
            tied_rows += oracle.tied_rows;
            rejected_rows += oracle.rejected_rows;
        }
        // The streams reach the cases the selection rule exists for.
        assert!(tied_rows > 0, "no row tied between two clusters");
        assert!(rejected_rows > 0, "no admitted row was rejected everywhere");
    }

    #[test]
    fn the_reachable_bound_is_never_below_the_finished_sum() {
        // Every remaining score at its ceiling, from partial sums of both
        // signs and magnitudes: the rounded running sum stays under the
        // bound taken before the first addition.
        let mut rng = SplitMix64(11);
        for _ in 0..2_000 {
            let partial = (rng.unit() - 0.5) * [1.0, 8.0, 1e3, 1e6][rng.below(4)];
            let left = 1 + rng.below(2_000);
            let bound = reachable(partial, left);
            let finished = (0..left).fold(partial, |sum, _| sum + 1.0);
            assert!(finished <= bound, "{partial} + {left} ones = {finished} > bound {bound}");
            assert!(bound <= partial + left as f64 + 1e-6, "bound {bound} is loose");
        }
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
