//! Random forest regression trees.
//!
//! The paper trains random forest regression trees (via WEKA) over
//! similarity and confidence features, with targets `1.0` / `-1.0` for
//! matching / non-matching pairs, and tunes hyperparameters "by using the
//! out-of-bag error with different out-of-bag rates on the learning set"
//! (Section 3.2). This module implements the same learner from scratch:
//! bagged CART-style regression trees with random feature subsets at each
//! split, splits chosen by variance reduction, out-of-bag error estimation
//! and impurity-based feature importances.

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use rayon::prelude::*;

use ltee_codec::{ByteReader, ByteWriter, CodecError, StringTable, StringTableWriter};
use crate::dataset::{Dataset, Sample};

/// Hyperparameters of the random forest.
#[derive(Debug, Clone, PartialEq)]
pub struct RandomForestConfig {
    /// Number of trees.
    pub num_trees: usize,
    /// Maximum tree depth.
    pub max_depth: usize,
    /// Minimum number of samples required to attempt a split.
    pub min_samples_split: usize,
    /// Number of candidate features per split; `None` means `sqrt(#features)`.
    pub features_per_split: Option<usize>,
    /// Fraction of the training set sampled (with replacement) per tree.
    pub bootstrap_fraction: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for RandomForestConfig {
    fn default() -> Self {
        Self {
            num_trees: 60,
            max_depth: 10,
            min_samples_split: 4,
            features_per_split: None,
            bootstrap_fraction: 1.0,
            seed: 13,
        }
    }
}

/// A node of a regression tree, stored in a flat arena.
#[derive(Debug, Clone, PartialEq)]
enum Node {
    Leaf {
        prediction: f64,
    },
    Split {
        feature: usize,
        threshold: f64,
        /// Variance reduction achieved by this split, weighted by the number
        /// of samples reaching the node — accumulated into feature
        /// importances.
        gain: f64,
        left: usize,
        right: usize,
    },
}

/// A single regression tree.
#[derive(Debug, Clone, PartialEq)]
struct Tree {
    nodes: Vec<Node>,
}

impl Tree {
    fn predict(&self, features: &[f64]) -> f64 {
        let mut idx = 0usize;
        loop {
            match &self.nodes[idx] {
                Node::Leaf { prediction } => return *prediction,
                Node::Split { feature, threshold, left, right, .. } => {
                    let v = features.get(*feature).copied().unwrap_or(0.0);
                    idx = if v <= *threshold { *left } else { *right };
                }
            }
        }
    }

    fn accumulate_importance(&self, importances: &mut [f64]) {
        for node in &self.nodes {
            if let Node::Split { feature, gain, .. } = node {
                importances[*feature] += *gain;
            }
        }
    }
}

/// A trained random forest regressor.
#[derive(Debug, Clone, PartialEq)]
pub struct RandomForest {
    config: RandomForestConfig,
    trees: Vec<Tree>,
    feature_names: Vec<String>,
    oob_error: f64,
}

impl RandomForest {
    /// Train a forest on the dataset.
    ///
    /// Panics if the dataset is empty — callers are expected to guard
    /// against training on nothing.
    pub fn train(dataset: &Dataset, config: &RandomForestConfig) -> Self {
        Self::train_with_targets(dataset, |sample| sample.target, config)
    }

    /// [`RandomForest::train`] on the dataset's samples with `target`
    /// standing in for their stored targets — the forest regresses to
    /// `±1` where the dataset stores `1 / 0`, and this spares a relabelled
    /// copy of every feature vector.
    pub(crate) fn train_with_targets(
        dataset: &Dataset,
        target: impl Fn(&Sample) -> f64,
        config: &RandomForestConfig,
    ) -> Self {
        assert!(!dataset.is_empty(), "cannot train a random forest on an empty dataset");
        let n = dataset.len();
        let num_features = dataset.num_features();
        let features_per_split = config
            .features_per_split
            .unwrap_or_else(|| ((num_features as f64).sqrt().ceil() as usize).max(1))
            .min(num_features.max(1));
        let columns = FeatureColumns::new(dataset, &target);

        let tree_seeds: Vec<u64> = (0..config.num_trees).map(|t| config.seed.wrapping_add(t as u64 * 7919)).collect();

        let built: Vec<(Tree, Vec<bool>)> = tree_seeds
            .par_iter()
            .map(|&seed| {
                let mut rng = ChaCha8Rng::seed_from_u64(seed);
                let sample_count = ((n as f64) * config.bootstrap_fraction).ceil().max(1.0) as usize;
                let mut in_bag = vec![false; n];
                let mut indices = Vec::with_capacity(sample_count);
                for _ in 0..sample_count {
                    let i = rng.gen_range(0..n);
                    in_bag[i] = true;
                    indices.push(i);
                }
                let mut builder = TreeBuilder::new(&columns, config, features_per_split, rng);
                builder.grow(&indices);
                (Tree { nodes: builder.nodes }, in_bag)
            })
            .collect();

        // Out-of-bag error: for every sample, average predictions of the
        // trees that did not see it, and compute mean squared error. The
        // per-sample errors are independent, so they are computed in
        // parallel and accumulated sequentially in sample order.
        let per_sample: Vec<Option<f64>> = (0..n)
            .into_par_iter()
            .map(|i| {
                let features = &dataset.samples[i].features;
                let mut sum = 0.0;
                let mut cnt = 0usize;
                for (tree, in_bag) in &built {
                    if !in_bag[i] {
                        sum += tree.predict(features);
                        cnt += 1;
                    }
                }
                (cnt > 0).then(|| {
                    let pred = sum / cnt as f64;
                    (pred - columns.targets[i]).powi(2)
                })
            })
            .collect();
        let mut oob_sq_err = 0.0;
        let mut oob_count = 0usize;
        for sq_err in per_sample.into_iter().flatten() {
            oob_sq_err += sq_err;
            oob_count += 1;
        }
        let oob_error = if oob_count > 0 { oob_sq_err / oob_count as f64 } else { 0.0 };

        RandomForest {
            config: config.clone(),
            trees: built.into_iter().map(|(t, _)| t).collect(),
            feature_names: dataset.feature_names.clone(),
            oob_error,
        }
    }

    /// Predict the regression target for a feature vector (average over
    /// trees).
    pub fn predict(&self, features: &[f64]) -> f64 {
        if self.trees.is_empty() {
            return 0.0;
        }
        let sum: f64 = self.trees.iter().map(|t| t.predict(features)).sum();
        sum / self.trees.len() as f64
    }

    /// Predict targets for a batch of feature vectors, one forest traversal
    /// per row, in parallel. Each row's prediction is computed exactly as by
    /// [`RandomForest::predict`], so the output is bit-identical to the
    /// sequential loop at every thread count.
    pub fn predict_batch(&self, rows: &[&[f64]]) -> Vec<f64> {
        rows.par_iter().map(|features| self.predict(features)).collect()
    }

    /// Mean squared out-of-bag error measured during training.
    pub fn oob_error(&self) -> f64 {
        self.oob_error
    }

    /// Normalised impurity-based feature importances (sums to 1 when any
    /// split exists).
    pub fn feature_importances(&self) -> Vec<f64> {
        let mut importances = vec![0.0; self.feature_names.len()];
        for tree in &self.trees {
            tree.accumulate_importance(&mut importances);
        }
        let total: f64 = importances.iter().sum();
        if total > 0.0 {
            for v in &mut importances {
                *v /= total;
            }
        }
        importances
    }

    /// Names of the features the forest was trained on.
    pub fn feature_names(&self) -> &[String] {
        &self.feature_names
    }

    /// Serialise the forest into the writer (see [`ltee_codec`] for the
    /// layout conventions), its feature names as references into
    /// `strings`. The encoding captures the trained trees bit-for-bit, so a
    /// decoded forest predicts identically to the original.
    pub fn encode_into<'a>(&'a self, strings: &mut StringTableWriter<'a>, w: &mut ByteWriter) {
        w.write_varint(self.config.num_trees as u64);
        w.write_varint(self.config.max_depth as u64);
        w.write_varint(self.config.min_samples_split as u64);
        w.write_opt(self.config.features_per_split, |w, n| w.write_varint(n as u64));
        w.write_f64(self.config.bootstrap_fraction);
        w.write_varint(self.config.seed);
        w.write_seq(&self.feature_names, |w, name| strings.write_ref(w, name));
        w.write_seq(&self.trees, |w, tree| {
            w.write_seq(&tree.nodes, |w, node| match *node {
                Node::Leaf { prediction } => {
                    w.write_u8(0);
                    w.write_f64(prediction);
                }
                Node::Split { feature, threshold, gain, left, right } => {
                    w.write_u8(1);
                    w.write_varint(feature as u64);
                    w.write_f64(threshold);
                    w.write_f64(gain);
                    w.write_varint(left as u64);
                    w.write_varint(right as u64);
                }
            })
        });
        w.write_f64(self.oob_error);
    }

    /// Decode a forest previously written by [`RandomForest::encode_into`].
    pub fn decode_from(r: &mut ByteReader<'_>, strings: &mut StringTable<'_>) -> Result<Self, CodecError> {
        let config = RandomForestConfig {
            num_trees: r.read_varint_usize("forest.num_trees")?,
            max_depth: r.read_varint_usize("forest.max_depth")?,
            min_samples_split: r.read_varint_usize("forest.min_samples_split")?,
            features_per_split: r.read_opt("forest.features_per_split.some", |r| {
                r.read_varint_usize("forest.features_per_split")
            })?,
            bootstrap_fraction: r.read_f64("forest.bootstrap_fraction")?,
            seed: r.read_varint("forest.seed")?,
        };
        let feature_names = r.read_seq("forest.feature_names", 1, |r| {
            strings.read_ref(r, "forest.feature_name").map(str::to_string)
        })?;
        let trees = r.read_seq("forest.trees", 1, |r| {
            let nodes = r.read_seq("forest.tree.nodes", 9, |r| {
                Ok(match r.read_u8("forest.node.tag")? {
                    0 => Node::Leaf { prediction: r.read_f64("forest.node.prediction")? },
                    1 => Node::Split {
                        feature: r.read_varint_usize("forest.node.feature")?,
                        threshold: r.read_f64("forest.node.threshold")?,
                        gain: r.read_f64("forest.node.gain")?,
                        left: r.read_varint_usize("forest.node.left")?,
                        right: r.read_varint_usize("forest.node.right")?,
                    },
                    tag => return Err(CodecError::InvalidTag { what: "forest.node", tag }),
                })
            })?;
            // A tree has a root, and every split tests a feature the forest
            // was trained on and points strictly forward inside the arena.
            // The builder pushes a split before its children, so every tree
            // it builds passes; what this refuses would otherwise panic in
            // `Tree::predict` (no root, a child out of range) or in
            // `feature_importances` (a feature past its vector), or loop
            // forever in `Tree::predict` (a cycle).
            in_range("forest.tree.nodes", nodes.len(), 1..usize::MAX)?;
            for (index, node) in nodes.iter().enumerate() {
                if let Node::Split { feature, left, right, .. } = *node {
                    in_range("forest.node.feature", feature, 0..feature_names.len())?;
                    in_range("forest.node.left", left, index + 1..nodes.len())?;
                    in_range("forest.node.right", right, index + 1..nodes.len())?;
                }
            }
            Ok::<_, CodecError>(Tree { nodes })
        })?;
        let oob_error = r.read_f64("forest.oob_error")?;
        Ok(RandomForest { config, trees, feature_names, oob_error })
    }
}

/// [`CodecError::OutOfRange`] unless `allowed` holds `value`.
fn in_range(what: &'static str, value: usize, allowed: std::ops::Range<usize>) -> Result<(), CodecError> {
    if allowed.contains(&value) {
        return Ok(());
    }
    Err(CodecError::OutOfRange {
        what,
        value: value as u64,
        allowed: allowed.start as u64..allowed.end as u64,
    })
}

/// The training set as the split search reads it: one contiguous column
/// per feature, the regression targets, and every feature's presorted
/// sample order. Built once per forest and shared by all its trees.
struct FeatureColumns {
    /// Number of samples.
    n: usize,
    /// Feature-major: `values[f * n + i]` is sample `i`'s value of feature
    /// `f` (a missing feature reads as zero).
    values: Vec<f64>,
    targets: Vec<f64>,
    /// Per feature, whether every value is finite.
    finite: Vec<bool>,
    /// Feature-major like `values`: per feature, the sample indices in
    /// ascending `f64::total_cmp` order of that feature's value.
    order: Vec<u32>,
}

impl FeatureColumns {
    fn new(dataset: &Dataset, target: impl Fn(&Sample) -> f64) -> Self {
        let n = dataset.len();
        assert!(u32::try_from(n).is_ok(), "a forest indexes its samples with u32");
        let num_features = dataset.num_features();
        let mut values = Vec::with_capacity(num_features * n);
        for feature in 0..num_features {
            values.extend(dataset.samples.iter().map(|s| s.features.get(feature).copied().unwrap_or(0.0)));
        }
        let mut order = Vec::with_capacity(num_features * n);
        for column in values.chunks_exact(n) {
            let start = order.len();
            order.extend(0..n as u32);
            order[start..].sort_by(|&a, &b| column[a as usize].total_cmp(&column[b as usize]));
        }
        let finite = values.chunks_exact(n).map(|column| column.iter().all(|v| v.is_finite())).collect();
        let targets = dataset.samples.iter().map(target).collect();
        Self { n, values, targets, finite, order }
    }

    /// One feature's values, indexed by sample.
    fn column(&self, feature: usize) -> &[f64] {
        &self.values[feature * self.n..(feature + 1) * self.n]
    }

    fn num_features(&self) -> usize {
        self.values.len() / self.n
    }
}

struct TreeBuilder<'a> {
    columns: &'a FeatureColumns,
    config: &'a RandomForestConfig,
    features_per_split: usize,
    rng: ChaCha8Rng,
    nodes: Vec<Node>,
    /// The tree's bootstrap draws, one slot per draw. A node owns a range
    /// of slots and holds its samples there in draw order — the order every
    /// sum over a node visits them in.
    samples: Vec<u32>,
    /// Feature-major, one block of `samples.len()` slots per feature: the
    /// same draws, each node's range in ascending value order of that
    /// feature. A split partitions every block stably, so a child's ranges
    /// stay sorted without sorting again.
    sorted: Vec<u32>,
    /// Per sample, which side of the split being applied it falls on.
    goes_left: Vec<bool>,
    scratch: Vec<u32>,
    /// Calls of [`exact_gain`] so far: the work counter that pins the split
    /// search to "a handful of exact scorings per node" in the tests.
    #[cfg(test)]
    exact_scorings: usize,
}

/// One candidate split of a node, in the order the search visits them.
struct SplitCandidate {
    /// Position of the feature among the node's candidate features.
    slot: usize,
    threshold: f64,
    /// The gain as the sorted sweep computed it — within [`sweep_error_bound`]
    /// of [`exact_gain`] — or `f64::INFINITY` where no sweep ran, which no
    /// cut-off prunes.
    swept_gain: f64,
}

/// Largest `n · Σt²` for which [`sweep_error_bound`] is claimed: far enough
/// below `f64::MAX` that no intermediate of either gain computation
/// overflows. Non-finite targets make the product non-finite and fail the
/// comparison too.
const SWEEP_MAX_MAGNITUDE: f64 = 1e300;

/// A bound on `|swept gain − exact gain|` for every threshold of a node of
/// `n` samples whose targets' squares sum to `sum_sq`.
///
/// Both computations approximate the same real number, `parent_var − C`
/// with `C` the two sides' summed squared deviations from their means, over
/// the same floating-point inputs. With `u = 2⁻⁵³` and
/// `γ(k) = k·u / (1 − k·u)`, standard summation analysis gives, per side of
/// `k ≤ n` samples with `T = Σt²` over the side:
///
/// * two-pass ([`exact_gain`]): the sum carries `γ(k)·Σ|t|`, so the mean is
///   off by `δ ≤ γ(k+1)·mean|t|`; `Σ(t − m̂)² = SSE + k·δ²` exactly, and
///   `k·δ² ≤ γ(k+1)²·T` because `(mean|t|)² ≤ T/k`; squaring, summing,
///   dividing by `k` and multiplying back add `γ(k+4)` relative to a value
///   `≤ T`. Together `≤ γ(k+5)·T`.
/// * sweep: `Σt` carries `γ(k)·Σ|t|`, so `(Σt)²/k` is off by at most
///   `2·γ(k)·(Σ|t|)²/k + 2u·(Σt)²/k ≤ (2γ(k) + 2u)·T` (Cauchy–Schwarz);
///   `Σt²` carries `γ(k+1)·T`; the subtraction rounds once more on a value
///   `≤ T`. Together `≤ γ(3k+6)·T`.
///
/// Adding the two sides (`T_left + T_right = Σt²`), the rounding of the
/// sum of the sides and of `parent_var − child` in both computations
/// (each on a value `≤ Σt²`, up to the same relative slack) gives
/// `|swept − exact| ≤ (4n + 16)·u·Σt²` to first order in `n·u`. The bound
/// returned is `16·(n + 8)·u·Σt²`: four times that, which swallows the
/// second-order terms (`n·u < 2⁻²⁰` for any `n` a `Vec` can hold here), the
/// rounding of `sum_sq` itself, and gradual underflow — every underflowing
/// operation adds at most `2⁻¹⁰⁷⁴` absolutely, while a node that reaches
/// the search has variance `≥ 1e-12` and hence a bound `≥ 1e-27·n²`.
/// The analysis assumes no overflow: callers check
/// `n · sum_sq ≤` [`SWEEP_MAX_MAGNITUDE`] first.
fn sweep_error_bound(n: usize, sum_sq: f64) -> f64 {
    8.0 * (n as f64 + 8.0) * f64::EPSILON * sum_sq
}

/// The gain of splitting a node at `threshold`, from two gathered slices —
/// the node's targets and one feature's values, both in the node's index
/// order — without materialising the partition; `None` where a side would
/// be empty. Each side's sums visit their rows in that order, exactly as
/// `mean_target` / `variance_target` would over the partitioned index
/// lists, so gains (and therefore tie-breaks) are bit-identical to
/// partitioning first. (`Sum` may start from -0.0 where these accumulators
/// start from 0.0; that can only flip the sign of a zero side mean, which
/// its squared deviations cannot see.)
fn exact_gain(targets: &[f64], values: &[f64], threshold: f64, parent_var: f64) -> Option<f64> {
    let (mut left_len, mut left_sum, mut right_sum) = (0usize, 0.0f64, 0.0f64);
    for (&t, &v) in targets.iter().zip(values) {
        if v <= threshold {
            left_len += 1;
            left_sum += t;
        } else {
            right_sum += t;
        }
    }
    let right_len = values.len() - left_len;
    if left_len == 0 || right_len == 0 {
        return None;
    }
    let lm = left_sum / left_len as f64;
    let rm = right_sum / right_len as f64;
    let (mut left_sq, mut right_sq) = (0.0f64, 0.0f64);
    for (&t, &v) in targets.iter().zip(values) {
        if v <= threshold {
            left_sq += (t - lm).powi(2);
        } else {
            right_sq += (t - rm).powi(2);
        }
    }
    let left_var = left_sq / left_len as f64;
    let right_var = right_sq / right_len as f64;
    let child_var = left_var * left_len as f64 + right_var * right_len as f64;
    Some(parent_var - child_var)
}

impl<'a> TreeBuilder<'a> {
    fn new(
        columns: &'a FeatureColumns,
        config: &'a RandomForestConfig,
        features_per_split: usize,
        rng: ChaCha8Rng,
    ) -> Self {
        Self {
            columns,
            config,
            features_per_split,
            rng,
            nodes: Vec::new(),
            samples: Vec::new(),
            sorted: Vec::new(),
            goes_left: vec![false; columns.n],
            scratch: Vec::new(),
            #[cfg(test)]
            exact_scorings: 0,
        }
    }

    /// Build the tree over a bootstrap sample (dataset indices, repeats
    /// allowed, in draw order).
    fn grow(&mut self, bootstrap: &[usize]) {
        // `FeatureColumns::new` checked that every index fits a u32.
        self.samples = bootstrap.iter().map(|&i| i as u32).collect();
        // Each feature's order over the draws: the forest's presorted order
        // with every sample repeated as often as it was drawn.
        let mut draws = vec![0u32; self.columns.n];
        for &i in bootstrap {
            draws[i] += 1;
        }
        self.scratch = vec![0; bootstrap.len()];
        let len = self.columns.num_features() * bootstrap.len();
        // One slot of slack: a sample never drawn is written and then
        // overwritten by the next one, so the last may be written past the end.
        self.sorted = vec![0; len + 1];
        let mut at = 0;
        for &i in &self.columns.order {
            let copies = draws[i as usize] as usize;
            self.sorted[at] = i;
            for k in 1..copies {
                self.sorted[at + k] = i;
            }
            at += copies;
        }
        self.sorted.truncate(len);
        self.build(0, bootstrap.len(), 0);
    }

    /// Recursively build the tree for the samples in slots `lo..hi`;
    /// returns the index of the created node.
    fn build(&mut self, lo: usize, hi: usize, depth: usize) -> usize {
        let targets = &self.columns.targets;
        let samples = &self.samples[lo..hi];
        let mean = mean_target(targets, samples);
        let variance = variance_target(targets, samples, mean);
        if depth >= self.config.max_depth
            || samples.len() < self.config.min_samples_split
            || variance < 1e-12
        {
            return self.push(Node::Leaf { prediction: mean });
        }
        let parent_var = variance * samples.len() as f64;

        let num_features = self.columns.num_features();
        // Sample a random subset of features without replacement.
        let mut candidates: Vec<usize> = (0..num_features).collect();
        for i in 0..self.features_per_split.min(num_features) {
            let j = self.rng.gen_range(i..num_features);
            candidates.swap(i, j);
        }
        candidates.truncate(self.features_per_split);

        match self.find_split(lo, hi, &candidates, parent_var) {
            Some((feature, threshold, gain)) => {
                let mid = self.partition(lo, hi, feature, threshold);
                let node_idx = self.push(Node::Split { feature, threshold, gain, left: 0, right: 0 });
                let left_idx = self.build(lo, mid, depth + 1);
                let right_idx = self.build(mid, hi, depth + 1);
                if let Node::Split { left: l, right: r, .. } = &mut self.nodes[node_idx] {
                    *l = left_idx;
                    *r = right_idx;
                }
                node_idx
            }
            None => self.push(Node::Leaf { prediction: mean }),
        }
    }

    /// Split slots `lo..hi` at `feature <= threshold`: the left side moves
    /// to the front of the range in every array, each side keeping its
    /// order. Returns the first right-side slot.
    fn partition(&mut self, lo: usize, hi: usize, feature: usize, threshold: f64) -> usize {
        let column = self.columns.column(feature);
        for &i in &self.samples[lo..hi] {
            self.goes_left[i as usize] = column[i as usize] <= threshold;
        }
        let mid = lo + stable_partition(&mut self.samples[lo..hi], &self.goes_left, &mut self.scratch);
        let draws = self.samples.len();
        for block in self.sorted.chunks_exact_mut(draws) {
            stable_partition(&mut block[lo..hi], &self.goes_left, &mut self.scratch);
        }
        mid
    }

    /// The split of the node in slots `lo..hi`: the first
    /// `(feature, threshold, gain)`, in candidate-feature and
    /// ascending-threshold order, whose [`exact_gain`] is the largest and
    /// exceeds `1e-12`.
    fn find_split(
        &mut self,
        lo: usize,
        hi: usize,
        candidates: &[usize],
        parent_var: f64,
    ) -> Option<(usize, f64, f64)> {
        // Scoring every threshold exactly costs a scan of the node per
        // threshold; instead a prefix-sum sweep along each feature's sorted
        // order gives every threshold's gain to within `bound`, and only
        // thresholds whose swept gain is within `2·bound` of the largest
        // swept gain can hold the largest exact gain (the best swept
        // candidate's exact gain is at least `max − bound`, any candidate
        // below `max − 2·bound` is exactly below that). Those are then
        // scored exactly, in visiting order under the strict-`>` rule —
        // skipping candidates that cannot be the maximum never changes
        // which one such a scan settles on — so the tree is the one the
        // exhaustive search builds, bit for bit. The bound holds for any
        // summation order, so the order the sweep visits equal values in
        // cannot change the winner either: reading the presorted orders
        // builds the tree that sorting every node builds.
        let columns = self.columns;
        let samples = &self.samples[lo..hi];
        let n = samples.len();
        let targets: Vec<f64> = samples.iter().map(|&i| columns.targets[i as usize]).collect();
        let sum_sq: f64 = targets.iter().map(|t| t * t).sum();
        let sweepable = n as f64 * sum_sq <= SWEEP_MAX_MAGNITUDE;
        let bound = sweep_error_bound(n, sum_sq);

        let mut splits: Vec<SplitCandidate> = Vec::new();
        let mut best_swept = f64::NEG_INFINITY;
        let mut sorted: Vec<(f64, f64)> = Vec::with_capacity(n);
        let mut suffix: Vec<(f64, f64)> = Vec::with_capacity(n + 1);
        let draws = self.samples.len();
        for (slot, &feature) in candidates.iter().enumerate() {
            let column = columns.column(feature);
            sorted.clear();
            sorted.extend(
                self.sorted[feature * draws + lo..feature * draws + hi]
                    .iter()
                    .map(|&i| (column[i as usize], columns.targets[i as usize])),
            );
            // Over finite values the sorted order is the numeric one, so
            // `v <= threshold` holds on a prefix that only grows along the
            // ascending thresholds. Infinite or NaN values are left to the
            // exact scorer.
            if !sweepable || !(columns.finite[feature] || sorted.iter().all(|(v, _)| v.is_finite())) {
                splits.extend(thresholds(&sorted).map(|threshold| SplitCandidate {
                    slot,
                    threshold,
                    swept_gain: f64::INFINITY,
                }));
                continue;
            }
            if thresholds(&sorted).next().is_none() {
                continue;
            }
            // suffix[k] = (Σ t, Σ t²) over sorted[k..].
            suffix.clear();
            suffix.resize(n + 1, (0.0, 0.0));
            for k in (0..n).rev() {
                let t = sorted[k].1;
                suffix[k] = (suffix[k + 1].0 + t, suffix[k + 1].1 + t * t);
            }
            let (mut left_len, mut left_sum, mut left_sum_sq) = (0usize, 0.0f64, 0.0f64);
            for threshold in thresholds(&sorted) {
                while left_len < n && sorted[left_len].0 <= threshold {
                    let t = sorted[left_len].1;
                    left_sum += t;
                    left_sum_sq += t * t;
                    left_len += 1;
                }
                let right_len = n - left_len;
                if left_len == 0 || right_len == 0 {
                    continue;
                }
                let (right_sum, right_sum_sq) = suffix[left_len];
                let left_sse = left_sum_sq - left_sum * left_sum / left_len as f64;
                let right_sse = right_sum_sq - right_sum * right_sum / right_len as f64;
                let swept_gain = parent_var - (left_sse + right_sse);
                best_swept = best_swept.max(swept_gain);
                // Below the running cut-off is below the final one too.
                if swept_gain < best_swept - 2.0 * bound {
                    continue;
                }
                splits.push(SplitCandidate { slot, threshold, swept_gain });
            }
        }

        // (feature, threshold, gain)
        let mut best: Option<(usize, f64, f64)> = None;
        let cutoff = best_swept - 2.0 * bound;
        // A candidate feature's values in the node's slot order, gathered
        // the first time one of its thresholds is scored exactly.
        let mut gathered: Vec<Option<Vec<f64>>> = vec![None; candidates.len()];
        for split in &splits {
            if split.swept_gain < cutoff {
                continue;
            }
            #[cfg(test)]
            {
                self.exact_scorings += 1;
            }
            let values = gathered[split.slot].get_or_insert_with(|| {
                let column = columns.column(candidates[split.slot]);
                samples.iter().map(|&i| column[i as usize]).collect()
            });
            let Some(gain) = exact_gain(&targets, values, split.threshold, parent_var) else {
                continue;
            };
            if best.map(|b| gain > b.2).unwrap_or(gain > 1e-12) {
                best = Some((candidates[split.slot], split.threshold, gain));
            }
        }
        best
    }

    fn push(&mut self, node: Node) -> usize {
        self.nodes.push(node);
        self.nodes.len() - 1
    }
}

/// Move the samples `goes_left` marks to the front of `slots`, both sides
/// in their current order; returns how many went left. `scratch` holds at
/// least `slots.len()` slots. Branch-free: a sample's side is as likely
/// one way as the other, so a branch on it would mispredict half the time.
fn stable_partition(slots: &mut [u32], goes_left: &[bool], scratch: &mut [u32]) -> usize {
    let (mut left, mut right) = (0, 0);
    for k in 0..slots.len() {
        let i = slots[k];
        let to_left = goes_left[i as usize];
        // `left <= k`: the slot written was read already.
        slots[left] = i;
        scratch[right] = i;
        left += usize::from(to_left);
        right += usize::from(!to_left);
    }
    slots[left..].copy_from_slice(&scratch[..right]);
    left
}

/// The candidate thresholds of a node's feature values in ascending order:
/// midpoints between consecutive distinct values, where a value within
/// `1e-12` of the last distinct one is not distinct. `total_cmp` order puts
/// NaNs at the ends, where every threshold they produce is NaN and splits
/// nothing off.
fn thresholds(sorted: &[(f64, f64)]) -> impl Iterator<Item = f64> + '_ {
    let mut last = sorted.first().map(|&(v, _)| v);
    sorted.iter().skip(1).filter_map(move |&(v, _)| {
        let previous = last?;
        if (v - previous).abs() < 1e-12 {
            return None;
        }
        last = Some(v);
        Some((previous + v) / 2.0)
    })
}

fn mean_target(targets: &[f64], samples: &[u32]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().map(|&i| targets[i as usize]).sum::<f64>() / samples.len() as f64
}

fn variance_target(targets: &[f64], samples: &[u32], mean: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().map(|&i| (targets[i as usize] - mean).powi(2)).sum::<f64>() / samples.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Sample;
    use proptest::prelude::*;

    /// Dataset where the first feature alone decides the target.
    fn separable(n: usize) -> Dataset {
        let mut ds = Dataset::new(["signal", "noise"]);
        for i in 0..n {
            let x = i as f64 / n as f64;
            let noise = ((i * 37 + 11) % 17) as f64 / 17.0;
            let target = if x > 0.5 { 1.0 } else { -1.0 };
            ds.push(Sample::new(vec![x, noise], target));
        }
        ds
    }

    fn small_config() -> RandomForestConfig {
        RandomForestConfig { num_trees: 20, max_depth: 6, ..Default::default() }
    }

    #[test]
    fn learns_a_separable_function() {
        let ds = separable(200);
        let forest = RandomForest::train(&ds, &small_config());
        assert!(forest.predict(&[0.9, 0.5]) > 0.5);
        assert!(forest.predict(&[0.1, 0.5]) < -0.5);
    }

    #[test]
    fn importance_identifies_the_signal_feature() {
        let ds = separable(200);
        let forest = RandomForest::train(&ds, &small_config());
        let imp = forest.feature_importances();
        assert!(imp[0] > imp[1], "signal importance {} should exceed noise {}", imp[0], imp[1]);
        assert!((imp.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn oob_error_is_small_on_easy_data() {
        let ds = separable(300);
        let forest = RandomForest::train(&ds, &small_config());
        assert!(forest.oob_error() < 0.5, "oob error {}", forest.oob_error());
    }

    #[test]
    fn deterministic_given_seed() {
        let ds = separable(100);
        let a = RandomForest::train(&ds, &small_config());
        let b = RandomForest::train(&ds, &small_config());
        assert_eq!(a.predict(&[0.3, 0.3]), b.predict(&[0.3, 0.3]));
    }

    #[test]
    fn constant_target_predicts_constant() {
        let mut ds = Dataset::new(["x"]);
        for i in 0..20 {
            ds.push(Sample::new(vec![i as f64], 0.7));
        }
        let forest = RandomForest::train(&ds, &small_config());
        assert!((forest.predict(&[5.0]) - 0.7).abs() < 1e-9);
    }

    #[test]
    fn predict_batch_matches_predict() {
        let ds = separable(120);
        let forest = RandomForest::train(&ds, &small_config());
        let rows: Vec<&[f64]> = ds.samples.iter().map(|s| s.features.as_slice()).collect();
        let batch = forest.predict_batch(&rows);
        for (row, batched) in rows.iter().zip(batch.iter()) {
            assert_eq!(forest.predict(row).to_bits(), batched.to_bits());
        }
    }

    #[test]
    fn missing_features_treated_as_zero() {
        let ds = separable(100);
        let forest = RandomForest::train(&ds, &small_config());
        // Too-short feature vector does not panic.
        let _ = forest.predict(&[]);
    }

    #[test]
    #[should_panic(expected = "empty dataset")]
    fn training_on_empty_dataset_panics() {
        let ds = Dataset::new(["x"]);
        RandomForest::train(&ds, &RandomForestConfig::default());
    }

    /// `forest` through a string-table stream and back.
    fn stream_round_trip(forest: &RandomForest) -> (Vec<u8>, RandomForest) {
        let mut strings = StringTableWriter::new();
        let mut w = ByteWriter::new();
        forest.encode_into(&mut strings, &mut w);
        let stream = strings.into_stream(w);
        let decoded = ltee_codec::read_stream(&stream, RandomForest::decode_from).unwrap();
        (stream, decoded)
    }

    #[test]
    fn codec_round_trip_is_bit_identical() {
        let ds = separable(150);
        let forest = RandomForest::train(&ds, &small_config());
        let (_, decoded) = stream_round_trip(&forest);
        assert_eq!(decoded, forest);
        for s in &ds.samples {
            assert_eq!(
                forest.predict(&s.features).to_bits(),
                decoded.predict(&s.features).to_bits()
            );
        }
        assert_eq!(forest.oob_error().to_bits(), decoded.oob_error().to_bits());
    }

    /// The raw stream of a one-feature ("x"), one-tree forest whose nodes
    /// are `nodes`, each a leaf (`None`) or a split `(feature, left, right)`.
    fn one_tree_stream(nodes: &[Option<(u64, u64, u64)>]) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.write_bytes(&[1, 1, b'x']); // string table: "x"
        w.write_bytes(&[1, 4, 2]); // num_trees, max_depth, min_samples_split
        w.write_bool(false); // features_per_split
        w.write_f64(1.0); // bootstrap_fraction
        w.write_varint(1); // seed
        w.write_bytes(&[1, 0]); // feature names: "x"
        w.write_varint(1); // trees
        w.write_seq(nodes, |w, node| match *node {
            None => {
                w.write_u8(0);
                w.write_f64(1.0);
            }
            Some((feature, left, right)) => {
                w.write_u8(1);
                w.write_varint(feature);
                w.write_f64(0.5); // threshold
                w.write_f64(0.1); // gain
                w.write_varint(left);
                w.write_varint(right);
            }
        });
        w.write_f64(0.0); // oob
        w.into_bytes()
    }

    fn refusal(nodes: &[Option<(u64, u64, u64)>]) -> CodecError {
        ltee_codec::read_stream(&one_tree_stream(nodes), RandomForest::decode_from).unwrap_err()
    }

    #[test]
    fn codec_rejects_cyclic_trees() {
        // A single split pointing at itself: without the forward-reference
        // check, predict() on the decoded tree would loop forever.
        assert_eq!(
            refusal(&[Some((0, 0, 0))]),
            CodecError::OutOfRange { what: "forest.node.left", value: 0, allowed: 1..1 }
        );
        let valid = one_tree_stream(&[Some((0, 1, 2)), None, None]);
        assert!(ltee_codec::read_stream(&valid, RandomForest::decode_from).is_ok());
    }

    #[test]
    fn codec_rejects_out_of_range_child_index() {
        assert_eq!(
            refusal(&[Some((0, 1, 3)), None, None]),
            CodecError::OutOfRange { what: "forest.node.right", value: 3, allowed: 1..3 }
        );
        // A split on a feature the forest does not have, and a tree with
        // no root: both decoded once, then panicked in
        // `feature_importances` and `predict`.
        assert_eq!(
            refusal(&[Some((1, 1, 2)), None, None]),
            CodecError::OutOfRange { what: "forest.node.feature", value: 1, allowed: 0..1 }
        );
        assert_eq!(
            refusal(&[]),
            CodecError::OutOfRange { what: "forest.tree.nodes", value: 0, allowed: 1..u64::MAX }
        );

        // Every byte of a trained forest's stream set to 0xFF in turn: the
        // decoder refuses or decodes, and never panics.
        let forest = RandomForest::train(&separable(60), &small_config());
        let raw = stream_round_trip(&forest).0;
        for at in 0..raw.len() {
            let mut mutated = raw.clone();
            mutated[at] = 0xff;
            if let Ok(decoded) = ltee_codec::read_stream(&mutated, RandomForest::decode_from) {
                decoded.feature_importances();
                decoded.predict(&[0.5, 0.5]);
            }
        }
    }

    impl TreeBuilder<'_> {
        /// The split search the sorted sweep replaced, kept as its oracle:
        /// every candidate threshold partitions `samples` into two fresh
        /// lists and scores them with `mean_target` / `variance_target`.
        fn build_by_partition(&mut self, samples: &[u32], depth: usize) -> usize {
            let targets = &self.columns.targets;
            let mean = mean_target(targets, samples);
            if depth >= self.config.max_depth
                || samples.len() < self.config.min_samples_split
                || variance_target(targets, samples, mean) < 1e-12
            {
                return self.push(Node::Leaf { prediction: mean });
            }

            let num_features = self.columns.num_features();
            let mut candidates: Vec<usize> = (0..num_features).collect();
            for i in 0..self.features_per_split.min(num_features) {
                let j = self.rng.gen_range(i..num_features);
                candidates.swap(i, j);
            }
            candidates.truncate(self.features_per_split);

            let parent_var = variance_target(targets, samples, mean) * samples.len() as f64;
            type SplitCandidate = (usize, f64, f64, Vec<u32>, Vec<u32>);
            let mut best: Option<SplitCandidate> = None;

            for &feature in &candidates {
                let column = self.columns.column(feature);
                let mut values: Vec<f64> = samples.iter().map(|&i| column[i as usize]).collect();
                values.sort_by(f64::total_cmp);
                values.dedup_by(|a, b| (*a - *b).abs() < 1e-12);
                if values.len() < 2 {
                    continue;
                }
                for w in values.windows(2) {
                    let threshold = (w[0] + w[1]) / 2.0;
                    let (left, right): (Vec<u32>, Vec<u32>) =
                        samples.iter().partition(|&&i| column[i as usize] <= threshold);
                    if left.is_empty() || right.is_empty() {
                        continue;
                    }
                    let lm = mean_target(targets, &left);
                    let rm = mean_target(targets, &right);
                    let child_var = variance_target(targets, &left, lm) * left.len() as f64
                        + variance_target(targets, &right, rm) * right.len() as f64;
                    let gain = parent_var - child_var;
                    if best.as_ref().map(|b| gain > b.2).unwrap_or(gain > 1e-12) {
                        best = Some((feature, threshold, gain, left, right));
                    }
                }
            }

            match best {
                Some((feature, threshold, gain, left, right)) => {
                    let node_idx = self.push(Node::Split { feature, threshold, gain, left: 0, right: 0 });
                    let left_idx = self.build_by_partition(&left, depth + 1);
                    let right_idx = self.build_by_partition(&right, depth + 1);
                    if let Node::Split { left: l, right: r, .. } = &mut self.nodes[node_idx] {
                        *l = left_idx;
                        *r = right_idx;
                    }
                    node_idx
                }
                None => self.push(Node::Leaf { prediction: mean }),
            }
        }
    }

    /// A dataset built to provoke what could tell the split searches
    /// apart, in the shapes training really has: few distinct feature
    /// values (equal-gain ties between thresholds and between features), a
    /// constant feature, a feature with at least n/2 distinct values, NaN
    /// and ±inf feature values, exact-duplicate rows (what upsampling the
    /// minority class produces), and ±1, real-valued or {-0.0, 1.0}
    /// targets.
    fn awkward_dataset(rng: &mut ChaCha8Rng, n: usize, target_kind: usize) -> Dataset {
        let mut ds =
            Dataset::new(["coarse", "coarse twin", "constant", "fine", "holes", "dense", "edges"]);
        while ds.len() < n {
            if ds.len() >= 4 && rng.gen_range(0..4) == 0 {
                let copy = ds.samples[rng.gen_range(0..ds.len())].clone();
                ds.push(copy);
                continue;
            }
            let coarse = rng.gen_range(0..4) as f64 / 4.0;
            let fine = rng.gen_range(0..1000) as f64 / 1000.0;
            let holes = if rng.gen_range(0..5) == 0 { f64::NAN } else { rng.gen_range(0..6) as f64 };
            let dense = rng.gen_range(0..4 * n.max(1)) as f64 / 7.0;
            let edges = match rng.gen_range(0..12) {
                0 => f64::INFINITY,
                1 => f64::NEG_INFINITY,
                2 => f64::NAN,
                3 => -0.0,
                k => (k % 4) as f64,
            };
            let features = vec![coarse, 1.0 - coarse, 0.5, fine, holes, dense, edges];
            let high = coarse + fine > 0.9;
            let target = match target_kind {
                0 => coarse - fine + rng.gen_range(0..7) as f64 / 10.0,
                1 if high => 1.0,
                1 => -1.0,
                _ if high => 1.0,
                _ => -0.0,
            };
            ds.push(Sample::new(features, target));
        }
        ds
    }

    /// The arenas (through `Debug`, which — unlike `==` — tells -0.0 from
    /// 0.0) of one bootstrap sample's tree built two ways: the presorted
    /// search and the partitioning oracle.
    fn build_both_ways(
        ds: &Dataset,
        config: &RandomForestConfig,
        features_per_split: usize,
        seed: u64,
    ) -> [String; 2] {
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xb007);
        // A bootstrap sample: indices repeat, in no particular order.
        let indices: Vec<usize> = (0..ds.len()).map(|_| rng.gen_range(0..ds.len())).collect();
        let columns = FeatureColumns::new(ds, |s| s.target);
        let builder = || {
            TreeBuilder::new(&columns, config, features_per_split, ChaCha8Rng::seed_from_u64(seed ^ 0x5eed))
        };
        let (mut presorted, mut oracle) = (builder(), builder());
        presorted.grow(&indices);
        let samples: Vec<u32> = indices.iter().map(|&i| i as u32).collect();
        oracle.build_by_partition(&samples, 0);
        [presorted, oracle].map(|b| format!("{:?}", b.nodes))
    }

    #[test]
    fn non_finite_or_huge_targets_fall_back_to_exact_scoring() {
        for poison in [f64::NAN, f64::INFINITY, 1e160] {
            let mut rng = ChaCha8Rng::seed_from_u64(9);
            let mut ds = awkward_dataset(&mut rng, 60, 0);
            ds.samples[7].target = poison;
            ds.samples[31].target = -poison;
            let config = RandomForestConfig { min_samples_split: 2, ..Default::default() };
            let [presorted, oracle] = build_both_ways(&ds, &config, 7, 9);
            assert_eq!(presorted, oracle, "poison {poison}");
        }
    }

    /// The work counter behind the O(n log n) claim: on a pinned dataset of
    /// 2 000 samples — ±1 targets, a noisy fine-grained signal, a coarse
    /// feature and its twin (exact gain ties) — the search scores only the
    /// near-maximal thresholds exactly. A regression to scoring every
    /// threshold would average hundreds per split node.
    #[test]
    fn split_search_scores_a_handful_of_thresholds_exactly_per_node() {
        let mut rng = ChaCha8Rng::seed_from_u64(2_000);
        let mut ds = Dataset::new(["signal", "coarse", "coarse twin", "noise"]);
        for _ in 0..2_000 {
            let signal = rng.gen_range(0..100_000) as f64 / 100_000.0;
            let coarse = rng.gen_range(0..5) as f64 / 5.0;
            let noise = rng.gen_range(0..1_000) as f64 / 1_000.0;
            let flipped = rng.gen_range(0..10) == 0;
            let target = if (signal + coarse / 4.0 > 0.6) != flipped { 1.0 } else { -1.0 };
            ds.push(Sample::new(vec![signal, coarse, 1.0 - coarse, noise], target));
        }
        let config = RandomForestConfig::default();
        let indices: Vec<usize> = (0..ds.len()).map(|_| rng.gen_range(0..ds.len())).collect();
        let columns = FeatureColumns::new(&ds, |s| s.target);
        let mut builder = TreeBuilder::new(&columns, &config, 2, ChaCha8Rng::seed_from_u64(7));
        builder.grow(&indices);
        let split_nodes =
            builder.nodes.iter().filter(|node| matches!(node, Node::Split { .. })).count();
        assert!(split_nodes > 50, "the pinned dataset should grow a real tree, got {split_nodes} splits");
        assert!(
            builder.exact_scorings <= 4 * split_nodes,
            "{} exact scorings over {split_nodes} split nodes",
            builder.exact_scorings
        );
    }

    proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(8))]
        #[test]
        fn predictions_stay_within_target_range(n in 30usize..80, seed in 0u64..5) {
            let ds = separable(n);
            let cfg = RandomForestConfig { num_trees: 10, seed, ..Default::default() };
            let forest = RandomForest::train(&ds, &cfg);
            for x in [0.0, 0.25, 0.5, 0.75, 1.0] {
                let p = forest.predict(&[x, 0.5]);
                prop_assert!((-1.0..=1.0).contains(&p));
            }
        }
    }

    proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]
        /// The presorted search and the partitioning oracle build
        /// bit-identical trees — ties, duplicate rows, a constant column,
        /// NaN and ±∞ features included.
        #[test]
        fn split_search_builds_the_same_tree_as_partitioning(
            n in 5usize..2_000,
            seed in 0u64..1_000_000,
            features_per_split in 1usize..8,
            target_kind in 0usize..3,
        ) {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let ds = awkward_dataset(&mut rng, n, target_kind);
            let config = RandomForestConfig { min_samples_split: 2, ..Default::default() };
            let [presorted, oracle] = build_both_ways(&ds, &config, features_per_split, seed);
            prop_assert_eq!(&presorted, &oracle);
            // With every feature a candidate, a node of this size splits.
            prop_assert!(n < 20 || features_per_split < 7 || presorted.contains("Split"));
        }
    }
}
