//! Synthetic web table corpus generator.
//!
//! The generator renders entities of a [`World`] into small relational
//! tables with the heterogeneity and noise characteristics that make the
//! paper's task hard: header synonyms, label variants and typos, diverging
//! value formats, missing cells, outdated values, off-topic noise columns
//! and tables about confusable sibling-class entities.

use std::collections::HashMap;
use std::ops::Deref;
use std::rc::Rc;

use ltee_kb::{class_schema, ClassKey, EntityId, World, WorldEntity, CLASS_KEYS};
use ltee_types::{DateGranularity, Value};
use rand::seq::SliceRandom;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::corpus::Corpus;
use crate::table::{Column, TableId, WebTable};

/// Noise knobs of the corpus generator.
#[derive(Debug, Clone, PartialEq)]
pub struct NoiseConfig {
    /// Probability that a label cell contains a typo.
    pub label_typo_rate: f64,
    /// Probability that a label cell uses an alternative label instead of
    /// the canonical one.
    pub label_variant_rate: f64,
    /// Probability that a value cell is left empty.
    pub missing_cell_rate: f64,
    /// Probability that a value cell carries a wrong or outdated value.
    pub wrong_value_rate: f64,
    /// Probability that a table gets an additional off-topic noise column.
    pub noise_column_rate: f64,
}

impl Default for NoiseConfig {
    fn default() -> Self {
        Self {
            label_typo_rate: 0.05,
            label_variant_rate: 0.15,
            missing_cell_rate: 0.12,
            wrong_value_rate: 0.08,
            noise_column_rate: 0.30,
        }
    }
}

impl NoiseConfig {
    /// A noise-free configuration, useful for tests that need clean data.
    pub fn clean() -> Self {
        Self {
            label_typo_rate: 0.0,
            label_variant_rate: 0.0,
            missing_cell_rate: 0.0,
            wrong_value_rate: 0.0,
            noise_column_rate: 0.0,
        }
    }
}

/// Configuration of the corpus generator.
#[derive(Debug, Clone, PartialEq)]
pub struct CorpusConfig {
    /// Number of tables generated per class.
    pub tables_per_class: usize,
    /// Minimum rows per table.
    pub min_rows: usize,
    /// Maximum rows per table.
    pub max_rows: usize,
    /// Target fraction of rows that describe long-tail (non-KB) entities.
    pub long_tail_row_share: f64,
    /// Fraction of tables that are predominantly about confusable
    /// sibling-class entities (table-to-class noise).
    pub confusable_table_rate: f64,
    /// Noise configuration.
    pub noise: NoiseConfig,
    /// RNG seed.
    pub seed: u64,
}

impl Default for CorpusConfig {
    fn default() -> Self {
        Self::gold()
    }
}

impl CorpusConfig {
    /// Gold-standard sized corpus (paper Table 5 magnitude).
    pub fn gold() -> Self {
        Self {
            tables_per_class: 70,
            min_rows: 2,
            max_rows: 12,
            long_tail_row_share: 0.45,
            confusable_table_rate: 0.05,
            noise: NoiseConfig::default(),
            seed: 4242,
        }
    }

    /// Profiling-scale corpus used by the Table 11/12 experiments.
    pub fn profiling() -> Self {
        Self {
            tables_per_class: 400,
            min_rows: 2,
            max_rows: 20,
            long_tail_row_share: 0.45,
            confusable_table_rate: 0.05,
            noise: NoiseConfig::default(),
            seed: 777,
        }
    }

    /// A very small configuration for fast unit tests.
    pub fn tiny() -> Self {
        Self {
            tables_per_class: 12,
            min_rows: 2,
            max_rows: 6,
            long_tail_row_share: 0.4,
            confusable_table_rate: 0.08,
            noise: NoiseConfig::default(),
            seed: 5,
        }
    }
}

/// The ground truth of one generated table: what the generator rendered
/// into it. It is the answer key a run is scored against, so it stays
/// beside the tables (in [`GeneratedCorpus`]) and never on them.
#[derive(Debug, Clone, PartialEq)]
pub struct TableTruth {
    /// The class the table is about.
    pub class: ClassKey,
    /// Index of the true label attribute column.
    pub label_column: usize,
    /// For each column, the knowledge base property it publishes (`None` for
    /// the label column and for noise columns).
    pub column_property: Vec<Option<&'static str>>,
    /// For each row, the world entity it describes.
    pub row_entity: Vec<EntityId>,
}

impl TableTruth {
    /// Check that the truth fits `table`'s shape: one annotation per column
    /// and per row, and a label column that exists.
    pub(crate) fn fits(&self, table: &WebTable) -> Result<(), String> {
        let (columns, rows) = (table.num_columns(), table.num_rows());
        if self.column_property.len() != columns || self.row_entity.len() != rows || self.label_column >= columns {
            return Err(format!(
                "truth of {} columns, {} rows and label column {} does not fit a table of {columns} columns and {rows} rows",
                self.column_property.len(),
                self.row_entity.len(),
                self.label_column
            ));
        }
        Ok(())
    }
}

/// A generated corpus and its answer key: the [`Corpus`] the pipeline
/// reads, plus one [`TableTruth`] per table, keyed by table id.
///
/// It derefs to the corpus, so anything that only reads tables takes it
/// as a `&Corpus`; only the gold standard, the evaluation and tests read
/// the truth.
#[derive(Debug, Clone, Default)]
pub struct GeneratedCorpus {
    corpus: Corpus,
    truth: HashMap<TableId, TableTruth>,
}

impl Deref for GeneratedCorpus {
    type Target = Corpus;

    fn deref(&self) -> &Corpus {
        &self.corpus
    }
}

impl GeneratedCorpus {
    /// Append a table and its truth.
    pub fn push(&mut self, table: WebTable, truth: TableTruth) {
        self.truth.insert(table.id, truth);
        self.corpus.push(table);
    }

    /// The truth of the table with id `id`, if the corpus holds it.
    pub fn truth(&self, id: TableId) -> Option<&TableTruth> {
        self.truth.get(&id)
    }

    /// Every table with its truth, in table order.
    pub fn annotated_tables(&self) -> impl Iterator<Item = (&WebTable, &TableTruth)> + '_ {
        self.corpus.tables().iter().filter_map(|t| Some((t, self.truth.get(&t.id)?)))
    }

    /// Tables whose truth says they are about `class`.
    ///
    /// Used by the corpus-level experiments to partition work per class; the
    /// pipeline's own table-to-class matching does not read the truth.
    pub fn tables_of_class(&self, class: ClassKey) -> Vec<&WebTable> {
        self.annotated_tables().filter(|(_, truth)| truth.class == class).map(|(t, _)| t).collect()
    }

    /// Total number of rows in tables of one class (by truth).
    pub fn total_rows_of_class(&self, class: ClassKey) -> usize {
        self.tables_of_class(class).iter().map(|t| t.num_rows()).sum()
    }

    /// Check that every table has exactly one truth and that each fits its
    /// table. Whoever reads the truth checks it.
    pub fn validate_truth(&self) -> Result<(), String> {
        if self.truth.len() != self.corpus.len() {
            return Err(format!("{} truths for {} tables", self.truth.len(), self.corpus.len()));
        }
        for table in self.corpus.tables() {
            let truth = self.truth(table.id).ok_or_else(|| format!("table {} has no truth", table.id.raw()))?;
            truth.fits(table).map_err(|why| format!("table {}: {why}", table.id.raw()))?;
        }
        Ok(())
    }
}

/// Properties a table can be *themed* on: all rows of a themed table share
/// the same value for the theme property, and the theme column is usually
/// omitted — that shared value is the implicit attribute the `IMPLICIT_ATT`
/// metric recovers.
fn theme_properties(class: ClassKey) -> &'static [&'static str] {
    match class {
        ClassKey::GridironFootballPlayer => &["team", "college", "draftYear", "position"],
        ClassKey::Song => &["musicalArtist", "album", "genre"],
        ClassKey::Settlement => &["isPartOf", "country"],
    }
}

/// Generate a corpus from a world.
pub fn generate_corpus(world: &World, config: &CorpusConfig) -> GeneratedCorpus {
    let mut rng = ChaCha8Rng::seed_from_u64(config.seed);
    let mut corpus = GeneratedCorpus::default();
    let mut next_table_id: u64 = 0;

    for class in CLASS_KEYS {
        let heads = world.head_of_class(class);
        let tails = world.long_tail_of_class(class);
        let confusables = world.confusables_of_class(class);
        // Index of entities by theme property → rendered theme value. The
        // property side is a static str and each distinct rendered value is
        // stored once as a shared `Rc<str>` (probed by `&str`, so repeated
        // values allocate no duplicate key), instead of a fresh
        // `(String, String)` tuple per (entity, theme) pair.
        let mut theme_index: ThemeIndex = HashMap::new();
        for e in heads.iter().chain(tails.iter()) {
            for theme in theme_properties(class) {
                if let Some(v) = e.fact(theme) {
                    let values = theme_index.entry(theme).or_default();
                    let rendered = v.render();
                    match values.get_mut(rendered.as_str()) {
                        Some(ids) => ids.push(e.id),
                        None => {
                            values.insert(Rc::from(rendered.as_str()), vec![e.id]);
                        }
                    }
                }
            }
        }
        // Track how often each long-tail entity has been used so they end up
        // in multiple tables (clusterable).
        let mut tail_usage: HashMap<EntityId, usize> = tails.iter().map(|e| (e.id, 0usize)).collect();

        for _ in 0..config.tables_per_class {
            let id = TableId(next_table_id);
            next_table_id += 1;
            let is_confusable_table =
                !confusables.is_empty() && rng.gen::<f64>() < config.confusable_table_rate;
            let (columns, truth) = if is_confusable_table {
                generate_confusable_table(world, class, config, &mut rng)
            } else {
                generate_class_table(world, class, config, &theme_index, &mut tail_usage, &mut rng)
            };
            let table = WebTable { id, columns };
            debug_assert!(
                table.validate().and(truth.fits(&table)).is_ok(),
                "generated table must be consistent"
            );
            corpus.push(table, truth);
        }
    }
    corpus
}

/// Entities indexed by theme property → rendered theme value. One shared
/// `Rc<str>` per distinct value; cloning a theme key is a pointer bump.
type ThemeIndex = HashMap<&'static str, HashMap<Rc<str>, Vec<EntityId>>>;

/// Generate the columns and truth of a regular table about `class`.
fn generate_class_table(
    world: &World,
    class: ClassKey,
    config: &CorpusConfig,
    theme_index: &ThemeIndex,
    tail_usage: &mut HashMap<EntityId, usize>,
    rng: &mut ChaCha8Rng,
) -> (Vec<Column>, TableTruth) {
    let num_rows = rng.gen_range(config.min_rows..=config.max_rows);

    // Pick a theme (or none) and collect the candidate entity pool.
    let themed = rng.gen::<f64>() < 0.7;
    let mut theme: Option<(&'static str, Rc<str>)> = None;
    let mut pool: Vec<EntityId> = Vec::new();
    if themed {
        // Choose a theme key that has enough members. Keys sort exactly as
        // the former `(String, String)` tuples did (property, then value),
        // keeping the corpus a pure function of the seed.
        let mut keys: Vec<(&'static str, &Rc<str>)> = theme_index
            .iter()
            .flat_map(|(prop, values)| values.keys().map(move |v| (*prop, v)))
            .collect();
        keys.sort();
        keys.shuffle(rng);
        for (prop, value) in keys {
            let members = &theme_index[prop][value];
            if members.len() >= config.min_rows.max(2) {
                theme = Some((prop, Rc::clone(value)));
                pool = members.clone();
                break;
            }
        }
    }
    if pool.is_empty() {
        pool = world.entities_of_class(class).iter().map(|e| e.id).collect();
    }

    // Select rows. Long-tail entities fill `long_tail_row_share` of the rows;
    // to make sure long-tail clusters of size > 1 exist (the paper's gold
    // standard "ensured that for some labels, we select at least five rows"),
    // tail picks preferentially re-use entities that already appear in other
    // tables instead of spreading usage uniformly.
    let tail_target = ((num_rows as f64) * config.long_tail_row_share).round() as usize;
    let tail_candidates: Vec<EntityId> =
        pool.iter().copied().filter(|e| tail_usage.contains_key(e)).collect();
    let mut selected: Vec<EntityId> = Vec::new();
    for pick_index in 0..tail_target {
        let already_used: Vec<EntityId> = tail_candidates
            .iter()
            .copied()
            .filter(|e| tail_usage.get(e).copied().unwrap_or(0) > 0 && !selected.contains(e))
            .collect();
        let fresh: Vec<EntityId> = tail_candidates
            .iter()
            .copied()
            .filter(|e| tail_usage.get(e).copied().unwrap_or(0) == 0 && !selected.contains(e))
            .collect();
        // Clusterability guarantee: a themed pool usually excludes the tails
        // already placed elsewhere, so pool-restricted reuse alone leaves
        // most long-tail entities stranded in a single table. The first tail
        // slot of each table therefore prefers promoting a class-wide
        // used-once entity to >= 2 appearances — even off-theme — mirroring
        // the paper's gold standard, which ensured that for some labels at
        // least five rows were selected.
        let promotable: Vec<EntityId> = if pick_index == 0 {
            let mut once: Vec<EntityId> = tail_usage
                .iter()
                .filter(|(e, &count)| count == 1 && !selected.contains(*e))
                .map(|(&e, _)| e)
                .collect();
            // HashMap iteration order varies between instances; sort so the
            // corpus stays a pure function of the seed.
            once.sort_unstable();
            once
        } else {
            Vec::new()
        };
        let pick = if !promotable.is_empty() && rng.gen::<f64>() < 0.7 {
            promotable.choose(rng).copied()
        } else if !already_used.is_empty() && (fresh.is_empty() || rng.gen::<f64>() < 0.7) {
            already_used.choose(rng).copied()
        } else {
            fresh.choose(rng).copied()
        };
        let Some(e) = pick else { break };
        selected.push(e);
        *tail_usage.entry(e).or_insert(0) += 1;
    }
    let mut others: Vec<EntityId> =
        pool.iter().copied().filter(|e| !selected.contains(e)).collect();
    others.shuffle(rng);
    for e in others {
        if selected.len() >= num_rows {
            break;
        }
        selected.push(e);
        if let Some(c) = tail_usage.get_mut(&e) {
            *c += 1;
        }
    }
    // A table never describes the same entity twice (SAME_TABLE assumption),
    // so if the pool was too small we simply emit fewer rows.
    selected.truncate(num_rows);
    selected.shuffle(rng);

    // Choose the published property columns.
    let schema = class_schema(class);
    let mut published: Vec<&str> = Vec::new();
    for spec in schema {
        let mut p = spec.table_density;
        // The theme property is usually left implicit.
        if let Some((theme_prop, _)) = &theme {
            if *theme_prop == spec.name && rng.gen::<f64>() < 0.6 {
                p = 0.0;
            }
        }
        if rng.gen::<f64>() < p {
            published.push(spec.name);
        }
    }
    // Ensure at least one value column so the table is useful.
    if published.is_empty() {
        let weights: Vec<f64> = schema.iter().map(|s| s.table_density).collect();
        let total: f64 = weights.iter().sum();
        let mut pick = rng.gen::<f64>() * total.max(1e-9);
        let mut chosen = schema[0].name;
        for (spec, w) in schema.iter().zip(weights) {
            if pick <= w {
                chosen = spec.name;
                break;
            }
            pick -= w;
        }
        published.push(chosen);
    }

    build_table(world, class, &selected, &published, config, rng)
}

/// Generate the columns and truth of a table about confusable sibling-class
/// entities (plus a few real ones), the source of table-to-class matching
/// errors.
fn generate_confusable_table(
    world: &World,
    class: ClassKey,
    config: &CorpusConfig,
    rng: &mut ChaCha8Rng,
) -> (Vec<Column>, TableTruth) {
    let confusables = world.confusables_of_class(class);
    let real = world.entities_of_class(class);
    let num_rows = rng.gen_range(config.min_rows..=config.max_rows.min(8));
    let mut selected: Vec<EntityId> = Vec::new();
    for e in confusables.iter() {
        if selected.len() >= num_rows.saturating_sub(1) {
            break;
        }
        selected.push(e.id);
    }
    if let Some(extra) = real.choose(rng) {
        selected.push(extra.id);
    }
    selected.shuffle(rng);

    // Confusable tables publish whatever the confusable entities have.
    let published: Vec<&str> = match class {
        ClassKey::GridironFootballPlayer => vec!["number", "height"],
        ClassKey::Song => vec!["musicalArtist", "releaseDate"],
        ClassKey::Settlement => vec!["country", "elevation"],
    };
    build_table(world, class, &selected, &published, config, rng)
}

/// Render a set of entities into the columns of a table with the published
/// properties, and the truth that annotates them. Crate-visible so the
/// scenario generators ([`crate::scenario`]) reuse the exact rendering
/// (noise, format variation, truth wiring) of the base corpus generator.
/// An entity id the world does not hold gets no row, and a published name
/// outside the class schema no column.
pub(crate) fn build_table(
    world: &World,
    class: ClassKey,
    entities: &[EntityId],
    published: &[&str],
    config: &CorpusConfig,
    rng: &mut ChaCha8Rng,
) -> (Vec<Column>, TableTruth) {
    let schema = class_schema(class);
    let noise = &config.noise;

    // Label column header.
    let label_header = match class {
        ClassKey::GridironFootballPlayer => ["player", "name", "athlete"].choose(rng).copied().unwrap_or("name"),
        ClassKey::Song => ["song", "title", "track"].choose(rng).copied().unwrap_or("title"),
        ClassKey::Settlement => ["settlement", "place", "town", "name"].choose(rng).copied().unwrap_or("place"),
    };

    let (entities, rows): (Vec<EntityId>, Vec<&WorldEntity>) =
        entities.iter().filter_map(|&id| Some((id, world.entity(id)?))).unzip();
    let label_cells = rows.iter().map(|entity| {
        let mut label = if !entity.alt_labels.is_empty() && rng.gen::<f64>() < noise.label_variant_rate {
            entity.alt_labels.choose(rng).map_or_else(|| entity.canonical_label.clone(), |label| label.to_string())
        } else {
            entity.canonical_label.clone()
        };
        if rng.gen::<f64>() < noise.label_typo_rate {
            label = apply_typo(&label, rng);
        }
        label
    });
    let mut columns = vec![Column { header: label_header.to_string(), cells: label_cells.collect() }];
    let mut column_property: Vec<Option<&'static str>> = vec![None];

    // Per-column formatting decisions are made once per column so that a
    // column is internally consistent (like real web tables).
    for prop in published {
        let Some(spec) = schema.iter().find(|s| s.name == *prop) else { continue };
        let header = spec.header_labels.choose(rng).copied().unwrap_or(spec.name).to_string();
        let date_format = rng.gen_range(0..3u8);
        let runtime_as_duration = rng.gen::<f64>() < 0.5;
        let cells = rows.iter().map(|entity| match entity.fact(prop) {
            Some(value) if rng.gen::<f64>() >= noise.missing_cell_rate => {
                let value = if rng.gen::<f64>() < noise.wrong_value_rate {
                    corrupt_value(value, rng)
                } else {
                    value.clone()
                };
                render_value(&value, prop, date_format, runtime_as_duration)
            }
            _ => String::new(),
        });
        columns.push(Column { header, cells: cells.collect() });
        column_property.push(Some(spec.name));
    }

    // Off-topic noise column.
    if rng.gen::<f64>() < noise.noise_column_rate {
        let headers = ["rank", "notes", "source", "updated"];
        let header = headers.choose(rng).copied().unwrap_or("notes").to_string();
        let cells = (0..entities.len())
            .map(|i| match header.as_str() {
                "rank" => (i + 1).to_string(),
                "updated" => format!("201{}", i % 5),
                _ => format!("ref {}", rng.gen_range(1..100)),
            })
            .collect();
        columns.push(Column { header, cells });
        column_property.push(None);
    }

    let truth = TableTruth { class, label_column: 0, column_property, row_entity: entities };
    (columns, truth)
}

/// Introduce a small typo: swap two adjacent characters or drop one.
pub(crate) fn apply_typo(label: &str, rng: &mut ChaCha8Rng) -> String {
    let chars: Vec<char> = label.chars().collect();
    if chars.len() < 3 {
        return label.to_string();
    }
    let pos = rng.gen_range(1..chars.len() - 1);
    let mut out = chars.clone();
    if rng.gen::<bool>() {
        out.swap(pos, pos - 1);
    } else {
        out.remove(pos);
    }
    out.into_iter().collect()
}

/// Produce a wrong/outdated variant of a value.
fn corrupt_value(value: &Value, rng: &mut ChaCha8Rng) -> Value {
    match value {
        Value::Quantity(q) => {
            // Outdated numbers: off by 5-40 %.
            let factor = 1.0 + rng.gen_range(0.05..0.40) * if rng.gen::<bool>() { 1.0 } else { -1.0 };
            Value::Quantity((q * factor).round())
        }
        Value::NominalInt(i) => Value::NominalInt(i + rng.gen_range(1..=3)),
        Value::Date(d) => {
            let mut nd = *d;
            nd.year += rng.gen_range(1..=2);
            Value::Date(nd)
        }
        Value::Text(s) | Value::Nominal(s) | Value::InstanceRef(s) => {
            // Truncate or garble string payloads: drop the last two
            // characters of a longer string, extend a short one.
            let chars = s.chars().count();
            let s: Box<str> = if chars > 4 { s.chars().take(chars - 2).collect() } else { format!("{s}x").into() };
            match value {
                Value::Nominal(_) => Value::Nominal(s),
                Value::InstanceRef(_) => Value::InstanceRef(s),
                _ => Value::Text(s),
            }
        }
    }
}

/// Render a value into a web table cell with format variation.
fn render_value(value: &Value, property: &str, date_format: u8, runtime_as_duration: bool) -> String {
    match value {
        Value::Date(d) => match d.granularity {
            DateGranularity::Year => d.year.to_string(),
            DateGranularity::Day => match date_format {
                0 => format!("{:04}-{:02}-{:02}", d.year, d.month, d.day),
                1 => format!("{:02}/{:02}/{:04}", d.month, d.day, d.year),
                _ => {
                    const MONTHS: [&str; 12] = [
                        "January", "February", "March", "April", "May", "June", "July", "August",
                        "September", "October", "November", "December",
                    ];
                    format!("{} {}, {}", MONTHS[(d.month as usize).clamp(1, 12) - 1], d.day, d.year)
                }
            },
        },
        Value::Quantity(q) if property == "runtime" && runtime_as_duration => {
            let total = q.round() as i64;
            format!("{}:{:02}", total / 60, total % 60)
        }
        Value::Quantity(q) if property == "populationTotal" => {
            // Thousands separators.
            let raw = format!("{}", q.round() as i64);
            let mut out = String::new();
            for (i, c) in raw.chars().rev().enumerate() {
                if i > 0 && i % 3 == 0 {
                    out.push(',');
                }
                out.push(c);
            }
            out.chars().rev().collect()
        }
        other => other.render(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ltee_kb::{generate_world, GeneratorConfig, Scale};

    fn tiny_setup() -> (World, GeneratedCorpus) {
        let world = generate_world(&GeneratorConfig::new(Scale::tiny(), 11));
        let corpus = generate_corpus(&world, &CorpusConfig::tiny());
        (world, corpus)
    }

    /// A two-row, two-column table and the truth that fits it.
    fn annotated_table(id: u64, class: ClassKey) -> (WebTable, TableTruth) {
        let table = WebTable {
            id: TableId(id),
            columns: vec![
                Column { header: "player".into(), cells: ["Tom Brady", "Eli Manning"].into_iter().collect() },
                Column { header: "team".into(), cells: ["Patriots", "Giants"].into_iter().collect() },
            ],
        };
        let truth = TableTruth {
            class,
            label_column: 0,
            column_property: vec![None, Some("team")],
            row_entity: vec![EntityId(10 * id), EntityId(10 * id + 1)],
        };
        (table, truth)
    }

    fn corpus_of(annotated: Vec<(WebTable, TableTruth)>) -> GeneratedCorpus {
        let mut corpus = GeneratedCorpus::default();
        for (table, truth) in annotated {
            corpus.push(table, truth);
        }
        corpus
    }

    #[test]
    fn corpus_has_expected_table_count() {
        let (_, corpus) = tiny_setup();
        assert_eq!(corpus.len(), CorpusConfig::tiny().tables_per_class * 3);
        for class in CLASS_KEYS {
            assert_eq!(corpus.tables_of_class(class).len(), CorpusConfig::tiny().tables_per_class);
        }
    }

    #[test]
    fn tables_are_internally_consistent() {
        let (_, corpus) = tiny_setup();
        corpus.validate_truth().expect("one truth per table, shaped like it");
        for table in corpus.tables() {
            table.validate().expect("valid table");
            assert!(table.num_rows() >= 1);
            assert!(table.num_columns() >= 2, "a table needs a label and at least one value column");
        }
    }

    #[test]
    fn rows_never_repeat_an_entity_within_a_table() {
        let (_, corpus) = tiny_setup();
        for (table, truth) in corpus.annotated_tables() {
            let mut seen = std::collections::HashSet::new();
            for e in &truth.row_entity {
                assert!(seen.insert(*e), "entity repeated within table {}", table.id.raw());
            }
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let world = generate_world(&GeneratorConfig::new(Scale::tiny(), 11));
        let a = generate_corpus(&world, &CorpusConfig::tiny());
        let b = generate_corpus(&world, &CorpusConfig::tiny());
        assert_eq!(a.tables(), b.tables());
        assert!(a.annotated_tables().eq(b.annotated_tables()), "the truth is generated alongside");
        let reseeded = CorpusConfig { seed: CorpusConfig::tiny().seed + 1, ..CorpusConfig::tiny() };
        let c = generate_corpus(&world, &reseeded);
        assert_ne!(a.tables(), c.tables(), "the corpus seed must steer generation");
    }

    #[test]
    fn long_tail_entities_appear_in_multiple_tables() {
        let (world, corpus) = tiny_setup();
        // Count tables per long-tail entity; a healthy share must appear >= 2
        // times or clustering new entities would be impossible.
        let mut counts: HashMap<EntityId, usize> = HashMap::new();
        for (_, truth) in corpus.annotated_tables() {
            for e in &truth.row_entity {
                *counts.entry(*e).or_insert(0) += 1;
            }
        }
        for class in CLASS_KEYS {
            let tails = world.long_tail_of_class(class);
            let multi = tails.iter().filter(|e| counts.get(&e.id).copied().unwrap_or(0) >= 2).count();
            assert!(
                multi >= 3,
                "{class}: only {multi}/{} long-tail entities appear in >= 2 tables",
                tails.len()
            );
        }
    }

    #[test]
    fn corpus_contains_long_tail_rows() {
        let (world, corpus) = tiny_setup();
        let mut tail_rows = 0usize;
        let mut total_rows = 0usize;
        for (_, truth) in corpus.annotated_tables() {
            for e in &truth.row_entity {
                total_rows += 1;
                let entity = world.entity(*e).unwrap();
                if !entity.in_kb && !entity.confusable {
                    tail_rows += 1;
                }
            }
        }
        let share = tail_rows as f64 / total_rows as f64;
        assert!(share > 0.2 && share < 0.8, "long-tail row share {share}");
    }

    #[test]
    fn value_columns_mostly_match_ground_truth_facts() {
        // With default noise, a clear majority of non-empty cells should
        // parse back to something equivalent to the entity's true fact.
        let (world, corpus) = tiny_setup();
        let mut correct = 0usize;
        let mut checked = 0usize;
        for (table, truth) in corpus.annotated_tables() {
            for (ci, col) in table.columns.iter().enumerate() {
                let Some(prop) = truth.column_property[ci] else { continue };
                for (ri, cell) in col.cells.iter().enumerate() {
                    if cell.is_empty() {
                        continue;
                    }
                    let entity = world.entity(truth.row_entity[ri]).unwrap();
                    let Some(fact) = entity.fact(prop) else { continue };
                    checked += 1;
                    if cell_matches(cell, fact) {
                        correct += 1;
                    }
                }
            }
        }
        assert!(checked > 100, "expected a reasonable number of value cells, got {checked}");
        let ratio = correct as f64 / checked as f64;
        assert!(ratio > 0.75, "only {ratio:.2} of cells match the ground truth");
    }

    /// Loose check that a rendered cell corresponds to the true value.
    fn cell_matches(cell: &str, truth: &Value) -> bool {
        match truth {
            Value::Quantity(q) => {
                let parsed = ltee_types::detect::parse_quantity(cell)
                    .or_else(|| ltee_types::detect::parse_date(cell).map(|d| d.year as f64));
                parsed.map(|p| (p - q).abs() / q.abs().max(1.0) < 0.5).unwrap_or(false)
            }
            Value::NominalInt(i) => ltee_types::detect::parse_quantity(cell)
                .map(|p| (p - *i as f64).abs() < 4.0)
                .unwrap_or(false),
            Value::Date(d) => ltee_types::detect::parse_date(cell)
                .map(|p| (p.year - d.year).abs() <= 2)
                .unwrap_or(false),
            other => {
                let t = other.render().to_lowercase();
                let c = cell.to_lowercase();
                c.contains(&t[..t.len().min(4)]) || t.contains(&c[..c.len().min(4)])
            }
        }
    }

    #[test]
    fn noise_free_corpus_has_no_empty_value_cells_or_typos() {
        let world = generate_world(&GeneratorConfig::new(Scale::tiny(), 3));
        let mut config = CorpusConfig::tiny();
        config.noise = NoiseConfig::clean();
        let corpus = generate_corpus(&world, &config);
        for (table, truth) in corpus.annotated_tables() {
            let label_col = &table.columns[truth.label_column];
            for (ri, cell) in label_col.cells.iter().enumerate() {
                let entity = world.entity(truth.row_entity[ri]).unwrap();
                assert_eq!(cell, &entity.canonical_label, "clean corpus must use canonical labels");
            }
        }
    }

    #[test]
    fn some_tables_describe_confusable_entities() {
        let (world, corpus) = tiny_setup();
        let mut confusable_rows = 0usize;
        for (_, truth) in corpus.annotated_tables() {
            for e in &truth.row_entity {
                if world.entity(*e).unwrap().confusable {
                    confusable_rows += 1;
                }
            }
        }
        assert!(confusable_rows > 0, "corpus should contain confusable rows for table-to-class noise");
    }

    #[test]
    fn class_partition_and_row_counts() {
        let mut corpus = corpus_of(vec![
            annotated_table(1, ClassKey::Song),
            annotated_table(2, ClassKey::Song),
            annotated_table(3, ClassKey::Settlement),
        ]);
        let (mut table, truth) = annotated_table(4, ClassKey::Song);
        table.columns.iter_mut().for_each(|c| c.cells = c.cells.iter().chain(["x"]).collect());
        corpus.push(table, truth);
        assert_eq!(corpus.tables_of_class(ClassKey::Song).len(), 3);
        assert_eq!(corpus.total_rows(), 9);
        assert_eq!(corpus.total_rows_of_class(ClassKey::Song), 7);
        assert_eq!(corpus.truth(TableId(3)).map(|t| t.class), Some(ClassKey::Settlement));
        assert!(corpus.truth(TableId(9)).is_none());
    }

    #[test]
    fn validate_rejects_wrong_truth_lengths() {
        assert!(corpus_of(vec![annotated_table(1, ClassKey::Song)]).validate_truth().is_ok());
        let (table, mut truth) = annotated_table(1, ClassKey::Song);
        truth.row_entity.pop();
        assert!(table.validate().is_ok(), "the table itself is fine");
        assert!(corpus_of(vec![(table, truth)]).validate_truth().is_err());
        let (table, mut truth) = annotated_table(1, ClassKey::Song);
        truth.column_property.push(None);
        assert!(corpus_of(vec![(table, truth)]).validate_truth().is_err());
        let twice = corpus_of(vec![annotated_table(1, ClassKey::Song), annotated_table(1, ClassKey::Song)]);
        assert!(twice.validate_truth().is_err(), "one truth cannot annotate two tables");
    }

    #[test]
    fn validate_rejects_out_of_range_label_column() {
        let (table, mut truth) = annotated_table(1, ClassKey::Song);
        truth.label_column = 7;
        assert!(corpus_of(vec![(table, truth)]).validate_truth().is_err());
    }

    #[test]
    fn typo_changes_but_preserves_length_roughly() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let label = "Tom Brady";
        let mut changed = false;
        for _ in 0..10 {
            let t = apply_typo(label, &mut rng);
            assert!(t.chars().count() >= label.chars().count() - 1);
            if t != label {
                changed = true;
            }
        }
        assert!(changed);
    }

    #[test]
    fn short_labels_are_not_typoed() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        assert_eq!(apply_typo("ab", &mut rng), "ab");
    }

    #[test]
    fn corrupt_value_changes_payload() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        assert_ne!(corrupt_value(&Value::Quantity(1000.0), &mut rng), Value::Quantity(1000.0));
        assert_ne!(corrupt_value(&Value::NominalInt(5), &mut rng), Value::NominalInt(5));
        let d = Value::Date(ltee_types::Date::year(2000));
        assert_ne!(corrupt_value(&d, &mut rng), d);
        assert_ne!(
            corrupt_value(&Value::InstanceRef("Springfield".into()), &mut rng),
            Value::InstanceRef("Springfield".into())
        );
    }

    #[test]
    fn corrupt_value_cuts_strings_by_character() {
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let corrupt = |s: &str, rng: &mut ChaCha8Rng| corrupt_value(&Value::InstanceRef(s.into()), rng);
        assert_eq!(corrupt("Springfield", &mut rng), Value::InstanceRef("Springfie".into()));
        assert_eq!(corrupt("Kraków", &mut rng), Value::InstanceRef("Krak".into()));
        assert_eq!(corrupt("Łódź", &mut rng), Value::InstanceRef("Łódźx".into()));
        assert_eq!(corrupt_value(&Value::Nominal("QB".into()), &mut rng), Value::Nominal("QBx".into()));
    }

    #[test]
    fn render_value_clamps_an_out_of_range_month() {
        let date = |month| {
            Value::Date(ltee_types::Date { year: 1990, month, day: 5, granularity: DateGranularity::Day })
        };
        assert_eq!(render_value(&date(0), "birthDate", 2, false), "January 5, 1990");
        assert_eq!(render_value(&date(13), "birthDate", 2, false), "December 5, 1990");
    }

    #[test]
    fn render_population_uses_thousands_separators() {
        let s = render_value(&Value::Quantity(1234567.0), "populationTotal", 0, false);
        assert_eq!(s, "1,234,567");
    }

    #[test]
    fn render_runtime_duration_format() {
        let s = render_value(&Value::Quantity(225.0), "runtime", 0, true);
        assert_eq!(s, "3:45");
    }

    #[test]
    fn render_dates_in_three_formats() {
        let d = Value::Date(ltee_types::Date::day(1987, 3, 14));
        assert_eq!(render_value(&d, "birthDate", 0, false), "1987-03-14");
        assert_eq!(render_value(&d, "birthDate", 1, false), "03/14/1987");
        assert_eq!(render_value(&d, "birthDate", 2, false), "March 14, 1987");
    }
}
