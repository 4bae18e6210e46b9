//! Named corpus scenarios beyond the base generator: table domains the
//! golden examples never exercised, each seeded via keyed deterministic RNG
//! streams so a scenario corpus is a pure function of `(world, seed)`.
//!
//! The catalog follows the related work named in PAPERS.md:
//!
//! * [`Scenario::MultilingualHeaders`] — messy multilingual headers and
//!   label decorations, including multi-char case-fold labels like 'İ'
//!   (whose lowercase is the two-char "i̇"), stressing normalisation.
//! * [`Scenario::ScientificTables`] — scientific-paper-style tables in the
//!   spirit of Tab2Know: abbreviated unit-bearing headers ("wt. \[kg\]"),
//!   footnote daggers on labels, citation and sample-size noise columns.
//! * [`Scenario::NovelEntityStream`] — a stream in which most rows (> 80 %)
//!   describe entities that match nothing in the knowledge base (Zhang et
//!   al., "Novel Entity Discovery from Web Tables").
//! * [`Scenario::NearDuplicateFlood`] — an adversarial flood of labels that
//!   sit within one or two edits of each other (heavy typo + shared
//!   qualifier suffixes), stressing the fuzzy label index.
//!
//! Every scenario returns a [`GeneratedCorpus`] with honest truth per
//! table, so a scenario corpus works anywhere the base corpus does: gold
//! standards, pipeline runs, incremental ingest and golden tests.

use ltee_kb::{class_schema, ClassKey, EntityId, World, CLASS_KEYS};
use ltee_intern::fnv1a64;
use rand::seq::SliceRandom;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::generator::{apply_typo, build_table, CorpusConfig, GeneratedCorpus, NoiseConfig, TableTruth};
use crate::table::{Column, TableId, WebTable};

/// A deterministic seed for scenario generation, queried by topic.
///
/// The same `(seed, topic)` pair always yields the same RNG stream,
/// independent of how many other streams were drawn before it — so adding a
/// new decoration step to one scenario never reshuffles another.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScenarioSeed {
    seed: u64,
}

impl ScenarioSeed {
    /// Wrap a raw seed value.
    pub fn new(seed: u64) -> Self {
        Self { seed }
    }

    /// The raw seed value.
    pub fn raw(self) -> u64 {
        self.seed
    }

    /// A deterministic RNG stream keyed by `topic`. The topic is hashed
    /// with FNV-1a, which is stable across platforms and Rust versions
    /// (std's `DefaultHasher` is not) — what a seed derivation needs.
    pub fn stream(self, topic: &str) -> ChaCha8Rng {
        let topic_hash = fnv1a64(topic.as_bytes());
        let mut seed_bytes = [0u8; 32];
        seed_bytes[..8].copy_from_slice(&self.seed.to_le_bytes());
        seed_bytes[8..16].copy_from_slice(&topic_hash.to_le_bytes());
        ChaCha8Rng::from_seed(seed_bytes)
    }
}

/// Tables generated per class.
const TABLES_PER_CLASS: usize = 10;
/// Minimum rows per table.
const MIN_ROWS: usize = 3;
/// Maximum rows per table.
const MAX_ROWS: usize = 8;

/// The scenario catalog: one entry per new table domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scenario {
    /// Messy multilingual headers and label decorations (incl. 'İ').
    MultilingualHeaders,
    /// Scientific-paper-style tables (Tab2Know shape).
    ScientificTables,
    /// Stream where most rows match no knowledge base instance.
    NovelEntityStream,
    /// Adversarial near-duplicate label flood against the fuzzy index.
    NearDuplicateFlood,
}

impl Scenario {
    /// Every scenario, in catalog order.
    pub const ALL: [Scenario; 4] = [
        Scenario::MultilingualHeaders,
        Scenario::ScientificTables,
        Scenario::NovelEntityStream,
        Scenario::NearDuplicateFlood,
    ];

    /// The stable kebab-case name.
    pub fn name(self) -> &'static str {
        match self {
            Scenario::MultilingualHeaders => "multilingual-headers",
            Scenario::ScientificTables => "scientific-tables",
            Scenario::NovelEntityStream => "novel-entity-stream",
            Scenario::NearDuplicateFlood => "near-duplicate-flood",
        }
    }

    /// One-line description for catalogs.
    pub fn description(self) -> &'static str {
        match self {
            Scenario::MultilingualHeaders => {
                "messy multilingual headers + label decorations (incl. multi-char case-fold 'İ')"
            }
            Scenario::ScientificTables => {
                "scientific-paper tables: unit headers, footnote daggers, citation noise columns"
            }
            Scenario::NovelEntityStream => {
                "novel-entity-heavy stream: > 80 % of rows match no KB instance"
            }
            Scenario::NearDuplicateFlood => {
                "adversarial near-duplicate label flood stressing the fuzzy index"
            }
        }
    }

    /// Generate this scenario's corpus from a world.
    pub fn generate(self, world: &World, seed: u64) -> GeneratedCorpus {
        let seed = ScenarioSeed::new(seed);
        match self {
            Scenario::MultilingualHeaders => multilingual_headers(world, seed),
            Scenario::ScientificTables => scientific_tables(world, seed),
            Scenario::NovelEntityStream => novel_entity_stream(world, seed),
            Scenario::NearDuplicateFlood => near_duplicate_flood(world, seed),
        }
    }
}

/// A base [`CorpusConfig`] carrying the scenario's row bounds; scenarios
/// only use it as the noise/row-count parameter block of
/// [`build_table`] — tables-per-class and seed are driven locally.
fn table_params(noise: NoiseConfig) -> CorpusConfig {
    CorpusConfig {
        tables_per_class: TABLES_PER_CLASS,
        min_rows: MIN_ROWS,
        max_rows: MAX_ROWS,
        long_tail_row_share: 0.0, // row selection is scenario-local
        confusable_table_rate: 0.0,
        noise,
        seed: 0,
    }
}

/// Select `n` distinct entities of a class: `tail_share` of the picks come
/// from the long tail (keyed stream), the rest from the head. Selection is
/// per-table, so repeated calls re-use tail entities across tables and
/// clusters of size > 1 exist.
fn select_rows(
    world: &World,
    class: ClassKey,
    n: usize,
    tail_share: f64,
    rng: &mut ChaCha8Rng,
) -> Vec<EntityId> {
    let mut tails: Vec<EntityId> = world.long_tail_of_class(class).iter().map(|e| e.id).collect();
    let mut heads: Vec<EntityId> = world.head_of_class(class).iter().map(|e| e.id).collect();
    tails.shuffle(rng);
    heads.shuffle(rng);
    let tail_target = ((n as f64) * tail_share).round() as usize;
    let mut selected: Vec<EntityId> = tails.into_iter().take(tail_target.min(n)).collect();
    for head in heads {
        if selected.len() >= n {
            break;
        }
        selected.push(head);
    }
    selected.shuffle(rng);
    selected
}

/// Draw the published (value) properties of a table from the class schema
/// by table density, guaranteeing at least one.
fn pick_published(class: ClassKey, rng: &mut ChaCha8Rng) -> Vec<&'static str> {
    let schema = class_schema(class);
    let mut published: Vec<&'static str> =
        schema.iter().filter(|s| rng.gen::<f64>() < s.table_density).map(|s| s.name).collect();
    if published.is_empty() {
        // Fall back to the densest property so the table stays useful.
        let densest = schema.iter().max_by(|a, b| a.table_density.total_cmp(&b.table_density));
        published.extend(densest.map(|spec| spec.name));
    }
    published
}

// ── Scenario 1: messy multilingual headers ──────────────────────────────

/// Multilingual header synonyms per property name. Properties without an
/// entry keep their schema header (real corpora are only partially
/// translated, too).
fn multilingual_headers_for(property: &str) -> &'static [&'static str] {
    match property {
        "team" => &["équipe", "equipo", "takım", "Mannschaft"],
        "college" => &["université", "universidad", "üniversite", "Hochschule"],
        "position" => &["position (fr)", "posición", "pozisyon"],
        "height" => &["taille", "estatura", "Größe"],
        "weight" => &["poids", "peso", "Gewicht"],
        "birthDate" => &["date de naissance", "fecha de nacimiento", "doğum tarihi"],
        "birthPlace" => &["lieu de naissance", "lugar de nacimiento", "doğum yeri"],
        "musicalArtist" => &["artiste", "artista", "sanatçı", "Künstler"],
        "album" => &["albüm", "álbum", "Album (de)"],
        "genre" => &["genre (fr)", "género", "tür"],
        "runtime" => &["durée", "duración", "süre", "Dauer"],
        "releaseDate" => &["date de sortie", "fecha de lanzamiento", "çıkış tarihi"],
        "country" => &["pays", "país", "ülke", "Land"],
        "isPartOf" => &["région", "región", "bölge"],
        "populationTotal" => &["population (fr)", "población", "nüfus", "Einwohner"],
        "elevation" => &["altitude", "altitud", "rakım", "Höhe"],
        "areaTotal" => &["superficie", "área", "yüzölçümü", "Fläche"],
        _ => &[],
    }
}

/// Multilingual label-column headers.
const MULTILINGUAL_LABEL_HEADERS: [&str; 6] = ["nom", "nombre", "isim", "İsim", "navn", "Name"];

/// Label decorations: qualifiers in several scripts, deliberately
/// including 'İ' (U+0130), whose lowercase expands to two chars — the
/// case-fold edge the interned normalisation path must keep handling.
const MULTILINGUAL_DECORATIONS: [&str; 6] =
    ["(canlı)", "[Zürich]", "İstanbul", "— São Paulo", "(Überarbeitet)", "İzmir"];

fn multilingual_headers(world: &World, seed: ScenarioSeed) -> GeneratedCorpus {
    let params = table_params(NoiseConfig::default());
    let mut corpus = GeneratedCorpus::default();
    let mut next_id = 0u64;
    for class in CLASS_KEYS {
        let mut rng = seed.stream(&format!("multilingual/{}", class.name()));
        for _ in 0..TABLES_PER_CLASS {
            let n = rng.gen_range(MIN_ROWS..=MAX_ROWS);
            let selected = select_rows(world, class, n, 0.45, &mut rng);
            let published = pick_published(class, &mut rng);
            let (mut columns, truth) =
                build_table(world, class, &selected, &published, &params, &mut rng);

            // Rewrite headers into other languages. The truth's
            // column→property mapping is untouched: only the published
            // string gets messier.
            for (ci, column) in columns.iter_mut().enumerate() {
                if ci == truth.label_column {
                    if let Some(h) = MULTILINGUAL_LABEL_HEADERS.choose(&mut rng) {
                        column.header = (*h).to_string();
                    }
                    continue;
                }
                let Some(prop) = truth.column_property[ci] else { continue };
                let variants = multilingual_headers_for(prop);
                if !variants.is_empty() && rng.gen::<f64>() < 0.8 {
                    if let Some(h) = variants.choose(&mut rng) {
                        column.header = (*h).to_string();
                    }
                }
            }

            // Decorate a share of the label cells with multilingual
            // qualifiers (some rows keep their plain label so exact lookups
            // still have anchors).
            map_cells(&mut columns[truth.label_column], |_, cell| {
                if rng.gen::<f64>() < 0.4 {
                    let decoration =
                        MULTILINGUAL_DECORATIONS.choose(&mut rng).copied().unwrap_or("(canlı)");
                    if rng.gen::<bool>() {
                        format!("{cell} {decoration}")
                    } else {
                        format!("{decoration} {cell}")
                    }
                } else {
                    cell.to_string()
                }
            });
            push_table(&mut corpus, &mut next_id, columns, truth);
        }
    }
    corpus
}

/// Append a scenario table under the next table id.
fn push_table(corpus: &mut GeneratedCorpus, next_id: &mut u64, columns: Vec<Column>, truth: TableTruth) {
    let table = WebTable { id: TableId(*next_id), columns };
    debug_assert!(table.validate().and(truth.fits(&table)).is_ok());
    corpus.push(table, truth);
    *next_id += 1;
}

// ── Scenario 2: scientific-paper-style tables ───────────────────────────

/// Scientific header dressing per property: abbreviated name + unit.
fn scientific_header_for(property: &str) -> Option<&'static str> {
    match property {
        "height" => Some("ht. (cm)"),
        "weight" => Some("wt. [kg]"),
        "runtime" => Some("duration (s)"),
        "populationTotal" => Some("pop. (×10³)"),
        "elevation" => Some("elev. (m a.s.l.)"),
        "areaTotal" => Some("area (km²)"),
        "number" => Some("no."),
        "position" => Some("pos."),
        "draftYear" => Some("yr."),
        "birthDate" => Some("d.o.b."),
        "releaseDate" => Some("rel. date"),
        _ => None,
    }
}

/// Label-column headers as scientific papers write them.
const SCIENTIFIC_LABEL_HEADERS: [&str; 4] = ["sample", "subject", "entity", "item"];

/// Footnote markers appended to some label cells.
const FOOTNOTE_MARKERS: [&str; 3] = ["*", "†", "‡"];

fn scientific_tables(world: &World, seed: ScenarioSeed) -> GeneratedCorpus {
    // Papers transcribe values carefully: fewer typos/wrong values, but
    // missing cells remain (dashes in the original print).
    let noise = NoiseConfig {
        label_typo_rate: 0.01,
        label_variant_rate: 0.05,
        missing_cell_rate: 0.15,
        wrong_value_rate: 0.02,
        noise_column_rate: 0.0, // scenario adds its own noise columns
    };
    let params = table_params(noise);
    let mut corpus = GeneratedCorpus::default();
    let mut next_id = 0u64;
    for class in CLASS_KEYS {
        let mut rng = seed.stream(&format!("scientific/{}", class.name()));
        for table_index in 0..TABLES_PER_CLASS {
            let n = rng.gen_range(MIN_ROWS..=MAX_ROWS);
            let selected = select_rows(world, class, n, 0.5, &mut rng);
            let published = pick_published(class, &mut rng);
            let (mut columns, mut truth) =
                build_table(world, class, &selected, &published, &params, &mut rng);

            // Scientific header dressing.
            for (ci, column) in columns.iter_mut().enumerate() {
                if ci == truth.label_column {
                    let base =
                        SCIENTIFIC_LABEL_HEADERS.choose(&mut rng).copied().unwrap_or("sample");
                    column.header = format!("{base} (Table {})", table_index + 1);
                    continue;
                }
                let Some(prop) = truth.column_property[ci] else { continue };
                if let Some(h) = scientific_header_for(prop) {
                    column.header = h.to_string();
                }
            }

            // Footnote daggers on a few labels.
            map_cells(&mut columns[truth.label_column], |_, cell| {
                if rng.gen::<f64>() < 0.25 {
                    let marker = FOOTNOTE_MARKERS.choose(&mut rng).copied().unwrap_or("*");
                    format!("{cell}{marker}")
                } else {
                    cell.to_string()
                }
            });

            // Noise columns a scientific table carries: sample size,
            // uncertainty, citation.
            let rows = truth.row_entity.len();
            let n_cells = (0..rows).map(|_| rng.gen_range(3..120u32).to_string()).collect();
            columns.push(Column { header: "n".into(), cells: n_cells });
            truth.column_property.push(None);
            if rng.gen::<f64>() < 0.5 {
                let refs = (0..rows).map(|_| format!("[{}]", rng.gen_range(1..40u32))).collect();
                columns.push(Column { header: "ref.".into(), cells: refs });
                truth.column_property.push(None);
            }
            push_table(&mut corpus, &mut next_id, columns, truth);
        }
    }
    corpus
}

// ── Scenario 3: novel-entity-heavy stream ───────────────────────────────

/// Share of rows drawn from the long tail (entities absent from the KB).
const NOVEL_TAIL_SHARE: f64 = 0.88;

fn novel_entity_stream(world: &World, seed: ScenarioSeed) -> GeneratedCorpus {
    let params = table_params(NoiseConfig::default());
    let mut corpus = GeneratedCorpus::default();
    let mut next_id = 0u64;
    for class in CLASS_KEYS {
        let mut rng = seed.stream(&format!("novel/{}", class.name()));
        for _ in 0..TABLES_PER_CLASS {
            let n = rng.gen_range(MIN_ROWS..=MAX_ROWS);
            let selected = select_rows(world, class, n, NOVEL_TAIL_SHARE, &mut rng);
            let published = pick_published(class, &mut rng);
            let (columns, truth) = build_table(world, class, &selected, &published, &params, &mut rng);
            push_table(&mut corpus, &mut next_id, columns, truth);
        }
    }
    corpus
}

/// Fraction of a corpus's rows describing entities that exist only in the
/// world (neither projected into the KB nor confusable). The novel-entity
/// scenario guarantees this exceeds 0.8.
pub fn novel_row_share(world: &World, corpus: &GeneratedCorpus) -> f64 {
    let mut novel = 0usize;
    let mut total = 0usize;
    for (_, truth) in corpus.annotated_tables() {
        for &e in &truth.row_entity {
            total += 1;
            if world.entity(e).is_some_and(|entity| !entity.in_kb && !entity.confusable) {
                novel += 1;
            }
        }
    }
    if total == 0 {
        0.0
    } else {
        novel as f64 / total as f64
    }
}

// ── Scenario 4: adversarial near-duplicate label flood ──────────────────

/// Qualifier suffixes shared across *different* entities, so the fuzzy
/// index sees token collisions on top of the edit-distance crowding.
const FLOOD_QUALIFIERS: [&str; 4] = ["(live)", "(remix)", "(v2)", "(alt)"];

fn near_duplicate_flood(world: &World, seed: ScenarioSeed) -> GeneratedCorpus {
    // Heavy label noise: almost every cell is a spelling variant.
    let noise = NoiseConfig {
        label_typo_rate: 0.85,
        label_variant_rate: 0.30,
        missing_cell_rate: 0.10,
        wrong_value_rate: 0.05,
        noise_column_rate: 0.10,
    };
    let params = table_params(noise);
    let mut corpus = GeneratedCorpus::default();
    let mut next_id = 0u64;
    for class in CLASS_KEYS {
        let mut rng = seed.stream(&format!("flood/{}", class.name()));
        // A small pool floods the index with dense variant clusters: each
        // entity recurs in many tables under ever-different 1–2-edit labels.
        let mut pool: Vec<EntityId> = world
            .entities_of_class(class)
            .iter()
            .map(|e| e.id)
            .collect();
        pool.shuffle(&mut rng);
        pool.truncate(MAX_ROWS * 2);
        for _ in 0..TABLES_PER_CLASS {
            let n = rng.gen_range(MIN_ROWS..=MAX_ROWS).min(pool.len());
            let mut picks = pool.clone();
            picks.shuffle(&mut rng);
            picks.truncate(n);
            let published = pick_published(class, &mut rng);
            let (mut columns, truth) =
                build_table(world, class, &picks, &published, &params, &mut rng);

            // Stack a second mutation and shared qualifiers on top of the
            // generator's typos: every label ends up a near-duplicate of
            // dozens of other cells across the flood.
            map_cells(&mut columns[truth.label_column], |_, cell| {
                let mut cell = cell.to_string();
                if rng.gen::<f64>() < 0.5 {
                    cell = apply_typo(&cell, &mut rng);
                }
                if rng.gen::<f64>() < 0.5 {
                    let q = FLOOD_QUALIFIERS.choose(&mut rng).copied().unwrap_or("(live)");
                    cell = format!("{cell} {q}");
                }
                cell
            });
            push_table(&mut corpus, &mut next_id, columns, truth);
        }
    }
    corpus
}

/// Rebuild a column's cells through `f`, row by row in order, so a
/// transform drawing from an RNG draws what it drew editing them in place.
fn map_cells(column: &mut Column, mut f: impl FnMut(usize, &str) -> String) {
    column.cells = column.cells.iter().enumerate().map(|(row, cell)| f(row, cell)).collect();
}

// ── Shared test fixture (formerly tests/common) ─────────────────────────

/// Append copies of the first `count` tables of a corpus, under fresh ids
/// and with their truth, after `decorate` rewrote each copy's label cells
/// (row index, cell).
fn append_decorated_copies(
    corpus: &mut GeneratedCorpus,
    count: usize,
    decorate: impl Fn(usize, &mut String),
) {
    let max_id = corpus.tables().iter().map(|t| t.id.raw()).max().unwrap_or(0);
    let templates: Vec<(WebTable, TableTruth)> =
        corpus.annotated_tables().take(count).map(|(t, truth)| (t.clone(), truth.clone())).collect();
    for (i, (mut table, truth)) in templates.into_iter().enumerate() {
        table.id = TableId(max_id + 1 + i as u64);
        map_cells(&mut table.columns[truth.label_column], |row, cell| {
            let mut cell = cell.to_string();
            decorate(row, &mut cell);
            cell
        });
        assert!(table.validate().is_ok(), "a decorated fixture table must stay consistent");
        corpus.push(table, truth);
    }
}

/// Append copies of the first few tables of a corpus whose labels carry
/// bracketed qualifiers and non-ASCII text, so the interned normalisation /
/// tokenisation / blocking paths are exercised on label shapes the plain
/// ASCII generator never produces — inside the tier-1 bit-identity proofs.
///
/// `qualifiers` are the three decorations applied round-robin per row:
/// a `(...)` suffix, a `[...]` suffix, and a non-ASCII prefix that should
/// include a multi-char lowercase expansion such as 'İ'.
pub fn with_exotic_labels(mut corpus: GeneratedCorpus, qualifiers: [&str; 3]) -> GeneratedCorpus {
    append_decorated_copies(&mut corpus, 3, |row, cell| {
        *cell = match row % 3 {
            0 => format!("{cell} {}", qualifiers[0]),
            1 => format!("{cell} {}", qualifiers[1]),
            _ => format!("{} {cell}", qualifiers[2]),
        };
    });
    corpus
}

/// Append copies of the first few tables of a corpus whose labels gain a
/// token longer than 64 characters (`stem` repeated past the limit), so
/// every layer that compares labels — blocking, clustering, fuzzy serving
/// — must handle tokens that overflow a single machine word of the
/// bit-parallel Levenshtein kernel, inside the tier-1 bit-identity proofs.
pub fn with_long_labels(mut corpus: GeneratedCorpus, stem: &str) -> GeneratedCorpus {
    assert!(!stem.is_empty(), "stem must be non-empty");
    let mut stretch = String::new();
    while stretch.chars().count() <= 64 {
        stretch.push_str(stem);
    }
    append_decorated_copies(&mut corpus, 2, |row, cell| match row % 3 {
        0 => *cell = format!("{cell} {stretch}"),
        1 => *cell = format!("{stretch} {cell}"),
        // Every third row keeps its original label so long and short
        // tokens compete inside one block.
        _ => {}
    });
    corpus
}

#[cfg(test)]
mod tests {
    use super::*;
    use ltee_kb::{generate_world, GeneratorConfig, Scale};
    use rand::RngCore;
    use std::collections::HashMap;

    fn tiny_world() -> World {
        generate_world(&GeneratorConfig::new(Scale::tiny(), 11))
    }

    #[test]
    fn scenario_seed_streams_are_keyed_and_stable() {
        let seed = ScenarioSeed::new(42);
        let a: Vec<u64> = {
            let mut rng = seed.stream("topic-a");
            (0..4).map(|_| rng.next_u64()).collect()
        };
        let a_again: Vec<u64> = {
            let mut rng = seed.stream("topic-a");
            (0..4).map(|_| rng.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut rng = seed.stream("topic-b");
            (0..4).map(|_| rng.next_u64()).collect()
        };
        assert_eq!(a, a_again, "same (seed, topic) must replay the same stream");
        assert_ne!(a, b, "different topics must draw independent streams");
        let other: Vec<u64> = {
            let mut rng = ScenarioSeed::new(43).stream("topic-a");
            (0..4).map(|_| rng.next_u64()).collect()
        };
        assert_ne!(a, other, "different seeds must draw independent streams");
    }

    #[test]
    fn every_scenario_is_deterministic_and_valid() {
        let world = tiny_world();
        for scenario in Scenario::ALL {
            let a = scenario.generate(&world, 7);
            let b = scenario.generate(&world, 7);
            assert_eq!(a.tables(), b.tables(), "{}: corpus must be a pure function of the seed", scenario.name());
            assert!(a.annotated_tables().eq(b.annotated_tables()), "{}: so must its truth", scenario.name());
            let other = scenario.generate(&world, 8);
            assert_ne!(a.tables(), other.tables(), "{}: different seeds must differ", scenario.name());
            assert_eq!(a.len(), TABLES_PER_CLASS * CLASS_KEYS.len());
            a.validate_truth().unwrap_or_else(|e| panic!("{}: {e}", scenario.name()));
            for table in a.tables() {
                table.validate().unwrap_or_else(|e| {
                    panic!("{}: invalid table {}: {e}", scenario.name(), table.id.raw())
                });
                assert!(table.num_columns() >= 2);
            }
        }
    }

    #[test]
    fn multilingual_scenario_contains_case_fold_labels_and_foreign_headers() {
        let world = tiny_world();
        let corpus = Scenario::MultilingualHeaders.generate(&world, 3);
        let mut has_dotted_i = false;
        let mut foreign_headers = 0usize;
        for (table, truth) in corpus.annotated_tables() {
            for cell in &table.columns[truth.label_column].cells {
                if cell.contains('İ') {
                    has_dotted_i = true;
                }
            }
            for (ci, column) in table.columns.iter().enumerate() {
                if let Some(prop) = truth.column_property[ci] {
                    if multilingual_headers_for(prop).contains(&column.header.as_str()) {
                        foreign_headers += 1;
                    }
                }
            }
        }
        assert!(has_dotted_i, "the multi-char case-fold 'İ' must appear in some label");
        assert!(foreign_headers >= 10, "only {foreign_headers} translated headers");
    }

    #[test]
    fn scientific_scenario_has_units_footnotes_and_noise_columns() {
        let world = tiny_world();
        let corpus = Scenario::ScientificTables.generate(&world, 3);
        let mut n_columns = 0usize;
        let mut footnoted = 0usize;
        let mut unit_headers = 0usize;
        for (table, truth) in corpus.annotated_tables() {
            for column in &table.columns {
                if column.header == "n" || column.header == "ref." {
                    n_columns += 1;
                }
                if column.header.contains('(') || column.header.contains('[') {
                    unit_headers += 1;
                }
            }
            for cell in &table.columns[truth.label_column].cells {
                if FOOTNOTE_MARKERS.iter().any(|m| cell.ends_with(m)) {
                    footnoted += 1;
                }
            }
        }
        assert!(n_columns >= corpus.len(), "every table carries at least the sample-size column");
        assert!(footnoted > 0, "some labels must carry footnote daggers");
        assert!(unit_headers > 0, "some headers must carry units");
    }

    #[test]
    fn novel_scenario_rows_mostly_miss_the_kb() {
        let world = tiny_world();
        let corpus = Scenario::NovelEntityStream.generate(&world, 3);
        let share = novel_row_share(&world, &corpus);
        assert!(share > 0.8, "novel row share {share:.2} must exceed 0.8");
        // Contrast: the base generator sits far below the novel stream.
        let base = crate::generator::generate_corpus(&world, &CorpusConfig::tiny());
        assert!(novel_row_share(&world, &base) < share);
    }

    #[test]
    fn flood_scenario_produces_dense_near_duplicate_label_space() {
        let world = tiny_world();
        let corpus = Scenario::NearDuplicateFlood.generate(&world, 3);
        // Count distinct label strings per entity: the flood must spread
        // each recurring entity over several distinct variants.
        let mut variants: HashMap<EntityId, std::collections::HashSet<String>> = HashMap::new();
        for (table, truth) in corpus.annotated_tables() {
            for (ri, cell) in table.columns[truth.label_column].cells.iter().enumerate() {
                variants.entry(truth.row_entity[ri]).or_default().insert(cell.to_string());
            }
        }
        let multi_variant = variants.values().filter(|v| v.len() >= 3).count();
        assert!(
            multi_variant >= 5,
            "only {multi_variant} entities with >= 3 label variants — flood too tame"
        );
        let qualified = corpus
            .annotated_tables()
            .flat_map(|(t, truth)| t.columns[truth.label_column].cells.iter())
            .filter(|c| FLOOD_QUALIFIERS.iter().any(|q| c.contains(q)))
            .count();
        assert!(qualified > 20, "only {qualified} qualifier-decorated labels");
    }

    #[test]
    fn with_exotic_labels_appends_decorated_copies() {
        let world = tiny_world();
        let base = crate::generator::generate_corpus(&world, &CorpusConfig::tiny());
        let before = base.len();
        let corpus = with_exotic_labels(base, ["(Live)", "[Zürich]", "\u{130}zmir"]);
        assert_eq!(corpus.len(), before + 3);
        corpus.validate_truth().expect("each copy carries its template's truth");
        for (table, truth) in corpus.annotated_tables().skip(before) {
            assert!(table.columns[truth.label_column]
                .cells
                .iter()
                .any(|c| c.contains("(Live)") || c.contains("[Zürich]") || c.contains('\u{130}')));
        }
    }
}
