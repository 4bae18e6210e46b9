//! The test reference for everything schema matching reads from the
//! knowledge base's memo: per-class label indexes rebuilt from the
//! instances, and KB-Overlap as the raw scan it used to be — collect the
//! property's values from every instance's facts, keep the first
//! [`KB_OVERLAP_SAMPLE`], and run [`value_equivalent`] against each of them
//! per cell. Whole `match_corpus` / `learn_weights` passes over the
//! memoised data must equal the same passes over this.

use ltee_index::LabelIndex;
use ltee_kb::{
    generate_world, ClassKey, GeneratorConfig, InstanceId, KnowledgeBase, Property, Scale, World, CLASS_KEYS,
    KB_OVERLAP_SAMPLE,
};
use ltee_ml::GeneticConfig;
use ltee_types::{parse_cell_as, value_equivalent, EquivalenceConfig, Value};
use ltee_webtables::{generate_corpus, Corpus, CorpusConfig, GoldStandard, Scenario, WebTable};

use crate::attribute::learn_weights_with;
use crate::class_match::{match_table_class, RowLookups};
use crate::{
    learn_weights, match_corpus, match_corpus_and_candidates, match_corpus_with, MatcherWeights,
    SchemaMatchingConfig,
};

fn fresh_class_indexes(kb: &KnowledgeBase) -> Vec<(ClassKey, LabelIndex)> {
    let labels_of = |class| {
        let of_class = kb.instances().iter().filter(move |i| i.class == class);
        of_class.flat_map(|i| i.labels.iter().map(|label| (i.id.raw(), label)))
    };
    CLASS_KEYS.iter().map(|&class| (class, LabelIndex::build(labels_of(class)))).collect()
}

fn kb_overlap_scan(table: &WebTable, column: usize, property: &Property, kb: &KnowledgeBase) -> f64 {
    let eq = EquivalenceConfig::default();
    let sample: Vec<&Value> = kb
        .instances()
        .iter()
        .flat_map(|i| i.facts.iter())
        .filter(|f| f.property == property.id)
        .map(|f| &f.value)
        .take(KB_OVERLAP_SAMPLE)
        .collect();
    let cells = table.columns[column].cells.iter().filter(|cell| !cell.trim().is_empty());
    let (mut total, mut hits) = (0usize, 0usize);
    for cell in cells {
        total += 1;
        if let Some(value) = parse_cell_as(cell, property.data_type) {
            if sample.iter().any(|kv| value_equivalent(&value, kv, property.data_type, &eq)) {
                hits += 1;
            }
        }
    }
    if total == 0 {
        0.0
    } else {
        hits as f64 / total as f64
    }
}

/// Learn weights and match the corpus both ways, at 1 and at 4 threads.
fn assert_memo_equals_reference(world: &World, corpus: &Corpus) {
    let kb = world.kb();
    let golds: Vec<GoldStandard> =
        CLASS_KEYS.iter().map(|&c| GoldStandard::build(world, corpus, c)).collect();
    let golds: Vec<&GoldStandard> = golds.iter().collect();
    let genetic = GeneticConfig { population: 12, generations: 6, ..Default::default() };
    let config = SchemaMatchingConfig::default();
    let fresh = fresh_class_indexes(kb);

    for threads in [1, 4] {
        rayon::ThreadPoolBuilder::new().num_threads(threads).build_global().unwrap();

        let learned = learn_weights(corpus, kb, &golds, None, &genetic);
        let reference = learn_weights_with(corpus, kb, &golds, None, &genetic, kb_overlap_scan);
        assert_eq!(learned, reference, "learn_weights at {threads} threads");
        assert!(!learned.property_thresholds.is_empty());

        for weights in [&learned, &MatcherWeights::default()] {
            let mapping = match_corpus(corpus, kb, weights, &config, None);
            let (reference, _) =
                match_corpus_with(corpus, kb, weights, &config, None, &fresh, kb_overlap_scan);
            let mut matched_columns = 0;
            for table in corpus.tables() {
                let tm = mapping.table(table.id).expect("every table is mapped");
                assert_eq!(Some(tm), reference.table(table.id), "at {threads} threads");
                matched_columns += tm.matched_count();
            }
            assert_eq!(mapping.len(), reference.len());
            assert!(matched_columns > 0, "the comparison must not be vacuous");
        }
        assert_shared_lookups_equal_per_row_lookups(kb, corpus);
    }
}

/// One lookup per distinct (class, normalised label) decides every table
/// exactly as one lookup per row did, and the candidates kept beside the
/// mapping are the winning class's per-row lookups.
fn assert_shared_lookups_equal_per_row_lookups(kb: &KnowledgeBase, corpus: &Corpus) {
    let class_indexes = kb.class_label_indexes();
    let (weights, config) = (MatcherWeights::default(), SchemaMatchingConfig::default());
    let (mapping, candidates) = match_corpus_and_candidates(corpus, kb, &weights, &config, None);
    let tables: Vec<(&WebTable, usize)> = corpus
        .tables()
        .iter()
        .map(|table| (table, mapping.table(table.id).expect("every table is mapped").label_column))
        .collect();
    let (slots, lookups) = RowLookups::run_per_row(&tables, class_indexes);
    let (mut distinct, mut labelled) = (std::collections::HashSet::new(), 0);
    for ((table, label_column), slots) in tables.iter().zip(&slots) {
        let tm = mapping.table(table.id).expect("every table is mapped");
        let detected = &tm.detected_types;
        let (winner, score) =
            match_table_class(table, *label_column, detected, kb, class_indexes, slots, &lookups);
        assert_eq!(winner.map(|c| class_indexes[c].0), tm.class, "table {}", table.id.raw());
        assert_eq!(score.to_bits(), tm.class_score.to_bits(), "table {}", table.id.raw());
        let expected: Option<Vec<Vec<InstanceId>>> = winner.map(|class| {
            slots
                .iter()
                .map(|slot| match slot {
                    Some(slot) => lookups.get(*slot, class).iter().map(|m| InstanceId(m.id)).collect(),
                    None => Vec::new(),
                })
                .collect()
        });
        assert_eq!(candidates.of_table(table.id), expected.as_deref(), "table {}", table.id.raw());
        for row in 0..table.num_rows() {
            if let Some(cell) = table.cell(row, *label_column) {
                labelled += 1;
                distinct.insert(ltee_text::normalize_label(&ltee_text::clean_label(cell)));
            }
        }
    }
    assert!(distinct.len() < labelled, "the fixture must repeat a label for sharing to be exercised");
}

#[test]
fn memoised_matching_equals_the_reference_on_the_tiny_corpus() {
    let world = generate_world(&GeneratorConfig::new(Scale::tiny(), 17));
    let corpus = generate_corpus(&world, &CorpusConfig::tiny());
    assert_memo_equals_reference(&world, &corpus);
}

#[test]
fn memoised_matching_equals_the_reference_on_a_scenario_corpus() {
    let world = generate_world(&GeneratorConfig::new(Scale::tiny(), 23));
    let corpus = Scenario::ScientificTables.generate(&world, 5);
    assert_memo_equals_reference(&world, &corpus);
}
