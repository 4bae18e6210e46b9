//! The runnable example scenarios, as library functions.
//!
//! Each function is the body of one `examples/*.rs` binary, writing to a
//! caller-supplied sink instead of straight to stdout. The split exists
//! for the golden-snapshot tests (`tests/golden_examples.rs`): the
//! examples' output is deterministic (fixed seeds, bit-identical pipeline
//! at every thread count), so the tests capture each function's output
//! into a byte buffer and assert byte-equality against the fixtures under
//! `tests/golden/` — any pipeline-output regression surfaces in tier-1,
//! not just when a human happens to re-run an example.

use std::io::{self, Write};
use std::time::Instant;

use ltee_core::experiments::{
    DensityRow, Table10Row, Table11Row, Table1Row, Table4Row, Table5Row, Table6Row, Table7Row,
    Table8Row, Table9Row,
};
use ltee_core::prelude::*;
use ltee_eval::{evaluate_facts, evaluate_new_instances};
use ltee_fusion::{create_entities, EntityCreationConfig};
use ltee_matching::{match_corpus, MatcherWeights};
use ltee_serve::ServePipeline;

use crate::scenario::{novel_row_share, Scenario, TrainedWorld};

/// Body of `examples/quickstart.rs`: generate a synthetic world + corpus,
/// train the models, run the two-iteration pipeline, print what was added.
pub fn quickstart(w: &mut dyn Write) -> io::Result<()> {
    // 1.–3. A synthetic cross-domain knowledge base (DBpedia stand-in), a
    //    web table corpus describing head *and* long-tail entities, gold
    //    standards derived from the generator's ground truth, and the
    //    trained models — the shared scenario setup.
    let trained = TrainedWorld::train(7);
    writeln!(
        w,
        "corpus: {} tables, {} rows — knowledge base: {} instances",
        trained.corpus.len(),
        trained.corpus.total_rows(),
        trained.world.kb().instances().len()
    )?;

    // 4. Run the pipeline: schema matching → row clustering → entity
    //    creation → new detection, twice (the second iteration refines the
    //    schema mapping with the first iteration's output).
    let output = trained.run_batch();

    for class_output in &output.classes {
        let new = class_output.new_entities();
        let existing = class_output.existing_entities();
        writeln!(
            w,
            "\n{}: {} clusters -> {} new entities, {} linked to existing instances",
            class_output.class,
            class_output.clusters.len(),
            new.len(),
            existing.len()
        )?;
        for entity in new.iter().take(3) {
            writeln!(
                w,
                "  new entity `{}` with {} facts:",
                entity.canonical_label(),
                entity.fact_count()
            )?;
            for (prop, value, _) in entity.facts.iter().take(4) {
                writeln!(w, "    {prop} = {value}")?;
            }
        }
    }
    Ok(())
}

/// Body of `examples/football_players.rs`: the paper's motivating
/// Agent-branch class, evaluated against the gold standard.
pub fn football_players(w: &mut dyn Write) -> io::Result<()> {
    let trained = TrainedWorld::train(21);
    let output = trained.run_batch();

    let class = ClassKey::GridironFootballPlayer;
    let class_output = output.class(class).expect("football player tables present");
    let gold = trained.gold(class);

    // New instances found (paper Table 9 style).
    let outcomes = class_output.outcomes();
    let instances_eval = evaluate_new_instances(&class_output.entities, &outcomes, gold);
    writeln!(
        w,
        "new football players: P={:.2} R={:.2} F1={:.2} ({} returned, {} in gold)",
        instances_eval.precision,
        instances_eval.recall,
        instances_eval.f1,
        instances_eval.returned_new,
        instances_eval.gold_new
    )?;

    // Facts found (paper Table 10 style).
    let facts_eval = evaluate_facts(&class_output.entities, &outcomes, gold, trained.world.kb(), class);
    writeln!(
        w,
        "facts of new players: P={:.2} R={:.2} F1={:.2} ({} facts returned)",
        facts_eval.precision, facts_eval.recall, facts_eval.f1, facts_eval.returned_facts
    )?;

    // Property densities of the new players (paper Table 12 style).
    let new_entities = class_output.new_entities();
    let mut counts: std::collections::BTreeMap<&str, usize> = std::collections::BTreeMap::new();
    for entity in &new_entities {
        for &(prop, _, _) in &entity.facts {
            *counts.entry(prop).or_insert(0) += 1;
        }
    }
    writeln!(w, "\nproperty densities of the {} new players:", new_entities.len())?;
    let mut rows: Vec<(&str, usize)> = counts.into_iter().collect();
    rows.sort_by_key(|(_, c)| std::cmp::Reverse(*c));
    for (prop, count) in rows {
        let density = count as f64 / new_entities.len().max(1) as f64;
        writeln!(w, "  {prop:<16} {count:>4} facts  ({:.0} %)", density * 100.0)?;
    }
    Ok(())
}

/// Body of `examples/settlement_gazetteer.rs`: the large-scale profiling
/// experiment (paper Tables 11 & 12) at a small scale.
pub fn settlement_gazetteer(w: &mut dyn Write) -> io::Result<()> {
    let trained = TrainedWorld::new(&ExperimentConfig::tiny(), PipelineConfig::fast());
    let result = experiments::table11_12_profiling(&trained, &trained.run_batch());

    writeln!(w, "large-scale profiling (Table 11 shape):")?;
    writeln!(
        w,
        "{:<12} {:>8} {:>9} {:>9} {:>7} {:>8} {:>7} {:>7}",
        "class", "rows", "existing", "matched", "new", "n.facts", "e.acc", "f.acc"
    )?;
    for row in &result.table11 {
        writeln!(
            w,
            "{:<12} {:>8} {:>9} {:>9} {:>7} {:>8} {:>7.2} {:>7.2}",
            row.class,
            row.total_rows,
            row.existing_entities,
            row.matched_kb_instances,
            row.new_entities,
            row.new_facts,
            row.new_entity_accuracy,
            row.new_fact_accuracy
        )?;
    }

    writeln!(w, "\nproperty densities of new settlements (Table 12 shape):")?;
    for row in result.table12.iter().filter(|r| r.class == "Settlement") {
        writeln!(
            w,
            "  {:<18} {:>5} facts  ({:.0} %)",
            row.property,
            row.facts,
            row.density * 100.0
        )?;
    }

    // The paper's headline observation: settlements barely grow, songs grow a
    // lot. Print the relative increases so the contrast is visible.
    writeln!(w, "\nrelative knowledge base growth by class:")?;
    for row in &result.table11 {
        writeln!(
            w,
            "  {:<12} +{:.1} % instances, +{:.1} % facts",
            row.class,
            row.instance_increase * 100.0,
            row.fact_increase * 100.0
        )?;
    }
    Ok(())
}

/// Body of `examples/song_discography.rs`: the homonym-heavy Song class,
/// contrasting the three fusion scoring methods.
pub fn song_discography(w: &mut dyn Write) -> io::Result<()> {
    let trained = TrainedWorld::train(33);
    let output = trained.run_batch();

    let class = ClassKey::Song;
    let class_output = output.class(class).expect("song tables present");
    let gold = trained.gold(class);

    // Homonym pressure in the gold standard.
    let mut label_counts: std::collections::HashMap<u64, usize> = std::collections::HashMap::new();
    for cluster in &gold.clusters {
        *label_counts.entry(cluster.homonym_group).or_insert(0) += 1;
    }
    let homonym_clusters = label_counts.values().filter(|&&c| c > 1).count();
    writeln!(
        w,
        "gold standard: {} song clusters, {} homonym groups with more than one cluster",
        gold.clusters.len(),
        homonym_clusters
    )?;

    // Compare the fusion scoring methods on the system's clusters.
    let outcomes = class_output.outcomes();
    writeln!(w, "\nfacts-found F1 by fusion scoring method (system clustering):")?;
    for method in ScoringMethod::ALL {
        let fusion = EntityCreationConfig { scoring: method };
        let entities = create_entities(
            &class_output.clusters,
            &trained.corpus,
            &output.mapping,
            trained.world.kb(),
            class,
            &fusion,
        );
        let eval = evaluate_facts(&entities, &outcomes, gold, trained.world.kb(), class);
        writeln!(
            w,
            "  {:<9} P={:.2} R={:.2} F1={:.2}",
            method.name(),
            eval.precision,
            eval.recall,
            eval.f1
        )?;
    }

    // Show a few new songs with their fused descriptions.
    writeln!(w, "\nsample of new songs:")?;
    for entity in class_output.new_entities().iter().take(5) {
        let artist =
            entity.fact("musicalArtist").map(|v| v.to_string()).unwrap_or_else(|| "?".into());
        let runtime = entity.fact("runtime").map(|v| v.to_string()).unwrap_or_else(|| "?".into());
        writeln!(
            w,
            "  `{}` by {} ({} s) — {} supporting rows",
            entity.canonical_label(),
            artist,
            runtime,
            entity.row_count()
        )?;
    }
    Ok(())
}

/// Shared tail of the four scenario examples: ingest the scenario corpus
/// into a fresh serve pipeline in `batches` micro-batches, printing one
/// line per published version, and return the serving pipeline.
fn serve_scenario<'a>(
    w: &mut dyn Write,
    trained: &'a TrainedWorld,
    corpus: &Corpus,
    batches: usize,
) -> io::Result<ServePipeline<'a>> {
    let mut serving = ServePipeline::new(trained.world.kb(), trained.models.clone(), trained.config.clone());
    for batch in corpus.split_into_batches(batches) {
        let report = serving.ingest(&batch).expect("fresh table ids");
        writeln!(
            w,
            "  v{}: +{} tables, +{} rows ({} mapped), {} new clusters",
            serving.version(),
            report.tables,
            report.rows,
            report.mapped_rows,
            report.new_clusters
        )?;
    }
    Ok(serving)
}

/// Per-class serving stats, one line per class, in snapshot order.
fn write_class_stats(w: &mut dyn Write, snap: &ltee_serve::KbSnapshot) -> io::Result<()> {
    for class in snap.stats().classes {
        writeln!(
            w,
            "  {:<12} {:>3} entities ({} new, {} linked) from {} rows",
            class.class.to_string(),
            class.entities,
            class.new_entities,
            class.linked_entities,
            class.rows
        )?;
    }
    Ok(())
}

/// The label cells of a corpus's first table, by its ground truth.
fn first_table_labels(corpus: &GeneratedCorpus) -> Option<&ltee_intern::StrList> {
    let (table, truth) = corpus.annotated_tables().next()?;
    Some(&table.columns[truth.label_column].cells)
}

/// Body of `examples/multilingual_headers.rs`: the messy-multilingual-header
/// scenario, served end to end, with a multi-char case-fold lookup demo.
pub fn multilingual_headers(w: &mut dyn Write) -> io::Result<()> {
    let scenario = Scenario::MultilingualHeaders;
    let trained = TrainedWorld::train(45);
    let corpus = scenario.generate(&trained.world, 45);
    writeln!(w, "scenario `{}`: {}", scenario.name(), scenario.description())?;
    writeln!(w, "corpus: {} tables, {} rows", corpus.len(), corpus.total_rows())?;

    // The headers the schema matcher has to survive.
    writeln!(w, "\nsample headers per class:")?;
    for class in CLASS_KEYS {
        if let Some(table) = corpus.tables_of_class(class).first() {
            let headers: Vec<&str> = table.columns.iter().map(|c| c.header.as_str()).collect();
            writeln!(w, "  {:<12} {}", class.to_string(), headers.join(" | "))?;
        }
    }

    writeln!(w, "\ningesting in 3 micro-batches:")?;
    let serving = serve_scenario(w, &trained, &corpus, 3)?;
    let snap = serving.snapshot();
    writeln!(w, "\nserved at v{}:", snap.version())?;
    write_class_stats(w, &snap)?;

    // Multi-char case folding: a served label decorated with a dotted
    // capital I ('İ', which lowercases to TWO chars: 'i' + U+0307) must be
    // findable through the normalising exact index.
    let decorated = snap
        .classes()
        .flat_map(|c| c.records().iter())
        .flat_map(|r| r.labels.iter())
        .find(|l| l.contains('İ'));
    if let Some(label) = decorated {
        writeln!(w, "\ncase-fold check on served label `{label}`:")?;
        for probe in [label.clone(), label.to_lowercase(), label.to_uppercase()] {
            let hits = snap.exact_lookup(None, &probe);
            writeln!(w, "  exact_lookup({probe:?}) -> {} hit(s)", hits.len())?;
        }
    }
    Ok(())
}

/// Body of `examples/scientific_tables.rs`: scientific-paper-style tables
/// with unit-annotated headers, footnote markers and sample-size columns.
pub fn scientific_tables(w: &mut dyn Write) -> io::Result<()> {
    let scenario = Scenario::ScientificTables;
    let trained = TrainedWorld::train(46);
    let corpus = scenario.generate(&trained.world, 46);
    writeln!(w, "scenario `{}`: {}", scenario.name(), scenario.description())?;
    writeln!(w, "corpus: {} tables, {} rows", corpus.len(), corpus.total_rows())?;

    writeln!(w, "\nsample headers per class:")?;
    for class in CLASS_KEYS {
        if let Some(table) = corpus.tables_of_class(class).first() {
            let headers: Vec<&str> = table.columns.iter().map(|c| c.header.as_str()).collect();
            writeln!(w, "  {:<12} {}", class.to_string(), headers.join(" | "))?;
        }
    }

    // A few raw label cells, footnote markers and all.
    writeln!(w, "\nsample label cells of the first table:")?;
    if let Some(labels) = first_table_labels(&corpus) {
        for label in labels.iter().take(4) {
            writeln!(w, "  {label:?}")?;
        }
    }

    writeln!(w, "\ningesting in 3 micro-batches:")?;
    let serving = serve_scenario(w, &trained, &corpus, 3)?;
    let snap = serving.snapshot();
    writeln!(w, "\nserved at v{}:", snap.version())?;
    write_class_stats(w, &snap)?;
    Ok(())
}

/// Body of `examples/novel_entity_stream.rs`: a stream where more than 80 %
/// of the rows describe entities absent from the knowledge base.
pub fn novel_entity_stream(w: &mut dyn Write) -> io::Result<()> {
    let scenario = Scenario::NovelEntityStream;
    let trained = TrainedWorld::train(47);
    let corpus = scenario.generate(&trained.world, 47);
    let share = novel_row_share(&trained.world, &corpus);
    writeln!(w, "scenario `{}`: {}", scenario.name(), scenario.description())?;
    writeln!(
        w,
        "corpus: {} tables, {} rows — {:.1} % of rows match no KB instance",
        corpus.len(),
        corpus.total_rows(),
        share * 100.0
    )?;

    writeln!(w, "\ningesting in 4 micro-batches:")?;
    let serving = serve_scenario(w, &trained, &corpus, 4)?;
    let snap = serving.snapshot();
    writeln!(w, "\nserved at v{}:", snap.version())?;
    write_class_stats(w, &snap)?;

    // The defining ratio of the scenario: new entities should dominate.
    let stats = snap.stats();
    let entities: usize = stats.classes.iter().map(|c| c.entities).sum();
    let new: usize = stats.classes.iter().map(|c| c.new_entities).sum();
    writeln!(
        w,
        "\n{} of {} served entities ({:.1} %) are KB extensions",
        new,
        entities,
        new as f64 / entities.max(1) as f64 * 100.0
    )?;
    Ok(())
}

/// Body of `examples/near_duplicate_flood.rs`: an adversarial flood of
/// near-duplicate labels stress-testing fuzzy matching and clustering.
pub fn near_duplicate_flood(w: &mut dyn Write) -> io::Result<()> {
    let scenario = Scenario::NearDuplicateFlood;
    let trained = TrainedWorld::train(48);
    let corpus = scenario.generate(&trained.world, 48);
    writeln!(w, "scenario `{}`: {}", scenario.name(), scenario.description())?;
    writeln!(w, "corpus: {} tables, {} rows", corpus.len(), corpus.total_rows())?;

    // The flood as the clustering sees it: raw label variants of one table.
    writeln!(w, "\nlabel variants in the first table:")?;
    if let Some(labels) = first_table_labels(&corpus) {
        for label in labels.iter().take(6) {
            writeln!(w, "  {label:?}")?;
        }
    }

    writeln!(w, "\ningesting in 3 micro-batches:")?;
    let serving = serve_scenario(w, &trained, &corpus, 3)?;
    let snap = serving.snapshot();
    writeln!(w, "\nserved at v{}:", snap.version())?;
    write_class_stats(w, &snap)?;

    // Fuzzy lookup against the flood: probe with a mangled copy of a
    // served label and show the ranked candidates.
    let probe = snap
        .classes()
        .flat_map(|c| c.records().iter())
        .map(|r| r.canonical_label())
        .find(|l| l.chars().count() > 4)
        .map(|l| {
            let mut chars: Vec<char> = l.chars().collect();
            chars.remove(1);
            chars.into_iter().collect::<String>()
        });
    if let Some(probe) = probe {
        writeln!(w, "\nfuzzy_lookup({probe:?}, k=5):")?;
        for hit in snap.fuzzy_lookup(None, &probe, 5) {
            writeln!(w, "  {:.3}  `{}`", hit.score, hit.label)?;
        }
    }
    Ok(())
}

/// Run `compute` and report its wall-clock seconds under `label` on
/// `timings`.
fn timed<T>(timings: &mut dyn Write, label: &str, compute: impl FnOnce() -> T) -> io::Result<T> {
    let start = Instant::now();
    let value = compute();
    writeln!(timings, "{label}: {:.3} s", start.elapsed().as_secs_f64())?;
    Ok(value)
}

/// Body of `examples/paper_tables.rs`: regenerate paper Tables 1–12 and the
/// Section 6 ranked evaluation on [`ExperimentConfig::tiny`]. The world,
/// gold standards and models are built once, the batch pipeline runs once,
/// and every table is a view over them. The tables go to `w` (deterministic,
/// like every other example body); each step's elapsed seconds go to
/// `timings`, which is the repository's reading of the batch `match_corpus`
/// / `Pipeline::run` cost.
pub fn paper_tables(w: &mut dyn Write, timings: &mut dyn Write) -> io::Result<()> {
    let trained = timed(timings, "world, gold and training", || {
        TrainedWorld::new(&ExperimentConfig::tiny(), PipelineConfig::fast())
    })?;
    let (world, corpus) = (&trained.world, &trained.corpus);

    let t1 = timed(timings, "table 1", || experiments::table01_kb_profile(world))?;
    writeln!(w, "{}", format_table1(&t1))?;
    let t2 = timed(timings, "table 2", || experiments::table02_property_density(world))?;
    writeln!(w, "{}", format_density("Table 2", &t2))?;
    let t3 = timed(timings, "table 3", || experiments::table03_corpus_stats(corpus))?;
    writeln!(
        w,
        "Table 3 — rows avg {:.2} / median {} / min {} / max {}; columns avg {:.2} / median {} / min {} / max {}\n",
        t3.rows.average, t3.rows.median, t3.rows.min, t3.rows.max,
        t3.columns.average, t3.columns.median, t3.columns.min, t3.columns.max
    )?;
    let mapping = timed(timings, "match_corpus (first iteration)", || {
        match_corpus(corpus, world.kb(), &MatcherWeights::default(), &trained.config.schema, None)
    })?;
    let t4 = timed(timings, "table 4", || experiments::table04_value_correspondences(corpus, &mapping))?;
    writeln!(w, "{}", format_table4(&t4))?;
    let t5 = timed(timings, "table 5", || experiments::table05_gold_standard(world, corpus))?;
    writeln!(w, "{}", format_table5(&t5))?;

    // Two iterations, as in the paper's conclusion that a third adds almost
    // nothing.
    let t6 = timed(timings, "table 6", || experiments::table06_schema_matching_iterations(&trained, 2))?;
    writeln!(w, "{}", format_table6(&t6))?;

    let t7 = timed(timings, "table 7", || experiments::table07_row_clustering_ablation(&trained, &mapping))?;
    writeln!(w, "{}", format_table7(&t7))?;
    let t8 = timed(timings, "table 8", || experiments::table08_new_detection_ablation(&trained, &mapping))?;
    writeln!(w, "{}", format_table8(&t8))?;

    let output = timed(timings, "batch run (two iterations)", || trained.run_batch())?;
    let (t9, t10) = timed(timings, "tables 9-10", || experiments::table09_10_end_to_end(&trained, &output))?;
    writeln!(w, "{}", format_table9(&t9))?;
    writeln!(w, "{}", format_table10(&t10))?;
    let profiling = timed(timings, "tables 11-12", || experiments::table11_12_profiling(&trained, &output))?;
    writeln!(w, "{}", format_table11(&profiling.table11))?;
    writeln!(w, "{}", format_density("Table 12", &profiling.table12))?;
    let ranked = timed(timings, "section 6", || experiments::ranked_set_expansion_eval(&trained, &output))?;
    writeln!(
        w,
        "Section 6 ranked evaluation — MAP@{}: {:.2}, P@5: {:.2}, P@20: {:.2}\n",
        ranked.cutoff, ranked.map, ranked.p_at_5, ranked.p_at_20
    )?;
    Ok(())
}

/// Format Table 1 rows.
fn format_table1(rows: &[Table1Row]) -> String {
    let mut out = String::from("Table 1 — class, instances, facts\n");
    for r in rows {
        out.push_str(&format!("  {:<12} {:>8} {:>8}\n", r.class, r.instances, r.facts));
    }
    out
}

/// Format density rows (Tables 2 and 12).
fn format_density(title: &str, rows: &[DensityRow]) -> String {
    let mut out = format!("{title} — class, property, facts, density\n");
    for r in rows {
        out.push_str(&format!(
            "  {:<12} {:<18} {:>7} {:>7.2} %\n",
            r.class,
            r.property,
            r.facts,
            r.density * 100.0
        ));
    }
    out
}

/// Format Table 4 rows.
fn format_table4(rows: &[Table4Row]) -> String {
    let mut out = String::from("Table 4 — class, tables, matched values, unmatched values\n");
    for r in rows {
        out.push_str(&format!(
            "  {:<12} {:>6} {:>10} {:>10}\n",
            r.class, r.tables, r.matched_values, r.unmatched_values
        ));
    }
    out
}

/// Format Table 5 rows.
fn format_table5(rows: &[Table5Row]) -> String {
    let mut out =
        String::from("Table 5 — class, tables, attributes, rows, existing, new, values, groups, correct-present\n");
    for r in rows {
        let s = &r.stats;
        out.push_str(&format!(
            "  {:<12} {:>5} {:>6} {:>6} {:>5} {:>5} {:>7} {:>6} {:>6}\n",
            r.class,
            s.tables,
            s.attributes,
            s.rows,
            s.existing_clusters,
            s.new_clusters,
            s.matched_values,
            s.value_groups,
            s.correct_value_present
        ));
    }
    out
}

/// Format Table 6 rows.
fn format_table6(rows: &[Table6Row]) -> String {
    let mut out = String::from("Table 6 — iteration, P, R, F1\n");
    for r in rows {
        out.push_str(&format!(
            "  {:<4} {:>6.3} {:>6.3} {:>6.3}\n",
            r.iteration, r.precision, r.recall, r.f1
        ));
    }
    out
}

/// Format Table 7 rows.
fn format_table7(rows: &[Table7Row]) -> String {
    let mut out = String::from("Table 7 — + metric, PCP, AR, F1, MI\n");
    for r in rows {
        out.push_str(&format!(
            "  + {:<13} {:>5.2} {:>5.2} {:>5.2} {:>5.2}\n",
            r.added_metric, r.pcp, r.ar, r.f1, r.importance
        ));
    }
    out
}

/// Format Table 8 rows.
fn format_table8(rows: &[Table8Row]) -> String {
    let mut out = String::from("Table 8 — + metric, ACC, F1-existing, F1-new, MI\n");
    for r in rows {
        out.push_str(&format!(
            "  + {:<13} {:>5.2} {:>5.2} {:>5.2} {:>5.2}\n",
            r.added_metric, r.accuracy, r.f1_existing, r.f1_new, r.importance
        ));
    }
    out
}

/// Format Table 9 rows.
fn format_table9(rows: &[Table9Row]) -> String {
    let mut out = String::from("Table 9 — class, clustering, P, R, F1\n");
    for r in rows {
        out.push_str(&format!(
            "  {:<12} {:<4} {:>5.2} {:>5.2} {:>5.2}\n",
            r.class, r.clustering, r.precision, r.recall, r.f1
        ));
    }
    out
}

/// Format Table 10 rows.
fn format_table10(rows: &[Table10Row]) -> String {
    let mut out = String::from("Table 10 — class, setting, F1 VOTING, F1 KBT, F1 MATCHING\n");
    for r in rows {
        out.push_str(&format!(
            "  {:<12} {:<8} {:>5.2} {:>5.2} {:>5.2}\n",
            r.class, r.setting, r.f1_voting, r.f1_kbt, r.f1_matching
        ));
    }
    out
}

/// Format Table 11 rows.
fn format_table11(rows: &[Table11Row]) -> String {
    let mut out = String::from(
        "Table 11 — class, rows, existing, matched KB, new entities, new facts, +inst %, +facts %, e.acc, f.acc\n",
    );
    for r in rows {
        out.push_str(&format!(
            "  {:<12} {:>7} {:>8} {:>8} {:>7} {:>8} {:>7.1} {:>7.1} {:>5.2} {:>5.2}\n",
            r.class,
            r.total_rows,
            r.existing_entities,
            r.matched_kb_instances,
            r.new_entities,
            r.new_facts,
            r.instance_increase * 100.0,
            r.fact_increase * 100.0,
            r.new_entity_accuracy,
            r.new_fact_accuracy
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formatting_smoke_test() {
        let world = generate_world(&GeneratorConfig::new(Scale::tiny(), 2019));
        let corpus = generate_corpus(&world, &CorpusConfig::tiny());
        let t1 = experiments::table01_kb_profile(&world);
        assert!(format_table1(&t1).contains("GF-Player"));
        let t2 = experiments::table02_property_density(&world);
        assert!(format_density("Table 2", &t2).lines().count() > 20);
        let t5 = experiments::table05_gold_standard(&world, &corpus);
        assert!(format_table5(&t5).contains("Song"));
    }
}
