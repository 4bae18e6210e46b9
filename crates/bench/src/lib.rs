//! # ltee-bench
//!
//! The benchmark harness. Each Criterion bench target regenerates one or
//! more of the paper's evaluation tables (printing the rows it produces) and
//! measures the runtime of the underlying computation:
//!
//! | Bench target          | Paper tables |
//! |-----------------------|--------------|
//! | `profile_tables`      | Tables 1–5 (KB profile, corpus stats, matched values, gold standard) |
//! | `schema_matching`     | Table 6 (attribute-to-property matching by iteration) |
//! | `component_ablations` | Tables 7 & 8 (row clustering and new detection ablations) |
//! | `end_to_end`          | Tables 9–12 and the Section 6 ranked evaluation |
//!
//! The helpers here format experiment rows so the benches and the
//! `EXPERIMENTS.md` workflow print identical tables.

#[doc(hidden)]
pub mod support;

use ltee_core::experiments::{
    DensityRow, Table10Row, Table11Row, Table1Row, Table4Row, Table5Row, Table6Row, Table7Row,
    Table8Row, Table9Row,
};

/// Format Table 1 rows.
pub fn format_table1(rows: &[Table1Row]) -> String {
    let mut out = String::from("Table 1 — class, instances, facts\n");
    for r in rows {
        out.push_str(&format!("  {:<12} {:>8} {:>8}\n", r.class, r.instances, r.facts));
    }
    out
}

/// Format density rows (Tables 2 and 12).
pub fn format_density(title: &str, rows: &[DensityRow]) -> String {
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
pub fn format_table4(rows: &[Table4Row]) -> String {
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
pub fn format_table5(rows: &[Table5Row]) -> String {
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
pub fn format_table6(rows: &[Table6Row]) -> String {
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
pub fn format_table7(rows: &[Table7Row]) -> String {
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
pub fn format_table8(rows: &[Table8Row]) -> String {
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
pub fn format_table9(rows: &[Table9Row]) -> String {
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
pub fn format_table10(rows: &[Table10Row]) -> String {
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
pub fn format_table11(rows: &[Table11Row]) -> String {
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
    use ltee_core::experiments::{self, ExperimentConfig};

    #[test]
    fn formatting_smoke_test() {
        let (world, corpus) = ExperimentConfig::tiny().materialize();
        let t1 = experiments::table01_kb_profile(&world);
        assert!(format_table1(&t1).contains("GF-Player"));
        let t2 = experiments::table02_property_density(&world);
        assert!(format_density("Table 2", &t2).lines().count() > 20);
        let t5 = experiments::table05_gold_standard(&world, &corpus);
        assert!(format_table5(&t5).contains("Song"));
    }
}
