//! # ltee-webtables
//!
//! The web table substrate: the relational web table model, a synthetic
//! corpus generator standing in for the WDC 2012 Web Table Corpus, and the
//! gold standard used for learning and evaluation.
//!
//! ## Model
//!
//! A [`WebTable`] is a small relational table: a set of named columns of raw
//! string cells, one of which is the *label attribute* containing the names
//! of the entities described by the rows (paper Section 2.2). A table is
//! its id and its columns of raw strings, and that is all the pipeline
//! reads, keeps and persists.
//!
//! The answer key lives beside the tables, not on them: the generators
//! return a [`GeneratedCorpus`], the [`Corpus`] plus a per-table truth
//! record (true class, true label column, true column→property
//! correspondences, true row→entity assignment) that only the gold
//! standard, the evaluation and tests read. It derefs to the corpus, so
//! whatever takes a `&Corpus` cannot reach the truth.
//!
//! ## Corpus generator
//!
//! The generator draws entities from a [`ltee_kb::World`] and renders them
//! into tables with realistic heterogeneity: header synonyms, label spelling
//! variants and typos, multiple date formats, unit variation, missing cells,
//! outdated values and off-topic noise columns. Tables are *themed* (e.g.
//! players of one team, songs of one artist, settlements of one region) so
//! that the `IMPLICIT_ATT` signal the paper exploits actually exists in the
//! data. Long-tail entities are deliberately placed in several tables so
//! that row clusters of size > 1 exist for new entities, mirroring how the
//! paper's gold standard "ensured that for some labels, we select at least
//! five rows".
//!
//! ## Gold standard
//!
//! [`GoldStandard`] materialises, per class, the annotations of paper
//! Table 5: row clusters (with new/existing flags and instance
//! correspondences), attribute-to-property correspondences, and the correct
//! fact per (cluster, property) value group together with whether the
//! correct value is present among the table cells.

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![forbid(unsafe_code)]

pub mod corpus;
pub mod generator;
pub mod gold;
pub mod profile;
pub mod scenario;
pub mod table;

pub use corpus::Corpus;
pub use generator::{generate_corpus, CorpusConfig, GeneratedCorpus, NoiseConfig};
pub use gold::{GoldCluster, GoldFact, GoldStandard, GoldStandardStats};
pub use profile::CorpusProfile;
pub use scenario::{novel_row_share, with_exotic_labels, Scenario, ScenarioSeed};
pub use table::{Column, RowRef, TableId, WebTable};
