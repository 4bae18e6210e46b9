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
//! of the entities described by the rows (paper Section 2.2). Everything the
//! pipeline consumes is the raw strings; the generator additionally attaches
//! a [`TableTruth`] record per table (true class, true label column, true
//! column→property correspondences, true row→entity assignment) which is
//! **only** read by the gold standard and the evaluation — never by the
//! pipeline components themselves. It is optional: the serve path keeps
//! and persists tables without it.
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

pub mod corpus;
pub mod generator;
pub mod gold;
pub mod profile;
pub mod scenario;
pub mod table;

pub use corpus::Corpus;
pub use generator::{generate_corpus, CorpusConfig, NoiseConfig};
pub use gold::{GoldCluster, GoldFact, GoldStandard, GoldStandardStats};
pub use profile::CorpusProfile;
pub use scenario::{novel_row_share, with_exotic_labels, Scenario, ScenarioSeed};
pub use table::{Column, RowRef, TableId, TableTruth, WebTable};
