//! Scenario building shared by the integration tests and the runnable
//! examples.
//!
//! [`TrainedWorld`] (world, corpus, gold standards and trained models,
//! built once) lives in [`ltee_core::experiments`], where the paper tables
//! are computed over it; the corpus-level scenario machinery
//! ([`Scenario`], [`ScenarioSeed`], [`with_exotic_labels`]) is re-exported
//! from [`ltee_webtables::scenario`]. Both consumers import one path.

pub use ltee_core::experiments::TrainedWorld;
pub use ltee_webtables::scenario::{
    novel_row_share, with_exotic_labels, with_long_labels, Scenario, ScenarioSeed,
};
