//! # ltee
//!
//! Umbrella crate for the LTEE reproduction ("Extending Cross-Domain
//! Knowledge Bases with Long Tail Entities using Web Table Data",
//! EDBT 2019). It re-exports every pipeline crate under one roof and owns
//! the repository-level integration tests (`tests/`) and runnable examples
//! (`examples/`).
//!
//! For pipeline usage, start from [`prelude`] (re-exported from
//! [`ltee_core::prelude`]).

pub use ltee_clustering as clustering;
pub use ltee_codec as codec;
pub use ltee_core as core;
pub use ltee_eval as eval;
pub use ltee_fusion as fusion;
pub use ltee_index as index;
pub use ltee_intern as intern;
pub use ltee_kb as kb;
pub use ltee_matching as matching;
pub use ltee_ml as ml;
pub use ltee_newdetect as newdetect;
pub use ltee_serve as serve;
pub use ltee_text as text;
pub use ltee_types as types;
pub use ltee_webtables as webtables;

pub use ltee_core::prelude;

pub mod examples;
pub mod scenario;
