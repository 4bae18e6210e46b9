//! # ltee-types
//!
//! The data type system shared by every component of the LTEE pipeline.
//!
//! Section 3.1 of the paper introduces six data types — **Text**,
//! **Nominal String**, **Instance Reference**, **Date**, **Quantity** and
//! **Nominal Integer** — each with "a corresponding similarity function, and
//! an equivalence threshold, which is used to determine if the compared
//! values are equal".
//!
//! This crate provides:
//!
//! * [`DataType`] — the six knowledge base data types, plus
//!   [`DetectedType`], the coarse syntactic types (text / date / quantity)
//!   that the data-type detection assigns to raw table attributes.
//! * [`Value`] — a typed value as it appears in a knowledge base fact or a
//!   normalised web table cell.
//! * [`similarity`] — data-type specific similarity and equivalence.
//! * [`detect`] — the rule-based data type detection (the paper uses
//!   manually defined regular expressions; we use equivalent hand-written
//!   parsers) including majority voting over a column's values.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![forbid(unsafe_code)]

pub mod datatype;
pub mod detect;
pub mod similarity;
pub mod value;

pub use datatype::{DataType, DetectedType};
pub use detect::{detect_cell_type, detect_column_type, parse_cell_as};
pub use similarity::{value_equivalent, Agreement, EquivalenceConfig, EquivalenceSet, PreparedValue};
pub use value::{Date, DateGranularity, Value};
