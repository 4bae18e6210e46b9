//! # ltee-kb
//!
//! The knowledge base substrate: an in-memory cross-domain knowledge base
//! modelled after DBpedia (classes with a hierarchy, typed properties,
//! instances with labels / abstracts / popularity, facts) plus a synthetic
//! **world generator** that stands in for the data resources the paper uses
//! but which are not redistributable here (DBpedia 2014 and, indirectly, the
//! entities described by the WDC 2012 web table corpus).
//!
//! ## The world / knowledge base split
//!
//! The paper's task is to find entities that exist in the real world (and in
//! web tables) but are missing from the knowledge base. To reproduce that
//! setting synthetically, the generator first creates a **world**: the
//! complete universe of entities of the three profiled classes
//! (GridironFootballPlayer, Song, Settlement), each with a full set of true
//! facts, alternative labels, a popularity score and a homonym group.
//! A *head* subset of the world (the "notable" entities) is then projected
//! into the [`KnowledgeBase`], with per-property fact dropout matching the
//! densities of paper Table 2. The remaining *long-tail* entities exist only
//! in the world — they are exactly what the pipeline is supposed to
//! (re-)discover from web tables, and what the gold standard marks as *new*.
//!
//! The class profiles (instance counts, property schemas, densities) follow
//! paper Tables 1 and 2 at a configurable [`Scale`].

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![forbid(unsafe_code)]

pub mod footprint;
pub mod generator;
pub mod ids;
pub mod model;
pub mod names;
pub mod profile;
pub mod schema;

pub use footprint::{Footprint, FootprintRow, HeapBytes, HeapSize};
pub use generator::{generate_world, Facts, GeneratorConfig, Scale, World, WorldEntity};
pub use ids::{ClassId, EntityId, InstanceId, PropertyId};
pub use model::{Fact, Instance, KnowledgeBase, KnowledgeBaseClass, Property, KB_OVERLAP_SAMPLE};
pub use profile::{ClassProfile, PropertyDensity};
pub use schema::{class_schema, schema_property_name, ClassKey, PropertySpec, CLASS_KEYS};
