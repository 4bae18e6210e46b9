//! The query surface: one request/response vocabulary plus batched
//! execution on the work-stealing pool.
//!
//! Queries are plain data so callers (and tests) can build workloads,
//! replay them against historical snapshot versions, and compare responses
//! structurally. [`KbSnapshot::execute_batch`] fans a batch out over the
//! global rayon-compatible pool; responses come back in request order and
//! are bit-identical to executing each query sequentially (the pool's
//! determinism contract).

use std::sync::Arc;

use ltee_kb::ClassKey;
use rayon::prelude::*;

use crate::snapshot::{ClassPage, EntityRecord, KbSnapshot, SnapshotStats};

/// A reference to one served entity inside a specific snapshot version:
/// the class plus the record's position in the class's cluster order.
///
/// References are only meaningful against the snapshot (version) that
/// produced them — a later version may have re-fused the cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EntityRef {
    /// The entity's class.
    pub class: ClassKey,
    /// Record position within the class snapshot.
    pub id: u32,
}

/// One label-lookup hit.
#[derive(Debug, Clone, PartialEq)]
pub struct EntityHit {
    /// The matched entity.
    pub entity: EntityRef,
    /// Ranking score in `[0, 1]` (1.0 for exact-block hits).
    pub score: f64,
    /// The label the match surfaced: the record's canonical label for
    /// exact hits, the matched normalised label for fuzzy hits.
    pub label: String,
}

/// One read request against a snapshot.
#[derive(Debug, Clone, PartialEq)]
pub enum Query {
    /// Entities whose normalised label equals the normalised query
    /// (`class: None` searches every class).
    Exact {
        /// Restrict to one class, or search all.
        class: Option<ClassKey>,
        /// The queried label.
        label: String,
    },
    /// Fuzzy top-k label lookup (`class: None` merges across classes).
    Fuzzy {
        /// Restrict to one class, or search all.
        class: Option<ClassKey>,
        /// The queried label.
        label: String,
        /// Maximum hits to return.
        k: usize,
    },
    /// Fetch one entity record (fused facts + provenance + link verdict).
    Entity {
        /// The entity to fetch.
        entity: EntityRef,
    },
    /// One page of a class's entities in cluster order.
    List {
        /// The class to list.
        class: ClassKey,
        /// Zero-based offset into the class's records.
        offset: usize,
        /// Maximum records on the page.
        limit: usize,
    },
    /// Aggregate snapshot figures.
    Stats,
}

/// The response to one [`Query`], same variant order.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryOutput {
    /// Response to [`Query::Exact`] and [`Query::Fuzzy`].
    Hits(Vec<EntityHit>),
    /// Response to [`Query::Entity`]; `None` when the reference does not
    /// exist in this snapshot version. The handle is the snapshot's own —
    /// a fetch copies a pointer, and the record outlives the snapshot for
    /// as long as the caller keeps it.
    Entity(Option<Arc<EntityRecord>>),
    /// Response to [`Query::List`].
    Page(ClassPage),
    /// Response to [`Query::Stats`].
    Stats(SnapshotStats),
}

impl KbSnapshot {
    /// Execute one query against this snapshot version.
    pub fn execute(&self, query: &Query) -> QueryOutput {
        match query {
            Query::Exact { class, label } => QueryOutput::Hits(self.exact_lookup(*class, label)),
            Query::Fuzzy { class, label, k } => {
                QueryOutput::Hits(self.fuzzy_lookup(*class, label, *k))
            }
            Query::Entity { entity } => QueryOutput::Entity(self.entity(*entity).cloned()),
            Query::List { class, offset, limit } => {
                QueryOutput::Page(self.list_class(*class, *offset, *limit))
            }
            Query::Stats => QueryOutput::Stats(self.stats()),
        }
    }

    /// Execute a batch of queries on the work-stealing pool, returning
    /// responses in request order. Results are bit-identical to calling
    /// [`KbSnapshot::execute`] per query in order — at any thread count —
    /// because every query reads the same immutable snapshot and the pool
    /// collects in input order.
    pub fn execute_batch(&self, queries: &[Query]) -> Vec<QueryOutput> {
        queries.par_iter().map(|q| self.execute(q)).collect()
    }
}
