//! Output verification: benchmark-owned digests of what the program
//! serves, computed through the public [`Query`] API only (never
//! `KbSnapshot::fingerprint`, which a product change may redefine).

use std::fmt::Write as _;

use ltee_serve::{EntityRef, KbSnapshot, Query, QueryOutput};
use ltee_text::normalize_label;

use crate::rng::Fnv;

const PAGE: usize = 64;

impl std::fmt::Write for Fnv {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.write(s.as_bytes());
        Ok(())
    }
}

/// What walking a snapshot found.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KbCheck {
    /// FNV-1a over `Stats`, every `List` page and every `Entity`.
    pub digest: u64,
    /// Entities served.
    pub entities: usize,
    /// Exact lookups of served canonical labels issued ...
    pub lookups: u64,
    /// ... and how many did not return their entity.
    pub lookup_failures: u64,
}

/// Digest everything `snap` serves and check that an exact lookup of
/// every served canonical label returns its entity.
pub fn check_kb(snap: &KbSnapshot) -> KbCheck {
    let mut h = Fnv::default();
    let mut check = KbCheck {
        digest: 0,
        entities: 0,
        lookups: 0,
        lookup_failures: 0,
    };
    let stats = snap.execute(&Query::Stats);
    let _ = write!(h, "{stats:?}");
    let QueryOutput::Stats(stats) = stats else {
        unreachable!("Stats answers Stats")
    };
    for class_stats in &stats.classes {
        let class = class_stats.class;
        let mut offset = 0;
        loop {
            let page = snap.execute(&Query::List {
                class,
                offset,
                limit: PAGE,
            });
            let _ = write!(h, "{page:?}");
            let QueryOutput::Page(page) = page else {
                unreachable!("List answers Page")
            };
            for &entity in &page.entities {
                let fetched = snap.execute(&Query::Entity { entity });
                let _ = write!(h, "{fetched:?}");
                check.entities += 1;
                let QueryOutput::Entity(Some(record)) = fetched else {
                    check.lookup_failures += 1;
                    continue;
                };
                let label = record.canonical_label();
                if normalize_label(label).is_empty() {
                    continue;
                }
                check.lookups += 1;
                let exact = Query::Exact {
                    class: Some(class),
                    label: label.to_string(),
                };
                let found = matches!(snap.execute(&exact),
                    QueryOutput::Hits(hits) if hits.iter().any(|hit| hit.entity == entity));
                check.lookup_failures += u64::from(!found);
            }
            offset += PAGE;
            if page.entities.len() < PAGE {
                break;
            }
        }
    }
    check.digest = h.finish();
    check
}

/// Replay `schedule` on one pinned snapshot, in order, and digest every
/// response in full; also returns the [`fold_cheap`] checksum the timed
/// rounds must reproduce.
pub fn result_digest(snap: &KbSnapshot, schedule: &[Query]) -> (u64, u64) {
    let mut h = Fnv::default();
    let mut cheap = 0;
    for query in schedule {
        let output = snap.execute(query);
        let _ = write!(h, "{output:?}");
        cheap = fold_cheap(cheap, &output);
    }
    (h.finish(), cheap)
}

/// A few-nanosecond checksum of a response's shape — sizes, ids and score
/// bits — folded commutatively so concurrent clients can be combined in
/// any order. Cheap enough to run inside a timed round.
pub fn fold_cheap(acc: u64, output: &QueryOutput) -> u64 {
    let mix = |v: u64| v.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(23);
    let value = match output {
        QueryOutput::Hits(hits) => hits.iter().fold(hits.len() as u64, |a, hit| {
            mix(a ^ ref_bits(hit.entity) ^ hit.score.to_bits())
        }),
        QueryOutput::Entity(None) => 1,
        QueryOutput::Entity(Some(r)) => mix(2
            ^ ((r.labels.len() as u64) << 8)
            ^ ((r.rows.len() as u64) << 24)
            ^ r.best_score.to_bits()),
        QueryOutput::Page(page) => page
            .entities
            .iter()
            .fold(mix(3 ^ page.total as u64), |a, &e| mix(a ^ ref_bits(e))),
        QueryOutput::Stats(stats) => mix(4 ^ stats.version ^ ((stats.rows as u64) << 20)),
    };
    acc.wrapping_add(mix(value))
}

fn ref_bits(entity: EntityRef) -> u64 {
    (u64::from(entity.class.code()) << 40) | u64::from(entity.id)
}
