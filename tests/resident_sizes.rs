//! Size guards for the types the resident state is made of: the facts,
//! the string lists, index entries and prepared values kept per label, per
//! cell column and per stored value, and the per-property entries that
//! name a property by its schema entry.
//!
//! The world's and the knowledge base's facts are the largest homogeneous
//! blocks a process holds (`tests/golden/memory_ledger.txt`), so a field
//! added to one of these types regrows every one of them. The sizes are
//! x86_64's; the ledger gates (`tests/*_footprint.rs`) price the heap
//! they lead to.

#![cfg(target_arch = "x86_64")]

use std::mem::size_of;

use ltee_clustering::RowContext;
use ltee_index::LabelEntry;
use ltee_intern::StrList;
use ltee_kb::{Fact, Facts, Instance, WorldEntity};
use ltee_matching::AttributeMatch;
use ltee_types::{PreparedValue, Value};
use ltee_webtables::Column;

#[test]
fn resident_fact_types_keep_their_sizes() {
    // Three boxed string payloads (pointer and length), a date, two
    // numbers: 16 bytes of payload and the tag.
    assert_eq!(size_of::<Value>(), 24, "Value");
    // A property id and a value.
    assert_eq!(size_of::<Fact>(), 32, "kb::Fact");
    // The boxed values, the presence mask and the class.
    assert_eq!(size_of::<Facts>(), 24, "world Facts");
    // Id, page links, the labels-and-abstract list, the boxed facts and
    // the class.
    assert_eq!(size_of::<Instance>(), 72, "kb::Instance");
    // Id, popularity, homonym group, label, alternative labels, facts and
    // the class and flags.
    assert_eq!(size_of::<WorldEntity>(), 96, "WorldEntity");
}

#[test]
fn per_string_list_types_keep_their_sizes() {
    // The concatenated strings and their end offsets: two boxes.
    assert_eq!(size_of::<StrList>(), 32, "StrList");
    // The header and the cells.
    assert_eq!(size_of::<Column>(), 56, "webtables::Column");
    // Id, normalised-label sym and the token span (four u32 offsets into
    // the index's token arena).
    assert_eq!(size_of::<LabelEntry>(), 32, "index::LabelEntry");
    // The boxed normal form, a date or a number, and the tag.
    assert_eq!(size_of::<PreparedValue>(), 24, "types::PreparedValue");
    // The row, its normalised label and label tokens, the bag of words
    // and the prepared values.
    assert_eq!(size_of::<RowContext>(), 120, "clustering::RowContext");
}

#[test]
fn per_property_types_keep_their_sizes() {
    // The property's schema name (pointer and length), the score and the
    // data type.
    assert_eq!(size_of::<AttributeMatch>(), 32, "matching::AttributeMatch");
    // A fused fact, implicit attribute or served fact: the schema name, the
    // value and its score.
    assert_eq!(size_of::<(&'static str, Value, f64)>(), 48, "(&'static str, Value, f64)");
}
