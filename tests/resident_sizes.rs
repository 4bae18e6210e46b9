//! Size guards for the types the resident facts are made of.
//!
//! The world's and the knowledge base's facts are the largest homogeneous
//! blocks a process holds (`tests/golden/memory_ledger.txt`), so a field
//! added to one of these types regrows every one of them. The sizes are
//! x86_64's; the ledger gates (`tests/*_footprint.rs`) price the heap
//! they lead to.

#![cfg(target_arch = "x86_64")]

use std::mem::size_of;

use ltee_kb::{Fact, Facts, Instance, WorldEntity};
use ltee_types::Value;

#[test]
fn resident_fact_types_keep_their_sizes() {
    // Three boxed string payloads (pointer and length), a date, two
    // numbers: 16 bytes of payload and the tag.
    assert_eq!(size_of::<Value>(), 24, "Value");
    // A property id and a value.
    assert_eq!(size_of::<Fact>(), 32, "kb::Fact");
    // The boxed values, the presence mask and the class.
    assert_eq!(size_of::<Facts>(), 24, "world Facts");
    // Id, page links, three boxes and the class.
    assert_eq!(size_of::<Instance>(), 72, "kb::Instance");
    // Id, popularity, homonym group, label, alternative labels, facts and
    // the class and flags.
    assert_eq!(size_of::<WorldEntity>(), 96, "WorldEntity");
}
