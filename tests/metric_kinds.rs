//! Both metric families — the row metrics of clustering and the
//! entity-to-instance metrics of new detection — through the one
//! `MetricModel`: codes round-trip, codes and names are unique within a
//! family, the feature names follow the one layout, and a bad metric tag is
//! refused under the family's own label.
//!
//! Deterministic, no training. Expected runtime: milliseconds.

use std::collections::HashSet;

use ltee_clustering::RowMetricKind;
use ltee_codec::{read_stream, CodecError};
use ltee_ml::{MetricKind, MetricModel};
use ltee_newdetect::EntityMetricKind;

/// What one family must look like: its tag's label in codec errors and
/// the feature names of all its metrics.
fn check_family<K: MetricKind>(tag_label: &str, feature_names: &[&str]) {
    for &kind in K::ALL {
        assert_eq!(K::from_code(kind.code()), Some(kind), "{kind:?}");
    }
    let codes: HashSet<u8> = K::ALL.iter().map(|kind| kind.code()).collect();
    let names: HashSet<&str> = K::ALL.iter().map(|kind| kind.name()).collect();
    assert_eq!(codes.len(), K::ALL.len(), "{tag_label}: two metrics share a code");
    assert_eq!(names.len(), K::ALL.len(), "{tag_label}: two metrics share a name");
    assert_eq!(K::from_code(K::ALL.len() as u8), None);

    assert_eq!(MetricModel::<K>::feature_names(K::ALL), feature_names);
    // In any order: the names in metric order, then the confidences in
    // metric order.
    let reversed: Vec<K> = K::ALL.iter().rev().copied().collect();
    let with_confidence = reversed.iter().filter(|kind| kind.has_confidence());
    let expected: Vec<String> = reversed
        .iter()
        .map(|kind| kind.name().to_string())
        .chain(with_confidence.map(|kind| format!("{}_confidence", kind.name())))
        .collect();
    assert_eq!(MetricModel::<K>::feature_names(&reversed), expected);

    // An empty string table, one metric, tag 0xFF.
    let refusal = read_stream(&[0, 1, 0xFF], MetricModel::<K>::decode_from).unwrap_err();
    assert_eq!(refusal, CodecError::InvalidTag { what: K::TAG_LABEL, tag: 0xFF });
    assert_eq!(K::TAG_LABEL, tag_label);
}

#[test]
fn both_metric_families_share_one_layout_and_codec() {
    check_family::<RowMetricKind>(
        "row_model.metric",
        &[
            "LABEL",
            "BOW",
            "PHI",
            "ATTRIBUTE",
            "IMPLICIT_ATT",
            "SAME_TABLE",
            "ATTRIBUTE_confidence",
            "IMPLICIT_ATT_confidence",
        ],
    );
    check_family::<EntityMetricKind>(
        "entity_model.metric",
        &[
            "LABEL",
            "TYPE",
            "BOW",
            "ATTRIBUTE",
            "IMPLICIT_ATT",
            "POPULARITY",
            "ATTRIBUTE_confidence",
            "IMPLICIT_ATT_confidence",
        ],
    );
}
