//! The six knowledge base data types and the coarse detected types.

/// The six data types used throughout the pipeline (paper Section 3.1).
///
/// Each knowledge base property is declared with one of these types; web
/// table attribute columns acquire one of them once they are matched to a
/// property (before that they only carry a [`DetectedType`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum DataType {
    /// Free text where two strings do not need to be exactly equal to be
    /// considered similar (e.g. the label of an instance).
    Text,
    /// Strings that are either completely equal or unequal (e.g. an ISO
    /// country code or a postal code).
    NominalString,
    /// A reference to another knowledge base instance (e.g. the team of an
    /// athlete or the musical artist of a song).
    InstanceReference,
    /// A date with year or day granularity (e.g. a release or birth date).
    Date,
    /// A numeric quantity where numeric closeness is semantically relevant
    /// (e.g. the population of a settlement or the height of a player).
    Quantity,
    /// An integer where nearby numbers are *not* semantically related
    /// (e.g. a jersey number or a draft round).
    NominalInteger,
}

impl DataType {
    /// All six data types, in a stable order.
    pub const ALL: [DataType; 6] = [
        DataType::Text,
        DataType::NominalString,
        DataType::InstanceReference,
        DataType::Date,
        DataType::Quantity,
        DataType::NominalInteger,
    ];

    /// The coarse syntactic type a raw column must have been detected as for
    /// a property of this data type to be considered a candidate during
    /// attribute-to-property matching (paper Section 3.1, candidate property
    /// selection).
    ///
    /// * text attributes → instance reference, nominal string and text
    ///   properties;
    /// * quantity attributes → quantity and nominal integer properties;
    /// * date attributes → date, quantity and nominal integer properties.
    pub fn candidate_detected_types(self) -> &'static [DetectedType] {
        match self {
            DataType::Text | DataType::NominalString | DataType::InstanceReference => {
                &[DetectedType::Text]
            }
            DataType::Quantity | DataType::NominalInteger => {
                &[DetectedType::Quantity, DetectedType::Date]
            }
            DataType::Date => &[DetectedType::Date],
        }
    }

    /// Whether values of this type carry string payloads (as opposed to
    /// numeric or date payloads).
    pub fn is_string_like(self) -> bool {
        matches!(
            self,
            DataType::Text | DataType::NominalString | DataType::InstanceReference
        )
    }

    /// Short lower-case name, used in experiment output and diagnostics.
    pub fn name(self) -> &'static str {
        match self {
            DataType::Text => "text",
            DataType::NominalString => "nominal_string",
            DataType::InstanceReference => "instance_reference",
            DataType::Date => "date",
            DataType::Quantity => "quantity",
            DataType::NominalInteger => "nominal_integer",
        }
    }
}

impl std::fmt::Display for DataType {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The three coarse types that the rule-based data type detection assigns to
/// raw table attributes (paper Section 3.1: "assigns to each table attribute
/// one of the following types: text, date and quantity").
///
/// The remaining three [`DataType`]s require semantic understanding of the
/// attribute and are only assigned by the attribute-to-property matcher.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum DetectedType {
    /// Free-form textual content.
    Text,
    /// A calendar date (year or full day).
    Date,
    /// A numeric quantity.
    Quantity,
}

ltee_intern::heap_size!(DataType {} DetectedType {});

impl DetectedType {
    /// All detected types, in a stable order.
    pub const ALL: [DetectedType; 3] = [DetectedType::Text, DetectedType::Date, DetectedType::Quantity];

    /// Short lower-case name.
    pub fn name(self) -> &'static str {
        match self {
            DetectedType::Text => "text",
            DetectedType::Date => "date",
            DetectedType::Quantity => "quantity",
        }
    }

    /// Knowledge base property data types that are candidates for an
    /// attribute with this detected type (the inverse of
    /// [`DataType::candidate_detected_types`]).
    pub fn candidate_property_types(self) -> &'static [DataType] {
        match self {
            DetectedType::Text => &[
                DataType::InstanceReference,
                DataType::NominalString,
                DataType::Text,
            ],
            DetectedType::Quantity => &[DataType::Quantity, DataType::NominalInteger],
            DetectedType::Date => &[DataType::Date, DataType::Quantity, DataType::NominalInteger],
        }
    }
}

impl std::fmt::Display for DetectedType {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_contains_six_types() {
        assert_eq!(DataType::ALL.len(), 6);
    }

    #[test]
    fn text_attribute_candidates_are_string_like() {
        for dt in DetectedType::Text.candidate_property_types() {
            assert!(dt.is_string_like());
        }
    }

    #[test]
    fn quantity_attribute_candidates_are_numeric() {
        for dt in DetectedType::Quantity.candidate_property_types() {
            assert!(matches!(dt, DataType::Quantity | DataType::NominalInteger), "{dt:?}");
        }
    }

    #[test]
    fn date_attribute_candidates_include_date_quantity_nominal_integer() {
        let cands = DetectedType::Date.candidate_property_types();
        assert!(cands.contains(&DataType::Date));
        assert!(cands.contains(&DataType::Quantity));
        assert!(cands.contains(&DataType::NominalInteger));
    }

    #[test]
    fn candidate_relationship_is_consistent_both_ways() {
        // If a property type lists detected type D as candidate, then the
        // detected type D must list that property type back.
        for dt in DataType::ALL {
            for det in dt.candidate_detected_types() {
                assert!(
                    det.candidate_property_types().contains(&dt),
                    "{dt} -> {det} not symmetric"
                );
            }
        }
    }

    #[test]
    fn names_are_unique() {
        let names: std::collections::HashSet<_> = DataType::ALL.iter().map(|d| d.name()).collect();
        assert_eq!(names.len(), 6);
    }

    #[test]
    fn display_matches_name() {
        assert_eq!(DataType::Quantity.to_string(), "quantity");
        assert_eq!(DetectedType::Date.to_string(), "date");
    }
}
