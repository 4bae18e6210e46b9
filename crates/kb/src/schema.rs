//! The class and property schemas of the three profiled classes.
//!
//! Paper Section 2.1: the experiments extend the DBpedia classes
//! **GridironFootballPlayer**, **Song** and **Settlement**, chosen from the
//! three first-level classes Agent, Work and Place. Only properties with an
//! initial density of at least 30 % are considered; Table 2 lists them with
//! their densities, which the synthetic generator reproduces.

use ltee_types::DataType;

/// The three target classes of the evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ClassKey {
    /// dbo:GridironFootballPlayer (first-level class Agent).
    GridironFootballPlayer,
    /// dbo:Song, including dbo:Single (first-level class Work).
    Song,
    /// dbo:Settlement (first-level class Place).
    Settlement,
}

/// All target classes in a stable order.
pub const CLASS_KEYS: [ClassKey; 3] =
    [ClassKey::GridironFootballPlayer, ClassKey::Song, ClassKey::Settlement];

ltee_intern::heap_size!(ClassKey {});

impl ClassKey {
    /// The DBpedia-style class name.
    pub fn name(self) -> &'static str {
        match self {
            ClassKey::GridironFootballPlayer => "GridironFootballPlayer",
            ClassKey::Song => "Song",
            ClassKey::Settlement => "Settlement",
        }
    }

    /// Stable on-disk tag of this class (model persistence); the inverse is
    /// [`ClassKey::from_code`].
    pub fn code(self) -> u8 {
        match self {
            ClassKey::GridironFootballPlayer => 0,
            ClassKey::Song => 1,
            ClassKey::Settlement => 2,
        }
    }

    /// Inverse of [`ClassKey::code`].
    pub fn from_code(code: u8) -> Option<Self> {
        match code {
            0 => Some(ClassKey::GridironFootballPlayer),
            1 => Some(ClassKey::Song),
            2 => Some(ClassKey::Settlement),
            _ => None,
        }
    }

    /// The short name used in the paper's tables.
    pub fn short_name(self) -> &'static str {
        match self {
            ClassKey::GridironFootballPlayer => "GF-Player",
            ClassKey::Song => "Song",
            ClassKey::Settlement => "Settlement",
        }
    }

    /// Ancestor chain (most specific first, excluding the class itself) in
    /// the class hierarchy, up to the respective first-level class and the
    /// root `Thing`. Used by the `TYPE` entity-to-instance metric.
    pub fn ancestors(self) -> &'static [&'static str] {
        match self {
            ClassKey::GridironFootballPlayer => &["AmericanFootballPlayer", "Athlete", "Person", "Agent", "Thing"],
            ClassKey::Song => &["MusicalWork", "Work", "Thing"],
            ClassKey::Settlement => &["PopulatedPlace", "Place", "Thing"],
        }
    }
}

impl std::fmt::Display for ClassKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.short_name())
    }
}

/// Specification of a property of one of the target classes.
#[derive(Debug, Clone, PartialEq)]
pub struct PropertySpec {
    /// Property name (DBpedia-style camelCase).
    pub name: &'static str,
    /// Data type of the property's values.
    pub data_type: DataType,
    /// Fraction of knowledge base instances carrying a fact for this
    /// property (paper Table 2 density).
    pub kb_density: f64,
    /// Fraction of *web table columns about this class* that carry this
    /// property — controls how often the property appears in generated
    /// tables. Loosely follows the relative densities of paper Table 12.
    pub table_density: f64,
    /// Header labels under which web tables publish this property. The
    /// first entry is the canonical label; the rest are synonyms/variants.
    pub header_labels: &'static [&'static str],
}

/// The property schema of a class (paper Table 2).
pub fn class_schema(class: ClassKey) -> &'static [PropertySpec] {
    match class {
        ClassKey::GridironFootballPlayer => GF_PLAYER_SCHEMA,
        ClassKey::Song => SONG_SCHEMA,
        ClassKey::Settlement => SETTLEMENT_SCHEMA,
    }
}

/// The schema entry's name for `class`'s property `name`, if the class has
/// one. Past the knowledge base a property is named by this `&'static str`;
/// decoders resolve a stored name through here.
pub fn schema_property_name(class: ClassKey, name: &str) -> Option<&'static str> {
    class_schema(class).iter().find(|spec| spec.name == name).map(|spec| spec.name)
}

/// GridironFootballPlayer properties (11 properties, paper Table 2).
static GF_PLAYER_SCHEMA: &[PropertySpec] = &[
    PropertySpec { name: "birthDate", data_type: DataType::Date, kb_density: 0.9743, table_density: 0.20, header_labels: &["birth date", "born", "date of birth", "dob"] },
    PropertySpec { name: "college", data_type: DataType::InstanceReference, kb_density: 0.9292, table_density: 0.50, header_labels: &["college", "school", "university"] },
    PropertySpec { name: "birthPlace", data_type: DataType::InstanceReference, kb_density: 0.8632, table_density: 0.05, header_labels: &["birth place", "birthplace", "hometown"] },
    PropertySpec { name: "team", data_type: DataType::InstanceReference, kb_density: 0.6433, table_density: 0.55, header_labels: &["team", "nfl team", "club", "franchise"] },
    PropertySpec { name: "number", data_type: DataType::NominalInteger, kb_density: 0.5508, table_density: 0.25, header_labels: &["number", "no", "jersey", "#"] },
    PropertySpec { name: "position", data_type: DataType::NominalString, kb_density: 0.5417, table_density: 0.65, header_labels: &["position", "pos"] },
    PropertySpec { name: "height", data_type: DataType::Quantity, kb_density: 0.4847, table_density: 0.35, header_labels: &["height", "ht"] },
    PropertySpec { name: "weight", data_type: DataType::Quantity, kb_density: 0.4832, table_density: 0.45, header_labels: &["weight", "wt"] },
    PropertySpec { name: "draftYear", data_type: DataType::Date, kb_density: 0.3830, table_density: 0.08, header_labels: &["draft year", "year drafted", "draft"] },
    PropertySpec { name: "draftRound", data_type: DataType::NominalInteger, kb_density: 0.3822, table_density: 0.12, header_labels: &["draft round", "round", "rd"] },
    PropertySpec { name: "draftPick", data_type: DataType::NominalInteger, kb_density: 0.3819, table_density: 0.18, header_labels: &["draft pick", "pick", "overall pick"] },
];

/// Song properties (7 properties, paper Table 2).
static SONG_SCHEMA: &[PropertySpec] = &[
    PropertySpec { name: "genre", data_type: DataType::NominalString, kb_density: 0.8954, table_density: 0.15, header_labels: &["genre", "style"] },
    PropertySpec { name: "musicalArtist", data_type: DataType::InstanceReference, kb_density: 0.8585, table_density: 0.75, header_labels: &["artist", "musical artist", "performer", "singer"] },
    PropertySpec { name: "recordLabel", data_type: DataType::InstanceReference, kb_density: 0.8195, table_density: 0.07, header_labels: &["record label", "label"] },
    PropertySpec { name: "runtime", data_type: DataType::Quantity, kb_density: 0.8002, table_density: 0.60, header_labels: &["length", "runtime", "duration", "time"] },
    PropertySpec { name: "album", data_type: DataType::InstanceReference, kb_density: 0.7741, table_density: 0.30, header_labels: &["album", "from album", "release"] },
    PropertySpec { name: "writer", data_type: DataType::InstanceReference, kb_density: 0.6461, table_density: 0.03, header_labels: &["writer", "songwriter", "written by"] },
    PropertySpec { name: "releaseDate", data_type: DataType::Date, kb_density: 0.6034, table_density: 0.28, header_labels: &["release date", "released", "year"] },
];

/// Settlement properties (5 properties, paper Table 2).
static SETTLEMENT_SCHEMA: &[PropertySpec] = &[
    PropertySpec { name: "country", data_type: DataType::InstanceReference, kb_density: 0.9251, table_density: 0.25, header_labels: &["country", "nation"] },
    PropertySpec { name: "isPartOf", data_type: DataType::InstanceReference, kb_density: 0.8880, table_density: 0.55, header_labels: &["is part of", "region", "state", "county", "district"] },
    PropertySpec { name: "populationTotal", data_type: DataType::Quantity, kb_density: 0.6244, table_density: 0.40, header_labels: &["population", "population total", "inhabitants"] },
    PropertySpec { name: "postalCode", data_type: DataType::NominalString, kb_density: 0.3296, table_density: 0.30, header_labels: &["postal code", "zip code", "zip", "plz"] },
    PropertySpec { name: "elevation", data_type: DataType::Quantity, kb_density: 0.3126, table_density: 0.05, header_labels: &["elevation", "altitude", "elevation m"] },
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schemas_have_paper_property_counts() {
        assert_eq!(class_schema(ClassKey::GridironFootballPlayer).len(), 11);
        assert_eq!(class_schema(ClassKey::Song).len(), 7);
        assert_eq!(class_schema(ClassKey::Settlement).len(), 5);
    }

    #[test]
    fn densities_are_at_least_thirty_percent() {
        // Paper: "We only consider properties that have an initial density of
        // at least 30 %".
        for class in CLASS_KEYS {
            for spec in class_schema(class) {
                assert!(spec.kb_density >= 0.30, "{}/{} density {}", class, spec.name, spec.kb_density);
            }
        }
    }

    #[test]
    fn densities_are_probabilities() {
        for class in CLASS_KEYS {
            for spec in class_schema(class) {
                assert!((0.0..=1.0).contains(&spec.kb_density));
                assert!((0.0..=1.0).contains(&spec.table_density));
            }
        }
    }

    #[test]
    fn property_names_unique_per_class() {
        for class in CLASS_KEYS {
            let names: std::collections::HashSet<_> =
                class_schema(class).iter().map(|p| p.name).collect();
            assert_eq!(names.len(), class_schema(class).len());
        }
    }

    #[test]
    fn every_property_has_at_least_one_header_label() {
        for class in CLASS_KEYS {
            for spec in class_schema(class) {
                assert!(!spec.header_labels.is_empty());
            }
        }
    }

    #[test]
    fn ancestors_end_with_thing() {
        for class in CLASS_KEYS {
            assert_eq!(*class.ancestors().last().unwrap(), "Thing");
        }
    }
}
