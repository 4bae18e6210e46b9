//! Data-type specific value similarity and equivalence.
//!
//! "Each type has a corresponding similarity function, and an equivalence
//! threshold, which is used to determine if the compared values are equal"
//! (paper Section 3.1). The similarity functions are used by the
//! duplicate-based schema matchers, the `ATTRIBUTE` metrics, the fusion
//! grouping step and the facts-found evaluation (which additionally uses a
//! learned tolerance range for quantities).

use std::collections::HashMap;

use ltee_intern::{HeapBytes, HeapSize};
use ltee_text::{clamp_unit, monge_elkan_normalized, normalize_label};

use crate::datatype::DataType;
use crate::value::{Date, DateGranularity, Value};

/// Thresholds and tolerances controlling when two values of a given data
/// type are considered *equivalent*.
///
/// The defaults mirror the behaviour described in the paper; the quantity
/// tolerance is the knob the facts-found evaluation learns per property
/// ("a learned tolerance range", Section 4.2).
#[derive(Debug, Clone, PartialEq)]
pub struct EquivalenceConfig {
    /// Minimum Monge-Elkan similarity for two text values to be equivalent.
    pub text_threshold: f64,
    /// Relative tolerance for quantities: values are equivalent when
    /// `|a - b| <= quantity_tolerance * max(|a|, |b|)`.
    pub quantity_tolerance: f64,
    /// Tolerance in days when comparing two day-granularity dates.
    pub date_day_tolerance_days: f64,
}

impl Default for EquivalenceConfig {
    fn default() -> Self {
        Self {
            text_threshold: 0.85,
            quantity_tolerance: 0.02,
            date_day_tolerance_days: 1.0,
        }
    }
}

impl EquivalenceConfig {
    /// A lenient configuration used when comparing noisy web-table-derived
    /// facts against possibly outdated knowledge base facts.
    pub fn lenient() -> Self {
        Self {
            text_threshold: 0.75,
            quantity_tolerance: 0.10,
            date_day_tolerance_days: 31.0,
        }
    }
}

/// A [`Value`] digested once for comparison: string payloads in their
/// normal form ([`normalize_label`]), date and numeric payloads as they
/// are, one variant per [`DataType`]. Everything a similarity or an
/// equivalence reads of a value is in here, so comparing two prepared
/// values re-derives nothing: the tokens Monge-Elkan aligns are the normal
/// form's alphanumeric runs, read off it on demand
/// ([`monge_elkan_normalized`]).
///
/// The comparison type is an argument of each comparison, and a payload
/// that does not fit it (a string compared as a date, say) is a mismatch,
/// as it is unprepared ([`Value::as_str`], [`Value::as_date`],
/// [`Value::as_f64`]).
#[derive(Debug, Clone, PartialEq)]
pub enum PreparedValue {
    /// A text payload in its normal form. (Boxed: one of these is kept
    /// per stored value, for as long as the row or table it belongs to.)
    Text(Box<str>),
    /// A nominal string payload in its normal form.
    Nominal(Box<str>),
    /// An instance reference payload in its normal form.
    InstanceRef(Box<str>),
    /// A date payload.
    Date(Date),
    /// A quantity payload.
    Quantity(f64),
    /// A nominal integer payload.
    NominalInt(i64),
}

/// What the comparison kernels read of a prepared value.
#[derive(Clone, Copy)]
enum Payload<'a> {
    Normalized(&'a str),
    Date(Date),
    Number(f64),
}

impl PreparedValue {
    /// Prepare `value`.
    pub fn new(value: &Value) -> Self {
        let normalized = |s: &str| normalize_label(s).into_boxed_str();
        match value {
            Value::Text(s) => PreparedValue::Text(normalized(s)),
            Value::Nominal(s) => PreparedValue::Nominal(normalized(s)),
            Value::InstanceRef(s) => PreparedValue::InstanceRef(normalized(s)),
            Value::Date(d) => PreparedValue::Date(*d),
            Value::Quantity(q) => PreparedValue::Quantity(*q),
            Value::NominalInt(i) => PreparedValue::NominalInt(*i),
        }
    }

    /// The data type of the prepared value, as [`Value::data_type`].
    pub fn data_type(&self) -> DataType {
        match self {
            PreparedValue::Text(_) => DataType::Text,
            PreparedValue::Nominal(_) => DataType::NominalString,
            PreparedValue::InstanceRef(_) => DataType::InstanceReference,
            PreparedValue::Date(_) => DataType::Date,
            PreparedValue::Quantity(_) => DataType::Quantity,
            PreparedValue::NominalInt(_) => DataType::NominalInteger,
        }
    }

    fn payload(&self) -> Payload<'_> {
        match self {
            PreparedValue::Text(s) | PreparedValue::Nominal(s) | PreparedValue::InstanceRef(s) => {
                Payload::Normalized(s)
            }
            PreparedValue::Date(d) => Payload::Date(*d),
            PreparedValue::Quantity(q) => Payload::Number(*q),
            PreparedValue::NominalInt(i) => Payload::Number(*i as f64),
        }
    }

    /// Similarity of the two prepared values under the comparison type
    /// `dtype`, in `[0, 1]`; `0.0` where a payload does not fit `dtype`.
    /// Symmetric, bit for bit.
    pub fn similarity(&self, other: &PreparedValue, dtype: DataType) -> f64 {
        use Payload::{Date, Normalized, Number};
        match (dtype, self.payload(), other.payload()) {
            (DataType::Text, Normalized(x), Normalized(y)) => clamp_unit(monge_elkan_normalized(x, y)),
            (DataType::NominalString, Normalized(x), Normalized(y)) if x == y => 1.0,
            (DataType::InstanceReference, Normalized(x), Normalized(y)) => {
                if x == y {
                    return 1.0;
                }
                // Instance references are compared by label; allow a high
                // text similarity to count partially so that e.g.
                // "Green Bay Packers" vs "Packers" is not a hard zero.
                let s = monge_elkan_normalized(x, y);
                if s >= 0.9 {
                    s
                } else {
                    0.0
                }
            }
            (DataType::Date, Date(x), Date(y)) => {
                if x.granularity == DateGranularity::Year || y.granularity == DateGranularity::Year {
                    if x.year == y.year {
                        1.0
                    } else {
                        0.0
                    }
                } else {
                    let diff = (x.approximate_days() - y.approximate_days()).abs();
                    if diff < f64::EPSILON {
                        1.0
                    } else if diff <= 31.0 {
                        // Same month neighbourhood: decay linearly.
                        1.0 - diff / 62.0
                    } else {
                        0.0
                    }
                }
            }
            (DataType::Quantity, Number(x), Number(y)) => {
                let max = x.abs().max(y.abs());
                if max < f64::EPSILON {
                    return 1.0;
                }
                let rel = (x - y).abs() / max;
                clamp_unit(1.0 - rel)
            }
            (DataType::NominalInteger, Number(x), Number(y)) if (x.round() - y.round()).abs() < f64::EPSILON => 1.0,
            _ => 0.0,
        }
    }

    /// Whether the two prepared values are *equivalent* under the
    /// comparison type `dtype` given the equivalence configuration.
    pub fn equivalent(&self, other: &PreparedValue, dtype: DataType, cfg: &EquivalenceConfig) -> bool {
        use Payload::{Date, Normalized, Number};
        match (dtype, self.payload(), other.payload()) {
            (DataType::Text, Normalized(x), Normalized(y)) => text_equivalent(x, y, cfg),
            // Mismatched payloads have similarity 0.
            (DataType::Text, _, _) => 0.0 >= cfg.text_threshold,
            (DataType::NominalString | DataType::InstanceReference, Normalized(x), Normalized(y)) => x == y,
            (DataType::Date, Date(x), Date(y)) => date_equivalent(x, y, cfg),
            (DataType::Quantity, Number(x), Number(y)) => quantity_equivalent(x, y, cfg),
            (DataType::NominalInteger, Number(x), Number(y)) => nominal_integer_equivalent(x, y),
            _ => false,
        }
    }
}

/// Running tally of compared value pairs, the `ATTRIBUTE` and
/// `IMPLICIT_ATT` metrics of row clustering and new detection. The paper
/// assigns 1.0 / 0.0 per pair based on data type equality; a pair counts
/// as equal when its similarity reaches 0.95.
#[derive(Debug, Default)]
pub struct Agreement {
    compared: usize,
    agreeing: f64,
    confidence: f64,
}

impl Agreement {
    /// Compare one value pair under `typed`'s data type, adding
    /// `confidence` to the summed confidence.
    pub fn compare(&mut self, typed: &PreparedValue, other: &PreparedValue, confidence: f64) {
        self.agreeing += if typed.similarity(other, typed.data_type()) >= 0.95 { 1.0 } else { 0.0 };
        self.confidence += confidence;
        self.compared += 1;
    }

    /// (share of agreeing pairs, summed confidence), or zeros if nothing
    /// was compared.
    pub fn score(&self) -> (f64, f64) {
        if self.compared == 0 {
            (0.0, 0.0)
        } else {
            (self.agreeing / self.compared as f64, self.confidence)
        }
    }
}

/// Whether two values are *equivalent* under the comparison type `dtype`
/// given the equivalence configuration: both prepared, then
/// [`PreparedValue::equivalent`]. Callers that compare a value against
/// many others prepare it once and call that directly.
pub fn value_equivalent(a: &Value, b: &Value, dtype: DataType, cfg: &EquivalenceConfig) -> bool {
    PreparedValue::new(a).equivalent(&PreparedValue::new(b), dtype, cfg)
}

// The per-type kernels of `PreparedValue::equivalent`, over already
// extracted (and, for text, already normalised) payloads.
// `EquivalenceSet` probes run the same kernels against payloads it
// extracted once, which is what makes the two agree by construction.

fn text_equivalent(x_normalized: &str, y_normalized: &str, cfg: &EquivalenceConfig) -> bool {
    clamp_unit(monge_elkan_normalized(x_normalized, y_normalized)) >= cfg.text_threshold
}

fn date_equivalent(x: Date, y: Date, cfg: &EquivalenceConfig) -> bool {
    if x.granularity == DateGranularity::Year || y.granularity == DateGranularity::Year {
        x.year == y.year
    } else {
        (x.approximate_days() - y.approximate_days()).abs() <= cfg.date_day_tolerance_days
    }
}

fn quantity_equivalent(x: f64, y: f64, cfg: &EquivalenceConfig) -> bool {
    let max = x.abs().max(y.abs());
    if max < f64::EPSILON {
        true
    } else {
        (x - y).abs() / max <= cfg.quantity_tolerance
    }
}

fn nominal_integer_equivalent(x: f64, y: f64) -> bool {
    (x.round() - y.round()).abs() < f64::EPSILON
}

/// A sample of values of one data type, digested once so that the question
/// "is *some* sample value equivalent to `v`?" no longer re-derives
/// anything about the sample per probe.
///
/// By definition, for a set built from `sample` under `dtype`,
/// [`EquivalenceSet::contains_equivalent`]`(v)` equals
/// `sample.iter().any(|s| value_equivalent(v, s, dtype, &EquivalenceConfig::default()))`
/// and [`EquivalenceSet::prefix_contains_equivalent`]`(v, n)` equals the
/// same scan over `sample.iter().take(n)`. The duplicate-free string types
/// answer from a hash map of pre-normalised strings; text keeps its
/// pre-normalised strings and scans them with Monge-Elkan; dates and
/// numbers keep their payloads in a plain array. Sample values whose
/// payload does not fit `dtype` can never be equivalent to anything and
/// only occupy their position.
#[derive(Debug, Clone, PartialEq)]
pub struct EquivalenceSet {
    len: usize,
    digest: Digest,
}

#[derive(Debug, Clone, PartialEq)]
enum Digest {
    /// Normalised string → position of its first occurrence in the sample.
    Exact(HashMap<String, usize>),
    /// Normalised strings, by sample position.
    Text(Vec<Option<String>>),
    Dates(Vec<Option<Date>>),
    Quantities(Vec<Option<f64>>),
    NominalIntegers(Vec<Option<f64>>),
}

impl HeapSize for PreparedValue {
    fn heap_bytes(&self) -> HeapBytes {
        match self {
            PreparedValue::Text(s) | PreparedValue::Nominal(s) | PreparedValue::InstanceRef(s) => s.heap_bytes(),
            PreparedValue::Date(_) | PreparedValue::Quantity(_) | PreparedValue::NominalInt(_) => HeapBytes::ZERO,
        }
    }
}

impl HeapSize for EquivalenceSet {
    fn heap_bytes(&self) -> HeapBytes {
        match &self.digest {
            Digest::Exact(positions) => positions.heap_bytes(),
            Digest::Text(texts) => texts.heap_bytes(),
            Digest::Dates(dates) => dates.heap_bytes(),
            Digest::Quantities(numbers) | Digest::NominalIntegers(numbers) => numbers.heap_bytes(),
        }
    }
}

impl EquivalenceSet {
    /// Digest `sample` (in order) for comparisons under `dtype`.
    pub fn build<'a>(sample: impl IntoIterator<Item = &'a Value>, dtype: DataType) -> Self {
        let mut len = 0;
        let sample = sample.into_iter().inspect(|_| len += 1);
        let normalized = |v: &Value| v.as_str().map(normalize_label);
        let digest = match dtype {
            DataType::NominalString | DataType::InstanceReference => {
                let mut first_position = HashMap::new();
                for (position, value) in sample.enumerate() {
                    if let Some(s) = normalized(value) {
                        first_position.entry(s).or_insert(position);
                    }
                }
                Digest::Exact(first_position)
            }
            DataType::Text => Digest::Text(sample.map(normalized).collect()),
            DataType::Date => Digest::Dates(sample.map(Value::as_date).collect()),
            DataType::Quantity => Digest::Quantities(sample.map(Value::as_f64).collect()),
            DataType::NominalInteger => Digest::NominalIntegers(sample.map(Value::as_f64).collect()),
        };
        Self { len, digest }
    }

    /// Number of sample values the set was built from.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the sample was empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether some sample value is equivalent to `value` under the
    /// default [`EquivalenceConfig`].
    pub fn contains_equivalent(&self, value: &Value) -> bool {
        self.prefix_contains_equivalent(value, self.len)
    }

    /// [`EquivalenceSet::contains_equivalent`] restricted to the first
    /// `limit` sample values.
    pub fn prefix_contains_equivalent(&self, value: &Value, limit: usize) -> bool {
        let cfg = EquivalenceConfig::default();
        match &self.digest {
            Digest::Exact(first_position) => value
                .as_str()
                .and_then(|x| first_position.get(&normalize_label(x)))
                .is_some_and(|&position| position < limit),
            Digest::Text(sample) => value.as_str().is_some_and(|x| {
                let x = normalize_label(x);
                sample.iter().take(limit).flatten().any(|y| text_equivalent(&x, y, &cfg))
            }),
            Digest::Dates(sample) => value
                .as_date()
                .is_some_and(|x| sample.iter().take(limit).flatten().any(|&y| date_equivalent(x, y, &cfg))),
            Digest::Quantities(sample) => value.as_f64().is_some_and(|x| {
                sample.iter().take(limit).flatten().any(|&y| quantity_equivalent(x, y, &cfg))
            }),
            Digest::NominalIntegers(sample) => value
                .as_f64()
                .is_some_and(|x| sample.iter().take(limit).flatten().any(|&y| nominal_integer_equivalent(x, y))),
        }
    }
}

#[cfg(test)]
#[path = "../../text/tests/oracle/mod.rs"]
mod text_oracle;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Date;
    use ltee_text::{monge_elkan_similarity, tokenize};
    use proptest::prelude::*;

    fn cfg() -> EquivalenceConfig {
        EquivalenceConfig::default()
    }

    /// Similarity of two values, each prepared on the spot.
    fn similarity_of(a: &Value, b: &Value, dtype: DataType) -> f64 {
        PreparedValue::new(a).similarity(&PreparedValue::new(b), dtype)
    }

    #[test]
    fn text_similarity_tolerates_small_edits() {
        let a = Value::Text("Tom Brady".into());
        let b = Value::Text("Tom Bradey".into());
        assert!(similarity_of(&a, &b, DataType::Text) > 0.85);
        assert!(value_equivalent(&a, &b, DataType::Text, &cfg()));
    }

    #[test]
    fn text_dissimilar_not_equivalent() {
        let a = Value::Text("Tom Brady".into());
        let b = Value::Text("Peyton Manning".into());
        assert!(!value_equivalent(&a, &b, DataType::Text, &cfg()));
    }

    #[test]
    fn nominal_requires_exact_normalised_match() {
        let a = Value::Nominal("54321".into());
        let b = Value::Nominal("54322".into());
        assert_eq!(similarity_of(&a, &b, DataType::NominalString), 0.0);
        assert!(!value_equivalent(&a, &b, DataType::NominalString, &cfg()));
        let c = Value::Nominal("  54321 ".into());
        assert!(value_equivalent(&a, &c, DataType::NominalString, &cfg()));
    }

    #[test]
    fn instance_ref_matches_by_normalised_label() {
        let a = Value::InstanceRef("Green Bay Packers".into());
        let b = Value::InstanceRef("green bay packers".into());
        assert!(value_equivalent(&a, &b, DataType::InstanceReference, &cfg()));
    }

    #[test]
    fn year_dates_compare_on_year_only() {
        let a = Value::Date(Date::year(1995));
        let b = Value::Date(Date::day(1995, 6, 1));
        assert!(value_equivalent(&a, &b, DataType::Date, &cfg()));
        let c = Value::Date(Date::year(1996));
        assert!(!value_equivalent(&a, &c, DataType::Date, &cfg()));
    }

    #[test]
    fn day_dates_allow_small_tolerance() {
        let a = Value::Date(Date::day(1987, 3, 14));
        let b = Value::Date(Date::day(1987, 3, 15));
        assert!(value_equivalent(&a, &b, DataType::Date, &cfg()));
        let c = Value::Date(Date::day(1987, 5, 15));
        assert!(!value_equivalent(&a, &c, DataType::Date, &cfg()));
    }

    #[test]
    fn quantity_relative_tolerance() {
        let a = Value::Quantity(10_000.0);
        let b = Value::Quantity(10_150.0);
        assert!(value_equivalent(&a, &b, DataType::Quantity, &cfg()));
        let c = Value::Quantity(12_000.0);
        assert!(!value_equivalent(&a, &c, DataType::Quantity, &cfg()));
    }

    #[test]
    fn quantity_zero_equals_zero() {
        let a = Value::Quantity(0.0);
        assert!(value_equivalent(&a, &a, DataType::Quantity, &cfg()));
    }

    #[test]
    fn nominal_integer_adjacent_numbers_not_related() {
        let a = Value::NominalInt(3);
        let b = Value::NominalInt(4);
        assert_eq!(similarity_of(&a, &b, DataType::NominalInteger), 0.0);
        assert!(!value_equivalent(&a, &b, DataType::NominalInteger, &cfg()));
        assert!(value_equivalent(&a, &a, DataType::NominalInteger, &cfg()));
    }

    #[test]
    fn mismatched_payloads_score_zero() {
        let a = Value::Text("abc".into());
        let b = Value::Quantity(4.0);
        assert_eq!(similarity_of(&a, &b, DataType::Quantity), 0.0);
        assert!(!value_equivalent(&a, &b, DataType::Quantity, &cfg()));
    }

    #[test]
    fn tolerance_free_config_rejects_near_quantities() {
        let a = Value::Quantity(100.0);
        let b = Value::Quantity(100.5);
        let strict = EquivalenceConfig { text_threshold: 1.0, quantity_tolerance: 0.0, date_day_tolerance_days: 0.0 };
        assert!(!value_equivalent(&a, &b, DataType::Quantity, &strict));
    }

    #[test]
    fn lenient_config_accepts_outdated_population() {
        let a = Value::Quantity(10_000.0);
        let b = Value::Quantity(10_900.0);
        assert!(value_equivalent(&a, &b, DataType::Quantity, &EquivalenceConfig::lenient()));
    }

    /// A value drawn from small pools chosen to collide: labels differing
    /// only in case / spacing / one edit, empty and whitespace-only strings,
    /// Year- and Day-granularity dates a day or a year apart, quantities
    /// around the 2 % tolerance (zero, negative zero and negatives
    /// included) — and every variant, so each data type also sees payloads
    /// it cannot interpret.
    fn pool_value(code: usize) -> Value {
        const STRINGS: [&str; 12] = [
            "", "   ", "Green Bay Packers", "green  bay packers", "Packers", "Tom Brady",
            "Tom Bradey", "TOM BRADY", "Peyton Manning", "New York", "new-york", "54321",
        ];
        const QUANTITIES: [f64; 12] =
            [0.0, -0.0, 1e-20, 100.0, 101.0, 102.5, -100.0, -101.0, 5.4, 5.5, 1e9, 1.019e9];
        let n = code / 7;
        match code % 7 {
            0 => Value::Text(STRINGS[n % STRINGS.len()].into()),
            1 => Value::Nominal(STRINGS[n % STRINGS.len()].into()),
            2 => Value::InstanceRef(STRINGS[n % STRINGS.len()].into()),
            3 => Value::Date(Date::year(1990 + (n % 4) as i32)),
            4 => Value::Date(Date::day(1990 + (n % 3) as i32, 1 + (n / 3 % 2) as u8, 1 + (n / 6 % 4) as u8)),
            5 => Value::Quantity(QUANTITIES[n % QUANTITIES.len()]),
            _ => Value::NominalInt(n as i64 % 9 - 4),
        }
    }

    /// The similarity of two values as it was before prepared values: every string
    /// comparison normalises both payloads on the spot. The oracle
    /// [`PreparedValue::similarity`] must reproduce bit for bit.
    fn similarity_by_normalising(a: &Value, b: &Value, dtype: DataType) -> f64 {
        match dtype {
            DataType::Text => match (a.as_str(), b.as_str()) {
                (Some(x), Some(y)) => {
                    clamp_unit(monge_elkan_similarity(&normalize_label(x), &normalize_label(y)))
                }
                _ => 0.0,
            },
            DataType::NominalString | DataType::InstanceReference => match (a.as_str(), b.as_str()) {
                (Some(x), Some(y)) => {
                    if normalize_label(x) == normalize_label(y) {
                        1.0
                    } else if dtype == DataType::InstanceReference {
                        let s = monge_elkan_similarity(&normalize_label(x), &normalize_label(y));
                        if s >= 0.9 {
                            s
                        } else {
                            0.0
                        }
                    } else {
                        0.0
                    }
                }
                _ => 0.0,
            },
            DataType::Date => match (a.as_date(), b.as_date()) {
                (Some(x), Some(y)) => {
                    if x.granularity == DateGranularity::Year || y.granularity == DateGranularity::Year {
                        if x.year == y.year {
                            1.0
                        } else {
                            0.0
                        }
                    } else {
                        let diff = (x.approximate_days() - y.approximate_days()).abs();
                        if diff < f64::EPSILON {
                            1.0
                        } else if diff <= 31.0 {
                            1.0 - diff / 62.0
                        } else {
                            0.0
                        }
                    }
                }
                _ => 0.0,
            },
            DataType::Quantity => match (a.as_f64(), b.as_f64()) {
                (Some(x), Some(y)) => {
                    let max = x.abs().max(y.abs());
                    if max < f64::EPSILON {
                        return 1.0;
                    }
                    let rel = (x - y).abs() / max;
                    clamp_unit(1.0 - rel)
                }
                _ => 0.0,
            },
            DataType::NominalInteger => match (a.as_f64(), b.as_f64()) {
                (Some(x), Some(y)) if (x.round() - y.round()).abs() < f64::EPSILON => 1.0,
                _ => 0.0,
            },
        }
    }

    #[test]
    fn pool_has_instance_references_on_both_sides_of_the_partial_credit_cut() {
        let sim = |a: &str, b: &str| {
            similarity_of(
                &Value::InstanceRef(a.into()),
                &Value::InstanceRef(b.into()),
                DataType::InstanceReference,
            )
        };
        // Unequal normal forms, Monge-Elkan at or above 0.9: partial credit.
        let near = sim("Tom Brady", "Tom Bradey");
        assert!((0.9..1.0).contains(&near), "{near}");
        // Related but below the cut: a hard zero.
        assert!(monge_elkan_similarity("green bay packers", "packers") > 0.0);
        assert_eq!(sim("Green Bay Packers", "Packers"), 0.0);
    }

    /// `value_equivalent` as it was before values were held prepared:
    /// every string comparison normalises both payloads on the spot. The
    /// oracle [`PreparedValue::equivalent`] must reproduce.
    fn equivalent_by_normalising(a: &Value, b: &Value, dtype: DataType, cfg: &EquivalenceConfig) -> bool {
        match dtype {
            DataType::Text => match (a.as_str(), b.as_str()) {
                (Some(x), Some(y)) => text_equivalent(&normalize_label(x), &normalize_label(y), cfg),
                // Mismatched payloads have similarity 0.
                _ => 0.0 >= cfg.text_threshold,
            },
            DataType::NominalString | DataType::InstanceReference => match (a.as_str(), b.as_str()) {
                (Some(x), Some(y)) => normalize_label(x) == normalize_label(y),
                _ => false,
            },
            DataType::Date => match (a.as_date(), b.as_date()) {
                (Some(x), Some(y)) => date_equivalent(x, y, cfg),
                _ => false,
            },
            DataType::Quantity => match (a.as_f64(), b.as_f64()) {
                (Some(x), Some(y)) => quantity_equivalent(x, y, cfg),
                _ => false,
            },
            DataType::NominalInteger => match (a.as_f64(), b.as_f64()) {
                (Some(x), Some(y)) => nominal_integer_equivalent(x, y),
                _ => false,
            },
        }
    }

    /// The definition `EquivalenceSet` must reproduce.
    fn oracle(probe: &Value, sample: &[Value], limit: usize, dtype: DataType) -> bool {
        sample.iter().take(limit).any(|s| equivalent_by_normalising(probe, s, dtype, &cfg()))
    }

    #[test]
    fn equivalence_set_of_nothing_contains_nothing() {
        for dtype in DataType::ALL {
            let set = EquivalenceSet::build([], dtype);
            assert!(set.is_empty());
            for code in 0..84 {
                assert!(!set.contains_equivalent(&pool_value(code)));
            }
        }
    }

    proptest! {
        #[test]
        fn similarity_in_unit_interval(x in -1e6f64..1e6, y in -1e6f64..1e6) {
            let a = Value::Quantity(x);
            let b = Value::Quantity(y);
            let s = similarity_of(&a, &b, DataType::Quantity);
            prop_assert!((0.0..=1.0).contains(&s));
        }

        #[test]
        fn quantity_similarity_symmetric(x in -1e6f64..1e6, y in -1e6f64..1e6) {
            let a = Value::Quantity(x);
            let b = Value::Quantity(y);
            let ab = similarity_of(&a, &b, DataType::Quantity);
            let ba = similarity_of(&b, &a, DataType::Quantity);
            prop_assert!((ab - ba).abs() < 1e-12);
        }

        #[test]
        fn equivalence_is_reflexive_for_quantities(x in -1e6f64..1e6) {
            let a = Value::Quantity(x);
            prop_assert!(value_equivalent(&a, &a, DataType::Quantity, &EquivalenceConfig::default()));
        }

        #[test]
        fn text_similarity_reflexive(s in "[a-zA-Z ]{1,20}") {
            prop_assume!(!ltee_text::tokenize(&s).is_empty());
            let v = Value::Text(s.as_str().into());
            let sim = similarity_of(&v, &v, DataType::Text);
            prop_assert!(sim > 0.999);
        }

        #[test]
        fn prepared_similarity_is_bit_identical_to_normalising_per_comparison(
            codes in proptest::collection::vec(0usize..840 * 840, 1usize..60),
            x in -1e6f64..1e6,
            y in -1e6f64..1e6,
            text in "[a-zA-Z .'-]{0,16}",
        ) {
            let mut pairs: Vec<(Value, Value)> =
                codes.iter().map(|&c| (pool_value(c / 840), pool_value(c % 840))).collect();
            pairs.push((Value::Quantity(x), Value::Quantity(y)));
            pairs.push((Value::Quantity(x), Value::NominalInt(y as i64)));
            pairs.push((Value::Text(text.as_str().into()), Value::InstanceRef("Tom Brady".into())));
            pairs.push((Value::Nominal(text.as_str().into()), Value::Text(text.to_uppercase().into())));
            for (a, b) in &pairs {
                let (pa, pb) = (PreparedValue::new(a), PreparedValue::new(b));
                for dtype in DataType::ALL {
                    let expected = similarity_by_normalising(a, b, dtype);
                    prop_assert_eq!(
                        pa.similarity(&pb, dtype).to_bits(), expected.to_bits(),
                        "{:?} vs {:?} as {:?}", a, b, dtype
                    );
                    prop_assert_eq!(pb.similarity(&pa, dtype).to_bits(), expected.to_bits(), "symmetric");
                }
            }
        }

        /// A prepared value keeps its value's data type, and its
        /// equivalence check answers as the unprepared one did, under
        /// every comparison type, payload variant and configuration.
        #[test]
        fn prepared_equivalence_matches_normalising_per_comparison(
            codes in proptest::collection::vec(0usize..840 * 840, 1usize..60),
            x in -1e6f64..1e6,
            y in -1e6f64..1e6,
            text in "[a-zA-Z .'-]{0,16}",
        ) {
            let mut pairs: Vec<(Value, Value)> =
                codes.iter().map(|&c| (pool_value(c / 840), pool_value(c % 840))).collect();
            pairs.push((Value::Quantity(x), Value::Quantity(y)));
            pairs.push((Value::Quantity(x), Value::NominalInt(y as i64)));
            pairs.push((Value::Text(text.as_str().into()), Value::Text(text.to_uppercase().into())));
            pairs.push((Value::Nominal(text.as_str().into()), Value::InstanceRef(text.to_lowercase().into())));
            for (a, b) in &pairs {
                let (pa, pb) = (PreparedValue::new(a), PreparedValue::new(b));
                prop_assert_eq!(pa.data_type(), a.data_type());
                prop_assert_eq!(pb.data_type(), b.data_type());
                for cfg in [EquivalenceConfig::default(), EquivalenceConfig::lenient()] {
                    for dtype in DataType::ALL {
                        prop_assert_eq!(
                            pa.equivalent(&pb, dtype, &cfg),
                            equivalent_by_normalising(a, b, dtype, &cfg),
                            "{:?} vs {:?} as {:?} under {:?}", a, b, dtype, cfg
                        );
                    }
                }
            }
        }

        /// The gated Monge-Elkan behind text and instance-reference
        /// similarity carries the bits of the ungated one over the two-row
        /// DP, on non-ASCII, repeated and past-one-word tokens.
        #[test]
        fn prepared_text_similarity_matches_the_ungated_dp_oracle(
            x in "[a-cé日ß ]{0,16}",
            y in "[a-cé日ß ]{0,16}",
            long in proptest::collection::vec("[ab]{60,70}", 0usize..3),
        ) {
            let x = format!("{x} {}", long.join(" "));
            let y = format!("{} {y} {y}", long.first().map_or("", |t| &t[1..]));
            let px = PreparedValue::new(&Value::Text(x.as_str().into()));
            let py = PreparedValue::new(&Value::Text(y.as_str().into()));
            let tokens = |s: &str| tokenize(&normalize_label(s));
            let expected = super::text_oracle::monge_elkan(&tokens(&x), &tokens(&y));
            prop_assert_eq!(px.similarity(&py, DataType::Text).to_bits(), clamp_unit(expected).to_bits());
            let as_reference = px.similarity(&py, DataType::InstanceReference);
            if normalize_label(&x) != normalize_label(&y) {
                let expected = if expected >= 0.9 { expected } else { 0.0 };
                prop_assert_eq!(as_reference.to_bits(), expected.to_bits());
            }
        }

        #[test]
        fn equivalence_set_agrees_with_the_scan(
            sample_codes in proptest::collection::vec(0usize..840, 0usize..60),
            probe_codes in proptest::collection::vec(0usize..840, 1usize..40),
            cutoff in 0usize..70,
            limit in 0usize..70,
        ) {
            let sample: Vec<Value> = sample_codes.iter().map(|&c| pool_value(c)).collect();
            for dtype in DataType::ALL {
                // Built from a cut-off prefix, as the knowledge base does.
                let set = EquivalenceSet::build(sample.iter().take(cutoff), dtype);
                prop_assert_eq!(set.len(), cutoff.min(sample.len()));
                for probe in probe_codes.iter().map(|&c| pool_value(c)) {
                    prop_assert_eq!(
                        set.contains_equivalent(&probe),
                        oracle(&probe, &sample, cutoff, dtype),
                        "{:?} in first {} of {:?} as {:?}", probe, cutoff, sample, dtype
                    );
                    prop_assert_eq!(
                        set.prefix_contains_equivalent(&probe, limit),
                        oracle(&probe, &sample, cutoff.min(limit), dtype),
                        "{:?} in first {} of {:?} as {:?}", probe, cutoff.min(limit), sample, dtype
                    );
                }
            }
        }
    }
}
