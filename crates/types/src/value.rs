//! Typed values: knowledge base facts and normalised web table cells.

use crate::datatype::DataType;

/// Granularity of a [`Date`] value (paper: "date with two possible
/// granularities: year or specific day").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DateGranularity {
    /// Only the year is known (e.g. a draft year).
    Year,
    /// A full calendar day is known (e.g. a birth date).
    Day,
}

/// A calendar date with explicit granularity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Date {
    /// Calendar year.
    pub year: i32,
    /// Month in `1..=12`; only meaningful at [`DateGranularity::Day`].
    pub month: u8,
    /// Day of month in `1..=31`; only meaningful at [`DateGranularity::Day`].
    pub day: u8,
    /// Granularity of this date.
    pub granularity: DateGranularity,
}

impl Date {
    /// Construct a year-granularity date.
    pub fn year(year: i32) -> Self {
        Self { year, month: 1, day: 1, granularity: DateGranularity::Year }
    }

    /// Construct a day-granularity date. Months and days are clamped into
    /// valid ranges rather than rejected: web table dates are noisy and a
    /// clamped date remains useful for similarity comparison.
    pub fn day(year: i32, month: u8, day: u8) -> Self {
        Self {
            year,
            month: month.clamp(1, 12),
            day: day.clamp(1, 31),
            granularity: DateGranularity::Day,
        }
    }

    /// A coarse linearisation of the date (days since year zero, assuming
    /// 365.25-day years and 30.44-day months), used for tolerance-based
    /// comparison of dates.
    pub fn approximate_days(&self) -> f64 {
        self.year as f64 * 365.25 + (self.month as f64 - 1.0) * 30.44 + (self.day as f64 - 1.0)
    }
}

impl std::fmt::Display for Date {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.granularity {
            DateGranularity::Year => write!(f, "{}", self.year),
            DateGranularity::Day => write!(f, "{:04}-{:02}-{:02}", self.year, self.month, self.day),
        }
    }
}

/// A typed value.
///
/// Knowledge base facts and normalised (matched) web table cells are both
/// represented as `Value`s, which is what allows the `ATTRIBUTE` metrics,
/// the duplicate-based schema matchers and the fusion component to compare
/// them with data-type specific similarity functions.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Free text.
    Text(Box<str>),
    /// Nominal string (exact match only).
    Nominal(Box<str>),
    /// Reference to a knowledge base instance, by canonical label.
    ///
    /// The paper's instance references point at DBpedia resources; we store
    /// the referenced instance's canonical label, which is how references
    /// appear inside web tables.
    InstanceRef(Box<str>),
    /// Calendar date.
    Date(Date),
    /// Numeric quantity.
    Quantity(f64),
    /// Nominal integer (exact match only, numeric closeness irrelevant).
    NominalInt(i64),
}

ltee_intern::heap_size!(Date {});

impl ltee_intern::HeapSize for Value {
    fn heap_bytes(&self) -> ltee_intern::HeapBytes {
        match self {
            Value::Text(s) | Value::Nominal(s) | Value::InstanceRef(s) => s.heap_bytes(),
            Value::Date(_) | Value::Quantity(_) | Value::NominalInt(_) => ltee_intern::HeapBytes::ZERO,
        }
    }
}

impl Value {
    /// The data type of this value.
    pub fn data_type(&self) -> DataType {
        match self {
            Value::Text(_) => DataType::Text,
            Value::Nominal(_) => DataType::NominalString,
            Value::InstanceRef(_) => DataType::InstanceReference,
            Value::Date(_) => DataType::Date,
            Value::Quantity(_) => DataType::Quantity,
            Value::NominalInt(_) => DataType::NominalInteger,
        }
    }

    /// The string payload for string-like values.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Text(s) | Value::Nominal(s) | Value::InstanceRef(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload for numeric values (quantities and nominal
    /// integers).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Quantity(q) => Some(*q),
            Value::NominalInt(i) => Some(*i as f64),
            _ => None,
        }
    }

    /// The date payload, if this is a date value.
    pub fn as_date(&self) -> Option<Date> {
        match self {
            Value::Date(d) => Some(*d),
            _ => None,
        }
    }

    /// Render the value as the kind of string one would find in a web table
    /// cell. Used by the synthetic corpus generator and by bag-of-words
    /// construction.
    pub fn render(&self) -> String {
        match self {
            Value::Text(s) | Value::Nominal(s) | Value::InstanceRef(s) => s.to_string(),
            Value::Date(d) => d.to_string(),
            Value::Quantity(q) => {
                if (q.fract()).abs() < 1e-9 {
                    format!("{}", *q as i64)
                } else {
                    format!("{q:.2}")
                }
            }
            Value::NominalInt(i) => i.to_string(),
        }
    }

    /// Re-type a value to the data type of a matched knowledge base
    /// property ("After matching, the data type of the attribute is changed
    /// to the data type of the matched property and the values are
    /// accordingly normalized", Section 3.1).
    ///
    /// Returns `None` if the payload cannot be represented in the target
    /// type (e.g. free text re-typed as a quantity).
    pub fn coerce_to(&self, target: DataType) -> Option<Value> {
        match (self, target) {
            (Value::Text(s), DataType::Text) => Some(Value::Text(s.clone())),
            (Value::Text(s) | Value::Nominal(s) | Value::InstanceRef(s), DataType::NominalString) => {
                Some(Value::Nominal(s.clone()))
            }
            (Value::Text(s) | Value::Nominal(s) | Value::InstanceRef(s), DataType::InstanceReference) => {
                Some(Value::InstanceRef(s.clone()))
            }
            (Value::Nominal(s) | Value::InstanceRef(s), DataType::Text) => Some(Value::Text(s.clone())),
            (Value::Date(d), DataType::Date) => Some(Value::Date(*d)),
            (Value::Date(d), DataType::Quantity) => Some(Value::Quantity(d.year as f64)),
            (Value::Date(d), DataType::NominalInteger) => Some(Value::NominalInt(d.year as i64)),
            (Value::Quantity(q), DataType::Quantity) => Some(Value::Quantity(*q)),
            (Value::Quantity(q), DataType::NominalInteger) => Some(Value::NominalInt(q.round() as i64)),
            (Value::Quantity(q), DataType::Date) => {
                let year = q.round() as i32;
                if (1000..=2100).contains(&year) {
                    Some(Value::Date(Date::year(year)))
                } else {
                    None
                }
            }
            (Value::NominalInt(i), DataType::NominalInteger) => Some(Value::NominalInt(*i)),
            (Value::NominalInt(i), DataType::Quantity) => Some(Value::Quantity(*i as f64)),
            (Value::NominalInt(i), DataType::Date) => {
                if (1000..=2100).contains(&(*i as i32 as i64)) {
                    Some(Value::Date(Date::year(*i as i32)))
                } else {
                    None
                }
            }
            _ => None,
        }
    }
}

impl std::fmt::Display for Value {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn data_type_roundtrip() {
        assert_eq!(Value::Text("x".into()).data_type(), DataType::Text);
        assert_eq!(Value::Quantity(2.0).data_type(), DataType::Quantity);
        assert_eq!(Value::NominalInt(7).data_type(), DataType::NominalInteger);
        assert_eq!(Value::Date(Date::year(1999)).data_type(), DataType::Date);
    }

    #[test]
    fn year_date_displays_year_only() {
        assert_eq!(Date::year(2010).to_string(), "2010");
    }

    #[test]
    fn day_date_displays_iso() {
        assert_eq!(Date::day(1977, 8, 4).to_string(), "1977-08-04");
    }

    #[test]
    fn day_constructor_clamps_invalid_months() {
        let d = Date::day(2000, 14, 40);
        assert_eq!(d.month, 12);
        assert_eq!(d.day, 31);
    }

    #[test]
    fn render_quantity_drops_trailing_zeroes() {
        assert_eq!(Value::Quantity(42.0).render(), "42");
        assert_eq!(Value::Quantity(1.85).render(), "1.85");
    }

    #[test]
    fn coerce_text_to_nominal_and_back() {
        let v = Value::Text("DE".into());
        let n = v.coerce_to(DataType::NominalString).unwrap();
        assert_eq!(n, Value::Nominal("DE".into()));
        assert_eq!(n.coerce_to(DataType::Text).unwrap(), Value::Text("DE".into()));
    }

    #[test]
    fn coerce_quantity_to_date_requires_plausible_year() {
        assert!(Value::Quantity(1987.0).coerce_to(DataType::Date).is_some());
        assert!(Value::Quantity(17.0).coerce_to(DataType::Date).is_none());
    }

    #[test]
    fn coerce_date_to_quantity_uses_year() {
        let v = Value::Date(Date::day(2004, 5, 1));
        assert_eq!(v.coerce_to(DataType::Quantity).unwrap(), Value::Quantity(2004.0));
    }

    #[test]
    fn coerce_text_to_quantity_fails() {
        assert!(Value::Text("hello".into()).coerce_to(DataType::Quantity).is_none());
    }

    #[test]
    fn approximate_days_is_monotone_in_year() {
        assert!(Date::year(2001).approximate_days() > Date::year(2000).approximate_days());
    }

    #[test]
    fn approximate_days_is_monotone_in_month() {
        assert!(Date::day(2000, 6, 1).approximate_days() > Date::day(2000, 5, 1).approximate_days());
    }
}
