//! Rule-based data type detection.
//!
//! "The data type detection is performed using manually defined regular
//! expressions. We decide the data type of an attribute based on the
//! majority data type among its values" (paper Section 3.1). Instead of
//! regular expressions we use equivalent hand-written parsers, which keeps
//! the crate dependency-free and makes the recognised shapes explicit.

use crate::datatype::DetectedType;
use crate::value::{Date, Value};

/// Result of parsing a single raw cell.
#[derive(Debug, Clone, PartialEq)]
pub struct DetectedCell {
    /// The coarse detected type of the cell.
    pub detected: DetectedType,
    /// The parsed value (a text, date or quantity payload).
    pub value: Value,
}

/// Detect the coarse type of a single cell and parse its payload.
///
/// Recognised shapes, in priority order:
/// 1. Dates: `YYYY-MM-DD`, `MM/DD/YYYY`, `DD.MM.YYYY`, `Month DD, YYYY`,
///    bare years `1000..=2100`.
/// 2. Quantities: integers and decimals with optional thousands separators,
///    optional sign, optional unit suffix (`cm`, `kg`, `m`, `km`, `%`,
///    `lbs`, `ft`, `in`, `s`, `min`) and duration notation `m:ss`.
/// 3. Everything else is text.
pub fn detect_cell_type(raw: &str) -> DetectedCell {
    let trimmed = raw.trim();
    if let Some(date) = parse_date(trimmed) {
        return DetectedCell { detected: DetectedType::Date, value: Value::Date(date) };
    }
    if let Some(q) = parse_quantity(trimmed) {
        return DetectedCell { detected: DetectedType::Quantity, value: Value::Quantity(q) };
    }
    DetectedCell { detected: DetectedType::Text, value: Value::Text(trimmed.into()) }
}

/// Detect the type of a whole attribute column by majority vote over its
/// non-empty cells. Ties are broken in favour of `Text`, then `Quantity`,
/// then `Date` (the safest fallback ordering: a text column mis-typed as a
/// date is worse than the reverse).
pub fn detect_column_type<'a, I: IntoIterator<Item = &'a str>>(cells: I) -> DetectedType {
    let mut counts = [0usize; 3];
    let mut any = false;
    for cell in cells {
        if cell.trim().is_empty() {
            continue;
        }
        any = true;
        match detect_cell_type(cell).detected {
            DetectedType::Text => counts[0] += 1,
            DetectedType::Date => counts[1] += 1,
            DetectedType::Quantity => counts[2] += 1,
        }
    }
    if !any {
        return DetectedType::Text;
    }
    // Majority with deterministic tie-breaking: text >= quantity >= date.
    let text = counts[0];
    let date = counts[1];
    let quantity = counts[2];
    if text >= date && text >= quantity {
        DetectedType::Text
    } else if quantity >= date {
        DetectedType::Quantity
    } else {
        DetectedType::Date
    }
}

/// Parse a raw cell string directly into a value of the given target data
/// type, normalising it the way the attribute-to-property matcher does after
/// a column has been matched to a property.
///
/// Returns `None` when the cell is empty or cannot be interpreted in the
/// target type.
pub fn parse_cell_as(raw: &str, target: crate::datatype::DataType) -> Option<Value> {
    let trimmed = raw.trim();
    if trimmed.is_empty() {
        return None;
    }
    let detected = detect_cell_type(trimmed);
    match detected.value.coerce_to(target) {
        Some(v) => Some(v),
        None => {
            // A text payload may still be acceptable for string-like targets.
            if target.is_string_like() {
                Some(Value::Text(trimmed.into()).coerce_to(target).unwrap_or_else(|| Value::Text(trimmed.into())))
            } else {
                None
            }
        }
    }
}

const MONTH_NAMES: [(&str, u8); 24] = [
    ("january", 1), ("february", 2), ("march", 3), ("april", 4), ("may", 5), ("june", 6),
    ("july", 7), ("august", 8), ("september", 9), ("october", 10), ("november", 11), ("december", 12),
    ("jan", 1), ("feb", 2), ("mar", 3), ("apr", 4), ("jun", 6), ("jul", 7),
    ("aug", 8), ("sep", 9), ("oct", 10), ("nov", 11), ("dec", 12), ("sept", 9),
];

fn month_from_name(name: &str) -> Option<u8> {
    let lower = name.to_lowercase();
    let lower = lower.trim_end_matches('.');
    MONTH_NAMES.iter().find(|(n, _)| *n == lower).map(|(_, m)| *m)
}

fn plausible_year(y: i64) -> bool {
    (1000..=2100).contains(&y)
}

/// Try to parse a date from the supported formats.
pub fn parse_date(s: &str) -> Option<Date> {
    let s = s.trim();
    if s.is_empty() {
        return None;
    }
    // Bare year.
    if let Ok(y) = s.parse::<i64>() {
        if plausible_year(y) {
            return Some(Date::year(y as i32));
        }
        return None;
    }
    // ISO: YYYY-MM-DD
    if let Some(d) = parse_separated_date(s, '-', true) {
        return Some(d);
    }
    // US: MM/DD/YYYY
    if let Some(d) = parse_separated_date(s, '/', false) {
        return Some(d);
    }
    // European: DD.MM.YYYY
    if let Some(d) = parse_dotted_date(s) {
        return Some(d);
    }
    // Month DD, YYYY  /  DD Month YYYY
    parse_textual_date(s)
}

fn parse_separated_date(s: &str, sep: char, year_first: bool) -> Option<Date> {
    let parts: Vec<&str> = s.split(sep).collect();
    if parts.len() != 3 {
        return None;
    }
    let nums: Option<Vec<i64>> = parts.iter().map(|p| p.trim().parse::<i64>().ok()).collect();
    let nums = nums?;
    let (y, m, d) = if year_first {
        (nums[0], nums[1], nums[2])
    } else {
        (nums[2], nums[0], nums[1])
    };
    if plausible_year(y) && (1..=12).contains(&m) && (1..=31).contains(&d) {
        Some(Date::day(y as i32, m as u8, d as u8))
    } else {
        None
    }
}

fn parse_dotted_date(s: &str) -> Option<Date> {
    let parts: Vec<&str> = s.split('.').collect();
    if parts.len() != 3 {
        return None;
    }
    let nums: Option<Vec<i64>> = parts.iter().map(|p| p.trim().parse::<i64>().ok()).collect();
    let nums = nums?;
    let (d, m, y) = (nums[0], nums[1], nums[2]);
    if plausible_year(y) && (1..=12).contains(&m) && (1..=31).contains(&d) {
        Some(Date::day(y as i32, m as u8, d as u8))
    } else {
        None
    }
}

fn parse_textual_date(s: &str) -> Option<Date> {
    let cleaned = s.replace(',', " ");
    let parts: Vec<&str> = cleaned.split_whitespace().collect();
    if parts.len() != 3 {
        return None;
    }
    // Month DD YYYY
    if let Some(m) = month_from_name(parts[0]) {
        let d = parts[1].parse::<i64>().ok()?;
        let y = parts[2].parse::<i64>().ok()?;
        if plausible_year(y) && (1..=31).contains(&d) {
            return Some(Date::day(y as i32, m, d as u8));
        }
    }
    // DD Month YYYY
    if let Some(m) = month_from_name(parts[1]) {
        let d = parts[0].parse::<i64>().ok()?;
        let y = parts[2].parse::<i64>().ok()?;
        if plausible_year(y) && (1..=31).contains(&d) {
            return Some(Date::day(y as i32, m, d as u8));
        }
    }
    None
}

const UNIT_SUFFIXES: [&str; 12] =
    ["cm", "kg", "km", "lbs", "lb", "ft", "in", "min", "m", "s", "%", "people"];

/// Try to parse a numeric quantity. Handles thousands separators, decimal
/// points, unit suffixes and `m:ss` duration notation (converted to
/// seconds).
pub fn parse_quantity(s: &str) -> Option<f64> {
    let s = s.trim();
    if s.is_empty() {
        return None;
    }
    // Duration m:ss or h:mm:ss → seconds.
    if s.contains(':') {
        let parts: Vec<&str> = s.split(':').collect();
        if (2..=3).contains(&parts.len()) && parts.iter().all(|p| !p.is_empty() && p.chars().all(|c| c.is_ascii_digit())) {
            let mut total = 0.0;
            for p in &parts {
                total = total * 60.0 + p.parse::<f64>().ok()?;
            }
            return Some(total);
        }
        return None;
    }
    let mut body = s.to_lowercase();
    for unit in UNIT_SUFFIXES {
        if let Some(stripped) = body.strip_suffix(unit) {
            body = stripped.trim().to_string();
            break;
        }
    }
    let body = body.replace([',', ' '], "");
    if body.is_empty() {
        return None;
    }
    let negative = body.starts_with('-');
    let digits = body.trim_start_matches(['-', '+']);
    if digits.is_empty() || !digits.chars().all(|c| c.is_ascii_digit() || c == '.') {
        return None;
    }
    if digits.chars().filter(|c| *c == '.').count() > 1 {
        return None;
    }
    let value: f64 = digits.parse().ok()?;
    Some(if negative { -value } else { value })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::DateGranularity;
    use proptest::prelude::*;

    #[test]
    fn detects_iso_date() {
        let d = parse_date("1987-03-14").unwrap();
        assert_eq!((d.year, d.month, d.day), (1987, 3, 14));
        assert_eq!(d.granularity, DateGranularity::Day);
    }

    #[test]
    fn detects_us_date() {
        let d = parse_date("03/14/1987").unwrap();
        assert_eq!((d.year, d.month, d.day), (1987, 3, 14));
    }

    #[test]
    fn detects_european_date() {
        let d = parse_date("14.03.1987").unwrap();
        assert_eq!((d.year, d.month, d.day), (1987, 3, 14));
    }

    #[test]
    fn detects_textual_date_month_first() {
        let d = parse_date("March 14, 1987").unwrap();
        assert_eq!((d.year, d.month, d.day), (1987, 3, 14));
    }

    #[test]
    fn detects_textual_date_day_first() {
        let d = parse_date("14 March 1987").unwrap();
        assert_eq!((d.year, d.month, d.day), (1987, 3, 14));
    }

    #[test]
    fn detects_bare_year() {
        let d = parse_date("2004").unwrap();
        assert_eq!(d.granularity, DateGranularity::Year);
        assert_eq!(d.year, 2004);
    }

    #[test]
    fn rejects_out_of_range_year() {
        assert!(parse_date("42").is_none());
        assert!(parse_date("9999").is_none());
    }

    #[test]
    fn rejects_invalid_month() {
        assert!(parse_date("1987-13-01").is_none());
    }

    #[test]
    fn parses_plain_integer_quantity() {
        assert_eq!(parse_quantity("42"), Some(42.0));
    }

    #[test]
    fn parses_thousands_separated_quantity() {
        assert_eq!(parse_quantity("1,234,567"), Some(1_234_567.0));
    }

    #[test]
    fn parses_decimal_with_unit() {
        assert_eq!(parse_quantity("1.85 m"), Some(1.85));
        assert_eq!(parse_quantity("104 kg"), Some(104.0));
    }

    #[test]
    fn parses_negative_quantity() {
        assert_eq!(parse_quantity("-12"), Some(-12.0));
    }

    #[test]
    fn parses_duration_as_seconds() {
        assert_eq!(parse_quantity("3:45"), Some(225.0));
        assert_eq!(parse_quantity("1:02:03"), Some(3723.0));
    }

    #[test]
    fn rejects_text_as_quantity() {
        assert!(parse_quantity("Green Bay").is_none());
        assert!(parse_quantity("4th round").is_none());
    }

    #[test]
    fn parse_cell_as_quantity_and_nominal_int() {
        use crate::datatype::DataType;
        assert_eq!(parse_cell_as("1,234", DataType::Quantity), Some(Value::Quantity(1234.0)));
        assert_eq!(parse_cell_as("7", DataType::NominalInteger), Some(Value::NominalInt(7)));
        assert!(parse_cell_as("Tom", DataType::Quantity).is_none());
    }

    #[test]
    fn parse_cell_as_string_like_targets_accept_text() {
        use crate::datatype::DataType;
        assert_eq!(
            parse_cell_as("Green Bay", DataType::InstanceReference),
            Some(Value::InstanceRef("Green Bay".into()))
        );
        assert_eq!(parse_cell_as("QB", DataType::NominalString), Some(Value::Nominal("QB".into())));
    }

    #[test]
    fn parse_cell_as_date_and_empty() {
        use crate::datatype::DataType;
        let v = parse_cell_as("14 March 1987", DataType::Date).unwrap();
        assert_eq!(v.as_date().unwrap().year, 1987);
        assert!(parse_cell_as("   ", DataType::Date).is_none());
    }

    #[test]
    fn cell_detection_priority_date_over_quantity() {
        assert_eq!(detect_cell_type("1987").detected, DetectedType::Date);
        assert_eq!(detect_cell_type("87").detected, DetectedType::Quantity);
        assert_eq!(detect_cell_type("Tom Brady").detected, DetectedType::Text);
    }

    #[test]
    fn column_detection_majority_vote() {
        let col = ["12", "7", "Tom", "19", "88"];
        assert_eq!(detect_column_type(col.iter().copied()), DetectedType::Quantity);
    }

    #[test]
    fn column_detection_ignores_empty_cells() {
        let col = ["", "  ", "1987-01-02", "1988-02-03"];
        assert_eq!(detect_column_type(col.iter().copied()), DetectedType::Date);
    }

    #[test]
    fn column_detection_defaults_to_text_when_empty() {
        let col: [&str; 0] = [];
        assert_eq!(detect_column_type(col.iter().copied()), DetectedType::Text);
    }

    #[test]
    fn column_detection_tie_prefers_text() {
        let col = ["hello", "42"];
        assert_eq!(detect_column_type(col.iter().copied()), DetectedType::Text);
    }

    proptest! {
        #[test]
        fn detect_never_panics(s in ".{0,40}") {
            let _ = detect_cell_type(&s);
        }

        #[test]
        fn quantities_roundtrip(x in -1_000_000i64..1_000_000) {
            let s = x.to_string();
            prop_assert_eq!(parse_quantity(&s), Some(x as f64));
        }

        #[test]
        fn plausible_years_detected_as_dates(y in 1000i32..=2100) {
            let cell = detect_cell_type(&y.to_string());
            prop_assert_eq!(cell.detected, DetectedType::Date);
        }
    }
}
