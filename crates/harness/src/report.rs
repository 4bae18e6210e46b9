//! A tiny canonical JSON writer.
//!
//! The report is built from this value type and rendered by hand.
//! "Canonical" means the bytes are a pure function of the value: object
//! keys appear in insertion order (which the runner fixes in code), floats
//! always render with four decimals, fingerprints render as fixed-width
//! hex strings, and indentation is two spaces throughout. Rendering the
//! same report twice — or from runs at different thread counts — yields
//! identical bytes, which the CI smoke job checks with a plain byte
//! comparison.

use std::fmt::Write as _;

/// One JSON value. Construct with the helper constructors; render with
/// [`Json::render`].
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer (all counters in the report are unsigned).
    Uint(u64),
    /// A float, canonically rendered with four decimals.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; keys render in the order they were pushed.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// A string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// An unsigned counter.
    pub fn uint(n: usize) -> Json {
        Json::Uint(n as u64)
    }

    /// A fingerprint as a fixed-width hex string (`"0x1234567890abcdef"`),
    /// not a number: 64-bit values do not survive JSON number parsing.
    pub fn hex(fp: u64) -> Json {
        Json::Str(format!("{fp:#018x}"))
    }

    /// An empty object to be filled with [`Json::push`].
    pub fn obj() -> Json {
        Json::Obj(Vec::new())
    }

    /// Append a key to an object (panics on non-objects — report
    /// construction is all static code).
    pub fn push(&mut self, key: &str, value: Json) -> &mut Json {
        match self {
            Json::Obj(fields) => fields.push((key.to_string(), value)),
            other => panic!("push on non-object {other:?}"),
        }
        self
    }

    /// Render to the canonical text form (trailing newline included).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => {
                out.push_str(if *b { "true" } else { "false" });
            }
            Json::Uint(n) => {
                let _ = write!(out, "{n}");
            }
            Json::Float(x) => {
                // Fixed four decimals: enough for ratios in [0, 1] and
                // immune to shortest-representation drift.
                let _ = write!(out, "{x:.4}");
            }
            Json::Str(s) => {
                out.push('"');
                for c in s.chars() {
                    match c {
                        '"' => out.push_str("\\\""),
                        '\\' => out.push_str("\\\\"),
                        '\n' => out.push_str("\\n"),
                        '\r' => out.push_str("\\r"),
                        '\t' => out.push_str("\\t"),
                        c if (c as u32) < 0x20 => {
                            let _ = write!(out, "\\u{:04x}", c as u32);
                        }
                        c => out.push(c),
                    }
                }
                out.push('"');
            }
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    pad(out, indent + 1);
                    item.write(out, indent + 1);
                    if i + 1 < items.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                pad(out, indent);
                out.push(']');
            }
            Json::Obj(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push_str("{\n");
                for (i, (key, value)) in fields.iter().enumerate() {
                    pad(out, indent + 1);
                    let _ = write!(out, "\"{key}\": ");
                    value.write(out, indent + 1);
                    if i + 1 < fields.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                pad(out, indent);
                out.push('}');
            }
        }
    }
}

fn pad(out: &mut String, indent: usize) {
    for _ in 0..indent {
        out.push_str("  ");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rendering_is_canonical() {
        let mut report = Json::obj();
        report.push("name", Json::str("steady-read"));
        report.push("seed", Json::uint(42));
        report.push("share", Json::Float(0.5));
        report.push("ok", Json::Bool(true));
        report.push("fp", Json::hex(0xdead_beef));
        report.push("phases", Json::Arr(vec![Json::uint(1), Json::uint(2)]));
        report.push("empty", Json::obj());
        let expected = "{\n  \"name\": \"steady-read\",\n  \"seed\": 42,\n  \"share\": 0.5000,\n  \"ok\": true,\n  \"fp\": \"0x00000000deadbeef\",\n  \"phases\": [\n    1,\n    2\n  ],\n  \"empty\": {}\n}\n";
        assert_eq!(report.render(), expected);
        // Byte-stable across repeated renders.
        assert_eq!(report.render(), report.render());
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(Json::str("a\"b\\c\nd\u{1}").render(), "\"a\\\"b\\\\c\\nd\\u0001\"\n");
        // Non-ASCII passes through as UTF-8 (no \u escaping needed).
        assert_eq!(Json::str("İstanbul").render(), "\"İstanbul\"\n");
    }
}
