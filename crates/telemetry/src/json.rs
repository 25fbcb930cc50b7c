//! The workspace's one JSON writer: telemetry JSON lines and the
//! deterministic `results/*.json` artifacts both render through [`Json`].
//!
//! Sweep artifacts must be *byte-identical* across worker counts, so the
//! writer is fully deterministic: objects keep insertion order, floats render with Rust's
//! shortest-roundtrip `Display` (platform-independent), and nothing
//! depends on hash iteration order. Non-finite floats render as `null`
//! (JSON has no NaN/Inf).

/// A JSON value with deterministic rendering.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A signed integer (rendered without a fraction).
    Int(i64),
    /// A double; non-finite values render as `null`.
    Float(f64),
    /// A string (escaped per RFC 8259).
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object in **insertion order** — no sorting, no hashing.
    Object(Vec<(String, Json)>),
}

impl Json {
    /// An empty object, to be filled with [`Json::push`].
    pub fn object() -> Json {
        Json::Object(Vec::new())
    }

    /// Appends a key to an object.
    ///
    /// # Panics
    ///
    /// Panics if `self` is not an object.
    pub fn push(&mut self, key: &str, value: impl Into<Json>) -> &mut Self {
        match self {
            Json::Object(entries) => entries.push((key.to_string(), value.into())),
            other => panic!("Json::push on non-object {other:?}"),
        }
        self
    }

    /// Renders to a compact single-line string.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    /// Renders with two-space indentation and a trailing newline —
    /// the format of the `results/*.json` artifacts.
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => out.push_str(&i.to_string()),
            Json::Float(f) => write_f64(*f, out),
            Json::Str(s) => write_escaped(s, out),
            Json::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Object(entries) => {
                out.push('{');
                for (i, (key, value)) in entries.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(key, out);
                    out.push(':');
                    value.write(out);
                }
                out.push('}');
            }
        }
    }

    fn write_pretty(&self, out: &mut String, depth: usize) {
        match self {
            Json::Array(items) if !items.is_empty() => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    out.push_str(if i > 0 { ",\n" } else { "\n" });
                    indent(out, depth + 1);
                    item.write_pretty(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push(']');
            }
            Json::Object(entries) if !entries.is_empty() => {
                out.push('{');
                for (i, (key, value)) in entries.iter().enumerate() {
                    out.push_str(if i > 0 { ",\n" } else { "\n" });
                    indent(out, depth + 1);
                    write_escaped(key, out);
                    out.push_str(": ");
                    value.write_pretty(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push('}');
            }
            other => other.write(out),
        }
    }
}

fn indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

fn write_f64(f: f64, out: &mut String) {
    if !f.is_finite() {
        out.push_str("null");
        return;
    }
    // Rust's shortest-roundtrip Display is deterministic across
    // platforms. Force a fraction so integral floats stay typed as
    // floats on re-read.
    let s = f.to_string();
    out.push_str(&s);
    if !s.contains(['.', 'e', 'E']) {
        out.push_str(".0");
    }
}

fn write_escaped(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}

impl From<i64> for Json {
    fn from(v: i64) -> Json {
        Json::Int(v)
    }
}

impl From<usize> for Json {
    fn from(v: usize) -> Json {
        Json::Int(v as i64)
    }
}

impl From<u64> for Json {
    fn from(v: u64) -> Json {
        Json::Int(v as i64)
    }
}

impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::Float(v)
    }
}

impl From<&str> for Json {
    fn from(v: &str) -> Json {
        Json::Str(v.to_string())
    }
}

impl From<String> for Json {
    fn from(v: String) -> Json {
        Json::Str(v)
    }
}

impl From<Vec<Json>> for Json {
    fn from(v: Vec<Json>) -> Json {
        Json::Array(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compact_rendering() {
        let mut obj = Json::object();
        obj.push("name", "fig11").push("cells", 27usize).push(
            "values",
            Json::Array(vec![Json::Float(0.5), Json::Int(-3), Json::Null]),
        );
        assert_eq!(
            obj.render(),
            r#"{"name":"fig11","cells":27,"values":[0.5,-3,null]}"#
        );
    }

    #[test]
    fn insertion_order_is_preserved() {
        let mut obj = Json::object();
        obj.push("z", 1usize).push("a", 2usize);
        assert_eq!(obj.render(), r#"{"z":1,"a":2}"#);
    }

    #[test]
    fn floats_round_trip_and_stay_floats() {
        assert_eq!(Json::Float(2.0).render(), "2.0");
        assert_eq!(Json::Float(0.1).render(), "0.1");
        assert_eq!(Json::Float(1.5e3).render(), "1500.0");
        assert_eq!(Json::Float(-0.25).render(), "-0.25");
        assert_eq!(Json::Float(f64::NAN).render(), "null");
        assert_eq!(Json::Float(f64::INFINITY).render(), "null");
    }

    #[test]
    fn strings_escape() {
        assert_eq!(
            Json::Str("a\"b\\c\nd\u{1}".into()).render(),
            "\"a\\\"b\\\\c\\nd\\u0001\""
        );
    }

    #[test]
    fn pretty_rendering() {
        let mut inner = Json::object();
        inner.push("x", 1usize);
        let mut obj = Json::object();
        obj.push(
            "rows",
            Json::Array(vec![Json::Object(match inner {
                Json::Object(e) => e,
                _ => unreachable!(),
            })]),
        );
        obj.push("empty", Json::Array(Vec::new()));
        let expected = "{\n  \"rows\": [\n    {\n      \"x\": 1\n    }\n  ],\n  \"empty\": []\n}\n";
        assert_eq!(obj.render_pretty(), expected);
    }
}
