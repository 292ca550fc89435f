//! Dynamically-typed scalar values used at table boundaries (parsing,
//! filtering literals). Hot paths operate on typed columns instead.

use std::cmp::Ordering;
use std::fmt;

/// A single scalar cell value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// 64-bit float.
    Float(f64),
    /// 64-bit signed integer.
    Int(i64),
    /// UTF-8 string.
    Str(String),
    /// Missing value.
    Null,
}

impl Value {
    /// Returns the value as an `f64` if it is numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Float(v) => Some(*v),
            Value::Int(v) => Some(*v as f64),
            _ => None,
        }
    }

    /// Returns the value as an `i64` if it is an integer.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// Returns the value as a string slice if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// True if the value is [`Value::Null`].
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Total order used for filtering: numerics compare numerically (ints are
    /// widened to floats), strings lexicographically, and nulls sort first.
    /// Cross-type comparisons order Null < numeric < string.
    pub fn total_cmp(&self, other: &Value) -> Ordering {
        use Value::*;
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Null, _) => Ordering::Less,
            (_, Null) => Ordering::Greater,
            (Str(a), Str(b)) => a.cmp(b),
            (Str(_), _) => Ordering::Greater,
            (_, Str(_)) => Ordering::Less,
            (a, b) => {
                // Both numeric at this point.
                let (a, b) = (a.as_f64().unwrap(), b.as_f64().unwrap());
                a.total_cmp(&b)
            }
        }
    }

    /// Parses a raw text token into the most specific value type:
    /// empty → Null, integer → Int, float → Float, otherwise → Str.
    pub fn infer(token: &str) -> Value {
        match Token::infer(token) {
            Token::Null => Value::Null,
            Token::Int(i) => Value::Int(i),
            Token::Float(x) => Value::Float(x),
            Token::Str(s) => Value::Str(s.to_owned()),
        }
    }
}

/// A cell's text read by [`Value::infer`]'s rules, a string borrowed
/// rather than copied: what a reader hands a column builder.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Token<'a> {
    Null,
    Int(i64),
    Float(f64),
    Str(&'a str),
}

impl<'a> Token<'a> {
    /// Trimmed, an empty or `null` (any case) token is null; then the
    /// first of `i64`, `f64` that parses it; otherwise its trimmed text.
    pub(crate) fn infer(token: &'a str) -> Self {
        let trimmed = token.trim();
        if trimmed.is_empty() || trimmed.eq_ignore_ascii_case("null") {
            return Token::Null;
        }
        if let Ok(i) = trimmed.parse::<i64>() {
            return Token::Int(i);
        }
        if let Ok(f) = trimmed.parse::<f64>() {
            return Token::Float(f);
        }
        Token::Str(trimmed)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Float(v) => write!(f, "{v}"),
            Value::Int(v) => write!(f, "{v}"),
            Value::Str(s) => write!(f, "{s}"),
            Value::Null => write!(f, "null"),
        }
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_owned())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn infer_types() {
        assert_eq!(Value::infer("42"), Value::Int(42));
        assert_eq!(Value::infer("-17"), Value::Int(-17));
        assert_eq!(Value::infer("3.5"), Value::Float(3.5));
        assert_eq!(Value::infer("1e3"), Value::Float(1000.0));
        assert_eq!(Value::infer("abc"), Value::Str("abc".into()));
        assert_eq!(Value::infer(""), Value::Null);
        assert_eq!(Value::infer("  NULL "), Value::Null);
    }

    #[test]
    fn numeric_widening_in_cmp() {
        assert_eq!(Value::Int(2).total_cmp(&Value::Float(2.0)), Ordering::Equal);
        assert_eq!(Value::Int(1).total_cmp(&Value::Float(1.5)), Ordering::Less);
        assert_eq!(
            Value::Float(3.0).total_cmp(&Value::Int(2)),
            Ordering::Greater
        );
    }

    #[test]
    fn null_sorts_first_strings_last() {
        assert_eq!(Value::Null.total_cmp(&Value::Int(0)), Ordering::Less);
        assert_eq!(
            Value::Int(0).total_cmp(&Value::Str("a".into())),
            Ordering::Less
        );
        assert_eq!(
            Value::Str("a".into()).total_cmp(&Value::Str("b".into())),
            Ordering::Less
        );
    }

    #[test]
    fn accessors() {
        assert_eq!(Value::Int(5).as_f64(), Some(5.0));
        assert_eq!(Value::Float(2.5).as_f64(), Some(2.5));
        assert_eq!(Value::Str("x".into()).as_f64(), None);
        assert_eq!(Value::Str("x".into()).as_str(), Some("x"));
        assert!(Value::Null.is_null());
    }

    #[test]
    fn display_round_trips_numbers() {
        assert_eq!(Value::Int(7).to_string(), "7");
        assert_eq!(Value::Float(1.25).to_string(), "1.25");
        assert_eq!(Value::Null.to_string(), "null");
    }
}
