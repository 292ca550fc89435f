//! Filter predicates — the `f` constraints of the paper's visual parameters.
//! Users apply on-the-fly filters on values and attributes (e.g.
//! `luminosity < 90 && luminosity > 10` in Figure 1c).

use crate::value::Value;
use std::cmp::Ordering;
use std::fmt;

/// Comparison operator for predicates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompareOp {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Less than.
    Lt,
    /// Less than or equal.
    Le,
    /// Greater than.
    Gt,
    /// Greater than or equal.
    Ge,
}

impl CompareOp {
    /// Parses an operator's symbol or short name: `=`/`==`/`eq`, `!=`/`ne`,
    /// `<`/`lt`, `<=`/`le`, `>`/`gt`, `>=`/`ge`.
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "=" | "==" | "eq" => Some(CompareOp::Eq),
            "!=" | "ne" => Some(CompareOp::Ne),
            "<" | "lt" => Some(CompareOp::Lt),
            "<=" | "le" => Some(CompareOp::Le),
            ">" | "gt" => Some(CompareOp::Gt),
            ">=" | "ge" => Some(CompareOp::Ge),
            _ => None,
        }
    }

    fn eval(self, ord: Ordering) -> bool {
        match self {
            CompareOp::Eq => ord == Ordering::Equal,
            CompareOp::Ne => ord != Ordering::Equal,
            CompareOp::Lt => ord == Ordering::Less,
            CompareOp::Le => ord != Ordering::Greater,
            CompareOp::Gt => ord == Ordering::Greater,
            CompareOp::Ge => ord != Ordering::Less,
        }
    }
}

impl fmt::Display for CompareOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CompareOp::Eq => "=",
            CompareOp::Ne => "!=",
            CompareOp::Lt => "<",
            CompareOp::Le => "<=",
            CompareOp::Gt => ">",
            CompareOp::Ge => ">=",
        };
        f.write_str(s)
    }
}

/// A single-column comparison predicate. Null never matches (except `Ne`
/// against a non-null literal, mirroring SQL's `IS DISTINCT FROM` pragmatics
/// that exploration tools favour).
#[derive(Debug, Clone, PartialEq)]
pub struct Predicate {
    /// Column the predicate applies to.
    pub column: String,
    /// Comparison operator.
    pub op: CompareOp,
    /// Literal to compare against.
    pub literal: Value,
}

impl Predicate {
    /// Creates a predicate `column op literal`.
    pub fn new(column: impl Into<String>, op: CompareOp, literal: impl Into<Value>) -> Self {
        Self {
            column: column.into(),
            op,
            literal: literal.into(),
        }
    }

    /// Evaluates the predicate against one cell value.
    pub fn matches(&self, v: &Value) -> bool {
        if v.is_null() {
            return self.op == CompareOp::Ne && !self.literal.is_null();
        }
        self.op.eval(v.total_cmp(&self.literal))
    }
}

impl fmt::Display for Predicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} {}", self.column, self.op, self.literal)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numeric_comparisons() {
        let p = Predicate::new("y", CompareOp::Gt, 10.0);
        assert!(p.matches(&Value::Float(11.0)));
        assert!(p.matches(&Value::Int(11)));
        assert!(!p.matches(&Value::Float(10.0)));
        let p = Predicate::new("y", CompareOp::Le, 10.0);
        assert!(p.matches(&Value::Float(10.0)));
        assert!(!p.matches(&Value::Float(10.5)));
    }

    #[test]
    fn string_equality() {
        let p = Predicate::new("z", CompareOp::Eq, "google");
        assert!(p.matches(&Value::Str("google".into())));
        assert!(!p.matches(&Value::Str("msft".into())));
    }

    #[test]
    fn null_semantics() {
        let gt = Predicate::new("y", CompareOp::Gt, 0.0);
        assert!(!gt.matches(&Value::Null));
        let ne = Predicate::new("y", CompareOp::Ne, 0.0);
        assert!(ne.matches(&Value::Null));
    }

    #[test]
    fn all_operators_cover_orderings() {
        let v = Value::Int(5);
        assert!(Predicate::new("c", CompareOp::Eq, 5i64).matches(&v));
        assert!(Predicate::new("c", CompareOp::Ne, 4i64).matches(&v));
        assert!(Predicate::new("c", CompareOp::Lt, 6i64).matches(&v));
        assert!(Predicate::new("c", CompareOp::Le, 5i64).matches(&v));
        assert!(Predicate::new("c", CompareOp::Gt, 4i64).matches(&v));
        assert!(Predicate::new("c", CompareOp::Ge, 5i64).matches(&v));
    }

    #[test]
    fn operators_parse_from_symbols_and_names_and_display_back() {
        for op in [
            CompareOp::Eq,
            CompareOp::Ne,
            CompareOp::Lt,
            CompareOp::Le,
            CompareOp::Gt,
            CompareOp::Ge,
        ] {
            assert_eq!(CompareOp::parse(&op.to_string()), Some(op));
        }
        assert_eq!(CompareOp::parse("=="), Some(CompareOp::Eq));
        assert_eq!(CompareOp::parse("ge"), Some(CompareOp::Ge));
        for bad in ["", "=<", "===", "<>", "EQ"] {
            assert_eq!(CompareOp::parse(bad), None, "{bad}");
        }
    }

    #[test]
    fn display_formats() {
        let p = Predicate::new("luminosity", CompareOp::Lt, 90.0);
        assert_eq!(p.to_string(), "luminosity < 90");
    }
}
