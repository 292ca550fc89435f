//! The column builder as it stood before it kept typed cells: every
//! pushed [`Value`] is held as-is and the type is inferred over the whole
//! column at `finish`; and `Value::infer` as it stood before cells were
//! read through a borrowed token. Kept verbatim as the referees the
//! builder proptests pin [`super::ColumnBuilder`] to — do not optimise
//! them.

use super::Column;
use crate::value::Value;
use std::collections::HashMap;

/// Incremental builder for a single column; infers the narrowest type that
/// fits all pushed values (Int ⊂ Float; anything non-numeric forces Str).
#[derive(Debug, Default)]
pub(super) struct ColumnBuilder {
    values: Vec<Value>,
}

impl ColumnBuilder {
    /// Appends one value.
    pub(super) fn push(&mut self, v: Value) {
        self.values.push(v);
    }

    /// Finishes the column, choosing Int if every value is an integer, Float
    /// if every value is numeric or null, and Str otherwise (nulls become "").
    pub(super) fn finish(self) -> Column {
        let all_int = self.values.iter().all(|v| matches!(v, Value::Int(_)));
        if all_int && !self.values.is_empty() {
            return Column::Int(
                self.values
                    .into_iter()
                    .map(|v| v.as_i64().expect("checked all-int"))
                    .collect(),
            );
        }
        let all_numeric = self
            .values
            .iter()
            .all(|v| matches!(v, Value::Int(_) | Value::Float(_) | Value::Null));
        if all_numeric {
            return Column::Float(
                self.values
                    .into_iter()
                    .map(|v| v.as_f64().unwrap_or(f64::NAN))
                    .collect(),
            );
        }
        let mut dict: Vec<String> = Vec::new();
        let mut lookup: HashMap<String, u32> = HashMap::new();
        let mut codes = Vec::with_capacity(self.values.len());
        for v in self.values {
            let s = match v {
                Value::Null => String::new(),
                Value::Str(s) => s,
                other => other.to_string(),
            };
            // One clone per distinct value, none per row.
            let code = *lookup.entry(s).or_insert_with_key(|s| {
                dict.push(s.clone());
                (dict.len() - 1) as u32
            });
            codes.push(code);
        }
        Column::Str { codes, dict }
    }
}

/// `Value::infer` as it stood before it read cells through a borrowed
/// token: the rules [`super::ColumnBuilder::push_text`] is pinned to.
pub(super) fn infer(token: &str) -> Value {
    let trimmed = token.trim();
    if trimmed.is_empty() || trimmed.eq_ignore_ascii_case("null") {
        return Value::Null;
    }
    if let Ok(i) = trimmed.parse::<i64>() {
        return Value::Int(i);
    }
    if let Ok(f) = trimmed.parse::<f64>() {
        return Value::Float(f);
    }
    Value::Str(trimmed.to_owned())
}
