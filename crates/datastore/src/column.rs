//! Columnar storage. Each column stores one type contiguously; strings are
//! dictionary-encoded (a `Vec<u32>` of codes plus a shared dictionary of
//! distinct values), which makes the group-by on the `z` attribute in EXTRACT
//! a cheap integer partition instead of repeated string hashing —
//! [`crate::extract`] groups on the codes and clones one key per trendline.

use crate::error::{DataError, Result};
use crate::schema::DataType;
use crate::value::Value;
use std::collections::HashMap;

/// A typed column of values. Nulls are represented in-band: `f64::NAN` for
/// floats; integers and strings are non-nullable (parsers promote nullable
/// integer columns to float).
#[derive(Debug, Clone, PartialEq)]
pub enum Column {
    /// 64-bit floats, with NaN as the null sentinel.
    Float(Vec<f64>),
    /// 64-bit signed integers.
    Int(Vec<i64>),
    /// Dictionary-encoded strings: `codes[i]` indexes into `dict`.
    Str {
        /// Per-row dictionary codes.
        codes: Vec<u32>,
        /// Distinct values, indexed by code.
        dict: Vec<String>,
    },
}

impl Column {
    /// Creates an empty column of the given type.
    pub fn empty(data_type: DataType) -> Self {
        match data_type {
            DataType::Float => Column::Float(Vec::new()),
            DataType::Int => Column::Int(Vec::new()),
            DataType::Str => Column::Str {
                codes: Vec::new(),
                dict: Vec::new(),
            },
        }
    }

    /// The column's data type.
    pub fn data_type(&self) -> DataType {
        match self {
            Column::Float(_) => DataType::Float,
            Column::Int(_) => DataType::Int,
            Column::Str { .. } => DataType::Str,
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        match self {
            Column::Float(v) => v.len(),
            Column::Int(v) => v.len(),
            Column::Str { codes, .. } => codes.len(),
        }
    }

    /// True if the column holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The value at `row`. Panics if out of bounds.
    pub fn value(&self, row: usize) -> Value {
        match self {
            Column::Float(v) => {
                let x = v[row];
                if x.is_nan() {
                    Value::Null
                } else {
                    Value::Float(x)
                }
            }
            Column::Int(v) => Value::Int(v[row]),
            Column::Str { codes, dict } => Value::Str(dict[codes[row] as usize].clone()),
        }
    }

    /// Numeric view of the column: floats as-is, ints widened. Strings error.
    pub fn numeric(&self, name: &str) -> Result<Vec<f64>> {
        match self {
            Column::Float(v) => Ok(v.clone()),
            Column::Int(v) => Ok(v.iter().map(|&i| i as f64).collect()),
            Column::Str { .. } => Err(DataError::TypeMismatch {
                column: name.to_owned(),
                expected: "numeric",
                actual: "string",
            }),
        }
    }

    /// Numeric value at `row` without materializing the whole column.
    pub fn numeric_at(&self, row: usize) -> Option<f64> {
        match self {
            Column::Float(v) => {
                let x = v[row];
                (!x.is_nan()).then_some(x)
            }
            Column::Int(v) => Some(v[row] as f64),
            Column::Str { .. } => None,
        }
    }

    /// Materializes the subset of rows given by `indices`, preserving order
    /// and (for strings) the original dictionary.
    pub fn take(&self, indices: &[usize]) -> Column {
        match self {
            Column::Float(v) => Column::Float(indices.iter().map(|&i| v[i]).collect()),
            Column::Int(v) => Column::Int(indices.iter().map(|&i| v[i]).collect()),
            Column::Str { codes, dict } => Column::Str {
                codes: indices.iter().map(|&i| codes[i]).collect(),
                dict: dict.clone(),
            },
        }
    }
}

/// Incremental builder for a single column; infers the narrowest type that
/// fits all pushed values (Int ⊂ Float; anything non-numeric forces Str).
#[derive(Debug, Default)]
pub struct ColumnBuilder {
    values: Vec<Value>,
}

impl ColumnBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one value.
    pub fn push(&mut self, v: Value) {
        self.values.push(v);
    }

    /// Number of values pushed so far.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True if no values have been pushed.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Finishes the column, choosing Int if every value is an integer, Float
    /// if every value is numeric or null, and Str otherwise (nulls become "").
    pub fn finish(self) -> Column {
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_infers_int() {
        let mut b = ColumnBuilder::new();
        b.push(Value::Int(1));
        b.push(Value::Int(2));
        assert_eq!(b.finish(), Column::Int(vec![1, 2]));
    }

    #[test]
    fn builder_infers_float_on_mixed_numeric() {
        let mut b = ColumnBuilder::new();
        b.push(Value::Int(1));
        b.push(Value::Float(2.5));
        b.push(Value::Null);
        let col = b.finish();
        match col {
            Column::Float(v) => {
                assert_eq!(v[0], 1.0);
                assert_eq!(v[1], 2.5);
                assert!(v[2].is_nan());
            }
            other => panic!("expected float column, got {other:?}"),
        }
    }

    #[test]
    fn builder_falls_back_to_string() {
        let mut b = ColumnBuilder::new();
        b.push(Value::Str("a".into()));
        b.push(Value::Int(1));
        b.push(Value::Str("a".into()));
        let col = b.finish();
        match &col {
            Column::Str { codes, dict } => {
                assert_eq!(dict.len(), 2);
                assert_eq!(codes[0], codes[2]);
                assert_ne!(codes[0], codes[1]);
            }
            other => panic!("expected string column, got {other:?}"),
        }
        assert_eq!(col.value(1), Value::Str("1".into()));
    }

    #[test]
    fn take_preserves_order_and_dict() {
        let mut b = ColumnBuilder::new();
        for s in ["a", "b", "c", "a"] {
            b.push(Value::Str(s.into()));
        }
        let col = b.finish();
        let sub = col.take(&[3, 1]);
        assert_eq!(sub.value(0), Value::Str("a".into()));
        assert_eq!(sub.value(1), Value::Str("b".into()));
        assert_eq!(sub.len(), 2);
    }

    #[test]
    fn numeric_view_widens_ints() {
        let col = Column::Int(vec![1, 2, 3]);
        assert_eq!(col.numeric("c").unwrap(), vec![1.0, 2.0, 3.0]);
        assert_eq!(col.numeric_at(2), Some(3.0));
    }

    #[test]
    fn numeric_view_rejects_strings() {
        let col = Column::Str {
            codes: vec![0],
            dict: vec!["a".into()],
        };
        assert!(col.numeric("c").is_err());
        assert_eq!(col.numeric_at(0), None);
    }

    #[test]
    fn null_float_reads_back_as_null() {
        let col = Column::Float(vec![f64::NAN, 1.0]);
        assert_eq!(col.value(0), Value::Null);
        assert_eq!(col.value(1), Value::Float(1.0));
        assert_eq!(col.numeric_at(0), None);
    }

    #[test]
    fn empty_columns() {
        for dt in [DataType::Float, DataType::Int, DataType::Str] {
            let c = Column::empty(dt);
            assert!(c.is_empty());
            assert_eq!(c.data_type(), dt);
        }
    }
}
