//! Immutable tables: a schema plus equal-length columns.

use crate::column::{Column, ColumnBuilder};
use crate::error::{DataError, Result};
use crate::filter::Predicate;
use crate::schema::{Field, Schema};
use crate::value::Value;

/// An immutable, in-memory table.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    schema: Schema,
    columns: Vec<Column>,
    rows: usize,
}

impl Table {
    /// Builds a table from a schema and matching columns.
    ///
    /// # Errors
    /// Fails when column count/type differs from the schema or lengths differ.
    pub fn new(schema: Schema, columns: Vec<Column>) -> Result<Self> {
        if schema.len() != columns.len() {
            return Err(DataError::Invalid(format!(
                "schema has {} fields but {} columns were provided",
                schema.len(),
                columns.len()
            )));
        }
        for (f, c) in schema.fields().iter().zip(&columns) {
            if f.data_type != c.data_type() {
                return Err(DataError::TypeMismatch {
                    column: f.name.clone(),
                    expected: f.data_type.name(),
                    actual: c.data_type().name(),
                });
            }
        }
        let rows = columns.first().map_or(0, Column::len);
        for c in &columns {
            if c.len() != rows {
                return Err(DataError::LengthMismatch {
                    expected: rows,
                    actual: c.len(),
                });
            }
        }
        Ok(Self {
            schema,
            columns,
            rows,
        })
    }

    /// The table's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn num_columns(&self) -> usize {
        self.columns.len()
    }

    /// True when the table holds no rows.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// The column with the given name.
    pub fn column(&self, name: &str) -> Result<&Column> {
        let idx = self.schema.index_of(name)?;
        Ok(&self.columns[idx])
    }

    /// The column at the given index.
    pub fn column_at(&self, idx: usize) -> &Column {
        &self.columns[idx]
    }

    /// The cell at (`row`, `column`).
    pub fn value(&self, row: usize, column: &str) -> Result<Value> {
        Ok(self.column(column)?.value(row))
    }

    /// Returns the row indices satisfying all predicates (conjunction).
    pub fn filter_indices(&self, predicates: &[Predicate]) -> Result<Vec<usize>> {
        let mut keep: Vec<usize> = (0..self.rows).collect();
        for p in predicates {
            let col = self.column(&p.column)?;
            keep.retain(|&row| p.matches(&col.value(row)));
        }
        Ok(keep)
    }

    /// Materializes the subset of rows given by `indices`.
    pub fn take(&self, indices: &[usize]) -> Table {
        let columns = self.columns.iter().map(|c| c.take(indices)).collect();
        Table {
            schema: self.schema.clone(),
            columns,
            rows: indices.len(),
        }
    }
}

/// Builder used by the CSV/JSON readers and the data generators: cells go
/// in one at a time ([`Self::push`]) or a checked row at a time
/// ([`Self::push_row`]).
#[derive(Debug, Default)]
pub struct TableBuilder {
    names: Vec<String>,
    builders: Vec<ColumnBuilder>,
}

impl TableBuilder {
    /// Creates a builder for the given column names.
    pub fn new(names: Vec<String>) -> Self {
        let builders = names.iter().map(|_| ColumnBuilder::new()).collect();
        Self { names, builders }
    }

    /// Number of columns.
    pub fn num_columns(&self) -> usize {
        self.builders.len()
    }

    /// Appends one cell to column `column`. Keeping the columns the same
    /// length is the caller's job — a reader fills them left to right,
    /// record by record.
    ///
    /// # Panics
    /// When `column` is out of range.
    pub fn push(&mut self, column: usize, value: Value) {
        self.builders[column].push(value);
    }

    /// Appends a row. The number of values must match the number of columns.
    ///
    /// # Errors
    /// Fails on arity mismatch.
    pub fn push_row(&mut self, values: Vec<Value>) -> Result<()> {
        if values.len() != self.builders.len() {
            return Err(DataError::Invalid(format!(
                "row has {} values, expected {}",
                values.len(),
                self.builders.len()
            )));
        }
        for (column, value) in values.into_iter().enumerate() {
            self.push(column, value);
        }
        Ok(())
    }

    /// Number of rows pushed so far.
    pub fn num_rows(&self) -> usize {
        self.builders.first().map_or(0, ColumnBuilder::len)
    }

    /// Finishes all columns (inferring types) and assembles the table.
    ///
    /// # Panics
    /// When [`Self::push`] left the columns with different lengths.
    pub fn finish(self) -> Table {
        let columns: Vec<Column> = self
            .builders
            .into_iter()
            .map(ColumnBuilder::finish)
            .collect();
        let fields = self
            .names
            .into_iter()
            .zip(&columns)
            .map(|(name, col)| Field::new(name, col.data_type()))
            .collect();
        let rows = columns.first().map_or(0, Column::len);
        assert!(columns.iter().all(|c| c.len() == rows), "ragged columns");
        Table {
            schema: Schema::new(fields),
            columns,
            rows,
        }
    }
}

/// Convenience: builds a three-column `(z, x, y)` table from per-trendline
/// series, the shape produced by the synthetic data generators.
pub fn table_from_series(
    z_name: &str,
    x_name: &str,
    y_name: &str,
    series: &[(String, Vec<(f64, f64)>)],
) -> Table {
    let mut builder = TableBuilder::new(vec![
        z_name.to_owned(),
        x_name.to_owned(),
        y_name.to_owned(),
    ]);
    for (z, points) in series {
        for &(x, y) in points {
            builder
                .push_row(vec![
                    Value::Str(z.clone()),
                    Value::Float(x),
                    Value::Float(y),
                ])
                .expect("arity is fixed at 3");
        }
    }
    builder.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filter::CompareOp;
    use crate::schema::DataType;

    fn sample() -> Table {
        let mut b = TableBuilder::new(vec!["z".into(), "x".into(), "y".into()]);
        for (z, x, y) in [("a", 1, 10.0), ("a", 2, 20.0), ("b", 1, 5.0), ("b", 2, 2.5)] {
            b.push_row(vec![Value::Str(z.into()), Value::Int(x), Value::Float(y)])
                .unwrap();
        }
        b.finish()
    }

    #[test]
    fn builder_produces_schema() {
        let t = sample();
        assert_eq!(t.num_rows(), 4);
        assert_eq!(t.num_columns(), 3);
        assert_eq!(t.schema().field("z").unwrap().data_type, DataType::Str);
        assert_eq!(t.schema().field("x").unwrap().data_type, DataType::Int);
        assert_eq!(t.schema().field("y").unwrap().data_type, DataType::Float);
    }

    #[test]
    fn filter_conjunction() {
        let t = sample();
        let idx = t
            .filter_indices(&[
                Predicate::new("z", CompareOp::Eq, Value::Str("a".into())),
                Predicate::new("y", CompareOp::Gt, Value::Float(15.0)),
            ])
            .unwrap();
        assert_eq!(idx, vec![1]);
        let sub = t.take(&idx);
        assert_eq!(sub.num_rows(), 1);
        assert_eq!(sub.value(0, "y").unwrap(), Value::Float(20.0));
    }

    #[test]
    fn mismatched_row_arity_errors() {
        let mut b = TableBuilder::new(vec!["a".into()]);
        assert!(b.push_row(vec![Value::Int(1), Value::Int(2)]).is_err());
    }

    #[test]
    fn new_rejects_length_mismatch() {
        let schema = Schema::new(vec![
            Field::new("a", DataType::Int),
            Field::new("b", DataType::Int),
        ]);
        let res = Table::new(schema, vec![Column::Int(vec![1]), Column::Int(vec![1, 2])]);
        assert!(matches!(res, Err(DataError::LengthMismatch { .. })));
    }

    #[test]
    fn new_rejects_type_mismatch() {
        let schema = Schema::new(vec![Field::new("a", DataType::Float)]);
        let res = Table::new(schema, vec![Column::Int(vec![1])]);
        assert!(matches!(res, Err(DataError::TypeMismatch { .. })));
    }

    #[test]
    fn series_helper_builds_trendlines() {
        let t = table_from_series(
            "gene",
            "t",
            "expr",
            &[("g1".into(), vec![(0.0, 1.0), (1.0, 2.0)])],
        );
        assert_eq!(t.num_rows(), 2);
        assert_eq!(t.value(1, "expr").unwrap(), Value::Float(2.0));
    }
}
