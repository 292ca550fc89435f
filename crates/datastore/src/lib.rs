//! # shapesearch-datastore
//!
//! Columnar in-memory OLAP substrate for ShapeSearch (ShapeSearch paper §5.1).
//!
//! ShapeSearch operates in a "traditional OLAP data exploration setting with
//! dataset *D*, stored in either a database, or as a raw file in CSV or JSON".
//! This crate provides that substrate from scratch:
//!
//! * [`Table`] — an immutable, schema-carrying collection of typed columns
//!   ([`Column`]): 64-bit floats, 64-bit integers, and dictionary-encoded
//!   strings.
//! * [`csv`] / [`json`] — hand-rolled readers for CSV files and JSON-lines,
//!   with automatic type inference.
//! * [`Predicate`] — filter constraints (`f` in the paper) evaluated
//!   column-at-a-time.
//! * [`Aggregation`] — the aggregation (`a`) applied when multiple `y` values
//!   share an `x` coordinate (e.g. the Real Estate dataset in Table 11).
//! * [`VisualSpec`] + [`extract_each`] — the EXTRACT physical operator:
//!   select and aggregate records based on the `z`, `x`, `y`, filter, and
//!   aggregation constraints, sorted on `z` then `x`, streamed to a sink as
//!   [`TrendPoint`]s ([`extract`] collects them into [`Trendline`]s).
//!
//! The downstream GROUP / SEGMENT / SCORE operators live in
//! `shapesearch-core`; this crate is deliberately independent of the query
//! algebra so it can be reused as a generic mini-OLAP layer.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod aggregate;
mod column;
pub mod csv;
mod error;
mod extract;
mod filter;
pub mod json;
mod schema;
mod table;
mod value;

pub use aggregate::Aggregation;
pub use column::{Column, ColumnBuilder};
pub use error::{DataError, Result};
pub use extract::{extract, extract_each, ExtractOptions, TrendPoint, Trendline};
pub use filter::{CompareOp, Predicate};
pub use schema::{DataType, Field, Schema};
pub use table::{table_from_series, Table, TableBuilder};
pub use value::Value;

/// Reads the table at `path` by its suffix: JSON lines for `.json` and
/// `.jsonl`, CSV for anything else.
///
/// # Errors
/// Propagates I/O and parse errors.
pub fn read_file(path: &str) -> Result<Table> {
    if path.ends_with(".json") || path.ends_with(".jsonl") {
        json::read_file(path)
    } else {
        csv::read_file(path)
    }
}

/// Visual parameters `R` from the paper (§5.1): the space of candidate
/// visualizations is defined by a category attribute `z`, an x-axis attribute
/// `x`, a y-axis attribute `y`, optional filters `f`, and an aggregation `a`
/// used when several `y` values share one `x`.
#[derive(Debug, Clone)]
pub struct VisualSpec {
    /// Category attribute: one candidate visualization per distinct value.
    pub z: String,
    /// X-axis attribute.
    pub x: String,
    /// Y-axis attribute.
    pub y: String,
    /// Filter constraints applied before grouping.
    pub filters: Vec<Predicate>,
    /// Aggregation for duplicate x values within one trendline.
    pub aggregation: Aggregation,
}

impl VisualSpec {
    /// Convenience constructor with no filters and mean aggregation.
    pub fn new(z: impl Into<String>, x: impl Into<String>, y: impl Into<String>) -> Self {
        Self {
            z: z.into(),
            x: x.into(),
            y: y.into(),
            filters: Vec::new(),
            aggregation: Aggregation::Avg,
        }
    }

    /// Adds a filter predicate, returning `self` for chaining.
    #[must_use]
    pub fn with_filter(mut self, p: Predicate) -> Self {
        self.filters.push(p);
        self
    }

    /// Sets the aggregation, returning `self` for chaining.
    #[must_use]
    pub fn with_aggregation(mut self, a: Aggregation) -> Self {
        self.aggregation = a;
        self
    }
}
