//! The EXTRACT physical operator (paper §5.3, step 1): "selects and
//! aggregates records from the data source based on the z, x, y, filters (f),
//! and aggregation (a) constraints, and sorts them on z and x attributes
//! before streaming them to downstream operators."
//!
//! Rows are grouped by `z` in one sweep over integers — the dictionary codes
//! a string column already carries index the group table, so no string is
//! hashed or cloned per row — then counting-sorted into one flat index of
//! rows, group by group. Each group is sorted on `x` and its duplicate `x`
//! values aggregated through buffers reused across groups.
//!
//! Push-down optimization (a) from §5.4 — pruning visualizations without a
//! value in a query's pinned x ranges — runs in the engine, per query, not
//! here: EXTRACT runs once per registration, before any query is known.

use crate::column::Column;
use crate::error::{DataError, Result};
use crate::schema::DataType;
use crate::table::Table;
use crate::VisualSpec;
use std::collections::HashMap;
use std::fmt::Write;

/// One point of a trendline, after aggregation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrendPoint {
    /// X coordinate.
    pub x: f64,
    /// Y coordinate.
    pub y: f64,
}

/// A candidate visualization: the trendline for one distinct `z` value,
/// sorted by `x`, with duplicate `x` values aggregated.
#[derive(Debug, Clone, PartialEq)]
pub struct Trendline {
    /// The `z` value identifying this visualization.
    pub key: String,
    /// The (x, y) points, ascending in x.
    pub points: Vec<TrendPoint>,
}

impl Trendline {
    /// Convenience constructor from raw (x, y) pairs.
    pub fn from_pairs(key: impl Into<String>, pairs: &[(f64, f64)]) -> Self {
        Self {
            key: key.into(),
            points: pairs.iter().map(|&(x, y)| TrendPoint { x, y }).collect(),
        }
    }

    /// Y values as a contiguous vector (used by the similarity baselines).
    pub fn ys(&self) -> Vec<f64> {
        self.points.iter().map(|p| p.y).collect()
    }

    /// X values as a contiguous vector.
    pub fn xs(&self) -> Vec<f64> {
        self.points.iter().map(|p| p.x).collect()
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True when the trendline has no points.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }
}

/// Options for EXTRACT. It has none; the type stays only because the
/// benchmark package names it.
#[derive(Debug, Clone, Default)]
pub struct ExtractOptions {}

/// Fewest points a trendline keeps: a single point cannot form a line
/// segment.
const MIN_POINTS: usize = 2;

/// Runs EXTRACT: filter → project (z, x, y) → group by z → sort by x →
/// aggregate duplicate x. Returns trendlines ordered by first appearance of
/// their `z` value (stable, deterministic): [`extract_each`]'s output,
/// each trendline copied out of its buffer.
///
/// # Errors
/// Fails when referenced columns are missing or `x`/`y` are non-numeric.
pub fn extract(table: &Table, spec: &VisualSpec, _: &ExtractOptions) -> Result<Vec<Trendline>> {
    let mut out = Vec::new();
    extract_each(table, spec, |key, points| {
        out.push(Trendline {
            key: key.to_owned(),
            points: points.to_vec(),
        });
    })?;
    Ok(out)
}

/// EXTRACT into a sink: hands `emit` each accepted trendline's key and
/// its points, ascending in x with duplicate x aggregated, in order of
/// first appearance of the `z` value. The points sit in one buffer
/// reused from trendline to trendline, and a string `z` hands over its
/// dictionary entry, so EXTRACT allocates per table, not per trendline.
///
/// # Errors
/// Fails when referenced columns are missing or `x`/`y` are non-numeric.
pub fn extract_each(
    table: &Table,
    spec: &VisualSpec,
    mut emit: impl FnMut(&str, &[TrendPoint]),
) -> Result<()> {
    // Without filters every row is selected, and no index of them is made.
    let filtered = match spec.filters.as_slice() {
        [] => None,
        filters => Some(table.filter_indices(filters)?),
    };
    let selected = filtered.as_ref().map_or(table.num_rows(), Vec::len);
    let row_at = |i: usize| filtered.as_ref().map_or(i, |rows| rows[i]);
    let z_col = table.column(&spec.z)?;
    let x_col = table.column(&spec.x)?;
    let y_col = table.column(&spec.y)?;
    // Validate numeric axis types eagerly for a clear error.
    for (name, col) in [(&spec.x, x_col), (&spec.y, y_col)] {
        if col.data_type() == DataType::Str {
            return Err(DataError::TypeMismatch {
                column: name.clone(),
                expected: "numeric",
                actual: "string",
            });
        }
    }

    // Number each selected row's group by first appearance of its z. A
    // string column's dense dictionary code indexes the group table
    // directly; a number's bits (every null one NaN) — equal exactly
    // when the printed keys are — are hashed once per run of equal keys.
    let mut group_of_row: Vec<u32> = Vec::with_capacity(selected);
    let mut first_rows: Vec<usize> = Vec::new();
    let mut new_group = |row: usize| {
        first_rows.push(row);
        (first_rows.len() - 1) as u32
    };
    match z_col {
        Column::Str { codes, dict } => {
            let mut group_of_code = vec![u32::MAX; dict.len()];
            for i in 0..selected {
                let row = row_at(i);
                let group = &mut group_of_code[codes[row] as usize];
                if *group == u32::MAX {
                    *group = new_group(row);
                }
                group_of_row.push(*group);
            }
        }
        Column::Int(_) | Column::Float(_) => {
            let mut group_of: HashMap<u64, u32> = HashMap::new();
            let mut last: Option<(u64, u32)> = None;
            for i in 0..selected {
                let row = row_at(i);
                let bits = match z_col {
                    Column::Int(v) => v[row] as u64,
                    Column::Float(v) if v[row].is_nan() => f64::NAN.to_bits(),
                    Column::Float(v) => v[row].to_bits(),
                    Column::Str { .. } => unreachable!("matched above"),
                };
                let group = match last {
                    Some((at, group)) if at == bits => group,
                    _ => *group_of.entry(bits).or_insert_with(|| new_group(row)),
                };
                last = Some((bits, group));
                group_of_row.push(group);
            }
        }
    }

    // Counting-sort the rows into one flat index: group `g`'s rows are
    // `order[starts[g]..starts[g + 1]]`, in row order.
    let mut starts = vec![0usize; first_rows.len() + 1];
    for &group in &group_of_row {
        starts[group as usize + 1] += 1;
    }
    for g in 1..starts.len() {
        starts[g] += starts[g - 1];
    }
    let mut order = vec![0usize; selected];
    let mut next = starts.clone();
    for (i, &group) in group_of_row.iter().enumerate() {
        order[next[group as usize]] = row_at(i);
        next[group as usize] += 1;
    }
    drop(group_of_row);

    let mut pts: Vec<(f64, f64)> = Vec::new();
    let mut ys: Vec<f64> = Vec::new();
    let mut points: Vec<TrendPoint> = Vec::new();
    let mut printed = String::new();
    for (g, &first) in first_rows.iter().enumerate() {
        pts.clear();
        // Null coordinates are skipped.
        pts.extend(
            order[starts[g]..starts[g + 1]]
                .iter()
                .filter_map(|&row| Some((x_col.numeric_at(row)?, y_col.numeric_at(row)?))),
        );
        pts.sort_by(|a, b| a.0.total_cmp(&b.0));

        // Aggregate duplicate x coordinates.
        points.clear();
        for same_x in pts.chunk_by(|a, b| a.0 == b.0) {
            ys.clear();
            ys.extend(same_x.iter().map(|p| p.1));
            let y = spec
                .aggregation
                .apply(&ys)
                .expect("non-empty group by construction");
            points.push(TrendPoint { x: same_x[0].0, y });
        }

        if points.len() >= MIN_POINTS {
            let key = match z_col {
                Column::Str { codes, dict } => &dict[codes[first] as usize],
                _ => {
                    printed.clear();
                    write!(printed, "{}", z_col.value(first)).expect("a String takes any text");
                    &printed
                }
            };
            emit(key, &points);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filter::{CompareOp, Predicate};
    use crate::table::TableBuilder;
    use crate::value::Value;
    use crate::Aggregation;

    fn sample() -> Table {
        let mut b = TableBuilder::new(vec!["z".into(), "x".into(), "y".into()]);
        let rows = [
            ("a", 2, 20.0),
            ("a", 1, 10.0),
            ("b", 1, 5.0),
            ("a", 2, 40.0), // duplicate x=2 for z=a
            ("b", 2, 2.5),
            ("b", 3, 7.5),
        ];
        for (z, x, y) in rows {
            b.push_row(vec![Value::Str(z.into()), Value::Int(x), Value::Float(y)])
                .unwrap();
        }
        b.finish()
    }

    #[test]
    fn groups_sorts_and_aggregates() {
        let spec = VisualSpec::new("z", "x", "y");
        let trends = extract(&sample(), &spec, &ExtractOptions::default()).unwrap();
        assert_eq!(trends.len(), 2);
        assert_eq!(trends[0].key, "a");
        // x sorted ascending; duplicate x=2 averaged: (20+40)/2 = 30.
        assert_eq!(
            trends[0].points,
            vec![
                TrendPoint { x: 1.0, y: 10.0 },
                TrendPoint { x: 2.0, y: 30.0 },
            ]
        );
        assert_eq!(trends[1].key, "b");
        assert_eq!(trends[1].len(), 3);
    }

    #[test]
    fn aggregation_variants() {
        let spec = VisualSpec::new("z", "x", "y").with_aggregation(Aggregation::Max);
        let trends = extract(&sample(), &spec, &ExtractOptions::default()).unwrap();
        assert_eq!(trends[0].points[1].y, 40.0);
        let spec = VisualSpec::new("z", "x", "y").with_aggregation(Aggregation::Sum);
        let trends = extract(&sample(), &spec, &ExtractOptions::default()).unwrap();
        assert_eq!(trends[0].points[1].y, 60.0);
    }

    #[test]
    fn filters_apply_before_grouping() {
        let spec =
            VisualSpec::new("z", "x", "y").with_filter(Predicate::new("z", CompareOp::Eq, "b"));
        let trends = extract(&sample(), &spec, &ExtractOptions::default()).unwrap();
        assert_eq!(trends.len(), 1);
        assert_eq!(trends[0].key, "b");
    }

    #[test]
    fn single_point_trendlines_are_dropped() {
        let mut b = TableBuilder::new(vec!["z".into(), "x".into(), "y".into()]);
        b.push_row(vec![
            Value::Str("solo".into()),
            Value::Int(1),
            Value::Float(1.0),
        ])
        .unwrap();
        b.push_row(vec![
            Value::Str("pair".into()),
            Value::Int(1),
            Value::Float(1.0),
        ])
        .unwrap();
        b.push_row(vec![
            Value::Str("pair".into()),
            Value::Int(2),
            Value::Float(2.0),
        ])
        .unwrap();
        let t = b.finish();
        let trends = extract(
            &t,
            &VisualSpec::new("z", "x", "y"),
            &ExtractOptions::default(),
        )
        .unwrap();
        assert_eq!(trends.len(), 1);
        assert_eq!(trends[0].key, "pair");
    }

    /// Grouping keeps first-appearance order and the keys `z` prints as,
    /// whatever the column's type: dictionary codes for strings (an empty
    /// cell is the key `""`), the printed value for numbers (a null is the
    /// key `null`).
    #[test]
    fn z_groups_order_and_key_by_column_type() {
        let line =
            |key: &str, ys: [f64; 2]| Trendline::from_pairs(key, &[(1.0, ys[0]), (2.0, ys[1])]);
        let cases: [(Vec<Value>, Vec<Trendline>); 3] = [
            (
                [2, 1, 2, 1, 3].map(Value::Int).to_vec(),
                vec![line("2", [10.0, 30.0]), line("1", [20.0, 40.0])],
            ),
            (
                vec![
                    Value::Float(1.5),
                    Value::Null,
                    Value::Float(1.5),
                    Value::Null,
                    Value::Float(-0.5),
                ],
                vec![line("1.5", [10.0, 30.0]), line("null", [20.0, 40.0])],
            ),
            (
                vec![
                    Value::Str("b".into()),
                    Value::Null,
                    Value::Str("b".into()),
                    Value::Str(String::new()),
                    Value::Str("a".into()),
                ],
                vec![line("b", [10.0, 30.0]), line("", [20.0, 40.0])],
            ),
        ];
        for (zs, want) in cases {
            let mut b = TableBuilder::new(vec!["z".into(), "x".into(), "y".into()]);
            // Rows alternate between the first two groups; the fifth row is
            // a one-point group, dropped.
            for (i, z) in zs.into_iter().enumerate() {
                let (x, y) = ([1, 1, 2, 2, 1][i], 10.0 * (i + 1) as f64);
                b.push_row(vec![z, Value::Int(x), Value::Float(y)]).unwrap();
            }
            let got = extract(
                &b.finish(),
                &VisualSpec::new("z", "x", "y"),
                &ExtractOptions::default(),
            )
            .unwrap();
            assert_eq!(got, want);
        }
    }

    /// A numeric `z` looked up once per run of equal keys still gathers
    /// a key that comes back after another's run, in row order.
    #[test]
    fn a_numeric_key_returning_after_a_run_joins_its_group() {
        let mut b = TableBuilder::new(vec!["z".into(), "x".into(), "y".into()]);
        for (z, x) in [(7, 1), (7, 2), (8, 1), (8, 2), (7, 4), (7, 3)] {
            b.push_row(vec![Value::Int(z), Value::Int(x), Value::Float(x as f64)])
                .unwrap();
        }
        let got = extract(
            &b.finish(),
            &VisualSpec::new("z", "x", "y"),
            &ExtractOptions::default(),
        )
        .unwrap();
        let want = [
            Trendline::from_pairs("7", &[(1.0, 1.0), (2.0, 2.0), (3.0, 3.0), (4.0, 4.0)]),
            Trendline::from_pairs("8", &[(1.0, 1.0), (2.0, 2.0)]),
        ];
        assert_eq!(got, want);
    }

    #[test]
    fn unknown_column_errors() {
        let spec = VisualSpec::new("nope", "x", "y");
        assert!(extract(&sample(), &spec, &ExtractOptions::default()).is_err());
    }

    #[test]
    fn string_y_column_errors() {
        let spec = VisualSpec::new("x", "y", "z"); // z (string) used as y
        let res = extract(&sample(), &spec, &ExtractOptions::default());
        assert!(res.is_err());
    }

    #[test]
    fn trendline_helpers() {
        let t = Trendline::from_pairs("k", &[(0.0, 1.0), (1.0, 2.0)]);
        assert_eq!(t.ys(), vec![1.0, 2.0]);
        assert_eq!(t.xs(), vec![0.0, 1.0]);
        assert!(!t.is_empty());
    }
}
