//! Property tests for the datastore substrate: CSV round trips, filter /
//! take laws, and aggregation identities.

use proptest::prelude::*;
use shapesearch_datastore::{csv, Aggregation, CompareOp, Predicate, Table, TableBuilder, Value};

/// Strategy: a simple cell value (string content restricted to printable
/// non-quote text to keep CSV assertions readable; quoting itself is tested
/// separately with adversarial strings).
fn value_strategy() -> impl Strategy<Value = Value> {
    prop_oneof![
        (-1000i64..1000).prop_map(Value::Int),
        (-1e6f64..1e6).prop_map(|f| Value::Float((f * 100.0).round() / 100.0)),
        "[a-z]{1,8}".prop_map(Value::Str),
        Just(Value::Null),
    ]
}

fn table_strategy() -> impl Strategy<Value = Table> {
    (1usize..5, 0usize..20).prop_flat_map(|(cols, rows)| {
        let names: Vec<String> = (0..cols).map(|c| format!("c{c}")).collect();
        proptest::collection::vec(proptest::collection::vec(value_strategy(), cols), rows).prop_map(
            move |data| {
                let mut b = TableBuilder::new(names.clone());
                for row in data {
                    b.push_row(row).expect("arity matches");
                }
                b.finish()
            },
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn csv_round_trip_preserves_rows(t in table_strategy()) {
        let text = csv::write_str(&t);
        let t2 = csv::read_str(&text);
        // Empty tables (no rows) still carry their header.
        let t2 = t2.expect("written CSV must parse");
        prop_assert_eq!(t.num_rows(), t2.num_rows());
        prop_assert_eq!(t.num_columns(), t2.num_columns());
        for row in 0..t.num_rows() {
            for col in 0..t.num_columns() {
                let a = t.column_at(col).value(row);
                let b = t2.column_at(col).value(row);
                // Numeric formatting may widen Int→Float across type
                // inference; compare by total order.
                prop_assert_eq!(
                    a.total_cmp(&b),
                    std::cmp::Ordering::Equal,
                    "row {} col {}: {:?} vs {:?}", row, col, a, b
                );
            }
        }
    }

    #[test]
    fn filter_take_is_subset_and_idempotent(t in table_strategy(), lit in -1000i64..1000) {
        let p = Predicate::new("c0", CompareOp::Gt, lit);
        let idx = t.filter_indices(std::slice::from_ref(&p)).expect("c0 exists");
        prop_assert!(idx.len() <= t.num_rows());
        let sub = t.take(&idx);
        prop_assert_eq!(sub.num_rows(), idx.len());
        // Filtering the filtered table again changes nothing.
        let idx2 = sub.filter_indices(std::slice::from_ref(&p)).expect("c0 exists");
        prop_assert_eq!(idx2.len(), sub.num_rows());
    }

    #[test]
    fn aggregation_identities(values in proptest::collection::vec(-1e3f64..1e3, 1..40)) {
        let avg = Aggregation::Avg.apply(&values).unwrap();
        let sum = Aggregation::Sum.apply(&values).unwrap();
        let min = Aggregation::Min.apply(&values).unwrap();
        let max = Aggregation::Max.apply(&values).unwrap();
        let count = Aggregation::Count.apply(&values).unwrap();
        prop_assert!((sum / count - avg).abs() < 1e-9);
        prop_assert!(min <= avg + 1e-9 && avg <= max + 1e-9);
        prop_assert_eq!(count as usize, values.len());
    }

    #[test]
    fn value_total_cmp_is_total_order(
        a in value_strategy(),
        b in value_strategy(),
        c in value_strategy(),
    ) {
        use std::cmp::Ordering;
        // Antisymmetry.
        prop_assert_eq!(a.total_cmp(&b), b.total_cmp(&a).reverse());
        // Transitivity (≤).
        if a.total_cmp(&b) != Ordering::Greater && b.total_cmp(&c) != Ordering::Greater {
            prop_assert_ne!(a.total_cmp(&c), Ordering::Greater);
        }
    }
}

/// Every byte the CSV tokenizer acts on, plus cells that infer as each
/// type — short strings over it reach every tokenizer state.
const CSV_ALPHABET: &[u8] = b"ab17e.-,\"\n\r ";

/// Records in `input`, counted without tokenizing fields — valid for text
/// the reader accepts, where every `"` opens, closes or is half of an
/// escaped pair, so quote parity says whether a newline ends a record.
/// `None` when the last line holds nothing but quotes and `\r`: whether
/// that is a record depends on what the quotes enclose.
fn csv_records(input: &str) -> Option<usize> {
    let (mut records, mut in_quotes, mut content) = (0, false, false);
    let mut only_quotes = true;
    for c in input.chars() {
        match c {
            '\n' if !in_quotes => {
                records += usize::from(content);
                (content, only_quotes) = (false, true);
            }
            '\n' | '\r' => only_quotes &= !in_quotes,
            '"' => (in_quotes, content) = (!in_quotes, true),
            _ => (content, only_quotes) = (true, false),
        }
    }
    match (content, only_quotes) {
        (false, _) => Some(records),
        (true, false) => Some(records + 1),
        (true, true) => None,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    /// The CSV reader is a server-side parser of bytes from outside: it
    /// never panics, and when it accepts, the cells it handed out one at a
    /// time left every column as long as the data records are many.
    #[test]
    fn csv_reader_never_panics_and_fills_every_column(
        picks in proptest::collection::vec(0..CSV_ALPHABET.len(), 0..28),
    ) {
        let input: String = picks.iter().map(|&i| CSV_ALPHABET[i] as char).collect();
        if let Ok(t) = csv::read_str(&input) {
            let rows = csv_records(&input).map_or(t.num_rows(), |records| records - 1);
            for col in 0..t.num_columns() {
                prop_assert_eq!(t.column_at(col).len(), rows, "column {} of {:?}", col, &input);
            }
        }
    }
}

#[test]
fn adversarial_quoting_round_trips() {
    let mut b = TableBuilder::new(vec!["weird".into()]);
    for s in ["a,b", "say \"hi\"", "two\nlines", "trailing,", "\"quoted\""] {
        b.push_row(vec![Value::Str(s.into())]).unwrap();
    }
    let t = b.finish();
    let text = csv::write_str(&t);
    let t2 = csv::read_str(&text).unwrap();
    assert_eq!(t, t2);
}
