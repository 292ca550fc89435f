//! Columnar storage. Each column stores one type contiguously; strings are
//! dictionary-encoded (a `Vec<u32>` of codes plus a shared dictionary of
//! distinct values), which makes the group-by on the `z` attribute in EXTRACT
//! a cheap integer partition instead of repeated string hashing —
//! [`crate::extract`] groups on the codes and clones one key per trendline.
//!
//! Columns are built typed, too: a [`ColumnBuilder`] keeps the narrowest
//! column that fits the cells pushed so far (`i64`s, then `f64`s, then
//! dictionary codes) and promotes one way only, so a CSV parses into
//! 8 bytes a numeric cell and a 4-byte code a string cell, with one heap
//! copy per distinct string. A reader hands it each cell's text
//! ([`ColumnBuilder::push_text`]), read by [`Value::infer`]'s rules
//! without making the `Value`, so a cell costs no allocation unless it
//! is a new string or a number written into a string column. The
//! builder is pinned, bit for bit, to a referee that holds every cell as
//! a [`Value`] and infers the type over the whole column at the end, and
//! `push_text` to that referee fed by the old `Value::infer`.

use crate::error::{DataError, Result};
use crate::schema::DataType;
use crate::value::{Token, Value};
use std::collections::HashMap;

#[cfg(test)]
mod referee;

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

/// Incremental builder for a single column: it holds the narrowest typed
/// column that fits every value pushed so far and promotes one way only,
/// Int → Float → dictionary Str, so a cell costs 8 bytes (a 4-byte code
/// once it is a string column) while a file parses, never a [`Value`].
/// The result is the type a whole-column inference picks: Int when every
/// value is an integer, Float when every value is numeric or null (nulls
/// become NaN; no values at all is an empty Float column), Str otherwise,
/// where each value reads as its `Display` text and a null as `""`.
#[derive(Debug)]
pub struct ColumnBuilder {
    cells: Cells,
}

/// A [`ColumnBuilder`]'s column so far, in its narrowest type.
#[derive(Debug)]
enum Cells {
    /// Every value an integer — also the state before the first push.
    Int(Vec<i64>),
    Float(FloatCells),
    Str(StrCells),
}

/// A float column under construction.
#[derive(Debug, Default)]
struct FloatCells {
    values: Vec<f64>,
    /// In row order, the rows whose string text is not their float's
    /// `Display`: nulls (`None`, text `""`) and integers beyond ±2⁵³
    /// (`Some`), whose float is rounded. An integer within ±2⁵³ converts
    /// exactly, and an exact integer's shortest round-trip `Display` is
    /// its own digits, so it needs no note.
    notes: Vec<(usize, Option<i64>)>,
}

impl FloatCells {
    fn push_int(&mut self, i: i64) {
        if i.unsigned_abs() > 1 << 53 {
            self.notes.push((self.values.len(), Some(i)));
        }
        self.values.push(i as f64);
    }

    fn push_null(&mut self) {
        self.notes.push((self.values.len(), None));
        self.values.push(f64::NAN);
    }
}

/// A dictionary-encoded string column under construction. The lookup
/// owns the one copy of each distinct value; the code-ordered dictionary
/// is cut from it when the column finishes.
#[derive(Debug, Default)]
struct StrCells {
    codes: Vec<u32>,
    lookup: HashMap<String, u32>,
    /// The text last pushed and its code: a run of equal cells — one
    /// trendline's rows under its key — is looked up once.
    last: Option<(String, u32)>,
}

impl StrCells {
    fn push_str(&mut self, text: &str) {
        if let Some((last, code)) = &self.last {
            if last == text {
                self.codes.push(*code);
                return;
            }
        }
        let code = match self.lookup.get(text) {
            Some(&code) => code,
            None => {
                let code = self.lookup.len() as u32;
                self.lookup.insert(text.to_owned(), code);
                code
            }
        };
        self.codes.push(code);
        // The buffer grows to the longest key once; later runs reuse it.
        let (last, at) = self.last.get_or_insert_with(|| (String::new(), code));
        last.clear();
        last.push_str(text);
        *at = code;
    }
}

impl Default for ColumnBuilder {
    fn default() -> Self {
        Self {
            cells: Cells::Int(Vec::new()),
        }
    }
}

impl ColumnBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one value, promoting the column first if the value does
    /// not fit its type.
    pub fn push(&mut self, v: Value) {
        match v {
            Value::Int(i) => self.push_int(i),
            Value::Float(x) => self.push_float(x),
            Value::Null => self.push_null(),
            Value::Str(s) => self.push_str(&s),
        }
    }

    /// Appends one string cell as a string, whatever its text — `"123"`
    /// turns the column into strings, where [`Self::push_text`] would
    /// read it as the integer: [`Self::push`] of a [`Value::Str`], without
    /// the `Value`.
    pub(crate) fn push_str(&mut self, text: &str) {
        self.strs().push_str(text);
    }

    /// Appends one cell's text: the column `push(Value::infer(text))`
    /// builds, without the `Value`. A number parses straight into the
    /// typed column, and a string is copied only the first time the
    /// column sees it.
    pub fn push_text(&mut self, text: &str) {
        match Token::infer(text) {
            Token::Int(i) => self.push_int(i),
            Token::Float(x) => self.push_float(x),
            Token::Null => self.push_null(),
            Token::Str(s) => self.strs().push_str(s),
        }
    }

    fn push_int(&mut self, i: i64) {
        match &mut self.cells {
            Cells::Int(ints) => ints.push(i),
            Cells::Float(floats) => floats.push_int(i),
            Cells::Str(strs) => strs.push_str(&i.to_string()),
        }
    }

    fn push_float(&mut self, x: f64) {
        match self.floats_or_strs() {
            Ok(floats) => floats.values.push(x),
            Err(strs) => strs.push_str(&x.to_string()),
        }
    }

    fn push_null(&mut self) {
        match self.floats_or_strs() {
            Ok(floats) => floats.push_null(),
            Err(strs) => strs.push_str(""),
        }
    }

    /// The column as floats, promoting an integer one; a string column
    /// stays one.
    fn floats_or_strs(&mut self) -> std::result::Result<&mut FloatCells, &mut StrCells> {
        if let Cells::Int(ints) = &self.cells {
            let mut floats = FloatCells::default();
            floats.values.reserve(ints.len());
            ints.iter().for_each(|&i| floats.push_int(i));
            self.cells = Cells::Float(floats);
        }
        match &mut self.cells {
            Cells::Float(floats) => Ok(floats),
            Cells::Str(strs) => Err(strs),
            Cells::Int(_) => unreachable!("promoted above"),
        }
    }

    /// The column as strings, promoting a numeric one: each earlier cell
    /// becomes its text.
    fn strs(&mut self) -> &mut StrCells {
        if !matches!(self.cells, Cells::Str(_)) {
            let mut strs = StrCells::default();
            match &self.cells {
                Cells::Int(ints) => ints.iter().for_each(|&i| strs.push_str(&i.to_string())),
                Cells::Float(FloatCells { values, notes }) => {
                    let mut notes = notes.iter().peekable();
                    for (row, &x) in values.iter().enumerate() {
                        match notes.next_if(|&&(at, _)| at == row) {
                            Some((_, None)) => strs.push_str(""),
                            Some(&(_, Some(i))) => strs.push_str(&i.to_string()),
                            None => strs.push_str(&x.to_string()),
                        }
                    }
                }
                Cells::Str(_) => unreachable!("matched above"),
            }
            self.cells = Cells::Str(strs);
        }
        match &mut self.cells {
            Cells::Str(strs) => strs,
            _ => unreachable!("promoted above"),
        }
    }

    /// Number of values pushed so far.
    pub fn len(&self) -> usize {
        match &self.cells {
            Cells::Int(ints) => ints.len(),
            Cells::Float(floats) => floats.values.len(),
            Cells::Str(strs) => strs.codes.len(),
        }
    }

    /// True if no values have been pushed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Finishes the column in the type the pushes left it in.
    pub fn finish(self) -> Column {
        match self.cells {
            Cells::Int(ints) if ints.is_empty() => Column::Float(Vec::new()),
            Cells::Int(ints) => Column::Int(ints),
            Cells::Float(floats) => Column::Float(floats.values),
            Cells::Str(StrCells { codes, lookup, .. }) => {
                let mut dict = vec![String::new(); lookup.len()];
                for (text, code) in lookup {
                    dict[code as usize] = text;
                }
                Column::Str { codes, dict }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

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

    /// The two columns are the same bit for bit: type, length, codes and
    /// dictionary, and each float's bits (the derived `==` would call a
    /// NaN cell unequal to itself).
    fn same_column(got: &Column, want: &Column) -> std::result::Result<(), TestCaseError> {
        prop_assert_eq!(got.data_type(), want.data_type());
        prop_assert_eq!(got.len(), want.len());
        match (got, want) {
            (Column::Float(g), Column::Float(w)) => {
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                prop_assert_eq!(bits(g), bits(w));
            }
            (Column::Int(g), Column::Int(w)) => prop_assert_eq!(g, w),
            (
                Column::Str {
                    codes: gc,
                    dict: gd,
                },
                Column::Str {
                    codes: wc,
                    dict: wd,
                },
            ) => {
                prop_assert_eq!(gc, wc);
                prop_assert_eq!(gd, wd);
            }
            _ => unreachable!("types compared above"),
        }
        Ok(())
    }

    /// Pushes `values` into the builder and into the referee and compares
    /// what they finish, and the builder's running length on the way.
    fn builder_matches_referee(values: &[Value]) -> std::result::Result<(), TestCaseError> {
        let (mut got, mut want) = (ColumnBuilder::new(), referee::ColumnBuilder::default());
        for (i, v) in values.iter().enumerate() {
            got.push(v.clone());
            want.push(v.clone());
            prop_assert_eq!(got.len(), i + 1);
        }
        same_column(&got.finish(), &want.finish())
    }

    /// Cell texts a CSV reader hands to [`Value::infer`]: integer and
    /// float edges, nulls, padding and repeated keys.
    const TOKENS: &[&str] = &[
        "-9223372036854775808",
        "9223372036854775807",
        "9223372036854775808",
        "-9223372036854775809",
        "9007199254740993",
        "-9007199254740993",
        "9007199254740992",
        "18014398509481985",
        "NaN",
        "nan",
        "inf",
        "-inf",
        "1e999",
        "-1e999",
        "-0",
        "-0.0",
        "0",
        "0.1",
        "1e22",
        "1.5e300",
        "5e-324",
        "",
        "   ",
        "null",
        "NULL",
        " Null ",
        "  42 ",
        " 3.25\t",
        "  padded text ",
        "k0",
        "k1",
        "k1",
        "true",
        "1,5",
        "0x10",
        "é",
    ];

    fn value_strategy() -> impl Strategy<Value = Value> {
        prop_oneof![
            (0..TOKENS.len()).prop_map(|i| Value::infer(TOKENS[i])),
            (i64::MIN..=i64::MAX).prop_map(Value::Int),
            (-5i64..5).prop_map(Value::Int),
            // Around ±2⁵³, where an integer's float starts to round.
            ((1i64 << 53) - 3..(1i64 << 53) + 4, 0u8..2)
                .prop_map(|(i, neg)| Value::Int(if neg == 1 { -i } else { i })),
            (0u64..=u64::MAX).prop_map(|bits| Value::Float(f64::from_bits(bits))),
            (-1e3f64..1e3).prop_map(Value::Float),
            (0usize..4).prop_map(|i| Value::Float([-0.0, f64::NAN, f64::INFINITY, 3.0][i])),
            Just(Value::Null),
            (0usize..3).prop_map(|i| Value::Str(["k0", "k1", ""][i].to_owned())),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2000))]

        /// Any push sequence finishes as the referee's column.
        #[test]
        fn typed_builder_matches_referee(
            values in proptest::collection::vec(value_strategy(), 0..=24),
        ) {
            builder_matches_referee(&values)?;
        }
    }

    /// Every promotion order: each sequence of up to five pushes drawn
    /// from one value of each kind.
    #[test]
    fn every_promotion_order_matches_referee() {
        let kinds = [
            Value::Int(i64::MAX),
            Value::Float(f64::NAN),
            Value::Null,
            Value::Str("k".into()),
        ];
        let mut checked = 0;
        let mut frontier: Vec<Vec<Value>> = vec![Vec::new()];
        for _ in 0..=5 {
            for values in &frontier {
                if let Err(e) = builder_matches_referee(values) {
                    panic!("{values:?}: {e:?}");
                }
            }
            checked += frontier.len();
            frontier = frontier
                .iter()
                .flat_map(|s| {
                    kinds
                        .iter()
                        .map(|k| [&s[..], std::slice::from_ref(k)].concat())
                })
                .collect();
        }
        assert_eq!(checked, 1 + 4 + 16 + 64 + 256 + 1024);
    }

    /// Cell texts a CSV reader hands [`ColumnBuilder::push_text`]: every
    /// inference outcome, each promotion's trigger, and texts whose
    /// `Display` is not themselves (`+5`, `012`, `1e3`, padding).
    const TEXTS: &[&str] = &[
        " 12 ",
        "+5",
        "012",
        "-0",
        "1e3",
        "3.25",
        "1e400",
        "-1e400",
        "inf",
        "-Infinity",
        "NaN",
        "null",
        "  NULL ",
        "",
        "\t",
        "9007199254740993",
        "-9223372036854775809",
        "5e-324",
        "1.5e300",
        "word",
        " word ",
        "k1",
        "é",
        "0x10",
    ];

    /// Pushes `texts` through [`ColumnBuilder::push_text`] and, as
    /// `Value`s the referee's `infer` reads, into the referee builder.
    fn text_matches_referee(texts: &[&str]) -> std::result::Result<(), TestCaseError> {
        let (mut got, mut want) = (ColumnBuilder::new(), referee::ColumnBuilder::default());
        for (i, text) in texts.iter().enumerate() {
            got.push_text(text);
            want.push(referee::infer(text));
            prop_assert_eq!(got.len(), i + 1);
        }
        same_column(&got.finish(), &want.finish())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2000))]

        /// Any stream of cell texts finishes as the referee's column.
        #[test]
        fn push_text_matches_push_of_infer(
            picks in proptest::collection::vec(
                prop_oneof![
                    (0..TEXTS.len()).prop_map(|i| TEXTS[i].to_owned()),
                    (i64::MIN..=i64::MAX).prop_map(|i| i.to_string()),
                    (0u64..=u64::MAX).prop_map(|bits| f64::from_bits(bits).to_string()),
                    "[0-9 +.eE-]{0,6}",
                ],
                0..=24,
            ),
        ) {
            let texts: Vec<&str> = picks.iter().map(String::as_str).collect();
            text_matches_referee(&texts)?;
        }
    }

    /// Every promotion order: each sequence of up to five texts drawn
    /// from one of each kind, repeated keys included.
    #[test]
    fn every_promotion_order_of_texts_matches_referee() {
        let kinds = ["+5", "1e400", "null", "k", "9007199254740993"];
        let mut frontier: Vec<Vec<&str>> = vec![Vec::new()];
        for _ in 0..=5 {
            for texts in &frontier {
                if let Err(e) = text_matches_referee(texts) {
                    panic!("{texts:?}: {e:?}");
                }
            }
            frontier = frontier
                .iter()
                .flat_map(|s| kinds.iter().map(|k| [&s[..], &[*k]].concat()))
                .collect();
        }
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
