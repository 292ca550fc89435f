//! # shapesearch-parser
//!
//! The three ShapeSearch query front-ends (paper §2), all producing
//! [`ShapeQuery`](shapesearch_core::ShapeQuery) ASTs:
//!
//! * [`parse_regex`] — the visual regular-expression language that "directly
//!   maps to the structured internal representation" (§3, Table 2 grammar).
//! * [`parse_natural_language`] — the NL pipeline of §4: POS-based noise
//!   filtering, CRF entity tagging (Table 3 features), synonym and
//!   semantic-similarity value resolution, CFG tree generation, and Table-4
//!   ambiguity resolution.
//! * [`sketch`] — pixel strokes to precise (`v=`) or blurry pattern queries.
//!
//! "The three interfaces can be used simultaneously and interchangeably, as
//! user needs and pattern complexities evolve."

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod error;
pub mod nl;
mod regex;
pub mod sketch;

pub use error::{ParseError, Result};
pub use nl::{cross_validate_corpus, parse_natural_language, NlParser, ParsedNl, MAX_NL_BYTES};
pub use regex::parse_regex;
pub use sketch::{sketch_to_pattern_query, sketch_to_precise_query, Canvas};

/// Reads a numeric literal the one way both query front doors do: Rust's
/// `f64` syntax, holding a finite value. A literal too long for an `f64`
/// (which reads as `inf`) and the words `nan`, `inf` and `infinity` are
/// not numbers here, so no query carries a non-finite number.
pub(crate) fn finite_number(text: &str) -> Option<f64> {
    text.parse::<f64>().ok().filter(|v| v.is_finite())
}
