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
