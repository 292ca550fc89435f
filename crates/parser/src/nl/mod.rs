//! The natural-language front-end (paper §4): tokenization, noise
//! filtering, CRF entity tagging, value resolution, tree generation, and
//! ambiguity resolution.

pub mod corpus;
pub mod features;
pub mod lexicon;
pub mod translate;

use crate::error::{ParseError, Result};
use features::{analyze, non_noise_features, Tokenized};
use shapesearch_core::ShapeQuery;
use shapesearch_crf::{train, CrfModel, EvalReport, Sequence, TrainConfig};
use std::sync::OnceLock;
use translate::{Entity, Translation};

/// Result of parsing a natural-language query.
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedNl {
    /// The generated ShapeQuery.
    pub query: ShapeQuery,
    /// The tagged entities (shown in the correction panel).
    pub entities: Vec<Entity>,
    /// Ambiguity-resolution notes (Table 4 rules applied).
    pub notes: Vec<String>,
}

/// A trained natural-language parser.
#[derive(Debug)]
pub struct NlParser {
    model: CrfModel,
}

/// Default corpus size, mirroring the paper's 250 MTurk queries.
pub const DEFAULT_CORPUS_SIZE: usize = 250;
/// Default training seed.
pub const DEFAULT_SEED: u64 = 0x5ea6c4;

/// The longest natural-language query text [`NlParser::parse`] accepts, in
/// bytes. Translation is linear in the text at about 5 µs a character
/// (release build), and query text arrives from outside the program:
/// without a cap, one request body holds the thread translating it for
/// as long as its size allows — seconds a megabyte. Like the regex
/// parser's nesting cap, it is far beyond any sentence a person types.
pub const MAX_NL_BYTES: usize = 4096;

impl NlParser {
    /// Trains a parser on the synthetic corpus.
    pub fn train_default() -> Self {
        Self::train_with(DEFAULT_CORPUS_SIZE, DEFAULT_SEED)
    }

    /// Trains on `corpus_size` generated sentences with the given seed.
    pub fn train_with(corpus_size: usize, seed: u64) -> Self {
        let sentences = corpus::generate(corpus_size, seed);
        let data = to_sequences(&sentences);
        let config = TrainConfig {
            max_iterations: 24,
            seed,
            ..TrainConfig::default()
        };
        Self {
            model: train(&data, config),
        }
    }

    /// Tags the non-noise tokens of a sentence with entity labels.
    pub fn tag(&self, text: &str) -> Vec<Entity> {
        let analyzed = analyze(text);
        let (feats, idx) = non_noise_features(&analyzed);
        if feats.is_empty() {
            return Vec::new();
        }
        let labels = self.model.decode(&Sequence::unlabeled(feats));
        idx.iter()
            .zip(labels)
            .map(|(&i, label)| Entity {
                token: analyzed.tokens[i].clone(),
                label,
            })
            .collect()
    }

    /// Parses a natural-language query into a ShapeQuery.
    ///
    /// # Errors
    /// Fails when the text is longer than [`MAX_NL_BYTES`] (before any of
    /// it is read) or when no shape content can be recognized.
    pub fn parse(&self, text: &str) -> Result<ParsedNl> {
        if text.len() > MAX_NL_BYTES {
            let head: String = text.chars().take(32).collect();
            return Err(ParseError::new(
                0,
                format!(
                    "natural-language query is {} bytes, longer than {MAX_NL_BYTES}",
                    text.len()
                ),
                format!("{head}…"),
            ));
        }
        let analyzed = analyze(text);
        let entities = self.tag(text);
        let Some(Translation { query, notes }) = translate::translate(&entities, &analyzed.tokens)
        else {
            return Err(ParseError::new(
                0,
                "no shape patterns recognized in the query".into(),
                text.to_owned(),
            ));
        };
        Ok(ParsedNl {
            query,
            entities,
            notes,
        })
    }
}

/// Converts gold-tagged sentences into CRF training sequences over their
/// non-noise tokens.
pub fn to_sequences(sentences: &[corpus::TaggedSentence]) -> Vec<Sequence> {
    sentences
        .iter()
        .filter_map(|s| {
            let analyzed = Tokenized {
                tokens: s.tokens.clone(),
                tags: s
                    .tokens
                    .iter()
                    .map(|t| shapesearch_crf::pos::tag_word(t))
                    .collect(),
                noise: {
                    let a = analyze(&s.tokens.join(" "));
                    // Token streams may differ if joining re-tokenizes; fall
                    // back to per-token analysis.
                    if a.tokens == s.tokens {
                        a.noise
                    } else {
                        s.tokens
                            .iter()
                            .map(|t| analyze(t).noise.first().copied().unwrap_or(false))
                            .collect()
                    }
                },
            };
            let (feats, idx) = non_noise_features(&analyzed);
            if feats.is_empty() {
                return None;
            }
            let labels: Vec<String> = idx.iter().map(|&i| s.labels[i].clone()).collect();
            Some(Sequence::new(feats, labels))
        })
        .collect()
}

/// Cross-validates the entity tagger on the synthetic corpus — the
/// experiment behind the paper's "F1 score of 81% (precision = 73%,
/// recall = 90%)".
pub fn cross_validate_corpus(corpus_size: usize, folds: usize, seed: u64) -> EvalReport {
    let sentences = corpus::generate(corpus_size, seed);
    let data = to_sequences(&sentences);
    let config = TrainConfig {
        max_iterations: 24,
        seed,
        ..TrainConfig::default()
    };
    shapesearch_crf::cross_validate(&data, folds, config)
}

static GLOBAL: OnceLock<NlParser> = OnceLock::new();

/// Parses a natural-language query with a lazily trained global parser.
///
/// # Errors
/// Fails when no shape content can be recognized.
pub fn parse_natural_language(text: &str) -> Result<ParsedNl> {
    GLOBAL.get_or_init(NlParser::train_default).parse(text)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parser() -> &'static NlParser {
        GLOBAL.get_or_init(NlParser::train_default)
    }

    #[test]
    fn paper_example_genomics() {
        // "show me genes that are rising, then going down, and then
        // increasing" (Figure 2).
        let p = parser()
            .parse("show me genes that are rising, then going down, and then increasing")
            .unwrap();
        assert_eq!(p.query.to_string(), "[p=up][p=down][p=up]");
    }

    #[test]
    fn sharp_peak_luminosity() {
        // "find me objects with a sharp peak in luminosity" (§2).
        let p = parser()
            .parse("find me objects with a sharp peak in luminosity")
            .unwrap();
        let s = p.query.to_string();
        assert!(
            s.contains("p=[[p=up][p=down]]"),
            "expected a peak pattern, got {s}"
        );
    }

    #[test]
    fn location_query() {
        let p = parser()
            .parse("stocks increasing from 2 to 5 then falling")
            .unwrap();
        let s = p.query.to_string();
        assert!(s.contains("x.s=2"), "got {s}");
        assert!(s.contains("x.e=5"), "got {s}");
        assert!(s.contains("[p=down]"), "got {s}");
    }

    #[test]
    fn or_query() {
        let p = parser()
            .parse("genes that are either rising or falling")
            .unwrap();
        assert_eq!(p.query.to_string(), "[p=up] | [p=down]");
    }

    #[test]
    fn modifier_query() {
        let p = parser()
            .parse("cities with temperature rising sharply")
            .unwrap();
        assert_eq!(p.query.to_string(), "[p=up, m=>>]");
    }

    #[test]
    fn unintelligible_query_errors() {
        assert!(parser().parse("purple monkey dishwasher").is_err());
        assert!(parser().parse("").is_err());
    }

    #[test]
    fn text_longer_than_the_cap_is_refused_unread() {
        // A real query padded with spaces (the tokenizer drops them) to
        // exactly the cap, then one byte more.
        let query = "show me genes that are rising, then going down";
        let at_cap = format!("{query:<MAX_NL_BYTES$}");
        assert_eq!(at_cap.len(), MAX_NL_BYTES);
        let p = parser().parse(&at_cap).unwrap();
        assert_eq!(p.query.to_string(), "[p=up][p=down]");
        let over = format!("{at_cap} ");
        let err = parser().parse(&over).unwrap_err();
        assert!(
            err.message.contains("4097 bytes, longer than 4096"),
            "{}",
            err.message
        );
        assert!(err.input.len() < 64, "the refusal must not echo the text");
    }

    #[test]
    fn tagging_quality_on_corpus() {
        // In-sample tagging should be strong; cross-validation quality is
        // measured by the `figures -- crf` experiment (E9).
        let report = cross_validate_corpus(120, 4, 7);
        assert!(
            report.accuracy() > 0.85,
            "token accuracy {}",
            report.accuracy()
        );
        assert!(report.macro_f1() > 0.6, "macro F1 {}", report.macro_f1());
    }
}
