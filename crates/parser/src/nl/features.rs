//! CRF feature extraction (paper Table 3).
//!
//! For each token the extractor emits sparse string features: POS tags of
//! the token and its neighbours, surrounding words, synonym-predicted
//! entities with distances, time/space preposition contexts, punctuation and
//! conjunction distances, and the miscellaneous cues (`d(x)`, `d(y)`,
//! `d(next)`, `ends(ing)`, `ends(ly)`, `length(query)`).
//!
//! Features are computed over the **full** token sequence (noise words "are
//! still used for deriving features for the non-noise words", §4), while the
//! CRF itself runs over the non-noise subsequence.

use crate::finite_number;
use crate::nl::lexicon::predicted_entity;
use shapesearch_crf::pos::{is_noise_tag, tag_word, PosTag};

const TIME_PREPOSITIONS: &[&str] = &[
    "during", "until", "till", "when", "while", "before", "after",
];
const SPACE_PREPOSITIONS: &[&str] = &[
    "from", "to", "between", "at", "over", "within", "above", "below", "around",
];
const STOPWORDS: &[&str] = &[
    "me", "i", "we", "that", "which", "who", "a", "an", "the", "of", "for", "with", "are", "is",
    "was", "were", "be", "been", "it", "its", "in", "on",
];

/// A tokenized sentence with POS tags and the noise mask.
#[derive(Debug, Clone)]
pub struct Tokenized {
    /// Lowercased tokens (words, numbers, punctuation).
    pub tokens: Vec<String>,
    /// POS tag per token.
    pub tags: Vec<PosTag>,
    /// True when the token is classified as noise (never an entity).
    pub noise: Vec<bool>,
}

/// Splits text into lowercase word / number / punctuation tokens.
pub fn tokenize(text: &str) -> Vec<String> {
    let mut tokens = Vec::new();
    let mut current = String::new();
    for c in text.chars() {
        if c.is_alphanumeric()
            || c == '.' && current.chars().all(|d| d.is_ascii_digit()) && !current.is_empty()
        {
            current.push(c.to_ascii_lowercase());
        } else {
            if !current.is_empty() {
                tokens.push(std::mem::take(&mut current));
            }
            if !c.is_whitespace() {
                tokens.push(c.to_string());
            }
        }
    }
    if !current.is_empty() {
        tokens.push(current);
    }
    tokens
}

/// Tokenizes and classifies noise (step 1 of §4: "based on the
/// Part-of-Speech (POS) tags and word-level features, we classify each word
/// in the query as either noise or non-noise").
pub fn analyze(text: &str) -> Tokenized {
    let tokens = tokenize(text);
    let tags: Vec<PosTag> = tokens.iter().map(|t| tag_word(t)).collect();
    let noise = tokens
        .iter()
        .zip(&tags)
        .map(|(tok, &tag)| {
            if predicted_entity(tok).is_some() {
                return false; // synonym-matched words are never noise
            }
            is_noise_tag(tag) || STOPWORDS.contains(&tok.as_str())
        })
        .collect();
    Tokenized {
        tokens,
        tags,
        noise,
    }
}

/// Buckets a distance for use as a discrete feature value.
fn bucket(d: usize) -> &'static str {
    match d {
        0 => "0",
        1 => "1",
        2 => "2",
        3 => "3",
        _ => "4+",
    }
}

/// Distance (in tokens) from `i` to the nearest later token satisfying
/// `pred`, if any.
fn dist_fwd(tokens: &[String], i: usize, pred: impl Fn(&str) -> bool) -> Option<usize> {
    tokens[i + 1..].iter().position(|t| pred(t)).map(|d| d + 1)
}

/// Distance to the nearest earlier token satisfying `pred`.
fn dist_bwd(tokens: &[String], i: usize, pred: impl Fn(&str) -> bool) -> Option<usize> {
    tokens[..i]
        .iter()
        .rev()
        .position(|t| pred(t))
        .map(|d| d + 1)
}

/// Extracts the Table-3 feature vector for token `i` of the full sequence.
pub fn token_features(t: &Tokenized, i: usize) -> Vec<String> {
    let tokens = &t.tokens;
    let tags = &t.tags;
    let n = tokens.len();
    let word = |j: i64| -> &str {
        if j < 0 || j as usize >= n {
            "<pad>"
        } else {
            &tokens[j as usize]
        }
    };
    let tag = |j: i64| -> &str {
        if j < 0 || j as usize >= n {
            "<pad>"
        } else {
            tags[j as usize].name()
        }
    };
    let i64i = i as i64;

    let mut f: Vec<String> = Vec::with_capacity(24);
    // Current word (surface + stem) and POS context.
    f.push(format!("w={}", tokens[i]));
    f.push(format!("stem={}", crate::nl::lexicon::stem(&tokens[i])));
    f.push(format!("pos={}", tag(i64i)));
    f.push(format!("pos-1={}", tag(i64i - 1)));
    f.push(format!("pos+1={}", tag(i64i + 1)));
    // Word context.
    f.push(format!("w-1={}", word(i64i - 1)));
    f.push(format!("w+1={}", word(i64i + 1)));
    f.push(format!("w-2={}", word(i64i - 2)));
    f.push(format!("w+2={}", word(i64i + 2)));
    // Predicted entities (bootstrapping).
    if let Some(e) = predicted_entity(&tokens[i]) {
        f.push(format!("pred={e}"));
    }
    if let Some(d) = dist_fwd(tokens, i, |t| predicted_entity(t).is_some()) {
        let j = i + d;
        f.push(format!(
            "pred+1={}",
            predicted_entity(&tokens[j]).expect("found")
        ));
        f.push(format!("d(pred+)={}", bucket(d)));
    }
    if let Some(d) = dist_bwd(tokens, i, |t| predicted_entity(t).is_some()) {
        let j = i - d;
        f.push(format!(
            "pred-1={}",
            predicted_entity(&tokens[j]).expect("found")
        ));
        f.push(format!("d(pred-)={}", bucket(d)));
    }
    // Time and space prepositions.
    if let Some(d) = dist_bwd(tokens, i, |t| TIME_PREPOSITIONS.contains(&t)) {
        f.push(format!("d(timeprep-)={}", bucket(d)));
        f.push(format!("timeprep-={}", word(i64i - d as i64)));
    }
    if let Some(d) = dist_fwd(tokens, i, |t| TIME_PREPOSITIONS.contains(&t)) {
        f.push(format!("d(timeprep+)={}", bucket(d)));
    }
    if let Some(d) = dist_bwd(tokens, i, |t| SPACE_PREPOSITIONS.contains(&t)) {
        f.push(format!("d(spaceprep-)={}", bucket(d)));
        f.push(format!("spaceprep-={}", word(i64i - d as i64)));
    }
    if let Some(d) = dist_fwd(tokens, i, |t| SPACE_PREPOSITIONS.contains(&t)) {
        f.push(format!("d(spaceprep+)={}", bucket(d)));
    }
    // Punctuation distances.
    for (name, ch) in [("comma", ","), ("semi", ";"), ("dot", ".")] {
        if let Some(d) = dist_fwd(tokens, i, |t| t == ch) {
            f.push(format!("d({name}+)={}", bucket(d)));
        }
        if let Some(d) = dist_bwd(tokens, i, |t| t == ch) {
            f.push(format!("d({name}-)={}", bucket(d)));
        }
    }
    // Conjunction distances.
    if let Some(d) = dist_fwd(tokens, i, |t| t == "and") {
        f.push(format!("d(and+)={}", bucket(d)));
    }
    if let Some(d) = dist_bwd(tokens, i, |t| t == "or") {
        f.push(format!("d(or-)={}", bucket(d)));
    }
    // Miscellaneous.
    if let Some(d) = dist_bwd(tokens, i, |t| t == "x") {
        f.push(format!("d(x)={}", bucket(d)));
    }
    if let Some(d) = dist_bwd(tokens, i, |t| t == "y") {
        f.push(format!("d(y)={}", bucket(d)));
    }
    if let Some(d) = dist_fwd(tokens, i, |t| t == "next" || t == "then") {
        f.push(format!("d(next)={}", bucket(d)));
    }
    if tokens[i].ends_with("ing") {
        f.push("ends(ing)".into());
    }
    if tokens[i].ends_with("ly") {
        f.push("ends(ly)".into());
    }
    if finite_number(&tokens[i]).is_some() {
        f.push("is-number".into());
        // A number's role depends on the word before it.
        f.push(format!("num-lead={}", word(i64i - 1)));
        f.push(format!("num-next={}", word(i64i + 1)));
    }
    f.push(format!("len={}", bucket(n / 4)));
    f
}

/// Features for the non-noise subsequence: returns `(features, indices)`
/// where `indices[j]` is the original token position of CRF item `j`.
pub fn non_noise_features(t: &Tokenized) -> (Vec<Vec<String>>, Vec<usize>) {
    let mut feats = Vec::new();
    let mut idx = Vec::new();
    for i in 0..t.tokens.len() {
        if !t.noise[i] {
            feats.push(token_features(t, i));
            idx.push(i);
        }
    }
    (feats, idx)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokenizer_splits_words_numbers_punct() {
        assert_eq!(
            tokenize("Rising from 2.5 to 10, then falling!"),
            vec!["rising", "from", "2.5", "to", "10", ",", "then", "falling", "!"]
        );
    }

    #[test]
    fn tokenizer_handles_empty_and_whitespace() {
        assert!(tokenize("").is_empty());
        assert!(tokenize("   ").is_empty());
    }

    #[test]
    fn noise_classification() {
        let t = analyze("show me the genes that are rising sharply");
        let noise_of = |w: &str| {
            let i = t.tokens.iter().position(|x| x == w).unwrap();
            t.noise[i]
        };
        assert!(noise_of("the"));
        assert!(noise_of("me"));
        assert!(!noise_of("rising"));
        assert!(!noise_of("sharply"));
        assert!(!noise_of("genes")); // noun, kept (entity-adjacent)
    }

    #[test]
    fn synonym_words_are_never_noise() {
        // "then" could be filtered as a transition word, but it maps to
        // CONCAT and must be kept.
        let t = analyze("rising then falling");
        assert_eq!(t.noise, vec![false, false, false]);
    }

    #[test]
    fn features_include_context() {
        let t = analyze("rising from 2 to 5");
        let i = t.tokens.iter().position(|x| x == "2").unwrap();
        let f = token_features(&t, i);
        assert!(f.contains(&"is-number".to_string()));
        assert!(f.contains(&"num-lead=from".to_string()));
        assert!(f.iter().any(|x| x.starts_with("d(spaceprep-)")));
        let i = t.tokens.iter().position(|x| x == "rising").unwrap();
        let f = token_features(&t, i);
        assert!(f.contains(&"ends(ing)".to_string()));
        assert!(f.contains(&"pred=PATTERN".to_string()));
    }

    #[test]
    fn boundary_tokens_use_padding() {
        let t = analyze("rising");
        let f = token_features(&t, 0);
        assert!(f.contains(&"w-1=<pad>".to_string()));
        assert!(f.contains(&"w+1=<pad>".to_string()));
    }

    #[test]
    fn non_noise_projection_keeps_indices() {
        let t = analyze("show me stocks rising then falling");
        let (feats, idx) = non_noise_features(&t);
        assert_eq!(feats.len(), idx.len());
        for (f, &i) in feats.iter().zip(&idx) {
            assert!(f.contains(&format!("w={}", t.tokens[i])));
        }
    }
}
