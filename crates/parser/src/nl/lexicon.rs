//! The shape-query lexicon: synonyms for each pattern / modifier / operator
//! value, normalized edit distance, and a semantic-similarity fallback.
//!
//! Mirrors §4 "Identifying Pattern and Modifier Value": "ShapeSearch first
//! calculates the normalized edit distance ... between the word and each of
//! the synonyms of a supported value, and takes the minimum. If the lowest
//! edit distance across all values is more than a threshold (.1 as default),
//! ShapeSearch further calculates the average semantic similarity (using
//! wordnet synset) ... and finally selects the value with highest similarity
//! score." WordNet is replaced by a curated relatedness list plus a
//! character-bigram similarity over stems (documented substitution).

/// Resolved pattern vocabulary values.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PatternWord {
    /// Rising trend.
    Up,
    /// Falling trend.
    Down,
    /// Stable trend.
    Flat,
    /// A peak (rise then fall).
    Peak,
    /// A valley / dip (fall then rise).
    Valley,
}

/// Resolved modifier vocabulary values.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModifierWord {
    /// Sharp / steep (`m = >>`).
    Sharp,
    /// Gradual / slow (`m = >` in its intensity reading).
    Gradual,
    /// A spelled-out count ("twice" → 2).
    Count(u32),
}

/// Words for a rising trend (`p=up`).
pub const UP_WORDS: &[&str] = &[
    "up",
    "increase",
    "increasing",
    "increased",
    "rise",
    "rising",
    "rose",
    "grow",
    "growing",
    "climb",
    "climbing",
    "gain",
    "gaining",
    "upward",
    "improve",
    "improving",
    "recover",
    "recovering",
    "surge",
    "surging",
    "ascend",
    "ascending",
    "expressed",
    "expressing",
];
/// Words for a falling trend (`p=down`).
pub const DOWN_WORDS: &[&str] = &[
    "down",
    "decrease",
    "decreasing",
    "decreased",
    "fall",
    "falling",
    "fell",
    "drop",
    "dropping",
    "dropped",
    "decline",
    "declining",
    "shrink",
    "shrinking",
    "lose",
    "losing",
    "downward",
    "plunge",
    "plunging",
    "descend",
    "descending",
    "reduce",
    "reducing",
    "suppress",
    "suppressed",
    "dip",
    "dipping",
];
/// Words for a stable trend (`p=flat`).
pub const FLAT_WORDS: &[&str] = &[
    "flat",
    "stable",
    "stabilize",
    "stabilized",
    "constant",
    "steady",
    "unchanged",
    "plateau",
    "level",
    "stagnant",
    "still",
];
/// Words for a peak (rise then fall).
pub const PEAK_WORDS: &[&str] = &[
    "peak", "peaks", "spike", "spikes", "bump", "bumps", "top", "tops", "maximum", "maxima",
];
/// Words for a valley (fall then rise).
pub const VALLEY_WORDS: &[&str] = &[
    "valley", "valleys", "trough", "troughs", "bottom", "bottoms", "minimum", "minima",
];

/// Words for a sharp change (`m=>>`).
pub const SHARP_WORDS: &[&str] = &[
    "sharp",
    "sharply",
    "steep",
    "steeply",
    "quickly",
    "rapidly",
    "rapid",
    "suddenly",
    "sudden",
    "dramatically",
    "fast",
    "abruptly",
    "abrupt",
];
/// Words for a gradual change.
pub const GRADUAL_WORDS: &[&str] = &[
    "gradual",
    "gradually",
    "slowly",
    "slow",
    "gently",
    "gentle",
    "mildly",
    "mild",
    "softly",
];

/// Curated relatedness lists standing in for WordNet synsets: words that are
/// semantically close to a value without being spelled like its synonyms.
const UP_RELATED: &[&str] = &["bullish", "rally", "boom", "soar", "soaring", "upturn"];
const DOWN_RELATED: &[&str] = &[
    "bearish", "crash", "slump", "sink", "sinking", "downturn", "tank",
];
const FLAT_WORDS_RELATED: &[&str] = &["sideways", "quiet", "calm"];

/// Words mapping to CONCAT.
pub const CONCAT_WORDS: &[&str] = &[
    "then",
    "next",
    "followed",
    "after",
    "afterwards",
    "afterward",
    "later",
    "subsequently",
    "finally",
    "and",
];
/// Words mapping to OR.
pub const OR_WORDS: &[&str] = &["or", "alternatively", "either"];
/// Words mapping to AND (simultaneous patterns).
pub const AND_WORDS: &[&str] = &["while", "simultaneously", "meanwhile", "also"];
/// Words mapping to OPPOSITE.
pub const NOT_WORDS: &[&str] = &["not", "never", "no", "without", "isnt", "arent"];

/// Levenshtein edit distance.
pub fn edit_distance(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut curr = vec![0usize; b.len() + 1];
    for (i, &ca) in a.iter().enumerate() {
        curr[0] = i + 1;
        for (j, &cb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            curr[j + 1] = sub.min(prev[j + 1] + 1).min(curr[j] + 1);
        }
        std::mem::swap(&mut prev, &mut curr);
    }
    prev[b.len()]
}

/// Edit distance divided by the average length of the two words (§4).
pub fn normalized_edit_distance(a: &str, b: &str) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 0.0;
    }
    let avg = (a.chars().count() + b.chars().count()) as f64 / 2.0;
    edit_distance(a, b) as f64 / avg
}

/// A crude stemmer: strips common inflection suffixes.
pub fn stem(word: &str) -> &str {
    for suffix in ["ingly", "edly", "ing", "ed", "ly", "es", "s"] {
        if let Some(base) = word.strip_suffix(suffix) {
            if base.len() >= 3 {
                return base;
            }
        }
    }
    word
}

/// Character-bigram Dice similarity over stems — the semantic-similarity
/// fallback standing in for WordNet synset similarity.
pub fn semantic_similarity(a: &str, b: &str) -> f64 {
    let bigrams = |w: &str| -> Vec<(char, char)> {
        let chars: Vec<char> = stem(w).chars().collect();
        chars.windows(2).map(|p| (p[0], p[1])).collect()
    };
    let (ba, bb) = (bigrams(a), bigrams(b));
    if ba.is_empty() || bb.is_empty() {
        return if stem(a) == stem(b) { 1.0 } else { 0.0 };
    }
    let mut shared = 0usize;
    let mut used = vec![false; bb.len()];
    for g in &ba {
        if let Some(i) = bb.iter().enumerate().position(|(i, h)| h == g && !used[i]) {
            used[i] = true;
            shared += 1;
        }
    }
    2.0 * shared as f64 / (ba.len() + bb.len()) as f64
}

/// Resolves a word to a pattern value using the §4 two-step procedure.
pub fn resolve_pattern(word: &str) -> Option<PatternWord> {
    let word = word.to_ascii_lowercase();
    let candidates: [(&[&str], &[&str], PatternWord); 5] = [
        (UP_WORDS, UP_RELATED, PatternWord::Up),
        (DOWN_WORDS, DOWN_RELATED, PatternWord::Down),
        (FLAT_WORDS, FLAT_WORDS_RELATED, PatternWord::Flat),
        (PEAK_WORDS, &[], PatternWord::Peak),
        (VALLEY_WORDS, &[], PatternWord::Valley),
    ];
    // Step 1: normalized edit distance to synonyms, minimum per value.
    let mut best: Option<(f64, PatternWord)> = None;
    for (syns, _, value) in candidates {
        for syn in syns {
            let d = normalized_edit_distance(&word, syn);
            if best.is_none_or(|(bd, _)| d < bd) {
                best = Some((d, value));
            }
        }
    }
    if let Some((d, value)) = best {
        if d <= 0.1 {
            return Some(value);
        }
    }
    // Step 2: semantic similarity fallback (average over synonyms + related).
    let mut best: Option<(f64, PatternWord)> = None;
    for (syns, related, value) in [
        (UP_WORDS, UP_RELATED, PatternWord::Up),
        (DOWN_WORDS, DOWN_RELATED, PatternWord::Down),
        (FLAT_WORDS, FLAT_WORDS_RELATED, PatternWord::Flat),
        (PEAK_WORDS, &[] as &[&str], PatternWord::Peak),
        (VALLEY_WORDS, &[], PatternWord::Valley),
    ] {
        let mut sims: Vec<f64> = syns
            .iter()
            .chain(related.iter())
            .map(|s| semantic_similarity(&word, s))
            .collect();
        sims.sort_by(|a, b| b.total_cmp(a));
        // Average the 3 closest synonyms rather than all (long synonym lists
        // would dilute good matches).
        let top: f64 = sims.iter().take(3).sum::<f64>() / sims.len().clamp(1, 3) as f64;
        if best.is_none_or(|(bs, _)| top > bs) {
            best = Some((top, value));
        }
    }
    // 0.6 keeps inflections of known stems ("soaring" → "soar") while
    // rejecting incidental overlaps ("brown" vs "down" scores 0.57).
    match best {
        Some((sim, value)) if sim >= 0.6 => Some(value),
        _ => None,
    }
}

/// Resolves a word to a modifier value.
pub fn resolve_modifier(word: &str) -> Option<ModifierWord> {
    let word = word.to_ascii_lowercase();
    match word.as_str() {
        "once" => return Some(ModifierWord::Count(1)),
        "twice" => return Some(ModifierWord::Count(2)),
        "thrice" => return Some(ModifierWord::Count(3)),
        _ => {}
    }
    let mut best: Option<(f64, ModifierWord)> = None;
    for (syns, value) in [
        (SHARP_WORDS, ModifierWord::Sharp),
        (GRADUAL_WORDS, ModifierWord::Gradual),
    ] {
        for syn in syns {
            let d = normalized_edit_distance(&word, syn);
            if best.is_none_or(|(bd, _)| d < bd) {
                best = Some((d, value));
            }
        }
    }
    match best {
        Some((d, value)) if d <= 0.34 => Some(value),
        _ => None,
    }
}

/// True when `word` is a likely synonym match for *any* entity class —
/// produces the `predicted-entity` CRF feature (§4's weakly-supervised
/// bootstrapping).
pub fn predicted_entity(word: &str) -> Option<&'static str> {
    let w = word.to_ascii_lowercase();
    // Short words only tolerate one edit ("the" must not match "top").
    let close = |syns: &[&str]| {
        let max_d = if w.chars().count() <= 4 { 1 } else { 2 };
        w.len() >= 3 && syns.iter().any(|s| edit_distance(&w, s) <= max_d)
    };
    if CONCAT_WORDS.contains(&w.as_str()) {
        return Some("CONCAT");
    }
    if OR_WORDS.contains(&w.as_str()) {
        return Some("OR");
    }
    if AND_WORDS.contains(&w.as_str()) {
        return Some("AND");
    }
    if NOT_WORDS.contains(&w.as_str()) {
        return Some("NOT");
    }
    if crate::finite_number(&w).is_some() {
        return Some("NUMBER");
    }
    if matches!(w.as_str(), "once" | "twice" | "thrice") {
        return Some("COUNT");
    }
    if close(UP_WORDS)
        || close(DOWN_WORDS)
        || close(FLAT_WORDS)
        || close(PEAK_WORDS)
        || close(VALLEY_WORDS)
    {
        return Some("PATTERN");
    }
    if close(SHARP_WORDS) || close(GRADUAL_WORDS) {
        return Some("MODIFIER");
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edit_distance_basics() {
        assert_eq!(edit_distance("kitten", "sitting"), 3);
        assert_eq!(edit_distance("", "abc"), 3);
        assert_eq!(edit_distance("same", "same"), 0);
    }

    #[test]
    fn normalized_distance() {
        assert_eq!(normalized_edit_distance("same", "same"), 0.0);
        assert!(normalized_edit_distance("rise", "rose") > 0.0);
    }

    #[test]
    fn exact_synonyms_resolve() {
        assert_eq!(resolve_pattern("increasing"), Some(PatternWord::Up));
        assert_eq!(resolve_pattern("falling"), Some(PatternWord::Down));
        assert_eq!(resolve_pattern("stable"), Some(PatternWord::Flat));
        assert_eq!(resolve_pattern("peaks"), Some(PatternWord::Peak));
        assert_eq!(resolve_pattern("dip"), Some(PatternWord::Down));
        assert_eq!(resolve_pattern("trough"), Some(PatternWord::Valley));
    }

    #[test]
    fn typos_resolve_via_edit_distance() {
        // "increasng" is 1 edit from "increasing": normalized ≈ 0.105 — just
        // over the .1 threshold, recovered by the similarity fallback.
        assert_eq!(resolve_pattern("increasng"), Some(PatternWord::Up));
        assert_eq!(resolve_pattern("fallling"), Some(PatternWord::Down));
    }

    #[test]
    fn related_words_resolve_via_similarity() {
        assert_eq!(resolve_pattern("soaring"), Some(PatternWord::Up));
        assert_eq!(resolve_pattern("sinking"), Some(PatternWord::Down));
    }

    #[test]
    fn unrelated_words_do_not_resolve() {
        assert_eq!(resolve_pattern("banana"), None);
        assert_eq!(resolve_pattern("the"), None);
    }

    #[test]
    fn modifiers_resolve() {
        assert_eq!(resolve_modifier("sharply"), Some(ModifierWord::Sharp));
        assert_eq!(resolve_modifier("rapidly"), Some(ModifierWord::Sharp));
        assert_eq!(resolve_modifier("gradually"), Some(ModifierWord::Gradual));
        assert_eq!(resolve_modifier("twice"), Some(ModifierWord::Count(2)));
        assert_eq!(resolve_modifier("banana"), None);
    }

    #[test]
    fn stemming() {
        assert_eq!(stem("rising"), "ris");
        assert_eq!(stem("sharply"), "sharp");
        assert_eq!(stem("dropped"), "dropp");
        assert_eq!(stem("up"), "up");
    }

    #[test]
    fn semantic_similarity_orders_sensibly() {
        let s_close = semantic_similarity("soaring", "soar");
        let s_far = semantic_similarity("soaring", "falling");
        assert!(s_close > s_far);
    }

    #[test]
    fn predicted_entities() {
        assert_eq!(predicted_entity("then"), Some("CONCAT"));
        assert_eq!(predicted_entity("or"), Some("OR"));
        assert_eq!(predicted_entity("rising"), Some("PATTERN"));
        assert_eq!(predicted_entity("sharply"), Some("MODIFIER"));
        assert_eq!(predicted_entity("42"), Some("NUMBER"));
        assert_eq!(predicted_entity("twice"), Some("COUNT"));
        assert_eq!(predicted_entity("zzz"), None);
    }
}
