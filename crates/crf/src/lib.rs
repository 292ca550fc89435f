//! # shapesearch-crf
//!
//! A from-scratch **linear-chain conditional random field** (Lafferty et
//! al., the paper's reference \[25\]) plus a small rule-based
//! part-of-speech tagger. This is the machine
//! learning substrate behind ShapeSearch's natural-language parser (paper
//! §4): "given a sequence of non-noise words, we use a linear-chain
//! conditional-random field model (CRF) to predict their corresponding
//! entities".
//!
//! The paper used the Python CRF-Suite library; here the model family is
//! reimplemented natively:
//!
//! * sparse string features per token (interned into a [`Vocab`]),
//! * unary (feature × label), transition (label × label), and start/end
//!   potentials,
//! * exact inference via **forward–backward** in log space,
//! * maximum-likelihood training with **L2-regularised SGD** (the paper's
//!   L1/L2 settings are mirrored by [`TrainConfig`]),
//! * **Viterbi** decoding,
//! * evaluation helpers (token accuracy, per-label precision/recall/F1,
//!   k-fold cross-validation) used to reproduce the paper's reported
//!   F1 = 81% (P = 73%, R = 90%).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod eval;
mod model;
pub mod pos;
mod train;
mod vocab;

pub use eval::{cross_validate, evaluate, EvalReport, LabelMetrics};
pub use model::CrfModel;
pub use train::{train, TrainConfig};
pub use vocab::Vocab;

/// A single training/decoding sequence: per-token sparse feature lists and
/// (for training) the gold label per token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Sequence {
    /// For each token, the list of active feature strings.
    pub features: Vec<Vec<String>>,
    /// Gold labels, one per token (empty for decode-only sequences).
    pub labels: Vec<String>,
}

impl Sequence {
    /// Creates a labeled sequence; feature and label lengths must match.
    ///
    /// # Panics
    /// Panics when lengths differ.
    pub fn new(features: Vec<Vec<String>>, labels: Vec<String>) -> Self {
        assert_eq!(
            features.len(),
            labels.len(),
            "feature rows and labels must align"
        );
        Self { features, labels }
    }

    /// Creates an unlabeled sequence for decoding.
    pub fn unlabeled(features: Vec<Vec<String>>) -> Self {
        Self {
            features,
            labels: Vec::new(),
        }
    }

    /// Number of tokens.
    pub fn len(&self) -> usize {
        self.features.len()
    }

    /// True when the sequence has no tokens.
    pub fn is_empty(&self) -> bool {
        self.features.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequence_construction() {
        let s = Sequence::new(
            vec![vec!["w=a".into()], vec!["w=b".into()]],
            vec!["X".into(), "Y".into()],
        );
        assert_eq!(s.len(), 2);
        assert!(!s.is_empty());
    }

    #[test]
    #[should_panic(expected = "align")]
    fn mismatched_lengths_panic() {
        Sequence::new(vec![vec![]], vec![]);
    }
}
