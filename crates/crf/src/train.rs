//! CRF training: maximum likelihood with L2-regularised SGD (gradients via
//! forward–backward).
//!
//! The paper trained with CRF-Suite using "L1 penalty: 1.0, L2 penalty:
//! 0.001, max iterations: 50". [`TrainConfig::default`] mirrors the L2 and
//! iteration settings (L1 is approximated by the truncated-gradient clip
//! in [`TrainConfig::l1`]).

use crate::model::CrfModel;
use crate::vocab::Vocab;
use crate::Sequence;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Training hyper-parameters of L2-regularised stochastic gradient descent
/// on the negative log-likelihood (exact gradients via forward–backward).
#[derive(Debug, Clone, Copy)]
pub struct TrainConfig {
    /// Number of passes over the data (paper: 50).
    pub max_iterations: usize,
    /// Initial SGD learning rate, decayed as `lr / (1 + epoch)`.
    pub learning_rate: f64,
    /// L2 regularisation strength (paper: 0.001).
    pub l2: f64,
    /// L1 truncation strength applied once per epoch (paper: 1.0; scaled by
    /// the learning rate internally).
    pub l1: f64,
    /// RNG seed for shuffling (training is fully deterministic given this).
    pub seed: u64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self {
            max_iterations: 50,
            learning_rate: 0.2,
            l2: 0.001,
            l1: 0.0,
            seed: 0x5ea9c4,
        }
    }
}

/// Trains a CRF on labeled sequences.
///
/// # Panics
/// Panics when `data` is empty or contains an empty/unlabeled sequence.
pub fn train(data: &[Sequence], config: TrainConfig) -> CrfModel {
    assert!(!data.is_empty(), "training data must be non-empty");
    for s in data {
        assert!(!s.is_empty(), "training sequences must be non-empty");
        assert_eq!(
            s.features.len(),
            s.labels.len(),
            "training sequences must be fully labeled"
        );
    }

    // Build vocabularies from the training data.
    let mut features = Vocab::new();
    let mut labels = Vocab::new();
    for s in data {
        for tok in &s.features {
            for f in tok {
                features.intern(f);
            }
        }
        for l in &s.labels {
            labels.intern(l);
        }
    }
    let mut model = CrfModel::new(features, labels);

    // Pre-intern per-sequence feature ids and label ids.
    let interned: Vec<(Vec<Vec<u32>>, Vec<usize>)> = data
        .iter()
        .map(|s| {
            let feats = s
                .features
                .iter()
                .map(|tok| model.feature_ids(tok))
                .collect();
            let labs = s
                .labels
                .iter()
                .map(|l| model.labels.get(l).expect("interned above") as usize)
                .collect();
            (feats, labs)
        })
        .collect();

    train_sgd(&mut model, &interned, config);
    model
}

fn train_sgd(model: &mut CrfModel, data: &[(Vec<Vec<u32>>, Vec<usize>)], config: TrainConfig) {
    let mut order: Vec<usize> = (0..data.len()).collect();
    let mut rng = StdRng::seed_from_u64(config.seed);

    for epoch in 0..config.max_iterations {
        let lr = config.learning_rate / (1.0 + epoch as f64 * 0.1);
        order.shuffle(&mut rng);
        for &idx in &order {
            let (feats, labs) = &data[idx];
            sgd_step(model, feats, labs, lr, config.l2);
        }
        if config.l1 > 0.0 {
            // Truncated-gradient L1: clip weights toward zero once per epoch.
            let clip = config.l1 * lr / data.len() as f64;
            for w in model
                .unary
                .iter_mut()
                .chain(model.transition.iter_mut())
                .chain(model.start.iter_mut())
                .chain(model.end.iter_mut())
            {
                *w = if *w > clip {
                    *w - clip
                } else if *w < -clip {
                    *w + clip
                } else {
                    0.0
                };
            }
        }
    }
}

/// One SGD step on a single sequence: gradient of the log-likelihood is
/// (empirical feature counts) − (expected feature counts under the model).
#[allow(clippy::needless_range_loop)] // indices span several DP tables
fn sgd_step(model: &mut CrfModel, feats: &[Vec<u32>], labs: &[usize], lr: f64, l2: f64) {
    let n = feats.len();
    let nl = model.num_labels();
    // Unary score matrix from interned ids.
    let unary: Vec<Vec<f64>> = feats
        .iter()
        .map(|ids| (0..nl).map(|l| model.unary_score(ids, l)).collect())
        .collect();
    let (alpha, beta, log_z) = model.forward_backward(&unary);

    // Per-token marginals P(yₜ = y).
    // Empirical − expected, applied directly with learning rate.
    for t in 0..n {
        for y in 0..nl {
            let marginal = (alpha[t][y] + beta[t][y] - log_z).exp();
            let empirical = if labs[t] == y { 1.0 } else { 0.0 };
            let g = empirical - marginal;
            if g == 0.0 {
                continue;
            }
            for &f in &feats[t] {
                let w = &mut model.unary[f as usize * nl + y];
                *w += lr * g;
            }
            if t == 0 {
                model.start[y] += lr * g;
            }
            if t == n - 1 {
                model.end[y] += lr * g;
            }
        }
    }
    // Pairwise marginals P(yₜ = a, yₜ₊₁ = b) for transitions.
    for t in 0..n.saturating_sub(1) {
        for a in 0..nl {
            for b in 0..nl {
                let lp =
                    alpha[t][a] + model.transition[a * nl + b] + unary[t + 1][b] + beta[t + 1][b]
                        - log_z;
                let marginal = lp.exp();
                let empirical = if labs[t] == a && labs[t + 1] == b {
                    1.0
                } else {
                    0.0
                };
                let g = empirical - marginal;
                if g != 0.0 {
                    model.transition[a * nl + b] += lr * g;
                }
            }
        }
    }
    // L2 shrinkage (proportional, applied per step scaled down by n to keep
    // the effective strength comparable across sequence lengths).
    if l2 > 0.0 {
        let shrink = 1.0 - lr * l2;
        for w in model
            .unary
            .iter_mut()
            .chain(model.transition.iter_mut())
            .chain(model.start.iter_mut())
            .chain(model.end.iter_mut())
        {
            *w *= shrink;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy language: tokens "a" are labeled A, "b" labeled B, except a "b"
    /// right after an "a" is labeled "AB" — learnable only with transitions
    /// plus context features.
    fn toy_corpus() -> Vec<Sequence> {
        let mk = |words: &[&str], labels: &[&str]| {
            let feats = words
                .iter()
                .enumerate()
                .map(|(i, w)| {
                    let mut f = vec![format!("w={w}")];
                    if i > 0 {
                        f.push(format!("w-1={}", words[i - 1]));
                    }
                    f
                })
                .collect();
            Sequence::new(feats, labels.iter().map(|s| (*s).to_owned()).collect())
        };
        vec![
            mk(&["a", "b", "b"], &["A", "AB", "B"]),
            mk(&["b", "a", "b"], &["B", "A", "AB"]),
            mk(&["a", "a", "b"], &["A", "A", "AB"]),
            mk(&["b", "b", "a"], &["B", "B", "A"]),
            mk(&["a", "b", "a", "b"], &["A", "AB", "A", "AB"]),
        ]
    }

    #[test]
    fn sgd_learns_contextual_labels() {
        let model = train(&toy_corpus(), TrainConfig::default());
        let seq = Sequence::unlabeled(vec![
            vec!["w=a".into()],
            vec!["w=b".into(), "w-1=a".into()],
            vec!["w=b".into(), "w-1=b".into()],
        ]);
        assert_eq!(model.decode(&seq), vec!["A", "AB", "B"]);
    }

    #[test]
    fn training_is_deterministic() {
        let m1 = train(&toy_corpus(), TrainConfig::default());
        let m2 = train(&toy_corpus(), TrainConfig::default());
        assert_eq!(m1.unary, m2.unary);
        assert_eq!(m1.transition, m2.transition);
    }

    #[test]
    fn log_likelihood_improves_with_training() {
        let corpus = toy_corpus();
        let untrained = train(
            &corpus,
            TrainConfig {
                max_iterations: 0,
                ..TrainConfig::default()
            },
        );
        let trained = train(&corpus, TrainConfig::default());
        let labels: Vec<usize> = corpus[0]
            .labels
            .iter()
            .map(|l| trained.labels.get(l).unwrap() as usize)
            .collect();
        let ll_before = untrained.log_likelihood(&corpus[0], &labels);
        let ll_after = trained.log_likelihood(&corpus[0], &labels);
        assert!(
            ll_after > ll_before,
            "training should raise log-likelihood: {ll_before} -> {ll_after}"
        );
    }

    #[test]
    fn l1_clip_produces_sparser_weights() {
        let dense = train(&toy_corpus(), TrainConfig::default());
        let sparse = train(
            &toy_corpus(),
            TrainConfig {
                l1: 50.0,
                ..TrainConfig::default()
            },
        );
        let nnz = |w: &[f64]| w.iter().filter(|v| v.abs() > 1e-12).count();
        assert!(nnz(&sparse.unary) <= nnz(&dense.unary));
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_training_set_panics() {
        train(&[], TrainConfig::default());
    }
}
