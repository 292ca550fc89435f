//! CRF crate integration tests: optimizer comparison, robustness to label
//! noise, and scaling behaviour of training.

use shapesearch_crf::{cross_validate, evaluate, train, Sequence, TrainConfig};

/// A synthetic BIO-less tagging task: color words are COLOR, number words
/// NUM, everything else OTHER; a number after a color is SIZE (contextual).
fn corpus(n: usize, seed: u64) -> Vec<Sequence> {
    let colors = ["red", "green", "blue", "amber"];
    let numbers = ["one", "two", "three", "nine"];
    let fillers = ["the", "box", "holds", "very", "shiny", "things"];
    let mut out = Vec::new();
    let mut state = seed;
    let mut next = |m: usize| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 33) as usize) % m
    };
    for _ in 0..n {
        let len = 3 + next(5);
        let mut tokens: Vec<&str> = Vec::new();
        let mut labels: Vec<&str> = Vec::new();
        for _ in 0..len {
            match next(4) {
                0 => {
                    tokens.push(colors[next(colors.len())]);
                    labels.push("COLOR");
                }
                1 => {
                    let num = numbers[next(numbers.len())];
                    let after_color = labels.last() == Some(&"COLOR");
                    tokens.push(num);
                    labels.push(if after_color { "SIZE" } else { "NUM" });
                }
                _ => {
                    tokens.push(fillers[next(fillers.len())]);
                    labels.push("OTHER");
                }
            }
        }
        let feats = tokens
            .iter()
            .enumerate()
            .map(|(i, w)| {
                let mut f = vec![format!("w={w}")];
                if i > 0 {
                    f.push(format!("w-1={}", tokens[i - 1]));
                }
                f
            })
            .collect();
        out.push(Sequence::new(
            feats,
            labels.into_iter().map(str::to_owned).collect(),
        ));
    }
    out
}

#[test]
fn sgd_learns_contextual_task() {
    let data = corpus(120, 5);
    let cfg = TrainConfig {
        max_iterations: 30,
        ..TrainConfig::default()
    };
    let report = cross_validate(&data, 4, cfg);
    assert!(report.accuracy() > 0.9, "accuracy {}", report.accuracy());
}

#[test]
fn training_tolerates_label_noise() {
    let mut data = corpus(150, 11);
    // Corrupt 10% of labels.
    let mut state = 77u64;
    for s in data.iter_mut() {
        for l in s.labels.iter_mut() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            if (state >> 33).is_multiple_of(10) {
                *l = "OTHER".into();
            }
        }
    }
    let clean_test = corpus(40, 123);
    let model = train(&data, TrainConfig::default());
    let report = evaluate(&model, &clean_test);
    assert!(
        report.accuracy() > 0.8,
        "noisy-trained accuracy {}",
        report.accuracy()
    );
}

#[test]
fn more_data_does_not_hurt() {
    let small = corpus(20, 3);
    let large = corpus(200, 3);
    let test = corpus(50, 999);
    let cfg = TrainConfig::default();
    let acc_small = evaluate(&train(&small, cfg), &test).accuracy();
    let acc_large = evaluate(&train(&large, cfg), &test).accuracy();
    assert!(
        acc_large >= acc_small - 0.05,
        "small {acc_small} vs large {acc_large}"
    );
    assert!(acc_large > 0.9);
}

#[test]
fn model_introspection() {
    let data = corpus(30, 1);
    let model = train(&data, TrainConfig::default());
    assert_eq!(model.num_labels(), 4);
    assert!(model.num_features() > 10);
    let mut names = model.label_names();
    names.sort_unstable();
    assert_eq!(names, vec!["COLOR", "NUM", "OTHER", "SIZE"]);
}
