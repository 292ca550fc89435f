//! The `results` array as it was rendered before [`super::write_results`]
//! wrote it straight to text: one `Json` tree per row, rendered by
//! `Json::to_text`. Kept as the referee the `write_results_matches_referee`
//! proptest pins the writer to, byte for byte — do not optimise it.

use crate::json::{obj, Json};
use shapesearch_core::TopKResult;

/// Builds the wire `results` array as a tree.
pub(super) fn results_to_json(results: &[TopKResult]) -> Json {
    Json::Arr(
        results
            .iter()
            .map(|r| {
                obj([
                    ("key", r.key.as_str().into()),
                    ("score", r.score.into()),
                    ("viz_index", r.viz_index.into()),
                    (
                        "ranges",
                        Json::Arr(
                            r.ranges
                                .iter()
                                .map(|&(s, e)| Json::Arr(vec![s.into(), e.into()]))
                                .collect(),
                        ),
                    ),
                ])
            })
            .collect(),
    )
}
