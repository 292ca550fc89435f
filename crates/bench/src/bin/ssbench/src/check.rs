//! Output checking, off the clock.
//!
//! Reference answers come from an in-process engine over the *same CSV
//! text* the servers were sent, in the plainest execution shape there is
//! (one shard, pruning off, no cache): whatever shard count, placement,
//! pruning or caching the served path used, its answer must render to
//! the same `results` text — key, `viz_index`, score digits and ranges.

use crate::gen::{Corpus, Query, Request};
use shapesearch_core::{EngineOptions, PruningMode, ShardedEngine};
use shapesearch_datastore::{csv, VisualSpec};
use shapesearch_parser::parse_regex;
use shapesearch_server::json::{self, Json};
use shapesearch_server::protocol;
use std::collections::HashMap;

pub struct Reference {
    engines: Vec<(&'static str, ShardedEngine)>,
    options: EngineOptions,
    memo: HashMap<Query, String>,
}

impl Reference {
    pub fn new(corpora: &[Corpus]) -> Self {
        let spec = VisualSpec::new("z", "x", "y");
        let engines = corpora
            .iter()
            .map(|c| {
                let table = csv::read_str(&c.csv).expect("generated CSV parses");
                let engine = ShardedEngine::new(&table, &spec, 1).expect("generated CSV extracts");
                (c.id, engine)
            })
            .collect();
        Self {
            engines,
            options: EngineOptions {
                pruning_mode: PruningMode::Off,
                ..EngineOptions::default()
            },
            memo: HashMap::new(),
        }
    }

    /// The one-shard engine over corpus `id` (the traced pass times it as
    /// the no-fan-out baseline).
    pub fn engine(&self, id: &str) -> &ShardedEngine {
        &self
            .engines
            .iter()
            .find(|(name, _)| *name == id)
            .expect("every generated query names a generated corpus")
            .1
    }

    /// The `results` array the server must send for `query`, as text.
    pub fn results_text(&mut self, query: &Query) -> &str {
        if !self.memo.contains_key(query) {
            let ast = parse_regex(&query.text).expect("generated query parses");
            let results = self
                .engine(query.dataset)
                .top_k_with_options(&ast, query.k, &self.options)
                .expect("generated query executes");
            let text = protocol::results_to_json(&results).to_text();
            self.memo.insert(query.clone(), text);
        }
        &self.memo[query]
    }

    /// Whether `reply` answers `request` correctly: one `results` array
    /// per item, each equal to the reference.
    pub fn reply_is_correct(&mut self, request: &Request, reply: &[u8]) -> bool {
        let Some(answers) = results_texts(reply, request.batch) else {
            return false;
        };
        answers.len() == request.items.len()
            && request
                .items
                .iter()
                .zip(&answers)
                .all(|(query, got)| self.results_text(query) == got)
    }
}

/// The `results` arrays of a reply body re-rendered as text, one per
/// query item; `None` when the body is not a well-formed reply.
pub fn results_texts(reply: &[u8], batch: bool) -> Option<Vec<String>> {
    let body = json::parse(std::str::from_utf8(reply).ok()?).ok()?;
    let results = |item: &Json| item.get("results").map(Json::to_text);
    if batch {
        body.get("responses")?
            .as_array()?
            .iter()
            .map(results)
            .collect()
    } else {
        Some(vec![results(&body)?])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn picks_results_out_of_single_and_batch_replies() {
        let single = br#"{"dataset":"w","cached":false,"results":[{"key":"t1","score":0.5}]}"#;
        assert_eq!(
            results_texts(single, false).unwrap(),
            vec![r#"[{"key":"t1","score":0.5}]"#]
        );
        let batch = br#"{"batch":2,"responses":[{"results":[]},{"results":[{"key":"a"}]}]}"#;
        assert_eq!(
            results_texts(batch, true).unwrap(),
            vec!["[]", r#"[{"key":"a"}]"#]
        );
        assert_eq!(results_texts(br#"{"error":"no"}"#, false), None);
        assert_eq!(
            results_texts(br#"{"responses":[{"error":"no","status":400}]}"#, true),
            None
        );
        assert_eq!(results_texts(b"not json", false), None);
    }
}
