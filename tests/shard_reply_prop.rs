//! `/shard/query` replies as the router sees them: valid
//! `shard_outcomes_to_json` bodies, mutated the way a skewed, buggy or
//! dying shard server could send them — keys dropped, retagged or
//! shadowed by a duplicate, numbers swapped for strings, arrays cut
//! short or grown, the outcome count off by one.
//!
//! Whatever arrives, `shard_outcomes_from_json` must not panic, and must
//! either refuse the reply (the replica attempt fails and failover moves
//! on) or return exactly the outcomes asked for, each one the kind that
//! was on the wire and every `Ok` one as long as its wire `results` — a
//! reply can cost an RPC, never a silently different partial.

use proptest::prelude::*;
use shapesearch::server::json::{self, Json};
use shapesearch::server::{protocol, ServerError};
use shapesearch_core::{PruningSnapshot, TopKResult};

type Outcome = Result<Vec<TopKResult>, ServerError>;

/// One outcome: `results` in `0..3` is an `Ok` partial of that many
/// results, `3` a structured per-query error.
fn outcome(results: usize) -> Outcome {
    if results == 3 {
        return Err(ServerError::bad_request("query failed: boom"));
    }
    let results = (0..results).map(|i| TopKResult {
        key: format!("k{i}"),
        score: 1.0 - 0.25 * i as f64,
        viz_index: 7 * i,
        ranges: vec![(0, i + 1), (i + 1, 9)],
    });
    Ok(results.collect())
}

fn outcomes_strategy() -> impl Strategy<Value = Vec<Outcome>> {
    proptest::collection::vec(0usize..4, 1..5)
        .prop_map(|shape| shape.into_iter().map(outcome).collect())
}

/// Nodes of the tree, in pre-order.
fn count(value: &Json) -> usize {
    1 + match value {
        Json::Obj(fields) => fields.iter().map(|(_, v)| count(v)).sum(),
        Json::Arr(items) => items.iter().map(count).sum(),
        _ => 0,
    }
}

/// Damages the `at`-th node (pre-order) in a way that fits its type.
fn mutate(value: &mut Json, at: &mut usize, pick: usize) {
    if *at > 0 {
        *at -= 1;
        match value {
            Json::Obj(fields) => fields.iter_mut().for_each(|(_, v)| mutate(v, at, pick)),
            Json::Arr(items) => items.iter_mut().for_each(|v| mutate(v, at, pick)),
            _ => {}
        }
        return;
    }
    *at = usize::MAX; // spent: no later node is hit
    match value {
        Json::Obj(fields) if !fields.is_empty() => {
            let field = (pick / 3) % fields.len();
            match pick % 3 {
                0 => drop(fields.remove(field)),
                1 => fields[field].0.push('_'),
                // A duplicate key that shadows the real one with its
                // neighbour's value.
                _ => {
                    let impostor = fields[(field + 1) % fields.len()].1.clone();
                    fields.insert(0, (fields[field].0.clone(), impostor));
                }
            }
        }
        Json::Arr(items) if !items.is_empty() => match pick % 3 {
            0 => drop(items.pop()),
            1 => items.push(items[0].clone()),
            _ => items.truncate(items.len() / 2),
        },
        Json::Num(n) => *value = Json::Str(n.to_string()),
        Json::Str(s) => *value = Json::Num(s.len() as f64),
        Json::Null => *value = Json::Str("null".into()),
        _ => *value = Json::Null,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    #[test]
    fn a_mutated_reply_is_refused_or_decodes_with_its_wire_bounds(
        partials in outcomes_strategy(),
        damage in proptest::collection::vec((0usize..10_000, 0usize..10_000), 0..4),
        skew in 0usize..8,
    ) {
        let pruning = PruningSnapshot::default();
        // Parsed back from its bytes, so the damage can reach inside the
        // `results` arrays, which the server writes as text.
        let reply = protocol::shard_outcomes_to_json("d", &partials, &[], pruning, 42, None);
        let mut reply = json::parse(&reply.to_text()).unwrap();
        for (node, pick) in &damage {
            let mut at = node % count(&reply);
            mutate(&mut reply, &mut at, *pick);
        }
        // Mostly the count the router sent; sometimes one off.
        let expected = match skew {
            0 => partials.len() - 1,
            1 => partials.len() + 1,
            _ => partials.len(),
        };
        let intact = damage.is_empty() && expected == partials.len();

        // Through bytes, as the router's client reads it.
        let wire = json::parse(&reply.to_text()).unwrap();
        let decoded = match protocol::shard_outcomes_from_json(&wire, expected) {
            Ok(decoded) => decoded,
            // Refused: that replica attempt fails, nothing is merged.
            Err(why) => {
                prop_assert!(!intact, "an intact reply was refused: {why}");
                return Ok(());
            }
        };
        prop_assert!(intact || !damage.is_empty(), "{expected} outcomes decoded from {}", partials.len());
        prop_assert_eq!(decoded.outcomes.len(), expected);
        let Some(Json::Arr(items)) = wire.get("outcomes") else {
            return Err(TestCaseError::fail("decoded a reply without an `outcomes` array"));
        };
        for (outcome, item) in decoded.outcomes.iter().zip(items) {
            match (outcome, item.get("results")) {
                (Ok(results), Some(Json::Arr(sent))) => prop_assert_eq!(results.len(), sent.len()),
                (Err(_), None | Some(Json::Null)) => {}
                (outcome, on_wire) => {
                    return Err(TestCaseError::fail(format!(
                        "{outcome:?} decoded from `results` {on_wire:?}: {}",
                        item.to_text()
                    )));
                }
            }
        }
    }
}
