//! Property tests for the on-disk snapshot path: an engine assembled
//! from mapped snapshot partitions must return **byte-identical** top-k
//! answers to the eager in-memory engine — across random collections
//! (including NaN-poisoned, constant, and two-point series), shard
//! counts {1, 2, 4}, pruning on and off, and both the seeded bin width
//! and a re-GROUPed one. Byte-identity is the snapshot contract: a cold
//! load is a layout change, never a result change.

use proptest::prelude::*;
use shapesearch_core::{
    merge_topk, snapshot, EngineOptions, NoopObserver, PruningMode, ShapeEngine, ShapeQuery,
    ShardedEngine, SharedThresholds, Snapshot, TopKResult,
};
use shapesearch_datastore::Trendline;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// Strategy: one series, covering the shapes that break naive readers —
/// random walks, constants, minimal two-point series, sub-canvas series
/// GROUP rejects, and a NaN dropped mid-walk.
fn series_strategy() -> impl Strategy<Value = Vec<(f64, f64)>> {
    prop_oneof![
        proptest::collection::vec(-1e3f64..1e3, 2..24)
            .prop_map(|ys| { ys.iter().enumerate().map(|(i, &y)| (i as f64, y)).collect() }),
        (2usize..16, -5f64..5.0).prop_map(|(n, c)| (0..n).map(|i| (i as f64, c)).collect()),
        (-5f64..5.0, -5f64..5.0).prop_map(|(a, b)| vec![(0.0, a), (1.0, b)]),
        // One point: GROUP rejects it, exercising the slot-gap encoding.
        (-5f64..5.0).prop_map(|a| vec![(0.0, a)]),
        (proptest::collection::vec(-1e2f64..1e2, 3..16), 0usize..16).prop_map(|(ys, pos)| {
            let mut pts: Vec<(f64, f64)> =
                ys.iter().enumerate().map(|(i, &y)| (i as f64, y)).collect();
            let p = pos % pts.len();
            pts[p].1 = f64::NAN;
            pts
        }),
    ]
}

fn collection_strategy() -> impl Strategy<Value = Vec<Trendline>> {
    proptest::collection::vec(series_strategy(), 1..10).prop_map(|all| {
        all.into_iter()
            .enumerate()
            .map(|(i, pairs)| Trendline::from_pairs(format!("t{i}"), &pairs))
            .collect()
    })
}

fn queries() -> Vec<ShapeQuery> {
    vec![
        ShapeQuery::concat(vec![ShapeQuery::up(), ShapeQuery::down()]),
        ShapeQuery::up(),
        ShapeQuery::Or(vec![ShapeQuery::flat(), ShapeQuery::down()]),
    ]
}

/// NaN-safe canonical rendering: scores compared by bit pattern.
fn render(results: &[TopKResult]) -> String {
    results
        .iter()
        .map(|r| {
            format!(
                "{}:{}:{}:{:?}",
                r.key,
                r.viz_index,
                r.score.to_bits(),
                r.ranges
            )
        })
        .collect::<Vec<_>>()
        .join(";")
}

fn unique_path() -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let mut p = std::env::temp_dir();
    p.push(format!(
        "ss-snap-prop-{}-{}.snap",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    p
}

/// The snapshot-load path the server's resident-shard loader uses: one
/// engine per deterministic partition, cut straight from the mapping.
fn engines_from_snapshot(snap: &Snapshot, shards: usize) -> Vec<ShapeEngine> {
    snap.partition_bounds(shards)
        .into_iter()
        .map(|(start, end)| snap.partition(start, end))
        .collect()
}

fn top_k(engine: &ShardedEngine, query: &ShapeQuery, k: usize, options: &EngineOptions) -> String {
    let shared = SharedThresholds::new(1);
    render(
        &engine
            .top_k_batch_observed(&[(query, k)], options, &shared, &NoopObserver)
            .pop()
            .unwrap()
            .unwrap(),
    )
}

/// [`top_k`] over shard engines held directly: every shard in partition
/// order under one shared threshold, partials merged.
fn top_k_cold(
    shards: &[ShapeEngine],
    query: &ShapeQuery,
    k: usize,
    options: &EngineOptions,
) -> String {
    let shared = SharedThresholds::new(1);
    let partials = shards
        .iter()
        .map(|shard| {
            shard
                .top_k_batch_observed(&[(query, k)], options, &shared, &NoopObserver)
                .pop()
                .unwrap()
                .unwrap()
        })
        .collect();
    render(&merge_topk(partials, k))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Cold-load byte-identity: snapshot-backed engines equal the eager
    /// path bit for bit, for shards {1, 2, 4} × pruning {off, auto} ×
    /// {seeded bin width, re-GROUPed bin width}.
    #[test]
    fn snapshot_backed_engine_is_byte_identical(tls in collection_strategy()) {
        let k = 3;
        let path = unique_path();
        // Seed bin width 1 (the arena persisted in the snapshot); bin
        // width 2 forces a re-GROUP from the mapped raw columns.
        snapshot::write(&path, &tls, 1).unwrap();
        let snap = Snapshot::open(&path).unwrap();
        prop_assert_eq!(snap.trendline_count(), tls.len());

        for bin_width in [1usize, 2] {
            for query in queries() {
                let reference = {
                    let options = EngineOptions {
                        bin_width,
                        pruning_mode: PruningMode::Off,
                        ..EngineOptions::default()
                    };
                    let eager = ShardedEngine::from_trendlines(tls.clone(), 1);
                    top_k(&eager, &query, k, &options)
                };
                for shards in [1usize, 2, 4] {
                    for mode in [PruningMode::Off, PruningMode::Auto] {
                        let options = EngineOptions {
                            bin_width,
                            pruning_mode: mode,
                            ..EngineOptions::default()
                        };
                        // Eager sharded engine at the same settings must
                        // agree (the baseline contract)…
                        let eager = ShardedEngine::from_trendlines(tls.clone(), shards);
                        let got = top_k(&eager, &query, k, &options);
                        prop_assert_eq!(
                            &got, &reference,
                            "eager shards={} pruning={:?} bin={} diverged on {}",
                            shards, mode, bin_width, query
                        );
                        // …and so must the snapshot-backed one.
                        let cold = engines_from_snapshot(&snap, shards);
                        let got = top_k_cold(&cold, &query, k, &options);
                        prop_assert_eq!(
                            &got, &reference,
                            "snapshot shards={} pruning={:?} bin={} diverged on {}",
                            shards, mode, bin_width, query
                        );
                    }
                }
            }
        }
        std::fs::remove_file(&path).ok();
    }
}
