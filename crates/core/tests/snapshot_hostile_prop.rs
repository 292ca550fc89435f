//! Property tests for `Snapshot::open` on hostile bytes. A server cuts
//! every partition of a snapshot at registration, so whatever `open`
//! accepts must cut and query without panicking:
//!
//! * a one-byte flip anywhere, or a truncation at any length, is refused
//!   as `Corrupt` (a flip inside the version field as `Version`);
//! * a lie in an offset column — `KeyStarts`, `RawStarts`, `VizSlots`,
//!   `PointStarts`, `VizRuns` or `RunStarts` — with both checksums
//!   re-sealed is either `Corrupt`, or every partition at shard counts
//!   1–4 cuts and the merged top-k is identical across those counts;
//! * a run index out of range, a run index naming a run of another
//!   length, and run starts that are not monotone are each `Corrupt`.

use proptest::prelude::*;
use shapesearch_core::{
    merge_topk, snapshot, EngineOptions, NoopObserver, ShapeQuery, SharedThresholds, Snapshot,
    SnapshotError, TopKResult,
};
use shapesearch_datastore::Trendline;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// Header offsets of the v2 format (see `snapshot.rs`'s layout table).
const PAYLOAD_HASH_AT: usize = 80;
const COLUMN_TABLE_AT: usize = 88;
const HEADER_HASH_AT: usize = 360;
const HEADER_LEN: usize = 368;
const VERSION: std::ops::Range<usize> = 8..12;
/// Column-table indices of the two x-run offset columns.
const VIZ_RUNS: usize = 7;
const RUN_STARTS: usize = 8;

/// The offset columns a lie is planted in, by column-table index.
const LIAR_COLUMNS: [(usize, &str); 6] = [
    (1, "KeyStarts"),
    (4, "RawStarts"),
    (5, "VizSlots"),
    (6, "PointStarts"),
    (VIZ_RUNS, "VizRuns"),
    (RUN_STARTS, "RunStarts"),
];

/// Strategy: up to 8 series of 0–20 points, so some are rejected by
/// GROUP (fewer than two points) and leave a gap in the slot column.
fn collection_strategy() -> impl Strategy<Value = Vec<Trendline>> {
    proptest::collection::vec(proptest::collection::vec(-1e2f64..1e2, 0..20), 1..8).prop_map(
        |all| {
            all.into_iter()
                .enumerate()
                .map(|(i, ys)| {
                    let pairs: Vec<(f64, f64)> =
                        ys.iter().enumerate().map(|(x, &y)| (x as f64, y)).collect();
                    Trendline::from_pairs(format!("t{i}"), &pairs)
                })
                .collect()
        },
    )
}

fn unique_path() -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let mut p = std::env::temp_dir();
    p.push(format!(
        "ss-snap-hostile-{}-{}.snap",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    p
}

/// The bytes of a valid snapshot of `trendlines` at bin width 1.
fn snapshot_bytes(trendlines: &[Trendline]) -> Vec<u8> {
    let path = unique_path();
    snapshot::write(&path, trendlines, 1).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).ok();
    bytes
}

/// Opens `bytes` as a snapshot file.
fn open(bytes: &[u8]) -> Result<Snapshot, SnapshotError> {
    let path = unique_path();
    std::fs::write(&path, bytes).unwrap();
    let opened = Snapshot::open(&path);
    std::fs::remove_file(&path).ok();
    opened
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn le_u64(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap())
}

/// The `(byte offset, byte length)` of column `index`.
fn column_span(bytes: &[u8], index: usize) -> (usize, usize) {
    let at = COLUMN_TABLE_AT + index * 16;
    (le_u64(bytes, at) as usize, le_u64(bytes, at + 8) as usize)
}

/// Re-seals both checksums, payload first (the header covers it).
fn reseal(bytes: &mut [u8]) {
    let payload = fnv1a(&bytes[HEADER_LEN..]);
    bytes[PAYLOAD_HASH_AT..PAYLOAD_HASH_AT + 8].copy_from_slice(&payload.to_le_bytes());
    let header = fnv1a(&bytes[..HEADER_HASH_AT]);
    bytes[HEADER_HASH_AT..HEADER_LEN].copy_from_slice(&header.to_le_bytes());
}

/// `value` with the lie numbered `lie` told about it.
fn lie_about(value: u64, lie: usize) -> u64 {
    match lie {
        0 => value.wrapping_add(1),
        1 => value.wrapping_sub(1),
        2 => value.wrapping_add(2),
        3 => value.wrapping_sub(2),
        4 => 0,
        _ => u64::MAX,
    }
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

/// Cuts every partition for `shards` shards and answers `query`: every
/// shard under one shared threshold, partials merged.
fn merged_top_k(snap: &Snapshot, shards: usize, query: &ShapeQuery, k: usize) -> String {
    let shared = SharedThresholds::new(1);
    let partials = snap
        .partition_bounds(shards)
        .into_iter()
        .map(|(start, end)| {
            snap.partition(start, end)
                .top_k_batch_observed(
                    &[(query, k)],
                    &EngineOptions::default(),
                    &shared,
                    &NoopObserver,
                )
                .pop()
                .unwrap()
                .unwrap()
        })
        .collect();
    render(&merge_topk(partials, k))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn a_flipped_byte_is_refused(
        tls in collection_strategy(),
        at in 0usize..1 << 20,
        mask in 1u8..=255,
    ) {
        let mut bytes = snapshot_bytes(&tls);
        let at = at % bytes.len();
        bytes[at] ^= mask;
        match open(&bytes) {
            Err(SnapshotError::Version { .. }) => prop_assert!(VERSION.contains(&at)),
            Err(SnapshotError::Corrupt { .. }) => prop_assert!(!VERSION.contains(&at)),
            other => prop_assert!(false, "flip at {} opened as {:?}", at, other.map(|_| ())),
        }
    }

    #[test]
    fn a_truncated_file_is_refused(tls in collection_strategy(), len in 0usize..1 << 20) {
        let bytes = snapshot_bytes(&tls);
        let len = len % bytes.len();
        let opened = open(&bytes[..len]);
        prop_assert!(
            matches!(opened, Err(SnapshotError::Corrupt { .. })),
            "{} of {} bytes opened as {:?}", len, bytes.len(), opened.map(|_| ())
        );
    }

    #[test]
    fn a_resealed_column_lie_is_refused_or_answers_alike_at_every_shard_count(
        tls in collection_strategy(),
        column in 0usize..LIAR_COLUMNS.len(),
        element in 0usize..64,
        lie in 0usize..6,
    ) {
        let mut bytes = snapshot_bytes(&tls);
        let (index, name) = LIAR_COLUMNS[column];
        let (offset, len) = column_span(&bytes, index);
        // Every liar column but `VizRuns` has at least one element
        // (T ≥ 1); that one is empty when GROUP rejects every series.
        if len == 0 {
            return Ok(());
        }
        let at = offset + (element % (len / 8)) * 8;
        let told = lie_about(le_u64(&bytes, at), lie);
        bytes[at..at + 8].copy_from_slice(&told.to_le_bytes());
        reseal(&mut bytes);

        let snap = match open(&bytes) {
            Err(SnapshotError::Corrupt { .. }) => return Ok(()),
            Err(e) => return Err(TestCaseError::fail(format!("{name} lie: {e}"))),
            Ok(snap) => snap,
        };
        let queries = [
            ShapeQuery::concat(vec![ShapeQuery::up(), ShapeQuery::down()]),
            ShapeQuery::up(),
            ShapeQuery::Or(vec![ShapeQuery::flat(), ShapeQuery::down()]),
        ];
        for query in &queries {
            let one = merged_top_k(&snap, 1, query, 3);
            for shards in 2..=4 {
                prop_assert_eq!(
                    &merged_top_k(&snap, shards, query, 3),
                    &one,
                    "{} lie at {}: {} shards diverged on {}",
                    name, at, shards, query
                );
            }
        }
    }
}

/// The three lies the x-run columns can tell, each planted alone in a
/// valid snapshot of series on two x rows of different lengths and
/// re-sealed: a viz naming a run past the table, a viz naming the other
/// row's run, and run starts that step backwards.
#[test]
fn run_column_lies_are_corrupt() {
    let series = |n: usize| -> Trendline {
        let pairs: Vec<(f64, f64)> = (0..n).map(|x| (x as f64, (x * x % 7) as f64)).collect();
        Trendline::from_pairs(format!("n{n}"), &pairs)
    };
    let bytes = snapshot_bytes(&[series(5), series(9), series(5)]);
    let (runs_at, _) = column_span(&bytes, VIZ_RUNS);
    let (starts_at, _) = column_span(&bytes, RUN_STARTS);
    assert_eq!(
        [0, 1, 2].map(|i| le_u64(&bytes, runs_at + 8 * i)),
        [0, 1, 0]
    );
    assert_eq!(
        [0, 1, 2].map(|i| le_u64(&bytes, starts_at + 8 * i)),
        [0, 5, 14]
    );
    for (at, told, says) in [
        (runs_at, 2u64, "viz 0 names x run 2 of 2"),
        (runs_at, 1, "viz 0 has 5 points but its x run 1 has 9"),
        (starts_at + 8, 15, "run starts is not monotone"),
    ] {
        let mut bytes = bytes.clone();
        bytes[at..at + 8].copy_from_slice(&told.to_le_bytes());
        reseal(&mut bytes);
        match open(&bytes) {
            Err(SnapshotError::Corrupt { detail, .. }) => {
                assert!(detail.contains(says), "{detail}")
            }
            other => panic!("{says}: opened as {:?}", other.map(|_| ())),
        }
    }
}
