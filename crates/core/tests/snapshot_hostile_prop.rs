//! Property tests for `snapshot::open` on hostile bytes. A server cuts
//! every partition of a snapshot at registration, so whatever `open`
//! accepts must cut and query without panicking:
//!
//! * a one-byte flip anywhere, or a truncation at any length, is refused
//!   as `Corrupt` (a flip inside the version field as `Version`);
//! * a lie in an offset column — `KeyStarts` or `RawStarts` — with both
//!   checksums re-sealed is either `Corrupt`, or every partition at shard
//!   counts 1–4 cuts and the merged top-k is identical across those
//!   counts;
//! * a lie in a value column — `RawXs` or `RawYs` — with both checksums
//!   re-sealed answers exactly like an engine built from the rows the
//!   snapshot then holds, with pruning on and off: the file stores no
//!   GROUP state that could disagree with its rows.

mod support;

use proptest::prelude::*;
use shapesearch_core::{
    merge_topk, partition_bounds_by_points, snapshot, Collection, EngineOptions, NoopObserver,
    PruningMode, ShapeEngine, ShapeQuery, SharedThresholds, SnapshotError,
};
use shapesearch_datastore::Trendline;
use support::{corpus, render, unique_path};

/// Header offsets of the v3 format (see `snapshot.rs`'s layout table).
const PAYLOAD_HASH_AT: usize = 40;
const COLUMN_TABLE_AT: usize = 48;
const HEADER_HASH_AT: usize = 128;
const HEADER_LEN: usize = 136;
const VERSION: std::ops::Range<usize> = 8..12;

/// The offset columns a lie is planted in, by column-table index.
const LIAR_COLUMNS: [(usize, &str); 2] = [(1, "KeyStarts"), (4, "RawStarts")];

/// The value columns a lie is planted in, by column-table index.
const VALUE_COLUMNS: [(usize, &str); 2] = [(2, "RawXs"), (3, "RawYs")];

/// The bytes of a valid snapshot of `trendlines`.
fn snapshot_bytes(trendlines: &[Trendline]) -> Vec<u8> {
    let path = unique_path();
    snapshot::write(&path, &Collection::from_trendlines(trendlines)).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).ok();
    bytes
}

/// Opens `bytes` as a snapshot file.
fn open(bytes: &[u8]) -> Result<Collection, SnapshotError> {
    let path = unique_path();
    std::fs::write(&path, bytes).unwrap();
    let opened = snapshot::open(&path);
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

/// `value` with the value lie numbered `lie` told about it.
fn value_lie(value: f64, lie: usize) -> f64 {
    match lie {
        0 => 0.0,
        1 => -value,
        2 => value + 1.0,
        3 => value * 1e3,
        4 => f64::NAN,
        _ => f64::MAX,
    }
}

/// Cuts every partition for `shards` shards and answers `query`: every
/// shard under one shared threshold, partials merged.
fn merged_top_k(snap: &Collection, shards: usize, query: &ShapeQuery, k: usize) -> String {
    let shared = SharedThresholds::new(1);
    let partials = partition_bounds_by_points(&snap.point_counts(), shards)
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
        tls in corpus(),
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
    fn a_truncated_file_is_refused(tls in corpus(), len in 0usize..1 << 20) {
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
        tls in corpus(),
        column in 0usize..LIAR_COLUMNS.len(),
        element in 0usize..64,
        lie in 0usize..6,
    ) {
        let mut bytes = snapshot_bytes(&tls);
        let (index, name) = LIAR_COLUMNS[column];
        let (offset, len) = column_span(&bytes, index);
        // Both liar columns have T + 1 ≥ 2 elements.
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn a_resealed_value_lie_answers_like_the_rows_it_holds(
        tls in corpus(),
        column in 0usize..VALUE_COLUMNS.len(),
        element in 0usize..256,
        lie in 0usize..6,
    ) {
        let mut bytes = snapshot_bytes(&tls);
        let (index, name) = VALUE_COLUMNS[column];
        let (offset, len) = column_span(&bytes, index);
        if len == 0 {
            return Ok(());
        }
        let at = offset + (element % (len / 8)) * 8;
        let told = value_lie(f64::from_bits(le_u64(&bytes, at)), lie);
        bytes[at..at + 8].copy_from_slice(&told.to_bits().to_le_bytes());
        reseal(&mut bytes);

        let snap = match open(&bytes) {
            Err(SnapshotError::Corrupt { .. }) => return Ok(()),
            Err(e) => return Err(TestCaseError::fail(format!("{name} lie: {e}"))),
            Ok(snap) => snap,
        };
        let served = snap.partition(0, snap.len());
        let rows = (0..served.len())
            .map(|i| {
                let (xs, ys) = served.points(i);
                let pairs: Vec<(f64, f64)> = xs.iter().copied().zip(ys.iter().copied()).collect();
                Trendline::from_pairs(served.key(i), &pairs)
            })
            .collect();
        let eager = ShapeEngine::from_trendlines(rows);
        let answer = |engine: &ShapeEngine, query: &ShapeQuery, pruning_mode| {
            let options = EngineOptions { pruning_mode, ..EngineOptions::default() };
            render(
                &engine
                    .top_k_batch_observed(
                        &[(query, 5)],
                        &options,
                        &SharedThresholds::new(1),
                        &NoopObserver,
                    )
                    .pop()
                    .unwrap()
                    .unwrap(),
            )
        };
        let queries = [
            ShapeQuery::concat(vec![ShapeQuery::up(), ShapeQuery::down()]),
            ShapeQuery::up(),
            ShapeQuery::Or(vec![ShapeQuery::flat(), ShapeQuery::down()]),
        ];
        for query in &queries {
            let want = answer(&eager, query, PruningMode::Off);
            for mode in [PruningMode::Off, PruningMode::Auto] {
                prop_assert_eq!(
                    &answer(&served, query, mode),
                    &want,
                    "{} lie at {}: pruning {:?} diverged on {}",
                    name, at, mode, query
                );
            }
        }
    }
}
