//! Versioned on-disk snapshots of EXTRACT's output.
//!
//! A snapshot is the file form of a [`Collection`]: its five columns —
//! the trendline keys and the two raw point columns, with their starts —
//! written verbatim as one flat little-endian file. [`open()`] maps it
//! ([`memmap2::Mmap`] behind the workspace's std-only syscall shim),
//! validates it, and returns a collection whose columns are **zero-copy
//! views into the mapping**, so [`Collection::partition`] — the same cut
//! a heap collection takes — hands back engines that allocate keys and
//! offsets and copy no point, and the kernel pages the mapping. The file
//! holds no GROUP state: the engine GROUPs the mapped columns with the
//! same `ShapeEngine::warm` a CSV registration calls, so there is one
//! GROUP path, and nothing derived to trust at open.
//!
//! ## File layout (version 3)
//!
//! ```text
//! offset  size  field
//!      0     8  magic "SHAPSNAP"
//!      8     4  format version (u32, = 3)
//!     12     4  flags (u32, = 0)
//!     16     8  trendline count T
//!     24     8  raw point count R
//!     32     8  total file length (truncation check)
//!     40     8  FNV-1a checksum of every byte after the header
//!     48    80  column table: 5 × (offset u64, byte length u64)
//!    128     8  FNV-1a checksum of header bytes [0, 128)
//!    136     …  columns, each 8-byte aligned, in table order
//! ```
//!
//! Columns, in order: key bytes (concatenated UTF-8 keys), key starts
//! `u64[T+1]`, raw xs `f64[R]`, raw ys `f64[R]`, raw starts `u64[T+1]`.
//! All integers and floats are little-endian; `f64` bit patterns
//! round-trip exactly (NaN payloads included), which is what keeps
//! snapshot-backed serving byte-identical to the eager path.
//!
//! Versions 1 and 2 also stored one GROUP run (the arena's prefix and
//! slope columns) and served it as read: a lie told in one of those
//! columns, with both checksums re-sealed, opened and answered wrongly
//! under pruning. This build reads version 3 only: an older file is a
//! [`SnapshotError::Version`], and `shapesearch snapshot` rebuilds it
//! from the source data.
//!
//! [`open()`] checks, in order: the header length, the magic,
//! the version, the header checksum, the recorded file length, the
//! counts against it, the column table against the layout the counts
//! imply, the payload checksum, both start columns (monotone from 0,
//! ending at their column's length) and every key's UTF-8. A torn or
//! corrupted snapshot is a structured [`SnapshotError`], never a panic
//! or garbage results. Any `f64` is a value a row may hold, so the point
//! columns need no check. The payload checksum pass reads the whole file
//! once, which doubles as page pre-faulting.
//!
//! [`write()`] never writes into an existing file: it writes a sibling
//! and renames it over the path, so a server still mapping the old file
//! keeps the old bytes.

use crate::columnar::{Collection, Column};
use std::fs::{self, File};
use std::io::{self, BufWriter, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Magic bytes identifying a ShapeSearch snapshot file.
pub const MAGIC: [u8; 8] = *b"SHAPSNAP";
/// The snapshot format version this build writes and reads.
pub const FORMAT_VERSION: u32 = 3;
/// Byte offset of the column table in the header.
const TABLE_AT: usize = 48;
/// Number of columns in the column table.
const COLUMNS: usize = 5;
/// Byte length of the fixed header: the table, then its checksum.
const HEADER_LEN: usize = TABLE_AT + COLUMNS * 16 + 8;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(FNV_PRIME);
    }
}

/// Column indices into the column table, in serialization order.
#[derive(Clone, Copy)]
enum Col {
    KeyBytes = 0,
    KeyStarts,
    RawXs,
    RawYs,
    RawStarts,
}

/// One column's location in the file.
#[derive(Clone, Copy, Debug, Default)]
struct Span {
    offset: usize,
    bytes: usize,
}

/// Why a snapshot could not be written or opened.
#[derive(Debug)]
pub enum SnapshotError {
    /// An OS-level read/write/map failure.
    Io {
        /// The snapshot path involved.
        path: PathBuf,
        /// The underlying error.
        source: io::Error,
    },
    /// The file is not a well-formed snapshot: bad magic, failed
    /// checksum, truncation, or a violated structural invariant.
    Corrupt {
        /// The snapshot path involved.
        path: PathBuf,
        /// What exactly failed to validate.
        detail: String,
    },
    /// The file is a snapshot, but of a format version this build does
    /// not read.
    Version {
        /// The snapshot path involved.
        path: PathBuf,
        /// The version the file declares.
        found: u32,
    },
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Io { path, source } => {
                write!(f, "snapshot {}: {source}", path.display())
            }
            Self::Corrupt { path, detail } => {
                write!(f, "snapshot {} is not valid: {detail}", path.display())
            }
            Self::Version { path, found } => write!(
                f,
                "snapshot {} is format version {found}; this build reads version {FORMAT_VERSION}",
                path.display()
            ),
        }
    }
}

impl std::error::Error for SnapshotError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// What [`write()`] produced, for logging and CLI output.
#[derive(Debug, Clone, Copy)]
pub struct SnapshotStats {
    /// Trendlines serialized.
    pub trendlines: usize,
    /// Raw points across all trendlines.
    pub raw_points: usize,
    /// Total file size in bytes.
    pub bytes: usize,
}

fn io_err(path: &Path, source: io::Error) -> SnapshotError {
    SnapshotError::Io {
        path: path.to_owned(),
        source,
    }
}

/// Computes the deterministic column table for `t` trendlines of `r`
/// raw points in all. `key_bytes` is the only column whose length is not
/// a multiple of 8; every column is padded to an 8-byte boundary so
/// mapped `f64`/`u64` views stay aligned.
fn layout(key_bytes: usize, t: usize, r: usize) -> ([Span; COLUMNS], usize) {
    let lens: [usize; COLUMNS] = [key_bytes, (t + 1) * 8, r * 8, r * 8, (t + 1) * 8];
    let mut spans = [Span::default(); COLUMNS];
    let mut offset = HEADER_LEN;
    for (span, &bytes) in spans.iter_mut().zip(&lens) {
        *span = Span { offset, bytes };
        offset += bytes.div_ceil(8) * 8;
    }
    (spans, offset)
}

/// Writes a version-3 snapshot of `collection`: its columns, bit for
/// bit.
///
/// The file is written beside `path`, synced, and renamed over it, so a
/// mapping of the file `path` named before keeps its bytes.
///
/// # Errors
/// Propagates filesystem errors as [`SnapshotError::Io`].
pub fn write(
    path: impl AsRef<Path>,
    collection: &Collection,
) -> Result<SnapshotStats, SnapshotError> {
    let path = path.as_ref();
    let mut sibling = path.as_os_str().to_owned();
    sibling.push(format!(".{}.tmp", std::process::id()));
    let sibling = PathBuf::from(sibling);
    let written = write_file(&sibling, collection).and_then(|stats| {
        fs::rename(&sibling, path)?;
        // The rename is durable once the directory holding it is synced.
        let dir = path.parent().filter(|dir| !dir.as_os_str().is_empty());
        File::open(dir.unwrap_or(Path::new(".")))?.sync_all()?;
        Ok(stats)
    });
    if written.is_err() {
        let _ = fs::remove_file(&sibling);
    }
    written.map_err(|e| io_err(path, e))
}

/// [`write()`]'s file, written at `path` itself.
fn write_file(path: &Path, c: &Collection) -> io::Result<SnapshotStats> {
    let (t, r, key_bytes) = (c.len(), c.point_count(), c.key_bytes.len());
    let (spans, file_len) = layout(key_bytes, t, r);

    let mut out = BufWriter::new(File::create(path)?);
    // Header placeholder; the real header lands after the payload hash
    // is known.
    out.write_all(&[0u8; HEADER_LEN])?;
    let mut hash = FNV_OFFSET;
    let mut put = |bytes: &[u8]| {
        fnv1a(&mut hash, bytes);
        out.write_all(bytes)
    };
    // Key bytes, padded to the 8-byte boundary the next column needs.
    put(&c.key_bytes)?;
    put(&[0u8; 8][..key_bytes.div_ceil(8) * 8 - key_bytes])?;
    for &end in &c.key_starts {
        put(&(end as u64).to_le_bytes())?;
    }
    for v in c.xs.iter().chain(c.ys.iter()) {
        put(&v.to_le_bytes())?;
    }
    for &end in &c.starts {
        put(&(end as u64).to_le_bytes())?;
    }

    // Assemble and install the real header.
    let mut header = Vec::with_capacity(HEADER_LEN);
    header.extend_from_slice(&MAGIC);
    header.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    header.extend_from_slice(&0u32.to_le_bytes()); // flags
    for field in [t, r, file_len] {
        header.extend_from_slice(&(field as u64).to_le_bytes());
    }
    header.extend_from_slice(&hash.to_le_bytes());
    for span in &spans {
        header.extend_from_slice(&(span.offset as u64).to_le_bytes());
        header.extend_from_slice(&(span.bytes as u64).to_le_bytes());
    }
    let mut header_hash = FNV_OFFSET;
    fnv1a(&mut header_hash, &header);
    header.extend_from_slice(&header_hash.to_le_bytes());
    debug_assert_eq!(header.len(), HEADER_LEN);

    let mut file = out.into_inner().map_err(io::IntoInnerError::into_error)?;
    file.seek(SeekFrom::Start(0))?;
    file.write_all(&header)?;
    file.sync_all()?;
    Ok(SnapshotStats {
        trendlines: t,
        raw_points: r,
        bytes: file_len,
    })
}

fn corrupt(path: &Path, detail: impl Into<String>) -> SnapshotError {
    SnapshotError::Corrupt {
        path: path.to_owned(),
        detail: detail.into(),
    }
}

fn le_u64(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8 bytes"))
}

fn le_usize(bytes: &[u8], at: usize, path: &Path, what: &str) -> Result<usize, SnapshotError> {
    usize::try_from(le_u64(bytes, at))
        .map_err(|_| corrupt(path, format!("{what} does not fit this platform's usize")))
}

/// Opens and fully validates a snapshot file, and returns its
/// collection: columns that view the mapping (decoded copies of the
/// point columns on a big-endian target). The mapping stays alive for
/// as long as any column of the collection, or cut from it, does.
///
/// # Errors
/// [`SnapshotError::Io`] for filesystem/mapping failures,
/// [`SnapshotError::Version`] for any format version but this one,
/// and [`SnapshotError::Corrupt`] for everything a torn, truncated,
/// or tampered file can present: bad magic, checksum mismatches
/// (header and payload), a recorded length that disagrees with the
/// file, or structural invariants that do not hold.
pub fn open(path: impl AsRef<Path>) -> Result<Collection, SnapshotError> {
    let path = path.as_ref();
    let file = File::open(path).map_err(|e| io_err(path, e))?;
    // SAFETY: mapping contract — the file must not be truncated or
    // written while mapped. `write()` never writes an existing
    // file: it renames a new one over the path, and this mapping
    // keeps the file it opened. Another program writing the file in
    // place breaks the contract.
    let map = unsafe { memmap2::Mmap::map(&file) }.map_err(|e| io_err(path, e))?;
    let map = Arc::new(map);
    let bytes: &[u8] = &map;

    if bytes.len() < HEADER_LEN {
        return Err(corrupt(
            path,
            format!(
                "{} bytes is shorter than the {HEADER_LEN}-byte header",
                bytes.len()
            ),
        ));
    }
    if bytes[..8] != MAGIC {
        return Err(corrupt(path, "bad magic (not a ShapeSearch snapshot)"));
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
    if version != FORMAT_VERSION {
        return Err(SnapshotError::Version {
            path: path.to_owned(),
            found: version,
        });
    }
    // Header checksum before trusting any counted field.
    let mut header_hash = FNV_OFFSET;
    fnv1a(&mut header_hash, &bytes[..HEADER_LEN - 8]);
    if header_hash != le_u64(bytes, HEADER_LEN - 8) {
        return Err(corrupt(path, "header checksum mismatch"));
    }

    let t = le_usize(bytes, 16, path, "trendline count")?;
    let r = le_usize(bytes, 24, path, "raw point count")?;
    let file_len = le_usize(bytes, 32, path, "file length")?;
    if file_len != bytes.len() {
        return Err(corrupt(
            path,
            format!(
                "recorded length {file_len} != actual {} (torn or truncated)",
                bytes.len()
            ),
        ));
    }

    // The column table must match the deterministic layout for
    // these counts; key byte length comes from the table itself.
    // No count exceeds the file's length, so the layout cannot
    // overflow.
    let key_bytes = le_usize(bytes, TABLE_AT + 8, path, "key column length")?;
    if t.max(r).max(key_bytes) > file_len {
        return Err(corrupt(path, "a recorded count exceeds the file length"));
    }
    let (spans, expected_len) = layout(key_bytes, t, r);
    if expected_len != file_len {
        return Err(corrupt(
            path,
            format!(
                "layout for the recorded counts needs {expected_len} bytes, file has {file_len}"
            ),
        ));
    }
    for (i, span) in spans.iter().enumerate() {
        let offset = le_usize(bytes, TABLE_AT + i * 16, path, "column offset")?;
        let len = le_usize(bytes, TABLE_AT + i * 16 + 8, path, "column length")?;
        if offset != span.offset || len != span.bytes {
            return Err(corrupt(
                path,
                format!(
                    "column {i} at {offset}+{len} disagrees with the layout \
                         ({}+{})",
                    span.offset, span.bytes
                ),
            ));
        }
    }

    // Payload checksum: one sequential pass over everything after
    // the header (which also pre-faults the mapping's pages).
    let mut payload_hash = FNV_OFFSET;
    fnv1a(&mut payload_hash, &bytes[HEADER_LEN..]);
    if payload_hash != le_u64(bytes, 40) {
        return Err(corrupt(path, "payload checksum mismatch"));
    }

    let starts = |col: Col, last: usize, what: &str| -> Result<Vec<usize>, SnapshotError> {
        let span = spans[col as usize];
        let mut out = Vec::with_capacity(span.bytes / 8);
        for (i, at) in (span.offset..span.offset + span.bytes)
            .step_by(8)
            .enumerate()
        {
            let val = le_usize(bytes, at, path, what)?;
            if (i == 0 && val != 0) || out.last().is_some_and(|&prev| val < prev) {
                return Err(corrupt(path, format!("{what} is not monotone from 0")));
            }
            out.push(val);
        }
        if out.last() != Some(&last) {
            return Err(corrupt(path, format!("{what} does not end at {last}")));
        }
        Ok(out)
    };
    let key_starts = starts(Col::KeyStarts, key_bytes, "key starts")?;
    let raw_starts = starts(Col::RawStarts, r, "raw starts")?;

    // Keys must be valid UTF-8 now, so partitioning never fails.
    let kb = spans[Col::KeyBytes as usize];
    for w in key_starts.windows(2) {
        if std::str::from_utf8(&bytes[kb.offset + w[0]..kb.offset + w[1]]).is_err() {
            return Err(corrupt(path, "a trendline key is not valid UTF-8"));
        }
    }

    Ok(Collection {
        key_bytes: Column::mapped(&map, kb.offset, kb.bytes),
        key_starts,
        xs: f64_col(&map, spans[Col::RawXs as usize]),
        ys: f64_col(&map, spans[Col::RawYs as usize]),
        starts: raw_starts,
    })
}

/// A mapped `f64` column as a [`Column`]: zero-copy on little-endian
/// targets, a decoded copy on big-endian ones.
fn f64_col(map: &Arc<memmap2::Mmap>, span: Span) -> Column {
    if cfg!(target_endian = "little") {
        Column::mapped(map, span.offset, span.bytes / 8)
    } else {
        let bytes = &map[span.offset..span.offset + span.bytes];
        Column::Owned(
            bytes
                .chunks_exact(8)
                .map(|c| f64::from_le_bytes(c.try_into().expect("8 bytes")))
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::group::group_collection;
    use crate::{
        EngineOptions, NoopObserver, ShapeEngine, ShapeQuery, SharedThresholds, TopKResult, VizData,
    };
    use shapesearch_datastore::Trendline;

    /// Nine series on two x rows, alternating, so every partition
    /// boundary falls inside both rows' trendlines: even ones on evenly
    /// spaced x, odd ones on squares. Two are rejected by GROUP.
    fn demo_trendlines() -> Vec<Trendline> {
        let mut out = Vec::new();
        for t in 0..9usize {
            let n = match t {
                2 => 1, // too short: GROUP rejects it
                5 => 0, // empty: GROUP rejects it
                _ => 12,
            };
            let pairs: Vec<(f64, f64)> = (0..n)
                .map(|i| {
                    let x = if t % 2 == 0 { i } else { i * i } as f64;
                    (x, (i as f64 * 0.7 + t as f64).sin() * (t + 1) as f64)
                })
                .collect();
            out.push(Trendline::from_pairs(format!("series-{t}"), &pairs));
        }
        out
    }

    /// The engine's rows are exactly `trendlines`: keys, and every raw
    /// point bit for bit.
    fn assert_rows_eq(engine: &ShapeEngine, trendlines: &[Trendline]) {
        assert_eq!(engine.len(), trendlines.len());
        for (i, t) in trendlines.iter().enumerate() {
            assert_eq!(engine.key(i), t.key);
            let (xs, ys) = engine.points(i);
            let bits = |vals: &[f64]| vals.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(xs), bits(&t.xs()));
            assert_eq!(bits(ys), bits(&t.ys()));
        }
    }

    /// A viz's canvas xs and its slopes from point 0, as bits.
    fn viz_bits(v: &VizData) -> Vec<u64> {
        let slopes = (1..v.n()).map(|j| v.slope(0, j).to_bits());
        v.xs().iter().map(|x| x.to_bits()).chain(slopes).collect()
    }

    /// `engine`'s top 3 for `[p=up][p=down]` at `bin_width`.
    fn answer(engine: &ShapeEngine, bin_width: usize) -> Vec<TopKResult> {
        let query = ShapeQuery::concat(vec![ShapeQuery::up(), ShapeQuery::down()]);
        let options = EngineOptions {
            bin_width,
            ..EngineOptions::default()
        };
        engine
            .top_k_batch_observed(
                &[(&query, 3)],
                &options,
                &SharedThresholds::new(1),
                &NoopObserver,
            )
            .pop()
            .unwrap()
            .unwrap()
    }

    fn temp_path(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("ss-snap-{}-{name}", std::process::id()));
        p
    }

    #[test]
    fn round_trip_is_bit_identical() {
        let trendlines = demo_trendlines();
        let path = temp_path("roundtrip.snap");
        let stats = write(&path, &Collection::from_trendlines(&trendlines)).unwrap();
        assert_eq!(stats.trendlines, trendlines.len());
        assert_eq!(stats.raw_points, 7 * 12 + 1);
        assert_eq!(stats.bytes as u64, std::fs::metadata(&path).unwrap().len());

        let snap = open(&path).unwrap();
        assert_eq!(snap.len(), trendlines.len());
        assert_eq!(
            snap.point_counts(),
            trendlines
                .iter()
                .map(|t| t.points.len())
                .collect::<Vec<_>>()
        );

        let engine = snap.partition(0, trendlines.len());
        assert_rows_eq(&engine, &trendlines);

        // The engine GROUPs the mapped rows as it would the heap ones.
        let eager = group_collection(&trendlines, 4);
        let loaded = engine.grouped(4);
        assert_eq!(loaded.len(), eager.len());
        for (loaded, eager) in loaded.iter().zip(&eager) {
            match (loaded, eager) {
                (None, None) => {}
                (Some(l), Some(e)) => {
                    assert_eq!((l.source, l.slot(), l.grid), (e.source, e.slot(), e.grid));
                    assert_eq!(viz_bits(l), viz_bits(e));
                }
                _ => panic!("GROUP accept/reject disagrees"),
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn partitions_match_whole_collection() {
        let trendlines = demo_trendlines();
        let path = temp_path("parts.snap");
        write(&path, &Collection::from_trendlines(&trendlines)).unwrap();
        let snap = open(&path).unwrap();
        let counts: Vec<usize> = trendlines.iter().map(|t| t.points.len()).collect();
        assert_eq!(snap.point_counts(), counts);
        let eager_vizzes = group_collection(&trendlines, 3);
        for shards in [1usize, 2, 3, 4] {
            let mut keys = Vec::new();
            for (start, end) in crate::partition_bounds_by_points(&counts, shards) {
                let engine = snap.partition(start, end);
                assert_eq!(engine.base_index(), start);
                assert_rows_eq(&engine, &trendlines[start..end]);
                for viz in engine.grouped(3).iter().flatten() {
                    keys.push(engine.key(viz.source).to_owned());
                    let eager = eager_vizzes[start + viz.source].as_ref().unwrap();
                    assert_eq!(
                        viz_bits(viz),
                        viz_bits(eager),
                        "shards={shards} viz {}",
                        viz.source
                    );
                }
            }
            let eager: Vec<String> = eager_vizzes
                .iter()
                .flatten()
                .map(|v| trendlines[v.source].key.clone())
                .collect();
            assert_eq!(keys, eager);
        }
        std::fs::remove_file(&path).ok();
    }

    /// The zero-copy property: a partition's raw points are views of the
    /// mapping, not heap copies of it.
    #[test]
    #[cfg(target_endian = "little")]
    fn partition_columns_lie_inside_the_mapping() {
        let trendlines = demo_trendlines();
        let path = temp_path("zerocopy.snap");
        write(&path, &Collection::from_trendlines(&trendlines)).unwrap();
        let snap = open(&path).unwrap();
        let Column::Mapped { keep, .. } = &snap.xs else {
            panic!("a little-endian open maps the point columns");
        };
        let mapping = keep.as_ptr_range();
        let mapped = |what: &str, vals: &[f64]| {
            let run = vals.as_ptr_range();
            let (lo, hi) = (run.start.cast::<u8>(), run.end.cast::<u8>());
            assert!(
                mapping.start <= lo && hi <= mapping.end,
                "{what}: {run:?} is outside the mapping {mapping:?}"
            );
        };
        let counts = snap.point_counts();
        for (start, end) in crate::partition_bounds_by_points(&counts, 3) {
            let engine = snap.partition(start, end);
            for i in 0..engine.len() {
                let (xs, ys) = engine.points(i);
                assert_eq!(xs.len(), trendlines[start + i].len());
                mapped("raw xs", xs);
                mapped("raw ys", ys);
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_collection_round_trips() {
        let path = temp_path("empty.snap");
        write(&path, &Collection::from_trendlines(&[])).unwrap();
        let snap = open(&path).unwrap();
        assert_eq!(snap.len(), 0);
        let engine = snap.partition(0, 0);
        assert!(engine.is_empty());
        assert!(engine.grouped(7).is_empty());
        std::fs::remove_file(&path).ok();
    }

    /// Rewriting the path of a served snapshot leaves an engine cut from
    /// it answering as before: the writer replaces the path and never
    /// writes through the file a mapping holds.
    #[test]
    fn rewriting_the_path_leaves_a_cut_engine_alone() {
        let trendlines = demo_trendlines();
        let path = temp_path("rewrite.snap");
        write(&path, &Collection::from_trendlines(&trendlines)).unwrap();
        let engine = open(&path).unwrap().partition(0, trendlines.len());
        let bytes = std::fs::metadata(&path).unwrap().len();
        // The same keys and point counts with other ys: a file of the
        // same size, every data page different.
        let other: Vec<Trendline> = trendlines
            .iter()
            .map(|t| {
                let pairs: Vec<(f64, f64)> = t.points.iter().map(|p| (p.x, 1.0 - p.y)).collect();
                Trendline::from_pairs(t.key.clone(), &pairs)
            })
            .collect();
        write(&path, &Collection::from_trendlines(&other)).unwrap();
        assert_eq!(std::fs::metadata(&path).unwrap().len(), bytes);

        assert_rows_eq(&engine, &trendlines);
        let eager = ShapeEngine::from_trendlines(trendlines);
        for bin_width in [1, 2] {
            assert_eq!(answer(&engine, bin_width), answer(&eager, bin_width));
        }
        std::fs::remove_file(&path).ok();
    }

    fn write_demo(name: &str) -> (PathBuf, Vec<u8>) {
        let path = temp_path(name);
        write(&path, &Collection::from_trendlines(&demo_trendlines())).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        (path, bytes)
    }

    /// The writer's bytes are pinned, not only its round trip: a change
    /// made alike in writer and reader would pass a round trip and break
    /// every file already on disk. The FNV-1a of the whole demo file is
    /// the value the version-3 writer has always produced.
    #[test]
    fn the_demo_file_keeps_its_version_3_bytes() {
        let (path, bytes) = write_demo("pinned.snap");
        let mut hash = FNV_OFFSET;
        fnv1a(&mut hash, &bytes);
        assert_eq!((hash, bytes.len()), (0xa4bf_e48a_2f85_bbea, 1728));
        std::fs::remove_file(&path).ok();
    }

    fn expect_corrupt(path: &Path, bytes: Vec<u8>) {
        std::fs::write(path, bytes).unwrap();
        match open(path) {
            Err(SnapshotError::Corrupt { .. }) => {}
            other => panic!("expected Corrupt, got {other:?}"),
        }
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn bad_magic_is_rejected() {
        let (path, mut bytes) = write_demo("magic.snap");
        bytes[0] ^= 0xff;
        expect_corrupt(&path, bytes);
    }

    #[test]
    fn header_corruption_is_rejected() {
        let (path, bytes) = write_demo("hdr.snap");
        let mut flipped = bytes.clone();
        flipped[16] ^= 0x01; // trendline count
        expect_corrupt(&path, flipped);
        // A count too large for the file, with the header re-sealed, is
        // refused before the layout arithmetic could overflow.
        let mut huge = bytes;
        huge[16..24].copy_from_slice(&(u64::MAX / 2).to_le_bytes());
        let mut h = FNV_OFFSET;
        fnv1a(&mut h, &huge[..HEADER_LEN - 8]);
        huge[HEADER_LEN - 8..HEADER_LEN].copy_from_slice(&h.to_le_bytes());
        expect_corrupt(&path, huge);
    }

    #[test]
    fn payload_corruption_is_rejected() {
        let (path, mut bytes) = write_demo("payload.snap");
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        expect_corrupt(&path, bytes);
    }

    #[test]
    fn truncation_is_rejected() {
        let (path, mut bytes) = write_demo("torn.snap");
        bytes.truncate(bytes.len() - 8);
        expect_corrupt(&path, bytes);
    }

    /// Version 1 (per-viz x columns), version 2 (x runs; both stored a
    /// GROUP run) and an unknown version are all refused by their
    /// version alone.
    #[test]
    fn unknown_version_is_rejected() {
        for version in [1u32, 2, 9] {
            let (path, mut bytes) = write_demo("ver.snap");
            bytes[8..12].copy_from_slice(&version.to_le_bytes());
            // Re-seal the header checksum so the version check is what fires.
            let mut h = FNV_OFFSET;
            fnv1a(&mut h, &bytes[..HEADER_LEN - 8]);
            bytes[HEADER_LEN - 8..HEADER_LEN].copy_from_slice(&h.to_le_bytes());
            std::fs::write(&path, bytes).unwrap();
            match open(&path) {
                Err(SnapshotError::Version { found, .. }) if found == version => {}
                other => panic!("expected Version {version}, got {other:?}"),
            }
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn errors_render_structured_messages() {
        let (path, mut bytes) = write_demo("msg.snap");
        bytes[0] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        let err = open(&path).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("not valid"), "{msg}");
        assert!(msg.contains("magic"), "{msg}");
        std::fs::remove_file(&path).ok();
    }
}
