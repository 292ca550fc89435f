//! Versioned on-disk snapshots of post-GROUP state.
//!
//! A snapshot persists everything a [`crate::ShapeEngine`] holds — the
//! keys, the two raw point columns (for push-down and GROUP at other bin
//! widths) **and** the [`ColumnarArena`] of one GROUP run (the §5.3
//! prefix statistics and §6.3 slope extremes the scoring hot path reads)
//! — as one flat little-endian file. Opening a snapshot maps it
//! ([`memmap2::Mmap`] behind the workspace's std-only syscall shim), and
//! [`Snapshot::partition`] hands back an engine whose raw columns and
//! arena columns are all **zero-copy views into the mapping**: a cold
//! shard load is a page-in that allocates keys, offsets and handles and
//! copies no point — never a re-EXTRACT or re-GROUP.
//!
//! ## File layout (version 1)
//!
//! ```text
//! offset  size  field
//!      0     8  magic "SHAPSNAP"
//!      8     4  format version (u32, = 1)
//!     12     4  flags (u32, = 0)
//!     16     8  bin width the arena was GROUPed at
//!     24     8  trendline count T
//!     32     8  viz count V (GROUP-accepted trendlines)
//!     40     8  canvas point count P
//!     48     8  raw point count R
//!     56     8  total file length (truncation check)
//!     64     8  FNV-1a checksum of every byte after the header
//!     72   240  column table: 15 × (offset u64, byte length u64)
//!    312     8  FNV-1a checksum of header bytes [0, 312)
//!    320     …  columns, each 8-byte aligned, in table order
//! ```
//!
//! Columns, in order: key bytes (concatenated UTF-8 keys), key starts
//! `u64[T+1]`, raw xs `f64[R]`, raw ys `f64[R]`, raw starts `u64[T+1]`,
//! viz slots `u64[T]` (slot+1, 0 where GROUP rejected), point starts
//! `u64[V+1]`, then the arena's six `f64` columns (xs, ys, and the four
//! prefix-sum columns of length `P+V`), then slope min/max `f64[V]`.
//! All integers and floats are little-endian; `f64` bit patterns round-
//! trip exactly (NaN payloads included), which is what keeps
//! snapshot-backed serving byte-identical to the eager path.
//!
//! [`Snapshot::open`] verifies the magic, version, both checksums, the
//! recorded file length, and every structural invariant (monotone
//! offset columns, sequential slots, ≥ 2 points per viz) before any
//! caller can touch the data: a torn or corrupted snapshot is a
//! structured [`SnapshotError`], never a panic or garbage results. The
//! payload checksum pass reads the whole file once, which doubles as
//! page pre-faulting for the resident data.

use crate::columnar::{ArenaBuilder, Column, ColumnarArena, PointTable};
use crate::engine::{group, ShapeEngine};
use shapesearch_datastore::Trendline;
use std::fs::File;
use std::io::{self, BufWriter, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Magic bytes identifying a ShapeSearch snapshot file.
pub const MAGIC: [u8; 8] = *b"SHAPSNAP";
/// The current (and only) snapshot format version.
pub const FORMAT_VERSION: u32 = 1;
/// Byte length of the fixed v1 header.
const HEADER_LEN: usize = 320;
/// Number of columns in the v1 column table.
const COLUMNS: usize = 15;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(FNV_PRIME);
    }
}

/// Column indices into the v1 column table, in serialization order.
#[derive(Clone, Copy)]
enum Col {
    KeyBytes = 0,
    KeyStarts,
    RawXs,
    RawYs,
    RawStarts,
    VizSlots,
    PointStarts,
    Xs,
    Ys,
    SumX,
    SumY,
    SumXy,
    SumXx,
    SlopeMin,
    SlopeMax,
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
    /// Trendlines serialized (including GROUP-rejected ones).
    pub trendlines: usize,
    /// GROUP-accepted visualizations in the arena.
    pub vizzes: usize,
    /// Raw points across all trendlines.
    pub raw_points: usize,
    /// Canvas points across all accepted visualizations.
    pub canvas_points: usize,
    /// Total file size in bytes.
    pub bytes: usize,
}

fn io_err(path: &Path, source: io::Error) -> SnapshotError {
    SnapshotError::Io {
        path: path.to_owned(),
        source,
    }
}

fn put(
    out: &mut BufWriter<File>,
    hash: &mut u64,
    bytes: &[u8],
    path: &Path,
) -> Result<(), SnapshotError> {
    fnv1a(hash, bytes);
    out.write_all(bytes).map_err(|e| io_err(path, e))
}

fn put_f64s(
    out: &mut BufWriter<File>,
    hash: &mut u64,
    vals: &[f64],
    path: &Path,
) -> Result<(), SnapshotError> {
    for v in vals {
        put(out, hash, &v.to_le_bytes(), path)?;
    }
    Ok(())
}

fn put_u64s(
    out: &mut BufWriter<File>,
    hash: &mut u64,
    vals: impl Iterator<Item = u64>,
    path: &Path,
) -> Result<(), SnapshotError> {
    for v in vals {
        put(out, hash, &v.to_le_bytes(), path)?;
    }
    Ok(())
}

/// Computes the deterministic v1 column table for the given counts.
/// `key_bytes` is the only column whose length is not a multiple of 8;
/// every column is padded to an 8-byte boundary so mapped `f64`/`u64`
/// views stay aligned.
fn layout(key_bytes: usize, t: usize, v: usize, p: usize, r: usize) -> ([Span; COLUMNS], usize) {
    let lens: [usize; COLUMNS] = [
        key_bytes,
        (t + 1) * 8,
        r * 8,
        r * 8,
        (t + 1) * 8,
        t * 8,
        (v + 1) * 8,
        p * 8,
        p * 8,
        (p + v) * 8,
        (p + v) * 8,
        (p + v) * 8,
        (p + v) * 8,
        v * 8,
        v * 8,
    ];
    let mut spans = [Span::default(); COLUMNS];
    let mut offset = HEADER_LEN;
    for (span, &bytes) in spans.iter_mut().zip(&lens) {
        *span = Span { offset, bytes };
        offset += bytes.div_ceil(8) * 8;
    }
    (spans, offset)
}

/// Writes a version-1 snapshot of `trendlines` GROUPed at `bin_width`.
///
/// What is serialized is what an engine over `trendlines` holds: its
/// raw point columns and the arena its GROUP builds, so a loaded
/// snapshot's columns carry the same bits the eager path would compute.
///
/// # Errors
/// Propagates filesystem errors as [`SnapshotError::Io`].
pub fn write(
    path: impl AsRef<Path>,
    trendlines: &[Trendline],
    bin_width: usize,
) -> Result<SnapshotStats, SnapshotError> {
    let path = path.as_ref();
    let points = PointTable::from_trendlines(trendlines);
    let grouped = group::group_points(&points, bin_width);
    let empty;
    let raw = match grouped.iter().flatten().next() {
        Some(v) => v.arena().raw(),
        None => {
            empty = ArenaBuilder::new().finish();
            empty.raw()
        }
    };

    let t = trendlines.len();
    let v = raw.point_starts.len() - 1;
    let p = raw.xs.len();
    let (raw_xs, raw_ys, raw_starts) = points.columns();
    let r = raw_xs.len();
    let key_bytes: usize = trendlines.iter().map(|t| t.key.len()).sum();
    let (spans, file_len) = layout(key_bytes, t, v, p, r);

    let file = File::create(path).map_err(|e| io_err(path, e))?;
    let mut out = BufWriter::new(file);
    // Header placeholder; the real header lands after the payload hash
    // is known.
    out.write_all(&[0u8; HEADER_LEN])
        .map_err(|e| io_err(path, e))?;

    let mut hash = FNV_OFFSET;
    let h = &mut hash;
    // Key bytes, padded to the 8-byte boundary the next column needs.
    for tl in trendlines {
        put(&mut out, h, tl.key.as_bytes(), path)?;
    }
    let pad = key_bytes.div_ceil(8) * 8 - key_bytes;
    put(&mut out, h, &[0u8; 8][..pad], path)?;
    // Key starts.
    let mut acc = 0u64;
    put(&mut out, h, &0u64.to_le_bytes(), path)?;
    for tl in trendlines {
        acc += tl.key.len() as u64;
        put(&mut out, h, &acc.to_le_bytes(), path)?;
    }
    // Raw coordinates and starts.
    put_f64s(&mut out, h, raw_xs, path)?;
    put_f64s(&mut out, h, raw_ys, path)?;
    put_u64s(&mut out, h, raw_starts.iter().map(|&s| s as u64), path)?;
    // Viz slots: slot+1, 0 where GROUP rejected.
    put_u64s(
        &mut out,
        h,
        grouped
            .iter()
            .map(|g| g.as_ref().map_or(0, |v| v.slot() as u64 + 1)),
        path,
    )?;
    // The arena columns.
    put_u64s(
        &mut out,
        h,
        raw.point_starts.iter().map(|&s| s as u64),
        path,
    )?;
    put_f64s(&mut out, h, raw.xs, path)?;
    put_f64s(&mut out, h, raw.ys, path)?;
    put_f64s(&mut out, h, raw.sum_x, path)?;
    put_f64s(&mut out, h, raw.sum_y, path)?;
    put_f64s(&mut out, h, raw.sum_xy, path)?;
    put_f64s(&mut out, h, raw.sum_xx, path)?;
    put_f64s(&mut out, h, raw.slope_min, path)?;
    put_f64s(&mut out, h, raw.slope_max, path)?;

    // Assemble and install the real header.
    let mut header = Vec::with_capacity(HEADER_LEN);
    header.extend_from_slice(&MAGIC);
    header.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    header.extend_from_slice(&0u32.to_le_bytes()); // flags
    for field in [
        bin_width as u64,
        t as u64,
        v as u64,
        p as u64,
        r as u64,
        file_len as u64,
        hash,
    ] {
        header.extend_from_slice(&field.to_le_bytes());
    }
    for span in &spans {
        header.extend_from_slice(&(span.offset as u64).to_le_bytes());
        header.extend_from_slice(&(span.bytes as u64).to_le_bytes());
    }
    let mut header_hash = FNV_OFFSET;
    fnv1a(&mut header_hash, &header);
    header.extend_from_slice(&header_hash.to_le_bytes());
    debug_assert_eq!(header.len(), HEADER_LEN);

    let mut file = out.into_inner().map_err(|e| io_err(path, e.into()))?;
    file.seek(SeekFrom::Start(0)).map_err(|e| io_err(path, e))?;
    file.write_all(&header).map_err(|e| io_err(path, e))?;
    file.sync_all().map_err(|e| io_err(path, e))?;

    Ok(SnapshotStats {
        trendlines: t,
        vizzes: v,
        raw_points: r,
        canvas_points: p,
        bytes: file_len,
    })
}

/// An opened, validated snapshot file. Cheap to cut partitions from;
/// the mapping stays alive for as long as any column cut from it does
/// (each holds an `Arc` on the map).
pub struct Snapshot {
    map: Arc<memmap2::Mmap>,
    path: PathBuf,
    bin_width: usize,
    spans: [Span; COLUMNS],
    key_starts: Vec<usize>,
    raw_starts: Vec<usize>,
    /// Per trendline: `Some(slot)` where GROUP accepted it.
    viz_slots: Vec<Option<usize>>,
    point_starts: Vec<usize>,
}

impl std::fmt::Debug for Snapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Snapshot")
            .field("path", &self.path)
            .field("bin_width", &self.bin_width)
            .field("trendlines", &self.trendline_count())
            .field("vizzes", &self.viz_count())
            .finish()
    }
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

impl Snapshot {
    /// Opens and fully validates a snapshot file.
    ///
    /// # Errors
    /// [`SnapshotError::Io`] for filesystem/mapping failures,
    /// [`SnapshotError::Version`] for an unknown format version, and
    /// [`SnapshotError::Corrupt`] for everything a torn, truncated, or
    /// tampered file can present: bad magic, checksum mismatches
    /// (header and payload), a recorded length that disagrees with the
    /// file, or structural invariants that do not hold.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, SnapshotError> {
        let path = path.as_ref();
        let file = File::open(path).map_err(|e| io_err(path, e))?;
        // Safety: mapping contract — the snapshot file must not be
        // truncated or rewritten while the server holds it; the CLI
        // writes snapshots atomically-enough (full write + sync) and
        // they are treated as immutable artifacts thereafter.
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

        let bin_width = le_usize(bytes, 16, path, "bin width")?;
        let t = le_usize(bytes, 24, path, "trendline count")?;
        let v = le_usize(bytes, 32, path, "viz count")?;
        let p = le_usize(bytes, 40, path, "canvas point count")?;
        let r = le_usize(bytes, 48, path, "raw point count")?;
        let file_len = le_usize(bytes, 56, path, "file length")?;
        if file_len != bytes.len() {
            return Err(corrupt(
                path,
                format!(
                    "recorded length {file_len} != actual {} (torn or truncated)",
                    bytes.len()
                ),
            ));
        }

        // The column table must match the deterministic v1 layout for
        // these counts; key byte length comes from the table itself.
        let key_bytes = le_usize(bytes, 72 + 8, path, "key column length")?;
        let (spans, expected_len) = layout(key_bytes, t, v, p, r);
        if expected_len != file_len {
            return Err(corrupt(
                path,
                format!("layout for the recorded counts needs {expected_len} bytes, file has {file_len}"),
            ));
        }
        for (i, span) in spans.iter().enumerate() {
            let offset = le_usize(bytes, 72 + i * 16, path, "column offset")?;
            let len = le_usize(bytes, 72 + i * 16 + 8, path, "column length")?;
            if offset != span.offset || len != span.bytes {
                return Err(corrupt(
                    path,
                    format!(
                        "column {i} at {offset}+{len} disagrees with the v1 layout \
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
        if payload_hash != le_u64(bytes, 64) {
            return Err(corrupt(path, "payload checksum mismatch"));
        }

        let read_u64s = |span: Span| -> Vec<u64> {
            bytes[span.offset..span.offset + span.bytes]
                .chunks_exact(8)
                .map(|c| u64::from_le_bytes(c.try_into().expect("8 bytes")))
                .collect()
        };
        let starts = |span: Span, last: usize, what: &str| -> Result<Vec<usize>, SnapshotError> {
            let vals = read_u64s(span);
            let mut out = Vec::with_capacity(vals.len());
            let mut prev = 0usize;
            for (i, &val) in vals.iter().enumerate() {
                let val = usize::try_from(val)
                    .map_err(|_| corrupt(path, format!("{what}[{i}] overflows usize")))?;
                if (i == 0 && val != 0) || val < prev {
                    return Err(corrupt(path, format!("{what} is not monotone from 0")));
                }
                prev = val;
                out.push(val);
            }
            if out.last() != Some(&last) {
                return Err(corrupt(path, format!("{what} does not end at {last}")));
            }
            Ok(out)
        };

        let key_starts = starts(spans[Col::KeyStarts as usize], key_bytes, "key starts")?;
        let raw_starts = starts(spans[Col::RawStarts as usize], r, "raw starts")?;
        let point_starts = starts(spans[Col::PointStarts as usize], p, "point starts")?;
        if point_starts.windows(2).any(|w| w[1] - w[0] < 2) {
            return Err(corrupt(path, "a viz has fewer than 2 canvas points"));
        }

        // Slots must be exactly 0..V in source order (that is how the
        // GROUP writer assigns them), encoded as slot+1 with 0 for
        // rejected trendlines.
        let mut viz_slots = Vec::with_capacity(t);
        let mut next_slot = 0usize;
        for (i, &enc) in read_u64s(spans[Col::VizSlots as usize]).iter().enumerate() {
            if enc == 0 {
                viz_slots.push(None);
                continue;
            }
            let slot = usize::try_from(enc - 1)
                .map_err(|_| corrupt(path, format!("viz slot[{i}] overflows usize")))?;
            if slot != next_slot {
                return Err(corrupt(
                    path,
                    format!("viz slots are not sequential at trendline {i}"),
                ));
            }
            next_slot += 1;
            viz_slots.push(Some(slot));
        }
        if next_slot != v {
            return Err(corrupt(
                path,
                format!("{next_slot} accepted trendlines but the header declares {v} vizzes"),
            ));
        }

        // Keys must be valid UTF-8 now, so partitioning never fails.
        let kb = spans[Col::KeyBytes as usize];
        for w in key_starts.windows(2) {
            if std::str::from_utf8(&bytes[kb.offset + w[0]..kb.offset + w[1]]).is_err() {
                return Err(corrupt(path, "a trendline key is not valid UTF-8"));
            }
        }

        Ok(Self {
            map: Arc::clone(&map),
            path: path.to_owned(),
            bin_width,
            spans,
            key_starts,
            raw_starts,
            viz_slots,
            point_starts,
        })
    }

    /// The bin width the snapshot's arena was GROUPed at.
    pub fn bin_width(&self) -> usize {
        self.bin_width
    }

    /// Number of trendlines (including GROUP-rejected ones).
    pub fn trendline_count(&self) -> usize {
        self.viz_slots.len()
    }

    /// Number of GROUP-accepted visualizations.
    pub fn viz_count(&self) -> usize {
        self.point_starts.len() - 1
    }

    /// Per-trendline raw point counts — the input
    /// [`crate::partition_bounds_by_points`] needs to reproduce the
    /// eager path's deterministic shard bounds without materializing a
    /// single trendline.
    pub fn raw_point_counts(&self) -> Vec<usize> {
        self.raw_starts.windows(2).map(|w| w[1] - w[0]).collect()
    }

    /// Deterministic shard bounds for `shard_count` shards — identical
    /// to what the eager [`crate::ShardedEngine`] computes over the
    /// same trendlines.
    pub fn partition_bounds(&self, shard_count: usize) -> Vec<(usize, usize)> {
        crate::engine::shard::partition_bounds_by_points(&self.raw_point_counts(), shard_count)
    }

    /// A mapped `f64` column slice (elements `[lo, hi)` of column
    /// `col`) as an arena [`Column`]: zero-copy on little-endian
    /// targets, a decoded copy on big-endian ones.
    fn f64_col(&self, col: Col, lo: usize, hi: usize) -> Column {
        let span = self.spans[col as usize];
        debug_assert!(hi * 8 <= span.bytes);
        let offset = span.offset + lo * 8;
        if cfg!(target_endian = "little") {
            Column::mapped(&self.map, offset, hi - lo)
        } else {
            let bytes = &self.map[offset..offset + (hi - lo) * 8];
            Column::Owned(
                bytes
                    .chunks_exact(8)
                    .map(|c| f64::from_le_bytes(c.try_into().expect("8 bytes")))
                    .collect(),
            )
        }
    }

    /// The engine over trendlines `[start, end)`, reporting
    /// collection-global indices from `start`: raw points, arena columns
    /// and the GROUP run at the snapshot's bin width are all zero-copy
    /// views of the mapping (decoded copies on a big-endian target), so
    /// a cut allocates the keys, two offset vectors and one handle per
    /// trendline and copies no point. Another bin width GROUPs from the
    /// mapped raw columns like any engine.
    ///
    /// `[start, end)` must be one of the deterministic partitions from
    /// [`Self::partition_bounds`] (or the whole collection): the
    /// partition's accepted slots are then contiguous, which is what
    /// makes the sub-arena a pure slice with rebased offsets.
    ///
    /// # Panics
    /// Panics when `start > end` or `end` exceeds the trendline count.
    pub fn partition(&self, start: usize, end: usize) -> ShapeEngine {
        assert!(start <= end && end <= self.trendline_count());
        let kb = self.spans[Col::KeyBytes as usize];
        let keys = self.key_starts[start..=end]
            .windows(2)
            .map(|w| {
                std::str::from_utf8(&self.map[kb.offset + w[0]..kb.offset + w[1]])
                    .expect("validated at open")
                    .to_owned()
            })
            .collect();
        let (r_lo, r_hi) = (self.raw_starts[start], self.raw_starts[end]);
        let rebased =
            |starts: &[usize]| -> Vec<usize> { starts.iter().map(|&s| s - starts[0]).collect() };
        let points = PointTable::from_columns(
            self.f64_col(Col::RawXs, r_lo, r_hi),
            self.f64_col(Col::RawYs, r_lo, r_hi),
            rebased(&self.raw_starts[start..=end]),
        );

        // Slots run 0..V in source order, so the partition's are the
        // contiguous run [sa, sb).
        let slots = &self.viz_slots[start..end];
        let sa = slots.iter().flatten().next().copied().unwrap_or(0);
        let sb = sa + slots.iter().flatten().count();
        let p_lo = self.point_starts[sa];
        let p_hi = self.point_starts[sb];
        // Prefix columns carry one extra leading zero per viz, so the
        // sub-run shifts by the slot index on each side.
        let (q_lo, q_hi) = (p_lo + sa, p_hi + sb);
        let arena = Arc::new(ColumnarArena::from_columns(
            self.f64_col(Col::Xs, p_lo, p_hi),
            self.f64_col(Col::Ys, p_lo, p_hi),
            self.f64_col(Col::SumX, q_lo, q_hi),
            self.f64_col(Col::SumY, q_lo, q_hi),
            self.f64_col(Col::SumXy, q_lo, q_hi),
            self.f64_col(Col::SumXx, q_lo, q_hi),
            rebased(&self.point_starts[sa..=sb]),
            self.f64_col(Col::SlopeMin, sa, sb),
            self.f64_col(Col::SlopeMax, sa, sb),
        ));
        let grouped = slots
            .iter()
            .enumerate()
            .map(|(source, slot)| Some(group::handle(&points, source, &arena, (*slot)? - sa)))
            .collect();
        ShapeEngine::from_columns(keys, points, Some((self.bin_width, grouped)))
            .with_base_index(start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::group::group_collection;

    fn demo_trendlines() -> Vec<Trendline> {
        let mut out = Vec::new();
        for t in 0..7usize {
            let n = match t {
                2 => 1, // too short: GROUP rejects it
                5 => 0, // empty: GROUP rejects it
                _ => 8 + t * 3,
            };
            let pairs: Vec<(f64, f64)> = (0..n)
                .map(|i| {
                    let x = i as f64;
                    (x, (x * 0.7 + t as f64).sin() * (t + 1) as f64)
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

    fn temp_path(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("ss-snap-{}-{name}", std::process::id()));
        p
    }

    #[test]
    fn round_trip_is_bit_identical() {
        let trendlines = demo_trendlines();
        let path = temp_path("roundtrip.snap");
        let stats = write(&path, &trendlines, 4).unwrap();
        assert_eq!(stats.trendlines, trendlines.len());
        assert_eq!(stats.vizzes, 5);

        let snap = Snapshot::open(&path).unwrap();
        assert_eq!(snap.bin_width(), 4);
        assert_eq!(snap.trendline_count(), trendlines.len());
        assert_eq!(snap.viz_count(), 5);
        assert_eq!(
            snap.raw_point_counts(),
            trendlines
                .iter()
                .map(|t| t.points.len())
                .collect::<Vec<_>>()
        );

        let engine = snap.partition(0, trendlines.len());
        assert_rows_eq(&engine, &trendlines);

        let eager = group_collection(&trendlines, 4);
        let loaded = engine.grouped(4);
        assert_eq!(loaded.len(), eager.len());
        for (loaded, eager) in loaded.iter().zip(&eager) {
            match (loaded, eager) {
                (None, None) => {}
                (Some(l), Some(e)) => {
                    assert_eq!(l.source, e.source);
                    assert_eq!(l.raw_x.0.to_bits(), e.raw_x.0.to_bits());
                    assert_eq!(l.raw_x.1.to_bits(), e.raw_x.1.to_bits());
                    assert_eq!(l.raw_y.0.to_bits(), e.raw_y.0.to_bits());
                    assert_eq!(l.raw_y.1.to_bits(), e.raw_y.1.to_bits());
                    assert_eq!(l.slope_min.to_bits(), e.slope_min.to_bits());
                    assert_eq!(l.slope_max.to_bits(), e.slope_max.to_bits());
                    let (la, ea) = (l.arena(), e.arena());
                    let (lr, er) = (la.raw(), ea.raw());
                    assert_eq!(lr.point_starts, er.point_starts);
                    for (l_col, e_col) in [
                        (lr.xs, er.xs),
                        (lr.ys, er.ys),
                        (lr.sum_x, er.sum_x),
                        (lr.sum_y, er.sum_y),
                        (lr.sum_xy, er.sum_xy),
                        (lr.sum_xx, er.sum_xx),
                        (lr.slope_min, er.slope_min),
                        (lr.slope_max, er.slope_max),
                    ] {
                        assert_eq!(l_col.len(), e_col.len());
                        for (a, b) in l_col.iter().zip(e_col) {
                            assert_eq!(a.to_bits(), b.to_bits());
                        }
                    }
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
        write(&path, &trendlines, 3).unwrap();
        let snap = Snapshot::open(&path).unwrap();
        for shards in [1usize, 2, 3, 4] {
            let bounds = snap.partition_bounds(shards);
            let counts: Vec<usize> = trendlines.iter().map(|t| t.points.len()).collect();
            assert_eq!(bounds, crate::partition_bounds_by_points(&counts, shards));
            let mut keys = Vec::new();
            for &(start, end) in &bounds {
                let engine = snap.partition(start, end);
                assert_eq!(engine.base_index(), start);
                assert_rows_eq(&engine, &trendlines[start..end]);
                for viz in engine.grouped(3).iter().flatten() {
                    keys.push(engine.key(viz.source).to_owned());
                }
            }
            let eager: Vec<String> = group_collection(&trendlines, 3)
                .into_iter()
                .flatten()
                .map(|v| trendlines[v.source].key.clone())
                .collect();
            assert_eq!(keys, eager);
        }
        std::fs::remove_file(&path).ok();
    }

    /// The zero-copy property: a partition's raw points and every arena
    /// column are views of the mapping, not heap copies of it.
    #[test]
    #[cfg(target_endian = "little")]
    fn partition_columns_lie_inside_the_mapping() {
        let trendlines = demo_trendlines();
        let path = temp_path("zerocopy.snap");
        write(&path, &trendlines, 2).unwrap();
        let snap = Snapshot::open(&path).unwrap();
        let mapping = snap.map.as_ptr_range();
        let mapped = |what: &str, vals: &[f64]| {
            let run = vals.as_ptr_range();
            let (lo, hi) = (run.start.cast::<u8>(), run.end.cast::<u8>());
            assert!(
                mapping.start <= lo && hi <= mapping.end,
                "{what}: {run:?} is outside the mapping {mapping:?}"
            );
        };
        for (start, end) in snap.partition_bounds(3) {
            let engine = snap.partition(start, end);
            for i in 0..engine.len() {
                let (xs, ys) = engine.points(i);
                assert_eq!(xs.len(), trendlines[start + i].len());
                mapped("raw xs", xs);
                mapped("raw ys", ys);
            }
            let grouped = engine.grouped(snap.bin_width());
            let viz = grouped.iter().flatten().next().expect("an accepted viz");
            let arena = viz.arena().raw();
            assert!(!arena.xs.is_empty());
            for (what, col) in [
                ("xs", arena.xs),
                ("ys", arena.ys),
                ("sum_x", arena.sum_x),
                ("sum_y", arena.sum_y),
                ("sum_xy", arena.sum_xy),
                ("sum_xx", arena.sum_xx),
                ("slope_min", arena.slope_min),
                ("slope_max", arena.slope_max),
            ] {
                mapped(what, col);
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_collection_round_trips() {
        let path = temp_path("empty.snap");
        write(&path, &[], 7).unwrap();
        let snap = Snapshot::open(&path).unwrap();
        assert_eq!(snap.trendline_count(), 0);
        assert_eq!(snap.viz_count(), 0);
        let engine = snap.partition(0, 0);
        assert!(engine.is_empty());
        assert!(engine.grouped(7).is_empty());
        std::fs::remove_file(&path).ok();
    }

    fn write_demo(name: &str) -> (PathBuf, Vec<u8>) {
        let path = temp_path(name);
        write(&path, &demo_trendlines(), 4).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        (path, bytes)
    }

    fn expect_corrupt(path: &Path, bytes: Vec<u8>) {
        std::fs::write(path, bytes).unwrap();
        match Snapshot::open(path) {
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
        let (path, mut bytes) = write_demo("hdr.snap");
        bytes[24] ^= 0x01; // trendline count
        expect_corrupt(&path, bytes);
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

    #[test]
    fn unknown_version_is_rejected() {
        let (path, mut bytes) = write_demo("ver.snap");
        bytes[8..12].copy_from_slice(&9u32.to_le_bytes());
        // Re-seal the header checksum so the version check is what fires.
        let mut h = FNV_OFFSET;
        fnv1a(&mut h, &bytes[..HEADER_LEN - 8]);
        bytes[HEADER_LEN - 8..HEADER_LEN].copy_from_slice(&h.to_le_bytes());
        std::fs::write(&path, bytes).unwrap();
        match Snapshot::open(&path) {
            Err(SnapshotError::Version { found: 9, .. }) => {}
            other => panic!("expected Version, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn errors_render_structured_messages() {
        let (path, mut bytes) = write_demo("msg.snap");
        bytes[0] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        let err = Snapshot::open(&path).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("not valid"), "{msg}");
        assert!(msg.contains("magic"), "{msg}");
        std::fs::remove_file(&path).ok();
    }
}
