//! Allocation counts of the ingest path, held to their orders: reading a
//! CSV allocates per distinct key and per column, never per row, reading
//! JSON lines per column, never per record,
//! decoding a long JSON string allocates only as its buffer doubles, and
//! EXTRACT into a sink allocates per table, never per trendline.
//! A counting allocator wraps the system one and counts, per thread, the
//! allocations made while a closure runs; a count has no clock in it.

use shapesearch_datastore::{csv, extract_each, json, VisualSpec};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// `GlobalAlloc`'s contract; the count is a thread-local `Cell` with no
// destructor, so touching it never allocates or re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's `layout` obligations pass through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through `alloc` or `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: as for `dealloc`, and `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations (growths included) `f` makes on this thread.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

/// `keys` trendlines of `points` rows each: a string key, an integer x
/// and a float y, one trendline's rows after another.
fn zxy_csv(keys: usize, points: usize) -> String {
    let mut text = String::from("z,x,y\n");
    for k in 0..keys {
        for x in 0..points {
            let y = ((k * 31 + x * 7) % 1000) as f64 / 8.0 - 40.0;
            text.push_str(&format!("key-{k:04},{x},{y:.3}\n"));
        }
    }
    text
}

/// A 128,000-row CSV reads with allocations in the thousands — the
/// distinct keys (each copied once, and the lookup's growth), the three
/// columns' doublings — not in the hundreds of thousands a copy per
/// string cell made.
#[test]
fn reading_a_csv_allocates_per_distinct_key_not_per_row() {
    let (keys, points) = (1_000, 128);
    let text = zxy_csv(keys, points);
    let (table, made) = allocations(|| csv::read_str(&text).unwrap());
    assert_eq!(table.num_rows(), keys * points);
    // Per column: the header name and O(log rows) growths of its vector.
    let columns = 3;
    let bound = 2 * keys + columns * 64;
    assert!(
        made <= bound,
        "{made} allocations for {keys} keys, bound {bound}"
    );

    // The same key count over half the rows allocates about the same:
    // the count does not follow the rows.
    let text = zxy_csv(keys, points / 2);
    let (_, half) = allocations(|| csv::read_str(&text).unwrap());
    assert!(half <= bound, "{half} allocations at half the rows");
}

/// `records` JSON-lines records over ten keys, as [`zxy_csv`]'s rows: a
/// string key, an integer x and a float y, keys in either order.
fn zxy_jsonl(records: usize) -> String {
    let mut text = String::new();
    for r in 0..records {
        let (k, x) = (r % 10, r / 10);
        let y = ((k * 31 + x * 7) % 1000) as f64 / 8.0 - 40.0;
        text.push_str(&match r % 2 {
            0 => format!("{{\"z\":\"key-{k:04}\",\"x\":{x},\"y\":{y:.3}}}\n"),
            _ => format!("{{\"y\":{y:.3}, \"x\":{x}, \"z\":\"key-{k:04}\"}}\n"),
        });
    }
    text
}

/// Reading JSON lines makes the same allocations over 1,000 records as
/// over 100, but for the doublings of its columns' vectors: each record's
/// keys and strings are decoded into buffers reused from record to record
/// and its cells pushed straight into their columns, so no record builds
/// a map, a key or a string of its own.
#[test]
fn reading_json_lines_allocates_per_column_not_per_record() {
    let made = |records: usize| {
        let text = zxy_jsonl(records);
        let (table, made) = allocations(|| json::read_str(&text).unwrap());
        assert_eq!((table.num_rows(), table.num_columns()), (records, 3));
        made
    };
    let (few, many) = (made(100), made(1_000));
    // log2(1000 / 100) ≈ 3.3 more doublings of each of three columns'
    // vectors, with room to spare; a per-record allocation makes it 900
    // more.
    assert!(
        many <= few + 16,
        "{many} allocations for 1,000 records, {few} for 100"
    );
}

/// A 2 MB JSON string dense with escapes decodes with O(log n)
/// allocations: its one buffer's doublings.
#[test]
fn decoding_a_long_json_string_allocates_only_as_its_buffer_doubles() {
    let mut body = String::from("\"");
    while body.len() < 2 << 20 {
        body.push_str("key-0001,17,-3.125\\nquote \\\" é \\u00e9 \\ud83d\\udcc8 ");
    }
    body.push('"');
    let (decoded, made) = allocations(|| {
        let mut pos = 0;
        json::parse_string(body.as_bytes(), &mut pos).unwrap()
    });
    assert!(decoded.len() > 1 << 20);
    // log2(2 MB) ≈ 21 doublings, with room to spare.
    assert!(
        made <= 40,
        "{made} allocations to decode {} bytes",
        body.len()
    );
}

/// EXTRACT into a sink makes the same allocations over 1,000 trendlines
/// as over 100, but for the doublings of its per-table vectors: the
/// points sit in one buffer reused from trendline to trendline, and a
/// string `z` hands over its dictionary entry, so no key is formatted.
/// (Collecting `Trendline`s costs at least two a trendline: the key and
/// the point vector.)
#[test]
fn extracting_into_a_sink_allocates_per_table_not_per_trendline() {
    let spec = VisualSpec::new("z", "x", "y");
    let made = |keys: usize| {
        let table = csv::read_str(&zxy_csv(keys, 32)).unwrap();
        let (mut trendlines, mut points) = (0, 0);
        let ((), made) = allocations(|| {
            extract_each(&table, &spec, |_, p| {
                trendlines += 1;
                points += p.len();
            })
            .unwrap()
        });
        assert_eq!((trendlines, points), (keys, keys * 32));
        made
    };
    let (few, many) = (made(100), made(1_000));
    // log2(1000 / 100) ≈ 3.3 more doublings of the per-group table,
    // with room to spare; a per-trendline allocation makes it 900 more.
    assert!(
        many <= few + 8,
        "{many} allocations for 1,000 trendlines, {few} for 100"
    );
}
