//! Observability: lock-cheap latency histograms, per-request traces, and
//! Prometheus text exposition.
//!
//! Everything here is std-only and built for the request hot path:
//!
//! * [`Histogram`] — fixed log₂-scale buckets over atomic counters; a
//!   `record` is two relaxed `fetch_add`s, no locks, no allocation. The
//!   registry that owns them is [`crate::stats::Stats`].
//! * [`Stage`] — the span/metric taxonomy of the request pipeline: one
//!   label per stage a query's time can go to, from parse to serialize,
//!   including the engine stages reported through
//!   [`shapesearch_core::StageObserver`].
//! * [`Span`] / [`new_trace_id`] — the per-request trace: a tree of
//!   named, timed spans. Trace IDs ride the `/shard/query` wire so a
//!   router stitches each remote server's own span tree under its RPC
//!   span (`"explain": true` on `POST /query` returns the whole tree).
//! * [`Exposition`] — a tiny Prometheus text-format (`0.0.4`) writer.

use crate::json::Json;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{SystemTime, UNIX_EPOCH};

/// Number of histogram buckets: upper bounds `2^0 ‥ 2^24` microseconds
/// (1 µs to ≈16.8 s) plus a `+Inf` overflow bucket.
pub const BUCKETS: usize = 26;

/// Index of the `+Inf` bucket.
const INF: usize = BUCKETS - 1;

/// The bucket a `micros` sample lands in: bucket `i` holds samples
/// `≤ 2^i` µs (cumulative semantics are applied at exposition time);
/// anything above `2^24` µs saturates into the `+Inf` bucket.
pub fn bucket_index(micros: u64) -> usize {
    if micros <= 1 {
        return 0;
    }
    // ceil(log2(micros)) without floats: position of the highest set bit
    // of `micros - 1`, plus one.
    let ceil_log2 = 64 - (micros - 1).leading_zeros() as usize;
    ceil_log2.min(INF)
}

/// The inclusive upper bound of bucket `i` in microseconds, or `None`
/// for the `+Inf` bucket.
pub fn bucket_bound(i: usize) -> Option<u64> {
    (i < INF).then(|| 1u64 << i)
}

/// A fixed-bucket log₂-scale latency histogram over atomic counters.
///
/// Recording is lock-free (two relaxed `fetch_add`s); reading takes a
/// point-in-time [`HistogramSnapshot`]. Buckets store per-bucket counts
/// internally; the cumulative `le` form Prometheus wants is derived at
/// exposition time.
#[derive(Debug, Default)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    sum: AtomicU64,
}

impl Histogram {
    /// Records one latency sample.
    pub fn record(&self, micros: u64) {
        self.buckets[bucket_index(micros)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(micros, Ordering::Relaxed);
    }

    /// A point-in-time copy of the counters.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
            sum: self.sum.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of a [`Histogram`]'s counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HistogramSnapshot {
    /// Per-bucket (non-cumulative) sample counts.
    pub buckets: [u64; BUCKETS],
    /// Sum of all recorded samples in microseconds.
    pub sum: u64,
}

impl HistogramSnapshot {
    /// Records one latency sample into a copy some lock already guards
    /// (no atomics needed there; the sum wraps like the atomic one).
    pub fn record(&mut self, micros: u64) {
        self.buckets[bucket_index(micros)] += 1;
        self.sum = self.sum.wrapping_add(micros);
    }

    /// Total number of recorded samples.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Element-wise accumulation — merging two registries' snapshots
    /// (e.g. aggregating per-endpoint series into a fleet total) is
    /// exact because buckets are identical by construction.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += theirs;
        }
        self.sum += other.sum;
    }
}

/// Declares [`Stage`] once: a line is a variant, its docs and its name;
/// [`Stage::ALL`] and [`Stage::name`] follow from it, and a stage's
/// histogram index is its discriminant.
macro_rules! stages {
    ($($(#[$doc:meta])* $variant:ident = $name:literal,)+) => {
        /// The server-level stage taxonomy: every place a request's time
        /// can go.
        ///
        /// The first block is router work around the engine; the last
        /// three are the engine's own stages, forwarded from
        /// [`shapesearch_core::EngineStage`] via the observer seam. Stage
        /// names are the `stage` label values of
        /// `shapesearch_stage_duration_micros` and the span names of
        /// `explain` traces — one vocabulary across both.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum Stage {
            $($(#[$doc])* $variant,)+
        }

        impl Stage {
            /// Every stage, in exposition (declaration) order.
            pub const ALL: [Stage; [$($name),+].len()] = [$(Stage::$variant),+];

            /// Stable lowercase identifier (metric label value and span
            /// name).
            pub fn name(self) -> &'static str {
                match self {
                    $(Stage::$variant => $name,)+
                }
            }
        }
    };
}

stages! {
    /// Request body parse + query normalization + cache-key planning.
    ParsePlan = "parse_plan",
    /// Singleflight cache lookup (hits, misses, and coalesced waits all
    /// record here — the outcome is on the trace span's detail).
    CacheLookup = "cache_lookup",
    /// One local shard's compute-pool task end to end.
    ShardCompute = "shard_compute",
    /// One remote shard RPC end to end (also recorded per endpoint).
    RemoteRpc = "remote_rpc",
    /// Deterministic merge of per-shard top-k partials.
    Merge = "merge",
    /// Response envelope assembly.
    Serialize = "serialize",
    /// Engine: shared GROUP over the trendline collection.
    Group = "group",
    /// Engine: one query's SEGMENT + SCORE pass.
    SegmentScore = "segment_score",
    /// Engine: one query's §6.3 bound pass inside the pruning driver.
    PruneBound = "prune_bound",
}

impl Stage {
    /// The server-level stage an engine-reported stage maps to.
    pub fn from_engine(stage: shapesearch_core::EngineStage) -> Stage {
        match stage {
            shapesearch_core::EngineStage::Group => Stage::Group,
            shapesearch_core::EngineStage::SegmentScore => Stage::SegmentScore,
            shapesearch_core::EngineStage::PruneBound => Stage::PruneBound,
        }
    }
}

/// A Prometheus text-format (`text/plain; version=0.0.4`) writer: one
/// `# HELP`/`# TYPE` header per family, then one line per series.
#[derive(Debug, Default)]
pub struct Exposition {
    out: String,
}

/// Escapes a label value per the exposition format.
fn escape_label(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

impl Exposition {
    fn header(&mut self, name: &str, help: &str, kind: &str) {
        self.out.push_str("# HELP ");
        self.out.push_str(name);
        self.out.push(' ');
        self.out.push_str(help);
        self.out.push_str("\n# TYPE ");
        self.out.push_str(name);
        self.out.push(' ');
        self.out.push_str(kind);
        self.out.push('\n');
    }

    fn sample(&mut self, name: &str, labels: &[(&str, &str)], value: u64) {
        self.out.push_str(name);
        if !labels.is_empty() {
            self.out.push('{');
            for (i, (k, v)) in labels.iter().enumerate() {
                if i > 0 {
                    self.out.push(',');
                }
                self.out.push_str(k);
                self.out.push_str("=\"");
                self.out.push_str(&escape_label(v));
                self.out.push('"');
            }
            self.out.push('}');
        }
        self.out.push(' ');
        self.out.push_str(&value.to_string());
        self.out.push('\n');
    }

    /// One counter or gauge family (`kind` says which): the header, then
    /// one line per series — unlabeled when the series carries no label
    /// pair.
    pub fn family<'a>(
        &mut self,
        name: &str,
        help: &str,
        kind: &str,
        series: impl IntoIterator<Item = (Option<(&'a str, &'a str)>, u64)>,
    ) {
        self.header(name, help, kind);
        for (label, value) in series {
            self.sample(name, label.as_slice(), value);
        }
    }

    /// A histogram family: one `{le}`-bucketed series per entry (an
    /// entry with no extra label renders unlabeled). Buckets render
    /// cumulatively, ending in `+Inf`, plus `_sum` and `_count`.
    pub fn histogram_family(
        &mut self,
        name: &str,
        help: &str,
        series: &[(Option<(&str, &str)>, HistogramSnapshot)],
    ) {
        self.header(name, help, "histogram");
        let bucket = format!("{name}_bucket");
        let sum = format!("{name}_sum");
        let count = format!("{name}_count");
        for (label, snap) in series {
            let base: Vec<(&str, &str)> = label.iter().map(|&(k, v)| (k, v)).collect();
            let mut cumulative = 0u64;
            for (i, n) in snap.buckets.iter().enumerate() {
                cumulative += n;
                let le = match bucket_bound(i) {
                    Some(bound) => bound.to_string(),
                    None => "+Inf".to_owned(),
                };
                let mut labels = base.clone();
                labels.push(("le", &le));
                self.sample(&bucket, &labels, cumulative);
            }
            self.sample(&sum, &base, snap.sum);
            self.sample(&count, &base, snap.count());
        }
    }

    /// The assembled document.
    pub fn finish(self) -> String {
        self.out
    }
}

/// Monotonic component of trace IDs (uniqueness within the process).
static TRACE_COUNTER: AtomicU64 = AtomicU64::new(0);

/// splitmix64 finalizer — spreads counter/time/pid bits over the word.
fn mix(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}

/// A fresh 16-hex-digit trace ID: unique within a process (atomic
/// counter) and collision-resistant across the topology (mixed with
/// boot time and pid — no RNG dependency).
pub fn new_trace_id() -> String {
    let counter = TRACE_COUNTER.fetch_add(1, Ordering::Relaxed);
    let nanos = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0);
    let id = mix(nanos ^ mix(counter.wrapping_shl(32) ^ u64::from(std::process::id())));
    format!("{id:016x}")
}

/// One node of a request trace: a named, timed region with child spans.
///
/// Spans cross process boundaries as JSON (the `spans` array of a
/// `/shard/query` reply), so [`Span::from_json`] is the stitching seam:
/// a router parses each remote server's span tree and grafts it under
/// the corresponding RPC span of its own trace.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Span name — a [`Stage::name`] or a structural name like
    /// `"request"` / `"shard_fanout"` / `"shard"`.
    pub name: String,
    /// Optional human-oriented qualifier (cache outcome, shard index,
    /// remote endpoint).
    pub detail: Option<String>,
    /// Wall-clock duration of the region in microseconds.
    pub micros: u64,
    /// Sub-regions, in execution order.
    pub children: Vec<Span>,
}

impl Span {
    /// A leaf span.
    pub fn new(name: impl Into<String>, micros: u64) -> Self {
        Self {
            name: name.into(),
            detail: None,
            micros,
            children: Vec::new(),
        }
    }

    /// Sets the qualifier, returning `self` for chaining.
    #[must_use]
    pub fn with_detail(mut self, detail: impl Into<String>) -> Self {
        self.detail = Some(detail.into());
        self
    }

    /// Appends a child span.
    pub fn push(&mut self, child: Span) {
        self.children.push(child);
    }

    /// The JSON wire/envelope form: `{"name", ["detail"], "micros",
    /// ["spans"]}` (detail and spans omitted when empty).
    pub fn to_json(&self) -> Json {
        let mut fields = vec![("name".to_owned(), Json::Str(self.name.clone()))];
        if let Some(detail) = &self.detail {
            fields.push(("detail".to_owned(), Json::Str(detail.clone())));
        }
        fields.push(("micros".to_owned(), Json::Num(self.micros as f64)));
        if !self.children.is_empty() {
            fields.push((
                "spans".to_owned(),
                Json::Arr(self.children.iter().map(Span::to_json).collect()),
            ));
        }
        Json::Obj(fields)
    }

    /// Parses the [`Self::to_json`] form (used to stitch a remote shard
    /// server's spans into the router's trace). `None` when the value
    /// is not a well-formed span tree.
    pub fn from_json(value: &Json) -> Option<Span> {
        let name = value.get("name")?.as_str()?.to_owned();
        let detail = match value.get("detail") {
            Some(d) => Some(d.as_str()?.to_owned()),
            None => None,
        };
        let micros = value.get("micros")?.as_f64()? as u64;
        let children = match value.get("spans") {
            Some(spans) => spans
                .as_array()?
                .iter()
                .map(Span::from_json)
                .collect::<Option<Vec<_>>>()?,
            None => Vec::new(),
        };
        Some(Span {
            name,
            detail,
            micros,
            children,
        })
    }
}

/// Parses a JSON array of spans (a shard reply's `spans` field).
pub fn spans_from_json(value: &Json) -> Option<Vec<Span>> {
    value.as_array()?.iter().map(Span::from_json).collect()
}

/// Renders spans as a JSON array.
pub fn spans_to_json(spans: &[Span]) -> Json {
    Json::Arr(spans.iter().map(Span::to_json).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::ReplicaAttempt;
    use crate::handlers::AppState;
    use crate::json;
    use crate::stats::StatsSnapshot;

    #[test]
    fn bucket_boundaries_are_inclusive_powers_of_two() {
        // 0 and 1 µs share the first bucket (le 1).
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 0);
        // Exact powers land in their own bucket (bounds are inclusive);
        // one past rolls over to the next.
        for i in 1..=24u32 {
            let bound = 1u64 << i;
            assert_eq!(bucket_index(bound), i as usize, "bound {bound}");
            assert_eq!(bucket_index(bound / 2), i as usize - 1, "half of {bound}");
            if i < 24 {
                assert_eq!(bucket_index(bound + 1), i as usize + 1, "above {bound}");
            }
        }
        assert_eq!(bucket_bound(0), Some(1));
        assert_eq!(bucket_bound(24), Some(1 << 24));
        assert_eq!(bucket_bound(INF), None);
    }

    #[test]
    fn bucket_saturation_goes_to_inf() {
        assert_eq!(bucket_index((1 << 24) + 1), INF);
        assert_eq!(bucket_index(u64::MAX), INF);
        let h = Histogram::default();
        h.record(u64::MAX);
        let snap = h.snapshot();
        assert_eq!(snap.buckets[INF], 1);
        assert_eq!(snap.count(), 1);
    }

    #[test]
    fn histogram_records_and_sums() {
        let h = Histogram::default();
        for micros in [0, 1, 2, 3, 1000, 1_000_000] {
            h.record(micros);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count(), 6);
        assert_eq!(snap.sum, 1_001_006);
        assert_eq!(snap.buckets[0], 2); // 0 and 1
        assert_eq!(snap.buckets[1], 1); // 2
        assert_eq!(snap.buckets[2], 1); // 3
        assert_eq!(snap.buckets[10], 1); // 1000 ≤ 1024
        assert_eq!(snap.buckets[20], 1); // 1_000_000 ≤ 2^20
    }

    #[test]
    fn snapshot_merge_is_elementwise() {
        let a = Histogram::default();
        let b = Histogram::default();
        a.record(1);
        a.record(100);
        b.record(100);
        b.record(u64::MAX);
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        assert_eq!(merged.count(), 4);
        assert_eq!(merged.buckets[bucket_index(100)], 2);
        assert_eq!(merged.buckets[INF], 1);
        // The atomic sum wraps on overflow (fetch_add semantics).
        assert_eq!(merged.sum, 201u64.wrapping_add(u64::MAX));
    }

    #[test]
    fn stage_indexing_is_total_and_engine_stages_map() {
        for stage in Stage::ALL {
            assert_eq!(Stage::ALL[stage as usize], stage);
            assert!(!stage.name().is_empty());
        }
        assert_eq!(
            Stage::from_engine(shapesearch_core::EngineStage::Group),
            Stage::Group
        );
        assert_eq!(
            Stage::from_engine(shapesearch_core::EngineStage::SegmentScore),
            Stage::SegmentScore
        );
        assert_eq!(
            Stage::from_engine(shapesearch_core::EngineStage::PruneBound),
            Stage::PruneBound
        );
    }

    #[test]
    fn metrics_registry_tracks_stages_and_endpoints() {
        let attempt = |endpoint: &str, micros, error: Option<&str>| ReplicaAttempt {
            endpoint: endpoint.to_owned(),
            micros,
            error: error.map(str::to_owned),
        };
        let state = AppState::new(4, 1, None, 1);
        let m = &state.stats;
        m.stage(Stage::Group, 5);
        m.stage(Stage::Group, 7);
        // One failover trail, one booking: a failed first replica and
        // the peer that answered.
        m.record_rpc(&[
            attempt("127.0.0.1:7001", 40, Some("reset")),
            attempt("127.0.0.1:7002", 9, None),
        ]);
        m.record_rpc(&[attempt("127.0.0.1:7001", 2, None)]);
        let snapshot = StatsSnapshot::gather(&state);
        assert_eq!(snapshot.stages[Stage::Group as usize].count(), 2);
        assert_eq!(snapshot.stages[Stage::Group as usize].sum, 12);
        assert_eq!(snapshot.stages[Stage::Merge as usize].count(), 0);
        // Requests are the histogram's count and micros its sum.
        let booked: Vec<_> = snapshot
            .remote
            .iter()
            .map(|(endpoint, row)| {
                let rpc = row.rpc.unwrap();
                let numbers = (rpc.requests(), rpc.errors, rpc.micros_total());
                (endpoint.as_str(), numbers)
            })
            .collect();
        let want = [
            ("127.0.0.1:7001", (2, 1, 42)),
            ("127.0.0.1:7002", (1, 0, 9)),
        ];
        assert_eq!(booked, want);
    }

    #[test]
    fn exposition_renders_cumulative_buckets() {
        let h = Histogram::default();
        h.record(1);
        h.record(3);
        h.record((1 << 24) + 1);
        let mut expo = Exposition::default();
        expo.family("x_total", "an x.", "counter", [(None, 3)]);
        expo.family("g", "a g.", "gauge", [(None, 7)]);
        let kinds = [(Some(("kind", "a")), 1), (Some(("kind", "b")), 2)];
        expo.family("y_total", "a y.", "counter", kinds);
        expo.histogram_family(
            "lat_micros",
            "latency.",
            &[(Some(("stage", "group")), h.snapshot())],
        );
        let text = expo.finish();
        assert!(text.contains("# HELP x_total an x.\n# TYPE x_total counter\nx_total 3\n"));
        assert!(text.contains("g 7\n"));
        assert!(text.contains("y_total{kind=\"a\"} 1\n"));
        assert!(text.contains("y_total{kind=\"b\"} 2\n"));
        // Cumulative: le="1" sees one sample, le="4" sees two, +Inf all.
        assert!(text.contains("lat_micros_bucket{stage=\"group\",le=\"1\"} 1\n"));
        assert!(text.contains("lat_micros_bucket{stage=\"group\",le=\"4\"} 2\n"));
        assert!(text.contains("lat_micros_bucket{stage=\"group\",le=\"+Inf\"} 3\n"));
        assert!(text.contains("lat_micros_count{stage=\"group\"} 3\n"));
        let sum = 1 + 3 + ((1 << 24) + 1);
        assert!(text.contains(&format!("lat_micros_sum{{stage=\"group\"}} {sum}\n")));
    }

    #[test]
    fn label_values_are_escaped() {
        let mut expo = Exposition::default();
        let hostile = [(Some(("endpoint", "a\"b\\c\nd")), 1)];
        expo.family("e_total", "an e.", "counter", hostile);
        assert!(expo
            .finish()
            .contains("e_total{endpoint=\"a\\\"b\\\\c\\nd\"} 1\n"));
    }

    #[test]
    fn trace_ids_are_unique_hex() {
        let a = new_trace_id();
        let b = new_trace_id();
        assert_ne!(a, b);
        for id in [&a, &b] {
            assert_eq!(id.len(), 16);
            assert!(id.chars().all(|c| c.is_ascii_hexdigit()));
        }
    }

    #[test]
    fn span_json_round_trips() {
        let mut root = Span::new("request", 120).with_detail("trace");
        let mut exec = Span::new("shard_fanout", 90);
        exec.push(Span::new("shard_compute", 80).with_detail("shard 0"));
        exec.push(Span::new("merge", 3));
        root.push(exec);
        let json = root.to_json();
        assert_eq!(Span::from_json(&json), Some(root.clone()));
        // And through actual serialization.
        let reparsed = json::parse(&json.to_text()).unwrap();
        assert_eq!(Span::from_json(&reparsed), Some(root));
        // Malformed trees are rejected, not mangled.
        assert_eq!(
            Span::from_json(&json::parse("{\"micros\":1}").unwrap()),
            None
        );
        assert_eq!(
            Span::from_json(&json::parse("{\"name\":\"x\",\"micros\":1,\"spans\":[{}]}").unwrap()),
            None
        );
    }
}
