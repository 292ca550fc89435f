//! Observability: lock-cheap latency histograms, per-request traces, and
//! Prometheus text exposition.
//!
//! Everything here is std-only and built for the request hot path:
//!
//! * [`Histogram`] — fixed log₂-scale buckets over atomic counters; a
//!   `record` is two relaxed `fetch_add`s, no locks, no allocation. The
//!   same registry feeds both `GET /metrics` (cumulative
//!   `_bucket{le=…}` series) and the healthz totals, so the two always
//!   reconcile.
//! * [`Stage`] — the span/metric taxonomy of the request pipeline: one
//!   label per stage a query's time can go to, from parse to serialize,
//!   including the engine stages reported through
//!   [`shapesearch_core::StageObserver`].
//! * [`Metrics`] — the process-wide registry: request/shard-request
//!   histograms, one histogram per stage, and one per remote shard
//!   endpoint.
//! * [`Span`] / [`new_trace_id`] — the per-request trace: a tree of
//!   named, timed spans. Trace IDs ride the `/shard/query` wire so a
//!   router stitches each remote server's own span tree under its RPC
//!   span (`"explain": true` on `POST /query` returns the whole tree).
//! * [`Exposition`] — a tiny Prometheus text-format (`0.0.4`) writer.

use crate::json::Json;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
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
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
        }
    }

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

/// The server-level stage taxonomy: every place a request's time can go.
///
/// The first block is router work around the engine; the last three are
/// the engine's own stages, forwarded from
/// [`shapesearch_core::EngineStage`] via the observer seam. Stage names
/// are the `stage` label values of
/// `shapesearch_stage_duration_micros` and the span names of `explain`
/// traces — one vocabulary across both.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Request body parse + query normalization + cache-key planning.
    ParsePlan,
    /// Singleflight cache lookup (hits, misses, and coalesced waits all
    /// record here — the outcome is on the trace span's detail).
    CacheLookup,
    /// One local shard's compute-pool task end to end.
    ShardCompute,
    /// One remote shard RPC end to end (also recorded per endpoint).
    RemoteRpc,
    /// Deterministic merge of per-shard top-k partials.
    Merge,
    /// Response envelope assembly.
    Serialize,
    /// Engine: shared GROUP over the trendline collection.
    Group,
    /// Engine: one query's SEGMENT + SCORE pass.
    SegmentScore,
    /// Engine: one query's §6.3 bound pass inside the pruning driver.
    PruneBound,
}

impl Stage {
    /// Every stage, in exposition order.
    pub const ALL: [Stage; 9] = [
        Stage::ParsePlan,
        Stage::CacheLookup,
        Stage::ShardCompute,
        Stage::RemoteRpc,
        Stage::Merge,
        Stage::Serialize,
        Stage::Group,
        Stage::SegmentScore,
        Stage::PruneBound,
    ];

    /// Stable lowercase identifier (metric label value and span name).
    pub fn name(self) -> &'static str {
        match self {
            Stage::ParsePlan => "parse_plan",
            Stage::CacheLookup => "cache_lookup",
            Stage::ShardCompute => "shard_compute",
            Stage::RemoteRpc => "remote_rpc",
            Stage::Merge => "merge",
            Stage::Serialize => "serialize",
            Stage::Group => "group",
            Stage::SegmentScore => "segment_score",
            Stage::PruneBound => "prune_bound",
        }
    }

    /// The server-level stage an engine-reported stage maps to.
    pub fn from_engine(stage: shapesearch_core::EngineStage) -> Stage {
        match stage {
            shapesearch_core::EngineStage::Group => Stage::Group,
            shapesearch_core::EngineStage::SegmentScore => Stage::SegmentScore,
            shapesearch_core::EngineStage::PruneBound => Stage::PruneBound,
        }
    }

    fn index(self) -> usize {
        Stage::ALL
            .iter()
            .position(|s| *s == self)
            .expect("Stage::ALL covers every variant")
    }
}

/// The process-wide metrics registry: everything `GET /metrics` exposes
/// that is not already a healthz counter.
#[derive(Debug, Default)]
pub struct Metrics {
    /// End-to-end `POST /query` latency (one sample per request, batch
    /// or single).
    pub requests: Histogram,
    /// End-to-end `POST /shard/query` service latency.
    pub shard_requests: Histogram,
    stages: [Histogram; Stage::ALL.len()],
    remote: Mutex<BTreeMap<String, Histogram>>,
}

impl Metrics {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one `stage` latency sample.
    pub fn stage(&self, stage: Stage, micros: u64) {
        self.stages[stage.index()].record(micros);
    }

    /// Snapshot of one stage's histogram.
    pub fn stage_snapshot(&self, stage: Stage) -> HistogramSnapshot {
        self.stages[stage.index()].snapshot()
    }

    /// The per-endpoint histograms, recovering from poison like
    /// [`crate::stats::Stats`] does: a histogram is a bag of monotone
    /// counters, so a panic elsewhere never makes `/metrics` panic too.
    fn remote(&self) -> MutexGuard<'_, BTreeMap<String, Histogram>> {
        self.remote.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Records one remote-RPC latency sample against its endpoint (in
    /// addition to the endpoint-agnostic [`Stage::RemoteRpc`] series,
    /// which the caller records separately).
    pub fn record_remote(&self, endpoint: &str, micros: u64) {
        let mut remote = self.remote();
        remote
            .entry(endpoint.to_owned())
            .or_default()
            .record(micros);
    }

    /// Per-endpoint RPC histogram snapshots, endpoint-sorted.
    pub fn remote_snapshots(&self) -> Vec<(String, HistogramSnapshot)> {
        let remote = self.remote();
        remote
            .iter()
            .map(|(endpoint, h)| (endpoint.clone(), h.snapshot()))
            .collect()
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
    /// An empty document.
    pub fn new() -> Self {
        Self::default()
    }

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

    /// A single-series counter.
    pub fn counter(&mut self, name: &str, help: &str, value: u64) {
        self.header(name, help, "counter");
        self.sample(name, &[], value);
    }

    /// A counter family with one series per label value.
    pub fn counter_family(&mut self, name: &str, help: &str, label: &str, series: &[(&str, u64)]) {
        self.header(name, help, "counter");
        for (value, count) in series {
            self.sample(name, &[(label, value)], *count);
        }
    }

    /// A single-series gauge.
    pub fn gauge(&mut self, name: &str, help: &str, value: u64) {
        self.header(name, help, "gauge");
        self.sample(name, &[], value);
    }

    /// A gauge family with one series per label value.
    pub fn gauge_family(&mut self, name: &str, help: &str, label: &str, series: &[(&str, u64)]) {
        self.header(name, help, "gauge");
        for (value, count) in series {
            self.sample(name, &[(label, value)], *count);
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
    use crate::json;

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
        let h = Histogram::new();
        h.record(u64::MAX);
        let snap = h.snapshot();
        assert_eq!(snap.buckets[INF], 1);
        assert_eq!(snap.count(), 1);
    }

    #[test]
    fn histogram_records_and_sums() {
        let h = Histogram::new();
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
        let a = Histogram::new();
        let b = Histogram::new();
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
            assert_eq!(Stage::ALL[stage.index()], stage);
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
        let m = Metrics::new();
        m.stage(Stage::Group, 5);
        m.stage(Stage::Group, 7);
        m.record_remote("127.0.0.1:7001", 40);
        assert_eq!(m.stage_snapshot(Stage::Group).count(), 2);
        assert_eq!(m.stage_snapshot(Stage::Group).sum, 12);
        assert_eq!(m.stage_snapshot(Stage::Merge).count(), 0);
        let remote = m.remote_snapshots();
        assert_eq!(remote.len(), 1);
        assert_eq!(remote[0].0, "127.0.0.1:7001");
        assert_eq!(remote[0].1.count(), 1);
    }

    #[test]
    fn exposition_renders_cumulative_buckets() {
        let h = Histogram::new();
        h.record(1);
        h.record(3);
        h.record((1 << 24) + 1);
        let mut expo = Exposition::new();
        expo.counter("x_total", "an x.", 3);
        expo.gauge("g", "a g.", 7);
        expo.counter_family("y_total", "a y.", "kind", &[("a", 1), ("b", 2)]);
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
        let mut expo = Exposition::new();
        expo.counter_family("e_total", "an e.", "endpoint", &[("a\"b\\c\nd", 1)]);
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
