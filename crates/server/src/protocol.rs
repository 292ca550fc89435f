//! The JSON wire protocol: typed request extraction and response
//! construction for the eight routes.
//!
//! ```text
//! POST /datasets  {"name", "id"?, "csv"|"jsonl"|"path"|"snapshot",
//!                  "z", "x", "y",       (not with "snapshot" — baked in)
//!                  "filters"?: [{"column","op","value"}], "agg"?,
//!                  "builtins"?: bool, "shards"?: n,
//!                  "shard_endpoints"?: ["host:port"
//!                                       |["host:port", …]   (replicas)
//!                                       |null, …]
//!                                    | "registry",
//!                  "shard_of"?: "index/total"}
//! GET  /datasets  → {"datasets":[{"id","name","z","x","y",
//!                  "trendlines","points","grouped_bytes","shards",
//!                  "placement","shard_of"?,"snapshot"?}]}
//! POST /query     {"dataset", "query"|"nl", "k"?, "explain"?, "partial"?,
//!                  and an optional override per `/query` option below}
//!              or [ {…}, {…}, … ]       (a batch of up to the server's
//!                                        max batch size, default
//!                                        MAX_BATCH_SIZE)
//!              → single: {"dataset","query","k","algo","shards","cached",
//!                         "coalesced","micros","shard_micros"?,
//!                         "results",…,
//!                         "degraded"?: {"missing_shards":[i,…],
//!                                       "errors":[{"shard","error"},…]},
//!                         "trace"?: {"trace_id","spans","pruning"}}
//!              → batch:  {"batch": n, "micros": total,
//!                         "responses": [per-query objects or
//!                                       {"error","status","code"?}]}
//! POST /registry/heartbeat  {"dataset", "shard_of": "index/total",
//!                            "endpoint": "host:port"}
//!                                    (shard server → router announce)
//!              → {"registered": true}
//! GET  /registry  → {"entries":[{"dataset","shard","shards",
//!                    "endpoint","age_secs","fresh"}],
//!                    "ttl_secs": REGISTRY_TTL_SECS}
//! POST /shard/query   {"dataset", "queries":[{"query","k"}, …],  (all required)
//!                      "options": {every `/shard/query` option below},
//!                      "trace_id"?: "hex"}
//!                                          (router → shard server RPC)
//!              → {"dataset","outcomes":[{"results":[…]} or
//!                 {"error","status","code"?}, …],
//!                 "pruning":{"bounded","pruned","scored","refined",
//!                            "joined","bound_micros"},
//!                 "micros", "spans"?: [span tree, traced RPCs only]}
//! GET  /healthz   → {"status","version","git_rev","uptime_secs",
//!                    "started_at","datasets","queries","workers",
//!                    "max_batch",
//!                    "cache":{"lookups","hits","misses","coalesced",
//!                             "entries","capacity"},
//!                    "shards":{"default","dataset_shards",
//!                              "compute_workers","tasks","micros_total",
//!                              "shard_queries"},
//!                    "pruning":{"bounded","pruned","scored","refined",
//!                               "joined","bound_micros"},
//!                    "connections":{"active","idle_keepalive",
//!                                   "accepted_total","timeouts",
//!                                   "event_loop_wakeups"},
//!                    "remote_shards":{"endpoints","requests","errors",
//!                                     "ejections","micros_total",
//!                                     "by_endpoint":[{"endpoint",
//!                                       "requests","errors",
//!                                       "micros_total",
//!                                       "connect_attempts",
//!                                       "consecutive_failures",
//!                                       "ejected","ejections"}]},
//!                    "registry":{"slots","stale_slots",
//!                                "by_slot":[{"dataset","shard","shards",
//!                                  "replicas","fresh_replicas",
//!                                  "freshest_age_secs",
//!                                  "stalest_age_secs"}]}}
//!                   (rendered from the scalar table in `crate::stats`)
//! GET  /metrics   → Prometheus text exposition (0.0.4) of the same
//!                   table plus request/stage/endpoint latency
//!                   histograms (see docs/ARCHITECTURE.md,
//!                   "Metrics naming")
//! ```
//!
//! `explain` requests a per-request trace: the response gains a `trace`
//! object with a request-scoped `trace_id`, a span tree
//! (`{"name", "detail"?, "micros", "spans"?}` via [`crate::obs::Span`])
//! covering every stage, and the computation's pruning counters. For
//! traced computations the `trace_id` rides each outgoing
//! `/shard/query` RPC and the shard server replies with its own span
//! tree (`spans`), which the router stitches under the corresponding
//! `remote_rpc` span — tracing is opt-in per query and never changes
//! results or cache keys, and untraced RPC replies omit `spans`
//! entirely.
//!
//! A shard server prunes on the §6.3 thresholds it proves itself and
//! nothing else, so every `results` array of a `/shard/query` reply is
//! the exact top-k partial of its partition and the router merges
//! partials without checking them. A body that still carries the
//! retired `threshold_hint` key is read like one with any other unknown
//! key.
//!
//! Oversized batches are refused with a *structured* 400 so clients can
//! split and retry programmatically:
//! `{"error": …, "code": "batch_too_large", "max_batch": …, "batch_len": …}`.
//! A remote shard whose **every** replica failed likewise surfaces
//! structurally: `{"error": "shard unavailable after N replica
//! attempt(s): host:port (why); …", "code": "shard_unavailable",
//! "status": 502}` — every attempted replica is named with its failure
//! so an operator can read the full failover path, not just the last
//! stop.
//!
//! `"partial": true` opts a query into **degraded** results: when every
//! replica of a shard is dead, the response is still a 200 carrying the
//! merged results of the reachable shards plus a `degraded` block naming
//! the missing shard indices and their errors. Degraded responses are
//! **never cached** (the next identical query retries the dead shard)
//! and never silently exact — the block is always present on a partial
//! answer. Without the flag, an unreachable shard is the same 502 it
//! always was. `partial`, like `explain`, is not part of the cache key.
//!
//! **Engine options are one table** (`wire_options`): one row per
//! [`EngineOptions`] field that crosses the wire, with its key, its typed
//! reader and writer, and where it travels. A key has one value shape
//! wherever it travels (`"pruning":"auto"`).
//!
//! | option | `/query` | `/shard/query` | cache key |
//! |---|---|---|---|
//! | `algo`, `bin_width`, `pushdown` | override | pinned | yes |
//! | `pruning` | override | pinned | no: it never changes results |
//! | the six [`shapesearch_core::ScoreParams`] | no | pinned | yes |
//!
//! [`QueryRequest::effective_options`], [`options_to_json`],
//! [`options_from_json`] and [`crate::cache::options_fingerprint`] are loops
//! over it, and it destructures `EngineOptions` and `ScoreParams` without
//! `..`: a new field does not compile until it has a row. A shard server
//! treats every pinned option as required, so a router and a shard server
//! that disagree about the option vocabulary fail loudly at the RPC
//! boundary instead of silently computing under different options.
//! `parallel` and `parallel_threshold` have no row: nothing reads them,
//! and a `"parallel"` key in a body is ignored like any other unknown key.
//!
//! **Every field goes through one reader** (`field`), with one message per
//! fault: an absent key is ``missing field `k` ``, a present one of the
//! wrong type ``field `k` must be <kind>``, and an optional key reads
//! `null` as absent. The same words refuse a request (a 400) and a shard
//! reply (that replica attempt fails over, or the query gets
//! `shard_unavailable`). A reply's error outcome must carry a `status` in
//! 400..=599 — the router relays it as the client's HTTP status — and no
//! number on the wire is infinite: [`crate::json::parse`] refuses `1e999`.
//!
//! **Every `results` array is written by one writer**, `write_results`,
//! straight to text: single and batch `/query` replies (cache hits
//! included) and every `/shard/query` outcome. [`results_to_json`] carries
//! that text into an envelope tree as [`Json::Raw`], which only this
//! module builds and [`crate::json::parse`] never yields. A property test
//! pins the writer to the tree-per-row renderer it replaced, kept in
//! `referee.rs` for tests only, byte for byte.

use crate::catalog::{DataSource, DatasetEntry, DatasetSpec, RegistryEntry, ShardEndpoints};
use crate::error::ServerError;
use crate::json::{self, obj, Json};
use shapesearch_core::{
    EngineOptions, PruningMode, PruningSnapshot, ScoreParams, SegmenterKind, ShapeQuery, TopKResult,
};
use shapesearch_datastore::{Aggregation, CompareOp, Predicate, Value, VisualSpec};
use std::fmt;

/// Default upper bound on the number of queries one `POST /query` batch
/// may carry (configurable per server via `ServerConfig::max_batch` /
/// `shapesearch serve --max-batch`). Batches above the server's limit are
/// rejected with a structured 400: `{"error", "code": "batch_too_large",
/// "max_batch", "batch_len"}`. The bound keeps one request from pinning a
/// worker thread on an unbounded amount of engine work.
pub const MAX_BATCH_SIZE: usize = 64;

/// A malformed field, worded by [`field`]. `?` makes it a 400 on a
/// request and the reason a shard reply is refused on a reply.
struct Fault(String);

impl From<Fault> for ServerError {
    fn from(fault: Fault) -> Self {
        ServerError::bad_request(fault.0)
    }
}

impl From<Fault> for String {
    fn from(fault: Fault) -> Self {
        fault.0
    }
}

/// What a field must be: `NAME` ends ``field `k` must be …``.
trait Kind<'a>: Sized {
    const NAME: &'static str;

    fn read(value: &'a Json) -> Option<Self>;

    /// What an absent key reads as; `None` makes the key required.
    fn absent() -> Option<Self> {
        None
    }
}

/// An optional field: absent and `null` both read as `None`. A mistyped
/// one is refused, never replaced by its default, or a client would
/// believe an option took effect that did not.
impl<'a, T: Kind<'a>> Kind<'a> for Option<T> {
    const NAME: &'static str = T::NAME;
    fn read(value: &'a Json) -> Option<Self> {
        match value {
            Json::Null => Some(None),
            value => T::read(value).map(Some),
        }
    }
    fn absent() -> Option<Self> {
        Some(None)
    }
}

/// A shard reply's per-query error status, which a router relays as its
/// client's HTTP status.
struct ErrorStatus(u16);

/// Declares the kinds, one row each: the type, its `NAME`, its reader.
macro_rules! kinds {
    ($($kind:ty => $name:literal, $read:expr;)+) => {$(
        impl<'a> Kind<'a> for $kind {
            const NAME: &'static str = $name;
            fn read(value: &'a Json) -> Option<Self> {
                $read(value)
            }
        }
    )+};
}

kinds! {
    &'a str => "a string", Json::as_str;
    bool => "a boolean", Json::as_bool;
    usize => "a non-negative integer", Json::as_usize;
    f64 => "a number", Json::as_f64;
    &'a [Json] => "an array", Json::as_array;
    // An object, kept whole for the reads of its own fields.
    &'a Json => "an object", |v: &'a Json| matches!(v, Json::Obj(_)).then_some(v);
    ErrorStatus => "an HTTP error status (400 to 599)", |v: &Json| {
        let status = u16::try_from(v.as_usize()?).ok()?;
        (400..=599).contains(&status).then_some(ErrorStatus(status))
    };
    // A result's `ranges`.
    Vec<(usize, usize)> => "an array of [start, end] index pairs", |v: &Json| {
        let pairs = v.as_array()?.iter().map(|pair| match pair.as_array()? {
            [start, end] => Some((start.as_usize()?, end.as_usize()?)),
            _ => None,
        });
        pairs.collect()
    };
    // A filter's literal (an optional field: `null` is `Value::Null`).
    Value => "a number, a string or a boolean", |v: &Json| match v {
        Json::Num(n) if n.fract() == 0.0 && n.abs() < 9e15 => Some(Value::Int(*n as i64)),
        Json::Num(n) => Some(Value::Float(*n)),
        Json::Str(s) => Some(Value::infer(s)),
        Json::Bool(b) => Some(Value::Int(i64::from(*b))),
        _ => None,
    };
    // One entry per shard: this process, one endpoint, or its replicas.
    ShardEndpoints => "\"registry\" or a non-empty array of null, \"local\", \
        \"host:port\" or non-empty [\"host:port\", …] entries", |v: &Json| {
        let replica = |r: &Json| {
            let r = r.as_str().filter(|r| !r.is_empty() && !r.eq_ignore_ascii_case("local"));
            r.map(str::to_owned)
        };
        let slot = |slot: &Json| match slot {
            Json::Null => Some(None),
            Json::Str(s) if s.eq_ignore_ascii_case("local") => Some(None),
            Json::Arr(replicas) if !replicas.is_empty() => {
                replicas.iter().map(replica).collect::<Option<_>>().map(Some)
            }
            single => replica(single).map(|r| Some(vec![r])),
        };
        match v {
            Json::Str(s) if s.eq_ignore_ascii_case("registry") => Some(ShardEndpoints::FromRegistry),
            Json::Arr(slots) if !slots.is_empty() => {
                slots.iter().map(slot).collect::<Option<_>>().map(ShardEndpoints::Explicit)
            }
            _ => None,
        }
    };
}

/// The one field reader: `key` of `body`, read as a `T`. Absent, it is
/// ``missing field `k` `` unless `T` is optional; present but not a `T`,
/// ``field `k` must be <T::NAME>``. Inlined on purpose: as a call it cost
/// a shard reply's decode about a third more (40-odd fields a reply).
#[inline(always)]
fn field<'a, T: Kind<'a>>(body: &'a Json, key: &str) -> Result<T, Fault> {
    match body.get(key) {
        None => T::absent().ok_or_else(|| Fault(format!("missing field `{key}`"))),
        Some(value) => {
            T::read(value).ok_or_else(|| Fault(format!("field `{key}` must be {}", T::NAME)))
        }
    }
}

/// Parses a `POST /datasets` body. Takes it by value: an inline source is
/// the whole request over again, and moving it into the spec keeps a
/// registration from holding one more copy of it than it has to.
pub fn dataset_spec_from_json(mut body: Json) -> Result<DatasetSpec, ServerError> {
    let name = field::<&str>(&body, "name")?.to_owned();
    let id = field::<Option<&str>>(&body, "id")?.map(str::to_owned);

    // Exactly one source key, read like any other field, then moved out.
    let mut given = Vec::new();
    for (key, source) in [
        ("csv", DataSource::InlineCsv as fn(String) -> DataSource),
        ("jsonl", DataSource::InlineJsonl),
        ("path", DataSource::Path),
        ("snapshot", DataSource::Snapshot),
    ] {
        if field::<Option<&str>>(&body, key)?.is_some() {
            given.push((key, source));
        }
    }
    let [(key, source)] = given[..] else {
        return Err(ServerError::bad_request(
            "exactly one of `csv`, `jsonl`, `path`, or `snapshot` is required",
        ));
    };
    let source = source(body.take_str(key).unwrap_or_default());

    let body = &body;

    // A snapshot carries post-GROUP state: EXTRACT never runs against
    // it, so the visual mapping — and `filters`/`agg`, which act during
    // extraction — was baked in when the snapshot was built. Rejecting
    // the keys (rather than ignoring them) keeps a client from
    // believing a filter it sent was applied.
    let snapshot_source = matches!(source, DataSource::Snapshot(_));
    if snapshot_source {
        for key in ["z", "x", "y", "filters", "agg"] {
            if body.get(key).is_some() {
                return Err(ServerError::bad_request(format!(
                    "`{key}` does not apply to a `snapshot` registration: the \
                     snapshot already contains extracted, grouped trendlines"
                )));
            }
        }
    }
    let mut visual = if snapshot_source {
        VisualSpec::new("z", "x", "y")
    } else {
        VisualSpec::new(
            field::<&str>(body, "z")?,
            field::<&str>(body, "x")?,
            field::<&str>(body, "y")?,
        )
    };
    for f in field::<Option<&[Json]>>(body, "filters")?.unwrap_or_default() {
        visual = visual.with_filter(predicate_from_json(f)?);
    }
    if let Some(agg) = field::<Option<&str>>(body, "agg")? {
        let agg = Aggregation::parse(agg)
            .ok_or_else(|| ServerError::bad_request(format!("unknown aggregation `{agg}`")))?;
        visual = visual.with_aggregation(agg);
    }

    let shard_of = field::<Option<&str>>(body, "shard_of")?
        .map(parse_shard_of)
        .transpose()
        .map_err(ServerError::bad_request)?;

    Ok(DatasetSpec {
        id,
        name,
        source,
        visual,
        builtins: field::<Option<bool>>(body, "builtins")?.unwrap_or(true),
        shards: field(body, "shards")?,
        shard_endpoints: field(body, "shard_endpoints")?,
        shard_of,
    })
}

/// Parses a `"index/total"` shard-of designator (shared by the wire
/// protocol and the CLI's `--shard-of` flag).
///
/// # Errors
/// Malformed text, `total` of zero, or `index >= total`.
pub fn parse_shard_of(text: &str) -> Result<(usize, usize), String> {
    let parsed = text
        .split_once('/')
        .and_then(|(i, n)| Some((i.trim().parse().ok()?, n.trim().parse().ok()?)));
    match parsed {
        Some((_, 0)) => Err(format!("shard_of `{text}`: total must be at least 1")),
        Some((index, total)) if index >= total => Err(format!(
            "shard_of `{text}`: index {index} out of range for {total} shard(s)"
        )),
        Some(pair) => Ok(pair),
        None => Err(format!(
            "shard_of `{text}` is not of the form \"index/total\""
        )),
    }
}

fn predicate_from_json(f: &Json) -> Result<Predicate, ServerError> {
    let column = field::<&str>(f, "column")?;
    let op = field::<&str>(f, "op")?;
    let op = CompareOp::parse(op)
        .ok_or_else(|| ServerError::bad_request(format!("unknown filter op `{op}`")))?;
    let value = field::<Option<Value>>(f, "value")?.unwrap_or(Value::Null);
    Ok(Predicate::new(column, op, value))
}

/// Where an engine option travels.
#[derive(Clone, Copy, PartialEq)]
pub(crate) enum Route {
    /// An optional `POST /query` override.
    Query,
    /// Pinned, and required, on every `/shard/query` RPC.
    Shard,
    /// Part of the cache key ([`crate::cache::options_fingerprint`]).
    Key,
}

/// An engine option's place in [`EngineOptions`]; the variant is its
/// wire kind.
pub(crate) enum Slot<'a> {
    Algo(&'a mut SegmenterKind),
    Width(&'a mut usize),
    Flag(&'a mut bool),
    Pruning(&'a mut PruningMode),
    Number(&'a mut f64),
}

impl Slot<'_> {
    /// Reads `key` of `body` into the option. Unless the key is
    /// `required`, absent or `null` leaves the option as it is.
    fn read(self, body: &Json, key: &str, required: bool) -> Result<(), Fault> {
        fn given<'a, T: Kind<'a>>(
            body: &'a Json,
            key: &str,
            required: bool,
        ) -> Result<Option<T>, Fault> {
            if required {
                field(body, key).map(Some)
            } else {
                field(body, key)
            }
        }
        fn set<T>(option: &mut T, given: Option<T>) {
            if let Some(given) = given {
                *option = given;
            }
        }
        match self {
            Slot::Algo(algo) => {
                if let Some(name) = given::<&str>(body, key, required)? {
                    *algo = SegmenterKind::parse(name)
                        .ok_or_else(|| Fault(format!("unknown algo `{name}`")))?;
                }
            }
            Slot::Pruning(mode) => {
                if let Some(name) = given::<&str>(body, key, required)? {
                    *mode = PruningMode::parse(name).ok_or_else(|| {
                        Fault(format!(
                            "unknown pruning mode `{name}` (expected auto, off, or force)"
                        ))
                    })?;
                }
            }
            Slot::Width(width) => set(
                width,
                given::<usize>(body, key, required)?.map(|n| n.max(1)),
            ),
            Slot::Flag(flag) => set(flag, given(body, key, required)?),
            Slot::Number(number) => set(number, given(body, key, required)?),
        }
        Ok(())
    }

    fn write(self) -> Json {
        match self {
            Slot::Algo(algo) => algo.name().into(),
            Slot::Width(width) => (*width).into(),
            Slot::Flag(flag) => (*flag).into(),
            Slot::Pruning(mode) => mode.name().into(),
            Slot::Number(number) => (*number).into(),
        }
    }
}

/// The option's cache-key form: as written on the wire, but a number by
/// its bits — exact for every `f64`, and no float formatting on every
/// planned query.
impl fmt::Display for Slot<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Slot::Algo(algo) => f.write_str(algo.name()),
            Slot::Width(width) => write!(f, "{width}"),
            Slot::Flag(flag) => write!(f, "{flag}"),
            Slot::Pruning(mode) => f.write_str(mode.name()),
            Slot::Number(number) => write!(f, "{:x}", number.to_bits()),
        }
    }
}

/// The option table: one row per engine option that crosses the wire —
/// its key, where it travels, and its slot — in wire order. It
/// destructures `EngineOptions` and `ScoreParams` without `..`, so a new
/// field does not compile until it has a row.
fn wire_options(options: &mut EngineOptions) -> [(&'static str, &'static [Route], Slot<'_>); 10] {
    use Route::{Key, Query, Shard};
    const EVERYWHERE: &[Route] = &[Query, Shard, Key];
    const PARAM: &[Route] = &[Shard, Key];
    let EngineOptions {
        segmenter,
        bin_width,
        pushdown,
        // Ignored by the engine; kept for the frozen benchmark package.
        parallel: _,
        parallel_threshold: _,
        params,
        pruning_mode,
    } = options;
    let ScoreParams {
        sharp_angle_deg,
        gradual_angle_deg,
        quantifier_threshold,
        sketch_distance_scale,
        y_tolerance,
        min_width_frac,
    } = params;
    #[rustfmt::skip]
    let table = [
        ("algo",                  EVERYWHERE,      Slot::Algo(segmenter)),
        ("bin_width",             EVERYWHERE,      Slot::Width(bin_width)),
        ("pushdown",              EVERYWHERE,      Slot::Flag(pushdown)),
        // Pruning only skips provable losers: every mode shares an entry.
        ("pruning",               &[Query, Shard], Slot::Pruning(pruning_mode)),
        ("sharp_angle_deg",       PARAM,           Slot::Number(sharp_angle_deg)),
        ("gradual_angle_deg",     PARAM,           Slot::Number(gradual_angle_deg)),
        ("quantifier_threshold",  PARAM,           Slot::Number(quantifier_threshold)),
        ("sketch_distance_scale", PARAM,           Slot::Number(sketch_distance_scale)),
        ("y_tolerance",           PARAM,           Slot::Number(y_tolerance)),
        ("min_width_frac",        PARAM,           Slot::Number(min_width_frac)),
    ];
    table
}

/// The rows of the option table that travel on `route`, in table order.
/// A slot borrows its option mutably, so a writer passes a copy.
pub(crate) fn options_on(
    options: &mut EngineOptions,
    route: Route,
) -> impl Iterator<Item = (&'static str, Slot<'_>)> {
    let rows = wire_options(options).into_iter();
    rows.filter(move |(_, routes, _)| routes.contains(&route))
        .map(|(key, _, slot)| (key, slot))
}

/// Reads every option that travels on `route` from `body` into `options`.
fn read_options(body: &Json, options: &mut EngineOptions, route: Route) -> Result<(), Fault> {
    for (key, slot) in options_on(options, route) {
        slot.read(body, key, route == Route::Shard)?;
    }
    Ok(())
}

/// The parsed body of one `POST /query` query object (a batch is an
/// array of these).
#[derive(Debug, Clone)]
pub struct QueryRequest {
    /// Id of the dataset to query.
    pub dataset: String,
    /// Regex-syntax query text, if given.
    pub query: Option<String>,
    /// Natural-language query text, if given (used when `query` absent).
    pub nl: Option<String>,
    /// Number of results requested (default 5).
    pub k: usize,
    /// The engine options the body overrides, as sent: an object of the
    /// `/query` options it gave, checked when it was read and applied by
    /// [`Self::effective_options`].
    pub overrides: Json,
    /// When `true`, the response envelope carries the request's trace:
    /// the stitched span tree (including remote shards' own timings)
    /// and pruning stats. Purely additive — it never affects results or
    /// caching, so `explain` is not part of the cache key.
    pub explain: bool,
    /// When `true`, the query opts into **degraded** results: a shard
    /// whose every replica is dead becomes a 200 with a `degraded`
    /// block instead of a 502. Degraded answers are never cached, so
    /// `partial` — a failure *policy*, not a result-affecting option —
    /// is not part of the cache key either.
    pub partial: bool,
}

/// Parses one query object of a `POST /query` body.
pub fn query_request_from_json(body: &Json) -> Result<QueryRequest, ServerError> {
    let dataset = field::<&str>(body, "dataset")?.to_owned();
    let query = field::<Option<&str>>(body, "query")?.map(str::to_owned);
    let nl = field::<Option<&str>>(body, "nl")?.map(str::to_owned);
    if query.is_none() && nl.is_none() {
        return Err(ServerError::bad_request(
            "one of `query` or `nl` is required",
        ));
    }
    let mut given = EngineOptions::default();
    let mut overrides = Vec::new();
    for (key, slot) in options_on(&mut given, Route::Query) {
        slot.read(body, key, false)?;
        if let Some(value) = body.get(key).filter(|value| **value != Json::Null) {
            overrides.push((key.to_owned(), value.clone()));
        }
    }
    Ok(QueryRequest {
        dataset,
        query,
        nl,
        k: field::<Option<usize>>(body, "k")?.unwrap_or(5),
        overrides: Json::Obj(overrides),
        explain: field::<Option<bool>>(body, "explain")?.unwrap_or(false),
        partial: field::<Option<bool>>(body, "partial")?.unwrap_or(false),
    })
}

/// Parses a `POST /registry/heartbeat` body into
/// `(dataset, (shard index, total), endpoint)`.
///
/// # Errors
/// Missing fields or a malformed `shard_of` designator.
pub fn heartbeat_from_json(body: &Json) -> Result<(String, (usize, usize), String), ServerError> {
    let dataset = field::<&str>(body, "dataset")?.to_owned();
    let shard_of = parse_shard_of(field(body, "shard_of")?).map_err(ServerError::bad_request)?;
    let endpoint = field::<&str>(body, "endpoint")?.to_owned();
    Ok((dataset, shard_of, endpoint))
}

/// Serializes one registry row for `GET /registry`.
pub fn registry_entry_to_json(entry: &RegistryEntry) -> Json {
    obj([
        ("dataset", entry.dataset.as_str().into()),
        ("shard", entry.shard.into()),
        ("shards", entry.shards.into()),
        ("endpoint", entry.endpoint.as_str().into()),
        ("age_secs", entry.age_secs.into()),
        ("fresh", entry.fresh.into()),
    ])
}

impl QueryRequest {
    /// The effective engine options: the dataset defaults overridden by
    /// whatever the request pins down.
    pub fn effective_options(&self, defaults: &EngineOptions) -> EngineOptions {
        let mut options = defaults.clone();
        // `query_request_from_json` read the same overrides cleanly.
        let _ = read_options(&self.overrides, &mut options, Route::Query);
        options
    }
}

/// Parses the request's query text into an AST (regex syntax first,
/// falling back to the NL pipeline when only `nl` was given). Returns
/// the AST plus any NL translation notes.
pub fn parse_query(request: &QueryRequest) -> Result<(ShapeQuery, Vec<String>), ServerError> {
    if let Some(text) = &request.query {
        let query = shapesearch_parser::parse_regex(text)
            .map_err(|e| ServerError::bad_request(format!("query parse error: {e}")))?;
        return Ok((query, Vec::new()));
    }
    let text = request.nl.as_deref().expect("validated at extraction");
    let parsed = shapesearch_parser::parse_natural_language(text)
        .map_err(|e| ServerError::bad_request(format!("natural-language parse error: {e}")))?;
    Ok((parsed.query, parsed.notes))
}

/// Serializes a catalog entry for listings and registration replies.
pub fn dataset_to_json(entry: &DatasetEntry) -> Json {
    let mut fields = vec![
        ("id", entry.id.as_str().into()),
        ("name", entry.name.as_str().into()),
        ("z", entry.visual.z.as_str().into()),
        ("x", entry.visual.x.as_str().into()),
        ("y", entry.visual.y.as_str().into()),
        ("trendlines", entry.trendline_count.into()),
        ("points", entry.point_count.into()),
        ("grouped_bytes", entry.grouped_bytes().into()),
        ("shards", entry.shard_count.into()),
        (
            "placement",
            Json::Arr(
                entry
                    .placement
                    .iter()
                    .map(|p| p.fingerprint().into())
                    .collect(),
            ),
        ),
    ];
    if let Some((index, total)) = entry.shard_of {
        fields.push(("shard_of", format!("{index}/{total}").into()));
    }
    if entry.snapshot {
        fields.push(("snapshot", true.into()));
    }
    obj(fields)
}

/// Writes a top-k answer as the wire `results` array straight into
/// `out`: per row `key`, `score`, `viz_index` and `ranges`, through the
/// JSON module's one number routine and one escaper, and no tree.
pub(crate) fn write_results(results: &[TopKResult], out: &mut String) {
    out.push('[');
    for (i, r) in results.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"key\":");
        json::write_escaped(&r.key, out);
        out.push_str(",\"score\":");
        json::write_num(r.score, out);
        out.push_str(",\"viz_index\":");
        json::write_num(r.viz_index as f64, out);
        out.push_str(",\"ranges\":[");
        for (j, &(start, end)) in r.ranges.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push('[');
            json::write_num(start as f64, out);
            out.push(',');
            json::write_num(end as f64, out);
            out.push(']');
        }
        out.push_str("]}");
    }
    out.push(']');
}

/// A top-k answer as the wire `results` array: `write_results`' text,
/// carried verbatim inside whichever envelope tree it goes into.
pub fn results_to_json(results: &[TopKResult]) -> Json {
    // About one row's worth of bytes per result: one allocation, usually.
    let mut text = String::with_capacity(2 + 96 * results.len());
    write_results(results, &mut text);
    Json::Raw(text)
}

/// Serializes an error as the wire `{"error": …}` object, with its
/// machine-readable `code` when it has one.
pub fn error_to_json(err: &ServerError) -> Json {
    let mut fields = vec![("error", Json::Str(err.message.clone()))];
    if let Some(code) = err.code {
        fields.push(("code", code.into()));
    }
    obj(fields)
}

/// Serializes an error as a batch-item / shard-outcome object:
/// `{"error", "status", "code"?}`.
pub fn error_item_to_json(err: &ServerError) -> Json {
    let mut fields = vec![
        ("error", Json::Str(err.message.clone())),
        ("status", u64::from(err.status).into()),
    ];
    if let Some(code) = err.code {
        fields.push(("code", code.into()));
    }
    obj(fields)
}

/// Deserializes a shard-outcome error object. The code is preserved when
/// it is one this build knows (`shard_unavailable`), so a router can relay
/// a downstream shard server's structured error intact; the status must be
/// an error status, because the router relays it too.
fn error_from_json(item: &Json) -> Result<ServerError, Fault> {
    let code = match field::<Option<&str>>(item, "code")? {
        Some("shard_unavailable") => Some("shard_unavailable"),
        _ => None,
    };
    Ok(ServerError {
        status: field::<ErrorStatus>(item, "status")?.0,
        message: field::<&str>(item, "error")?.to_owned(),
        code,
    })
}

/// Serializes every `/shard/query` option of the table, in table order.
pub fn options_to_json(o: &EngineOptions) -> Json {
    obj(options_on(&mut o.clone(), Route::Shard).map(|(key, slot)| (key, slot.write())))
}

/// Deserializes a `/shard/query` options object. Every field is
/// **required**: option-vocabulary skew between a router and a shard
/// server must fail the RPC, not silently fall back to a default that
/// would break distributed-vs-local byte identity.
///
/// # Errors
/// Missing or mistyped fields, unknown algorithm or pruning-mode names.
pub fn options_from_json(body: &Json) -> Result<EngineOptions, ServerError> {
    let mut options = EngineOptions::default();
    read_options(body, &mut options, Route::Shard)?;
    Ok(options)
}

/// The parsed body of a `POST /shard/query` RPC.
pub struct ShardQueryRequest {
    /// Dataset id on the shard server (the router registers its shard
    /// servers under the same id it serves).
    pub dataset: String,
    /// The query group: canonical query text parsed back to ASTs, with
    /// each query's `k`.
    pub queries: Vec<(ShapeQuery, usize)>,
    /// The fully pinned, result-affecting engine options.
    pub options: EngineOptions,
    /// The router's trace ID, when the fan-out is being traced: the
    /// shard server reports its own span tree back under this ID so the
    /// router can stitch one cross-process trace.
    pub trace_id: Option<String>,
}

/// Builds the `POST /shard/query` request body the router sends for one
/// query group. A `trace` ID (present only when the originating request
/// is traced) asks the shard server to time its stages and return its
/// span tree in the reply. `_hints` is ignored: the frozen benchmark
/// package still passes it (always all-`None`).
pub fn shard_request_to_json(
    dataset: &str,
    queries: &[(ShapeQuery, usize)],
    _hints: &[Option<f64>],
    options: &EngineOptions,
    trace: Option<&str>,
) -> Json {
    let mut fields = vec![
        ("dataset", Json::from(dataset)),
        (
            "queries",
            Json::Arr(
                queries
                    .iter()
                    .map(|(q, k)| obj([("query", q.to_string().into()), ("k", (*k).into())]))
                    .collect(),
            ),
        ),
        ("options", options_to_json(options)),
    ];
    if let Some(trace) = trace {
        fields.push(("trace_id", trace.into()));
    }
    obj(fields)
}

/// Parses a `POST /shard/query` body. Every query entry must carry its
/// `k` explicitly — the same fail-loudly rule the options object follows.
///
/// # Errors
/// Missing fields, unparseable query text, bad options.
pub fn shard_request_from_json(body: &Json) -> Result<ShardQueryRequest, ServerError> {
    let dataset = field::<&str>(body, "dataset")?.to_owned();
    let items = field::<&[Json]>(body, "queries")?;
    if items.is_empty() {
        return Err(ServerError::bad_request(
            "`queries` must contain at least one entry",
        ));
    }
    let mut queries = Vec::with_capacity(items.len());
    for item in items {
        let query = shapesearch_parser::parse_regex(field(item, "query")?)
            .map_err(|e| ServerError::bad_request(format!("query parse error: {e}")))?;
        queries.push((query, field(item, "k")?));
    }
    let options = options_from_json(field(body, "options")?)?;
    let trace_id = field::<Option<&str>>(body, "trace_id")?.map(str::to_owned);
    Ok(ShardQueryRequest {
        dataset,
        queries,
        options,
        trace_id,
    })
}

/// Serializes the pruning counters block of a shard reply or an
/// `explain` trace (`/healthz` renders its own from the stats table).
pub fn pruning_to_json(snapshot: PruningSnapshot) -> Json {
    obj([
        ("bounded", snapshot.bounded.into()),
        ("pruned", snapshot.pruned.into()),
        ("scored", snapshot.scored.into()),
        ("refined", snapshot.refined.into()),
        ("joined", snapshot.joined.into()),
        ("bound_micros", snapshot.bound_micros.into()),
    ])
}

/// Serializes a shard server's per-query outcomes as the
/// `POST /shard/query` response body. `pruning` is the RPC's engine-side
/// counter snapshot. `spans` (present only when the request carried a
/// `trace_id`) is the shard server's own span tree, which the router
/// stitches under its RPC span. `_bounds` is ignored: the frozen
/// benchmark package still passes it (always all-`None`).
pub fn shard_outcomes_to_json(
    dataset: &str,
    outcomes: &[Result<Vec<TopKResult>, ServerError>],
    _bounds: &[Option<f64>],
    pruning: PruningSnapshot,
    micros: u64,
    spans: Option<&[crate::obs::Span]>,
) -> Json {
    let mut fields = vec![
        ("dataset", Json::from(dataset)),
        (
            "outcomes",
            Json::Arr(
                outcomes
                    .iter()
                    .map(|outcome| match outcome {
                        Ok(results) => obj([("results", results_to_json(results))]),
                        Err(e) => error_item_to_json(e),
                    })
                    .collect(),
            ),
        ),
        ("pruning", pruning_to_json(pruning)),
        ("micros", micros.into()),
    ];
    if let Some(spans) = spans {
        fields.push(("spans", crate::obs::spans_to_json(spans)));
    }
    obj(fields)
}

/// A shard server's parsed `POST /shard/query` reply: per-query exact
/// partial outcomes and the server's span tree.
pub struct ShardPartials {
    /// Per-query partial top-k results (or structured per-query errors).
    pub outcomes: Vec<Result<Vec<TopKResult>, ServerError>>,
    /// The shard server's own span tree (empty unless the router sent a
    /// `trace_id` and the reply carried well-formed spans).
    pub spans: Vec<crate::obs::Span>,
}

/// Parses a shard server's `POST /shard/query` response back into
/// per-query outcomes. `expected` is the number of queries the router
/// sent; a reply with any other outcome count is malformed, and so is an
/// error outcome whose `status` is not an error status.
///
/// # Errors
/// A human-readable description of what was malformed (the caller wraps
/// it into a `shard_unavailable` naming the endpoint).
pub fn shard_outcomes_from_json(body: &Json, expected: usize) -> Result<ShardPartials, String> {
    let items = field::<&[Json]>(body, "outcomes")?;
    if items.len() != expected {
        return Err(format!(
            "reply carried {} outcomes for {expected} queries",
            items.len()
        ));
    }
    let mut outcomes = Vec::with_capacity(items.len());
    for item in items {
        outcomes.push(match field::<Option<&[Json]>>(item, "results")? {
            Some(results) => Ok(results_from_json(results)?),
            None => Err(error_from_json(item)?),
        });
    }
    let spans = body
        .get("spans")
        .and_then(crate::obs::spans_from_json)
        .unwrap_or_default();
    Ok(ShardPartials { outcomes, spans })
}

/// Deserializes the items of a wire `results` array back into
/// [`TopKResult`]s (the inverse of [`results_to_json`]; the merge step
/// needs typed values).
///
/// # Errors
/// A description of the malformed element.
pub fn results_from_json(results: &[Json]) -> Result<Vec<TopKResult>, String> {
    results
        .iter()
        .map(|r| {
            Ok(TopKResult {
                key: field::<&str>(r, "key")?.to_owned(),
                score: field(r, "score")?,
                viz_index: field(r, "viz_index")?,
                ranges: field(r, "ranges")?,
            })
        })
        .collect()
}

#[cfg(test)]
mod referee;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dataset_spec_parses_inline_csv() {
        let body = json::parse(
            r#"{"name":"sales","id":"s1","csv":"z,x,y\na,1,2\n","z":"z","x":"x","y":"y",
                "filters":[{"column":"y","op":">","value":1}],"agg":"sum"}"#,
        )
        .unwrap();
        let spec = dataset_spec_from_json(body).unwrap();
        assert_eq!(spec.id.as_deref(), Some("s1"));
        assert_eq!(spec.visual.filters.len(), 1);
        assert_eq!(spec.visual.aggregation, Aggregation::Sum);
        assert!(matches!(spec.source, DataSource::InlineCsv(_)));
    }

    #[test]
    fn dataset_spec_rejects_ambiguous_source() {
        let body =
            json::parse(r#"{"name":"x","csv":"a","path":"b","z":"z","x":"x","y":"y"}"#).unwrap();
        assert!(dataset_spec_from_json(body).is_err());
    }

    /// A present-but-mistyped optional key is a 400 that names it, never
    /// the default; `null` and absence both mean "not given".
    #[test]
    fn dataset_spec_rejects_mistyped_optional_keys() {
        let with = |extra: &str| {
            let text =
                format!(r#"{{"name":"x","csv":"z,x,y\na,1,2\n","z":"z","x":"x","y":"y"{extra}}}"#);
            dataset_spec_from_json(json::parse(&text).unwrap())
        };
        let spec = with(r#","shards":null,"builtins":null,"id":null"#).unwrap();
        assert_eq!((spec.shards, spec.builtins, spec.id), (None, true, None));
        let spec = with(r#","shards":4,"builtins":false"#).unwrap();
        assert_eq!((spec.shards, spec.builtins), (Some(4), false));
        for (extra, message) in [
            (
                r#","shards":"4""#,
                "field `shards` must be a non-negative integer",
            ),
            (
                r#","shards":-1"#,
                "field `shards` must be a non-negative integer",
            ),
            (
                r#","shards":2.5"#,
                "field `shards` must be a non-negative integer",
            ),
            (r#","builtins":"no""#, "field `builtins` must be a boolean"),
            (r#","id":7"#, "field `id` must be a string"),
            (r#","agg":1"#, "field `agg` must be a string"),
            (r#","filters":{}"#, "field `filters` must be an array"),
            (r#","path":3"#, "field `path` must be a string"),
        ] {
            let err = with(extra).unwrap_err();
            assert_eq!(err.to_string(), format!("400 {message}"), "{extra}");
        }
    }

    #[test]
    fn query_request_parses_and_overrides_options() {
        let body = json::parse(
            r#"{"dataset":"s1","query":"[p=up]","k":3,"algo":"dp","bin_width":2,"pushdown":false}"#,
        )
        .unwrap();
        let req = query_request_from_json(&body).unwrap();
        assert_eq!(req.k, 3);
        let options = req.effective_options(&EngineOptions::default());
        assert_eq!(options.segmenter, SegmenterKind::Dp);
        assert_eq!(options.bin_width, 2);
        assert!(!options.pushdown);
    }

    #[test]
    fn query_request_requires_some_query() {
        let body = json::parse(r#"{"dataset":"s1","k":3}"#).unwrap();
        assert!(query_request_from_json(&body).is_err());
        let body = json::parse(r#"{"dataset":"s1","algo":"warp"}"#).unwrap();
        assert!(query_request_from_json(&body).is_err());
    }

    #[test]
    fn dataset_spec_parses_shard_endpoints_and_shard_of() {
        let body = json::parse(
            r#"{"name":"s","csv":"z,x,y\na,1,2\n","z":"z","x":"x","y":"y",
                "shard_endpoints":["127.0.0.1:9001",null,"local","127.0.0.1:9002"]}"#,
        )
        .unwrap();
        let spec = dataset_spec_from_json(body).unwrap();
        assert_eq!(
            spec.shard_endpoints,
            Some(ShardEndpoints::Explicit(vec![
                Some(vec!["127.0.0.1:9001".into()]),
                None,
                None,
                Some(vec!["127.0.0.1:9002".into()])
            ])),
            "bare endpoint strings stay the singleton-replica shorthand"
        );

        // A replica array per shard is the N-way form; the "registry"
        // sentinel defers placement to heartbeats.
        let body = json::parse(
            r#"{"name":"s","csv":"z,x,y\na,1,2\n","z":"z","x":"x","y":"y",
                "shard_endpoints":[["h1:1","h2:2"],null]}"#,
        )
        .unwrap();
        assert_eq!(
            dataset_spec_from_json(body).unwrap().shard_endpoints,
            Some(ShardEndpoints::Explicit(vec![
                Some(vec!["h1:1".into(), "h2:2".into()]),
                None
            ]))
        );
        let body = json::parse(
            r#"{"name":"s","csv":"z,x,y\na,1,2\n","z":"z","x":"x","y":"y",
                "shard_endpoints":"registry"}"#,
        )
        .unwrap();
        assert_eq!(
            dataset_spec_from_json(body).unwrap().shard_endpoints,
            Some(ShardEndpoints::FromRegistry)
        );

        let body = json::parse(
            r#"{"name":"s","csv":"z,x,y\na,1,2\n","z":"z","x":"x","y":"y","shard_of":"1/4"}"#,
        )
        .unwrap();
        assert_eq!(dataset_spec_from_json(body).unwrap().shard_of, Some((1, 4)));

        for bad in [
            r#""shard_endpoints":[]"#,
            r#""shard_endpoints":[7]"#,
            r#""shard_endpoints":"x:1""#,
            r#""shard_endpoints":[[]]"#,
            r#""shard_endpoints":[["h:1",null]]"#,
            r#""shard_endpoints":[["h:1","local"],null]"#,
            r#""shard_of":"4/4""#,
            r#""shard_of":"1-4""#,
            r#""shard_of":"1/0""#,
            r#""shard_of":7"#,
        ] {
            let body = json::parse(&format!(
                r#"{{"name":"s","csv":"a","z":"z","x":"x","y":"y",{bad}}}"#
            ))
            .unwrap();
            assert!(dataset_spec_from_json(body).is_err(), "accepted {bad}");
        }
    }

    #[test]
    fn engine_options_round_trip_the_shard_wire() {
        let mut options = EngineOptions {
            segmenter: SegmenterKind::Dp,
            bin_width: 3,
            pushdown: false,
            ..EngineOptions::default()
        };
        options.params.min_width_frac = 0.125;
        options.pruning_mode = PruningMode::Off;
        let wire = json::parse(&options_to_json(&options).to_text()).unwrap();
        let back = options_from_json(&wire).unwrap();
        assert_eq!(back.segmenter, options.segmenter);
        assert_eq!(back.bin_width, options.bin_width);
        assert_eq!(back.pushdown, options.pushdown);
        assert_eq!(back.params, options.params);
        assert_eq!(back.pruning_mode, options.pruning_mode);
        // One value shape per key, the `/query` one.
        assert_eq!(wire.get("pruning"), Some(&Json::from("off")));
        // Option-vocabulary skew fails loudly: a missing result-affecting
        // field is an error, never a silent default — every one of them.
        let Json::Obj(fields) = wire.clone() else {
            panic!("options serialize as an object")
        };
        assert_eq!(fields.len(), 10, "every row: {}", wire.to_text());
        for (key, _) in &fields {
            let mut crippled = fields.clone();
            crippled.retain(|(k, _)| k != key);
            let err = options_from_json(&Json::Obj(crippled)).unwrap_err();
            assert_eq!(err.message, format!("missing field `{key}`"));
        }
    }

    /// Every row of the table reads what it writes, on both routes that
    /// carry options in, and a row's value never leaks into another's.
    #[test]
    fn every_option_row_reads_back_what_it_writes() {
        let mut options = EngineOptions {
            segmenter: SegmenterKind::Greedy,
            bin_width: 7,
            pushdown: false,
            pruning_mode: PruningMode::Off,
            ..EngineOptions::default()
        };
        let params = &mut options.params;
        params.sharp_angle_deg = 61.5;
        params.gradual_angle_deg = 22.25;
        params.quantifier_threshold = -0.125;
        params.sketch_distance_scale = 0.375;
        params.y_tolerance = 0.0625;
        params.min_width_frac = 1e-300;
        let shard = options_from_json(&options_to_json(&options)).unwrap();
        assert_eq!(
            format!("{shard:?}"),
            format!("{options:?}"),
            "the shard wire pins every option"
        );
        let given = options_on(&mut options.clone(), Route::Query)
            .map(|(key, slot)| (key, slot.write()))
            .collect::<Vec<_>>();
        let mut body = obj(given);
        if let Json::Obj(fields) = &mut body {
            fields.push(("dataset".into(), "d".into()));
            fields.push(("query".into(), "[p=up]".into()));
        }
        let request = query_request_from_json(&body).unwrap();
        let over = request.effective_options(&EngineOptions::default());
        assert_eq!(over.segmenter, options.segmenter);
        assert_eq!(over.bin_width, options.bin_width);
        assert_eq!(over.pushdown, options.pushdown);
        assert_eq!(over.pruning_mode, options.pruning_mode);
        assert_eq!(
            over.params,
            EngineOptions::default().params,
            "no `/query` params"
        );
        // `bin_width` 0 means 1 wherever it arrives.
        let body = json::parse(r#"{"dataset":"d","query":"[p=up]","bin_width":0}"#).unwrap();
        let request = query_request_from_json(&body).unwrap();
        assert_eq!(request.effective_options(&options).bin_width, 1);
        let wire = options_to_json(&options).to_text();
        let wire = wire.replace("\"bin_width\":7", "\"bin_width\":0");
        assert_eq!(
            options_from_json(&json::parse(&wire).unwrap())
                .unwrap()
                .bin_width,
            1
        );
    }

    /// One reader, one message per fault, on every route: absent is
    /// "missing field", the wrong type "field … must be …".
    #[test]
    fn every_reader_words_its_faults_once() {
        type Reader = fn(&Json) -> Result<(), ServerError>;
        let query: Reader = |b| query_request_from_json(b).map(drop);
        let beat: Reader = |b| heartbeat_from_json(b).map(drop);
        let spec: Reader = |b| dataset_spec_from_json(b.clone()).map(drop);
        let shard: Reader = |b| shard_request_from_json(b).map(drop);
        let csv = r#""name":"n","csv":"a","z":"z","x":"x","y":"y""#;
        let entry = r#""dataset":"d","queries":[{"query":"[p=up]","k":1"#;
        for (read, body, message) in [
            (
                query,
                r#"{"dataset":7,"query":"[p=up]"}"#,
                "field `dataset` must be a string",
            ),
            (query, r#"{"query":"[p=up]"}"#, "missing field `dataset`"),
            (
                query,
                r#"{"dataset":"d","query":"[p=up]","pruning":"warp"}"#,
                "unknown pruning mode `warp` (expected auto, off, or force)",
            ),
            (
                beat,
                r#"{"dataset":"d","shard_of":"0/2"}"#,
                "missing field `endpoint`",
            ),
            (
                beat,
                r#"{"dataset":"d","shard_of":2,"endpoint":"e:1"}"#,
                "field `shard_of` must be a string",
            ),
            (
                spec,
                &format!(r#"{{{csv},"filters":[{{"column":"y","op":"~"}}]}}"#),
                "unknown filter op `~`",
            ),
            (
                spec,
                &format!(r#"{{{csv},"filters":[{{"op":"=="}}]}}"#),
                "missing field `column`",
            ),
            (
                spec,
                r#"{"name":"n","csv":"a","x":"x","y":"y"}"#,
                "missing field `z`",
            ),
            (
                shard,
                r#"{"dataset":"d","queries":{}}"#,
                "field `queries` must be an array",
            ),
            (
                shard,
                &format!(r#"{{{entry},"threshold_hint":"0.5"}}]}}"#),
                "missing field `options`",
            ),
            (
                shard,
                &format!(r#"{{{entry}}}],"options":[]}}"#),
                "field `options` must be an object",
            ),
        ] {
            let err = read(&json::parse(body).unwrap()).unwrap_err();
            assert_eq!(err.to_string(), format!("400 {message}"), "{body}");
        }
        let reply = |outcome: &str| {
            let body = format!(r#"{{"outcomes":[{outcome}]}}"#);
            shard_outcomes_from_json(&json::parse(&body).unwrap(), 1).err()
        };
        for (outcome, message) in [
            (
                r#"{"results":[{"key":"a","score":1,"viz_index":0,"ranges":[[0]]}]}"#,
                "field `ranges` must be an array of [start, end] index pairs",
            ),
            (
                r#"{"results":[{"score":1,"viz_index":0,"ranges":[]}]}"#,
                "missing field `key`",
            ),
            (r#"{"status":400}"#, "missing field `error`"),
            (
                r#"{"error":"x","status":404,"code":5}"#,
                "field `code` must be a string",
            ),
        ] {
            assert_eq!(reply(outcome).as_deref(), Some(message), "{outcome}");
        }
    }

    #[test]
    fn shard_request_and_outcomes_round_trip() {
        let q = shapesearch_parser::parse_regex("[p=up][p=down]").unwrap();
        let queries = vec![(q.clone(), 3), (q, 7)];
        let wire = shard_request_to_json("sales", &queries, &[], &EngineOptions::default(), None);
        let req = shard_request_from_json(&json::parse(&wire.to_text()).unwrap()).unwrap();
        assert_eq!(req.dataset, "sales");
        assert_eq!(req.queries.len(), 2);
        assert_eq!(req.queries[0].1, 3);
        assert_eq!(req.queries[1].1, 7);
        assert_eq!(req.queries[0].0, queries[0].0);
        assert_eq!(req.trace_id, None, "untraced requests omit trace_id");

        // A traced fan-out carries its ID to the shard server.
        let traced = shard_request_to_json(
            "sales",
            &queries,
            &[],
            &EngineOptions::default(),
            Some("deadbeef01234567"),
        );
        let req = shard_request_from_json(&json::parse(&traced.to_text()).unwrap()).unwrap();
        assert_eq!(req.trace_id.as_deref(), Some("deadbeef01234567"));

        // Each query's `k` is required: absent, it is never defaulted.
        let stripped = wire.to_text().replace(",\"k\":3", "");
        assert_ne!(stripped, wire.to_text());
        assert!(shard_request_from_json(&json::parse(&stripped).unwrap()).is_err());

        let results = vec![TopKResult {
            key: "widget".into(),
            score: 0.875,
            viz_index: 4,
            ranges: vec![(0, 3), (3, 9)],
        }];
        let outcomes: Vec<Result<Vec<TopKResult>, ServerError>> = vec![
            Ok(results.clone()),
            Err(ServerError::shard_unavailable("10.0.0.9:7878", "boom")),
        ];
        let snapshot = PruningSnapshot {
            bounded: 9,
            pruned: 7,
            scored: 2,
            refined: 3,
            joined: 1,
            bound_micros: 11,
        };
        let reply = shard_outcomes_to_json("sales", &outcomes, &[], snapshot, 42, None);
        assert!(reply.to_text().contains(
            "\"pruning\":{\"bounded\":9,\"pruned\":7,\"scored\":2,\"refined\":3,\"joined\":1,\
             \"bound_micros\":11}"
        ));
        assert!(
            !reply.to_text().contains("\"spans\""),
            "untraced replies omit spans"
        );
        let back = shard_outcomes_from_json(&json::parse(&reply.to_text()).unwrap(), 2).unwrap();
        assert_eq!(back.outcomes[0].as_ref().unwrap(), &results);
        assert!(back.spans.is_empty());

        // A traced reply round-trips its span tree for router stitching.
        let shard_spans =
            vec![crate::obs::Span::new("shard_request", 42).with_detail("trace deadbeef01234567")];
        let traced =
            shard_outcomes_to_json("sales", &outcomes, &[], snapshot, 42, Some(&shard_spans));
        let back = shard_outcomes_from_json(&json::parse(&traced.to_text()).unwrap(), 2).unwrap();
        assert_eq!(back.spans, shard_spans);
        let err = back.outcomes[1].as_ref().unwrap_err();
        assert_eq!(err.status, 502);
        assert_eq!(err.code, Some("shard_unavailable"));
        assert!(err.message.contains("10.0.0.9:7878"));
        // Outcome-count mismatches are malformed replies.
        assert!(shard_outcomes_from_json(&json::parse(&reply.to_text()).unwrap(), 3).is_err());
        // An error outcome's status becomes the router's reply status, so
        // anything but a 4xx/5xx code is a malformed reply — never a
        // status truncated to 16 bits, never a 200 carrying an error.
        let relay = |status: &str| {
            let text = reply
                .to_text()
                .replace("\"status\":502", &format!("\"status\":{status}"));
            shard_outcomes_from_json(&json::parse(&text).unwrap(), 2)
        };
        for status in ["65536", "70000", "200", "399", "600", "-1", "502.5"] {
            let err = relay(status).err();
            assert!(err.is_some_and(|e| e.contains("`status`")), "{status}");
        }
        let back = relay("404").unwrap();
        assert_eq!(back.outcomes[1].as_ref().unwrap_err().status, 404);
    }

    #[test]
    fn results_round_trip_bytes_exactly() {
        // The distributed invariant hinges on serialize→parse→serialize
        // being the identity on result payloads, scores included.
        let results = vec![
            TopKResult {
                key: "a".into(),
                score: 0.123456789012345,
                viz_index: 0,
                ranges: vec![(0, 17)],
            },
            TopKResult {
                key: "b".into(),
                score: -1.0,
                viz_index: 3,
                ranges: vec![(2, 5), (5, 11)],
            },
            TopKResult {
                key: "c".into(),
                score: 1.0 / 3.0,
                viz_index: 9,
                ranges: vec![],
            },
        ];
        let text = results_to_json(&results).to_text();
        let back = results_from_json(json::parse(&text).unwrap().as_array().unwrap()).unwrap();
        assert_eq!(back, results);
        assert_eq!(results_to_json(&back).to_text(), text);
    }

    mod writer {
        use super::super::referee;
        use super::*;
        use proptest::collection::vec;
        use proptest::prelude::*;

        /// Characters a key is drawn from: plain, the two JSON escapes,
        /// control characters with and without a short escape, and
        /// non-ASCII up to the astral planes.
        const KEY_CHARS: &str =
            "az09_ \"\\/\n\r\t\u{0}\u{1}\u{8}\u{c}\u{1f}\u{7f}é中\u{2028}\u{1F4C8}";

        fn key() -> impl Strategy<Value = String> {
            let chars: Vec<char> = KEY_CHARS.chars().collect();
            vec(0..chars.len(), 0..12)
                .prop_map(move |picks| picks.into_iter().map(|i| chars[i]).collect())
        }

        fn score() -> impl Strategy<Value = f64> {
            prop_oneof![
                Just(f64::NAN),
                Just(f64::INFINITY),
                Just(f64::NEG_INFINITY),
                Just(-0.0),
                Just(0.0),
                Just(1.0),
                Just(-1.0),
                Just(0.1 + 0.2),
                Just(f64::MIN_POSITIVE / 2.0),
                (1u64..1 << 52).prop_map(f64::from_bits),
                (1u64..1 << 52).prop_map(|bits| -f64::from_bits(bits)),
                -1.0f64..1.0,
                (-400i32..400).prop_map(|e| 10f64.powi(e)),
                (0u64..u64::MAX).prop_map(f64::from_bits),
            ]
        }

        fn index() -> impl Strategy<Value = usize> {
            prop_oneof![
                Just(0usize),
                0usize..1_000,
                Just(1usize << 53),
                Just((1usize << 53) + 1),
                Just(999_999_999_999_999),
                Just(usize::MAX),
                0usize..usize::MAX,
            ]
        }

        fn row() -> impl Strategy<Value = TopKResult> {
            let ranges = prop_oneof![
                vec((index(), index()), 0..3),
                vec((index(), index()), 0..40)
            ];
            (key(), score(), index(), ranges).prop_map(|(key, score, viz_index, ranges)| {
                TopKResult {
                    key,
                    score,
                    viz_index,
                    ranges,
                }
            })
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(2000))]

            #[test]
            fn write_results_matches_referee(results in vec(row(), 0..6)) {
                let mut text = String::new();
                write_results(&results, &mut text);
                prop_assert_eq!(&text, &referee::results_to_json(&results).to_text());
                prop_assert_eq!(results_to_json(&results).to_text(), text);
            }
        }

        #[test]
        fn the_empty_answer_is_an_empty_array() {
            let mut text = String::new();
            write_results(&[], &mut text);
            assert_eq!(text, "[]");
            assert_eq!(referee::results_to_json(&[]).to_text(), text);
        }
    }

    #[test]
    fn error_json_carries_machine_readable_code() {
        let err = ServerError::shard_unavailable("h:1", "connect refused");
        assert!(error_to_json(&err)
            .to_text()
            .contains("\"code\":\"shard_unavailable\""));
        let item = error_item_to_json(&err);
        assert_eq!(item.get("status").unwrap().as_usize(), Some(502));
        assert_eq!(
            item.get("code").unwrap().as_str(),
            Some("shard_unavailable")
        );
        // Plain errors stay code-less.
        assert!(error_to_json(&ServerError::bad_request("x"))
            .get("code")
            .is_none());

        // An all-replicas failure names every attempt in try order, and
        // keeps the same machine-readable code so routers relay it.
        let err = ServerError::replicas_unavailable([
            ("h1:1", "connect refused"),
            ("h2:2", "status 500: boom"),
        ]);
        assert_eq!(err.status, 502);
        assert_eq!(err.code, Some("shard_unavailable"));
        assert!(err.message.contains("2 replica attempt(s)"), "{err}");
        assert!(err.message.contains("h1:1 (connect refused)"), "{err}");
        assert!(err.message.contains("h2:2 (status 500: boom)"), "{err}");
    }

    #[test]
    fn heartbeat_and_registry_rows_round_the_wire() {
        let body =
            json::parse(r#"{"dataset":"sales","shard_of":"1/4","endpoint":"10.0.0.2:7001"}"#)
                .unwrap();
        assert_eq!(
            heartbeat_from_json(&body).unwrap(),
            ("sales".to_owned(), (1, 4), "10.0.0.2:7001".to_owned())
        );
        for bad in [
            r#"{"shard_of":"1/4","endpoint":"e:1"}"#,
            r#"{"dataset":"d","shard_of":"4/4","endpoint":"e:1"}"#,
            r#"{"dataset":"d","shard_of":"1/4"}"#,
        ] {
            assert!(heartbeat_from_json(&json::parse(bad).unwrap()).is_err());
        }
        let row = registry_entry_to_json(&RegistryEntry {
            dataset: "sales".into(),
            shard: 1,
            shards: 4,
            endpoint: "10.0.0.2:7001".into(),
            age_secs: 3,
            fresh: true,
        });
        assert_eq!(
            row.to_text(),
            r#"{"dataset":"sales","shard":1,"shards":4,"endpoint":"10.0.0.2:7001","age_secs":3,"fresh":true}"#
        );
    }

    #[test]
    fn partial_flag_parses_and_defaults_off() {
        let body = json::parse(r#"{"dataset":"d","query":"[p=up]"}"#).unwrap();
        assert!(!query_request_from_json(&body).unwrap().partial);
        let body = json::parse(r#"{"dataset":"d","query":"[p=up]","partial":true}"#).unwrap();
        assert!(query_request_from_json(&body).unwrap().partial);
    }

    #[test]
    fn nl_and_regex_share_canonical_ast() {
        let nl_req = QueryRequest {
            dataset: "d".into(),
            query: None,
            nl: Some("rising then falling".into()),
            k: 5,
            overrides: Json::Obj(Vec::new()),
            explain: false,
            partial: false,
        };
        let (nl_query, _) = parse_query(&nl_req).unwrap();
        let direct = shapesearch_parser::parse_regex(&nl_query.to_string()).unwrap();
        assert_eq!(nl_query, direct, "canonical text must reparse identically");
    }
}
