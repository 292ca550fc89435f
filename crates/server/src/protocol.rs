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
//!                  "trendlines","points","shards","placement",
//!                  "shard_of"?,"snapshot"?}]}
//! POST /query     {"dataset", "query"|"nl", "k"?, "algo"?, "bin_width"?,
//!                  "pushdown"?, "parallel"?, "pruning"?, "explain"?,
//!                  "partial"?}
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
//! POST /shard/query   {"dataset", "queries":[{"query","k",
//!                      "threshold_hint": score|null}, …],  (all required)
//!                      "options": {…}, "trace_id"?: "hex"}
//!                                          (router → shard server RPC)
//!              → {"dataset","outcomes":[{"results":[…],
//!                 "pruned_bound": score|null} or
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
//!                    "snapshots":{"resident","resident_bytes",
//!                                 "capacity_bytes","loads","evictions",
//!                                 "load_micros_total"},
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
//! `threshold_hint` is the §6.3 top-k threshold the router has proven so
//! far for that query — a pure accelerator the shard server seeds its
//! own [`shapesearch_core::ThresholdCell`]s with. It is
//! **required-but-nullable** (send `null` when nothing is proven yet) so
//! the option-vocabulary strictness below still applies to it. A shard's
//! `pruned_bound` is the largest §6.3 upper bound it pruned on the
//! hint's authority alone (null when every prune was locally proven;
//! required-but-nullable too — a reply that omits or mistypes it is
//! malformed, or the router would skip the check below):
//! the router verifies its merged top k strictly clears every reported
//! bound and recomputes hint-less otherwise, so a stale or poisoned hint
//! can never silently drop a true top-k result.
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
//! The `/shard/query` options object serializes **every result-affecting
//! engine knob** explicitly (segmenter, binning, pushdown, all scoring
//! parameters, pruning mode) and the receiving shard server
//! treats every field as required — a router and a shard server that
//! disagree about the option vocabulary fail loudly at the RPC boundary
//! instead of silently computing under different options. Scheduling
//! knobs (`parallel`, `parallel_threshold`) are deliberately *not* on
//! the wire: they never change results, and each process schedules its
//! own cores.

use crate::catalog::{DataSource, DatasetEntry, DatasetSpec, RegistryEntry, ShardEndpoints};
use crate::error::ServerError;
use crate::json::{obj, Json};
use shapesearch_core::{
    EngineOptions, PruningMode, PruningSnapshot, SegmenterKind, ShapeQuery, TopKResult,
};
use shapesearch_datastore::{Aggregation, CompareOp, Predicate, Value, VisualSpec};

/// Default upper bound on the number of queries one `POST /query` batch
/// may carry (configurable per server via `ServerConfig::max_batch` /
/// `shapesearch serve --max-batch`). Batches above the server's limit are
/// rejected with a structured 400: `{"error", "code": "batch_too_large",
/// "max_batch", "batch_len"}`. The bound keeps one request from pinning a
/// worker thread on an unbounded amount of engine work.
pub const MAX_BATCH_SIZE: usize = 64;

fn required_str<'a>(body: &'a Json, key: &str) -> Result<&'a str, ServerError> {
    body.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| ServerError::bad_request(format!("missing string field `{key}`")))
}

/// An optional key: absent or `null` is `None`, present and readable by
/// `read` is `Some`, anything else is a 400 naming `what` the field must
/// be — a mistyped option is never silently replaced by its default, or a
/// client would believe an option took effect that did not.
fn optional<'a, T>(
    body: &'a Json,
    key: &str,
    read: fn(&'a Json) -> Option<T>,
    what: &str,
) -> Result<Option<T>, ServerError> {
    match body.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(value) => read(value).map(Some).ok_or_else(|| mistyped(key, what)),
    }
}

fn mistyped(key: &str, what: &str) -> ServerError {
    ServerError::bad_request(format!("field `{key}` must be {what}"))
}

const STRING: &str = "a string";
const BOOLEAN: &str = "a boolean";
const COUNT: &str = "a non-negative integer";

/// [`optional`] for a string the caller will own: the text is moved out
/// of `body` (an empty string stays behind), not copied.
fn take_string(body: &mut Json, key: &str) -> Result<Option<String>, ServerError> {
    let Json::Obj(fields) = body else {
        return Ok(None);
    };
    match fields.iter_mut().find(|(k, _)| k == key) {
        None | Some((_, Json::Null)) => Ok(None),
        Some((_, Json::Str(text))) => Ok(Some(std::mem::take(text))),
        Some(_) => Err(mistyped(key, STRING)),
    }
}

/// Parses a `POST /datasets` body. Takes it by value: an inline source is
/// the whole request over again, and moving it into the spec keeps a
/// registration from holding one more copy of it than it has to.
pub fn dataset_spec_from_json(mut body: Json) -> Result<DatasetSpec, ServerError> {
    let name = required_str(&body, "name")?.to_owned();
    let id = optional(&body, "id", Json::as_str, STRING)?.map(str::to_owned);

    let source = match (
        take_string(&mut body, "csv")?,
        take_string(&mut body, "jsonl")?,
        take_string(&mut body, "path")?,
        take_string(&mut body, "snapshot")?,
    ) {
        (Some(text), None, None, None) => DataSource::InlineCsv(text),
        (None, Some(text), None, None) => DataSource::InlineJsonl(text),
        (None, None, Some(path), None) => DataSource::Path(path),
        (None, None, None, Some(path)) => DataSource::Snapshot(path),
        _ => {
            return Err(ServerError::bad_request(
                "exactly one of `csv`, `jsonl`, `path`, or `snapshot` is required",
            ))
        }
    };

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
            required_str(body, "z")?,
            required_str(body, "x")?,
            required_str(body, "y")?,
        )
    };
    if let Some(filters) = optional(body, "filters", Json::as_array, "an array")? {
        for f in filters {
            visual = visual.with_filter(predicate_from_json(f)?);
        }
    }
    if let Some(agg) = optional(body, "agg", Json::as_str, STRING)? {
        let agg = Aggregation::parse(agg)
            .ok_or_else(|| ServerError::bad_request(format!("unknown aggregation `{agg}`")))?;
        visual = visual.with_aggregation(agg);
    }

    let shard_endpoints = match body.get("shard_endpoints") {
        None => None,
        Some(Json::Str(s)) if s.eq_ignore_ascii_case("registry") => {
            Some(ShardEndpoints::FromRegistry)
        }
        Some(Json::Arr(items)) => {
            let mut endpoints = Vec::with_capacity(items.len());
            for item in items {
                endpoints.push(match item {
                    Json::Null => None,
                    Json::Str(s) if s.eq_ignore_ascii_case("local") => None,
                    Json::Str(s) if !s.is_empty() => Some(vec![s.clone()]),
                    Json::Arr(replicas) => {
                        let mut list = Vec::with_capacity(replicas.len());
                        for replica in replicas {
                            match replica {
                                Json::Str(s)
                                    if !s.is_empty() && !s.eq_ignore_ascii_case("local") =>
                                {
                                    list.push(s.clone())
                                }
                                other => {
                                    return Err(ServerError::bad_request(format!(
                                        "replica entries must be \"host:port\" \
                                         strings; got {other:?} (use null at \
                                         the shard level for a local shard)"
                                    )))
                                }
                            }
                        }
                        if list.is_empty() {
                            return Err(ServerError::bad_request(
                                "a replica list must name at least one endpoint",
                            ));
                        }
                        Some(list)
                    }
                    other => {
                        return Err(ServerError::bad_request(format!(
                            "`shard_endpoints` entries must be \"host:port\", \
                             a replica array, \"local\", or null; got {other:?}"
                        )))
                    }
                });
            }
            if endpoints.is_empty() {
                return Err(ServerError::bad_request(
                    "`shard_endpoints` must name at least one shard",
                ));
            }
            Some(ShardEndpoints::Explicit(endpoints))
        }
        Some(_) => {
            return Err(ServerError::bad_request(
                "`shard_endpoints` must be an array of \"host:port\"/replica-\
                 array/null entries, or the string \"registry\"",
            ))
        }
    };

    let shard_of = match body.get("shard_of") {
        None => None,
        Some(Json::Str(text)) => Some(parse_shard_of(text).map_err(ServerError::bad_request)?),
        Some(_) => {
            return Err(ServerError::bad_request(
                "`shard_of` must be a string of the form \"index/total\"",
            ))
        }
    };

    Ok(DatasetSpec {
        id,
        name,
        source,
        visual,
        builtins: optional(body, "builtins", Json::as_bool, BOOLEAN)?.unwrap_or(true),
        shards: optional(body, "shards", Json::as_usize, COUNT)?,
        shard_endpoints,
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
    let column = required_str(f, "column")?;
    let op = match required_str(f, "op")? {
        "=" | "==" | "eq" => CompareOp::Eq,
        "!=" | "ne" => CompareOp::Ne,
        "<" | "lt" => CompareOp::Lt,
        "<=" | "le" => CompareOp::Le,
        ">" | "gt" => CompareOp::Gt,
        ">=" | "ge" => CompareOp::Ge,
        other => {
            return Err(ServerError::bad_request(format!(
                "unknown filter op `{other}`"
            )))
        }
    };
    let value = match f.get("value") {
        Some(Json::Num(n)) => {
            if n.fract() == 0.0 && n.abs() < 9e15 {
                Value::Int(*n as i64)
            } else {
                Value::Float(*n)
            }
        }
        Some(Json::Str(s)) => Value::infer(s),
        Some(Json::Bool(b)) => Value::Int(i64::from(*b)),
        Some(Json::Null) | None => Value::Null,
        Some(other) => {
            return Err(ServerError::bad_request(format!(
                "unsupported filter value {other:?}"
            )))
        }
    };
    Ok(Predicate::new(column, op, value))
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
    /// Segmentation algorithm override.
    pub algo: Option<SegmenterKind>,
    /// GROUP binning-width override.
    pub bin_width: Option<usize>,
    /// Push-down optimization override.
    pub pushdown: Option<bool>,
    /// Engine viz-level parallelism override.
    pub parallel: Option<bool>,
    /// §6.3 bound-pruning mode override (`auto` / `off` / `force`).
    pub pruning: Option<PruningMode>,
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
    let dataset = required_str(body, "dataset")?.to_owned();
    let query = optional(body, "query", Json::as_str, STRING)?.map(str::to_owned);
    let nl = optional(body, "nl", Json::as_str, STRING)?.map(str::to_owned);
    if query.is_none() && nl.is_none() {
        return Err(ServerError::bad_request(
            "one of `query` or `nl` is required",
        ));
    }
    let algo = match optional(body, "algo", Json::as_str, STRING)? {
        Some(name) => Some(
            SegmenterKind::parse(name)
                .ok_or_else(|| ServerError::bad_request(format!("unknown algo `{name}`")))?,
        ),
        None => None,
    };
    let pruning = match optional(body, "pruning", Json::as_str, STRING)? {
        Some(name) => Some(PruningMode::parse(name).ok_or_else(|| {
            ServerError::bad_request(format!(
                "unknown pruning mode `{name}` (expected auto, off, or force)"
            ))
        })?),
        None => None,
    };
    Ok(QueryRequest {
        dataset,
        query,
        nl,
        k: optional(body, "k", Json::as_usize, COUNT)?.unwrap_or(5),
        algo,
        bin_width: optional(body, "bin_width", Json::as_usize, COUNT)?,
        pushdown: optional(body, "pushdown", Json::as_bool, BOOLEAN)?,
        parallel: optional(body, "parallel", Json::as_bool, BOOLEAN)?,
        pruning,
        explain: optional(body, "explain", Json::as_bool, BOOLEAN)?.unwrap_or(false),
        partial: optional(body, "partial", Json::as_bool, BOOLEAN)?.unwrap_or(false),
    })
}

/// Parses a `POST /registry/heartbeat` body into
/// `(dataset, (shard index, total), endpoint)`.
///
/// # Errors
/// Missing fields or a malformed `shard_of` designator.
pub fn heartbeat_from_json(body: &Json) -> Result<(String, (usize, usize), String), ServerError> {
    let dataset = required_str(body, "dataset")?.to_owned();
    let shard_of =
        parse_shard_of(required_str(body, "shard_of")?).map_err(ServerError::bad_request)?;
    let endpoint = required_str(body, "endpoint")?.to_owned();
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
        if let Some(algo) = self.algo {
            options.segmenter = algo;
        }
        if let Some(bin_width) = self.bin_width {
            options.bin_width = bin_width.max(1);
        }
        if let Some(pushdown) = self.pushdown {
            options.pushdown = pushdown;
        }
        if let Some(parallel) = self.parallel {
            options.parallel = parallel;
        }
        if let Some(pruning) = self.pruning {
            options.pruning_mode = pruning;
        }
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
    if entry.from_snapshot() {
        fields.push(("snapshot", true.into()));
    }
    obj(fields)
}

/// Serializes a top-k answer as the wire `results` array.
pub fn results_to_json(results: &[TopKResult]) -> Json {
    Json::Arr(
        results
            .iter()
            .map(|r| {
                obj([
                    ("key", r.key.as_str().into()),
                    ("score", r.score.into()),
                    ("viz_index", r.viz_index.into()),
                    (
                        "ranges",
                        Json::Arr(
                            r.ranges
                                .iter()
                                .map(|&(s, e)| Json::Arr(vec![s.into(), e.into()]))
                                .collect(),
                        ),
                    ),
                ])
            })
            .collect(),
    )
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

/// Deserializes a batch-item / shard-outcome error object. The code is
/// preserved when it is one this build knows (`shard_unavailable`), so a
/// router can relay a downstream shard server's structured error intact.
fn error_from_json(item: &Json) -> Option<ServerError> {
    let message = item.get("error")?.as_str()?.to_owned();
    let status = item.get("status")?.as_usize()? as u16;
    let code = match item.get("code").and_then(Json::as_str) {
        Some("shard_unavailable") => Some("shard_unavailable"),
        _ => None,
    };
    Some(ServerError {
        status,
        message,
        code,
    })
}

/// Serializes every result-affecting engine option for the
/// `/shard/query` RPC. Scheduling knobs are deliberately omitted (see
/// the module docs).
pub fn options_to_json(o: &EngineOptions) -> Json {
    obj([
        ("algo", o.segmenter.name().into()),
        ("bin_width", o.bin_width.into()),
        ("pushdown", o.pushdown.into()),
        (
            "params",
            obj([
                ("sharp_angle_deg", o.params.sharp_angle_deg.into()),
                ("gradual_angle_deg", o.params.gradual_angle_deg.into()),
                ("quantifier_threshold", o.params.quantifier_threshold.into()),
                (
                    "sketch_distance_scale",
                    o.params.sketch_distance_scale.into(),
                ),
                ("y_tolerance", o.params.y_tolerance.into()),
                ("min_width_frac", o.params.min_width_frac.into()),
            ]),
        ),
        ("pruning", obj([("mode", o.pruning_mode.name().into())])),
    ])
}

fn required_f64(body: &Json, key: &str) -> Result<f64, ServerError> {
    body.get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| ServerError::bad_request(format!("missing numeric field `{key}`")))
}

fn required_usize(body: &Json, key: &str) -> Result<usize, ServerError> {
    body.get(key)
        .and_then(Json::as_usize)
        .ok_or_else(|| ServerError::bad_request(format!("missing integer field `{key}`")))
}

/// Deserializes a `/shard/query` options object. Every field is
/// **required**: option-vocabulary skew between a router and a shard
/// server must fail the RPC, not silently fall back to a default that
/// would break distributed-vs-local byte identity.
///
/// # Errors
/// Missing or mistyped fields, unknown algorithm names.
pub fn options_from_json(body: &Json) -> Result<EngineOptions, ServerError> {
    let algo = required_str(body, "algo")?;
    let segmenter = SegmenterKind::parse(algo)
        .ok_or_else(|| ServerError::bad_request(format!("unknown algo `{algo}`")))?;
    let params = body
        .get("params")
        .ok_or_else(|| ServerError::bad_request("missing `params` object"))?;
    let pruning = body
        .get("pruning")
        .ok_or_else(|| ServerError::bad_request("missing `pruning` object"))?;
    let mut options = EngineOptions {
        segmenter,
        bin_width: required_usize(body, "bin_width")?.max(1),
        pushdown: body
            .get("pushdown")
            .and_then(Json::as_bool)
            .ok_or_else(|| ServerError::bad_request("missing boolean field `pushdown`"))?,
        ..EngineOptions::default()
    };
    options.params.sharp_angle_deg = required_f64(params, "sharp_angle_deg")?;
    options.params.gradual_angle_deg = required_f64(params, "gradual_angle_deg")?;
    options.params.quantifier_threshold = required_f64(params, "quantifier_threshold")?;
    options.params.sketch_distance_scale = required_f64(params, "sketch_distance_scale")?;
    options.params.y_tolerance = required_f64(params, "y_tolerance")?;
    options.params.min_width_frac = required_f64(params, "min_width_frac")?;
    let mode = required_str(pruning, "mode")?;
    options.pruning_mode = PruningMode::parse(mode)
        .ok_or_else(|| ServerError::bad_request(format!("unknown pruning mode `{mode}`")))?;
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
    /// Per-query `threshold_hint`s, aligned with `queries` (`None` =
    /// wire `null` = no hint).
    pub hints: Vec<Option<f64>>,
    /// The fully pinned, result-affecting engine options.
    pub options: EngineOptions,
    /// The router's trace ID, when the fan-out is being traced: the
    /// shard server reports its own span tree back under this ID so the
    /// router can stitch one cross-process trace.
    pub trace_id: Option<String>,
}

/// Builds the `POST /shard/query` request body the router sends for one
/// query group. `hints` must align with `queries`; a missing slot
/// serializes as the explicit `null`. A `trace` ID (present only when
/// the originating request is traced) asks the shard server to time its
/// stages and return its span tree in the reply.
pub fn shard_request_to_json(
    dataset: &str,
    queries: &[(ShapeQuery, usize)],
    hints: &[Option<f64>],
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
                    .enumerate()
                    .map(|(i, (q, k))| {
                        obj([
                            ("query", q.to_string().into()),
                            ("k", (*k).into()),
                            (
                                "threshold_hint",
                                match hints.get(i).copied().flatten() {
                                    Some(hint) => hint.into(),
                                    None => Json::Null,
                                },
                            ),
                        ])
                    })
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
/// `k` and its `threshold_hint` explicitly (`null` for "no hint") — the
/// same fail-loudly rule the options object follows.
///
/// # Errors
/// Missing fields, unparseable query text, bad options.
pub fn shard_request_from_json(body: &Json) -> Result<ShardQueryRequest, ServerError> {
    let dataset = required_str(body, "dataset")?.to_owned();
    let items = body
        .get("queries")
        .and_then(Json::as_array)
        .ok_or_else(|| ServerError::bad_request("missing `queries` array"))?;
    if items.is_empty() {
        return Err(ServerError::bad_request(
            "`queries` must contain at least one entry",
        ));
    }
    let mut queries = Vec::with_capacity(items.len());
    let mut hints = Vec::with_capacity(items.len());
    for item in items {
        let text = required_str(item, "query")?;
        let query = shapesearch_parser::parse_regex(text)
            .map_err(|e| ServerError::bad_request(format!("query parse error: {e}")))?;
        let hint = match item.get("threshold_hint") {
            None => {
                return Err(ServerError::bad_request(
                    "missing `threshold_hint` (send null when nothing is proven)",
                ))
            }
            Some(Json::Null) => None,
            Some(value) => Some(value.as_f64().ok_or_else(|| {
                ServerError::bad_request("`threshold_hint` must be a number or null")
            })?),
        };
        let k = required_usize(item, "k")?;
        queries.push((query, k));
        hints.push(hint);
    }
    let options = options_from_json(
        body.get("options")
            .ok_or_else(|| ServerError::bad_request("missing `options` object"))?,
    )?;
    let trace_id = optional(body, "trace_id", Json::as_str, STRING)?.map(str::to_owned);
    Ok(ShardQueryRequest {
        dataset,
        queries,
        hints,
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
/// `POST /shard/query` response body. `pruned_bounds` aligns with
/// `outcomes`: the largest upper bound each query pruned on hint
/// authority alone (`None` → wire `null`), which the router's
/// verification pass checks the merged answer against. `pruning` is the
/// RPC's engine-side counter snapshot. `spans` (present only when the
/// request carried a `trace_id`) is the shard server's own span tree,
/// which the router stitches under its RPC span.
pub fn shard_outcomes_to_json(
    dataset: &str,
    outcomes: &[Result<Vec<TopKResult>, ServerError>],
    pruned_bounds: &[Option<f64>],
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
                    .enumerate()
                    .map(|(i, outcome)| match outcome {
                        Ok(results) => obj([
                            ("results", results_to_json(results)),
                            (
                                "pruned_bound",
                                match pruned_bounds.get(i).copied().flatten() {
                                    Some(bound) => bound.into(),
                                    None => Json::Null,
                                },
                            ),
                        ]),
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

/// A shard server's parsed `POST /shard/query` reply: per-query partial
/// outcomes plus the per-query hint-pruned bounds the router must verify
/// its merged answer against.
pub struct ShardPartials {
    /// Per-query partial top-k results (or structured per-query errors).
    pub outcomes: Vec<Result<Vec<TopKResult>, ServerError>>,
    /// Per-query largest hint-justified pruned upper bound, when any.
    pub pruned_bounds: Vec<Option<f64>>,
    /// The shard server's own span tree (empty unless the router sent a
    /// `trace_id` and the reply carried well-formed spans).
    pub spans: Vec<crate::obs::Span>,
}

/// Parses a shard server's `POST /shard/query` response back into
/// per-query outcomes. `expected` is the number of queries the router
/// sent; a reply with any other outcome count is malformed, and so is an
/// `Ok` outcome whose `pruned_bound` is anything but a number or `null`.
///
/// # Errors
/// A human-readable description of what was malformed (the caller wraps
/// it into a `shard_unavailable` naming the endpoint).
pub fn shard_outcomes_from_json(body: &Json, expected: usize) -> Result<ShardPartials, String> {
    let items = body
        .get("outcomes")
        .and_then(Json::as_array)
        .ok_or("reply carried no `outcomes` array")?;
    if items.len() != expected {
        return Err(format!(
            "reply carried {} outcomes for {expected} queries",
            items.len()
        ));
    }
    let mut outcomes = Vec::with_capacity(items.len());
    let mut pruned_bounds = Vec::with_capacity(items.len());
    for item in items {
        if let Some(results) = item.get("results") {
            outcomes.push(Ok(results_from_json(results)?));
            // Required but nullable, like `threshold_hint`: read as "no
            // hint debt", an absent or mistyped bound would switch the
            // caller's verification pass off.
            pruned_bounds.push(match item.get("pruned_bound") {
                Some(Json::Null) => None,
                Some(Json::Num(bound)) => Some(*bound),
                _ => return Err("outcome's `pruned_bound` is not a number or null".into()),
            });
            continue;
        }
        let err = error_from_json(item)
            .ok_or("outcome carried neither `results` nor a structured error")?;
        outcomes.push(Err(err));
        pruned_bounds.push(None);
    }
    let spans = body
        .get("spans")
        .and_then(crate::obs::spans_from_json)
        .unwrap_or_default();
    Ok(ShardPartials {
        outcomes,
        pruned_bounds,
        spans,
    })
}

/// Deserializes a wire `results` array back into [`TopKResult`]s (the
/// inverse of [`results_to_json`]; the merge step needs typed values).
///
/// # Errors
/// A description of the malformed element.
pub fn results_from_json(results: &Json) -> Result<Vec<TopKResult>, String> {
    let items = results.as_array().ok_or("`results` is not an array")?;
    items
        .iter()
        .map(|r| {
            let key = r
                .get("key")
                .and_then(Json::as_str)
                .ok_or("result without `key`")?
                .to_owned();
            let score = r
                .get("score")
                .and_then(Json::as_f64)
                .ok_or("result without `score`")?;
            let viz_index = r
                .get("viz_index")
                .and_then(Json::as_usize)
                .ok_or("result without `viz_index`")?;
            let ranges = r
                .get("ranges")
                .and_then(Json::as_array)
                .ok_or("result without `ranges`")?
                .iter()
                .map(|pair| {
                    let pair = pair.as_array().filter(|p| p.len() == 2)?;
                    Some((pair[0].as_usize()?, pair[1].as_usize()?))
                })
                .collect::<Option<Vec<_>>>()
                .ok_or("malformed `ranges` pair")?;
            Ok(TopKResult {
                key,
                score,
                viz_index,
                ranges,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

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
        options.pruning_mode = PruningMode::Force;
        let wire = json::parse(&options_to_json(&options).to_text()).unwrap();
        let back = options_from_json(&wire).unwrap();
        assert_eq!(back.segmenter, options.segmenter);
        assert_eq!(back.bin_width, options.bin_width);
        assert_eq!(back.pushdown, options.pushdown);
        assert_eq!(back.params, options.params);
        assert_eq!(back.pruning_mode, options.pruning_mode);
        // Option-vocabulary skew fails loudly: a missing result-affecting
        // field is an error, never a silent default.
        let Json::Obj(mut fields) = wire.clone() else {
            panic!("options serialize as an object")
        };
        fields.retain(|(k, _)| k != "params");
        assert!(options_from_json(&Json::Obj(fields)).is_err());
        let mut crippled = wire;
        if let Some(Json::Obj(params)) = crippled.get("params").cloned() {
            let mut params: Vec<_> = params;
            params.retain(|(k, _)| k != "min_width_frac");
            if let Json::Obj(fields) = &mut crippled {
                for (k, v) in fields.iter_mut() {
                    if k == "params" {
                        *v = Json::Obj(params.clone());
                    }
                }
            }
        }
        assert!(options_from_json(&crippled).is_err());
    }

    #[test]
    fn shard_request_and_outcomes_round_trip() {
        let q = shapesearch_parser::parse_regex("[p=up][p=down]").unwrap();
        let queries = vec![(q.clone(), 3), (q, 7)];
        let hints = vec![Some(0.625), None];
        let wire =
            shard_request_to_json("sales", &queries, &hints, &EngineOptions::default(), None);
        let req = shard_request_from_json(&json::parse(&wire.to_text()).unwrap()).unwrap();
        assert_eq!(req.dataset, "sales");
        assert_eq!(req.queries.len(), 2);
        assert_eq!(req.queries[0].1, 3);
        assert_eq!(req.queries[1].1, 7);
        assert_eq!(req.queries[0].0, queries[0].0);
        assert_eq!(req.hints, hints, "hints round-trip, null included");
        assert_eq!(req.trace_id, None, "untraced requests omit trace_id");

        // A traced fan-out carries its ID to the shard server.
        let traced = shard_request_to_json(
            "sales",
            &queries,
            &hints,
            &EngineOptions::default(),
            Some("deadbeef01234567"),
        );
        let req = shard_request_from_json(&json::parse(&traced.to_text()).unwrap()).unwrap();
        assert_eq!(req.trace_id.as_deref(), Some("deadbeef01234567"));

        // `threshold_hint` is required-but-nullable: dropping the key is
        // a malformed request, like any option-vocabulary skew.
        let stripped = wire.to_text().replace(",\"threshold_hint\":0.625", "");
        assert!(shard_request_from_json(&json::parse(&stripped).unwrap()).is_err());
        // So is each query's `k`: absent, it is never defaulted.
        let stripped = wire.to_text().replace("\"k\":3,", "");
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
        let reply =
            shard_outcomes_to_json("sales", &outcomes, &[Some(0.5), None], snapshot, 42, None);
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
        assert_eq!(back.pruned_bounds, vec![Some(0.5), None]);
        assert!(back.spans.is_empty());

        // A traced reply round-trips its span tree for router stitching.
        let shard_spans =
            vec![crate::obs::Span::new("shard_request", 42).with_detail("trace deadbeef01234567")];
        let traced = shard_outcomes_to_json(
            "sales",
            &outcomes,
            &[Some(0.5), None],
            snapshot,
            42,
            Some(&shard_spans),
        );
        let back = shard_outcomes_from_json(&json::parse(&traced.to_text()).unwrap(), 2).unwrap();
        assert_eq!(back.spans, shard_spans);
        let err = back.outcomes[1].as_ref().unwrap_err();
        assert_eq!(err.status, 502);
        assert_eq!(err.code, Some("shard_unavailable"));
        assert!(err.message.contains("10.0.0.9:7878"));
        // Outcome-count mismatches are malformed replies.
        assert!(shard_outcomes_from_json(&json::parse(&reply.to_text()).unwrap(), 3).is_err());
        // So is an `Ok` outcome whose `pruned_bound` is mistyped or
        // absent: read as "no hint debt" it would pass unverified.
        for lie in ["\"pruned_bound\":\"0.5\"", "\"pruned_bound_\":0.5"] {
            let lied = reply.to_text().replace("\"pruned_bound\":0.5", lie);
            assert_ne!(lied, reply.to_text());
            assert!(shard_outcomes_from_json(&json::parse(&lied).unwrap(), 2).is_err());
        }
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
        let back = results_from_json(&json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, results);
        assert_eq!(results_to_json(&back).to_text(), text);
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
            algo: None,
            bin_width: None,
            pushdown: None,
            parallel: None,
            pruning: None,
            explain: false,
            partial: false,
        };
        let (nl_query, _) = parse_query(&nl_req).unwrap();
        let direct = shapesearch_parser::parse_regex(&nl_query.to_string()).unwrap();
        assert_eq!(nl_query, direct, "canonical text must reparse identically");
    }
}
