//! Shared application state, routing, and the route handlers that are
//! not the query pipeline: dataset and registry routes, the shard-server
//! route, and the two `POST /query` response envelopes.
//!
//! `POST /query` accepts a single query object or an array of them, and
//! both forms run through the one pipeline in the `exec` module
//! (`resolve_items` — a single query is a batch of one). They differ
//! only in how the resolved items are rendered: `single_envelope`
//! (the item's error becomes the HTTP status; `micros`, `shard_micros`,
//! the `request` explain tree, the per-query slow-log line) and
//! `batch_envelope` (`{"batch","micros","responses"}`, per-item error
//! objects, flat item traces, the `batch=N` slow-log line). `GET
//! /healthz` and `GET /metrics` are the two renderings of one
//! [`StatsSnapshot`] ([`crate::stats`]).

use crate::cache::{options_fingerprint, PlanCache, QueryCache};
use crate::catalog::{Catalog, DataSource, DatasetEntry, DatasetSpec, REGISTRY_TTL_SECS};
use crate::client::PooledClient;
use crate::compute::ComputePool;
use crate::error::ServerError;
use crate::exec::{execute_on_shards, resolve_items, Resolved, Source};
use crate::http::{Request, Response};
use crate::json::{self, obj, Json};
use crate::obs::{self, Span, TraceId};
use crate::protocol::{self, QueryRequest};
use crate::stats::{Stats, StatsSnapshot};
use shapesearch_core::{EngineOptions, PruningSnapshot};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

/// Shared application state, one per server.
pub struct AppState {
    /// Registered datasets with their hot, immutable sharded engines.
    pub catalog: Catalog,
    /// Query-result LRU with singleflight request coalescing.
    pub cache: QueryCache,
    /// The plan memo: query text → AST, NL notes and canonical text, as
    /// large as the result cache.
    pub plans: PlanCache,
    /// The shared compute pool shard tasks fan out on (HTTP workers
    /// submit to it and help drain it while they wait).
    pub compute: ComputePool,
    /// The connection-pooled RPC client remote shard tasks go out on.
    pub remote: PooledClient,
    /// The one registry the query pipeline writes: queries received,
    /// request and per-stage latency histograms, local shard tasks, §6.3
    /// pruning, per-endpoint RPCs.
    pub stats: Stats,
    /// Per-dataset engine defaults; requests may override per call.
    pub default_options: EngineOptions,
    /// Worker-pool size, echoed in `/healthz`.
    pub workers: usize,
    /// Maximum number of queries one `POST /query` batch may carry;
    /// larger batches get a structured `batch_too_large` 400.
    pub max_batch: usize,
    /// Directory that `POST /datasets` `path` sources must live under.
    /// `None` (the default) disables path registration over HTTP
    /// entirely — otherwise any network client could read arbitrary
    /// server-local files. In-process registration (CLI preload) is
    /// unrestricted.
    pub data_root: Option<PathBuf>,
    /// Process start (monotonic), for `uptime_secs`.
    pub started: Instant,
    /// Process start as Unix epoch seconds, for `started_at`.
    pub started_at_epoch: u64,
    /// `POST /query` requests slower than this many microseconds emit a
    /// structured `slow-query` stderr line carrying the trace ID; `0`
    /// disables the log.
    pub slow_query_micros: u64,
    /// Connection counters maintained by the evented HTTP core, exposed
    /// in the `/healthz` `connections` block and the
    /// `shapesearch_connections_*` metrics series. Shared with
    /// [`crate::http::serve`] through [`crate::http::HttpConfig`].
    pub conn_stats: Arc<crate::http::ConnStats>,
    /// The engine defaults as they were when their fingerprint was
    /// taken, and that fingerprint: rendered once, and used only while
    /// `default_options` still equals the copy.
    defaults_fp: (EngineOptions, Arc<str>),
}

impl AppState {
    /// Builds fresh state: an empty catalog whose registrations default
    /// to `shards` engine shards (0 = auto: available parallelism), a
    /// cold cache of `cache_capacity` entries, a compute pool of
    /// `workers` threads, and the default batch cap
    /// ([`protocol::MAX_BATCH_SIZE`]).
    pub fn new(
        cache_capacity: usize,
        workers: usize,
        data_root: Option<PathBuf>,
        shards: usize,
    ) -> Self {
        let defaults = EngineOptions::default();
        Self {
            catalog: Catalog::with_default_shards(shards),
            cache: QueryCache::new(cache_capacity),
            plans: PlanCache::new(cache_capacity),
            compute: ComputePool::new(workers),
            remote: PooledClient::new(),
            stats: Stats::default(),
            default_options: defaults.clone(),
            workers,
            max_batch: protocol::MAX_BATCH_SIZE,
            data_root,
            started: Instant::now(),
            started_at_epoch: SystemTime::now()
                .duration_since(UNIX_EPOCH)
                .map(|d| d.as_secs())
                .unwrap_or(0),
            slow_query_micros: 0,
            conn_stats: Arc::new(crate::http::ConnStats::default()),
            defaults_fp: (defaults.clone(), options_fingerprint(&defaults).into()),
        }
    }

    /// A request's effective options and their fingerprint. The
    /// fingerprint is the defaults' own, rendered once, when the request
    /// overrides nothing and the defaults still equal what it was taken
    /// of; otherwise it is rendered now.
    pub(crate) fn effective_options(&self, req: &QueryRequest) -> (EngineOptions, Arc<str>) {
        let options = req.effective_options(&self.default_options);
        let (taken_of, fingerprint) = &self.defaults_fp;
        let fingerprint = if req.overrides_nothing() && *taken_of == self.default_options {
            Arc::clone(fingerprint)
        } else {
            options_fingerprint(&options).into()
        };
        (options, fingerprint)
    }

    /// Registers a dataset — the one path for `POST /datasets` and a
    /// `--data`/`--snapshot` preload — and books its stages:
    /// `register_parse` (the source parse or snapshot open, plus
    /// `decode`, the request body's JSON decode: zero in process),
    /// `register_extract` and `register_group`. A replaced dataset's
    /// generation is retired from the query cache, so neither its results
    /// nor its stale in-flight completions can surface again.
    ///
    /// # Errors
    /// As [`Catalog::register`].
    pub fn register(
        &self,
        spec: DatasetSpec,
        decode: Duration,
    ) -> Result<Arc<DatasetEntry>, ServerError> {
        let (entry, replaced, times) = self.catalog.register_replacing(spec)?;
        self.stats
            .stage(obs::Stage::RegisterParse, decode + times.parse);
        self.stats.stage(obs::Stage::RegisterExtract, times.extract);
        self.stats.stage(obs::Stage::RegisterGroup, times.group);
        if let Some(old) = replaced {
            self.cache.retire(old);
        }
        Ok(entry)
    }
}

/// Validates an HTTP-supplied `path` source against the configured data
/// root. Canonicalizes both sides so `..` hops and symlinks can't
/// escape the sandbox, and returns the canonicalized path — the caller
/// must load *that*, not the client's original string, or a symlink
/// swapped in between check and open would re-escape (TOCTOU).
fn check_path_source(path: &str, data_root: Option<&Path>) -> Result<PathBuf, ServerError> {
    let Some(root) = data_root else {
        return Err(ServerError::bad_request(
            "`path`/`snapshot` registration over HTTP is disabled; start the server \
             with --data-root, or send the data inline via `csv`/`jsonl`",
        ));
    };
    let root = root
        .canonicalize()
        .map_err(|e| ServerError::internal(format!("data root unusable: {e}")))?;
    let resolved = Path::new(path)
        .canonicalize()
        .map_err(|e| ServerError::bad_request(format!("loading dataset: {e}")))?;
    if !resolved.starts_with(&root) {
        return Err(ServerError::bad_request(format!(
            "`path` must be under the data root {}",
            root.display()
        )));
    }
    Ok(resolved)
}

fn ok(body: Json) -> Response {
    Response::json(200, body.to_text())
}

fn fail(err: &ServerError) -> Response {
    Response::json(err.status, protocol::error_to_json(err).to_text())
}

/// Dispatches one request. Unknown routes get 404, wrong methods 405.
/// Query strings are ignored for routing (`/healthz?verbose=1` is
/// `/healthz`).
pub fn route(state: &Arc<AppState>, request: &Request) -> Response {
    let path = request.path.split('?').next().unwrap_or("");
    let result = match (request.method.as_str(), path) {
        ("GET", "/healthz") => Ok(ok(StatsSnapshot::gather(state).to_healthz())),
        ("GET", "/metrics") => Ok(Response::metrics_text(
            200,
            StatsSnapshot::gather(state).to_metrics(),
        )),
        ("GET", "/datasets") => Ok(list_datasets(state)),
        ("POST", "/datasets") => register_dataset(state, request),
        ("POST", "/query") => query(state, request),
        ("POST", "/shard/query") => shard_query(state, request),
        ("POST", "/registry/heartbeat") => registry_heartbeat(state, request),
        ("GET", "/registry") => Ok(registry_list(state)),
        (
            _,
            "/healthz"
            | "/metrics"
            | "/datasets"
            | "/query"
            | "/shard/query"
            | "/registry"
            | "/registry/heartbeat",
        ) => Err(ServerError {
            status: 405,
            message: format!("method {} not allowed here", request.method),
            code: None,
        }),
        _ => Err(ServerError::not_found(format!(
            "no route {} {}",
            request.method, request.path
        ))),
    };
    result.unwrap_or_else(|e| fail(&e))
}

fn body_json(request: &Request) -> Result<Json, ServerError> {
    let text = request
        .body_text()
        .map_err(|_| ServerError::bad_request("body is not utf-8"))?;
    json::parse(text).map_err(|e| ServerError::bad_request(format!("invalid JSON body: {e}")))
}

fn list_datasets(state: &Arc<AppState>) -> Response {
    let datasets: Vec<Json> = state
        .catalog
        .list()
        .iter()
        .map(|e| protocol::dataset_to_json(e))
        .collect();
    ok(obj([("datasets", Json::Arr(datasets))]))
}

fn register_dataset(state: &Arc<AppState>, request: &Request) -> Result<Response, ServerError> {
    let started = Instant::now();
    let body = body_json(request)?;
    let decode = started.elapsed();
    let mut spec = protocol::dataset_spec_from_json(body)?;
    if let DataSource::Path(path) | DataSource::Snapshot(path) = &mut spec.source {
        let resolved = check_path_source(path, state.data_root.as_deref())?;
        *path = resolved.to_string_lossy().into_owned();
    }
    let entry = state.register(spec, decode)?;
    Ok(Response::json(
        201,
        protocol::dataset_to_json(&entry).to_text(),
    ))
}

/// `POST /registry/heartbeat`: a shard server announcing (or refreshing)
/// that it serves one partition of a dataset. Heartbeats feed the
/// in-memory placement registry that `"shard_endpoints": "registry"`
/// registrations resolve against; an entry stays fresh for
/// [`REGISTRY_TTL_SECS`] and is simply re-announced on the sender's
/// cadence.
fn registry_heartbeat(state: &Arc<AppState>, request: &Request) -> Result<Response, ServerError> {
    let body = body_json(request)?;
    let (dataset, (shard, shards), endpoint) = protocol::heartbeat_from_json(&body)?;
    state
        .catalog
        .registry()
        .heartbeat(&dataset, shard, shards, &endpoint)?;
    Ok(ok(obj([("registered", true.into())])))
}

/// `GET /registry`: the placement registry's current contents — every
/// heartbeat row with its age and freshness, stale rows included (they
/// are what an operator needs to see to debug a dead shard server).
fn registry_list(state: &Arc<AppState>) -> Response {
    let entries: Vec<Json> = state
        .catalog
        .registry()
        .snapshot()
        .iter()
        .map(protocol::registry_entry_to_json)
        .collect();
    ok(obj([
        ("entries", Json::Arr(entries)),
        ("ttl_secs", REGISTRY_TTL_SECS.into()),
    ]))
}

/// `POST /shard/query`: this process acting as a **shard server**. Runs
/// the RPC's query group over the addressed dataset's own partition map
/// (typically the single partition a `--shard-of` registration owns, but
/// composable: a mid-tier router's shards — local or remote — answer the
/// same way) and replies with per-query exact partials and this RPC's
/// pruning counters. Deliberately bypasses the result cache: the router
/// caches the *merged* answer under a key that already fingerprints this
/// shard's placement, and double-caching partials would double the
/// memory for zero extra hits.
fn shard_query(state: &Arc<AppState>, request: &Request) -> Result<Response, ServerError> {
    let body = body_json(request)?;
    let req = protocol::shard_request_from_json(&body)?;
    let entry = state
        .catalog
        .get(&req.dataset)
        .ok_or_else(|| ServerError::not_found(format!("unknown dataset `{}`", req.dataset)))?;
    state.stats.count_shard_query();
    let started = Instant::now();
    let exec = execute_on_shards(
        state,
        &entry,
        req.queries,
        &req.options,
        req.trace_id.as_deref(),
    );
    let elapsed = started.elapsed();
    state.stats.shard_requests.record(elapsed);
    let micros = elapsed.as_micros() as u64;
    // A traced RPC replies with this server's own span tree under one
    // root, so the router stitches a cross-process trace whose remote
    // branches carry the remote servers' own timings.
    let spans = req.trace_id.as_deref().map(|trace_id| {
        let mut root = Span::new("shard_request", micros).with_detail(format!("trace {trace_id}"));
        root.children = exec.spans;
        vec![root]
    });
    Ok(ok(protocol::shard_outcomes_to_json(
        &entry.id,
        &exec.outcomes,
        &[],
        exec.pruning,
        micros,
        spans.as_deref(),
    )))
}

/// `POST /query`: resolves the body's items through the one pipeline and
/// hands them to the envelope matching the body's form.
fn query(state: &Arc<AppState>, request: &Request) -> Result<Response, ServerError> {
    let received = Instant::now();
    let body = body_json(request)?;
    let items = match &body {
        Json::Arr(items) => {
            if let Some(refusal) = refuse_batch(items.len(), state.max_batch) {
                return Ok(refusal);
            }
            items.as_slice()
        }
        single => std::slice::from_ref(single),
    };
    // Counted on receipt, so `queries` means "queries that reached
    // planning", whether or not they planned cleanly.
    state.stats.count_queries(items.len());
    let trace_id = TraceId::default();
    let started = Instant::now();
    let mut resolved = resolve_items(state, items, &trace_id);
    let micros = started.elapsed().as_micros() as u64;
    if matches!(body, Json::Arr(_)) {
        Ok(batch_envelope(
            state, received, micros, &trace_id, &resolved,
        ))
    } else {
        let item = resolved.pop().expect("one result per item")?;
        Ok(single_envelope(state, received, micros, &trace_id, &item))
    }
}

/// The refusal for a batch of `len` items the pipeline must not run, if
/// any: an empty batch, or one over the server's cap (structured so
/// clients can split and retry programmatically instead of
/// pattern-matching an error string).
fn refuse_batch(len: usize, max_batch: usize) -> Option<Response> {
    if len == 0 {
        return Some(fail(&ServerError::bad_request(
            "batch must contain at least one query object",
        )));
    }
    (len > max_batch).then(|| {
        let message =
            format!("batch of {len} queries exceeds this server's maximum of {max_batch}");
        let body = obj([
            ("error", message.into()),
            ("code", "batch_too_large".into()),
            ("max_batch", max_batch.into()),
            ("batch_len", len.into()),
        ]);
        Response::json(400, body.to_text())
    })
}

/// The per-query response body shared by the two envelopes. Only the
/// single form carries `micros` (a batch reports one wall-clock figure
/// for the whole request instead) and, with it, `shard_micros` — the
/// per-shard time of the computation this response came from, present
/// only when this very request did the computing (absent on cache hits
/// and coalesced waits).
fn query_response(item: &Resolved, single_micros: Option<u64>) -> Json {
    let planned = &item.planned;
    let mut fields = vec![
        ("dataset", Json::Str(planned.entry.id.clone())),
        // The plan's canonical text: the cache key's query part.
        ("query", Json::Str(planned.plan.canon.to_string())),
        ("k", planned.k.into()),
        ("algo", planned.options.segmenter.name().into()),
        ("shards", planned.entry.shard_count.into()),
        ("cached", item.led().is_none().into()),
        ("coalesced", matches!(item.source, Source::Coalesced).into()),
    ];
    if let Some(micros) = single_micros {
        fields.push(("micros", micros.into()));
        if let Some(led) = item.led() {
            let shard_micros = led.shard_micros.iter().map(|&m| m.into()).collect();
            fields.push(("shard_micros", Json::Arr(shard_micros)));
        }
    }
    if let Some(degraded) = &item.degraded {
        // The one block that marks an answer as inexact: which
        // partitions are missing, and the replica trail of each failure.
        let missing = degraded.missing.iter().map(|&s| s.into()).collect();
        let errors = degraded
            .errors
            .iter()
            .map(|(slot, message)| {
                obj([
                    ("shard", (*slot).into()),
                    ("error", message.as_str().into()),
                ])
            })
            .collect();
        fields.push((
            "degraded",
            obj([
                ("missing_shards", Json::Arr(missing)),
                ("errors", Json::Arr(errors)),
            ]),
        ));
    }
    fields.push(("results", protocol::results_to_json(&item.value)));
    let notes = &planned.plan.notes;
    if !notes.is_empty() {
        fields.push((
            "notes",
            Json::Arr(notes.iter().map(|n| Json::Str(n.clone())).collect()),
        ));
    }
    obj(fields)
}

/// Attaches an explained item's `trace` object to its response body.
fn push_trace(response: &mut Json, trace_id: &str, spans: &[Span], pruning: PruningSnapshot) {
    if let Json::Obj(fields) = response {
        fields.push((
            "trace".to_owned(),
            obj([
                ("trace_id", trace_id.into()),
                ("spans", obs::spans_to_json(spans)),
                ("pruning", protocol::pruning_to_json(pruning)),
            ]),
        ));
    }
}

/// The single-query envelope: the item's own response body with
/// `micros` (resolve time, planning excluded) and — when explained — one
/// stitched tree: parse → cache → the fan-out (per-shard spans, remote
/// servers' own timings included) → serialize (envelope assembly).
/// `Serialize` runs from the first field to the finished text, as in
/// the batch envelope; the trace is the body's last field, so its
/// `request` and `serialize` spans end where the trace begins.
fn single_envelope(
    state: &AppState,
    received: Instant,
    micros: u64,
    trace_id: &TraceId,
    item: &Resolved,
) -> Response {
    let micros = micros.saturating_sub(item.plan_micros);
    let serialize_started = Instant::now();
    let mut response = query_response(item, Some(micros));
    if item.planned.explain {
        let total_micros = received.elapsed().as_micros() as u64;
        let serialize_micros = serialize_started.elapsed().as_micros() as u64;
        let trace_id = trace_id.get();
        let mut root = Span::new("request", total_micros).with_detail(format!("trace {trace_id}"));
        root.push(item.plan_span());
        root.children.extend(item.lookup_spans());
        if let Some(led) = item.led() {
            let mut fanout = Span::new("shard_fanout", micros);
            fanout.children = led.spans.clone();
            root.push(fanout);
        }
        root.push(Span::new(obs::Stage::Serialize.name(), serialize_micros));
        let pruning = item.led().map(|led| led.pruning).unwrap_or_default();
        push_trace(&mut response, trace_id, &[root], pruning);
    }
    let body = response.to_text();
    state
        .stats
        .stage(obs::Stage::Serialize, serialize_started.elapsed());
    let total = received.elapsed();
    state.stats.requests.record(total);
    let total_micros = total.as_micros() as u64;
    if state.slow_query_micros > 0 && total_micros >= state.slow_query_micros {
        eprintln!(
            "slow-query trace_id={} dataset={} query={} micros={total_micros} cached={}",
            trace_id.get(),
            item.planned.entry.id,
            item.planned.plan.canon,
            item.led().is_none()
        );
    }
    Response::json(200, body)
}

/// The batch envelope: `{"batch","micros","responses"}` with one slot
/// per item — a response body or a per-item `{"error","status"}` object
/// that does not fail the batch. Items share the request's trace ID;
/// each explained item carries the spans of how *it* was resolved — its
/// group's fan-out when it led, its cache outcome otherwise.
fn batch_envelope(
    state: &AppState,
    received: Instant,
    micros: u64,
    trace_id: &TraceId,
    items: &[Result<Resolved, ServerError>],
) -> Response {
    let serialize_started = Instant::now();
    let responses: Vec<Json> = items
        .iter()
        .map(|item| match item {
            Ok(item) => {
                let mut response = query_response(item, None);
                if item.planned.explain {
                    let lookup = item.lookup_spans();
                    let (spans, pruning) = match item.led() {
                        Some(led) => (led.spans.as_slice(), led.pruning),
                        None => (lookup.as_slice(), PruningSnapshot::default()),
                    };
                    push_trace(&mut response, trace_id.get(), spans, pruning);
                }
                response
            }
            Err(e) => protocol::error_item_to_json(e),
        })
        .collect();
    let response = ok(obj([
        ("batch", items.len().into()),
        ("micros", micros.into()),
        ("responses", Json::Arr(responses)),
    ]));
    state
        .stats
        .stage(obs::Stage::Serialize, serialize_started.elapsed());
    let total = received.elapsed();
    state.stats.requests.record(total);
    let total_micros = total.as_micros() as u64;
    if state.slow_query_micros > 0 && total_micros >= state.slow_query_micros {
        eprintln!(
            "slow-query trace_id={} batch={} micros={total_micros}",
            trace_id.get(),
            items.len()
        );
    }
    response
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CacheKey;
    use crate::fixtures::haystack_csv;

    const CSV: &str = "z,x,y\\na,1,1\\na,2,3\\na,3,1\\nb,1,3\\nb,2,2\\nb,3,1\\n";

    fn state() -> Arc<AppState> {
        Arc::new(AppState::new(16, 2, None, 1))
    }

    fn post(path: &str, body: &str) -> Request {
        Request {
            method: "POST".into(),
            path: path.into(),
            headers: Vec::new(),
            body: body.as_bytes().to_vec(),
        }
    }

    fn get(path: &str) -> Request {
        Request {
            method: "GET".into(),
            path: path.into(),
            headers: Vec::new(),
            body: Vec::new(),
        }
    }

    fn register(state: &Arc<AppState>) {
        let body = format!(r#"{{"name":"t","id":"t1","csv":"{CSV}","z":"z","x":"x","y":"y"}}"#);
        let resp = route(state, &post("/datasets", &body));
        assert_eq!(resp.status, 201, "{}", resp.body);
    }

    #[test]
    fn full_route_cycle() {
        let state = state();
        register(&state);

        let listing = route(&state, &get("/datasets"));
        assert_eq!(listing.status, 200);
        assert!(listing.body.contains("\"id\":\"t1\""), "{}", listing.body);

        let q = r#"{"dataset":"t1","query":"[p=up][p=down]","k":1}"#;
        let first = route(&state, &post("/query", q));
        assert_eq!(first.status, 200, "{}", first.body);
        assert!(first.body.contains("\"cached\":false"), "{}", first.body);
        assert!(first.body.contains("\"key\":\"a\""), "{}", first.body);

        let second = route(&state, &post("/query", q));
        assert!(second.body.contains("\"cached\":true"), "{}", second.body);

        let health = route(&state, &get("/healthz"));
        assert!(health.body.contains("\"hits\":1"), "{}", health.body);
        assert!(health.body.contains("\"misses\":1"), "{}", health.body);
        assert!(health.body.contains("\"queries\":2"), "{}", health.body);
    }

    #[test]
    fn query_strings_are_ignored_for_routing() {
        let state = state();
        let resp = route(&state, &get("/healthz?verbose=1"));
        assert_eq!(resp.status, 200, "{}", resp.body);
        assert!(resp.body.contains("\"status\":\"ok\""));
    }

    #[test]
    fn path_registration_is_gated_by_data_root() {
        let dir = std::env::temp_dir().join(format!("ss-data-root-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let inside = dir.join("ok.csv");
        std::fs::write(&inside, "z,x,y\na,1,1\na,2,2\n").unwrap();
        let body = |path: &std::path::Path| {
            format!(
                r#"{{"name":"p","id":"p1","path":"{}","z":"z","x":"x","y":"y"}}"#,
                path.display()
            )
        };

        // Without a data root, HTTP path registration is refused.
        let closed = state();
        let resp = route(&closed, &post("/datasets", &body(&inside)));
        assert_eq!(resp.status, 400, "{}", resp.body);
        assert!(resp.body.contains("disabled"), "{}", resp.body);

        // With a data root: inside is allowed, escapes are not.
        let open = Arc::new(AppState::new(16, 2, Some(dir.clone()), 1));
        let resp = route(&open, &post("/datasets", &body(&inside)));
        assert_eq!(resp.status, 201, "{}", resp.body);
        let escape = dir.join("..").join("outside.csv");
        std::fs::write(dir.parent().unwrap().join("outside.csv"), "z,x,y\na,1,1\n").unwrap();
        let resp = route(&open, &post("/datasets", &body(&escape)));
        assert_eq!(resp.status, 400, "{}", resp.body);
        assert!(resp.body.contains("data root"), "{}", resp.body);

        std::fs::remove_file(dir.parent().unwrap().join("outside.csv")).ok();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stale_inflight_insert_cannot_poison_new_generation() {
        let state = state();
        register(&state);
        let old = state.catalog.get("t1").unwrap();
        let q = shapesearch_parser::parse_regex("[p=up]").unwrap();
        let old_key = CacheKey::new(
            &old.id,
            old.generation,
            old.shard_count,
            &old.placement_fp,
            &q,
            1,
            &state.default_options,
        );
        // Re-register (bumps the generation), then emulate a slow
        // in-flight query against the OLD engine finishing late and
        // inserting its stale results.
        register(&state);
        state.cache.insert(old_key, Arc::new(Vec::new()));
        // A fresh query keys on the new generation: it must recompute,
        // not hit the stale entry.
        let resp = route(
            &state,
            &post("/query", r#"{"dataset":"t1","query":"[p=up]","k":1}"#),
        );
        assert_eq!(resp.status, 200, "{}", resp.body);
        assert!(resp.body.contains("\"cached\":false"), "{}", resp.body);
        assert!(resp.body.contains("\"results\":[{"), "{}", resp.body);
    }

    /// The cache's lock poisoned by a thread that panicked holding it:
    /// queries still compute and hit, and `/healthz` still answers.
    #[test]
    fn poisoned_cache_locks_still_answer() {
        let state = state();
        register(&state);
        state.cache.poison();
        let q = r#"{"dataset":"t1","query":"[p=up]","k":1}"#;
        for cached in ["false", "true"] {
            let resp = route(&state, &post("/query", q));
            assert_eq!(resp.status, 200, "{}", resp.body);
            let flag = format!("\"cached\":{cached}");
            assert!(resp.body.contains(&flag), "{}", resp.body);
        }
        let health = route(&state, &get("/healthz"));
        assert_eq!(health.status, 200, "{}", health.body);
        assert!(health.body.contains("\"hits\":1,"), "{}", health.body);
    }

    #[test]
    fn unknown_routes_and_methods() {
        let state = state();
        assert_eq!(route(&state, &get("/nope")).status, 404);
        assert_eq!(route(&state, &get("/query")).status, 405);
        assert_eq!(route(&state, &post("/healthz", "")).status, 405);
    }

    #[test]
    fn a_chain_wider_than_sixteen_units_is_400() {
        let state = state();
        register(&state);
        let chain = |units: usize| "[p=up][p=down]".repeat(units / 2) + &"[p=up]".repeat(units % 2);
        let query = |units| format!(r#"{{"dataset":"t1","query":"{}","k":1}}"#, chain(units));
        let widest = route(&state, &post("/query", &query(16)));
        assert_eq!(widest.status, 200, "{}", widest.body);
        let wider = route(&state, &post("/query", &query(17)));
        assert_eq!(wider.status, 400, "{}", wider.body);
        assert!(
            wider.body.contains("more than 16 segments"),
            "{}",
            wider.body
        );
    }

    #[test]
    fn bad_query_bodies_are_400() {
        let state = state();
        register(&state);
        for body in [
            "not json",
            r#"{"dataset":"t1"}"#,
            r#"{"dataset":"t1","query":"[p=bogus...""#,
            r#"{"dataset":"t1","query":"[p=up]","algo":"warp"}"#,
        ] {
            let resp = route(&state, &post("/query", body));
            assert_eq!(resp.status, 400, "body `{body}` → {}", resp.body);
        }
        // A present-but-mistyped optional key is refused by name, never
        // replaced by its default.
        let mistyped = [
            (r#""k":"7""#, "field `k` must be a non-negative integer"),
            (r#""k":-1"#, "field `k` must be a non-negative integer"),
            (r#""k":2.5"#, "field `k` must be a non-negative integer"),
            (r#""algo":5"#, "field `algo` must be a string"),
            (r#""pruning":false"#, "field `pruning` must be a string"),
            (
                r#""bin_width":"x""#,
                "field `bin_width` must be a non-negative integer",
            ),
            (r#""pushdown":"no""#, "field `pushdown` must be a boolean"),
            (r#""explain":1"#, "field `explain` must be a boolean"),
            (r#""partial":"true""#, "field `partial` must be a boolean"),
        ];
        for (pair, message) in mistyped {
            let body = format!(r#"{{"dataset":"t1","query":"[p=up]",{pair}}}"#);
            let resp = route(&state, &post("/query", &body));
            assert_eq!(resp.status, 400, "body `{body}` → {}", resp.body);
            assert!(resp.body.contains(message), "body `{body}` → {}", resp.body);
        }
        // `null` is "not given", like absence.
        let body = r#"{"dataset":"t1","query":"[p=up]","k":null,"algo":null,"explain":null}"#;
        assert_eq!(route(&state, &post("/query", body)).status, 200);
        let resp = route(
            &state,
            &post("/query", r#"{"dataset":"missing","query":"[p=up]"}"#),
        );
        assert_eq!(resp.status, 404);
        // `queries` counts every query that reached planning — every
        // well-formed JSON body above: two of the first four, the
        // mistyped ones, the answered one and the missing dataset —
        // matching how batch items are counted; unparseable bodies never
        // become queries. Only the answered one touched the cache.
        assert_eq!(state.stats.queries(), 2 + mistyped.len() as u64 + 2);
        let stats = state.cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.coalesced), (0, 1, 0));
    }

    #[test]
    fn reregistering_dataset_invalidates_cache() {
        let state = state();
        register(&state);
        let q = r#"{"dataset":"t1","query":"[p=up]","k":1}"#;
        route(&state, &post("/query", q));
        assert_eq!(state.cache.stats().entries, 1);
        register(&state);
        assert_eq!(state.cache.stats().entries, 0);
    }

    #[test]
    fn batch_route_mixes_hits_misses_and_errors() {
        let state = state();
        register(&state);
        // Warm one key so the batch sees a genuine hit.
        let warm = route(
            &state,
            &post("/query", r#"{"dataset":"t1","query":"[p=up]","k":1}"#),
        );
        assert_eq!(warm.status, 200, "{}", warm.body);

        let body = r#"[
            {"dataset":"t1","query":"[p=up]","k":1},
            {"dataset":"t1","query":"[p=up][p=down]","k":2},
            {"dataset":"t1","query":"[p=up][p=down]","k":2},
            {"dataset":"missing","query":"[p=up]"},
            {"dataset":"t1","query":"[p=bogus"}
        ]"#;
        let resp = route(&state, &post("/query", body));
        assert_eq!(resp.status, 200, "{}", resp.body);
        let parsed = json::parse(&resp.body).unwrap();
        assert_eq!(parsed.get("batch").unwrap().as_usize(), Some(5));
        let responses = parsed.get("responses").unwrap().as_array().unwrap();
        assert_eq!(responses.len(), 5);

        // Item 0 was warmed: a hit.
        assert_eq!(responses[0].get("cached").unwrap().as_bool(), Some(true));
        // Item 1 is the cold lead; item 2 is its in-batch duplicate.
        assert_eq!(responses[1].get("cached").unwrap().as_bool(), Some(false));
        assert_eq!(responses[2].get("coalesced").unwrap().as_bool(), Some(true));
        assert_eq!(
            responses[1].get("results").unwrap().to_text(),
            responses[2].get("results").unwrap().to_text(),
            "duplicate items share one computation's results"
        );
        // Items 3 and 4 fail per-item without sinking the batch.
        assert_eq!(responses[3].get("status").unwrap().as_usize(), Some(404));
        assert_eq!(responses[4].get("status").unwrap().as_usize(), Some(400));

        // Counters: 1 warm single + 5 batch items; the duplicate counted
        // as coalesced, not as a second miss.
        let stats = state.cache.stats();
        assert_eq!(stats.misses, 2, "warm miss + one batch lead");
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.coalesced, 1);
        assert_eq!(state.stats.queries(), 6);
    }

    /// Each envelope books its whole rendering, up to the finished text,
    /// as one `Serialize` sample per request.
    #[test]
    fn each_envelope_records_one_serialize_sample() {
        let state = state();
        register(&state);
        let serialized = || {
            let snapshot = StatsSnapshot::gather(&state);
            snapshot.stages[obs::Stage::Serialize as usize].count()
        };
        let single = r#"{"dataset":"t1","query":"[p=up]","k":1}"#;
        let batch = r#"[{"dataset":"t1","query":"[p=up]","k":1},
                        {"dataset":"t1","query":"[p=down]","k":1,"explain":true}]"#;
        let explained = r#"{"dataset":"t1","query":"[p=up]","k":1,"explain":true}"#;
        let mut want = 0;
        for body in [single, batch, single, explained] {
            let reply = route(&state, &post("/query", body));
            assert_eq!(reply.status, 200, "{}", reply.body);
            want += 1;
            assert_eq!(serialized(), want, "{body}");
        }
    }

    /// One row of [`single_form_is_a_batch_of_items`]: how to build the
    /// state the items meet, and the items themselves.
    struct EnvelopeRow {
        name: &'static str,
        /// Builds a fresh state (with any shard servers it routes to,
        /// returned so they outlive the requests). Called twice per row,
        /// so the two forms meet identical-but-separate states.
        setup: fn() -> (Arc<AppState>, Vec<crate::Service>),
        items: Vec<String>,
        /// What the first item's single-form reply must contain — pins
        /// the row to the outcome it is named after.
        expect: &'static str,
        /// The test thread takes the singleflight lead on the item's key
        /// before sending, so the request coalesces onto a foreign flight.
        foreign_lead: bool,
    }

    fn haystack_state(extra: &str) -> Arc<AppState> {
        let state = state();
        let csv = haystack_csv().replace('\n', "\\n");
        let body =
            format!(r#"{{"name":"t","id":"t1","csv":"{csv}","z":"z","x":"x","y":"y"{extra}}}"#);
        let resp = route(&state, &post("/datasets", &body));
        assert_eq!(resp.status, 201, "{}", resp.body);
        state
    }

    /// Sends one `/query` body. With `foreign_lead`, first leads the
    /// body's key (`[p=up][p=down]`, k = 2 on `t1`) from this thread,
    /// waits until the request has coalesced onto that flight, and only
    /// then completes it.
    fn send(state: &Arc<AppState>, body: &str, foreign_lead: bool) -> Response {
        if !foreign_lead {
            return route(state, &post("/query", body));
        }
        let entry = state.catalog.get("t1").unwrap();
        let q = shapesearch_parser::parse_regex("[p=up][p=down]").unwrap();
        let key = CacheKey::new(
            &entry.id,
            entry.generation,
            entry.shard_count,
            &entry.placement_fp,
            &q,
            2,
            &state.default_options,
        );
        let crate::cache::Lookup::Lead(guard) = state.cache.lookup(&key) else {
            panic!("a fresh state must elect the first lookup leader");
        };
        let exec = execute_on_shards(state, &entry, vec![(q, 2)], &state.default_options, None);
        let value = Arc::new(exec.outcomes.into_iter().next().unwrap().unwrap());
        std::thread::scope(|scope| {
            let request = scope.spawn(|| route(state, &post("/query", body)));
            while state.cache.stats().coalesced == 0 {
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            guard.complete(value);
            request.join().unwrap()
        })
    }

    /// A response body (or batch slot) with everything that is a timing
    /// — or the per-item HTTP status a batch slot carries in-band —
    /// removed, so what is left must agree byte for byte.
    fn comparable(reply: &Json) -> String {
        let Json::Obj(fields) = reply else {
            panic!("not an object: {}", reply.to_text());
        };
        let kept = fields
            .iter()
            .filter(|(k, _)| !matches!(k.as_str(), "micros" | "shard_micros" | "trace" | "status"))
            .cloned()
            .collect();
        Json::Obj(kept).to_text()
    }

    /// A single query is a batch of one: for every shape of outcome, the
    /// object form and the array form agree on everything but timings —
    /// body, error, status, trace presence, and how the cache counters
    /// moved. Multi-item rows send the items once sequentially and once
    /// as one batch (cold both times), covering "batch ≡ sequential".
    #[test]
    fn single_form_is_a_batch_of_items() {
        fn item(extra: &str) -> String {
            format!(r#"{{"dataset":"t1","query":"[p=up][p=down]","k":2{extra}}}"#)
        }
        fn plain() -> (Arc<AppState>, Vec<crate::Service>) {
            (haystack_state(""), Vec::new())
        }
        fn warmed() -> (Arc<AppState>, Vec<crate::Service>) {
            let state = haystack_state("");
            assert_eq!(route(&state, &post("/query", &item(""))).status, 200);
            (state, Vec::new())
        }
        fn dead_replicas() -> (Arc<AppState>, Vec<crate::Service>) {
            let placement = r#","shard_endpoints":["local",["127.0.0.1:1","127.0.0.1:2"]]"#;
            (haystack_state(placement), Vec::new())
        }
        fn four_shards() -> (Arc<AppState>, Vec<crate::Service>) {
            (haystack_state(r#","shards":4"#), Vec::new())
        }
        fn mixed_placement() -> (Arc<AppState>, Vec<crate::Service>) {
            let config = crate::ServerConfig {
                workers: 2,
                ..crate::ServerConfig::default()
            };
            let shard_server = crate::serve("127.0.0.1:0", config).unwrap();
            let csv = haystack_csv().replace('\n', "\\n");
            let body = format!(
                r#"{{"name":"t","id":"t1","csv":"{csv}","z":"z","x":"x","y":"y","shard_of":"1/2"}}"#
            );
            let reply = route(shard_server.state(), &post("/datasets", &body));
            assert_eq!(reply.status, 201, "{}", reply.body);
            let placement = format!(r#","shard_endpoints":["local","{}"]"#, shard_server.addr());
            (haystack_state(&placement), vec![shard_server])
        }
        let row = |name, setup, items: &[String], expect| EnvelopeRow {
            name,
            setup,
            items: items.to_vec(),
            expect,
            foreign_lead: false,
        };
        let rows = [
            row("cold miss", plain, &[item("")], r#""cached":false"#),
            row(
                "hit",
                warmed,
                &[item("")],
                r#""cached":true,"coalesced":false"#,
            ),
            EnvelopeRow {
                foreign_lead: true,
                ..row(
                    "coalesced onto a foreign lead",
                    plain,
                    &[item("")],
                    r#""coalesced":true"#,
                )
            },
            row(
                "unknown dataset",
                plain,
                &[item("").replace("t1", "ghost")],
                "unknown dataset `ghost`",
            ),
            row(
                "malformed query",
                plain,
                &[item("").replace("[p=down]", "[p=bogus")],
                r#"{"error":"#,
            ),
            row(
                "explain",
                plain,
                &[item(r#","explain":true"#)],
                r#""name":"shard_fanout""#,
            ),
            row(
                "partial with a shard's every replica down",
                dead_replicas,
                &[item(r#","partial":true"#)],
                r#""degraded":{"missing_shards":[1]"#,
            ),
            row(
                "refused without partial",
                dead_replicas,
                &[item("")],
                r#""code":"shard_unavailable""#,
            ),
            row("4-shard local", four_shards, &[item("")], r#""shards":4"#),
            row(
                "mixed local+remote",
                mixed_placement,
                &[item("")],
                r#""shards":2,"cached":false"#,
            ),
            row(
                "three cold queries, one of them twice",
                plain,
                &[
                    item("").replace("[p=up][p=down]", "[p=up]"),
                    item(""),
                    item("").replace("[p=up][p=down]", "[p=down][p=up]"),
                    item(""),
                ],
                r#""cached":false"#,
            ),
        ];
        for row in rows {
            let name = row.name;
            let (single_state, single_servers) = (row.setup)();
            let singles: Vec<Response> = row
                .items
                .iter()
                .map(|item| send(&single_state, item, row.foreign_lead))
                .collect();
            assert!(
                singles[0].body.contains(row.expect),
                "{name}: {}",
                singles[0].body
            );
            let (batch_state, batch_servers) = (row.setup)();
            let body = format!("[{}]", row.items.join(","));
            let batch = send(&batch_state, &body, row.foreign_lead);
            assert_eq!(batch.status, 200, "{name}: {}", batch.body);
            let batch = json::parse(&batch.body).unwrap();
            let slots = batch.get("responses").unwrap().as_array().unwrap();
            assert_eq!(slots.len(), singles.len(), "{name}");
            for (i, (single, slot)) in singles.iter().zip(slots).enumerate() {
                let parsed = json::parse(&single.body).unwrap();
                // A repeat is a hit when sent on its own and coalesces
                // onto its twin's flight inside one batch; everything
                // else about it still agrees.
                let repeat = row.items[..i].contains(&row.items[i]);
                let strip = |reply: &Json| {
                    let text = comparable(reply);
                    match repeat {
                        true => text.replace(r#""coalesced":true"#, r#""coalesced":false"#),
                        false => text,
                    }
                };
                assert_eq!(strip(&parsed), strip(slot), "{name}, item {i}");
                let slot_status = slot.get("status").map_or(200, |s| s.as_usize().unwrap());
                assert_eq!(usize::from(single.status), slot_status, "{name}, item {i}");
                assert_eq!(
                    parsed.get("trace").is_some(),
                    slot.get("trace").is_some(),
                    "{name}, item {i}"
                );
                assert_eq!(
                    parsed.get("trace").is_some(),
                    row.items[i].contains("explain"),
                    "{name}, item {i}"
                );
            }
            let (single_stats, batch_stats) =
                (single_state.cache.stats(), batch_state.cache.stats());
            if row.items.len() == 1 {
                assert_eq!(single_stats, batch_stats, "{name}");
            } else {
                // The in-batch repeat moves one tick from `hits` to
                // `coalesced`; lookups and computations agree exactly.
                assert_eq!(single_stats.lookups, batch_stats.lookups, "{name}");
                assert_eq!(single_stats.misses, batch_stats.misses, "{name}");
                assert_eq!(
                    single_stats.hits + single_stats.coalesced,
                    batch_stats.hits + batch_stats.coalesced,
                    "{name}"
                );
            }
            assert_eq!(
                single_state.stats.queries(),
                batch_state.stats.queries(),
                "{name}"
            );
            for server in single_servers.into_iter().chain(batch_servers) {
                server.shutdown();
            }
        }
    }

    #[test]
    fn oversized_batch_gets_structured_400() {
        let mut raw = AppState::new(16, 2, None, 1);
        raw.max_batch = 3;
        let state = Arc::new(raw);
        register(&state);
        let item = r#"{"dataset":"t1","query":"[p=up]","k":1}"#;
        let body = format!("[{item},{item},{item},{item}]");
        let resp = route(&state, &post("/query", &body));
        assert_eq!(resp.status, 400, "{}", resp.body);
        let parsed = json::parse(&resp.body).unwrap();
        assert_eq!(
            parsed.get("code").unwrap().as_str(),
            Some("batch_too_large")
        );
        assert_eq!(parsed.get("max_batch").unwrap().as_usize(), Some(3));
        assert_eq!(parsed.get("batch_len").unwrap().as_usize(), Some(4));
        // An exactly-at-limit batch is fine.
        let ok_body = format!("[{item},{item},{item}]");
        assert_eq!(route(&state, &post("/query", &ok_body)).status, 200);
        // And an empty batch is a plain 400.
        assert_eq!(route(&state, &post("/query", "[]")).status, 400);
    }

    #[test]
    fn concurrent_identical_cold_queries_compute_once() {
        let state = state();
        register(&state);
        let n = 8;
        let bodies: Vec<String> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..n)
                .map(|_| {
                    let state = Arc::clone(&state);
                    scope.spawn(move || {
                        let resp = route(
                            &state,
                            &post(
                                "/query",
                                r#"{"dataset":"t1","query":"[p=up][p=down]","k":2}"#,
                            ),
                        );
                        assert_eq!(resp.status, 200, "{}", resp.body);
                        resp.body
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });

        // Every response carries identical results.
        let reference = json::parse(&bodies[0])
            .unwrap()
            .get("results")
            .unwrap()
            .to_text();
        for body in &bodies {
            let parsed = json::parse(body).unwrap();
            assert_eq!(parsed.get("results").unwrap().to_text(), reference);
        }
        // Exactly one engine computation happened: one miss elected one
        // leader; everyone else hit or coalesced.
        let stats = state.cache.stats();
        assert_eq!(stats.misses, 1, "stampede must elect exactly one leader");
        assert_eq!(stats.hits + stats.coalesced, n - 1);
    }

    #[test]
    fn nl_query_round_trips() {
        let state = state();
        register(&state);
        let q = r#"{"dataset":"t1","nl":"rising then falling","k":1}"#;
        let resp = route(&state, &post("/query", q));
        assert_eq!(resp.status, 200, "{}", resp.body);
        assert!(resp.body.contains("\"results\""), "{}", resp.body);
    }

    /// `nl` text is capped before translation starts: one byte past
    /// [`shapesearch_parser::MAX_NL_BYTES`] is a 400 naming the cap.
    #[test]
    fn nl_text_longer_than_the_cap_is_400() {
        let state = state();
        register(&state);
        let nl = |len: usize| format!("{:<len$}", "rising then falling");
        let body = |nl: String| format!(r#"{{"dataset":"t1","nl":"{nl}","k":1}}"#);
        let at_cap = route(&state, &post("/query", &body(nl(4096))));
        assert_eq!(at_cap.status, 200, "{}", at_cap.body);
        let over = route(&state, &post("/query", &body(nl(4097))));
        assert_eq!(over.status, 400, "{}", over.body);
        assert!(over.body.contains("longer than 4096"), "{}", over.body);
    }

    fn register_sharded(state: &Arc<AppState>, id: &str, shards: usize) {
        let body = format!(
            r#"{{"name":"t","id":"{id}","csv":"{CSV}","z":"z","x":"x","y":"y","shards":{shards}}}"#
        );
        let resp = route(state, &post("/datasets", &body));
        assert_eq!(resp.status, 201, "{}", resp.body);
        let parsed = json::parse(&resp.body).unwrap();
        assert_eq!(parsed.get("shards").unwrap().as_usize(), Some(shards));
    }

    #[test]
    fn dataset_listing_reports_resident_group_bytes() {
        let state = state();
        for shards in [1usize, 2] {
            let id = format!("g{shards}");
            register_sharded(&state, &id, shards);
            let entry = state.catalog.get(&id).unwrap();
            let want: usize = (0..shards)
                .map(|slot| entry.local_shard(slot).unwrap().grouped_byte_size())
                .sum();
            if shards == 1 {
                // Two 3-point trendlines on one x row. f64 cells: the
                // run's xs 3, sum_x and sum_xx 3 + 1 each; ys 6, sum_y
                // and sum_xy 6 + 2 each: 11 + 22 = 33. Offsets:
                // run_starts 2, runs 2, point_starts 3: 7. One unbuilt
                // angle cell and one GROUP handle a trendline.
                let cell = std::mem::size_of::<std::sync::OnceLock<Box<[f64]>>>();
                let handle = std::mem::size_of::<Option<shapesearch_core::VizData>>();
                assert_eq!(want, 8 * (33 + 7) + 2 * (cell + handle));
            }
            let listing = json::parse(&route(&state, &get("/datasets")).body).unwrap();
            let datasets = listing.get("datasets").unwrap().as_array().unwrap();
            let row = datasets
                .iter()
                .find(|d| d.get("id").and_then(Json::as_str) == Some(id.as_str()))
                .unwrap();
            assert_eq!(row.get("grouped_bytes").unwrap().as_usize(), Some(want));
        }
    }

    /// Each registration books one sample in each registration stage,
    /// and a refused one books none.
    #[test]
    fn each_registration_books_its_three_stages() {
        let state = state();
        let counts = || {
            let snapshot = StatsSnapshot::gather(&state);
            [
                obs::Stage::RegisterParse,
                obs::Stage::RegisterExtract,
                obs::Stage::RegisterGroup,
            ]
            .map(|stage| snapshot.stages[stage as usize].count())
        };
        register_sharded(&state, "a", 1);
        register_sharded(&state, "b", 2);
        assert_eq!(counts(), [2, 2, 2]);
        let refused = r#"{"name":"t","csv":"z,x\na,1\n","z":"z","x":"x","y":"nope"}"#;
        assert_eq!(route(&state, &post("/datasets", refused)).status, 400);
        assert_eq!(counts(), [2, 2, 2]);
    }

    #[test]
    fn shard_query_route_returns_mergeable_partials() {
        let state = state();
        register_sharded(&state, "t1", 2);

        // The same group over /query (merged) and /shard/query (partials
        // of the whole 2-shard entry — a shard server is just a server).
        let merged = route(
            &state,
            &post(
                "/query",
                r#"{"dataset":"t1","query":"[p=up][p=down]","k":2}"#,
            ),
        );
        assert_eq!(merged.status, 200, "{}", merged.body);
        let merged = json::parse(&merged.body).unwrap();

        let rpc_body = protocol::shard_request_to_json(
            "t1",
            &[(
                shapesearch_parser::parse_regex("[p=up][p=down]").unwrap(),
                2,
            )],
            &[None],
            &state.default_options,
            None,
        );
        let reply = route(&state, &post("/shard/query", &rpc_body.to_text()));
        assert_eq!(reply.status, 200, "{}", reply.body);
        // The reply carries its engine-side pruning counters.
        assert!(reply.body.contains("\"pruning\":{"), "{}", reply.body);
        let parsed = json::parse(&reply.body).unwrap();
        let partials = protocol::shard_outcomes_from_json(&parsed, 1).unwrap();
        let partial = partials.outcomes[0].as_ref().unwrap();
        // This entry holds the WHOLE collection, so its "partial" is
        // already the global answer — byte-identical to /query's.
        assert_eq!(
            protocol::results_to_json(partial).to_text(),
            merged.get("results").unwrap().to_text()
        );
        // Shard RPCs are counted apart from user queries.
        assert_eq!(state.stats.shard_queries(), 1);
        assert_eq!(state.stats.queries(), 1);
        // And they bypass the result cache entirely.
        assert_eq!(state.cache.stats().lookups, 1, "only /query looked up");

        // Per-query engine errors ride inside a 200 envelope.
        let rpc_body = protocol::shard_request_to_json(
            "t1",
            &[(
                shapesearch_core::ShapeQuery::pattern(shapesearch_core::Pattern::Udp(
                    "nope".into(),
                )),
                1,
            )],
            &[None],
            &state.default_options,
            None,
        );
        let reply = route(&state, &post("/shard/query", &rpc_body.to_text()));
        assert_eq!(reply.status, 200, "{}", reply.body);
        let partials =
            protocol::shard_outcomes_from_json(&json::parse(&reply.body).unwrap(), 1).unwrap();
        assert_eq!(partials.outcomes[0].as_ref().unwrap_err().status, 400);

        // Envelope-level failures: unknown dataset 404, malformed 400,
        // wrong method 405.
        let missing = rpc_body.to_text().replace("\"t1\"", "\"ghost\"");
        assert_eq!(route(&state, &post("/shard/query", &missing)).status, 404);
        assert_eq!(route(&state, &post("/shard/query", "{}")).status, 400);
        assert_eq!(route(&state, &get("/shard/query")).status, 405);
        // An absent per-query `k` is malformed, never defaulted.
        let no_k = rpc_body.to_text().replace(",\"k\":1", "");
        assert_ne!(no_k, rpc_body.to_text());
        assert_eq!(route(&state, &post("/shard/query", &no_k)).status, 400);
    }

    #[test]
    fn remote_placement_fans_out_over_http_and_degrades_structurally() {
        // A live in-process "shard server" owning partition 1 of 2…
        let shard_server = crate::serve(
            "127.0.0.1:0",
            crate::ServerConfig {
                workers: 2,
                ..crate::ServerConfig::default()
            },
        )
        .unwrap();
        let body = format!(
            r#"{{"name":"t","id":"t1","csv":"{CSV}","z":"z","x":"x","y":"y","shard_of":"1/2"}}"#
        );
        let reply = route(shard_server.state(), &post("/datasets", &body));
        assert_eq!(reply.status, 201, "{}", reply.body);

        // …and a router whose dataset places shard 0 locally and shard 1
        // on that server.
        let router = state();
        let body = format!(
            r#"{{"name":"t","id":"t1","csv":"{CSV}","z":"z","x":"x","y":"y",
                 "shard_endpoints":["local","{}"]}}"#,
            shard_server.addr()
        );
        let reply = route(&router, &post("/datasets", &body));
        assert_eq!(reply.status, 201, "{}", reply.body);
        assert!(
            reply.body.contains(&format!("\"{}\"", shard_server.addr())),
            "{}",
            reply.body
        );

        // Reference: the same dataset, all-local.
        register_sharded(&router, "ref", 2);
        let q = |ds: &str| format!(r#"{{"dataset":"{ds}","query":"[p=up][p=down]","k":2}}"#);
        let want = route(&router, &post("/query", &q("ref")));
        let got = route(&router, &post("/query", &q("t1")));
        assert_eq!(got.status, 200, "{}", got.body);
        let want = json::parse(&want.body).unwrap();
        let got = json::parse(&got.body).unwrap();
        assert_eq!(
            got.get("results").unwrap().to_text(),
            want.get("results").unwrap().to_text(),
            "mixed placement must be byte-identical to all-local"
        );

        // Healthz gained the endpoint's gauges.
        let health = route(&router, &get("/healthz"));
        let parsed = json::parse(&health.body).unwrap();
        let remote = parsed.get("remote_shards").unwrap();
        assert_eq!(remote.get("endpoints").unwrap().as_usize(), Some(1));
        assert_eq!(remote.get("requests").unwrap().as_usize(), Some(1));
        assert_eq!(remote.get("errors").unwrap().as_usize(), Some(0));
        let by = remote.get("by_endpoint").unwrap().as_array().unwrap();
        assert_eq!(
            by[0].get("endpoint").unwrap().as_str(),
            Some(shard_server.addr().to_string().as_str())
        );

        // Kill the shard server: the next *cold* query degrades to a
        // structured shard_unavailable naming the endpoint, and nothing
        // poisons the cache.
        let endpoint = shard_server.addr().to_string();
        shard_server.shutdown();
        let cold = route(
            &router,
            &post(
                "/query",
                r#"{"dataset":"t1","query":"[p=down][p=up]","k":1}"#,
            ),
        );
        assert_eq!(cold.status, 502, "{}", cold.body);
        assert!(
            cold.body.contains("\"code\":\"shard_unavailable\""),
            "{}",
            cold.body
        );
        assert!(cold.body.contains(&endpoint), "{}", cold.body);

        // The warmed key still hits; the failure did not evict it.
        let warm = route(&router, &post("/query", &q("t1")));
        assert!(warm.body.contains("\"cached\":true"), "{}", warm.body);
    }

    /// A trendline whose raw span is not finite never reaches a top k, so
    /// a router over a shard server answers exactly what one process does.
    /// Its NaN score would be served as `"score":null` by one process and
    /// refused as a malformed reply, a 502, by a router.
    #[test]
    fn non_finite_cells_answer_the_same_routed_and_local() {
        const INF_CSV: &str = "z,x,y\\na,1,1\\na,2,3\\na,3,1\\nb,1,3\\nb,2,inf\\nb,3,1\\n";
        let dataset = |extra: &str| {
            format!(r#"{{"name":"t","id":"t","csv":"{INF_CSV}","z":"z","x":"x","y":"y",{extra}}}"#)
        };
        let shard_server = crate::serve(
            "127.0.0.1:0",
            crate::ServerConfig {
                workers: 2,
                ..crate::ServerConfig::default()
            },
        )
        .unwrap();
        let reply = route(
            shard_server.state(),
            &post("/datasets", &dataset(r#""shard_of":"0/1""#)),
        );
        assert_eq!(reply.status, 201, "{}", reply.body);
        let router = state();
        let endpoints = format!(r#""shard_endpoints":["{}"]"#, shard_server.addr());
        let reply = route(&router, &post("/datasets", &dataset(&endpoints)));
        assert_eq!(reply.status, 201, "{}", reply.body);
        let local = state();
        let reply = route(&local, &post("/datasets", &dataset(r#""shards":1"#)));
        assert_eq!(reply.status, 201, "{}", reply.body);

        let query = r#"{"dataset":"t","query":"[p=up][p=down]","k":5}"#;
        let results = |state: &Arc<AppState>| {
            let reply = route(state, &post("/query", query));
            assert_eq!(reply.status, 200, "{}", reply.body);
            json::parse(&reply.body)
                .unwrap()
                .get("results")
                .unwrap()
                .to_text()
        };
        let routed = results(&router);
        let want = results(&local);
        assert_eq!(routed, want);
        assert!(want.contains("\"key\":\"a\""), "{want}");
        assert!(!want.contains("null"), "{want}");
        shard_server.shutdown();
    }

    #[test]
    fn failover_to_a_live_replica_keeps_results_exact() {
        // A live shard server owning partition 1 of 2…
        let shard_server = crate::serve(
            "127.0.0.1:0",
            crate::ServerConfig {
                workers: 2,
                ..crate::ServerConfig::default()
            },
        )
        .unwrap();
        let body = format!(
            r#"{{"name":"t","id":"t1","csv":"{CSV}","z":"z","x":"x","y":"y","shard_of":"1/2"}}"#
        );
        assert_eq!(
            route(shard_server.state(), &post("/datasets", &body)).status,
            201
        );

        // …and a router that lists a dead replica FIRST, so every cold
        // query must fail over to reach the live one.
        let router = state();
        let body = format!(
            r#"{{"name":"t","id":"t1","csv":"{CSV}","z":"z","x":"x","y":"y",
                 "shard_endpoints":["local",["127.0.0.1:1","{}"]]}}"#,
            shard_server.addr()
        );
        let reply = route(&router, &post("/datasets", &body));
        assert_eq!(reply.status, 201, "{}", reply.body);
        // The 201 reply names the replica set in placement order.
        assert!(
            reply
                .body
                .contains(&format!("\"127.0.0.1:1|{}\"", shard_server.addr())),
            "{}",
            reply.body
        );

        register_sharded(&router, "ref", 2);
        let q = |ds: &str| format!(r#"{{"dataset":"{ds}","query":"[p=up][p=down]","k":2}}"#);
        let want = route(&router, &post("/query", &q("ref")));
        let got = route(&router, &post("/query", &q("t1")));
        assert_eq!(got.status, 200, "{}", got.body);
        let want = json::parse(&want.body).unwrap();
        let got = json::parse(&got.body).unwrap();
        assert_eq!(
            got.get("results").unwrap().to_text(),
            want.get("results").unwrap().to_text(),
            "failover must be byte-identical to all-local"
        );

        // Healthz books the whole failover trail: one failed attempt on
        // the dead replica, one clean request on the live one, and the
        // totals reconcile with the per-endpoint rows.
        let health = route(&router, &get("/healthz"));
        let parsed = json::parse(&health.body).unwrap();
        let remote = parsed.get("remote_shards").unwrap();
        assert_eq!(remote.get("endpoints").unwrap().as_usize(), Some(2));
        let by = remote.get("by_endpoint").unwrap().as_array().unwrap();
        let row = |endpoint: &str| {
            by.iter()
                .find(|row| row.get("endpoint").unwrap().as_str() == Some(endpoint))
                .unwrap_or_else(|| panic!("no healthz row for {endpoint}: {}", health.body))
        };
        let dead = row("127.0.0.1:1");
        assert_eq!(dead.get("requests").unwrap().as_usize(), Some(1));
        assert_eq!(dead.get("errors").unwrap().as_usize(), Some(1));
        assert_eq!(
            dead.get("consecutive_failures").unwrap().as_usize(),
            Some(1)
        );
        let live = row(&shard_server.addr().to_string());
        assert_eq!(live.get("requests").unwrap().as_usize(), Some(1));
        assert_eq!(live.get("errors").unwrap().as_usize(), Some(0));
        assert_eq!(live.get("ejected").unwrap().as_bool(), Some(false));
        let total: usize = by
            .iter()
            .map(|row| row.get("requests").unwrap().as_usize().unwrap())
            .sum();
        assert_eq!(remote.get("requests").unwrap().as_usize(), Some(total));

        shard_server.shutdown();
    }

    #[test]
    fn partial_opt_in_turns_total_replica_loss_into_a_degraded_200() {
        // Shard 0 local, shard 1's every replica dead.
        let router = state();
        let body = format!(
            r#"{{"name":"t","id":"t1","csv":"{CSV}","z":"z","x":"x","y":"y",
                 "shard_endpoints":["local",["127.0.0.1:1","127.0.0.1:2"]]}}"#
        );
        assert_eq!(route(&router, &post("/datasets", &body)).status, 201);

        // Without the flag: a structured 502 naming BOTH attempted
        // replicas, in try order.
        let plain = r#"{"dataset":"t1","query":"[p=up][p=down]","k":2}"#;
        let refused = route(&router, &post("/query", plain));
        assert_eq!(refused.status, 502, "{}", refused.body);
        assert!(
            refused.body.contains("\"code\":\"shard_unavailable\""),
            "{}",
            refused.body
        );
        assert!(refused.body.contains("127.0.0.1:1"), "{}", refused.body);
        assert!(refused.body.contains("127.0.0.1:2"), "{}", refused.body);

        // With it: a 200 flagged degraded, naming the missing partition
        // and carrying shard 0's merged partial.
        let partial = r#"{"dataset":"t1","query":"[p=up][p=down]","k":2,"partial":true}"#;
        let degraded = route(&router, &post("/query", partial));
        assert_eq!(degraded.status, 200, "{}", degraded.body);
        let parsed = json::parse(&degraded.body).unwrap();
        assert_eq!(parsed.get("cached").unwrap().as_bool(), Some(false));
        let block = parsed
            .get("degraded")
            .unwrap_or_else(|| panic!("no degraded block: {}", degraded.body));
        assert_eq!(
            block.get("missing_shards").unwrap().to_text(),
            "[1]",
            "{}",
            degraded.body
        );
        let errors = block.get("errors").unwrap().as_array().unwrap();
        assert_eq!(errors[0].get("shard").unwrap().as_usize(), Some(1));
        assert!(
            errors[0]
                .get("error")
                .unwrap()
                .as_str()
                .unwrap()
                .contains("127.0.0.1:1"),
            "{}",
            degraded.body
        );
        assert!(
            !parsed
                .get("results")
                .unwrap()
                .as_array()
                .unwrap()
                .is_empty(),
            "the responsive shard's partial must be served: {}",
            degraded.body
        );

        // NEVER cached: an identical repeat recomputes from scratch
        // (a later exact answer must not be masked by a stale partial).
        let repeat = route(&router, &post("/query", partial));
        let repeat = json::parse(&repeat.body).unwrap();
        assert_eq!(
            repeat.get("cached").unwrap().as_bool(),
            Some(false),
            "degraded answers must never be cached"
        );
        assert_eq!(router.cache.stats().hits, 0);

        // Batch: the opted-in item degrades, the plain item keeps its
        // structured 502 — per item, same request.
        let reply = route(&router, &post("/query", &format!("[{partial},{plain}]")));
        assert_eq!(reply.status, 200, "{}", reply.body);
        let batch = json::parse(&reply.body).unwrap();
        let responses = batch.get("responses").unwrap().as_array().unwrap();
        assert!(responses[0].get("degraded").is_some(), "{}", reply.body);
        assert_eq!(
            responses[1].get("status").and_then(|s| s.as_usize()),
            Some(502),
            "{}",
            reply.body
        );
    }

    #[test]
    fn heartbeat_discovery_resolves_a_queryable_placement() {
        // Two live shard servers, each announcing its partition to the
        // router's registry the way `serve --announce` would.
        let mut servers = Vec::new();
        for index in 0..2 {
            let server = crate::serve(
                "127.0.0.1:0",
                crate::ServerConfig {
                    workers: 2,
                    ..crate::ServerConfig::default()
                },
            )
            .unwrap();
            let body = format!(
                r#"{{"name":"t","id":"t1","csv":"{CSV}","z":"z","x":"x","y":"y","shard_of":"{index}/2"}}"#
            );
            assert_eq!(route(server.state(), &post("/datasets", &body)).status, 201);
            servers.push(server);
        }

        let router = state();
        for (index, server) in servers.iter().enumerate() {
            let beat = format!(
                r#"{{"dataset":"t1","shard_of":"{index}/2","endpoint":"{}"}}"#,
                server.addr()
            );
            let reply = route(&router, &post("/registry/heartbeat", &beat));
            assert_eq!(reply.status, 200, "{}", reply.body);
            assert!(reply.body.contains("\"registered\":true"), "{}", reply.body);
        }

        // The registry lists both rows as fresh, with the TTL.
        let listing = route(&router, &get("/registry"));
        assert_eq!(listing.status, 200, "{}", listing.body);
        let parsed = json::parse(&listing.body).unwrap();
        assert_eq!(
            parsed.get("entries").unwrap().as_array().unwrap().len(),
            2,
            "{}",
            listing.body
        );
        assert!(listing.body.contains("\"fresh\":true"), "{}", listing.body);
        assert_eq!(
            parsed.get("ttl_secs").unwrap().as_usize(),
            Some(REGISTRY_TTL_SECS as usize)
        );

        // Registering with the `registry` sentinel resolves the announced
        // placement, and the dataset answers exactly like an all-local
        // twin.
        let body = format!(
            r#"{{"name":"t","id":"t1","csv":"{CSV}","z":"z","x":"x","y":"y",
                 "shard_endpoints":"registry"}}"#
        );
        let reply = route(&router, &post("/datasets", &body));
        assert_eq!(reply.status, 201, "{}", reply.body);
        for server in &servers {
            assert!(
                reply.body.contains(&server.addr().to_string()),
                "{}",
                reply.body
            );
        }
        register_sharded(&router, "ref", 2);
        let q = |ds: &str| format!(r#"{{"dataset":"{ds}","query":"[p=up][p=down]","k":2}}"#);
        let want = route(&router, &post("/query", &q("ref")));
        let got = route(&router, &post("/query", &q("t1")));
        assert_eq!(got.status, 200, "{}", got.body);
        assert_eq!(
            json::parse(&got.body)
                .unwrap()
                .get("results")
                .unwrap()
                .to_text(),
            json::parse(&want.body)
                .unwrap()
                .get("results")
                .unwrap()
                .to_text(),
            "registry-resolved placement must be byte-identical to all-local"
        );

        // Without any fresh heartbeat the sentinel is a structured 400.
        let empty = state();
        let reply = route(&empty, &post("/datasets", &body));
        assert_eq!(reply.status, 400, "{}", reply.body);
        assert!(reply.body.contains("no fresh heartbeat"), "{}", reply.body);

        // Malformed heartbeats are 400s; wrong methods 405.
        let bad = r#"{"dataset":"t1","shard_of":"2/2","endpoint":"h:1"}"#;
        assert_eq!(
            route(&router, &post("/registry/heartbeat", bad)).status,
            400
        );
        assert_eq!(route(&router, &get("/registry/heartbeat")).status, 405);
        assert_eq!(route(&router, &post("/registry", "{}")).status, 405);

        for server in servers {
            server.shutdown();
        }
    }

    #[test]
    fn healthz_surfaces_registry_staleness_per_slot() {
        let state = state();

        // Before any heartbeat the registry block is present but empty.
        let health = route(&state, &get("/healthz"));
        let parsed = json::parse(&health.body).unwrap();
        let registry = parsed.get("registry").unwrap();
        assert_eq!(registry.get("slots").unwrap().as_usize(), Some(0));
        assert_eq!(registry.get("stale_slots").unwrap().as_usize(), Some(0));
        assert!(registry
            .get("by_slot")
            .unwrap()
            .as_array()
            .unwrap()
            .is_empty());

        // Two replicas of slot 0, one of slot 1 — the rollup aggregates
        // per (dataset, shard, shards) key in deterministic order.
        for beat in [
            r#"{"dataset":"t1","shard_of":"0/2","endpoint":"a:1"}"#,
            r#"{"dataset":"t1","shard_of":"0/2","endpoint":"a:2"}"#,
            r#"{"dataset":"t1","shard_of":"1/2","endpoint":"b:1"}"#,
        ] {
            assert_eq!(
                route(&state, &post("/registry/heartbeat", beat)).status,
                200
            );
        }
        let health = route(&state, &get("/healthz"));
        let parsed = json::parse(&health.body).unwrap();
        let registry = parsed.get("registry").unwrap();
        assert_eq!(registry.get("slots").unwrap().as_usize(), Some(2));
        assert_eq!(registry.get("stale_slots").unwrap().as_usize(), Some(0));
        let by_slot = registry.get("by_slot").unwrap().as_array().unwrap();
        assert_eq!(by_slot.len(), 2, "{}", health.body);
        let slot0 = &by_slot[0];
        assert_eq!(slot0.get("dataset").unwrap().as_str(), Some("t1"));
        assert_eq!(slot0.get("shard").unwrap().as_usize(), Some(0));
        assert_eq!(slot0.get("shards").unwrap().as_usize(), Some(2));
        assert_eq!(slot0.get("replicas").unwrap().as_usize(), Some(2));
        assert_eq!(slot0.get("fresh_replicas").unwrap().as_usize(), Some(2));
        // Just-announced heartbeats: both ages are ~0 and freshest can
        // never exceed stalest.
        let freshest = slot0.get("freshest_age_secs").unwrap().as_usize().unwrap();
        let stalest = slot0.get("stalest_age_secs").unwrap().as_usize().unwrap();
        assert!(freshest <= stalest && stalest <= 1, "{}", health.body);
        assert_eq!(by_slot[1].get("shard").unwrap().as_usize(), Some(1));
        assert_eq!(by_slot[1].get("replicas").unwrap().as_usize(), Some(1));
    }

    /// Rewrites every numeric result `score` in a reply as a string.
    fn stringify_scores(value: &mut Json) {
        match value {
            Json::Obj(fields) => {
                for (key, field) in fields {
                    match field {
                        Json::Num(score) if key == "score" => {
                            *field = Json::Str(score.to_string());
                        }
                        field => stringify_scores(field),
                    }
                }
            }
            Json::Arr(items) => items.iter_mut().for_each(stringify_scores),
            _ => {}
        }
    }

    #[test]
    fn lying_pruned_bound_fails_the_replica_and_never_shortens_the_answer() {
        // Two honest shard servers owning partitions 0/2 and 1/2, and in
        // front of each a stub that answers from the same state but
        // mistypes every result score it reports: `"score":"0.93"`.
        let csv = haystack_csv().replace('\n', "\\n");
        let register = |state: &Arc<AppState>, placement: &str| {
            let body = format!(
                r#"{{"name":"t","id":"t1","csv":"{csv}","z":"z","x":"x","y":"y",{placement}}}"#
            );
            let reply = route(state, &post("/datasets", &body));
            assert_eq!(reply.status, 201, "{}", reply.body);
        };
        let (mut honest, mut liars) = (Vec::new(), Vec::new());
        for index in 0..2 {
            let server = crate::serve("127.0.0.1:0", crate::ServerConfig::default()).unwrap();
            register(server.state(), &format!(r#""shard_of":"{index}/2""#));
            let state = Arc::clone(server.state());
            let liar = crate::http::serve(
                "127.0.0.1:0",
                crate::http::HttpConfig::default(),
                Arc::new(move |request| {
                    let mut reply = route(&state, request);
                    let mut body = json::parse(&reply.body).unwrap();
                    stringify_scores(&mut body);
                    reply.body = body.to_text();
                    reply
                }),
            )
            .unwrap();
            honest.push(server);
            liars.push(liar);
        }
        let reference = state();
        register(&reference, r#""shards":2"#);
        let q = shapesearch_parser::parse_regex("[p=up][p=down]").unwrap();
        let run = |router: &Arc<AppState>| {
            let entry = router.catalog.get("t1").unwrap();
            let (queries, options) = (vec![(q.clone(), 2)], &router.default_options);
            execute_on_shards(router, &entry, queries, options, None)
        };
        let want = run(&reference).outcomes.remove(0).unwrap();
        assert_eq!(want.len(), 2);

        // With an honest replica behind each liar, failover answers
        // exactly.
        let (l0, l1) = (liars[0].addr(), liars[1].addr());
        let router = state();
        let replicas = format!(
            r#""shard_endpoints":[["{l0}","{}"],["{l1}","{}"]]"#,
            honest[0].addr(),
            honest[1].addr()
        );
        register(&router, &replicas);
        assert_eq!(run(&router).outcomes.remove(0).unwrap(), want);
        let errors = |router: &Arc<AppState>, endpoint: std::net::SocketAddr| {
            StatsSnapshot::gather(router).remote[&endpoint.to_string()]
                .rpc
                .unwrap()
                .errors
        };
        assert!(errors(&router, l0) >= 1 && errors(&router, l1) >= 1);

        // With the liars alone, the shards are unavailable — never a
        // silently shorter top k.
        let router = state();
        register(&router, &format!(r#""shard_endpoints":["{l0}","{l1}"]"#));
        let err = run(&router).outcomes.remove(0).unwrap_err();
        assert_eq!(err.code, Some("shard_unavailable"), "{}", err.message);
        assert!(err.message.contains("`score`"), "{}", err.message);

        liars.into_iter().for_each(|liar| liar.shutdown());
        honest.into_iter().for_each(|server| server.shutdown());
    }

    #[test]
    fn out_of_range_error_status_fails_the_replica_and_never_reaches_the_client() {
        // A stub shard server whose one outcome is an error with a status
        // no HTTP reply can carry: truncated to 16 bits it read 0 or 4464,
        // and 200 answered the client "OK" with an error body.
        for status in [65536, 70000, 200] {
            let reply = format!(
                r#"{{"dataset":"t1","outcomes":[{{"error":"x","status":{status}}}],"micros":0}}"#
            );
            let stub = crate::http::serve(
                "127.0.0.1:0",
                crate::http::HttpConfig::default(),
                Arc::new(move |_: &Request| Response::json(200, reply.clone())),
            )
            .unwrap();
            let router = state();
            let body = format!(
                r#"{{"name":"t","id":"t1","csv":"{CSV}","z":"z","x":"x","y":"y",
                     "shard_endpoints":["{}"]}}"#,
                stub.addr()
            );
            assert_eq!(route(&router, &post("/datasets", &body)).status, 201);
            let resp = route(
                &router,
                &post("/query", r#"{"dataset":"t1","query":"[p=up]","k":1}"#),
            );
            assert_eq!(resp.status, 502, "status {status} → {}", resp.body);
            assert!(
                resp.body.contains("shard_unavailable") && resp.body.contains("`status`"),
                "status {status} → {}",
                resp.body
            );
            stub.shutdown();
        }
    }

    #[test]
    fn shard_query_ignores_a_threshold_hint() {
        // The retired `threshold_hint` key is read like any unknown key:
        // absent, null or far above every real score, the shard server
        // answers the exact partial with the same work.
        let state = state();
        let csv = haystack_csv().replace('\n', "\\n");
        let body = format!(r#"{{"name":"t","id":"t1","csv":"{csv}","z":"z","x":"x","y":"y"}}"#);
        assert_eq!(route(&state, &post("/datasets", &body)).status, 201);

        let q = shapesearch_parser::parse_regex("[p=up][p=down]").unwrap();
        let rpc =
            protocol::shard_request_to_json("t1", &[(q, 2)], &[], &state.default_options, None)
                .to_text();
        let answer = |hint: &str| {
            let body = rpc.replace("\"k\":2", &format!("\"k\":2{hint}"));
            let reply = route(&state, &post("/shard/query", &body));
            assert_eq!(reply.status, 200, "{}", reply.body);
            let reply = json::parse(&reply.body).unwrap();
            let pruning = reply.get("pruning").unwrap();
            let counters = ["bounded", "pruned", "scored", "refined", "joined"]
                .map(|key| pruning.get(key).unwrap().as_usize().unwrap());
            (reply.get("outcomes").unwrap().to_text(), counters)
        };
        let (outcomes, counters) = answer("");
        assert!(outcomes.contains("\"viz_index\""), "{outcomes}");
        assert!(counters[1] > 0, "the proven threshold prunes: {counters:?}");
        for hint in [r#","threshold_hint":null"#, r#","threshold_hint":0.999"#] {
            assert_eq!(answer(hint), (outcomes.clone(), counters), "{hint}");
        }
    }

    #[test]
    fn reregistering_with_new_shard_count_recomputes() {
        let state = state();
        register_sharded(&state, "ds", 1);
        let q = r#"{"dataset":"ds","query":"[p=up]","k":1}"#;
        let cold = route(&state, &post("/query", q));
        assert!(cold.body.contains("\"cached\":false"), "{}", cold.body);
        let warm = route(&state, &post("/query", q));
        assert!(warm.body.contains("\"cached\":true"), "{}", warm.body);

        // Same id, new shard count: the cached result must not survive.
        register_sharded(&state, "ds", 2);
        let after = route(&state, &post("/query", q));
        assert!(after.body.contains("\"cached\":false"), "{}", after.body);
        assert!(after.body.contains("\"shards\":2"), "{}", after.body);
        // And the recomputed answer matches the pre-reshard one.
        let before = json::parse(&cold.body).unwrap();
        let after = json::parse(&after.body).unwrap();
        assert_eq!(
            before.get("results").unwrap().to_text(),
            after.get("results").unwrap().to_text()
        );
    }

    /// Writes a snapshot whose trendlines mirror [`CSV`] exactly, so
    /// a snapshot registration and a CSV registration answer from the
    /// same logical collection.
    fn demo_snapshot(dir: &std::path::Path, name: &str) -> std::path::PathBuf {
        use shapesearch_datastore::Trendline;
        let trendlines = vec![
            Trendline::from_pairs("a", &[(1.0, 1.0), (2.0, 3.0), (3.0, 1.0)]),
            Trendline::from_pairs("b", &[(1.0, 3.0), (2.0, 2.0), (3.0, 1.0)]),
        ];
        let path = dir.join(name);
        shapesearch_core::snapshot::write(&path, &trendlines).unwrap();
        path
    }

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("ss-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn results_of(body: &str) -> String {
        json::parse(body)
            .unwrap()
            .get("results")
            .unwrap_or_else(|| panic!("no results in {body}"))
            .to_text()
    }

    #[test]
    fn corrupt_snapshot_is_refused_with_structured_error() {
        let dir = temp_dir("snap-corrupt");
        let snap = demo_snapshot(&dir, "torn.snap");
        let mut bytes = std::fs::read(&snap).unwrap();
        let mid = bytes.len() - 9; // payload byte: header parses, checksum must not
        bytes[mid] ^= 0xff;
        std::fs::write(&snap, &bytes).unwrap();

        let state = Arc::new(AppState::new(16, 2, Some(dir.clone()), 1));
        let body = format!(
            r#"{{"name":"s","id":"s1","snapshot":"{}"}}"#,
            snap.display()
        );
        let resp = route(&state, &post("/datasets", &body));
        assert_eq!(resp.status, 400, "{}", resp.body);
        assert!(
            resp.body.contains("\"code\":\"snapshot_invalid\""),
            "{}",
            resp.body
        );

        // A version-2 file (it also stored GROUP's output) is refused by
        // its version, which the error names.
        bytes[mid] ^= 0xff;
        bytes[8..12].copy_from_slice(&2u32.to_le_bytes());
        std::fs::write(&snap, &bytes).unwrap();
        let resp = route(&state, &post("/datasets", &body));
        assert_eq!(resp.status, 400, "{}", resp.body);
        assert!(
            resp.body.contains("\"code\":\"snapshot_invalid\"")
                && resp.body.contains("format version 2"),
            "{}",
            resp.body
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn snapshot_registration_is_gated_by_data_root() {
        let dir = temp_dir("snap-root");
        let snap = demo_snapshot(&dir, "gated.snap");
        let body = format!(
            r#"{{"name":"s","id":"s1","snapshot":"{}"}}"#,
            snap.display()
        );

        // Without --data-root, snapshot paths are refused like `path`.
        let closed = state();
        let resp = route(&closed, &post("/datasets", &body));
        assert_eq!(resp.status, 400, "{}", resp.body);
        assert!(resp.body.contains("disabled"), "{}", resp.body);

        // A snapshot outside the root is refused even with a root set.
        let elsewhere = temp_dir("snap-elsewhere");
        let outside = demo_snapshot(&elsewhere, "outside.snap");
        let open = Arc::new(AppState::new(16, 2, Some(dir.clone()), 1));
        let body = format!(
            r#"{{"name":"s","id":"s1","snapshot":"{}"}}"#,
            outside.display()
        );
        let resp = route(&open, &post("/datasets", &body));
        assert_eq!(resp.status, 400, "{}", resp.body);
        assert!(resp.body.contains("data root"), "{}", resp.body);
        std::fs::remove_dir_all(&dir).ok();
        std::fs::remove_dir_all(&elsewhere).ok();
    }

    /// A 2-shard snapshot registration cuts both shards up front; a
    /// re-registration under the same id cuts them afresh and retires the
    /// old generation, so the re-query recomputes and answers identically.
    #[test]
    fn snapshot_re_registration_cuts_afresh_and_answers_identically() {
        let dir = temp_dir("snap-recut");
        let snap = demo_snapshot(&dir, "recut.snap");
        let state = Arc::new(AppState::new(16, 2, Some(dir.clone()), 2));
        let body = format!(
            r#"{{"name":"s","id":"s1","snapshot":"{}","shards":2}}"#,
            snap.display()
        );
        let resp = route(&state, &post("/datasets", &body));
        assert_eq!(resp.status, 201, "{}", resp.body);
        assert!(resp.body.contains("\"shards\":2"), "{}", resp.body);

        let q = r#"{"dataset":"s1","query":"[p=up][p=down]","k":2}"#;
        let cold = route(&state, &post("/query", q));
        assert_eq!(cold.status, 200, "{}", cold.body);

        let resp = route(&state, &post("/datasets", &body));
        assert_eq!(resp.status, 201, "{}", resp.body);
        let again = route(&state, &post("/query", q));
        assert_eq!(again.status, 200, "{}", again.body);
        assert!(again.body.contains("\"cached\":false"), "{}", again.body);
        assert_eq!(results_of(&cold.body), results_of(&again.body));

        // A bin width the registration did not warm is GROUPed from the
        // mapped raw columns, and answers like the CSV registration of the
        // same collection.
        register(&state);
        let at_width_2 = |dataset: &str| {
            let q = format!(
                r#"{{"dataset":"{dataset}","query":"[p=up][p=down]","k":2,"bin_width":2}}"#
            );
            let resp = route(&state, &post("/query", &q));
            assert_eq!(resp.status, 200, "{}", resp.body);
            results_of(&resp.body)
        };
        assert_eq!(at_width_2("s1"), at_width_2("t1"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn snapshot_registration_rejects_extraction_keys() {
        let dir = temp_dir("snap-keys");
        let snap = demo_snapshot(&dir, "keys.snap");
        let state = Arc::new(AppState::new(16, 2, Some(dir.clone()), 1));
        let body = format!(
            r#"{{"name":"s","id":"s1","snapshot":"{}","z":"z","x":"x","y":"y"}}"#,
            snap.display()
        );
        let resp = route(&state, &post("/datasets", &body));
        assert_eq!(resp.status, 400, "{}", resp.body);
        assert!(
            resp.body
                .contains("does not apply to a `snapshot` registration"),
            "{}",
            resp.body
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The `name` span of a single reply's `request` trace.
    fn trace_span(reply: &Json, name: &str) -> Option<Span> {
        let spans = reply.get("trace")?.get("spans")?;
        let root = obs::spans_from_json(spans)?.pop()?;
        root.children.into_iter().find(|span| span.name == name)
    }

    /// The value of one `/metrics` sample line.
    fn metric(state: &Arc<AppState>, series: &str) -> Option<String> {
        let metrics = route(state, &get("/metrics")).body;
        let prefix = format!("{series} ");
        metrics
            .lines()
            .find_map(|l| Some(l.strip_prefix(&prefix)?.to_owned()))
    }

    /// Engine stages reach the histograms at the engine's resolution: on
    /// a two-trendline dataset a warm GROUP and a bound pass each take
    /// under a microsecond, and three fresh queries still move both sums
    /// off zero (whole microseconds would book three zeros each).
    #[test]
    fn sub_microsecond_engine_stages_reach_the_stage_sums() {
        let state = state();
        register(&state);
        for k in 1..=3 {
            let body = format!(r#"{{"dataset":"t1","query":"[p=up][p=down]","k":{k}}}"#);
            let reply = route(&state, &post("/query", &body));
            assert_eq!(reply.status, 200, "{}", reply.body);
            assert!(reply.body.contains("\"cached\":false"), "{}", reply.body);
        }
        for stage in ["group", "prune_bound"] {
            let series = format!("shapesearch_stage_duration_micros_sum{{stage=\"{stage}\"}}");
            let sum = metric(&state, &series).expect("a stage sum");
            assert!(sum.parse::<f64>().unwrap() > 0.0, "{series} {sum}");
        }
    }

    /// A coalesced item's wait is booked as its own stage, in the span
    /// and in the histogram alike, and `cache_lookup` is the lookup alone:
    /// each histogram's sum is its span to the microsecond.
    #[test]
    fn a_coalesced_wait_is_booked_apart_from_the_lookup() {
        let state = state();
        register(&state);
        let entry = state.catalog.get("t1").unwrap();
        let q = shapesearch_parser::parse_regex("[p=up][p=down]").unwrap();
        let key = CacheKey::new(
            &entry.id,
            entry.generation,
            entry.shard_count,
            &entry.placement_fp,
            &q,
            2,
            &state.default_options,
        );
        let crate::cache::Lookup::Lead(guard) = state.cache.lookup(&key) else {
            panic!("a fresh state must elect the first lookup leader");
        };
        let body = r#"{"dataset":"t1","query":"[p=up][p=down]","k":2,"explain":true}"#;
        let reply = std::thread::scope(|scope| {
            let request = scope.spawn(|| route(&state, &post("/query", body)));
            while state.cache.stats().coalesced == 0 {
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            std::thread::sleep(std::time::Duration::from_millis(30));
            guard.complete(Arc::new(Vec::new()));
            request.join().unwrap()
        });
        assert_eq!(reply.status, 200, "{}", reply.body);
        let reply = json::parse(&reply.body).unwrap();
        let lookup = trace_span(&reply, "cache_lookup").expect("a cache_lookup span");
        assert_eq!(lookup.detail.as_deref(), Some("coalesced"));
        let wait = trace_span(&reply, "singleflight_wait").expect("a singleflight_wait span");
        assert!(wait.micros >= 30_000, "{wait:?}");
        assert!(lookup.micros < 30_000, "the lookup alone: {lookup:?}");
        for span in [&lookup, &wait] {
            let stage = format!(
                "shapesearch_stage_duration_micros_{{}}{{stage=\"{}\"}}",
                span.name
            );
            let count = metric(&state, &stage.replace("{}", "count"));
            assert_eq!(count.as_deref(), Some("1"), "{}", span.name);
            let sum = metric(&state, &stage.replace("{}", "sum")).unwrap();
            let whole: u64 = sum.split('.').next().unwrap().parse().unwrap();
            assert_eq!(whole, span.micros, "{} histogram {sum} vs span", span.name);
        }
    }

    /// A query text is planned once: the next request that sends it hits
    /// the plan memo, however its options are spelled. Spelling every
    /// option at its default value reaches the result-cache entry of a
    /// request that spells none; a non-default option does not. The
    /// defaults' fingerprint, taken once, is the one `options_fingerprint`
    /// renders, and stops being used once the defaults change.
    #[test]
    fn spelling_the_default_options_shares_the_plan_and_the_answer() {
        let state = state();
        register(&state);
        let plain = r#"{"dataset":"t1","query":"[p=up][p=down]","k":2}"#;
        let spelled = r#"{"dataset":"t1","query":"[p=up][p=down]","k":2,
            "algo":"tree","bin_width":1,"pushdown":true,"pruning":"auto"}"#;
        let dp = r#"{"dataset":"t1","query":"[p=up][p=down]","k":2,"algo":"dp"}"#;
        let first = route(&state, &post("/query", plain));
        assert!(first.body.contains("\"cached\":false"), "{}", first.body);
        let second = route(&state, &post("/query", spelled));
        assert!(second.body.contains("\"cached\":true"), "{}", second.body);
        let third = route(&state, &post("/query", dp));
        assert!(third.body.contains("\"cached\":false"), "{}", third.body);
        let plans = state.plans.stats();
        assert_eq!((plans.hits, plans.misses, plans.entries), (2, 1, 1));

        let req = |body: &str| protocol::query_request_from_json(&json::parse(body).unwrap());
        let (options, fingerprint) = state.effective_options(&req(plain).unwrap());
        assert_eq!(&*fingerprint, options_fingerprint(&state.default_options));
        assert_eq!(&*fingerprint, options_fingerprint(&options));
        let (_, spelled_fp) = state.effective_options(&req(spelled).unwrap());
        assert_eq!(spelled_fp, fingerprint);

        let mut changed = AppState::new(4, 1, None, 1);
        changed.default_options.segmenter = shapesearch_core::SegmenterKind::Dp;
        let (options, fingerprint) = changed.effective_options(&req(plain).unwrap());
        assert_eq!(&*fingerprint, options_fingerprint(&changed.default_options));
        assert_eq!(options.segmenter, shapesearch_core::SegmenterKind::Dp);
    }

    /// A memo hit carries only the text's plan: its dataset, `k` and
    /// trace are the request's own, its answer is what a server that never
    /// saw the text gives, and its NL notes are the first request's.
    #[test]
    fn a_plan_memo_hit_answers_for_its_own_request() {
        let nl = "increasing from y = 10 to y = 5";
        let two = || {
            let state = state();
            register(&state);
            let body = r#"{"name":"u","id":"t2","csv":"z,x,y\nc,1,5\nc,2,9\nc,3,10\nd,1,9\nd,2,7\nd,3,5\n","z":"z","x":"x","y":"y"}"#;
            assert_eq!(route(&state, &post("/datasets", body)).status, 201);
            state
        };
        let state = two();
        let first = route(
            &state,
            &post(
                "/query",
                &format!(r#"{{"dataset":"t1","nl":"{nl}","k":1}}"#),
            ),
        );
        assert_eq!(first.status, 200, "{}", first.body);
        let body = format!(r#"{{"dataset":"t2","nl":"{nl}","k":2,"explain":true,"partial":true}}"#);
        let second = route(&state, &post("/query", &body));
        assert_eq!(second.status, 200, "{}", second.body);
        let plans = state.plans.stats();
        assert_eq!((plans.hits, plans.misses), (1, 1));

        let (first, second) = (
            json::parse(&first.body).unwrap(),
            json::parse(&second.body).unwrap(),
        );
        assert_eq!(second.get("dataset").and_then(Json::as_str), Some("t2"));
        assert_eq!(second.get("k").and_then(Json::as_usize), Some(2));
        let notes = first.get("notes").expect("the NL text carries notes");
        assert_eq!(second.get("notes"), Some(notes));
        let plan = trace_span(&second, "parse_plan").expect("an explained reply's parse_plan");
        assert_eq!(plan.detail.as_deref(), Some("hit"));

        let fresh = two();
        let alone = route(&fresh, &post("/query", &body));
        let alone = json::parse(&alone.body).unwrap();
        assert_eq!(comparable(&alone), comparable(&second));
        let plan = trace_span(&alone, "parse_plan").unwrap();
        assert_eq!(plan.detail.as_deref(), Some("miss"));
    }

    /// A text longer than the NL cap is planned as before but never
    /// memoised, and the memo holds at most its capacity.
    #[test]
    fn the_plan_memo_keeps_short_texts_up_to_its_capacity() {
        let state = Arc::new(AppState::new(2, 1, None, 1));
        register(&state);
        let long = format!(
            "{:<width$}",
            "[p=up][p=down]",
            width = shapesearch_parser::MAX_NL_BYTES + 1
        );
        let reply = |text: &str| {
            let body = format!(r#"{{"dataset":"t1","query":"{text}","k":2}}"#);
            let reply = route(&state, &post("/query", &body));
            assert_eq!(reply.status, 200, "{}", reply.body);
            comparable(&json::parse(&reply.body).unwrap())
        };
        let short = reply("[p=up][p=down]");
        let before = state.plans.stats();
        assert_eq!(
            reply(&long),
            short.replace("\"cached\":false", "\"cached\":true")
        );
        assert_eq!(
            state.plans.stats(),
            before,
            "a long text never reaches the memo"
        );

        for text in ["[p=up]", "[p=down]", "[p=flat]", "[p=up][p=flat]"] {
            reply(text);
            let plans = state.plans.stats();
            assert!(plans.entries <= plans.capacity, "{plans:?}");
        }
        assert_eq!(state.plans.stats().entries, 2);
        let health = json::parse(&route(&state, &get("/healthz")).body).unwrap();
        let block = health.get("plan_cache").expect("a plan_cache block");
        assert_eq!(block.get("entries").and_then(Json::as_usize), Some(2));
        assert_eq!(block.get("capacity").and_then(Json::as_usize), Some(2));
    }

    /// A text that does not parse gets the same 400 every time and is
    /// never memoised.
    #[test]
    fn a_bad_text_is_refused_alike_and_never_memoised() {
        let state = state();
        register(&state);
        for body in [
            r#"{"dataset":"t1","query":"[p=up","k":2}"#,
            r#"{"dataset":"t1","nl":"qwzx vbnm","k":2}"#,
        ] {
            let first = route(&state, &post("/query", body));
            let again = route(&state, &post("/query", body));
            assert_eq!(first.status, 400, "{}", first.body);
            assert_eq!((again.status, &again.body), (first.status, &first.body));
        }
        let plans = state.plans.stats();
        assert_eq!((plans.entries, plans.hits, plans.misses), (0, 0, 4));
    }

    /// Two requests racing with one NL text translate it once.
    #[test]
    fn racing_identical_nl_texts_translate_once() {
        let state = state();
        register(&state);
        let body = r#"{"dataset":"t1","nl":"falling sharply then rising slowly","k":1}"#;
        let barrier = std::sync::Barrier::new(2);
        let replies: Vec<Response> = std::thread::scope(|scope| {
            let racers: Vec<_> = (0..2)
                .map(|_| {
                    scope.spawn(|| {
                        barrier.wait();
                        route(&state, &post("/query", body))
                    })
                })
                .collect();
            racers
                .into_iter()
                .map(|racer| racer.join().unwrap())
                .collect()
        });
        for reply in &replies {
            assert_eq!(reply.status, 200, "{}", reply.body);
        }
        let plans = state.plans.stats();
        assert_eq!((plans.misses, plans.hits + plans.coalesced), (1, 1));
    }
}
