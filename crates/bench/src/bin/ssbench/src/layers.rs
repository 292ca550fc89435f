//! The traced pass: the same requests, in process, timed layer by layer.
//!
//! This is the only file that calls into the workspace's layers, and it
//! calls only their public functions — spans inside the program are a
//! later change. Three in-process passes over a workload's list (its
//! first 2,000 requests), each on fresh state that has answered the
//! warm-up list:
//!
//! 1. an untraced server (`http::serve` + `handlers::route`), for the
//!    cost of tracing itself;
//! 2. a traced server, whose router is a closure wrapping
//!    `handlers::route` in a span, giving `request ⊃ handlers.route`;
//! 3. a replay through the decomposed public calls, giving
//!    `replay ⊃ {json.parse, protocol.plan ⊃ parser.regex, cache.lookup,
//!    engine.execute ⊃ {engine.group, pruning.bound,
//!    engine.segment_score}, shard.merge, cache.complete,
//!    protocol.serialize, json.render}` — with `protocol.shard_encode`,
//!    `client.rpc` and `protocol.shard_decode` in place of
//!    `engine.execute` where the dataset is placed on shard servers.
//!
//! The replay's answers are compared with the traced server's, so the
//! decomposition is known to do the work `handlers::route` does.

use crate::check::{self, Reference};
use crate::gen::{Corpus, Request, RequestPlan, Workload};
use crate::measure::Values;
use crate::trace::{self, Recorder, Span};
use crate::wire::{self, Conn};
use shapesearch_core::{
    group_collection, merge_topk, EngineOptions, EngineStage, NoopObserver, PruningSnapshot,
    ShapeQuery, ShardedEngine, SharedThresholds, StageObserver, StatsIndex, TopKResult,
};
use shapesearch_datastore::{csv, extract, ExtractOptions, VisualSpec};
use shapesearch_parser::parse_regex;
use shapesearch_server::cache::{CacheKey, FlightGuard, FlightWaiter, Lookup, QueryCache};
use shapesearch_server::catalog::{
    DataSource, DatasetEntry, DatasetSpec, ShardEndpoints, ShardPlacement,
};
use shapesearch_server::compute::ComputePool;
use shapesearch_server::http::{self, HttpConfig, Response};
use shapesearch_server::json::{self, Json};
use shapesearch_server::{handlers, protocol, AppState, PooledClient, ServerConfig, Service};
use std::hint::black_box;
use std::io;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The production defaults `shapesearch serve` runs with.
const CACHE_CAPACITY: usize = 256;
/// The traced pass takes a pass's list, but no more than this many
/// requests of it: enough for steady means, and a trace file of a few
/// megabytes rather than tens.
const MAX_SAMPLE: usize = 2_000;

fn other(e: impl ToString) -> io::Error {
    io::Error::other(e.to_string())
}

fn spec(corpus: &Corpus) -> DatasetSpec {
    DatasetSpec {
        id: Some(corpus.id.to_owned()),
        name: corpus.id.to_owned(),
        source: DataSource::InlineCsv(corpus.csv.clone()),
        visual: VisualSpec::new("z", "x", "y"),
        builtins: true,
        shards: None,
        shard_endpoints: None,
        shard_of: None,
    }
}

/// The in-process twin of a round's cluster.
struct Stage<'a> {
    corpora: &'a [Corpus],
    /// In-process shard servers the routed corpus is placed on.
    routed: Option<(&'static str, Vec<Service>)>,
    nproc: usize,
    /// Milliseconds each `Catalog::register` took.
    register_ms: Vec<f64>,
}

impl<'a> Stage<'a> {
    fn new(
        corpora: &'a [Corpus],
        routed: Option<(&'static str, usize)>,
        nproc: usize,
    ) -> io::Result<Self> {
        let routed = match routed {
            None => None,
            Some((id, n)) => {
                let corpus = corpora
                    .iter()
                    .find(|c| c.id == id)
                    .expect("routed corpus exists");
                let mut services = Vec::new();
                for i in 0..n {
                    let service =
                        shapesearch_server::serve("127.0.0.1:0", ServerConfig::default())?;
                    let part = DatasetSpec {
                        shard_of: Some((i, n)),
                        ..spec(corpus)
                    };
                    service.state().catalog.register(part).map_err(other)?;
                    services.push(service);
                }
                Some((id, services))
            }
        };
        Ok(Self {
            corpora,
            routed,
            nproc,
            register_ms: Vec::new(),
        })
    }

    /// Fresh application state — default flags, both corpora registered,
    /// the warm-up list answered — as a spawned server is after set-up.
    fn fresh_state(&mut self, warmup: &[Request]) -> io::Result<Arc<AppState>> {
        let state = Arc::new(AppState::new(CACHE_CAPACITY, self.nproc, None, 0));
        for corpus in self.corpora {
            let mut spec = spec(corpus);
            if let Some((id, services)) = &self.routed {
                if *id == corpus.id {
                    let endpoints = services.iter().map(|s| Some(vec![s.addr().to_string()]));
                    spec.shard_endpoints = Some(ShardEndpoints::Explicit(endpoints.collect()));
                }
            }
            let started = Instant::now();
            state.catalog.register(spec).map_err(other)?;
            self.register_ms.push(started.elapsed().as_secs_f64() * 1e3);
        }
        for request in warmup {
            let response = handlers::route(&state, &http_request(request));
            if response.status != 200 {
                return Err(other(format!("in-process warm-up → {}", response.body)));
            }
        }
        Ok(state)
    }
}

fn http_request(request: &Request) -> http::Request {
    http::Request {
        method: "POST".into(),
        path: "/query".into(),
        headers: Vec::new(),
        body: request.body().into_bytes(),
    }
}

/// Serves `state` in process, sends `requests` over one keep-alive
/// connection and returns the replies with the wall time of the loop.
/// With a recorder, the client opens a `request` span around each round
/// trip and the router a `handlers.route` span under it.
fn serve_pass(
    state: &Arc<AppState>,
    requests: &[&Request],
    rec: Option<&Arc<Recorder>>,
) -> io::Result<(Vec<Vec<u8>>, Duration)> {
    // The request span in flight: one client in a closed loop, so one
    // cell is enough to hand the router its parent.
    let current = Arc::new(AtomicU32::new(0));
    let router: http::Router = match rec {
        None => {
            let state = Arc::clone(state);
            Arc::new(move |request| handlers::route(&state, request))
        }
        Some(rec) => {
            let (state, rec, current) = (Arc::clone(state), Arc::clone(rec), Arc::clone(&current));
            Arc::new(move |request| {
                let parent = current.load(Ordering::SeqCst);
                let index = rec.get(parent).request;
                rec.time("handlers.route", Some(parent), index, |_| {
                    handlers::route(&state, request)
                })
            })
        }
    };
    let config = HttpConfig {
        stats: Arc::clone(&state.conn_stats),
        ..HttpConfig::default()
    };
    let handle = http::serve("127.0.0.1:0", config, router)?;
    let mut conn = Conn::connect(&handle.addr().to_string())?;
    let wire_requests: Vec<Vec<u8>> = requests
        .iter()
        .map(|r| wire::request_bytes("POST", "/query", &r.body()))
        .collect();
    let mut replies = Vec::with_capacity(requests.len());
    let started = Instant::now();
    for (index, bytes) in wire_requests.iter().enumerate() {
        let mut reply = Vec::new();
        let span = rec.map(|rec| {
            let id = rec.open("request", None, index as u32);
            current.store(id, Ordering::SeqCst);
            id
        });
        let status = conn.roundtrip(bytes, &mut reply)?;
        if let (Some(rec), Some(id)) = (rec, span) {
            rec.close(id);
        }
        if status != 200 {
            return Err(other(format!("in-process query → {status}")));
        }
        replies.push(reply);
    }
    let wall = started.elapsed();
    handle.shutdown();
    Ok((replies, wall))
}

/// Forwards the engine's stage reports into spans under one
/// `engine.execute`. GROUP and SEGMENT+SCORE arrive once per shard and
/// query; bound checks arrive once per candidate in whole microseconds,
/// so they are summed and recorded as one `pruning.bound` span.
struct Tap {
    rec: Arc<Recorder>,
    parent: u32,
    request: u32,
    bound_micros: AtomicU64,
}

impl StageObserver for Tap {
    fn stage(&self, stage: EngineStage, micros: u64) {
        let name = match stage {
            EngineStage::Group => "engine.group",
            EngineStage::SegmentScore => "engine.segment_score",
            EngineStage::PruneBound => {
                self.bound_micros.fetch_add(micros, Ordering::Relaxed);
                return;
            }
        };
        self.rec
            .ended(name, Some(self.parent), self.request, micros * 1_000);
    }
}

/// One query item after `protocol.plan`.
struct Planned {
    entry: Arc<DatasetEntry>,
    ast: ShapeQuery,
    k: usize,
    options: EngineOptions,
    key: CacheKey,
}

/// An item on its way through the cache.
enum Progress<'c> {
    Ready(Arc<Vec<TopKResult>>),
    Leading(FlightGuard<'c>),
    Waiting(FlightWaiter),
}

/// One engine computation the replay led: what ran, and how long the
/// served shape took — the 1-shard baseline is timed against these.
struct Executed {
    request: u32,
    dataset: String,
    items: Arc<Vec<(ShapeQuery, usize)>>,
    options: EngineOptions,
    nanos: u64,
}

/// Per-shard partials of one query group, `[shard][query]`.
type Partials = Vec<Vec<Vec<TopKResult>>>;

struct Replay<'a> {
    state: &'a Arc<AppState>,
    rec: &'a Arc<Recorder>,
    pruning: PruningSnapshot,
    executed: Vec<Executed>,
}

impl Replay<'_> {
    /// Replays one request through the layers' public calls and returns
    /// its `results` arrays as text, one per item.
    fn request(&mut self, index: u32, request: &Request) -> io::Result<Vec<String>> {
        let (rec, state) = (self.rec, self.state);
        let text = request.body();
        let root = rec.open("replay", None, index);
        let under = Some(root);

        let body = rec
            .time("json.parse", under, index, |_| json::parse(&text))
            .map_err(other)?;
        let items: &[Json] = match &body {
            Json::Arr(items) => items,
            single => std::slice::from_ref(single),
        };

        let mut planned = Vec::with_capacity(items.len());
        let mut progress = Vec::with_capacity(items.len());
        for item in items {
            let plan = rec.time(
                "protocol.plan",
                under,
                index,
                |plan| -> io::Result<Planned> {
                    let req = protocol::query_request_from_json(item).map_err(other)?;
                    let entry = state
                        .catalog
                        .get(&req.dataset)
                        .ok_or_else(|| other("unknown dataset"))?;
                    let query = req
                        .query
                        .as_deref()
                        .ok_or_else(|| other("no regex query"))?;
                    let ast = rec
                        .time("parser.regex", Some(plan), index, |_| parse_regex(query))
                        .map_err(other)?;
                    let options = req.effective_options(&state.default_options);
                    let key = CacheKey::new(
                        &entry.id,
                        entry.generation,
                        entry.shard_count,
                        &entry.placement_fp,
                        &ast,
                        req.k,
                        &options,
                    );
                    Ok(Planned {
                        entry,
                        ast,
                        k: req.k,
                        options,
                        key,
                    })
                },
            )?;
            progress.push(
                match rec.time("cache.lookup", under, index, |_| {
                    state.cache.lookup(&plan.key)
                }) {
                    Lookup::Hit(value) => Progress::Ready(value),
                    Lookup::Lead(guard) => Progress::Leading(guard),
                    Lookup::Pending(waiter) => Progress::Waiting(waiter),
                },
            );
            planned.push(plan);
        }

        // Leads of one dataset share one engine pass, as in the batch
        // handler; a single query is a group of one.
        let mut groups: Vec<Vec<usize>> = Vec::new();
        for (i, p) in progress.iter().enumerate() {
            if !matches!(p, Progress::Leading(_)) {
                continue;
            }
            match groups
                .iter_mut()
                .find(|g| planned[g[0]].entry.generation == planned[i].entry.generation)
            {
                Some(group) => group.push(i),
                None => groups.push(vec![i]),
            }
        }
        for group in groups {
            let entry = Arc::clone(&planned[group[0]].entry);
            let mut options = planned[group[0]].options.clone();
            if group.len() > 1 {
                options.parallel = true;
            }
            let queries = group
                .iter()
                .map(|&i| (planned[i].ast.clone(), planned[i].k))
                .collect();
            let partials = self.execute(index, root, &entry, Arc::new(queries), &options)?;
            for (slot, &i) in group.iter().enumerate() {
                let shards: Vec<Vec<TopKResult>> =
                    partials.iter().map(|shard| shard[slot].clone()).collect();
                let merged = rec.time("shard.merge", under, index, |_| {
                    merge_topk(shards, planned[i].k)
                });
                let value = Arc::new(merged);
                let Progress::Leading(guard) =
                    std::mem::replace(&mut progress[i], Progress::Ready(Arc::clone(&value)))
                else {
                    unreachable!("groups hold leads only");
                };
                rec.time("cache.complete", under, index, |_| guard.complete(value));
            }
        }

        let mut rendered = Vec::with_capacity(progress.len());
        for p in progress {
            let value = match p {
                Progress::Ready(value) => value,
                // The flight it waits on was completed just above.
                Progress::Waiting(waiter) => waiter
                    .wait()
                    .ok_or_else(|| other("coalesced flight failed"))?,
                Progress::Leading(_) => unreachable!("every lead was completed"),
            };
            let results = rec.time("protocol.serialize", under, index, |_| {
                protocol::results_to_json(&value)
            });
            rendered.push(rec.time("json.render", under, index, |_| results.to_text()));
        }
        rec.close(root);
        Ok(rendered)
    }

    /// One query group over the dataset's placement, fanned out the way
    /// the server does it: one task per shard on the state's compute
    /// pool, the caller helping to drain it; a lone local shard runs
    /// inline. Local shards run the engine, remote ones the RPC.
    fn execute(
        &mut self,
        index: u32,
        root: u32,
        entry: &Arc<DatasetEntry>,
        queries: Arc<Vec<(ShapeQuery, usize)>>,
        options: &EngineOptions,
    ) -> io::Result<Partials> {
        let rec = self.rec;
        // Shard tasks are the unit of parallelism: the engine's own
        // viz-level threads stay off inside them.
        let inner = EngineOptions {
            parallel: false,
            parallel_threshold: usize::MAX,
            ..options.clone()
        };
        type Task = Box<dyn FnOnce() -> Result<Vec<Vec<TopKResult>>, String> + Send>;

        if entry.placement.iter().all(|p| *p == ShardPlacement::Local) {
            let shared = SharedThresholds::new(queries.len());
            let span = rec.open("engine.execute", Some(root), index);
            let tap = Arc::new(Tap {
                rec: Arc::clone(rec),
                parent: span,
                request: index,
                bound_micros: AtomicU64::new(0),
            });
            let lone = entry.placement.len() == 1;
            let mut tasks: Vec<Task> = Vec::with_capacity(entry.placement.len());
            for slot in 0..entry.placement.len() {
                let shard = entry.local_shard(slot).map_err(other)?;
                let (queries, shared, tap) =
                    (Arc::clone(&queries), shared.clone(), Arc::clone(&tap));
                let options = if lone { options.clone() } else { inner.clone() };
                tasks.push(Box::new(move || {
                    let items: Vec<(&ShapeQuery, usize)> =
                        queries.iter().map(|(q, k)| (q, *k)).collect();
                    shard
                        .top_k_batch_observed(&items, &options, &shared, &*tap)
                        .into_iter()
                        .collect::<Result<Vec<_>, _>>()
                        .map_err(|e| e.to_string())
                }));
            }
            let partials: Vec<Result<_, String>> = if lone {
                tasks.into_iter().map(|task| task()).collect()
            } else {
                self.state.compute.run_all(tasks)
            };
            rec.ended(
                "pruning.bound",
                Some(span),
                index,
                tap.bound_micros.load(Ordering::Relaxed) * 1_000,
            );
            rec.close(span);
            self.pruning.add(shared.snapshot());
            self.executed.push(Executed {
                request: index,
                dataset: entry.id.clone(),
                items: queries,
                options: options.clone(),
                nanos: rec.get(span).nanos(),
            });
            return partials
                .into_iter()
                .collect::<Result<_, _>>()
                .map_err(other);
        }

        let mut tasks: Vec<Task> = Vec::with_capacity(entry.placement.len());
        for placement in &entry.placement {
            let ShardPlacement::Remote(replicas) = placement else {
                return Err(other(
                    "the replay handles all-local or all-remote placements",
                ));
            };
            let (rec, state, queries, inner) = (
                Arc::clone(rec),
                Arc::clone(self.state),
                Arc::clone(&queries),
                inner.clone(),
            );
            let (dataset, endpoint) = (entry.id.clone(), replicas[0].clone());
            tasks.push(Box::new(move || {
                let under = Some(root);
                let hints = vec![None; queries.len()];
                let body = rec.time("protocol.shard_encode", under, index, |_| {
                    protocol::shard_request_to_json(&dataset, &queries, &hints, &inner, None)
                });
                let reply = rec
                    .time("client.rpc", under, index, |_| {
                        state.remote.post(&endpoint, "/shard/query", &body)
                    })
                    .map_err(|e| e.to_string())?;
                let partials = rec.time("protocol.shard_decode", under, index, |_| {
                    protocol::shard_outcomes_from_json(&reply.body, queries.len())
                })?;
                partials
                    .outcomes
                    .into_iter()
                    .collect::<Result<Vec<_>, _>>()
                    .map_err(|e| e.to_string())
            }));
        }
        self.state
            .compute
            .run_all(tasks)
            .into_iter()
            .collect::<Result<_, _>>()
            .map_err(other)
    }
}

/// Mean microseconds of `f` over `iters` calls after a tenth as many
/// unmeasured ones.
fn mean_us(iters: usize, mut f: impl FnMut(usize)) -> f64 {
    for i in 0..iters / 10 {
        f(i);
    }
    let started = Instant::now();
    for i in 0..iters {
        f(iters + i);
    }
    started.elapsed().as_secs_f64() * 1e6 / iters as f64
}

fn sample_results() -> Vec<TopKResult> {
    (0..5)
        .map(|i| TopKResult {
            key: format!("t{i:04}"),
            score: 0.5 - 0.01 * i as f64,
            viz_index: i,
            ranges: vec![(0, 40), (40, 127)],
        })
        .collect()
}

/// The numbers no workload changes: each layer's fixed costs, measured
/// on one thread in isolation, over `corpus` where one is needed. Once a
/// run is enough.
pub fn microbenches(corpus: &Corpus, nproc: usize) -> io::Result<Values> {
    let mut out = Values::new();

    // http, client: a stub router with a canned ~1 KiB `/shard/query`
    // reply, so the numbers hold framing and socket cost and no handler.
    let outcomes = vec![Ok(sample_results()), Ok(sample_results())];
    let canned = protocol::shard_outcomes_to_json(
        "walks",
        &outcomes,
        &[None, None],
        PruningSnapshot::default(),
        0,
        None,
    )
    .to_text();
    let stub: http::Router = Arc::new(move |_| Response::json(200, canned.clone()));
    let handle = http::serve("127.0.0.1:0", HttpConfig::default(), stub)?;
    let addr = handle.addr().to_string();
    let ask = json::parse(r#"{"dataset":"walks","queries":[]}"#).map_err(other)?;
    let bytes = wire::request_bytes("POST", "/shard/query", &ask.to_text());
    let mut conn = Conn::connect(&addr)?;
    let mut reply = Vec::new();
    let mut failed = None;
    out.push((
        "http.stub_roundtrip_us",
        mean_us(2_000, |_| {
            if let Err(e) = conn.roundtrip(&bytes, &mut reply) {
                failed = Some(e);
            }
        }),
    ));
    let client = PooledClient::new();
    out.push((
        "client.rpc_roundtrip_us",
        mean_us(2_000, |_| {
            if let Err(e) = client.post(&addr, "/shard/query", &ask) {
                failed = Some(e);
            }
        }),
    ));
    handle.shutdown();
    if let Some(e) = failed {
        return Err(e);
    }

    // cache: a hit on a resident key; a miss that leads, completes and
    // so evicts, on a cache at capacity.
    let cache = QueryCache::new(CACHE_CAPACITY);
    let options = EngineOptions::default();
    let query = parse_regex("[p=up][p=down]").map_err(other)?;
    let key = |i: usize| CacheKey::new("walks", 1, nproc, "local", &query, i, &options);
    let value = Arc::new(sample_results());
    for i in 0..CACHE_CAPACITY {
        cache.insert(key(i), Arc::clone(&value));
    }
    let resident = key(CACHE_CAPACITY - 1);
    out.push((
        "cache.hit_us",
        mean_us(20_000, |_| {
            black_box(matches!(cache.lookup(&resident), Lookup::Hit(_)));
        }),
    ));
    let fresh: Vec<CacheKey> = (0..5_500).map(|i| key(CACHE_CAPACITY + i)).collect();
    out.push((
        "cache.miss_insert_us",
        mean_us(5_000, |i| {
            if let Lookup::Lead(guard) = cache.lookup(&fresh[i % fresh.len()]) {
                guard.complete(Arc::clone(&value));
            }
        }),
    ));

    // compute: the pool's fixed cost of one fan-out.
    let pool = ComputePool::new(nproc);
    out.push((
        "compute.fanout_us",
        mean_us(5_000, |_| {
            let tasks: Vec<Box<dyn FnOnce() + Send>> = (0..nproc)
                .map(|_| Box::new(|| ()) as Box<dyn FnOnce() + Send>)
                .collect();
            black_box(pool.run_all(tasks));
        }),
    ));

    // datastore, engine: what one registration is made of.
    let ms = |started: Instant| started.elapsed().as_secs_f64() * 1e3;
    let started = Instant::now();
    let table = csv::read_str(&corpus.csv).map_err(other)?;
    out.push(("datastore.csv_parse_ms", ms(started)));
    let started = Instant::now();
    let extracted = extract(
        &table,
        &VisualSpec::new("z", "x", "y"),
        &ExtractOptions::default(),
    )
    .map_err(other)?;
    out.push(("datastore.extract_ms", ms(started)));
    let engine = ShardedEngine::from_trendlines(extracted.clone(), nproc);
    let started = Instant::now();
    engine.warm();
    out.push(("engine.group_warm_ms", ms(started)));

    // columnar: the batched slope kernel over every viz, bit-checked
    // against the scalar reference first.
    let grouped = group_collection(&extracted, 1);
    let vizzes: Vec<_> = grouped.iter().flatten().collect();
    let mut slopes = Vec::new();
    for v in &vizzes {
        let scalar = StatsIndex::new(v.xs(), v.ys());
        v.arena()
            .window_slopes(v.slot(), 0, 1, v.n() - 1, &mut slopes);
        for (offset, slope) in slopes.iter().enumerate() {
            if slope.to_bits() != scalar.slope(0, 1 + offset).to_bits() {
                return Err(other("columnar kernel diverged from StatsIndex::slope"));
            }
        }
    }
    let windows: usize = vizzes.iter().map(|v| v.n() - 1).sum();
    let pass_us = mean_us(20, |_| {
        for v in &vizzes {
            v.arena()
                .window_slopes(v.slot(), 0, 1, v.n() - 1, &mut slopes);
            black_box(&slopes);
        }
    });
    out.push(("columnar.windows_per_s", windows as f64 / (pass_us / 1e6)));

    Ok(out)
}

pub struct TracedPass {
    pub values: Values,
    pub spans: Vec<Span>,
}

/// Runs the three passes for one workload.
pub fn traced_pass(
    w: Workload,
    plan: &RequestPlan,
    corpora: &[Corpus],
    reference: &Reference,
    nproc: usize,
) -> io::Result<TracedPass> {
    let sample = w.requests.min(MAX_SAMPLE);
    let requests: Vec<&Request> = (0..sample).map(|pos| plan.sent(pos)).collect();

    let mut stage = Stage::new(corpora, w.routed, nproc)?;
    let untraced_state = stage.fresh_state(&plan.warmup)?;
    let (_, untraced) = serve_pass(&untraced_state, &requests, None)?;
    drop(untraced_state);

    let rec = Arc::new(Recorder::new());
    let traced_state = stage.fresh_state(&plan.warmup)?;
    let (replies, traced) = serve_pass(&traced_state, &requests, Some(&rec))?;
    drop(traced_state);

    let replay_state = stage.fresh_state(&plan.warmup)?;
    let mut replay = Replay {
        state: &replay_state,
        rec: &rec,
        pruning: PruningSnapshot::default(),
        executed: Vec::new(),
    };
    for (index, (request, reply)) in requests.iter().zip(&replies).enumerate() {
        let replayed = replay.request(index as u32, request)?;
        if check::results_texts(reply, request.batch).as_ref() != Some(&replayed) {
            return Err(other(format!(
                "replay of request {index} disagrees with handlers::route: {}",
                request.body()
            )));
        }
    }
    let Replay {
        pruning, executed, ..
    } = replay;

    // The no-fan-out baseline: the same computations on one shard, for
    // at most two seconds' worth of them.
    let budget = Instant::now() + Duration::from_secs(2);
    let (mut served_ns, mut one_shard_ns) = (0u64, 0u64);
    let mut compared = std::collections::BTreeSet::new();
    for e in &executed {
        if Instant::now() > budget && !compared.contains(&e.request) {
            break;
        }
        let items: Vec<(&ShapeQuery, usize)> = e.items.iter().map(|(q, k)| (q, *k)).collect();
        let started = Instant::now();
        black_box(reference.engine(&e.dataset).top_k_batch_observed(
            &items,
            &e.options,
            &SharedThresholds::new(items.len()),
            &NoopObserver,
        ));
        one_shard_ns += started.elapsed().as_nanos() as u64;
        served_ns += e.nanos;
        compared.insert(e.request);
    }
    let compared = compared.len() as u64;

    let rec = Arc::into_inner(rec).expect("the traced server has shut down");
    let spans = rec.into_spans();
    let own = trace::self_nanos(&spans);
    let span_us = |name: &str| trace::mean_us_per_request(&spans, name);
    let request_us = span_us("request");
    let route_us = span_us("handlers.route");
    let replay_us = span_us("replay");
    let accounted_us = replay_us - trace::mean_self_us_per_request(&spans, &own, "replay");
    let per = |total: u64, n: u64| if n == 0 { 0.0 } else { total as f64 / n as f64 };
    let segment_score_ns: u64 = spans
        .iter()
        .filter(|s| s.name == "engine.segment_score")
        .map(Span::nanos)
        .sum();

    let values = vec![
        ("http.self_us", request_us - route_us),
        ("handlers.route_us", route_us),
        ("handlers.unaccounted_us", route_us - accounted_us),
        (
            "layers.accounted_share",
            if route_us > 0.0 {
                accounted_us / route_us
            } else {
                0.0
            },
        ),
        ("json.parse_us", span_us("json.parse")),
        ("json.render_us", span_us("json.render")),
        ("protocol.plan_us", span_us("protocol.plan")),
        ("protocol.serialize_us", span_us("protocol.serialize")),
        ("protocol.shard_encode_us", span_us("protocol.shard_encode")),
        ("protocol.shard_decode_us", span_us("protocol.shard_decode")),
        ("parser.regex_us", span_us("parser.regex")),
        ("engine.execute_us", span_us("engine.execute")),
        (
            "engine.execute_1shard_us",
            per(one_shard_ns, compared) / 1e3,
        ),
        ("engine.fanout_speedup", per(one_shard_ns, served_ns.max(1))),
        ("engine.group_us", span_us("engine.group")),
        ("engine.segment_score_us", span_us("engine.segment_score")),
        (
            "engine.us_per_scored_viz",
            per(segment_score_ns, pruning.scored) / 1e3,
        ),
        ("pruning.bound_us", span_us("pruning.bound")),
        ("pruning.bounded", pruning.bounded as f64),
        ("pruning.pruned", pruning.pruned as f64),
        ("pruning.scored", pruning.scored as f64),
        (
            "pruning.pruned_share",
            per(pruning.pruned, pruning.pruned + pruning.scored),
        ),
        ("shard.merge_us", span_us("shard.merge")),
        (
            "catalog.register_ms",
            crate::stats::mean(&stage.register_ms),
        ),
        (
            "trace.overhead_share",
            traced.as_secs_f64() / untraced.as_secs_f64() - 1.0,
        ),
        ("trace.spans", spans.len() as f64),
    ];
    Ok(TracedPass { values, spans })
}
