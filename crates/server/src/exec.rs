//! The one query pipeline behind `POST /query` and `POST /shard/query`:
//! plan → singleflight resolve → shard fan-out → merge.
//!
//! [`resolve_items`] takes any slice of request items — a single query
//! is a batch of one. Each item is planned — its query text's [`Plan`]
//! comes from the plan memo, or is parsed and memoised — and run through
//! the result cache's singleflight lookup (identical queries within the
//! slice — or racing in from other requests — collapse onto one
//! computation), and the
//! cache misses are grouped per `(dataset registration, options)`. Each
//! group then goes through [`execute_on_shards`]: **one task per shard
//! slot** (a [`shapesearch_core::ShapeEngine::top_k_batch_observed`] pass
//! over a local partition, so the GROUP stage still runs once per
//! trendline for the whole group — or a `/shard/query` RPC for a remote
//! one) whose per-shard top-k partials merge deterministically. One
//! query can saturate every core, while a giant batch decomposes into
//! short shard tasks that interleave fairly with other requests on the
//! same pool. The envelope renderers in [`crate::handlers`] are the only
//! place the single and batch forms differ.

use crate::cache::{CacheKey, FlightGuard, FlightWaiter, Lookup, Plan, PlanCache, PlanKey, Probe};
use crate::catalog::{DatasetEntry, ShardPlacement};
use crate::error::ServerError;
use crate::handlers::AppState;
use crate::json::Json;
use crate::obs::{self, Span, TraceId};
use crate::protocol::{self, FrontDoor};
use crate::stats::Stats;
use shapesearch_core::{
    merge_topk_refs, EngineOptions, EngineStage, PruningSnapshot, ShapeEngine, ShapeQuery,
    SharedThresholds, StageObserver, TopKResult,
};
use shapesearch_parser::MAX_NL_BYTES;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One query of a request, planned: dataset resolved, query text's plan
/// (canonical AST, NL notes, canonical text) obtained, effective options
/// and cache key computed. Everything but the plan is the request's own.
pub(crate) struct PlannedQuery {
    pub entry: Arc<DatasetEntry>,
    pub plan: Arc<Plan>,
    /// How `plan` was obtained: the `parse_plan` span's detail.
    pub plan_source: PlanSource,
    pub k: usize,
    pub options: EngineOptions,
    pub key: CacheKey,
    /// The request asked for its trace (`"explain": true`) in the
    /// response envelope. Never part of the cache key: tracing observes
    /// the computation, it does not change it.
    pub explain: bool,
    /// The request opted into degraded answers (`"partial": true`): if
    /// every replica of some shard is down, it prefers the responsive
    /// shards' merged partial (flagged with a `degraded` block) over a
    /// 502. Never part of the cache key — a degraded answer is never
    /// cached, and the exact answer is the same either way.
    pub partial: bool,
}

/// How an item's [`Plan`] was obtained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum PlanSource {
    /// The plan memo had it.
    Hit,
    /// Shared from another request parsing the same text at that moment.
    Coalesced,
    /// Parsed by this request (memoised unless the text was too long).
    Parsed,
}

impl PlanSource {
    /// The `parse_plan` span's detail.
    pub fn name(self) -> &'static str {
        match self {
            PlanSource::Hit => "hit",
            PlanSource::Coalesced => "coalesced",
            PlanSource::Parsed => "miss",
        }
    }
}

fn plan_query(state: &AppState, body: &Json) -> Result<PlannedQuery, ServerError> {
    let mut req = protocol::query_request_from_json(body)?;
    let entry = state
        .catalog
        .get(&req.dataset)
        .ok_or_else(|| ServerError::not_found(format!("unknown dataset `{}`", req.dataset)))?;
    let (door, text) = req.take_text();
    let (plan, plan_source) = plan_text(&state.plans, door, text)?;
    let (options, options_fp) = state.effective_options(&req);
    let key = CacheKey::rendered(
        &entry.id,
        entry.generation,
        entry.shard_count,
        &entry.placement_fp,
        Arc::clone(&plan.canon),
        req.k,
        options_fp,
    );
    Ok(PlannedQuery {
        entry,
        plan,
        plan_source,
        k: req.k,
        options,
        key,
        explain: req.explain,
        partial: req.partial,
    })
}

/// Parses a query text through its front door into its [`Plan`].
fn parse_plan(door: FrontDoor, text: &str) -> Result<Plan, ServerError> {
    let (ast, notes) = protocol::parse_query(door, text)?;
    let canon = ast.to_string().into();
    Ok(Plan { ast, notes, canon })
}

/// The most bytes ([`Plan::bytes`]) a memoised plan may hold. A 46-byte
/// located query's plan holds 542 B, a chain of 16 units 2,736 B, and a
/// 4 KB text of ORs ≈ 390 KB.
const MAX_MEMO_PLAN_BYTES: usize = 4 * 1024;

/// The plan of a query text: the memo's, or parsed now. Parsing is pure,
/// so a plan is shared by every request that sends the same text through
/// the same front door, whatever its dataset, `k` or options. A text that
/// parses is memoised — through the cache's singleflight, so a burst of
/// one text parses once — unless it is longer than [`MAX_NL_BYTES`] or its
/// plan holds more than [`MAX_MEMO_PLAN_BYTES`]: the memo holds at most
/// its capacity of plans that small. A text that does not parse is never
/// memoised; whoever sends it again gets the same error from a fresh
/// parse.
fn plan_text(
    plans: &PlanCache,
    door: FrontDoor,
    text: String,
) -> Result<(Arc<Plan>, PlanSource), ServerError> {
    if text.len() > MAX_NL_BYTES {
        return Ok((Arc::new(parse_plan(door, &text)?), PlanSource::Parsed));
    }
    let key = PlanKey { door, text };
    loop {
        match plans.lookup(&key) {
            Probe::Hit(plan) => return Ok((plan, PlanSource::Hit)),
            Probe::Lead(leader) => {
                // An error, or a plan too big to keep, drops the leader:
                // its waiters wake and parse for themselves.
                let plan = Arc::new(parse_plan(door, &key.text)?);
                if plan.bytes() <= MAX_MEMO_PLAN_BYTES {
                    leader.complete(Arc::clone(&plan));
                }
                return Ok((plan, PlanSource::Parsed));
            }
            Probe::Pending(waiter) => {
                if let Some(plan) = waiter.wait() {
                    return Ok((plan, PlanSource::Coalesced));
                }
            }
        }
    }
}

/// The engine stages a local shard task reports, in span order.
const ENGINE_STAGES: [EngineStage; 3] = [
    EngineStage::Group,
    EngineStage::SegmentScore,
    EngineStage::PruneBound,
];

/// The per-task [`StageObserver`]: forwards every engine stage sample,
/// at the engine's own resolution, into the process-wide histograms and
/// accumulates per-task totals in nanoseconds (in [`ENGINE_STAGES`]
/// order) for the task's span — the same samples, so span and histogram
/// cannot disagree. Atomics because a [`StageObserver`] is `Sync`; one
/// task's engine pass reports from one thread.
struct StageTap<'m> {
    stats: &'m Stats,
    nanos: [AtomicU64; 3],
}

impl StageObserver for StageTap<'_> {
    fn stage(&self, stage: EngineStage, micros: u64) {
        self.stage_duration(stage, Duration::from_micros(micros));
    }

    fn stage_duration(&self, stage: EngineStage, elapsed: Duration) {
        self.stats.stage(obs::Stage::from_engine(stage), elapsed);
        self.nanos[stage as usize].fetch_add(elapsed.as_nanos() as u64, Ordering::Relaxed);
    }
}

/// One query's answer from one shard or from the merge: its top k, or a
/// structured error.
type QueryOutcome = Result<Vec<TopKResult>, ServerError>;

/// One shard's contribution to a query group: per-query outcomes (the
/// shard's exact top-k partial or a structured error) and the shard's
/// microseconds (engine-side for local shards, RPC round-trip for remote
/// ones).
struct ShardRun {
    outcomes: Vec<QueryOutcome>,
    micros: u64,
    /// Engine-stage totals of a local task in [`ENGINE_STAGES`] order,
    /// in whole microseconds of the exact sum (zero for remote shards — their engine time shows in their own
    /// spans below).
    stages: [u64; 3],
    /// A remote shard server's own span tree (present only when the RPC
    /// carried a `trace_id`; always empty for local shards).
    remote_spans: Vec<Span>,
}

/// What every slot of one fan-out runs, built once per fan-out. Pool
/// tasks run on long-lived threads, so the work owns what it reads (the
/// app state for the RPC client and gauges, the query list) and is
/// shared behind one `Arc`.
struct ShardWork {
    state: Arc<AppState>,
    dataset: String,
    queries: Vec<(ShapeQuery, usize)>,
    options: EngineOptions,
    trace: Option<String>,
}

/// One placement slot resolved for execution: where the partition lives
/// is the only thing that differs between slots, and only at this leaf.
#[derive(Clone)]
enum Slot {
    /// A partition in this process, its engine already materialized.
    Local(Arc<ShapeEngine>),
    /// A partition on shard servers: its replica list.
    Remote(Vec<String>),
}

impl Slot {
    /// Runs `work` on this slot against the computation's shared
    /// threshold cells.
    ///
    /// **Local:** the batched engine pass over one partition (so this
    /// shard's proven progress prunes the other local shards' work and
    /// vice versa), with its engine-side time. Engine errors map to 400s
    /// here so local and remote partials carry one error type into the
    /// merge.
    ///
    /// **Remote:** ships the query group to the shard's replica list
    /// over the pooled RPC client's health-checked failover
    /// ([`crate::PooledClient::post_replicas`]) and decodes the per-query
    /// partials from the first replica that answers well. The shard
    /// server prunes on its own proven thresholds only, so its partial is
    /// exact for its partition and `shared` is not read. Per-replica
    /// failures (connect — after the client's configured retries —, I/O,
    /// a non-200 envelope, or a malformed body) make failover move to the
    /// next replica; this is safe for any failure class because
    /// `/shard/query` is a pure idempotent read — at worst a slow
    /// replica computes an answer nobody consumes. Only when **every**
    /// replica has failed does the group get a
    /// [`ServerError::replicas_unavailable`] naming each attempted
    /// endpoint with its failure, replicated across every query of the
    /// group. *Per-query* engine errors inside a 200 envelope pass
    /// through with their original status and message, so an all-remote
    /// placement reports the same errors an all-local one would. Books
    /// every attempted endpoint's gauges, successful or not.
    fn run(&self, work: &ShardWork, shared: &SharedThresholds) -> ShardRun {
        let state = &work.state;
        let queries = &work.queries;
        let started = Instant::now();
        match self {
            Slot::Local(engine) => {
                let tap = StageTap {
                    stats: &state.stats,
                    nanos: Default::default(),
                };
                let items: Vec<(&ShapeQuery, usize)> =
                    queries.iter().map(|(q, k)| (q, *k)).collect();
                let outcomes = engine
                    .top_k_batch_observed(&items, &work.options, shared, &tap)
                    .into_iter()
                    .map(|outcome| {
                        outcome.map_err(|e| ServerError::bad_request(format!("query failed: {e}")))
                    })
                    .collect();
                let elapsed = started.elapsed();
                state.stats.stage(obs::Stage::ShardCompute, elapsed);
                let micros = elapsed.as_micros() as u64;
                ShardRun {
                    outcomes,
                    micros,
                    stages: tap.nanos.map(|nanos| nanos.into_inner() / 1_000),
                    remote_spans: Vec::new(),
                }
            }
            Slot::Remote(replicas) => {
                let body = protocol::shard_request_to_json(
                    &work.dataset,
                    queries,
                    &[],
                    &work.options,
                    work.trace.as_deref(),
                );
                let outcome =
                    state
                        .remote
                        .post_replicas(replicas, "/shard/query", &body, |response| {
                            if response.status == 200 {
                                protocol::shard_outcomes_from_json(&response.body, queries.len())
                            } else {
                                let detail = response.body.get("error").and_then(Json::as_str);
                                Err(format!(
                                    "status {}: {}",
                                    response.status,
                                    detail.unwrap_or("(no error detail)")
                                ))
                            }
                        });
                let elapsed = started.elapsed();
                state.stats.stage(obs::Stage::RemoteRpc, elapsed);
                let micros = elapsed.as_micros() as u64;
                state.stats.record_rpc(&outcome.attempts);
                let (outcomes, remote_spans) = match outcome.accepted {
                    Some((partials, _served_by)) => (partials.outcomes, partials.spans),
                    None => {
                        let err =
                            ServerError::replicas_unavailable(outcome.attempts.iter().map(|a| {
                                (
                                    a.endpoint.as_str(),
                                    a.error.as_deref().unwrap_or("unknown failure"),
                                )
                            }));
                        (vec![Err(err); queries.len()], Vec::new())
                    }
                };
                ShardRun {
                    outcomes,
                    micros,
                    stages: [0; 3],
                    remote_spans,
                }
            }
        }
    }

    /// This slot's span in a traced fan-out: a local shard's engine-stage
    /// breakdown, or a remote RPC with the remote server's own spans
    /// stitched underneath.
    fn span(&self, index: usize, run: &ShardRun) -> Span {
        match self {
            Slot::Local(_) => {
                let mut span = Span::new("shard_compute", run.micros)
                    .with_detail(format!("shard {index} local"));
                for (stage, micros) in ENGINE_STAGES.into_iter().zip(run.stages) {
                    if micros > 0 {
                        span.push(Span::new(obs::Stage::from_engine(stage).name(), micros));
                    }
                }
                span
            }
            Slot::Remote(replicas) => {
                let mut span = Span::new("remote_rpc", run.micros)
                    .with_detail(format!("shard {index} @ {}", replicas.join("|")));
                span.children = run.remote_spans.clone();
                span
            }
        }
    }
}

/// Merges per-shard runs into each query's outcome under the engine's one
/// ordering contract ([`merge_topk_refs`]: score descending, ties to the
/// lower global `viz_index`), in one pass over the runs a query. The first
/// failing shard's error (in partition order) stands for the query — a
/// partial top-k missing a shard's candidates must never be passed off as
/// the global answer. Beside a failed outcome goes its degraded fallback:
/// the merge of whatever shards *did* answer, offered upward so a
/// `"partial": true` caller can trade completeness for availability —
/// only when every failing shard failed with `shard_unavailable`. A real
/// engine error on any shard poisons the whole query: masking it as
/// "degraded" would hide a bug.
fn merge_shard_runs(runs: &[ShardRun], ks: &[usize]) -> Vec<(QueryOutcome, Option<DegradedQuery>)> {
    ks.iter()
        .enumerate()
        .map(|(qi, &k)| {
            let mut partials: Vec<&[TopKResult]> = Vec::with_capacity(runs.len());
            let mut first_err = None;
            let mut maskable = true;
            let (mut missing, mut errors) = (Vec::new(), Vec::new());
            for (slot, run) in runs.iter().enumerate() {
                match &run.outcomes[qi] {
                    Ok(results) => partials.push(results),
                    Err(e) => {
                        first_err.get_or_insert(e);
                        if e.code == Some("shard_unavailable") {
                            missing.push(slot);
                            errors.push((slot, e.message.clone()));
                        } else {
                            maskable = false;
                        }
                    }
                }
            }
            let results = merge_topk_refs(partials, k);
            match first_err {
                None => (Ok(results), None),
                Some(e) => (
                    Err(e.clone()),
                    maskable.then_some(DegradedQuery {
                        results,
                        info: DegradedInfo { missing, errors },
                    }),
                ),
            }
        })
        .collect()
}

/// Everything one shard fan-out produced: the merged per-query outcomes,
/// the per-shard timings (placement order) and the computation's pruning
/// counter snapshot.
pub(crate) struct ShardExec {
    pub outcomes: Vec<QueryOutcome>,
    pub shard_micros: Vec<u64>,
    pub pruning: PruningSnapshot,
    /// The fan-out's span forest, one span per shard slot (stitching in
    /// remote servers' own spans) plus the merge span. Empty unless the
    /// computation was traced.
    pub spans: Vec<Span>,
    /// Per query: the best *partial* answer assemblable from the shards
    /// that did respond, present only when the query failed **and** the
    /// failure is maskable — every failing shard failed with
    /// `shard_unavailable` (all replicas dead; an engine error is never
    /// maskable). Consumed only by queries that opted in with
    /// `"partial": true`; everyone else keeps the error.
    pub degraded: Vec<Option<DegradedQuery>>,
}

/// A partial answer for one query: the deterministic merge of the
/// responsive shards' top-k partials, plus which partitions are missing
/// and why. Never cached, never presented as exact.
pub(crate) struct DegradedQuery {
    pub results: Vec<TopKResult>,
    pub info: DegradedInfo,
}

/// The `degraded` response block of a partial answer: the missing
/// partition indices and each one's replica-failure message.
#[derive(Debug, Clone)]
pub(crate) struct DegradedInfo {
    pub missing: Vec<usize>,
    pub errors: Vec<(usize, String)>,
}

/// Executes one `(dataset, options)` query group over the dataset's
/// partition map and merges each query's per-shard top-k partials
/// deterministically. The per-slot work is built **once** ([`ShardWork`]
/// and one resolved [`Slot`] per placement entry); the only remaining
/// choice is *where* the slots run. A lone **local** slot runs inline on
/// the calling thread — there is nothing to fan out. Every other shape
/// fans out as **one compute-pool task per slot** — the submitting HTTP
/// worker helps drain the pool while it waits, so a single query can
/// occupy as many cores as it has shards and large batches interleave
/// with other requests as short shard tasks; local engine passes and
/// remote RPCs are leaf work alike (neither submits further tasks, so the
/// help-while-waiting protocol cannot deadlock). Shards are the unit of
/// parallelism: the engine scores a slot's candidates on the thread that
/// runs it, so every slot runs with the options as planned.
///
/// **Threshold flow.** Every local shard task shares one fresh
/// [`SharedThresholds`] (one cell per query), so one local shard's proven
/// k-th prunes the others. A remote shard server prunes on its own
/// proven thresholds only and returns the exact top-k partial of its
/// partition, so the merge needs no verification pass.
///
/// This is the workspace's only shard-level fan-out (core's own
/// partition map schedules nothing). The distributed invariant rides on
/// the shared merge: partials are partials, whether they came off this
/// process's pool or over the wire, so results stay byte-identical to a
/// single-process run for every placement.
pub(crate) fn execute_on_shards(
    state: &Arc<AppState>,
    entry: &Arc<DatasetEntry>,
    queries: Vec<(ShapeQuery, usize)>,
    options: &EngineOptions,
    trace: Option<&str>,
) -> ShardExec {
    let ks: Vec<usize> = queries.iter().map(|&(_, k)| k).collect();
    // Every local engine was built at registration.
    let slots: Vec<Slot> = entry
        .placement
        .iter()
        .enumerate()
        .map(|(index, placement)| match placement {
            ShardPlacement::Local => {
                let Ok(engine) = entry.local_shard(index);
                Slot::Local(engine)
            }
            ShardPlacement::Remote(replicas) => Slot::Remote(replicas.clone()),
        })
        .collect();
    let shared = SharedThresholds::new(queries.len());
    let work = Arc::new(ShardWork {
        state: Arc::clone(state),
        dataset: entry.id.clone(),
        queries,
        options: options.clone(),
        trace: trace.map(str::to_owned),
    });

    // One task per slot, built the same way wherever it will run.
    let tasks: Vec<Box<dyn FnOnce() -> ShardRun + Send>> = slots
        .iter()
        .map(|slot| {
            let (slot, work, shared) = (slot.clone(), Arc::clone(&work), shared.clone());
            Box::new(move || slot.run(&work, &shared)) as _
        })
        .collect();
    let runs: Vec<ShardRun> = if matches!(slots[..], [Slot::Local(_)]) {
        tasks.into_iter().map(|task| task()).collect()
    } else {
        state.compute.run_all(tasks)
    };

    let ((outcomes, degraded), merge_micros) = state.stats.time(obs::Stage::Merge, || {
        merge_shard_runs(&runs, &ks).into_iter().unzip()
    });

    // One critical section per fan-out. Only local slots count as shard
    // tasks; remote RPCs were booked per endpoint as they ran.
    let pruning = shared.snapshot();
    let local_micros = slots
        .iter()
        .zip(&runs)
        .filter(|(slot, _)| matches!(slot, Slot::Local(_)))
        .map(|(_, run)| run.micros);
    state.stats.record_fanout(local_micros, pruning);

    // The fan-out's span forest: one span per shard slot plus the merge.
    // Built only for traced computations; untraced requests pay nothing.
    let spans = if trace.is_some() {
        let mut spans: Vec<Span> = slots
            .iter()
            .zip(&runs)
            .enumerate()
            .map(|(index, (slot, run))| slot.span(index, run))
            .collect();
        spans.push(Span::new("merge", merge_micros));
        spans
    } else {
        Vec::new()
    };

    ShardExec {
        outcomes,
        shard_micros: runs.iter().map(|run| run.micros).collect(),
        pruning,
        spans,
        degraded,
    }
}

/// What a led computation produced beyond the answer itself, shared by
/// every item of the group that led it.
pub(crate) struct LedExec {
    /// Per-shard micros of the fan-out, placement order.
    pub shard_micros: Vec<u64>,
    /// The fan-out's span forest; empty unless the group was traced.
    pub spans: Vec<Span>,
    /// The computation's pruning counters.
    pub pruning: PruningSnapshot,
}

/// How a resolved item's answer was obtained.
pub(crate) enum Source {
    /// The LRU had it.
    Hit,
    /// Shared from another flight's leader (another request, or an
    /// earlier item of this one).
    Coalesced,
    /// This very request did the computing. Only a led answer carries
    /// shard timings, fan-out spans and pruning counters — a cached
    /// answer did no shard or pruning work for this request.
    Led(Arc<LedExec>),
}

/// One resolved request item: the results and how they were obtained.
pub(crate) struct Resolved {
    pub planned: PlannedQuery,
    pub value: Arc<Vec<TopKResult>>,
    pub source: Source,
    /// Present when `value` is a **degraded** partial answer: the
    /// missing partitions and their failures. Only ever set for
    /// `"partial": true` items that led a computation; degraded values
    /// are never cached, so hits and coalesced waits are always exact.
    pub degraded: Option<DegradedInfo>,
    pub plan_micros: u64,
    /// Time spent in result-cache lookups (more than one when a foreign
    /// leader failed and the item looked its key up again).
    pub lookup_micros: u64,
    /// Time spent waiting on flights the item joined; `None` when it
    /// joined none.
    pub wait_micros: Option<u64>,
}

impl Resolved {
    /// The computation this item led, if it did.
    pub fn led(&self) -> Option<&LedExec> {
        match &self.source {
            Source::Led(led) => Some(led),
            Source::Hit | Source::Coalesced => None,
        }
    }

    /// This item's `parse_plan` trace span, detailed with how the plan
    /// memo lookup went.
    pub fn plan_span(&self) -> Span {
        Span::new(obs::Stage::ParsePlan.name(), self.plan_micros)
            .with_detail(self.planned.plan_source.name())
    }

    /// This item's `cache_lookup` trace span, detailed with how the
    /// singleflight lookup went, and its `singleflight_wait` span when it
    /// waited on a flight.
    pub fn lookup_spans(&self) -> Vec<Span> {
        let outcome = match self.source {
            Source::Hit => "hit",
            Source::Coalesced => "coalesced",
            Source::Led(_) => "miss",
        };
        let lookup = Span::new(obs::Stage::CacheLookup.name(), self.lookup_micros);
        let wait = self
            .wait_micros
            .map(|micros| Span::new(obs::Stage::SingleflightWait.name(), micros));
        std::iter::once(lookup.with_detail(outcome))
            .chain(wait)
            .collect()
    }
}

/// A planned item whose singleflight lookup did not hit: it holds either
/// the leader's guard or a waiter on someone else's flight.
struct Pending<F> {
    index: usize,
    planned: PlannedQuery,
    plan_micros: u64,
    lookup_micros: u64,
    flight: F,
}

/// Resolves every item of a `POST /query` body — one result per item, in
/// order — blocking as long as it takes.
///
/// Phase 1 plans every item and runs each through the singleflight
/// lookup, in order. Duplicate keys *within* the slice coalesce here
/// too: the first occurrence leads, later ones receive waiters on the
/// very flight this request is about to compute.
///
/// Phase 2 executes every lead through the engine's batched path,
/// grouped by (dataset registration, effective options): each group is
/// one pass over its trendline collection, sharing the GROUP stage
/// across all its queries. `generation` is globally unique, so it alone
/// pins the dataset; the fingerprint pins every result-affecting option.
///
/// Phase 3 — only once every lead this request owns has been completed —
/// blocks on foreign (or own, for in-slice duplicates) flights.
/// Completing before waiting means two requests leading different keys
/// and waiting on each other's can never deadlock. When a foreign leader
/// fails, its waiter re-runs the pipeline on that one item: the retry's
/// lookup either elects it leader (a fresh, *counted* miss) or
/// re-coalesces onto whoever won — so every engine computation shows up
/// as exactly one `misses` tick, even on error paths (engine errors are
/// deterministic, so whoever computes next surfaces the same error).
pub(crate) fn resolve_items(
    state: &Arc<AppState>,
    items: &[Json],
    trace_id: &TraceId,
) -> Vec<Result<Resolved, ServerError>> {
    // A hit resolves in place; only items that must compute or wait are
    // parked here (empty, and so allocation-free, on an all-hit request).
    let mut leads: Vec<Pending<FlightGuard<'_>>> = Vec::new();
    let mut waits: Vec<Pending<FlightWaiter>> = Vec::new();
    let mut out: Vec<Result<Resolved, ServerError>> = Vec::with_capacity(items.len());
    let stats = &state.stats;
    for (index, item) in items.iter().enumerate() {
        let (planned, plan_micros) = stats.time(obs::Stage::ParsePlan, || plan_query(state, item));
        let planned = match planned {
            Ok(planned) => planned,
            Err(e) => {
                out.push(Err(e));
                continue;
            }
        };
        let (lookup, lookup_micros) =
            stats.time(obs::Stage::CacheLookup, || state.cache.lookup(&planned.key));
        let parked = || Err(ServerError::internal("query item left unresolved"));
        out.push(match lookup {
            Lookup::Hit(value) => Ok(Resolved {
                planned,
                value,
                source: Source::Hit,
                degraded: None,
                plan_micros,
                lookup_micros,
                wait_micros: None,
            }),
            Lookup::Pending(flight) => {
                waits.push(Pending {
                    index,
                    planned,
                    plan_micros,
                    lookup_micros,
                    flight,
                });
                parked()
            }
            Lookup::Lead(flight) => {
                leads.push(Pending {
                    index,
                    planned,
                    plan_micros,
                    lookup_micros,
                    flight,
                });
                parked()
            }
        });
    }

    let mut groups: Vec<Vec<Pending<FlightGuard<'_>>>> = Vec::new();
    for lead in leads {
        let same_group = |group: &&mut Vec<Pending<FlightGuard<'_>>>| {
            let first = &group[0].planned;
            first.entry.generation == lead.planned.entry.generation
                && first.key.options_fp == lead.planned.key.options_fp
        };
        match groups.iter_mut().find(same_group) {
            Some(group) => group.push(lead),
            None => groups.push(vec![lead]),
        }
    }
    for group in groups {
        let specs: Vec<(ShapeQuery, usize)> = group
            .iter()
            .map(|lead| (lead.planned.plan.ast.clone(), lead.planned.k))
            .collect();
        // One member asking for `explain` traces the whole group's
        // fan-out — the computation is shared, so its spans are too. The
        // trace ID rides the shard wire only then: remote span
        // collection is strictly opt-in, so the distributed reply stays
        // byte-identical for everyone else.
        let traced = group.iter().any(|lead| lead.planned.explain);
        let exec = execute_on_shards(
            state,
            &group[0].planned.entry,
            specs,
            &group[0].planned.options,
            traced.then(|| trace_id.get()),
        );
        let led = Arc::new(LedExec {
            shard_micros: exec.shard_micros,
            spans: exec.spans,
            pruning: exec.pruning,
        });
        for ((lead, outcome), fallback) in group.into_iter().zip(exec.outcomes).zip(exec.degraded) {
            let answer = match outcome {
                Ok(results) => {
                    let value = Arc::new(results);
                    lead.flight.complete(Arc::clone(&value));
                    Ok((value, None))
                }
                Err(e) => {
                    // Dropping the guard publishes the failure so
                    // coalesced waiters wake (and re-contend) instead of
                    // deadlocking — crucially it also means a degraded
                    // answer is NEVER cached: only this opted-in item
                    // sees it, and the next request recomputes from
                    // scratch.
                    drop(lead.flight);
                    match fallback {
                        Some(DegradedQuery { results, info }) if lead.planned.partial => {
                            Ok((Arc::new(results), Some(info)))
                        }
                        _ => Err(e),
                    }
                }
            };
            out[lead.index] = answer.map(|(value, degraded)| Resolved {
                planned: lead.planned,
                value,
                source: Source::Led(Arc::clone(&led)),
                degraded,
                plan_micros: lead.plan_micros,
                lookup_micros: lead.lookup_micros,
                wait_micros: None,
            });
        }
    }

    for wait in waits {
        let (outcome, wait_micros) =
            stats.time(obs::Stage::SingleflightWait, || wait.flight.wait());
        out[wait.index] = match outcome {
            Some(value) => Ok(Resolved {
                planned: wait.planned,
                value,
                source: Source::Coalesced,
                degraded: None,
                plan_micros: wait.plan_micros,
                lookup_micros: wait.lookup_micros,
                wait_micros: Some(wait_micros),
            }),
            None => {
                let item = std::slice::from_ref(&items[wait.index]);
                let mut retried = resolve_items(state, item, trace_id)
                    .pop()
                    .expect("one result per item");
                if let Ok(resolved) = &mut retried {
                    resolved.lookup_micros += wait.lookup_micros;
                    *resolved.wait_micros.get_or_insert(0) += wait_micros;
                }
                retried
            }
        };
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::handlers::route;
    use crate::http::Request;
    use crate::json;

    fn register(state: &Arc<AppState>, id: &str) {
        let body = format!(
            r#"{{"name":"{id}","id":"{id}","csv":"z,x,y\na,1,1\na,2,3\nb,1,3\nb,2,1\n","z":"z","x":"x","y":"y"}}"#
        );
        let request = Request {
            method: "POST".into(),
            path: "/datasets".into(),
            headers: Vec::new(),
            body: body.into_bytes(),
        };
        assert_eq!(route(state, &request).status, 201);
    }

    /// The memo keeps only small plans: a 4 KB text of ORs parses to over
    /// a thousand AST nodes and is planned afresh every time, while a
    /// located query and a chain of 16 units are memoised.
    #[test]
    fn the_plan_memo_keeps_no_plan_far_larger_than_its_text() {
        let plans = PlanCache::new(8);
        let plan = |text: &str| plan_text(&plans, FrontDoor::Regex, text.to_owned()).unwrap();
        let mut ors = String::new();
        while ors.len() + 10 <= MAX_NL_BYTES {
            ors.push_str("([]|[])|");
        }
        ors.push_str("[]");
        for _ in 0..2 {
            let (big, source) = plan(&ors);
            assert_eq!(source, PlanSource::Parsed);
            assert!(big.bytes() > 90 * ors.len(), "{}", big.bytes());
            assert_eq!(plans.stats().entries, 0);
        }
        let located = "[x.s=30, x.e=50, p=up][x.s=50, x.e=90, p=down]";
        let chain = "[p=up][p=down]".repeat(8);
        for text in [located, &chain] {
            let (small, _) = plan(text);
            assert!(
                small.bytes() <= MAX_MEMO_PLAN_BYTES,
                "{text}: {}",
                small.bytes()
            );
            assert_eq!(plan(text).1, PlanSource::Hit, "{text}");
        }
        assert_eq!(plans.stats().entries, 2);
    }

    /// Two requests that send one text share its plan and nothing else:
    /// dataset, `k`, `explain`, `partial` and the cache key's dataset
    /// part are each request's own.
    #[test]
    fn a_memo_hit_plans_the_rest_from_its_own_request() {
        let state = Arc::new(AppState::new(8, 1, None, 1));
        register(&state, "t1");
        register(&state, "t2");
        let plan = |body: &str| plan_query(&state, &json::parse(body).unwrap()).unwrap();
        let first = plan(r#"{"dataset":"t1","query":"[p=up][p=down]","k":1}"#);
        let second = plan(
            r#"{"dataset":"t2","query":"[p=up][p=down]","k":3,"explain":true,"partial":true}"#,
        );
        assert_eq!(first.plan_source, PlanSource::Parsed);
        assert_eq!(second.plan_source, PlanSource::Hit);
        assert!(Arc::ptr_eq(&first.plan, &second.plan));
        let own = |p: &PlannedQuery| (p.entry.id.clone(), p.k, p.explain, p.partial);
        assert_eq!(own(&first), ("t1".to_owned(), 1, false, false));
        assert_eq!(own(&second), ("t2".to_owned(), 3, true, true));
        assert_eq!((&*second.key.dataset, second.key.k), ("t2", 3));
        assert_eq!(second.key.query_canon, first.key.query_canon);
        // The same text through the other front door is another plan.
        let nl = plan(r#"{"dataset":"t1","nl":"[p=up][p=down]","k":1}"#);
        assert_eq!(nl.plan_source, PlanSource::Parsed);
    }
}
