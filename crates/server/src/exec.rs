//! The one query pipeline behind `POST /query` and `POST /shard/query`:
//! plan → singleflight resolve → shard fan-out → merge.
//!
//! [`resolve_items`] takes any slice of request items — a single query
//! is a batch of one. Each item is planned and run through the cache's
//! singleflight lookup (identical queries within the slice — or racing
//! in from other requests — collapse onto one computation), and the
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

use crate::cache::{CacheKey, FlightGuard, FlightWaiter, Lookup};
use crate::catalog::{DatasetEntry, ShardPlacement};
use crate::error::ServerError;
use crate::handlers::AppState;
use crate::json::Json;
use crate::obs::{self, Span};
use crate::protocol;
use crate::stats::Stats;
use shapesearch_core::{
    merge_topk_refs, EngineOptions, EngineStage, PruningSnapshot, ShapeEngine, ShapeQuery,
    SharedThresholds, StageObserver, TopKResult,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// One query of a request, planned: dataset resolved, query text parsed
/// to its canonical AST, effective options and cache key computed.
pub(crate) struct PlannedQuery {
    pub entry: Arc<DatasetEntry>,
    pub query_ast: ShapeQuery,
    pub notes: Vec<String>,
    pub k: usize,
    pub options: EngineOptions,
    pub key: CacheKey,
    /// The request explicitly sent `"parallel": false` — its group
    /// honors the opt-out instead of defaulting parallelism on.
    pub parallel_opt_out: bool,
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

fn plan_query(state: &AppState, body: &Json) -> Result<PlannedQuery, ServerError> {
    let req = protocol::query_request_from_json(body)?;
    let entry = state
        .catalog
        .get(&req.dataset)
        .ok_or_else(|| ServerError::not_found(format!("unknown dataset `{}`", req.dataset)))?;
    let (query_ast, notes) = protocol::parse_query(&req)?;
    let options = req.effective_options(&state.default_options);
    let key = CacheKey::new(
        &entry.id,
        entry.generation,
        entry.shard_count,
        &entry.placement_fp,
        &query_ast,
        req.k,
        &options,
    );
    Ok(PlannedQuery {
        entry,
        query_ast,
        notes,
        k: req.k,
        options,
        key,
        parallel_opt_out: req.parallel == Some(false),
        explain: req.explain,
        partial: req.partial,
    })
}

/// The engine stages a local shard task reports, in span order.
const ENGINE_STAGES: [EngineStage; 3] = [
    EngineStage::Group,
    EngineStage::SegmentScore,
    EngineStage::PruneBound,
];

/// The per-task [`StageObserver`]: forwards every engine stage sample
/// into the process-wide histograms and accumulates per-task totals (in
/// [`ENGINE_STAGES`] order) for the task's span — the same samples, so
/// span and histogram cannot disagree. Atomics because the engine may
/// report from several scoring threads at once.
struct StageTap<'m> {
    stats: &'m Stats,
    micros: [AtomicU64; 3],
}

impl StageObserver for StageTap<'_> {
    fn stage(&self, stage: EngineStage, micros: u64) {
        self.stats.stage(obs::Stage::from_engine(stage), micros);
        self.micros[stage as usize].fetch_add(micros, Ordering::Relaxed);
    }
}

/// One shard's contribution to a query group: per-query outcomes (the
/// shard's top-k partial or a structured error), the shard's
/// microseconds (engine-side for local shards, RPC round-trip for remote
/// ones), and — for remote shards — the per-query `pruned_bound`s the
/// reply declared (what the shard pruned on our hint's authority alone;
/// the verification pass must discharge every one of them).
struct ShardRun {
    outcomes: Vec<Result<Vec<TopKResult>, ServerError>>,
    micros: u64,
    pruned_bounds: Vec<Option<f64>>,
    /// Engine-stage totals of a local task in [`ENGINE_STAGES`] order
    /// (zero for remote shards — their engine time shows in their own
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
    /// shard's proven progress prunes the other shards' work and vice
    /// versa), with its engine-side time. Engine errors map to 400s here
    /// so local and remote partials carry one error type into the merge.
    /// Hint-justified prunes are tracked inside the shared cells, not
    /// per shard, so `pruned_bounds` is all-`None`.
    ///
    /// **Remote:** ships the query group to the shard's replica list
    /// over the pooled RPC client's health-checked failover
    /// ([`crate::PooledClient::post_replicas`]) and decodes the per-query
    /// partials from the first replica that answers well. The
    /// `threshold_hint`s are read from the cells at execution time, so
    /// whatever the local shards have proven by then rides along; an
    /// empty `shared` makes the RPC hint-less. Per-replica failures
    /// (connect — after the client's configured retries —, I/O, a
    /// non-200 envelope, or a malformed body) make failover move to the
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
                    micros: Default::default(),
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
                let micros = started.elapsed().as_micros() as u64;
                state.stats.stage(obs::Stage::ShardCompute, micros);
                ShardRun {
                    outcomes,
                    micros,
                    pruned_bounds: vec![None; queries.len()],
                    stages: tap.micros.map(AtomicU64::into_inner),
                    remote_spans: Vec::new(),
                }
            }
            Slot::Remote(replicas) => {
                let body = protocol::shard_request_to_json(
                    &work.dataset,
                    queries,
                    &live_hints(shared),
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
                let micros = started.elapsed().as_micros() as u64;
                state.stats.stage(obs::Stage::RemoteRpc, micros);
                state.stats.record_rpc(&outcome.attempts);
                let (outcomes, pruned_bounds, remote_spans) = match outcome.accepted {
                    Some((partials, _served_by)) => {
                        (partials.outcomes, partials.pruned_bounds, partials.spans)
                    }
                    None => {
                        let err =
                            ServerError::replicas_unavailable(outcome.attempts.iter().map(|a| {
                                (
                                    a.endpoint.as_str(),
                                    a.error.as_deref().unwrap_or("unknown failure"),
                                )
                            }));
                        (
                            vec![Err(err); queries.len()],
                            vec![None; queries.len()],
                            Vec::new(),
                        )
                    }
                };
                ShardRun {
                    outcomes,
                    micros,
                    pruned_bounds,
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

/// The per-query `threshold_hint`s to forward to a remote shard: each
/// cell's current effective threshold (proven progress plus any hint
/// this process itself received — sound to forward because every tier
/// verifies the bounds its downstream reports), or `None` while a cell
/// is still empty.
fn live_hints(shared: &SharedThresholds) -> Vec<Option<f64>> {
    (0..shared.len())
        .map(|i| {
            let threshold = shared.cell(i).get();
            (threshold > f64::NEG_INFINITY).then_some(threshold)
        })
        .collect()
}

/// Merges per-shard runs into per-query outcomes under the engine's one
/// ordering contract ([`merge_topk_refs`]: score descending, ties to
/// the lower global `viz_index`). The first failing shard's error (in
/// partition order) stands for the query — a partial top-k missing a
/// shard's candidates must never be passed off as the global answer.
/// Borrows the runs (cloning only each query's k winners) because the
/// hint-verification pass may re-merge after retrying a shard.
fn merge_shard_runs(runs: &[ShardRun], ks: &[usize]) -> Vec<Result<Vec<TopKResult>, ServerError>> {
    ks.iter()
        .enumerate()
        .map(|(qi, &k)| {
            let mut partials: Vec<&[TopKResult]> = Vec::with_capacity(runs.len());
            let mut first_err = None;
            for run in runs {
                match &run.outcomes[qi] {
                    Ok(results) => partials.push(results),
                    Err(e) => {
                        first_err.get_or_insert_with(|| e.clone());
                    }
                }
            }
            match first_err {
                Some(e) => Err(e),
                None => Ok(merge_topk_refs(partials, k)),
            }
        })
        .collect()
}

/// Everything one shard fan-out produced: the merged per-query outcomes,
/// the per-shard timings (placement order), the per-query hint debt this
/// computation still owes *its own* caller (largest upper bound pruned on
/// the authority of a caller-supplied hint — forwarded up the
/// `/shard/query` reply so the caller can verify), and the computation's
/// pruning counter snapshot.
pub(crate) struct ShardExec {
    pub outcomes: Vec<Result<Vec<TopKResult>, ServerError>>,
    pub shard_micros: Vec<u64>,
    pub hint_pruned: Vec<Option<f64>>,
    pub pruning: PruningSnapshot,
    /// The fan-out's span forest, one span per shard slot (stitching in
    /// remote servers' own spans) plus the merge span. Empty unless the
    /// computation was traced.
    pub spans: Vec<Span>,
    /// Per query: the best *partial* answer assemblable from the shards
    /// that did respond, present only when the query failed **and** the
    /// failure is maskable — every failing shard failed with
    /// `shard_unavailable` (all replicas dead; an engine error is never
    /// maskable) and the computation was seeded with no caller hints (a
    /// `/shard/query` callee must report its failure upward, not degrade
    /// on the router's behalf). Consumed only by queries that opted in
    /// with `"partial": true`; everyone else keeps the error.
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

/// True when a shard's reported hint-pruned bound is **not** discharged
/// by the merged answer: with fewer than `k` merged results, or a k-th
/// score not strictly above the bound, a candidate that shard pruned on
/// our hint's authority could still belong to the true top k (strictness
/// covers score ties, which break by index). The merged k-th is proven —
/// it comes from exactly scored candidates — and the global k-th can
/// only be higher, so a discharged bound is sound no matter what the
/// hint was.
pub(crate) fn hint_undischarged(
    outcome: &Result<Vec<TopKResult>, ServerError>,
    k: usize,
    pruned_bound: Option<f64>,
) -> bool {
    // k = 0 asks for nothing, so nothing prunable can be dropped.
    if k == 0 {
        return false;
    }
    match (outcome, pruned_bound) {
        (Ok(results), Some(bound)) => {
            results.len() < k
                || results[k - 1].score.total_cmp(&bound) != std::cmp::Ordering::Greater
        }
        _ => false,
    }
}

/// Executes one `(dataset, options)` query group over the dataset's
/// partition map and merges each query's per-shard top-k partials
/// deterministically. The per-slot work is built **once** ([`ShardWork`]
/// and one resolved [`Slot`] per placement entry); the only remaining
/// choice is *where* the slots run. By default they fan out as **one
/// compute-pool task per slot** — the submitting HTTP worker helps drain
/// the pool while it waits, so a single query can saturate every core
/// and large batches interleave with other requests as short shard
/// tasks; local engine passes and remote RPCs are leaf work alike
/// (neither submits further tasks, so the help-while-waiting protocol
/// cannot deadlock). `sequential` (a client's explicit
/// `"parallel": false` CPU cap) runs every slot inline one after another
/// instead, and so does a lone **local** slot — there is nothing to fan
/// out, and with the options untouched it keeps the unsharded engine's
/// exact execution profile (including its own viz-level parallelism
/// policy). Every other shape switches the engine's inner parallelism
/// off: shard tasks are the unit of parallelism there, and a capped
/// client gets one thread no matter the collection size.
///
/// **Threshold flow.** Every local shard task shares one
/// [`SharedThresholds`] (one cell per query), seeded from the caller's
/// `hints` (a `/shard/query` RPC's `threshold_hint`s; empty for
/// user-facing queries). Remote RPC tasks are enqueued *after* the local
/// tasks and read the cells at execution time, so whatever the local
/// shards have proven by then rides along as the remote
/// `threshold_hint` — hints are pure accelerators and arrive as fresh as
/// scheduling allows. After the merge, every remote-reported
/// `pruned_bound` must be discharged by the merged answer
/// ([`hint_undischarged`]); shards that fail verification are re-queried
/// **hint-less** (their exact partial) and the merge repeats — which is
/// what makes a stale or poisoned hint unable to silently drop a true
/// top-k result.
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
    sequential: bool,
    hints: &[Option<f64>],
    trace: Option<&str>,
) -> ShardExec {
    let ks: Vec<usize> = queries.iter().map(|&(_, k)| k).collect();
    // Resolve every slot up front. An eager entry hands back its
    // resident Arcs for free; a snapshot entry materializes cold shards
    // through the catalog's resident LRU (singleflight — queries racing
    // one cold shard share a single load, and the load happens before
    // the fan-out so pool tasks never block on I/O). A failed load fails
    // the whole fan-out with its structured error: a partial answer must
    // never pass as the global top-k.
    let mut slots: Vec<Slot> = Vec::with_capacity(entry.placement.len());
    for (index, placement) in entry.placement.iter().enumerate() {
        slots.push(match placement {
            ShardPlacement::Local => match entry.local_shard(index) {
                Ok(engine) => Slot::Local(engine),
                Err(e) => {
                    return ShardExec {
                        outcomes: ks.iter().map(|_| Err(e.clone())).collect(),
                        shard_micros: Vec::new(),
                        hint_pruned: vec![None; ks.len()],
                        pruning: PruningSnapshot::default(),
                        spans: Vec::new(),
                        degraded: ks.iter().map(|_| None).collect(),
                    }
                }
            },
            ShardPlacement::Remote(replicas) => Slot::Remote(replicas.clone()),
        });
    }
    let shared = SharedThresholds::new(queries.len());
    for (i, hint) in hints.iter().enumerate().take(shared.len()) {
        if let Some(hint) = hint {
            shared.seed_hint(i, *hint);
        }
    }
    let inline = sequential || matches!(slots[..], [Slot::Local(_)]);
    let work = Arc::new(ShardWork {
        state: Arc::clone(state),
        dataset: entry.id.clone(),
        queries,
        // Also the options any verification retry re-sends. (Remote
        // shard servers schedule their own cores; scheduling never
        // changes results.)
        options: if inline && !sequential {
            options.clone()
        } else {
            EngineOptions {
                parallel: false,
                parallel_threshold: usize::MAX,
                ..options.clone()
            }
        },
        trace: trace.map(str::to_owned),
    });

    // One task per slot, built the same way wherever it will run. On the
    // pool, local tasks are enqueued first so the queue's FIFO order
    // gives remote RPCs the freshest possible threshold hints; `order`
    // maps the submission order back onto placement slots.
    let mut order: Vec<usize> = (0..slots.len()).collect();
    if !inline {
        order.sort_by_key(|&index| matches!(slots[index], Slot::Remote(_)));
    }
    let tasks: Vec<Box<dyn FnOnce() -> ShardRun + Send>> = order
        .iter()
        .map(|&index| {
            let (slot, work, shared) = (slots[index].clone(), Arc::clone(&work), shared.clone());
            Box::new(move || slot.run(&work, &shared)) as _
        })
        .collect();
    let ran: Vec<ShardRun> = if inline {
        tasks.into_iter().map(|task| task()).collect()
    } else {
        state.compute.run_all(tasks)
    };
    let mut runs: Vec<(usize, ShardRun)> = order.into_iter().zip(ran).collect();
    runs.sort_by_key(|&(index, _)| index);
    let mut runs: Vec<ShardRun> = runs.into_iter().map(|(_, run)| run).collect();

    let merge_started = Instant::now();
    let mut outcomes = merge_shard_runs(&runs, &ks);
    let mut merge_micros = merge_started.elapsed().as_micros() as u64;

    // Verification: every remote-reported hint-pruned bound must be
    // strictly cleared by the merged answer; shards owing an
    // undischarged bound are re-queried hint-less — against fresh, empty
    // threshold cells — so their reply is the exact partial, with
    // nothing left to verify.
    let retry: Vec<usize> = (0..slots.len())
        .filter(|&index| {
            matches!(slots[index], Slot::Remote(_))
                && runs[index]
                    .pruned_bounds
                    .iter()
                    .zip(&outcomes)
                    .zip(&ks)
                    .any(|((&bound, outcome), &k)| hint_undischarged(outcome, k, bound))
        })
        .collect();
    if !retry.is_empty() {
        let hintless = SharedThresholds::new(ks.len());
        for index in retry {
            runs[index] = slots[index].run(&work, &hintless);
        }
        let remerge_started = Instant::now();
        outcomes = merge_shard_runs(&runs, &ks);
        merge_micros += remerge_started.elapsed().as_micros() as u64;
    }
    state.stats.stage(obs::Stage::Merge, merge_micros);

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

    // Degraded fallbacks, computed only for queries that failed: the
    // merge of whatever shards *did* answer, offered upward so a
    // `"partial": true` caller can trade completeness for availability.
    // A fan-out seeded with caller hints is a `/shard/query` callee —
    // its caller owns the degradation decision, so nothing is offered.
    let no_caller_hints = hints.iter().all(Option::is_none);
    let degraded: Vec<Option<DegradedQuery>> = outcomes
        .iter()
        .enumerate()
        .map(|(qi, outcome)| {
            if outcome.is_ok() || !no_caller_hints {
                return None;
            }
            let mut partials: Vec<&[TopKResult]> = Vec::new();
            let mut missing = Vec::new();
            let mut errors = Vec::new();
            for (slot, run) in runs.iter().enumerate() {
                match &run.outcomes[qi] {
                    Ok(results) => partials.push(results),
                    Err(e) if e.code == Some("shard_unavailable") => {
                        missing.push(slot);
                        errors.push((slot, e.message.clone()));
                    }
                    // A real engine error on any shard poisons the whole
                    // query — masking it as "degraded" would hide a bug.
                    Err(_) => return None,
                }
            }
            Some(DegradedQuery {
                results: merge_topk_refs(partials, ks[qi]),
                info: DegradedInfo { missing, errors },
            })
        })
        .collect();

    ShardExec {
        outcomes,
        shard_micros: runs.iter().map(|run| run.micros).collect(),
        hint_pruned: (0..ks.len()).map(|i| shared.hint_pruned(i)).collect(),
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
    /// Total time spent in cache lookups (and coalesced waiting) before
    /// the outcome was known.
    pub lookup_micros: u64,
}

impl Resolved {
    /// The computation this item led, if it did.
    pub fn led(&self) -> Option<&LedExec> {
        match &self.source {
            Source::Led(led) => Some(led),
            Source::Hit | Source::Coalesced => None,
        }
    }

    /// This item's `cache_lookup` trace span, detailed with how the
    /// singleflight lookup went.
    pub fn lookup_span(&self) -> Span {
        let outcome = match self.source {
            Source::Hit => "hit",
            Source::Coalesced => "coalesced",
            Source::Led(_) => "miss",
        };
        Span::new(obs::Stage::CacheLookup.name(), self.lookup_micros).with_detail(outcome)
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
    trace_id: &str,
) -> Vec<Result<Resolved, ServerError>> {
    // A hit resolves in place; only items that must compute or wait are
    // parked here (empty, and so allocation-free, on an all-hit request).
    let mut leads: Vec<Pending<FlightGuard<'_>>> = Vec::new();
    let mut waits: Vec<Pending<FlightWaiter>> = Vec::new();
    let mut out: Vec<Result<Resolved, ServerError>> = Vec::with_capacity(items.len());
    for (index, item) in items.iter().enumerate() {
        let plan_started = Instant::now();
        let planned = plan_query(state, item);
        let plan_micros = plan_started.elapsed().as_micros() as u64;
        state.stats.stage(obs::Stage::ParsePlan, plan_micros);
        let planned = match planned {
            Ok(planned) => planned,
            Err(e) => {
                out.push(Err(e));
                continue;
            }
        };
        let lookup_started = Instant::now();
        let lookup = state.cache.lookup(&planned.key);
        let lookup_micros = lookup_started.elapsed().as_micros() as u64;
        state.stats.stage(obs::Stage::CacheLookup, lookup_micros);
        let parked = || Err(ServerError::internal("query item left unresolved"));
        out.push(match lookup {
            Lookup::Hit(value) => Ok(Resolved {
                planned,
                value,
                source: Source::Hit,
                degraded: None,
                plan_micros,
                lookup_micros,
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
            .map(|lead| (lead.planned.query_ast.clone(), lead.planned.k))
            .collect();
        // Execution policy: a group's work is parallel by default —
        // multi-shard datasets fan their shard tasks across the compute
        // pool, and a single-shard group carrying several queries gets
        // the engine's viz-level parallelism on top of the shared GROUP
        // pass (a lone query keeps the options it planned with). Scores
        // are scheduling-invariant (`parallel` is excluded from the
        // cache fingerprint for the same reason), so results stay
        // byte-identical to sequential runs. An explicit
        // `"parallel": false` on any group member is an opt-out (a
        // client capping its CPU footprint) and wins over the default.
        let opted_out = group.iter().any(|lead| lead.planned.parallel_opt_out);
        let mut options = group[0].planned.options.clone();
        if opted_out {
            options.parallel = false;
        } else if specs.len() > 1 {
            options.parallel = true;
        }
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
            &options,
            opted_out,
            &[],
            traced.then_some(trace_id),
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
            });
        }
    }

    for wait in waits {
        let wait_started = Instant::now();
        let outcome = wait.flight.wait();
        let lookup_micros = wait.lookup_micros + wait_started.elapsed().as_micros() as u64;
        out[wait.index] = match outcome {
            Some(value) => Ok(Resolved {
                planned: wait.planned,
                value,
                source: Source::Coalesced,
                degraded: None,
                plan_micros: wait.plan_micros,
                lookup_micros,
            }),
            None => {
                let item = std::slice::from_ref(&items[wait.index]);
                let mut retried = resolve_items(state, item, trace_id)
                    .pop()
                    .expect("one result per item");
                if let Ok(resolved) = &mut retried {
                    resolved.lookup_micros += lookup_micros;
                }
                retried
            }
        };
    }
    out
}
