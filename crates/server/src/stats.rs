//! The server's stats registry, its point-in-time snapshot, and the two
//! renderers over that snapshot.
//!
//! * [`Stats`] — the one registry of process-lifetime counters the query
//!   pipeline writes: the query counters (atomics, so the cache-hit path
//!   takes no lock) and the fan-out gauges (local shard tasks, §6.3
//!   pruning, per-endpoint RPCs) behind one poison-tolerant mutex.
//! * [`StatsSnapshot`] — everything `/healthz` and `/metrics` report,
//!   gathered once by [`StatsSnapshot::gather`] from the registry and the
//!   other subsystems' own snapshots (cache, resident LRU, connections,
//!   failover health, heartbeat registry, latency histograms).
//! * [`StatsSnapshot::to_healthz`] / [`StatsSnapshot::to_metrics`] — the
//!   JSON and Prometheus renderings. Both read the same snapshot value,
//!   so the two endpoints reconcile by construction; neither touches
//!   live state.

use crate::cache::CacheStats;
use crate::catalog::SlotStaleness;
use crate::client::{EndpointHealthSnapshot, ReplicaAttempt};
use crate::handlers::AppState;
use crate::json::{obj, Json};
use crate::obs::{self, HistogramSnapshot, Stage};
use crate::protocol;
use crate::resident::ResidentStats;
use shapesearch_core::PruningSnapshot;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// The crate version baked into `/healthz` build info.
fn build_version() -> &'static str {
    env!("CARGO_PKG_VERSION")
}

/// The git revision baked in at compile time (`SHAPESEARCH_GIT_REV`,
/// stamped by CI/release builds), or `"unknown"` for plain builds.
fn build_git_rev() -> &'static str {
    option_env!("SHAPESEARCH_GIT_REV").unwrap_or("unknown")
}

/// Aggregate **local** shard-execution gauges. Every fan-out records
/// both fields in a single critical section, so a snapshot can never be
/// mutually inconsistent mid-update (e.g. tasks from one batch without
/// its micros). Remote shard RPCs are tracked separately in
/// [`RemoteShardStats`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ShardStats {
    /// Local shard tasks executed (one per local shard per query group).
    pub tasks: u64,
    /// Total engine-side microseconds spent in local shard tasks.
    pub micros_total: u64,
}

/// Per-endpoint remote-shard RPC gauges. Every RPC records all three
/// fields in one critical section of the registry's mutex, so the
/// `remote_shards` block is a consistent snapshot like the other gauges.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct RemoteShardStats {
    /// RPC attempts sent to this endpoint — one per *replica attempt*,
    /// so a failover that tries two replicas books one request on each
    /// (a connect-retry pair within one attempt still counts once).
    pub requests: u64,
    /// Attempts that failed (unreachable endpoint, non-200 reply, or a
    /// malformed body). A failed attempt makes failover move on to the
    /// shard's next replica; only when every replica fails does the
    /// caller see a `shard_unavailable` error naming each attempt.
    pub errors: u64,
    /// Total round-trip microseconds spent on this endpoint's RPCs
    /// (network plus the remote engine time).
    pub micros_total: u64,
}

/// The gauges a shard fan-out writes, guarded together.
#[derive(Debug, Default, Clone)]
struct Gauges {
    shards: ShardStats,
    /// Process-lifetime §6.3 pruning counters (aggregated per
    /// computation from the engine's shared counters; local engine work
    /// only — a remote shard's counters show on *its* healthz).
    pruning: PruningSnapshot,
    /// Keyed and reported in endpoint order (a `BTreeMap` so both
    /// renderings are deterministic).
    remote: BTreeMap<String, RemoteShardStats>,
}

/// The process-lifetime counters the query pipeline writes — the one
/// place the server's stats mutex is taken.
#[derive(Debug, Default)]
pub struct Stats {
    queries: AtomicU64,
    shard_queries: AtomicU64,
    gauges: Mutex<Gauges>,
}

impl Stats {
    /// Locks the gauges, recovering from poison: the counters are
    /// monotone sums, so a panic mid-update leaves at worst a stale
    /// number — never a reason to take `/healthz` down with it.
    fn gauges(&self) -> MutexGuard<'_, Gauges> {
        self.gauges.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Counts `n` queries received on `POST /query` (each batch item
    /// counts once).
    pub fn count_queries(&self, n: usize) {
        self.queries.fetch_add(n as u64, Ordering::Relaxed);
    }

    /// Total queries received on `POST /query`.
    pub fn queries(&self) -> u64 {
        self.queries.load(Ordering::Relaxed)
    }

    /// Counts one `POST /shard/query` RPC served (this process acting as
    /// a shard server); kept apart from `queries` so a router's fan-in
    /// doesn't inflate a shard server's user-facing query count.
    pub fn count_shard_query(&self) {
        self.shard_queries.fetch_add(1, Ordering::Relaxed);
    }

    /// Total `POST /shard/query` RPCs served.
    pub fn shard_queries(&self) -> u64 {
        self.shard_queries.load(Ordering::Relaxed)
    }

    /// Books one fan-out's local work: one task per entry of
    /// `local_micros` plus the computation's pruning counters, in one
    /// critical section so the gauges stay mutually consistent (never
    /// tasks without their micros).
    pub fn record_fanout(&self, local_micros: impl Iterator<Item = u64>, pruning: PruningSnapshot) {
        let mut gauges = self.gauges();
        for micros in local_micros {
            gauges.shards.tasks += 1;
            gauges.shards.micros_total += micros;
        }
        gauges.pruning.add(pruning);
    }

    /// Books one remote shard RPC's failover trail. All of an endpoint's
    /// gauges move in one critical section so a snapshot can never show
    /// a request without its error/micros; one acquisition covers the
    /// whole trail.
    pub fn record_rpc(&self, attempts: &[ReplicaAttempt]) {
        let mut gauges = self.gauges();
        for attempt in attempts {
            let entry = gauges.remote.entry(attempt.endpoint.clone()).or_default();
            entry.requests += 1;
            entry.errors += u64::from(attempt.error.is_some());
            entry.micros_total += attempt.micros;
        }
    }
}

/// One remote endpoint's row: its RPC gauges and the failover client's
/// health for it. Either side can be missing — an endpoint can have been
/// dialed (health) without ever completing an RPC (stats), and vice
/// versa after a restart — so the snapshot holds the union.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct EndpointStats {
    /// RPC gauges, once any attempt on this endpoint has been booked.
    pub rpc: Option<RemoteShardStats>,
    /// Failover health (consecutive failures, ejection state and count),
    /// once the client has dialed this endpoint.
    pub health: Option<EndpointHealthSnapshot>,
}

/// A point-in-time copy of the evented HTTP core's connection counters.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ConnSnapshot {
    /// Open client connections (any phase, including keep-alive idle).
    pub active: u64,
    /// Open connections parked idle between keep-alive requests.
    pub idle_keepalive: u64,
    /// Connections accepted since startup.
    pub accepted_total: u64,
    /// Connections cut by the idle or slow-request deadline.
    pub timeouts: u64,
    /// Event-loop wakeups that delivered at least one readiness event.
    pub event_loop_wakeups: u64,
}

/// Everything `/healthz` and `/metrics` report, as plain values.
///
/// Each block is one consistent snapshot of its subsystem: the cache
/// counters come from a single lock acquisition (hits + misses +
/// coalesced == lookups in every reply), the fan-out gauges from one
/// acquisition of the registry's mutex, the per-dataset shard totals
/// from one pass under the catalog's read lock.
#[derive(Debug, Default, Clone)]
pub struct StatsSnapshot {
    /// Seconds since this server process started.
    pub uptime_secs: u64,
    /// Process start as Unix epoch seconds.
    pub started_at: u64,
    /// Registered datasets.
    pub datasets: usize,
    /// Queries received on `POST /query` (each batch item counts once).
    pub queries: u64,
    /// `POST /shard/query` RPCs served by this process.
    pub shard_queries: u64,
    /// Dispatch (CPU tier) threads.
    pub workers: usize,
    /// The `POST /query` batch cap.
    pub max_batch: usize,
    /// Query-cache counters and occupancy.
    pub cache: CacheStats,
    /// Engine shards a registration gets unless it pins its own count.
    pub default_shards: usize,
    /// Shards summed over every registered dataset.
    pub dataset_shards: usize,
    /// Compute-pool threads shard tasks fan out on.
    pub compute_workers: usize,
    /// Local shard-task gauges.
    pub shards: ShardStats,
    /// §6.3 pruning counters of this process's own engine work.
    pub pruning: PruningSnapshot,
    /// Resident snapshot-shard LRU gauges.
    pub snapshots: ResidentStats,
    /// Evented HTTP core connection counters.
    pub connections: ConnSnapshot,
    /// Per remote endpoint, in endpoint order: RPC gauges ∪ failover
    /// health.
    pub remote: BTreeMap<String, EndpointStats>,
    /// Registry staleness: every announced shard slot with the age of
    /// its freshest and stalest heartbeat, so an operator can see a
    /// replica about to fall out of the TTL before a registry-placed
    /// registration starts failing.
    pub registry: Vec<SlotStaleness>,
    /// End-to-end `POST /query` latency.
    pub requests: HistogramSnapshot,
    /// End-to-end `POST /shard/query` service latency.
    pub shard_requests: HistogramSnapshot,
    /// Per-stage latency, in [`Stage::ALL`] order.
    pub stages: Vec<(Stage, HistogramSnapshot)>,
    /// Remote shard RPC round-trip latency, endpoint-sorted.
    pub remote_rpc: Vec<(String, HistogramSnapshot)>,
}

impl StatsSnapshot {
    /// Gathers the snapshot from `state` — the only function that reads
    /// live counters on behalf of `/healthz` and `/metrics`.
    pub fn gather(state: &AppState) -> Self {
        let gauges = state.stats.gauges().clone();
        let mut remote: BTreeMap<String, EndpointStats> = gauges
            .remote
            .into_iter()
            .map(|(endpoint, rpc)| {
                let row = EndpointStats {
                    rpc: Some(rpc),
                    health: None,
                };
                (endpoint, row)
            })
            .collect();
        for health in state.remote.health_snapshot() {
            let row = remote.entry(health.endpoint.clone()).or_default();
            row.health = Some(health);
        }
        let conn = &state.conn_stats;
        Self {
            uptime_secs: state.started.elapsed().as_secs(),
            started_at: state.started_at_epoch,
            datasets: state.catalog.len(),
            queries: state.stats.queries(),
            shard_queries: state.stats.shard_queries(),
            workers: state.workers,
            max_batch: state.max_batch,
            cache: state.cache.stats(),
            default_shards: state.catalog.default_shards(),
            dataset_shards: state.catalog.list().iter().map(|e| e.shard_count).sum(),
            compute_workers: state.compute.workers(),
            shards: gauges.shards,
            pruning: gauges.pruning,
            snapshots: state.catalog.resident().stats(),
            connections: ConnSnapshot {
                active: conn.active.load(Ordering::Relaxed),
                idle_keepalive: conn.idle_keepalive.load(Ordering::Relaxed),
                accepted_total: conn.accepted_total.load(Ordering::Relaxed),
                timeouts: conn.timeouts.load(Ordering::Relaxed),
                event_loop_wakeups: conn.event_loop_wakeups.load(Ordering::Relaxed),
            },
            remote,
            registry: state.catalog.registry().slot_staleness(),
            requests: state.metrics.requests.snapshot(),
            shard_requests: state.metrics.shard_requests.snapshot(),
            stages: Stage::ALL
                .iter()
                .map(|&stage| (stage, state.metrics.stage_snapshot(stage)))
                .collect(),
            remote_rpc: state.metrics.remote_snapshots(),
        }
    }

    /// The `GET /healthz` body.
    pub fn to_healthz(&self) -> Json {
        let rpc_total = |field: fn(&RemoteShardStats) -> u64| -> u64 {
            self.remote
                .values()
                .filter_map(|row| row.rpc.as_ref().map(field))
                .sum()
        };
        let ejections: u64 = self
            .remote
            .values()
            .filter_map(|row| row.health.as_ref().map(|h| h.ejections))
            .sum();
        let by_endpoint = self.remote.iter().map(|(endpoint, row)| {
            let rpc = row.rpc.unwrap_or_default();
            let h = row.health.as_ref();
            obj([
                ("endpoint", endpoint.as_str().into()),
                ("requests", rpc.requests.into()),
                ("errors", rpc.errors.into()),
                ("micros_total", rpc.micros_total.into()),
                (
                    "connect_attempts",
                    h.map_or(0, |h| h.connect_attempts).into(),
                ),
                (
                    "consecutive_failures",
                    u64::from(h.map_or(0, |h| h.consecutive_failures)).into(),
                ),
                ("ejected", h.is_some_and(|h| h.ejected).into()),
                ("ejections", h.map_or(0, |h| h.ejections).into()),
            ])
        });
        let by_slot = self.registry.iter().map(|s| {
            obj([
                ("dataset", s.dataset.as_str().into()),
                ("shard", s.shard.into()),
                ("shards", s.shards.into()),
                ("replicas", s.replicas.into()),
                ("fresh_replicas", s.fresh_replicas.into()),
                ("freshest_age_secs", s.freshest_age_secs.into()),
                ("stalest_age_secs", s.stalest_age_secs.into()),
            ])
        });
        let stale_slots = self
            .registry
            .iter()
            .filter(|s| s.fresh_replicas == 0)
            .count();
        obj([
            ("status", "ok".into()),
            ("version", build_version().into()),
            ("git_rev", build_git_rev().into()),
            ("uptime_secs", self.uptime_secs.into()),
            ("started_at", self.started_at.into()),
            ("datasets", self.datasets.into()),
            ("queries", self.queries.into()),
            ("workers", self.workers.into()),
            ("max_batch", self.max_batch.into()),
            (
                "cache",
                obj([
                    ("lookups", self.cache.lookups.into()),
                    ("hits", self.cache.hits.into()),
                    ("misses", self.cache.misses.into()),
                    ("coalesced", self.cache.coalesced.into()),
                    ("entries", self.cache.entries.into()),
                    ("capacity", self.cache.capacity.into()),
                ]),
            ),
            (
                "shards",
                obj([
                    ("default", self.default_shards.into()),
                    ("dataset_shards", self.dataset_shards.into()),
                    ("compute_workers", self.compute_workers.into()),
                    ("tasks", self.shards.tasks.into()),
                    ("micros_total", self.shards.micros_total.into()),
                    ("shard_queries", self.shard_queries.into()),
                ]),
            ),
            ("pruning", protocol::pruning_to_json(self.pruning)),
            (
                "snapshots",
                obj([
                    ("resident", self.snapshots.resident.into()),
                    ("resident_bytes", self.snapshots.resident_bytes.into()),
                    ("capacity_bytes", self.snapshots.capacity_bytes.into()),
                    ("loads", self.snapshots.loads.into()),
                    ("evictions", self.snapshots.evictions.into()),
                    ("load_micros_total", self.snapshots.load_micros_total.into()),
                ]),
            ),
            (
                "connections",
                obj([
                    ("active", self.connections.active.into()),
                    ("idle_keepalive", self.connections.idle_keepalive.into()),
                    ("accepted_total", self.connections.accepted_total.into()),
                    ("timeouts", self.connections.timeouts.into()),
                    (
                        "event_loop_wakeups",
                        self.connections.event_loop_wakeups.into(),
                    ),
                ]),
            ),
            (
                "remote_shards",
                obj([
                    ("endpoints", self.remote.len().into()),
                    ("requests", rpc_total(|s| s.requests).into()),
                    ("errors", rpc_total(|s| s.errors).into()),
                    ("ejections", ejections.into()),
                    ("micros_total", rpc_total(|s| s.micros_total).into()),
                    ("by_endpoint", Json::Arr(by_endpoint.collect())),
                ]),
            ),
            (
                "registry",
                obj([
                    ("slots", self.registry.len().into()),
                    ("stale_slots", stale_slots.into()),
                    ("by_slot", Json::Arr(by_slot.collect())),
                ]),
            ),
        ])
    }

    /// The `GET /metrics` body: Prometheus text exposition of the same
    /// snapshot [`Self::to_healthz`] renders — the counter series here
    /// reconcile with the healthz totals by construction, and the
    /// histograms add the latency distributions healthz's monotonic
    /// counters cannot carry. Metric names follow one scheme:
    /// `shapesearch_<noun>_<unit|total>`, with
    /// `stage`/`endpoint`/`event`/`outcome` labels for families.
    pub fn to_metrics(&self) -> String {
        let mut expo = obs::Exposition::new();
        expo.gauge(
            "shapesearch_uptime_seconds",
            "Seconds since this server process started.",
            self.uptime_secs,
        );
        expo.gauge(
            "shapesearch_datasets",
            "Registered datasets.",
            self.datasets as u64,
        );
        expo.counter(
            "shapesearch_queries_total",
            "Queries received on POST /query (each batch item counts once).",
            self.queries,
        );
        expo.counter(
            "shapesearch_shard_queries_total",
            "POST /shard/query RPCs served by this process.",
            self.shard_queries,
        );

        expo.counter(
            "shapesearch_cache_lookups_total",
            "Query-cache lookups.",
            self.cache.lookups,
        );
        expo.counter_family(
            "shapesearch_cache_events_total",
            "Query-cache lookup outcomes (hit + miss + coalesced = lookups).",
            "event",
            &[
                ("hit", self.cache.hits),
                ("miss", self.cache.misses),
                ("coalesced", self.cache.coalesced),
            ],
        );
        expo.gauge(
            "shapesearch_cache_entries",
            "Live query-cache entries.",
            self.cache.entries as u64,
        );
        expo.gauge(
            "shapesearch_cache_capacity",
            "Query-cache capacity in entries.",
            self.cache.capacity as u64,
        );

        expo.counter(
            "shapesearch_shard_tasks_total",
            "Local shard tasks executed.",
            self.shards.tasks,
        );
        expo.counter(
            "shapesearch_shard_micros_total",
            "Engine-side microseconds spent in local shard tasks.",
            self.shards.micros_total,
        );

        expo.counter_family(
            "shapesearch_pruning_candidates_total",
            "Pruning-driver candidate outcomes (bounded = bound-checked, \
             pruned = skipped, scored = segmented in full).",
            "outcome",
            &[
                ("bounded", self.pruning.bounded),
                ("pruned", self.pruning.pruned),
                ("scored", self.pruning.scored),
            ],
        );
        expo.counter(
            "shapesearch_pruning_refined_total",
            "Candidates the whole-trendline bound could not prune, bounded \
             again over their end-anchored windows.",
            self.pruning.refined,
        );
        expo.counter(
            "shapesearch_pruning_bound_micros_total",
            "Microseconds spent computing pruning upper bounds, both tiers.",
            self.pruning.bound_micros,
        );

        expo.gauge(
            "shapesearch_snapshot_resident_shards",
            "Snapshot shards currently materialized in memory.",
            self.snapshots.resident as u64,
        );
        expo.counter(
            "shapesearch_snapshot_loads_total",
            "Cold snapshot-shard loads (first touch or reload after eviction).",
            self.snapshots.loads,
        );
        expo.counter(
            "shapesearch_snapshot_evictions_total",
            "Snapshot shards evicted by the resident-shard LRU.",
            self.snapshots.evictions,
        );
        expo.counter(
            "shapesearch_snapshot_load_micros_total",
            "Microseconds spent materializing snapshot shards.",
            self.snapshots.load_micros_total,
        );
        expo.gauge(
            "shapesearch_snapshot_resident_bytes",
            "Columnar-arena bytes held by resident snapshot shards.",
            self.snapshots.resident_bytes,
        );
        expo.gauge(
            "shapesearch_snapshot_resident_capacity_bytes",
            "Resident-shard byte budget (--resident-bytes; 0 = unlimited).",
            self.snapshots.capacity_bytes,
        );

        expo.gauge(
            "shapesearch_connections_active",
            "Open client connections (any phase, including keep-alive idle).",
            self.connections.active,
        );
        expo.gauge(
            "shapesearch_connections_idle_keepalive",
            "Open client connections parked idle between keep-alive requests.",
            self.connections.idle_keepalive,
        );
        expo.counter(
            "shapesearch_connections_accepted_total",
            "Client connections accepted since startup.",
            self.connections.accepted_total,
        );
        expo.counter(
            "shapesearch_connections_timeouts_total",
            "Connections cut by the idle or slow-request deadline.",
            self.connections.timeouts,
        );
        expo.counter(
            "shapesearch_connections_event_loop_wakeups_total",
            "Readiness event-loop wakeups that delivered at least one event.",
            self.connections.event_loop_wakeups,
        );

        // Per-endpoint families cover exactly the rows that have that
        // side of the union, so an endpoint never shows a fabricated 0.
        let rpc: Vec<(&str, RemoteShardStats)> = self
            .remote
            .iter()
            .filter_map(|(endpoint, row)| Some((endpoint.as_str(), row.rpc?)))
            .collect();
        type Field = fn(&RemoteShardStats) -> u64;
        let rpc_families: [(&str, &str, Field); 3] = [
            (
                "shapesearch_remote_requests_total",
                "Remote shard RPCs sent, by endpoint.",
                |s| s.requests,
            ),
            (
                "shapesearch_remote_errors_total",
                "Failed remote shard RPCs, by endpoint.",
                |s| s.errors,
            ),
            (
                "shapesearch_remote_micros_total",
                "Round-trip microseconds of remote shard RPCs, by endpoint.",
                |s| s.micros_total,
            ),
        ];
        if !rpc.is_empty() {
            for (name, help, field) in rpc_families {
                let series: Vec<(&str, u64)> = rpc.iter().map(|(e, s)| (*e, field(s))).collect();
                expo.counter_family(name, help, "endpoint", &series);
            }
        }
        let health: Vec<(&str, &EndpointHealthSnapshot)> = self
            .remote
            .iter()
            .filter_map(|(endpoint, row)| Some((endpoint.as_str(), row.health.as_ref()?)))
            .collect();
        if !health.is_empty() {
            let ejections: Vec<(&str, u64)> =
                health.iter().map(|(e, h)| (*e, h.ejections)).collect();
            expo.counter_family(
                "shapesearch_remote_ejections_total",
                "Replica endpoints ejected by the failover circuit breaker \
                 (each transition into ejection counts once), by endpoint.",
                "endpoint",
                &ejections,
            );
            let ejected: Vec<(&str, u64)> = health
                .iter()
                .map(|(e, h)| (*e, u64::from(h.ejected)))
                .collect();
            expo.gauge_family(
                "shapesearch_remote_ejected",
                "Whether the failover circuit breaker currently holds this \
                 replica endpoint ejected (1) or admits it (0), by endpoint.",
                "endpoint",
                &ejected,
            );
        }

        expo.histogram_family(
            "shapesearch_request_duration_micros",
            "End-to-end POST /query latency.",
            &[(None, self.requests)],
        );
        expo.histogram_family(
            "shapesearch_shard_request_duration_micros",
            "End-to-end POST /shard/query service latency.",
            &[(None, self.shard_requests)],
        );
        let stages: Vec<(Option<(&str, &str)>, HistogramSnapshot)> = self
            .stages
            .iter()
            .map(|(stage, snap)| (Some(("stage", stage.name())), *snap))
            .collect();
        expo.histogram_family(
            "shapesearch_stage_duration_micros",
            "Per-stage latency across the request pipeline.",
            &stages,
        );
        if !self.remote_rpc.is_empty() {
            let series: Vec<(Option<(&str, &str)>, HistogramSnapshot)> = self
                .remote_rpc
                .iter()
                .map(|(endpoint, snap)| (Some(("endpoint", endpoint.as_str())), *snap))
                .collect();
            expo.histogram_family(
                "shapesearch_remote_rpc_duration_micros",
                "Remote shard RPC round-trip latency, by endpoint.",
                &series,
            );
        }
        expo.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::handlers::route;
    use crate::http::Request;
    use std::collections::{BTreeSet, HashMap};
    use std::sync::Arc;

    fn get(path: &str) -> Request {
        Request {
            method: "GET".into(),
            path: path.into(),
            headers: Vec::new(),
            body: Vec::new(),
        }
    }

    #[test]
    fn poisoned_stats_lock_does_not_take_healthz_or_metrics_down() {
        let state = Arc::new(AppState::new(4, 1, None, 1));
        state
            .stats
            .record_fanout([5].into_iter(), PruningSnapshot::default());
        let poisoner = Arc::clone(&state);
        let panicked = std::thread::spawn(move || {
            let _held = poisoner.stats.gauges.lock().unwrap();
            panic!("a request panics while booking its fan-out");
        })
        .join();
        assert!(panicked.is_err() && state.stats.gauges.is_poisoned());

        for path in ["/healthz", "/metrics"] {
            let reply = route(&state, &get(path));
            assert_eq!(reply.status, 200, "{path}: {}", reply.body);
        }
        // The registry keeps counting, and what it held survived.
        state
            .stats
            .record_fanout([6].into_iter(), PruningSnapshot::default());
        let shards = StatsSnapshot::gather(&state).shards;
        assert_eq!((shards.tasks, shards.micros_total), (2, 11));
    }

    /// The first `n` primes: distinct, nonzero values, so a series
    /// rendered from the wrong field cannot reconcile by accident.
    fn primes() -> impl Iterator<Item = u64> {
        (2u64..).filter(|n| (2..*n).take_while(|d| d * d <= *n).all(|d| n % d != 0))
    }

    /// Every sample line of an exposition, keyed by `name{labels}`.
    fn series(text: &str) -> HashMap<&str, u64> {
        text.lines()
            .filter(|line| !line.starts_with('#'))
            .map(|line| {
                let (key, value) = line.rsplit_once(' ').unwrap();
                (key, value.parse().unwrap())
            })
            .collect()
    }

    /// Every numeric leaf of a healthz body outside the per-row arrays,
    /// as `block.key` paths.
    fn scalars(healthz: &Json) -> Vec<(String, u64)> {
        let Json::Obj(fields) = healthz else {
            panic!("healthz is an object");
        };
        let mut out = Vec::new();
        for (key, value) in fields {
            match value {
                Json::Num(n) => out.push((key.clone(), *n as u64)),
                Json::Obj(block) => out.extend(block.iter().filter_map(|(k, v)| match v {
                    Json::Num(n) => Some((format!("{key}.{k}"), *n as u64)),
                    _ => None,
                })),
                _ => {}
            }
        }
        out
    }

    #[test]
    fn healthz_and_metrics_reconcile_by_construction() {
        let mut p = primes();
        let mut next = || p.next().unwrap();
        let rpc = |next: &mut dyn FnMut() -> u64| RemoteShardStats {
            requests: next(),
            errors: next(),
            micros_total: next(),
        };
        let health = |endpoint: &str, next: &mut dyn FnMut() -> u64| EndpointHealthSnapshot {
            endpoint: endpoint.to_owned(),
            consecutive_failures: next() as u32,
            ejected: true,
            ejections: next(),
            connect_attempts: next(),
        };
        // Three endpoints: one with both sides of the union, one that
        // only ever booked RPCs, one that was only ever dialed.
        let remote = BTreeMap::from([
            (
                "a:1".to_owned(),
                EndpointStats {
                    rpc: Some(rpc(&mut next)),
                    health: Some(health("a:1", &mut next)),
                },
            ),
            (
                "b:2".to_owned(),
                EndpointStats {
                    rpc: Some(rpc(&mut next)),
                    health: None,
                },
            ),
            (
                "c:3".to_owned(),
                EndpointStats {
                    rpc: None,
                    health: Some(health("c:3", &mut next)),
                },
            ),
        ]);
        let snapshot = StatsSnapshot {
            uptime_secs: next(),
            started_at: next(),
            datasets: next() as usize,
            queries: next(),
            shard_queries: next(),
            workers: next() as usize,
            max_batch: next() as usize,
            cache: CacheStats {
                lookups: next(),
                hits: next(),
                misses: next(),
                coalesced: next(),
                entries: next() as usize,
                capacity: next() as usize,
            },
            default_shards: next() as usize,
            dataset_shards: next() as usize,
            compute_workers: next() as usize,
            shards: ShardStats {
                tasks: next(),
                micros_total: next(),
            },
            pruning: PruningSnapshot {
                bounded: next(),
                pruned: next(),
                scored: next(),
                refined: next(),
                bound_micros: next(),
            },
            snapshots: ResidentStats {
                resident: next() as usize,
                resident_bytes: next(),
                capacity_bytes: next(),
                loads: next(),
                evictions: next(),
                load_micros_total: next(),
            },
            connections: ConnSnapshot {
                active: next(),
                idle_keepalive: next(),
                accepted_total: next(),
                timeouts: next(),
                event_loop_wakeups: next(),
            },
            remote,
            ..StatsSnapshot::default()
        };
        let healthz = snapshot.to_healthz();
        let metrics = snapshot.to_metrics();
        let series = series(&metrics);

        // healthz scalar → the series carrying the same number. `None`
        // marks configuration and rollups healthz alone reports; a
        // scalar missing from this table fails the test, so a new
        // healthz field has to say which one it is.
        let table: HashMap<&str, Option<&str>> = HashMap::from([
            ("uptime_secs", Some("shapesearch_uptime_seconds")),
            ("started_at", None),
            ("datasets", Some("shapesearch_datasets")),
            ("queries", Some("shapesearch_queries_total")),
            ("workers", None),
            ("max_batch", None),
            ("cache.lookups", Some("shapesearch_cache_lookups_total")),
            (
                "cache.hits",
                Some(r#"shapesearch_cache_events_total{event="hit"}"#),
            ),
            (
                "cache.misses",
                Some(r#"shapesearch_cache_events_total{event="miss"}"#),
            ),
            (
                "cache.coalesced",
                Some(r#"shapesearch_cache_events_total{event="coalesced"}"#),
            ),
            ("cache.entries", Some("shapesearch_cache_entries")),
            ("cache.capacity", Some("shapesearch_cache_capacity")),
            ("shards.default", None),
            ("shards.dataset_shards", None),
            ("shards.compute_workers", None),
            ("shards.tasks", Some("shapesearch_shard_tasks_total")),
            (
                "shards.micros_total",
                Some("shapesearch_shard_micros_total"),
            ),
            (
                "shards.shard_queries",
                Some("shapesearch_shard_queries_total"),
            ),
            (
                "pruning.bounded",
                Some(r#"shapesearch_pruning_candidates_total{outcome="bounded"}"#),
            ),
            (
                "pruning.pruned",
                Some(r#"shapesearch_pruning_candidates_total{outcome="pruned"}"#),
            ),
            (
                "pruning.scored",
                Some(r#"shapesearch_pruning_candidates_total{outcome="scored"}"#),
            ),
            ("pruning.refined", Some("shapesearch_pruning_refined_total")),
            (
                "pruning.bound_micros",
                Some("shapesearch_pruning_bound_micros_total"),
            ),
            (
                "snapshots.resident",
                Some("shapesearch_snapshot_resident_shards"),
            ),
            (
                "snapshots.resident_bytes",
                Some("shapesearch_snapshot_resident_bytes"),
            ),
            (
                "snapshots.capacity_bytes",
                Some("shapesearch_snapshot_resident_capacity_bytes"),
            ),
            ("snapshots.loads", Some("shapesearch_snapshot_loads_total")),
            (
                "snapshots.evictions",
                Some("shapesearch_snapshot_evictions_total"),
            ),
            (
                "snapshots.load_micros_total",
                Some("shapesearch_snapshot_load_micros_total"),
            ),
            ("connections.active", Some("shapesearch_connections_active")),
            (
                "connections.idle_keepalive",
                Some("shapesearch_connections_idle_keepalive"),
            ),
            (
                "connections.accepted_total",
                Some("shapesearch_connections_accepted_total"),
            ),
            (
                "connections.timeouts",
                Some("shapesearch_connections_timeouts_total"),
            ),
            (
                "connections.event_loop_wakeups",
                Some("shapesearch_connections_event_loop_wakeups_total"),
            ),
            ("remote_shards.endpoints", None),
            (
                "remote_shards.requests",
                Some("shapesearch_remote_requests_total"),
            ),
            (
                "remote_shards.errors",
                Some("shapesearch_remote_errors_total"),
            ),
            (
                "remote_shards.ejections",
                Some("shapesearch_remote_ejections_total"),
            ),
            (
                "remote_shards.micros_total",
                Some("shapesearch_remote_micros_total"),
            ),
            ("registry.slots", None),
            ("registry.stale_slots", None),
        ]);
        // A per-endpoint family's total: every series of it, summed.
        let family_total = |family: &str| -> u64 {
            let prefix = format!("{family}{{");
            let members = series.iter().filter(|(key, _)| key.starts_with(&prefix));
            members.map(|(_, value)| value).sum()
        };
        for (path, value) in scalars(&healthz) {
            let mapped = table
                .get(path.as_str())
                .unwrap_or_else(|| panic!("healthz scalar `{path}` is not classified"));
            let Some(name) = mapped else { continue };
            let exposed = match path.starts_with("remote_shards.") {
                true => family_total(name),
                false => *series
                    .get(name)
                    .unwrap_or_else(|| panic!("no series `{name}`")),
            };
            assert_eq!(exposed, value, "healthz `{path}` vs `{name}`");
        }

        // Per endpoint: each row's numbers show under that endpoint's
        // label, and both renderings cover the same union of endpoints.
        let rows = healthz
            .get("remote_shards")
            .unwrap()
            .get("by_endpoint")
            .unwrap();
        let rows = rows.as_array().unwrap();
        let mut in_healthz = BTreeSet::new();
        for row in rows {
            let endpoint = row.get("endpoint").unwrap().as_str().unwrap();
            in_healthz.insert(endpoint.to_owned());
            let labeled =
                |family: &str| series.get(format!("{family}{{endpoint=\"{endpoint}\"}}").as_str());
            let stats = &snapshot.remote[endpoint];
            for (field, family) in [
                ("requests", "shapesearch_remote_requests_total"),
                ("errors", "shapesearch_remote_errors_total"),
                ("micros_total", "shapesearch_remote_micros_total"),
            ] {
                let shown = row.get(field).unwrap().as_usize().unwrap() as u64;
                assert_eq!(
                    labeled(family).copied(),
                    stats.rpc.map(|_| shown),
                    "{endpoint} {field}"
                );
            }
            let shown = row.get("ejections").unwrap().as_usize().unwrap() as u64;
            assert_eq!(
                labeled("shapesearch_remote_ejections_total").copied(),
                stats.health.as_ref().map(|_| shown),
                "{endpoint} ejections"
            );
            let shown = u64::from(row.get("ejected").unwrap().as_bool().unwrap());
            assert_eq!(
                labeled("shapesearch_remote_ejected").copied(),
                stats.health.as_ref().map(|_| shown),
                "{endpoint} ejected"
            );
        }
        let in_metrics: BTreeSet<String> = series
            .keys()
            .filter(|key| key.starts_with("shapesearch_remote_"))
            .filter_map(|key| {
                Some(
                    key.split_once("endpoint=\"")?
                        .1
                        .split_once('"')?
                        .0
                        .to_owned(),
                )
            })
            .collect();
        assert_eq!(in_metrics, in_healthz);
        assert_eq!(in_healthz.len(), 3);
    }
}
