//! The server's stats registry, its point-in-time snapshot, and the two
//! renderers over that snapshot.
//!
//! * [`Stats`] — the one registry the query pipeline writes: the query
//!   counters and the request, shard-request and per-stage latency
//!   histograms (atomics, so the cache-hit path takes no lock) and the
//!   fan-out gauges (local shard tasks, §6.3 pruning, per-endpoint RPCs)
//!   behind one poison-tolerant mutex.
//! * [`StatsSnapshot`] — everything `/healthz` and `/metrics` report,
//!   gathered once by [`StatsSnapshot::gather`] from the registry and the
//!   other subsystems' own snapshots (cache, resident LRU, connections,
//!   failover health, heartbeat registry).
//! * [`StatsSnapshot::to_healthz`] / [`StatsSnapshot::to_metrics`] — the
//!   JSON and Prometheus renderings: two loops over one table of the
//!   snapshot's scalars (`StatsSnapshot::scalars`), where a row names a
//!   number's `/healthz` place and its `/metrics` series once, plus the
//!   row sets (per endpoint, per registry slot, per histogram). A new
//!   counter is one field and one table row; a new stage is one line of
//!   [`crate::obs::Stage`].

use crate::cache::CacheStats;
use crate::catalog::SlotStaleness;
use crate::client::{EndpointHealthSnapshot, ReplicaAttempt};
use crate::handlers::AppState;
use crate::json::{obj, Json};
use crate::obs::{Exposition, Histogram, HistogramSnapshot, Stage};
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
/// [`RpcStats`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ShardStats {
    /// Local shard tasks executed (one per local shard per query group).
    pub tasks: u64,
    /// Total engine-side microseconds spent in local shard tasks.
    pub micros_total: u64,
}

/// One remote endpoint's RPC bookings. An attempt moves both fields in
/// one critical section of the registry's mutex, and the attempts sent
/// and their total microseconds *are* the histogram's count and sum —
/// one copy, so `/healthz` and `/metrics` cannot disagree about them.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct RpcStats {
    /// Attempts that failed (unreachable endpoint, non-200 reply, or a
    /// malformed body). A failed attempt makes failover move on to the
    /// shard's next replica; only when every replica fails does the
    /// caller see a `shard_unavailable` error naming each attempt.
    pub errors: u64,
    /// Round-trip latency (network plus the remote engine time) of every
    /// *replica attempt* sent to this endpoint — a failover that tries
    /// two replicas books one sample on each (a connect-retry pair
    /// within one attempt still counts once).
    pub latency: HistogramSnapshot,
}

impl RpcStats {
    /// RPC attempts sent to this endpoint.
    pub fn requests(&self) -> u64 {
        self.latency.count()
    }

    /// Total round-trip microseconds spent on this endpoint's RPCs.
    pub fn micros_total(&self) -> u64 {
        self.latency.sum
    }
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
    remote: BTreeMap<String, RpcStats>,
}

/// The process-lifetime numbers the query pipeline writes — the one
/// registry, and the one place the server's stats mutex is taken.
#[derive(Debug, Default)]
pub struct Stats {
    queries: AtomicU64,
    shard_queries: AtomicU64,
    /// End-to-end `POST /query` latency (one sample per request, batch
    /// or single).
    pub requests: Histogram,
    /// End-to-end `POST /shard/query` service latency: one sample per
    /// RPC completed, beside `shard_queries`, which counts the ones
    /// received.
    pub shard_requests: Histogram,
    stages: [Histogram; Stage::ALL.len()],
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

    /// Counts one `POST /shard/query` RPC received (this process acting
    /// as a shard server); kept apart from `queries` so a router's fan-in
    /// doesn't inflate a shard server's user-facing query count.
    pub fn count_shard_query(&self) {
        self.shard_queries.fetch_add(1, Ordering::Relaxed);
    }

    /// Total `POST /shard/query` RPCs received.
    pub fn shard_queries(&self) -> u64 {
        self.shard_queries.load(Ordering::Relaxed)
    }

    /// Records one `stage` latency sample (lock-free).
    pub fn stage(&self, stage: Stage, micros: u64) {
        self.stages[stage as usize].record(micros);
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

    /// Books one remote shard RPC's whole failover trail under one
    /// acquisition: per attempted endpoint, a latency sample and — for a
    /// failed attempt — an error, so a snapshot can never show a request
    /// without its error or its micros.
    pub fn record_rpc(&self, attempts: &[ReplicaAttempt]) {
        let mut gauges = self.gauges();
        for attempt in attempts {
            let entry = gauges.remote.entry(attempt.endpoint.clone()).or_default();
            entry.errors += u64::from(attempt.error.is_some());
            entry.latency.record(attempt.micros);
        }
    }
}

/// One remote endpoint's row: its RPC bookings and the failover client's
/// health for it. Either side can be missing — an endpoint can have been
/// dialed (health) without ever completing an RPC (stats), and vice
/// versa after a restart — so the snapshot holds the union.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct EndpointStats {
    /// RPC bookings, once any attempt on this endpoint has been booked.
    pub rpc: Option<RpcStats>,
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
    /// `POST /shard/query` RPCs received by this process.
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
    /// Per remote endpoint, in endpoint order: RPC bookings ∪ failover
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
    pub stages: [HistogramSnapshot; Stage::ALL.len()],
}

/// One row of the scalar table: where a number sits on `/healthz`
/// (`block` is `""` at the top level), the series that carries it on
/// `/metrics`, and the number. An empty `family` marks the configuration
/// and rollups healthz alone reports; rows of one family sit together
/// and share its header, told apart by their `label` pair.
struct Scalar {
    block: &'static str,
    key: &'static str,
    value: u64,
    kind: &'static str,
    family: &'static str,
    help: &'static str,
    label: Option<(&'static str, &'static str)>,
}

/// A healthz-only row, until [`Scalar::counter`] or [`Scalar::gauge`]
/// gives it its `/metrics` series.
fn at(block: &'static str, key: &'static str, value: u64) -> Scalar {
    Scalar {
        block,
        key,
        value,
        kind: "",
        family: "",
        help: "",
        label: None,
    }
}

impl Scalar {
    fn counter(mut self, family: &'static str, help: &'static str) -> Self {
        (self.kind, self.family, self.help) = ("counter", family, help);
        self
    }

    fn gauge(mut self, family: &'static str, help: &'static str) -> Self {
        (self.kind, self.family, self.help) = ("gauge", family, help);
        self
    }

    fn labelled(mut self, key: &'static str, value: &'static str) -> Self {
        self.label = Some((key, value));
        self
    }
}

impl StatsSnapshot {
    /// Gathers the snapshot from `state` — the only function that reads
    /// live counters on behalf of `/healthz` and `/metrics`.
    pub fn gather(state: &AppState) -> Self {
        let stats = &state.stats;
        let gauges = stats.gauges().clone();
        let mut remote: BTreeMap<String, EndpointStats> = BTreeMap::new();
        for (endpoint, rpc) in gauges.remote {
            remote.entry(endpoint).or_default().rpc = Some(rpc);
        }
        for health in state.remote.health_snapshot() {
            let row = remote.entry(health.endpoint.clone()).or_default();
            row.health = Some(health);
        }
        let conn = &state.conn_stats;
        Self {
            uptime_secs: state.started.elapsed().as_secs(),
            started_at: state.started_at_epoch,
            datasets: state.catalog.len(),
            queries: stats.queries(),
            shard_queries: stats.shard_queries(),
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
            requests: stats.requests.snapshot(),
            shard_requests: stats.shard_requests.snapshot(),
            stages: std::array::from_fn(|i| stats.stages[i].snapshot()),
        }
    }

    /// The one table of published scalars, in `/healthz` order: every
    /// number either endpoint reports outside the row sets is a row here,
    /// and nowhere else. Metric names follow one scheme:
    /// `shapesearch_<noun>_<unit|total>`.
    fn scalars(&self) -> Vec<Scalar> {
        let event = |row: Scalar, event| {
            let help = "Query-cache lookup outcomes (hit + miss + coalesced = lookups).";
            row.counter("shapesearch_cache_events_total", help)
                .labelled("event", event)
        };
        let outcome = |row: Scalar, outcome| {
            let help = "Pruning-driver candidate outcomes (bounded = bound-checked, \
                        pruned = skipped, scored = segmented in full).";
            row.counter("shapesearch_pruning_candidates_total", help)
                .labelled("outcome", outcome)
        };
        let rpc_total = |field: fn(&RpcStats) -> u64| -> u64 {
            let booked = self.remote.values().filter_map(|row| row.rpc.as_ref());
            booked.map(field).sum()
        };
        let dialed = self.remote.values().filter_map(|row| row.health.as_ref());
        let stale = self.registry.iter().filter(|s| s.fresh_replicas == 0);
        let (cache, shards, pruning) = (&self.cache, &self.shards, &self.pruning);
        let (snapshots, conns) = (&self.snapshots, &self.connections);
        // One row, at most two lines: where the number sits on /healthz,
        // then the series that carries it on /metrics.
        #[rustfmt::skip]
        let table = vec![
            at("", "uptime_secs", self.uptime_secs)
                .gauge("shapesearch_uptime_seconds", "Seconds since this server process started."),
            at("", "started_at", self.started_at),
            at("", "datasets", self.datasets as u64)
                .gauge("shapesearch_datasets", "Registered datasets."),
            at("", "queries", self.queries)
                .counter("shapesearch_queries_total", "Queries received on POST /query (each batch item counts once)."),
            at("", "workers", self.workers as u64),
            at("", "max_batch", self.max_batch as u64),
            at("cache", "lookups", cache.lookups)
                .counter("shapesearch_cache_lookups_total", "Query-cache lookups."),
            event(at("cache", "hits", cache.hits), "hit"),
            event(at("cache", "misses", cache.misses), "miss"),
            event(at("cache", "coalesced", cache.coalesced), "coalesced"),
            at("cache", "entries", cache.entries as u64)
                .gauge("shapesearch_cache_entries", "Live query-cache entries."),
            at("cache", "capacity", cache.capacity as u64)
                .gauge("shapesearch_cache_capacity", "Query-cache capacity in entries."),
            at("shards", "default", self.default_shards as u64),
            at("shards", "dataset_shards", self.dataset_shards as u64),
            at("shards", "compute_workers", self.compute_workers as u64),
            at("shards", "tasks", shards.tasks)
                .counter("shapesearch_shard_tasks_total", "Local shard tasks executed."),
            at("shards", "micros_total", shards.micros_total)
                .counter("shapesearch_shard_micros_total", "Engine-side microseconds spent in local shard tasks."),
            at("shards", "shard_queries", self.shard_queries)
                .counter("shapesearch_shard_queries_total", "POST /shard/query RPCs served by this process."),
            outcome(at("pruning", "bounded", pruning.bounded), "bounded"),
            outcome(at("pruning", "pruned", pruning.pruned), "pruned"),
            outcome(at("pruning", "scored", pruning.scored), "scored"),
            at("pruning", "refined", pruning.refined)
                .counter("shapesearch_pruning_refined_total", "Candidates the whole-trendline bound could not prune, bounded \
                          again over their end-anchored windows."),
            at("pruning", "joined", pruning.joined)
                .counter("shapesearch_pruning_joined_total", "Refined candidates the end-anchored bound could not prune either, whose \
                          chain was placed whole against the live threshold."),
            at("pruning", "bound_micros", pruning.bound_micros)
                .counter("shapesearch_pruning_bound_micros_total", "Microseconds spent computing pruning upper bounds, all tiers."),
            at("snapshots", "resident", snapshots.resident as u64)
                .gauge("shapesearch_snapshot_resident_shards", "Snapshot shards currently materialized in memory."),
            at("snapshots", "resident_bytes", snapshots.resident_bytes)
                .gauge("shapesearch_snapshot_resident_bytes", "Columnar-arena bytes held by resident snapshot shards."),
            at("snapshots", "capacity_bytes", snapshots.capacity_bytes)
                .gauge("shapesearch_snapshot_resident_capacity_bytes", "Resident-shard byte budget (--resident-bytes; 0 = unlimited)."),
            at("snapshots", "loads", snapshots.loads)
                .counter("shapesearch_snapshot_loads_total", "Cold snapshot-shard loads (first touch or reload after eviction)."),
            at("snapshots", "evictions", snapshots.evictions)
                .counter("shapesearch_snapshot_evictions_total", "Snapshot shards evicted by the resident-shard LRU."),
            at("snapshots", "load_micros_total", snapshots.load_micros_total)
                .counter("shapesearch_snapshot_load_micros_total", "Microseconds spent materializing snapshot shards."),
            at("connections", "active", conns.active)
                .gauge("shapesearch_connections_active", "Open client connections (any phase, including keep-alive idle)."),
            at("connections", "idle_keepalive", conns.idle_keepalive)
                .gauge("shapesearch_connections_idle_keepalive", "Open client connections parked idle between keep-alive requests."),
            at("connections", "accepted_total", conns.accepted_total)
                .counter("shapesearch_connections_accepted_total", "Client connections accepted since startup."),
            at("connections", "timeouts", conns.timeouts)
                .counter("shapesearch_connections_timeouts_total", "Connections cut by the idle or slow-request deadline."),
            at("connections", "event_loop_wakeups", conns.event_loop_wakeups)
                .counter("shapesearch_connections_event_loop_wakeups_total", "Readiness event-loop wakeups that delivered at least one event."),
            // Rollups of the per-endpoint and per-slot row sets.
            at("remote_shards", "endpoints", self.remote.len() as u64),
            at("remote_shards", "requests", rpc_total(RpcStats::requests)),
            at("remote_shards", "errors", rpc_total(|rpc| rpc.errors)),
            at("remote_shards", "ejections", dialed.map(|h| h.ejections).sum()),
            at("remote_shards", "micros_total", rpc_total(RpcStats::micros_total)),
            at("registry", "slots", self.registry.len() as u64),
            at("registry", "stale_slots", stale.count() as u64),
        ];
        table
    }

    /// `remote_shards.by_endpoint`: one row per endpoint of the union,
    /// a missing side reading as zeros.
    fn endpoint_rows(&self) -> Json {
        let rows = self.remote.iter().map(|(endpoint, row)| {
            let rpc = row.rpc.unwrap_or_default();
            let h = row.health.as_ref();
            obj([
                ("endpoint", endpoint.as_str().into()),
                ("requests", rpc.requests().into()),
                ("errors", rpc.errors.into()),
                ("micros_total", rpc.micros_total().into()),
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
        Json::Arr(rows.collect())
    }

    /// `registry.by_slot`: one row per heartbeat-announced shard slot.
    fn slot_rows(&self) -> Json {
        let rows = self.registry.iter().map(|s| {
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
        Json::Arr(rows.collect())
    }

    /// The `GET /healthz` body: build info, then the scalar table block
    /// by block, two of the blocks ending in their row set.
    pub fn to_healthz(&self) -> Json {
        let mut body = vec![
            ("status", "ok".into()),
            ("version", build_version().into()),
            ("git_rev", build_git_rev().into()),
        ];
        for rows in self.scalars().chunk_by(|a, b| a.block == b.block) {
            let mut fields: Vec<_> = rows.iter().map(|r| (r.key, r.value.into())).collect();
            match rows[0].block {
                "" => {
                    body.append(&mut fields);
                    continue;
                }
                "remote_shards" => fields.push(("by_endpoint", self.endpoint_rows())),
                "registry" => fields.push(("by_slot", self.slot_rows())),
                _ => {}
            }
            body.push((rows[0].block, obj(fields)));
        }
        obj(body)
    }

    /// One series per endpoint that has `column`'s side of the union, so
    /// an endpoint never shows a fabricated 0.
    fn per_endpoint<T>(
        &self,
        column: impl Fn(&EndpointStats) -> Option<T>,
    ) -> Vec<(Option<(&str, &str)>, T)> {
        let rows = self.remote.iter();
        rows.filter_map(|(endpoint, row)| {
            Some((Some(("endpoint", endpoint.as_str())), column(row)?))
        })
        .collect()
    }

    /// The `GET /metrics` body: Prometheus text exposition of the same
    /// snapshot [`Self::to_healthz`] renders — the scalar table's series
    /// family by family, then the per-endpoint families, then the latency
    /// distributions healthz's monotonic counters cannot carry, under
    /// `stage`/`endpoint`/`event`/`outcome` labels. A family with no
    /// series is left out.
    pub fn to_metrics(&self) -> String {
        let mut expo = Exposition::default();
        let table = self.scalars();
        let exposed: Vec<&Scalar> = table.iter().filter(|row| !row.family.is_empty()).collect();
        for family in exposed.chunk_by(|a, b| a.family == b.family) {
            let head = family[0];
            let series = family.iter().map(|row| (row.label, row.value));
            expo.family(head.family, head.help, head.kind, series);
        }

        type Column = fn(&EndpointStats) -> Option<u64>;
        let per_endpoint: [(&str, &str, &str, Column); 5] = [
            (
                "shapesearch_remote_requests_total",
                "Remote shard RPCs sent, by endpoint.",
                "counter",
                |row| Some(row.rpc?.requests()),
            ),
            (
                "shapesearch_remote_errors_total",
                "Failed remote shard RPCs, by endpoint.",
                "counter",
                |row| Some(row.rpc?.errors),
            ),
            (
                "shapesearch_remote_micros_total",
                "Round-trip microseconds of remote shard RPCs, by endpoint.",
                "counter",
                |row| Some(row.rpc?.micros_total()),
            ),
            (
                "shapesearch_remote_ejections_total",
                "Replica endpoints ejected by the failover circuit breaker \
                 (each transition into ejection counts once), by endpoint.",
                "counter",
                |row| Some(row.health.as_ref()?.ejections),
            ),
            (
                "shapesearch_remote_ejected",
                "Whether the failover circuit breaker currently holds this \
                 replica endpoint ejected (1) or admits it (0), by endpoint.",
                "gauge",
                |row| Some(u64::from(row.health.as_ref()?.ejected)),
            ),
        ];
        for (name, help, kind, column) in per_endpoint {
            let series = self.per_endpoint(column);
            if !series.is_empty() {
                expo.family(name, help, kind, series);
            }
        }

        let stages = Stage::ALL.iter().zip(self.stages);
        let histograms = [
            (
                "shapesearch_request_duration_micros",
                "End-to-end POST /query latency.",
                vec![(None, self.requests)],
            ),
            (
                "shapesearch_shard_request_duration_micros",
                "End-to-end POST /shard/query service latency.",
                vec![(None, self.shard_requests)],
            ),
            (
                "shapesearch_stage_duration_micros",
                "Per-stage latency across the request pipeline.",
                stages
                    .map(|(stage, snap)| (Some(("stage", stage.name())), snap))
                    .collect(),
            ),
            (
                "shapesearch_remote_rpc_duration_micros",
                "Remote shard RPC round-trip latency, by endpoint.",
                self.per_endpoint(|row| Some(row.rpc?.latency)),
            ),
        ];
        for (name, help, series) in histograms {
            if !series.is_empty() {
                expo.histogram_family(name, help, &series);
            }
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

    /// The primes: distinct, nonzero values, so a series rendered from
    /// the wrong field cannot reconcile by accident.
    fn primes() -> impl Iterator<Item = u64> {
        (2u64..).filter(|n| (2..*n).take_while(|d| d * d <= *n).all(|d| n % d != 0))
    }

    fn hist(samples: &[u64]) -> HistogramSnapshot {
        let mut snapshot = HistogramSnapshot::default();
        for micros in samples {
            snapshot.record(*micros);
        }
        snapshot
    }

    /// A snapshot with a distinct prime in every scalar, three endpoints
    /// (both sides of the union, RPCs only, dialed only), two registry
    /// slots (one stale) and samples in every histogram.
    fn primes_snapshot() -> StatsSnapshot {
        let mut p = primes();
        let mut next = || p.next().unwrap();
        let mut snapshot = StatsSnapshot {
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
                // Younger than the goldens: drawn after everything they
                // held, below, so no older value moves.
                joined: 0,
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
            requests: hist(&[0, 1, 100, 1 << 25]),
            shard_requests: hist(&[7]),
            stages: std::array::from_fn(|i| hist(&[i as u64 + 1, 1000 * (i as u64 + 1)])),
            ..StatsSnapshot::default()
        };
        snapshot.pruning.joined = next();
        // The golden files were captured with 41 primes drawn before the
        // row sets; 34 of them landed in the scalars above, the 35th in
        // `pruning.joined` when that arrived.
        let mut next = p.skip(6);
        let mut next = || next.next().unwrap();
        let rpcs: [(&str, &[u64]); 2] = [("a:1", &[2, 3]), ("b:2", &[19, 23, 4096])];
        for (endpoint, samples) in rpcs {
            let row = snapshot.remote.entry(endpoint.to_owned()).or_default();
            row.rpc = Some(RpcStats {
                errors: next(),
                latency: hist(samples),
            });
        }
        for (endpoint, ejected) in [("a:1", true), ("c:3", false)] {
            let row = snapshot.remote.entry(endpoint.to_owned()).or_default();
            row.health = Some(EndpointHealthSnapshot {
                endpoint: endpoint.to_owned(),
                consecutive_failures: next() as u32,
                ejected,
                ejections: next(),
                connect_attempts: next(),
            });
        }
        for (dataset, fresh_replicas) in [("fresh", 2), ("stale \"one\"", 0)] {
            snapshot.registry.push(SlotStaleness {
                dataset: dataset.to_owned(),
                shard: next() as usize,
                shards: next() as usize,
                replicas: next() as usize,
                fresh_replicas,
                freshest_age_secs: next(),
                stalest_age_secs: next(),
            });
        }
        snapshot
    }

    /// The bytes db9ab8d (the last commit with two hand-written
    /// renderers) produced for [`primes_snapshot`]'s state, plus the rows
    /// added since (`pruning.joined`, with the HELP text that says "all
    /// tiers"): `/healthz` must match byte for byte, `/metrics` line for
    /// line in any family order.
    #[test]
    fn renderings_match_the_hand_written_renderers_goldens() {
        let snapshot = primes_snapshot();
        assert_eq!(
            snapshot.to_healthz().to_text(),
            include_str!("../tests/golden/healthz.json")
        );
        let sorted = |text: &str| {
            let mut lines: Vec<String> = text.lines().map(str::to_owned).collect();
            lines.sort();
            lines
        };
        let (got, want) = (
            sorted(&snapshot.to_metrics()),
            sorted(include_str!("../tests/golden/metrics.txt")),
        );
        for (got, want) in got.iter().zip(&want) {
            assert_eq!(got, want);
        }
        assert_eq!(got.len(), want.len());
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

    #[test]
    fn every_table_row_reaches_healthz_and_its_series() {
        let snapshot = primes_snapshot();
        let healthz = snapshot.to_healthz();
        let metrics = snapshot.to_metrics();
        let series = series(&metrics);

        // Each row's number is at its healthz place and on its series.
        let table = snapshot.scalars();
        for row in &table {
            let block = match row.block {
                "" => &healthz,
                block => healthz.get(block).unwrap(),
            };
            let shown = block.get(row.key).unwrap().as_usize().unwrap() as u64;
            assert_eq!(shown, row.value, "healthz {}.{}", row.block, row.key);
            if row.family.is_empty() {
                continue;
            }
            let key = match row.label {
                Some((k, v)) => format!("{}{{{k}=\"{v}\"}}", row.family),
                None => row.family.to_owned(),
            };
            assert_eq!(series.get(key.as_str()), Some(&row.value), "{key}");
        }
        // And healthz holds no number outside the row sets that is not a
        // table row: an unclassified scalar is impossible.
        let Json::Obj(fields) = &healthz else {
            panic!("healthz is an object");
        };
        let is_num = |v: &Json| matches!(v, Json::Num(_));
        let scalars: usize = fields
            .iter()
            .map(|(_, value)| match value {
                Json::Obj(block) => block.iter().filter(|(_, v)| is_num(v)).count(),
                value => usize::from(is_num(value)),
            })
            .sum();
        assert_eq!(scalars, table.len());

        // Per endpoint: each row's numbers show under that endpoint's
        // label, the block's rollups are the families' totals, and both
        // renderings cover the same union of endpoints.
        let block = healthz.get("remote_shards").unwrap();
        let rows = block.get("by_endpoint").unwrap().as_array().unwrap();
        let mut in_healthz = BTreeSet::new();
        let mut totals: HashMap<&str, u64> = HashMap::new();
        for row in rows {
            let endpoint = row.get("endpoint").unwrap().as_str().unwrap();
            in_healthz.insert(endpoint.to_owned());
            let stats = &snapshot.remote[endpoint];
            for (field, family, present) in [
                (
                    "requests",
                    "shapesearch_remote_requests_total",
                    stats.rpc.is_some(),
                ),
                (
                    "errors",
                    "shapesearch_remote_errors_total",
                    stats.rpc.is_some(),
                ),
                (
                    "micros_total",
                    "shapesearch_remote_micros_total",
                    stats.rpc.is_some(),
                ),
                (
                    "ejections",
                    "shapesearch_remote_ejections_total",
                    stats.health.is_some(),
                ),
                (
                    "ejected",
                    "shapesearch_remote_ejected",
                    stats.health.is_some(),
                ),
            ] {
                let shown = match row.get(field).unwrap() {
                    Json::Bool(flag) => u64::from(*flag),
                    number => number.as_usize().unwrap() as u64,
                };
                let labeled = series.get(format!("{family}{{endpoint=\"{endpoint}\"}}").as_str());
                assert_eq!(
                    labeled.copied(),
                    present.then_some(shown),
                    "{endpoint} {field}"
                );
                *totals.entry(field).or_default() += shown;
            }
        }
        for field in ["requests", "errors", "micros_total", "ejections"] {
            let rollup = block.get(field).unwrap().as_usize().unwrap() as u64;
            assert_eq!(rollup, totals[field], "remote_shards.{field}");
        }
        let in_metrics: BTreeSet<String> = series
            .keys()
            .filter(|key| key.starts_with("shapesearch_remote_"))
            .filter_map(|key| {
                let (_, rest) = key.split_once("endpoint=\"")?;
                Some(rest.split_once('"')?.0.to_owned())
            })
            .collect();
        assert_eq!(in_metrics, in_healthz);
        assert_eq!(in_healthz.len(), 3);
    }
}
