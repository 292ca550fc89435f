//! The dataset catalog: one [`Catalog::register`] for every
//! [`DataSource`]. A CSV / JSON-lines source is parsed and EXTRACTed
//! into a [`Collection`] on the heap; a snapshot is opened and validated
//! into one whose columns view the mapping. From there registration is
//! one path: point counts → partition bounds (the one deterministic
//! rule, [`partition_bounds_by_points`]) → placement → listing counts →
//! engines for the **local** slots only, each cut by
//! [`Collection::partition`]. The collection is dropped once they are
//! cut, before the first GROUP; then each is warmed — one GROUP path for
//! every source — and UDP-registered. A remote slot holds nothing in
//! this process. The immutable [`DatasetEntry`] is shared across every
//! request thread via `Arc`.
//!
//! Registration is the expensive, rare operation; queries are the hot
//! path and only ever take the read lock, so worker threads never
//! serialize behind each other on lookup.
//!
//! The catalog also carries each dataset's **partition map**: one
//! [`ShardPlacement`] per shard, recording whether that shard executes
//! in this process ([`ShardPlacement::Local`]) or on remote shard
//! servers ([`ShardPlacement::Remote`], a *replica list* of equivalent
//! `host:port` endpoints reached over `POST /shard/query` with
//! health-checked failover). Placements are set at registration
//! (`"shard_endpoints"` in the HTTP body, `--shard-endpoint` on the
//! CLI, or resolved from the heartbeat [`Registry`] with
//! `"shard_endpoints": "registry"`) and are immutable afterwards —
//! repointing a shard means re-registering, which bumps the generation
//! *and* changes the placement fingerprint baked into cache keys.

use crate::cache::{lock, read, write};
use crate::error::ServerError;
use shapesearch_core::{
    partition_bounds_by_points, snapshot, Collection, CoreError, EngineOptions, ShapeEngine,
    SnapshotError,
};
use shapesearch_datastore::{csv, json, read_file, VisualSpec};
use std::collections::{BTreeMap, HashMap};
use std::convert::Infallible;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::{Duration, Instant};

/// Where one shard of a dataset executes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardPlacement {
    /// The shard's engine lives in this process; its tasks run on the
    /// server's compute pool.
    Local,
    /// The shard is owned by remote shard servers (`shapesearch serve
    /// --shard-of` processes) — a non-empty list of *replica* endpoints
    /// (`host:port`) holding the identical partition, queried over
    /// `POST /shard/query` in declared order with failover.
    Remote(Vec<String>),
}

impl ShardPlacement {
    /// The placement's cache-fingerprint token: `local`, or the remote
    /// replica endpoints `|`-joined (a singleton replica list is the
    /// bare endpoint — byte-compatible with pre-replication keys).
    pub fn fingerprint(&self) -> String {
        match self {
            ShardPlacement::Local => "local".to_owned(),
            ShardPlacement::Remote(replicas) => replicas.join("|"),
        }
    }
}

/// How a registration names its per-shard placement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardEndpoints {
    /// One entry per shard in partition order: `None` = local,
    /// `Some(replicas)` = a non-empty replica list of remote shard
    /// servers holding that partition.
    Explicit(Vec<Option<Vec<String>>>),
    /// Resolve the placement from the heartbeat [`Registry`] at
    /// registration time (`"shard_endpoints": "registry"` on the wire).
    /// Requires an explicit dataset id; the resolved placement is then
    /// immutable like an explicit one — later heartbeats change the
    /// registry, not a registered dataset.
    FromRegistry,
}

/// How long one heartbeat keeps a shard-server endpoint *fresh* in the
/// [`Registry`]. Shard servers announce every few seconds
/// (`serve --announce`), so 30 s tolerates a couple of missed beats
/// without resolving a placement onto a corpse.
pub const REGISTRY_TTL_SECS: u64 = 30;

/// One row of a [`Registry`] snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegistryEntry {
    /// The dataset id the shard server announced for.
    pub dataset: String,
    /// The partition index it owns.
    pub shard: usize,
    /// The total partition count it was split with.
    pub shards: usize,
    /// The shard server's `host:port`.
    pub endpoint: String,
    /// Seconds since its last heartbeat.
    pub age_secs: u64,
    /// Whether the entry is still within [`REGISTRY_TTL_SECS`].
    pub fresh: bool,
}

/// One shard slot's heartbeat-staleness rollup for `/healthz`: a slot
/// is one announced `(dataset, shard, shards)` partition key, and its
/// replicas are every endpoint that has ever announced for it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlotStaleness {
    /// The dataset id announced for.
    pub dataset: String,
    /// The partition index.
    pub shard: usize,
    /// The partition total it was split with.
    pub shards: usize,
    /// Endpoints ever heard for this slot (fresh or stale).
    pub replicas: usize,
    /// Endpoints still within [`REGISTRY_TTL_SECS`].
    pub fresh_replicas: usize,
    /// Seconds since the most recent heartbeat across the slot's
    /// replicas.
    pub freshest_age_secs: u64,
    /// Seconds since the oldest heartbeat across the slot's replicas —
    /// the replica closest to falling out of the registry.
    pub stalest_age_secs: u64,
}

/// The topology registry: shard servers `POST /registry/heartbeat`
/// `{dataset, shard_of: "i/n", endpoint}` every few seconds, and a
/// registration with `"shard_endpoints": "registry"` resolves its
/// partition map from the *fresh* entries instead of being told one.
/// `GET /registry` exposes the whole table for operators.
#[derive(Default)]
pub struct Registry {
    /// `(dataset, shard index, total)` → endpoint → last heartbeat.
    inner: Mutex<RegistryTable>,
}

/// `(dataset, shard index, total)` → endpoint → last heartbeat.
type RegistryTable = BTreeMap<(String, usize, usize), BTreeMap<String, Instant>>;

impl Registry {
    /// Records (or refreshes) one shard server's announcement.
    ///
    /// # Errors
    /// Rejects an out-of-range index, a zero total, or an empty
    /// endpoint.
    pub fn heartbeat(
        &self,
        dataset: &str,
        shard: usize,
        shards: usize,
        endpoint: &str,
    ) -> Result<(), ServerError> {
        if dataset.is_empty() {
            return Err(ServerError::bad_request("heartbeat without a dataset id"));
        }
        if shards == 0 || shard >= shards {
            return Err(ServerError::bad_request(format!(
                "heartbeat shard_of {shard}/{shards} is out of range"
            )));
        }
        if endpoint.is_empty() {
            return Err(ServerError::bad_request("heartbeat without an endpoint"));
        }
        lock(&self.inner)
            .entry((dataset.to_owned(), shard, shards))
            .or_default()
            .insert(endpoint.to_owned(), Instant::now());
        Ok(())
    }

    /// Every announcement ever heard, in deterministic
    /// (dataset, shard, endpoint) order, stale ones included (marked).
    pub fn snapshot(&self) -> Vec<RegistryEntry> {
        let ttl = Duration::from_secs(REGISTRY_TTL_SECS);
        let now = Instant::now();
        let inner = lock(&self.inner);
        inner
            .iter()
            .flat_map(|((dataset, shard, shards), endpoints)| {
                endpoints.iter().map(move |(endpoint, at)| {
                    let age = now.saturating_duration_since(*at);
                    RegistryEntry {
                        dataset: dataset.clone(),
                        shard: *shard,
                        shards: *shards,
                        endpoint: endpoint.clone(),
                        age_secs: age.as_secs(),
                        fresh: age <= ttl,
                    }
                })
            })
            .collect()
    }

    /// Per-slot staleness rollup for `/healthz`: one row per announced
    /// `(dataset, shard, shards)` slot with the age of its freshest and
    /// stalest heartbeat and how many of its replicas are still fresh.
    /// Deterministic slot order (the table is a `BTreeMap`).
    pub fn slot_staleness(&self) -> Vec<SlotStaleness> {
        let ttl = Duration::from_secs(REGISTRY_TTL_SECS);
        let now = Instant::now();
        let inner = lock(&self.inner);
        inner
            .iter()
            .map(|((dataset, shard, shards), endpoints)| {
                let ages: Vec<u64> = endpoints
                    .values()
                    .map(|at| now.saturating_duration_since(*at).as_secs())
                    .collect();
                let fresh = endpoints
                    .values()
                    .filter(|at| now.saturating_duration_since(**at) <= ttl)
                    .count();
                SlotStaleness {
                    dataset: dataset.clone(),
                    shard: *shard,
                    shards: *shards,
                    replicas: endpoints.len(),
                    fresh_replicas: fresh,
                    freshest_age_secs: ages.iter().copied().min().unwrap_or(0),
                    stalest_age_secs: ages.iter().copied().max().unwrap_or(0),
                }
            })
            .collect()
    }

    /// Resolves a dataset's full placement from fresh heartbeats: one
    /// replica list per partition, replicas in lexicographic endpoint
    /// order (announcement timing must not change the placement
    /// fingerprint).
    ///
    /// # Errors
    /// Describes exactly what is missing: no announcements, shard
    /// servers disagreeing on the total, or an uncovered partition.
    pub fn resolve(&self, dataset: &str) -> Result<Vec<Vec<String>>, String> {
        let ttl = Duration::from_secs(REGISTRY_TTL_SECS);
        let now = Instant::now();
        let inner = lock(&self.inner);
        let mut totals: Vec<usize> = Vec::new();
        let mut by_shard: BTreeMap<usize, Vec<String>> = BTreeMap::new();
        for ((ds, shard, shards), endpoints) in inner.iter() {
            if ds != dataset {
                continue;
            }
            let fresh: Vec<String> = endpoints
                .iter()
                .filter(|(_, at)| now.saturating_duration_since(**at) <= ttl)
                .map(|(ep, _)| ep.clone())
                .collect();
            if fresh.is_empty() {
                continue;
            }
            if !totals.contains(shards) {
                totals.push(*shards);
            }
            by_shard.entry(*shard).or_default().extend(fresh);
        }
        if by_shard.is_empty() {
            return Err(format!(
                "no fresh heartbeat for dataset `{dataset}` in the registry"
            ));
        }
        if totals.len() > 1 {
            totals.sort_unstable();
            return Err(format!(
                "shard servers for `{dataset}` disagree on the partition \
                 total: {totals:?}"
            ));
        }
        let total = totals[0];
        let mut placement = Vec::with_capacity(total);
        for shard in 0..total {
            match by_shard.get(&shard) {
                Some(replicas) => {
                    let mut replicas = replicas.clone();
                    replicas.sort_unstable();
                    replicas.dedup();
                    placement.push(replicas);
                }
                None => {
                    return Err(format!(
                        "partition {shard}/{total} of `{dataset}` has no fresh \
                         heartbeat"
                    ))
                }
            }
        }
        Ok(placement)
    }
}

/// Where a dataset's rows come from.
#[derive(Debug, Clone)]
pub enum DataSource {
    /// A server-local file path; format chosen by extension
    /// (`.json`/`.jsonl` → JSON-lines, anything else → CSV:
    /// [`shapesearch_datastore::read_file`]).
    Path(String),
    /// Inline CSV text shipped in the request body.
    InlineCsv(String),
    /// Inline JSON-lines text shipped in the request body.
    InlineJsonl(String),
    /// A server-local on-disk snapshot (`shapesearch snapshot` output):
    /// EXTRACT's output, served from the mapping instead of an eager
    /// EXTRACT.
    Snapshot(String),
}

/// A catalog registration request.
#[derive(Debug, Clone)]
pub struct DatasetSpec {
    /// Optional caller-chosen id; autogenerated (`ds1`, `ds2`, …) if empty.
    pub id: Option<String>,
    /// Human-readable name for listings.
    pub name: String,
    /// Where the rows come from.
    pub source: DataSource,
    /// Visual parameters: z (category), x, y, filters, aggregation.
    pub visual: VisualSpec,
    /// Registers the built-in mathematical UDPs (`concave`, `spike`, …)
    /// so queries may use them; on by default for the service.
    pub builtins: bool,
    /// Requested engine shard count. `None` uses the catalog's default
    /// (the server's `--shards`, or the machine's available parallelism
    /// when that is 0/auto); any value is capped by the collection size
    /// so no shard is ever empty.
    pub shards: Option<usize>,
    /// Optional per-shard placement; see [`ShardEndpoints`]. When
    /// explicit, the length *is* the shard count (it must agree with
    /// `shards` if both are given) and must survive the collection-size
    /// cap — remote endpoints cannot be silently dropped.
    pub shard_endpoints: Option<ShardEndpoints>,
    /// Shard-server mode: `Some((index, total))` registers only
    /// partition `index` of a deterministic `total`-way split of the
    /// source (global `viz_index`es preserved). The entry then answers
    /// `POST /shard/query` for a router whose partition map names this
    /// process.
    pub shard_of: Option<(usize, usize)>,
}

/// Reads `source` into the collection a registration serves: parse +
/// EXTRACT for rows, open + validate (mmap, checksums, structural
/// invariants) for a snapshot, which stores extraction *output* —
/// `visual` is then carried for listings only. Books the parse (or the
/// open) in `times.parse` and EXTRACT in `times.extract`.
fn load(
    source: &DataSource,
    visual: &VisualSpec,
    times: &mut RegisterTimes,
) -> Result<Collection, ServerError> {
    let started = Instant::now();
    let table = match source {
        DataSource::Path(path) => read_file(path),
        DataSource::InlineCsv(text) => csv::read_str(text),
        DataSource::InlineJsonl(text) => json::read_str(text),
        DataSource::Snapshot(path) => {
            let opened = snapshot::open(path);
            times.parse += started.elapsed();
            return opened.map_err(|e| match e {
                SnapshotError::Io { .. } => {
                    ServerError::bad_request(format!("loading dataset: {e}"))
                }
                corrupt => ServerError::invalid_snapshot(corrupt.to_string()),
            });
        }
    }
    .map_err(|e| ServerError::bad_request(format!("loading dataset: {e}")))?;
    times.parse += started.elapsed();
    let started = Instant::now();
    let collection = Collection::extract(&table, visual).map_err(extracting);
    times.extract += started.elapsed();
    collection
}

/// The 400 for a source that loaded but does not yield the collection
/// the registration asks for — through [`CoreError`], whose `data error:`
/// and `invalid configuration:` prefixes these messages have always had.
fn extracting(e: CoreError) -> ServerError {
    ServerError::bad_request(format!("extracting trendlines: {e}"))
}

/// Time one registration spent in each of its stages.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct RegisterTimes {
    /// The source parse (CSV or JSON-lines into a table) or the
    /// snapshot open; the HTTP handler adds the body's JSON decode.
    pub(crate) parse: Duration,
    /// EXTRACT, plus cutting the local engines from the collection.
    pub(crate) extract: Duration,
    /// The warm GROUP of every local shard.
    pub(crate) group: Duration,
}

/// Finishes one shard's engine for serving, whatever its source: GROUP
/// at the default bin width (booked in `times.group`), so the first
/// query pays SEGMENT+SCORE only, then the built-in UDPs when the
/// registration asked for them.
fn shard_engine(
    mut engine: ShapeEngine,
    builtins: bool,
    times: &mut RegisterTimes,
) -> Arc<ShapeEngine> {
    let started = Instant::now();
    engine.warm(EngineOptions::default().bin_width);
    times.group += started.elapsed();
    if builtins {
        engine.register_builtin_udps();
    }
    Arc::new(engine)
}

/// An immutable registered dataset, shared across request threads.
#[derive(Debug)]
pub struct DatasetEntry {
    /// The dataset id queries address it by.
    pub id: String,
    /// Monotone registration counter, unique across the catalog's
    /// lifetime. Cache keys include it, so results computed against a
    /// replaced registration can never surface under the new one.
    pub generation: u64,
    /// Human-readable name for listings.
    pub name: String,
    /// The visual parameters EXTRACT ran with.
    pub visual: VisualSpec,
    /// The effective shard count (requested count capped by the
    /// collection size; 1 in shard-of mode).
    pub shard_count: usize,
    /// The partition map: where each shard executes.
    /// `exec::execute_on_shards` runs one task per slot — on the
    /// server's compute pool over [`Self::local_shard`], or over
    /// `POST /shard/query` — and merges with
    /// [`shapesearch_core::merge_topk_refs`]. All-`Local` unless the
    /// registration named `shard_endpoints`.
    pub placement: Vec<ShardPlacement>,
    /// Deterministic fingerprint of the partition map (`local` or the
    /// endpoint, one token per shard, `;`-joined). Baked into cache keys
    /// so re-registering with a repointed shard can never serve bytes
    /// computed under the old placement.
    pub placement_fp: String,
    /// `Some((index, total))` when this entry is a shard-server
    /// partition rather than the whole collection.
    pub shard_of: Option<(usize, usize)>,
    /// Number of extracted trendlines (of the owned partition, in
    /// shard-of mode).
    pub trendline_count: usize,
    /// Total points across all trendlines (of the owned partition, in
    /// shard-of mode).
    pub point_count: usize,
    /// True when this entry serves from an on-disk snapshot.
    pub(crate) snapshot: bool,
    /// One engine per **local** slot, built at registration with its
    /// columnar GROUP arena in place, so the first query pays only
    /// SEGMENT+SCORE. `None` at a remote slot: its shard server owns the
    /// (identical, deterministic) partition, and a router must not pay a
    /// collection's memory to route.
    shards: Vec<Option<Arc<ShapeEngine>>>,
}

impl DatasetEntry {
    /// True when any shard of this dataset executes remotely.
    pub fn has_remote_shards(&self) -> bool {
        self.placement
            .iter()
            .any(|p| matches!(p, ShardPlacement::Remote(_)))
    }

    /// Bytes of columnar GROUP state the local shards keep resident: the
    /// sum of their [`ShapeEngine::grouped_byte_size`]. Remote shards
    /// count on their own servers.
    pub fn grouped_bytes(&self) -> usize {
        self.shards
            .iter()
            .flatten()
            .map(|engine| engine.grouped_byte_size())
            .sum()
    }

    /// Bytes of SegmentTree angle runs the local shards have built since
    /// registration: the sum of their [`ShapeEngine::angle_run_bytes`].
    /// It grows with the trendlines queries have scored, so it reports
    /// the query history, not the registration.
    pub fn angle_bytes(&self) -> usize {
        self.shards
            .iter()
            .flatten()
            .map(|engine| engine.angle_run_bytes())
            .sum()
    }

    /// The engine for **local** shard slot `slot`, built at registration.
    /// Byte-identity holds for every source — a snapshot partition holds
    /// the same rows and GROUPs them like the eager path.
    ///
    /// # Errors
    /// None: the `Result` stays for callers written against it.
    ///
    /// # Panics
    /// Panics when `slot` is out of range or names a remote slot (remote
    /// partitions are never built here).
    pub fn local_shard(&self, slot: usize) -> Result<Arc<ShapeEngine>, Infallible> {
        assert_eq!(
            self.placement[slot],
            ShardPlacement::Local,
            "remote slots are served by their shard servers"
        );
        Ok(Arc::clone(
            self.shards[slot]
                .as_ref()
                .expect("every local slot was built"),
        ))
    }
}

/// Joins per-shard placement tokens into the entry fingerprint.
fn placement_fingerprint(placement: &[ShardPlacement]) -> String {
    placement
        .iter()
        .map(ShardPlacement::fingerprint)
        .collect::<Vec<_>>()
        .join(";")
}

/// The shared catalog. Readers (queries) take the read lock; only
/// registration writes.
pub struct Catalog {
    inner: RwLock<HashMap<String, Arc<DatasetEntry>>>,
    next_id: AtomicU64,
    next_generation: AtomicU64,
    /// Shard count applied when a registration does not pin one.
    /// 0 = auto (the machine's available parallelism).
    default_shards: usize,
    /// Topology announcements from shard servers; consulted when a
    /// registration asks for `"shard_endpoints": "registry"`.
    registry: Registry,
}

impl Default for Catalog {
    fn default() -> Self {
        Self::new()
    }
}

impl Catalog {
    /// An empty catalog with automatic shard sizing (available
    /// parallelism, capped per dataset by its collection size).
    pub fn new() -> Self {
        Self::with_default_shards(0)
    }

    /// An empty catalog whose unpinned registrations get
    /// `default_shards` engine shards (0 = auto).
    pub fn with_default_shards(default_shards: usize) -> Self {
        Self {
            inner: RwLock::new(HashMap::new()),
            next_id: AtomicU64::new(1),
            next_generation: AtomicU64::new(1),
            default_shards,
            registry: Registry::default(),
        }
    }

    /// The configured default shard count (0 = auto).
    pub fn default_shards(&self) -> usize {
        self.default_shards
    }

    /// The heartbeat registry shard servers announce into.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Resolves a registration's shard request: explicit request, else
    /// the catalog default, else available parallelism. The engine
    /// itself caps the result at the collection size (never an empty
    /// shard).
    fn resolve_shards(&self, requested: Option<usize>) -> usize {
        match requested.unwrap_or(self.default_shards) {
            0 => std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            n => n,
        }
    }

    /// Registers a dataset: reads the source into a collection,
    /// partitions it (or retains one partition in shard-of mode),
    /// resolves the partition map, and publishes an entry that holds
    /// engines for its local slots only, all cut from the collection
    /// (heap columns, or the snapshot's mapping) and warmed now. Replaces
    /// any previous dataset with the same id (retiring the replaced generation from the query cache is the
    /// caller's: [`crate::handlers`] registers through
    /// `register_replacing`, which says which generation went).
    ///
    /// # Errors
    /// Fails on unreadable/malformed sources (a torn or corrupted
    /// snapshot with a structured `snapshot_invalid` error), unknown
    /// columns, out-of-range shard-of indices, and placement/shard-count
    /// mismatches (including a collection too small for the number of
    /// named endpoints — a remote shard is never silently dropped).
    /// Nothing is published on failure.
    pub fn register(&self, spec: DatasetSpec) -> Result<Arc<DatasetEntry>, ServerError> {
        self.register_replacing(spec).map(|(entry, ..)| entry)
    }

    /// [`Self::register`], also returning the generation it replaced and
    /// the time each stage took.
    pub(crate) fn register_replacing(
        &self,
        spec: DatasetSpec,
    ) -> Result<(Arc<DatasetEntry>, Option<u64>, RegisterTimes), ServerError> {
        let mut times = RegisterTimes::default();
        let collection = load(&spec.source, &spec.visual, &mut times)?;

        // Resolve the placement request into an explicit per-shard
        // replica-list map, so the registry path and the wire path flow
        // through identical validation.
        let endpoints = self.resolve_endpoints(&spec)?;
        let requested = self.resolve_shard_request(&spec, endpoints.as_deref())?;

        // The slot layout: the full deterministic partition, or the one
        // owned slice of the `total`-way split in shard-of mode.
        let counts = collection.point_counts();
        let bounds = match spec.shard_of {
            Some((index, total)) => {
                let all = partition_bounds_by_points(&counts, total);
                let Some(&owned) = all.get(index) else {
                    return Err(extracting(CoreError::Config(format!(
                        "shard index {index} out of range: the collection partitions \
                         into {} shard(s)",
                        all.len()
                    ))));
                };
                vec![owned]
            }
            None => partition_bounds_by_points(&counts, requested),
        };
        let shard_count = bounds.len();
        // Resolve the partition map against the *effective* shard count.
        let placement =
            Self::resolve_placement(endpoints.as_deref(), spec.shard_of.is_some(), shard_count)?;

        // Cut every local slot, then drop the collection before the first
        // GROUP: a mapped cut holds the mapping alive, and what a remote
        // slot covers is never cut here.
        let started = Instant::now();
        let engines: Vec<_> = bounds
            .iter()
            .zip(&placement)
            .map(|(&(start, end), placement)| {
                (*placement == ShardPlacement::Local).then(|| collection.partition(start, end))
            })
            .collect();
        drop(collection);
        times.extract += started.elapsed();
        let shards = engines
            .into_iter()
            .map(|engine| engine.map(|engine| shard_engine(engine, spec.builtins, &mut times)))
            .collect();

        // Listings describe everything the slots cover — the whole
        // collection, remote slots included, or the owned partition.
        let (first, last) = (bounds[0].0, bounds[shard_count - 1].1);
        let id = match spec.id {
            Some(id) if !id.is_empty() => id,
            _ => format!("ds{}", self.next_id.fetch_add(1, Ordering::Relaxed)),
        };
        let entry = Arc::new(DatasetEntry {
            id: id.clone(),
            generation: self.next_generation.fetch_add(1, Ordering::Relaxed),
            name: spec.name,
            visual: spec.visual,
            shard_count,
            placement_fp: placement_fingerprint(&placement),
            placement,
            shard_of: spec.shard_of,
            trendline_count: last - first,
            point_count: counts[first..last].iter().sum(),
            snapshot: matches!(spec.source, DataSource::Snapshot(_)),
            shards,
        });
        let replaced = write(&self.inner)
            .insert(id, Arc::clone(&entry))
            .map(|old| old.generation);
        Ok((entry, replaced, times))
    }

    /// Resolves a registration's `shard_endpoints` request into an
    /// explicit per-shard replica-list map (registry and wire paths flow
    /// through identical validation).
    fn resolve_endpoints(
        &self,
        spec: &DatasetSpec,
    ) -> Result<Option<Vec<Option<Vec<String>>>>, ServerError> {
        let endpoints: Option<Vec<Option<Vec<String>>>> = match &spec.shard_endpoints {
            None => None,
            Some(ShardEndpoints::Explicit(eps)) => Some(eps.clone()),
            Some(ShardEndpoints::FromRegistry) => {
                let id = spec
                    .id
                    .as_deref()
                    .filter(|id| !id.is_empty())
                    .ok_or_else(|| {
                        ServerError::bad_request(
                            "`shard_endpoints: \"registry\"` needs an explicit \
                             dataset id — heartbeats are keyed by it",
                        )
                    })?;
                let resolved = self
                    .registry
                    .resolve(id)
                    .map_err(ServerError::bad_request)?;
                Some(resolved.into_iter().map(Some).collect())
            }
        };
        if let Some(eps) = &endpoints {
            for (i, replicas) in eps.iter().enumerate() {
                let Some(replicas) = replicas else { continue };
                if replicas.is_empty() || replicas.iter().any(String::is_empty) {
                    return Err(ServerError::bad_request(format!(
                        "shard {i}: a remote replica list must name at least \
                         one non-empty endpoint (use null for a local shard)"
                    )));
                }
                let mut seen = replicas.clone();
                seen.sort_unstable();
                seen.dedup();
                if seen.len() != replicas.len() {
                    return Err(ServerError::bad_request(format!(
                        "shard {i}: duplicate replica endpoint — each replica \
                         must be a distinct shard server"
                    )));
                }
            }
        }
        Ok(endpoints)
    }

    /// Resolves the requested shard count: an explicit placement pins it
    /// (every entry of the map addresses one shard), else the spec /
    /// catalog default. Also refuses a `shards` that disagrees with an
    /// explicit placement length or a `shard_of` total — both silent
    /// wrong-partition-bounds hazards.
    fn resolve_shard_request(
        &self,
        spec: &DatasetSpec,
        endpoints: Option<&[Option<Vec<String>>]>,
    ) -> Result<usize, ServerError> {
        let shards = match (endpoints, spec.shards) {
            (Some(eps), Some(n)) if eps.len() != n => {
                return Err(ServerError::bad_request(format!(
                    "`shards` ({n}) disagrees with the {} entries of \
                     `shard_endpoints`; drop one or make them match",
                    eps.len()
                )))
            }
            (Some(eps), _) => eps.len(),
            (None, _) => self.resolve_shards(spec.shards),
        };
        if let (Some((_, total)), Some(n)) = (spec.shard_of, spec.shards) {
            if n != total {
                return Err(ServerError::bad_request(format!(
                    "`shards` ({n}) disagrees with the shard_of total ({total}); \
                     drop one or make them match"
                )));
            }
        }
        Ok(shards)
    }

    /// Resolves the partition map against the *effective* shard count.
    fn resolve_placement(
        endpoints: Option<&[Option<Vec<String>>]>,
        shard_of: bool,
        effective: usize,
    ) -> Result<Vec<ShardPlacement>, ServerError> {
        match endpoints {
            Some(eps) => {
                if shard_of {
                    return Err(ServerError::bad_request(
                        "`shard_of` and `shard_endpoints` are mutually exclusive: \
                         a shard server owns its partition locally",
                    ));
                }
                if effective != eps.len() {
                    return Err(ServerError::bad_request(format!(
                        "placement names {} shards but the collection only \
                         partitions into {effective} (one trendline per shard minimum)",
                        eps.len()
                    )));
                }
                Ok(eps
                    .iter()
                    .map(|ep| match ep {
                        Some(replicas) => ShardPlacement::Remote(replicas.clone()),
                        None => ShardPlacement::Local,
                    })
                    .collect())
            }
            None => Ok(vec![ShardPlacement::Local; effective]),
        }
    }

    /// Fetches a dataset by id.
    pub fn get(&self, id: &str) -> Option<Arc<DatasetEntry>> {
        read(&self.inner).get(id).cloned()
    }

    /// All datasets, sorted by id for deterministic listings.
    pub fn list(&self) -> Vec<Arc<DatasetEntry>> {
        let mut entries: Vec<_> = read(&self.inner).values().cloned().collect();
        entries.sort_by(|a, b| a.id.cmp(&b.id));
        entries
    }

    /// Number of registered datasets.
    pub fn len(&self) -> usize {
        read(&self.inner).len()
    }

    /// True when no dataset is registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shapesearch_core::{merge_topk, TopKResult};

    const CSV: &str = "\
product,week,sales
widget,1,10
widget,2,20
widget,3,15
widget,4,5
gadget,1,5
gadget,2,4
gadget,3,8
gadget,4,12
";

    /// The entry's answer the way `exec` computes it: every slot's
    /// partial (all local here), merged.
    fn top_k(entry: &DatasetEntry, query: &str, k: usize) -> Vec<TopKResult> {
        let query = shapesearch_parser::parse_regex(query).unwrap();
        let partials = (0..entry.shard_count)
            .map(|slot| entry.local_shard(slot).unwrap().top_k(&query, k).unwrap())
            .collect();
        merge_topk(partials, k)
    }

    /// A file in the temp dir, removed on drop (a failing test included).
    struct TempFile(std::path::PathBuf);

    impl TempFile {
        /// `ss-catalog-{tag}-<pid>.{ext}`; nothing is written yet.
        fn new(tag: &str, ext: &str) -> Self {
            let name = format!("ss-catalog-{tag}-{}.{ext}", std::process::id());
            Self(std::env::temp_dir().join(name))
        }

        fn path(&self) -> String {
            self.0.to_str().unwrap().to_owned()
        }
    }

    impl Drop for TempFile {
        fn drop(&mut self) {
            let _ = std::fs::remove_file(&self.0);
        }
    }

    /// `csv_text`'s trendlines as an on-disk snapshot.
    fn snapshot_of(csv_text: &str, tag: &str) -> TempFile {
        let table = csv::read_str(csv_text).unwrap();
        let visual = VisualSpec::new("product", "week", "sales");
        let collection = Collection::extract(&table, &visual).unwrap();
        let file = TempFile::new(tag, "snap");
        shapesearch_core::snapshot::write(&file.0, &collection).unwrap();
        file
    }

    fn spec(id: Option<&str>) -> DatasetSpec {
        DatasetSpec {
            id: id.map(str::to_owned),
            name: "sales".into(),
            source: DataSource::InlineCsv(CSV.into()),
            visual: VisualSpec::new("product", "week", "sales"),
            builtins: true,
            shards: None,
            shard_endpoints: None,
            shard_of: None,
        }
    }

    #[test]
    fn register_extracts_eagerly_and_lists() {
        let catalog = Catalog::new();
        let entry = catalog.register(spec(Some("sales"))).unwrap();
        assert_eq!(entry.trendline_count, 2);
        assert_eq!(entry.point_count, 8);
        assert_eq!(catalog.list().len(), 1);
        assert!(catalog.get("sales").is_some());
        assert!(catalog.get("nope").is_none());
    }

    #[test]
    fn ids_autogenerate_and_increment() {
        let catalog = Catalog::new();
        let a = catalog.register(spec(None)).unwrap();
        let b = catalog.register(spec(None)).unwrap();
        assert_ne!(a.id, b.id);
        assert_eq!(catalog.len(), 2);
    }

    #[test]
    fn registered_engine_is_queryable_through_arc() {
        let catalog = Catalog::new();
        let entry = catalog.register(spec(Some("s"))).unwrap();
        let results = top_k(&entry, "[p=up][p=down]", 1);
        assert_eq!(results[0].key, "widget");
    }

    #[test]
    fn bad_source_is_an_error() {
        let catalog = Catalog::new();
        let mut s = spec(None);
        s.source = DataSource::Path("/nonexistent/file.csv".into());
        assert!(catalog.register(s).is_err());
        let mut s = spec(None);
        s.visual = VisualSpec::new("no_such_col", "week", "sales");
        assert!(catalog.register(s).is_err());
    }

    #[test]
    fn engine_is_send_sync_shared() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Arc<DatasetEntry>>();
        assert_send_sync::<Catalog>();
    }

    #[test]
    fn shard_count_resolves_request_default_and_cap() {
        // Explicit request is capped by the collection size (2 here).
        let catalog = Catalog::new();
        let mut s = spec(Some("pinned"));
        s.shards = Some(8);
        let entry = catalog.register(s).unwrap();
        assert_eq!(entry.shard_count, 2);
        for slot in 0..2 {
            assert_eq!(entry.local_shard(slot).unwrap().len(), 1);
        }

        // Catalog default applies when the spec doesn't pin one.
        let catalog = Catalog::with_default_shards(2);
        let entry = catalog.register(spec(Some("defaulted"))).unwrap();
        assert_eq!(entry.shard_count, 2);

        // Shard count 1 is a single plain engine.
        let mut s = spec(Some("single"));
        s.shards = Some(1);
        let entry = catalog.register(s).unwrap();
        assert_eq!(entry.shard_count, 1);
    }

    #[test]
    fn placement_defaults_local_and_fingerprints_endpoints() {
        let catalog = Catalog::new();
        let mut s = spec(Some("local"));
        s.shards = Some(2);
        let local = catalog.register(s).unwrap();
        assert_eq!(local.placement, vec![ShardPlacement::Local; 2]);
        assert_eq!(local.placement_fp, "local;local");
        assert!(!local.has_remote_shards());

        // A mixed placement pins the shard count and names its remotes;
        // a singleton replica list fingerprints as the bare endpoint
        // (byte-compatible with pre-replication cache keys).
        let mut s = spec(Some("mixed"));
        s.shard_endpoints = Some(ShardEndpoints::Explicit(vec![
            Some(vec!["127.0.0.1:9001".into()]),
            None,
        ]));
        let mixed = catalog.register(s).unwrap();
        assert_eq!(mixed.shard_count, 2);
        assert_eq!(mixed.placement_fp, "127.0.0.1:9001;local");
        assert!(mixed.has_remote_shards());

        // Re-pointing the remote changes the fingerprint (the cache-key
        // ingredient) even at the same shard count.
        let mut s = spec(Some("mixed"));
        s.shard_endpoints = Some(ShardEndpoints::Explicit(vec![
            Some(vec!["127.0.0.1:9002".into()]),
            None,
        ]));
        let repointed = catalog.register(s).unwrap();
        assert_ne!(repointed.placement_fp, mixed.placement_fp);

        // Adding a replica is a placement change too: the two-replica
        // list joins with `|` inside the shard's token.
        let mut s = spec(Some("mixed"));
        s.shard_endpoints = Some(ShardEndpoints::Explicit(vec![
            Some(vec!["127.0.0.1:9002".into(), "127.0.0.1:9003".into()]),
            None,
        ]));
        let replicated = catalog.register(s).unwrap();
        assert_eq!(
            replicated.placement_fp,
            "127.0.0.1:9002|127.0.0.1:9003;local"
        );
        assert_ne!(replicated.placement_fp, repointed.placement_fp);
    }

    #[test]
    fn remote_shard_payloads_are_evicted_from_the_router() {
        let catalog = Catalog::new();
        let mut s = spec(Some("m"));
        s.shard_endpoints = Some(ShardEndpoints::Explicit(vec![
            Some(vec!["10.0.0.1:7878".into()]),
            None,
        ]));
        let entry = catalog.register(s).unwrap();
        // Listings still describe the full collection…
        assert_eq!(entry.trendline_count, 2);
        assert_eq!(entry.point_count, 8);
        assert_eq!(entry.shard_count, 2);
        // …but the remotely-placed slot holds no engine in this process
        // (its shard server owns the identical partition), while the
        // local shard keeps its payload and global base.
        assert!(entry.shards[0].is_none());
        let local = entry.local_shard(1).unwrap();
        assert_eq!(local.len(), 1);
        assert_eq!(local.base_index(), 1);

        // An all-remote router builds no engine at all, whichever kind
        // of source it registered.
        let snap = snapshot_of(CSV, "all-remote");
        for (id, source) in [
            ("csv", DataSource::InlineCsv(CSV.into())),
            ("snap", DataSource::Snapshot(snap.path())),
        ] {
            let mut s = spec(Some(id));
            s.source = source;
            s.shard_endpoints = Some(ShardEndpoints::Explicit(vec![
                Some(vec!["10.0.0.1:7878".into()]),
                Some(vec!["10.0.0.2:7878".into()]),
            ]));
            let entry = catalog.register(s).unwrap();
            assert_eq!((entry.trendline_count, entry.point_count), (2, 8));
            assert!(entry.shards.iter().all(Option::is_none));
        }
    }

    #[test]
    fn placement_mismatches_are_rejected() {
        let catalog = Catalog::new();
        // `shards` disagreeing with the placement length.
        let mut s = spec(None);
        s.shards = Some(3);
        s.shard_endpoints = Some(ShardEndpoints::Explicit(vec![None, None]));
        assert!(catalog.register(s).is_err());
        // More endpoints than trendlines: the cap would drop a remote.
        let mut s = spec(None);
        s.shard_endpoints = Some(ShardEndpoints::Explicit(vec![
            Some(vec!["a:1".into()]),
            Some(vec!["b:2".into()]),
            None,
        ]));
        assert!(catalog.register(s).is_err());
        // An empty replica list is neither local nor reachable.
        let mut s = spec(None);
        s.shard_endpoints = Some(ShardEndpoints::Explicit(vec![Some(vec![]), None]));
        assert!(catalog.register(s).is_err());
        // Duplicate replicas within one shard's list.
        let mut s = spec(None);
        s.shard_endpoints = Some(ShardEndpoints::Explicit(vec![
            Some(vec!["a:1".into(), "a:1".into()]),
            None,
        ]));
        assert!(catalog.register(s).is_err());
        // shard_of + endpoints is contradictory.
        let mut s = spec(None);
        s.shard_of = Some((0, 2));
        s.shard_endpoints = Some(ShardEndpoints::Explicit(vec![None, None]));
        assert!(catalog.register(s).is_err());
        // shard_of index out of range (past the *effective* count: two
        // trendlines partition into two shards at most): a structured
        // error, and the same one whichever kind of source it came from.
        let snap = snapshot_of(CSV, "out-of-range");
        for (index, total) in [(2, 2), (3, 8)] {
            for source in [
                DataSource::InlineCsv(CSV.into()),
                DataSource::Snapshot(snap.path()),
            ] {
                let mut s = spec(None);
                s.source = source;
                s.shard_of = Some((index, total));
                let err = catalog.register(s).unwrap_err();
                assert_eq!(err.status, 400);
                assert_eq!(
                    err.message,
                    format!(
                        "extracting trendlines: invalid configuration: shard index {index} \
                         out of range: the collection partitions into 2 shard(s)"
                    )
                );
            }
        }
        // shard_of with a disagreeing `shards` total.
        let mut s = spec(None);
        s.shard_of = Some((0, 4));
        s.shards = Some(2);
        assert!(catalog.register(s).is_err());
        // …but an agreeing one is fine.
        let mut s = spec(None);
        s.shard_of = Some((0, 2));
        s.shards = Some(2);
        assert!(catalog.register(s).is_ok());
    }

    #[test]
    fn shard_of_entry_owns_one_partition_with_global_indices() {
        let catalog = Catalog::new();
        let full = catalog.register(spec(Some("full"))).unwrap();
        let mut s = spec(Some("part1"));
        s.shard_of = Some((1, 2));
        let part = catalog.register(s).unwrap();
        assert_eq!(part.shard_count, 1);
        assert_eq!(part.shard_of, Some((1, 2)));
        assert!(part.trendline_count < full.trendline_count);
        // The partition's results carry collection-global viz_indexes.
        let results = top_k(&part, "[p=up]", 4);
        assert!(!results.is_empty());
        assert!(results
            .iter()
            .all(|r| r.viz_index >= full.trendline_count - part.trendline_count));
    }

    #[test]
    fn sharded_entry_answers_like_single_shard() {
        let catalog = Catalog::new();
        let mut one = spec(Some("one"));
        one.shards = Some(1);
        let mut two = spec(Some("two"));
        two.shards = Some(2);
        let one = catalog.register(one).unwrap();
        let two = catalog.register(two).unwrap();
        assert_eq!(
            top_k(&one, "[p=up][p=down]", 2),
            top_k(&two, "[p=up][p=down]", 2)
        );
    }

    /// One path: the same trendlines as inline CSV, inline JSON-lines, a
    /// file path and a snapshot, under the same `shards` /
    /// `shard_endpoints` / `shard_of`, register into the same entry —
    /// every listed field, and every local shard's keys and base index.
    #[test]
    fn every_source_kind_registers_into_the_same_entry() {
        // Five trendlines of 2–6 points: point-balanced bounds differ
        // from count-balanced ones.
        let mut csv_text = String::from("product,week,sales\n");
        let mut jsonl = String::new();
        for (t, len) in [6usize, 2, 3, 5, 2].into_iter().enumerate() {
            for week in 0..len {
                let sales = (week * (t + 1)) % 4;
                csv_text += &format!("p{t},{week},{sales}\n");
                jsonl += &format!("{{\"product\":\"p{t}\",\"week\":{week},\"sales\":{sales}}}\n");
            }
        }
        let file = TempFile::new("path", "csv");
        std::fs::write(&file.0, &csv_text).unwrap();
        let snap = snapshot_of(&csv_text, "same-entry");
        let sources = [
            DataSource::InlineCsv(csv_text.clone()),
            DataSource::InlineJsonl(jsonl),
            DataSource::Path(file.path()),
            DataSource::Snapshot(snap.path()),
        ];
        type Shape = (
            Option<usize>,
            Option<ShardEndpoints>,
            Option<(usize, usize)>,
        );
        let remote = |ep: &str| Some(vec![ep.to_owned()]);
        let shapes: [Shape; 4] = [
            (Some(3), None, None),
            (Some(8), None, None),
            (
                None,
                Some(ShardEndpoints::Explicit(vec![None, remote("a:1"), None])),
                None,
            ),
            (None, None, Some((1, 3))),
        ];
        // What a registration decides, without the id and generation
        // that tell registrations apart.
        let describe = |entry: &DatasetEntry| {
            let local: Vec<_> = (0..entry.shard_count)
                .filter(|&slot| entry.placement[slot] == ShardPlacement::Local)
                .map(|slot| {
                    let shard = entry.local_shard(slot).unwrap();
                    let keys: Vec<String> =
                        (0..shard.len()).map(|i| shard.key(i).to_owned()).collect();
                    (slot, shard.base_index(), keys)
                })
                .collect();
            (
                entry.shard_count,
                entry.placement.clone(),
                entry.placement_fp.clone(),
                entry.shard_of,
                entry.trendline_count,
                entry.point_count,
                local,
            )
        };
        let catalog = Catalog::new();
        for (shards, shard_endpoints, shard_of) in shapes {
            let described: Vec<_> = sources
                .iter()
                .map(|source| {
                    let entry = catalog
                        .register(DatasetSpec {
                            source: source.clone(),
                            shards,
                            shard_endpoints: shard_endpoints.clone(),
                            shard_of,
                            ..spec(None)
                        })
                        .unwrap();
                    assert_eq!(entry.snapshot, matches!(source, DataSource::Snapshot(_)));
                    describe(&entry)
                })
                .collect();
            for other in &described[1..] {
                assert_eq!(other, &described[0]);
            }
        }
    }

    #[test]
    fn registry_heartbeats_resolve_into_a_deterministic_placement() {
        let registry = Registry::default();
        // Announcement order must not matter: replicas come back sorted.
        registry.heartbeat("sales", 1, 2, "10.0.0.2:7001").unwrap();
        registry.heartbeat("sales", 0, 2, "10.0.0.1:7002").unwrap();
        registry.heartbeat("sales", 0, 2, "10.0.0.1:7001").unwrap();
        registry.heartbeat("other", 0, 1, "10.0.0.9:7999").unwrap();
        let placement = registry.resolve("sales").unwrap();
        assert_eq!(
            placement,
            vec![
                vec!["10.0.0.1:7001".to_owned(), "10.0.0.1:7002".to_owned()],
                vec!["10.0.0.2:7001".to_owned()],
            ]
        );
        // A re-announcement refreshes rather than duplicates.
        registry.heartbeat("sales", 0, 2, "10.0.0.1:7001").unwrap();
        assert_eq!(registry.resolve("sales").unwrap(), placement);
        let snapshot = registry.snapshot();
        assert_eq!(snapshot.len(), 4);
        assert!(snapshot.iter().all(|e| e.fresh));
    }

    #[test]
    fn registry_rejects_malformed_and_incomplete_topologies() {
        let registry = Registry::default();
        assert!(registry.heartbeat("", 0, 1, "a:1").is_err());
        assert!(registry.heartbeat("d", 0, 0, "a:1").is_err());
        assert!(registry.heartbeat("d", 2, 2, "a:1").is_err());
        assert!(registry.heartbeat("d", 0, 1, "").is_err());

        // Nothing announced at all.
        let err = registry.resolve("sales").unwrap_err();
        assert!(err.contains("no fresh heartbeat"), "{err}");

        // A hole in the partition coverage is named precisely.
        registry.heartbeat("sales", 0, 3, "a:1").unwrap();
        registry.heartbeat("sales", 2, 3, "c:1").unwrap();
        let err = registry.resolve("sales").unwrap_err();
        assert!(err.contains("partition 1/3"), "{err}");

        // Disagreeing totals are a topology bug, not a coin flip.
        registry.heartbeat("sales", 1, 3, "b:1").unwrap();
        registry.heartbeat("sales", 0, 2, "z:1").unwrap();
        let err = registry.resolve("sales").unwrap_err();
        assert!(err.contains("disagree"), "{err}");
    }

    #[test]
    fn registration_can_resolve_its_placement_from_the_registry() {
        let catalog = Catalog::new();
        catalog
            .registry()
            .heartbeat("sales", 0, 2, "10.0.0.1:7001")
            .unwrap();
        catalog
            .registry()
            .heartbeat("sales", 1, 2, "10.0.0.2:7001")
            .unwrap();
        catalog
            .registry()
            .heartbeat("sales", 1, 2, "10.0.0.2:7002")
            .unwrap();

        let mut s = spec(Some("sales"));
        s.shard_endpoints = Some(ShardEndpoints::FromRegistry);
        let entry = catalog.register(s).unwrap();
        assert_eq!(entry.shard_count, 2);
        assert_eq!(
            entry.placement_fp,
            "10.0.0.1:7001;10.0.0.2:7001|10.0.0.2:7002"
        );

        // Registry placement without an id has no heartbeat key.
        let mut s = spec(None);
        s.shard_endpoints = Some(ShardEndpoints::FromRegistry);
        let err = catalog.register(s).unwrap_err();
        assert!(err.message.contains("dataset id"), "{}", err.message);
    }

    /// Runs `hold` on a thread of its own and asserts that it panicked:
    /// `hold` takes a lock and panics holding it, leaving it poisoned.
    fn poison(hold: impl FnOnce() + Send) {
        let died = std::thread::scope(|scope| scope.spawn(hold).join());
        assert!(died.is_err());
    }

    #[test]
    fn a_poisoned_dataset_map_still_registers_lists_and_answers() {
        let catalog = Catalog::new();
        catalog.register(spec(Some("before"))).unwrap();
        poison(|| {
            let _held = catalog.inner.write().unwrap();
            panic!("a registration died holding the dataset map");
        });
        assert!(catalog.inner.is_poisoned());
        let entry = catalog.register(spec(Some("sales"))).unwrap();
        assert_eq!(top_k(&entry, "[p=up][p=down]", 1)[0].key, "widget");
        let listed: Vec<_> = catalog.list().iter().map(|e| e.id.clone()).collect();
        assert_eq!(
            (listed, catalog.len()),
            (vec!["before".into(), "sales".into()], 2)
        );
        let got = catalog.get("before").unwrap();
        assert_eq!(top_k(&got, "[p=up][p=down]", 1)[0].key, "widget");
    }

    #[test]
    fn a_poisoned_registry_table_still_hears_and_places() {
        let catalog = Catalog::new();
        poison(|| {
            let _held = catalog.registry.inner.lock().unwrap();
            panic!("a heartbeat died holding the registry table");
        });
        assert!(catalog.registry.inner.is_poisoned());
        let registry = catalog.registry();
        registry.heartbeat("sales", 0, 2, "10.0.0.1:7001").unwrap();
        registry.heartbeat("sales", 1, 2, "10.0.0.2:7001").unwrap();
        assert_eq!(registry.snapshot().len(), 2);
        assert_eq!(registry.slot_staleness().len(), 2);
        let mut s = spec(Some("sales"));
        s.shard_endpoints = Some(ShardEndpoints::FromRegistry);
        let entry = catalog.register(s).unwrap();
        assert_eq!(entry.placement_fp, "10.0.0.1:7001;10.0.0.2:7001");
    }
}
