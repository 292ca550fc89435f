//! # shapesearch-server
//!
//! The concurrent ShapeSearch query service (the system of paper
//! Figure 2, productionized): a long-running process that registers
//! datasets once, keeps their extracted trendlines hot behind `Arc`, and
//! serves ShapeQueries over a std-only HTTP/1.1 JSON protocol from a
//! fixed set of serving threads sharing one readiness poller, each
//! serving a request on the thread that reads it, with an LRU
//! query-result cache in front of the segmentation engine.
//!
//! Architecture (one module per box; `docs/ARCHITECTURE.md` at the repo
//! root walks the full request lifecycle):
//!
//! ```text
//!        TcpListener ─► serving threads (http, one epoll set, one-shot):
//!                       the thread that reads a request routes it
//!                       (handlers), writes the response and re-arms
//!                                                   │
//!                          POST /query, /shard/query ─► one pipeline (exec):
//!                          plan → singleflight resolve → shard fan-out → merge
//!                    ┌──────────────┬───────────────┼──────────────┐
//!                    ▼              ▼               ▼              ▼
//!              Catalog (catalog)  QueryCache    protocol/json  ComputePool
//!                    │            (cache: LRU +                (compute:
//!                    ▼             singleflight)                shard tasks)
//!          Arc<DatasetEntry> { placement, VisualSpec, … }
//!                    │ local_shard(slot)
//!                    ▼
//!          Arc<ShapeEngine> per LOCAL slot ── fan out per query, merge
//!
//!        GET /healthz, /metrics ─► one StatsSnapshot (stats): one table, two loops
//! ```
//!
//! * Registration (`POST /datasets`) is one path for every source:
//!   EXTRACT eagerly (or open a snapshot: opened, validated, cut once;
//!   the kernel pages the mapping), partition by point count, resolve
//!   the placement, and build engines for the local slots only; queries
//!   never touch raw tables.
//! * Every computation fans out as one compute-pool task per shard (a
//!   lone local shard runs on the serving thread) and merges the
//!   per-shard top-k partials deterministically — results are
//!   byte-identical for every shard count, one query uses as many cores
//!   as it has shards, and large batches interleave fairly with other
//!   requests. Nothing else spawns a thread per request.
//! * Shards can live in **other server processes**: a registration's
//!   partition map ([`catalog::ShardPlacement`], set via
//!   `"shard_endpoints"` / `--shard-endpoint`) routes remote shards over
//!   a pooled HTTP client to shard servers (`serve --shard-of I/N`,
//!   answering `POST /shard/query` with partials), merged by the same
//!   contract — distributed results stay byte-identical to
//!   single-process ones, and an unreachable shard degrades to a
//!   structured `shard_unavailable` error instead of a silent partial
//!   top-k (`docs/ARCHITECTURE.md`, "Distributed topology").
//! * `POST /query` accepts one query object **or an array of them**
//!   (regex or natural-language, any segmentation algorithm, per-request
//!   engine overrides). A batch is deduplicated through the singleflight
//!   cache and its misses are executed over **one pass** of each
//!   dataset's trendline collection
//!   ([`shapesearch_core::ShapeEngine::top_k_batch_observed`]); batches above the
//!   configured `max_batch` get a structured `batch_too_large` 400.
//! * Results are cached under the **normalized query AST**, so textual
//!   variants of one query share an entry, and concurrent identical
//!   misses coalesce onto one computation (the singleflight latch in
//!   [`cache`]).
//! * `GET /healthz` and `GET /metrics` render one [`StatsSnapshot`] —
//!   cache hit/miss/coalesced counters, shard and pruning gauges,
//!   per-endpoint RPC health — as two loops over one table of its
//!   scalars, so the two always reconcile.
//!
//! ## Quickstart
//!
//! ```
//! use shapesearch_server::{json, Client, ServerConfig};
//!
//! let handle = shapesearch_server::serve("127.0.0.1:0", ServerConfig::default()).unwrap();
//! let client = Client::new(handle.addr());
//! client
//!     .post("/datasets", &json::parse(r#"{
//!         "name": "sales", "id": "sales",
//!         "csv": "product,week,sales\nwidget,1,1\nwidget,2,3\nwidget,3,2\n",
//!         "z": "product", "x": "week", "y": "sales"
//!     }"#).unwrap())
//!     .unwrap()
//!     .expect_ok("register");
//! let reply = client
//!     .post("/query", &json::parse(
//!         r#"{"dataset":"sales","query":"[p=up][p=down]","k":1}"#
//!     ).unwrap())
//!     .unwrap()
//!     .expect_ok("query");
//! assert_eq!(
//!     reply.get("results").unwrap().as_array().unwrap()[0]
//!         .get("key").unwrap().as_str(),
//!     Some("widget")
//! );
//! handle.shutdown();
//! ```

#![deny(missing_docs)]

pub mod cache;
pub mod catalog;
pub mod client;
pub mod compute;
pub mod error;
mod exec;
pub mod handlers;
pub mod http;
pub mod json;
pub mod obs;
pub mod protocol;
pub mod stats;

pub use cache::{CacheKey, CacheStats, QueryCache};
pub use catalog::{Catalog, DataSource, DatasetEntry, DatasetSpec, ShardPlacement};
pub use client::{Client, ClientConfig, ClientResponse, PooledClient};
pub use error::ServerError;
pub use handlers::AppState;
pub use http::{ConnStats, HttpConfig, Request, Response, ServerHandle};
pub use obs::{Histogram, HistogramSnapshot, Span, Stage};
pub use stats::{Stats, StatsSnapshot};

use std::io;
use std::sync::Arc;

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// HTTP serving threads, and the compute pool's size (defaults to the
    /// machine's available parallelism). The thread model is `workers`
    /// serving threads sharing one poller — each serves a request on the
    /// thread that reads it, handlers included — and `workers` compute
    /// threads.
    pub workers: usize,
    /// Query-result cache capacity in entries.
    pub cache_capacity: usize,
    /// Maximum number of queries a single `POST /query` batch may carry
    /// (defaults to [`protocol::MAX_BATCH_SIZE`]); oversized batches get
    /// a structured `batch_too_large` 400.
    pub max_batch: usize,
    /// Engine shards per registered dataset, unless a registration pins
    /// its own count — the one parallelism setting: a query runs one
    /// compute-pool task per shard, each scoring its partition on one
    /// thread, so `1` means one core per query. `0` (the default) means
    /// auto: the machine's available parallelism. Always capped by each
    /// dataset's collection size. Sharded execution returns results
    /// identical to `1` for every value.
    pub shards: usize,
    /// Directory that `POST /datasets` `path` sources must live under;
    /// `None` (the default) disables path registration over HTTP so
    /// remote clients cannot read arbitrary server-local files.
    pub data_root: Option<std::path::PathBuf>,
    /// `POST /query` requests slower than this many microseconds emit a
    /// structured `slow-query` line (with the trace ID) on stderr; `0`
    /// (the default) disables slow-query logging.
    pub slow_query_micros: u64,
    /// Connect timeout (milliseconds) of the remote-shard RPC client
    /// (`--shard-connect-timeout-ms`). Bounds how long ONE connect
    /// attempt to one replica may take before failover moves on.
    pub shard_connect_timeout_ms: u64,
    /// I/O (read/write) timeout in milliseconds of the remote-shard RPC
    /// client (`--shard-io-timeout-ms`). Bounds how long a black-holed
    /// replica — accepting connections but never answering — can stall a
    /// fan-out before failover moves on.
    pub shard_io_timeout_ms: u64,
    /// Extra connect attempts per replica endpoint after the first
    /// fails (`--shard-retries`): `1` (the default) retries a refused
    /// connect once — riding out a shard server restarting — before the
    /// endpoint counts as failed and failover tries the next replica.
    pub shard_retries: u32,
}

impl Default for ServerConfig {
    fn default() -> Self {
        let client = client::ClientConfig::default();
        Self {
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
            cache_capacity: 256,
            max_batch: protocol::MAX_BATCH_SIZE,
            shards: 0,
            data_root: None,
            slow_query_micros: 0,
            shard_connect_timeout_ms: client.connect_timeout.as_millis() as u64,
            shard_io_timeout_ms: client.io_timeout.as_millis() as u64,
            shard_retries: client.retries,
        }
    }
}

/// A running ShapeSearch service: the HTTP handle plus its shared state
/// (exposed so embedders — e.g. the CLI's `serve` subcommand — can
/// preregister datasets without going through HTTP).
pub struct Service {
    handle: ServerHandle,
    state: Arc<AppState>,
}

impl Service {
    /// The local address the service is listening on (useful with
    /// ephemeral ports).
    pub fn addr(&self) -> std::net::SocketAddr {
        self.handle.addr()
    }

    /// The shared application state (catalog, cache, counters) — lets
    /// embedders preregister datasets without an HTTP round trip.
    pub fn state(&self) -> &Arc<AppState> {
        &self.state
    }

    /// Stops accepting, drains in-flight requests, and joins all threads.
    pub fn shutdown(self) {
        self.handle.shutdown();
    }
}

/// Binds `addr` (use port 0 for an ephemeral port) and starts serving.
///
/// # Errors
/// Propagates bind failures.
pub fn serve(addr: &str, config: ServerConfig) -> io::Result<Service> {
    let mut state = AppState::new(
        config.cache_capacity,
        config.workers,
        config.data_root.clone(),
        config.shards,
    );
    state.max_batch = config.max_batch.max(1);
    state.slow_query_micros = config.slow_query_micros;
    state.remote = PooledClient::with_config(client::ClientConfig {
        connect_timeout: std::time::Duration::from_millis(config.shard_connect_timeout_ms.max(1)),
        io_timeout: std::time::Duration::from_millis(config.shard_io_timeout_ms.max(1)),
        retries: config.shard_retries,
        ..client::ClientConfig::default()
    });
    let state = Arc::new(state);
    let router_state = Arc::clone(&state);
    let handle = http::serve(
        addr,
        http::HttpConfig {
            threads: config.workers,
            stats: Arc::clone(&state.conn_stats),
        },
        Arc::new(move |request| handlers::route(&router_state, request)),
    )?;
    Ok(Service { handle, state })
}

/// The fault-injection proxy the failover tests drive: test support, not
/// part of the served crate (the workspace's e2e suites pull the same
/// file in with `#[path]`).
#[cfg(test)]
#[allow(dead_code)]
#[path = "../tests/support/chaos.rs"]
mod chaos;

/// The std-only corpus text and dead endpoint the unit tests share with
/// the workspace's served suites.
#[cfg(test)]
#[path = "../tests/support/fixtures.rs"]
mod fixtures;
