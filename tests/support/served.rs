//! Test support for the suites that serve over real sockets: the one
//! market corpus, registration, query body, placement encoding and
//! Prometheus sample reader, plus the std-only fixtures the server
//! crate's unit tests share. `tests/*.rs` include it through `#[path]`.

// Each suite uses its own part of this module.
#![allow(dead_code, unused_imports)]

#[path = "../../crates/server/tests/support/fixtures.rs"]
mod fixtures;

pub use fixtures::{dead_endpoint, haystack_csv};
use shapesearch::server::json::Json;
use shapesearch::server::{Client, ClientResponse, ServerConfig, Service};
use shapesearch_datastore::{csv, table_from_series};

/// Trendlines in [`market_csv`].
pub const MARKET_SERIES: usize = 24;

/// A deterministic market of [`MARKET_SERIES`] series over days
/// `0..120`, in columns `z`, `x`, `y`: sines of seven frequencies with
/// drift, and every fourth series one exact peak, so a top k holds ties
/// that straddle shard boundaries.
pub fn market_csv() -> String {
    let series: Vec<(String, Vec<(f64, f64)>)> = (0..MARKET_SERIES)
        .map(|s| {
            let phase = s as f64 * 0.37;
            let freq = 0.02 + (s % 7) as f64 * 0.013;
            let drift = ((s % 5) as f64 - 2.0) * 0.004;
            let points = (0..120)
                .map(|i| {
                    let t = i as f64;
                    let y = if s % 4 == 3 {
                        60.0 - (t - 60.0).abs()
                    } else {
                        (t * freq + phase).sin() * 2.0 + (t * 0.005 + phase).cos() + drift * t
                    };
                    (t, y)
                })
                .collect();
            (format!("series{s:02}"), points)
        })
        .collect();
    csv::write_str(&table_from_series("z", "x", "y", &series))
}

/// A server on an ephemeral loopback port.
pub fn boot(config: ServerConfig) -> Service {
    shapesearch::server::serve("127.0.0.1:0", config).unwrap()
}

/// The default configuration with `workers` dispatch and compute threads.
pub fn with_workers(workers: usize) -> ServerConfig {
    ServerConfig {
        workers,
        ..ServerConfig::default()
    }
}

/// `body` (an object) with `extras` appended.
pub fn spliced(body: Json, extras: &[(&str, Json)]) -> Json {
    let Json::Obj(mut fields) = body else {
        panic!("not an object: {}", body.to_text());
    };
    fields.extend(extras.iter().map(|(k, v)| ((*k).to_owned(), v.clone())));
    Json::Obj(fields)
}

/// Registers `csv` (columns `z`, `x`, `y`) as dataset `id`, with
/// `extras` (`"shards"`, `"shard_of"`, `"shard_endpoints"`, …) spliced
/// into the registration object; the reply, whatever its status.
pub fn register(client: &Client, id: &str, csv: &str, extras: &[(&str, Json)]) -> ClientResponse {
    let body = Json::Obj(
        [
            ("name", id),
            ("id", id),
            ("csv", csv),
            ("z", "z"),
            ("x", "x"),
            ("y", "y"),
        ]
        .map(|(k, v)| (k.to_owned(), v.into()))
        .to_vec(),
    );
    client.post("/datasets", &spliced(body, extras)).unwrap()
}

/// Registers [`market_csv`] as dataset `market`; the 201 summary.
pub fn register_market(client: &Client, extras: &[(&str, Json)]) -> Json {
    register(client, "market", &market_csv(), extras).expect_ok("register market")
}

/// A `/query` body asking `dataset` for the top `k` of `query`.
pub fn query_body(dataset: &str, query: &str, k: usize) -> Json {
    let fields = [
        ("dataset", dataset.into()),
        ("query", query.into()),
        ("k", k.into()),
    ];
    Json::Obj(fields.map(|(k, v)| (k.to_owned(), v)).to_vec())
}

/// A reply's (or batch slot's) `results` array as text.
pub fn results_text(reply: &Json) -> String {
    reply
        .get("results")
        .unwrap_or_else(|| panic!("no results: {}", reply.to_text()))
        .to_text()
}

/// The `"shard_endpoints"` wire form: per shard slot its replica list,
/// an empty one meaning the slot stays local (`null`).
pub fn endpoints_json(slots: &[Vec<String>]) -> Json {
    Json::Arr(
        slots
            .iter()
            .map(|replicas| match replicas.as_slice() {
                [] => Json::Null,
                _ => Json::Arr(replicas.iter().map(|ep| ep.as_str().into()).collect()),
            })
            .collect(),
    )
}

/// One counter or gauge sample's value out of a Prometheus text
/// exposition, matched on the exact `name{labels}` prefix.
pub fn metric_value(text: &str, series: &str) -> Option<u64> {
    text.lines()
        .find(|l| {
            l.strip_prefix(series)
                .is_some_and(|rest| rest.starts_with(' '))
        })
        .and_then(|l| l.rsplit(' ').next())
        .and_then(|v| v.parse().ok())
}
