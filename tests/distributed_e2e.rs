//! End-to-end tests of **multi-machine sharding**: real `shapesearch`
//! services wired into a distributed topology over loopback HTTP — shard
//! servers owning one partition each (`shard_of`), a router whose
//! catalog maps shards to `Local` engines or `Remote` endpoints, and the
//! deterministic merge on top.
//!
//! The headline invariant extends PR 3's: distributed execution is
//! **byte-identical** to a single-process run — scores, tie order, and
//! fitted `ranges` — for every placement {all-local, all-remote, mixed}
//! × shard count {1, 2, 4}. The failure-path tests pin the degraded
//! behavior: an unreachable shard is a structured `shard_unavailable`
//! error naming the endpoint (never a hang, never a silent partial
//! top-k), and a restored shard serves again — cacheably — without any
//! re-registration.

use shapesearch::server::{json, Client, ServerConfig, Service};
use shapesearch_datastore::{csv, table_from_series, Table};

/// A deterministic collection with mixed shapes and **exact duplicate
/// trendlines** (every fourth series repeats one peak shape), so the
/// top-k contains real score ties that straddle shard boundaries — the
/// tie-order half of the byte-identity claim is exercised, not vacuous.
fn market_table() -> Table {
    let n_series = 12;
    let n_points = 80;
    let series: Vec<(String, Vec<(f64, f64)>)> = (0..n_series)
        .map(|s| {
            let points: Vec<(f64, f64)> = (0..n_points)
                .map(|i| {
                    let t = i as f64;
                    let y = if s % 4 == 3 {
                        // Exact duplicates of one peak: tied scores.
                        if t < 40.0 {
                            t
                        } else {
                            80.0 - t
                        }
                    } else {
                        let phase = s as f64 * 0.61;
                        let freq = 0.05 + (s % 5) as f64 * 0.021;
                        (t * freq + phase).sin() * 2.0 + ((s % 3) as f64 - 1.0) * 0.01 * t
                    };
                    (t, y)
                })
                .collect();
            (format!("series{s:02}"), points)
        })
        .collect();
    table_from_series("ticker", "day", "price", &series)
}

fn boot() -> Service {
    shapesearch::server::serve(
        "127.0.0.1:0",
        ServerConfig {
            workers: 3,
            ..ServerConfig::default()
        },
    )
    .unwrap()
}

/// Registers `market_table` on a service over HTTP, with optional
/// extras spliced into the registration object (`"shard_of": …`,
/// `"shard_endpoints": …`, `"shards": …`).
fn register(client: &Client, extras: Vec<(String, json::Json)>) -> json::Json {
    let mut fields = vec![
        ("name".into(), "market".into()),
        ("id".into(), "market".into()),
        ("csv".into(), csv::write_str(&market_table()).into()),
        ("z".into(), "ticker".into()),
        ("x".into(), "day".into()),
        ("y".into(), "price".into()),
    ];
    fields.extend(extras);
    client
        .post("/datasets", &json::Json::Obj(fields))
        .unwrap()
        .expect_ok("register")
}

fn endpoints_json(placement: &[Option<String>]) -> json::Json {
    json::Json::Arr(
        placement
            .iter()
            .map(|ep| match ep {
                Some(endpoint) => json::Json::Str(endpoint.clone()),
                None => json::Json::Null,
            })
            .collect(),
    )
}

fn query_body(query: &str, k: usize) -> json::Json {
    json::parse(&format!(
        r#"{{"dataset":"market","query":"{query}","k":{k}}}"#
    ))
    .unwrap()
}

/// The acceptance matrix: placements {all-local, all-remote, mixed} ×
/// shard counts {1, 2, 4}, each compared byte-for-byte against the
/// single-process single-shard reference.
#[test]
fn every_placement_and_shard_count_is_byte_identical_to_single_process() {
    // Reference: one process, one shard.
    let reference_service = boot();
    let reference_client = Client::new(reference_service.addr());
    register(&reference_client, vec![("shards".into(), 1usize.into())]);
    let queries = [
        ("[p=up][p=down]", 12),
        ("[p=down][p=up]", 5),
        ("[p=up][p=flat][p=down]", 7),
    ];
    let reference: Vec<String> = queries
        .iter()
        .map(|(q, k)| {
            let reply = reference_client
                .post("/query", &query_body(q, *k))
                .unwrap()
                .expect_ok(&format!("reference {q}"));
            let results = reply.get("results").unwrap();
            // The duplicate series really do tie in the top-k, in
            // ascending global order — otherwise the tie-order half of
            // the byte-identity claim would be vacuous.
            if *q == "[p=up][p=down]" {
                // The duplicated series sit at global indices 3, 7, 11.
                let dup_indices: Vec<usize> = results
                    .as_array()
                    .unwrap()
                    .iter()
                    .map(|r| r.get("viz_index").unwrap().as_usize().unwrap())
                    .filter(|i| i % 4 == 3)
                    .collect();
                assert!(dup_indices.len() >= 3, "expected tied duplicates in top-k");
                assert!(dup_indices.windows(2).all(|w| w[0] < w[1]));
            }
            results.to_text()
        })
        .collect();

    let router_service = boot();
    let router = Client::new(router_service.addr());

    for shards in [1usize, 2, 4] {
        // One shard server per partition, each registering "market" as
        // shard i of `shards` over plain HTTP.
        let shard_services: Vec<Service> = (0..shards).map(|_| boot()).collect();
        let endpoints: Vec<String> = shard_services
            .iter()
            .map(|s| s.addr().to_string())
            .collect();
        for (i, service) in shard_services.iter().enumerate() {
            let reply = register(
                &Client::new(service.addr()),
                vec![("shard_of".into(), format!("{i}/{shards}").into())],
            );
            assert_eq!(
                reply.get("shard_of").unwrap().as_str(),
                Some(format!("{i}/{shards}").as_str())
            );
        }

        let placements: Vec<(&str, Vec<Option<String>>)> = vec![
            ("all-local", vec![None; shards]),
            ("all-remote", endpoints.iter().cloned().map(Some).collect()),
            (
                "mixed",
                endpoints
                    .iter()
                    .enumerate()
                    .map(|(i, ep)| if i % 2 == 0 { Some(ep.clone()) } else { None })
                    .collect(),
            ),
        ];
        for (label, placement) in placements {
            let remote_count = placement.iter().flatten().count();
            let reply = register(
                &router,
                vec![("shard_endpoints".into(), endpoints_json(&placement))],
            );
            assert_eq!(reply.get("shards").unwrap().as_usize(), Some(shards));

            for ((q, k), want) in queries.iter().zip(&reference) {
                let reply = router
                    .post("/query", &query_body(q, *k))
                    .unwrap()
                    .expect_ok(&format!("{label} shards={shards} {q}"));
                assert_eq!(reply.get("cached").unwrap().as_bool(), Some(false));
                assert_eq!(reply.get("shards").unwrap().as_usize(), Some(shards));
                assert_eq!(
                    &reply.get("results").unwrap().to_text(),
                    want,
                    "{label} shards={shards} diverged on {q}"
                );
                // Batches route through the same fan-out; spot-check one.
                let batch = router
                    .query_batch(vec![query_body(q, *k)])
                    .unwrap()
                    .expect_ok("batch");
                let responses = batch.get("responses").unwrap().as_array().unwrap();
                assert_eq!(&responses[0].get("results").unwrap().to_text(), want);
            }
            // One batch of every query is one group: its local slots share
            // threshold cells across the queries, its remote slots answer
            // one RPC each, and every answer is still the reference's.
            register(
                &router,
                vec![("shard_endpoints".into(), endpoints_json(&placement))],
            );
            let batch = router
                .query_batch(queries.iter().map(|(q, k)| query_body(q, *k)).collect())
                .unwrap()
                .expect_ok(&format!("{label} shards={shards} batch"));
            let responses = batch.get("responses").unwrap().as_array().unwrap();
            assert_eq!(responses.len(), reference.len());
            for (response, want) in responses.iter().zip(&reference) {
                assert_eq!(response.get("cached").unwrap().as_bool(), Some(false));
                assert_eq!(
                    &response.get("results").unwrap().to_text(),
                    want,
                    "{label} shards={shards} batch diverged"
                );
            }

            // The router's healthz names every remote endpoint in play.
            if remote_count > 0 {
                let health = router.get("/healthz").unwrap().expect_ok("healthz");
                let remote = health.get("remote_shards").unwrap();
                assert!(
                    remote.get("endpoints").unwrap().as_usize().unwrap() >= remote_count,
                    "{}",
                    health.to_text()
                );
                assert_eq!(remote.get("errors").unwrap().as_usize(), Some(0));
            }
        }
        for service in shard_services {
            service.shutdown();
        }
    }

    router_service.shutdown();
    reference_service.shutdown();
}

/// §6.3 pruning across the distributed topology: `"pruning":"off"` and
/// the default (`auto`) must be byte-identical over a mixed placement,
/// and the healthz `pruning` gauges must show the bound path really ran
/// on both the router's local shard and the remote shard server.
#[test]
fn pruning_modes_are_byte_identical_across_a_mixed_topology() {
    // A shard server owning partition 0 of 2; shard 1 stays local on the
    // router.
    let shard_service = boot();
    register(
        &Client::new(shard_service.addr()),
        vec![("shard_of".into(), "0/2".into())],
    );
    let router_service = boot();
    let router = Client::new(router_service.addr());
    let placement = vec![Some(shard_service.addr().to_string()), None];

    let queries = [("[p=up][p=down]", 3), ("[p=down][p=up]", 2)];
    for (q, k) in queries {
        // Cold pass with pruning off…
        register(
            &router,
            vec![("shard_endpoints".into(), endpoints_json(&placement))],
        );
        let body = json::parse(&format!(
            r#"{{"dataset":"market","query":"{q}","k":{k},"pruning":"off"}}"#
        ))
        .unwrap();
        let off = router.post("/query", &body).unwrap().expect_ok("off");
        assert_eq!(off.get("cached").unwrap().as_bool(), Some(false));

        // …re-register (generation bump clears the cache), cold pass
        // under the default mode, byte-identical results.
        register(
            &router,
            vec![("shard_endpoints".into(), endpoints_json(&placement))],
        );
        let auto = router
            .post("/query", &query_body(q, k))
            .unwrap()
            .expect_ok("auto");
        assert_eq!(auto.get("cached").unwrap().as_bool(), Some(false));
        assert_eq!(
            auto.get("results").unwrap().to_text(),
            off.get("results").unwrap().to_text(),
            "pruning off vs default diverged on {q}"
        );
    }

    // The bound path really ran: the router's local shard computed
    // bounds and scored survivors, and so did the remote shard server.
    for (who, client) in [
        ("router", &router),
        ("shard server", &Client::new(shard_service.addr())),
    ] {
        let health = client.get("/healthz").unwrap().expect_ok("healthz");
        let pruning = health.get("pruning").unwrap();
        assert!(
            pruning.get("scored").unwrap().as_usize().unwrap() > 0,
            "{who} never scored under the driver: {}",
            health.to_text()
        );
        assert!(
            pruning.get("bounded").unwrap().as_usize().unwrap() > 0,
            "{who} never computed a bound: {}",
            health.to_text()
        );
    }

    router_service.shutdown();
    shard_service.shutdown();
}

/// Failure handling end to end: a placement naming a dead port degrades
/// to a structured `shard_unavailable` error (no hang, no silent
/// partial top-k), and once a shard server comes up on that same
/// endpoint the *same registration* serves again — and its results are
/// cacheable.
#[test]
fn dead_shard_degrades_structurally_and_recovers_cacheably() {
    // Reserve a port, then leave it dead.
    let reserved = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let endpoint = reserved.local_addr().unwrap().to_string();
    drop(reserved);

    let router_service = boot();
    let router = Client::new(router_service.addr());
    register(
        &router,
        vec![(
            "shard_endpoints".into(),
            endpoints_json(&[None, Some(endpoint.clone())]),
        )],
    );

    // Query against the dead endpoint: a prompt, structured 502.
    let started = std::time::Instant::now();
    let reply = router
        .post("/query", &query_body("[p=up][p=down]", 6))
        .unwrap();
    assert!(
        started.elapsed() < std::time::Duration::from_secs(30),
        "dead shard must fail fast, not hang: {:?}",
        started.elapsed()
    );
    assert_eq!(reply.status, 502, "{}", reply.body.to_text());
    assert_eq!(
        reply.body.get("code").unwrap().as_str(),
        Some("shard_unavailable")
    );
    assert!(
        reply
            .body
            .get("error")
            .unwrap()
            .as_str()
            .unwrap()
            .contains(&endpoint),
        "the error must name the endpoint: {}",
        reply.body.to_text()
    );
    // The router tallied the failure against that endpoint.
    let health = router.get("/healthz").unwrap().expect_ok("healthz");
    let remote = health.get("remote_shards").unwrap();
    assert!(remote.get("errors").unwrap().as_usize().unwrap() >= 1);

    // Restore the shard on the very endpoint the placement names.
    let shard_service = shapesearch::server::serve(
        &endpoint,
        ServerConfig {
            workers: 2,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    register(
        &Client::new(shard_service.addr()),
        vec![("shard_of".into(), "1/2".into())],
    );

    // Same registration, same query: healthy now, and byte-identical to
    // an all-local run.
    let healthy = router
        .post("/query", &query_body("[p=up][p=down]", 6))
        .unwrap()
        .expect_ok("restored");
    assert_eq!(healthy.get("cached").unwrap().as_bool(), Some(false));

    let reference_service = boot();
    let reference = Client::new(reference_service.addr());
    register(&reference, vec![("shards".into(), 2usize.into())]);
    let want = reference
        .post("/query", &query_body("[p=up][p=down]", 6))
        .unwrap()
        .expect_ok("reference");
    assert_eq!(
        healthy.get("results").unwrap().to_text(),
        want.get("results").unwrap().to_text()
    );

    // The recovered result is cacheable: the earlier failure neither
    // cached garbage nor poisoned the key.
    let warm = router
        .post("/query", &query_body("[p=up][p=down]", 6))
        .unwrap()
        .expect_ok("warm");
    assert_eq!(warm.get("cached").unwrap().as_bool(), Some(true));
    assert_eq!(
        warm.get("results").unwrap().to_text(),
        healthy.get("results").unwrap().to_text()
    );

    shard_service.shutdown();
    reference_service.shutdown();
    router_service.shutdown();
}

// ---------------------------------------------------------------------
// Observability across the topology: trace propagation and /metrics.
// ---------------------------------------------------------------------

/// Depth-first collection of every span named `name` in a trace's span
/// forest (spans are wire JSON: `{"name", "detail"?, "micros", "spans"?}`).
fn spans_named<'a>(span: &'a json::Json, name: &str, out: &mut Vec<&'a json::Json>) {
    if span.get("name").and_then(json::Json::as_str) == Some(name) {
        out.push(span);
    }
    if let Some(children) = span.get("spans").and_then(json::Json::as_array) {
        for child in children {
            spans_named(child, name, out);
        }
    }
}

fn find_spans<'a>(trace: &'a json::Json, name: &str) -> Vec<&'a json::Json> {
    let mut out = Vec::new();
    for root in trace.get("spans").unwrap().as_array().unwrap() {
        spans_named(root, name, &mut out);
    }
    out
}

/// One counter/count sample's value out of a Prometheus text exposition,
/// matched on the exact `name{labels}` prefix.
fn metric_value(text: &str, series: &str) -> Option<u64> {
    text.lines()
        .find(|l| {
            l.strip_prefix(series)
                .is_some_and(|rest| rest.starts_with(' '))
        })
        .and_then(|l| l.rsplit(' ').next())
        .and_then(|v| v.parse().ok())
}

/// Satellite: the router's trace ID rides the `/shard/query` wire, and
/// each live shard *server* echoes it back over its own span tree — the
/// stitched trace proves cross-process propagation, not just local
/// bookkeeping.
#[test]
fn explain_traces_propagate_to_live_remote_shard_servers() {
    let shard_services: Vec<Service> = (0..2).map(|_| boot()).collect();
    let endpoints: Vec<Option<String>> = shard_services
        .iter()
        .map(|s| Some(s.addr().to_string()))
        .collect();
    for (i, service) in shard_services.iter().enumerate() {
        register(
            &Client::new(service.addr()),
            vec![("shard_of".into(), format!("{i}/2").into())],
        );
    }
    let router_service = boot();
    let router = Client::new(router_service.addr());
    register(
        &router,
        vec![("shard_endpoints".into(), endpoints_json(&endpoints))],
    );

    // An untraced query stays untraced: no `trace` key, and (because the
    // shard RPC then carries no trace_id) nothing extra on the wire.
    let plain = router
        .post("/query", &query_body("[p=down][p=up]", 3))
        .unwrap()
        .expect_ok("plain");
    assert!(plain.get("trace").is_none(), "{}", plain.to_text());

    let body = json::parse(r#"{"dataset":"market","query":"[p=up][p=down]","k":4,"explain":true}"#)
        .unwrap();
    let reply = router.post("/query", &body).unwrap().expect_ok("explain");
    let trace = reply
        .get("trace")
        .unwrap_or_else(|| panic!("explain:true must return a trace: {}", reply.to_text()));
    let trace_id = trace.get("trace_id").unwrap().as_str().unwrap().to_owned();
    assert_eq!(trace_id.len(), 16, "trace_id {trace_id:?}");
    assert!(trace_id.chars().all(|c| c.is_ascii_hexdigit()));

    // One root: the request span, tagged with the same trace ID.
    let roots = trace.get("spans").unwrap().as_array().unwrap();
    assert_eq!(roots.len(), 1);
    assert_eq!(
        roots[0].get("name").unwrap().as_str(),
        Some("request"),
        "{}",
        trace.to_text()
    );
    assert!(roots[0]
        .get("detail")
        .unwrap()
        .as_str()
        .unwrap()
        .contains(&trace_id));

    // Both remote slots appear, and under each RPC span sits the shard
    // *server's* own reply tree, echoing the router's trace ID — the
    // ID crossed process boundaries and came back.
    let rpcs = find_spans(trace, "remote_rpc");
    assert_eq!(rpcs.len(), 2, "{}", trace.to_text());
    for rpc in &rpcs {
        let mut echoes = Vec::new();
        spans_named(rpc, "shard_request", &mut echoes);
        assert_eq!(echoes.len(), 1, "{}", rpc.to_text());
        assert!(
            echoes[0]
                .get("detail")
                .unwrap()
                .as_str()
                .unwrap()
                .contains(&trace_id),
            "remote span must echo the router's trace ID: {}",
            rpc.to_text()
        );
        // …and carries the remote server's own engine timing.
        let mut computes = Vec::new();
        spans_named(rpc, "shard_compute", &mut computes);
        assert!(!computes.is_empty(), "{}", rpc.to_text());
    }

    for service in shard_services {
        service.shutdown();
    }
    router_service.shutdown();
}

/// The acceptance path: an `explain:true` query over a **mixed
/// local/remote 4-shard topology** returns one stitched span tree with a
/// span for every shard — the remote ones carrying the shard servers'
/// own timings — and the router's `/metrics` exposition reconciles with
/// its healthz totals.
#[test]
fn explain_spans_cover_a_mixed_four_shard_topology_and_metrics_reconcile() {
    // Shards 0 and 2 on live shard servers; 1 and 3 local to the router.
    let shard_services: Vec<Service> = (0..2).map(|_| boot()).collect();
    for (i, service) in shard_services.iter().enumerate() {
        register(
            &Client::new(service.addr()),
            vec![("shard_of".into(), format!("{}/4", i * 2).into())],
        );
    }
    let placement = vec![
        Some(shard_services[0].addr().to_string()),
        None,
        Some(shard_services[1].addr().to_string()),
        None,
    ];
    let router_service = boot();
    let router = Client::new(router_service.addr());
    register(
        &router,
        vec![("shard_endpoints".into(), endpoints_json(&placement))],
    );

    let body = json::parse(r#"{"dataset":"market","query":"[p=up][p=down]","k":6,"explain":true}"#)
        .unwrap();
    let reply = router.post("/query", &body).unwrap().expect_ok("explain");
    let trace = reply
        .get("trace")
        .expect("explain:true must return a trace");

    // One span per shard slot: local slots as shard_compute, remote
    // slots as remote_rpc — each of the latter stitching in the shard
    // server's own tree (its shard_request root and its engine-side
    // shard_compute timing).
    let fanout = find_spans(trace, "shard_fanout");
    assert_eq!(fanout.len(), 1, "{}", trace.to_text());
    let slots = fanout[0].get("spans").unwrap().as_array().unwrap();
    let slot_names: Vec<&str> = slots
        .iter()
        .filter_map(|s| s.get("name").and_then(json::Json::as_str))
        .collect();
    assert_eq!(
        slot_names,
        [
            "remote_rpc",
            "shard_compute",
            "remote_rpc",
            "shard_compute",
            "merge"
        ],
        "{}",
        trace.to_text()
    );
    for rpc in find_spans(trace, "remote_rpc") {
        let mut remote_computes = Vec::new();
        spans_named(rpc, "shard_compute", &mut remote_computes);
        assert!(
            !remote_computes.is_empty(),
            "remote slot must carry the shard server's own timings: {}",
            rpc.to_text()
        );
        for span in remote_computes {
            assert!(span.get("micros").unwrap().as_usize().is_some());
        }
    }

    // A couple more queries (one repeated: a cache hit) so the counters
    // have texture, then reconcile /metrics against healthz.
    router
        .post("/query", &query_body("[p=down][p=up]", 2))
        .unwrap()
        .expect_ok("warm-up");
    let hit = router.post("/query", &body).unwrap().expect_ok("hit");
    assert_eq!(hit.get("cached").unwrap().as_bool(), Some(true));

    let health = router.get("/healthz").unwrap().expect_ok("healthz");
    let (status, text) = router.get_text("/metrics").unwrap();
    assert_eq!(status, 200);
    assert!(!text.is_empty());

    let want_queries = health.get("queries").unwrap().as_usize().unwrap() as u64;
    assert_eq!(
        metric_value(&text, "shapesearch_queries_total"),
        Some(want_queries),
        "{text}"
    );
    let cache = health.get("cache").unwrap();
    for (event, field) in [
        ("hit", "hits"),
        ("miss", "misses"),
        ("coalesced", "coalesced"),
    ] {
        assert_eq!(
            metric_value(
                &text,
                &format!("shapesearch_cache_events_total{{event=\"{event}\"}}")
            ),
            Some(cache.get(field).unwrap().as_usize().unwrap() as u64),
            "{text}"
        );
    }
    assert_eq!(
        metric_value(&text, "shapesearch_cache_lookups_total"),
        Some(cache.get("lookups").unwrap().as_usize().unwrap() as u64),
    );
    assert_eq!(
        metric_value(&text, "shapesearch_shard_tasks_total"),
        Some(
            health
                .get("shards")
                .unwrap()
                .get("tasks")
                .unwrap()
                .as_usize()
                .unwrap() as u64
        ),
    );
    // Every HTTP request landed in the request histogram, and the hot
    // stages all saw samples.
    assert_eq!(
        metric_value(&text, "shapesearch_request_duration_micros_count"),
        Some(want_queries),
        "{text}"
    );
    for stage in [
        "parse_plan",
        "cache_lookup",
        "shard_compute",
        "merge",
        "serialize",
    ] {
        let count = metric_value(
            &text,
            &format!("shapesearch_stage_duration_micros_count{{stage=\"{stage}\"}}"),
        );
        assert!(count.unwrap_or(0) > 0, "stage {stage} unsampled:\n{text}");
    }
    // Remote RPC latencies are tracked per endpoint.
    let remote_rpc_count: u64 = placement
        .iter()
        .flatten()
        .filter_map(|ep| {
            metric_value(
                &text,
                &format!("shapesearch_remote_rpc_duration_micros_count{{endpoint=\"{ep}\"}}"),
            )
        })
        .sum();
    assert!(remote_rpc_count >= 2, "{text}");

    // The evented listener's connection gauges tell one story across
    // /healthz and /metrics. The test client opens one
    // `connection: close` socket per request, and the server's one event
    // loop closes that socket right after writing its reply's last byte,
    // on the same thread that must then accept the next connection: so by
    // the time any handler runs, every earlier connection is torn down.
    // `active` is exactly the connection carrying the request,
    // `accepted_total` advances by exactly one between the healthz and
    // metrics fetches (the metrics connection itself), and nothing ever
    // idles in keep-alive or times out.
    let conns = health.get("connections").unwrap();
    let conn_field = |field: &str| conns.get(field).unwrap().as_usize().unwrap() as u64;
    assert_eq!(conn_field("active"), 1, "{}", health.to_text());
    assert_eq!(conn_field("idle_keepalive"), 0, "{}", health.to_text());
    assert_eq!(conn_field("timeouts"), 0, "{}", health.to_text());
    assert!(conn_field("accepted_total") >= 5, "{}", health.to_text());
    assert!(conn_field("event_loop_wakeups") > 0, "{}", health.to_text());
    assert_eq!(
        metric_value(&text, "shapesearch_connections_active"),
        Some(1)
    );
    assert_eq!(
        metric_value(&text, "shapesearch_connections_idle_keepalive"),
        Some(0)
    );
    assert_eq!(
        metric_value(&text, "shapesearch_connections_timeouts_total"),
        Some(0)
    );
    assert_eq!(
        metric_value(&text, "shapesearch_connections_accepted_total"),
        Some(conn_field("accepted_total") + 1),
        "metrics must count exactly one more accept — its own connection:\n{text}"
    );
    assert!(
        metric_value(&text, "shapesearch_connections_event_loop_wakeups_total")
            .is_some_and(|w| w >= conn_field("event_loop_wakeups")),
        "{text}"
    );
    // Snapshot shards are cut at registration: no residency block on
    // either surface.
    assert!(health.get("snapshots").is_none(), "{}", health.to_text());
    assert!(!text.contains("shapesearch_snapshot_"), "{text}");

    // And each shard server's own exposition counts the RPCs it served.
    for service in &shard_services {
        let shard_health = Client::new(service.addr())
            .get("/healthz")
            .unwrap()
            .expect_ok("shard healthz");
        let (status, shard_text) = Client::new(service.addr()).get_text("/metrics").unwrap();
        assert_eq!(status, 200);
        let served = shard_health
            .get("shards")
            .unwrap()
            .get("shard_queries")
            .unwrap()
            .as_usize()
            .unwrap() as u64;
        assert!(served >= 1);
        assert_eq!(
            metric_value(&shard_text, "shapesearch_shard_queries_total"),
            Some(served),
        );
        assert_eq!(
            metric_value(
                &shard_text,
                "shapesearch_shard_request_duration_micros_count"
            ),
            Some(served),
        );
    }

    for service in shard_services {
        service.shutdown();
    }
    router_service.shutdown();
}
