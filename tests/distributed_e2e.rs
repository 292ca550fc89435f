//! End-to-end tests of **multi-machine sharding**: real `shapesearch`
//! services wired into a distributed topology over loopback HTTP — shard
//! servers owning one partition each (`shard_of`), a router whose
//! catalog maps shards to `Local` engines or `Remote` endpoints, and the
//! deterministic merge on top.
//!
//! That every placement answers byte for byte what one process does is
//! `served_matrix`'s. These tests pin the rest: an unreachable shard is a
//! structured `shard_unavailable` error naming the endpoint (never a
//! silent partial top-k), a restored shard serves again — cacheably —
//! without any re-registration, and traces and `/metrics` cover the
//! whole topology.

#[path = "support/served.rs"]
mod served;

use served::{
    boot, dead_endpoint, endpoints_json, metric_value, query_body, register_market, results_text,
    with_workers,
};
use shapesearch::server::{json, Client, ServerConfig, Service};

/// Failure handling end to end: a placement naming a dead port degrades
/// to a structured `shard_unavailable` error (no hang, no silent
/// partial top-k), and once a shard server comes up on that same
/// endpoint the *same registration* serves again — and its results are
/// cacheable.
#[test]
fn dead_shard_degrades_structurally_and_recovers_cacheably() {
    let endpoint = dead_endpoint();
    let router_service = boot(with_workers(3));
    let router = Client::new(router_service.addr());
    let placement = endpoints_json(&[vec![], vec![endpoint.clone()]]);
    register_market(&router, &[("shard_endpoints", placement)]);
    let body = query_body("market", "[p=up][p=down]", 6);

    // Query against the dead endpoint: a structured 502.
    let reply = router.post("/query", &body).unwrap();
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
    register_market(
        &Client::new(shard_service.addr()),
        &[("shard_of", "1/2".into())],
    );

    // Same registration, same query: healthy now, and byte-identical to
    // an all-local run.
    let healthy = router.post("/query", &body).unwrap().expect_ok("restored");
    assert_eq!(healthy.get("cached").unwrap().as_bool(), Some(false));

    let reference_service = boot(with_workers(3));
    let reference = Client::new(reference_service.addr());
    register_market(&reference, &[("shards", 2usize.into())]);
    let want = reference
        .post("/query", &body)
        .unwrap()
        .expect_ok("reference");
    assert_eq!(results_text(&healthy), results_text(&want));

    // The recovered result is cacheable: the earlier failure neither
    // cached garbage nor poisoned the key.
    let warm = router.post("/query", &body).unwrap().expect_ok("warm");
    assert_eq!(warm.get("cached").unwrap().as_bool(), Some(true));
    assert_eq!(results_text(&warm), results_text(&healthy));

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

/// Satellite: the router's trace ID rides the `/shard/query` wire, and
/// each live shard *server* echoes it back over its own span tree — the
/// stitched trace proves cross-process propagation, not just local
/// bookkeeping.
#[test]
fn explain_traces_propagate_to_live_remote_shard_servers() {
    let shard_services: Vec<Service> = (0..2).map(|_| boot(with_workers(3))).collect();
    let endpoints: Vec<Vec<String>> = shard_services
        .iter()
        .map(|s| vec![s.addr().to_string()])
        .collect();
    for (i, service) in shard_services.iter().enumerate() {
        let shard_of = format!("{i}/2");
        register_market(
            &Client::new(service.addr()),
            &[("shard_of", shard_of.into())],
        );
    }
    let router_service = boot(with_workers(3));
    let router = Client::new(router_service.addr());
    register_market(&router, &[("shard_endpoints", endpoints_json(&endpoints))]);

    // An untraced query stays untraced: no `trace` key, and (because the
    // shard RPC then carries no trace_id) nothing extra on the wire.
    let plain = router
        .post("/query", &query_body("market", "[p=down][p=up]", 3))
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
    let shard_services: Vec<Service> = (0..2).map(|_| boot(with_workers(3))).collect();
    for (i, service) in shard_services.iter().enumerate() {
        let shard_of = format!("{}/4", i * 2);
        register_market(
            &Client::new(service.addr()),
            &[("shard_of", shard_of.into())],
        );
    }
    let placement = [
        vec![shard_services[0].addr().to_string()],
        vec![],
        vec![shard_services[1].addr().to_string()],
        vec![],
    ];
    let router_service = boot(with_workers(3));
    let router = Client::new(router_service.addr());
    register_market(&router, &[("shard_endpoints", endpoints_json(&placement))]);

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
        .post("/query", &query_body("market", "[p=down][p=up]", 2))
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
