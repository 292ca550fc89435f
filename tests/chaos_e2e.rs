//! Fault-injection tests of **shard replication**: real `shapesearch`
//! services behind [`ChaosProxy`] instances that black-hole, reset,
//! delay, or truncate traffic, proving the failover tier's headline
//! invariant — results stay **byte-identical** to a single-process run
//! under every injected failure mode, as long as each shard keeps at
//! least one healthy replica.
//!
//! Three layers of evidence:
//!
//! * a mode matrix over a 2-shard × 2-replica topology (pass, delay,
//!   black-hole, reset, truncate — then healthy again), each mode's
//!   results diffed byte-for-byte against the single-process reference,
//!   with the per-replica request/error/ejection counters reconciled
//!   between `/healthz` and `/metrics` at the end;
//! * the PR-5 stale-hint re-query path under failure: a poisoned
//!   `threshold_hint` arriving over live sockets while every shard's
//!   primary replica is dead still yields exact results via the
//!   fallback replica;
//! * a property sweep (proptest shim) over shard counts {1, 2, 4} ×
//!   replica-assignment permutations × failure subsets leaving ≥1
//!   healthy replica per shard, every case byte-identical to the
//!   unsharded engine.

use chaos::{ChaosMode, ChaosProxy};
use proptest::test_runner::TestRng;
use shapesearch::server::{json, protocol, Client, ServerConfig, Service};
use shapesearch_core::EngineOptions;
use shapesearch_datastore::{csv, table_from_series, Table};
use std::time::{Duration, Instant};

#[allow(dead_code)]
#[path = "../crates/server/tests/support/chaos.rs"]
mod chaos;

/// A deterministic collection with mixed shapes and **exact duplicate
/// trendlines** (every fourth series repeats one peak shape), so the
/// top-k contains real score ties that straddle shard boundaries — the
/// tie-order half of the byte-identity claim is exercised under
/// failover, not vacuous.
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

fn boot_with(config: ServerConfig) -> Service {
    shapesearch::server::serve("127.0.0.1:0", config).unwrap()
}

fn boot() -> Service {
    boot_with(ServerConfig {
        workers: 3,
        ..ServerConfig::default()
    })
}

/// Registers `market_table` on a service over HTTP, with optional
/// extras spliced into the registration object (`"shard_of": …`,
/// `"shard_endpoints": …`, `"shards": …`).
fn register_market(client: &Client, extras: Vec<(String, json::Json)>) -> json::Json {
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

/// The list-of-lists `"shard_endpoints"` wire form: one replica list
/// per shard slot.
fn replicas_json(placement: &[Vec<String>]) -> json::Json {
    json::Json::Arr(
        placement
            .iter()
            .map(|replicas| {
                json::Json::Arr(
                    replicas
                        .iter()
                        .map(|ep| json::Json::Str(ep.clone()))
                        .collect(),
                )
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

/// One counter/gauge sample's value out of a Prometheus text
/// exposition, matched on the exact `name{labels}` prefix.
fn metric_value(text: &str, series: &str) -> Option<u64> {
    text.lines()
        .find(|l| {
            l.strip_prefix(series)
                .is_some_and(|rest| rest.starts_with(' '))
        })
        .and_then(|l| l.rsplit(' ').next())
        .and_then(|v| v.parse().ok())
}

/// Reserves an ephemeral port and immediately frees it: an endpoint
/// that refuses connections — the shape of a replica that never came
/// up.
fn dead_endpoint() -> String {
    let reserved = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let endpoint = reserved.local_addr().unwrap().to_string();
    drop(reserved);
    endpoint
}

/// The acceptance matrix: a 2-shard topology where each shard's
/// *primary* replica sits behind a chaos proxy and the fallback replica
/// is a plain live server. Every injected failure mode must leave
/// query results byte-identical to the single-process reference, and
/// the per-replica counters on `/healthz` must reconcile with the
/// `/metrics` exposition afterwards.
#[test]
fn every_failure_mode_with_a_live_replica_is_byte_identical_to_single_process() {
    // Single-process reference.
    let reference_service = boot();
    let reference = Client::new(reference_service.addr());
    register_market(&reference, vec![("shards".into(), 1usize.into())]);
    let want = reference
        .post("/query", &query_body("[p=up][p=down]", 6))
        .unwrap()
        .expect_ok("reference")
        .get("results")
        .unwrap()
        .to_text();

    // Two shard servers per shard slot: a primary (fronted by a chaos
    // proxy) and a fallback replica, both owning partition i/2.
    let shards = 2usize;
    let primaries: Vec<Service> = (0..shards).map(|_| boot()).collect();
    let fallbacks: Vec<Service> = (0..shards).map(|_| boot()).collect();
    for (i, service) in primaries.iter().chain(fallbacks.iter()).enumerate() {
        register_market(
            &Client::new(service.addr()),
            vec![("shard_of".into(), format!("{}/{shards}", i % shards).into())],
        );
    }
    let proxies: Vec<ChaosProxy> = primaries
        .iter()
        .map(|p| ChaosProxy::start(&p.addr().to_string()).unwrap())
        .collect();
    let placement: Vec<Vec<String>> = (0..shards)
        .map(|i| vec![proxies[i].endpoint(), fallbacks[i].addr().to_string()])
        .collect();

    // The router: short I/O timeout so a black-holed replica costs one
    // bounded stall, not the 60 s default.
    let router_service = boot_with(ServerConfig {
        workers: 3,
        shard_connect_timeout_ms: 500,
        shard_io_timeout_ms: 600,
        ..ServerConfig::default()
    });
    let router = Client::new(router_service.addr());

    // Healthy modes first (traffic flows *through* the proxy), then the
    // failure modes — with the default eject-after-3 breaker, each
    // failure mode gets exactly one live attempt against the proxy
    // before the third failure ejects it — then healthy-shaped traffic
    // again with the primaries still ejected.
    let modes = [
        ("pass", ChaosMode::Pass),
        ("delay", ChaosMode::Delay(Duration::from_millis(100))),
        ("black-hole", ChaosMode::BlackHole),
        ("reset", ChaosMode::Reset),
        ("truncate", ChaosMode::Truncate(64)),
        ("pass-again", ChaosMode::Pass),
    ];
    for (label, mode) in modes {
        for proxy in &proxies {
            proxy.set_mode(mode);
        }
        // Re-register: the generation bump clears the cache, so every
        // mode is a cold computation over the wire.
        register_market(
            &router,
            vec![("shard_endpoints".into(), replicas_json(&placement))],
        );
        let started = Instant::now();
        let reply = router
            .post("/query", &query_body("[p=up][p=down]", 6))
            .unwrap()
            .expect_ok(&format!("mode {label}"));
        assert!(
            started.elapsed() < Duration::from_secs(20),
            "mode {label} must fail over promptly, not hang: {:?}",
            started.elapsed()
        );
        assert_eq!(reply.get("cached").unwrap().as_bool(), Some(false));
        assert_eq!(reply.get("shards").unwrap().as_usize(), Some(shards));
        assert_eq!(
            reply.get("results").unwrap().to_text(),
            want,
            "results diverged from single-process under mode {label}"
        );
    }
    // The healthy modes really exercised the proxy path.
    for proxy in &proxies {
        assert!(
            proxy.connections() >= 2,
            "proxy saw {}",
            proxy.connections()
        );
    }

    // Per-replica counters: /healthz rows and the /metrics exposition
    // must tell the same story, and the failure schedule above pins the
    // proxies' exact error and ejection counts.
    let health = router.get("/healthz").unwrap().expect_ok("healthz");
    let remote = health.get("remote_shards").unwrap();
    let (status, metrics_text) = router.get_text("/metrics").unwrap();
    assert_eq!(status, 200);

    let proxy_endpoints: Vec<String> = proxies.iter().map(ChaosProxy::endpoint).collect();
    let rows = remote.get("by_endpoint").unwrap().as_array().unwrap();
    assert_eq!(rows.len(), 2 * shards, "{}", health.to_text());
    let mut requests_sum = 0;
    let mut errors_sum = 0;
    for row in rows {
        let endpoint = row.get("endpoint").unwrap().as_str().unwrap();
        let requests = row.get("requests").unwrap().as_usize().unwrap() as u64;
        let errors = row.get("errors").unwrap().as_usize().unwrap() as u64;
        let ejections = row.get("ejections").unwrap().as_usize().unwrap() as u64;
        requests_sum += requests;
        errors_sum += errors;
        for (family, value) in [
            ("shapesearch_remote_requests_total", requests),
            ("shapesearch_remote_errors_total", errors),
            ("shapesearch_remote_ejections_total", ejections),
        ] {
            assert_eq!(
                metric_value(
                    &metrics_text,
                    &format!("{family}{{endpoint=\"{endpoint}\"}}")
                ),
                Some(value),
                "{family} for {endpoint} disagrees with healthz"
            );
        }
        // The ejected gauge exists per endpoint; its value is
        // time-dependent (probe windows reopen), so only presence is
        // pinned here.
        assert!(
            metric_value(
                &metrics_text,
                &format!("shapesearch_remote_ejected{{endpoint=\"{endpoint}\"}}")
            )
            .is_some(),
            "missing ejected gauge for {endpoint}"
        );
        if proxy_endpoints.contains(&endpoint.to_string()) {
            // black-hole + reset + truncate, one attempt each; the
            // third failure tripped the breaker exactly once.
            assert_eq!(errors, 3, "proxy {endpoint}: {}", health.to_text());
            assert_eq!(ejections, 1, "proxy {endpoint}: {}", health.to_text());
            assert!(requests >= 5, "proxy {endpoint}: {}", health.to_text());
        } else {
            assert_eq!(errors, 0, "fallback {endpoint}: {}", health.to_text());
            assert_eq!(ejections, 0, "fallback {endpoint}: {}", health.to_text());
            assert!(requests >= 3, "fallback {endpoint}: {}", health.to_text());
        }
    }
    assert_eq!(
        remote.get("requests").unwrap().as_usize().unwrap() as u64,
        requests_sum
    );
    assert_eq!(
        remote.get("errors").unwrap().as_usize().unwrap() as u64,
        errors_sum
    );
    assert_eq!(remote.get("ejections").unwrap().as_usize(), Some(shards));

    drop(proxies);
    for service in primaries.into_iter().chain(fallbacks) {
        service.shutdown();
    }
    router_service.shutdown();
    reference_service.shutdown();
}

/// A CSV with clear peaks buried among falls, big enough that a
/// poisoned pruning hint actually bites (everything gets pruned on the
/// hint's authority, so the un-discharged bound forces the hint-less
/// re-query).
fn haystack_csv() -> String {
    let mut out = String::from("z,x,y");
    for series in 0..12 {
        for t in 0..16 {
            let y = if series % 5 == 2 {
                if t < 8 {
                    t as f64
                } else {
                    16.0 - t as f64
                }
            } else {
                16.0 - t as f64 - 0.05 * series as f64
            };
            out.push_str(&format!("\ns{series},{t},{y}"));
        }
    }
    out
}

/// Satellite: the PR-5 stale-hint re-query path under failure, over
/// live sockets. A `/shard/query` RPC carrying a poisoned
/// `threshold_hint` hits a router whose every shard lists a dead
/// primary replica first: both the hinted pass and the verification's
/// hint-less re-query must fail over to the fallback replicas, and the
/// final partials must still be exact.
#[test]
fn poisoned_hint_with_a_dead_primary_is_exact_via_the_fallback_replica() {
    let haystack = haystack_csv();
    let register_haystack = |client: &Client, id: &str, extras: Vec<(String, json::Json)>| {
        let mut fields = vec![
            ("name".into(), "haystack".into()),
            ("id".into(), id.into()),
            ("csv".into(), haystack.as_str().into()),
            ("z".into(), "z".into()),
            ("x".into(), "x".into()),
            ("y".into(), "y".into()),
        ];
        fields.extend(extras);
        client
            .post("/datasets", &json::Json::Obj(fields))
            .unwrap()
            .expect_ok("register")
    };

    // Live fallback replicas owning partitions 0/2 and 1/2.
    let live: Vec<Service> = (0..2).map(|_| boot()).collect();
    for (i, service) in live.iter().enumerate() {
        register_haystack(
            &Client::new(service.addr()),
            "t1",
            vec![("shard_of".into(), format!("{i}/2").into())],
        );
    }

    // The router: each shard's replica list leads with a dead endpoint.
    let router_service = boot();
    let router = Client::new(router_service.addr());
    let dead: Vec<String> = (0..2).map(|_| dead_endpoint()).collect();
    let placement: Vec<Vec<String>> = (0..2)
        .map(|i| vec![dead[i].clone(), live[i].addr().to_string()])
        .collect();
    register_haystack(
        &router,
        "t1",
        vec![("shard_endpoints".into(), replicas_json(&placement))],
    );

    // All-local reference on the same router.
    register_haystack(&router, "ref", vec![("shards".into(), 2usize.into())]);
    let want = router
        .post(
            "/query",
            &json::parse(r#"{"dataset":"ref","query":"[p=up][p=down]","k":2}"#).unwrap(),
        )
        .unwrap()
        .expect_ok("reference")
        .get("results")
        .unwrap()
        .to_text();

    // The poisoned RPC: a hint far above any real score, as a stale or
    // buggy upstream router could send.
    let query = shapesearch_parser::parse_regex("[p=up][p=down]").unwrap();
    let rpc = protocol::shard_request_to_json(
        "t1",
        &[(query, 2)],
        &[Some(0.999)],
        &EngineOptions::default(),
        None,
    );
    let reply = router
        .post("/shard/query", &rpc)
        .unwrap()
        .expect_ok("poisoned shard RPC");
    let partials = protocol::shard_outcomes_from_json(&reply, 1).unwrap();
    let got = partials.outcomes[0]
        .as_ref()
        .unwrap_or_else(|e| panic!("poisoned hint must not fail the query: {e:?}"));
    assert_eq!(
        protocol::results_to_json(got).to_text(),
        want,
        "a poisoned threshold_hint over a degraded topology must never drop a true top-k result"
    );

    // The failover trail: every dead primary was attempted and failed;
    // every fallback answered both the hinted pass and the hint-less
    // verification re-query without a single error.
    let health = router.get("/healthz").unwrap().expect_ok("healthz");
    let rows = health
        .get("remote_shards")
        .unwrap()
        .get("by_endpoint")
        .unwrap()
        .as_array()
        .unwrap();
    for row in rows {
        let endpoint = row.get("endpoint").unwrap().as_str().unwrap();
        let requests = row.get("requests").unwrap().as_usize().unwrap();
        let errors = row.get("errors").unwrap().as_usize().unwrap();
        if dead.contains(&endpoint.to_string()) {
            assert!(errors >= 1, "dead {endpoint}: {}", health.to_text());
            assert_eq!(requests, errors, "dead {endpoint}: {}", health.to_text());
        } else {
            assert_eq!(errors, 0, "fallback {endpoint}: {}", health.to_text());
            assert!(
                requests >= 2,
                "fallback {endpoint} should have served the hinted pass AND the re-query: {}",
                health.to_text()
            );
        }
    }

    router_service.shutdown();
    for service in live {
        service.shutdown();
    }
}

/// Satellite: the property sweep. For shards ∈ {1, 2} every
/// replica-assignment permutation × failure subset leaving ≥1 healthy
/// replica per shard is enumerated exhaustively; for shards = 4 the
/// space is sampled with the proptest shim's deterministic RNG. Every
/// case must merge byte-identical to the unsharded engine.
#[test]
fn replica_permutations_and_failure_subsets_merge_byte_identical_to_unsharded() {
    // Unsharded reference.
    let reference_service = boot();
    let reference = Client::new(reference_service.addr());
    register_market(&reference, vec![("shards".into(), 1usize.into())]);
    let want = reference
        .post("/query", &query_body("[p=up][p=down]", 8))
        .unwrap()
        .expect_ok("reference")
        .get("results")
        .unwrap()
        .to_text();

    // Bounded I/O timeout: a failed replica costs the sweep at most one
    // short stall per attempt, never the 60 s default.
    let router_service = boot_with(ServerConfig {
        workers: 3,
        shard_connect_timeout_ms: 500,
        shard_io_timeout_ms: 800,
        ..ServerConfig::default()
    });
    let router = Client::new(router_service.addr());
    let mut rng = TestRng::seed_from_u64(0x7e57_c4a0_5eed_0007);

    for shards in [1usize, 2, 4] {
        // Two live replicas per shard, plus one chaos proxy per shard
        // held in connection-reset mode: the "failed replica" every
        // failure subset draws from.
        let live: Vec<Vec<Service>> = (0..shards)
            .map(|i| {
                (0..2)
                    .map(|_| {
                        let service = boot();
                        register_market(
                            &Client::new(service.addr()),
                            vec![("shard_of".into(), format!("{i}/{shards}").into())],
                        );
                        service
                    })
                    .collect()
            })
            .collect();
        let proxies: Vec<ChaosProxy> = (0..shards)
            .map(|i| {
                let proxy = ChaosProxy::start(&live[i][0].addr().to_string()).unwrap();
                proxy.set_mode(ChaosMode::Reset);
                proxy
            })
            .collect();

        // Per-shard replica-list variants: singletons, both healthy
        // orderings, and every position for the failed replica — all
        // leave ≥1 healthy replica.
        let variants: Vec<Vec<Vec<String>>> = (0..shards)
            .map(|i| {
                let h0 = live[i][0].addr().to_string();
                let h1 = live[i][1].addr().to_string();
                let f = proxies[i].endpoint();
                vec![
                    vec![h0.clone()],
                    vec![h1.clone()],
                    vec![h0.clone(), h1.clone()],
                    vec![h1.clone(), h0.clone()],
                    vec![h0.clone(), f.clone()],
                    vec![f.clone(), h0.clone()],
                    vec![h1.clone(), f.clone()],
                    vec![f, h1],
                ]
            })
            .collect();
        let arity = variants[0].len();

        // Exhaustive cross product for small shard counts; sampled for
        // shards = 4 (8^4 topologies is past a test budget).
        let cases: Vec<Vec<usize>> = if shards <= 2 {
            let mut cases = vec![Vec::new()];
            for _ in 0..shards {
                cases = cases
                    .into_iter()
                    .flat_map(|case: Vec<usize>| {
                        (0..arity).map(move |v| {
                            let mut next = case.clone();
                            next.push(v);
                            next
                        })
                    })
                    .collect();
            }
            cases
        } else {
            (0..10)
                .map(|_| {
                    (0..shards)
                        .map(|_| rng.below(arity as u64) as usize)
                        .collect()
                })
                .collect()
        };

        for case in cases {
            let placement: Vec<Vec<String>> = case
                .iter()
                .enumerate()
                .map(|(i, &v)| variants[i][v].clone())
                .collect();
            register_market(
                &router,
                vec![("shard_endpoints".into(), replicas_json(&placement))],
            );
            let reply = router
                .post("/query", &query_body("[p=up][p=down]", 8))
                .unwrap()
                .expect_ok(&format!("shards={shards} case={case:?}"));
            assert_eq!(reply.get("cached").unwrap().as_bool(), Some(false));
            assert_eq!(
                reply.get("results").unwrap().to_text(),
                want,
                "shards={shards} placement {placement:?} diverged from the unsharded engine"
            );
        }

        drop(proxies);
        for service in live.into_iter().flatten() {
            service.shutdown();
        }
    }

    router_service.shutdown();
    reference_service.shutdown();
}

/// Chaos modes aimed straight at the **evented listener** (no failover
/// tier in between): a client talking through a [`ChaosProxy`] to a
/// 2-event-thread server gets byte-identical `results` under `Pass` and
/// `Delay`, a `Truncate`d response dies mid-write without wedging
/// anything, and after every mode the connection slots are fully
/// reclaimed — `/healthz` `connections.active` returns to exactly the
/// one connection carrying the healthz probe itself.
#[test]
fn evented_listener_survives_delay_and_truncate_with_clean_slot_reclamation() {
    use std::io::{Read, Write};

    let service = boot_with(ServerConfig {
        workers: 2,
        event_threads: 2,
        ..ServerConfig::default()
    });
    let direct = Client::new(service.addr());
    register_market(&direct, vec![("shards".into(), 1usize.into())]);
    let want = direct
        .post("/query", &query_body("[p=up][p=down]", 6))
        .unwrap()
        .expect_ok("reference")
        .get("results")
        .unwrap()
        .to_text();

    // `connections.active` as /healthz reports it: the probe's own
    // connection is itself active while the handler runs, so a fully
    // drained server reports exactly 1.
    let active = || {
        direct
            .get("/healthz")
            .unwrap()
            .expect_ok("healthz")
            .get("connections")
            .unwrap()
            .get("active")
            .unwrap()
            .as_usize()
            .unwrap()
    };
    let wait_drained = |label: &str| {
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let now = active();
            if now == 1 {
                return;
            }
            assert!(
                Instant::now() < deadline,
                "after {label}: {now} connections still active — slots not reclaimed"
            );
            std::thread::sleep(Duration::from_millis(20));
        }
    };

    let proxy = ChaosProxy::start(&service.addr().to_string()).unwrap();
    let through = Client::new(proxy.addr());

    for (label, mode) in [
        ("pass", ChaosMode::Pass),
        ("delay", ChaosMode::Delay(Duration::from_millis(100))),
        ("pass-after-delay", ChaosMode::Pass),
    ] {
        proxy.set_mode(mode);
        let reply = through
            .post("/query", &query_body("[p=up][p=down]", 6))
            .unwrap()
            .expect_ok(&format!("mode {label}"));
        assert_eq!(
            reply.get("results").unwrap().to_text(),
            want,
            "results diverged through the proxy under mode {label}"
        );
        wait_drained(label);
    }

    // Truncate: the server writes a full response but the far side
    // vanishes after 64 bytes. The client must NOT see a valid reply,
    // and the server must notice the dead peer and free the slot.
    proxy.set_mode(ChaosMode::Truncate(64));
    let mut stream = std::net::TcpStream::connect(proxy.addr()).unwrap();
    let body = query_body("[p=up][p=down]", 6).to_text();
    write!(
        stream,
        "POST /query HTTP/1.1\r\nhost: x\r\ncontent-length: {}\r\nconnection: close\r\n\r\n{body}",
        body.len()
    )
    .unwrap();
    let mut got = Vec::new();
    stream.read_to_end(&mut got).unwrap_or(0);
    assert!(
        got.len() <= 64,
        "truncate relayed {} bytes, expected at most 64",
        got.len()
    );
    drop(stream);
    wait_drained("truncate");

    // The listener is unharmed: a healthy query straight at it (and one
    // more through the now-clean proxy) still answers identically.
    proxy.set_mode(ChaosMode::Pass);
    for (label, client) in [("direct", &direct), ("proxy", &through)] {
        let reply = client
            .post("/query", &query_body("[p=up][p=down]", 6))
            .unwrap()
            .expect_ok(label);
        assert_eq!(reply.get("results").unwrap().to_text(), want, "{label}");
    }
    wait_drained("final");

    let health = direct.get("/healthz").unwrap().expect_ok("healthz");
    let conns = health.get("connections").unwrap();
    let accepted = conns.get("accepted_total").unwrap().as_usize().unwrap();
    assert!(accepted >= 8, "accepted_total={accepted}");

    drop(proxy);
    service.shutdown();
}
