//! Fault-injection tests of **shard replication**: real `shapesearch`
//! services behind [`ChaosProxy`] instances that black-hole, reset,
//! delay, or truncate traffic. That a failing replica ahead of a live
//! one leaves every answer byte-identical is `served_matrix`'s; these
//! tests pin what the failures leave behind:
//!
//! * a mode matrix over a 2-shard × 2-replica topology (pass, delay,
//!   black-hole, reset, truncate — then healthy again), with the
//!   per-replica request/error/ejection counters reconciled between
//!   `/healthz` and `/metrics` at the end;
//! * a `/shard/query` body carrying a retired, poisoned `threshold_hint`
//!   over live sockets while every shard's primary replica is dead still
//!   yields exact results via the fallback replica, in one RPC a shard;
//! * the evented listener itself behind a proxy reclaims every
//!   connection slot a delayed or truncated exchange held;
//! * the proxy's own modes, against a stub upstream (here only, though
//!   other suites include the proxy too).

use chaos::{ChaosMode, ChaosProxy};
use served::{
    boot, dead_endpoint, endpoints_json, haystack_csv, metric_value, query_body, register,
    register_market, results_text, with_workers,
};
use shapesearch::server::{json, protocol, Client, ServerConfig, Service};
use shapesearch_core::EngineOptions;
use std::time::{Duration, Instant};

/// The proxy, and its own tests: they run in this suite only, not in
/// every suite that includes the proxy.
#[path = "../crates/server/tests/support"]
mod chaos {
    #[allow(dead_code)]
    #[path = "chaos.rs"]
    mod proxy;
    pub use proxy::{ChaosMode, ChaosProxy};

    mod tests {
        use super::{ChaosMode, ChaosProxy};
        use std::io::{BufRead, BufReader, Read, Write};
        use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
        use std::thread;
        use std::time::Duration;

        /// A tiny upstream that answers every HTTP-ish request on one
        /// connection with a fixed body, newline-framed for simplicity.
        fn echo_upstream(body: &'static str) -> SocketAddr {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let addr = listener.local_addr().unwrap();
            thread::spawn(move || {
                for stream in listener.incoming() {
                    let Ok(stream) = stream else { break };
                    thread::spawn(move || {
                        let mut reader = BufReader::new(stream.try_clone().unwrap());
                        let mut line = String::new();
                        while reader.read_line(&mut line).is_ok() && !line.is_empty() {
                            let mut stream = stream.try_clone().unwrap();
                            if stream.write_all(body.as_bytes()).is_err() {
                                break;
                            }
                            line.clear();
                        }
                    });
                }
            });
            addr
        }

        fn ask(addr: SocketAddr) -> std::io::Result<String> {
            let mut stream = TcpStream::connect_timeout(&addr, Duration::from_secs(2))?;
            stream.set_read_timeout(Some(Duration::from_millis(500)))?;
            stream.write_all(b"ping\n")?;
            stream.shutdown(Shutdown::Write)?;
            let mut reply = String::new();
            stream.read_to_string(&mut reply)?;
            Ok(reply)
        }

        #[test]
        fn pass_mode_is_transparent_and_counts_connections() {
            let upstream = echo_upstream("pong\n");
            let mut proxy = ChaosProxy::start(&upstream.to_string()).unwrap();
            assert_eq!(ask(proxy.addr()).unwrap(), "pong\n");
            assert_eq!(proxy.connections(), 1);
            proxy.shutdown();
        }

        #[test]
        fn switching_modes_severs_established_tunnels() {
            let upstream = echo_upstream("pong\n");
            let mut proxy = ChaosProxy::start(&upstream.to_string()).unwrap();
            let stream = TcpStream::connect_timeout(&proxy.addr(), Duration::from_secs(2)).unwrap();
            stream
                .set_read_timeout(Some(Duration::from_millis(500)))
                .unwrap();
            let mut writer = stream.try_clone().unwrap();
            let mut reader = BufReader::new(stream);
            writer.write_all(b"ping\n").unwrap();
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            assert_eq!(line, "pong\n");

            // The tunnel is healthy and could be pooled by a keep-alive
            // client. Switching modes must kill it, not just future ones.
            proxy.set_mode(ChaosMode::Reset);
            line.clear();
            let after = reader.read_line(&mut line);
            assert!(
                after.is_err() || line.is_empty(),
                "severed tunnel must not keep serving: {line:?}"
            );
            proxy.shutdown();
        }

        #[test]
        fn failure_modes_starve_reset_or_truncate_the_client() {
            let upstream = echo_upstream("a longer reply than the cap\n");
            let mut proxy = ChaosProxy::start(&upstream.to_string()).unwrap();

            proxy.set_mode(ChaosMode::BlackHole);
            // No bytes ever come back; the client's read times out.
            let starved = ask(proxy.addr());
            assert!(starved.is_err(), "black hole must starve: {starved:?}");

            proxy.set_mode(ChaosMode::Reset);
            // The write or read fails with reset/abort — never a clean
            // empty success carrying a well-formed reply.
            match ask(proxy.addr()) {
                Err(_) => {}
                Ok(reply) => assert_eq!(reply, "", "reset must not produce a reply"),
            }

            proxy.set_mode(ChaosMode::Truncate(8));
            let cut = ask(proxy.addr()).unwrap_or_default();
            assert!(
                cut.len() <= 8 && "a longer reply than the cap\n".starts_with(&cut),
                "truncation must cut mid-body: {cut:?}"
            );

            proxy.set_mode(ChaosMode::Delay(Duration::from_millis(50)));
            let started = std::time::Instant::now();
            assert_eq!(ask(proxy.addr()).unwrap(), "a longer reply than the cap\n");
            assert!(
                started.elapsed() >= Duration::from_millis(50),
                "delay must actually wait"
            );
            proxy.shutdown();
        }
    }
}
#[path = "support/served.rs"]
mod served;

/// The acceptance matrix: a 2-shard topology where each shard's
/// *primary* replica sits behind a chaos proxy and the fallback replica
/// is a plain live server. Every injected failure mode must leave
/// query results byte-identical to the single-process reference, and
/// the per-replica counters on `/healthz` must reconcile with the
/// `/metrics` exposition afterwards.
#[test]
fn every_failure_mode_with_a_live_replica_is_byte_identical_to_single_process() {
    // Single-process reference.
    let reference_service = boot(with_workers(3));
    let reference = Client::new(reference_service.addr());
    register_market(&reference, &[("shards", 1usize.into())]);
    let body = query_body("market", "[p=up][p=down]", 6);
    let want = results_text(
        &reference
            .post("/query", &body)
            .unwrap()
            .expect_ok("reference"),
    );

    // Two shard servers per shard slot: a primary (fronted by a chaos
    // proxy) and a fallback replica, both owning partition i/2.
    let shards = 2usize;
    let primaries: Vec<Service> = (0..shards).map(|_| boot(with_workers(3))).collect();
    let fallbacks: Vec<Service> = (0..shards).map(|_| boot(with_workers(3))).collect();
    for (i, service) in primaries.iter().chain(fallbacks.iter()).enumerate() {
        let shard_of = format!("{}/{shards}", i % shards);
        register_market(
            &Client::new(service.addr()),
            &[("shard_of", shard_of.into())],
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
    let router_service = boot(ServerConfig {
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
        register_market(&router, &[("shard_endpoints", endpoints_json(&placement))]);
        let reply = router
            .post("/query", &body)
            .unwrap()
            .expect_ok(&format!("mode {label}"));
        assert_eq!(reply.get("cached").unwrap().as_bool(), Some(false));
        assert_eq!(reply.get("shards").unwrap().as_usize(), Some(shards));
        assert_eq!(
            results_text(&reply),
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

/// A `/shard/query` RPC carrying a poisoned `threshold_hint` (a key the
/// wire no longer has, read like any unknown key) hits a router whose
/// every shard lists a dead primary replica first: the one pass fails
/// over to the fallback replicas, each answering once, and the final
/// partials are exact.
#[test]
fn poisoned_hint_with_a_dead_primary_is_exact_via_the_fallback_replica() {
    let haystack = haystack_csv();
    let register_haystack = |client: &Client, id: &str, extras: &[(&str, json::Json)]| {
        register(client, id, &haystack, extras).expect_ok("register")
    };

    // Live fallback replicas owning partitions 0/2 and 1/2.
    let live: Vec<Service> = (0..2).map(|_| boot(with_workers(3))).collect();
    for (i, service) in live.iter().enumerate() {
        let shard_of = format!("{i}/2");
        register_haystack(
            &Client::new(service.addr()),
            "t1",
            &[("shard_of", shard_of.into())],
        );
    }

    // The router: each shard's replica list leads with a dead endpoint.
    let router_service = boot(with_workers(3));
    let router = Client::new(router_service.addr());
    let dead: Vec<String> = (0..2).map(|_| dead_endpoint()).collect();
    let placement: Vec<Vec<String>> = (0..2)
        .map(|i| vec![dead[i].clone(), live[i].addr().to_string()])
        .collect();
    register_haystack(
        &router,
        "t1",
        &[("shard_endpoints", endpoints_json(&placement))],
    );

    // All-local reference on the same router.
    register_haystack(&router, "ref", &[("shards", 2usize.into())]);
    let body = query_body("ref", "[p=up][p=down]", 2);
    let want = results_text(&router.post("/query", &body).unwrap().expect_ok("reference"));

    // The poisoned RPC: a hint far above any real score, as a stale or
    // buggy upstream router could send.
    let query = shapesearch_parser::parse_regex("[p=up][p=down]").unwrap();
    let rpc =
        protocol::shard_request_to_json("t1", &[(query, 2)], &[], &EngineOptions::default(), None)
            .to_text()
            .replace("\"k\":2", "\"k\":2,\"threshold_hint\":0.999");
    assert!(rpc.contains("\"threshold_hint\":0.999"), "{rpc}");
    let rpc = json::parse(&rpc).unwrap();
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
    // every fallback answered exactly one RPC without an error.
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
            assert_eq!(
                requests,
                1,
                "fallback {endpoint} should have served one RPC: {}",
                health.to_text()
            );
        }
    }

    router_service.shutdown();
    for service in live {
        service.shutdown();
    }
}

/// Chaos modes aimed straight at the **evented listener** (no failover
/// tier in between): a client talking through a [`ChaosProxy`] to a
/// 2-worker server gets byte-identical `results` under `Pass` and
/// `Delay`, a `Truncate`d response dies mid-write without wedging
/// anything, and after every mode the connection slots are fully
/// reclaimed — `/healthz` `connections.active` returns to exactly the
/// one connection carrying the healthz probe itself.
#[test]
fn evented_listener_survives_delay_and_truncate_with_clean_slot_reclamation() {
    use std::io::{Read, Write};

    let service = boot(with_workers(2));
    let direct = Client::new(service.addr());
    register_market(&direct, &[("shards", 1usize.into())]);
    let query = query_body("market", "[p=up][p=down]", 6);
    let want = results_text(
        &direct
            .post("/query", &query)
            .unwrap()
            .expect_ok("reference"),
    );

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
            .post("/query", &query)
            .unwrap()
            .expect_ok(&format!("mode {label}"));
        assert_eq!(
            results_text(&reply),
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
    let body = query.to_text();
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
        let reply = client.post("/query", &query).unwrap().expect_ok(label);
        assert_eq!(results_text(&reply), want, "{label}");
    }
    wait_drained("final");

    let health = direct.get("/healthz").unwrap().expect_ok("healthz");
    let conns = health.get("connections").unwrap();
    let accepted = conns.get("accepted_total").unwrap().as_usize().unwrap();
    assert!(accepted >= 8, "accepted_total={accepted}");

    drop(proxy);
    service.shutdown();
}
