//! End-to-end tests of the `shapesearch serve` subsystem: boot the
//! service on an ephemeral port, register a dataset over HTTP, and check
//! that (a) concurrent clients get exactly the in-process engine's
//! answers, (b) the result cache answers a repeated query as a hit with
//! the same bytes and exact counters, and (c) the server survives hostile
//! requests. Answers across execution shapes are `served_matrix`'s.

#[path = "support/served.rs"]
mod served;

use served::{
    boot, market_csv, query_body, register, register_market, results_text, with_workers,
    MARKET_SERIES,
};
use shapesearch::prelude::*;
use shapesearch::server::{json, protocol, Client, ServerConfig};
use shapesearch_datastore::{csv, table_from_series};

#[test]
fn concurrent_clients_match_in_process_engine_and_repeats_hit_the_cache() {
    let service = boot(ServerConfig {
        workers: 4,
        cache_capacity: 64,
        shards: 4,
        ..ServerConfig::default()
    });
    let addr = service.addr();
    let client = Client::new(addr);
    register_market(&client, &[]);

    // Listing shows the dataset, cut into the server's default shards.
    let listing = client.get("/datasets").unwrap().expect_ok("list");
    let datasets = listing.get("datasets").unwrap().as_array().unwrap();
    assert_eq!(datasets.len(), 1);
    assert_eq!(datasets[0].get("id").unwrap().as_str(), Some("market"));
    assert_eq!(datasets[0].get("shards").unwrap().as_usize(), Some(4));

    // In-process reference answers, computed from the same CSV text.
    let table = csv::read_str(&market_csv()).unwrap();
    let engine = ShapeEngine::new(&table, &VisualSpec::new("z", "x", "y")).unwrap();
    let queries = [
        ("[p=up][p=down]", 10),
        ("[p=down][p=up]", 7),
        ("[p=up][p=flat][p=down]", 5),
    ];
    let expected: Vec<String> = queries
        .iter()
        .map(|(q, k)| {
            let results = engine.top_k(&parse_regex(q).unwrap(), *k).unwrap();
            protocol::results_to_json(&results).to_text()
        })
        .collect();

    // ≥4 concurrent clients, each issuing every query through HTTP.
    std::thread::scope(|scope| {
        for worker in 0..6 {
            let expected = &expected;
            let queries = &queries;
            scope.spawn(move || {
                let client = Client::new(addr);
                for ((q, k), want) in queries.iter().zip(expected) {
                    let reply = client
                        .post("/query", &query_body("market", q, *k))
                        .unwrap()
                        .expect_ok(&format!("worker {worker} query {q}"));
                    assert_eq!(&results_text(&reply), want, "worker {worker} query {q}");
                }
            });
        }
    });

    // Cold vs warm: a fresh query text (normalizes to a new AST) misses
    // once, then hits. (How much faster a hit is than a miss is
    // `ssbench`'s `hot_hits` vs `*_miss` comparison — tier-1 carries no
    // timing assertions.)
    let body = query_body("market", "[p=up][p=down][p=up]", 9);
    let cold = client.post("/query", &body).unwrap().expect_ok("cold");
    assert_eq!(cold.get("cached").unwrap().as_bool(), Some(false));
    for _ in 0..3 {
        let warm = client.post("/query", &body).unwrap().expect_ok("warm");
        assert_eq!(warm.get("cached").unwrap().as_bool(), Some(true));
        assert_eq!(results_text(&cold), results_text(&warm));
    }

    // Whitespace variants of one query normalize onto the same entry.
    let variant = query_body("market", " [ p = up ] [ p = down ] [ p = up ] ", 9);
    let variant = client
        .post("/query", &variant)
        .unwrap()
        .expect_ok("variant");
    assert_eq!(variant.get("cached").unwrap().as_bool(), Some(true));

    // Health counters saw all of it.
    let health = client.get("/healthz").unwrap().expect_ok("healthz");
    assert_eq!(health.get("status").unwrap().as_str(), Some("ok"));
    assert_eq!(health.get("datasets").unwrap().as_usize(), Some(1));
    let shards = health.get("shards").unwrap();
    assert_eq!(shards.get("default").unwrap().as_usize(), Some(4));
    assert_eq!(shards.get("compute_workers").unwrap().as_usize(), Some(4));
    let cache = health.get("cache").unwrap();
    let hits = cache.get("hits").unwrap().as_f64().unwrap();
    let misses = cache.get("misses").unwrap().as_f64().unwrap();
    let coalesced = cache.get("coalesced").unwrap().as_f64().unwrap();
    let lookups = cache.get("lookups").unwrap().as_f64().unwrap();
    assert_eq!(lookups, hits + misses + coalesced, "{}", health.to_text());
    // 18 concurrent + 1 cold + 3 warm + 1 whitespace variant.
    let total_queries = health.get("queries").unwrap().as_f64().unwrap();
    assert_eq!(total_queries, 6.0 * 3.0 + 5.0);
    // Every lookup is counted exactly once.
    assert_eq!(
        hits + misses + coalesced,
        total_queries,
        "health: {}",
        health.to_text()
    );
    // 4 distinct keys were exercised. The singleflight latch makes the
    // miss count *exact*: racing threads that used to all miss before the
    // first insert landed now coalesce onto the leader, so each key
    // misses exactly once no matter the interleaving.
    assert_eq!(misses, 4.0, "health: {}", health.to_text());
    assert_eq!(cache.get("entries").unwrap().as_usize(), Some(4));
    // The cached-variant checks above prove hits occurred.
    assert!(hits >= 2.0, "health: {}", health.to_text());

    service.shutdown();
}

#[test]
fn nl_queries_work_over_http_and_share_cache_with_regex() {
    let service = boot(ServerConfig::default());
    let client = Client::new(service.addr());
    register_market(&client, &[]);

    let nl = json::parse(r#"{"dataset":"market","nl":"rising then falling","k":4}"#).unwrap();
    let reply = client.post("/query", &nl).unwrap().expect_ok("nl");
    let canonical = reply.get("query").unwrap().as_str().unwrap().to_owned();
    assert_ne!(results_text(&reply), "[]");

    // Re-issuing the *canonical regex* of the NL query hits the cache:
    // both front-ends share one normalized AST keyspace.
    let as_regex = client
        .post("/query", &query_body("market", &canonical, 4))
        .unwrap()
        .expect_ok("canonical regex");
    assert_eq!(as_regex.get("cached").unwrap().as_bool(), Some(true));

    service.shutdown();
}

/// The stampede fix end to end: N clients fire the *identical cold* query
/// concurrently. The singleflight latch must elect exactly one leader (one
/// cache miss → one engine computation); everyone else coalesces onto the
/// leader's flight (or hits, if they arrive after it lands) and receives
/// byte-identical results.
#[test]
fn concurrent_identical_cold_misses_compute_exactly_once() {
    let service = boot(with_workers(8));
    let addr = service.addr();
    register_market(&Client::new(addr), &[]);

    let n = 6u64;
    let bodies: Vec<json::Json> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..n)
            .map(|worker| {
                scope.spawn(move || {
                    let body = query_body("market", "[p=up][p=down][p=up][p=down]", 8);
                    Client::new(addr)
                        .post("/query", &body)
                        .unwrap()
                        .expect_ok(&format!("stampede worker {worker}"))
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let reference = results_text(&bodies[0]);
    assert_ne!(reference, "[]");
    for body in &bodies {
        assert_eq!(results_text(body), reference, "divergent stampede result");
    }

    let health = Client::new(addr)
        .get("/healthz")
        .unwrap()
        .expect_ok("healthz");
    let cache = health.get("cache").unwrap();
    let misses = cache.get("misses").unwrap().as_f64().unwrap();
    let hits = cache.get("hits").unwrap().as_f64().unwrap();
    let coalesced = cache.get("coalesced").unwrap().as_f64().unwrap();
    assert_eq!(
        misses,
        1.0,
        "exactly one engine computation: {}",
        health.to_text()
    );
    assert_eq!(
        hits + coalesced,
        (n - 1) as f64,
        "everyone else shared it: {}",
        health.to_text()
    );

    service.shutdown();
}

/// The evented core's scaling claim from a client's side: a keep-alive
/// connection held open amid 200 parked idle peers (far more than the
/// one event loop + 2 dispatch threads) answers the batch exactly as a fresh
/// connection does, and every slot is reclaimed once the peers hang up.
#[test]
fn held_keepalive_connection_answers_like_a_fresh_one_amid_an_idle_crowd() {
    use shapesearch::server::PooledClient;
    use std::net::TcpStream;
    use std::sync::atomic::Ordering;
    use std::time::{Duration, Instant};

    let service = boot(with_workers(2));
    let addr = service.addr();
    let fresh = Client::new(addr);
    register_market(&fresh, &[]);
    let conns = std::sync::Arc::clone(&service.state().conn_stats);
    fn wait_for(what: &str, done: impl Fn() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !done() {
            assert!(Instant::now() < deadline, "timed out waiting for {what}");
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    let batch = json::Json::Arr(vec![
        query_body("market", "[p=up][p=down]", 4),
        query_body("market", "[p=down][p=up]", 3),
    ]);
    let answers = |reply: json::Json| -> Vec<String> {
        let responses = reply.get("responses").unwrap().as_array().unwrap();
        responses.iter().map(results_text).collect()
    };

    // The cold batch opens the connection the pooled client then holds.
    let held = PooledClient::new();
    let endpoint = addr.to_string();
    let ask_held = || held.post(&endpoint, "/query", &batch).unwrap();
    let cold = answers(ask_held().expect_ok("cold batch"));
    assert!(cold.iter().all(|results| results != "[]"));

    // Park the crowd in waves the listen backlog can hold.
    let mut crowd: Vec<TcpStream> = Vec::with_capacity(200);
    while crowd.len() < 200 {
        let accepted = conns.accepted_total.load(Ordering::Relaxed);
        crowd.extend((0..50).map(|_| TcpStream::connect(addr).unwrap()));
        wait_for("the wave's accepts", || {
            conns.accepted_total.load(Ordering::Relaxed) == accepted + 50
        });
    }
    wait_for("the crowd and the held connection to park", || {
        conns.active.load(Ordering::Relaxed) == 201
            && conns.idle_keepalive.load(Ordering::Relaxed) == 201
    });

    // Through the held connection (no new accept), then on a fresh one.
    let accepted = conns.accepted_total.load(Ordering::Relaxed);
    let through_held = answers(ask_held().expect_ok("held batch"));
    assert_eq!(conns.accepted_total.load(Ordering::Relaxed), accepted);
    let through_fresh = answers(
        fresh
            .post("/query", &batch)
            .unwrap()
            .expect_ok("fresh batch"),
    );
    assert_eq!(conns.accepted_total.load(Ordering::Relaxed), accepted + 1);
    assert_eq!(through_held, through_fresh);
    assert_eq!(through_held, cold);

    drop(crowd);
    drop(held);
    wait_for("every slot to drain", || {
        conns.active.load(Ordering::Relaxed) == 0
    });
    service.shutdown();
}

#[test]
fn errors_surface_with_proper_statuses() {
    let service = boot(ServerConfig::default());
    let client = Client::new(service.addr());

    let miss = client
        .post("/query", &query_body("ghost", "[p=up]", 10))
        .unwrap();
    assert_eq!(miss.status, 404);

    let bad = client
        .post(
            "/datasets",
            &json::parse(r#"{"name":"x","csv":"a,b\n1,2\n","z":"nope","x":"a","y":"b"}"#).unwrap(),
        )
        .unwrap();
    assert_eq!(bad.status, 400);
    assert!(bad.body.get("error").is_some());

    service.shutdown();
}

/// `k` is taken from the request as it arrives, so a hostile one must
/// cost nothing: `"k":1e15` — and `1e300`, which saturates to
/// `usize::MAX` — answers 200 with every admissible candidate (the
/// `k` = collection size answer) as a single query, inside a batch, and
/// through a router's `/shard/query` hop, and every server keeps serving
/// afterwards. (Sized from `k`, the top-k heap's allocation failure
/// aborted the whole process.)
#[test]
fn huge_k_returns_every_candidate_and_the_server_keeps_serving() {
    let config = || ServerConfig {
        workers: 2,
        shards: 2,
        ..ServerConfig::default()
    };
    let (local, shard, router) = (boot(config()), boot(config()), boot(config()));
    let local_client = Client::new(local.addr());
    register_market(&local_client, &[]);
    register_market(&Client::new(shard.addr()), &[("shard_of", "1/2".into())]);
    let router_client = Client::new(router.addr());
    let placement = json::Json::Arr(vec![json::Json::Null, shard.addr().to_string().into()]);
    register_market(&router_client, &[("shard_endpoints", placement)]);

    let item = |k: f64| {
        json::obj([
            ("dataset", "market".into()),
            ("query", "[p=up][p=down]".into()),
            ("k", k.into()),
        ])
    };
    let whole = local_client
        .post("/query", &item(MARKET_SERIES as f64))
        .unwrap()
        .expect_ok("k = collection size");
    let want = whole.get("results").unwrap().as_array().unwrap().to_vec();
    assert!(
        want.len() > MARKET_SERIES / 2,
        "most of the market admits up-down"
    );
    let want_text = |n: usize| json::Json::Arr(want[..n].to_vec()).to_text();

    for k in [1e15, 1e300] {
        for (client, shape) in [(&local_client, "single"), (&router_client, "router")] {
            let reply = client
                .post("/query", &item(k))
                .unwrap()
                .expect_ok(&format!("{shape} k={k:e}"));
            assert_eq!(
                results_text(&reply),
                want_text(want.len()),
                "{shape} k={k:e}"
            );
        }
        let batch = json::Json::Arr(vec![item(k), item(3.0)]);
        let reply = local_client
            .post("/query", &batch)
            .unwrap()
            .expect_ok(&format!("batch k={k:e}"));
        let responses = reply.get("responses").unwrap().as_array().unwrap();
        assert_eq!(
            results_text(&responses[0]),
            want_text(want.len()),
            "batch k={k:e}"
        );
        assert_eq!(results_text(&responses[1]), want_text(3));
    }
    // The other end of the range asks for nothing and gets it.
    for (client, shape) in [(&local_client, "single"), (&router_client, "router")] {
        let reply = client.post("/query", &item(0.0)).unwrap().expect_ok(shape);
        assert_eq!(results_text(&reply), "[]", "{shape} k=0");
    }
    // The router really crossed the wire with it.
    let health = router_client.get("/healthz").unwrap().expect_ok("healthz");
    let remote = health.get("remote_shards").unwrap();
    assert!(remote.get("requests").unwrap().as_usize().unwrap() >= 2);
    assert_eq!(remote.get("errors").unwrap().as_usize(), Some(0));
    for service in [local, shard, router] {
        Client::new(service.addr())
            .get("/healthz")
            .unwrap()
            .expect_ok("healthz after a huge k");
        service.shutdown();
    }
}

/// Query text is parsed by recursive descent on a worker's stack, so how
/// deep it nests must be the parser's decision: 3,000 levels of
/// parentheses (a 6 KB body) or of `!` are a 400 from `/query` and from
/// `/shard/query`, and the server answers the next request as if nothing
/// had happened. (Followed all the way down, they overflowed the worker's
/// stack and the process was gone.)
#[test]
fn deeply_nested_query_text_is_refused_and_the_server_keeps_serving() {
    let service = boot(ServerConfig::default());
    let client = Client::new(service.addr());
    register_market(&client, &[]);

    let fine = "[p=up][p=down]";
    let rpc = protocol::shard_request_to_json(
        "market",
        &[(parse_regex(fine).unwrap(), 1)],
        &[None],
        &shapesearch_core::EngineOptions::default(),
        None,
    )
    .to_text();
    let levels = 3_000;
    let hostile = [
        format!("{}[p=up]{}", "(".repeat(levels), ")".repeat(levels)),
        format!("{}[p=up]", "!".repeat(levels)),
        format!("{}[p=up]{}", "[p=[".repeat(levels), "]]".repeat(levels)),
    ];
    for text in &hostile {
        let single = query_body("market", text, 1);
        let shard = json::parse(&rpc.replace(fine, text)).unwrap();
        for (path, body) in [("/query", &single), ("/shard/query", &shard)] {
            let refused = client.post(path, body).unwrap();
            assert_eq!(refused.status, 400, "{path}: {}", refused.body.to_text());
            let error = refused.body.get("error").unwrap().as_str().unwrap();
            assert!(error.contains("nests deeper"), "{path}: {error}");
        }
        client
            .get("/healthz")
            .unwrap()
            .expect_ok("healthz after a hostile query");
        let reply = client
            .post("/query", &query_body("market", fine, 3))
            .unwrap()
            .expect_ok("an ordinary query after a hostile one");
        let results = reply.get("results").unwrap().as_array().unwrap();
        assert_eq!(results.len(), 3);
    }

    service.shutdown();
}

/// ssbench's `fuzzy_miss` in small, served: a three-unit fuzzy chain over
/// random walks on four shards. No whole-trendline bound prunes a walk;
/// the end-anchored one does, and not a byte of the answer may show it.
#[test]
fn anchored_bounds_prune_served_walks_without_changing_a_byte() {
    let service = boot(with_workers(4));
    let client = Client::new(service.addr());

    use rand::{rngs::StdRng, SeedableRng};
    use shapesearch::datagen::generators::{random_walk, with_index_x};
    let mut rng = StdRng::seed_from_u64(21);
    let walks: Vec<(String, Vec<(f64, f64)>)> = (0..160)
        .map(|i| {
            let ys = random_walk(&mut rng, 48, 0.0, 1.0);
            (format!("walk{i:03}"), with_index_x(&ys))
        })
        .collect();
    let csv = csv::write_str(&table_from_series("z", "x", "y", &walks));
    // Registering again bumps the generation, so each query below is
    // computed: the pruning mode is not part of the cache key.
    let register_walks = || {
        let reply = register(&client, "walks", &csv, &[("shards", 4usize.into())]);
        let reply = reply.expect_ok("register");
        assert_eq!(reply.get("shards").unwrap().as_usize(), Some(4));
    };
    let ask = |extra: &str| {
        let body = format!(
            r#"{{"dataset":"walks","query":"[p=45][p=-30][p=60]","k":5,"explain":true{extra}}}"#
        );
        let reply = client
            .post("/query", &json::parse(&body).unwrap())
            .unwrap()
            .expect_ok("query");
        assert_eq!(reply.get("cached").unwrap().as_bool(), Some(false));
        let counter = |name: &str| {
            let pruning = reply.get("trace").unwrap().get("pruning").unwrap();
            pruning.get(name).unwrap().as_usize().unwrap()
        };
        let counters = ["bounded", "pruned", "scored", "refined", "joined"].map(counter);
        (results_text(&reply), counters)
    };

    register_walks();
    let (want, off) = ask(r#","pruning":"off""#);
    assert_eq!(off, [0, 0, 0, 0, 0]);
    register_walks();
    let (got, [bounded, pruned, scored, refined, joined]) = ask("");
    assert_eq!(got, want);
    assert!(pruned > 0, "pruned {pruned}, refined {refined}");
    assert_eq!((bounded, pruned + scored), (160, 160));
    assert!(pruned <= refined && refined <= bounded);
    assert!(
        0 < joined && joined <= refined,
        "joined {joined}, refined {refined}"
    );

    service.shutdown();
}
