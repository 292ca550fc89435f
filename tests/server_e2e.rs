//! End-to-end tests of the `shapesearch serve` subsystem: boot the
//! service on an ephemeral port, register a dataset over HTTP, and check
//! that (a) concurrent clients get exactly the in-process engine's
//! answers, (b) the result cache turns the second identical query into a
//! hit that is measurably faster than the cold run, and (c) the health
//! endpoint exposes the counters.

use shapesearch::prelude::*;
use shapesearch::server::{json, Client, ServerConfig};
use shapesearch_core::TopKResult;
use shapesearch_datastore::{csv, extract, table_from_series, ExtractOptions, Table};

/// A deterministic synthetic market: enough series × points that a cold
/// tree-segmentation query takes real work, with varied shapes so top-k
/// is discriminative.
fn market_table() -> Table {
    let n_series = 48;
    let n_points = 240;
    let series: Vec<(String, Vec<(f64, f64)>)> = (0..n_series)
        .map(|s| {
            let phase = s as f64 * 0.37;
            let freq = 0.02 + (s % 7) as f64 * 0.013;
            let drift = ((s % 5) as f64 - 2.0) * 0.004;
            let points = (0..n_points)
                .map(|i| {
                    let t = i as f64;
                    let y = (t * freq + phase).sin() * 2.0 + (t * 0.005 + phase).cos() + drift * t;
                    (t, y)
                })
                .collect();
            (format!("series{s:02}"), points)
        })
        .collect();
    table_from_series("ticker", "day", "price", &series)
}

fn register_market(client: &Client) {
    register_market_sharded(client, None);
}

/// Registers the market dataset, optionally pinning an engine shard
/// count (None = the server's default).
fn register_market_sharded(client: &Client, shards: Option<usize>) {
    let extras = shards.map(|n| ("shards".to_owned(), n.into()));
    let reply = register_market_with(client, extras.into_iter().collect());
    assert_eq!(reply.get("trendlines").unwrap().as_usize(), Some(48));
    if let Some(shards) = shards {
        assert_eq!(reply.get("shards").unwrap().as_usize(), Some(shards));
    }
}

/// Registers the market dataset with `extras` spliced into the
/// registration object (`"shards"`, `"shard_of"`, `"shard_endpoints"`);
/// returns the 201 summary.
fn register_market_with(client: &Client, extras: Vec<(String, json::Json)>) -> json::Json {
    let table = market_table();
    let mut fields = vec![
        ("name".into(), "market".into()),
        ("id".into(), "market".into()),
        ("csv".into(), csv::write_str(&table).into()),
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

/// Decodes a `/query` response's `results` array into `TopKResult`s.
fn decode_results(reply: &json::Json) -> Vec<TopKResult> {
    reply
        .get("results")
        .and_then(json::Json::as_array)
        .expect("results array")
        .iter()
        .map(|r| TopKResult {
            key: r.get("key").unwrap().as_str().unwrap().to_owned(),
            score: r.get("score").unwrap().as_f64().unwrap(),
            viz_index: r.get("viz_index").unwrap().as_usize().unwrap(),
            ranges: r
                .get("ranges")
                .unwrap()
                .as_array()
                .unwrap()
                .iter()
                .map(|pair| {
                    let pair = pair.as_array().unwrap();
                    (pair[0].as_usize().unwrap(), pair[1].as_usize().unwrap())
                })
                .collect(),
        })
        .collect()
}

fn query_body(query: &str, k: usize) -> json::Json {
    json::parse(&format!(
        r#"{{"dataset":"market","query":"{}","k":{k}}}"#,
        query.replace('\\', "\\\\").replace('"', "\\\"")
    ))
    .unwrap()
}

#[test]
fn concurrent_clients_match_in_process_engine_and_cache_accelerates() {
    let service = shapesearch::server::serve(
        "127.0.0.1:0",
        ServerConfig {
            workers: 4,
            cache_capacity: 64,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = service.addr();
    let client = Client::new(addr);
    register_market(&client);

    // Listing shows the dataset.
    let listing = client.get("/datasets").unwrap().expect_ok("list");
    let datasets = listing.get("datasets").unwrap().as_array().unwrap();
    assert_eq!(datasets.len(), 1);
    assert_eq!(datasets[0].get("id").unwrap().as_str(), Some("market"));

    // In-process reference answers, computed from the same table.
    let table = market_table();
    let spec = VisualSpec::new("ticker", "day", "price");
    let engine = ShapeEngine::new(&table, &spec).unwrap();
    let queries = [
        ("[p=up][p=down]", 10),
        ("[p=down][p=up]", 7),
        ("[p=up][p=flat][p=down]", 5),
    ];
    let expected: Vec<Vec<TopKResult>> = queries
        .iter()
        .map(|(q, k)| engine.top_k(&parse_regex(q).unwrap(), *k).unwrap())
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
                        .post("/query", &query_body(q, *k))
                        .unwrap()
                        .expect_ok(&format!("worker {worker} query {q}"));
                    let got = decode_results(&reply);
                    assert_eq!(&got, want, "worker {worker} query {q} diverged");
                }
            });
        }
    });

    // Cold vs warm: a fresh query text (normalizes to a new AST) misses
    // once, then hits. (How much faster a hit is than a miss is
    // `ssbench`'s `hot_hits` vs `*_miss` comparison — tier-1 carries no
    // timing assertions.)
    let body = query_body("[p=up][p=down][p=up]", 9);
    let cold = client.post("/query", &body).unwrap().expect_ok("cold");
    assert_eq!(cold.get("cached").unwrap().as_bool(), Some(false));
    for _ in 0..3 {
        let warm = client.post("/query", &body).unwrap().expect_ok("warm");
        assert_eq!(warm.get("cached").unwrap().as_bool(), Some(true));
        // The warm answer is byte-identical to the cold one.
        assert_eq!(decode_results(&cold), decode_results(&warm));
    }

    // Whitespace variants of one query normalize onto the same entry.
    let variant = client
        .post(
            "/query",
            &query_body(" [ p = up ] [ p = down ] [ p = up ] ", 9),
        )
        .unwrap()
        .expect_ok("variant");
    assert_eq!(variant.get("cached").unwrap().as_bool(), Some(true));

    // Health counters saw all of it.
    let health = client.get("/healthz").unwrap().expect_ok("healthz");
    assert_eq!(health.get("status").unwrap().as_str(), Some("ok"));
    assert_eq!(health.get("datasets").unwrap().as_usize(), Some(1));
    let cache = health.get("cache").unwrap();
    let hits = cache.get("hits").unwrap().as_f64().unwrap();
    let misses = cache.get("misses").unwrap().as_f64().unwrap();
    let coalesced = cache.get("coalesced").unwrap().as_f64().unwrap();
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
    let service = shapesearch::server::serve("127.0.0.1:0", ServerConfig::default()).unwrap();
    let client = Client::new(service.addr());
    register_market(&client);

    let nl = json::parse(r#"{"dataset":"market","nl":"rising then falling","k":4}"#).unwrap();
    let reply = client.post("/query", &nl).unwrap().expect_ok("nl");
    let canonical = reply.get("query").unwrap().as_str().unwrap().to_owned();
    assert!(!decode_results(&reply).is_empty());

    // Re-issuing the *canonical regex* of the NL query hits the cache:
    // both front-ends share one normalized AST keyspace.
    let as_regex = client
        .post("/query", &query_body(&canonical, 4))
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
    let service = shapesearch::server::serve(
        "127.0.0.1:0",
        ServerConfig {
            workers: 8,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = service.addr();
    register_market(&Client::new(addr));

    let n = 6u64;
    let bodies: Vec<json::Json> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..n)
            .map(|worker| {
                scope.spawn(move || {
                    Client::new(addr)
                        .post("/query", &query_body("[p=up][p=down][p=up][p=down]", 8))
                        .unwrap()
                        .expect_ok(&format!("stampede worker {worker}"))
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let reference = decode_results(&bodies[0]);
    assert!(!reference.is_empty());
    for body in &bodies {
        assert_eq!(decode_results(body), reference, "divergent stampede result");
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

/// Ten distinct cold queries, per-item. Used both as the sequential
/// reference and as the batch payload.
fn bench_queries() -> Vec<(String, usize)> {
    [
        "[p=up][p=down]",
        "[p=down][p=up]",
        "[p=up][p=flat]",
        "[p=flat][p=up]",
        "[p=down][p=flat]",
        "[p=flat][p=down]",
        "[p=up][p=down][p=up]",
        "[p=down][p=up][p=down]",
        "[p=up][p=flat][p=down]",
        "[p=down][p=flat][p=up]",
    ]
    .iter()
    .enumerate()
    .map(|(i, q)| (q.to_string(), 3 + i % 5))
    .collect()
}

fn batch_item(query: &str, k: usize) -> json::Json {
    json::parse(&format!(
        r#"{{"dataset":"market","query":"{query}","k":{k}}}"#
    ))
    .unwrap()
}

/// Batched execution end to end: a 10-query batch returns exactly the
/// per-query answers of 10 sequential requests, and pays one HTTP round
/// trip instead of ten. (The wall-clock comparison of the two forms is
/// `ssbench`'s `mixed_batch` workload, where noise is controlled —
/// tier-1 carries no timing assertions.)
#[test]
fn batch_matches_sequential() {
    let service = shapesearch::server::serve(
        "127.0.0.1:0",
        ServerConfig {
            workers: 4,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = service.addr();
    let client = Client::new(addr);
    register_market(&client);
    let queries = bench_queries();

    // --- Correctness: sequential cold answers are the reference.
    let sequential: Vec<Vec<TopKResult>> = queries
        .iter()
        .map(|(q, k)| {
            let reply = client
                .post("/query", &query_body(q, *k))
                .unwrap()
                .expect_ok(&format!("sequential {q}"));
            assert_eq!(reply.get("cached").unwrap().as_bool(), Some(false));
            decode_results(&reply)
        })
        .collect();

    // Re-register the dataset (bumps the generation, emptying the cached
    // keyspace) so the batch also runs cold — then every item must still
    // agree with the sequential reference, computed this time through the
    // shared-GROUP batched engine path.
    register_market(&client);
    let reply = client
        .query_batch(queries.iter().map(|(q, k)| batch_item(q, *k)).collect())
        .unwrap()
        .expect_ok("batch");
    assert_eq!(reply.get("batch").unwrap().as_usize(), Some(queries.len()));
    let responses = reply.get("responses").unwrap().as_array().unwrap();
    assert_eq!(responses.len(), queries.len());
    for (item, want) in responses.iter().zip(&sequential) {
        assert_eq!(item.get("cached").unwrap().as_bool(), Some(false));
        assert_eq!(
            &decode_results(item),
            want,
            "batch diverged from sequential"
        );
    }

    service.shutdown();
}

/// The evented core's scaling claim from a client's side: a keep-alive
/// connection held open amid 200 parked idle peers (far more than the 2
/// event + 2 dispatch threads) answers the batch exactly as a fresh
/// connection does, and every slot is reclaimed once the peers hang up.
#[test]
fn held_keepalive_connection_answers_like_a_fresh_one_amid_an_idle_crowd() {
    use shapesearch::server::PooledClient;
    use std::net::TcpStream;
    use std::sync::atomic::Ordering;
    use std::time::{Duration, Instant};

    let service = shapesearch::server::serve(
        "127.0.0.1:0",
        ServerConfig {
            workers: 2,
            event_threads: 2,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = service.addr();
    let fresh = Client::new(addr);
    register_market(&fresh);
    let conns = std::sync::Arc::clone(&service.state().conn_stats);
    fn wait_for(what: &str, done: impl Fn() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !done() {
            assert!(Instant::now() < deadline, "timed out waiting for {what}");
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    let batch = json::Json::Arr(vec![
        batch_item("[p=up][p=down]", 4),
        batch_item("[p=down][p=up]", 3),
    ]);
    let answers = |reply: json::Json| -> Vec<Vec<TopKResult>> {
        let responses = reply.get("responses").unwrap().as_array().unwrap();
        responses.iter().map(decode_results).collect()
    };

    // The cold batch opens the connection the pooled client then holds.
    let held = PooledClient::new();
    let endpoint = addr.to_string();
    let ask_held = || held.post(&endpoint, "/query", &batch).unwrap();
    let cold = answers(ask_held().expect_ok("cold batch"));
    assert!(cold.iter().all(|results| !results.is_empty()));

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

/// Sharded execution end to end: a server whose datasets default to 4
/// engine shards (fanned per query across the compute pool) returns
/// exactly the answers of the unsharded in-process engine, and the
/// envelope + health endpoint report the shard structure.
#[test]
fn sharded_server_matches_in_process_engine() {
    let service = shapesearch::server::serve(
        "127.0.0.1:0",
        ServerConfig {
            workers: 4,
            shards: 4,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let client = Client::new(service.addr());
    register_market(&client);

    // The default shard count applied: the registration got 4 shards.
    let listing = client.get("/datasets").unwrap().expect_ok("list");
    let datasets = listing.get("datasets").unwrap().as_array().unwrap();
    assert_eq!(datasets[0].get("shards").unwrap().as_usize(), Some(4));

    // Reference: the plain unsharded engine over the same table.
    let table = market_table();
    let spec = VisualSpec::new("ticker", "day", "price");
    let engine = ShapeEngine::new(&table, &spec).unwrap();
    for (q, k) in [("[p=up][p=down]", 10), ("[p=down][p=flat][p=up]", 48)] {
        let want = engine.top_k(&parse_regex(q).unwrap(), k).unwrap();
        let reply = client
            .post("/query", &query_body(q, k))
            .unwrap()
            .expect_ok(&format!("sharded {q}"));
        assert_eq!(decode_results(&reply), want, "sharded run diverged on {q}");
        assert_eq!(reply.get("shards").unwrap().as_usize(), Some(4));
        assert_eq!(
            reply
                .get("shard_micros")
                .expect("cold responses carry per-shard timings")
                .as_array()
                .unwrap()
                .len(),
            4
        );
    }

    // Health reports the shard gauges consistently.
    let health = client.get("/healthz").unwrap().expect_ok("healthz");
    let shards = health.get("shards").unwrap();
    assert_eq!(shards.get("default").unwrap().as_usize(), Some(4));
    assert_eq!(shards.get("dataset_shards").unwrap().as_usize(), Some(4));
    assert!(shards.get("tasks").unwrap().as_usize().unwrap() >= 8);
    let cache = health.get("cache").unwrap();
    assert_eq!(
        cache.get("lookups").unwrap().as_usize().unwrap(),
        cache.get("hits").unwrap().as_usize().unwrap()
            + cache.get("misses").unwrap().as_usize().unwrap()
            + cache.get("coalesced").unwrap().as_usize().unwrap()
    );

    service.shutdown();
}

/// A located answer's `ranges` are positions on the full canvas — the
/// points the front-end overlays — whatever executes it: 1 or 4 shards,
/// `pushdown` on or off, alone or in a batch beside a fuzzy query. On
/// the market's integer x axis an on-grid pin is its own index, and an
/// off-grid pin snaps to the nearest point of the *whole* trendline.
#[test]
fn located_ranges_are_canvas_positions_in_every_execution_shape() {
    let service = shapesearch::server::serve(
        "127.0.0.1:0",
        ServerConfig {
            workers: 4,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let client = Client::new(service.addr());

    let spec = VisualSpec::new("ticker", "day", "price");
    let trendlines = extract(&market_table(), &spec, &ExtractOptions::default()).unwrap();
    let full = shapesearch_core::VizData::from_trendline(&trendlines[0], 0, 1).unwrap();
    let cases = [
        (
            "[x.s=30, x.e=50, p=up][x.s=50, x.e=100, p=down]",
            vec![(30, 50), (50, 100)],
        ),
        (
            "[x.s=10.4, x.e=40.6, p=up]",
            vec![(full.x_to_index(10.4), full.x_to_index(40.6))],
        ),
    ];
    assert_eq!(cases[1].1, vec![(10, 41)]);

    for (query, want_ranges) in cases {
        let mut answers: Vec<(String, Vec<TopKResult>)> = Vec::new();
        for shards in [1, 4] {
            // Re-registering bumps the generation: every run below is cold.
            register_market_sharded(&client, Some(shards));
            for pushdown in [true, false] {
                let item = json::parse(&format!(
                    r#"{{"dataset":"market","query":"{query}","k":5,"pushdown":{pushdown}}}"#
                ))
                .unwrap();
                let single = client.post("/query", &item).unwrap().expect_ok(query);
                let batch = client
                    .query_batch(vec![batch_item("[p=up][p=down]", 3), item])
                    .unwrap()
                    .expect_ok("batch");
                let in_batch = &batch.get("responses").unwrap().as_array().unwrap()[1];
                let shape = format!("{shards} shards, pushdown {pushdown}");
                answers.push((format!("{shape}, single"), decode_results(&single)));
                answers.push((format!("{shape}, batch"), decode_results(in_batch)));
            }
        }
        let (first_shape, first) = &answers[0];
        assert_eq!(first.len(), 5, "{query}");
        for (shape, got) in &answers {
            for r in got {
                assert_eq!(r.ranges, want_ranges, "{query} ({shape}): {}", r.key);
            }
            assert_eq!(got, first, "{query}: {shape} vs {first_shape}");
        }
    }

    service.shutdown();
}

/// Re-registering a dataset under a new shard count must invalidate its
/// cached results (the key carries generation *and* shard count), while
/// the recomputed answers stay identical — sharding never changes
/// results.
#[test]
fn reregistration_under_new_shard_count_invalidates_cache() {
    let service = shapesearch::server::serve("127.0.0.1:0", ServerConfig::default()).unwrap();
    let client = Client::new(service.addr());
    register_market_sharded(&client, Some(1));

    let body = query_body("[p=up][p=down]", 6);
    let cold = client.post("/query", &body).unwrap().expect_ok("cold");
    assert_eq!(cold.get("cached").unwrap().as_bool(), Some(false));
    let warm = client.post("/query", &body).unwrap().expect_ok("warm");
    assert_eq!(warm.get("cached").unwrap().as_bool(), Some(true));

    register_market_sharded(&client, Some(3));
    let fresh = client.post("/query", &body).unwrap().expect_ok("fresh");
    assert_eq!(
        fresh.get("cached").unwrap().as_bool(),
        Some(false),
        "new shard layout must recompute, not serve the old entry"
    );
    assert_eq!(fresh.get("shards").unwrap().as_usize(), Some(3));
    assert_eq!(
        decode_results(&fresh),
        decode_results(&cold),
        "resharding must not change answers"
    );

    service.shutdown();
}

#[test]
fn errors_surface_with_proper_statuses() {
    let service = shapesearch::server::serve("127.0.0.1:0", ServerConfig::default()).unwrap();
    let client = Client::new(service.addr());

    let miss = client
        .post(
            "/query",
            &json::parse(r#"{"dataset":"ghost","query":"[p=up]"}"#).unwrap(),
        )
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
    let boot = || {
        let config = ServerConfig {
            workers: 2,
            shards: 2,
            ..ServerConfig::default()
        };
        shapesearch::server::serve("127.0.0.1:0", config).unwrap()
    };
    let (local, shard, router) = (boot(), boot(), boot());
    let local_client = Client::new(local.addr());
    register_market(&local_client);
    register_market_with(
        &Client::new(shard.addr()),
        vec![("shard_of".into(), "1/2".into())],
    );
    let router_client = Client::new(router.addr());
    let placement = json::Json::Arr(vec![json::Json::Null, shard.addr().to_string().into()]);
    register_market_with(&router_client, vec![("shard_endpoints".into(), placement)]);

    let item = |k: f64| {
        json::obj([
            ("dataset", "market".into()),
            ("query", "[p=up][p=down]".into()),
            ("k", k.into()),
        ])
    };
    let want = decode_results(
        &local_client
            .post("/query", &item(48.0))
            .unwrap()
            .expect_ok("k = collection size"),
    );
    assert!(want.len() > 40, "most of the market admits up-down");

    for k in [1e15, 1e300] {
        for (client, shape) in [(&local_client, "single"), (&router_client, "router")] {
            let reply = client
                .post("/query", &item(k))
                .unwrap()
                .expect_ok(&format!("{shape} k={k:e}"));
            assert_eq!(decode_results(&reply), want, "{shape} k={k:e}");
        }
        let batch = json::Json::Arr(vec![item(k), item(3.0)]);
        let reply = local_client
            .post("/query", &batch)
            .unwrap()
            .expect_ok(&format!("batch k={k:e}"));
        let responses = reply.get("responses").unwrap().as_array().unwrap();
        assert_eq!(decode_results(&responses[0]), want, "batch k={k:e}");
        assert_eq!(decode_results(&responses[1]), want[..3]);
    }
    // The other end of the range asks for nothing and gets it.
    for (client, shape) in [(&local_client, "single"), (&router_client, "router")] {
        let reply = client.post("/query", &item(0.0)).unwrap().expect_ok(shape);
        assert_eq!(decode_results(&reply), [], "{shape} k=0");
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
    let service = shapesearch::server::serve("127.0.0.1:0", ServerConfig::default()).unwrap();
    let client = Client::new(service.addr());
    register_market(&client);

    let fine = "[p=up][p=down]";
    let rpc = shapesearch::server::protocol::shard_request_to_json(
        "market",
        &[(shapesearch_parser::parse_regex(fine).unwrap(), 1)],
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
        let single = json::obj([
            ("dataset", "market".into()),
            ("query", text.as_str().into()),
            ("k", 1usize.into()),
        ]);
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
            .post("/query", &query_body(fine, 3))
            .unwrap()
            .expect_ok("an ordinary query after a hostile one");
        assert_eq!(decode_results(&reply).len(), 3);
    }

    service.shutdown();
}

/// ssbench's `fuzzy_miss` in small, served: a three-unit fuzzy chain over
/// random walks on four shards. No whole-trendline bound prunes a walk;
/// the end-anchored one does, and not a byte of the answer may show it.
#[test]
fn anchored_bounds_prune_served_walks_without_changing_a_byte() {
    let config = ServerConfig {
        workers: 4,
        ..ServerConfig::default()
    };
    let service = shapesearch::server::serve("127.0.0.1:0", config).unwrap();
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
    let csv = csv::write_str(&table_from_series("walk", "step", "level", &walks));
    // Registering again bumps the generation, so each query below is
    // computed: the pruning mode is not part of the cache key.
    let register = || {
        let reply = client
            .post(
                "/datasets",
                &json::obj([
                    ("name", "walks".into()),
                    ("id", "walks".into()),
                    ("csv", csv.as_str().into()),
                    ("z", "walk".into()),
                    ("x", "step".into()),
                    ("y", "level".into()),
                    ("shards", 4usize.into()),
                ]),
            )
            .unwrap()
            .expect_ok("register");
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
        (reply.get("results").unwrap().to_text(), counters)
    };

    register();
    let (want, off) = ask(r#","pruning":"off""#);
    assert_eq!(off, [0, 0, 0, 0, 0]);
    register();
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
