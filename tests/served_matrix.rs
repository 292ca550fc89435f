//! The served execution-shape matrix: over real sockets, a query has one
//! answer whatever serves it. A draw — a corpus and 1–4 query texts from
//! the shared grammar (`crates/core/tests/support`), with k and push-down
//! drawn — must return the referee's bytes from every shape:
//!
//! * a server's own engines, 1, 3 and 4 shards;
//! * a `snapshot` registration of the same trendlines, cut in two;
//! * a router over two `shard_of` servers, every slot remote, and one
//!   remote slot beside a local one;
//! * a router whose remote slot lists a dead endpoint, or a [`ChaosProxy`]
//!   resetting every connection, before its live replica.
//!
//! Each shape runs with pruning off and auto, each query alone and all of
//! them in one batch, cold; the same requests again must be cache hits
//! with the same bytes (the batch's items then carry a `"parallel"` key,
//! which nothing reads), and every answer reports one shard per slot.
//! A corpus of fewer than two trendlines has no second partition: its
//! `shard_of` 1/2 and every two-slot placement are refused with a 400.
//!
//! The referee is an in-process engine, one shard, pruning off, over the
//! CSV text the servers were sent (`csv::read_str` + `extract`); its
//! answer is rendered by `protocol::results_to_json`. Past regressions
//! stay as fixed draws below.

#[allow(dead_code)]
#[path = "../crates/server/tests/support/chaos.rs"]
mod chaos;
#[path = "support/served.rs"]
mod served;
#[path = "../crates/core/tests/support/mod.rs"]
mod support;

use chaos::{ChaosMode, ChaosProxy};
use proptest::prelude::*;
use served::{boot, dead_endpoint, endpoints_json, market_csv, query_body, register, spliced};
use shapesearch::server::json::{self, Json};
use shapesearch::server::{protocol, Client, ServerConfig, Service};
use shapesearch_core::{
    partition_bounds_by_points, snapshot, EngineOptions, PruningMode, ShapeEngine, ShapeQuery,
};
use shapesearch_datastore::{
    csv, extract, table_from_series, ExtractOptions, Trendline, VisualSpec,
};
use shapesearch_parser::parse_regex;
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};
use support::{corpus, query, unique_path, CASES};

/// The servers every draw meets, booted once and taken in turn: `local`
/// answers from its own engines (snapshots under the temp directory
/// included), each of `halves` owns one `shard_of` half, and `router`
/// places its slots on them.
struct Topology {
    local: Client,
    halves: [Client; 2],
    half_endpoints: [String; 2],
    router: Client,
    _services: Vec<Service>,
}

fn topology() -> MutexGuard<'static, Topology> {
    static TOPOLOGY: OnceLock<Mutex<Topology>> = OnceLock::new();
    let topology = TOPOLOGY.get_or_init(|| {
        let services: Vec<Service> = [Some(std::env::temp_dir()), None, None, None]
            .into_iter()
            .map(|data_root| {
                boot(ServerConfig {
                    workers: 2,
                    data_root,
                    // Guards against a hang; no shape waits on either.
                    shard_connect_timeout_ms: 1_000,
                    shard_io_timeout_ms: 10_000,
                    ..ServerConfig::default()
                })
            })
            .collect();
        let client = |i: usize| Client::new(services[i].addr());
        Mutex::new(Topology {
            local: client(0),
            halves: [client(1), client(2)],
            half_endpoints: [1, 2].map(|i| services[i].addr().to_string()),
            router: client(3),
            _services: services,
        })
    });
    topology.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One draw: the CSV text every server is sent, and what is asked of it.
struct Draw {
    csv: String,
    queries: Vec<String>,
    k: usize,
    pushdown: bool,
}

impl Draw {
    /// `queries` rendered as text, each once, in draw order.
    fn new(trendlines: &[Trendline], queries: &[ShapeQuery], k: usize, pushdown: bool) -> Self {
        let series: Vec<(String, Vec<(f64, f64)>)> = trendlines
            .iter()
            .map(|t| (t.key.clone(), t.points.iter().map(|p| (p.x, p.y)).collect()))
            .collect();
        let mut texts: Vec<String> = Vec::new();
        for text in queries.iter().map(ShapeQuery::to_string) {
            if !texts.contains(&text) {
                texts.push(text);
            }
        }
        Self {
            csv: csv::write_str(&table_from_series("z", "x", "y", &series)),
            queries: texts,
            k,
            pushdown,
        }
    }
}

/// The referee's view of a draw: the trendlines the CSV extracts to and,
/// per query, its answer as [`outcome`] renders a served one.
struct Referee {
    trendlines: Vec<Trendline>,
    want: Vec<String>,
}

impl Referee {
    fn new(draw: &Draw) -> Self {
        let table = csv::read_str(&draw.csv).expect("a drawn CSV reads");
        let spec = VisualSpec::new("z", "x", "y");
        let trendlines = extract(&table, &spec, &ExtractOptions::default()).unwrap();
        let mut engine =
            ShapeEngine::from_trendlines(trendlines.clone()).with_options(EngineOptions {
                pruning_mode: PruningMode::Off,
                pushdown: draw.pushdown,
                ..EngineOptions::default()
            });
        engine.register_builtin_udps();
        let want = draw
            .queries
            .iter()
            .map(|text| match parse_regex(text) {
                Err(e) => format!("400 query parse error: {e}"),
                Ok(q) => match engine.top_k(&q, draw.k) {
                    Ok(results) => protocol::results_to_json(&results).to_text(),
                    Err(e) => format!("400 query failed: {e}"),
                },
            })
            .collect();
        Self { trendlines, want }
    }

    /// Slots a registration asking for `shards` gets.
    fn slots(&self, shards: usize) -> usize {
        let counts: Vec<usize> = self.trendlines.iter().map(|t| t.points.len()).collect();
        partition_bounds_by_points(&counts, shards).len()
    }
}

/// A served answer (a reply of `status`, or a batch slot) as the referee
/// renders one: the `results` text, or the status and the error.
fn outcome(status: usize, reply: &Json) -> String {
    match reply.get("results") {
        Some(results) if status == 200 => results.to_text(),
        _ => {
            let error = reply.get("error").and_then(Json::as_str);
            format!("{status} {}", error.unwrap_or("(no error text)"))
        }
    }
}

/// A 200 answer's envelope: cached exactly when it is the repeat, one
/// shard per slot, and per-shard timings on a computed single reply only.
fn envelope(
    reply: &Json,
    hit: bool,
    slots: usize,
    single: bool,
    at: &str,
) -> Result<(), TestCaseError> {
    let cached = reply.get("cached").and_then(Json::as_bool);
    let shards = reply.get("shards").and_then(Json::as_usize);
    let timings = reply.get("shard_micros").and_then(Json::as_array);
    let want = (Some(hit), Some(slots), (single && !hit).then_some(slots));
    let got = (cached, shards, timings.map(<[Json]>::len));
    prop_assert_eq!(got, want, "{}: {}", at, reply.to_text());
    Ok(())
}

/// One way of serving the draw's dataset `d`.
struct Shape<'a> {
    name: &'static str,
    server: &'a Client,
    /// Registration keys past the CSV source, or `None` for a snapshot
    /// of the referee's trendlines, cut in two.
    layout: Option<Vec<(&'static str, Json)>>,
    /// Slots the registration must report: `None` when it must be
    /// refused.
    slots: Option<usize>,
    local_slots: usize,
}

impl Shape<'_> {
    fn register(&self, draw: &Draw, referee: &Referee) -> Result<(), TestCaseError> {
        let reply = match &self.layout {
            Some(layout) => register(self.server, "d", &draw.csv, layout),
            None => {
                let path = unique_path();
                snapshot::write(&path, &referee.trendlines).unwrap();
                let body = json::obj([
                    ("name", "d".into()),
                    ("id", "d".into()),
                    ("snapshot", path.display().to_string().into()),
                    ("shards", 2usize.into()),
                ]);
                let reply = self.server.post("/datasets", &body).unwrap();
                std::fs::remove_file(&path).ok();
                reply
            }
        };
        let at = format!("{}: {}", self.name, reply.body.to_text());
        let Some(slots) = self.slots else {
            prop_assert_eq!(reply.status, 400, "{}", at);
            return Ok(());
        };
        prop_assert_eq!(reply.status, 201, "{}", at);
        let shards = reply.body.get("shards").and_then(Json::as_usize);
        let snapshot = reply.body.get("snapshot").and_then(Json::as_bool);
        let want = (Some(slots), self.layout.is_none().then_some(true));
        prop_assert_eq!((shards, snapshot), want, "{}", at);
        Ok(())
    }

    /// Runs the draw on this shape: pruning off and auto, each query
    /// alone and the whole draw in a batch, cold and then hit.
    fn run(&self, draw: &Draw, referee: &Referee) -> Result<(), TestCaseError> {
        let Some(slots) = self.slots else {
            return self.register(draw, referee);
        };
        let gauge = |name: &str| {
            let health = self.server.get("/healthz").unwrap().expect_ok("healthz");
            health.get("shards").unwrap().get(name).unwrap().as_usize()
        };
        let tasks_before = gauge("tasks").unwrap();
        // Nothing reads `parallel`, whatever its value: the repeated batch
        // carrying it is the same cache entry.
        for (pruning, parallel) in [("off", Json::Bool(true)), ("auto", 0usize.into())] {
            let extras = [
                ("pruning", pruning.into()),
                ("pushdown", draw.pushdown.into()),
            ];
            let item = |q: &str| spliced(query_body("d", q, draw.k), &extras);
            let at = |how: &str| format!("{}, pruning {pruning}, {how}, k {}", self.name, draw.k);
            // Re-registering bumps the generation: the first ask is cold.
            self.register(draw, referee)?;
            prop_assert_eq!(gauge("dataset_shards"), Some(slots), "{}", self.name);
            for (q, want) in draw.queries.iter().zip(&referee.want) {
                for (hit, how) in [(false, "alone"), (true, "alone, hit")] {
                    let reply = self.server.post("/query", &item(q)).unwrap();
                    let got = outcome(usize::from(reply.status), &reply.body);
                    prop_assert_eq!(&got, want, "{}: {}", at(how), q);
                    if reply.status == 200 {
                        envelope(&reply.body, hit, slots, true, &at(how))?;
                    }
                }
            }
            self.register(draw, referee)?;
            let parallel = [("parallel", parallel)];
            for (hit, how) in [(false, "batched"), (true, "batched, hit")] {
                let items = draw.queries.iter().map(|q| match hit {
                    false => item(q),
                    true => spliced(item(q), &parallel),
                });
                let reply = self.server.query_batch(items.collect()).unwrap();
                let reply = reply.expect_ok(&at(how));
                let responses = reply.get("responses").and_then(Json::as_array).unwrap();
                prop_assert_eq!(responses.len(), draw.queries.len());
                for ((slot, want), q) in responses.iter().zip(&referee.want).zip(&draw.queries) {
                    let status = slot.get("status").map_or(200, |s| s.as_usize().unwrap());
                    prop_assert_eq!(&outcome(status, slot), want, "{}: {}", at(how), q);
                    if status == 200 {
                        envelope(slot, hit, slots, false, &at(how))?;
                    }
                }
            }
        }
        // Every cold answer ran a task on each local slot.
        if referee.want.iter().any(|w| w.starts_with('[')) {
            let tasks = gauge("tasks").unwrap();
            prop_assert!(tasks >= tasks_before + self.local_slots, "{}", self.name);
        }
        Ok(())
    }
}

/// Every shape must answer the draw as the referee does; the referee's
/// answers, for the fixed draws to look into.
fn check(topology: &Topology, draw: &Draw) -> Result<Vec<String>, TestCaseError> {
    let referee = Referee::new(draw);
    // A two-slot placement needs a second partition, or is refused.
    let halved = (referee.slots(2) == 2).then_some(2);
    for (i, half) in topology.halves.iter().enumerate() {
        let reply = register(
            half,
            "d",
            &draw.csv,
            &[("shard_of", format!("{i}/2").into())],
        );
        let shard_of = format!("{i}/2");
        let want = if i == 0 || halved.is_some() { 201 } else { 400 };
        prop_assert_eq!(
            reply.status,
            want,
            "shard_of {}: {}",
            shard_of,
            reply.body.to_text()
        );
        if want == 201 {
            let echoed = reply.body.get("shard_of").and_then(Json::as_str);
            prop_assert_eq!(echoed, Some(shard_of.as_str()));
        }
    }

    let [left, right] = topology.half_endpoints.clone();
    let resetting = ChaosProxy::start(&left).unwrap();
    resetting.set_mode(ChaosMode::Reset);
    let local = |name, shards: usize| Shape {
        name,
        server: &topology.local,
        layout: Some(vec![("shards", shards.into())]),
        slots: Some(referee.slots(shards)),
        local_slots: referee.slots(shards),
    };
    let routed = |name, slots: Vec<Vec<String>>| Shape {
        name,
        server: &topology.router,
        local_slots: slots.iter().filter(|replicas| replicas.is_empty()).count(),
        layout: Some(vec![("shard_endpoints", endpoints_json(&slots))]),
        slots: halved,
    };
    let shapes = [
        local("1 shard", 1),
        local("3 shards", 3),
        local("4 shards", 4),
        Shape {
            layout: None,
            ..local("snapshot, 2 shards", 2)
        },
        routed("all remote", vec![vec![left.clone()], vec![right.clone()]]),
        routed("mixed", vec![vec![left.clone()], vec![]]),
        routed(
            "dead replica first",
            vec![vec![], vec![dead_endpoint(), right.clone()]],
        ),
        routed(
            "resetting replica first",
            vec![vec![resetting.endpoint(), left], vec![right]],
        ),
    ];
    for shape in &shapes {
        shape.run(draw, &referee)?;
    }
    Ok(referee.want)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    #[test]
    fn every_served_shape_returns_the_referee_bytes(
        trendlines in corpus(),
        queries in proptest::collection::vec(query(), 1..5),
        k in prop_oneof![1usize..8, Just(50)],
        pushdown in 0u8..2,
    ) {
        let draw = Draw::new(&trendlines, &queries, k, pushdown == 1);
        check(&topology(), &draw)?;
    }
}

/// A fixed draw: `csv` asked `queries` at `k`.
fn fixed(
    topology: &Topology,
    csv: String,
    queries: &[&str],
    k: usize,
    pushdown: bool,
) -> Vec<String> {
    let queries = queries.iter().map(|q| (*q).to_owned()).collect();
    let draw = Draw {
        csv,
        queries,
        k,
        pushdown,
    };
    check(topology, &draw).unwrap_or_else(|e| panic!("{e}"))
}

/// A located answer's `ranges` are positions on the full canvas — the
/// points a front-end overlays — in every shape, push-down on or off. On
/// the market's integer x axis an on-grid pin is its own index, and an
/// off-grid pin snaps to the nearest point of the whole trendline. Both
/// pruning tiers ran on the router and on a shard server.
#[test]
fn located_ranges_are_canvas_positions_in_every_execution_shape() {
    let cases = [
        (
            "[x.s=30, x.e=50, p=up][x.s=50, x.e=100, p=down]",
            "[[30,50],[50,100]]",
        ),
        ("[x.s=10.4, x.e=40.6, p=up]", "[[10,41]]"),
    ];
    let pruning = |client: &Client| {
        let health = client.get("/healthz").unwrap().expect_ok("healthz");
        let pruning = health.get("pruning").unwrap();
        ["bounded", "scored"].map(|c| pruning.get(c).unwrap().as_usize().unwrap())
    };
    let topology = topology();
    let before = [pruning(&topology.router), pruning(&topology.halves[0])];
    for pushdown in [true, false] {
        let queries = cases.map(|(q, _)| q);
        let answers = fixed(&topology, market_csv(), &queries, 5, pushdown);
        for (answer, (q, ranges)) in answers.iter().zip(cases) {
            let results = json::parse(answer).unwrap();
            let results = results.as_array().unwrap();
            assert_eq!(results.len(), 5, "{q}");
            for r in results {
                assert_eq!(r.get("ranges").unwrap().to_text(), ranges, "{q}");
            }
        }
    }
    let after = [pruning(&topology.router), pruning(&topology.halves[0])];
    for (who, (before, after)) in ["router", "shard server"]
        .iter()
        .zip(before.iter().zip(after))
    {
        assert!(after[0] > before[0], "{who} never computed a bound");
        assert!(after[1] > before[1], "{who} never scored under pruning");
    }
}

/// One trendline, or none: no second partition, so `shard_of` 1/2 and
/// every two-slot placement are refused, while the local shapes answer.
#[test]
fn fewer_than_two_trendlines_refuse_a_second_partition() {
    let topology = topology();
    for (csv, want) in [
        ("z,x,y\na,1,1\na,2,3\na,3,2\n", r#"[{"key":"a","#),
        ("z,x,y\n", "[]"),
    ] {
        let answers = fixed(&topology, csv.into(), &["[p=up][p=down]"], 2, true);
        assert!(answers[0].starts_with(want), "{answers:?}");
    }
}
