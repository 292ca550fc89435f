//! `perf_report`: the engine performance trajectory benchmark.
//!
//! Runs a fixed, seeded workload matrix — needle-in-a-haystack and
//! common-pattern queries × {1, 4} engine shards × §6.3 pruning
//! {default-on, off} — asserts the pruned results are byte-identical to
//! the unpruned ones, and writes `BENCH_engine.json` into the current
//! directory (the repo root when run through `ci.sh`). This file is the
//! start of the perf trajectory: each CI run uploads it as an artifact,
//! so regressions have a recorded baseline to be compared against.
//!
//! ```sh
//! cargo run -p shapesearch-bench --bin perf_report --release
//! ```
//!
//! The run fails only on a wrong answer — pruned ≠ unpruned results,
//! columnar ≠ scalar bits, snapshot ≠ eager answers, a non-200 reply
//! under the idle crowd. It passes no verdict on the times it records:
//! in-process wall-clock ratios on a shared runner are noise-limited, so
//! timing verdicts belong to the benchmark driver (`BENCHMARK.json`).

use shapesearch_core::score::score_up;
use shapesearch_core::{
    group_collection, EngineOptions, NoopObserver, PruningMode, PruningSnapshot, ShapeQuery,
    ShardedEngine, SharedThresholds, StatsIndex,
};
use shapesearch_datastore::Trendline;
use shapesearch_parser::parse_regex;
use std::time::Instant;

/// Deterministic dataset seed (shared with the figure benches).
const SEED: u64 = 0x9e37_79b9_7f4a_7c15;
/// Collection size: above the engine's default auto-parallel threshold,
/// so the 1-shard rows run the default viz-level fan-out; the 4-shard
/// rows visit their ~307-trendline shards in turn on one thread.
const TRENDLINES: usize = 1228;
/// Points per trendline.
const POINTS: usize = 48;
/// Result count per query.
const K: usize = 5;
/// Timing repetitions (best-of).
const REPS: usize = 5;

/// A splitmix-ish LCG in [-1, 1).
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> f64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((self.0 >> 33) as f64) / ((1u64 << 31) as f64) - 1.0
    }
}

/// Needle-in-a-haystack: ~1 % clean peaks buried in strictly falling
/// distractors (mild deterministic curvature, no up-blips — exactly the
/// shape §6.3 prunes hardest).
fn needle_collection() -> Vec<Trendline> {
    let mut rng = Lcg(SEED);
    (0..TRENDLINES)
        .map(|i| {
            if i % 100 == 37 {
                let pairs: Vec<(f64, f64)> = (0..POINTS)
                    .map(|t| {
                        let t = t as f64;
                        let mid = POINTS as f64 / 2.0;
                        (t, if t < mid { t } else { 2.0 * mid - t })
                    })
                    .collect();
                Trendline::from_pairs(format!("needle{i}"), &pairs)
            } else {
                let steep = 0.5 + rng.next().abs();
                let pairs: Vec<(f64, f64)> = (0..POINTS)
                    .map(|t| {
                        let t = t as f64;
                        (t, -steep * t - 0.002 * t * t)
                    })
                    .collect();
                Trendline::from_pairs(format!("fall{i}"), &pairs)
            }
        })
        .collect()
}

/// Common-pattern workload: random walks where up-then-down matches
/// almost everything moderately well — bounds stay above the threshold,
/// so this measures pure pruning overhead.
fn common_collection() -> Vec<Trendline> {
    let mut rng = Lcg(SEED ^ 0x5bf0_3635);
    (0..TRENDLINES)
        .map(|i| {
            let mut y = 0.0;
            let pairs: Vec<(f64, f64)> = (0..POINTS)
                .map(|t| {
                    y += rng.next();
                    (t as f64, y)
                })
                .collect();
            Trendline::from_pairs(format!("walk{i}"), &pairs)
        })
        .collect()
}

struct Measured {
    micros: u64,
    results: String,
    pruning: PruningSnapshot,
}

/// Best-of-`REPS` wall clock of one configuration, with the counters of
/// the final rep and a canonical rendering of its results.
fn measure(
    trendlines: &[Trendline],
    shards: usize,
    mode: PruningMode,
    query: &ShapeQuery,
) -> Measured {
    let options = EngineOptions {
        pruning_mode: mode,
        ..EngineOptions::default()
    };
    let engine = ShardedEngine::from_trendlines(trendlines.to_vec(), shards);
    let mut best = u64::MAX;
    let mut last = None;
    for _ in 0..REPS {
        let shared = SharedThresholds::new(1);
        let started = Instant::now();
        let results = engine
            .top_k_batch_observed(&[(query, K)], &options, &shared, &NoopObserver)
            .pop()
            .expect("one outcome")
            .expect("query runs");
        best = best.min(started.elapsed().as_micros() as u64);
        last = Some((results, shared.snapshot()));
    }
    let (results, pruning) = last.expect("REPS > 0");
    let rendered: Vec<String> = results
        .iter()
        .map(|r| format!("{}:{}:{:?}:{:?}", r.key, r.viz_index, r.score, r.ranges))
        .collect();
    Measured {
        micros: best,
        results: rendered.join(";"),
        pruning,
    }
}

struct ConfigReport {
    shards: usize,
    on_micros: u64,
    off_micros: u64,
    speedup: f64,
    pruning: PruningSnapshot,
}

struct WorkloadReport {
    name: &'static str,
    query: &'static str,
    configs: Vec<ConfigReport>,
}

fn run_workload(
    name: &'static str,
    query_text: &'static str,
    data: &[Trendline],
) -> WorkloadReport {
    let query = parse_regex(query_text).expect("static query parses");
    let configs = [1usize, 4]
        .iter()
        .map(|&shards| {
            let on = measure(data, shards, PruningMode::Auto, &query);
            let off = measure(data, shards, PruningMode::Off, &query);
            assert_eq!(
                on.results, off.results,
                "{name} shards={shards}: pruning changed the answer"
            );
            eprintln!(
                "{name:>7} shards={shards}: pruned={:>8}µs unpruned={:>8}µs speedup={:.2}x \
                 (bounded={} pruned={} scored={} bound_micros={})",
                on.micros,
                off.micros,
                off.micros as f64 / on.micros as f64,
                on.pruning.bounded,
                on.pruning.pruned,
                on.pruning.scored,
                on.pruning.bound_micros,
            );
            ConfigReport {
                shards,
                on_micros: on.micros,
                off_micros: off.micros,
                speedup: off.micros as f64 / on.micros as f64,
                pruning: on.pruning,
            }
        })
        .collect();
    WorkloadReport {
        name,
        query: query_text,
        configs,
    }
}

/// Raw scoring-kernel throughput: every start-anchored candidate window
/// of every GROUPed visualization gets an interval regression slope plus
/// a pattern score, once through the columnar [`shapesearch_core::ColumnarArena`]
/// batch kernel and once through the retained scalar [`StatsIndex`]
/// reference. Both paths must agree bit for bit (asserted here, every
/// run); the ratio is recorded, not judged.
struct KernelReport {
    windows: u64,
    columnar_points_per_sec: f64,
    scalar_points_per_sec: f64,
    ratio: f64,
}

/// Timing passes per rep: enough windows per measurement that the
/// sub-millisecond kernel outruns timer granularity.
const KERNEL_PASSES: usize = 8;

fn run_kernel(data: &[Trendline]) -> KernelReport {
    let grouped = group_collection(data, 1);
    let vizzes: Vec<_> = grouped.iter().flatten().collect();
    let scalar_indexes: Vec<StatsIndex> = vizzes
        .iter()
        .map(|v| StatsIndex::new(v.xs(), v.ys()))
        .collect();
    let windows_per_pass: u64 = vizzes.iter().map(|v| (v.n() - 1) as u64).sum();

    // Equivalence first (outside timing): the batch kernel must
    // reproduce the scalar reference exactly, NaNs and degenerate
    // denominators included.
    let mut out = Vec::new();
    for (v, idx) in vizzes.iter().zip(&scalar_indexes) {
        v.arena().window_slopes(v.slot(), 0, 1, v.n() - 1, &mut out);
        for (off, &slope) in out.iter().enumerate() {
            let want = idx.slope(0, 1 + off);
            assert_eq!(
                slope.to_bits(),
                want.to_bits(),
                "columnar kernel diverged from the scalar reference"
            );
        }
    }

    let mut best_columnar = u64::MAX;
    let mut best_scalar = u64::MAX;
    let mut sink = 0.0f64;
    for _ in 0..REPS {
        let started = Instant::now();
        for _ in 0..KERNEL_PASSES {
            for v in &vizzes {
                v.arena().window_slopes(v.slot(), 0, 1, v.n() - 1, &mut out);
                for &slope in &out {
                    sink += score_up(slope);
                }
            }
        }
        best_columnar = best_columnar.min(started.elapsed().as_micros() as u64);

        let started = Instant::now();
        for _ in 0..KERNEL_PASSES {
            for (v, idx) in vizzes.iter().zip(&scalar_indexes) {
                for j in 1..v.n() {
                    sink += score_up(idx.slope(0, j));
                }
            }
        }
        best_scalar = best_scalar.min(started.elapsed().as_micros() as u64);
    }
    std::hint::black_box(sink);

    let windows = windows_per_pass * KERNEL_PASSES as u64;
    let pps = |micros: u64| windows as f64 / (micros.max(1) as f64 / 1e6);
    let report = KernelReport {
        windows,
        columnar_points_per_sec: pps(best_columnar),
        scalar_points_per_sec: pps(best_scalar),
        ratio: best_scalar as f64 / best_columnar.max(1) as f64,
    };
    eprintln!(
        " kernel: columnar={:.1}M windows/s scalar={:.1}M windows/s ratio={:.2}x ({} windows/pass)",
        report.columnar_points_per_sec / 1e6,
        report.scalar_points_per_sec / 1e6,
        report.ratio,
        windows_per_pass,
    );
    report
}

/// Cold-load trajectory: time-to-first-answer from an on-disk columnar
/// snapshot (mmap open + validation + one-partition seed + first query)
/// against the eager boot path (parse the CSV + EXTRACT + GROUP + first
/// query) — what a `serve --snapshot` registration saves over
/// re-extracting at boot. Both paths must answer bit-for-bit
/// identically (asserted every run); `ratio` is eager/cold, so >1 means
/// the snapshot is faster to first answer.
struct ColdLoadReport {
    eager_micros: u64,
    cold_micros: u64,
    ratio: f64,
    snapshot_bytes: usize,
}

fn run_cold_load(data: &[Trendline]) -> ColdLoadReport {
    use shapesearch_core::{snapshot, ShapeEngine};
    use std::sync::Arc;

    let query = parse_regex("[p=up][p=down]").expect("static query parses");
    let path = std::env::temp_dir().join(format!("shapesearch-bench-{}.snap", std::process::id()));
    let stats = snapshot::write(&path, data, 1).expect("write snapshot");

    // The eager baseline is a real boot: parse the CSV, EXTRACT, GROUP,
    // answer. (The snapshot build did the first three once, offline.)
    // Rust float formatting round-trips, so the parsed collection is
    // bit-identical to `data`.
    let mut csv = String::from("z,x,y\n");
    for t in data {
        for p in &t.points {
            csv.push_str(&format!("{},{},{}\n", t.key, p.x, p.y));
        }
    }
    let spec = shapesearch_datastore::VisualSpec::new("z", "x", "y");

    let render = |results: &[shapesearch_core::TopKResult]| {
        let rendered: Vec<String> = results
            .iter()
            .map(|r| format!("{}:{}:{:?}:{:?}", r.key, r.viz_index, r.score, r.ranges))
            .collect();
        rendered.join(";")
    };
    let first_answer = |engine: &ShardedEngine| engine.top_k(&query, K).expect("query runs");

    let mut best_eager = u64::MAX;
    let mut best_cold = u64::MAX;
    for _ in 0..REPS {
        let started = Instant::now();
        let table = shapesearch_datastore::csv::read_str(&csv).expect("csv parses");
        let trendlines = shapesearch_datastore::extract(
            &table,
            &spec,
            &shapesearch_datastore::ExtractOptions::default(),
        )
        .expect("extract runs");
        let engine = ShardedEngine::from_trendlines(trendlines, 1);
        engine.warm();
        let results = first_answer(&engine);
        best_eager = best_eager.min(started.elapsed().as_micros() as u64);
        let eager_results = render(&results);

        let started = Instant::now();
        let snap = snapshot::Snapshot::open(&path).expect("open snapshot");
        let part = snap.partition(0, snap.trendline_count());
        let shard = ShapeEngine::from_trendlines(part.trendlines);
        shard.seed_grouped(snap.bin_width(), part.grouped);
        let engine = ShardedEngine::from_shard_engines(vec![Arc::new(shard)]);
        let results = first_answer(&engine);
        best_cold = best_cold.min(started.elapsed().as_micros() as u64);
        let cold_results = render(&results);

        assert_eq!(
            eager_results, cold_results,
            "snapshot cold load changed the answer"
        );
    }
    std::fs::remove_file(&path).ok();

    let report = ColdLoadReport {
        eager_micros: best_eager,
        cold_micros: best_cold,
        ratio: best_eager as f64 / best_cold.max(1) as f64,
        snapshot_bytes: stats.bytes,
    };
    eprintln!(
        "cold_load: eager={:>8}µs snapshot={:>8}µs ratio={:.2}x ({} snapshot bytes)",
        report.eager_micros, report.cold_micros, report.ratio, report.snapshot_bytes,
    );
    report
}

/// Idle-connection scaling trajectory: time-to-answer of the standard
/// batch query over HTTP against a 2-event-thread server, quiet (0 idle
/// peers) vs crowded (`SHAPESEARCH_BENCH_IDLE_CONNS` idle keep-alive
/// connections parked on the same listener, default 1000). `penalty` is
/// crowded/quiet; the evented core's claim is that parked connections
/// cost readiness-table slots, not threads. Every reply must be a 200;
/// the crowded-vs-fresh byte diff is `conn_smoke`'s.
struct ConnectionsReport {
    idle_peers: usize,
    quiet_micros: u64,
    crowded_micros: u64,
    penalty: f64,
}

fn run_connections(data: &[Trendline]) -> ConnectionsReport {
    use shapesearch_server::{json, Client, ServerConfig};
    use std::net::TcpStream;

    let mut csv = String::from("z,x,y\n");
    for t in data {
        for p in &t.points {
            csv.push_str(&format!("{},{},{}\n", t.key, p.x, p.y));
        }
    }
    let service = shapesearch_server::serve(
        "127.0.0.1:0",
        ServerConfig {
            workers: 2,
            event_threads: 2,
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    let client = Client::new(service.addr());
    let batch = json::parse(
        r#"[{"dataset":"conn","query":"[p=up][p=down]","k":5},
            {"dataset":"conn","query":"[p=down][p=up]","k":5}]"#,
    )
    .expect("static batch parses");

    // Each phase re-registers the dataset first: the generation bump
    // clears the query cache, so neither phase inherits the other's
    // warm answers and the two measurements do identical work.
    let measure = |label: &str| -> u64 {
        let reply = client
            .post(
                "/datasets",
                &json::Json::Obj(vec![
                    ("name".into(), "conn".into()),
                    ("id".into(), "conn".into()),
                    ("csv".into(), csv.clone().into()),
                    ("z".into(), "z".into()),
                    ("x".into(), "x".into()),
                    ("y".into(), "y".into()),
                ]),
            )
            .expect("register");
        assert_eq!(
            reply.status,
            201,
            "{label} register: {}",
            reply.body.to_text()
        );
        let mut best = u64::MAX;
        for _ in 0..REPS {
            let started = Instant::now();
            client
                .post("/query", &batch)
                .expect("batch query")
                .expect_ok(label);
            best = best.min(started.elapsed().as_micros() as u64);
        }
        best
    };

    let quiet = measure("quiet");

    let want_idle: usize = std::env::var("SHAPESEARCH_BENCH_IDLE_CONNS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1000);
    let mut held: Vec<TcpStream> = Vec::with_capacity(want_idle);
    for i in 0..want_idle {
        match TcpStream::connect(service.addr()) {
            Ok(s) => held.push(s),
            Err(e) => {
                eprintln!(
                    "connections: connect #{i} failed ({e}); measuring against {} idle peers",
                    held.len()
                );
                break;
            }
        }
    }
    let crowd = held.len();
    let crowded = measure("crowded");
    drop(held);

    let report = ConnectionsReport {
        idle_peers: crowd,
        quiet_micros: quiet,
        crowded_micros: crowded,
        penalty: crowded as f64 / quiet.max(1) as f64,
    };
    eprintln!(
        "connections: quiet={:>8}µs crowded={:>8}µs penalty={:.2}x ({} idle keep-alive peers)",
        report.quiet_micros, report.crowded_micros, report.penalty, report.idle_peers,
    );
    service.shutdown();
    report
}

/// The git revision this report was produced from: baked in at compile
/// time when CI exports `SHAPESEARCH_GIT_REV`, otherwise asked of the
/// working tree at run time (numbers without provenance are unanswerable
/// questions later).
fn git_rev() -> String {
    if let Some(rev) = option_env!("SHAPESEARCH_GIT_REV") {
        return rev.to_owned();
    }
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_owned())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_owned())
}

fn render_json(
    workloads: &[WorkloadReport],
    kernel: &KernelReport,
    cold: &ColdLoadReport,
    conn: &ConnectionsReport,
) -> String {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut out = String::from("{\n");
    out.push_str("  \"bench\": \"engine_pruning\",\n");
    out.push_str(&format!("  \"git_rev\": \"{}\",\n", git_rev()));
    out.push_str(&format!("  \"seed\": {SEED},\n"));
    out.push_str(&format!("  \"cores\": {cores},\n"));
    out.push_str(&format!("  \"trendlines\": {TRENDLINES},\n"));
    out.push_str(&format!("  \"points\": {POINTS},\n"));
    out.push_str(&format!("  \"k\": {K},\n"));
    out.push_str(&format!("  \"reps\": {REPS},\n"));
    out.push_str("  \"workloads\": [\n");
    for (wi, w) in workloads.iter().enumerate() {
        out.push_str("    {\n");
        out.push_str(&format!("      \"name\": \"{}\",\n", w.name));
        out.push_str(&format!("      \"query\": \"{}\",\n", w.query));
        out.push_str("      \"configs\": [\n");
        for (ci, c) in w.configs.iter().enumerate() {
            out.push_str(&format!(
                "        {{\"shards\": {}, \"pruning_on_micros\": {}, \
                 \"pruning_off_micros\": {}, \"speedup\": {:.3}, \
                 \"pruning\": {{\"bounded\": {}, \"pruned\": {}, \"scored\": {}, \
                 \"bound_micros\": {}}}}}{}\n",
                c.shards,
                c.on_micros,
                c.off_micros,
                c.speedup,
                c.pruning.bounded,
                c.pruning.pruned,
                c.pruning.scored,
                c.pruning.bound_micros,
                if ci + 1 == w.configs.len() { "" } else { "," },
            ));
        }
        out.push_str("      ]\n");
        out.push_str(&format!(
            "    }}{}\n",
            if wi + 1 == workloads.len() { "" } else { "," }
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"kernel\": {\n");
    out.push_str(&format!("    \"windows\": {},\n", kernel.windows));
    out.push_str("    \"configs\": [\n");
    out.push_str(&format!(
        "      {{\"name\": \"columnar\", \"points_per_sec\": {:.0}}},\n",
        kernel.columnar_points_per_sec
    ));
    out.push_str(&format!(
        "      {{\"name\": \"scalar\", \"points_per_sec\": {:.0}}}\n",
        kernel.scalar_points_per_sec
    ));
    out.push_str("    ],\n");
    out.push_str(&format!("    \"ratio\": {:.3}\n", kernel.ratio));
    out.push_str("  },\n");
    out.push_str(&format!(
        "  \"cold_load\": {{\"eager_micros\": {}, \"cold_micros\": {}, \
         \"ratio\": {:.3}, \"snapshot_bytes\": {}}},\n",
        cold.eager_micros, cold.cold_micros, cold.ratio, cold.snapshot_bytes,
    ));
    out.push_str(&format!(
        "  \"connections\": {{\"idle_peers\": {}, \"quiet_micros\": {}, \
         \"crowded_micros\": {}, \"penalty\": {:.3}}}\n",
        conn.idle_peers, conn.quiet_micros, conn.crowded_micros, conn.penalty,
    ));
    out.push_str("}\n");
    out
}

fn main() {
    let workloads = vec![
        run_workload("needle", "[p=up][p=down]", &needle_collection()),
        run_workload("common", "[p=up][p=down]", &common_collection()),
    ];
    let kernel = run_kernel(&common_collection());
    let cold = run_cold_load(&common_collection());
    let conn = run_connections(&common_collection());

    let json = render_json(&workloads, &kernel, &cold, &conn);
    std::fs::write("BENCH_engine.json", &json).expect("write BENCH_engine.json");
    eprintln!("wrote BENCH_engine.json");
}
