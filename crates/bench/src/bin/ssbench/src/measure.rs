//! From a pass's raw readings to named numbers: the metric tables, the
//! off-the-clock verdict on every reply, and the medians over a run.

use crate::check::Reference;
use crate::gen::{RequestPlan, Workload, BATCH_COMPUTATIONS, BATCH_ITEMS};
use crate::interference::{Interference, Verdict};
use crate::load::{Pass, Scrape};
use crate::procs;
use crate::stats;
use shapesearch_server::json::{self, Json};
use std::time::Instant;

/// A metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which an end-to-end metric may
    /// worsen before it is a regression. Per-layer metrics have none.
    pub bound: Option<f64>,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

/// What a user of the served system sees. `failed_share` is not here
/// because a gated metric may never read 0: failures are the
/// `attempted`/`failed` counts of every result (and
/// `loadgen.failed_share` per layer), and any failure makes the run
/// incorrect outright.
///
/// The tail percentiles are not here either (`loadgen.latency_p90_ms`
/// and up, per layer): on the shared 2-core reference box the p90 of a
/// run says whether the run met one of the machine's slow spells. Nor
/// is throughput (`loadgen.throughput_qps`): one closed-loop client's is
/// the reciprocal of its mean latency, and capacity is what
/// `server_cpu_ms_per_query` bounds.
///
/// The timings are those of the requests the machine did not disturb
/// ([`fold`]). Their bounds are the widest `BENCHMARK.json` may state all
/// the same: what the probes cannot see — a neighbour arriving and
/// leaving within one request, both cores shared for a whole run — is
/// still there (README, "Steadiness"). Smaller changes are resolved by
/// paired runs, not by tightening these.
pub const END_TO_END: [MetricDef; 4] = [
    e2e("latency_p50_ms", "ms", "lower", 0.25),
    e2e("server_cpu_ms_per_query", "ms", "lower", 0.25),
    e2e("peak_rss_mb", "MiB", "lower", 0.05),
    e2e("setup_s", "s", "lower", 0.25),
];

pub const STAGES: [&str; 9] = [
    "parse_plan",
    "cache_lookup",
    "shard_compute",
    "remote_rpc",
    "merge",
    "serialize",
    "group",
    "segment_score",
    "prune_bound",
];

/// Single layers, by module name. The first block comes from the traced
/// pass, the `cache`/`pruning` counts and `server.*` from the spawned
/// servers' own `/healthz` and `/metrics`, `loadgen.*` from the
/// generator.
pub const PER_LAYER: [MetricDef; 65] = [
    layer("http.stub_roundtrip_us", "us", "lower"),
    layer("http.self_us", "us", "lower"),
    layer("handlers.route_us", "us", "lower"),
    layer("handlers.unaccounted_us", "us", "lower"),
    layer("layers.accounted_share", "ratio", "higher"),
    layer("json.parse_us", "us", "lower"),
    layer("json.render_us", "us", "lower"),
    layer("protocol.plan_us", "us", "lower"),
    layer("protocol.serialize_us", "us", "lower"),
    layer("protocol.shard_encode_us", "us", "lower"),
    layer("protocol.shard_decode_us", "us", "lower"),
    layer("parser.regex_us", "us", "lower"),
    layer("cache.hit_us", "us", "lower"),
    layer("cache.miss_insert_us", "us", "lower"),
    layer("cache.hits", "count", "higher"),
    layer("cache.misses", "count", "lower"),
    layer("cache.coalesced", "count", "higher"),
    layer("cache.hit_share", "ratio", "higher"),
    layer("compute.fanout_us", "us", "lower"),
    layer("engine.execute_us", "us", "lower"),
    layer("engine.execute_1shard_us", "us", "lower"),
    layer("engine.fanout_speedup", "ratio", "higher"),
    layer("engine.group_us", "us", "lower"),
    layer("engine.segment_score_us", "us", "lower"),
    layer("engine.us_per_scored_viz", "us", "lower"),
    layer("pruning.bound_us", "us", "lower"),
    layer("pruning.bounded", "count", "higher"),
    layer("pruning.pruned", "count", "higher"),
    layer("pruning.scored", "count", "lower"),
    layer("pruning.pruned_share", "ratio", "higher"),
    layer("shard.merge_us", "us", "lower"),
    layer("columnar.windows_per_s", "1/s", "higher"),
    layer("catalog.register_ms", "ms", "lower"),
    layer("datastore.csv_parse_ms", "ms", "lower"),
    layer("datastore.extract_ms", "ms", "lower"),
    layer("engine.group_warm_ms", "ms", "lower"),
    layer("client.rpc_roundtrip_us", "us", "lower"),
    layer("server.stage_us.parse_plan", "us", "lower"),
    layer("server.stage_us.cache_lookup", "us", "lower"),
    layer("server.stage_us.shard_compute", "us", "lower"),
    layer("server.stage_us.remote_rpc", "us", "lower"),
    layer("server.stage_us.merge", "us", "lower"),
    layer("server.stage_us.serialize", "us", "lower"),
    layer("server.stage_us.group", "us", "lower"),
    layer("server.stage_us.segment_score", "us", "lower"),
    layer("server.stage_us.prune_bound", "us", "lower"),
    layer("server.pruning.bounded", "count", "higher"),
    layer("server.pruning.pruned", "count", "higher"),
    layer("server.pruning.scored", "count", "lower"),
    layer("server.pruning.pruned_share", "ratio", "higher"),
    layer("loadgen.throughput_qps", "queries/s", "higher"),
    layer("loadgen.latency_p90_ms", "ms", "lower"),
    layer("loadgen.latency_p99_ms", "ms", "lower"),
    layer("loadgen.latency_max_ms", "ms", "lower"),
    layer("loadgen.client_cpu_share", "ratio", "lower"),
    layer("loadgen.pass_spread", "ratio", "lower"),
    layer("loadgen.latency_raw_p50_ms", "ms", "lower"),
    layer("loadgen.undisturbed_share", "ratio", "higher"),
    layer("loadgen.dilation", "ratio", "lower"),
    layer("loadgen.failed_share", "ratio", "lower"),
    layer("loadgen.requests", "count", "higher"),
    layer("loadgen.passes", "count", "higher"),
    layer("loadgen.measured_s", "s", "higher"),
    layer("trace.overhead_share", "ratio", "lower"),
    layer("trace.spans", "count", "lower"),
];

/// Named values, in report order.
pub type Values = Vec<(&'static str, f64)>;

pub fn value(values: &Values, name: &str) -> f64 {
    values
        .iter()
        .find(|(n, _)| *n == name)
        .map_or(0.0, |(_, v)| *v)
}

/// What every reply of a workload must say about caching, counted over
/// its query items.
#[derive(Debug, Clone, Copy)]
pub struct Expect {
    pub cached_true: u8,
    pub cached_false: u8,
    /// Warm-up replies are checked too where the measured ones must
    /// repeat them (the hit workloads).
    pub check_warmup: bool,
    /// Keep one reply body in this many for checking. Every body where
    /// the lists are short; a sample where 36,000 replies repeat 32.
    pub keep_every: usize,
}

pub fn expect(w: Workload) -> Expect {
    let items = BATCH_ITEMS as u8;
    let computed = BATCH_COMPUTATIONS as u8;
    match w.name {
        "hot_hits" => Expect {
            cached_true: 1,
            cached_false: 0,
            check_warmup: true,
            keep_every: 20,
        },
        // The second of the identical pair reads "cached":true too: it
        // coalesced onto the first's computation.
        "mixed_batch" => Expect {
            cached_true: items - computed,
            cached_false: computed,
            check_warmup: true,
            keep_every: 1,
        },
        _ => Expect {
            cached_true: 0,
            cached_false: 1,
            check_warmup: false,
            keep_every: 1,
        },
    }
}

/// Counters of the servers' own instrumentation over the measured
/// loop, summed over the processes of the pass.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Scraped {
    pub hits: f64,
    pub misses: f64,
    pub coalesced: f64,
    pub bounded: f64,
    pub pruned: f64,
    pub scored: f64,
    /// `(Δ sum of micros, Δ count)` per stage of [`STAGES`].
    pub stages: [(f64, f64); 9],
}

fn healthz_counter(healthz: &Json, block: &str, key: &str) -> f64 {
    healthz
        .get(block)
        .and_then(|b| b.get(key))
        .and_then(Json::as_f64)
        .unwrap_or(0.0)
}

/// The value of the sample line `name{stage="<stage>"} <value>`.
fn stage_sample(metrics: &str, name: &str, stage: &str) -> f64 {
    let prefix = format!("{name}{{stage=\"{stage}\"}} ");
    metrics
        .lines()
        .find_map(|l| l.strip_prefix(&prefix))
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(0.0)
}

fn server_identity(front: &Scrape) -> String {
    let healthz = json::parse(&front.healthz).unwrap_or(Json::Null);
    let pick = |value: Option<&Json>| value.cloned().unwrap_or(Json::Null);
    let shards = healthz.get("shards");
    json::obj([
        ("git_rev", pick(healthz.get("git_rev"))),
        ("workers", pick(healthz.get("workers"))),
        (
            "default_shards",
            pick(shards.and_then(|s| s.get("default"))),
        ),
        (
            "dataset_shards",
            pick(shards.and_then(|s| s.get("dataset_shards"))),
        ),
    ])
    .to_text()
}

fn counters(scrapes: &[Scrape]) -> Scraped {
    let mut total = Scraped::default();
    for (i, s) in scrapes.iter().enumerate() {
        let healthz = json::parse(&s.healthz).unwrap_or(Json::Null);
        // Only the front door caches; shard servers bypass the cache.
        if i == 0 {
            total.hits = healthz_counter(&healthz, "cache", "hits");
            total.misses = healthz_counter(&healthz, "cache", "misses");
            total.coalesced = healthz_counter(&healthz, "cache", "coalesced");
        }
        total.bounded += healthz_counter(&healthz, "pruning", "bounded");
        total.pruned += healthz_counter(&healthz, "pruning", "pruned");
        total.scored += healthz_counter(&healthz, "pruning", "scored");
        for (slot, stage) in total.stages.iter_mut().zip(STAGES) {
            slot.0 += stage_sample(&s.metrics, "shapesearch_stage_duration_micros_sum", stage);
            slot.1 += stage_sample(&s.metrics, "shapesearch_stage_duration_micros_count", stage);
        }
    }
    total
}

fn scraped_delta(before: &[Scrape], after: &[Scrape]) -> Scraped {
    let (b, a) = (counters(before), counters(after));
    let mut stages = [(0.0, 0.0); 9];
    for (i, slot) in stages.iter_mut().enumerate() {
        *slot = (a.stages[i].0 - b.stages[i].0, a.stages[i].1 - b.stages[i].1);
    }
    Scraped {
        hits: a.hits - b.hits,
        misses: a.misses - b.misses,
        coalesced: a.coalesced - b.coalesced,
        bounded: a.bounded - b.bounded,
        pruned: a.pruned - b.pruned,
        scored: a.scored - b.scored,
        stages,
    }
}

/// One slice of a pass (`Workload::slice` requests): the stretch between
/// two of the client's marks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Slice {
    /// The requests it holds, by position in the pass: `first..last`.
    pub first: usize,
    pub last: usize,
    pub from: Instant,
    pub to: Instant,
    /// The servers' CPU time over the slice / the query items it
    /// answered correctly; `None` where it answered none.
    pub server_cpu_ms_per_query: Option<f64>,
    /// What the client read the interference probe at before and after
    /// (one-core workloads; else 0).
    pub probes_ns: (u32, u32),
}

/// One pass, judged.
#[derive(Debug, Clone)]
pub struct PassResult {
    /// Round trips in the order sent, failed requests' too.
    pub latencies_ns: Vec<u64>,
    pub slices: Vec<Slice>,
    /// Query items answered correctly, and the measured loop's length.
    pub items_ok: u64,
    pub wall_s: f64,
    pub peak_rss_mb: f64,
    /// When set-up began and ended.
    pub setup: (Instant, Instant),
    pub attempted: u64,
    pub failed: u64,
    pub client_cpu_share: f64,
    pub scraped: Scraped,
    /// What the front door says of itself on `/healthz`, as a JSON
    /// object: `git_rev`, `workers`, and the shard counts.
    pub server: String,
    /// Why requests failed, for the log (first few).
    pub complaints: Vec<String>,
}

impl PassResult {
    pub fn setup_s(&self) -> f64 {
        (self.setup.1 - self.setup.0).as_secs_f64()
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Reads each slice between two of the client's marks. `ok[i]` says
/// whether the `i`-th request passed.
fn slices(plan: &RequestPlan, pass: &Pass, ok: &[bool]) -> Vec<Slice> {
    pass.client
        .marks
        .windows(2)
        .map(|pair| {
            let ((first, from), (last, to)) = (pair[0], pair[1]);
            let items_ok: u64 = (first..last)
                .filter(|&i| ok[i])
                .map(|i| plan.sent(i).items.len() as u64)
                .sum();
            Slice {
                first,
                last,
                from: from.at,
                to: to.at,
                server_cpu_ms_per_query: (items_ok > 0)
                    .then(|| (to.server_cpu_ms - from.server_cpu_ms) / items_ok as f64),
                probes_ns: (from.probe_ns, to.probe_ns),
            }
        })
        .collect()
}

/// Judges a pass off the clock. A request fails on a transport error,
/// a status other than 200, a `cached` flag that is not what the
/// workload prescribes, or — for the checked sample, every 20th request
/// and at least 20 a pass — an answer that differs from the reference.
pub fn judge(
    w: Workload,
    plan: &RequestPlan,
    pass: &Pass,
    reference: &mut Reference,
    nproc: usize,
) -> PassResult {
    let want = expect(w);
    let mut complaints = Vec::new();
    let mut complain = |text: String| {
        if complaints.len() < 5 {
            complaints.push(text);
        }
    };

    let run = &pass.client;
    // Every 20th request, but at least 20 a pass, evenly spaced over
    // the kept replies.
    let checks = (run.seen.len() / 20).max(20).min(run.kept.len());
    let mut ok: Vec<bool> = run
        .seen
        .iter()
        .map(|s| {
            s.status == Some(200)
                && s.cached_true == want.cached_true
                && s.cached_false == want.cached_false
        })
        .collect();
    if let Some(pos) = ok.iter().position(|ok| !ok) {
        complain(format!(
            "request {pos}: saw {:?}, want {want:?}",
            run.seen[pos]
        ));
    }
    for (pos, body) in (0..checks).map(|i| &run.kept[i * run.kept.len() / checks]) {
        let request = plan.sent(*pos);
        if ok[*pos] && !reference.reply_is_correct(request, body) {
            ok[*pos] = false;
            complain(format!(
                "request {pos}: wrong answer to {}: {}",
                request.body(),
                String::from_utf8_lossy(body)
            ));
        }
    }
    let mut attempted = ok.len() as u64;
    let mut failed = ok.iter().filter(|ok| !**ok).count() as u64;
    let items_ok = (0..ok.len())
        .filter(|&pos| ok[pos])
        .map(|pos| plan.sent(pos).items.len() as u64)
        .sum();
    if want.check_warmup {
        for (request, reply) in plan.warmup.iter().zip(&pass.warm_replies) {
            if !reference.reply_is_correct(request, reply) {
                failed += 1;
                complain(format!("warm-up: wrong answer to {}", request.body()));
            }
            attempted += 1;
        }
    }

    PassResult {
        slices: slices(plan, pass, &ok),
        latencies_ns: run.latencies_ns.clone(),
        items_ok,
        wall_s: pass.wall_s,
        peak_rss_mb: pass.peak_rss_mib,
        setup: pass.setup,
        attempted,
        failed,
        client_cpu_share: ratio(pass.client_cpu_ms / 1e3, pass.wall_s * nproc as f64),
        scraped: scraped_delta(&pass.before, &pass.after),
        server: server_identity(&pass.after[0]),
        complaints,
    }
}

/// A workload's passes folded into what is reported.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub end_to_end: Values,
    /// What the next run in this checkout may take the workload's
    /// sensitivity to be.
    pub sensitivity: Sensitivities,
    /// The share of each pass's slices the machine left alone, for the
    /// log.
    pub undisturbed_by_pass: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    /// The generator's and the servers' own numbers, summed or taken as
    /// medians over the passes.
    pub observed: Values,
    /// The first pass's front door on itself (see [`PassResult`]).
    pub server: String,
}

/// A run reports the median over its undisturbed slices when it has at
/// least this many and they are at least a fifth of it — where nearly
/// everything is disturbed, much of what passes for undisturbed is what
/// the probes missed (a `mixed_batch` run with 12 % read 12.8 ms for
/// 10.6) — and over its undisturbed set-ups when it has at least that
/// many.
const ENOUGH_SLICES: usize = 10;
const ENOUGH_SETUPS: usize = 2;

fn enough(undisturbed: usize, of: usize) -> bool {
    undisturbed >= ENOUGH_SLICES && undisturbed * 5 >= of
}

/// A timing as it was read, and what the probes say of the stretch it
/// was read over.
struct Reading {
    value: f64,
    undisturbed: bool,
    /// By how much the slowest core was slowed, and the cores on average,
    /// less 1: 0 and 0 at the floor, 0.5 and 0.25 with a neighbour on one
    /// of two cores.
    slowest: f64,
    average: f64,
}

/// How much of the cores' slowing one of a workload's timings takes on:
/// `timing = undisturbed timing x (1 + slowest x the slowest core's
/// slowing + average x the cores' average slowing)`. Which of the two it
/// is depends on the workload's shape. A `fuzzy_miss` reply waits for two
/// equal shards, so it takes on all of the slowest core's slowing; a
/// request whose work sits mostly on one core at a time, or CPU time
/// summed over the cores, takes on the average; system calls and waiting
/// take on less than the probe does.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sensitivity {
    pub slowest: f64,
    pub average: f64,
}

impl Sensitivity {
    /// What a reading would have been on undisturbed cores.
    fn undo(self, r: &Reading) -> f64 {
        r.value / (1.0 + self.slowest * r.slowest + self.average * r.average)
    }
}

/// A workload's sensitivities: of its round trips and of its servers'
/// CPU time. Until a run has shown them, a round trip is taken to wait
/// for the slowest core and CPU time to feel the average, both exactly as
/// the probe does.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sensitivities {
    pub latency: Sensitivity,
    pub cpu: Sensitivity,
}

impl Sensitivities {
    /// As kept between runs: the round trips' two shares, then the CPU
    /// time's.
    pub fn numbers(self) -> [f64; 4] {
        [
            self.latency.slowest,
            self.latency.average,
            self.cpu.slowest,
            self.cpu.average,
        ]
    }

    pub fn from_numbers([a, b, c, d]: [f64; 4]) -> Self {
        Self {
            latency: Sensitivity {
                slowest: a,
                average: b,
            },
            cpu: Sensitivity {
                slowest: c,
                average: d,
            },
        }
    }
}

impl Default for Sensitivities {
    fn default() -> Self {
        Self {
            latency: Sensitivity {
                slowest: 1.0,
                average: 0.0,
            },
            cpu: Sensitivity {
                slowest: 0.0,
                average: 1.0,
            },
        }
    }
}

/// The sensitivity a run shows that has enough of both kinds of reading:
/// the least-squares fit of how much slower than the undisturbed median
/// each disturbed reading is to one of the two slowings the probes read
/// for it — the one that explains the readings better.
///
/// One, not a mix of the two: they go together (one core shared is 0.5
/// and 0.25, both are 0.5 and 0.5), so closely that a fit to both follows
/// the noise. Where they are one and the same (one core) or explain the
/// readings about equally, `slowest_first` decides.
fn sensitivity_shown(readings: &[Reading], slowest_first: bool) -> Option<Sensitivity> {
    let calm: Vec<f64> = readings
        .iter()
        .filter(|r| r.undisturbed)
        .map(|r| r.value)
        .collect();
    // Clearly shared, not a stretch a neighbour brushed.
    let shared: Vec<&Reading> = readings
        .iter()
        .filter(|r| !r.undisturbed && r.average >= 0.1)
        .collect();
    if !enough(calm.len(), readings.len()) || shared.len() < ENOUGH_SLICES {
        return None;
    }
    let undisturbed = stats::median(&calm);
    let (mut ss, mut aa, mut sy, mut ay) = (0.0, 0.0, 0.0, 0.0);
    for r in shared {
        // A reading a hiccup fell into is no measure of sensitivity.
        let y = (r.value / undisturbed - 1.0).clamp(-0.5, 2.0);
        ss += r.slowest * r.slowest;
        aa += r.average * r.average;
        sy += r.slowest * y;
        ay += r.average * y;
    }
    // A fit through the origin with slope `xy / xx` explains `xy² / xx`
    // of the readings' sum of squares.
    let (by_slowest, by_average) = (sy * sy / ss, ay * ay / aa);
    // The other one has to explain clearly more to be preferred: where a
    // run saw little of both cores shared, noise decides between them.
    let slowest_fits = if slowest_first {
        by_slowest * 1.05 >= by_average
    } else {
        by_slowest > by_average * 1.05
    };
    Some(if slowest_fits {
        Sensitivity {
            slowest: (sy / ss).clamp(0.0, 2.0),
            average: 0.0,
        }
    } else {
        Sensitivity {
            slowest: 0.0,
            average: (ay / aa).clamp(0.0, 2.0),
        }
    })
}

/// The median of the undisturbed readings where the run has enough of
/// them; otherwise — the neighbours stayed for the whole run — the median
/// of every reading with the cores' slowing undone, as far as the
/// workload is `sensitive` to it.
fn settled(readings: &[Reading], enough_undisturbed: bool, sensitive: Sensitivity) -> f64 {
    let values: Vec<f64> = if enough_undisturbed {
        let calm = readings.iter().filter(|r| r.undisturbed);
        calm.map(|r| r.value).collect()
    } else {
        readings.iter().map(|r| sensitive.undo(r)).collect()
    };
    stats::median(&values)
}

/// Folds a workload's passes into what is reported: medians over the
/// parts of the run the machine did not disturb ([`crate::interference`]
/// says how that is told). `latency_p50_ms` is the median round trip of
/// the requests in undisturbed slices, `server_cpu_ms_per_query` the
/// median over the undisturbed slices, `setup_s` the median over the
/// undisturbed set-ups, of which there is one per pass; each falls back
/// to every reading scaled back by its dilation where too few were
/// undisturbed ([`settled`]), `earlier` being how sensitive to dilation
/// earlier runs in this checkout showed the workload to be. Peak memory
/// is the median of the passes.
///
/// Why medians and not the calmest stretch: where the probes see
/// nothing (the kernel may refuse them their class) medians over the
/// whole run are what is left, and a neighbour stays on a core for
/// seconds to half an hour, so that over a run the share of time spent
/// slow is nearly always close to 0 or close to 1. A median breaks down
/// when that share is near one half, which is the rarest; a minimum or a
/// low quantile breaks down when it is near 1, which is common. With the
/// box slow, the medians of ten `fuzzy_miss` runs spread by 1 to 3 % and
/// their calmest stretches by 20 to 28 % (README, "Steadiness").
pub fn fold(
    passes: &[PassResult],
    w: Workload,
    seen: &Interference,
    earlier: Option<Sensitivities>,
) -> Outcome {
    // A one-core workload is disturbed by that core's neighbour alone,
    // and there the client reads the probe itself.
    let only_cpu = if w.one_core { procs::first_cpu() } else { None };
    let reading = |value: f64, verdict: Verdict| Reading {
        value,
        undisturbed: verdict.undisturbed,
        slowest: verdict.slowest - 1.0,
        average: verdict.average - 1.0,
    };
    let (mut round_trips, mut cpu, mut setups) = (Vec::new(), Vec::new(), Vec::new());
    let mut slices_undisturbed = 0usize;
    let mut dilations = Vec::new();
    let mut undisturbed_by_pass = Vec::new();
    for pass in passes {
        let before = slices_undisturbed;
        for slice in &pass.slices {
            let verdict = if w.one_core {
                seen.between(slice.probes_ns.0, slice.probes_ns.1)
            } else {
                seen.over(slice.from, slice.to, None)
            };
            slices_undisturbed += usize::from(verdict.undisturbed);
            dilations.push(verdict.slowest);
            round_trips.extend(
                pass.latencies_ns[slice.first..slice.last]
                    .iter()
                    .map(|&ns| reading(ms(ns), verdict)),
            );
            cpu.extend(
                slice
                    .server_cpu_ms_per_query
                    .map(|value| reading(value, verdict)),
            );
        }
        undisturbed_by_pass.push(ratio(
            (slices_undisturbed - before) as f64,
            pass.slices.len() as f64,
        ));
        let verdict = seen.over(pass.setup.0, pass.setup.1, only_cpu);
        setups.push(reading(pass.setup_s(), verdict));
    }
    // What this run shows where it can, else what earlier ones showed,
    // else the probe's own.
    let earlier = earlier.unwrap_or_default();
    let sensitivity = Sensitivities {
        latency: sensitivity_shown(&round_trips, true).unwrap_or(earlier.latency),
        cpu: sensitivity_shown(&cpu, false).unwrap_or(earlier.cpu),
    };
    // One decision for the round trips and the CPU time alike.
    let enough_slices = enough(slices_undisturbed, dilations.len());
    let enough_setups = setups.iter().filter(|r| r.undisturbed).count() >= ENOUGH_SETUPS;

    let mut latencies: Vec<u64> = passes
        .iter()
        .flat_map(|p| p.latencies_ns.iter().copied())
        .collect();
    let median_of =
        |f: fn(&PassResult) -> f64| stats::median(&passes.iter().map(f).collect::<Vec<_>>());
    let total = |f: fn(&PassResult) -> f64| passes.iter().map(f).sum::<f64>();
    let wall_s = total(|p| p.wall_s);
    let end_to_end = vec![
        (
            "latency_p50_ms",
            settled(&round_trips, enough_slices, sensitivity.latency),
        ),
        (
            "server_cpu_ms_per_query",
            settled(&cpu, enough_slices, sensitivity.cpu),
        ),
        ("peak_rss_mb", median_of(|p| p.peak_rss_mb)),
        // Too few set-ups in a run to show how sensitive they are: much
        // of one is one thread's work, taken to feel the average.
        (
            "setup_s",
            settled(&setups, enough_setups, Sensitivities::default().cpu),
        ),
    ];
    let attempted: u64 = passes.iter().map(|p| p.attempted).sum();
    let failed: u64 = passes.iter().map(|p| p.failed).sum();

    let sum = |f: fn(&Scraped) -> f64| passes.iter().map(|p| f(&p.scraped)).sum::<f64>();
    let (hits, misses, coalesced) = (sum(|s| s.hits), sum(|s| s.misses), sum(|s| s.coalesced));
    let (bounded, pruned, scored) = (sum(|s| s.bounded), sum(|s| s.pruned), sum(|s| s.scored));
    let per_pass_qps: Vec<f64> = passes
        .iter()
        .map(|p| ratio(p.items_ok as f64, p.wall_s))
        .collect();
    let mut observed: Values = vec![
        ("cache.hits", hits),
        ("cache.misses", misses),
        ("cache.coalesced", coalesced),
        ("cache.hit_share", ratio(hits, hits + misses + coalesced)),
        ("server.pruning.bounded", bounded),
        ("server.pruning.pruned", pruned),
        ("server.pruning.scored", scored),
        (
            "server.pruning.pruned_share",
            ratio(pruned, pruned + scored),
        ),
        (
            "loadgen.throughput_qps",
            ratio(total(|p| p.items_ok as f64), wall_s),
        ),
        (
            "loadgen.latency_p90_ms",
            ms(stats::percentile(&mut latencies, 90.0)),
        ),
        (
            "loadgen.latency_p99_ms",
            ms(stats::percentile(&mut latencies, 99.0)),
        ),
        (
            "loadgen.latency_max_ms",
            ms(latencies.last().copied().unwrap_or(0)),
        ),
        (
            "loadgen.client_cpu_share",
            median_of(|p| p.client_cpu_share),
        ),
        ("loadgen.pass_spread", stats::spread(&per_pass_qps)),
        (
            "loadgen.latency_raw_p50_ms",
            ms(stats::percentile(&mut latencies, 50.0)),
        ),
        (
            "loadgen.undisturbed_share",
            ratio(slices_undisturbed as f64, dilations.len() as f64),
        ),
        ("loadgen.dilation", stats::median(&dilations)),
        (
            "loadgen.failed_share",
            ratio(failed as f64, attempted as f64),
        ),
        ("loadgen.requests", attempted as f64),
        ("loadgen.passes", passes.len() as f64),
        ("loadgen.measured_s", wall_s),
    ];
    for (i, stage) in STAGES.into_iter().enumerate() {
        let def = PER_LAYER
            .iter()
            .find(|m| m.name.strip_prefix("server.stage_us.") == Some(stage))
            .expect("every stage has a per-layer metric");
        let micros: f64 = passes.iter().map(|p| p.scraped.stages[i].0).sum();
        let count: f64 = passes.iter().map(|p| p.scraped.stages[i].1).sum();
        observed.push((def.name, ratio(micros, count)));
    }
    Outcome {
        end_to_end,
        sensitivity,
        undisturbed_by_pass,
        attempted,
        failed,
        observed,
        server: passes
            .first()
            .map_or_else(|| "null".to_owned(), |p| p.server.clone()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::interference::read;
    use std::time::Duration;

    const FLUSH: Workload = Workload {
        name: "test",
        requests: 0,
        slice: 1,
        routed: None,
        one_core: false,
        why: "",
    };

    /// A pass whose set-up runs from `setup_ms.0` to `setup_ms.1` after
    /// `epoch` and whose slices are `(from_ms, round trips in ms, CPU ms
    /// per query)`, each lasting as long as its round trips together.
    fn pass(
        epoch: Instant,
        setup_ms: (u64, u64),
        slices_ms: &[(u64, &[u64], f64)],
        failed: u64,
    ) -> PassResult {
        let at = |ms: u64| epoch + Duration::from_millis(ms);
        let mut latencies_ns = Vec::new();
        let slices = slices_ms
            .iter()
            .map(|&(from_ms, round_trips, cpu)| {
                let first = latencies_ns.len();
                latencies_ns.extend(round_trips.iter().map(|ms| ms * 1_000_000));
                Slice {
                    first,
                    last: latencies_ns.len(),
                    from: at(from_ms),
                    to: at(from_ms + round_trips.iter().sum::<u64>()),
                    server_cpu_ms_per_query: Some(cpu),
                    probes_ns: (0, 0),
                }
            })
            .collect();
        PassResult {
            latencies_ns,
            slices,
            items_ok: 100 - failed,
            wall_s: 1.5,
            peak_rss_mb: 80.0 + setup_ms.0 as f64,
            setup: (at(setup_ms.0), at(setup_ms.1)),
            attempted: 100,
            failed,
            client_cpu_share: 0.1,
            scraped: Scraped {
                hits: 30.0,
                misses: 10.0,
                pruned: 6.0,
                scored: 2.0,
                stages: [(50.0, 10.0); 9],
                ..Scraped::default()
            },
            server: "{}".to_owned(),
            complaints: Vec::new(),
        }
    }

    /// Two slices of two requests each. A failed request adds its
    /// latency but no answered item.
    #[test]
    fn a_slice_holds_the_requests_sent_between_its_marks() {
        use crate::gen::{Query, Request};
        use crate::load::{ClientRun, Mark};

        let query = |k| Request {
            items: vec![Query {
                dataset: "walks",
                text: "[p=up]".into(),
                k,
            }],
            batch: false,
        };
        let plan = RequestPlan {
            warmup: Vec::new(),
            requests: (1..=4).map(query).collect(),
            order: vec![0, 1, 2, 3],
        };
        let start = Instant::now();
        let at = |ms: u64| start + Duration::from_millis(ms);
        let mark = |ms: u64, cpu, probe_ns| Mark {
            at: at(ms),
            server_cpu_ms: cpu,
            probe_ns,
        };
        let pass = Pass {
            setup: (start, start),
            client: ClientRun {
                latencies_ns: [10u64, 12, 7, 16].iter().map(|ms| ms * 1_000_000).collect(),
                seen: Vec::new(),
                kept: Vec::new(),
                marks: vec![
                    (0, mark(0, 100.0, 9_000)),
                    (2, mark(22, 130.0, 9_100)),
                    (4, mark(45, 190.0, 13_000)),
                ],
            },
            wall_s: 0.045,
            client_cpu_ms: 0.0,
            peak_rss_mib: 0.0,
            before: Vec::new(),
            after: Vec::new(),
            warm_replies: Vec::new(),
        };
        let got = slices(&plan, &pass, &[true, true, false, true]);
        let want = [
            Slice {
                first: 0,
                last: 2,
                from: at(0),
                to: at(22),
                server_cpu_ms_per_query: Some(30.0 / 2.0),
                probes_ns: (9_000, 9_100),
            },
            Slice {
                first: 2,
                last: 4,
                from: at(22),
                to: at(45),
                server_cpu_ms_per_query: Some(60.0 / 1.0),
                probes_ns: (9_100, 13_000),
            },
        ];
        assert_eq!(got, want);
        // A slice that answered nothing has no CPU time per query.
        let none = slices(&plan, &pass, &[true, true, false, false]);
        assert_eq!(none[1].server_cpu_ms_per_query, None);
    }

    /// Both cores at their floor but for core 0 between 400 and 700 ms,
    /// where a neighbour slows it by half.
    fn a_neighbour_from_400_to_700_ms(epoch: Instant) -> Interference {
        let cores = vec![
            read(
                0,
                &[(0, 400, 9_000), (400, 700, 13_500), (700, 1_000, 9_000)],
            ),
            read(1, &[(0, 1_000, 9_000)]),
        ];
        Interference::new(epoch, cores, None)
    }

    #[test]
    fn timings_are_medians_over_what_the_machine_left_alone() {
        let epoch = Instant::now();
        let seen = a_neighbour_from_400_to_700_ms(epoch);
        // Three passes, the second with the neighbour there: its six
        // requests take half as long again and so does its set-up.
        let out = fold(
            &[
                pass(
                    epoch,
                    (0, 50),
                    &[
                        (100, &[2], 1.0),
                        (110, &[3], 1.2),
                        (120, &[4], 1.1),
                        (130, &[2], 1.0),
                        (140, &[3], 1.0),
                    ],
                    0,
                ),
                pass(
                    epoch,
                    (410, 485),
                    &[
                        (500, &[3, 6], 1.5),
                        (520, &[3, 30], 1.8),
                        (560, &[6, 4], 1.6),
                    ],
                    1,
                ),
                pass(
                    epoch,
                    (750, 810),
                    &[
                        (850, &[4], 1.1),
                        (860, &[3], 1.2),
                        (870, &[2], 0.9),
                        (880, &[5], 1.3),
                        (890, &[4], 1.1),
                    ],
                    0,
                ),
            ],
            FLUSH,
            &seen,
            None,
        );
        // Ten undisturbed round trips: 2 2 2 3 3 3 4 4 4 5.
        assert_eq!(value(&out.end_to_end, "latency_p50_ms"), 3.0);
        // All sixteen: 2 2 2 3 3 3 3 3 | 4 4 4 4 5 6 6 30.
        assert_eq!(value(&out.observed, "loadgen.latency_raw_p50_ms"), 3.0);
        assert_eq!(value(&out.observed, "loadgen.latency_p90_ms"), 6.0);
        assert_eq!(value(&out.observed, "loadgen.latency_p99_ms"), 30.0);
        assert_eq!(value(&out.observed, "loadgen.latency_max_ms"), 30.0);
        // The ten undisturbed slices' CPU readings: .9 1 1 1 1.1 | 1.1 1.1
        // 1.2 1.2 1.3.
        assert_eq!(value(&out.end_to_end, "server_cpu_ms_per_query"), 1.1);
        // Two undisturbed set-ups, 50 and 60 ms.
        assert!((value(&out.end_to_end, "setup_s") - 0.055).abs() < 1e-9);
        assert_eq!(
            value(&out.observed, "loadgen.undisturbed_share"),
            10.0 / 13.0
        );
        assert_eq!(value(&out.observed, "loadgen.dilation"), 1.0);
        // Whatever the machine did: the median peak memory, the counts.
        assert_eq!(value(&out.end_to_end, "peak_rss_mb"), 80.0 + 410.0);
        assert_eq!((out.attempted, out.failed), (300, 1));
        assert_eq!(value(&out.observed, "loadgen.throughput_qps"), 299.0 / 4.5);
        assert_eq!(value(&out.observed, "loadgen.passes"), 3.0);
        assert_eq!(value(&out.observed, "cache.hit_share"), 0.75);
        assert_eq!(value(&out.observed, "server.pruning.pruned_share"), 0.75);
        assert_eq!(value(&out.observed, "server.stage_us.merge"), 5.0);
    }

    #[test]
    fn a_run_with_too_little_left_alone_is_scaled_by_its_dilation() {
        let epoch = Instant::now();
        let seen = a_neighbour_from_400_to_700_ms(epoch);
        // One undisturbed slice and set-up; the rest has the neighbour.
        let out = fold(
            &[
                pass(epoch, (0, 40), &[(100, &[4], 1.0)], 0),
                pass(
                    epoch,
                    (420, 480),
                    &[(500, &[6], 1.5), (520, &[9], 1.8), (560, &[3], 1.2)],
                    0,
                ),
            ],
            FLUSH,
            &seen,
            None,
        );
        let close = |name, want: f64| {
            let got = value(&out.end_to_end, name);
            assert!((got - want).abs() < 1e-9, "{name}: {got}, want {want}");
        };
        // 4, and 6 9 3 over the slower core's 1.5: 2 4 4 6.
        close("latency_p50_ms", 4.0);
        // 1, and 1.5 1.8 1.2 over the cores' average, 1.25: .96 1 1.2
        // 1.44.
        close("server_cpu_ms_per_query", 1.1);
        // 40 ms, and 60 over 1.25.
        close("setup_s", 0.044);
        assert_eq!(value(&out.observed, "loadgen.latency_raw_p50_ms"), 4.0);
        assert_eq!(value(&out.observed, "loadgen.dilation"), 1.5);
    }

    #[test]
    fn sensitivity_is_what_a_run_with_both_kinds_of_stretch_shows() {
        let epoch = Instant::now();
        let seen = a_neighbour_from_400_to_700_ms(epoch);
        // Ten slices alone, ten with the neighbour on one of two cores:
        // round trips 20 against 27 ms, CPU time 1 against 1.25 ms.
        let calm: Vec<(u64, &[u64], f64)> =
            (0..10).map(|i| (100 + 25 * i, &[20u64][..], 1.0)).collect();
        let shared: Vec<(u64, &[u64], f64)> = (0..10)
            .map(|i| (405 + 28 * i, &[27u64][..], 1.25))
            .collect();
        let both = [
            pass(epoch, (0, 40), &calm, 0),
            pass(epoch, (401, 402), &shared, 0),
        ];
        let out = fold(&both, FLUSH, &seen, None);
        // Every shared reading has the slowest core at 1.5 and the
        // average at 1.25, so the two cannot be told apart: a round trip
        // is taken to follow the slowest, (27 / 20 - 1) / (1.5 - 1), CPU
        // time the average, (1.25 / 1 - 1) / (1.25 - 1).
        let shown = out.sensitivity;
        assert!((shown.latency.slowest - 0.7).abs() < 1e-9, "{shown:?}");
        assert_eq!(shown.latency.average, 0.0);
        assert!((shown.cpu.average - 1.0).abs() < 1e-9, "{shown:?}");
        assert_eq!(shown.cpu.slowest, 0.0);
        assert_eq!(value(&out.end_to_end, "latency_p50_ms"), 20.0);

        // A run that sees only the neighbour goes by what earlier runs
        // showed, or by 1.
        let earlier = Some(out.sensitivity);
        let out = fold(&both[1..], FLUSH, &seen, earlier);
        assert_eq!(Some(out.sensitivity), earlier);
        let p50 = value(&out.end_to_end, "latency_p50_ms");
        assert!((p50 - 20.0).abs() < 1e-9, "{p50}");
        let out = fold(&both[1..], FLUSH, &seen, None);
        assert_eq!(out.sensitivity, Sensitivities::default());
        let p50 = value(&out.end_to_end, "latency_p50_ms");
        assert!((p50 - 27.0 / 1.5).abs() < 1e-9, "{p50}");
    }

    #[test]
    fn the_fit_tells_the_slowest_core_s_slowing_from_the_average() {
        // Ten readings alone; ten with a neighbour on one of two cores
        // (the slowest slowed by half, the average by a quarter); ten with
        // one on both.
        let run = |one_shared: f64, both_shared: f64| -> Vec<Reading> {
            let reading = |value, slowest, average| Reading {
                value,
                undisturbed: slowest == 0.0,
                slowest,
                average,
            };
            let mut readings = Vec::new();
            for _ in 0..10 {
                readings.push(reading(10.0, 0.0, 0.0));
                readings.push(reading(one_shared, 0.5, 0.25));
                readings.push(reading(both_shared, 0.5, 0.5));
            }
            readings
        };
        let close = |shown: Option<Sensitivity>, slowest: f64, average: f64| {
            let shown = shown.expect("enough of both kinds");
            assert!((shown.slowest - slowest).abs() < 1e-9, "{shown:?}");
            assert!((shown.average - average).abs() < 1e-9, "{shown:?}");
        };
        // Waits for its slowest core.
        close(sensitivity_shown(&run(15.0, 15.0), false), 1.0, 0.0);
        // Feels the average, and half as much as the probe does.
        close(sensitivity_shown(&run(11.25, 12.5), true), 0.0, 0.5);
        // A run that saw a neighbour on one core only cannot tell the two
        // apart, and goes by the one it is told to try first.
        let one_shared: Vec<Reading> = run(12.5, 15.0)
            .into_iter()
            .filter(|r| r.slowest == r.average * 2.0)
            .collect();
        close(sensitivity_shown(&one_shared, true), 0.5, 0.0);
        close(sensitivity_shown(&one_shared, false), 0.0, 1.0);
        // Too few of a kind to tell.
        assert_eq!(sensitivity_shown(&run(15.0, 15.0)[..20], true), None);
    }

    /// On one core the client's own readings decide, not the probes'.
    #[test]
    fn a_one_core_workload_goes_by_the_readings_the_client_took() {
        let epoch = Instant::now();
        let seen = a_neighbour_from_400_to_700_ms(epoch);
        let mut only = pass(epoch, (0, 40), &[(500, &[7], 2.0)], 0);
        only.slices[0].probes_ns = (9_000, 9_050);
        let one_core = Workload {
            one_core: true,
            ..FLUSH
        };
        let out = fold(std::slice::from_ref(&only), one_core, &seen, None);
        assert_eq!(value(&out.observed, "loadgen.undisturbed_share"), 1.0);
        let out = fold(&[only], FLUSH, &seen, None);
        assert_eq!(value(&out.observed, "loadgen.undisturbed_share"), 0.0);
    }

    #[test]
    fn stage_samples_are_read_by_label() {
        let text = "# HELP x\nshapesearch_stage_duration_micros_sum{stage=\"merge\"} 42\n\
                    shapesearch_stage_duration_micros_count{stage=\"merge\"} 7\n";
        assert_eq!(
            stage_sample(text, "shapesearch_stage_duration_micros_sum", "merge"),
            42.0
        );
        assert_eq!(
            stage_sample(text, "shapesearch_stage_duration_micros_count", "merge"),
            7.0
        );
        assert_eq!(
            stage_sample(text, "shapesearch_stage_duration_micros_sum", "group"),
            0.0
        );
    }

    /// `BENCHMARK.json` at the repository root is what the driver reads;
    /// these tables are what the program prints. They must not drift.
    #[test]
    fn benchmark_json_declares_exactly_these_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../../../BENCHMARK.json");
        let doc = json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the root"))
            .unwrap();
        let field =
            |item: &Json, key: &str| item.get(key).and_then(Json::as_str).unwrap().to_owned();
        let list = |key: &str| doc.get(key).and_then(Json::as_array).unwrap().to_vec();

        let workloads: Vec<(String, String)> = list("workloads")
            .iter()
            .map(|w| (field(w, "name"), field(w, "why")))
            .collect();
        let ours: Vec<(String, String)> = crate::gen::WORKLOADS
            .iter()
            .map(|w| (w.name.to_owned(), w.why.to_owned()))
            .collect();
        assert_eq!(workloads, ours);

        for (key, defs) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let declared = list(key);
            assert_eq!(declared.len(), defs.len(), "{key}");
            for (item, def) in declared.iter().zip(defs) {
                assert_eq!(field(item, "name"), def.name);
                assert_eq!(field(item, "unit"), def.unit, "{}", def.name);
                assert_eq!(field(item, "better"), def.better, "{}", def.name);
                assert_eq!(
                    item.get("bound").and_then(Json::as_f64),
                    def.bound,
                    "{}",
                    def.name
                );
            }
        }
    }

    #[test]
    fn metric_names_are_unique_and_within_the_contract() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .map(|m| m.name)
            .collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total);
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(m.name.len() <= 64 && m.unit.len() <= 16, "{}", m.name);
            assert!(matches!(m.better, "lower" | "higher"));
        }
        assert!(END_TO_END
            .iter()
            .all(|m| m.bound.is_some_and(|b| b <= 0.25)));
        assert!(STAGES.iter().all(|s| PER_LAYER
            .iter()
            .any(|m| m.name.strip_prefix("server.stage_us.") == Some(s))));
    }
}
