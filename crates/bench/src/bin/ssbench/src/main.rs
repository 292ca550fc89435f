//! `ssbench`: the served-query benchmark.
//!
//! Spawns the production binary (`shapesearch serve`, default flags),
//! registers seeded corpora over HTTP, drives `POST /query` over
//! keep-alive loopback sockets in a closed loop, verifies the answers,
//! and prints every metric by name and unit. A separate traced pass
//! times the calls into each layer's public functions in process.
//! `README.md` beside this package has the workloads, the metrics and
//! how they are expected to move together.

mod check;
mod gen;
mod interference;
mod layers;
mod load;
mod measure;
mod procs;
mod stats;
mod trace;
mod wire;

use check::Reference;
use gen::{Corpus, RequestPlan, Workload, MIN_PASSES, WORKLOADS};
use interference::Interference;
use load::Env;
use measure::{MetricDef, Outcome, PassResult, Sensitivities, Values, END_TO_END, PER_LAYER};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

const USAGE: &str = "\
usage: ssbench [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--selfcheck]

  --workload NAME  run one workload and print one result line:
                   {\"correct\",\"attempted\",\"failed\",\"metrics\"} with the end-to-end
                   metrics (--trace 0) or the per-layer metrics (--trace 1).
                   Without it, all six workloads run, taking turns pass by
                   pass, and one JSON report with everything is printed.
  --seed N         seeds the corpora and the request lists (default 1)
  --seconds S      how long a workload measures (default 7): passes of its
                   fixed list, each against freshly spawned servers with its
                   own set-up, for as long as another one fits into S seconds,
                   and at least 4. A pass always sends its whole list; one
                   still going after S seconds (a hung or badly regressed
                   server) is cut off there.
  --trace 0|1      run the traced in-process pass (default: 0 with --workload, 1 without)
  --selfcheck      run the whole benchmark twice and compare the two sets of
                   medians against each metric's bound
workloads: fuzzy_miss needle_miss located_miss hot_hits mixed_batch router_rpc";

/// What `--seconds` is when it is not given; `BENCHMARK.json` states the
/// same as `run_seconds`.
const DEFAULT_SECONDS: f64 = 7.0;

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
    selfcheck: bool,
}

fn parse_args(argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: None,
        selfcheck: false,
    };
    let mut argv = argv.skip(1);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workload =
                    Some(gen::workload(&name).ok_or(format!("unknown workload `{name}`"))?);
            }
            "--seed" => {
                args.seed = value()?
                    .parse()
                    .map_err(|_| "--seed needs a whole number")?
            }
            "--seconds" => {
                let seconds: f64 = value()?.parse().map_err(|_| "--seconds needs a number")?;
                if !seconds.is_finite() || seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
                args.seconds = seconds;
            }
            "--trace" => {
                args.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--selfcheck" => args.selfcheck = true,
            "--help" | "-h" => return Err(USAGE.into()),
            other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
        }
    }
    Ok(args)
}

/// Everything a run shares between workloads.
struct Bench {
    env: Env,
    corpora: Vec<Corpus>,
    reference: Reference,
    nproc: usize,
    seed: u64,
    /// The workload-independent per-layer numbers, measured at most once.
    micro: Option<Values>,
}

/// One workload's inputs and what its passes have measured so far.
struct Run {
    w: Workload,
    plan: RequestPlan,
    passes: Vec<PassResult>,
    /// Set-up and measured loop of every pass so far, and of the last.
    spent: Duration,
    last: Duration,
    /// From the traced pass, when there was one.
    per_layer: Values,
    spans: Vec<trace::Span>,
}

impl Bench {
    fn new(seed: u64) -> Result<Self, String> {
        let target = std::env::var_os("CARGO_TARGET_DIR")
            .map_or_else(|| PathBuf::from("target"), PathBuf::from);
        let server_bin = target.join("release").join("shapesearch");
        let work_dir = target.join("ssbench");
        load::require_server_bin(&server_bin)?;
        std::fs::create_dir_all(&work_dir).map_err(|e| format!("{}: {e}", work_dir.display()))?;
        let corpora = vec![gen::walks(seed), gen::haystack(seed)];
        Ok(Self {
            env: Env::new(server_bin, work_dir, &corpora),
            reference: Reference::new(&corpora),
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            corpora,
            seed,
            micro: None,
        })
    }

    fn start(&self, w: Workload) -> Run {
        Run {
            w,
            plan: gen::plan(w, self.seed),
            passes: Vec::new(),
            spent: Duration::ZERO,
            last: Duration::ZERO,
            per_layer: Values::new(),
            spans: Vec::new(),
        }
    }

    /// One pass of `run`'s workload against freshly spawned servers.
    fn pass(&mut self, run: &mut Run, cap: Duration) -> Result<(), String> {
        let tag = format!("{}-{}", run.w.name, run.passes.len());
        let keep_every = measure::expect(run.w).keep_every;
        let started = Instant::now();
        let pass = load::run_pass(&self.env, run.w, &run.plan, keep_every, cap, &tag)
            .map_err(|e| format!("{tag}: {e}"))?;
        run.last = started.elapsed();
        run.spent += run.last;
        let result = measure::judge(run.w, &run.plan, &pass, &mut self.reference, self.nproc);
        eprintln!(
            "{tag}: {} requests in {:.2} s, {} failed; set-up {:.2} s; p50 {:.3} ms as read",
            result.attempted,
            pass.wall_s,
            result.failed,
            result.setup_s(),
            stats::percentile(&mut result.latencies_ns.clone(), 50.0) as f64 / 1e6,
        );
        for complaint in &result.complaints {
            eprintln!("{tag}: {complaint}");
        }
        run.passes.push(result);
        Ok(())
    }

    /// Stops the probes and reads what they saw against the floor, which
    /// is the quickest this run or an earlier one in this checkout found
    /// (`<target>/ssbench/probe_floor_ns`: the floor is the machine's, and
    /// a run with neighbours on both cores throughout cannot find it).
    fn interference(&self, probes: procs::Probes) -> Interference {
        let kept = self.env.work_dir.join("probe_floor_ns");
        let epoch = probes.epoch();
        let seen = Interference::new(epoch, probes.finish(), interference::earlier_floor(&kept));
        match seen.floor_ns() {
            Some(floor) => interference::keep_floor(&kept, floor),
            None => eprintln!("ssbench: no probe read anything: timings are as read"),
        }
        seen
    }

    /// The traced pass for `run`'s workload.
    fn trace(&mut self, run: &mut Run) -> Result<(), String> {
        let failed = |e| format!("{} traced pass: {e}", run.w.name);
        // Before the in-process servers start their threads, which
        // inherit it.
        let _one_core = run.w.one_core.then(procs::OneCore::enter);
        let micro = match &self.micro {
            Some(micro) => micro.clone(),
            None => {
                let micro = layers::microbenches(&self.corpora[0], self.nproc).map_err(failed)?;
                self.micro.insert(micro).clone()
            }
        };
        let pass =
            layers::traced_pass(run.w, &run.plan, &self.corpora, &self.reference, self.nproc)
                .map_err(failed)?;
        eprintln!(
            "{}: traced pass recorded {} spans",
            run.w.name,
            pass.spans.len()
        );
        run.per_layer = micro.into_iter().chain(pass.values).collect();
        run.spans = pass.spans;
        Ok(())
    }

    /// Writes every traced workload's spans, once, at the end:
    /// `<target>/ssbench/trace.json`, an object keyed by workload.
    fn write_trace(&self, runs: &[Run]) -> Result<(), String> {
        let path = self.env.work_dir.join("trace.json");
        let traced: Vec<String> = runs
            .iter()
            .filter(|run| !run.spans.is_empty())
            .map(|run| format!("\"{}\":{}", run.w.name, trace::to_json(&run.spans)))
            .collect();
        std::fs::write(&path, format!("{{{}}}\n", traced.join(",\n")))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        eprintln!("spans written to {}", path.display());
        Ok(())
    }
}

/// A finished workload: the folded passes, the per-layer values in table
/// order (traced, scraped and generator numbers together), and whether
/// every invariant held.
struct Finished {
    w: Workload,
    plan: RequestPlan,
    outcome: Outcome,
    per_layer: Values,
    correct: bool,
}

fn finish(run: Run, traced: bool, seen: &Interference, work_dir: &Path) -> Finished {
    // How sensitive to a shared core the workload's timings are is learnt
    // by the runs that see both kinds of stretch, for the ones that see
    // only shared ones (`<target>/ssbench/sensitivity_<workload>`).
    let kept = work_dir.join(format!("sensitivity_{}", run.w.name));
    let earlier = interference::earlier_sensitivities(&kept).map(Sensitivities::from_numbers);
    let outcome = measure::fold(&run.passes, run.w, seen, earlier);
    // Half of what was known, half of what this run showed.
    let (was, now) = (
        earlier.unwrap_or(outcome.sensitivity).numbers(),
        outcome.sensitivity.numbers(),
    );
    interference::keep_sensitivities(&kept, std::array::from_fn(|i| (was[i] + now[i]) / 2.0));
    let read = |name| measure::value(&outcome.observed, name);
    let by_pass: Vec<String> = outcome
        .undisturbed_by_pass
        .iter()
        .map(|share| format!("{:.0}", 100.0 * share))
        .collect();
    eprintln!(
        "{}: {:.0} % of the run undisturbed (by pass: {}), dilation {:.2}, sensitivity {:.2}+{:.2}; p50 {:.3} ms ({:.3} as read)",
        run.w.name,
        100.0 * read("loadgen.undisturbed_share"),
        by_pass.join(" "),
        read("loadgen.dilation"),
        outcome.sensitivity.latency.slowest,
        outcome.sensitivity.latency.average,
        measure::value(&outcome.end_to_end, "latency_p50_ms"),
        read("loadgen.latency_raw_p50_ms"),
    );
    let mut correct = outcome.failed == 0 && outcome.attempted > 0;
    // The servers' own counters must tell the same story as the replies.
    let seen = |name| measure::value(&outcome.observed, name);
    let counters_agree = match run.w.name {
        "hot_hits" => seen("cache.misses") == 0.0 && seen("cache.coalesced") == 0.0,
        "mixed_batch" => {
            seen("cache.misses") == 3.0 * seen("cache.coalesced")
                && seen("cache.hits") == 4.0 * seen("cache.coalesced")
        }
        _ => seen("cache.hits") == 0.0 && seen("cache.coalesced") == 0.0,
    };
    if !counters_agree {
        eprintln!(
            "{}: the server's cache counters contradict the workload: {:?}",
            run.w.name,
            &outcome.observed[..3]
        );
        correct = false;
    }
    let per_layer: Values = PER_LAYER
        .iter()
        .filter_map(|m| {
            let found = outcome
                .observed
                .iter()
                .chain(&run.per_layer)
                .find(|(name, _)| *name == m.name);
            found.map(|&(_, value)| (m.name, value))
        })
        .collect();
    if traced && per_layer.len() != PER_LAYER.len() {
        eprintln!(
            "{}: only {} of {} per-layer metrics were measured",
            run.w.name,
            per_layer.len(),
            PER_LAYER.len()
        );
        correct = false;
    }
    Finished {
        w: run.w,
        plan: run.plan,
        outcome,
        per_layer,
        correct,
    }
}

fn metrics_json(defs: &[MetricDef], values: &Values) -> String {
    let fields: Vec<String> = values
        .iter()
        .map(|(name, value)| {
            let unit = defs.iter().find(|m| m.name == *name).map_or("", |m| m.unit);
            format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}")
        })
        .collect();
    format!("{{{}}}", fields.join(","))
}

/// The one line a single-workload run ends with.
fn result_line(f: &Finished, traced: bool) -> String {
    let metrics = if traced {
        metrics_json(&PER_LAYER, &f.per_layer)
    } else {
        metrics_json(&END_TO_END, &f.outcome.end_to_end)
    };
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{metrics}}}",
        f.correct, f.outcome.attempted, f.outcome.failed
    )
}

/// What a run of some workloads produced, with what the report says of
/// the run itself.
struct Ran {
    finished: Vec<Finished>,
    nproc: usize,
    /// `(id, FNV-1a of the CSV)` per corpus.
    corpora_fnv1a: Vec<(&'static str, u64)>,
}

/// Whether `run` makes another pass: the least a run makes, then for as
/// long as one more — taken to last what the last one did — fits into
/// what `seconds` allows.
fn wants_a_pass(run: &Run, seconds: Duration) -> bool {
    run.passes.len() < MIN_PASSES || run.spent + run.last <= seconds
}

/// Runs `workloads` pass by pass in turn — a slow phase of the shared
/// machine then taints a pass of each workload, not all passes of one —
/// and then, if asked, the traced pass of each.
fn run(args: &Args, workloads: &[Workload], traced: bool) -> Result<Ran, String> {
    let mut bench = Bench::new(args.seed)?;
    let mut runs: Vec<Run> = workloads.iter().map(|&w| bench.start(w)).collect();
    let probes = procs::Probes::start();
    let seconds = Duration::from_secs_f64(args.seconds);
    while runs.iter().any(|run| wants_a_pass(run, seconds)) {
        for run in &mut runs {
            if wants_a_pass(run, seconds) {
                // A pass always sends its whole list: 1.3 s on the
                // reference box. One still going after the time meant
                // for all of them is a hung or badly regressed server.
                bench.pass(run, seconds)?;
            }
        }
    }
    let seen = bench.interference(probes);
    if traced {
        // The in-process servers hand requests from thread to thread
        // too: their cores are kept awake as the spawned servers' were.
        let _awake = procs::Probes::start();
        for run in &mut runs {
            bench.trace(run)?;
        }
        bench.write_trace(&runs)?;
    }
    Ok(Ran {
        finished: runs
            .into_iter()
            .map(|run| finish(run, traced, &seen, &bench.env.work_dir))
            .collect(),
        nproc: bench.nproc,
        corpora_fnv1a: bench
            .corpora
            .iter()
            .map(|c| (c.id, gen::fnv1a(c.csv.as_bytes())))
            .collect(),
    })
}

fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_owned(), |s| s.trim().to_owned())
}

/// The full report: what ran, on what, and every number.
fn report(args: &Args, ran: &Ran) -> String {
    let corpora: Vec<String> = ran
        .corpora_fnv1a
        .iter()
        .map(|(id, hash)| format!("\"{id}\":\"{hash:016x}\""))
        .collect();
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\n\"benchmark\":\"ssbench\",\n\"seed\":{},\n\"min_passes\":{},\n\"seconds\":{},\n\"nproc\":{},\n\"git_rev\":\"{}\",\n\"corpora_fnv1a\":{{{}}},\n\"workloads\":{{",
        args.seed,
        MIN_PASSES,
        args.seconds,
        ran.nproc,
        git_rev(),
        corpora.join(","),
    );
    for (i, f) in ran.finished.iter().enumerate() {
        let _ = write!(
            out,
            "{}\n\"{}\":{{\"requests_per_pass\":{},\"requests_fnv1a\":\"{:016x}\",\"correct\":{},\"attempted\":{},\"failed\":{},\n \"server\":{},\n \"end_to_end\":{},\n \"per_layer\":{}}}",
            if i > 0 { "," } else { "" },
            f.w.name,
            f.w.requests,
            f.plan.fingerprint(),
            f.correct,
            f.outcome.attempted,
            f.outcome.failed,
            f.outcome.server,
            metrics_json(&END_TO_END, &f.outcome.end_to_end),
            metrics_json(&PER_LAYER, &f.per_layer),
        );
    }
    out.push_str("\n}\n}");
    out
}

/// Runs everything twice and holds the two sets of results against each
/// other: PASS when neither is worse than the other by more than the
/// metric's bound (the two sets are the same code, so which ran first
/// means nothing), UNRESOLVED otherwise (two sets cannot tell noise
/// from change).
fn selfcheck(args: &Args) -> Result<(), String> {
    // End-to-end metrics only, so no traced pass.
    let first = run(args, &WORKLOADS, false)?.finished;
    let second = run(args, &WORKLOADS, false)?.finished;
    println!(
        "{:<14} {:<24} {:>12} {:>12} {:>8}  verdict",
        "workload", "metric", "first", "second", "diff"
    );
    for (a, b) in first.iter().zip(&second) {
        for m in END_TO_END {
            let (x, y) = (
                measure::value(&a.outcome.end_to_end, m.name),
                measure::value(&b.outcome.end_to_end, m.name),
            );
            let apart = (y / x).max(x / y) - 1.0;
            let pass = a.correct && b.correct && apart <= m.bound.unwrap_or(0.0);
            println!(
                "{:<14} {:<24} {x:>12.4} {y:>12.4} {:>+7.1}%  {}",
                a.w.name,
                m.name,
                (y / x - 1.0) * 100.0,
                if pass { "PASS" } else { "UNRESOLVED" }
            );
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args()) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::from(2);
        }
    };
    let done = if args.selfcheck {
        selfcheck(&args)
    } else if let Some(w) = args.workload {
        let traced = args.trace.unwrap_or(false);
        run(&args, &[w], traced).map(|ran| println!("{}", result_line(&ran.finished[0], traced)))
    } else {
        run(&args, &WORKLOADS, args.trace.unwrap_or(true))
            .map(|ran| println!("{}", report(&args, &ran)))
    };
    match done {
        // An incorrect run still printed its result: `correct` and the
        // counts say what went wrong.
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("ssbench: {message}");
            ExitCode::FAILURE
        }
    }
}
