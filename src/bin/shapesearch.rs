//! The `shapesearch` command-line tool: shape-based search over a CSV or
//! JSON-lines file, either one-shot or as a long-running query service.
//!
//! ```text
//! shapesearch --data sales.csv --z product --x week --y sales \
//!             --query "[p=up][p=down]" [--k 5] [--algo ALGO] \
//!             [--filter "col<=value"] [--agg avg]
//! shapesearch --data genes.csv -z gene -x time -y expr \
//!             --nl "rising then falling sharply"
//! shapesearch serve [--addr 127.0.0.1:7878] [--workers N] \
//!             [--cache-cap N] [--max-batch N] [--shards N] \
//!             [--data FILE --z COL --x COL --y COL [--name NAME]] \
//!             [--snapshot FILE [--name NAME]]
//! shapesearch snapshot --data FILE --z COL --x COL --y COL --out FILE \
//!             [--filter "col<=value"] [--agg avg]
//! ```
//!
//! `--help` prints every flag and the `--algo` values. One-shot mode
//! prints the ranked matches with scores and the fitted segment
//! boundaries (the engine-side equivalent of the paper's result panel,
//! Figure 2 Box 4). `serve` exposes the same pipeline over HTTP with a
//! dataset catalog and a query-result cache, on `--workers` serving
//! threads (each serves a request on the thread that reads it) and
//! `--workers` compute threads;
//! a `--snapshot` is opened, validated and cut once, and the kernel pages
//! the mapping. See the `shapesearch-server` crate docs for the protocol.

use shapesearch::prelude::*;
use shapesearch_core::{Collection, PruningMode, SegmenterKind};
use std::process::ExitCode;

/// The table-source flags all three subcommands take: `--data`, the
/// `--z/--x/--y` visual mapping, `--filter`s and `--agg`.
#[derive(Debug, Default)]
struct SourceArgs {
    data: Option<String>,
    z: Option<String>,
    x: Option<String>,
    y: Option<String>,
    filters: Vec<String>,
    agg: Option<String>,
}

impl SourceArgs {
    /// Stores `flag`'s value (read with `take`) when `flag` is a source
    /// flag; `false` leaves it to the subcommand's own flags.
    fn accept(
        &mut self,
        flag: &str,
        take: &mut impl FnMut(&str) -> Result<String, String>,
    ) -> Result<bool, String> {
        match flag {
            "--data" => self.data = Some(take("--data")?),
            "--z" | "-z" => self.z = Some(take("--z")?),
            "--x" | "-x" => self.x = Some(take("--x")?),
            "--y" | "-y" => self.y = Some(take("--y")?),
            "--filter" => self.filters.push(take("--filter")?),
            "--agg" => self.agg = Some(take("--agg")?),
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// Whether any flag besides `--data` was given.
    fn has_mapping(&self) -> bool {
        self.z.is_some()
            || self.x.is_some()
            || self.y.is_some()
            || !self.filters.is_empty()
            || self.agg.is_some()
    }

    /// The visual mapping with its filters and aggregation; `incomplete`
    /// is the subcommand's complaint when `--z`, `--x` or `--y` is missing.
    fn visual(&self, incomplete: &str) -> Result<VisualSpec, String> {
        let (Some(z), Some(x), Some(y)) = (&self.z, &self.x, &self.y) else {
            return Err(incomplete.to_owned());
        };
        let mut visual = VisualSpec::new(z, x, y);
        for f in &self.filters {
            visual = visual.with_filter(parse_filter(f)?);
        }
        if let Some(agg) = &self.agg {
            visual = visual.with_aggregation(
                Aggregation::parse(agg).ok_or_else(|| format!("unknown aggregation `{agg}`"))?,
            );
        }
        Ok(visual)
    }
}

/// Loads `path` as JSON-lines or CSV, by extension.
fn load_table(path: &str) -> Result<Table, String> {
    shapesearch::datastore::read_file(path).map_err(|e| format!("loading {path}: {e}"))
}

#[derive(Debug, Default)]
struct Cli {
    source: SourceArgs,
    query: Option<String>,
    nl: Option<String>,
    k: usize,
    algo: SegmenterKind,
    pruning: PruningMode,
    builtins: bool,
}

fn usage() -> &'static str {
    "usage: shapesearch --data FILE --z COL --x COL --y COL \
     (--query REGEX | --nl TEXT) [--k N] [--algo dp|tree|pruned|greedy|dtw|euclid] \
     [--pruning auto|off] \
     [--filter 'col OP value']... [--agg avg|sum|min|max|count] [--builtins]\n\
     shapesearch serve [--addr HOST:PORT] [--workers N (serving and compute threads; \
      a request is served on the thread that reads it)] [--cache-cap N] \
     [--max-batch N] [--shards N] \
     [--data-root DIR] [--slow-query-micros N] \
     [--shard-connect-timeout-ms N] [--shard-io-timeout-ms N] [--shard-retries N] \
     [--data FILE --z COL --x COL --y COL [--name NAME] [--filter ...] [--agg ...] \
      | --snapshot FILE (opened, validated, cut once; the kernel pages the mapping) \
      [--name NAME]] \
      [--shard-of I/N [--announce ROUTER ...] [--advertise HOST:PORT] \
       | --shard-endpoint 'HOST:PORT[|HOST:PORT...]'|local|registry ...]\n\
     shapesearch snapshot --data FILE --z COL --x COL --y COL --out FILE \
     [--filter 'col OP value']... [--agg avg|sum|min|max|count]"
}

/// Reads `flag`'s value (through `take`) as an integer.
fn integer<T: std::str::FromStr>(
    flag: &str,
    take: &mut impl FnMut(&str) -> Result<String, String>,
) -> Result<T, String> {
    take(flag)?
        .parse()
        .map_err(|_| format!("{flag} must be an integer"))
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        k: 5,
        ..Cli::default()
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut take = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} requires a value"))
        };
        match a.as_str() {
            flag if cli.source.accept(flag, &mut take)? => {}
            "--query" | "-q" => cli.query = Some(take("--query")?),
            "--nl" => cli.nl = Some(take("--nl")?),
            "--k" | "-k" => {
                cli.k = integer("--k", &mut take)?;
            }
            "--algo" => {
                let name = take("--algo")?;
                cli.algo = SegmenterKind::parse(&name)
                    .ok_or_else(|| format!("unknown algorithm `{name}`"))?;
            }
            "--pruning" => {
                let name = take("--pruning")?;
                cli.pruning = PruningMode::parse(&name)
                    .ok_or_else(|| format!("unknown pruning mode `{name}`"))?;
            }
            "--builtins" => cli.builtins = true,
            "--help" | "-h" => return Err(usage().to_owned()),
            other => return Err(format!("unknown argument `{other}`\n{}", usage())),
        }
    }
    Ok(cli)
}

/// Parses a `col OP value` filter expression: `OP` is the first run of
/// `<>=!` characters, in [`CompareOp::parse`]'s vocabulary.
fn parse_filter(text: &str) -> Result<Predicate, String> {
    let is_op = |c: char| "<>=!".contains(c);
    let start = text
        .find(is_op)
        .ok_or_else(|| format!("filter `{text}` has no comparison operator"))?;
    let end = text[start..]
        .find(|c| !is_op(c))
        .map_or(text.len(), |n| start + n);
    let op = CompareOp::parse(&text[start..end])
        .ok_or_else(|| format!("unknown filter op `{}` in `{text}`", &text[start..end]))?;
    let (col, val) = (text[..start].trim(), text[end..].trim());
    if col.is_empty() || val.is_empty() {
        return Err(format!("malformed filter `{text}`"));
    }
    Ok(Predicate::new(
        col,
        op,
        shapesearch::datastore::Value::infer(val),
    ))
}

/// Parses and runs `shapesearch serve ...`, blocking until killed.
fn run_serve(args: &[String]) -> Result<(), String> {
    use shapesearch::server::catalog::ShardEndpoints;
    use shapesearch::server::{Client, DataSource, DatasetSpec, ServerConfig};
    use std::net::ToSocketAddrs;

    /// The heartbeat interval, and the longest one beat may wait on a
    /// router's connect or reply (registry entries stay fresh for 30 s).
    const BEAT: std::time::Duration = std::time::Duration::from_secs(2);

    let mut addr = "127.0.0.1:7878".to_owned();
    let mut config = ServerConfig::default();
    let mut source = SourceArgs::default();
    let mut snapshot: Option<String> = None;
    let mut name: Option<String> = None;
    let mut shard_of: Option<(usize, usize)> = None;
    let mut from_registry = false;
    let mut shard_endpoints: Vec<Option<Vec<String>>> = Vec::new();
    let mut announce: Vec<String> = Vec::new();
    let mut advertise: Option<String> = None;

    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut take = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} requires a value"))
        };
        match a.as_str() {
            flag if source.accept(flag, &mut take)? => {}
            "--addr" => addr = take("--addr")?,
            "--workers" => {
                config.workers = integer("--workers", &mut take)?;
            }
            "--cache-cap" => {
                config.cache_capacity = integer("--cache-cap", &mut take)?;
            }
            "--max-batch" => {
                config.max_batch = integer("--max-batch", &mut take)?;
                if config.max_batch == 0 {
                    return Err("--max-batch must be at least 1".to_owned());
                }
            }
            "--shards" => {
                // Engine shards per dataset: 0 = auto (available
                // parallelism), always capped by each dataset's
                // collection size.
                config.shards = integer("--shards", &mut take)?;
            }
            "--data-root" => config.data_root = Some(take("--data-root")?.into()),
            "--slow-query-micros" => {
                // Queries slower than this emit a structured stderr line
                // carrying the trace ID; 0 (the default) disables it.
                config.slow_query_micros = integer("--slow-query-micros", &mut take)?;
            }
            "--shard-of" => {
                // Shard-server mode for the preloaded dataset: own
                // partition I of a deterministic N-way split and answer
                // POST /shard/query for a router.
                shard_of = Some(shapesearch::server::protocol::parse_shard_of(&take(
                    "--shard-of",
                )?)?);
            }
            "--shard-endpoint" => {
                // Repeatable; entries map to shard indices in flag
                // order. `local` keeps that partition in this process;
                // `HOST:PORT|HOST:PORT` (pipe-separated) declares a
                // replica set for that partition; a single `registry`
                // resolves the whole placement from heartbeats instead.
                let ep = take("--shard-endpoint")?;
                if ep.eq_ignore_ascii_case("registry") {
                    from_registry = true;
                } else if ep.eq_ignore_ascii_case("local") {
                    shard_endpoints.push(None);
                } else {
                    let replicas: Vec<String> = ep.split('|').map(str::to_owned).collect();
                    if replicas.iter().any(String::is_empty) {
                        return Err(format!("--shard-endpoint `{ep}` has an empty replica"));
                    }
                    shard_endpoints.push(Some(replicas));
                }
            }
            "--shard-connect-timeout-ms" => {
                // Bounds ONE connect attempt to one replica before
                // failover moves on.
                config.shard_connect_timeout_ms = integer("--shard-connect-timeout-ms", &mut take)?;
            }
            "--shard-io-timeout-ms" => {
                // Bounds how long a black-holed replica can stall a
                // fan-out before failover moves on.
                config.shard_io_timeout_ms = integer("--shard-io-timeout-ms", &mut take)?;
            }
            "--shard-retries" => {
                // Extra connect attempts per replica after the first
                // fails, before failover tries the next replica.
                config.shard_retries = integer("--shard-retries", &mut take)?;
            }
            "--announce" => {
                // Repeatable: a router (`HOST:PORT`, `http://` optional)
                // to send placement heartbeats to, so
                // `"shard_endpoints": "registry"` registrations there can
                // discover this shard server. A value that does not
                // resolve is refused here, not discovered beat by beat.
                let given = take("--announce")?;
                let router = given.strip_prefix("http://").unwrap_or(&given);
                if let Err(e) = router.to_socket_addrs() {
                    return Err(format!("--announce `{given}` does not resolve: {e}"));
                }
                announce.push(router.to_owned());
            }
            "--advertise" => {
                // The endpoint heartbeats claim; defaults to the bound
                // address (pass this when routers reach this process
                // through a different host, e.g. behind NAT).
                advertise = Some(take("--advertise")?);
            }
            "--snapshot" => snapshot = Some(take("--snapshot")?),
            "--name" => name = Some(take("--name")?),
            other => return Err(format!("unknown serve argument `{other}`\n{}", usage())),
        }
    }

    let service =
        shapesearch::server::serve(&addr, config).map_err(|e| format!("binding {addr}: {e}"))?;

    // Optional preregistration so the service starts useful: an eager
    // --data extraction, or a --snapshot, opened, validated and cut once.
    let prereg = match (source.data.take(), snapshot) {
        (Some(_), Some(_)) => {
            return Err("--data and --snapshot are mutually exclusive: build the \
                        snapshot with `shapesearch snapshot`, then serve it"
                .into())
        }
        (Some(path), None) => Some((
            DataSource::Path(path),
            source.visual("--data needs --z, --x, and --y")?,
        )),
        (None, Some(path)) => {
            if source.has_mapping() {
                return Err("--snapshot bakes the visual mapping in at build time; \
                            --z/--x/--y/--filter/--agg do not apply"
                    .into());
            }
            Some((DataSource::Snapshot(path), VisualSpec::new("z", "x", "y")))
        }
        (None, None) => None,
    };
    if let Some((source, visual)) = prereg {
        let path = match &source {
            DataSource::Path(p) | DataSource::Snapshot(p) => p.clone(),
            _ => unreachable!("preregistration sources are file paths"),
        };
        let spec = DatasetSpec {
            id: name.clone(),
            name: name.unwrap_or(path),
            source,
            visual,
            builtins: true,
            shards: None,
            shard_endpoints: if from_registry {
                if !shard_endpoints.is_empty() {
                    return Err(
                        "--shard-endpoint registry cannot mix with explicit endpoints".into(),
                    );
                }
                Some(ShardEndpoints::FromRegistry)
            } else if shard_endpoints.is_empty() {
                None
            } else {
                Some(ShardEndpoints::Explicit(shard_endpoints))
            },
            shard_of,
        };
        let entry = service
            .state()
            .register(spec, std::time::Duration::ZERO)
            .map_err(|e| e.to_string())?;
        match entry.shard_of {
            Some((index, total)) => println!(
                "registered shard {index}/{total} of dataset `{}` \
                 ({} trendlines, {} points) — answering POST /shard/query",
                entry.id, entry.trendline_count, entry.point_count,
            ),
            None => println!(
                "registered dataset `{}` ({} trendlines, {} points, {} shard{}{})",
                entry.id,
                entry.trendline_count,
                entry.point_count,
                entry.shard_count,
                if entry.shard_count == 1 { "" } else { "s" },
                if entry.has_remote_shards() {
                    ", remote placements"
                } else {
                    ""
                },
            ),
        }
        // Placement heartbeats: announce this shard server's partition
        // to each router every few seconds so their
        // `"shard_endpoints": "registry"` registrations can resolve it.
        // Failures are silently retried on the next beat — a router
        // being down must never take a shard server with it, and one
        // that accepts and never answers costs the others one beat
        // interval per round, not their registry entries.
        if !announce.is_empty() {
            let Some((index, total)) = entry.shard_of else {
                return Err("--announce requires --shard-of (only shard servers announce)".into());
            };
            let endpoint = advertise.unwrap_or_else(|| service.addr().to_string());
            let beat = format!(
                r#"{{"dataset":"{}","shard_of":"{index}/{total}","endpoint":"{endpoint}"}}"#,
                entry.id
            );
            let beat = shapesearch::server::json::parse(&beat).map_err(|e| e.to_string())?;
            for router in &announce {
                println!(
                    "announcing shard {index}/{total} of `{}` to {router}",
                    entry.id
                );
            }
            let routers: Vec<Client> = announce
                .iter()
                .map(|router| Client::with_timeouts(router, BEAT, BEAT))
                .collect();
            std::thread::spawn(move || loop {
                for router in &routers {
                    let _ = router.post("/registry/heartbeat", &beat);
                }
                std::thread::sleep(BEAT);
            });
        }
    } else if shard_of.is_some() || !shard_endpoints.is_empty() || from_registry {
        return Err(
            "--shard-of / --shard-endpoint only apply to a --data/--snapshot preregistration"
                .into(),
        );
    } else if !announce.is_empty() || advertise.is_some() {
        return Err("--announce / --advertise require a --data --shard-of preregistration".into());
    }

    let local = service.addr();
    println!("shapesearch server listening on http://{local}");
    println!("try: curl -s http://{local}/healthz");
    loop {
        std::thread::park();
    }
}

/// Parses and runs `shapesearch snapshot ...`: EXTRACT once, then
/// persist its output to a versioned on-disk snapshot that `serve
/// --snapshot` (or a `"snapshot"` registration) can mmap and cut
/// shard-by-shard — byte-identical to re-extracting the source.
fn run_snapshot(args: &[String]) -> Result<(), String> {
    let mut source = SourceArgs::default();
    let mut out: Option<String> = None;

    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut take = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} requires a value"))
        };
        match a.as_str() {
            flag if source.accept(flag, &mut take)? => {}
            "--out" | "-o" => out = Some(take("--out")?),
            other => return Err(format!("unknown snapshot argument `{other}`\n{}", usage())),
        }
    }
    let data = source.data.as_deref().ok_or("snapshot needs --data")?;
    let out = out.ok_or("snapshot needs --out")?;
    let spec = source.visual("snapshot needs --z, --x, and --y")?;
    let table = load_table(data)?;

    let collection = Collection::extract(&table, &spec).map_err(|e| e.to_string())?;
    let stats = shapesearch::core::snapshot::write(&out, &collection).map_err(|e| e.to_string())?;
    println!(
        "wrote {out}: {} trendlines, {} raw points, {} bytes",
        stats.trendlines, stats.raw_points, stats.bytes,
    );
    Ok(())
}

fn run() -> Result<(), String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("serve") {
        return run_serve(&argv[1..]);
    }
    if argv.first().map(String::as_str) == Some("snapshot") {
        return run_snapshot(&argv[1..]);
    }
    let cli = parse_cli(&argv)?;
    let data = cli
        .source
        .data
        .as_deref()
        .ok_or_else(|| usage().to_owned())?;
    let spec = cli.source.visual(usage())?;
    let table = load_table(data)?;

    // Parse the query.
    let query = match (&cli.query, &cli.nl) {
        (Some(q), _) => parse_regex(q).map_err(|e| e.to_string())?,
        (None, Some(text)) => {
            let parsed = parse_natural_language(text).map_err(|e| e.to_string())?;
            eprintln!("parsed query: {}", parsed.query);
            for note in &parsed.notes {
                eprintln!("note: {note}");
            }
            parsed.query
        }
        (None, None) => return Err(usage().to_owned()),
    };

    let mut engine = ShapeEngine::new(&table, &spec)
        .map_err(|e| e.to_string())?
        .with_segmenter(cli.algo);
    engine.options_mut().pruning_mode = cli.pruning;
    if cli.builtins {
        engine.register_builtin_udps();
    }
    let results = engine.top_k(&query, cli.k).map_err(|e| e.to_string())?;

    if results.is_empty() {
        println!("no matches");
        return Ok(());
    }
    println!("{:<4} {:<24} {:>8}  segments", "rank", "key", "score");
    for (i, r) in results.iter().enumerate() {
        let segs: Vec<String> = r.ranges.iter().map(|&(s, e)| format!("{s}..{e}")).collect();
        println!(
            "{:<4} {:<24} {:>+8.3}  {}",
            i + 1,
            r.key,
            r.score,
            segs.join(" ")
        );
    }
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::from(2)
        }
    }
}
