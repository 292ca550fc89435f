//! The `shapesearch` binary, driven as a subprocess: one-shot answers
//! against the in-process engine, argument refusals in all three
//! subcommands, and the `--announce` heartbeat loop against a router
//! that never answers.

use chaos::{ChaosMode, ChaosProxy};
use shapesearch::prelude::*;
use shapesearch::server::{Client, ServerConfig};
use std::io::Read;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

#[allow(dead_code)]
#[path = "../crates/server/tests/support/chaos.rs"]
mod chaos;

const SALES: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/examples/data/sales.csv");
const SALES_MAPPING: [&str; 6] = ["--z", "product", "--x", "week", "--y", "sales"];

/// A spawned `shapesearch`, killed on drop.
struct Spawned(Child);

impl Drop for Spawned {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

fn poll_until(what: &str, within: Duration, mut done: impl FnMut() -> bool) {
    let deadline = Instant::now() + within;
    while !done() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(100));
    }
}

/// Runs the binary to its exit: `(exit code, stdout, stderr)`. A run
/// that should have refused its arguments and serves instead is killed
/// at the deadline, not waited on forever.
fn shapesearch(args: &[&str]) -> (Option<i32>, String, String) {
    let mut child = Spawned(
        Command::new(env!("CARGO_BIN_EXE_shapesearch"))
            .args(args)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn shapesearch"),
    );
    let mut status = None;
    poll_until(
        &format!("{args:?} to exit"),
        Duration::from_secs(30),
        || {
            status = child.0.try_wait().expect("try_wait");
            status.is_some()
        },
    );
    let (mut stdout, mut stderr) = (String::new(), String::new());
    let pipes = (child.0.stdout.take(), child.0.stderr.take());
    pipes.0.unwrap().read_to_string(&mut stdout).unwrap();
    pipes.1.unwrap().read_to_string(&mut stderr).unwrap();
    (status.unwrap().code(), stdout, stderr)
}

/// Exit code 2 with `needle` on stderr.
fn assert_refused(args: &[&str], needle: &str) {
    let (code, _, stderr) = shapesearch(args);
    assert_eq!(code, Some(2), "{args:?}: {stderr}");
    assert!(stderr.contains(needle), "{args:?}: {stderr}");
}

#[test]
fn one_shot_prints_the_engine_s_top_k_in_order() {
    let (code, stdout, stderr) = shapesearch(
        &[
            &["--data", SALES],
            &SALES_MAPPING[..],
            &["--query", "[p=up][p=down]", "--k", "3"],
        ]
        .concat(),
    );
    assert_eq!(code, Some(0), "{stderr}");
    let printed: Vec<&str> = stdout
        .lines()
        .skip(1) // the column header
        .map(|line| line.split_whitespace().nth(1).expect("rank key score …"))
        .collect();

    let table = shapesearch::datastore::csv::read_file(SALES).unwrap();
    let spec = VisualSpec::new("product", "week", "sales");
    let query = parse_regex("[p=up][p=down]").unwrap();
    let want = ShapeEngine::new(&table, &spec)
        .unwrap()
        .top_k(&query, 3)
        .unwrap();
    assert_eq!(want.len(), 3);
    let want: Vec<&str> = want.iter().map(|r| r.key.as_str()).collect();
    assert_eq!(printed, want);
}

#[test]
fn bad_arguments_exit_2_in_every_subcommand() {
    for subcommand in [&[][..], &["serve"], &["snapshot"]] {
        let args = [subcommand, &["--no-such-flag"]].concat();
        assert_refused(&args, "usage: shapesearch");
        assert_refused(&args, "--no-such-flag");
    }
    let preload = [
        &["serve", "--addr", "127.0.0.1:0", "--data", SALES],
        &SALES_MAPPING[..],
    ]
    .concat();
    assert_refused(
        &[&preload[..], &["--snapshot", "sales.snap"]].concat(),
        "mutually exclusive",
    );
    assert_refused(
        &[&preload[..], &["--announce", "127.0.0.1:9"]].concat(),
        "--announce requires --shard-of",
    );
    assert_refused(
        &[
            &preload[..],
            &["--shard-of", "0/1", "--announce", "not-an-address"],
        ]
        .concat(),
        "--announce `not-an-address` does not resolve",
    );
}

/// `sales`' registry entry on `router`: `(fresh, age_secs)`.
fn announced(router: &Client) -> Option<(bool, usize)> {
    let registry = router.get("/registry").unwrap().expect_ok("registry");
    let entry = registry.get("entries")?.as_array()?.first()?;
    assert_eq!(entry.get("dataset")?.as_str(), Some("sales"));
    Some((
        entry.get("fresh")?.as_bool()?,
        entry.get("age_secs")?.as_usize()?,
    ))
}

/// One router that accepts and never answers must not silence the
/// heartbeats to the next one — and the documented `http://` spelling
/// must reach it.
#[test]
fn heartbeats_outlive_a_black_holed_router() {
    let router = shapesearch::server::serve("127.0.0.1:0", ServerConfig::default()).unwrap();
    let black_hole = ChaosProxy::start(&router.addr().to_string()).unwrap();
    black_hole.set_mode(ChaosMode::BlackHole);

    let _shard = Spawned(
        Command::new(env!("CARGO_BIN_EXE_shapesearch"))
            .args(["serve", "--addr", "127.0.0.1:0", "--data", SALES])
            .args(SALES_MAPPING)
            .args(["--name", "sales", "--shard-of", "0/1"])
            .args(["--announce", &black_hole.endpoint()])
            .args(["--announce", &format!("http://{}", router.addr())])
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn shapesearch serve"),
    );

    let client = Client::new(router.addr());
    poll_until(
        "the first heartbeat past the black hole",
        Duration::from_secs(10),
        || matches!(announced(&client), Some((true, _))),
    );
    // The loop keeps going: the entry's age climbs between beats and
    // drops back when the next one lands.
    let mut oldest = 0;
    poll_until("a second heartbeat", Duration::from_secs(30), || {
        let (fresh, age) = announced(&client).expect("the entry stays registered");
        assert!(fresh, "the entry went stale at {age} s");
        let refreshed = age < oldest;
        oldest = oldest.max(age);
        refreshed
    });
    assert!(black_hole.connections() >= 1, "the black hole was dialed");
    router.shutdown();
}
