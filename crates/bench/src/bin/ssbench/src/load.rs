//! One pass of one workload against freshly spawned servers: set-up,
//! the measured closed loop, and the readings around it.
//!
//! The closed loop is the load model: an analyst, or a dashboard, waits
//! for each reply before sending the next request, over one keep-alive
//! connection. There is one client: the box has two cores, and a second
//! client beside the server's own threads measured the scheduler. The
//! timed path ([`drive`]) uses only [`crate::wire`], the clock and probe
//! readings of [`crate::procs`], and `std`.

use crate::gen::{Corpus, RequestPlan, Workload};
use crate::procs::{self, OneCore, Server};
use crate::wire::{self, Conn};
use std::io;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// What every pass of a run shares: where the servers come from, where
/// their logs go, and what gets registered on them.
pub struct Env {
    pub server_bin: PathBuf,
    pub work_dir: PathBuf,
    /// `(id, csv as a JSON string)`, escaped once per run (off the
    /// clock: preparing inputs is not set-up).
    corpora: Vec<(&'static str, String)>,
}

fn json_string(text: &str) -> String {
    let mut out = String::with_capacity(text.len() + text.len() / 16 + 2);
    out.push('"');
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

impl Env {
    pub fn new(server_bin: PathBuf, work_dir: PathBuf, corpora: &[Corpus]) -> Self {
        Self {
            server_bin,
            work_dir,
            corpora: corpora
                .iter()
                .map(|c| (c.id, json_string(&c.csv)))
                .collect(),
        }
    }

    /// The `POST /datasets` body for corpus `id`, `extra` being further
    /// `,"key":value` fields.
    fn registration(&self, id: &str, extra: &str) -> String {
        let (id, csv) = self
            .corpora
            .iter()
            .find(|(name, _)| *name == id)
            .expect("workloads name generated corpora");
        format!(r#"{{"name":"{id}","id":"{id}","csv":{csv},"z":"z","x":"x","y":"y"{extra}}}"#)
    }
}

/// The servers of a pass. `servers[0]` is the front door; dropping the
/// cluster kills and reaps every process.
pub struct Cluster {
    pub servers: Vec<Server>,
    /// When set-up began and ended.
    pub setup: (Instant, Instant),
    /// The warm-up replies, in warm-up order.
    pub warm_replies: Vec<Vec<u8>>,
}

impl Cluster {
    pub fn front(&self) -> &str {
        &self.servers[0].addr
    }
}

fn post_ok(addr: &str, path: &str, body: &str, want: u16) -> io::Result<()> {
    let (status, text) = wire::once(addr, "POST", path, body)?;
    if status == want {
        Ok(())
    } else {
        Err(io::Error::other(format!("POST {path} → {status}: {text}")))
    }
}

/// Set-up, timed as `setup_s`: spawn of the first process → listening →
/// corpora registered over HTTP (shard servers first) → warm-up list
/// answered by one client.
pub fn set_up(
    env: &Env,
    routed: Option<(&'static str, usize)>,
    plan: &RequestPlan,
    tag: &str,
) -> io::Result<Cluster> {
    let started = Instant::now();
    let spawn = |i: usize| {
        Server::spawn(
            &env.server_bin,
            env.work_dir.join(format!("server-{tag}-{i}.log")),
        )
    };
    let mut shards = Vec::new();
    if let Some((routed, n)) = routed {
        for i in 0..n {
            let server = spawn(i + 1)?;
            let part = format!(r#","shard_of":"{i}/{n}""#);
            post_ok(
                &server.addr,
                "/datasets",
                &env.registration(routed, &part),
                201,
            )?;
            shards.push(server);
        }
    }
    let front = spawn(0)?;
    let endpoints: Vec<String> = shards.iter().map(|s| format!("\"{}\"", s.addr)).collect();
    let placed = format!(r#","shard_endpoints":[{}]"#, endpoints.join(","));
    for (id, _) in &env.corpora {
        let is_routed = routed.is_some_and(|(routed, _)| routed == *id);
        let body = env.registration(id, if is_routed { &placed } else { "" });
        post_ok(&front.addr, "/datasets", &body, 201)?;
    }
    let mut conn = Conn::connect(&front.addr)?;
    let mut warm_replies = Vec::with_capacity(plan.warmup.len());
    for request in &plan.warmup {
        let mut reply = Vec::new();
        let status = conn.roundtrip(
            &wire::request_bytes("POST", "/query", &request.body()),
            &mut reply,
        )?;
        if status != 200 {
            return Err(io::Error::other(format!(
                "warm-up query → {status}: {}",
                String::from_utf8_lossy(&reply)
            )));
        }
        warm_replies.push(reply);
    }
    let mut servers = vec![front];
    servers.extend(shards);
    Ok(Cluster {
        servers,
        setup: (started, Instant::now()),
        warm_replies,
    })
}

/// What the timed loop notes about one reply. Judged later, off the
/// clock.
#[derive(Debug, Clone, Copy, Default)]
pub struct Seen {
    /// `None` is a transport error.
    pub status: Option<u16>,
    pub cached_true: u8,
    pub cached_false: u8,
}

/// A slice boundary: when, the servers' CPU time so far, and — where
/// the client reads the interference probe itself — what it read.
#[derive(Debug, Clone, Copy)]
pub struct Mark {
    pub at: Instant,
    pub server_cpu_ms: f64,
    /// The quickest of three [`procs::probe_ns`] readings, or 0.
    pub probe_ns: u32,
}

/// The client's measured loop.
pub struct ClientRun {
    pub latencies_ns: Vec<u64>,
    pub seen: Vec<Seen>,
    /// `(position, body)` of every `keep_every`-th reply.
    pub kept: Vec<(usize, Vec<u8>)>,
    /// `(position, mark)`: one before the first request of each slice
    /// (`Workload::slice` requests: the stretch the servers' CPU time
    /// is read over, and the grain at which `measure::fold` tells what
    /// the machine disturbed), and one after the last reply.
    pub marks: Vec<(usize, Mark)>,
}

fn mark(pids: &[u32], read_probe: bool) -> Mark {
    Mark {
        at: Instant::now(),
        // A server that is gone fails the requests that follow; the
        // reading itself need not.
        server_cpu_ms: pids
            .iter()
            .map(|&pid| procs::cpu_ms(pid).unwrap_or(0.0))
            .sum(),
        probe_ns: if read_probe {
            (0..3).map(|_| procs::probe_ns()).min().unwrap_or(0)
        } else {
            0
        },
    }
}

/// The closed loop: send, wait for the whole reply, note it, repeat —
/// until the list ends, or `cap` passes (a safety limit: a pass is meant
/// to send its whole list). A transport error ends the loop (the
/// connection is gone) and counts as one failure.
fn drive(
    addr: &str,
    wire_requests: &[Vec<u8>],
    order: &[u32],
    keep_every: usize,
    cap: Duration,
    pids: &[u32],
    w: Workload,
) -> ClientRun {
    let mut run = ClientRun {
        latencies_ns: Vec::with_capacity(order.len()),
        seen: Vec::with_capacity(order.len()),
        kept: Vec::with_capacity(order.len() / keep_every + 1),
        marks: Vec::with_capacity(order.len() / w.slice + 2),
    };
    let Ok(mut conn) = Conn::connect(addr) else {
        run.seen.push(Seen::default());
        return run;
    };
    let mut body = Vec::with_capacity(4096);
    // Read after the connect, which is in no slice.
    let deadline = Instant::now() + cap;
    for (pos, &which) in order.iter().enumerate() {
        if pos % w.slice == 0 {
            // On one core the idle-class probes never get a turn, so the
            // client reads the probe itself, between two slices.
            run.marks.push((pos, mark(pids, w.one_core)));
        }
        let sent = Instant::now();
        let status = conn.roundtrip(&wire_requests[which as usize], &mut body);
        let replied = Instant::now();
        let Ok(status) = status else {
            run.seen.push(Seen::default());
            break;
        };
        run.latencies_ns.push((replied - sent).as_nanos() as u64);
        run.seen.push(Seen {
            status: Some(status),
            cached_true: wire::count(&body, b"\"cached\":true").min(255) as u8,
            cached_false: wire::count(&body, b"\"cached\":false").min(255) as u8,
        });
        if pos % keep_every == 0 {
            run.kept
                .push((pos, std::mem::replace(&mut body, Vec::with_capacity(4096))));
        }
        if replied >= deadline {
            break;
        }
    }
    run.marks
        .push((run.latencies_ns.len(), mark(pids, w.one_core)));
    run
}

/// Counters read from a server's `/healthz` and `/metrics`.
pub struct Scrape {
    pub healthz: String,
    pub metrics: String,
}

pub fn scrape(addr: &str) -> io::Result<Scrape> {
    Ok(Scrape {
        healthz: wire::once(addr, "GET", "/healthz", "")?.1,
        metrics: wire::once(addr, "GET", "/metrics", "")?.1,
    })
}

/// Everything one pass measured.
pub struct Pass {
    /// When set-up began and ended.
    pub setup: (Instant, Instant),
    pub client: ClientRun,
    /// First mark to last, the CPU-time readings included.
    pub wall_s: f64,
    pub client_cpu_ms: f64,
    pub peak_rss_mib: f64,
    /// Per server, around the measured loop.
    pub before: Vec<Scrape>,
    pub after: Vec<Scrape>,
    pub warm_replies: Vec<Vec<u8>>,
}

/// Runs one pass: fresh servers, set-up, then the client's closed loop
/// until its list ends (or `cap` passes).
pub fn run_pass(
    env: &Env,
    w: Workload,
    plan: &RequestPlan,
    keep_every: usize,
    cap: Duration,
    tag: &str,
) -> io::Result<Pass> {
    // Before the servers are spawned: they inherit it.
    let _one_core = w.one_core.then(OneCore::enter);
    let cluster = set_up(env, w.routed, plan, tag)?;
    let wire_requests: Vec<Vec<u8>> = plan
        .requests
        .iter()
        .map(|r| wire::request_bytes("POST", "/query", &r.body()))
        .collect();
    let scrape_all = || {
        cluster
            .servers
            .iter()
            .map(|s| scrape(&s.addr))
            .collect::<io::Result<Vec<_>>>()
    };
    let pids: Vec<u32> = cluster.servers.iter().map(Server::pid).collect();

    let before = scrape_all()?;
    let own_before = procs::thread_cpu_ms()?;
    let client = drive(
        cluster.front(),
        &wire_requests,
        &plan.order,
        keep_every,
        cap,
        &pids,
        w,
    );
    let own_after = procs::thread_cpu_ms()?;
    let after = scrape_all()?;
    let peak_rss_mib = cluster
        .servers
        .iter()
        .map(Server::peak_rss_mib)
        .sum::<io::Result<f64>>()?;
    let wall_s = match (client.marks.first(), client.marks.last()) {
        (Some((_, first)), Some((_, last))) => (last.at - first.at).as_secs_f64(),
        _ => 0.0,
    };
    Ok(Pass {
        setup: cluster.setup,
        client,
        wall_s,
        client_cpu_ms: own_after - own_before,
        peak_rss_mib,
        before,
        after,
        warm_replies: cluster.warm_replies,
    })
}

/// Refuses to start without the production binary: the benchmark
/// measures that program, and builds nothing itself.
pub fn require_server_bin(path: &Path) -> Result<(), String> {
    if path.is_file() {
        Ok(())
    } else {
        Err(format!(
            "{} is missing: build the server first (`cargo build --release --bin shapesearch`, \
             or run this benchmark through its run.sh)",
            path.display()
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csv_text_becomes_one_json_string() {
        assert_eq!(
            json_string("z,x,y\na\"b\\,1,2\n"),
            r#""z,x,y\na\"b\\,1,2\n""#
        );
    }

    #[test]
    fn registrations_carry_the_corpus_and_the_extra_fields() {
        let corpora = [
            Corpus {
                id: "walks",
                csv: "z,x,y\na,0,1\n".into(),
            },
            Corpus {
                id: "haystack",
                csv: "z,x,y\n".into(),
            },
        ];
        let t = Env::new(PathBuf::new(), PathBuf::new(), &corpora);
        assert_eq!(
            t.registration("walks", r#","shard_of":"1/2""#),
            r#"{"name":"walks","id":"walks","csv":"z,x,y\na,0,1\n","z":"z","x":"x","y":"y","shard_of":"1/2"}"#
        );
        assert!(t.registration("haystack", "").ends_with(r#""y":"y"}"#));
    }
}
