//! Blocking HTTP/JSON clients for the server.
//!
//! [`Client`] is the simple one-connection-per-call client used by the
//! integration tests, the shard servers' heartbeats, and handy for
//! scripting. [`PooledClient`] is the router-side RPC client for
//! multi-machine sharding: it keeps a small pool of keep-alive
//! connections per shard endpoint (remote shard fan-out happens on every
//! cache miss, so a TCP handshake per RPC would dominate small queries)
//! and retries connect failures (a configurable number of times,
//! [`ClientConfig::retries`]) before reporting an endpoint unreachable.
//!
//! Both speak through one bounded exchange (`exchange`): connect and
//! I/O timeouts on every socket, capped line, header-count and body
//! sizes, and `Content-Length` framing (the server always sends it) — a
//! peer that accepts and never answers, or dies mid-reply, is an `Err`
//! after a bounded wait, never a hang and never a parsed fragment.
//!
//! For replicated shards, [`PooledClient::post_replicas`] generalizes
//! that single-endpoint retry into **try-next-replica failover** with
//! per-endpoint health state: an endpoint that fails
//! [`ClientConfig::eject_after`] consecutive calls is *ejected* —
//! demoted to last resort so healthy replicas stop paying its connect
//! timeout — and re-admitted to its declared position after
//! [`ClientConfig::probe_after`] for one probe call (a circuit
//! breaker's closed → open → half-open cycle). Ejected endpoints are
//! still tried when every healthy replica has failed: a call fails
//! only once **every** replica has been attempted, so replica order is
//! a latency preference, never a correctness decision.

use crate::json::{self, Json};
use std::collections::{BTreeMap, HashMap};
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// A parsed response: status code plus JSON body.
#[derive(Debug, Clone)]
pub struct ClientResponse {
    /// The HTTP status code.
    pub status: u16,
    /// The parsed JSON response body.
    pub body: Json,
}

impl ClientResponse {
    /// Panics with the server's error body unless the status is 2xx —
    /// for tests and scripts where any failure is fatal anyway.
    pub fn expect_ok(self, context: &str) -> Json {
        assert!(
            (200..300).contains(&self.status),
            "{context}: status {} body {}",
            self.status,
            self.body.to_text()
        );
        self.body
    }
}

/// A blocking client bound to one server address. Each call opens a
/// fresh connection (`Connection: close`), which keeps the client free
/// of pooling state and exercises the server's accept path.
#[derive(Debug, Clone)]
pub struct Client {
    addr: String,
    connect_timeout: Duration,
    io_timeout: Duration,
}

impl Client {
    /// A client for the server at `addr` (anything printable as
    /// `host:port`) with the default [`ClientConfig`] timeouts.
    pub fn new(addr: impl ToString) -> Self {
        let defaults = ClientConfig::default();
        Self::with_timeouts(addr, defaults.connect_timeout, defaults.io_timeout)
    }

    /// A client whose connects give up after `connect_timeout` and whose
    /// socket reads and writes after `io_timeout` each — for callers
    /// that must not wait on a dead peer for as long as a slow query may
    /// take (heartbeats).
    pub fn with_timeouts(
        addr: impl ToString,
        connect_timeout: Duration,
        io_timeout: Duration,
    ) -> Self {
        Self {
            addr: addr.to_string(),
            connect_timeout,
            io_timeout,
        }
    }

    /// `GET path`.
    ///
    /// # Errors
    /// I/O failures and malformed responses.
    pub fn get(&self, path: &str) -> io::Result<ClientResponse> {
        self.send("GET", path, None)
    }

    /// `POST path` with a JSON body.
    ///
    /// # Errors
    /// I/O failures and malformed responses.
    pub fn post(&self, path: &str, body: &Json) -> io::Result<ClientResponse> {
        self.send("POST", path, Some(body.to_text()))
    }

    /// Posts a whole batch of query objects to `/query` in one request.
    /// The server shares one engine pass (and any in-flight identical
    /// computations) across the batch and replies with
    /// `{"batch", "micros", "responses": [...]}` — one response object
    /// (or `{"error","status"}`) per query, in input order. Batches above
    /// the server's `max_batch` are refused with a structured
    /// `batch_too_large` 400.
    ///
    /// # Errors
    /// I/O failures and malformed responses.
    pub fn query_batch(&self, queries: Vec<Json>) -> io::Result<ClientResponse> {
        self.post("/query", &Json::Arr(queries))
    }

    /// `GET path`, returning the status and the **raw body text** — for
    /// non-JSON endpoints like the Prometheus `/metrics` exposition.
    ///
    /// # Errors
    /// I/O failures and malformed responses.
    pub fn get_text(&self, path: &str) -> io::Result<(u16, String)> {
        self.send_raw("GET", path, None)
    }

    fn send(&self, method: &str, path: &str, body: Option<String>) -> io::Result<ClientResponse> {
        let (status, text) = self.send_raw(method, path, body)?;
        Ok(ClientResponse {
            status,
            body: parse_body(&text)?,
        })
    }

    fn send_raw(
        &self,
        method: &str,
        path: &str,
        body: Option<String>,
    ) -> io::Result<(u16, String)> {
        let stream = dial(&self.addr, self.connect_timeout, self.io_timeout)?;
        let body = body.unwrap_or_default();
        let (status, text, _) =
            exchange(stream, method, &self.addr, path, &body, true, &mut false)?;
        Ok((status, text))
    }
}

/// Tunable [`PooledClient`] policy. The defaults reproduce the
/// historical hardcoded behavior (2 s connect timeout, one connect
/// retry, 60 s I/O budget); `serve --shard-connect-timeout-ms` /
/// `--shard-retries` / `--shard-io-timeout-ms` surface the first three
/// on the CLI.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClientConfig {
    /// How long a TCP connect may take before the endpoint is declared
    /// unreachable for this attempt.
    pub connect_timeout: Duration,
    /// Per-call socket read/write budget. Shard queries carry real
    /// engine work, so the default is generous — it exists to bound a
    /// *dead or black-holed* peer, not to race a slow one.
    pub io_timeout: Duration,
    /// Extra connect attempts after the first failure (so `1` means "a
    /// dropped SYN never turns into a spurious `shard_unavailable`";
    /// `0` means one attempt, period).
    pub retries: u32,
    /// Consecutive failed calls after which an endpoint is ejected
    /// (demoted to last resort in [`PooledClient::post_replicas`]'s
    /// ordering until its probe window opens).
    pub eject_after: u32,
    /// How long an ejected endpoint sits out before it is re-admitted
    /// to its declared position for one probe call.
    pub probe_after: Duration,
}

impl Default for ClientConfig {
    fn default() -> Self {
        Self {
            connect_timeout: Duration::from_secs(2),
            io_timeout: Duration::from_secs(60),
            retries: 1,
            eject_after: 3,
            probe_after: Duration::from_secs(5),
        }
    }
}

/// Idle connections kept per endpoint. Small on purpose: every parked
/// keep-alive connection pins one worker on the shard server side.
const MAX_IDLE_PER_ENDPOINT: usize = 4;
/// Largest response body the client will buffer (matches the server's
/// own request cap). The `Content-Length` is remote-supplied: a
/// misconfigured endpoint pointing at an arbitrary service must produce
/// a structured error, not an allocation the size of whatever number it
/// sent.
const MAX_RESPONSE_BODY: usize = 64 * 1024 * 1024;
/// Response status/header line length cap (same rationale).
const MAX_RESPONSE_LINE: usize = 64 * 1024;
/// Response header count cap.
const MAX_RESPONSE_HEADERS: usize = 100;

/// True for failures that mean the peer tore the connection down
/// (rather than timing out while computing): EOF, reset, or a broken
/// write. Only these — and only before any response byte, on a reused
/// connection — are safe to retry without risking duplicate work.
fn is_disconnect(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::UnexpectedEof
            | io::ErrorKind::ConnectionReset
            | io::ErrorKind::ConnectionAborted
            | io::ErrorKind::BrokenPipe
            | io::ErrorKind::WriteZero
    )
}

/// Reads one `\n`-terminated response line of bounded length.
fn read_bounded_line(reader: &mut BufReader<TcpStream>, line: &mut String) -> io::Result<usize> {
    let n = (&mut *reader)
        .take(MAX_RESPONSE_LINE as u64)
        .read_line(line)
        .map_err(|e| io::Error::new(e.kind(), format!("reading response line: {e}")))?;
    if n >= MAX_RESPONSE_LINE && !line.ends_with('\n') {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "response line too long",
        ));
    }
    Ok(n)
}

fn parse_body(text: &str) -> io::Result<Json> {
    json::parse(text)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("bad body: {e}")))
}

/// Opens a connection to `endpoint` (`host:port`) with the connect and
/// per-call I/O timeouts applied.
fn dial(endpoint: &str, connect_timeout: Duration, io_timeout: Duration) -> io::Result<TcpStream> {
    let addr = endpoint.to_socket_addrs()?.next().ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::NotFound,
            format!("unresolvable endpoint {endpoint}"),
        )
    })?;
    let stream = TcpStream::connect_timeout(&addr, connect_timeout)?;
    stream.set_read_timeout(Some(io_timeout))?;
    stream.set_write_timeout(Some(io_timeout))?;
    // The request goes out as one buffer; without Nagle it leaves now.
    let _ = stream.set_nodelay(true);
    Ok(stream)
}

/// One HTTP/1.1 request/response exchange on an open connection: the
/// status, the body text, and the connection itself when it may carry
/// another request (`close` was not asked for and the peer did not
/// answer `connection: close`). The response is framed by
/// `Content-Length` — mandatory, the server always sends it and without
/// it a kept-alive connection cannot be reused — under the
/// `MAX_RESPONSE_*` caps. `saw_response_byte` is raised the moment any
/// response data arrives — the pooled caller's retry policy hinges on it
/// (a reply in progress must never be re-requested).
fn exchange(
    stream: TcpStream,
    method: &str,
    host: &str,
    path: &str,
    body: &str,
    close: bool,
    saw_response_byte: &mut bool,
) -> io::Result<(u16, String, Option<TcpStream>)> {
    let request = format!(
        "{method} {path} HTTP/1.1\r\nhost: {host}\r\ncontent-type: application/json\r\ncontent-length: {}\r\n{}\r\n{body}",
        body.len(),
        if close { "connection: close\r\n" } else { "" },
    );
    let mut reader = BufReader::new(stream);
    reader.get_mut().write_all(request.as_bytes())?;

    let mut status_line = String::new();
    if read_bounded_line(&mut reader, &mut status_line)? == 0 {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "connection closed before the status line",
        ));
    }
    *saw_response_byte = true;
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("bad status line {status_line:?}"),
            )
        })?;

    let mut content_length: Option<usize> = None;
    let mut keep_alive = !close;
    let mut header_count = 0usize;
    loop {
        let mut line = String::new();
        if read_bounded_line(&mut reader, &mut line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "eof in headers",
            ));
        }
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        header_count += 1;
        if header_count > MAX_RESPONSE_HEADERS {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "too many response headers",
            ));
        }
        if let Some((k, v)) = line.split_once(':') {
            let (k, v) = (k.trim(), v.trim());
            if k.eq_ignore_ascii_case("content-length") {
                content_length = Some(v.parse().map_err(|_| {
                    io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("invalid content-length `{v}`"),
                    )
                })?);
            } else if k.eq_ignore_ascii_case("connection") && v.eq_ignore_ascii_case("close") {
                keep_alive = false;
            }
        }
    }
    let content_length = content_length.ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            "response without content-length cannot be framed",
        )
    })?;
    if content_length > MAX_RESPONSE_BODY {
        // The length is remote-supplied; a rogue value must become a
        // structured error, not an allocation of its choosing.
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("response body of {content_length} bytes exceeds the client cap"),
        ));
    }
    // Grow as bytes arrive rather than trusting the header for the
    // initial allocation.
    let mut body_bytes = Vec::with_capacity(content_length.min(64 * 1024));
    let mut chunk = [0u8; 64 * 1024];
    while body_bytes.len() < content_length {
        let want = (content_length - body_bytes.len()).min(chunk.len());
        match reader.read(&mut chunk[..want])? {
            0 => {
                return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "eof in body"));
            }
            n => body_bytes.extend_from_slice(&chunk[..n]),
        }
    }
    let text = String::from_utf8(body_bytes)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "body is not utf-8"))?;
    Ok((status, text, keep_alive.then(|| reader.into_inner())))
}

/// Per-endpoint circuit-breaker state, keyed by `host:port` in the
/// client's health map. All fields are behind the health mutex.
#[derive(Debug, Default)]
struct EndpointHealth {
    /// Calls failed since the last success; reset to zero on success.
    consecutive_failures: u32,
    /// While `Some` and in the future, the endpoint is ejected: demoted
    /// to last resort in [`PooledClient::post_replicas`]'s try order.
    /// Once the instant passes, the endpoint is re-admitted for a probe.
    ejected_until: Option<Instant>,
    /// Times this endpoint has transitioned into the ejected state
    /// (including a failed probe re-ejecting it).
    ejections: u64,
    /// TCP connects attempted (counts retries; excludes pooled reuse).
    connect_attempts: u64,
}

/// A point-in-time copy of one endpoint's health for `/healthz` and
/// `/metrics` — see [`PooledClient::health_snapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EndpointHealthSnapshot {
    /// The endpoint (`host:port`).
    pub endpoint: String,
    /// Calls failed since the last success.
    pub consecutive_failures: u32,
    /// Whether the endpoint is currently ejected (sidelined until its
    /// probe window opens).
    pub ejected: bool,
    /// Times this endpoint has been ejected over the client's lifetime.
    pub ejections: u64,
    /// TCP connects attempted (counts retries; excludes pooled reuse).
    pub connect_attempts: u64,
}

/// One entry in a [`ReplicaOutcome`]'s failover trail: which endpoint
/// was tried, how long the attempt took, and why it failed (if it did).
#[derive(Debug, Clone)]
pub struct ReplicaAttempt {
    /// The endpoint tried.
    pub endpoint: String,
    /// Wall-clock microseconds the attempt took (connect + round trip).
    pub micros: u64,
    /// `None` for the accepted attempt; the failure description
    /// otherwise (I/O error, or the caller's `accept` rejection).
    pub error: Option<String>,
}

/// What [`PooledClient::post_replicas`] observed: the full ordered
/// attempt trail, plus the accepted value and the endpoint that served
/// it when any replica succeeded. `accepted: None` means **every**
/// replica was attempted and failed — the per-attempt errors in
/// `attempts` are the operator's failover path.
#[derive(Debug)]
pub struct ReplicaOutcome<T> {
    /// Every attempt made, in try order (the accepted one last).
    pub attempts: Vec<ReplicaAttempt>,
    /// `(value, endpoint)` for the first accepted response.
    pub accepted: Option<(T, String)>,
}

/// A blocking HTTP/1.1 client that pools keep-alive connections per
/// endpoint (`host:port`). Safe to share across threads; the pool is a
/// simple mutex-guarded free list because checkouts are short and the
/// expensive part (the RPC round trip) happens outside the lock. The
/// separate health map drives [`post_replicas`](Self::post_replicas)
/// failover ordering.
pub struct PooledClient {
    idle: Mutex<HashMap<String, Vec<TcpStream>>>,
    config: ClientConfig,
    health: Mutex<BTreeMap<String, EndpointHealth>>,
}

impl Default for PooledClient {
    fn default() -> Self {
        Self::new()
    }
}

impl PooledClient {
    /// An empty pool with the default [`ClientConfig`].
    pub fn new() -> Self {
        Self::with_config(ClientConfig::default())
    }

    /// An empty pool with an explicit policy.
    pub fn with_config(config: ClientConfig) -> Self {
        Self {
            idle: Mutex::new(HashMap::new()),
            config,
            health: Mutex::new(BTreeMap::new()),
        }
    }

    /// The policy this client was built with.
    pub fn config(&self) -> &ClientConfig {
        &self.config
    }

    /// `POST path` with a JSON body against `endpoint` (`host:port`).
    ///
    /// Reuses a pooled connection when one is idle. Staleness is
    /// handled without ever duplicating work on a live shard:
    ///
    /// * a non-blocking peek at checkout discards sockets the server
    ///   already closed (the common case — the server enforces idle
    ///   deadlines on parked keep-alive connections);
    /// * if the server's close *races* the checkout (FIN still in
    ///   flight), the round trip fails with an EOF/reset **before any
    ///   response byte** — a server that closed the connection is not
    ///   computing the request, so exactly that failure class on a
    ///   *reused* connection is retried once on a fresh one;
    /// * a read **timeout** is never retried: the shard may simply be
    ///   slow, and re-sending would make it compute the same group
    ///   twice.
    ///
    /// A fresh *connect* failure is retried [`ClientConfig::retries`]
    /// times before giving up, so one dropped SYN never turns into a
    /// spurious `shard_unavailable`.
    ///
    /// # Errors
    /// Connect failures (after the retries), I/O failures, and
    /// malformed responses.
    pub fn post(&self, endpoint: &str, path: &str, body: &Json) -> io::Result<ClientResponse> {
        self.post_text(endpoint, path, &body.to_text())
    }

    fn post_text(&self, endpoint: &str, path: &str, text: &str) -> io::Result<ClientResponse> {
        if let Some(stream) = self.checkout(endpoint) {
            let mut saw_response_byte = false;
            match self.roundtrip(stream, endpoint, path, text, &mut saw_response_byte) {
                Ok(response) => return Ok(response),
                // Reused connection died before yielding a single
                // response byte: the request was never processed — safe
                // to re-send on a fresh connection.
                Err(e) if !saw_response_byte && is_disconnect(&e) => {}
                Err(e) => return Err(e),
            }
        }
        let mut stream = self.connect(endpoint);
        for _ in 0..self.config.retries {
            if stream.is_ok() {
                break;
            }
            stream = self.connect(endpoint);
        }
        self.roundtrip(stream?, endpoint, path, text, &mut false)
    }

    /// `POST path` against a replica list with health-checked failover.
    ///
    /// Replicas are tried in declared order, except that currently
    /// *ejected* endpoints (those that failed
    /// [`ClientConfig::eject_after`] consecutive calls and whose
    /// [`ClientConfig::probe_after`] window has not yet opened) are
    /// demoted to the back of the line. An attempt succeeds only when
    /// both the transport **and** the caller's `accept` closure accept
    /// the response — `accept` rejecting (say, a non-200 status or an
    /// unparsable payload) counts as an endpoint failure and failover
    /// moves on, exactly like a connect failure would. The call as a
    /// whole gives up only after **every** replica has been attempted,
    /// ejected or not: ordering is a latency preference, never a
    /// correctness decision.
    ///
    /// Infallible by construction — inspect
    /// [`ReplicaOutcome::accepted`] for the result and
    /// [`ReplicaOutcome::attempts`] for the full failover trail.
    pub fn post_replicas<T>(
        &self,
        replicas: &[String],
        path: &str,
        body: &Json,
        mut accept: impl FnMut(&ClientResponse) -> Result<T, String>,
    ) -> ReplicaOutcome<T> {
        let text = body.to_text();
        let mut attempts = Vec::with_capacity(replicas.len());
        for endpoint in self.plan(replicas) {
            let started = Instant::now();
            let verdict = match self.post_text(&endpoint, path, &text) {
                Ok(response) => accept(&response),
                Err(e) => Err(e.to_string()),
            };
            let micros = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
            match verdict {
                Ok(value) => {
                    self.record_success(&endpoint);
                    attempts.push(ReplicaAttempt {
                        endpoint: endpoint.clone(),
                        micros,
                        error: None,
                    });
                    return ReplicaOutcome {
                        attempts,
                        accepted: Some((value, endpoint)),
                    };
                }
                Err(why) => {
                    self.record_failure(&endpoint);
                    attempts.push(ReplicaAttempt {
                        endpoint,
                        micros,
                        error: Some(why),
                    });
                }
            }
        }
        ReplicaOutcome {
            attempts,
            accepted: None,
        }
    }

    /// The try order for one `post_replicas` call: non-ejected (and
    /// probe-due) endpoints in declared order, then still-ejected ones
    /// in declared order. Every replica appears exactly once.
    fn plan(&self, replicas: &[String]) -> Vec<String> {
        let now = Instant::now();
        let health = self.health.lock().expect("client health lock");
        let mut preferred = Vec::with_capacity(replicas.len());
        let mut sidelined = Vec::new();
        for endpoint in replicas {
            let ejected = health
                .get(endpoint)
                .and_then(|h| h.ejected_until)
                .is_some_and(|until| until > now);
            if ejected {
                sidelined.push(endpoint.clone());
            } else {
                preferred.push(endpoint.clone());
            }
        }
        preferred.extend(sidelined);
        preferred
    }

    fn record_success(&self, endpoint: &str) {
        let mut health = self.health.lock().expect("client health lock");
        let h = health.entry(endpoint.to_owned()).or_default();
        h.consecutive_failures = 0;
        h.ejected_until = None;
    }

    fn record_failure(&self, endpoint: &str) {
        let mut health = self.health.lock().expect("client health lock");
        let h = health.entry(endpoint.to_owned()).or_default();
        h.consecutive_failures += 1;
        if h.consecutive_failures >= self.config.eject_after {
            let now = Instant::now();
            // Count the transition into ejection — both the first one
            // and a failed probe pushing the endpoint back out.
            if h.ejected_until.is_none_or(|until| until <= now) {
                h.ejections += 1;
            }
            h.ejected_until = Some(now + self.config.probe_after);
        }
    }

    /// Health of every endpoint this client has ever dialed, in
    /// deterministic (lexicographic) endpoint order.
    pub fn health_snapshot(&self) -> Vec<EndpointHealthSnapshot> {
        let now = Instant::now();
        let health = self.health.lock().expect("client health lock");
        health
            .iter()
            .map(|(endpoint, h)| EndpointHealthSnapshot {
                endpoint: endpoint.clone(),
                consecutive_failures: h.consecutive_failures,
                ejected: h.ejected_until.is_some_and(|until| until > now),
                ejections: h.ejections,
                connect_attempts: h.connect_attempts,
            })
            .collect()
    }

    fn connect(&self, endpoint: &str) -> io::Result<TcpStream> {
        self.health
            .lock()
            .expect("client health lock")
            .entry(endpoint.to_owned())
            .or_default()
            .connect_attempts += 1;
        dial(
            endpoint,
            self.config.connect_timeout,
            self.config.io_timeout,
        )
    }

    /// Pops pooled connections until one passes the staleness check.
    fn checkout(&self, endpoint: &str) -> Option<TcpStream> {
        loop {
            let stream = self
                .idle
                .lock()
                .expect("client pool lock")
                .get_mut(endpoint)?
                .pop()?;
            if !Self::is_stale(&stream) {
                return Some(stream);
            }
        }
    }

    /// True when an idle pooled connection must be discarded: the peer
    /// closed it (EOF), delivered unexpected bytes (protocol desync), or
    /// errored. A healthy idle connection has *nothing* to read, which
    /// the non-blocking peek reports as `WouldBlock`.
    fn is_stale(stream: &TcpStream) -> bool {
        if stream.set_nonblocking(true).is_err() {
            return true;
        }
        let mut probe = [0u8; 1];
        let stale =
            !matches!(stream.peek(&mut probe), Err(ref e) if e.kind() == io::ErrorKind::WouldBlock);
        stream.set_nonblocking(false).is_err() || stale
    }

    fn checkin(&self, endpoint: &str, stream: TcpStream) {
        let mut idle = self.idle.lock().expect("client pool lock");
        let pool = idle.entry(endpoint.to_owned()).or_default();
        if pool.len() < MAX_IDLE_PER_ENDPOINT {
            pool.push(stream);
        }
    }

    /// One keep-alive [`exchange`]; the connection returns to the pool
    /// unless either side asked to close (or the body is not JSON).
    fn roundtrip(
        &self,
        stream: TcpStream,
        endpoint: &str,
        path: &str,
        body: &str,
        saw_response_byte: &mut bool,
    ) -> io::Result<ClientResponse> {
        let (status, text, stream) = exchange(
            stream,
            "POST",
            endpoint,
            path,
            body,
            false,
            saw_response_byte,
        )?;
        let body = parse_body(&text)?;
        if let Some(stream) = stream {
            self.checkin(endpoint, stream);
        }
        Ok(ClientResponse { status, body })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// Consumes one HTTP request (headers + content-length body).
    fn read_request(stream: &TcpStream) {
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut content_length = 0usize;
        loop {
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            let line = line.trim_end();
            if line.is_empty() {
                break;
            }
            if let Some((k, v)) = line.split_once(':') {
                if k.trim().eq_ignore_ascii_case("content-length") {
                    content_length = v.trim().parse().unwrap();
                }
            }
        }
        let mut body = vec![0u8; content_length];
        reader.read_exact(&mut body).unwrap();
    }

    /// Consumes one request and writes one keep-alive JSON reply
    /// carrying `n`.
    fn serve_one(stream: &mut TcpStream, n: usize) {
        read_request(stream);
        let reply_body = format!("{{\"n\":{n}}}");
        let reply = format!(
            "HTTP/1.1 200 OK\r\ncontent-type: application/json\r\ncontent-length: {}\r\n\r\n{reply_body}",
            reply_body.len(),
        );
        stream.write_all(reply.as_bytes()).unwrap();
    }

    #[test]
    fn client_errors_on_a_silent_peer_and_on_a_reply_cut_short() {
        use crate::chaos::{ChaosMode, ChaosProxy};
        const HEAD: &str = "HTTP/1.1 200 OK\r\ncontent-length: 10\r\n\r\n";
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let upstream = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            // Only the truncated request reaches the upstream.
            let (mut s, _) = listener.accept().unwrap();
            read_request(&s);
            s.write_all(format!("{HEAD}1234567890").as_bytes()).unwrap();
        });
        let proxy = ChaosProxy::start(&upstream).unwrap();
        let client = Client::with_timeouts(
            proxy.endpoint(),
            Duration::from_secs(2),
            Duration::from_millis(300),
        );
        let ask = || client.post("/registry/heartbeat", &Json::Obj(Vec::new()));

        // Accepts, swallows the request, never answers: the I/O timeout
        // is the only way out, and it is an error.
        proxy.set_mode(ChaosMode::BlackHole);
        let err = ask().expect_err("a silent peer must time out, not hang");
        assert!(
            matches!(
                err.kind(),
                io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
            ),
            "{err}"
        );

        // Half the body arrives, then the peer dies. `12345` is valid
        // JSON — a reader that trusts EOF over the declared length would
        // hand it back as the answer.
        proxy.set_mode(ChaosMode::Truncate(HEAD.len() + 5));
        let err = ask().expect_err("a fragment must never parse into an answer");
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "{err}");
        server.join().unwrap();
    }

    #[test]
    fn pooled_client_reuses_connections_and_recovers_from_stale_ones() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let endpoint = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            // Connection 1: two requests back to back (proving reuse),
            // then the server closes it while it idles in the pool.
            let (mut a, _) = listener.accept().unwrap();
            serve_one(&mut a, 1);
            serve_one(&mut a, 2);
            drop(a);
            // Connection 2: the client's stale-retry lands here.
            let (mut b, _) = listener.accept().unwrap();
            serve_one(&mut b, 3);
        });

        let client = PooledClient::new();
        let body = Json::Obj(Vec::new());
        let first = client.post(&endpoint, "/shard/query", &body).unwrap();
        assert_eq!(first.body.get("n").unwrap().as_usize(), Some(1));
        assert_eq!(
            client.idle.lock().unwrap().get(&endpoint).map(Vec::len),
            Some(1),
            "the keep-alive connection returns to the pool"
        );
        let second = client.post(&endpoint, "/shard/query", &body).unwrap();
        assert_eq!(
            second.body.get("n").unwrap().as_usize(),
            Some(2),
            "the second call reuses connection 1"
        );
        // Give the server a moment to close the pooled connection, then
        // post again: the stale socket fails and the retry reconnects
        // (landing on connection 2).
        std::thread::sleep(Duration::from_millis(100));
        let third = client.post(&endpoint, "/shard/query", &body).unwrap();
        assert_eq!(third.body.get("n").unwrap().as_usize(), Some(3));
        server.join().unwrap();
    }

    #[test]
    fn pooled_client_rejects_rogue_content_length() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let endpoint = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            // Claim a body far beyond the client's cap.
            read_request(&s);
            s.write_all(b"HTTP/1.1 200 OK\r\ncontent-length: 99999999999\r\n\r\n")
                .unwrap();
        });
        let client = PooledClient::new();
        let outcome = client.post(&endpoint, "/shard/query", &Json::Obj(Vec::new()));
        let err = outcome.expect_err("a rogue content-length must be refused");
        assert!(err.to_string().contains("exceeds the client cap"), "{err}");
        server.join().unwrap();
    }

    #[test]
    fn pooled_client_reports_dead_endpoints_quickly() {
        // Bind-then-drop guarantees nothing listens on the port.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let endpoint = listener.local_addr().unwrap().to_string();
        drop(listener);
        let client = PooledClient::new();
        let started = std::time::Instant::now();
        let outcome = client.post(&endpoint, "/shard/query", &Json::Obj(Vec::new()));
        assert!(outcome.is_err(), "a dead port must error, not hang");
        assert!(
            started.elapsed() < Duration::from_secs(10),
            "dead-endpoint detection took {:?}",
            started.elapsed()
        );
    }

    /// A dead (bind-then-dropped) endpoint for connect-policy tests.
    fn dead_endpoint() -> String {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let endpoint = listener.local_addr().unwrap().to_string();
        drop(listener);
        endpoint
    }

    fn connect_attempts(client: &PooledClient, endpoint: &str) -> u64 {
        client
            .health_snapshot()
            .into_iter()
            .find(|s| s.endpoint == endpoint)
            .map(|s| s.connect_attempts)
            .unwrap_or(0)
    }

    #[test]
    fn connect_retries_honor_the_configured_upper_bound() {
        let endpoint = dead_endpoint();
        let client = PooledClient::with_config(ClientConfig {
            connect_timeout: Duration::from_millis(200),
            retries: 3,
            ..ClientConfig::default()
        });
        let outcome = client.post(&endpoint, "/shard/query", &Json::Obj(Vec::new()));
        assert!(outcome.is_err());
        assert_eq!(
            connect_attempts(&client, &endpoint),
            4,
            "retries=3 means one initial attempt plus three retries"
        );
    }

    #[test]
    fn connect_retries_honor_the_configured_lower_bound() {
        let endpoint = dead_endpoint();
        let client = PooledClient::with_config(ClientConfig {
            connect_timeout: Duration::from_millis(200),
            retries: 0,
            ..ClientConfig::default()
        });
        let outcome = client.post(&endpoint, "/shard/query", &Json::Obj(Vec::new()));
        assert!(outcome.is_err());
        assert_eq!(
            connect_attempts(&client, &endpoint),
            1,
            "retries=0 means exactly one attempt, period"
        );
    }

    #[test]
    fn configured_connect_timeout_bounds_total_latency() {
        // 10.255.255.1 is a reserved-range address that black-holes the
        // SYN on typical CI hosts, so the connect can only end by
        // timeout. If some exotic network answers immediately instead,
        // the refusal is still fast and the bound below still holds.
        let client = PooledClient::with_config(ClientConfig {
            connect_timeout: Duration::from_millis(150),
            retries: 1,
            ..ClientConfig::default()
        });
        let started = std::time::Instant::now();
        let outcome = client.post("10.255.255.1:9", "/shard/query", &Json::Obj(Vec::new()));
        assert!(outcome.is_err());
        assert!(
            started.elapsed() < Duration::from_secs(2),
            "two 150 ms connect attempts must finish well under the old \
             hardcoded 2 s budget, took {:?}",
            started.elapsed()
        );
    }

    #[test]
    fn post_replicas_fails_over_and_names_every_attempt() {
        let dead = dead_endpoint();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let live = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            serve_one(&mut s, 7);
        });
        let client = PooledClient::with_config(ClientConfig {
            connect_timeout: Duration::from_millis(200),
            retries: 0,
            ..ClientConfig::default()
        });
        let replicas = vec![dead.clone(), live.clone()];
        let outcome =
            client.post_replicas(&replicas, "/shard/query", &Json::Obj(Vec::new()), |r| {
                r.body
                    .get("n")
                    .and_then(Json::as_usize)
                    .ok_or_else(|| "missing n".to_owned())
            });
        server.join().unwrap();
        let (value, served_by) = outcome.accepted.expect("the live replica must serve");
        assert_eq!(value, 7);
        assert_eq!(served_by, live);
        let trail: Vec<&str> = outcome
            .attempts
            .iter()
            .map(|a| a.endpoint.as_str())
            .collect();
        assert_eq!(trail, vec![dead.as_str(), live.as_str()]);
        assert!(outcome.attempts[0].error.is_some(), "dead attempt is named");
        assert!(outcome.attempts[1].error.is_none());
    }

    #[test]
    fn post_replicas_counts_rejected_responses_as_endpoint_failures() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let bad = listener.local_addr().unwrap().to_string();
        let listener_ok = TcpListener::bind("127.0.0.1:0").unwrap();
        let good = listener_ok.local_addr().unwrap().to_string();
        let t1 = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            serve_one(&mut s, 0); // transport-valid, but `accept` rejects n=0
        });
        let t2 = std::thread::spawn(move || {
            let (mut s, _) = listener_ok.accept().unwrap();
            serve_one(&mut s, 5);
        });
        let client = PooledClient::new();
        let replicas = vec![bad.clone(), good];
        let outcome = client.post_replicas(
            &replicas,
            "/shard/query",
            &Json::Obj(Vec::new()),
            |r| match r.body.get("n").and_then(Json::as_usize) {
                Some(n) if n > 0 => Ok(n),
                _ => Err("rejected by accept".to_owned()),
            },
        );
        t1.join().unwrap();
        t2.join().unwrap();
        assert_eq!(outcome.accepted.map(|(n, _)| n), Some(5));
        assert_eq!(outcome.attempts.len(), 2);
        assert_eq!(
            outcome.attempts[0].error.as_deref(),
            Some("rejected by accept"),
            "an accept rejection reads like any other endpoint failure"
        );
        let bad_health = client
            .health_snapshot()
            .into_iter()
            .find(|s| s.endpoint == bad)
            .unwrap();
        assert_eq!(bad_health.consecutive_failures, 1);
    }

    #[test]
    fn ejection_demotes_an_endpoint_until_its_probe_window_opens() {
        let dead = dead_endpoint();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let live = listener.local_addr().unwrap().to_string();
        let client = PooledClient::with_config(ClientConfig {
            connect_timeout: Duration::from_millis(100),
            retries: 0,
            eject_after: 2,
            probe_after: Duration::from_millis(150),
            ..ClientConfig::default()
        });
        let replicas = vec![dead.clone(), live.clone()];

        // Two failing calls eject the dead primary...
        for expected_n in [1, 2] {
            let l = listener.try_clone().unwrap();
            let server = std::thread::spawn(move || {
                let (mut s, _) = l.accept().unwrap();
                serve_one(&mut s, expected_n);
            });
            let outcome =
                client.post_replicas(&replicas, "/shard/query", &Json::Obj(Vec::new()), |r| {
                    r.body
                        .get("n")
                        .and_then(Json::as_usize)
                        .ok_or_else(|| "missing n".to_owned())
                });
            server.join().unwrap();
            assert_eq!(outcome.attempts[0].endpoint, dead, "primary tried first");
            assert_eq!(outcome.accepted.as_ref().map(|(n, _)| *n), Some(expected_n));
        }
        let snap = client
            .health_snapshot()
            .into_iter()
            .find(|s| s.endpoint == dead)
            .unwrap();
        assert!(snap.ejected, "two consecutive failures ejected the primary");
        assert_eq!(snap.ejections, 1);

        // ...so the next call goes straight to the healthy fallback
        // without paying the dead primary's connect timeout.
        assert_eq!(client.plan(&replicas), vec![live.clone(), dead.clone()]);

        // Once the probe window opens, the primary is re-admitted to
        // its declared position for one probe call.
        std::thread::sleep(Duration::from_millis(200));
        assert_eq!(client.plan(&replicas), vec![dead.clone(), live.clone()]);

        // A successful probe fully reinstates it.
        drop(listener);
        let probe_listener = TcpListener::bind(dead.as_str());
        if let Ok(probe_listener) = probe_listener {
            // The OS let us rebind the primary's port: prove recovery
            // end to end. (Port reuse can race on busy CI — the state
            // machine above is the load-bearing assertion.)
            let server = std::thread::spawn(move || {
                let (mut s, _) = probe_listener.accept().unwrap();
                serve_one(&mut s, 9);
            });
            let outcome =
                client.post_replicas(&replicas, "/shard/query", &Json::Obj(Vec::new()), |r| {
                    r.body
                        .get("n")
                        .and_then(Json::as_usize)
                        .ok_or_else(|| "missing n".to_owned())
                });
            server.join().unwrap();
            assert_eq!(outcome.accepted, Some((9, dead.clone())));
            let snap = client
                .health_snapshot()
                .into_iter()
                .find(|s| s.endpoint == dead)
                .unwrap();
            assert!(!snap.ejected, "a successful probe reinstates the endpoint");
            assert_eq!(snap.consecutive_failures, 0);
        }
    }

    #[test]
    fn post_replicas_still_tries_ejected_endpoints_as_a_last_resort() {
        let dead = dead_endpoint();
        let client = PooledClient::with_config(ClientConfig {
            connect_timeout: Duration::from_millis(100),
            retries: 0,
            eject_after: 1,
            probe_after: Duration::from_secs(60),
            ..ClientConfig::default()
        });
        let replicas = vec![dead.clone()];
        for round in 1..=3 {
            let outcome =
                client.post_replicas(&replicas, "/shard/query", &Json::Obj(Vec::new()), |_| {
                    Ok::<usize, String>(0)
                });
            assert!(outcome.accepted.is_none());
            assert_eq!(
                outcome.attempts.len(),
                1,
                "round {round}: even a deeply ejected endpoint is attempted \
                 when it is all there is"
            );
        }
    }
}
