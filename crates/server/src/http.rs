//! A std-only **evented** HTTP/1.1 server: a small fixed set of
//! readiness event loops (epoll via the `polling` shim) drives
//! nonblocking sockets, and each connection is an explicit state
//! machine — read headers → read body → dispatch → write response →
//! keep-alive idle. Completed requests are handed to a dispatch pool
//! (the CPU tier, [`crate::compute::DispatchPool`]); responses travel
//! back over a per-loop completion inbox plus a wakeup pipe.
//!
//! The concurrency model: idle keep-alive connections cost one epoll
//! registration and a small buffer instead of a parked thread, so a
//! handful of `--event-threads` can hold tens of thousands of open
//! connections while the dispatch pool sizes to the CPU-bound query
//! work. Framing semantics (bounded header/body sizes, the slow-loris
//! deadline, Content-Length-only bodies, error strings) are identical
//! to the blocking worker-pool implementation this replaced.
//!
//! The layer is application-agnostic: it parses requests, hands them to
//! a router closure, and writes responses (with keep-alive support).

use polling::{Event, Interest, Poller, Waker};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::compute::DispatchPool;

/// Request bodies larger than this are rejected (inline dataset uploads
/// are the biggest legitimate payload).
const MAX_BODY: usize = 64 * 1024 * 1024;
const MAX_HEADERS: usize = 100;
/// Request-line / header-line length cap: a peer streaming bytes with no
/// newline must not grow a connection's buffer without bound.
const MAX_LINE: usize = 64 * 1024;
/// Event-loop tick: the `epoll_wait` timeout, which bounds how long the
/// shutdown flag and connection deadlines can go unchecked.
const READ_TICK: Duration = Duration::from_millis(200);
/// How long an idle keep-alive connection may wait for its *next*
/// request before the server closes it. Idle connections are cheap now
/// (an epoll slot, not a thread), but dead peers should still be
/// reclaimed. (Shorter under `cfg(test)` so the suite can observe the
/// behavior without multi-second sleeps.)
#[cfg(not(test))]
const IDLE_TIMEOUT: Duration = Duration::from_secs(10);
#[cfg(test)]
const IDLE_TIMEOUT: Duration = Duration::from_secs(1);

/// Once a request's first byte has arrived, the whole request (line,
/// headers, body) must complete within this budget — otherwise a
/// slow-loris peer dribbling one byte per tick would pin its buffer
/// forever.
#[cfg(not(test))]
const REQUEST_TIMEOUT: Duration = Duration::from_secs(30);
#[cfg(test)]
const REQUEST_TIMEOUT: Duration = Duration::from_secs(2);

/// Reserved poller token for the per-loop wakeup pipe.
const TOKEN_WAKER: usize = usize::MAX;
/// Reserved poller token for the listening socket (loop 0 only).
const TOKEN_LISTENER: usize = usize::MAX - 1;

/// A parsed HTTP request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Request method (`GET`, `POST`, …), uppercased as received.
    pub method: String,
    /// Request target, including any query string.
    pub path: String,
    /// Header name/value pairs in arrival order.
    pub headers: Vec<(String, String)>,
    /// Raw request body.
    pub body: Vec<u8>,
}

impl Request {
    /// Case-insensitive header lookup.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// The body as UTF-8 text.
    pub fn body_text(&self) -> Result<&str, std::str::Utf8Error> {
        std::str::from_utf8(&self.body)
    }
}

/// An HTTP response to be written back.
#[derive(Debug, Clone)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// Response body text.
    pub body: String,
    /// `content-type` header value.
    pub content_type: &'static str,
}

impl Response {
    /// An `application/json` response with the given status and body.
    pub fn json(status: u16, body: String) -> Self {
        Self {
            status,
            body,
            content_type: "application/json",
        }
    }

    /// A Prometheus text-exposition response (the `version=0.0.4`
    /// content type scrapers negotiate on).
    pub fn metrics_text(status: u16, body: String) -> Self {
        Self {
            status,
            body,
            content_type: "text/plain; version=0.0.4; charset=utf-8",
        }
    }
}

fn status_text(status: u16) -> &'static str {
    match status {
        200 => "OK",
        201 => "Created",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        500 => "Internal Server Error",
        502 => "Bad Gateway",
        _ => "Unknown",
    }
}

/// Connection-level counters shared between the event loops and the
/// observability surface (`/healthz` `connections` block and the
/// `shapesearch_connections_*` metrics series).
#[derive(Debug, Default)]
pub struct ConnStats {
    /// Connections accepted since startup.
    pub accepted_total: AtomicU64,
    /// Currently open connections (gauge).
    pub active: AtomicU64,
    /// Open connections parked between requests waiting for keep-alive
    /// reuse (gauge; a subset of `active`).
    pub idle_keepalive: AtomicU64,
    /// Connections closed by a deadline: idle keep-alive expiry or the
    /// slow-loris request cutoff.
    pub timeouts: AtomicU64,
    /// Event-loop `wait` returns that delivered at least one readiness
    /// event (a proxy for loop activity; idle loops tick without
    /// counting).
    pub event_loop_wakeups: AtomicU64,
}

/// The router: maps a request to a response. Panics in a router are
/// caught per-request so one bad request can't take the server down.
pub type Router = Arc<dyn Fn(&Request) -> Response + Send + Sync>;

/// Event-loop and dispatch sizing for [`serve`].
#[derive(Debug, Clone)]
pub struct HttpConfig {
    /// Readiness event-loop threads (`0` = auto: available parallelism).
    /// Each loop owns a slab of connections; loop 0 also owns the
    /// listener and deals accepted connections round-robin.
    pub event_threads: usize,
    /// Dispatch (CPU tier) threads running the router (`0` = auto:
    /// available parallelism).
    pub dispatch_threads: usize,
    /// Shared connection counters (exposed via [`ServerHandle::stats`]).
    pub stats: Arc<ConnStats>,
}

impl Default for HttpConfig {
    fn default() -> Self {
        Self {
            event_threads: 0,
            dispatch_threads: 0,
            stats: Arc::new(ConnStats::default()),
        }
    }
}

// ---------------------------------------------------------------------------
// Incremental request parser
// ---------------------------------------------------------------------------

fn invalid(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Parser state for one in-flight request on a connection. Bytes land in
/// the connection's buffer; `step` consumes them incrementally, so
/// byte-at-a-time delivery re-scans only the current line, never the
/// whole buffer.
#[derive(Debug)]
enum Parse {
    Headers(HeadParse),
    Body {
        request: Request,
        http11: bool,
        content_length: usize,
    },
}

#[derive(Debug, Default)]
struct HeadParse {
    /// Offset into the connection buffer where the current (unfinished)
    /// line starts.
    cursor: usize,
    /// `(method, path, http11)` once the request line has parsed.
    start: Option<(String, String, bool)>,
    headers: Vec<(String, String)>,
}

impl Parse {
    fn new() -> Parse {
        Parse::Headers(HeadParse::default())
    }

    /// Consumes as much of `buf` as possible. `Ok(Some(..))` is a
    /// complete request (its bytes have been drained from `buf`; any
    /// remainder is pipelined input for the next request). `Ok(None)`
    /// needs more bytes.
    fn step(&mut self, buf: &mut Vec<u8>) -> io::Result<Option<(Request, bool)>> {
        loop {
            match self {
                Parse::Headers(hp) => {
                    let Some(nl) = buf[hp.cursor..].iter().position(|&b| b == b'\n') else {
                        if buf.len() - hp.cursor >= MAX_LINE {
                            return Err(invalid("line too long"));
                        }
                        return Ok(None);
                    };
                    let line_end = hp.cursor + nl + 1;
                    if line_end - hp.cursor > MAX_LINE {
                        return Err(invalid("line too long"));
                    }
                    let line = std::str::from_utf8(&buf[hp.cursor..line_end])
                        .map_err(|_| invalid("stream did not contain valid UTF-8"))?;
                    if hp.start.is_none() {
                        let mut parts = line.split_whitespace();
                        let (method, path) = match (parts.next(), parts.next()) {
                            (Some(m), Some(p)) => (m.to_owned(), p.to_owned()),
                            _ => return Err(invalid(format!("malformed request line: {line:?}"))),
                        };
                        // HTTP/1.0 (and unknown versions) default to
                        // connection-close framing; only HTTP/1.1
                        // defaults to keep-alive.
                        let http11 = parts.next() == Some("HTTP/1.1");
                        hp.start = Some((method, path, http11));
                        hp.cursor = line_end;
                        continue;
                    }
                    let trimmed = line.trim_end();
                    if !trimmed.is_empty() {
                        if hp.headers.len() >= MAX_HEADERS {
                            return Err(invalid("too many headers"));
                        }
                        if let Some((k, v)) = trimmed.split_once(':') {
                            hp.headers.push((k.trim().to_owned(), v.trim().to_owned()));
                        }
                        hp.cursor = line_end;
                        continue;
                    }
                    // Blank line: end of headers.
                    let (method, path, http11) = hp.start.take().expect("request line parsed");
                    let headers = std::mem::take(&mut hp.headers);
                    // Chunked bodies are not implemented; treating them
                    // as body-less would misparse the chunk stream as
                    // pipelined requests, so refuse outright (the
                    // connection closes after the error response).
                    if headers
                        .iter()
                        .any(|(k, _)| k.eq_ignore_ascii_case("transfer-encoding"))
                    {
                        return Err(invalid(
                            "transfer-encoding is not supported; send a content-length body",
                        ));
                    }
                    // An unparseable Content-Length must be an error, not
                    // 0: defaulting would leave the body in the buffer to
                    // be misread as the next pipelined request.
                    let content_length = match headers
                        .iter()
                        .find(|(k, _)| k.eq_ignore_ascii_case("content-length"))
                    {
                        Some((_, v)) => v
                            .parse::<usize>()
                            .map_err(|_| invalid(format!("invalid content-length `{v}`")))?,
                        None => 0,
                    };
                    if content_length > MAX_BODY {
                        return Err(invalid("body too large"));
                    }
                    buf.drain(..line_end);
                    // Grow the body as bytes actually arrive instead of
                    // committing Content-Length bytes up front (a header
                    // alone must not pin 64 MiB).
                    *self = Parse::Body {
                        request: Request {
                            method,
                            path,
                            headers,
                            body: Vec::with_capacity(content_length.min(64 * 1024)),
                        },
                        http11,
                        content_length,
                    };
                }
                Parse::Body {
                    request,
                    http11,
                    content_length,
                } => {
                    let need = *content_length - request.body.len();
                    let take = need.min(buf.len());
                    request.body.extend_from_slice(&buf[..take]);
                    buf.drain(..take);
                    if request.body.len() < *content_length {
                        return Ok(None);
                    }
                    let http11 = *http11;
                    let Parse::Body { request, .. } = std::mem::replace(self, Parse::new()) else {
                        unreachable!("matched Body above");
                    };
                    return Ok(Some((request, http11)));
                }
            }
        }
    }

    /// Handles peer EOF: `Ok(None)` is a clean close between requests,
    /// `Ok(Some(..))` is a request that completed exactly at EOF, `Err`
    /// is a framing error to answer with a 400. An unterminated final
    /// line is delivered to the parser the way the old blocking reader
    /// delivered it: as a line without its newline.
    fn finish_eof(&mut self, buf: &mut Vec<u8>) -> io::Result<Option<(Request, bool)>> {
        if let Parse::Headers(hp) = self {
            if hp.start.is_none() && buf.len() == hp.cursor {
                return Ok(None);
            }
            if buf.len() > hp.cursor {
                buf.push(b'\n');
                if let Some(done) = self.step(buf)? {
                    return Ok(Some(done));
                }
            }
        }
        match self {
            Parse::Headers(_) => Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "eof in headers",
            )),
            Parse::Body { .. } => Err(io::Error::new(io::ErrorKind::UnexpectedEof, "eof in body")),
        }
    }
}

// ---------------------------------------------------------------------------
// Connection state machine
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Waiting for (more of) a request.
    Reading,
    /// A complete request is executing on the dispatch pool; read
    /// interest is off so a pipelining peer cannot buffer without bound.
    Dispatched,
    /// A response is being flushed.
    Writing,
}

#[derive(Debug)]
struct Conn {
    stream: TcpStream,
    fd: polling::RawFd,
    /// Guards completions against slot reuse: a completion for an
    /// earlier connection that shared this slot is dropped.
    generation: u64,
    phase: Phase,
    /// Bytes read but not yet consumed by the parser.
    buf: Vec<u8>,
    parse: Parse,
    write_buf: Vec<u8>,
    written: usize,
    close_after_write: bool,
    idle_deadline: Instant,
    /// Armed at a request's first byte; a request that hasn't completed
    /// by then is cut off (slow-loris defense).
    hard_deadline: Option<Instant>,
    peer_eof: bool,
    /// Whether this connection is counted in the `idle_keepalive` gauge.
    counted_idle: bool,
    interest: Interest,
}

/// One response ready to be written back to a connection.
struct Completion {
    token: usize,
    generation: u64,
    response: Response,
    keep_alive: bool,
}

/// The cross-thread face of one event loop: new connections and
/// completed responses land here; the waker makes the loop notice.
struct LoopShared {
    waker: Waker,
    inbox: Mutex<Inbox>,
}

#[derive(Default)]
struct Inbox {
    conns: Vec<TcpStream>,
    completions: Vec<Completion>,
}

impl LoopShared {
    fn push_conn(&self, stream: TcpStream) {
        self.inbox.lock().expect("inbox lock").conns.push(stream);
        let _ = self.waker.wake();
    }

    fn push_completion(&self, completion: Completion) {
        self.inbox
            .lock()
            .expect("inbox lock")
            .completions
            .push(completion);
        let _ = self.waker.wake();
    }
}

#[cfg(unix)]
fn raw_fd<T: std::os::unix::io::AsRawFd>(t: &T) -> polling::RawFd {
    t.as_raw_fd()
}

#[cfg(not(unix))]
fn raw_fd<T>(_t: &T) -> polling::RawFd {
    -1
}

fn serialize_response(response: &Response, keep_alive: bool) -> Vec<u8> {
    // Head and body go out in ONE buffer (and TCP_NODELAY is set): with
    // Nagle's algorithm active, a small body written after the head
    // would sit in the kernel until the peer's (possibly delayed) ACK of
    // the head arrived — a latency cliff of tens of milliseconds per
    // response on loopback.
    let mut wire = format!(
        "HTTP/1.1 {} {}\r\ncontent-type: {}\r\ncontent-length: {}\r\nconnection: {}\r\n\r\n",
        response.status,
        status_text(response.status),
        response.content_type,
        response.body.len(),
        if keep_alive { "keep-alive" } else { "close" },
    );
    wire.push_str(&response.body);
    wire.into_bytes()
}

struct EventLoop {
    poller: Poller,
    shared: Arc<LoopShared>,
    /// All loops' shared faces (for round-robin connection dealing).
    peers: Vec<Arc<LoopShared>>,
    /// This loop's index in `peers`.
    index: usize,
    next_peer: usize,
    /// Loop 0 owns the listener.
    listener: Option<TcpListener>,
    slots: Vec<Option<Conn>>,
    free: Vec<usize>,
    next_generation: u64,
    stats: Arc<ConnStats>,
    router: Router,
    dispatch: Arc<DispatchPool>,
    stop: Arc<AtomicBool>,
    /// Set once `stop` is observed: new work is refused, Reading
    /// connections close, and the loop exits when in-flight requests
    /// have written back.
    draining: bool,
}

impl EventLoop {
    fn run(mut self) {
        let mut events: Vec<Event> = Vec::new();
        loop {
            let _ = self.poller.wait(&mut events, Some(READ_TICK));
            if self.stop.load(Ordering::SeqCst) && !self.draining {
                self.begin_drain();
            }
            if !events.is_empty() {
                self.stats
                    .event_loop_wakeups
                    .fetch_add(1, Ordering::Relaxed);
            }
            for ev in events.iter().copied() {
                match ev.token {
                    TOKEN_WAKER => {
                        self.shared.waker.drain();
                        self.drain_inbox();
                    }
                    TOKEN_LISTENER => self.accept_ready(),
                    token => self.conn_event(token, ev),
                }
            }
            self.sweep_deadlines();
            if self.draining && self.live_conns() == 0 {
                break;
            }
        }
        // Connections dealt to this loop but never registered must still
        // come off the active gauge.
        let inbox = std::mem::take(&mut *self.shared.inbox.lock().expect("inbox lock"));
        for _ in &inbox.conns {
            self.stats.active.fetch_sub(1, Ordering::Relaxed);
        }
    }

    fn live_conns(&self) -> usize {
        self.slots.iter().filter(|s| s.is_some()).count()
    }

    fn begin_drain(&mut self) {
        self.draining = true;
        if let Some(listener) = self.listener.take() {
            let _ = self.poller.delete(raw_fd(&listener));
        }
        for token in 0..self.slots.len() {
            let Some(conn) = &self.slots[token] else {
                continue;
            };
            match conn.phase {
                // Idle / mid-request connections are abandoned (the old
                // pool abandoned them too); in-flight requests drain.
                Phase::Reading => self.close(token),
                // One final flush attempt; `flush_write` closes on
                // WouldBlock while draining.
                Phase::Writing => self.flush_write(token),
                Phase::Dispatched => {}
            }
        }
    }

    fn drain_inbox(&mut self) {
        let inbox = std::mem::take(&mut *self.shared.inbox.lock().expect("inbox lock"));
        for stream in inbox.conns {
            if self.draining {
                self.stats.active.fetch_sub(1, Ordering::Relaxed);
            } else {
                self.register(stream);
            }
        }
        for completion in inbox.completions {
            self.apply_completion(completion);
        }
    }

    fn accept_ready(&mut self) {
        loop {
            let Some(listener) = &self.listener else {
                return;
            };
            match listener.accept() {
                Ok((stream, _)) => {
                    self.stats.accepted_total.fetch_add(1, Ordering::Relaxed);
                    self.stats.active.fetch_add(1, Ordering::Relaxed);
                    let target = self.next_peer;
                    self.next_peer = (self.next_peer + 1) % self.peers.len();
                    if target == self.index {
                        self.register(stream);
                    } else {
                        self.peers[target].push_conn(stream);
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => {
                    // Transient accept failure (e.g. fd exhaustion):
                    // back off instead of busy-spinning — the listener
                    // is level-triggered and will fire again.
                    std::thread::sleep(READ_TICK / 4);
                    return;
                }
            }
        }
    }

    fn register(&mut self, stream: TcpStream) {
        if stream.set_nonblocking(true).is_err() {
            self.stats.active.fetch_sub(1, Ordering::Relaxed);
            return;
        }
        let _ = stream.set_nodelay(true);
        let fd = raw_fd(&stream);
        let token = match self.free.pop() {
            Some(t) => t,
            None => {
                self.slots.push(None);
                self.slots.len() - 1
            }
        };
        if self.poller.add(fd, token, Interest::READ).is_err() {
            self.free.push(token);
            self.stats.active.fetch_sub(1, Ordering::Relaxed);
            return;
        }
        self.next_generation += 1;
        self.stats.idle_keepalive.fetch_add(1, Ordering::Relaxed);
        self.slots[token] = Some(Conn {
            stream,
            fd,
            generation: self.next_generation,
            phase: Phase::Reading,
            buf: Vec::new(),
            parse: Parse::new(),
            write_buf: Vec::new(),
            written: 0,
            close_after_write: false,
            idle_deadline: Instant::now() + IDLE_TIMEOUT,
            hard_deadline: None,
            peer_eof: false,
            counted_idle: true,
            interest: Interest::READ,
        });
    }

    fn close(&mut self, token: usize) {
        let Some(conn) = self.slots[token].take() else {
            return;
        };
        let _ = self.poller.delete(conn.fd);
        self.free.push(token);
        self.stats.active.fetch_sub(1, Ordering::Relaxed);
        if conn.counted_idle {
            self.stats.idle_keepalive.fetch_sub(1, Ordering::Relaxed);
        }
    }

    fn set_interest(&mut self, token: usize, interest: Interest) {
        let Some(conn) = self.slots[token].as_mut() else {
            return;
        };
        if conn.interest == interest {
            return;
        }
        let fd = conn.fd;
        conn.interest = interest;
        if self.poller.modify(fd, token, interest).is_err() {
            self.close(token);
        }
    }

    fn conn_event(&mut self, token: usize, ev: Event) {
        if !matches!(self.slots.get(token), Some(Some(_))) {
            return;
        }
        if ev.readable {
            self.on_readable(token);
        }
        if self.slots[token].is_none() {
            return;
        }
        if ev.writable && self.slots[token].as_ref().expect("checked").phase == Phase::Writing {
            self.flush_write(token);
        }
    }

    fn on_readable(&mut self, token: usize) {
        match self.slots[token].as_ref().expect("checked").phase {
            Phase::Reading => self.read_and_parse(token),
            Phase::Dispatched => self.probe_peer(token),
            // The write path surfaces errors on its own.
            Phase::Writing => {}
        }
    }

    fn read_and_parse(&mut self, token: usize) {
        let mut scratch = [0u8; 16 * 1024];
        loop {
            let conn = self.slots[token].as_mut().expect("checked");
            match conn.stream.read(&mut scratch) {
                Ok(0) => {
                    conn.peer_eof = true;
                    self.handle_peer_eof(token);
                    return;
                }
                Ok(n) => {
                    conn.buf.extend_from_slice(&scratch[..n]);
                    if conn.counted_idle {
                        conn.counted_idle = false;
                        self.stats.idle_keepalive.fetch_sub(1, Ordering::Relaxed);
                    }
                    if conn.hard_deadline.is_none() {
                        conn.hard_deadline = Some(Instant::now() + REQUEST_TIMEOUT);
                    }
                    match conn.parse.step(&mut conn.buf) {
                        Ok(Some((request, http11))) => {
                            self.dispatch(token, request, http11);
                            return;
                        }
                        Ok(None) => {}
                        Err(e) => {
                            self.respond_framing_error(token, &e);
                            return;
                        }
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => {
                    self.close(token);
                    return;
                }
            }
        }
    }

    fn handle_peer_eof(&mut self, token: usize) {
        let conn = self.slots[token].as_mut().expect("checked");
        match conn.parse.finish_eof(&mut conn.buf) {
            Ok(None) => self.close(token),
            Ok(Some((request, http11))) => self.dispatch(token, request, http11),
            Err(e) => self.respond_framing_error(token, &e),
        }
    }

    /// A readiness event on a `Dispatched` connection can only mean an
    /// error/hangup (read interest is off): probe the socket so resets
    /// are discovered and pipelined bytes (delivered alongside a
    /// half-close) stay buffered.
    fn probe_peer(&mut self, token: usize) {
        let mut scratch = [0u8; 4096];
        let conn = self.slots[token].as_mut().expect("checked");
        match conn.stream.read(&mut scratch) {
            Ok(0) => conn.peer_eof = true,
            Ok(n) => {
                conn.buf.extend_from_slice(&scratch[..n]);
                // A peer flooding pipelined bytes while a request is in
                // flight is bounded here, not by its send rate.
                if conn.buf.len() > 4 * MAX_LINE {
                    self.close(token);
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {}
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => self.close(token),
        }
    }

    fn dispatch(&mut self, token: usize, request: Request, http11: bool) {
        let keep_alive = if http11 {
            !request
                .header("connection")
                .is_some_and(|v| v.eq_ignore_ascii_case("close"))
        } else {
            request
                .header("connection")
                .is_some_and(|v| v.eq_ignore_ascii_case("keep-alive"))
        };
        let conn = self.slots[token].as_mut().expect("checked");
        conn.phase = Phase::Dispatched;
        conn.hard_deadline = None;
        let generation = conn.generation;
        self.set_interest(token, Interest::NONE);
        let router = Arc::clone(&self.router);
        let shared = Arc::clone(&self.shared);
        self.dispatch.spawn(move || {
            let response =
                match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| router(&request))) {
                    Ok(r) => r,
                    Err(_) => Response::json(500, "{\"error\":\"internal panic\"}".into()),
                };
            shared.push_completion(Completion {
                token,
                generation,
                response,
                keep_alive,
            });
        });
    }

    fn apply_completion(&mut self, completion: Completion) {
        let valid = self
            .slots
            .get(completion.token)
            .and_then(|s| s.as_ref())
            .is_some_and(|conn| {
                conn.generation == completion.generation && conn.phase == Phase::Dispatched
            });
        if !valid {
            return;
        }
        self.respond(
            completion.token,
            &completion.response,
            completion.keep_alive,
        );
    }

    /// Malformed request: best-effort 400 carrying the parse detail (our
    /// own error strings — "transfer-encoding is not supported", "line
    /// too long" — are the client's only diagnostic), then close.
    fn respond_framing_error(&mut self, token: usize, e: &io::Error) {
        let body = crate::json::obj([(
            "error",
            crate::json::Json::Str(format!("malformed request: {e}")),
        )]);
        let response = Response::json(400, body.to_text());
        self.respond(token, &response, false);
    }

    fn respond(&mut self, token: usize, response: &Response, keep_alive: bool) {
        let conn = self.slots[token].as_mut().expect("checked");
        conn.write_buf = serialize_response(response, keep_alive);
        conn.written = 0;
        conn.phase = Phase::Writing;
        conn.close_after_write = !keep_alive;
        self.flush_write(token);
    }

    fn flush_write(&mut self, token: usize) {
        loop {
            let conn = self.slots[token].as_mut().expect("checked");
            if conn.written == conn.write_buf.len() {
                self.finish_response(token);
                return;
            }
            match conn.stream.write(&conn.write_buf[conn.written..]) {
                Ok(0) => {
                    self.close(token);
                    return;
                }
                Ok(n) => conn.written += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    if self.draining {
                        // Shutdown abandons peers that aren't draining
                        // their receive buffer (the old pool did too).
                        self.close(token);
                    } else {
                        self.set_interest(token, Interest::WRITE);
                    }
                    return;
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => {
                    self.close(token);
                    return;
                }
            }
        }
    }

    fn finish_response(&mut self, token: usize) {
        let conn = self.slots[token].as_mut().expect("checked");
        if conn.close_after_write || self.draining {
            self.close(token);
            return;
        }
        conn.phase = Phase::Reading;
        conn.parse = Parse::new();
        conn.write_buf = Vec::new();
        conn.written = 0;
        conn.idle_deadline = Instant::now() + IDLE_TIMEOUT;
        conn.hard_deadline = None;
        if !conn.buf.is_empty() {
            // Pipelined bytes arrived during the previous request.
            conn.hard_deadline = Some(Instant::now() + REQUEST_TIMEOUT);
            match conn.parse.step(&mut conn.buf) {
                Ok(Some((request, http11))) => {
                    self.dispatch(token, request, http11);
                    return;
                }
                Ok(None) => {
                    if self.slots[token].as_ref().expect("checked").peer_eof {
                        self.handle_peer_eof(token);
                        return;
                    }
                }
                Err(e) => {
                    self.respond_framing_error(token, &e);
                    return;
                }
            }
            self.set_interest(token, Interest::READ);
            return;
        }
        if conn.peer_eof {
            self.close(token);
            return;
        }
        conn.counted_idle = true;
        self.stats.idle_keepalive.fetch_add(1, Ordering::Relaxed);
        self.set_interest(token, Interest::READ);
    }

    fn sweep_deadlines(&mut self) {
        if self.draining {
            return;
        }
        let now = Instant::now();
        for token in 0..self.slots.len() {
            let expired = match &self.slots[token] {
                Some(conn) if conn.phase == Phase::Reading => match conn.hard_deadline {
                    Some(hard) => now >= hard,
                    None => now >= conn.idle_deadline,
                },
                _ => false,
            };
            if expired {
                self.stats.timeouts.fetch_add(1, Ordering::Relaxed);
                self.close(token);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Server handle + entry point
// ---------------------------------------------------------------------------

/// A running server: event-loop threads plus the dispatch pool.
pub struct ServerHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    loops: Vec<JoinHandle<()>>,
    shareds: Vec<Arc<LoopShared>>,
    dispatch: Arc<DispatchPool>,
    stats: Arc<ConnStats>,
}

impl ServerHandle {
    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared connection counters.
    pub fn stats(&self) -> Arc<ConnStats> {
        Arc::clone(&self.stats)
    }

    /// Stops accepting, drains in-flight requests, and joins all
    /// threads. Idle keep-alive connections are closed immediately;
    /// event loops notice the flag within one tick (200 ms), so this
    /// returns promptly even while clients hold sockets open.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        if self.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        for shared in &self.shareds {
            let _ = shared.waker.wake();
        }
        // Order matters: draining the dispatch pool first guarantees
        // every in-flight request's completion reaches its loop, and a
        // loop only exits once its dispatched connections have written
        // back (or been abandoned).
        self.dispatch.shutdown();
        for handle in self.loops.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Binds `addr` (e.g. `127.0.0.1:0`) and serves `router` on
/// [`HttpConfig::event_threads`] readiness loops backed by a
/// [`HttpConfig::dispatch_threads`]-sized CPU tier, until
/// [`ServerHandle::shutdown`].
///
/// # Errors
/// Propagates bind and poller-setup failures.
pub fn serve(addr: &str, config: HttpConfig, router: Router) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    let local = listener.local_addr()?;
    listener.set_nonblocking(true)?;

    let auto = || {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4)
    };
    let event_threads = match config.event_threads {
        0 => auto(),
        n => n,
    };
    let dispatch_threads = match config.dispatch_threads {
        0 => auto(),
        n => n,
    };

    let stop = Arc::new(AtomicBool::new(false));
    let dispatch = Arc::new(DispatchPool::new(dispatch_threads));
    let mut shareds = Vec::with_capacity(event_threads);
    let mut pollers = Vec::with_capacity(event_threads);
    for _ in 0..event_threads {
        let shared = Arc::new(LoopShared {
            waker: Waker::new()?,
            inbox: Mutex::new(Inbox::default()),
        });
        let poller = Poller::new()?;
        poller.add(shared.waker.fd(), TOKEN_WAKER, Interest::READ)?;
        shareds.push(shared);
        pollers.push(poller);
    }
    pollers[0].add(raw_fd(&listener), TOKEN_LISTENER, Interest::READ)?;

    let mut listener = Some(listener);
    let mut loops = Vec::with_capacity(event_threads);
    for (index, poller) in pollers.into_iter().enumerate() {
        let event_loop = EventLoop {
            poller,
            shared: Arc::clone(&shareds[index]),
            peers: shareds.clone(),
            index,
            next_peer: 0,
            listener: if index == 0 { listener.take() } else { None },
            slots: Vec::new(),
            free: Vec::new(),
            next_generation: 0,
            stats: Arc::clone(&config.stats),
            router: Arc::clone(&router),
            dispatch: Arc::clone(&dispatch),
            stop: Arc::clone(&stop),
            draining: false,
        };
        loops.push(std::thread::spawn(move || event_loop.run()));
    }

    Ok(ServerHandle {
        addr: local,
        stop,
        loops,
        shareds,
        dispatch,
        stats: config.stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader};

    fn serve_test(event_threads: usize, router: Router) -> ServerHandle {
        serve(
            "127.0.0.1:0",
            HttpConfig {
                event_threads,
                dispatch_threads: 2,
                stats: Arc::new(ConnStats::default()),
            },
            router,
        )
        .unwrap()
    }

    fn echo_router() -> Router {
        Arc::new(|req: &Request| {
            Response::json(
                200,
                format!(
                    "{{\"method\":\"{}\",\"path\":\"{}\",\"len\":{}}}",
                    req.method,
                    req.path,
                    req.body.len()
                ),
            )
        })
    }

    fn raw_roundtrip(addr: SocketAddr, request: &str) -> String {
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(request.as_bytes()).unwrap();
        let mut out = String::new();
        let _ = s.read_to_string(&mut out);
        out
    }

    /// Reads one full response (status line + headers + body) off a
    /// keep-alive connection, returning the status line and body.
    fn read_response(reader: &mut BufReader<TcpStream>) -> (String, String) {
        let mut status = String::new();
        reader.read_line(&mut status).unwrap();
        let mut content_length = 0;
        loop {
            let mut h = String::new();
            reader.read_line(&mut h).unwrap();
            if h.trim_end().is_empty() {
                break;
            }
            if let Some((k, v)) = h.split_once(':') {
                if k.eq_ignore_ascii_case("content-length") {
                    content_length = v.trim().parse().unwrap();
                }
            }
        }
        let mut body = vec![0u8; content_length];
        reader.read_exact(&mut body).unwrap();
        (status, String::from_utf8(body).unwrap())
    }

    fn wait_until(timeout: Duration, mut ok: impl FnMut() -> bool) -> bool {
        let deadline = Instant::now() + timeout;
        while Instant::now() < deadline {
            if ok() {
                return true;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        ok()
    }

    #[test]
    fn serves_parses_and_shuts_down() {
        let handle = serve_test(2, echo_router());
        let addr = handle.addr();
        let reply = raw_roundtrip(
            addr,
            "POST /query HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\nConnection: close\r\n\r\nbody",
        );
        assert!(reply.starts_with("HTTP/1.1 200 OK\r\n"), "{reply}");
        assert!(reply.contains("\"path\":\"/query\""), "{reply}");
        assert!(reply.contains("\"len\":4"), "{reply}");
        handle.shutdown();
    }

    #[test]
    fn keep_alive_serves_multiple_requests() {
        let handle = serve_test(1, echo_router());
        let s = TcpStream::connect(handle.addr()).unwrap();
        let mut reader = BufReader::new(s.try_clone().unwrap());
        let mut s = s;
        for i in 0..3 {
            s.write_all(b"GET /ping HTTP/1.1\r\nHost: x\r\n\r\n")
                .unwrap();
            let (status, _) = read_response(&mut reader);
            assert!(status.starts_with("HTTP/1.1 200"), "request {i}: {status}");
        }
        handle.shutdown();
    }

    #[test]
    fn shutdown_unblocks_loops_parked_on_idle_keepalive() {
        let handle = serve_test(1, echo_router());
        // One request without Connection: close, then leave the socket
        // open: the connection parks idle in the event loop.
        let mut s = TcpStream::connect(handle.addr()).unwrap();
        s.write_all(b"GET /ping HTTP/1.1\r\nHost: x\r\n\r\n")
            .unwrap();
        let mut first = [0u8; 16];
        let mut reader = BufReader::new(s.try_clone().unwrap());
        reader.read_exact(&mut first).unwrap();
        assert!(first.starts_with(b"HTTP/1.1 200"));

        // Shutdown must complete despite the held-open connection.
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            handle.shutdown();
            let _ = done_tx.send(());
        });
        done_rx
            .recv_timeout(Duration::from_secs(5))
            .expect("shutdown hung on an idle keep-alive connection");
        drop(s);
    }

    #[test]
    fn invalid_content_length_is_rejected_not_zeroed() {
        let handle = serve_test(1, echo_router());
        // Overflowing and non-numeric Content-Length must 400-and-close
        // instead of misreading the body as a pipelined next request.
        for cl in ["18446744073709551616", "abc"] {
            let reply = raw_roundtrip(
                handle.addr(),
                &format!("POST /q HTTP/1.1\r\nContent-Length: {cl}\r\n\r\n{{}}"),
            );
            assert!(reply.contains("400"), "cl `{cl}`: {reply}");
            assert!(reply.contains("content-length"), "cl `{cl}`: {reply}");
            // Exactly one response: nothing was misparsed as a second
            // request on this connection.
            assert_eq!(reply.matches("HTTP/1.1").count(), 1, "{reply}");
        }
        handle.shutdown();
    }

    #[test]
    fn http10_defaults_to_connection_close() {
        let handle = serve_test(1, echo_router());
        let t0 = Instant::now();
        let reply = raw_roundtrip(handle.addr(), "GET /old HTTP/1.0\r\n\r\n");
        // The server closes immediately (well inside the idle timeout)
        // and says so.
        assert!(t0.elapsed() < IDLE_TIMEOUT, "HTTP/1.0 hung to idle timeout");
        assert!(reply.contains("connection: close"), "{reply}");
        handle.shutdown();
    }

    #[test]
    fn malformed_request_error_detail_reaches_the_client() {
        let handle = serve_test(1, echo_router());
        let reply = raw_roundtrip(
            handle.addr(),
            "POST /q HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
        );
        assert!(
            reply.contains("transfer-encoding is not supported"),
            "{reply}"
        );
        handle.shutdown();
    }

    #[test]
    fn slow_loris_partial_request_is_cut_off_and_slot_freed() {
        let handle = serve_test(1, echo_router());
        let stats = handle.stats();
        // A request line with no terminating blank line, then silence:
        // the connection must be cut at the hard deadline instead of
        // holding its slot forever.
        let mut s = TcpStream::connect(handle.addr()).unwrap();
        s.write_all(b"GET /stuck HTTP/1.1\r\nx-slow: 1\r\n")
            .unwrap();
        let mut reply = String::new();
        let t0 = Instant::now();
        let _ = s.read_to_string(&mut reply); // blocks until server closes
        assert!(
            t0.elapsed() < IDLE_TIMEOUT + REQUEST_TIMEOUT + Duration::from_secs(3),
            "server did not cut off the stalled request"
        );
        assert!(
            wait_until(Duration::from_secs(2), || {
                stats.timeouts.load(Ordering::Relaxed) >= 1
                    && stats.active.load(Ordering::Relaxed) == 0
            }),
            "cutoff must count as a timeout and free the slot"
        );
        // The server keeps serving.
        let reply = raw_roundtrip(
            handle.addr(),
            "GET /after HTTP/1.1\r\nConnection: close\r\n\r\n",
        );
        assert!(reply.contains("200"), "{reply}");
        handle.shutdown();
    }

    #[test]
    fn oversized_header_line_is_rejected_not_buffered() {
        let handle = serve_test(1, echo_router());
        let mut s = TcpStream::connect(handle.addr()).unwrap();
        s.write_all(b"GET /x HTTP/1.1\r\nx-junk: ").unwrap();
        // Stream far more than MAX_LINE with no newline; the server
        // must cut us off with a 400 instead of buffering forever.
        let chunk = vec![b'a'; 8 * 1024];
        let mut reply = String::new();
        for _ in 0..((2 * MAX_LINE) / chunk.len()) {
            if s.write_all(&chunk).is_err() {
                break; // server already closed on us — also a pass
            }
        }
        let _ = s.read_to_string(&mut reply);
        if !reply.is_empty() {
            assert!(reply.contains("400"), "{reply}");
        }
    }

    #[test]
    fn malformed_request_gets_400() {
        let handle = serve_test(1, echo_router());
        let reply = raw_roundtrip(handle.addr(), "NOT-HTTP\r\n\r\n");
        assert!(reply.contains("400"), "{reply}");
        handle.shutdown();
    }

    #[test]
    fn router_panic_becomes_500() {
        let router: Router = Arc::new(|req: &Request| {
            if req.path == "/boom" {
                panic!("kaboom");
            }
            Response::json(200, "{}".into())
        });
        let handle = serve_test(1, router);
        let reply = raw_roundtrip(
            handle.addr(),
            "GET /boom HTTP/1.1\r\nConnection: close\r\n\r\n",
        );
        assert!(reply.contains("500"), "{reply}");
        // The server survives and keeps serving.
        let reply = raw_roundtrip(
            handle.addr(),
            "GET /fine HTTP/1.1\r\nConnection: close\r\n\r\n",
        );
        assert!(reply.contains("200"), "{reply}");
        handle.shutdown();
    }

    #[test]
    fn byte_at_a_time_delivery_is_assembled_into_one_request() {
        let handle = serve_test(1, echo_router());
        let mut s = TcpStream::connect(handle.addr()).unwrap();
        let wire = b"POST /drip HTTP/1.1\r\nContent-Length: 3\r\nConnection: close\r\n\r\nabc";
        for &b in wire.iter() {
            s.write_all(&[b]).unwrap();
            std::thread::sleep(Duration::from_millis(2));
        }
        let mut reply = String::new();
        let _ = s.read_to_string(&mut reply);
        assert!(reply.contains("200"), "{reply}");
        assert!(reply.contains("\"path\":\"/drip\""), "{reply}");
        assert!(reply.contains("\"len\":3"), "{reply}");
        handle.shutdown();
    }

    #[test]
    fn pipelined_requests_are_answered_in_order_on_one_socket() {
        let handle = serve_test(1, echo_router());
        let mut s = TcpStream::connect(handle.addr()).unwrap();
        // Three back-to-back requests in a single write.
        s.write_all(
            b"GET /a HTTP/1.1\r\nHost: x\r\n\r\n\
              POST /b HTTP/1.1\r\nContent-Length: 2\r\n\r\nhi\
              GET /c HTTP/1.1\r\nConnection: close\r\n\r\n",
        )
        .unwrap();
        let mut reader = BufReader::new(s.try_clone().unwrap());
        for path in ["/a", "/b", "/c"] {
            let (status, body) = read_response(&mut reader);
            assert!(status.starts_with("HTTP/1.1 200"), "{path}: {status}");
            assert!(body.contains(&format!("\"path\":\"{path}\"")), "{body}");
        }
        handle.shutdown();
    }

    #[test]
    fn mid_response_disconnect_reclaims_the_slot() {
        // A response far bigger than the socket buffer, so the write
        // path is guaranteed to span multiple readiness cycles.
        let router: Router = Arc::new(|_req: &Request| Response::json(200, "x".repeat(8 << 20)));
        let handle = serve_test(1, router);
        let stats = handle.stats();
        let mut s = TcpStream::connect(handle.addr()).unwrap();
        s.write_all(b"GET /big HTTP/1.1\r\nHost: x\r\n\r\n")
            .unwrap();
        // Read a little so the response definitely started, then vanish.
        let mut start = [0u8; 64];
        s.read_exact(&mut start).unwrap();
        drop(s);
        assert!(
            wait_until(Duration::from_secs(5), || stats
                .active
                .load(Ordering::Relaxed)
                == 0),
            "disconnected mid-write connection was not reclaimed"
        );
        handle.shutdown();
    }

    #[test]
    fn idle_keepalive_connections_scale_beyond_the_thread_count() {
        let handle = serve_test(2, echo_router());
        let stats = handle.stats();
        // Far more parked connections than event (2) + dispatch (2)
        // threads; under the old thread-per-connection model these would
        // starve the pool.
        // Connect in waves the listen backlog can hold, letting accepts
        // catch up between them: a backlog overflow stalls the client on
        // a ~1 s SYN retransmit, longer than the test-profile idle
        // timeout, so the first connections would expire before the
        // last ones registered.
        let mut conns: Vec<TcpStream> = Vec::with_capacity(200);
        while conns.len() < 200 {
            conns.extend((0..50).map(|_| TcpStream::connect(handle.addr()).unwrap()));
            let dialed = conns.len() as u64;
            assert!(
                wait_until(Duration::from_secs(5), || {
                    stats.accepted_total.load(Ordering::Relaxed) == dialed
                }),
                "accepts stalled at {dialed} connections"
            );
        }
        assert!(
            wait_until(Duration::from_secs(5), || {
                stats.active.load(Ordering::Relaxed) == 200
                    && stats.idle_keepalive.load(Ordering::Relaxed) == 200
            }),
            "all idle connections must register (active={}, idle={})",
            stats.active.load(Ordering::Relaxed),
            stats.idle_keepalive.load(Ordering::Relaxed),
        );
        assert_eq!(stats.accepted_total.load(Ordering::Relaxed), 200);
        // Service stays responsive through the parked crowd.
        let reply = raw_roundtrip(
            handle.addr(),
            "GET /through HTTP/1.1\r\nConnection: close\r\n\r\n",
        );
        assert!(reply.contains("200"), "{reply}");
        drop(conns);
        assert!(
            wait_until(Duration::from_secs(5), || stats
                .active
                .load(Ordering::Relaxed)
                == 0),
            "closed connections must come off the gauges"
        );
        assert_eq!(stats.idle_keepalive.load(Ordering::Relaxed), 0);
        handle.shutdown();
    }

    #[test]
    fn idle_expiry_counts_as_timeout_and_closes() {
        let handle = serve_test(1, echo_router());
        let stats = handle.stats();
        let mut s = TcpStream::connect(handle.addr()).unwrap();
        // Never send anything; the 1s test idle deadline must reap it.
        let mut out = String::new();
        let t0 = Instant::now();
        let _ = s.read_to_string(&mut out); // EOF when the server closes
        assert!(t0.elapsed() >= IDLE_TIMEOUT - Duration::from_millis(100));
        assert!(
            wait_until(Duration::from_secs(2), || {
                stats.timeouts.load(Ordering::Relaxed) >= 1
                    && stats.active.load(Ordering::Relaxed) == 0
            }),
            "idle expiry must count and reclaim"
        );
        handle.shutdown();
    }
}
