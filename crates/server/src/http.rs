//! The server's HTTP/1.1 layer: one framing for both directions of the
//! wire, and one readiness event loop that serves every connection.
//!
//! **Framing.** `Parse` reads a message incrementally out of a byte
//! buffer: a request on this server's sockets, a response in
//! [`crate::client`] (shard replies). Both go through the same caps —
//! 64 KiB lines, 100 headers, 64 MiB bodies — the same `Content-Length`
//! rule and the same EOF rule, and differ only in their first line
//! (`StartLine`). Bytes from a peer are hostile until it has framed
//! them.
//!
//! **Serving.** One event loop (epoll via the `polling` shim) owns the
//! listener, a slab of nonblocking connections and the completion inbox.
//! Each connection is an explicit state machine — read head → read body →
//! dispatch → write response → keep-alive idle. A complete request runs
//! on the dispatch pool (the CPU tier, [`crate::compute::DispatchPool`]).
//! When nothing can follow its response on the connection but the next
//! request — keep-alive, no pipelined bytes, no peer EOF, no drain — the
//! dispatch job writes the response itself and re-arms read interest,
//! and the loop learns of it from a completion it reads when something
//! else wakes it (usually that next request). Every other response, and
//! the tail of a direct write that stopped short, comes back through the
//! inbox plus a wakeup pipe and the loop writes it. The loop never runs
//! handler code and owns every connection's state; a job writes only to
//! its own dispatched connection. Idle keep-alive connections cost an
//! epoll registration and a small buffer rather than a thread, and one
//! loop holds tens of thousands of them while the dispatch pool sizes to
//! the CPU-bound query work. Because the loop closes a finished
//! connection before it accepts the next one, the connection gauges never
//! race.
//!
//! The layer is application-agnostic: it parses requests, hands them to
//! a router closure, and writes responses (with keep-alive support).

use polling::{Event, Interest, Poller, Waker};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::compute::DispatchPool;

/// Bodies larger than this are refused, in either direction (inline
/// dataset uploads are the biggest legitimate payload).
const MAX_BODY: usize = 64 * 1024 * 1024;
const MAX_HEADERS: usize = 100;
/// Start-line / header-line length cap: a peer streaming bytes with no
/// newline must not grow a buffer without bound.
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

/// Reserved poller token for the wakeup pipe.
const TOKEN_WAKER: usize = usize::MAX;
/// Reserved poller token for the listening socket.
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
        header(&self.headers, name)
    }

    /// The body as UTF-8 text.
    pub fn body_text(&self) -> Result<&str, std::str::Utf8Error> {
        std::str::from_utf8(&self.body)
    }
}

fn header<'a>(headers: &'a [(String, String)], name: &str) -> Option<&'a str> {
    headers
        .iter()
        .find(|(k, _)| k.eq_ignore_ascii_case(name))
        .map(|(_, v)| v.as_str())
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

/// Connection-level counters shared between the event loop and the
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
    /// event (a proxy for loop activity; an idle loop ticks without
    /// counting).
    pub event_loop_wakeups: AtomicU64,
    /// Responses a dispatch job wrote whole to its own connection, so the
    /// event loop was not woken to write them (counted when the loop
    /// applies the job's completion, at its next wakeup).
    pub direct_writes: AtomicU64,
}

/// The router: maps a request to a response. Panics in a router are
/// caught per-request so one bad request can't take the server down.
pub type Router = Arc<dyn Fn(&Request) -> Response + Send + Sync>;

/// Dispatch sizing and counters for [`serve`].
#[derive(Debug, Clone)]
pub struct HttpConfig {
    /// Dispatch (CPU tier) threads running the router (`0` = auto:
    /// available parallelism).
    pub dispatch_threads: usize,
    /// Shared connection counters (exposed via [`ServerHandle::stats`]).
    pub stats: Arc<ConnStats>,
}

impl Default for HttpConfig {
    fn default() -> Self {
        Self {
            dispatch_threads: 0,
            stats: Arc::new(ConnStats::default()),
        }
    }
}

// ---------------------------------------------------------------------------
// The framing: one incremental parser for requests and responses
// ---------------------------------------------------------------------------

fn invalid(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// A message's first line — the one place a request and a response
/// differ in framing.
pub(crate) trait StartLine: Sized {
    /// Requests may end at a clean EOF between messages and have no body
    /// without a `Content-Length`; a response has neither allowance.
    const REQUEST: bool;

    /// Parses the line into itself and whether its version is `HTTP/1.1`.
    fn parse(line: &str) -> io::Result<(Self, bool)>;
}

/// `METHOD TARGET [VERSION]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct RequestLine {
    method: String,
    path: String,
}

impl StartLine for RequestLine {
    const REQUEST: bool = true;

    fn parse(line: &str) -> io::Result<(Self, bool)> {
        let mut parts = line.split_whitespace();
        let (Some(method), Some(path)) = (parts.next(), parts.next()) else {
            return Err(invalid(format!("malformed request line: {line:?}")));
        };
        let start = RequestLine {
            method: method.to_owned(),
            path: path.to_owned(),
        };
        Ok((start, parts.next() == Some("HTTP/1.1")))
    }
}

/// `VERSION STATUS [REASON]`: the status code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct StatusLine(pub(crate) u16);

impl StartLine for StatusLine {
    const REQUEST: bool = false;

    fn parse(line: &str) -> io::Result<(Self, bool)> {
        let mut parts = line.split_whitespace();
        let version = parts.next();
        let status = parts
            .next()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| invalid(format!("bad status line {line:?}")))?;
        Ok((StatusLine(status), version == Some("HTTP/1.1")))
    }
}

/// One framed message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Message<S> {
    pub(crate) start: S,
    http11: bool,
    pub(crate) headers: Vec<(String, String)>,
    pub(crate) body: Vec<u8>,
}

impl<S> Message<S> {
    /// Whether the connection may carry another message after this one.
    /// HTTP/1.0 (and unknown versions) default to connection-close
    /// framing; only HTTP/1.1 defaults to keep-alive.
    pub(crate) fn keep_alive(&self) -> bool {
        let connection = header(&self.headers, "connection");
        if self.http11 {
            !connection.is_some_and(|v| v.eq_ignore_ascii_case("close"))
        } else {
            connection.is_some_and(|v| v.eq_ignore_ascii_case("keep-alive"))
        }
    }
}

/// Parser state for one in-flight message on a connection. Bytes land in
/// the caller's buffer; [`Parse::step`] consumes them incrementally, so
/// byte-at-a-time delivery re-scans only the current line, never the
/// whole buffer.
#[derive(Debug)]
pub(crate) enum Parse<S> {
    Head {
        /// Offset into the buffer where the current (unfinished) line
        /// starts.
        cursor: usize,
        /// The start line and its `http11` once it has parsed.
        start: Option<(S, bool)>,
        headers: Vec<(String, String)>,
    },
    Body {
        message: Message<S>,
        content_length: usize,
    },
}

impl<S: StartLine> Parse<S> {
    pub(crate) fn new() -> Self {
        Parse::Head {
            cursor: 0,
            start: None,
            headers: Vec::new(),
        }
    }

    /// Consumes as much of `buf` as possible. `Ok(Some(..))` is a
    /// complete message (its bytes have been drained from `buf`; any
    /// remainder is pipelined input for the next one). `Ok(None)` needs
    /// more bytes.
    pub(crate) fn step(&mut self, buf: &mut Vec<u8>) -> io::Result<Option<Message<S>>> {
        loop {
            match self {
                Parse::Head {
                    cursor,
                    start,
                    headers,
                } => {
                    let Some(nl) = buf[*cursor..].iter().position(|&b| b == b'\n') else {
                        if buf.len() - *cursor >= MAX_LINE {
                            return Err(invalid("line too long"));
                        }
                        return Ok(None);
                    };
                    let line_end = *cursor + nl + 1;
                    if line_end - *cursor > MAX_LINE {
                        return Err(invalid("line too long"));
                    }
                    let line = std::str::from_utf8(&buf[*cursor..line_end])
                        .map_err(|_| invalid("stream did not contain valid UTF-8"))?;
                    *cursor = line_end;
                    if start.is_none() {
                        *start = Some(S::parse(line)?);
                        continue;
                    }
                    let line = line.trim_end();
                    if !line.is_empty() {
                        if headers.len() >= MAX_HEADERS {
                            return Err(invalid("too many headers"));
                        }
                        let (k, v) = line
                            .split_once(':')
                            .ok_or_else(|| invalid(format!("malformed header line: {line:?}")))?;
                        headers.push((k.trim().to_owned(), v.trim().to_owned()));
                        continue;
                    }
                    // Blank line: end of the head.
                    let (start, http11) = start.take().expect("start line parsed");
                    let headers = std::mem::take(headers);
                    let content_length = content_length::<S>(&headers)?;
                    buf.drain(..line_end);
                    // Grow the body as bytes actually arrive instead of
                    // committing Content-Length bytes up front (a header
                    // alone must not pin 64 MiB).
                    *self = Parse::Body {
                        message: Message {
                            start,
                            http11,
                            headers,
                            body: Vec::with_capacity(content_length.min(64 * 1024)),
                        },
                        content_length,
                    };
                }
                Parse::Body {
                    message,
                    content_length,
                } => {
                    let take = (*content_length - message.body.len()).min(buf.len());
                    message.body.extend_from_slice(&buf[..take]);
                    buf.drain(..take);
                    if message.body.len() < *content_length {
                        return Ok(None);
                    }
                    let Parse::Body { message, .. } = std::mem::replace(self, Parse::new()) else {
                        unreachable!("matched Body above");
                    };
                    return Ok(Some(message));
                }
            }
        }
    }

    /// Handles peer EOF. For a request, `Ok(None)` is a clean close
    /// between requests and `Ok(Some(..))` a request that completed
    /// exactly at EOF: an unterminated final line counts as a line, the
    /// way a blocking line reader delivers it. A response is complete only
    /// once [`Self::step`] has returned it, so EOF before that is an error:
    /// a reply cut short is never handed back as the answer. Every `Err`
    /// is `UnexpectedEof` unless the bytes already held were malformed.
    pub(crate) fn finish_eof(&mut self, buf: &mut Vec<u8>) -> io::Result<Option<Message<S>>> {
        if let (true, Parse::Head { cursor, start, .. }) = (S::REQUEST, &*self) {
            if start.is_none() && buf.len() == *cursor {
                return Ok(None);
            }
            if buf.len() > *cursor {
                buf.push(b'\n');
                if let Some(done) = self.step(buf)? {
                    return Ok(Some(done));
                }
            }
        }
        let at = match self {
            Parse::Head { start: None, .. } if !S::REQUEST => "eof before the status line",
            Parse::Head { .. } => "eof in headers",
            Parse::Body { .. } => "eof in body",
        };
        Err(io::Error::new(io::ErrorKind::UnexpectedEof, at))
    }
}

/// The body length a head declares. Every `Content-Length` must be all
/// digits and all of them must agree: a lenient rule lets two parsers
/// disagree about where a message ends, and the bytes in between are read
/// as the next message. An unparseable value is an error, never 0, for
/// the same reason. A request without one has no body; a response
/// without one cannot be framed (this server always sends it, and a
/// kept-alive connection cannot be reused without it).
fn content_length<S: StartLine>(headers: &[(String, String)]) -> io::Result<usize> {
    // Chunked bodies are not implemented; treating them as body-less
    // would misparse the chunk stream as pipelined messages, so refuse
    // outright (a server closes the connection after its error reply).
    if header(headers, "transfer-encoding").is_some() {
        return Err(invalid(
            "transfer-encoding is not supported; send a content-length body",
        ));
    }
    let mut declared: Option<usize> = None;
    for (_, v) in headers
        .iter()
        .filter(|(k, _)| k.eq_ignore_ascii_case("content-length"))
    {
        let n = Some(v)
            .filter(|v| v.bytes().all(|b| b.is_ascii_digit()))
            .and_then(|v| v.parse::<usize>().ok())
            .ok_or_else(|| invalid(format!("invalid content-length `{v}`")))?;
        if let Some(first) = declared.filter(|&first| first != n) {
            return Err(invalid(format!(
                "conflicting content-length headers `{first}` and `{n}`"
            )));
        }
        declared = Some(n);
    }
    let n = match declared {
        Some(n) => n,
        None if S::REQUEST => 0,
        None => return Err(invalid("response without content-length cannot be framed")),
    };
    if n > MAX_BODY {
        // The length is remote-supplied: a rogue value is a structured
        // error, never an allocation of the peer's choosing.
        return Err(invalid(format!(
            "body of {n} bytes exceeds the {MAX_BODY}-byte cap"
        )));
    }
    Ok(n)
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
    /// Its job may write the response and re-arm read interest itself;
    /// the connection is `Reading` again once the loop has applied that
    /// job's completion.
    Dispatched,
    /// A response is being flushed by the loop.
    Writing,
}

#[derive(Debug)]
struct Conn {
    /// Shared with a dispatch job that writes its response directly; the
    /// job's clone keeps the fd from being closed (and its number reused)
    /// under it.
    stream: Arc<TcpStream>,
    fd: polling::RawFd,
    /// Guards completions against slot reuse: a completion for an
    /// earlier connection that shared this slot is dropped.
    generation: u64,
    phase: Phase,
    /// Bytes read but not yet consumed by the parser.
    buf: Vec<u8>,
    parse: Parse<RequestLine>,
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

/// A dispatch job's outcome for its connection.
struct Completion {
    token: usize,
    generation: u64,
    reply: Reply,
}

/// What a dispatch job hands back to the loop.
enum Reply {
    /// The job wrote the whole response and re-armed read interest.
    Written,
    /// The loop writes `wire[written..]`: the response to a request that
    /// could not be answered directly, or the tail of a direct write that
    /// stopped short.
    Write {
        wire: Vec<u8>,
        written: usize,
        keep_alive: bool,
    },
    /// A direct write failed: the loop closes the connection.
    Failed,
}

/// The event loop's cross-thread face: dispatch jobs push completions
/// here. The waker makes the loop notice one at once; a quiet one is
/// applied at the top of the loop's next iteration, whatever wakes it.
struct Inbox {
    waker: Waker,
    completions: Mutex<Vec<Completion>>,
}

impl Inbox {
    fn push(&self, completion: Completion) {
        self.queue().push(completion);
        let _ = self.waker.wake();
    }

    /// The queue survives a panic elsewhere: it holds plain values, so a
    /// poisoned lock is recovered rather than propagated.
    fn queue(&self) -> std::sync::MutexGuard<'_, Vec<Completion>> {
        self.completions
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
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

/// A dispatch job's handle on its own connection, for writing the
/// response itself. Given only to a keep-alive request with no pipelined
/// bytes behind it, no peer EOF and no drain under way: once its response
/// is out, nothing but the peer's next request can happen on the
/// connection, and re-armed read interest is how the loop hears of that.
struct Direct {
    stream: Arc<TcpStream>,
    poller: Arc<Poller>,
    fd: polling::RawFd,
}

impl Direct {
    /// One nonblocking write of `wire` (retried on EINTR).
    fn write(&self, wire: Vec<u8>, keep_alive: bool) -> Reply {
        let mut stream = &*self.stream;
        let outcome = loop {
            match stream.write(&wire) {
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                outcome => break outcome,
            }
        };
        match outcome {
            Ok(n) if n == wire.len() => Reply::Written,
            Ok(written) => Reply::Write {
                wire,
                written,
                keep_alive,
            },
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => Reply::Write {
                wire,
                written: 0,
                keep_alive,
            },
            Err(_) => Reply::Failed,
        }
    }

    /// Queues a whole write's completion and re-arms read interest, in
    /// that order: any readable event the loop sees for the fd then finds
    /// the completion already queued. The loop is not woken for it.
    fn rearm(self, inbox: &Inbox, completion: Completion) {
        let token = completion.token;
        inbox.queue().push(completion);
        // Fails (ENOENT) once the loop has closed the connection: there
        // is nothing left to re-arm.
        let _ = self.poller.modify(self.fd, token, Interest::READ);
    }
}

struct EventLoop {
    poller: Arc<Poller>,
    inbox: Arc<Inbox>,
    /// Taken (and deregistered) when draining starts.
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
            // Completions first, on every iteration: a job that wrote its
            // response whole queued its completion quietly before it
            // re-armed the fd, so this iteration's events for that fd find
            // the connection back in `Reading`. The pipe is drained before
            // the queue is taken, so no wake is consumed without its
            // completion.
            if events.iter().any(|ev| ev.token == TOKEN_WAKER) {
                self.inbox.waker.drain();
            }
            let completions = std::mem::take(&mut *self.inbox.queue());
            for completion in completions {
                self.apply_completion(completion);
            }
            for ev in events.iter().copied() {
                match ev.token {
                    TOKEN_WAKER => {}
                    TOKEN_LISTENER => self.accept_ready(),
                    token => self.conn_event(token, ev),
                }
            }
            self.sweep_deadlines();
            if self.draining && self.slots.iter().all(Option::is_none) {
                break;
            }
        }
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

    fn accept_ready(&mut self) {
        loop {
            let Some(listener) = &self.listener else {
                return;
            };
            match listener.accept() {
                Ok((stream, _)) => {
                    self.stats.accepted_total.fetch_add(1, Ordering::Relaxed);
                    self.stats.active.fetch_add(1, Ordering::Relaxed);
                    self.register(stream);
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
            stream: Arc::new(stream),
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
            match (&*conn.stream).read(&mut scratch) {
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
                        Ok(Some(request)) => {
                            self.dispatch(token, request);
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
            Ok(Some(request)) => self.dispatch(token, request),
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
        match (&*conn.stream).read(&mut scratch) {
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

    fn dispatch(&mut self, token: usize, message: Message<RequestLine>) {
        let keep_alive = message.keep_alive();
        let request = Request {
            method: message.start.method,
            path: message.start.path,
            headers: message.headers,
            body: message.body,
        };
        let conn = self.slots[token].as_mut().expect("checked");
        conn.phase = Phase::Dispatched;
        conn.hard_deadline = None;
        let generation = conn.generation;
        let direct_ok = keep_alive && conn.buf.is_empty() && !conn.peer_eof && !self.draining;
        let direct = direct_ok.then(|| Direct {
            stream: Arc::clone(&conn.stream),
            poller: Arc::clone(&self.poller),
            fd: conn.fd,
        });
        self.set_interest(token, Interest::NONE);
        let router = Arc::clone(&self.router);
        let inbox = Arc::clone(&self.inbox);
        self.dispatch.spawn(move || {
            let response =
                match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| router(&request))) {
                    Ok(r) => r,
                    Err(_) => Response::json(500, "{\"error\":\"internal panic\"}".into()),
                };
            let wire = serialize_response(&response, keep_alive);
            let reply = match &direct {
                Some(direct) => direct.write(wire, keep_alive),
                None => Reply::Write {
                    wire,
                    written: 0,
                    keep_alive,
                },
            };
            let completion = Completion {
                token,
                generation,
                reply,
            };
            match direct {
                Some(direct) if matches!(completion.reply, Reply::Written) => {
                    direct.rearm(&inbox, completion);
                }
                _ => inbox.push(completion),
            }
        });
    }

    fn apply_completion(&mut self, completion: Completion) {
        let token = completion.token;
        let valid = self
            .slots
            .get(token)
            .and_then(|s| s.as_ref())
            .is_some_and(|conn| {
                conn.generation == completion.generation && conn.phase == Phase::Dispatched
            });
        if !valid {
            return;
        }
        match completion.reply {
            Reply::Written => {
                self.stats.direct_writes.fetch_add(1, Ordering::Relaxed);
                // The job re-armed read interest itself.
                self.slots[token].as_mut().expect("checked").interest = Interest::READ;
                self.finish_response(token);
            }
            Reply::Write {
                wire,
                written,
                keep_alive,
            } => self.write_back(token, wire, written, keep_alive),
            Reply::Failed => self.close(token),
        }
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
        self.write_back(token, serialize_response(&response, false), 0, false);
    }

    /// Writes `wire` from `written` on, as far as the socket takes it now.
    fn write_back(&mut self, token: usize, wire: Vec<u8>, written: usize, keep_alive: bool) {
        let conn = self.slots[token].as_mut().expect("checked");
        conn.write_buf = wire;
        conn.written = written;
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
            match (&*conn.stream).write(&conn.write_buf[conn.written..]) {
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
                Ok(Some(request)) => {
                    self.dispatch(token, request);
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

/// A running server: the event-loop thread plus the dispatch pool.
pub struct ServerHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    event_loop: Option<JoinHandle<()>>,
    inbox: Arc<Inbox>,
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
    /// threads. Idle keep-alive connections are closed immediately; the
    /// event loop notices the flag within one tick (200 ms), so this
    /// returns promptly even while clients hold sockets open.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        if self.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        let _ = self.inbox.waker.wake();
        // Order matters: draining the dispatch pool first guarantees
        // every in-flight request's completion reaches the inbox, and the
        // loop only exits once its dispatched connections have written
        // back (or been abandoned).
        self.dispatch.shutdown();
        // A job that wrote its response whole queued its completion
        // without a wake: wake the loop once they all have, so the drain
        // does not wait out a tick for them.
        let _ = self.inbox.waker.wake();
        if let Some(event_loop) = self.event_loop.take() {
            let _ = event_loop.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Binds `addr` (e.g. `127.0.0.1:0`) and serves `router` from one
/// readiness loop backed by a [`HttpConfig::dispatch_threads`]-sized CPU
/// tier, until [`ServerHandle::shutdown`].
///
/// # Errors
/// Propagates bind and poller-setup failures.
pub fn serve(addr: &str, config: HttpConfig, router: Router) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    let local = listener.local_addr()?;
    listener.set_nonblocking(true)?;
    let dispatch_threads = match config.dispatch_threads {
        0 => std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4),
        n => n,
    };

    let inbox = Arc::new(Inbox {
        waker: Waker::new()?,
        completions: Mutex::new(Vec::new()),
    });
    let poller = Arc::new(Poller::new()?);
    poller.add(inbox.waker.fd(), TOKEN_WAKER, Interest::READ)?;
    poller.add(raw_fd(&listener), TOKEN_LISTENER, Interest::READ)?;

    let stop = Arc::new(AtomicBool::new(false));
    let dispatch = Arc::new(DispatchPool::new(dispatch_threads));
    let event_loop = EventLoop {
        poller,
        inbox: Arc::clone(&inbox),
        listener: Some(listener),
        slots: Vec::new(),
        free: Vec::new(),
        next_generation: 0,
        stats: Arc::clone(&config.stats),
        router,
        dispatch: Arc::clone(&dispatch),
        stop: Arc::clone(&stop),
        draining: false,
    };
    Ok(ServerHandle {
        addr: local,
        stop,
        event_loop: Some(std::thread::spawn(move || event_loop.run())),
        inbox,
        dispatch,
        stats: config.stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader};
    use std::sync::mpsc;

    fn serve_test(router: Router) -> ServerHandle {
        serve(
            "127.0.0.1:0",
            HttpConfig {
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
        let handle = serve_test(echo_router());
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
        let handle = serve_test(echo_router());
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
        let handle = serve_test(echo_router());
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
        let handle = serve_test(echo_router());
        // Overflowing, non-numeric, signed and disagreeing repeated
        // Content-Length must 400-and-close instead of misreading the
        // body as a pipelined next request.
        for cl in [
            "18446744073709551616",
            "abc",
            "+2",
            "0\r\nContent-Length: 41",
        ] {
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
        let handle = serve_test(echo_router());
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
        let handle = serve_test(echo_router());
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
        let handle = serve_test(echo_router());
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
        let handle = serve_test(echo_router());
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
        let handle = serve_test(echo_router());
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
        let handle = serve_test(router);
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
        let handle = serve_test(echo_router());
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
        let handle = serve_test(echo_router());
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
        let handle = serve_test(router);
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

    /// The test's side of [`gated_router`].
    struct Gate {
        /// One message each time a `/slow…` request reaches the router.
        entered: mpsc::Receiver<()>,
        /// One message lets one `/slow…` request through.
        open: mpsc::Sender<()>,
    }

    /// Echoes every request, holding each one whose path starts with
    /// `/slow` until the test lets it through.
    fn gated_router() -> (Router, Gate) {
        let (entered_tx, entered) = mpsc::channel();
        let (open, open_rx) = mpsc::channel::<()>();
        let open_rx = Mutex::new(open_rx);
        let echo = echo_router();
        let router: Router = Arc::new(move |req: &Request| {
            if req.path.starts_with("/slow") {
                let _ = entered_tx.send(());
                let _ = open_rx.lock().unwrap().recv();
            }
            echo(req)
        });
        (router, Gate { entered, open })
    }

    fn connect(handle: &ServerHandle) -> (TcpStream, BufReader<TcpStream>) {
        let s = TcpStream::connect(handle.addr()).unwrap();
        let reader = BufReader::new(s.try_clone().unwrap());
        (s, reader)
    }

    const WAIT: Duration = Duration::from_secs(5);

    /// A response bigger than any socket buffer: the dispatch job's write
    /// stops short, the loop writes the tail, and the connection then
    /// serves on; only the small response counts as a direct write.
    #[test]
    fn a_response_larger_than_the_send_buffer_arrives_whole_then_serves_on() {
        let body: String = (0..(8 << 20) + 7)
            .map(|i| char::from(b'a' + (i % 26) as u8))
            .collect();
        let big = body.clone();
        let echo = echo_router();
        let router: Router = Arc::new(move |req: &Request| match req.path.as_str() {
            "/big" => Response::json(200, big.clone()),
            _ => echo(req),
        });
        let handle = serve_test(router);
        let stats = handle.stats();
        let (mut s, mut reader) = connect(&handle);
        s.write_all(b"GET /big HTTP/1.1\r\nHost: x\r\n\r\n")
            .unwrap();
        // Not reading yet keeps the receive window from growing under the
        // job's one write.
        std::thread::sleep(Duration::from_millis(50));
        let (status, got) = read_response(&mut reader);
        assert!(status.starts_with("HTTP/1.1 200"), "{status}");
        assert!(got == body, "the big body arrived changed");
        s.write_all(b"GET /after HTTP/1.1\r\nHost: x\r\n\r\n")
            .unwrap();
        let (status, got) = read_response(&mut reader);
        assert!(status.starts_with("HTTP/1.1 200"), "{status}");
        assert!(got.contains("\"path\":\"/after\""), "{got}");
        assert!(
            wait_until(WAIT, || stats.direct_writes.load(Ordering::Relaxed) == 1),
            "direct writes: {}",
            stats.direct_writes.load(Ordering::Relaxed)
        );
        handle.shutdown();
    }

    /// A keep-alive request's response no longer goes back through the
    /// loop: one wakeup reads the request, and the dispatch job writes the
    /// response. Through the loop it would be two wakeups a request.
    #[test]
    fn sequential_keep_alive_requests_wake_the_loop_once_each() {
        let handle = serve_test(echo_router());
        let stats = handle.stats();
        let (mut s, mut reader) = connect(&handle);
        let mut ask = |i: u64| {
            s.write_all(format!("GET /{i} HTTP/1.1\r\nHost: x\r\n\r\n").as_bytes())
                .unwrap();
            let (status, body) = read_response(&mut reader);
            assert!(status.starts_with("HTTP/1.1 200"), "{status}");
            assert!(body.contains(&format!("\"path\":\"/{i}\"")), "{body}");
        };
        // The accept may take a wakeup of its own.
        ask(0);
        let before = stats.event_loop_wakeups.load(Ordering::Relaxed);
        const N: u64 = 40;
        for i in 1..=N {
            ask(i);
        }
        let woken = stats.event_loop_wakeups.load(Ordering::Relaxed) - before;
        assert!(2 * woken < 3 * N, "{woken} wakeups for {N} requests");
        handle.shutdown();
    }

    /// A request that arrives while the one before it is dispatched
    /// waits in the socket and is answered after it.
    #[test]
    fn a_request_sent_while_the_first_is_dispatched_is_answered_after_it() {
        let (router, gate) = gated_router();
        let handle = serve_test(router);
        let (mut s, mut reader) = connect(&handle);
        s.write_all(b"GET /slow HTTP/1.1\r\nHost: x\r\n\r\n")
            .unwrap();
        gate.entered.recv_timeout(WAIT).unwrap();
        s.write_all(b"GET /second HTTP/1.1\r\nHost: x\r\n\r\n")
            .unwrap();
        gate.open.send(()).unwrap();
        for path in ["/slow", "/second"] {
            let (status, body) = read_response(&mut reader);
            assert!(status.starts_with("HTTP/1.1 200"), "{path}: {status}");
            assert!(body.contains(&format!("\"path\":\"{path}\"")), "{body}");
        }
        handle.shutdown();
    }

    /// A response its dispatch job writes after the loop began draining
    /// wakes the loop: shutdown does not wait out a tick for it.
    #[test]
    fn shutdown_with_a_request_in_flight_returns_within_a_tick() {
        let (router, gate) = gated_router();
        let handle = serve_test(router);
        let addr = handle.addr();
        let (mut s, mut reader) = connect(&handle);
        s.write_all(b"GET /slow HTTP/1.1\r\nHost: x\r\n\r\n")
            .unwrap();
        gate.entered.recv_timeout(WAIT).unwrap();
        let (done_tx, done_rx) = mpsc::channel();
        std::thread::spawn(move || {
            handle.shutdown();
            let _ = done_tx.send(Instant::now());
        });
        // The loop is draining once the listener is gone.
        assert!(wait_until(WAIT, || TcpStream::connect(addr).is_err()));
        let opened = Instant::now();
        gate.open.send(()).unwrap();
        let done = done_rx.recv_timeout(WAIT).expect("shutdown hung");
        // Half a tick: a loop left to notice the completion on its own
        // would take a whole tick half the time.
        assert!(
            done - opened < READ_TICK / 2,
            "shutdown took {:?} after the answer",
            done - opened
        );
        let (status, body) = read_response(&mut reader);
        assert!(status.starts_with("HTTP/1.1 200"), "{status}");
        assert!(body.contains("\"path\":\"/slow\""), "{body}");
        let mut rest = Vec::new();
        let _ = reader.read_to_end(&mut rest);
        assert!(rest.is_empty(), "{rest:?}");
    }

    /// A client that resets its connection while a request is dispatched
    /// frees the slot at once. The next connection takes that slot, and
    /// the abandoned job's completion, which lands while the new
    /// connection's own request is dispatched, never reaches it.
    #[test]
    fn a_reset_mid_dispatch_frees_the_slot_and_its_reuse_gets_no_stale_response() {
        let (router, gate) = gated_router();
        let handle = serve_test(router);
        let stats = handle.stats();
        let (mut a, _) = connect(&handle);
        // `/first`'s response is left unread, so dropping the socket
        // sends a reset rather than a FIN.
        a.write_all(
            b"GET /first HTTP/1.1\r\nHost: x\r\n\r\nGET /slow?a HTTP/1.1\r\nHost: x\r\n\r\n",
        )
        .unwrap();
        gate.entered.recv_timeout(WAIT).unwrap();
        drop(a);
        assert!(
            wait_until(WAIT, || stats.active.load(Ordering::Relaxed) == 0),
            "a reset mid-dispatch must free the slot"
        );

        // The free slot goes to the next connection.
        let (mut b, mut reader) = connect(&handle);
        b.write_all(b"GET /slow?b HTTP/1.1\r\nHost: x\r\n\r\n")
            .unwrap();
        gate.entered.recv_timeout(WAIT).unwrap();
        // `a`'s job answers first (it holds the gate's lock); its write
        // fails and its completion is dropped.
        gate.open.send(()).unwrap();
        std::thread::sleep(Duration::from_millis(50));
        gate.open.send(()).unwrap();
        let (status, body) = read_response(&mut reader);
        assert!(status.starts_with("HTTP/1.1 200"), "{status}");
        assert!(body.contains("\"path\":\"/slow?b\""), "{body}");
        b.write_all(b"GET /last HTTP/1.1\r\nConnection: close\r\n\r\n")
            .unwrap();
        let mut rest = String::new();
        reader.read_to_string(&mut rest).unwrap();
        assert_eq!(rest.matches("HTTP/1.1").count(), 1, "{rest}");
        assert!(rest.contains("\"path\":\"/last\""), "{rest}");
        handle.shutdown();
    }

    #[test]
    fn idle_keepalive_connections_scale_beyond_the_thread_count() {
        let handle = serve_test(echo_router());
        let stats = handle.stats();
        // Far more parked connections than the event (1) + dispatch (2)
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
        let handle = serve_test(echo_router());
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

    /// The one framing against generated and hostile bytes, in both
    /// directions: requests as this server reads them, responses as the
    /// shard-RPC client does.
    mod framing {
        use super::super::*;
        use proptest::collection::vec;
        use proptest::prelude::*;

        type Outcome<S> = Result<Option<Message<S>>, (io::ErrorKind, String)>;

        /// Feeds `bytes` to a fresh parser in pieces of `sizes` (cycled;
        /// `[usize::MAX]` is all at once), then EOF: the first message, a
        /// clean close, or the error.
        fn frame<S: StartLine>(bytes: &[u8], sizes: &[usize]) -> Outcome<S> {
            let mut parse = Parse::<S>::new();
            let mut buf = Vec::new();
            let mut rest = bytes;
            let mut sizes = sizes.iter().cycle();
            let failed = |e: io::Error| (e.kind(), e.to_string());
            while !rest.is_empty() {
                let n = (*sizes.next().expect("sizes")).clamp(1, rest.len());
                buf.extend_from_slice(&rest[..n]);
                rest = &rest[n..];
                if let Some(message) = parse.step(&mut buf).map_err(failed)? {
                    return Ok(Some(message));
                }
            }
            parse.finish_eof(&mut buf).map_err(failed)
        }

        const WHOLE: &[usize] = &[usize::MAX];

        /// Writes a message whose header values are trimmed on parse, with
        /// `lengths` agreeing `Content-Length` headers after `fields`.
        fn assemble<S>(
            first: String,
            (start, http11): (S, bool),
            fields: Vec<(String, String, String)>,
            body: Vec<u8>,
            lengths: usize,
        ) -> (Vec<u8>, Message<S>) {
            let mut wire = format!("{first}\r\n");
            let mut headers = Vec::new();
            for (name, pad, value) in fields {
                wire += &format!("{name}:{pad}{value}{pad}\r\n");
                headers.push((name, value));
            }
            for _ in 0..lengths {
                wire += &format!("Content-Length: {}\r\n", body.len());
                headers.push(("Content-Length".into(), body.len().to_string()));
            }
            wire += "\r\n";
            let mut bytes = wire.into_bytes();
            bytes.extend_from_slice(&body);
            let message = Message {
                start,
                http11,
                headers,
                body,
            };
            (bytes, message)
        }

        /// Header fields no framing rule reads, padded with spaces.
        fn fields() -> impl Strategy<Value = Vec<(String, String, String)>> {
            vec(("x-[A-Za-z0-9-]{0,10}", " {0,2}", "[!-~]{0,16}"), 0..6)
        }

        fn body() -> impl Strategy<Value = Vec<u8>> {
            vec(0u8..=255, 0..48)
        }

        fn version(v11: u8) -> (&'static str, bool) {
            if v11 == 1 {
                ("HTTP/1.1", true)
            } else {
                ("HTTP/1.0", false)
            }
        }

        /// A valid request; an empty body may go without a length.
        fn request() -> impl Strategy<Value = (Vec<u8>, Message<RequestLine>)> {
            let parts = (
                "[A-Z]{1,7}",
                "/[!-~]{0,12}",
                0u8..2,
                fields(),
                body(),
                0usize..3,
            );
            parts.prop_map(|(method, path, v11, fields, body, lengths)| {
                let (version, http11) = version(v11);
                let lengths = if body.is_empty() {
                    lengths
                } else {
                    lengths.max(1)
                };
                let first = format!("{method} {path} {version}");
                let start = RequestLine { method, path };
                assemble(first, (start, http11), fields, body, lengths)
            })
        }

        /// A valid response; its length is always declared.
        fn response() -> impl Strategy<Value = (Vec<u8>, Message<StatusLine>)> {
            let parts = (
                100u16..600,
                "[A-Za-z ]{0,12}",
                0u8..2,
                fields(),
                body(),
                1usize..3,
            );
            parts.prop_map(|(status, reason, v11, fields, body, lengths)| {
                let (version, http11) = version(v11);
                let first = format!("{version} {status} {reason}");
                assemble(first, (StatusLine(status), http11), fields, body, lengths)
            })
        }

        fn sizes() -> impl Strategy<Value = Vec<usize>> {
            vec(1usize..40, 1..6)
        }

        /// Valid messages of either kind with one byte changed, and
        /// arbitrary bytes.
        fn hostile() -> impl Strategy<Value = Vec<u8>> {
            let mutate = |(mut bytes, at, byte): (Vec<u8>, usize, u8)| {
                let at = at % bytes.len();
                bytes[at] = byte;
                bytes
            };
            prop_oneof![
                (request().prop_map(|(b, _)| b), 0usize..10_000, 0u8..=255).prop_map(mutate),
                (response().prop_map(|(b, _)| b), 0usize..10_000, 0u8..=255).prop_map(mutate),
                vec(0u8..=255, 0..96),
            ]
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(1000))]

            #[test]
            fn a_message_frames_the_same_whole_or_in_any_pieces(
                (req, want_req) in request(),
                (resp, want_resp) in response(),
                sizes in sizes(),
            ) {
                for pieces in [WHOLE, &sizes[..]] {
                    prop_assert_eq!(frame(&req, pieces), Ok(Some(want_req.clone())));
                    prop_assert_eq!(frame(&resp, pieces), Ok(Some(want_resp.clone())));
                }
            }

            #[test]
            fn a_request_cut_anywhere_frames_the_same_in_any_pieces(
                (bytes, want) in request(),
                sizes in sizes(),
            ) {
                for cut in 0..=bytes.len() {
                    let outcome = frame::<RequestLine>(&bytes[..cut], WHOLE);
                    prop_assert_eq!(frame(&bytes[..cut], &sizes), outcome.clone());
                    if cut == 0 {
                        prop_assert_eq!(outcome, Ok(None));
                    } else if cut == bytes.len() {
                        prop_assert_eq!(outcome, Ok(Some(want.clone())));
                    }
                }
            }

            #[test]
            fn a_response_cut_anywhere_is_an_eof_error(
                (bytes, _want) in response(),
                sizes in sizes(),
            ) {
                for cut in 0..bytes.len() {
                    for pieces in [WHOLE, &sizes[..]] {
                        let outcome = frame::<StatusLine>(&bytes[..cut], pieces);
                        prop_assert!(
                            matches!(&outcome, Err((io::ErrorKind::UnexpectedEof, _))),
                            "cut at {}: {:?}", cut, outcome
                        );
                    }
                }
            }

            #[test]
            fn hostile_bytes_end_in_a_message_or_an_error_in_any_pieces(
                bytes in hostile(),
                sizes in sizes(),
            ) {
                let request = frame::<RequestLine>(&bytes, WHOLE);
                prop_assert_eq!(frame(&bytes, &sizes), request.clone());
                // A clean close is the empty stream and nothing else.
                prop_assert_eq!(request == Ok(None), bytes.is_empty(), "{:?}", request);
                let response = frame::<StatusLine>(&bytes, WHOLE);
                prop_assert_eq!(frame(&bytes, &sizes), response.clone());
                prop_assert!(!matches!(response, Ok(None)), "{:?}", response);
            }
        }

        /// Frames `{first}\r\n{lines}\r\n{}` whole, as a request and as a
        /// response.
        fn both_ways(lines: &str) -> [Result<(), (io::ErrorKind, String)>; 2] {
            let wire = |first: &str| format!("{first}\r\n{lines}\r\n{{}}").into_bytes();
            let request = frame::<RequestLine>(&wire("POST /x HTTP/1.1"), WHOLE);
            let response = frame::<StatusLine>(&wire("HTTP/1.1 200 OK"), WHOLE);
            [request.map(drop), response.map(drop)]
        }

        #[test]
        fn every_cap_and_the_content_length_rule_hold_in_both_directions() {
            let at_cap = |len: usize| format!("x-l: {}\r\n", "a".repeat(len - 7));
            let refused = [
                (at_cap(MAX_LINE + 1), "line too long"),
                ("x-h: 1\r\n".repeat(MAX_HEADERS + 1), "too many headers"),
                (
                    format!("content-length: {}\r\n", MAX_BODY + 1),
                    "exceeds the 67108864-byte cap",
                ),
                (
                    "content-length: +2\r\n".into(),
                    "invalid content-length `+2`",
                ),
                (
                    "content-length: -2\r\n".into(),
                    "invalid content-length `-2`",
                ),
                (
                    "content-length: 2 2\r\n".into(),
                    "invalid content-length `2 2`",
                ),
                ("content-length:\r\n".into(), "invalid content-length ``"),
                (
                    "content-length: 18446744073709551616\r\n".into(),
                    "invalid content-length",
                ),
                (
                    "content-length: 0\r\ncontent-length: 41\r\n".into(),
                    "conflicting content-length headers `0` and `41`",
                ),
                (
                    "Content-Length: 2\r\ntransfer-encoding: chunked\r\n".into(),
                    "transfer-encoding is not supported",
                ),
                ("content-length 2\r\n".into(), "malformed header line"),
            ];
            for (lines, needle) in &refused {
                for outcome in both_ways(lines) {
                    let (kind, message) = outcome.expect_err(needle);
                    assert_eq!(kind, io::ErrorKind::InvalidData, "{message}");
                    assert!(message.contains(needle), "{needle}: {message}");
                }
            }
            // Just inside every cap, and agreeing repeated lengths, frame.
            let length = "content-length: 2\r\n";
            let allowed = [
                format!("{}{length}", at_cap(MAX_LINE)),
                format!("{}{length}", "x-h: 1\r\n".repeat(MAX_HEADERS - 1)),
                format!("{length}Content-Length: 02\r\n"),
            ];
            for lines in &allowed {
                assert_eq!(both_ways(lines), [Ok(()), Ok(())], "{lines:?}");
            }
            let mut buf = format!("HTTP/1.1 200 OK\r\ncontent-length: {MAX_BODY}\r\n\r\n").into();
            assert!(matches!(
                Parse::<StatusLine>::new().step(&mut buf),
                Ok(None)
            ));
            // Without a length a request has no body; a response cannot
            // be framed.
            let [request, response] = both_ways("");
            assert_eq!(request, Ok(()));
            let (kind, message) = response.unwrap_err();
            assert_eq!(kind, io::ErrorKind::InvalidData);
            assert!(message.contains("without content-length"), "{message}");
        }
    }
}
