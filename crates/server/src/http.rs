//! The server's HTTP/1.1 layer: one framing for both directions of the
//! wire, and serving threads that each serve a request on the thread that
//! reads it.
//!
//! **Framing.** `Parse` reads a message incrementally out of a byte
//! buffer: a request on this server's sockets, a response in
//! [`crate::client`] (shard replies). Both go through the same caps —
//! 64 KiB lines, 100 headers, 64 MiB bodies — the same `Content-Length`
//! rule and the same EOF rule, and differ only in their first line
//! (`StartLine`). Bytes from a peer are hostile until it has framed
//! them.
//!
//! **Serving.** [`HttpConfig::threads`] serving threads wait on one
//! poller (epoll via the `polling` shim) for one ready token at a time.
//! The listener and every connection are armed one-shot, so each event
//! goes to one thread, and that thread owns the connection until it
//! re-arms it: it takes the connection out of its slot, reads and parses
//! the request, runs the router, writes the response, serves any request
//! pipelined behind it, then puts the connection back and re-arms read
//! interest — one `epoll_ctl` a request, and no request crosses threads.
//! A response the socket takes only partly is put back armed for
//! writability, and whichever thread gets that event writes the rest.
//! Each connection is a state machine — read head → read body → route →
//! write response → keep-alive idle — whose state waits in its slot
//! between events; the slab's lock is held to take it and to put it back
//! and re-arm it, never across socket I/O or the router. Idle keep-alive connections cost an
//! epoll registration and a small buffer rather than a thread, so a few
//! threads hold tens of thousands of them, and one slow request holds only
//! its own thread. Each parked connection has one deadline: the idle
//! timeout between requests, the request timeout from a request's first
//! byte, and the request timeout again each time a response waits for the
//! socket to take more of it, so a peer that stops reading is cut too. A
//! peer that resets while its request runs is noticed when the response
//! write fails: a disarmed one-shot fd reports no error or hangup.
//!
//! The layer is application-agnostic: it parses requests, hands them to
//! a router closure, and writes responses (with keep-alive support).

use polling::{Interest, Poller, Waker};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::cache::lock;

/// Bodies larger than this are refused, in either direction (inline
/// dataset uploads are the biggest legitimate payload).
const MAX_BODY: usize = 64 * 1024 * 1024;
const MAX_HEADERS: usize = 100;
/// Start-line / header-line length cap: a peer streaming bytes with no
/// newline must not grow a buffer without bound.
const MAX_LINE: usize = 64 * 1024;
/// Serving tick: the `epoll_wait` timeout, and how often connection
/// deadlines are swept.
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

/// Connection-level counters shared between the serving threads and the
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
    /// Connections closed by a deadline: idle keep-alive expiry, the
    /// slow-loris request cutoff, or a response its peer stopped reading.
    pub timeouts: AtomicU64,
    /// Serving-thread waits that delivered a readiness event (one a
    /// request on a keep-alive connection; an idle server ticks without
    /// counting).
    pub event_loop_wakeups: AtomicU64,
    /// Responses written whole by their first write: the connection never
    /// waited for writability.
    pub direct_writes: AtomicU64,
}

/// The router: maps a request to a response. Panics in a router are
/// caught per-request so one bad request can't take the server down.
pub type Router = Arc<dyn Fn(&Request) -> Response + Send + Sync>;

/// Thread count and counters for [`serve`].
#[derive(Debug, Clone)]
pub struct HttpConfig {
    /// Serving threads: each reads a request, runs the router on it and
    /// writes its response (`0` = auto: available parallelism).
    pub threads: usize,
    /// Shared connection counters (exposed via [`ServerHandle::stats`]).
    pub stats: Arc<ConnStats>,
}

impl Default for HttpConfig {
    fn default() -> Self {
        Self {
            threads: 0,
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
// Connections and the serving threads
// ---------------------------------------------------------------------------

/// A connection's poller token is its slot index in the low half and the
/// registration's generation in the high half: an event left over from a
/// connection that has since closed finds another token in the slot (or
/// none) and is dropped.
const SLOT_BITS: u32 = usize::BITS / 2;

fn slot_of(token: usize) -> usize {
    token & ((1 << SLOT_BITS) - 1)
}

#[derive(Debug)]
struct Conn {
    stream: TcpStream,
    fd: polling::RawFd,
    token: usize,
    /// Bytes read but not yet consumed by the parser.
    buf: Vec<u8>,
    parse: Parse<RequestLine>,
    /// The response being written (empty between responses).
    write_buf: Vec<u8>,
    written: usize,
    close_after_write: bool,
    /// When a sweep closes the connection: the idle timeout after the
    /// last response, the request timeout from a request's first byte
    /// (slow-loris defense) and again each time a response waits for the
    /// socket to take more of it (a peer that stops reading).
    deadline: Instant,
    peer_eof: bool,
    /// Whether this connection is counted in the `idle_keepalive` gauge.
    counted_idle: bool,
    /// Whether this connection is counted in the `active` gauge. Its last
    /// response takes it off before being written: a client that has
    /// read that response and connects again never finds it still open.
    counted_active: bool,
}

impl Conn {
    /// Part of a response is still to be written.
    fn writing(&self) -> bool {
        self.written < self.write_buf.len()
    }
}

struct Slab {
    /// A connection parked in its slot, armed one-shot for its next
    /// event; `None` while a serving thread holds it, or while the slot
    /// is on the free list.
    slots: Vec<Option<Box<Conn>>>,
    free: Vec<usize>,
    generation: usize,
}

/// What the thread holding a connection does with it next.
enum Step {
    /// Run the router on a complete request and write its response.
    Serve(Message<RequestLine>),
    /// Answer a malformed request with a 400, then close.
    Refuse(io::Error),
    /// Put the connection back, armed for the next request's bytes.
    AwaitRead,
    /// Put it back, armed for the socket to take the rest of a response.
    AwaitWrite,
    Close,
}

/// What every serving thread shares.
struct Shared {
    poller: Poller,
    /// Registered level-triggered and never drained: once shutdown wakes
    /// it, every thread's next wait returns it.
    waker: Waker,
    /// Taken (and deregistered) at shutdown.
    listener: Mutex<Option<TcpListener>>,
    /// Locked only to take, put back and re-arm, add or sweep
    /// connections: never across socket I/O or the router.
    slab: Mutex<Slab>,
    stats: Arc<ConnStats>,
    router: Router,
    stop: AtomicBool,
    /// When the deadlines are next due a sweep, in nanoseconds after
    /// `epoch`.
    next_sweep: AtomicU64,
    epoch: Instant,
}

impl Shared {
    /// One serving thread: one event per wait, served to the end on this
    /// thread, until shutdown.
    fn run(&self) {
        let mut scratch = vec![0u8; 16 * 1024];
        while !self.stopping() {
            if let Ok(Some(token)) = self.poller.wait(Some(READ_TICK)) {
                self.stats
                    .event_loop_wakeups
                    .fetch_add(1, Ordering::Relaxed);
                match token {
                    TOKEN_WAKER => {}
                    TOKEN_LISTENER => self.accept_ready(),
                    token => self.serve(token, &mut scratch),
                }
            }
            self.sweep_if_due();
        }
    }

    fn stopping(&self) -> bool {
        self.stop.load(Ordering::Acquire)
    }

    /// Accepts until the backlog is empty, then re-arms the listener.
    fn accept_ready(&self) {
        let listener = lock(&self.listener);
        let Some(listener) = listener.as_ref() else {
            return;
        };
        loop {
            match listener.accept() {
                Ok((stream, _)) => {
                    self.stats.accepted_total.fetch_add(1, Ordering::Relaxed);
                    self.stats.active.fetch_add(1, Ordering::Relaxed);
                    self.register(stream);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => {
                    // Transient accept failure (e.g. fd exhaustion): back
                    // off before re-arming instead of busy-spinning.
                    std::thread::sleep(READ_TICK / 4);
                    break;
                }
            }
        }
        let _ = self
            .poller
            .modify(raw_fd(listener), TOKEN_LISTENER, Interest::READ.oneshot());
    }

    fn register(&self, stream: TcpStream) {
        if stream.set_nonblocking(true).is_err() {
            self.stats.active.fetch_sub(1, Ordering::Relaxed);
            return;
        }
        let _ = stream.set_nodelay(true);
        let fd = raw_fd(&stream);
        self.stats.idle_keepalive.fetch_add(1, Ordering::Relaxed);
        let token = {
            let mut slab = lock(&self.slab);
            let slot = slab.free.pop().unwrap_or_else(|| {
                slab.slots.push(None);
                slab.slots.len() - 1
            });
            slab.generation = slab.generation.wrapping_add(1);
            let token = slab.generation << SLOT_BITS | slot;
            slab.slots[slot] = Some(Box::new(Conn {
                stream,
                fd,
                token,
                buf: Vec::new(),
                parse: Parse::new(),
                write_buf: Vec::new(),
                written: 0,
                close_after_write: false,
                deadline: Instant::now() + IDLE_TIMEOUT,
                peer_eof: false,
                counted_idle: true,
                counted_active: true,
            }));
            token
        };
        if self
            .poller
            .add(fd, token, Interest::READ.oneshot())
            .is_err()
        {
            if let Some(conn) = self.take(token) {
                self.close(conn);
            }
        }
    }

    /// Takes the connection an event is for out of its slot; `None` for
    /// an event left over from a connection since closed.
    fn take(&self, token: usize) -> Option<Box<Conn>> {
        lock(&self.slab)
            .slots
            .get_mut(slot_of(token))?
            .take_if(|conn| conn.token == token)
    }

    /// Arms the connection one-shot and puts it back, both under the
    /// slab's lock: its next event, whichever thread receives it, finds it
    /// in its slot, and a sweep cannot close its fd (which a new
    /// connection may then reuse) between the put-back and the arm.
    fn park(&self, conn: Box<Conn>, interest: Interest) {
        let mut slab = lock(&self.slab);
        let slot = slot_of(conn.token);
        if self
            .poller
            .modify(conn.fd, conn.token, interest.oneshot())
            .is_ok()
        {
            slab.slots[slot] = Some(conn);
            return;
        }
        slab.free.push(slot);
        drop(slab);
        self.forget(conn);
    }

    /// Closes a connection this thread holds and frees its slot.
    fn close(&self, conn: Box<Conn>) {
        lock(&self.slab).free.push(slot_of(conn.token));
        self.forget(conn);
    }

    /// Deregisters and closes a connection already out of the slab.
    fn forget(&self, conn: Box<Conn>) {
        let _ = self.poller.delete(conn.fd);
        if conn.counted_active {
            self.stats.active.fetch_sub(1, Ordering::Relaxed);
        }
        if conn.counted_idle {
            self.stats.idle_keepalive.fetch_sub(1, Ordering::Relaxed);
        }
    }

    /// Serves the connection an event is for until it has to wait again:
    /// the request and every request pipelined behind it, or the rest of
    /// a response.
    fn serve(&self, token: usize, scratch: &mut [u8]) {
        let Some(mut conn) = self.take(token) else {
            return;
        };
        let mut step = if conn.writing() {
            self.flush(&mut conn)
        } else {
            self.read(&mut conn, scratch)
        };
        loop {
            step = match step {
                Step::Serve(message) => self.respond(&mut conn, message),
                Step::Refuse(e) => self.refuse(&mut conn, &e),
                Step::AwaitRead => return self.park(conn, Interest::READ),
                Step::AwaitWrite => return self.park(conn, Interest::WRITE),
                Step::Close => return self.close(conn),
            };
        }
    }

    /// Reads until a request is complete or the socket is drained.
    fn read(&self, conn: &mut Conn, scratch: &mut [u8]) -> Step {
        loop {
            match (&conn.stream).read(scratch) {
                Ok(0) => {
                    conn.peer_eof = true;
                    return at_eof(conn);
                }
                Ok(n) => {
                    conn.buf.extend_from_slice(&scratch[..n]);
                    if conn.counted_idle {
                        conn.counted_idle = false;
                        conn.deadline = Instant::now() + REQUEST_TIMEOUT;
                        self.stats.idle_keepalive.fetch_sub(1, Ordering::Relaxed);
                    }
                    match conn.parse.step(&mut conn.buf) {
                        Ok(Some(message)) => return Step::Serve(message),
                        Ok(None) => {}
                        Err(e) => return Step::Refuse(e),
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Step::AwaitRead,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return Step::Close,
            }
        }
    }

    /// Runs the router on a request (a panic is a 500) and writes the
    /// response.
    fn respond(&self, conn: &mut Conn, message: Message<RequestLine>) -> Step {
        let keep_alive = message.keep_alive();
        let request = Request {
            method: message.start.method,
            path: message.start.path,
            headers: message.headers,
            body: message.body,
        };
        let routed =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| (self.router)(&request)));
        let response =
            routed.unwrap_or_else(|_| Response::json(500, "{\"error\":\"internal panic\"}".into()));
        self.write(conn, serialize_response(&response, keep_alive), keep_alive)
    }

    /// Malformed request: best-effort 400 carrying the parse detail (our
    /// own error strings — "transfer-encoding is not supported", "line
    /// too long" — are the client's only diagnostic), then close.
    fn refuse(&self, conn: &mut Conn, e: &io::Error) -> Step {
        let body = crate::json::obj([(
            "error",
            crate::json::Json::Str(format!("malformed request: {e}")),
        )]);
        let response = Response::json(400, body.to_text());
        self.write(conn, serialize_response(&response, false), false)
    }

    fn write(&self, conn: &mut Conn, wire: Vec<u8>, keep_alive: bool) -> Step {
        conn.write_buf = wire;
        conn.written = 0;
        conn.close_after_write = !keep_alive;
        if !keep_alive && conn.counted_active {
            conn.counted_active = false;
            self.stats.active.fetch_sub(1, Ordering::Relaxed);
        }
        self.flush(conn)
    }

    /// Writes the response as far as the socket takes it now; once it is
    /// all out, goes on to the next request.
    fn flush(&self, conn: &mut Conn) -> Step {
        while conn.writing() {
            match (&conn.stream).write(&conn.write_buf[conn.written..]) {
                Ok(0) => return Step::Close,
                Ok(n) => {
                    if conn.written == 0 && n == conn.write_buf.len() {
                        self.stats.direct_writes.fetch_add(1, Ordering::Relaxed);
                    }
                    conn.written += n;
                }
                // Shutdown abandons a peer that is not reading.
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    if self.stopping() {
                        return Step::Close;
                    }
                    conn.deadline = Instant::now() + REQUEST_TIMEOUT;
                    return Step::AwaitWrite;
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return Step::Close,
            }
        }
        self.next_request(conn)
    }

    /// After a response: the request pipelined behind it, if its bytes
    /// are here, or a wait for the next one.
    fn next_request(&self, conn: &mut Conn) -> Step {
        if conn.close_after_write || self.stopping() {
            return Step::Close;
        }
        conn.write_buf = Vec::new();
        conn.written = 0;
        if !conn.buf.is_empty() {
            conn.deadline = Instant::now() + REQUEST_TIMEOUT;
            return match conn.parse.step(&mut conn.buf) {
                Ok(Some(message)) => Step::Serve(message),
                Ok(None) if conn.peer_eof => at_eof(conn),
                Ok(None) => Step::AwaitRead,
                Err(e) => Step::Refuse(e),
            };
        }
        if conn.peer_eof {
            return Step::Close;
        }
        conn.counted_idle = true;
        conn.deadline = Instant::now() + IDLE_TIMEOUT;
        self.stats.idle_keepalive.fetch_add(1, Ordering::Relaxed);
        Step::AwaitRead
    }

    /// Closes the parked connections whose deadline has passed. The sweep
    /// is due a tick after the last one, and whichever thread first finds
    /// it due runs it: a thread whose wait timed out, or one serving, so a
    /// busy server sweeps too. Connections other threads hold are not in
    /// their slots, so it skips them.
    fn sweep_if_due(&self) {
        let now = Instant::now();
        let at = now.duration_since(self.epoch).as_nanos() as u64;
        let due = self.next_sweep.load(Ordering::Relaxed);
        let next = at + READ_TICK.as_nanos() as u64;
        if at < due
            || self
                .next_sweep
                .compare_exchange(due, next, Ordering::Relaxed, Ordering::Relaxed)
                .is_err()
        {
            return;
        }
        let expired_at = |conn: &mut Box<Conn>| now >= conn.deadline;
        let mut expired = Vec::new();
        {
            let mut slab = lock(&self.slab);
            let Slab { slots, free, .. } = &mut *slab;
            for (index, slot) in slots.iter_mut().enumerate() {
                if let Some(conn) = slot.take_if(expired_at) {
                    expired.push(conn);
                    free.push(index);
                }
            }
        }
        for conn in expired {
            self.stats.timeouts.fetch_add(1, Ordering::Relaxed);
            self.forget(conn);
        }
    }

    /// Once every serving thread has stopped: one last try at each
    /// response still being written, then every connection closes.
    fn close_all(&self) {
        let parked: Vec<Box<Conn>> = lock(&self.slab)
            .slots
            .iter_mut()
            .filter_map(Option::take)
            .collect();
        for mut conn in parked {
            if conn.writing() {
                let _ = self.flush(&mut conn);
            }
            self.forget(conn);
        }
    }
}

/// Peer EOF: a clean close between requests, a request completed by the
/// EOF, or a malformed one cut short.
fn at_eof(conn: &mut Conn) -> Step {
    match conn.parse.finish_eof(&mut conn.buf) {
        Ok(None) => Step::Close,
        Ok(Some(message)) => Step::Serve(message),
        Err(e) => Step::Refuse(e),
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

// ---------------------------------------------------------------------------
// Server handle + entry point
// ---------------------------------------------------------------------------

/// A running server: its serving threads.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    threads: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared connection counters.
    pub fn stats(&self) -> Arc<ConnStats> {
        Arc::clone(&self.shared.stats)
    }

    /// Stops accepting, lets in-flight requests finish and write, and
    /// joins every serving thread. Parked connections (idle keep-alive
    /// ones included) are closed then, so this returns promptly even
    /// while clients hold sockets open.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        if self.shared.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        if let Some(listener) = lock(&self.shared.listener).take() {
            let _ = self.shared.poller.delete(raw_fd(&listener));
        }
        let _ = self.shared.waker.wake();
        for thread in self.threads.drain(..) {
            let _ = thread.join();
        }
        self.shared.close_all();
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Binds `addr` (e.g. `127.0.0.1:0`) and serves `router` on
/// [`HttpConfig::threads`] serving threads, until
/// [`ServerHandle::shutdown`].
///
/// # Errors
/// Propagates bind and poller-setup failures.
pub fn serve(addr: &str, config: HttpConfig, router: Router) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    let local = listener.local_addr()?;
    listener.set_nonblocking(true)?;
    let threads = match config.threads {
        0 => std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4),
        n => n,
    };

    let poller = Poller::new()?;
    let waker = Waker::new()?;
    poller.add(waker.fd(), TOKEN_WAKER, Interest::READ)?;
    poller.add(raw_fd(&listener), TOKEN_LISTENER, Interest::READ.oneshot())?;
    let shared = Arc::new(Shared {
        poller,
        waker,
        listener: Mutex::new(Some(listener)),
        slab: Mutex::new(Slab {
            slots: Vec::new(),
            free: Vec::new(),
            generation: 0,
        }),
        stats: config.stats,
        router,
        stop: AtomicBool::new(false),
        next_sweep: AtomicU64::new(0),
        epoch: Instant::now(),
    });
    let threads = (0..threads)
        .map(|_| {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || shared.run())
        })
        .collect();
    Ok(ServerHandle {
        addr: local,
        shared,
        threads,
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
                threads: 2,
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
        // open: the connection parks idle in its slot.
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
        let stats = handle.stats();
        let reply = raw_roundtrip(handle.addr(), "GET /old HTTP/1.0\r\n\r\n");
        // The server says it closes, and the close that ended the read is
        // that one: no idle deadline reaped the connection.
        assert!(reply.contains("connection: close"), "{reply}");
        assert_eq!(stats.timeouts.load(Ordering::Relaxed), 0);
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
        // the connection must be cut at the request deadline instead of
        // holding its slot forever.
        let mut s = TcpStream::connect(handle.addr()).unwrap();
        s.write_all(b"GET /stuck HTTP/1.1\r\nx-slow: 1\r\n")
            .unwrap();
        let mut reply = String::new();
        // A guard against a hang, not the assertion: the server's cut
        // comes at REQUEST_TIMEOUT, well before this.
        s.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
        let _ = s.read_to_string(&mut reply); // blocks until server closes
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

    /// Whether a connection is parked with part of a response unwritten.
    fn parked_writing(handle: &ServerHandle) -> bool {
        lock(&handle.shared.slab)
            .slots
            .iter()
            .flatten()
            .any(|conn| conn.writing())
    }

    /// A response bigger than any socket buffer: its first write stops
    /// short, the connection waits for writability, a writable event
    /// writes the tail, and the connection then serves on; only the small
    /// response counts as a direct write.
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
        // Not reading until the first write has stopped short keeps the
        // receive window from growing under it.
        assert!(
            wait_until(WAIT, || parked_writing(&handle)),
            "the big response never waited for writability"
        );
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

    /// A peer that sends a keep-alive request and never reads the big
    /// response is cut once that response has waited the request timeout
    /// for the socket to take more of it: the cut counts as a timeout and
    /// frees the slot, and the server serves on.
    #[test]
    fn a_peer_that_stops_reading_is_cut_and_its_slot_freed() {
        let echo = echo_router();
        let router: Router = Arc::new(move |req: &Request| match req.path.as_str() {
            "/big" => Response::json(200, "x".repeat((8 << 20) + 7)),
            _ => echo(req),
        });
        let handle = serve_test(router);
        let stats = handle.stats();
        let (mut s, _unread) = connect(&handle);
        s.write_all(b"GET /big HTTP/1.1\r\nHost: x\r\n\r\n")
            .unwrap();
        assert!(
            wait_until(WAIT, || {
                stats.timeouts.load(Ordering::Relaxed) == 1
                    && stats.active.load(Ordering::Relaxed) == 0
            }),
            "timeouts={}, active={}",
            stats.timeouts.load(Ordering::Relaxed),
            stats.active.load(Ordering::Relaxed),
        );
        let reply = raw_roundtrip(
            handle.addr(),
            "GET /after HTTP/1.1\r\nConnection: close\r\n\r\n",
        );
        assert!(reply.contains("\"path\":\"/after\""), "{reply}");
        handle.shutdown();
    }

    /// A keep-alive request costs one wakeup: the thread it wakes reads
    /// the request, writes the response and re-arms the connection.
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

    /// A request that arrives while the one before it is in the router
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

    /// Shutdown lets a request in the router finish: it has not returned
    /// while the request is held, and returns once the response is
    /// written, which is then the connection's last.
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
            let _ = done_tx.send(());
        });
        // Shutdown has begun once the listener is gone.
        assert!(wait_until(WAIT, || TcpStream::connect(addr).is_err()));
        assert_eq!(
            done_rx.try_recv(),
            Err(mpsc::TryRecvError::Empty),
            "shutdown returned while a request was in the router"
        );
        gate.open.send(()).unwrap();
        done_rx.recv_timeout(WAIT).expect("shutdown hung");
        let (status, body) = read_response(&mut reader);
        assert!(status.starts_with("HTTP/1.1 200"), "{status}");
        assert!(body.contains("\"path\":\"/slow\""), "{body}");
        let mut rest = Vec::new();
        let _ = reader.read_to_end(&mut rest);
        assert!(rest.is_empty(), "{rest:?}");
    }

    /// A client that resets its connection while a request is in the
    /// router is noticed when that request's response write fails, which
    /// frees the slot. The next connection takes that slot and gets its
    /// own responses only.
    #[test]
    fn a_reset_mid_dispatch_frees_the_slot_and_its_reuse_gets_no_stale_response() {
        let (router, gate) = gated_router();
        let handle = serve_test(router);
        let stats = handle.stats();
        let (mut a, _) = connect(&handle);
        let a_slot = wait_for_one_slot(&handle);
        // `/first`'s response is left unread, so dropping the socket
        // sends a reset rather than a FIN.
        a.write_all(
            b"GET /first HTTP/1.1\r\nHost: x\r\n\r\nGET /slow?a HTTP/1.1\r\nHost: x\r\n\r\n",
        )
        .unwrap();
        gate.entered.recv_timeout(WAIT).unwrap();
        drop(a);
        gate.open.send(()).unwrap();
        assert!(
            wait_until(WAIT, || stats.active.load(Ordering::Relaxed) == 0),
            "a reset mid-dispatch must free the slot"
        );

        // The free slot goes to the next connection.
        let (mut b, mut reader) = connect(&handle);
        assert_eq!(wait_for_one_slot(&handle), a_slot);
        b.write_all(b"GET /slow?b HTTP/1.1\r\nHost: x\r\n\r\n")
            .unwrap();
        gate.entered.recv_timeout(WAIT).unwrap();
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

    /// The slot of the one open connection, once it is registered.
    fn wait_for_one_slot(handle: &ServerHandle) -> usize {
        let open = || -> Vec<usize> {
            let slab = lock(&handle.shared.slab);
            let slots = 0..slab.slots.len();
            slots.filter(|slot| !slab.free.contains(slot)).collect()
        };
        assert!(wait_until(WAIT, || open().len() == 1), "{:?}", open());
        open()[0]
    }

    /// One slow request holds its own thread only: another connection is
    /// answered meanwhile by the other serving thread.
    #[test]
    fn a_slow_request_does_not_hold_up_another_connection() {
        let (router, gate) = gated_router();
        let handle = serve_test(router);
        // Bound after the server, so a failed assertion drops it first:
        // that releases the held request, and the server's drop can join.
        let gate = gate;
        let (mut a, mut a_reader) = connect(&handle);
        a.write_all(b"GET /slow HTTP/1.1\r\nHost: x\r\n\r\n")
            .unwrap();
        gate.entered.recv_timeout(WAIT).unwrap();
        let (mut b, mut b_reader) = connect(&handle);
        b.set_read_timeout(Some(WAIT)).unwrap(); // a hang guard
        b.write_all(b"GET /fast HTTP/1.1\r\nHost: x\r\n\r\n")
            .unwrap();
        let (status, body) = read_response(&mut b_reader);
        assert!(status.starts_with("HTTP/1.1 200"), "{status}");
        assert!(body.contains("\"path\":\"/fast\""), "{body}");
        gate.open.send(()).unwrap();
        let (status, body) = read_response(&mut a_reader);
        assert!(status.starts_with("HTTP/1.1 200"), "{status}");
        assert!(body.contains("\"path\":\"/slow\""), "{body}");
        handle.shutdown();
    }

    /// Eight connections pipelining 50 keep-alive requests each at once,
    /// on two serving threads: every reply comes back in order on its own
    /// connection, and once the clients close, the gauges settle at 0.
    #[test]
    fn concurrent_pipelining_clients_get_every_reply_in_order_and_the_gauges_settle() {
        let handle = serve_test(echo_router());
        let stats = handle.stats();
        let addr = handle.addr();
        std::thread::scope(|scope| {
            for client in 0..8 {
                scope.spawn(move || {
                    let mut s = TcpStream::connect(addr).unwrap();
                    s.set_read_timeout(Some(WAIT)).unwrap(); // a hang guard
                    let wire: String = (0..50)
                        .map(|i| format!("GET /{client}/{i} HTTP/1.1\r\nHost: x\r\n\r\n"))
                        .collect();
                    s.write_all(wire.as_bytes()).unwrap();
                    let mut reader = BufReader::new(s.try_clone().unwrap());
                    for i in 0..50 {
                        let (status, body) = read_response(&mut reader);
                        assert!(status.starts_with("HTTP/1.1 200"), "{status}");
                        let path = format!("\"path\":\"/{client}/{i}\"");
                        assert!(body.contains(&path), "{path}: {body}");
                    }
                });
            }
        });
        assert!(
            wait_until(WAIT, || {
                stats.active.load(Ordering::Relaxed) == 0
                    && stats.idle_keepalive.load(Ordering::Relaxed) == 0
            }),
            "active={}, idle={}",
            stats.active.load(Ordering::Relaxed),
            stats.idle_keepalive.load(Ordering::Relaxed),
        );
        handle.shutdown();
    }

    #[test]
    fn idle_keepalive_connections_scale_beyond_the_thread_count() {
        let handle = serve_test(echo_router());
        let stats = handle.stats();
        // Far more parked connections than the 2 serving threads; under
        // the old thread-per-connection model these would starve the
        // pool.
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
        s.set_read_timeout(Some(Duration::from_secs(30))).unwrap(); // a hang guard
        s.read_to_string(&mut out).unwrap(); // EOF when the server closes
        assert_eq!(out, "", "an idle connection is closed without a reply");
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
