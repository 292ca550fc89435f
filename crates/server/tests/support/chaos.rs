//! A fault-injecting TCP proxy for exercising the distributed tier's
//! failure paths, std-only like everything else in this crate.
//!
//! [`ChaosProxy`] listens on an ephemeral local port and forwards each
//! accepted connection to a fixed upstream endpoint, subject to the
//! proxy's current [`ChaosMode`]:
//!
//! * [`Pass`](ChaosMode::Pass) — a faithful byte pump in both
//!   directions (the control case: a healthy replica behind one more
//!   hop).
//! * [`BlackHole`](ChaosMode::BlackHole) — accepts the connection,
//!   reads and discards the request, and never answers. The client sees
//!   a hang that only its own I/O timeout can end — the shape of a
//!   partitioned or wedged replica.
//! * [`Reset`](ChaosMode::Reset) — accepts, then drops the socket with
//!   the request bytes still unread, which makes the kernel send `RST`
//!   rather than a clean `FIN`: the client's write or read fails with a
//!   connection reset — the shape of a crashed replica.
//! * [`Delay`](ChaosMode::Delay) — a faithful pump that sits on the
//!   upstream's response for the configured duration before relaying
//!   it — the shape of a struggling replica that still answers
//!   correctly. Results must stay byte-identical; only latency moves.
//! * [`Truncate`](ChaosMode::Truncate) — relays only the first `n`
//!   bytes of the upstream's response and then closes, leaving the
//!   client with a syntactically broken reply — the shape of a replica
//!   dying mid-send. The client must treat the endpoint as failed, not
//!   try to parse the fragment into an answer.
//!
//! The mode is consulted **per accepted connection** and can be changed
//! at any time with [`ChaosProxy::set_mode`], so one proxy can play a
//! healthy replica in one phase of a test and a dead one in the next
//! without anything re-registering endpoints. A mode switch also
//! **severs** every connection the proxy has accepted so far: a pooled
//! keep-alive tunnel opened while the proxy was healthy would otherwise
//! keep relaying faithfully after the switch, and the failure phase of
//! a test would silently exercise nothing. Every failure mode here is
//! survivable by construction for the failover client: `/shard/query`
//! is a pure idempotent read, so a request lost to any of these can be
//! retried verbatim on the next replica.

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::Duration;

/// What the proxy does to the next accepted connection. See the module
/// docs for the failure each mode models.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosMode {
    /// Forward faithfully in both directions.
    Pass,
    /// Accept, discard the request, never answer.
    BlackHole,
    /// Accept, then drop the socket with unread data so the kernel
    /// sends `RST`.
    Reset,
    /// Forward faithfully, but hold the response back this long first.
    Delay(Duration),
    /// Forward only the first `n` response bytes, then close.
    Truncate(usize),
}

/// A fault-injecting TCP proxy in front of one upstream endpoint.
///
/// Dropping the proxy shuts it down; [`shutdown`](Self::shutdown) does
/// the same explicitly (idempotently). In-flight connection threads are
/// detached — they hold no lock and die with their sockets.
pub struct ChaosProxy {
    addr: SocketAddr,
    mode: Arc<Mutex<ChaosMode>>,
    connections: Arc<AtomicUsize>,
    live: Arc<Mutex<Vec<TcpStream>>>,
    stop: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
}

impl ChaosProxy {
    /// Starts a proxy on an ephemeral `127.0.0.1` port forwarding to
    /// `upstream`, initially in [`ChaosMode::Pass`].
    pub fn start(upstream: &str) -> std::io::Result<Self> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let mode = Arc::new(Mutex::new(ChaosMode::Pass));
        let connections = Arc::new(AtomicUsize::new(0));
        let live = Arc::new(Mutex::new(Vec::new()));
        let stop = Arc::new(AtomicBool::new(false));

        let accept_thread = {
            let upstream = upstream.to_owned();
            let mode = Arc::clone(&mode);
            let connections = Arc::clone(&connections);
            let live = Arc::clone(&live);
            let stop = Arc::clone(&stop);
            thread::spawn(move || {
                for client in listener.incoming() {
                    if stop.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(client) = client else { continue };
                    connections.fetch_add(1, Ordering::SeqCst);
                    let mode = *mode.lock().expect("chaos mode lock");
                    // Reset-mode connections must NOT be retained for
                    // severing: a retained clone is a second handle on
                    // the socket, and the mode's deliberate drop of the
                    // *sole* handle — what makes the kernel send `RST`
                    // for the unread request bytes — would close
                    // nothing.
                    if mode != ChaosMode::Reset {
                        if let Ok(clone) = client.try_clone() {
                            live.lock().expect("chaos live lock").push(clone);
                        }
                    }
                    let upstream = upstream.clone();
                    thread::spawn(move || serve_connection(client, &upstream, mode));
                }
            })
        };

        Ok(Self {
            addr,
            mode,
            connections,
            live,
            stop,
            accept_thread: Some(accept_thread),
        })
    }

    /// The proxy's own listen address — what a router should be pointed
    /// at in place of the real replica.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// [`addr`](Self::addr) as the `host:port` string the wire protocol
    /// uses for endpoints.
    pub fn endpoint(&self) -> String {
        self.addr.to_string()
    }

    /// Switches the failure mode for subsequently accepted connections,
    /// and severs every connection accepted so far: a keep-alive tunnel
    /// pooled while the proxy was passing traffic must not keep serving
    /// the old mode after the switch.
    pub fn set_mode(&self, mode: ChaosMode) {
        *self.mode.lock().expect("chaos mode lock") = mode;
        self.sever();
    }

    /// Shuts down every connection accepted so far; their relay threads
    /// notice on the next read or write and exit.
    fn sever(&self) {
        for stream in self.live.lock().expect("chaos live lock").drain(..) {
            let _ = stream.shutdown(Shutdown::Both);
        }
    }

    /// Total connections accepted so far — lets a test assert the
    /// traffic actually flowed through the proxy.
    pub fn connections(&self) -> usize {
        self.connections.load(Ordering::SeqCst)
    }

    /// Stops accepting. Idempotent; also run by `Drop`.
    pub fn shutdown(&mut self) {
        if self.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        self.sever();
        // Unblock the accept loop with one throwaway connection; it
        // checks `stop` before serving anything.
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_secs(1));
        if let Some(thread) = self.accept_thread.take() {
            let _ = thread.join();
        }
    }
}

impl Drop for ChaosProxy {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Serves one accepted connection under the mode it was accepted with.
fn serve_connection(mut client: TcpStream, upstream: &str, mode: ChaosMode) {
    // Nothing here should be able to wedge a test forever, whatever the
    // peers do.
    let cap = Some(Duration::from_secs(30));
    let _ = client.set_read_timeout(cap);
    let _ = client.set_write_timeout(cap);
    match mode {
        ChaosMode::Reset => {
            // Let the client finish (or at least start) its send so
            // there are unread bytes in our receive buffer, then drop
            // without reading them — closing with pending unread data
            // makes the kernel send `RST` instead of an orderly `FIN`.
            thread::sleep(Duration::from_millis(50));
            drop(client);
        }
        ChaosMode::BlackHole => {
            // Swallow the request, then go silent with the socket held
            // open — no FIN, no bytes: the client's own I/O timeout is
            // the only way out. The hold is capped so the thread cannot
            // outlive a test run by more than the cap.
            let mut sink = [0u8; 4096];
            while let Ok(n) = client.read(&mut sink) {
                if n == 0 {
                    break;
                }
            }
            thread::sleep(Duration::from_secs(30));
        }
        ChaosMode::Pass => pump(client, upstream, None, usize::MAX),
        ChaosMode::Delay(wait) => pump(client, upstream, Some(wait), usize::MAX),
        ChaosMode::Truncate(bytes) => pump(client, upstream, None, bytes),
    }
}

/// The request/response pump shared by the forwarding modes: relays the
/// client's bytes upstream and the upstream's bytes back, optionally
/// sleeping before the first response byte and capping the total
/// response bytes relayed.
///
/// The request side is drained on its own thread (requests and
/// responses can interleave on a keep-alive connection); the response
/// side runs here so `delay`/`cap` apply to it precisely.
fn pump(client: TcpStream, upstream: &str, delay: Option<Duration>, cap: usize) {
    let Ok(server) = TcpStream::connect(upstream) else {
        // Upstream genuinely down: drop the client, which sees a closed
        // connection — exactly what talking to the dead endpoint
        // directly would have produced.
        return;
    };
    let cap_timeout = Some(Duration::from_secs(30));
    let _ = server.set_read_timeout(cap_timeout);
    let _ = server.set_write_timeout(cap_timeout);

    let up = {
        let (mut client, mut server) = match (client.try_clone(), server.try_clone()) {
            (Ok(c), Ok(s)) => (c, s),
            _ => return,
        };
        thread::spawn(move || {
            let mut buf = [0u8; 4096];
            while let Ok(n) = client.read(&mut buf) {
                if n == 0 || server.write_all(&buf[..n]).is_err() {
                    break;
                }
            }
            let _ = server.shutdown(Shutdown::Write);
        })
    };

    let mut relayed = 0usize;
    let mut first = true;
    let mut buf = [0u8; 4096];
    let mut server = server;
    let mut client = client;
    while relayed < cap {
        let n = match server.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(n) => n,
        };
        if first {
            if let Some(wait) = delay {
                thread::sleep(wait);
            }
            first = false;
        }
        let n = n.min(cap - relayed);
        if client.write_all(&buf[..n]).is_err() {
            break;
        }
        relayed += n;
    }
    // Truncation closes abruptly; for clean pumps this is the normal
    // end-of-response FIN.
    let _ = client.shutdown(Shutdown::Both);
    let _ = server.shutdown(Shutdown::Both);
    let _ = up.join();
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader};

    /// A tiny upstream that answers every HTTP-ish request on one
    /// connection with a fixed body, newline-framed for simplicity.
    fn echo_upstream(body: &'static str) -> SocketAddr {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        thread::spawn(move || {
            for stream in listener.incoming() {
                let Ok(stream) = stream else { break };
                thread::spawn(move || {
                    let mut reader = BufReader::new(stream.try_clone().unwrap());
                    let mut line = String::new();
                    while reader.read_line(&mut line).is_ok() && !line.is_empty() {
                        let mut stream = stream.try_clone().unwrap();
                        if stream.write_all(body.as_bytes()).is_err() {
                            break;
                        }
                        line.clear();
                    }
                });
            }
        });
        addr
    }

    fn ask(addr: SocketAddr) -> std::io::Result<String> {
        let mut stream = TcpStream::connect_timeout(&addr, Duration::from_secs(2))?;
        stream.set_read_timeout(Some(Duration::from_millis(500)))?;
        stream.write_all(b"ping\n")?;
        stream.shutdown(Shutdown::Write)?;
        let mut reply = String::new();
        stream.read_to_string(&mut reply)?;
        Ok(reply)
    }

    #[test]
    fn pass_mode_is_transparent_and_counts_connections() {
        let upstream = echo_upstream("pong\n");
        let mut proxy = ChaosProxy::start(&upstream.to_string()).unwrap();
        assert_eq!(ask(proxy.addr()).unwrap(), "pong\n");
        assert_eq!(proxy.connections(), 1);
        proxy.shutdown();
    }

    #[test]
    fn switching_modes_severs_established_tunnels() {
        let upstream = echo_upstream("pong\n");
        let mut proxy = ChaosProxy::start(&upstream.to_string()).unwrap();
        let stream = TcpStream::connect_timeout(&proxy.addr(), Duration::from_secs(2)).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_millis(500)))
            .unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);
        writer.write_all(b"ping\n").unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert_eq!(line, "pong\n");

        // The tunnel is healthy and could be pooled by a keep-alive
        // client. Switching modes must kill it, not just future ones.
        proxy.set_mode(ChaosMode::Reset);
        line.clear();
        let after = reader.read_line(&mut line);
        assert!(
            after.is_err() || line.is_empty(),
            "severed tunnel must not keep serving: {line:?}"
        );
        proxy.shutdown();
    }

    #[test]
    fn failure_modes_starve_reset_or_truncate_the_client() {
        let upstream = echo_upstream("a longer reply than the cap\n");
        let mut proxy = ChaosProxy::start(&upstream.to_string()).unwrap();

        proxy.set_mode(ChaosMode::BlackHole);
        // No bytes ever come back; the client's read times out.
        let starved = ask(proxy.addr());
        assert!(starved.is_err(), "black hole must starve: {starved:?}");

        proxy.set_mode(ChaosMode::Reset);
        // The write or read fails with reset/abort — never a clean
        // empty success carrying a well-formed reply.
        match ask(proxy.addr()) {
            Err(_) => {}
            Ok(reply) => assert_eq!(reply, "", "reset must not produce a reply"),
        }

        proxy.set_mode(ChaosMode::Truncate(8));
        let cut = ask(proxy.addr()).unwrap_or_default();
        assert!(
            cut.len() <= 8 && "a longer reply than the cap\n".starts_with(&cut),
            "truncation must cut mid-body: {cut:?}"
        );

        proxy.set_mode(ChaosMode::Delay(Duration::from_millis(50)));
        let started = std::time::Instant::now();
        assert_eq!(ask(proxy.addr()).unwrap(), "a longer reply than the cap\n");
        assert!(
            started.elapsed() >= Duration::from_millis(50),
            "delay must actually wait"
        );
        proxy.shutdown();
    }
}
