//! Offline stand-in for a readiness-polling crate.
//!
//! The build environment has no network access, so instead of `mio` or
//! `polling` this workspace ships a minimal, std-only readiness API over
//! raw `extern "C"` syscall declarations (the same thin-shim spirit as
//! `crates/shims/memmap2`): **epoll** on Linux — the only target
//! `shapesearch serve` runs on — and a stub everywhere else that
//! compiles and reports [`std::io::ErrorKind::Unsupported`], so the
//! library, the one-shot CLI and the `snapshot` subcommand stay portable.
//!
//! The surface is exactly what an evented HTTP core needs and nothing
//! more:
//!
//! * [`Poller`] — register file descriptors with a `usize` token and an
//!   interest set, then [`Poller::wait`] for level-triggered readiness
//!   [`Event`]s.
//! * [`Waker`] — a nonblocking self-pipe whose read end is registered
//!   like any other fd; other threads call [`Waker::wake`] to make a
//!   blocked `wait` return.
//!
//! Error and hangup conditions (`EPOLLERR`/`EPOLLHUP`) are reported as
//! both readable *and* writable so callers discover them through their
//! next `read`/`write`, which is where the actual `io::Error` lives.

use std::io;
use std::time::Duration;

/// Raw file descriptor type (aliased so the non-unix stub compiles).
#[cfg(unix)]
pub type RawFd = std::os::unix::io::RawFd;
/// Raw file descriptor type (aliased so the non-unix stub compiles).
#[cfg(not(unix))]
pub type RawFd = i32;

/// One readiness notification from [`Poller::wait`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// The token the fd was registered with.
    pub token: usize,
    /// The fd is readable (or in an error/hangup state).
    pub readable: bool,
    /// The fd is writable (or in an error/hangup state).
    pub writable: bool,
}

/// The interest set for a registered fd.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Interest {
    /// Wake when the fd becomes readable.
    pub readable: bool,
    /// Wake when the fd becomes writable.
    pub writable: bool,
}

impl Interest {
    /// Read-only interest.
    pub const READ: Interest = Interest {
        readable: true,
        writable: false,
    };
    /// Write-only interest.
    pub const WRITE: Interest = Interest {
        readable: false,
        writable: true,
    };
    /// No interest: stay registered, report nothing but errors/hangups.
    pub const NONE: Interest = Interest {
        readable: false,
        writable: false,
    };
}

// ---------------------------------------------------------------------------
// Linux: epoll
// ---------------------------------------------------------------------------

#[cfg(target_os = "linux")]
mod sys {
    use super::{Event, Interest, RawFd};
    use std::io;
    use std::time::Duration;

    const EPOLLIN: u32 = 0x001;
    const EPOLLOUT: u32 = 0x004;
    const EPOLLERR: u32 = 0x008;
    const EPOLLHUP: u32 = 0x010;

    const EPOLL_CTL_ADD: i32 = 1;
    const EPOLL_CTL_DEL: i32 = 2;
    const EPOLL_CTL_MOD: i32 = 3;
    const EPOLL_CLOEXEC: i32 = 0o2000000;

    // The kernel ABI packs `epoll_event` on x86_64 only.
    #[cfg_attr(target_arch = "x86_64", repr(C, packed))]
    #[cfg_attr(not(target_arch = "x86_64"), repr(C))]
    #[derive(Clone, Copy)]
    struct EpollEvent {
        events: u32,
        data: u64,
    }

    extern "C" {
        fn epoll_create1(flags: i32) -> i32;
        fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
        fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout_ms: i32) -> i32;
        fn close(fd: i32) -> i32;
    }

    /// An epoll instance (level-triggered).
    #[derive(Debug)]
    pub struct Poller {
        epfd: i32,
    }

    impl Poller {
        pub fn new() -> io::Result<Poller> {
            // Safety: plain syscall, no pointers.
            let epfd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
            if epfd < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(Poller { epfd })
        }

        fn ctl(&self, op: i32, fd: RawFd, token: usize, interest: Interest) -> io::Result<()> {
            let mut ev = EpollEvent {
                events: mask(interest),
                data: token as u64,
            };
            // Safety: `ev` is a valid epoll_event for the call's duration.
            let rc = unsafe { epoll_ctl(self.epfd, op, fd, &mut ev) };
            if rc < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(())
        }

        pub fn add(&self, fd: RawFd, token: usize, interest: Interest) -> io::Result<()> {
            self.ctl(EPOLL_CTL_ADD, fd, token, interest)
        }

        pub fn modify(&self, fd: RawFd, token: usize, interest: Interest) -> io::Result<()> {
            self.ctl(EPOLL_CTL_MOD, fd, token, interest)
        }

        pub fn delete(&self, fd: RawFd) -> io::Result<()> {
            // Pre-2.6.9 kernels required a non-null event for DEL; passing
            // one is harmless everywhere.
            self.ctl(EPOLL_CTL_DEL, fd, 0, Interest::NONE)
        }

        pub fn wait(&self, events: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<()> {
            events.clear();
            let mut raw = [EpollEvent { events: 0, data: 0 }; 256];
            let timeout_ms = match timeout {
                None => -1,
                // Round up so a 0 < t < 1ms timeout does not busy-spin.
                Some(t) => i32::try_from(t.as_millis().max(u128::from(u32::from(!t.is_zero()))))
                    .unwrap_or(i32::MAX),
            };
            // Safety: `raw` outlives the call and maxevents matches its len.
            let n =
                unsafe { epoll_wait(self.epfd, raw.as_mut_ptr(), raw.len() as i32, timeout_ms) };
            if n < 0 {
                let err = io::Error::last_os_error();
                if err.kind() == io::ErrorKind::Interrupted {
                    return Ok(());
                }
                return Err(err);
            }
            for ev in &raw[..n as usize] {
                let bits = ev.events;
                let fail = bits & (EPOLLERR | EPOLLHUP) != 0;
                events.push(Event {
                    token: ev.data as usize,
                    readable: bits & EPOLLIN != 0 || fail,
                    writable: bits & EPOLLOUT != 0 || fail,
                });
            }
            Ok(())
        }
    }

    impl Drop for Poller {
        fn drop(&mut self) {
            // Safety: epfd is owned by this struct and closed exactly once.
            unsafe {
                let _ = close(self.epfd);
            }
        }
    }

    fn mask(interest: Interest) -> u32 {
        let mut bits = 0;
        if interest.readable {
            bits |= EPOLLIN;
        }
        if interest.writable {
            bits |= EPOLLOUT;
        }
        bits
    }
}

// ---------------------------------------------------------------------------
// Everything else: compile, report Unsupported at runtime
// ---------------------------------------------------------------------------

#[cfg(not(target_os = "linux"))]
mod sys {
    use super::{Event, Interest, RawFd};
    use std::io;
    use std::time::Duration;

    fn unsupported() -> io::Error {
        io::Error::new(
            io::ErrorKind::Unsupported,
            "polling shim: no readiness backend on this platform",
        )
    }

    /// Stub backend for non-Linux targets.
    #[derive(Debug)]
    pub struct Poller;

    impl Poller {
        pub fn new() -> io::Result<Poller> {
            Err(unsupported())
        }
        pub fn add(&self, _fd: RawFd, _token: usize, _interest: Interest) -> io::Result<()> {
            Err(unsupported())
        }
        pub fn modify(&self, _fd: RawFd, _token: usize, _interest: Interest) -> io::Result<()> {
            Err(unsupported())
        }
        pub fn delete(&self, _fd: RawFd) -> io::Result<()> {
            Err(unsupported())
        }
        pub fn wait(&self, _events: &mut Vec<Event>, _timeout: Option<Duration>) -> io::Result<()> {
            Err(unsupported())
        }
    }
}

/// A level-triggered readiness poller over the platform backend.
#[derive(Debug)]
pub struct Poller {
    inner: sys::Poller,
}

impl Poller {
    /// Creates a new poller instance.
    ///
    /// # Errors
    /// Propagates `epoll_create1` failures; always fails off Linux.
    pub fn new() -> io::Result<Poller> {
        Ok(Poller {
            inner: sys::Poller::new()?,
        })
    }

    /// Registers `fd` under `token` with the given interest set.
    ///
    /// # Errors
    /// Propagates registration failures from the OS.
    pub fn add(&self, fd: RawFd, token: usize, interest: Interest) -> io::Result<()> {
        self.inner.add(fd, token, interest)
    }

    /// Replaces the interest set of an already-registered `fd`.
    ///
    /// # Errors
    /// Propagates registration failures from the OS.
    pub fn modify(&self, fd: RawFd, token: usize, interest: Interest) -> io::Result<()> {
        self.inner.modify(fd, token, interest)
    }

    /// Deregisters `fd`. Must be called before the fd is closed.
    ///
    /// # Errors
    /// Propagates deregistration failures from the OS.
    pub fn delete(&self, fd: RawFd) -> io::Result<()> {
        self.inner.delete(fd)
    }

    /// Blocks until at least one registered fd is ready or `timeout`
    /// elapses (`None` blocks indefinitely), filling `events` with the
    /// ready set. A signal interruption returns `Ok` with no events.
    ///
    /// # Errors
    /// Propagates `epoll_wait` failures from the OS.
    pub fn wait(&self, events: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<()> {
        self.inner.wait(events, timeout)
    }
}

// ---------------------------------------------------------------------------
// Waker: a nonblocking self-pipe
// ---------------------------------------------------------------------------

#[cfg(target_os = "linux")]
mod pipe {
    use super::RawFd;
    use std::io;

    extern "C" {
        fn pipe(fds: *mut i32) -> i32;
        fn fcntl(fd: i32, cmd: i32, arg: i32) -> i32;
        fn read(fd: i32, buf: *mut u8, count: usize) -> isize;
        fn write(fd: i32, buf: *const u8, count: usize) -> isize;
        fn close(fd: i32) -> i32;
    }

    const F_GETFL: i32 = 3;
    const F_SETFL: i32 = 4;
    const O_NONBLOCK: i32 = 0o4000;

    pub fn create() -> io::Result<(RawFd, RawFd)> {
        let mut fds = [0i32; 2];
        // Safety: `fds` is a valid 2-slot buffer for the call's duration.
        if unsafe { pipe(fds.as_mut_ptr()) } < 0 {
            return Err(io::Error::last_os_error());
        }
        for fd in fds {
            // Safety: plain fcntl on an fd we own.
            let flags = unsafe { fcntl(fd, F_GETFL, 0) };
            if flags < 0 || unsafe { fcntl(fd, F_SETFL, flags | O_NONBLOCK) } < 0 {
                let err = io::Error::last_os_error();
                close_fd(fds[0]);
                close_fd(fds[1]);
                return Err(err);
            }
        }
        Ok((fds[0], fds[1]))
    }

    pub fn write_byte(fd: RawFd) -> io::Result<()> {
        let byte = 1u8;
        // Safety: one-byte buffer valid for the call's duration.
        let rc = unsafe { write(fd, &byte, 1) };
        if rc < 0 {
            let err = io::Error::last_os_error();
            // A full pipe means a wakeup is already pending: success.
            if err.kind() == io::ErrorKind::WouldBlock {
                return Ok(());
            }
            return Err(err);
        }
        Ok(())
    }

    pub fn drain(fd: RawFd) {
        let mut buf = [0u8; 64];
        loop {
            // Safety: `buf` is valid for the call's duration.
            let rc = unsafe { read(fd, buf.as_mut_ptr(), buf.len()) };
            if rc <= 0 {
                return;
            }
        }
    }

    pub fn close_fd(fd: RawFd) {
        // Safety: fd ownership is the caller's contract; nothing useful
        // to do on failure.
        unsafe {
            let _ = close(fd);
        }
    }
}

#[cfg(not(target_os = "linux"))]
mod pipe {
    use super::RawFd;
    use std::io;

    pub fn create() -> io::Result<(RawFd, RawFd)> {
        Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "polling shim: no self-pipe on this platform",
        ))
    }
    pub fn write_byte(_fd: RawFd) -> io::Result<()> {
        unreachable!("waker cannot be constructed on this platform")
    }
    pub fn drain(_fd: RawFd) {}
    pub fn close_fd(_fd: RawFd) {}
}

/// A cross-thread wakeup handle: a nonblocking self-pipe whose read end
/// the owner registers with its [`Poller`]. [`Waker::wake`] from any
/// thread makes a blocked [`Poller::wait`] return with an event for the
/// read end's token.
#[derive(Debug)]
pub struct Waker {
    read_fd: RawFd,
    write_fd: RawFd,
}

// Safety: both ends are plain fds written/read through thread-safe
// syscalls; the struct owns them and closes each exactly once on drop.
unsafe impl Send for Waker {}
unsafe impl Sync for Waker {}

impl Waker {
    /// Creates the self-pipe (both ends nonblocking).
    ///
    /// # Errors
    /// Propagates `pipe`/`fcntl` failures; always fails off Linux.
    pub fn new() -> io::Result<Waker> {
        let (read_fd, write_fd) = pipe::create()?;
        Ok(Waker { read_fd, write_fd })
    }

    /// The read end, to register with a [`Poller`] under a reserved token.
    pub fn fd(&self) -> RawFd {
        self.read_fd
    }

    /// Signals the owning poller. Idempotent while a wakeup is pending
    /// (a full pipe counts as success).
    ///
    /// # Errors
    /// Propagates unexpected `write` failures.
    pub fn wake(&self) -> io::Result<()> {
        pipe::write_byte(self.write_fd)
    }

    /// Consumes all pending wakeup bytes. The owner calls this when the
    /// waker token fires, before draining whatever queue the wakeup
    /// advertised.
    pub fn drain(&self) {
        pipe::drain(self.read_fd);
    }
}

impl Drop for Waker {
    fn drop(&mut self) {
        pipe::close_fd(self.read_fd);
        pipe::close_fd(self.write_fd);
    }
}

#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::os::unix::io::AsRawFd;

    #[test]
    fn waker_wakes_and_drains() {
        let poller = Poller::new().unwrap();
        let waker = Waker::new().unwrap();
        poller.add(waker.fd(), 7, Interest::READ).unwrap();

        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_millis(10)))
            .unwrap();
        assert!(events.is_empty(), "no wakeup yet");

        waker.wake().unwrap();
        waker.wake().unwrap(); // coalesces
        poller
            .wait(&mut events, Some(Duration::from_secs(2)))
            .unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].token, 7);
        assert!(events[0].readable);

        waker.drain();
        poller
            .wait(&mut events, Some(Duration::from_millis(10)))
            .unwrap();
        assert!(events.is_empty(), "drained waker is quiet");
    }

    #[test]
    fn wake_from_another_thread_unblocks_wait() {
        let poller = Poller::new().unwrap();
        let waker = std::sync::Arc::new(Waker::new().unwrap());
        poller.add(waker.fd(), 1, Interest::READ).unwrap();

        let w = std::sync::Arc::clone(&waker);
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(50));
            w.wake().unwrap();
        });

        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].token, 1);
        t.join().unwrap();
    }

    #[test]
    fn tcp_readability_and_interest_changes() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        listener.set_nonblocking(true).unwrap();

        let poller = Poller::new().unwrap();
        poller
            .add(listener.as_raw_fd(), 10, Interest::READ)
            .unwrap();

        let mut client = TcpStream::connect(addr).unwrap();

        // Listener becomes readable when a connection is pending.
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert!(events.iter().any(|e| e.token == 10 && e.readable));

        let (server_side, _) = listener.accept().unwrap();
        server_side.set_nonblocking(true).unwrap();
        poller
            .add(server_side.as_raw_fd(), 20, Interest::READ)
            .unwrap();

        client.write_all(b"ping").unwrap();
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert!(events.iter().any(|e| e.token == 20 && e.readable));

        // Dropping read interest silences the (level-triggered) event.
        poller
            .modify(server_side.as_raw_fd(), 20, Interest::NONE)
            .unwrap();
        poller
            .wait(&mut events, Some(Duration::from_millis(20)))
            .unwrap();
        assert!(
            !events.iter().any(|e| e.token == 20 && e.readable),
            "interest NONE must silence pending data"
        );

        // Write interest on an idle socket fires immediately.
        poller
            .modify(server_side.as_raw_fd(), 20, Interest::WRITE)
            .unwrap();
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert!(events.iter().any(|e| e.token == 20 && e.writable));

        // Deregistered fds never fire again.
        poller.delete(server_side.as_raw_fd()).unwrap();
        client.write_all(b"more").unwrap();
        poller
            .wait(&mut events, Some(Duration::from_millis(20)))
            .unwrap();
        assert!(!events.iter().any(|e| e.token == 20));

        let mut sink = [0u8; 8];
        let _ = (&server_side).read(&mut sink);
        drop(client);
    }
}
