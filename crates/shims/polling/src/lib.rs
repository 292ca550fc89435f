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
//!   interest set, then [`Poller::wait`] for the token of one ready fd.
//!   Interest is level-triggered, or one-shot ([`Interest::oneshot`],
//!   `EPOLLONESHOT`): the fd reports one event and is then disarmed until
//!   the next [`Poller::modify`], so threads sharing one poller never get
//!   the same fd's events at once.
//! * [`Waker`] — a nonblocking self-pipe whose read end is registered
//!   like any other fd; other threads call [`Waker::wake`] to make a
//!   blocked `wait` return. Nothing drains it, so once woken, a
//!   level-triggered registration wakes every later wait too.
//!
//! An error or hangup on an armed fd (`EPOLLERR`/`EPOLLHUP`) wakes its
//! token like readiness does, so callers discover it through their next
//! `read`/`write`, which is where the actual `io::Error` lives. A disarmed
//! one-shot fd reports nothing until it is re-armed.

use std::io;

/// Raw file descriptor type (aliased so the non-unix stub compiles).
#[cfg(unix)]
pub type RawFd = std::os::unix::io::RawFd;
/// Raw file descriptor type (aliased so the non-unix stub compiles).
#[cfg(not(unix))]
pub type RawFd = i32;

/// The interest set for a registered fd.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Interest {
    /// Wake when the fd becomes readable.
    pub readable: bool,
    /// Wake when the fd becomes writable.
    pub writable: bool,
    /// Report one event, then stay registered but disarmed until the
    /// next [`Poller::modify`].
    pub oneshot: bool,
}

impl Interest {
    /// Read-only interest.
    pub const READ: Interest = Interest {
        readable: true,
        writable: false,
        oneshot: false,
    };
    /// Write-only interest.
    pub const WRITE: Interest = Interest {
        readable: false,
        writable: true,
        oneshot: false,
    };
    /// No interest: what a deregistration passes.
    #[cfg_attr(not(target_os = "linux"), allow(dead_code))]
    const NONE: Interest = Interest {
        readable: false,
        writable: false,
        oneshot: false,
    };

    /// The same interest, one-shot.
    pub const fn oneshot(self) -> Interest {
        Interest {
            oneshot: true,
            ..self
        }
    }
}

pub use sys::Poller;

// ---------------------------------------------------------------------------
// Linux: epoll
// ---------------------------------------------------------------------------

#[cfg(target_os = "linux")]
mod sys {
    use super::{Interest, RawFd};
    use std::io;
    use std::time::Duration;

    const EPOLLIN: u32 = 0x001;
    const EPOLLOUT: u32 = 0x004;
    const EPOLLONESHOT: u32 = 1 << 30;

    const EPOLL_CTL_ADD: i32 = 1;
    const EPOLL_CTL_DEL: i32 = 2;
    const EPOLL_CTL_MOD: i32 = 3;
    const EPOLL_CLOEXEC: i32 = 0o2000000;

    // The kernel ABI packs `epoll_event` on x86_64 only.
    #[cfg_attr(target_arch = "x86_64", repr(C, packed))]
    #[cfg_attr(not(target_arch = "x86_64"), repr(C))]
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

    /// A readiness poller (an epoll instance), shareable between threads
    /// (`epoll_wait` and `epoll_ctl` are thread-safe).
    #[derive(Debug)]
    pub struct Poller {
        epfd: i32,
    }

    impl Poller {
        /// Creates a new poller instance.
        ///
        /// # Errors
        /// Propagates `epoll_create1` failures; always fails off Linux.
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

        /// Registers `fd` under `token` with the given interest set.
        ///
        /// # Errors
        /// Propagates registration failures from the OS.
        pub fn add(&self, fd: RawFd, token: usize, interest: Interest) -> io::Result<()> {
            self.ctl(EPOLL_CTL_ADD, fd, token, interest)
        }

        /// Replaces the interest set of an already-registered `fd` (and
        /// re-arms a one-shot one).
        ///
        /// # Errors
        /// Propagates registration failures from the OS.
        pub fn modify(&self, fd: RawFd, token: usize, interest: Interest) -> io::Result<()> {
            self.ctl(EPOLL_CTL_MOD, fd, token, interest)
        }

        /// Deregisters `fd`. Must be called before the fd is closed.
        ///
        /// # Errors
        /// Propagates deregistration failures from the OS.
        pub fn delete(&self, fd: RawFd) -> io::Result<()> {
            // Pre-2.6.9 kernels required a non-null event for DEL; passing
            // one is harmless everywhere.
            self.ctl(EPOLL_CTL_DEL, fd, 0, Interest::NONE)
        }

        /// Blocks until a registered fd is ready or `timeout` elapses
        /// (`None` blocks indefinitely) and returns the token of one ready
        /// fd; `None` on a timeout or a signal interruption.
        ///
        /// # Errors
        /// Propagates `epoll_wait` failures from the OS.
        pub fn wait(&self, timeout: Option<Duration>) -> io::Result<Option<usize>> {
            let mut ev = EpollEvent { events: 0, data: 0 };
            let timeout_ms = match timeout {
                None => -1,
                // Round up so a 0 < t < 1ms timeout does not busy-spin.
                Some(t) => i32::try_from(t.as_millis().max(u128::from(u32::from(!t.is_zero()))))
                    .unwrap_or(i32::MAX),
            };
            // Safety: `ev` is one valid epoll_event for the call's duration.
            match unsafe { epoll_wait(self.epfd, &mut ev, 1, timeout_ms) } {
                1 => Ok(Some(ev.data as usize)),
                0 => Ok(None),
                _ => match io::Error::last_os_error() {
                    err if err.kind() == io::ErrorKind::Interrupted => Ok(None),
                    err => Err(err),
                },
            }
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
        if interest.oneshot {
            bits |= EPOLLONESHOT;
        }
        bits
    }
}

// ---------------------------------------------------------------------------
// Everything else: compile, report Unsupported at runtime
// ---------------------------------------------------------------------------

#[cfg(not(target_os = "linux"))]
mod sys {
    use super::{Interest, RawFd};
    use std::io;
    use std::time::Duration;

    fn unsupported() -> io::Error {
        io::Error::new(
            io::ErrorKind::Unsupported,
            "polling shim: no readiness backend on this platform",
        )
    }

    /// Stub poller for non-Linux targets: every call is `Unsupported`.
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
        pub fn wait(&self, _timeout: Option<Duration>) -> io::Result<Option<usize>> {
            Err(unsupported())
        }
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
    pub fn close_fd(_fd: RawFd) {}
}

/// A cross-thread wakeup handle: a nonblocking self-pipe whose read end
/// the owner registers with its [`Poller`]. [`Waker::wake`] from any
/// thread makes a blocked [`Poller::wait`] return the read end's token.
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

    /// Signals the owning poller. Idempotent (a full pipe counts as
    /// success), and the wakeup stays pending: nothing reads the pipe.
    ///
    /// # Errors
    /// Propagates unexpected `write` failures.
    pub fn wake(&self) -> io::Result<()> {
        pipe::write_byte(self.write_fd)
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
    use std::time::Duration;

    const BRIEF: Option<Duration> = Some(Duration::from_millis(20));
    const LONG: Option<Duration> = Some(Duration::from_secs(5));

    #[test]
    fn waker_wakes_every_wait_once_woken() {
        let poller = Poller::new().unwrap();
        let waker = Waker::new().unwrap();
        poller.add(waker.fd(), 7, Interest::READ).unwrap();
        assert_eq!(poller.wait(BRIEF).unwrap(), None, "no wakeup yet");

        waker.wake().unwrap();
        waker.wake().unwrap(); // coalesces

        // Level-triggered and never drained: every later wait returns it.
        for _ in 0..3 {
            assert_eq!(poller.wait(LONG).unwrap(), Some(7));
        }
    }

    #[test]
    fn wake_from_another_thread_unblocks_wait() {
        let poller = Poller::new().unwrap();
        let waker = std::sync::Arc::new(Waker::new().unwrap());
        poller.add(waker.fd(), 1, Interest::READ).unwrap();

        // Whether the wake lands before or during the wait, it returns.
        let w = std::sync::Arc::clone(&waker);
        let t = std::thread::spawn(move || w.wake().unwrap());
        assert_eq!(poller.wait(LONG).unwrap(), Some(1));
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
        assert_eq!(poller.wait(LONG).unwrap(), Some(10));

        let (server_side, _) = listener.accept().unwrap();
        server_side.set_nonblocking(true).unwrap();
        poller
            .add(server_side.as_raw_fd(), 20, Interest::READ)
            .unwrap();

        client.write_all(b"ping").unwrap();
        assert_eq!(poller.wait(LONG).unwrap(), Some(20));
        // Level-triggered: still readable, still reported.
        assert_eq!(poller.wait(LONG).unwrap(), Some(20));

        // Dropping read interest silences the pending data.
        poller
            .modify(server_side.as_raw_fd(), 20, Interest::NONE)
            .unwrap();
        assert_eq!(
            poller.wait(BRIEF).unwrap(),
            None,
            "interest NONE must silence pending data"
        );

        // Write interest on an idle socket fires immediately.
        poller
            .modify(server_side.as_raw_fd(), 20, Interest::WRITE)
            .unwrap();
        assert_eq!(poller.wait(LONG).unwrap(), Some(20));

        // Deregistered fds never fire again.
        poller.delete(server_side.as_raw_fd()).unwrap();
        client.write_all(b"more").unwrap();
        assert_eq!(poller.wait(BRIEF).unwrap(), None);

        let mut sink = [0u8; 8];
        let _ = (&server_side).read(&mut sink);
        drop(client);
    }

    #[test]
    fn oneshot_reports_once_until_rearmed() {
        let poller = Poller::new().unwrap();
        let wakers = [Waker::new().unwrap(), Waker::new().unwrap()];
        for (token, waker) in wakers.iter().enumerate() {
            poller
                .add(waker.fd(), token, Interest::READ.oneshot())
                .unwrap();
            waker.wake().unwrap();
        }

        // Both are ready: each wait returns one of them, the first one
        // disarmed by its event.
        let first = poller.wait(LONG).unwrap().expect("a ready fd");
        let second = poller.wait(LONG).unwrap().expect("the other ready fd");
        assert_ne!(first, second, "the first fd is disarmed");

        // Both still readable, but disarmed: nothing until a re-arm.
        assert_eq!(poller.wait(BRIEF).unwrap(), None);
        poller
            .modify(wakers[first].fd(), first, Interest::READ.oneshot())
            .unwrap();
        assert_eq!(poller.wait(LONG).unwrap(), Some(first));
    }
}
