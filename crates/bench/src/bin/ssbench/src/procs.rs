//! Spawned production servers: start, find the ephemeral port, read
//! `/proc`, and — on every exit path — kill and reap. A return or a
//! panic goes through `Drop`; a signal that ends this process without
//! unwinding (the driver's timeout, Ctrl-C) is covered by the kernel,
//! which each child has asked to kill it when its parent dies.
//!
//! Also what the benchmark does to the cores it measures on: keeping
//! them awake and watched ([`Probes`]) and confining a workload to one of
//! them ([`OneCore`]).

use std::fs::{self, File};
use std::io;
use std::os::unix::process::CommandExt;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// `struct timespec` where `time_t` and `long` are both 64 bits wide.
#[cfg(target_pointer_width = "64")]
#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

/// `struct sched_param`.
#[repr(C)]
struct SchedParam {
    priority: i32,
}

/// A `cpu_set_t`: one bit per CPU, 1,024 of them.
type CpuSet = [u64; 16];

extern "C" {
    fn prctl(option: i32, ...) -> i32;
    fn getppid() -> i32;
    fn clock_gettime(clock: i32, time: *mut Timespec) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
    fn sched_setscheduler(pid: i32, policy: i32, param: *const SchedParam) -> i32;
}
const PR_SET_PDEATHSIG: i32 = 1;
const SIGKILL: i32 = 9;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
const SCHED_IDLE: i32 = 5;

/// Makes the child `command` starts die with the thread that spawns it
/// (Linux: `PR_SET_PDEATHSIG`), so no server outlives a benchmark that
/// was killed. Servers are spawned from the main thread, which lives as
/// long as the process.
fn die_with_parent(command: &mut Command) {
    let parent = std::process::id() as i32;
    // SAFETY: the closure runs in the forked child before `exec` and
    // makes only async-signal-safe calls (`prctl`, `getppid`), touching
    // no memory the parent's other threads may hold locked.
    unsafe {
        command.pre_exec(move || {
            if prctl(PR_SET_PDEATHSIG, SIGKILL) != 0 {
                return Err(io::Error::last_os_error());
            }
            // The parent may have died before the request was in place.
            if getppid() != parent {
                return Err(io::Error::other("parent died before exec"));
            }
            Ok(())
        });
    }
}

const BOOT_TIMEOUT: Duration = Duration::from_secs(30);

/// One `shapesearch serve` child. Dropping it kills and reaps the
/// process.
pub struct Server {
    child: Child,
    pub addr: String,
    log: PathBuf,
}

impl Server {
    /// Starts `bin serve --addr 127.0.0.1:0` — default flags, an
    /// ephemeral port — with its output going to `log`, and waits for
    /// the `listening on http://ADDR` line.
    pub fn spawn(bin: &Path, log: PathBuf) -> io::Result<Self> {
        let out = File::create(&log)?;
        let mut command = Command::new(bin);
        command
            .args(["serve", "--addr", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(out.try_clone()?)
            .stderr(out);
        die_with_parent(&mut command);
        let child = command.spawn()?;
        // From here on `server` owns the child: an early return drops it.
        let mut server = Self {
            child,
            addr: String::new(),
            log,
        };
        let deadline = Instant::now() + BOOT_TIMEOUT;
        loop {
            let text = fs::read_to_string(&server.log)?;
            // Only whole lines: the file may be read mid-write.
            let whole_lines = text.split_inclusive('\n').filter(|l| l.ends_with('\n'));
            if let Some(addr) = whole_lines
                .filter_map(|l| l.split_once("listening on http://"))
                .map(|(_, addr)| addr.trim())
                .next()
            {
                server.addr = addr.to_owned();
                return Ok(server);
            }
            if let Some(status) = server.child.try_wait()? {
                return Err(io::Error::other(format!(
                    "server exited with {status} before listening: {}",
                    text.trim()
                )));
            }
            if Instant::now() > deadline {
                return Err(io::Error::other("server did not start listening in time"));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Peak resident set size (`VmHWM`) in MiB.
    pub fn peak_rss_mib(&self) -> io::Result<f64> {
        let status = fs::read_to_string(format!("/proc/{}/status", self.pid()))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kib| kib / 1024.0)
            .ok_or_else(|| io::Error::other("no VmHWM in /proc status"))
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // Errors mean the child is already gone, which is the goal.
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn read_clock(clock: i32) -> io::Result<f64> {
    let mut time = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `time` is a live, writable `timespec`; the call writes
    // nothing else.
    if unsafe { clock_gettime(clock, &mut time) } != 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(time.sec as f64 * 1e3 + time.nsec as f64 / 1e6)
}

/// CPU time the calling thread has consumed so far, in milliseconds.
pub fn thread_cpu_ms() -> io::Result<f64> {
    read_clock(CLOCK_THREAD_CPUTIME_ID)
}

/// User + system CPU time process `pid` has consumed so far, threads
/// that have ended included, in milliseconds: the process's CPU-time
/// clock (what `clock_getcpuclockid(3)` names), which the kernel keeps
/// to the nanosecond where `/proc/<pid>/stat` counts 10 ms ticks.
pub fn cpu_ms(pid: u32) -> io::Result<f64> {
    // Linux encodes "the CPU-time clock of process `pid`" as a negative
    // clock id: `~pid << 3 | CPUCLOCK_SCHED` (2).
    read_clock((!(pid as i32) << 3) | 2)
}

/// The CPUs the calling thread may run on.
fn allowed_cpus() -> io::Result<CpuSet> {
    let mut set: CpuSet = [0; 16];
    // SAFETY: `set` is live and writable, and the size passed is its own.
    if unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) } != 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(set)
}

/// Confines the calling thread to `set`.
fn run_on(set: &CpuSet) -> io::Result<()> {
    // SAFETY: `set` is live, and the size passed is its own.
    if unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), set) } != 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(())
}

fn cpu_ids(set: &CpuSet) -> impl Iterator<Item = usize> + '_ {
    (0..set.len() * 64).filter(|&cpu| set[cpu / 64] >> (cpu % 64) & 1 == 1)
}

fn only(cpu: usize) -> CpuSet {
    let mut set: CpuSet = [0; 16];
    set[cpu / 64] = 1 << (cpu % 64);
    set
}

/// One reading of the interference probe: how long, in nanoseconds, a
/// fixed piece of arithmetic takes that keeps the core's floating-point
/// units busy every cycle (four independent vector accumulators over 16
/// KiB that stay in the first-level cache).
///
/// Why this kernel: what slows the reference box is a neighbour's
/// virtual CPU on the other hardware thread of the physical core (README,
/// "Steadiness"). Code that leaves the core's units idle — a chain of
/// dependent multiplications, a walk through memory — does not notice
/// it; code that fills them, like the engine's scoring loops, runs at
/// two thirds of its speed. Alone on its core the kernel takes the same
/// time to within a per cent, every time, so a reading above that is the
/// neighbour and nothing else.
pub fn probe_ns() -> u32 {
    static DATA: [f64; 2048] = [1.0; 2048];
    let started = Instant::now();
    let data = std::hint::black_box(&DATA);
    let mut sums = [0.0f64; 8];
    for _ in 0..25 {
        for eight in data.chunks_exact(8) {
            for (sum, x) in sums.iter_mut().zip(eight) {
                *sum += x * 1.000_001 + 0.5;
            }
        }
    }
    std::hint::black_box(sums);
    started.elapsed().as_nanos().min(u128::from(u32::MAX)) as u32
}

/// A probe's readings are kept as the quickest of each stretch this long
/// in which it finished one: a reading that an interrupt or a
/// pre-emption fell into is then dropped in favour of one next to it.
pub const BUCKET_NS: u64 = 250_000;

/// The quickest reading of the bucket starting `at_ns` after the probes'
/// epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Bucket {
    pub at_ns: u64,
    pub best_ns: u32,
}

/// What one core's probe read over a run, in time order. Buckets in
/// which the core was busy throughout are absent.
#[derive(Debug, Clone)]
pub struct CoreSeries {
    pub cpu: usize,
    pub buckets: Vec<Bucket>,
}

/// One thread per CPU this process may use, confined to it, running
/// [`probe_ns`] back to back in the `SCHED_IDLE` class — which gets a
/// core only when nothing else wants it and loses it the moment something
/// does — and noting what it reads. They do two jobs:
///
/// *They keep the cores awake.* A guest core with nothing to run halts,
/// and waking it takes the hypervisor about 27 µs on the reference box. A
/// request that is handed from thread to thread pays that at every
/// hand-over — four times for a cached hit, which is 31 µs of work and
/// read 140 — and how many a request pays changes with where the
/// scheduler last put the threads.
///
/// *They watch for the neighbours.* Whenever a core is idle for a moment
/// — between two requests, while the other core finishes its shard — its
/// probe reads how fast the core is just then. `measure::fold` uses the
/// readings to tell the requests the machine disturbed from the ones it
/// did not.
pub struct Probes {
    epoch: Instant,
    stop: Arc<AtomicBool>,
    threads: Vec<(usize, JoinHandle<Vec<Bucket>>)>,
}

impl Probes {
    /// Where the kernel refuses a probe its class or its CPU, that core
    /// goes unwatched (and may sleep) and the run says so: a noisier
    /// number beats none.
    pub fn start() -> Self {
        let epoch = Instant::now();
        let stop = Arc::new(AtomicBool::new(false));
        let cpus = allowed_cpus().unwrap_or_else(|e| {
            eprintln!("ssbench: cannot watch the cores: {e}");
            [0; 16]
        });
        let threads = cpu_ids(&cpus)
            .map(|cpu| {
                let stop = Arc::clone(&stop);
                let thread = std::thread::spawn(move || {
                    let lowest = SchedParam { priority: 0 };
                    // SAFETY: `lowest` is a live `sched_param`; pid 0 is
                    // the calling thread.
                    let idle_class = unsafe { sched_setscheduler(0, SCHED_IDLE, &lowest) } == 0;
                    // A probe that could not step down, or aside, would
                    // take the time it is there to watch.
                    if !idle_class || run_on(&only(cpu)).is_err() {
                        eprintln!("ssbench: cannot watch cpu {cpu}; it may sleep");
                        return Vec::new();
                    }
                    let mut buckets: Vec<Bucket> = Vec::with_capacity(1 << 18);
                    let mut open: Option<Bucket> = None;
                    // The flag publishes nothing but itself.
                    while !stop.load(Ordering::Relaxed) {
                        let took = probe_ns();
                        let now = epoch.elapsed().as_nanos() as u64;
                        let at_ns = now - now % BUCKET_NS;
                        match &mut open {
                            Some(bucket) if bucket.at_ns == at_ns => {
                                bucket.best_ns = bucket.best_ns.min(took);
                            }
                            _ => {
                                buckets.extend(open.replace(Bucket {
                                    at_ns,
                                    best_ns: took,
                                }));
                            }
                        }
                    }
                    buckets.extend(open);
                    buckets
                });
                (cpu, thread)
            })
            .collect();
        Self {
            epoch,
            stop,
            threads,
        }
    }

    /// The instant the buckets' `at_ns` count from.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    fn stop_and_collect(&mut self) -> Vec<CoreSeries> {
        self.stop.store(true, Ordering::Relaxed);
        self.threads
            .drain(..)
            .map(|(cpu, thread)| CoreSeries {
                cpu,
                // A probe cannot panic; one that did watched nothing.
                buckets: thread.join().unwrap_or_default(),
            })
            .collect()
    }

    /// Stops the probes and hands over what each read.
    pub fn finish(mut self) -> Vec<CoreSeries> {
        self.stop_and_collect()
    }
}

impl Drop for Probes {
    fn drop(&mut self) {
        self.stop_and_collect();
    }
}

/// The first CPU the calling thread may use: where [`OneCore`] confines
/// a workload.
pub fn first_cpu() -> Option<usize> {
    allowed_cpus().ok().and_then(|set| cpu_ids(&set).next())
}

/// Confines the calling thread, and every thread and process it starts
/// from now on, to the first CPU it may use — until dropped, which gives
/// the thread its CPUs back. Where the kernel refuses, the workload runs
/// unconfined and says so: a noisier number beats none.
pub struct OneCore {
    before: Option<CpuSet>,
}

impl OneCore {
    pub fn enter() -> Self {
        let confined = allowed_cpus().and_then(|before| {
            let first = cpu_ids(&before)
                .next()
                .ok_or_else(|| io::Error::other("no CPU to run on"))?;
            run_on(&only(first))?;
            Ok(before)
        });
        if let Err(e) = &confined {
            eprintln!("ssbench: cannot confine the workload to one core: {e}");
        }
        Self {
            before: confined.ok(),
        }
    }
}

impl Drop for OneCore {
    fn drop(&mut self) {
        if let Some(before) = &self.before {
            // Failing to widen the set again only slows what follows.
            let _ = run_on(before);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_core_confines_and_gives_back() {
        // On its own thread: affinity is per thread, and the test
        // harness's other threads must keep theirs.
        std::thread::spawn(|| {
            let before = allowed_cpus().unwrap();
            {
                let _one = OneCore::enter();
                assert_eq!(cpu_ids(&allowed_cpus().unwrap()).count(), 1);
                // What it starts inherits the confinement.
                let inherited = std::thread::spawn(|| cpu_ids(&allowed_cpus().unwrap()).count())
                    .join()
                    .unwrap();
                assert_eq!(inherited, 1);
            }
            assert_eq!(allowed_cpus().unwrap(), before);
        })
        .join()
        .unwrap();
    }

    #[test]
    fn probes_hand_over_one_series_per_cpu_in_time_order() {
        let probes = Probes::start();
        std::thread::sleep(Duration::from_millis(5));
        let series = probes.finish();
        let cpus: Vec<usize> = cpu_ids(&allowed_cpus().unwrap()).collect();
        assert_eq!(series.iter().map(|s| s.cpu).collect::<Vec<_>>(), cpus);
        for core in &series {
            assert!(core
                .buckets
                .windows(2)
                .all(|pair| pair[0].at_ns < pair[1].at_ns));
            assert!(core.buckets.iter().all(|b| b.at_ns % BUCKET_NS == 0));
        }
        // Dropping without finishing joins the threads too: returning at
        // all is the assertion.
        drop(Probes::start());
    }

    #[test]
    fn reads_a_process_cpu_clock() {
        let before = cpu_ms(std::process::id()).unwrap();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i));
        }
        assert!(cpu_ms(std::process::id()).unwrap() > before);
        // A process that has been reaped has no clock any more.
        let mut gone = Command::new("true").spawn().unwrap();
        gone.wait().unwrap();
        assert!(cpu_ms(gone.id()).is_err());
    }

    /// The spawning thread ending stands in for the benchmark being
    /// killed: the kernel delivers the same parent-death signal.
    #[test]
    fn a_child_dies_with_the_thread_that_spawned_it() {
        use std::os::unix::process::ExitStatusExt;
        let mut child = std::thread::spawn(|| {
            let mut command = Command::new("sleep");
            command.arg("600");
            die_with_parent(&mut command);
            command.spawn().unwrap()
        })
        .join()
        .unwrap();
        assert_eq!(child.wait().unwrap().signal(), Some(SIGKILL));
    }

    #[test]
    fn a_server_that_never_listens_is_an_error_and_is_reaped() {
        let dir = std::env::temp_dir().join(format!("ssbench-procs-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let err = Server::spawn(Path::new("/bin/true"), dir.join("true.log"))
            .err()
            .expect("`true` never prints a listening line");
        assert!(err.to_string().contains("before listening"), "{err}");
        fs::remove_dir_all(&dir).unwrap();
    }
}
