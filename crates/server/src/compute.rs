//! The shared compute pool: short CPU-bound tasks (one engine shard's
//! pass for one query group) from *every* request interleave on one
//! fixed set of threads.
//!
//! This is what lets a single query saturate the machine — its dataset's
//! shards fan out as independent tasks — while keeping admission fair: a
//! giant batch no longer monopolizes one HTTP worker for its full
//! duration, because it decomposes into many short shard tasks that
//! drain from the same queue as everyone else's.
//!
//! Submitters are not idle bystanders: [`ComputePool::run_all`] makes
//! the calling (HTTP worker) thread *help drain the queue* while its own
//! batch is outstanding. That guarantees progress with any pool size
//! (even zero threads — everything runs on the caller), adds the blocked
//! submitter's core back into the compute budget, and can never deadlock
//! because shard tasks are leaf work that submits nothing.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

type Job = Box<dyn FnOnce() + Send>;

struct Queue {
    jobs: VecDeque<Job>,
    shutdown: bool,
}

struct PoolInner {
    queue: Mutex<Queue>,
    /// Signals pool threads that a job (or shutdown) is available.
    ready: Condvar,
}

impl PoolInner {
    /// An empty, open queue shared by `threads` workers running
    /// [`Self::work`].
    fn spawn(threads: usize) -> (Arc<Self>, Vec<JoinHandle<()>>) {
        let inner = Arc::new(PoolInner {
            queue: Mutex::new(Queue {
                jobs: VecDeque::new(),
                shutdown: false,
            }),
            ready: Condvar::new(),
        });
        let worker = || {
            let inner = Arc::clone(&inner);
            std::thread::spawn(move || inner.work())
        };
        let handles = (0..threads).map(|_| worker()).collect();
        (inner, handles)
    }

    fn pop(&self) -> Option<Job> {
        self.queue.lock().expect("compute queue").jobs.pop_front()
    }

    /// The one worker loop: run queued jobs until the queue is empty
    /// *and* shut down. Popping before honoring shutdown means shutdown
    /// drains the queue instead of dropping it — queued dispatch jobs
    /// carry in-flight requests whose connections wait on their
    /// completions.
    fn work(&self) {
        loop {
            let job = {
                let mut queue = self.queue.lock().expect("pool queue");
                loop {
                    if let Some(job) = queue.jobs.pop_front() {
                        break job;
                    }
                    if queue.shutdown {
                        return;
                    }
                    queue = self.ready.wait(queue).expect("pool queue");
                }
            };
            // A panicking job must not take the pool thread down. A
            // compute task's batch guard has already released its latch,
            // and the submitter surfaces the panic; router jobs catch
            // their own (they must always deliver a completion).
            let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(job));
        }
    }
}

/// Tracks one `run_all` batch: how many of its tasks are still
/// outstanding, signalled as each completes.
struct BatchState {
    remaining: Mutex<usize>,
    done: Condvar,
}

impl BatchState {
    /// Marks one task finished (runs even if the task panicked, so a
    /// waiter can never hang on a poisoned batch).
    fn finish_one(&self) {
        let mut remaining = self.remaining.lock().expect("batch latch");
        *remaining -= 1;
        if *remaining == 0 {
            self.done.notify_all();
        }
    }
}

/// Drop guard: decrements the batch latch even when the task panics.
struct FinishGuard<'a>(&'a BatchState);

impl Drop for FinishGuard<'_> {
    fn drop(&mut self) {
        self.0.finish_one();
    }
}

/// A fixed pool of compute threads with a help-while-waiting submitter
/// protocol (see the module docs).
pub struct ComputePool {
    inner: Arc<PoolInner>,
    threads: Vec<JoinHandle<()>>,
}

impl ComputePool {
    /// A pool of `threads` compute threads. Zero is valid: every task
    /// then runs on the submitting thread inside [`Self::run_all`].
    pub fn new(threads: usize) -> Self {
        let (inner, threads) = PoolInner::spawn(threads);
        Self { inner, threads }
    }

    /// Number of pool threads (not counting helping submitters).
    pub fn workers(&self) -> usize {
        self.threads.len()
    }

    /// Runs every task to completion and returns their results in input
    /// order. Tasks are pushed onto the shared queue; pool threads and
    /// the calling thread drain it together (the caller may execute
    /// *other* requests' queued tasks while waiting — that interleaving
    /// is the fairness property, and shard tasks are short by design).
    ///
    /// # Panics
    /// Re-panics on the caller if any task panicked.
    pub fn run_all<T: Send + 'static>(&self, tasks: Vec<Box<dyn FnOnce() -> T + Send>>) -> Vec<T> {
        let n = tasks.len();
        if n == 0 {
            return Vec::new();
        }
        let batch = Arc::new(BatchState {
            remaining: Mutex::new(n),
            done: Condvar::new(),
        });
        let slots: Arc<Vec<Mutex<Option<T>>>> =
            Arc::new((0..n).map(|_| Mutex::new(None)).collect());

        {
            let mut queue = self.inner.queue.lock().expect("compute queue");
            for (i, task) in tasks.into_iter().enumerate() {
                let batch = Arc::clone(&batch);
                let slots = Arc::clone(&slots);
                queue.jobs.push_back(Box::new(move || {
                    // The guard releases the latch even if `task` panics.
                    let _guard = FinishGuard(&batch);
                    let value = task();
                    *slots[i].lock().expect("result slot") = Some(value);
                }));
            }
        }
        self.inner.ready.notify_all();

        // Help drain until this batch completes. When the queue is
        // empty, every outstanding task of ours is running on some other
        // thread, whose completion will signal the batch latch. The
        // latch is re-checked after every popped job — once this batch
        // is done the submitter must return its response immediately,
        // not keep chewing through other requests' backlog.
        loop {
            if *batch.remaining.lock().expect("batch latch") == 0 {
                break;
            }
            if let Some(job) = self.inner.pop() {
                let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(job));
                continue;
            }
            let remaining = batch.remaining.lock().expect("batch latch");
            if *remaining == 0 {
                break;
            }
            // Re-check the queue periodically so a task enqueued after
            // the empty check above still finds a helper.
            let (guard, _) = batch
                .done
                .wait_timeout(remaining, std::time::Duration::from_millis(20))
                .expect("batch latch");
            if *guard == 0 {
                break;
            }
        }

        // Take results through the mutexes: a finished job's closure may
        // not have dropped its `Arc` clone of `slots` yet (the latch
        // releases from a local drop guard, before captured upvars drop),
        // so the Arc is not necessarily unique here.
        slots
            .iter()
            .map(|slot| {
                slot.lock()
                    .expect("result slot")
                    .take()
                    .expect("a shard task panicked")
            })
            .collect()
    }
}

impl Drop for ComputePool {
    fn drop(&mut self) {
        self.inner.queue.lock().expect("compute queue").shutdown = true;
        self.inner.ready.notify_all();
        for handle in self.threads.drain(..) {
            let _ = handle.join();
        }
    }
}

/// The request-dispatch tier of the evented HTTP core: a fixed set of
/// threads that run router closures handed over by the event loops.
///
/// Deliberately **not** [`ComputePool`]: compute tasks are leaf work and
/// their submitters help drain the queue, which is exactly wrong for
/// router jobs — a router job *submits* compute batches, so a helping
/// router thread could pop another router job mid-wait and recurse
/// without bound. Dispatch workers are plain consumers: one queued job
/// at a time, completion delivered back to the owning event loop via its
/// inbox + waker, never by the dispatcher touching sockets.
pub struct DispatchPool {
    inner: Arc<PoolInner>,
    threads: Mutex<Vec<JoinHandle<()>>>,
}

impl DispatchPool {
    /// A pool of `threads` dispatch threads (at least one: unlike the
    /// compute pool there is no helping submitter to fall back on).
    pub fn new(threads: usize) -> Self {
        let (inner, threads) = PoolInner::spawn(threads.max(1));
        Self {
            inner,
            threads: Mutex::new(threads),
        }
    }

    /// Number of dispatch threads.
    pub fn workers(&self) -> usize {
        self.threads.lock().expect("dispatch threads").len()
    }

    /// Enqueues `job` for the next free dispatch thread. If the pool has
    /// already shut down (a shutdown/enqueue race at server stop), the
    /// job runs inline on the caller so its completion is never lost.
    pub fn spawn(&self, job: impl FnOnce() + Send + 'static) {
        let job: Job = Box::new(job);
        let job = {
            let mut queue = self.inner.queue.lock().expect("dispatch queue");
            if queue.shutdown {
                Some(job)
            } else {
                queue.jobs.push_back(job);
                None
            }
        };
        match job {
            Some(job) => {
                let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(job));
            }
            None => self.inner.ready.notify_one(),
        }
    }

    /// Closes the queue, runs every queued job to completion, and joins
    /// the threads. Idempotent; callable through a shared reference (the
    /// event loops and the server handle share the pool via `Arc`).
    pub fn shutdown(&self) {
        self.inner.queue.lock().expect("dispatch queue").shutdown = true;
        self.inner.ready.notify_all();
        let handles = std::mem::take(&mut *self.threads.lock().expect("dispatch threads"));
        for handle in handles {
            let _ = handle.join();
        }
    }
}

impl Drop for DispatchPool {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn runs_all_tasks_and_preserves_order() {
        let pool = ComputePool::new(3);
        let tasks: Vec<Box<dyn FnOnce() -> usize + Send>> = (0..20usize)
            .map(|i| Box::new(move || i * i) as Box<dyn FnOnce() -> usize + Send>)
            .collect();
        let results = pool.run_all(tasks);
        assert_eq!(results, (0..20).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn zero_thread_pool_runs_on_the_caller() {
        let pool = ComputePool::new(0);
        let caller = std::thread::current().id();
        let results = pool.run_all(vec![
            Box::new(move || std::thread::current().id() == caller)
                as Box<dyn FnOnce() -> bool + Send>,
        ]);
        assert_eq!(results, vec![true]);
    }

    #[test]
    fn concurrent_submitters_interleave_on_one_queue() {
        let pool = Arc::new(ComputePool::new(2));
        let executed = Arc::new(AtomicUsize::new(0));
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let pool = Arc::clone(&pool);
                let executed = Arc::clone(&executed);
                scope.spawn(move || {
                    let tasks: Vec<Box<dyn FnOnce() + Send>> = (0..25)
                        .map(|_| {
                            let executed = Arc::clone(&executed);
                            Box::new(move || {
                                executed.fetch_add(1, Ordering::Relaxed);
                            }) as Box<dyn FnOnce() + Send>
                        })
                        .collect();
                    pool.run_all(tasks);
                });
            }
        });
        assert_eq!(executed.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn dispatch_pool_runs_jobs_and_drains_on_shutdown() {
        let pool = DispatchPool::new(2);
        let ran = Arc::new(AtomicUsize::new(0));
        for _ in 0..50 {
            let ran = Arc::clone(&ran);
            pool.spawn(move || {
                ran.fetch_add(1, Ordering::Relaxed);
            });
        }
        // Shutdown must run every queued job, not drop the backlog.
        pool.shutdown();
        assert_eq!(ran.load(Ordering::Relaxed), 50);
        // Post-shutdown spawns run inline so completions are never lost.
        let ran2 = Arc::clone(&ran);
        pool.spawn(move || {
            ran2.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(ran.load(Ordering::Relaxed), 51);
    }

    #[test]
    fn panicking_task_propagates_without_hanging() {
        let pool = ComputePool::new(1);
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.run_all(vec![
                Box::new(|| panic!("task boom")) as Box<dyn FnOnce() + Send>
            ]);
        }));
        assert!(outcome.is_err(), "the panic must reach the submitter");
        // The pool survives and keeps executing.
        let results = pool.run_all(vec![
            Box::new(|| 7usize) as Box<dyn FnOnce() -> usize + Send>
        ]);
        assert_eq!(results, vec![7]);
    }
}
