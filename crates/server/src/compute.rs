//! The shared compute pool: short CPU-bound tasks (one engine shard's
//! pass for one query group) from *every* request interleave on one
//! fixed set of threads.
//!
//! This is what lets a single query use as many cores as its dataset has
//! shards — they fan out as independent tasks — while keeping admission
//! fair: a giant batch decomposes into many short shard tasks that drain
//! from the same queue as everyone else's, so it cannot hold the cores
//! for its full duration while other requests wait behind it.
//!
//! Submitters are not idle bystanders: [`ComputePool::run_all`] makes
//! the calling (HTTP serving) thread *help drain the queue* while its own
//! batch is outstanding. That guarantees progress with any pool size
//! (even zero threads — everything runs on the caller), adds the blocked
//! submitter's core back into the compute budget, and can never deadlock
//! because shard tasks are leaf work that submits nothing.
//!
//! A batch's results come back down a channel of its own. The job queue
//! is the one lock here: it guards plain data and no job runs under it,
//! so it recovers from poison through `cache::lock`, and a thread that
//! panicked holding it cannot wedge the pool.

use crate::cache::lock;
use std::collections::VecDeque;
use std::sync::mpsc::{self, TryRecvError};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
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
    fn pop(&self) -> Option<Job> {
        lock(&self.queue).jobs.pop_front()
    }

    /// The one worker loop: run queued jobs until the queue is empty
    /// *and* shut down. Popping before honoring shutdown means shutdown
    /// drains the queue instead of dropping it.
    fn work(&self) {
        loop {
            let job = {
                let mut queue = lock(&self.queue);
                loop {
                    if let Some(job) = queue.jobs.pop_front() {
                        break job;
                    }
                    if queue.shutdown {
                        return;
                    }
                    queue = self
                        .ready
                        .wait(queue)
                        .unwrap_or_else(PoisonError::into_inner);
                }
            };
            run(job);
        }
    }
}

/// Runs one job. A panicking job must not take its thread down: the
/// unwind drops the job's result sender, and its submitter surfaces the
/// panic.
fn run(job: Job) {
    let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(job));
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
        let inner = Arc::new(PoolInner {
            queue: Mutex::new(Queue {
                jobs: VecDeque::new(),
                shutdown: false,
            }),
            ready: Condvar::new(),
        });
        let threads = (0..threads)
            .map(|_| {
                let inner = Arc::clone(&inner);
                std::thread::spawn(move || inner.work())
            })
            .collect();
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
        // Room for every result: a task never blocks on its send.
        let (done, results) = mpsc::sync_channel(n);
        {
            let mut queue = lock(&self.inner.queue);
            for (i, task) in tasks.into_iter().enumerate() {
                let done = done.clone();
                queue.jobs.push_back(Box::new(move || {
                    let _ = done.send((i, task()));
                }));
            }
        }
        drop(done);
        self.inner.ready.notify_all();

        // Help drain until every result is in, taking each one as it
        // lands so the submitter returns as soon as its batch is done,
        // not after other requests' backlog. Once the queue is empty,
        // every outstanding task of this batch is running on some thread
        // and will send its result, or drop its sender as it unwinds:
        // the channel disconnects once every sender is gone.
        let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
        let mut received = 0;
        while received < n {
            let (i, value) = match results.try_recv() {
                Ok(result) => result,
                Err(TryRecvError::Empty) => match self.inner.pop() {
                    Some(job) => {
                        run(job);
                        continue;
                    }
                    None => match results.recv() {
                        Ok(result) => result,
                        Err(_) => break,
                    },
                },
                Err(TryRecvError::Disconnected) => break,
            };
            slots[i] = Some(value);
            received += 1;
        }
        slots
            .into_iter()
            .map(|slot| slot.expect("a shard task panicked"))
            .collect()
    }
}

impl Drop for ComputePool {
    fn drop(&mut self) {
        lock(&self.inner.queue).shutdown = true;
        self.inner.ready.notify_all();
        for handle in self.threads.drain(..) {
            let _ = handle.join();
        }
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

    #[test]
    fn a_poisoned_queue_still_runs_the_next_batch() {
        let pool = ComputePool::new(2);
        let inner = Arc::clone(&pool.inner);
        let holder = std::thread::spawn(move || {
            let _queue = inner.queue.lock();
            panic!("poisons the queue");
        });
        assert!(holder.join().is_err());
        assert!(pool.inner.queue.is_poisoned());
        let tasks: Vec<Box<dyn FnOnce() -> usize + Send>> = (0..8usize)
            .map(|i| Box::new(move || i + 1) as Box<dyn FnOnce() -> usize + Send>)
            .collect();
        assert_eq!(pool.run_all(tasks), (1..=8).collect::<Vec<_>>());
    }
}
