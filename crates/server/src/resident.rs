//! The resident-shard cache for snapshot-backed datasets: shards load
//! lazily on first touch (mapped partition → engine) and evict under
//! capacity pressure, so a server can register snapshots whose total
//! working set exceeds RAM and pay memory only for the partitions
//! queries actually hit. It is the server's one [`Cache`], keyed on
//! `(generation, shard slot)` and weighed in bytes; this module is the
//! glue that turns a lookup into a load.
//!
//! The `--resident-bytes` budget counts, per resident shard, the
//! columnar arena of the bin width the snapshot seeds, measured once as
//! its load completes. Those are **mapped** bytes — pages of the snapshot
//! file the kernel owns and may reclaim on its own — and so are the raw
//! point columns, which the budget does not count (16 bytes a raw point,
//! a quarter of the counted arena at width 1). What a resident shard
//! holds on the heap, and what an eviction therefore frees at once, is
//! small and uncounted: its key strings, two offset vectors and one
//! handle per trendline; evicting also drops the shard's references to
//! the mapping, so its pages stop being touched. A query at another
//! `bin_width` makes the shard's engine GROUP that width from the mapped
//! raw columns into a heap arena the budget does not see — but an engine
//! keeps at most **one** such extra at a time (it drops the last before
//! building the next), so what escapes the budget is bounded by one more
//! arena per resident shard, no larger than the counted one when the
//! snapshot was written at the finest width (1, the default).
//!
//! Loads are the cache's singleflight: queries racing a cold shard share
//! one loader, and a loader that fails or unwinds wakes the others, the
//! next of whom loads. The catalog retires a replaced registration's
//! generation, so its shards go at once, and a load of it still running
//! hands its engine to its own callers but lands nothing — it can never
//! be served again, nor evict a live generation's shard.

use crate::cache::{Cache, Generational, Probe};
use crate::error::ServerError;
use shapesearch_core::ShapeEngine;
use std::sync::Arc;

/// A point-in-time snapshot of the cache's `/healthz` gauges.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ResidentStats {
    /// Shards currently resident (loaded and not evicted).
    pub resident: usize,
    /// Total columnar-arena bytes held by the resident shards.
    pub resident_bytes: u64,
    /// Configured byte budget (0 = unlimited).
    pub capacity_bytes: u64,
    /// Cold loads performed over the process lifetime.
    pub loads: u64,
    /// Shards evicted under capacity pressure.
    pub evictions: u64,
    /// Total microseconds spent in cold shard loads.
    pub load_micros_total: u64,
}

/// A residency key, `(generation, shard slot)`.
impl Generational for (u64, usize) {
    fn generation(&self) -> u64 {
        self.0
    }
}

/// The shared resident-shard cache; one per catalog.
#[derive(Debug)]
pub struct ResidentShards {
    cache: Cache<(u64, usize), Arc<ShapeEngine>>,
}

impl Default for ResidentShards {
    fn default() -> Self {
        Self {
            // Snapshot loads pre-seed the grouped arena, so this is the
            // shard's steady-state footprint.
            cache: Cache::weighted(0, |engine| engine.grouped_byte_size()),
        }
    }
}

impl ResidentShards {
    /// An empty cache with no byte budget.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reconfigures the byte budget (0 = unlimited), evicting down to it
    /// now. Eviction never goes below one resident shard, so a single
    /// shard bigger than the budget still serves.
    pub fn set_capacity_bytes(&self, capacity_bytes: u64) {
        self.cache
            .set_capacity(usize::try_from(capacity_bytes).unwrap_or(usize::MAX));
    }

    /// A consistent snapshot of the gauges.
    pub fn stats(&self) -> ResidentStats {
        let stats = self.cache.stats();
        ResidentStats {
            resident: stats.entries,
            resident_bytes: stats.weight as u64,
            capacity_bytes: stats.capacity as u64,
            loads: stats.completed,
            evictions: stats.evictions,
            load_micros_total: self.cache.lead_micros(),
        }
    }

    /// Retires `generation` — a dataset re-registration replaced it, and
    /// its partitions must never be served again: its resident shards go
    /// now, and loads of it still running land nothing.
    pub fn retire(&self, generation: u64) {
        self.cache.retire(generation);
    }

    /// The shard for `key`, touching it in the cache — loading it via
    /// `load` first if it is not resident. Exactly one caller runs the
    /// loader per cold slot; the rest wait for it. A failed load returns
    /// its error (or its panic) to the loader only — a waiter wakes, looks
    /// again, and becomes the next loader rather than inheriting a
    /// failure it can retry.
    ///
    /// # Errors
    /// Whatever `load` returns; the cache adds nothing.
    pub fn get_or_load(
        &self,
        key: (u64, usize),
        load: impl FnOnce() -> Result<Arc<ShapeEngine>, ServerError>,
    ) -> Result<Arc<ShapeEngine>, ServerError> {
        loop {
            match self.cache.lookup(&key) {
                Probe::Hit(engine) => return Ok(engine),
                Probe::Lead(leader) => {
                    let engine = load()?;
                    leader.complete(Arc::clone(&engine));
                    return Ok(engine);
                }
                Probe::Pending(waiter) => {
                    if let Some(engine) = waiter.wait() {
                        return Ok(engine);
                    }
                }
            }
        }
    }

    /// Poisons the cache's lock: a thread panics holding it.
    #[cfg(test)]
    pub(crate) fn poison(&self) {
        self.cache.poison();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shapesearch_datastore::Trendline;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Barrier;

    /// Warmed, like the snapshot load path produces: the byte budget
    /// measures the grouped arena, which a cold engine lacks.
    fn demo_engine(slot: usize) -> Arc<ShapeEngine> {
        let t = Trendline::from_pairs(
            format!("s{slot}"),
            &[(0.0, 0.0), (1.0, slot as f64 + 1.0), (2.0, 0.0)],
        );
        let engine = ShapeEngine::from_trendlines(vec![t]).with_base_index(slot);
        engine.warm(1);
        Arc::new(engine)
    }

    /// An empty LRU whose byte budget holds exactly `shards` demo engines
    /// (they are all the same size).
    fn lru_holding(shards: u64) -> ResidentShards {
        let per_shard = demo_engine(0).grouped_byte_size() as u64;
        assert!(per_shard > 0, "demo engine must have a measurable arena");
        let lru = ResidentShards::new();
        lru.set_capacity_bytes(per_shard * shards);
        lru
    }

    /// A loader that counts its invocations.
    fn counting_loader(
        counter: &Arc<AtomicUsize>,
        slot: usize,
    ) -> impl FnOnce() -> Result<Arc<ShapeEngine>, ServerError> {
        let counter = Arc::clone(counter);
        move || {
            counter.fetch_add(1, Ordering::SeqCst);
            Ok(demo_engine(slot))
        }
    }

    #[test]
    fn loads_once_then_serves_resident() {
        let lru = ResidentShards::new();
        let loads = Arc::new(AtomicUsize::new(0));
        let a = lru.get_or_load((1, 0), counting_loader(&loads, 0)).unwrap();
        let b = lru.get_or_load((1, 0), counting_loader(&loads, 0)).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "second touch must reuse the resident");
        assert_eq!(loads.load(Ordering::SeqCst), 1);
        let stats = lru.stats();
        assert_eq!(stats.resident, 1);
        assert_eq!(stats.loads, 1);
        assert_eq!(stats.evictions, 0);
    }

    #[test]
    fn evicts_least_recently_touched_first() {
        let lru = lru_holding(2);
        let loads = Arc::new(AtomicUsize::new(0));
        lru.get_or_load((1, 0), counting_loader(&loads, 0)).unwrap();
        lru.get_or_load((1, 1), counting_loader(&loads, 1)).unwrap();
        // Touch 0 so 1 is now the coldest…
        lru.get_or_load((1, 0), counting_loader(&loads, 0)).unwrap();
        // …and loading 2 must evict 1, not 0.
        lru.get_or_load((1, 2), counting_loader(&loads, 2)).unwrap();
        assert_eq!(loads.load(Ordering::SeqCst), 3);
        let stats = lru.stats();
        assert_eq!((stats.resident, stats.evictions), (2, 1));
        // 0 and 2 are warm (no new load); 1 is cold (one new load).
        lru.get_or_load((1, 0), counting_loader(&loads, 0)).unwrap();
        lru.get_or_load((1, 2), counting_loader(&loads, 2)).unwrap();
        assert_eq!(loads.load(Ordering::SeqCst), 3);
        lru.get_or_load((1, 1), counting_loader(&loads, 1)).unwrap();
        assert_eq!(loads.load(Ordering::SeqCst), 4);
    }

    #[test]
    fn reload_after_eviction_answers_identically() {
        let q = shapesearch_parser::parse_regex("[p=up][p=down]").unwrap();
        let lru = lru_holding(1);
        let first = lru.get_or_load((7, 3), || Ok(demo_engine(3))).unwrap();
        let want = first.top_k(&q, 1).unwrap();
        // Push it out, then reload the same deterministic partition.
        lru.get_or_load((7, 4), || Ok(demo_engine(4))).unwrap();
        assert_eq!(lru.stats().evictions, 1);
        let again = lru.get_or_load((7, 3), || Ok(demo_engine(3))).unwrap();
        assert!(!Arc::ptr_eq(&first, &again), "must be a fresh load");
        let got = again.top_k(&q, 1).unwrap();
        assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(&want) {
            assert_eq!(g.key, w.key);
            assert_eq!(g.viz_index, w.viz_index);
            assert_eq!(g.score.to_bits(), w.score.to_bits());
            assert_eq!(g.ranges, w.ranges);
        }
    }

    #[test]
    fn concurrent_cold_touch_loads_exactly_once() {
        const THREADS: usize = 8;
        let lru = Arc::new(lru_holding(1));
        let loads = Arc::new(AtomicUsize::new(0));
        let gate = Arc::new(Barrier::new(THREADS));
        let engines: Vec<Arc<ShapeEngine>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..THREADS)
                .map(|_| {
                    let lru = Arc::clone(&lru);
                    let loads = Arc::clone(&loads);
                    let gate = Arc::clone(&gate);
                    scope.spawn(move || {
                        gate.wait();
                        lru.get_or_load((1, 0), move || {
                            loads.fetch_add(1, Ordering::SeqCst);
                            // Widen the race window: waiters must block,
                            // not spawn their own loads.
                            std::thread::sleep(std::time::Duration::from_millis(20));
                            Ok(demo_engine(0))
                        })
                        .unwrap()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(loads.load(Ordering::SeqCst), 1, "singleflight violated");
        for e in &engines[1..] {
            assert!(Arc::ptr_eq(&engines[0], e));
        }
        assert_eq!(lru.stats().loads, 1);
    }

    #[test]
    fn failed_load_vacates_the_slot_for_retry() {
        let lru = ResidentShards::new();
        let err = lru
            .get_or_load((1, 0), || Err(ServerError::internal("disk on fire")))
            .unwrap_err();
        assert_eq!(err.status, 500);
        assert_eq!(lru.stats().loads, 0);
        // The failure did not wedge the slot: the next touch loads.
        let loads = Arc::new(AtomicUsize::new(0));
        lru.get_or_load((1, 0), counting_loader(&loads, 0)).unwrap();
        assert_eq!(loads.load(Ordering::SeqCst), 1);
    }

    /// "Request N panics, request N+1 answers", for the latch a snapshot
    /// shard loads under.
    #[test]
    fn panicking_loader_vacates_the_slot_for_the_next_caller() {
        let lru = Arc::new(ResidentShards::new());
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            lru.get_or_load((1, 0), || panic!("loader blew up"))
        }));
        assert!(unwound.is_err());
        assert_eq!(lru.stats().loads, 0);
        // A flight left pending would park this second caller for ever;
        // the bounded wait turns that into a failure instead of a hang.
        let (tx, rx) = std::sync::mpsc::channel();
        let second = {
            let lru = Arc::clone(&lru);
            std::thread::spawn(move || tx.send(lru.get_or_load((1, 0), || Ok(demo_engine(0)))))
        };
        let loaded = rx
            .recv_timeout(std::time::Duration::from_secs(10))
            .expect("the panicked load left its flight pending");
        second.join().unwrap().unwrap();
        assert_eq!(loaded.unwrap().base_index(), 0);
        let stats = lru.stats();
        assert_eq!((stats.resident, stats.loads), (1, 1));
    }

    #[test]
    fn byte_budget_evicts_coldest_but_never_the_last_resident() {
        // Budget for exactly two shards: the third load evicts the coldest.
        let lru = lru_holding(2);
        lru.get_or_load((1, 0), || Ok(demo_engine(0))).unwrap();
        lru.get_or_load((1, 1), || Ok(demo_engine(1))).unwrap();
        assert_eq!(lru.stats().evictions, 0);
        // Touch 0 so 1 is the coldest…
        lru.get_or_load((1, 0), || Ok(demo_engine(0))).unwrap();
        lru.get_or_load((1, 2), || Ok(demo_engine(2))).unwrap();
        let stats = lru.stats();
        assert_eq!((stats.resident, stats.evictions), (2, 1));
        assert!(stats.resident_bytes <= stats.capacity_bytes);
        // …so 0 stays warm and 1 went cold.
        let loads = Arc::new(AtomicUsize::new(0));
        lru.get_or_load((1, 0), counting_loader(&loads, 0)).unwrap();
        assert_eq!(loads.load(Ordering::SeqCst), 0);
        lru.get_or_load((1, 1), counting_loader(&loads, 1)).unwrap();
        assert_eq!(loads.load(Ordering::SeqCst), 1);
        // A budget smaller than any single shard keeps exactly one
        // resident rather than thrashing to zero.
        lru.set_capacity_bytes(1);
        lru.get_or_load((1, 3), || Ok(demo_engine(3))).unwrap();
        let stats = lru.stats();
        assert_eq!(stats.resident, 1);
        assert!(stats.resident_bytes > stats.capacity_bytes);
    }

    #[test]
    fn purge_generation_drops_only_that_generation() {
        let lru = ResidentShards::new();
        lru.get_or_load((1, 0), || Ok(demo_engine(0))).unwrap();
        lru.get_or_load((2, 0), || Ok(demo_engine(0))).unwrap();
        assert_eq!(lru.stats().resident, 2);
        lru.retire(1);
        assert_eq!(lru.stats().resident, 1);
        // Generation 2 stays warm; generation 1 reloads cold.
        let loads = Arc::new(AtomicUsize::new(0));
        lru.get_or_load((2, 0), counting_loader(&loads, 0)).unwrap();
        assert_eq!(loads.load(Ordering::SeqCst), 0);
        lru.get_or_load((1, 0), counting_loader(&loads, 0)).unwrap();
        assert_eq!(loads.load(Ordering::SeqCst), 1);
    }

    /// A load of generation 1 still running when it is retired finishes
    /// after generation 2's shard has loaded: under a one-shard budget it
    /// must land nothing, so the live shard is neither evicted nor loaded
    /// again.
    #[test]
    fn stale_generation_load_never_evicts_a_live_shard() {
        let lru = lru_holding(1);
        let per_shard = demo_engine(0).grouped_byte_size() as u64;
        let (started_tx, started) = std::sync::mpsc::channel();
        let (release, release_rx) = std::sync::mpsc::channel::<()>();
        let live_loads = Arc::new(AtomicUsize::new(0));
        std::thread::scope(|scope| {
            let stale = scope.spawn(|| {
                lru.get_or_load((1, 0), move || {
                    started_tx.send(()).unwrap();
                    release_rx.recv().unwrap();
                    Ok(demo_engine(0))
                })
            });
            started.recv().unwrap();
            lru.retire(1);
            lru.get_or_load((2, 0), counting_loader(&live_loads, 0))
                .unwrap();
            release.send(()).unwrap();
            // The straggler's own caller still gets its engine.
            assert_eq!(stale.join().unwrap().unwrap().base_index(), 0);
        });
        lru.get_or_load((2, 0), counting_loader(&live_loads, 0))
            .unwrap();
        assert_eq!(live_loads.load(Ordering::SeqCst), 1, "{:?}", lru.stats());
        let stats = lru.stats();
        assert_eq!((stats.resident, stats.evictions), (1, 0), "{stats:?}");
        assert_eq!(stats.resident_bytes, per_shard, "{stats:?}");

        // A straggler that starts a generation-1 load after the retire
        // gets its engine back, and nothing of it stays resident.
        let stale_loads = Arc::new(AtomicUsize::new(0));
        for _ in 0..2 {
            let engine = lru
                .get_or_load((1, 0), counting_loader(&stale_loads, 0))
                .unwrap();
            assert_eq!(engine.base_index(), 0);
        }
        assert_eq!(stale_loads.load(Ordering::SeqCst), 2);
        lru.get_or_load((2, 0), counting_loader(&live_loads, 0))
            .unwrap();
        assert_eq!(live_loads.load(Ordering::SeqCst), 1);
        let stats = lru.stats();
        assert_eq!((stats.resident, stats.evictions), (1, 0), "{stats:?}");
        assert_eq!(stats.resident_bytes, per_shard, "{stats:?}");
    }
}
