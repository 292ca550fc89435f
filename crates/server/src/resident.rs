//! The resident-shard LRU for snapshot-backed datasets: shards load
//! lazily on first touch (mapped partition → engine) and evict under
//! capacity pressure, so a server can register snapshots whose total
//! working set exceeds RAM and pay memory only for the partitions
//! queries actually hit.
//!
//! The `--resident-bytes` budget counts, per resident shard, the
//! columnar arena of the bin width the snapshot seeds, measured once at
//! publish. Those are **mapped** bytes — pages of the snapshot file the
//! kernel owns and may reclaim on its own — and so are the shard's raw
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
//! Loads are **singleflight**: concurrent queries racing a cold shard
//! block on one loader instead of duplicating the (CPU- and
//! memory-expensive) materialization — the same coalescing discipline
//! the query cache applies to identical queries. A loader that fails or
//! unwinds vacates its slot and wakes the waiters. Keys are
//! `(generation, shard slot)`, so a re-registered dataset can never be
//! served a predecessor's partitions; the catalog purges the stale
//! generation's residents on replacement.

use crate::error::ServerError;
use shapesearch_core::ShapeEngine;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

/// A point-in-time snapshot of the LRU's `/healthz` gauges.
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

/// One shard slot's residency state.
#[derive(Debug)]
enum Slot {
    /// Some thread is materializing the shard; waiters block on the
    /// condvar until it publishes (or fails and vacates the slot).
    Loading,
    /// The shard is resident. `touched` is the LRU clock tick of its
    /// last use; `bytes` is its columnar-arena footprint, measured once
    /// at publish time (the seeded width's arena; see the module doc).
    Ready {
        engine: Arc<ShapeEngine>,
        touched: u64,
        bytes: u64,
    },
}

#[derive(Debug, Default)]
struct Inner {
    /// Monotone use counter; bigger = more recently used.
    clock: u64,
    /// `(generation, shard slot)` → residency state.
    slots: HashMap<(u64, usize), Slot>,
}

/// The shared resident-shard LRU; one per catalog.
#[derive(Debug, Default)]
pub struct ResidentShards {
    /// Byte budget across all resident shards' columnar arenas
    /// (0 = unlimited). Eviction never goes below one resident shard,
    /// so a single shard bigger than the budget still serves.
    capacity_bytes: AtomicU64,
    inner: Mutex<Inner>,
    loaded: Condvar,
    loads: AtomicU64,
    evictions: AtomicU64,
    load_micros: AtomicU64,
}

/// Owns a slot's `Loading` entry while its loader runs outside the lock.
/// A loader that returns an error — or unwinds — never publishes, and
/// dropping the guard then vacates the slot and wakes the waiters, so one
/// of them becomes the next loader instead of inheriting the failure or
/// waiting for ever on a latch nobody will release.
struct VacateOnDrop<'a> {
    lru: &'a ResidentShards,
    key: (u64, usize),
    armed: bool,
}

impl Drop for VacateOnDrop<'_> {
    fn drop(&mut self) {
        if self.armed {
            // Never panics: this may run while the loader's panic unwinds.
            let mut inner = self.lru.inner.lock().unwrap_or_else(|e| e.into_inner());
            inner.slots.remove(&self.key);
            self.lru.loaded.notify_all();
        }
    }
}

impl ResidentShards {
    /// An empty LRU with no byte budget.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reconfigures the byte budget (0 = unlimited). Takes effect on the
    /// next load; already-resident shards are not proactively evicted.
    pub fn set_capacity_bytes(&self, capacity_bytes: u64) {
        self.capacity_bytes.store(capacity_bytes, Ordering::Relaxed);
    }

    /// A consistent snapshot of the gauges.
    pub fn stats(&self) -> ResidentStats {
        let inner = self.inner.lock().expect("resident lock");
        ResidentStats {
            resident: inner
                .slots
                .values()
                .filter(|s| matches!(s, Slot::Ready { .. }))
                .count(),
            resident_bytes: inner
                .slots
                .values()
                .map(|s| match s {
                    Slot::Ready { bytes, .. } => *bytes,
                    Slot::Loading => 0,
                })
                .sum(),
            capacity_bytes: self.capacity_bytes.load(Ordering::Relaxed),
            loads: self.loads.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            load_micros_total: self.load_micros.load(Ordering::Relaxed),
        }
    }

    /// Drops every resident shard of `generation` — called when a
    /// dataset re-registration replaces that generation, whose
    /// partitions must never be served again. In-flight loads of the
    /// stale generation are left to complete (their result is simply
    /// never touched again and ages out of the LRU).
    pub fn purge_generation(&self, generation: u64) {
        let mut inner = self.inner.lock().expect("resident lock");
        inner
            .slots
            .retain(|(gen, _), slot| *gen != generation || matches!(slot, Slot::Loading));
    }

    /// The shard for `key`, touching it in the LRU — loading it via
    /// `load` first if it is not resident. Exactly one caller runs the
    /// loader per cold slot; the rest block until it publishes. A failed
    /// load returns its error (or its panic) to the loader only and
    /// vacates the slot — a blocked waiter wakes, finds the slot empty,
    /// and becomes the next loader rather than inheriting a failure it
    /// can retry.
    ///
    /// # Errors
    /// Whatever `load` returns; the LRU adds nothing.
    pub fn get_or_load(
        &self,
        key: (u64, usize),
        load: impl FnOnce() -> Result<Arc<ShapeEngine>, ServerError>,
    ) -> Result<Arc<ShapeEngine>, ServerError> {
        let mut inner = self.inner.lock().expect("resident lock");
        loop {
            match inner.slots.get(&key) {
                Some(Slot::Ready { .. }) => {
                    inner.clock += 1;
                    let clock = inner.clock;
                    let Some(Slot::Ready {
                        engine, touched, ..
                    }) = inner.slots.get_mut(&key)
                    else {
                        unreachable!("checked above under the same lock hold");
                    };
                    *touched = clock;
                    return Ok(Arc::clone(engine));
                }
                Some(Slot::Loading) => {
                    inner = self.loaded.wait(inner).expect("resident lock");
                }
                None => {
                    inner.slots.insert(key, Slot::Loading);
                    break;
                }
            }
        }
        drop(inner);

        // The expensive part runs outside the lock: other slots stay
        // servable while this one materializes. Until the publish below
        // disarms it, the guard owns the `Loading` entry.
        let mut vacate = VacateOnDrop {
            lru: self,
            key,
            armed: true,
        };
        let started = Instant::now();
        let engine = load()?;
        let micros = started.elapsed().as_micros() as u64;

        let mut inner = self.inner.lock().expect("resident lock");
        self.loads.fetch_add(1, Ordering::Relaxed);
        self.load_micros.fetch_add(micros, Ordering::Relaxed);
        inner.clock += 1;
        let touched = inner.clock;
        // Measured once here: snapshot loads pre-seed the grouped arena,
        // so this is the shard's steady-state footprint.
        let bytes = engine.grouped_byte_size() as u64;
        inner.slots.insert(
            key,
            Slot::Ready {
                engine: Arc::clone(&engine),
                touched,
                bytes,
            },
        );
        vacate.armed = false;
        self.evict_over_capacity(&mut inner);
        self.loaded.notify_all();
        Ok(engine)
    }

    /// Evicts least-recently-touched **ready** shards until the resident
    /// byte sum fits the byte budget. `Loading` slots are never evicted
    /// (their loader holds no LRU position yet, and evicting one would
    /// strand its waiters). Eviction never goes below one resident
    /// shard: a single shard bigger than the whole budget must still
    /// serve.
    fn evict_over_capacity(&self, inner: &mut Inner) {
        let capacity_bytes = self.capacity_bytes.load(Ordering::Relaxed);
        if capacity_bytes == 0 {
            return;
        }
        loop {
            let ready = inner
                .slots
                .iter()
                .filter_map(|(key, slot)| match slot {
                    Slot::Ready { touched, bytes, .. } => Some((*touched, *key, *bytes)),
                    Slot::Loading => None,
                })
                .collect::<Vec<_>>();
            let total_bytes: u64 = ready.iter().map(|(_, _, bytes)| bytes).sum();
            if total_bytes <= capacity_bytes || ready.len() <= 1 {
                return;
            }
            let (_, coldest, _) = ready
                .into_iter()
                .min()
                .expect("non-empty: an over-budget set has at least one shard");
            inner.slots.remove(&coldest);
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shapesearch_datastore::Trendline;
    use std::sync::atomic::AtomicUsize;
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
        // A slot left `Loading` would park this second caller for ever;
        // the bounded wait turns that into a failure instead of a hang.
        let (tx, rx) = std::sync::mpsc::channel();
        let second = {
            let lru = Arc::clone(&lru);
            std::thread::spawn(move || tx.send(lru.get_or_load((1, 0), || Ok(demo_engine(0)))))
        };
        let loaded = rx
            .recv_timeout(std::time::Duration::from_secs(10))
            .expect("the panicked load left its slot `Loading`");
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
        lru.purge_generation(1);
        assert_eq!(lru.stats().resident, 1);
        // Generation 2 stays warm; generation 1 reloads cold.
        let loads = Arc::new(AtomicUsize::new(0));
        lru.get_or_load((2, 0), counting_loader(&loads, 0)).unwrap();
        assert_eq!(loads.load(Ordering::SeqCst), 0);
        lru.get_or_load((1, 0), counting_loader(&loads, 0)).unwrap();
        assert_eq!(loads.load(Ordering::SeqCst), 1);
    }
}
