//! The server's one cache, used once: query results ([`QueryCache`]).
//!
//! A [`Cache`] is an LRU (a map plus an index of last-use ticks), a
//! singleflight latch per key being computed, the registration generations
//! retired so far, and the counters — all behind **one** mutex, so
//! [`Cache::lookup`] decides hit, lead or wait in one critical section and
//! [`Cache::stats`] is a consistent snapshot (`hits + misses + coalesced ==
//! lookups`, in every snapshot).
//!
//! * **Singleflight.** A miss elects its caller leader ([`Probe::Lead`]): it
//!   computes, then [`Leader::complete`]s, which inserts the value and wakes
//!   every racer that was handed a [`Waiter`] meanwhile — a stampede of N
//!   identical cold queries does the work once. A leader dropped without completing (an error, an unwind)
//!   publishes a failure: its waiters get `None` and look the key up again.
//! * **Capacity.** A count of entries, at least one; an insert evicts from
//!   the cold end while there are more.
//! * **Retirement.** Every key carries the registration generation its value
//!   was computed under ([`Generational`]). [`Cache::retire`] drops a
//!   replaced registration's entries and refuses later inserts for it, so a
//!   flight still running when its dataset is re-registered wakes its
//!   waiters but lands nothing — it can neither be served again nor evict a
//!   live entry.
//! * **Poison.** The map lock and every flight latch recover from poison.
//!   Nothing foreign runs under either: displaced values are dropped
//!   outside the lock. So a panic elsewhere cannot leave
//!   what they guard half-updated, and a leader unwinding through its drop
//!   still releases its waiters.
//!
//! Repeated exploratory queries — the dominant pattern in shape-based
//! exploration, where a user reissues near-identical ShapeQueries while
//! tweaking k or switching datasets — skip segmentation entirely on a hit.

use crate::protocol::{self, Route};
use shapesearch_core::{EngineOptions, TopKResult};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt::{self, Write as _};
use std::hash::Hash;
use std::sync::{
    Arc, Condvar, Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard,
};

/// A least-recently-used map: each entry keeps the tick of its last use,
/// and `ticks` indexes the live ticks, coldest first. `get` moves one tick;
/// `insert` evicts the coldest entry while there are more than `capacity`
/// (at least one). Each is O(log capacity). Nothing displaced stays
/// behind: evicted, replaced and retained-away entries are handed back to
/// the caller, who chooses where they drop.
struct LruCache<K, V> {
    map: HashMap<K, (V, u64)>,
    ticks: BTreeMap<u64, K>,
    /// The last tick handed out.
    tick: u64,
    capacity: usize,
}

impl<K: Eq + Hash + Clone, V> LruCache<K, V> {
    fn new(capacity: usize) -> Self {
        Self {
            map: HashMap::new(),
            ticks: BTreeMap::new(),
            tick: 0,
            capacity: capacity.max(1),
        }
    }

    /// Fetches a value, marking it most recently used.
    fn get(&mut self, key: &K) -> Option<&V> {
        let (value, last) = self.map.get_mut(key)?;
        let owned = self.ticks.remove(last).expect("live tick");
        self.tick += 1;
        *last = self.tick;
        self.ticks.insert(self.tick, owned);
        Some(value)
    }

    /// Inserts (or replaces) `key`, then evicts down to the capacity.
    /// Returns what it displaced: the key's old entry if it had one, then
    /// the evicted ones, coldest first.
    fn insert(&mut self, key: K, value: V) -> Vec<(K, V)> {
        self.tick += 1;
        let mut displaced = Vec::new();
        if let Some((old, last)) = self.map.insert(key.clone(), (value, self.tick)) {
            displaced.push((self.ticks.remove(&last).expect("live tick"), old));
        }
        self.ticks.insert(self.tick, key);
        while self.map.len() > self.capacity {
            let (_, coldest) = self.ticks.pop_first().expect("a tick per entry");
            let (value, _) = self.map.remove(&coldest).expect("an entry per tick");
            displaced.push((coldest, value));
        }
        displaced
    }

    /// Removes every entry whose key fails `keep`, and returns them.
    fn retain(&mut self, mut keep: impl FnMut(&K) -> bool) -> Vec<(K, V)> {
        let ticks = &mut self.ticks;
        self.map
            .extract_if(|key, _| !keep(key))
            .map(|(key, (value, last))| {
                ticks.remove(&last);
                (key, value)
            })
            .collect()
    }

    /// Keys from most to least recently used.
    #[cfg(test)]
    fn keys_by_recency(&self) -> Vec<K> {
        self.ticks.values().rev().cloned().collect()
    }
}

/// A key [`Cache::retire`] can act on: stamped with the dataset
/// registration generation its value was computed under.
pub trait Generational: Eq + Hash + Clone {
    /// The registration generation the key belongs to.
    fn generation(&self) -> u64;
}

/// The cache key. The query component is the *canonical* rendering of the
/// parsed AST (`ShapeQuery`'s `Display`), so textual variants of the same
/// query — extra whitespace, NL phrasings that translate to the same AST,
/// sugared regex forms — all hit the same entry. `generation` is the
/// dataset's registration counter: re-registering an id bumps it, so a
/// slow in-flight query against the replaced engine can never poison the
/// new dataset's keyspace with stale results. The options component
/// fingerprints every engine knob that can change results.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// Dataset id the query ran against.
    pub dataset: String,
    /// The dataset's registration generation at planning time.
    pub generation: u64,
    /// The registration's shard count. Sharded execution is
    /// result-identical for every shard count, and a re-registration
    /// already bumps `generation` — carrying the shard count anyway makes
    /// "a new shard count can never serve another layout's cached bytes"
    /// structural rather than an indirect consequence.
    pub shards: usize,
    /// The registration's placement fingerprint (one `local`-or-endpoint
    /// token per shard; [`crate::catalog::DatasetEntry::placement_fp`]).
    /// Like `shards`, the generation bump already isolates
    /// re-registrations — carrying the placement makes "re-pointing a
    /// shard at a different endpoint can never serve bytes computed
    /// under the old placement" structural.
    pub placement: String,
    /// Canonical rendering of the parsed query AST.
    pub query_canon: String,
    /// Requested result count.
    pub k: usize,
    /// Fingerprint of every result-affecting engine option.
    pub options_fp: String,
}

impl CacheKey {
    /// Assembles the key for one planned query.
    pub fn new(
        dataset: &str,
        generation: u64,
        shards: usize,
        placement: &str,
        query: &shapesearch_core::ShapeQuery,
        k: usize,
        options: &EngineOptions,
    ) -> Self {
        Self {
            dataset: dataset.to_owned(),
            generation,
            shards,
            placement: placement.to_owned(),
            query_canon: query.to_string(),
            k,
            options_fp: options_fingerprint(options),
        }
    }
}

impl Generational for CacheKey {
    fn generation(&self) -> u64 {
        self.generation
    }
}

/// A deterministic fingerprint of every result-affecting engine option:
/// the cache-key rows of `protocol`'s option table. The pruning mode is
/// not among them — it never changes results — and neither are the
/// inert `parallel` and `parallel_threshold`, which nothing reads.
pub fn options_fingerprint(o: &EngineOptions) -> String {
    let mut fingerprint = String::with_capacity(192);
    for (key, slot) in protocol::options_on(&mut o.clone(), Route::Key) {
        let _ = write!(fingerprint, "{key}={slot};");
    }
    fingerprint
}

/// A consistent snapshot of a [`Cache`]'s counters and occupancy: `GET
/// /healthz`'s `cache` block. Every counted operation updates them inside
/// the cache's one critical section, so `hits + misses + coalesced ==
/// lookups` holds in every snapshot — never only between updates, as it
/// would with independently loaded atomics.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct CacheStats {
    /// Counted lookups (always exactly `hits + misses + coalesced`).
    pub lookups: u64,
    /// Lookups answered straight from the LRU.
    pub hits: u64,
    /// Lookups that found nothing and elected a singleflight leader.
    pub misses: u64,
    /// Lookups that joined another request's in-flight computation
    /// instead of recomputing (the stampede that used to be N misses is
    /// now 1 miss + N−1 coalesced).
    pub coalesced: u64,
    /// Live entries in the LRU.
    pub entries: usize,
    /// LRU capacity in entries.
    pub capacity: usize,
}

/// Locks `mutex`, recovering it from poison: the server's one lock
/// policy for a mutex that guards plain data no panic can leave
/// half-updated — the cache's map and latches (nothing foreign runs under
/// them, see the module doc), the compute pool's queue, batch latches
/// and result slots, the catalog's registry table, and the shard client's
/// endpoint health and idle connections.
pub(crate) fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// [`lock`]'s policy for a reader of an `RwLock` over plain data: the
/// catalog's dataset map.
pub(crate) fn read<T>(rwlock: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    rwlock.read().unwrap_or_else(PoisonError::into_inner)
}

/// [`lock`]'s policy for a writer of an `RwLock` over plain data.
pub(crate) fn write<T>(rwlock: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    rwlock.write().unwrap_or_else(PoisonError::into_inner)
}

/// The latch one leader and any number of waiters rendezvous on: `None`
/// while the leader runs, then what it published — `Some(value)`, or
/// `None` for a failure.
struct Flight<V> {
    outcome: Mutex<Option<Option<V>>>,
    landed: Condvar,
}

impl<V> Flight<V> {
    fn publish(&self, outcome: Option<V>) {
        *lock(&self.outcome) = Some(outcome);
        self.landed.notify_all();
    }
}

/// The waiter side of a coalesced lookup.
pub struct Waiter<V> {
    flight: Arc<Flight<V>>,
}

impl<V: Clone> Waiter<V> {
    /// Blocks until the leader publishes. Returns its value, or `None` when
    /// the leader failed (or panicked) — the caller should then look the
    /// key up again.
    pub fn wait(self) -> Option<V> {
        let outcome = self
            .flight
            .landed
            .wait_while(lock(&self.flight.outcome), |outcome| outcome.is_none())
            .unwrap_or_else(PoisonError::into_inner);
        (*outcome).clone().flatten()
    }
}

/// The leader side of a singleflight: the one caller that must compute the
/// key's value and hand it over with [`Leader::complete`]. Dropping it
/// without completing — an error path, or a panic unwinding through the
/// caller — publishes a failure, so waiters never block for ever.
pub struct Leader<'a, K: Generational, V: Clone> {
    cache: &'a Cache<K, V>,
    key: K,
    flight: Arc<Flight<V>>,
    done: bool,
}

impl<K: Generational, V: Clone> Leader<'_, K, V> {
    /// Publishes the computed value: inserts it under the flight's key —
    /// unless the key's generation was retired meanwhile — and wakes every
    /// waiter with it.
    pub fn complete(mut self, value: V) {
        let displaced = {
            let mut map = self.cache.lock();
            map.flights.remove(&self.key);
            map.admit(self.key.clone(), value.clone())
        };
        self.done = true;
        self.flight.publish(Some(value));
        // Off the lock, and after the waiters are on their way.
        drop(displaced);
    }
}

impl<K: Generational, V: Clone> Drop for Leader<'_, K, V> {
    fn drop(&mut self) {
        if !self.done {
            self.cache.lock().flights.remove(&self.key);
            self.flight.publish(None);
        }
    }
}

/// Outcome of a [`Cache::lookup`].
pub enum Probe<'a, K: Generational, V: Clone> {
    /// The LRU had it.
    Hit(V),
    /// Another caller is computing this exact key right now; call
    /// [`Waiter::wait`] to share its value.
    Pending(Waiter<V>),
    /// Nobody has it and nobody is computing it: the caller is elected
    /// leader and must compute, then [`Leader::complete`].
    Lead(Leader<'a, K, V>),
}

/// What [`Cache`]'s one mutex guards.
struct Map<K, V> {
    lru: LruCache<K, V>,
    flights: HashMap<K, Arc<Flight<V>>>,
    /// Generations [`Cache::retire`] was called with; inserts keyed on one
    /// are refused. One `u64` per re-registration in the process's life.
    retired: HashSet<u64>,
    /// The counted events; the occupancy fields are read off the LRU at
    /// snapshot time.
    counts: CacheStats,
}

impl<K: Generational, V> Map<K, V> {
    /// Inserts unless the key's generation is retired, and returns what
    /// that displaced (the refused entry itself, when it was).
    fn admit(&mut self, key: K, value: V) -> Vec<(K, V)> {
        if self.retired.contains(&key.generation()) {
            return vec![(key, value)];
        }
        self.lru.insert(key, value)
    }
}

/// The server's one cache; see the module doc.
pub struct Cache<K, V> {
    map: Mutex<Map<K, V>>,
}

impl<K: Generational, V: Clone> Cache<K, V> {
    /// An empty cache holding at most `capacity` entries (at least one).
    pub fn new(capacity: usize) -> Self {
        Self {
            map: Mutex::new(Map {
                lru: LruCache::new(capacity),
                flights: HashMap::new(),
                retired: HashSet::new(),
                counts: CacheStats::default(),
            }),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Map<K, V>> {
        lock(&self.map)
    }

    /// The coalescing lookup, in one critical section: a hit returns the
    /// value; a miss either elects this caller singleflight leader
    /// ([`Probe::Lead`] — compute, then [`Leader::complete`]) or, when the
    /// key is already being computed, returns a [`Probe::Pending`] waiter
    /// that shares the leader's value. Exactly one of `hits`, `misses` or
    /// `coalesced` is incremented per call, with `lookups`.
    pub fn lookup(&self, key: &K) -> Probe<'_, K, V> {
        let mut map = self.lock();
        map.counts.lookups += 1;
        if let Some(value) = map.lru.get(key).cloned() {
            map.counts.hits += 1;
            return Probe::Hit(value);
        }
        if let Some(flight) = map.flights.get(key).cloned() {
            map.counts.coalesced += 1;
            return Probe::Pending(Waiter { flight });
        }
        map.counts.misses += 1;
        let flight = Arc::new(Flight {
            outcome: Mutex::new(None),
            landed: Condvar::new(),
        });
        map.flights.insert(key.clone(), Arc::clone(&flight));
        drop(map);
        Probe::Lead(Leader {
            cache: self,
            key: key.clone(),
            flight,
            done: false,
        })
    }

    /// Inserts a value computed outside the singleflight (a leader hands
    /// its value over with [`Leader::complete`]). Refused for a retired
    /// generation: it could never be read, and would evict live entries.
    pub fn insert(&self, key: K, value: V) {
        let displaced = self.lock().admit(key, value);
        drop(displaced);
    }

    /// Retires a replaced registration's generation: drops its entries now
    /// and refuses its inserts from here on. Its flights still running are
    /// left to finish and wake their waiters; what they computed is not
    /// kept.
    pub fn retire(&self, generation: u64) {
        let retired = {
            let mut map = self.lock();
            map.retired.insert(generation);
            map.lru.retain(|key| key.generation() != generation)
        };
        drop(retired);
    }

    /// A consistent snapshot of the counters and occupancy: one lock
    /// acquisition reads them all.
    pub fn stats(&self) -> CacheStats {
        let map = self.lock();
        CacheStats {
            entries: map.lru.map.len(),
            capacity: map.lru.capacity,
            ..map.counts.clone()
        }
    }
}

impl<K: Generational, V: Clone> fmt::Debug for Cache<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("Cache").field(&self.stats()).finish()
    }
}

/// What the query cache holds: one query's shared, merged top-k.
type Results = Arc<Vec<TopKResult>>;

/// The query-result cache: [`Cache`] over [`CacheKey`]s.
pub type QueryCache = Cache<CacheKey, Results>;
/// Outcome of a [`QueryCache`] lookup.
pub type Lookup<'a> = Probe<'a, CacheKey, Results>;
/// A query's singleflight leader.
pub type FlightGuard<'a> = Leader<'a, CacheKey, Results>;
/// A query's coalesced waiter.
pub type FlightWaiter = Waiter<Results>;

#[cfg(test)]
impl<K: Generational, V: Clone> Cache<K, V> {
    /// Looks up without joining or starting a flight, counting the hit or
    /// miss.
    fn get(&self, key: &K) -> Option<V> {
        let mut map = self.lock();
        map.counts.lookups += 1;
        let value = map.lru.get(key).cloned();
        match value {
            Some(_) => map.counts.hits += 1,
            None => map.counts.misses += 1,
        }
        value
    }

    /// Poisons the map lock: a thread panics holding it.
    pub(crate) fn poison(&self)
    where
        K: Send,
        V: Send,
    {
        poison(&self.map);
    }
}

/// Poisons `mutex` from a thread that panics while holding it.
#[cfg(test)]
fn poison<T: Send>(mutex: &Mutex<T>) {
    std::thread::scope(|scope| {
        let held = scope.spawn(|| {
            let _held = mutex.lock();
            panic!("poisoning a cache lock");
        });
        assert!(held.join().is_err());
    });
    assert!(mutex.is_poisoned());
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use shapesearch_core::SegmenterKind;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Weak;

    #[test]
    fn lru_evicts_coldest_first() {
        let mut lru = LruCache::new(3);
        assert!(lru.insert("a", 1).is_empty());
        assert!(lru.insert("b", 2).is_empty());
        assert!(lru.insert("c", 3).is_empty());
        // Touch "a" so "b" becomes the coldest.
        assert_eq!(lru.get(&"a"), Some(&1));
        assert_eq!(lru.insert("d", 4), [("b", 2)]);
        assert_eq!(lru.get(&"b"), None);
        assert_eq!(lru.keys_by_recency(), vec!["d", "a", "c"]);
        // Two more inserts evict "c" then "a".
        assert_eq!(lru.insert("e", 5), [("c", 3)]);
        assert_eq!(lru.insert("f", 6), [("a", 1)]);
        assert_eq!(lru.map.len(), 3);
        assert_eq!(lru.keys_by_recency(), vec!["f", "e", "d"]);
    }

    #[test]
    fn lru_replacing_does_not_evict() {
        let mut lru = LruCache::new(2);
        lru.insert("a", 1);
        lru.insert("b", 2);
        // Only the replaced value comes back.
        assert_eq!(lru.insert("a", 10), [("a", 1)]);
        assert_eq!(lru.get(&"a"), Some(&10));
        assert_eq!(lru.get(&"b"), Some(&2));
    }

    #[test]
    fn lru_single_slot() {
        let mut lru = LruCache::new(1);
        lru.insert(1, "x");
        assert_eq!(lru.insert(2, "y"), [(1, "x")]);
        assert_eq!(lru.get(&1), None);
        assert_eq!(lru.get(&2), Some(&"y"));
    }

    #[test]
    fn lru_retain_unlinks_cleanly() {
        let mut lru = LruCache::new(4);
        for i in 0..4 {
            lru.insert(i, i * 10);
        }
        lru.retain(|&k| k % 2 == 0);
        assert_eq!(lru.map.len(), 2);
        assert_eq!(lru.get(&1), None);
        assert_eq!(lru.get(&2), Some(&20));
        // The list is still sound: inserts + eviction keep working.
        lru.insert(8, 80);
        lru.insert(9, 90);
        lru.insert(10, 100);
        assert_eq!(lru.map.len(), 4);
    }

    #[test]
    fn eviction_and_retain_drop_values_immediately() {
        let mut lru: LruCache<&str, Arc<Vec<u8>>> = LruCache::new(2);
        let a = Arc::new(vec![1u8; 16]);
        let weak_a: Weak<Vec<u8>> = Arc::downgrade(&a);
        lru.insert("a", a);
        lru.insert("b", Arc::new(Vec::new()));
        // Evicting "a" hands back the only strong reference, so it is
        // released when the caller drops it, not when the slot is reused.
        let evicted = lru.insert("c", Arc::new(Vec::new()));
        assert_eq!(evicted.iter().map(|(k, _)| *k).collect::<Vec<_>>(), ["a"]);
        drop(evicted);
        assert!(weak_a.upgrade().is_none(), "evicted value still alive");

        let b_weak = {
            let b = lru.get(&"b").unwrap();
            Arc::downgrade(b)
        };
        lru.retain(|&k| k != "b");
        assert!(
            b_weak.upgrade().is_none(),
            "retained-away value still alive"
        );
    }

    #[test]
    fn cache_key_normalizes_query_text() {
        let opts = EngineOptions::default();
        let a = shapesearch_parser::parse_regex("[p=up][p=down]").unwrap();
        let b = shapesearch_parser::parse_regex(" [ p = up ] [ p = down ] ").unwrap();
        let ka = CacheKey::new("ds1", 1, 1, "local", &a, 5, &opts);
        let kb = CacheKey::new("ds1", 1, 1, "local", &b, 5, &opts);
        assert_eq!(ka, kb, "whitespace variants must share one cache entry");
        // Different k, dataset, generation, or algorithm each split the key.
        assert_ne!(ka, CacheKey::new("ds1", 1, 1, "local", &a, 6, &opts));
        assert_ne!(ka, CacheKey::new("ds2", 1, 1, "local", &a, 5, &opts));
        assert_ne!(ka, CacheKey::new("ds1", 2, 1, "local", &a, 5, &opts));
        let dp = EngineOptions {
            segmenter: SegmenterKind::Dp,
            ..EngineOptions::default()
        };
        assert_ne!(ka, CacheKey::new("ds1", 1, 1, "local", &a, 5, &dp));
        // A different shard layout also splits the key (belt and braces:
        // re-registration already bumps the generation).
        assert_ne!(ka, CacheKey::new("ds1", 1, 4, "local", &a, 5, &opts));
    }

    #[test]
    fn options_fingerprint_ignores_parallel_threshold_but_not_params() {
        let a = EngineOptions::default();
        let b = EngineOptions {
            parallel_threshold: 7,
            ..EngineOptions::default()
        };
        // The inert fields share a fingerprint…
        assert_eq!(options_fingerprint(&a), options_fingerprint(&b));
        // …but result-affecting scoring parameters do not.
        let mut c = EngineOptions::default();
        c.params.min_width_frac = 0.2;
        assert_ne!(options_fingerprint(&a), options_fingerprint(&c));
    }

    #[test]
    fn stats_snapshots_are_always_mutually_consistent() {
        // Hammer the counted paths from several threads while a reader
        // snapshots continuously: with counters bumped under one lock,
        // every snapshot must satisfy hits + misses + coalesced ==
        // lookups exactly — independently loaded atomics would tear.
        let cache = Arc::new(QueryCache::new(8));
        let q = shapesearch_parser::parse_regex("[p=up]").unwrap();
        let present = CacheKey::new("sales", 1, 1, "local", &q, 3, &EngineOptions::default());
        cache.insert(present.clone(), Arc::new(Vec::new()));
        let absent = CacheKey::new("sales", 1, 1, "local", &q, 4, &EngineOptions::default());

        let stop = Arc::new(AtomicU64::new(0));
        std::thread::scope(|scope| {
            for _ in 0..3 {
                let cache = Arc::clone(&cache);
                let stop = Arc::clone(&stop);
                let present = present.clone();
                let absent = absent.clone();
                scope.spawn(move || {
                    while stop.load(Ordering::Relaxed) == 0 {
                        let _ = cache.get(&present);
                        let _ = cache.get(&absent);
                        if let Lookup::Lead(guard) = cache.lookup(&absent) {
                            drop(guard);
                        }
                    }
                });
            }
            let cache = Arc::clone(&cache);
            let stop_flag = Arc::clone(&stop);
            scope.spawn(move || {
                // At least 2,000 snapshots — and, on a box with fewer
                // cores than threads, as many more as it takes for the
                // hammering threads to have been scheduled at all.
                let mut snapshots = 0;
                loop {
                    let s = cache.stats();
                    assert_eq!(
                        s.hits + s.misses + s.coalesced,
                        s.lookups,
                        "torn counter snapshot: {s:?}"
                    );
                    snapshots += 1;
                    if snapshots >= 2000 && s.hits > 0 && s.misses > 0 {
                        break;
                    }
                }
                stop_flag.store(1, Ordering::Relaxed);
            });
        });
        let s = cache.stats();
        assert!(s.lookups > 0 && s.hits > 0 && s.misses > 0);
    }

    #[test]
    fn options_fingerprint_ignores_parallel() {
        let seq = EngineOptions::default();
        let par = EngineOptions {
            parallel: true,
            ..EngineOptions::default()
        };
        assert_eq!(options_fingerprint(&seq), options_fingerprint(&par));
    }

    #[test]
    fn singleflight_collapses_concurrent_identical_misses() {
        let cache = Arc::new(QueryCache::new(8));
        let q = shapesearch_parser::parse_regex("[p=up]").unwrap();
        let key = CacheKey::new("sales", 1, 1, "local", &q, 3, &EngineOptions::default());
        let n = 8;
        let computations = Arc::new(AtomicU64::new(0));

        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..n)
                .map(|_| {
                    let cache = Arc::clone(&cache);
                    let key = key.clone();
                    let computations = Arc::clone(&computations);
                    scope.spawn(move || match cache.lookup(&key) {
                        Lookup::Hit(v) => v,
                        Lookup::Pending(waiter) => waiter.wait().expect("leader succeeded"),
                        Lookup::Lead(guard) => {
                            // Linger so the other threads pile up on the latch.
                            std::thread::sleep(std::time::Duration::from_millis(30));
                            computations.fetch_add(1, Ordering::Relaxed);
                            let value = Arc::new(Vec::new());
                            guard.complete(Arc::clone(&value));
                            value
                        }
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
        });

        assert_eq!(
            computations.load(Ordering::Relaxed),
            1,
            "exactly one leader computes"
        );
        let stats = cache.stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits + stats.coalesced, n - 1);
        assert!(stats.coalesced >= 1, "some thread must have coalesced");
        // The flight is over: the next lookup is a plain hit.
        assert!(matches!(cache.lookup(&key), Lookup::Hit(_)));
        assert!(cache.map.lock().unwrap().flights.is_empty());
    }

    #[test]
    fn dropped_leader_wakes_waiters_with_failure() {
        let cache = QueryCache::new(4);
        let q = shapesearch_parser::parse_regex("[p=down]").unwrap();
        let key = CacheKey::new("sales", 1, 1, "local", &q, 1, &EngineOptions::default());
        let Lookup::Lead(guard) = cache.lookup(&key) else {
            panic!("first lookup must lead");
        };
        let Lookup::Pending(waiter) = cache.lookup(&key) else {
            panic!("second lookup must coalesce");
        };
        drop(guard); // error path: leader never completed
        assert!(waiter.wait().is_none(), "waiters see the failure");
        // The key is free again: the next lookup leads a fresh flight.
        assert!(matches!(cache.lookup(&key), Lookup::Lead(_)));
        assert_eq!(cache.stats().entries, 0, "nothing was inserted");
    }

    #[test]
    fn query_cache_counts_and_invalidates() {
        let cache = QueryCache::new(8);
        let q = shapesearch_parser::parse_regex("[p=up]").unwrap();
        let key = CacheKey::new("sales", 1, 1, "local", &q, 3, &EngineOptions::default());
        assert!(cache.get(&key).is_none());
        cache.insert(key.clone(), Arc::new(Vec::new()));
        assert!(cache.get(&key).is_some());
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
        // Retiring the replaced generations drops their entries.
        let key2 = CacheKey::new("sales", 2, 1, "local", &q, 3, &EngineOptions::default());
        cache.insert(key2.clone(), Arc::new(Vec::new()));
        cache.retire(1);
        cache.retire(2);
        assert!(cache.get(&key).is_none());
        assert_eq!(cache.stats().entries, 0);
        // Retirement also blocks LATE inserts from replaced
        // registrations (a singleflight leader landing after the
        // invalidation): they would be unreachable LRU pollution.
        cache.insert(key2, Arc::new(Vec::new()));
        assert_eq!(cache.stats().entries, 0, "stale insert must be dropped");
        let live = CacheKey::new("sales", 3, 1, "local", &q, 3, &EngineOptions::default());
        cache.insert(live.clone(), Arc::new(Vec::new()));
        assert!(cache.get(&live).is_some(), "live generation still inserts");
        // Other datasets are unaffected by the retirement (generations are
        // unique across the catalog, so theirs are never 1 or 2 here).
        let other = CacheKey::new("genes", 4, 1, "local", &q, 3, &EngineOptions::default());
        cache.insert(other.clone(), Arc::new(Vec::new()));
        assert!(cache.get(&other).is_some());
    }

    #[test]
    fn poisoned_locks_are_recovered() {
        let cache = QueryCache::new(4);
        let q = shapesearch_parser::parse_regex("[p=up]").unwrap();
        let key = |k| CacheKey::new("sales", 1, 1, "local", &q, k, &EngineOptions::default());

        // The map lock: lookup, complete and stats all still answer.
        cache.poison();
        let Lookup::Lead(guard) = cache.lookup(&key(1)) else {
            panic!("a cold key leads");
        };
        guard.complete(Arc::new(Vec::new()));
        assert!(matches!(cache.lookup(&key(1)), Lookup::Hit(_)));

        // A flight's latch, poisoned under a leader that then panics
        // mid-flight: unwinding through the guard still releases the
        // waiter, with a failure, and the key leads again.
        let Lookup::Lead(guard) = cache.lookup(&key(2)) else {
            panic!("a cold key leads");
        };
        let Lookup::Pending(waiter) = cache.lookup(&key(2)) else {
            panic!("an identical lookup coalesces");
        };
        poison(&guard.flight.outcome);
        let unwound = std::thread::scope(|scope| {
            scope
                .spawn(move || {
                    let _guard = guard;
                    panic!("leader blew up mid-flight");
                })
                .join()
        });
        assert!(unwound.is_err());
        assert!(waiter.wait().is_none());
        assert!(matches!(cache.lookup(&key(2)), Lookup::Lead(_)));
        let s = cache.stats();
        assert_eq!((s.entries, s.hits, s.misses, s.coalesced), (1, 1, 3, 1));
        assert_eq!(s.hits + s.misses + s.coalesced, s.lookups);
    }

    /// A test key: `(generation, slot)`.
    impl Generational for (u64, usize) {
        fn generation(&self) -> u64 {
            self.0
        }
    }

    /// One step of [`cache_matches_a_naive_lru`]: `(op, generation, slot,
    /// w)`, `w` picking a flight or a value.
    type Op = (u8, u64, usize, usize);

    /// The reference: residents most recent first, a plain `Vec`.
    struct Model {
        residents: Vec<((u64, usize), usize)>,
        capacity: usize,
        retired: Vec<u64>,
    }

    impl Model {
        /// What an admitted value does: unless its generation is retired,
        /// it replaces any resident copy of its key, in front, and the cold
        /// end is cut to the capacity.
        fn admit(&mut self, key: (u64, usize), value: usize) {
            if !self.retired.contains(&key.0) {
                self.residents.retain(|(k, _)| *k != key);
                self.residents.insert(0, (key, value));
                self.residents.truncate(self.capacity);
            }
        }
    }

    /// Runs `ops` against the cache and the model in step and checks they
    /// agree after every one.
    fn run_model(ops: &[Op], capacity: usize) -> Result<(), String> {
        let cache: Cache<(u64, usize), usize> = Cache::new(capacity);
        let mut model = Model {
            residents: Vec::new(),
            capacity,
            retired: Vec::new(),
        };
        // Open flights: (flight, key, leader); waiters: (flight, waiter);
        // outcomes[flight] once its leader published.
        let mut leaders = Vec::new();
        let mut waiters: Vec<(usize, Waiter<usize>)> = Vec::new();
        let mut outcomes: Vec<Option<Option<usize>>> = Vec::new();
        for &(op, generation, slot, w) in ops {
            let key = (generation, slot);
            match op {
                0 | 1 => match cache.lookup(&key) {
                    Probe::Hit(value) => {
                        let at = model.residents.iter().position(|(k, _)| *k == key);
                        let Some(at) = at else {
                            return Err(format!("hit on {key:?}, absent from the model"));
                        };
                        let entry = model.residents.remove(at);
                        if entry.1 != value {
                            return Err(format!("hit {value} for {key:?}, model {}", entry.1));
                        }
                        model.residents.insert(0, entry);
                    }
                    Probe::Pending(waiter) => {
                        let Some(&(flight, ..)) = leaders.iter().find(|(_, k, _)| *k == key) else {
                            return Err(format!("{key:?} coalesced onto no flight"));
                        };
                        waiters.push((flight, waiter));
                    }
                    Probe::Lead(leader) => {
                        if model.residents.iter().any(|(k, _)| *k == key)
                            || leaders.iter().any(|(_, k, _)| *k == key)
                        {
                            return Err(format!("{key:?} led while resident or in flight"));
                        }
                        leaders.push((outcomes.len(), key, leader));
                        outcomes.push(None);
                    }
                },
                2 | 3 if !leaders.is_empty() => {
                    let (flight, key, leader) = leaders.remove(w % leaders.len());
                    if op == 3 {
                        drop(leader);
                        outcomes[flight] = Some(None);
                        continue;
                    }
                    leader.complete(w);
                    outcomes[flight] = Some(Some(w));
                    // An insert may have landed the key while it flew.
                    model.admit(key, w);
                }
                4 => {
                    let landed = waiters.iter().position(|(f, _)| outcomes[*f].is_some());
                    if let Some(at) = landed {
                        let (flight, waiter) = waiters.remove(at);
                        if waiter.wait() != outcomes[flight].unwrap() {
                            return Err(format!("flight {flight} woke with another outcome"));
                        }
                    }
                }
                5 => {
                    cache.retire(generation);
                    model.retired.push(generation);
                    model.residents.retain(|(k, _)| k.0 != generation);
                }
                6 => {
                    cache.insert(key, w);
                    model.admit(key, w);
                }
                _ => {}
            }

            let recency = cache.lock().lru.keys_by_recency();
            let want: Vec<_> = model.residents.iter().map(|(k, _)| *k).collect();
            if recency != want {
                return Err(format!("residents {recency:?}, model {want:?}"));
            }
            let s = cache.stats();
            if s.entries > s.capacity {
                return Err(format!("over capacity: {s:?}"));
            }
            if s.hits + s.misses + s.coalesced != s.lookups {
                return Err(format!("torn counters: {s:?}"));
            }
            if recency.iter().any(|k| model.retired.contains(&k.0)) {
                return Err(format!("a retired generation is resident: {recency:?}"));
            }
        }
        // Whatever is still in flight fails; its waiters hear so.
        drop(leaders);
        for (flight, waiter) in waiters {
            let want = outcomes[flight].flatten();
            if waiter.wait() != want {
                return Err(format!(
                    "flight {flight} woke with another outcome at the end"
                ));
            }
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The generic cache against a naive LRU over random lookups,
        /// completions, abandoned flights, waits, retirements and inserts
        /// outside any flight, at capacities from one entry to more than
        /// the 12 keys drawn.
        #[test]
        fn cache_matches_a_naive_lru(
            ops in prop::collection::vec((0u8..7, 1u64..4, 0usize..4, 1usize..9), 1..80),
            capacity in 1usize..14,
        ) {
            run_model(&ops, capacity).map_err(TestCaseError::fail)?;
        }
    }
}
