//! The query-result cache: a hand-rolled O(1) LRU over a slab-backed
//! intrusive list, plus the server-facing [`QueryCache`] wrapper keyed on
//! `(dataset id, registration generation, shard count, normalized query
//! AST, k, engine-option fingerprint)` with hit/miss/coalesced counters
//! that live under the cache's own lock, so [`QueryCache::stats`] is a
//! consistent snapshot (`hits + misses + coalesced == lookups`, always).
//!
//! Repeated exploratory queries — the dominant pattern in shape-based
//! exploration, where a user reissues near-identical ShapeQueries while
//! tweaking k or switching datasets — skip segmentation entirely on a hit.
//!
//! Concurrent *identical* misses are collapsed by a per-key singleflight
//! latch ([`QueryCache::lookup`]): the first caller becomes the **leader**
//! and computes; every racer gets a [`FlightWaiter`] that blocks until the
//! leader publishes, so a stampede of N identical cold queries does the
//! engine work exactly once and performs N−1 *coalesced* waits instead of
//! N−1 redundant computations.

use shapesearch_core::{EngineOptions, TopKResult};
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::{Arc, Condvar, Mutex};

const NIL: usize = usize::MAX;

struct Slot<K, V> {
    key: K,
    value: V,
    prev: usize,
    next: usize,
}

/// A fixed-capacity least-recently-used map. `get` refreshes recency;
/// `insert` evicts the coldest entry once `capacity` is exceeded. All
/// operations are O(1) expected time. Evicted and retained-away values
/// are dropped immediately (slots hold `Option` so a freed slot never
/// pins its old value until reuse).
pub struct LruCache<K: Eq + Hash + Clone, V> {
    map: HashMap<K, usize>,
    slots: Vec<Option<Slot<K, V>>>,
    free: Vec<usize>,
    head: usize, // most recently used
    tail: usize, // least recently used
    capacity: usize,
}

impl<K: Eq + Hash + Clone, V> LruCache<K, V> {
    /// Creates a cache holding at most `capacity` entries (min 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Self {
            map: HashMap::with_capacity(capacity),
            slots: Vec::with_capacity(capacity),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            capacity,
        }
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Maximum number of entries before eviction kicks in.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    fn slot(&self, i: usize) -> &Slot<K, V> {
        self.slots[i].as_ref().expect("occupied slot")
    }

    fn slot_mut(&mut self, i: usize) -> &mut Slot<K, V> {
        self.slots[i].as_mut().expect("occupied slot")
    }

    /// Unlinks slot `i` from the recency list.
    fn unlink(&mut self, i: usize) {
        let (prev, next) = {
            let s = self.slot(i);
            (s.prev, s.next)
        };
        if prev != NIL {
            self.slot_mut(prev).next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.slot_mut(next).prev = prev;
        } else {
            self.tail = prev;
        }
    }

    /// Links slot `i` at the head (most recently used).
    fn link_front(&mut self, i: usize) {
        let head = self.head;
        {
            let s = self.slot_mut(i);
            s.prev = NIL;
            s.next = head;
        }
        if head != NIL {
            self.slot_mut(head).prev = i;
        }
        self.head = i;
        if self.tail == NIL {
            self.tail = i;
        }
    }

    /// Releases slot `i`: unlinks it, drops its contents, recycles the
    /// index, and returns the key.
    fn release(&mut self, i: usize) -> K {
        self.unlink(i);
        let slot = self.slots[i].take().expect("occupied slot");
        self.map.remove(&slot.key);
        self.free.push(i);
        slot.key
    }

    /// Fetches a value, marking it most recently used.
    pub fn get(&mut self, key: &K) -> Option<&V> {
        let i = *self.map.get(key)?;
        if i != self.head {
            self.unlink(i);
            self.link_front(i);
        }
        Some(&self.slot(i).value)
    }

    /// Inserts (or replaces) a value, evicting the least-recently-used
    /// entry if the cache is full. Returns the evicted key, if any.
    pub fn insert(&mut self, key: K, value: V) -> Option<K> {
        if let Some(&i) = self.map.get(&key) {
            self.slot_mut(i).value = value;
            if i != self.head {
                self.unlink(i);
                self.link_front(i);
            }
            return None;
        }
        let mut evicted = None;
        if self.map.len() >= self.capacity {
            let lru = self.tail;
            debug_assert_ne!(lru, NIL);
            evicted = Some(self.release(lru));
        }
        let slot = Slot {
            key: key.clone(),
            value,
            prev: NIL,
            next: NIL,
        };
        let i = match self.free.pop() {
            Some(i) => {
                self.slots[i] = Some(slot);
                i
            }
            None => {
                self.slots.push(Some(slot));
                self.slots.len() - 1
            }
        };
        self.map.insert(key, i);
        self.link_front(i);
        evicted
    }

    /// Drops every entry whose key fails the predicate (used when a
    /// dataset is replaced and its cached results must go).
    pub fn retain(&mut self, mut keep: impl FnMut(&K) -> bool) {
        let doomed: Vec<usize> = self
            .map
            .iter()
            .filter(|(k, _)| !keep(k))
            .map(|(_, &i)| i)
            .collect();
        for i in doomed {
            self.release(i);
        }
    }

    /// Keys from most to least recently used (test/debug helper).
    pub fn keys_by_recency(&self) -> Vec<K> {
        let mut out = Vec::with_capacity(self.map.len());
        let mut i = self.head;
        while i != NIL {
            let s = self.slot(i);
            out.push(s.key.clone());
            i = s.next;
        }
        out
    }
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

/// A deterministic fingerprint of every result-affecting engine option.
/// `parallel` is deliberately excluded: it changes scheduling, not
/// results (`parallel_matches_sequential` in the engine tests).
pub fn options_fingerprint(o: &EngineOptions) -> String {
    format!(
        "seg={:?};bin={};push={};params={:?}",
        o.segmenter, o.bin_width, o.pushdown, o.params
    )
}

/// Cache statistics surfaced through `GET /healthz`.
///
/// Snapshots are **consistent**: all counters live under the cache's one
/// internal lock and every counted operation updates them inside its
/// critical section, so `hits + misses + coalesced == lookups` holds in
/// every snapshot — never only between updates, as it would with
/// independently loaded atomics.
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

/// What a singleflight leader eventually publishes: the shared results, or
/// `None` when the leader's computation failed (waiters then recompute on
/// their own — engine errors are deterministic, so they will see the same
/// error the leader did).
type FlightResult = Option<Arc<Vec<TopKResult>>>;

enum FlightState {
    Pending,
    Done(FlightResult),
}

/// The per-key latch one leader and any number of waiters rendezvous on.
struct FlightSlot {
    state: Mutex<FlightState>,
    cv: Condvar,
}

impl FlightSlot {
    fn new() -> Self {
        Self {
            state: Mutex::new(FlightState::Pending),
            cv: Condvar::new(),
        }
    }

    fn publish(&self, value: FlightResult) {
        *self.state.lock().expect("flight lock") = FlightState::Done(value);
        self.cv.notify_all();
    }
}

/// The waiter side of a coalesced lookup: blocks until the leader for the
/// same key publishes its outcome.
pub struct FlightWaiter {
    slot: Arc<FlightSlot>,
}

impl FlightWaiter {
    /// Blocks until the leader publishes. Returns the shared results, or
    /// `None` when the leader failed (or panicked) — the caller should
    /// then compute for itself.
    pub fn wait(self) -> FlightResult {
        let mut state = self.slot.state.lock().expect("flight lock");
        loop {
            match &*state {
                FlightState::Done(value) => return value.clone(),
                FlightState::Pending => {
                    state = self.slot.cv.wait(state).expect("flight lock");
                }
            }
        }
    }
}

/// The leader side of a singleflight: the holder is the one caller that
/// must compute the value, then hand it over with [`FlightGuard::complete`]
/// (which inserts into the LRU and wakes every waiter). Dropping the guard
/// without completing — an error path or a panic unwinding through the
/// handler — publishes a failure so waiters never deadlock.
pub struct FlightGuard<'a> {
    cache: &'a QueryCache,
    key: CacheKey,
    slot: Arc<FlightSlot>,
    done: bool,
}

impl FlightGuard<'_> {
    /// Publishes the computed results: inserts them into the LRU under the
    /// flight's key and wakes all coalesced waiters with the shared `Arc`.
    pub fn complete(mut self, value: Arc<Vec<TopKResult>>) {
        self.cache.insert(self.key.clone(), Arc::clone(&value));
        self.finish(Some(value));
    }

    fn finish(&mut self, value: FlightResult) {
        self.done = true;
        self.cache
            .inflight
            .lock()
            .expect("inflight lock")
            .remove(&self.key);
        self.slot.publish(value);
    }
}

impl Drop for FlightGuard<'_> {
    fn drop(&mut self) {
        if !self.done {
            self.finish(None);
        }
    }
}

/// Outcome of a [`QueryCache::lookup`].
pub enum Lookup<'a> {
    /// The LRU had it.
    Hit(Arc<Vec<TopKResult>>),
    /// Another request is computing this exact key right now; call
    /// [`FlightWaiter::wait`] to share its result.
    Pending(FlightWaiter),
    /// Nobody has it and nobody is computing it: the caller is elected
    /// leader and must compute, then [`FlightGuard::complete`].
    Lead(FlightGuard<'a>),
}

/// Which counter a counted cache operation lands in.
#[derive(Clone, Copy)]
enum Counted {
    Hit,
    Miss,
    Coalesced,
}

/// The hit/miss/coalesced tallies. They live *inside* the cache's inner
/// mutex and are only ever bumped within a counted operation's critical
/// section, so a [`QueryCache::stats`] snapshot can never catch them
/// mid-update (the satisfied invariant: `hits + misses + coalesced ==
/// lookups`, in every snapshot).
#[derive(Default)]
struct Counters {
    lookups: u64,
    hits: u64,
    misses: u64,
    coalesced: u64,
}

impl Counters {
    fn count(&mut self, outcome: Counted) {
        self.lookups += 1;
        match outcome {
            Counted::Hit => self.hits += 1,
            Counted::Miss => self.misses += 1,
            Counted::Coalesced => self.coalesced += 1,
        }
    }
}

/// The LRU plus the per-dataset generation floors and the counters,
/// guarded by one mutex so a floor bump and the purge it implies are
/// atomic with respect to concurrent inserts, and counter reads are
/// consistent snapshots.
struct CacheMap {
    lru: LruCache<CacheKey, Arc<Vec<TopKResult>>>,
    /// Per dataset id: the lowest registration generation still allowed
    /// to insert. Raised by [`QueryCache::invalidate_dataset`]; inserts
    /// below the floor are stale re-registration leftovers and are
    /// dropped instead of occupying (unreachable) LRU slots.
    floors: HashMap<String, u64>,
    counters: Counters,
}

impl CacheMap {
    fn admits(&self, key: &CacheKey) -> bool {
        self.floors
            .get(&key.dataset)
            .is_none_or(|&floor| key.generation >= floor)
    }
}

/// The shared, thread-safe query-result cache with per-key singleflight
/// request coalescing.
pub struct QueryCache {
    inner: Mutex<CacheMap>,
    inflight: Mutex<HashMap<CacheKey, Arc<FlightSlot>>>,
}

impl QueryCache {
    /// Creates a cache holding at most `capacity` result sets.
    pub fn new(capacity: usize) -> Self {
        Self {
            inner: Mutex::new(CacheMap {
                lru: LruCache::new(capacity),
                floors: HashMap::new(),
                counters: Counters::default(),
            }),
            inflight: Mutex::new(HashMap::new()),
        }
    }

    /// Bumps one counter inside its own inner critical section (for the
    /// lookup outcomes decided under the *inflight* lock, where the LRU
    /// itself is not touched).
    fn count(&self, outcome: Counted) {
        self.inner
            .lock()
            .expect("cache lock")
            .counters
            .count(outcome);
    }

    /// Looks up a result, counting the hit or miss. Bypasses the
    /// singleflight machinery — racing callers may all miss; prefer
    /// [`Self::lookup`] on the query path.
    pub fn get(&self, key: &CacheKey) -> Option<Arc<Vec<TopKResult>>> {
        let mut cache = self.inner.lock().expect("cache lock");
        match cache.lru.get(key) {
            Some(v) => {
                let v = Arc::clone(v);
                cache.counters.count(Counted::Hit);
                Some(v)
            }
            None => {
                cache.counters.count(Counted::Miss);
                None
            }
        }
    }

    /// The coalescing lookup: a hit returns immediately; a miss either
    /// elects this caller singleflight leader ([`Lookup::Lead`] — compute,
    /// then [`FlightGuard::complete`]) or, when an identical key is
    /// already being computed, returns a [`Lookup::Pending`] waiter that
    /// shares the leader's result. Exactly one of `hits`, `misses`, or
    /// `coalesced` is incremented per call (atomically with `lookups`).
    pub fn lookup(&self, key: &CacheKey) -> Lookup<'_> {
        if let Some(v) = self.probe_counted(key) {
            return Lookup::Hit(v);
        }
        let mut inflight = self.inflight.lock().expect("inflight lock");
        // Re-check under the inflight lock: a leader that completed
        // between our probe and this lock has already inserted into the
        // LRU and left the inflight map, and must be seen as a hit, not
        // re-led.
        if let Some(v) = self.probe_counted(key) {
            return Lookup::Hit(v);
        }
        if let Some(slot) = inflight.get(key) {
            self.count(Counted::Coalesced);
            return Lookup::Pending(FlightWaiter {
                slot: Arc::clone(slot),
            });
        }
        self.count(Counted::Miss);
        let slot = Arc::new(FlightSlot::new());
        inflight.insert(key.clone(), Arc::clone(&slot));
        Lookup::Lead(FlightGuard {
            cache: self,
            key: key.clone(),
            slot,
            done: false,
        })
    }

    /// An LRU probe that refreshes recency and, *within the same
    /// critical section*, counts a hit — misses are not counted here
    /// (the caller counts the lookup's eventual outcome instead).
    fn probe_counted(&self, key: &CacheKey) -> Option<Arc<Vec<TopKResult>>> {
        let mut cache = self.inner.lock().expect("cache lock");
        let hit = cache.lru.get(key).cloned();
        if hit.is_some() {
            cache.counters.count(Counted::Hit);
        }
        hit
    }

    /// Inserts a computed result directly (used by leaders via
    /// [`FlightGuard::complete`] and by callers that computed outside the
    /// singleflight). Inserts keyed below the dataset's generation floor
    /// — a singleflight leader finishing after its dataset was replaced —
    /// are dropped: they could never be read again, but would evict live
    /// entries.
    pub fn insert(&self, key: CacheKey, value: Arc<Vec<TopKResult>>) {
        let mut cache = self.inner.lock().expect("cache lock");
        if cache.admits(&key) {
            cache.lru.insert(key, value);
        }
    }

    /// Forgets every entry belonging to `dataset` (any generation),
    /// releasing their memory now rather than waiting for LRU churn, and
    /// raises the dataset's generation floor to `live_generation` so
    /// in-flight computations against replaced registrations are left to
    /// finish but can no longer pollute the LRU when they land (their
    /// keys embed the old generation, so they could also never be read).
    pub fn invalidate_dataset(&self, dataset: &str, live_generation: u64) {
        let mut cache = self.inner.lock().expect("cache lock");
        let floor = cache.floors.entry(dataset.to_owned()).or_insert(0);
        *floor = (*floor).max(live_generation);
        cache.lru.retain(|k| k.dataset != dataset);
    }

    /// A consistent snapshot of the counters for `GET /healthz`: one
    /// lock acquisition reads every counter plus the entry count, so the
    /// reported totals can never be mutually inconsistent mid-update
    /// (`hits + misses + coalesced == lookups` holds in *every*
    /// snapshot).
    pub fn stats(&self) -> CacheStats {
        let cache = self.inner.lock().expect("cache lock");
        CacheStats {
            lookups: cache.counters.lookups,
            hits: cache.counters.hits,
            misses: cache.counters.misses,
            coalesced: cache.counters.coalesced,
            entries: cache.lru.len(),
            capacity: cache.lru.capacity(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shapesearch_core::SegmenterKind;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Weak;

    #[test]
    fn lru_evicts_coldest_first() {
        let mut lru = LruCache::new(3);
        assert_eq!(lru.insert("a", 1), None);
        assert_eq!(lru.insert("b", 2), None);
        assert_eq!(lru.insert("c", 3), None);
        // Touch "a" so "b" becomes the coldest.
        assert_eq!(lru.get(&"a"), Some(&1));
        assert_eq!(lru.insert("d", 4), Some("b"));
        assert_eq!(lru.get(&"b"), None);
        assert_eq!(lru.keys_by_recency(), vec!["d", "a", "c"]);
        // Two more inserts evict "c" then "a".
        assert_eq!(lru.insert("e", 5), Some("c"));
        assert_eq!(lru.insert("f", 6), Some("a"));
        assert_eq!(lru.len(), 3);
        assert_eq!(lru.keys_by_recency(), vec!["f", "e", "d"]);
    }

    #[test]
    fn lru_replacing_does_not_evict() {
        let mut lru = LruCache::new(2);
        lru.insert("a", 1);
        lru.insert("b", 2);
        assert_eq!(lru.insert("a", 10), None);
        assert_eq!(lru.get(&"a"), Some(&10));
        assert_eq!(lru.get(&"b"), Some(&2));
    }

    #[test]
    fn lru_single_slot() {
        let mut lru = LruCache::new(1);
        lru.insert(1, "x");
        assert_eq!(lru.insert(2, "y"), Some(1));
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
        assert_eq!(lru.len(), 2);
        assert_eq!(lru.get(&1), None);
        assert_eq!(lru.get(&2), Some(&20));
        // The list is still sound: inserts + eviction keep working.
        lru.insert(8, 80);
        lru.insert(9, 90);
        lru.insert(10, 100);
        assert_eq!(lru.len(), 4);
    }

    #[test]
    fn eviction_and_retain_drop_values_immediately() {
        let mut lru: LruCache<&str, Arc<Vec<u8>>> = LruCache::new(2);
        let a = Arc::new(vec![1u8; 16]);
        let weak_a: Weak<Vec<u8>> = Arc::downgrade(&a);
        lru.insert("a", a);
        lru.insert("b", Arc::new(Vec::new()));
        // Evicting "a" must release the only strong reference now, not
        // when the slot is eventually reused.
        assert_eq!(lru.insert("c", Arc::new(Vec::new())), Some("a"));
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
        // Scheduling-only knobs share a fingerprint…
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
        assert!(cache.inflight.lock().unwrap().is_empty());
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
        // Invalidation drops every generation of the dataset.
        let key2 = CacheKey::new("sales", 2, 1, "local", &q, 3, &EngineOptions::default());
        cache.insert(key2.clone(), Arc::new(Vec::new()));
        cache.invalidate_dataset("sales", 3);
        assert!(cache.get(&key).is_none());
        assert_eq!(cache.stats().entries, 0);
        // The generation floor also blocks LATE inserts from replaced
        // registrations (a singleflight leader landing after the
        // invalidation): they would be unreachable LRU pollution.
        cache.insert(key2, Arc::new(Vec::new()));
        assert_eq!(cache.stats().entries, 0, "stale insert must be dropped");
        let live = CacheKey::new("sales", 3, 1, "local", &q, 3, &EngineOptions::default());
        cache.insert(live.clone(), Arc::new(Vec::new()));
        assert!(cache.get(&live).is_some(), "live generation still inserts");
        // Other datasets are unaffected by the floor.
        let other = CacheKey::new("genes", 1, 1, "local", &q, 3, &EngineOptions::default());
        cache.insert(other.clone(), Arc::new(Vec::new()));
        assert!(cache.get(&other).is_some());
    }
}
