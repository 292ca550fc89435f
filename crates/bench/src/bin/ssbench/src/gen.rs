//! Seeded inputs: the two corpora and the six request lists.
//!
//! Everything here is a pure function of `--seed`, drawn from this
//! file's own splitmix64 — deliberately not `shapesearch-datagen` or the
//! `rand` shim, which later changes may edit: the inputs of two commits
//! under comparison must be the same bytes.

use std::collections::HashSet;

/// Trendlines per corpus (Table-11 scale, cf. RealEstate 1,777 × 138).
pub const TRENDLINES: usize = 1_000;
/// Points per trendline.
pub const POINTS: usize = 128;
/// Queries in the warmed pool `hot_hits` and `mixed_batch` draw from.
pub const HOT_POOL: usize = 32;
/// Query items per `mixed_batch` request.
pub const BATCH_ITEMS: usize = 8;
/// Engine computations one `mixed_batch` request must cause: the
/// coalesced located pair, the fresh located query, the fresh needle.
pub const BATCH_COMPUTATIONS: usize = 3;

/// splitmix64 (Steele, Lea & Flood): small, seedable, and good enough
/// for workload generation.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `lo..=hi`. The modulo bias is below 2⁻⁵⁰ for the small
    /// ranges used here.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Feeds `bytes` into a running FNV-1a-64 hash.
fn fnv1a_more(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// FNV-1a-64, the fingerprint the determinism tests and the report use.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_more(FNV_OFFSET, bytes)
}

/// A corpus as the server receives it: inline CSV with columns `z,x,y`.
#[derive(Debug, Clone)]
pub struct Corpus {
    pub id: &'static str,
    pub csv: String,
}

fn csv_of(id: &'static str, mut y_of: impl FnMut(usize, usize) -> f64) -> Corpus {
    use std::fmt::Write as _;
    let mut csv = String::with_capacity(TRENDLINES * POINTS * 20);
    csv.push_str("z,x,y\n");
    for i in 0..TRENDLINES {
        for t in 0..POINTS {
            let _ = writeln!(csv, "t{i:04},{t},{:.4}", y_of(i, t));
        }
    }
    Corpus { id, csv }
}

/// `walks`: random walks. Up-then-down matches almost everything
/// moderately well, so the §6.3 bound cannot prune it.
pub fn walks(seed: u64) -> Corpus {
    let mut rng = SplitMix64::new(seed ^ 0x077a_16b5);
    let mut y = 0.0;
    csv_of("walks", |_, t| {
        if t == 0 {
            y = 0.0;
        }
        y += 2.0 * rng.next_f64() - 1.0;
        y
    })
}

/// The fractional parts of `start + i·step`: an additive recurrence. With
/// an irrational `step` every run of consecutive terms is spread evenly
/// over `[0, 1)`, whatever `start` is. The inputs whose *mix* decides
/// what a request costs are drawn this way, the seed choosing `start`:
/// every seed then gets different values with the same spread, so one
/// seed's list costs what another's does.
fn spread_evenly(start: f64, step: f64, i: usize) -> f64 {
    (start + step * i as f64).fract()
}

/// 1/φ, the step that spreads a one-dimensional recurrence best.
const GOLDEN: f64 = 0.618_033_988_749_894_9;
/// 1/ρ and 1/ρ² for the plastic number ρ: the same for pairs.
const PLASTIC: (f64, f64) = (0.754_877_666_246_692_7, 0.569_840_290_998_053_2);

/// `haystack`: 1 % clean peaks (every 100th trendline, from the 37th)
/// among strictly falling distractors (mild curvature, no up-blips) —
/// the shape §6.3 prunes hardest. How much it prunes depends on where
/// the steep distractors sit, so their slopes are spread evenly over
/// 0.5–1.5 along the collection, from a seeded start.
pub fn haystack(seed: u64) -> Corpus {
    let start = SplitMix64::new(seed ^ 0x04a9_57ac).next_f64();
    let mid = POINTS as f64 / 2.0;
    csv_of("haystack", |i, t| {
        let t = t as f64;
        if i % 100 == 37 {
            if t < mid {
                t
            } else {
                2.0 * mid - t
            }
        } else {
            let steep = 0.5 + spread_evenly(start, GOLDEN, i);
            -steep * t - 0.002 * t * t
        }
    })
}

/// One query object of a `POST /query` body.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Query {
    pub dataset: &'static str,
    pub text: String,
    pub k: usize,
}

impl Query {
    fn json(&self) -> String {
        // The generated query texts are ASCII without quotes or
        // backslashes, so they are their own JSON string bodies.
        debug_assert!(self
            .text
            .bytes()
            .all(|b| (0x20..0x7f).contains(&b) && b != b'"' && b != b'\\'));
        format!(
            r#"{{"dataset":"{}","query":"{}","k":{}}}"#,
            self.dataset, self.text, self.k
        )
    }
}

/// One HTTP request: a single query object, or a batch array of them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    pub items: Vec<Query>,
    pub batch: bool,
}

impl Request {
    fn single(query: Query) -> Self {
        Self {
            items: vec![query],
            batch: false,
        }
    }

    /// The JSON body as sent on the wire.
    pub fn body(&self) -> String {
        if self.batch {
            let items: Vec<String> = self.items.iter().map(Query::json).collect();
            format!("[{}]", items.join(","))
        } else {
            self.items[0].json()
        }
    }
}

/// Tenths of a degree, printed the way the query AST prints numbers
/// (`45` not `45.0`), so the text is already canonical.
fn tenths(v: u64) -> String {
    if v.is_multiple_of(10) {
        format!("{}", v / 10)
    } else {
        format!("{}.{}", v / 10, v % 10)
    }
}

/// Draws queries that are pairwise distinct by construction: a draw whose
/// parameters were seen before is rejected and redrawn. Distinct
/// parameters give distinct canonical ASTs because each template prints
/// its parameters verbatim (the `gen` tests check this against the
/// parser).
pub struct QueryGen {
    rng: SplitMix64,
    seen: HashSet<(u8, u64, u64, u64)>,
    /// Where the needle angles' recurrence starts, and how far it is.
    needle_start: (f64, f64),
    needles: usize,
}

impl QueryGen {
    pub fn new(seed: u64) -> Self {
        let mut rng = SplitMix64::new(seed ^ 0x5eed_11f7);
        Self {
            needle_start: (rng.next_f64(), rng.next_f64()),
            needles: 0,
            rng,
            seen: HashSet::new(),
        }
    }

    fn fresh(
        &mut self,
        family: u8,
        mut draw: impl FnMut(&mut SplitMix64) -> (u64, u64, u64),
    ) -> (u64, u64, u64) {
        loop {
            let (a, b, c) = draw(&mut self.rng);
            if self.seen.insert((family, a, b, c)) {
                return (a, b, c);
            }
        }
    }

    /// Uncached 3-segment fuzzy query on `walks`: no segment is located,
    /// so SEGMENT must search every split.
    pub fn fuzzy(&mut self) -> Query {
        let (a, b, c) = self.fresh(0, |r| {
            (r.range(100, 800), r.range(100, 800), r.range(100, 800))
        });
        Query {
            dataset: "walks",
            text: format!("[p={}][p=-{}][p={}]", tenths(a), tenths(b), tenths(c)),
            k: 5,
        }
    }

    /// Uncached 2-segment fuzzy query on `haystack`: only the peaks score
    /// well, so the bound discards most distractors unsegmented. How many
    /// it discards varies threefold with the two angles, so the pairs are
    /// spread evenly over the square (see [`spread_evenly`]), not drawn.
    pub fn needle(&mut self) -> Query {
        let (start, mut i) = (self.needle_start, self.needles);
        let (a, b, _) = self.fresh(1, |_| {
            i += 1;
            let tenths = |u: f64| 100 + (u * 701.0) as u64;
            (
                tenths(spread_evenly(start.0, PLASTIC.0, i)),
                tenths(spread_evenly(start.1, PLASTIC.1, i)),
                0,
            )
        });
        self.needles = i;
        Query {
            dataset: "haystack",
            text: format!("[p={}][p=-{}]", tenths(a), tenths(b)),
            k: 5,
        }
    }

    /// Uncached non-fuzzy query on `walks`: both segments carry their x
    /// range, so push-down restricts the work to the named windows.
    pub fn located(&mut self) -> Query {
        let (s1, e1, e2) = self.fresh(2, |r| {
            let s1 = r.range(0, 40);
            let e1 = s1 + r.range(8, 50);
            (s1, e1, r.range(e1 + 8, POINTS as u64 - 1))
        });
        let (first, second) = if self.rng.next_u64() & 1 == 0 {
            ("down", "up")
        } else {
            ("up", "down")
        };
        Query {
            dataset: "walks",
            text: format!("[x.s={s1}, x.e={e1}, p={first}][x.s={e1}, x.e={e2}, p={second}]"),
            k: self.rng.range(1, 10) as usize,
        }
    }
}

impl QueryGen {
    /// The warmed pool the hit workloads draw from: located queries with
    /// `k` running 1..=10 round the pool. A reply's size grows with `k`,
    /// and with it what a hit costs, so `k` is dealt, not drawn.
    fn pool(&mut self) -> Vec<Query> {
        (0..HOT_POOL)
            .map(|i| Query {
                k: 1 + i % 10,
                ..self.located()
            })
            .collect()
    }
}

/// A workload's whole seeded input: what the one closed-loop client
/// sends in a pass. `order[i]` indexes `requests`, so a pool of 32 can
/// back 20,000 sends.
#[derive(Debug, Clone)]
pub struct RequestPlan {
    /// Sent once during set-up, before the measured loop.
    pub warmup: Vec<Request>,
    pub requests: Vec<Request>,
    pub order: Vec<u32>,
}

impl RequestPlan {
    fn in_order(warmup: Vec<Request>, requests: Vec<Request>) -> Self {
        let order = (0..requests.len() as u32).collect();
        Self {
            warmup,
            requests,
            order,
        }
    }

    /// The request sent at position `pos` of a pass.
    pub fn sent(&self, pos: usize) -> &Request {
        &self.requests[self.order[pos] as usize]
    }

    /// Fingerprint of every byte the plan puts on the wire, in order.
    pub fn fingerprint(&self) -> u64 {
        let sent = (0..self.order.len()).map(|pos| self.sent(pos));
        self.warmup
            .iter()
            .chain(sent)
            .fold(FNV_OFFSET, |hash, r| fnv1a_more(hash, r.body().as_bytes()))
    }
}

/// The six workloads. `requests` is what one pass sends, and a pass
/// sends all of them, so two commits under comparison do identical work
/// per pass. A pass is sized to take 1.3 s on the reference box: a run
/// is [`MIN_PASSES`] of them, each against freshly spawned servers, and
/// as many more as fit `--seconds`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Workload {
    pub name: &'static str,
    pub requests: usize,
    /// Requests per slice of the list: the stretch over which the
    /// servers' CPU time is read, and the grain at which the run tells
    /// the requests the machine disturbed from the others. One request,
    /// unless that is too short a stretch to read anything over.
    pub slice: usize,
    /// `(corpus, n)`: that corpus lives on `n` spawned `shard_of i/n`
    /// servers and the front door only routes it.
    pub routed: Option<(&'static str, usize)>,
    /// Client and servers all run on one core. For a workload whose
    /// requests are a chain of hand-overs between threads and no
    /// parallel work: on two cores its latency is the count of
    /// hand-overs that happened to cross cores (about 24 µs each on the
    /// reference box, a virtual machine) more than it is the program's
    /// own work.
    pub one_core: bool,
    pub why: &'static str,
}

/// Passes a run makes whatever `--seconds` says. Short runs are the
/// point: the driver makes 136, and what disturbs the reference box
/// without the probes seeing it (README, "Steadiness") is the less likely
/// to change under a check the shorter the check is.
pub const MIN_PASSES: usize = 4;

pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: "fuzzy_miss",
        requests: 34,
        slice: 1,
        routed: None,
        one_core: false,
        why: "uncached 3-segment fuzzy queries on random walks: SEGMENT+SCORE is nearly all the time, nothing is prunable",
    },
    Workload {
        name: "needle_miss",
        requests: 210,
        slice: 1,
        routed: None,
        one_core: false,
        why: "uncached 2-segment queries on 1% peaks among falling lines: the 6.3 bound layer does most of the work",
    },
    Workload {
        name: "located_miss",
        requests: 500,
        slice: 1,
        routed: None,
        one_core: false,
        why: "uncached located queries of a few ms: push-down, pool fan-out, cache insert+evict and front door are comparable",
    },
    Workload {
        name: "hot_hits",
        requests: 36_000,
        slice: 128,
        routed: None,
        one_core: true,
        why: "32 warmed queries drawn uniformly, every reply cached, on one core: http+json+protocol+cache do all the work, the engine none",
    },
    Workload {
        name: "mixed_batch",
        requests: 110,
        slice: 1,
        routed: None,
        one_core: false,
        why: "batches of 8 mixing hits, a coalesced pair, a fresh located and a fresh needle query: the batch path",
    },
    Workload {
        name: "router_rpc",
        requests: 500,
        slice: 1,
        routed: Some(("walks", 2)),
        one_core: false,
        why: "the located_miss list through a router over 2 spawned shard servers: adds the /shard/query RPC hop and merge",
    },
];

pub fn workload(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// Builds a workload's request plan from the seed. `located_miss` and
/// `router_rpc` get the same list on purpose: their difference is then
/// the coordination overhead alone.
pub fn plan(w: Workload, seed: u64) -> RequestPlan {
    let mut gen = QueryGen::new(seed);
    let singles = |gen: &mut QueryGen, draw: fn(&mut QueryGen) -> Query| {
        let mut draw_n =
            |n: usize| -> Vec<Request> { (0..n).map(|_| Request::single(draw(gen))).collect() };
        let warmup = draw_n(w.requests.div_ceil(20));
        RequestPlan::in_order(warmup, draw_n(w.requests))
    };
    match w.name {
        "fuzzy_miss" => singles(&mut gen, QueryGen::fuzzy),
        "needle_miss" => singles(&mut gen, QueryGen::needle),
        "located_miss" | "router_rpc" => singles(&mut gen, QueryGen::located),
        "hot_hits" => {
            let pool: Vec<Request> = gen.pool().into_iter().map(Request::single).collect();
            let mut rng = SplitMix64::new(seed ^ 0x0bad_cafe);
            RequestPlan {
                warmup: pool.clone(),
                requests: pool,
                order: (0..w.requests)
                    .map(|_| rng.range(0, HOT_POOL as u64 - 1) as u32)
                    .collect(),
            }
        }
        "mixed_batch" => {
            let pool = gen.pool();
            // The hits walk round the pool instead of being drawn: every
            // pool entry is then touched once in 8 batches, far inside
            // the 256 inserts it takes the server's LRU to evict one.
            let mut next_hit = 0;
            let mut batch = |gen: &mut QueryGen| {
                let mut items: Vec<Query> = (next_hit..next_hit + 4)
                    .map(|i| pool[i % HOT_POOL].clone())
                    .collect();
                next_hit += 4;
                let pair = gen.located();
                items.extend([pair.clone(), pair, gen.located(), gen.needle()]);
                debug_assert_eq!(items.len(), BATCH_ITEMS);
                Request { items, batch: true }
            };
            RequestPlan::in_order(
                pool.iter().cloned().map(Request::single).collect(),
                (0..w.requests).map(|_| batch(&mut gen)).collect(),
            )
        }
        other => unreachable!("no generator for workload `{other}`"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shapesearch_parser::parse_regex;

    #[test]
    fn same_seed_same_bytes_other_seed_other_bytes() {
        assert_eq!(
            fnv1a(walks(7).csv.as_bytes()),
            fnv1a(walks(7).csv.as_bytes())
        );
        assert_ne!(
            fnv1a(walks(7).csv.as_bytes()),
            fnv1a(walks(8).csv.as_bytes())
        );
        assert_eq!(
            fnv1a(haystack(7).csv.as_bytes()),
            fnv1a(haystack(7).csv.as_bytes())
        );
        assert_ne!(
            fnv1a(haystack(7).csv.as_bytes()),
            fnv1a(haystack(8).csv.as_bytes())
        );
        for w in WORKLOADS {
            assert_eq!(
                plan(w, 7).fingerprint(),
                plan(w, 7).fingerprint(),
                "{}",
                w.name
            );
            assert_ne!(
                plan(w, 7).fingerprint(),
                plan(w, 8).fingerprint(),
                "{}",
                w.name
            );
        }
    }

    #[test]
    fn fnv1a_matches_published_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn corpora_have_the_stated_shape() {
        for corpus in [walks(1), haystack(1)] {
            assert_eq!(corpus.csv.lines().count(), 1 + TRENDLINES * POINTS);
        }
        let peaks = haystack(1)
            .csv
            .lines()
            .filter(|l| l.ends_with(",63,63.0000"))
            .count();
        assert_eq!(peaks, TRENDLINES / 100);
    }

    /// The generated text must be what the server's AST prints back:
    /// then distinct parameters are distinct cache keys.
    #[test]
    fn generated_queries_are_canonical_and_distinct_after_normalisation() {
        let mut gen = QueryGen::new(3);
        let mut canon = HashSet::new();
        for i in 0..3_000 {
            let q = match i % 3 {
                0 => gen.fuzzy(),
                1 => gen.needle(),
                _ => gen.located(),
            };
            let ast = parse_regex(&q.text).expect("generated query parses");
            assert_eq!(ast.to_string(), q.text);
            assert!(
                canon.insert((q.dataset, ast.to_string())),
                "duplicate {}",
                q.text
            );
        }
    }

    #[test]
    fn miss_lists_never_repeat_a_query() {
        for name in ["fuzzy_miss", "needle_miss", "located_miss", "router_rpc"] {
            let p = plan(workload(name).unwrap(), 5);
            let mut seen = HashSet::new();
            for r in p.warmup.iter().chain(&p.requests) {
                assert!(
                    seen.insert(r.items[0].text.clone()),
                    "{name}: {}",
                    r.items[0].text
                );
            }
        }
    }

    /// Whatever the seed, a list's needle queries fill the square of
    /// angles evenly — and so does any stretch of it.
    #[test]
    fn needle_angles_fill_the_square_evenly_for_every_seed() {
        for seed in 1..=5 {
            let list = plan(workload("needle_miss").unwrap(), seed);
            for stretch in [&list.requests[..], &list.requests[50..150]] {
                let mut cells = [0usize; 16];
                for r in stretch {
                    let text = &r.items[0].text;
                    let (a, b) = text[3..text.len() - 1].split_once("][p=-").unwrap();
                    let band = |v: &str| ((v.parse::<f64>().unwrap() - 10.0) / 70.1 * 4.0) as usize;
                    cells[band(a) * 4 + band(b)] += 1;
                }
                let even = stretch.len() as f64 / 16.0;
                assert!(
                    cells
                        .iter()
                        .all(|&n| (n as f64) > 0.5 * even && (n as f64) < 1.5 * even),
                    "seed {seed}: {cells:?}"
                );
            }
        }
    }

    #[test]
    fn the_warmed_pool_deals_k_round() {
        let ks: Vec<usize> = QueryGen::new(4).pool().iter().map(|q| q.k).collect();
        assert_eq!(ks[..12], [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 1, 2]);
        assert_eq!(ks.len(), HOT_POOL);
    }

    /// A median wants a hundred samples; the located lists must also
    /// outrun the servers' 256-entry cache, so that it evicts.
    #[test]
    fn every_run_has_at_least_100_requests() {
        for w in WORKLOADS {
            assert!(MIN_PASSES * w.requests >= 100, "{}", w.name);
        }
        assert!(workload("located_miss").unwrap().requests > 256);
    }

    #[test]
    fn located_and_router_share_one_list() {
        let a = plan(workload("located_miss").unwrap(), 9);
        let b = plan(workload("router_rpc").unwrap(), 9);
        assert_eq!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn a_mixed_batch_holds_four_hits_a_pair_and_two_fresh_queries() {
        let p = plan(workload("mixed_batch").unwrap(), 2);
        let pool: HashSet<&Query> = p.warmup.iter().map(|r| &r.items[0]).collect();
        assert_eq!(pool.len(), HOT_POOL);
        let mut fresh = HashSet::new();
        for r in &p.requests {
            assert!(r.batch);
            assert_eq!(r.items.len(), BATCH_ITEMS);
            assert!(r.items[..4].iter().all(|q| pool.contains(q)));
            assert_eq!(r.items[4], r.items[5]);
            assert_eq!(r.items[7].dataset, "haystack");
            for q in &r.items[5..] {
                assert!(!pool.contains(q));
                assert!(fresh.insert(q.text.clone()), "repeated {}", q.text);
            }
        }
    }
}
