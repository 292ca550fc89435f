//! In-memory spans for the traced pass.
//!
//! A span has a name, a start, an end, the span that caused it, and the
//! index of the request it belongs to. Spans are pushed into one vector
//! while the pass runs and written out once at the end. A layer's self
//! time is its span minus the part of that interval its children cover.

use std::sync::Mutex;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<u32>,
    pub request: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn nanos(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Collects spans from any thread. Span ids are indices into the
/// recorder's vector.
pub struct Recorder {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span now; close it with [`Self::close`].
    pub fn open(&self, name: &'static str, parent: Option<u32>, request: u32) -> u32 {
        let start_ns = self.now_ns();
        self.push(Span {
            name,
            parent,
            request,
            start_ns,
            end_ns: start_ns,
        })
    }

    pub fn close(&self, id: u32) {
        let end_ns = self.now_ns();
        self.spans
            .lock()
            .expect("no thread panics holding the span lock")[id as usize]
            .end_ns = end_ns;
    }

    /// Records a span that just ended and lasted `nanos` — for layers
    /// that report a duration rather than let us wrap the call.
    pub fn ended(&self, name: &'static str, parent: Option<u32>, request: u32, nanos: u64) -> u32 {
        let end_ns = self.now_ns();
        self.push(Span {
            name,
            parent,
            request,
            start_ns: end_ns.saturating_sub(nanos),
            end_ns,
        })
    }

    /// Times `f` as a child of `parent`.
    pub fn time<T>(
        &self,
        name: &'static str,
        parent: Option<u32>,
        request: u32,
        f: impl FnOnce(u32) -> T,
    ) -> T {
        let id = self.open(name, parent, request);
        let out = f(id);
        self.close(id);
        out
    }

    /// A copy of span `id` as it stands.
    pub fn get(&self, id: u32) -> Span {
        self.spans
            .lock()
            .expect("no thread panics holding the span lock")[id as usize]
            .clone()
    }

    fn push(&self, span: Span) -> u32 {
        let mut spans = self
            .spans
            .lock()
            .expect("no thread panics holding the span lock");
        spans.push(span);
        (spans.len() - 1) as u32
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
            .into_inner()
            .expect("no thread panics holding the span lock")
    }
}

/// Self time of every span: its duration minus the union of its
/// children's intervals, each clipped to the parent. Children may
/// overlap (shards run side by side), so the union is taken, not the sum.
pub fn self_nanos(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            let (lo, hi) = (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns));
            if lo < hi {
                children[p as usize].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = 0;
            for (lo, hi) in kids {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            span.nanos().saturating_sub(covered)
        })
        .collect()
}

/// Mean duration in microseconds of the spans called `name`, per request
/// that has one (a request's spans of one name are summed first: a batch
/// plans eight items but is one request).
pub fn mean_us_per_request(spans: &[Span], name: &str) -> f64 {
    mean_by_request(spans, name, |i| spans[i].nanos())
}

/// Like [`mean_us_per_request`] over self times from [`self_nanos`].
pub fn mean_self_us_per_request(spans: &[Span], own: &[u64], name: &str) -> f64 {
    mean_by_request(spans, name, |i| own[i])
}

fn mean_by_request(spans: &[Span], name: &str, nanos: impl Fn(usize) -> u64) -> f64 {
    let mut per_request = std::collections::BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        if s.name == name {
            *per_request.entry(s.request).or_insert(0u64) += nanos(i);
        }
    }
    if per_request.is_empty() {
        return 0.0;
    }
    per_request.values().sum::<u64>() as f64 / per_request.len() as f64 / 1e3
}

/// The spans as a JSON array, one object per span, `id` being the index
/// `parent` refers to.
pub fn to_json(spans: &[Span]) -> String {
    use std::fmt::Write as _;
    let mut out = String::from("[");
    for (id, s) in spans.iter().enumerate() {
        if id > 0 {
            out.push(',');
        }
        let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
        let _ = write!(
            out,
            "\n{{\"id\":{id},\"parent\":{parent},\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.request, s.name, s.start_ns, s.end_ns
        );
    }
    out.push_str("\n]");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            parent,
            request: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("root", None, 0, 100),
            // Two overlapping children cover 10..60 together.
            span("a", Some(0), 10, 40),
            span("b", Some(0), 30, 60),
            // A child reaching past its parent is clipped to 90..100.
            span("c", Some(0), 90, 130),
            // A grandchild takes from `a`, not from the root.
            span("d", Some(1), 15, 25),
        ];
        assert_eq!(self_nanos(&spans), vec![40, 20, 30, 40, 10]);
    }

    #[test]
    fn a_span_without_children_is_all_self_time() {
        assert_eq!(self_nanos(&[span("only", None, 5, 12)]), vec![7]);
    }

    #[test]
    fn means_sum_within_a_request_first() {
        let mut spans = vec![
            span("plan", None, 0, 1_000),
            span("plan", None, 0, 3_000),
            span("plan", None, 0, 2_000),
        ];
        spans[2].request = 1;
        // Request 0 planned for 4 µs in two spans, request 1 for 2 µs.
        assert_eq!(mean_us_per_request(&spans, "plan"), 3.0);
        assert_eq!(mean_us_per_request(&spans, "absent"), 0.0);
    }

    #[test]
    fn recorder_nests_and_orders() {
        let rec = Recorder::new();
        let inner = rec.time("outer", None, 7, |outer| {
            rec.time("inner", Some(outer), 7, |id| id)
        });
        let spans = rec.into_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[inner as usize].parent, Some(0));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert!(to_json(&spans).contains("\"name\":\"inner\""));
    }
}
