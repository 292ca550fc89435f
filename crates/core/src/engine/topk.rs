//! Top-k selection: a bounded min-heap over match scores with deterministic
//! tie-breaking (lower visualization index wins ties, so runs are
//! reproducible).
//!
//! [`rank`] is the single ordering contract: the per-collection heap, the
//! final sort, and the cross-shard merge in [`crate::engine::shard`] all
//! compare candidates through it, which is what makes sharded execution
//! return byte-identical results (including tie order) to an unsharded run.

use crate::algo::MatchResult;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// The deterministic result ordering: higher score first, ties broken by
/// the lower (global) visualization index. Returns `Less` when `a` ranks
/// ahead of `b`, so sorting by `rank` yields descending score order.
/// `−0` and `+0` are one score: a NOT negates a zero to `−0`, and a shard
/// server's reply carries it back as JSON's one zero, so a router merging
/// it beside a local `−0` must see a tie, as the unsharded engine does.
pub(crate) fn rank(a_score: f64, a_viz: usize, b_score: f64, b_viz: usize) -> Ordering {
    let one_zero = |score: f64| if score == 0.0 { 0.0 } else { score };
    one_zero(b_score)
        .total_cmp(&one_zero(a_score))
        .then_with(|| a_viz.cmp(&b_viz))
}

/// One scored candidate.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Scored {
    pub viz: usize,
    pub result: MatchResult,
}

impl Eq for Scored {}

impl Ord for Scored {
    fn cmp(&self, other: &Self) -> Ordering {
        // `rank` orders best-first; the heap wants best = greatest, so flip.
        rank(other.result.score, other.viz, self.result.score, self.viz)
    }
}

impl PartialOrd for Scored {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A bounded collector of the k best candidates.
#[derive(Debug)]
pub(crate) struct TopK {
    k: usize,
    heap: BinaryHeap<std::cmp::Reverse<Scored>>,
}

impl TopK {
    /// A collector of the `k` best of at most `candidates` offers. `k`
    /// arrives unchecked from outside the program (the server's `"k"`),
    /// so the allocation is sized by what the heap can actually hold —
    /// never by `k` alone.
    pub fn new(k: usize, candidates: usize) -> Self {
        Self {
            k,
            heap: BinaryHeap::with_capacity(k.min(candidates).saturating_add(1)),
        }
    }

    /// Offers a candidate; keeps only the k best.
    pub fn push(&mut self, viz: usize, result: MatchResult) {
        if self.k == 0 {
            return;
        }
        self.heap.push(std::cmp::Reverse(Scored { viz, result }));
        if self.heap.len() > self.k {
            self.heap.pop();
        }
    }

    /// Drains into descending score order.
    pub fn into_sorted(self) -> Vec<Scored> {
        let mut v: Vec<Scored> = self.heap.into_iter().map(|r| r.0).collect();
        v.sort_by(|a, b| b.cmp(a));
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn res(score: f64) -> MatchResult {
        MatchResult {
            score,
            ranges: Vec::new(),
        }
    }

    #[test]
    fn keeps_k_best_in_order() {
        let mut tk = TopK::new(3, 5);
        for (i, s) in [0.1, 0.9, -0.5, 0.7, 0.3].into_iter().enumerate() {
            tk.push(i, res(s));
        }
        let out = tk.into_sorted();
        let scores: Vec<f64> = out.iter().map(|s| s.result.score).collect();
        assert_eq!(scores, vec![0.9, 0.7, 0.3]);
        assert_eq!(out[0].viz, 1);
    }

    #[test]
    fn ties_break_by_lower_index() {
        let mut tk = TopK::new(2, 3);
        tk.push(5, res(0.5));
        tk.push(1, res(0.5));
        tk.push(3, res(0.5));
        let out = tk.into_sorted();
        assert_eq!(out[0].viz, 1);
        assert_eq!(out[1].viz, 3);
    }

    #[test]
    fn both_zeros_are_one_score() {
        // A NOT's −0 beside the +0 a shard reply decodes the same −0 to.
        let mut tk = TopK::new(2, 2);
        tk.push(13, res(0.0));
        tk.push(1, res(-0.0));
        let order: Vec<usize> = tk.into_sorted().iter().map(|s| s.viz).collect();
        assert_eq!(order, vec![1, 13]);
        assert_eq!(rank(0.0, 13, -0.0, 1), Ordering::Greater);
        assert_eq!(rank(-0.0, 1, 0.0, 13), Ordering::Less);
    }

    #[test]
    fn zero_k_collects_nothing() {
        let mut tk = TopK::new(0, 1);
        tk.push(0, res(1.0));
        assert!(tk.into_sorted().is_empty());
    }
}
