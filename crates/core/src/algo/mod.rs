//! Segmentation algorithms (paper §6): given a fuzzy ShapeQuery and a
//! candidate visualization, find the segmentation (one VisualSegment per
//! ShapeExpr) that maximizes the query score.
//!
//! * [`dp`] — the optimal O(n²k) dynamic program (§6.1, Theorems 6.1–6.2).
//! * [`segment_tree`] — the pattern-aware O(nk⁴) SegmentTree algorithm
//!   (§6.2, Theorem 6.3) under the Closure assumption.
//! * [`greedy`] — the local-search baseline (§9).
//! * [`pruning`] — two-stage collective pruning across a visualization
//!   collection (§6.3, Theorem 6.4).
//! * [`baseline`] — DTW / Euclidean whole-series matching (§7.3, §9).

pub mod baseline;
pub mod dp;
pub mod greedy;
pub mod pruning;
pub mod segment_tree;

use crate::chain::Chain;
use crate::eval::Evaluator;

/// Result of matching one query against one visualization.
#[derive(Debug, Clone, PartialEq)]
pub struct MatchResult {
    /// Final score in [−1, 1].
    pub score: f64,
    /// Inclusive point range assigned to each unit of the winning chain.
    /// Empty for whole-series matchers (DTW/Euclidean) and infeasible
    /// matches.
    pub ranges: Vec<(usize, usize)>,
}

impl MatchResult {
    /// The "no feasible match" result.
    pub fn infeasible() -> Self {
        Self {
            score: -1.0,
            ranges: Vec::new(),
        }
    }
}

/// The available segmentation strategies, selectable per engine run
/// (compared against each other in §9 / Figures 10–13).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SegmenterKind {
    /// Optimal dynamic programming (ground truth, O(n²k)).
    Dp,
    /// SegmentTree pattern-aware segmentation (default; O(nk⁴)).
    #[default]
    SegmentTree,
    /// Greedy extend/shrink local search.
    Greedy,
    /// Dynamic-time-warping whole-series baseline.
    Dtw,
    /// Euclidean whole-series baseline.
    Euclidean,
}

impl SegmenterKind {
    /// Parses the short CLI / wire name of an algorithm.
    pub fn parse(name: &str) -> Option<Self> {
        match name.to_ascii_lowercase().as_str() {
            "dp" => Some(SegmenterKind::Dp),
            // "pruned" / "tree_pruned" named a variant that was SegmentTree
            // scoring plus the §6.3 bound check; pruning is a
            // [`PruningMode`] now, so they stay accepted as spellings of
            // SegmentTree.
            "tree" | "segment_tree" | "pruned" | "tree_pruned" => Some(SegmenterKind::SegmentTree),
            "greedy" => Some(SegmenterKind::Greedy),
            "dtw" => Some(SegmenterKind::Dtw),
            "euclid" | "euclidean" => Some(SegmenterKind::Euclidean),
            _ => None,
        }
    }

    /// The canonical short name ([`Self::parse`] round-trips it).
    pub fn name(self) -> &'static str {
        match self {
            SegmenterKind::Dp => "dp",
            SegmenterKind::SegmentTree => "tree",
            SegmenterKind::Greedy => "greedy",
            SegmenterKind::Dtw => "dtw",
            SegmenterKind::Euclidean => "euclid",
        }
    }
}

/// A per-visualization segmentation strategy.
pub trait Segmenter {
    /// Matches the expanded chains of a query against one visualization,
    /// returning the best chain's result.
    fn match_viz(&self, ev: &Evaluator<'_>, chains: &[Chain]) -> MatchResult;
}

/// Picks the best result across chains using a per-chain solver.
pub(crate) fn best_over_chains(
    chains: &[Chain],
    mut solve: impl FnMut(&Chain) -> MatchResult,
) -> MatchResult {
    let mut best = MatchResult::infeasible();
    for chain in chains {
        let r = solve(chain);
        if r.score > best.score || best.ranges.is_empty() && !r.ranges.is_empty() {
            best = r;
        }
    }
    best
}
