//! # shapesearch-core
//!
//! The core of ShapeSearch (Siddiqui et al., SIGMOD 2020): the ShapeQuery
//! algebra, perceptually-aware scoring, the fuzzy segmentation algorithms
//! (optimal DP, SegmentTree, greedy), two-stage collective pruning, and the
//! pipelined execution engine.
//!
//! ## Overview
//!
//! * [`ast`] — the ShapeQuery algebra (§3): segments, patterns, modifiers,
//!   CONCAT/AND/OR/OPPOSITE operators.
//! * [`stats`] — summarized statistics and O(1) range regression (§5.3,
//!   Theorem 5.1).
//! * [`score`] — the Table-5 pattern scorers and Table-6 operator
//!   combiners.
//! * [`eval`] — scoring query nodes over visual segments, including
//!   quantifiers, sketches, UDPs, and POSITION references.
//! * [`algo`] — the segmentation algorithms of §6 plus the DTW/Euclidean
//!   baselines of §7.3/§9.
//! * [`engine`] — EXTRACT→GROUP→SEGMENT→SCORE pipeline with §5.4 push-down
//!   optimizations and top-k selection.
//!
//! ## Example
//!
//! ```
//! use shapesearch_core::{ShapeEngine, ShapeQuery};
//! use shapesearch_datastore::Trendline;
//!
//! let peak = Trendline::from_pairs(
//!     "peak",
//!     &[(0.0, 0.0), (1.0, 2.0), (2.0, 4.0), (3.0, 2.0), (4.0, 0.0)],
//! );
//! let fall = Trendline::from_pairs(
//!     "fall",
//!     &[(0.0, 4.0), (1.0, 3.0), (2.0, 2.0), (3.0, 1.0), (4.0, 0.0)],
//! );
//! let engine = ShapeEngine::from_trendlines(vec![peak, fall]);
//! let query = ShapeQuery::concat(vec![ShapeQuery::up(), ShapeQuery::down()]);
//! let results = engine.top_k(&query, 1).unwrap();
//! assert_eq!(results[0].key, "peak");
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod algo;
pub mod ast;
pub mod chain;
pub mod columnar;
pub mod engine;
pub mod error;
pub mod eval;
#[cfg(test)]
mod grid_corpus;
pub mod score;
pub mod snapshot;
pub mod stats;
pub mod udps;

pub use algo::pruning::{bound_tiers, BoundTiers, PruningMode, PruningSnapshot};
pub use algo::{MatchResult, Segmenter, SegmenterKind};
pub use ast::{IteratorSpec, Location, Modifier, Pattern, PosRef, ShapeQuery, ShapeSegment};
pub use columnar::{Collection, ColumnarArena};
pub use engine::group::{group_collection, VizData};
pub use engine::observe::{EngineStage, NoopObserver, StageObserver};
pub use engine::shard::{merge_topk, merge_topk_refs, partition_bounds_by_points, ShardedEngine};
pub use engine::{EngineOptions, ShapeEngine, SharedThresholds, TopKResult};
pub use error::{CoreError, Result};
pub use eval::{slope_leaf, Evaluator, PosContext, SlopeLeaf, UdpFn, UdpRegistry};
pub use score::ScoreParams;
pub use snapshot::{SnapshotError, SnapshotStats};
pub use stats::{StatsIndex, SummaryStats};
