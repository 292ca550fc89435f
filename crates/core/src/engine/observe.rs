//! Stage timing hooks: the dependency-free seam the engine reports
//! per-stage latencies through.
//!
//! The core crate stays free of any metrics/export machinery — it only
//! calls [`StageObserver::stage`] with a stage tag and a duration, and
//! embedders (the server's `/metrics` registries, a test harness, a
//! benchmark) decide what to do with the samples. The default
//! [`NoopObserver`] compiles to nothing, so un-observed executions pay
//! only a virtual call per stage, never any aggregation cost.

/// Engine pipeline stages that report timings (the observable subset of
/// the paper's EXTRACT → GROUP → SEGMENT → SCORE pipeline; EXTRACT runs
/// at registration time and is not on the query path).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineStage {
    /// The shared GROUP stage: normalization, binning, and the prefix
    /// statistics index over the trendline collection (at most once per
    /// batch — see `ShapeEngine::top_k_batch_observed`).
    Group,
    /// One query's SEGMENT + SCORE pass over the candidate
    /// visualizations (per query, covers the whole `run_per_viz` walk
    /// including any parallel fan-out). The clock starts before
    /// candidate selection (push-down (a)'s filter), so everything a
    /// batch does after its `Group` report lies inside some query's
    /// `SegmentScore` sample and an executor's wall time ≈ `Group` +
    /// Σ `SegmentScore` — work outside every stage is a bug, not a
    /// blind spot.
    SegmentScore,
    /// §6.3 bound work inside the pruning driver. The bound pass — the
    /// whole-trendline upper bounds of all of one query's candidates —
    /// reports once per pass (one sample per query the driver runs for,
    /// microseconds long on a collection of any size); the second tier
    /// reports once per walk of candidates that computed any, the walk's
    /// total (most of a microsecond per candidate it bounded again).
    /// Taken inside `SegmentScore`: a share of it, not an addend.
    PruneBound,
}

impl EngineStage {
    /// Stable lowercase identifier used in span names and metric labels.
    pub fn name(self) -> &'static str {
        match self {
            EngineStage::Group => "group",
            EngineStage::SegmentScore => "segment_score",
            EngineStage::PruneBound => "prune_bound",
        }
    }
}

/// A sink for engine stage timings.
///
/// Implementations must be cheap and lock-free on the hot path — the
/// engine calls [`Self::stage`] from scoring threads (possibly many
/// concurrently, hence the `Sync` bound) and from inside the pruning
/// driver's bound pass.
pub trait StageObserver: Sync {
    /// Reports that `stage` work took `micros` microseconds. One
    /// invocation per timed region, not a running total; implementations
    /// aggregate.
    fn stage(&self, stage: EngineStage, micros: u64);
}

/// The default observer: discards every sample.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopObserver;

impl StageObserver for NoopObserver {
    fn stage(&self, _stage: EngineStage, _micros: u64) {}
}

/// The shared no-op instance un-observed entry points pass down.
pub static NOOP_OBSERVER: NoopObserver = NoopObserver;

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn stage_names_are_stable() {
        assert_eq!(EngineStage::Group.name(), "group");
        assert_eq!(EngineStage::SegmentScore.name(), "segment_score");
        assert_eq!(EngineStage::PruneBound.name(), "prune_bound");
    }

    #[test]
    fn observers_receive_samples() {
        #[derive(Default)]
        struct Sum(AtomicU64);
        impl StageObserver for Sum {
            fn stage(&self, _stage: EngineStage, micros: u64) {
                self.0.fetch_add(micros, Ordering::Relaxed);
            }
        }
        let sum = Sum::default();
        sum.stage(EngineStage::Group, 3);
        sum.stage(EngineStage::PruneBound, 4);
        assert_eq!(sum.0.load(Ordering::Relaxed), 7);
        NOOP_OBSERVER.stage(EngineStage::SegmentScore, 99);
    }
}
