//! Telling the requests the machine disturbed from the ones it did not.
//!
//! The reference box is a 2-core virtual machine whose physical cores
//! each carry a neighbour's virtual CPU on their other hardware thread.
//! While the neighbour computes, code that fills the core's units runs at
//! two thirds of its speed: a `fuzzy_miss` query takes 38 ms, 60 with one
//! core shared, 65 with both — for a tenth of a second or for minutes at a
//! stretch, on each core on its own. Ten runs of unchanged code spread by
//! 20 to 35 % that way, whatever statistic summed a run up (README,
//! "Steadiness").
//!
//! The probes of [`crate::procs::Probes`] read how fast each core is
//! whenever it is idle for a moment, and alone on its core the probe
//! repeats to within a per cent. So a stretch of the run is *undisturbed*
//! when every reading round it, on every core it used, is within 5 % of
//! that floor; and where a core was shared, the readings say by how much
//! it was slowed (its *dilation*). `measure::fold` reports the median over
//! the undisturbed stretches and, in a run that has too few of them, the
//! median of every stretch divided by its dilation.

use crate::procs::{CoreSeries, BUCKET_NS};
use crate::stats;
use std::path::Path;
use std::time::Instant;

/// A reading this many floors and up is a neighbour on the core.
pub const DISTURBED_FROM: f64 = 1.05;
/// A reading beyond this many floors says nothing of the core's speed:
/// the probe was pre-empted half-way. A shared core reads 1.3 to 1.6.
const PREEMPTED_ABOVE: f64 = 2.5;
/// How far round a stretch the readings count for it. The probes read
/// only while a core is idle, which a busy core is just before a request
/// and just after; a neighbour's spell lasts a tenth of a second and up.
const ROUND_NS: u64 = 4 * BUCKET_NS;

/// What the probes say of one stretch of the run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Verdict {
    /// Every core the stretch used was read, and read at its floor.
    pub undisturbed: bool,
    /// By how much the slowest core was slowed — what a reply that waits
    /// for its slowest shard feels: 1 at the floor, about 1.5 with a
    /// neighbour computing throughout. 1 where nothing was read.
    pub slowest: f64,
    /// The same, averaged over the cores: what CPU time summed over them
    /// feels.
    pub average: f64,
}

/// The probes' readings over a run, and the floor to hold them against.
pub struct Interference {
    epoch: Instant,
    /// What a probe reads alone on its core, in nanoseconds; 0 while
    /// unknown, and then nothing is known to be undisturbed either.
    floor_ns: f64,
    cores: Vec<CoreSeries>,
}

impl Interference {
    /// `earlier_floor` is the floor earlier runs in this checkout found.
    /// The floor is a property of the machine, and a run that had a
    /// neighbour on both cores from start to end (they stay for minutes)
    /// cannot find it in its own readings: the quicker of the two counts.
    pub fn new(epoch: Instant, cores: Vec<CoreSeries>, earlier_floor: Option<u32>) -> Self {
        // The first percentile of each core's readings, not the least: a
        // reading cut short by a clock adjustment must not become the
        // floor everything else is held against.
        let own = cores
            .iter()
            .filter(|core| !core.buckets.is_empty())
            .map(|core| {
                let mut readings: Vec<u64> =
                    core.buckets.iter().map(|b| u64::from(b.best_ns)).collect();
                stats::percentile(&mut readings, 1.0)
            })
            .min();
        let floor = match (own, earlier_floor) {
            (Some(own), Some(earlier)) => own.min(u64::from(earlier)),
            (Some(own), None) => own,
            (None, earlier) => earlier.map_or(0, u64::from),
        };
        Self {
            epoch,
            floor_ns: floor as f64,
            cores,
        }
    }

    /// The floor, for the next run in this checkout.
    pub fn floor_ns(&self) -> Option<u32> {
        (self.floor_ns > 0.0).then_some(self.floor_ns as u32)
    }

    /// The verdict on `[from, to]`, by the readings of `only_cpu` (where
    /// the stretch was confined to one) or of every core.
    pub fn over(&self, from: Instant, to: Instant, only_cpu: Option<usize>) -> Verdict {
        let since_epoch = |at: Instant| at.saturating_duration_since(self.epoch).as_nanos() as u64;
        let (from_ns, to_ns) = (
            since_epoch(from).saturating_sub(ROUND_NS),
            since_epoch(to) + ROUND_NS,
        );
        let mut undisturbed = self.floor_ns > 0.0;
        let mut slowed = Vec::new();
        let watched = self
            .cores
            .iter()
            .filter(|core| only_cpu.is_none_or(|cpu| cpu == core.cpu));
        for core in watched {
            let first = core
                .buckets
                .partition_point(|b| b.at_ns + BUCKET_NS <= from_ns);
            let mut floors: Vec<f64> = core.buckets[first..]
                .iter()
                .take_while(|b| b.at_ns <= to_ns)
                .map(|b| f64::from(b.best_ns) / self.floor_ns)
                .filter(|floors| *floors <= PREEMPTED_ABOVE)
                .collect();
            if floors.is_empty() {
                // A core nobody read may have been anything.
                undisturbed = false;
                continue;
            }
            floors.sort_by(f64::total_cmp);
            // The ninth decile, not the highest: one reading an interrupt
            // fell into does not condemn a stretch with ten clean ones.
            let high = floors[(floors.len() * 9).div_ceil(10) - 1];
            undisturbed &= high < DISTURBED_FROM;
            slowed.push(stats::mean(&floors).max(1.0));
        }
        Verdict {
            undisturbed,
            slowest: slowed.iter().copied().fold(1.0, f64::max),
            average: if slowed.is_empty() {
                1.0
            } else {
                stats::mean(&slowed)
            },
        }
    }

    /// The verdict on a stretch the client read the probe before and
    /// after itself (the quickest of three readings each time), on the
    /// one core everything ran on.
    pub fn between(&self, before_ns: u32, after_ns: u32) -> Verdict {
        // No floor, or no reading taken: nothing is known.
        let known: Vec<f64> = [before_ns, after_ns]
            .into_iter()
            .filter(|&ns| self.floor_ns > 0.0 && ns != 0)
            .map(|ns| f64::from(ns) / self.floor_ns)
            .filter(|floors| *floors <= PREEMPTED_ABOVE)
            .collect();
        let slowed = if known.is_empty() {
            1.0
        } else {
            stats::mean(&known).max(1.0)
        };
        Verdict {
            undisturbed: known.len() == 2 && known.iter().all(|f| *f < DISTURBED_FROM),
            slowest: slowed,
            average: slowed,
        }
    }
}

/// The floor earlier runs in this checkout left in `path`, if any.
pub fn earlier_floor(path: &Path) -> Option<u32> {
    std::fs::read_to_string(path).ok()?.trim().parse().ok()
}

/// Leaves `floor_ns` in `path` for the runs that follow. Failing to only
/// costs them what they would have learnt from this one.
pub fn keep_floor(path: &Path, floor_ns: u32) {
    let _ = std::fs::write(path, format!("{floor_ns}\n"));
}

/// What earlier runs in this checkout left in `path` of a workload's
/// sensitivities (`measure::Sensitivities`: four numbers), if anything.
pub fn earlier_sensitivities(path: &Path) -> Option<[f64; 4]> {
    let text = std::fs::read_to_string(path).ok()?;
    let numbers: Vec<f64> = text
        .split_whitespace()
        .map_while(|word| word.parse().ok())
        .filter(|number: &f64| number.is_finite())
        .collect();
    numbers.try_into().ok()
}

pub fn keep_sensitivities(path: &Path, numbers: [f64; 4]) {
    let words: Vec<String> = numbers.iter().map(f64::to_string).collect();
    let _ = std::fs::write(path, words.join(" ") + "\n");
}

/// For tests: core `cpu` read once every bucket of each `(from_ms, to_ms,
/// reading)` span.
#[cfg(test)]
pub fn read(cpu: usize, spans: &[(u64, u64, u32)]) -> CoreSeries {
    let per_ms = 1_000_000 / BUCKET_NS;
    CoreSeries {
        cpu,
        buckets: spans
            .iter()
            .flat_map(|&(from_ms, to_ms, ns)| {
                (from_ms * per_ms..to_ms * per_ms).map(move |i| crate::procs::Bucket {
                    at_ns: i * BUCKET_NS,
                    best_ns: ns,
                })
            })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn ms(epoch: Instant, ms: u64) -> Instant {
        epoch + Duration::from_millis(ms)
    }

    #[test]
    fn a_stretch_is_undisturbed_when_every_core_reads_its_floor() {
        let epoch = Instant::now();
        // Core 0 is shared from 100 ms on; core 1 never; nobody reads
        // core 1 between 200 and 300 ms.
        let cores = vec![
            read(0, &[(0, 100, 9_000), (100, 400, 13_500)]),
            read(1, &[(0, 200, 9_050), (300, 400, 9_000)]),
        ];
        let seen = Interference::new(epoch, cores, None);
        assert_eq!(seen.floor_ns(), Some(9_000));

        let calm = seen.over(ms(epoch, 10), ms(epoch, 50), None);
        assert!(calm.undisturbed);
        assert!(calm.slowest < 1.01 && calm.average < 1.01);

        let shared = seen.over(ms(epoch, 120), ms(epoch, 160), None);
        assert!(!shared.undisturbed);
        assert!((shared.slowest - 1.5).abs() < 0.01);
        assert!((shared.average - 1.25).abs() < 0.01);
        // Confined to core 1, the same stretch was not disturbed.
        assert!(
            seen.over(ms(epoch, 120), ms(epoch, 160), Some(1))
                .undisturbed
        );

        // The readings round a stretch count for it: 1 ms either side.
        assert!(seen.over(ms(epoch, 90), ms(epoch, 98), None).undisturbed);
        assert!(!seen.over(ms(epoch, 90), ms(epoch, 100), None).undisturbed);

        // Core 1 unread: not known to be undisturbed, and dilated as
        // core 0 says.
        let unread = seen.over(ms(epoch, 220), ms(epoch, 280), None);
        assert!(!unread.undisturbed);
        assert!((unread.slowest - 1.5).abs() < 0.01);
        assert!((unread.average - 1.5).abs() < 0.01);
    }

    #[test]
    fn pre_empted_readings_and_stray_ones_do_not_count() {
        let epoch = Instant::now();
        let mut core = read(0, &[(0, 100, 9_000)]);
        // A probe pre-empted half-way, and one an interrupt fell into.
        core.buckets[40].best_ns = 400_000;
        core.buckets[44].best_ns = 11_000;
        let seen = Interference::new(epoch, vec![core], None);
        let verdict = seen.over(ms(epoch, 5), ms(epoch, 20), None);
        assert!(verdict.undisturbed);
        assert!(verdict.slowest < 1.01);
    }

    #[test]
    fn the_quicker_of_this_run_s_floor_and_an_earlier_one_counts() {
        let epoch = Instant::now();
        // A neighbour on the only core from start to end.
        let shared = || vec![read(0, &[(0, 50, 13_500)])];
        let alone = Interference::new(epoch, shared(), None);
        assert!(alone.over(ms(epoch, 10), ms(epoch, 20), None).undisturbed);
        let told = Interference::new(epoch, shared(), Some(9_000));
        assert_eq!(told.floor_ns(), Some(9_000));
        let verdict = told.over(ms(epoch, 10), ms(epoch, 20), None);
        assert!(!verdict.undisturbed);
        assert!((verdict.slowest - 1.5).abs() < 0.01);
        // A quicker floor of this run's own replaces the earlier one.
        let quicker = Interference::new(epoch, vec![read(0, &[(0, 50, 8_900)])], Some(9_000));
        assert_eq!(quicker.floor_ns(), Some(8_900));
    }

    #[test]
    fn without_readings_nothing_is_known_to_be_disturbed_or_not() {
        let epoch = Instant::now();
        let blind = Interference::new(epoch, Vec::new(), None);
        assert_eq!(blind.floor_ns(), None);
        let verdict = blind.over(ms(epoch, 0), ms(epoch, 10), None);
        assert_eq!(
            verdict,
            Verdict {
                undisturbed: false,
                slowest: 1.0,
                average: 1.0
            }
        );
        assert!(!blind.between(9_000, 9_000).undisturbed);
    }

    #[test]
    fn the_client_s_own_readings_bracket_a_stretch() {
        let epoch = Instant::now();
        let seen = Interference::new(epoch, vec![read(1, &[(0, 10, 9_000)])], None);
        assert!(seen.between(9_100, 9_200).undisturbed);
        let shared = seen.between(9_000, 13_500);
        assert!(!shared.undisturbed);
        assert!((shared.slowest - 1.25).abs() < 0.01);
        // A pre-empted reading is no reading.
        let unknown = seen.between(9_000, 90_000);
        assert!(!unknown.undisturbed);
        assert!(unknown.slowest < 1.01);
        // No reading taken.
        assert!(!seen.between(0, 9_000).undisturbed);
    }

    #[test]
    fn the_floor_and_the_sensitivities_are_kept_between_runs() {
        let dir = std::env::temp_dir().join(format!("ssbench-floor-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("probe_floor_ns");
        assert_eq!(earlier_floor(&path), None);
        keep_floor(&path, 8_931);
        assert_eq!(earlier_floor(&path), Some(8_931));
        let path = dir.join("sensitivity_test");
        assert_eq!(earlier_sensitivities(&path), None);
        keep_sensitivities(&path, [0.72, 0.0, 0.25, 1.1]);
        assert_eq!(earlier_sensitivities(&path), Some([0.72, 0.0, 0.25, 1.1]));
        std::fs::write(&path, "0.5 NaN 1 1").unwrap();
        assert_eq!(earlier_sensitivities(&path), None);
        std::fs::write(&path, "0.5 1 1").unwrap();
        assert_eq!(earlier_sensitivities(&path), None);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
