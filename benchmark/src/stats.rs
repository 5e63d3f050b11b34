//! Order statistics and the noise protocol's estimators.

use crate::spec::Better;

/// Samples that must lie beyond a reported tail percentile.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// Nearest-rank percentile of an ascending slice, `q` in `[0, 1]`.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(v: &[f64]) -> f64 {
    let s = sorted(v.to_vec());
    let n = s.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        s[n / 2]
    } else {
        0.5 * (s[n / 2 - 1] + s[n / 2])
    }
}

/// Samples strictly beyond the nearest-rank `q` percentile of `n` samples.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    n - ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// The highest of p99/p95/p90/p75 that leaves at least
/// [`MIN_TAIL_SAMPLES`] samples beyond it, if any does: p95 needs 200
/// samples, which is why every workload takes at least 200 steps.
pub fn highest_supported_tail(n: usize) -> Option<f64> {
    [0.99, 0.95, 0.90, 0.75]
        .into_iter()
        .find(|&q| n > 0 && samples_beyond(n, q) >= MIN_TAIL_SAMPLES)
}

/// Best repeat: interference on a shared host only ever slows a run, so
/// the least disturbed repeat is the min of a time, the max of a rate.
pub fn best_of(values: &[f64], better: Better) -> f64 {
    let it = values.iter().copied();
    match better {
        Better::Lower => it.fold(f64::INFINITY, f64::min),
        Better::Higher => it.fold(f64::NEG_INFINITY, f64::max),
    }
}

/// `(worst - best) / best` over the repeats: the noise floor a number
/// carries. Zero for a single repeat.
pub fn spread_rel(values: &[f64], better: Better) -> f64 {
    let best = best_of(values, better);
    let worst = best_of(
        values,
        match better {
            Better::Lower => Better::Higher,
            Better::Higher => Better::Lower,
        },
    );
    if best == 0.0 {
        return 0.0;
    }
    ((worst - best) / best).abs()
}

/// One completed operation (a step, or an ensemble job) in completion
/// order: the interval since the previous completion, in seconds on a
/// common clock, the work it did (steps), and how long one unit of that
/// work took inside it. Intervals never overlap, so a window's span is
/// the sum of its intervals even when jobs ran side by side.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Op {
    pub start_s: f64,
    pub end_s: f64,
    pub work: f64,
    pub ms_per_work: f64,
}

impl Op {
    /// A step: the interval is the step, and so is its latency.
    pub fn step(start_s: f64, end_s: f64) -> Op {
        Op {
            start_s,
            end_s,
            work: 1.0,
            ms_per_work: (end_s - start_s) * 1e3,
        }
    }
}

/// What the quietest window of a run measured.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Quiet {
    /// Work per second in the window where that was highest.
    pub work_per_s: f64,
    /// Median milliseconds per unit of work in the window where that was
    /// lowest.
    pub p50_ms: f64,
}

impl Quiet {
    pub fn best(self, other: Quiet) -> Quiet {
        Quiet {
            work_per_s: self.work_per_s.max(other.work_per_s),
            p50_ms: self.p50_ms.min(other.p50_ms),
        }
    }
}

/// Cut `ops` (in completion order) into consecutive windows of `window`
/// operations and keep the best window of each estimate. Interference on
/// a shared host comes in episodes of seconds that slow every step by the
/// same ~30 %; a window shorter than an episode is either inside one or
/// clear of it, so the best window is the undisturbed program. A trailing
/// partial window is dropped unless it is the only one.
pub fn quietest_window(ops: &[Op], window: usize) -> Option<Quiet> {
    let window = window.clamp(1, ops.len().max(1));
    ops.chunks_exact(window)
        .map(|w| {
            let start = w.iter().map(|o| o.start_s).fold(f64::INFINITY, f64::min);
            let end = w.iter().map(|o| o.end_s).fold(f64::NEG_INFINITY, f64::max);
            let per_work: Vec<f64> = w.iter().map(|o| o.ms_per_work).collect();
            Quiet {
                work_per_s: w.iter().map(|o| o.work).sum::<f64>() / (end - start),
                p50_ms: median(&per_work),
            }
        })
        .reduce(Quiet::best)
}

/// How much worse `new` is than `base`, as a share of `base` (negative =
/// better), in the metric's own direction.
pub fn worse_by(base: f64, new: f64, better: Better) -> f64 {
    match better {
        Better::Lower => (new - base) / base,
        Better::Higher => (base - new) / base,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let s: Vec<f64> = (1..=200).map(|i| i as f64).collect();
        assert_eq!(percentile(&s, 0.5), 100.0);
        assert_eq!(percentile(&s, 0.95), 190.0);
        assert_eq!(percentile(&s, 1.0), 200.0);
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 0.95), 7.0);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        assert_eq!(samples_beyond(200, 0.95), 10);
        assert_eq!(samples_beyond(199, 0.95), 9);
        assert_eq!(highest_supported_tail(200), Some(0.95));
        assert_eq!(highest_supported_tail(199), Some(0.90));
        assert_eq!(highest_supported_tail(1000), Some(0.99));
        assert_eq!(highest_supported_tail(100), Some(0.90));
        assert_eq!(highest_supported_tail(40), Some(0.75));
        assert_eq!(highest_supported_tail(39), None);
        assert_eq!(highest_supported_tail(0), None);
    }

    #[test]
    fn best_of_and_spread_follow_the_direction() {
        let t = [63.0, 79.0, 61.5];
        assert_eq!(best_of(&t, Better::Lower), 61.5);
        assert!((spread_rel(&t, Better::Lower) - (79.0 - 61.5) / 61.5).abs() < 1e-15);
        let r = [1.0e7, 1.2e7, 0.9e7];
        assert_eq!(best_of(&r, Better::Higher), 1.2e7);
        assert!((spread_rel(&r, Better::Higher) - 0.25).abs() < 1e-15);
        assert_eq!(spread_rel(&[5.0], Better::Lower), 0.0);
    }

    #[test]
    fn quietest_window_rejects_a_slow_episode() {
        // 8 quiet steps of 10 ms, then an 8-step episode at 13 ms, one spike.
        let mut t = 0.0;
        let mut ops = Vec::new();
        for k in 0..16 {
            let d = if k == 3 {
                0.050
            } else if k < 8 {
                0.010
            } else {
                0.013
            };
            ops.push(Op::step(t, t + d));
            t += d;
        }
        let q = quietest_window(&ops, 4).unwrap();
        // Best rate: the second window (4 x 10 ms); the spike's window loses.
        assert!((q.work_per_s - 100.0).abs() < 1e-9);
        // The median shrugs the spike off inside its window too.
        assert!((q.p50_ms - 10.0).abs() < 1e-9);
        // One window = the whole series: the episode drags the rate down.
        let whole = quietest_window(&ops, 16).unwrap();
        assert!(whole.work_per_s < 80.0);
        // A window longer than the series is the series; no ops, no answer.
        assert_eq!(quietest_window(&ops, 99), Some(whole));
        assert_eq!(quietest_window(&[], 4), None);
        // A trailing partial window is dropped.
        assert_eq!(quietest_window(&ops[..7], 4), quietest_window(&ops[..4], 4));
    }

    #[test]
    fn work_and_latency_are_separate_from_the_interval() {
        // Two workers finishing jobs 0.5 s apart, each job 1 s long:
        // 300 steps per completion interval, 1000/300 ms per step inside.
        let ops: Vec<Op> = (0..4)
            .map(|k| Op {
                start_s: 0.5 * k as f64,
                end_s: 0.5 * (k + 1) as f64,
                work: 300.0,
                ms_per_work: 1000.0 / 300.0,
            })
            .collect();
        let q = quietest_window(&ops, 2).unwrap();
        assert_eq!(q.work_per_s, 600.0);
        assert_eq!(q.p50_ms, 1000.0 / 300.0);
    }

    #[test]
    fn worse_by_is_signed_in_the_metric_direction() {
        assert!((worse_by(100.0, 110.0, Better::Lower) - 0.1).abs() < 1e-15);
        assert!((worse_by(100.0, 90.0, Better::Higher) - 0.1).abs() < 1e-15);
        assert!(worse_by(100.0, 90.0, Better::Lower) < 0.0);
    }
}
