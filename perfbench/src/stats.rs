//! Small statistics helpers shared by the workloads.

use crate::pin::Rotation;
use std::time::Duration;

/// How long the timed phases stay on one CPU before moving to the next
/// ([`Rotation`]).
const ROTATE_EVERY: Duration = Duration::from_secs(1);

/// SplitMix64: derives independent sub-seeds from `--seed`.
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Nearest-rank percentile (`p` in 0..=1) of an unsorted sample; 0 for
/// an empty one.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let idx = ((v.len() as f64 - 1.0) * p).round() as usize;
    v[idx.min(v.len() - 1)]
}

/// Median of an unsorted sample.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// The process's peak resident set (`VmHWM`), megabytes; 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Percentile at which the bounded timings are read: per-unit costs at
/// this percentile, per-unit rates at one minus it. The shared 2-vCPU host
/// the benchmark was built on switches between a fast and a slow state,
/// 1.5-1.7x apart, every few seconds, and the mix of the two differs from
/// run to run, so a median or a mean of a run moves with the mix. The fast
/// state holds for more than a twentieth of almost every run, so this
/// percentile reads it; a change that makes every unit slower moves it as
/// much as it moves the median.
const FAST: f64 = 0.05;

/// A per-unit cost (time or latency) in the host's fast state.
pub fn fast_cost(values: &[f64]) -> f64 {
    percentile(values, FAST)
}

/// A per-unit rate in the host's fast state.
pub fn fast_rate(values: &[f64]) -> f64 {
    percentile(values, 1.0 - FAST)
}

/// Times `make` at least `min_runs` times and for at least `min_seconds`,
/// handing every result but the last to `dispose` (untimed). Returns the
/// quickest set-up in seconds and the last result. The host's fast state
/// comes in bursts of a few set-ups between stretches of a second or more
/// in which every set-up is 1.6x slower, so the quickest of a long series
/// reads it where a percentile may not. Set-up is not pinned
/// ([`Rotation`]): model learning runs on every CPU the process may use.
pub fn timed_setup<T>(
    min_runs: usize,
    min_seconds: f64,
    mut make: impl FnMut() -> T,
    mut dispose: impl FnMut(T),
) -> (f64, T) {
    let mut times = Vec::new();
    loop {
        let t = std::time::Instant::now();
        let value = make();
        times.push(t.elapsed().as_secs_f64());
        if times.len() >= min_runs && times.iter().sum::<f64>() >= min_seconds {
            return (times.iter().copied().fold(f64::INFINITY, f64::min), value);
        }
        dispose(value);
    }
}

/// Runs `f` at least `min_runs` times and until `seconds` have passed,
/// collecting each result and moving the process to the next CPU every
/// [`ROTATE_EVERY`].
pub fn repeat_for<T>(seconds: f64, min_runs: usize, mut f: impl FnMut(usize) -> T) -> Vec<T> {
    let started = std::time::Instant::now();
    let mut rotation = Rotation::new(ROTATE_EVERY);
    let mut out = Vec::new();
    while out.len() < min_runs || started.elapsed().as_secs_f64() < seconds {
        rotation.turn();
        out.push(f(out.len()));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        let v = [5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(median(&v), 3.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 1.0), 5.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn fast_state_reads_the_cheap_twentieth() {
        let v: Vec<f64> = (1..=21).map(f64::from).collect();
        assert_eq!(fast_cost(&v), 2.0);
        assert_eq!(fast_rate(&v), 20.0);
    }

    #[test]
    fn timed_setup_keeps_the_last_and_disposes_the_rest() {
        let mut disposed = Vec::new();
        let mut n = 0;
        let (_, last) = timed_setup(
            3,
            0.0,
            || {
                n += 1;
                n
            },
            |v| disposed.push(v),
        );
        assert_eq!(last, 3);
        assert_eq!(disposed, vec![1, 2]);
    }
}
