//! Exact-sample statistics: quantiles over the samples themselves, medians
//! over windows of a run, and a batch timer for the ladder's rungs.

use std::time::{Duration, Instant};

use crate::params::QUIET_SHARE;

/// The `q`-quantile (nearest rank) of `samples`, which are reordered.
///
/// Samples are whole nanoseconds. The `k` samples that tie with the
/// order statistic are treated as spread evenly over `[v, v + 1)`, so the
/// result keeps moving with the distribution when many samples tie at the
/// clock's resolution instead of sticking to one integer.
pub fn quantile(samples: &mut [u32], q: f64) -> f64 {
    assert!(!samples.is_empty(), "quantile of no samples");
    let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len()) - 1;
    let (_, &mut v, _) = samples.select_nth_unstable(rank);
    let below = samples.iter().filter(|&&s| s < v).count();
    let ties = samples.iter().filter(|&&s| s == v).count();
    f64::from(v) + (rank - below) as f64 / ties as f64
}

/// The `q`-quantile of `values`, interpolated between the two order
/// statistics it falls between.
pub fn quantile_of(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let at = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, part) = (at.floor() as usize, at.fract());
    v[lo] + (v[(lo + 1).min(v.len() - 1)] - v[lo]) * part
}

/// Median of `values` (mean of the two middle ones for an even count).
pub fn median(values: &[f64]) -> f64 {
    quantile_of(values, 0.5)
}

/// Distance between the first and third quartile of `values` as a share
/// of their median, with the quartiles of Python's
/// `statistics.quantiles(values, n=4)` (the acceptance driver's rule).
pub fn quartile_spread(values: &[f64]) -> f64 {
    assert!(values.len() >= 2, "quartiles need two values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, v.len() - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(3) - cut(1)) / median(values).abs().max(f64::MIN_POSITIVE)
}

/// One window of a run, reduced to its own figures as soon as it ends
/// (the samples are not kept).
pub struct Window {
    pub throughput_per_s: f64,
    pub p50_us: f64,
    pub p99_us: f64,
    pub samples: u64,
}

impl Window {
    /// Reduces the latencies (ns) of the operations that completed within
    /// `elapsed`; `None` when there were none.
    pub fn reduce(elapsed: Duration, lat_ns: &mut [u32]) -> Option<Window> {
        if lat_ns.is_empty() {
            return None;
        }
        Some(Window {
            throughput_per_s: lat_ns.len() as f64 / elapsed.as_secs_f64().max(1e-9),
            p50_us: quantile(lat_ns, 0.50) / 1e3,
            p99_us: quantile(lat_ns, 0.99) / 1e3,
            samples: lat_ns.len() as u64,
        })
    }
}

/// What a run reports from its windows. Throughput and median latency are
/// the decile of the windows' own values on the host's quiet side (the
/// ninth decile of the throughputs, the first of the medians). This host
/// slows a busy thread by a third for seconds at a time, several times a
/// minute and in some minutes for most of the time: the median window is a
/// fast one in one run and a slowed one in the next (spread of ten runs
/// 0.04-0.09), the quiet decile is a fast one in nearly all (0.01-0.04).
/// The p99 stays the median over the windows: it is what the SLO of an
/// open-loop step is stated on.
pub struct WindowSummary {
    pub throughput_per_s: f64,
    pub p50_us: f64,
    pub p99_us: f64,
    pub samples: u64,
    /// Smallest number of samples beyond a window's p99.
    pub beyond_p99_min: u64,
}

pub fn summarize(windows: &[Window]) -> WindowSummary {
    assert!(!windows.is_empty(), "a run completed no operation");
    let col = |f: fn(&Window) -> f64, q| quantile_of(&windows.iter().map(f).collect::<Vec<_>>(), q);
    WindowSummary {
        throughput_per_s: col(|w| w.throughput_per_s, 1.0 - QUIET_SHARE),
        p50_us: col(|w| w.p50_us, QUIET_SHARE),
        p99_us: col(|w| w.p99_us, 0.5),
        samples: windows.iter().map(|w| w.samples).sum(),
        beyond_p99_min: windows
            .iter()
            .map(|w| w.samples - (0.99 * w.samples as f64).ceil() as u64)
            .min()
            .expect("non-empty"),
    }
}

/// Each window's throughput, for `result.json`: how much of a run's
/// figure is the host's doing shows in how its windows differ.
pub fn window_throughputs(windows: &[Window]) -> sentinel_core::obs::json::Value {
    use sentinel_core::obs::json::Value;
    Value::Arr(windows.iter().map(|w| Value::Float(w.throughput_per_s.round())).collect())
}

/// Splits `(completed_at, latency)` samples taken since `start` into
/// `n` windows of equal length by completion time; windows in which
/// nothing completed are left out.
pub fn windows_by_completion(
    start: Instant,
    span: Duration,
    n: usize,
    samples: &[(Instant, u32)],
) -> Vec<Window> {
    let len = span / n as u32;
    let mut lat: Vec<Vec<u32>> = vec![Vec::new(); n];
    for &(at, ns) in samples {
        let i = (at.saturating_duration_since(start).as_nanos() / len.as_nanos().max(1)) as usize;
        if i < n {
            lat[i].push(ns);
        }
    }
    lat.iter_mut().filter_map(|l| Window::reduce(len, l)).collect()
}

/// Splits `(completed_at, latency)` samples, which are in completion
/// order, into windows of `per` consecutive samples (a shorter last one
/// is left out unless it is the only one).
pub fn windows_by_count(samples: &[(Instant, u32)], per: usize) -> Vec<Window> {
    samples
        .chunks(per)
        .enumerate()
        .filter(|(i, chunk)| *i == 0 || chunk.len() == per)
        .filter_map(|(_, chunk)| {
            let mut lat: Vec<u32> = chunk.iter().map(|&(_, ns)| ns).collect();
            Window::reduce(chunk[chunk.len() - 1].0 - chunk[0].0, &mut lat)
        })
        .collect()
}

/// Nanoseconds clamped into a `u32` sample (4.29 s; longer reads as that).
pub fn ns_u32(d: Duration) -> u32 {
    u32::try_from(d.as_nanos()).unwrap_or(u32::MAX)
}

/// Nanoseconds per operation of `op`, timed from outside: batches of
/// `batch` calls run for `budget` (at least five batches), and the
/// median batch is reported. `op` receives the running operation index.
pub fn ns_per_op(budget: Duration, batch: usize, mut op: impl FnMut(usize)) -> f64 {
    let mut per_batch = Vec::new();
    let mut i = 0usize;
    let start = Instant::now();
    while per_batch.len() < 5 || start.elapsed() < budget {
        let t0 = Instant::now();
        for _ in 0..batch {
            op(i);
            i += 1;
        }
        per_batch.push(t0.elapsed().as_nanos() as f64 / batch as f64);
    }
    median(&per_batch)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Nearest-rank reference on a sorted copy.
    fn reference(samples: &[u32], q: f64) -> u32 {
        let mut s = samples.to_vec();
        s.sort_unstable();
        let rank = ((q * s.len() as f64).ceil() as usize).clamp(1, s.len());
        s[rank - 1]
    }

    #[test]
    fn quantile_matches_sorted_samples() {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let samples: Vec<u32> = (0..10_007)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x % 50_000) as u32
            })
            .collect();
        for q in [0.0, 0.01, 0.5, 0.9, 0.99, 0.999, 1.0] {
            let got = quantile(&mut samples.clone(), q);
            let want = f64::from(reference(&samples, q));
            assert!((want..want + 1.0).contains(&got), "q={q}: {got} vs {want}");
        }
    }

    #[test]
    fn quantile_spreads_ties() {
        let mut all_same = vec![7u32; 100];
        assert!((quantile(&mut all_same, 0.5) - 7.49).abs() < 1e-9);
        let mut one = vec![3u32];
        assert_eq!(quantile(&mut one, 0.99), 3.0);
    }

    #[test]
    fn quartile_spread_matches_python() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((quartile_spread(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert!((quartile_spread(&[1.0, 2.0]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn windows_split_by_completion_time() {
        let start = Instant::now();
        let at = |ms| start + Duration::from_millis(ms);
        let samples = [(at(10), 1), (at(260), 2), (at(990), 3), (at(1500), 4)];
        let w = windows_by_completion(start, Duration::from_secs(1), 4, &samples);
        let p50: Vec<f64> = w.iter().map(|w| w.p50_us).collect();
        assert_eq!(p50, vec![0.001, 0.002, 0.003]);
    }

    #[test]
    fn windows_of_consecutive_samples() {
        let start = Instant::now();
        let samples: Vec<(Instant, u32)> =
            (0..250u32).map(|i| (start + Duration::from_micros(u64::from(i)), i)).collect();
        let w = windows_by_count(&samples, 100);
        assert_eq!(w.iter().map(|w| w.samples).collect::<Vec<_>>(), vec![100, 100]);
        assert_eq!(w[1].p50_us, 0.149);
        assert_eq!(windows_by_count(&samples[..30], 100).len(), 1);
    }

    #[test]
    fn summary_reports_the_quiet_decile() {
        // Eleven windows: window k completes 1000 k operations of k µs.
        let w: Vec<Window> = (1..=11u32)
            .map(|k| {
                let mut lat: Vec<u32> = (0..1000 * k).map(|i| 1000 * k + i % 100).collect();
                Window::reduce(Duration::from_secs(1), &mut lat).unwrap()
            })
            .collect();
        let s = summarize(&w);
        assert_eq!(s.throughput_per_s, 10_000.0);
        assert!((s.p50_us - 2.05).abs() < 0.01, "second-fastest window's median: {}", s.p50_us);
        assert!((s.p99_us - 6.1).abs() < 0.01, "middle window's p99: {}", s.p99_us);
        assert_eq!(s.samples, 66_000);
        assert_eq!(s.beyond_p99_min, 10);
    }

    #[test]
    fn quantile_of_interpolates() {
        let v = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(quantile_of(&v, 0.0), 1.0);
        assert_eq!(quantile_of(&v, 0.5), 3.0);
        assert_eq!(quantile_of(&v, 0.9), 4.6);
        assert_eq!(quantile_of(&v, 1.0), 5.0);
    }
}
