//! Order statistics for the latency samples.

/// Percentiles the tail metric may report, lowest first, each with the
/// `d` for which one sample in `d` lies beyond it. p99 is the highest:
/// p99.9 moved between runs of the same code whenever the op count
/// crossed 10 000, and the single highest percentile with ten samples
/// beyond it (the 11th-slowest op) spread 0.41 over ten runs on a
/// shared 2-core VM.
pub const TAIL_LADDER: [(f64, usize); 3] = [(50.0, 2), (90.0, 10), (99.0, 100)];
/// Samples that must lie beyond the reported tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// The `p`th percentile (0..=100) of `sorted`, interpolating linearly
/// between the two nearest ranks. `sorted` must be ascending and
/// non-empty.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = (p / 100.0).clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// The `p`th percentile of an unsorted sample; `None` when empty.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    Some(percentile_sorted(&v, p))
}

pub fn median(values: &[f64]) -> Option<f64> {
    percentile(values, 50.0)
}

/// The highest ladder percentile with at least ten of `n` samples
/// beyond it. Below 20 samples no percentile qualifies and the median is
/// used.
pub fn tail_percentile(n: usize) -> f64 {
    TAIL_LADDER
        .iter()
        .rev()
        .find(|(_, d)| n >= TAIL_MIN_BEYOND * d)
        .map_or(50.0, |(p, _)| *p)
}

/// `(percentile, value)` of the tail metric over a sample.
pub fn tail(values: &[f64]) -> Option<(f64, f64)> {
    let p = tail_percentile(values.len());
    percentile(values, p).map(|v| (p, v))
}

/// Throughput and tail of one phase, each the median over equal time
/// windows of it.
#[derive(Debug, Clone, PartialEq)]
pub struct Windowed {
    pub ops_per_s: f64,
    pub rows_per_s: f64,
    /// The ladder percentile of the window with the fewest ops, used in
    /// every window.
    pub tail_percentile: f64,
    pub tail: f64,
    /// Ops per second of each window, in time order.
    pub each_ops_per_s: Vec<f64>,
}

/// Cut a phase of `secs` seconds into `windows` equal windows and report
/// ops/s, rows/s and the tail as medians over them. `ops` holds each
/// op's `(completion time in s from the phase start, latency, rows)`.
/// On a shared host a stall of the whole machine slows every op it
/// covers; a median over windows ignores one that covers fewer than
/// half of them, where a rate over the phase or one tail over all ops
/// would take it in. `None` when no op completed.
pub fn windowed(ops: &[(f64, f64, usize)], secs: f64, windows: usize) -> Option<Windowed> {
    if ops.is_empty() || windows == 0 || !secs.is_finite() || secs <= 0.0 {
        return None;
    }
    let width = secs / windows as f64;
    let mut lat: Vec<Vec<f64>> = vec![Vec::new(); windows];
    let mut rows = vec![0usize; windows];
    for &(at, latency, n) in ops {
        let w = ((at.max(0.0) / width) as usize).min(windows - 1);
        lat[w].push(latency);
        rows[w] += n;
    }
    let fewest = lat.iter().map(Vec::len).min().unwrap_or(0);
    let tail_percentile = tail_percentile(fewest);
    let each_ops_per_s: Vec<f64> = lat.iter().map(|l| l.len() as f64 / width).collect();
    let rates: Vec<f64> = rows.iter().map(|&n| n as f64 / width).collect();
    let tails: Vec<f64> = lat
        .iter()
        .filter_map(|l| percentile(l, tail_percentile))
        .collect();
    Some(Windowed {
        ops_per_s: median(&each_ops_per_s)?,
        rows_per_s: median(&rates)?,
        tail_percentile,
        tail: median(&tails)?,
        each_ops_per_s,
    })
}

pub fn mean(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        None
    } else {
        Some(values.iter().sum::<f64>() / values.len() as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&v, 100.0), Some(4.0));
        assert_eq!(median(&v), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(0), 50.0);
        assert_eq!(tail_percentile(19), 50.0);
        assert_eq!(tail_percentile(20), 50.0);
        assert_eq!(tail_percentile(99), 50.0);
        assert_eq!(tail_percentile(100), 90.0);
        assert_eq!(tail_percentile(999), 90.0);
        assert_eq!(tail_percentile(1000), 99.0);
        assert_eq!(tail_percentile(1_000_000), 99.0);
        for n in [20, 37, 100, 999, 1000, 4321, 100_000] {
            let v: Vec<f64> = (0..n).map(|i| i as f64).collect();
            let (_, value) = tail(&v).unwrap();
            let beyond = v.iter().filter(|&&x| x > value).count();
            assert!(beyond >= 10, "n={n}: {beyond} beyond");
        }
    }

    #[test]
    fn windows_ignore_a_stall_in_fewer_than_half_of_them() {
        // 5 windows of 2 s with 200 ops of 1 ms and 3 rows each, except
        // the middle one, where the machine stalls: 120 ops of 5 ms.
        let mut ops = Vec::new();
        for w in 0..5 {
            let (n, latency) = if w == 2 { (120, 5.0) } else { (200, 1.0) };
            for i in 0..n {
                let at = w as f64 * 2.0 + (i as f64 + 0.5) * 2.0 / n as f64;
                ops.push((at, latency, 3));
            }
        }
        let w = windowed(&ops, 10.0, 5).unwrap();
        assert_eq!(w.each_ops_per_s, vec![100.0, 100.0, 60.0, 100.0, 100.0]);
        assert_eq!(w.ops_per_s, 100.0);
        assert_eq!(w.rows_per_s, 300.0);
        // The stalled window has the fewest ops, 120: p90 everywhere.
        assert_eq!(w.tail_percentile, 90.0);
        assert_eq!(w.tail, 1.0);
        // One p90 over all 920 ops would be the stall's 5 ms.
        let all: Vec<f64> = ops.iter().map(|o| o.1).collect();
        assert_eq!(tail(&all).unwrap(), (90.0, 5.0));
        assert_eq!(windowed(&[], 10.0, 5), None);
    }

    #[test]
    fn tail_reports_its_percentile() {
        let v: Vec<f64> = (0..1000).map(|i| i as f64).collect();
        let (p, value) = tail(&v).unwrap();
        assert_eq!(p, 99.0);
        // Ten samples (990..=999) lie beyond the reported value.
        assert_eq!(v.iter().filter(|&&x| x > value).count(), 10);
    }
}
