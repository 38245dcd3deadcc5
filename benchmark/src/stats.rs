//! Order statistics the benchmark reports: nearest-rank percentiles, the
//! highest percentile a sample can support, and the ten-segment medians
//! that keep one stall of a shared machine out of the results.

/// Percentile ladder the tail selection walks, low to high, in tenths of a
/// percent so the arithmetic stays in integers.
const LADDER_PERMILLE: [usize; 6] = [500, 750, 900, 950, 990, 999];

/// Samples that must lie beyond a percentile for it to be reported.
const MIN_BEYOND: usize = 10;

/// Segments a run is cut into for the segment medians.
pub const SEGMENTS: usize = 10;

/// Fewest samples a segment needs for its own percentile to mean anything.
const MIN_PER_SEGMENT: usize = 5;

/// Nearest-rank percentile (`p` in 0..=100) of `values`; `NaN` when empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median by nearest rank.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// The highest percentile of the ladder with at least ten of `n` samples
/// beyond it, or `None` when even the median has fewer.
pub fn tail_percentile(n: usize) -> Option<f64> {
    LADDER_PERMILLE
        .iter()
        .rfind(|&&permille| n * (1000 - permille) / 1000 >= MIN_BEYOND)
        .map(|&permille| permille as f64 / 10.0)
}

/// Median over [`SEGMENTS`] equal-count, consecutive segments of each
/// segment's `p`-th percentile: the typical percentile of the run. A stall
/// of the machine lands in one or two segments and moves their percentile,
/// not the median of the ten. Runs too short for [`MIN_PER_SEGMENT`]
/// samples per segment fall back to the whole-run percentile.
pub fn segment_median_percentile(values: &[f64], p: f64) -> f64 {
    let per = values.len() / SEGMENTS;
    if per < MIN_PER_SEGMENT {
        return percentile(values, p);
    }
    let per_segment: Vec<f64> = values
        .chunks_exact(per)
        .map(|segment| percentile(segment, p))
        .collect();
    median(&per_segment)
}

/// Median over [`SEGMENTS`] equal-count segments of `tokens / elapsed`.
///
/// `done_s[i]` is the completion time of operation `i` on the run's clock
/// (which starts at 0) and `tokens[i]` what it processed. One stalled
/// segment moves one of ten rates, not the median. Runs with fewer
/// operations than segments fall back to the whole-run rate.
pub fn segment_median_rate(done_s: &[f64], tokens: &[u64]) -> f64 {
    assert_eq!(done_s.len(), tokens.len(), "one token count per operation");
    let n = done_s.len();
    if n == 0 {
        return f64::NAN;
    }
    let segments = if n < SEGMENTS { 1 } else { SEGMENTS };
    let per = n / segments;
    let mut rates = Vec::with_capacity(segments);
    let mut start_s = 0.0;
    for s in 0..segments {
        let (lo, hi) = (s * per, (s + 1) * per);
        let toks: u64 = tokens[lo..hi].iter().sum();
        let end_s = done_s[hi - 1];
        rates.push(toks as f64 / (end_s - start_s).max(1e-9));
        start_s = end_s;
    }
    median(&rates)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert!(percentile(&[], 50.0).is_nan());
        // Order of the input does not matter.
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(0), None);
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(39), Some(50.0));
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(99), Some(75.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(1_000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
    }

    #[test]
    fn segment_median_ignores_one_stalled_segment() {
        // 100 operations of 10 tokens finishing every 0.1 s => 100 tok/s.
        let mut done: Vec<f64> = (1..=100).map(|i| f64::from(i) * 0.1).collect();
        let tokens = vec![10u64; 100];
        assert!((segment_median_rate(&done, &tokens) - 100.0).abs() < 1e-6);
        // A 5 s stall inside the fourth segment shifts everything after it;
        // only that segment's rate drops, the median stays.
        for d in done.iter_mut().skip(35) {
            *d += 5.0;
        }
        assert!((segment_median_rate(&done, &tokens) - 100.0).abs() < 1e-6);
        let whole_run = 1000.0 / done[99];
        assert!(whole_run < 70.0, "the plain mean is dragged down");
    }

    #[test]
    fn segment_percentile_ignores_a_stall_episode() {
        // 200 operations of 10 ms, every fifth a slow 12 ms.
        let mut ms: Vec<f64> = (0..200)
            .map(|i| if i % 5 == 4 { 12.0 } else { 10.0 })
            .collect();
        assert_eq!(segment_median_percentile(&ms, 50.0), 10.0);
        assert_eq!(segment_median_percentile(&ms, 90.0), 12.0);
        // A stall makes 30 consecutive operations ten times slower.
        for v in ms.iter_mut().skip(50).take(30) {
            *v *= 10.0;
        }
        assert_eq!(percentile(&ms, 90.0), 100.0, "the plain p90 is the stall");
        assert_eq!(segment_median_percentile(&ms, 90.0), 12.0);
        assert_eq!(segment_median_percentile(&ms, 50.0), 10.0);
        // Too few samples for ten segments: the plain percentile.
        let short: Vec<f64> = (1..=49).map(f64::from).collect();
        assert_eq!(segment_median_percentile(&short, 90.0), 45.0);
    }

    #[test]
    fn segment_median_handles_short_runs() {
        assert!(segment_median_rate(&[], &[]).is_nan());
        let rate = segment_median_rate(&[0.5, 1.0, 2.0], &[4, 4, 4]);
        assert!((rate - 6.0).abs() < 1e-9);
    }
}
