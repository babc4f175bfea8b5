//! Order statistics for the benchmark: medians, nearest-rank percentiles,
//! and the windowed latency summary every request workload reports.
//!
//! A section is cut into fixed-length windows, every statistic is taken
//! per window first, and the section reports the **median over its
//! windows**: one scheduler hiccup moves one window and not the result,
//! while anything the program does in half of the windows or more (a
//! periodic stall, an eviction burst, a seal pause) shows in full.

/// Median of `values` (mean of the two middle elements for an even
/// count). Sorts in place; 0.0 for an empty slice.
pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// Nearest-rank percentile of an ascending slice: the smallest element
/// with at least `p` percent of the samples at or below it; the default
/// value for an empty slice.
pub fn percentile<T: Copy + Default>(sorted: &[T], p: f64) -> T {
    if sorted.is_empty() {
        return T::default();
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Latency samples grouped into fixed-length windows by completion time.
#[derive(Debug)]
pub struct Windows {
    window_ns: u64,
    /// Latencies (ns, saturated to `u32`) of the window being filled.
    current: Vec<u32>,
    current_index: u64,
    closed: Vec<WindowStat>,
    samples: u64,
}

#[derive(Debug, Clone, Copy, PartialEq)]
struct WindowStat {
    count: usize,
    p50_ns: u32,
    p90_ns: u32,
    p99_ns: u32,
}

/// What [`Windows::finish`] reports.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Summary {
    /// Samples recorded, including those of the discarded partial window.
    pub samples: u64,
    /// Complete windows the medians below were taken over.
    pub windows: usize,
    /// Median over the windows of completions per second.
    pub ops_s: f64,
    /// Median over the windows of the per-window median latency, in µs.
    pub p50_us: f64,
    /// Median over the windows of the per-window p90 latency, in µs.
    pub p90_us: f64,
    /// Median over the windows of the per-window p99 latency, in µs.
    pub p99_us: f64,
}

impl Windows {
    /// Windows of `window_ns` nanoseconds starting at time 0.
    pub fn new(window_ns: u64) -> Self {
        Windows {
            window_ns: window_ns.max(1),
            current: Vec::new(),
            current_index: 0,
            closed: Vec::new(),
            samples: 0,
        }
    }

    /// Records one completion at `t_ns` (since the section started; must
    /// not decrease between calls) that took `latency_ns`.
    pub fn record(&mut self, t_ns: u64, latency_ns: u64) {
        let index = t_ns / self.window_ns;
        while self.current_index < index {
            self.close_current();
        }
        self.current
            .push(u32::try_from(latency_ns).unwrap_or(u32::MAX));
        self.samples += 1;
    }

    fn close_current(&mut self) {
        self.current.sort_unstable();
        self.closed.push(WindowStat {
            count: self.current.len(),
            p50_ns: percentile(&self.current, 50.0),
            p90_ns: percentile(&self.current, 90.0),
            p99_ns: percentile(&self.current, 99.0),
        });
        self.current.clear();
        self.current_index += 1;
    }

    /// Summarises the complete windows. The last, partial window is
    /// dropped unless it is the only one. A window with no completions (a
    /// stall) counts as zero throughput and contributes no percentiles.
    pub fn finish(mut self) -> Summary {
        if self.closed.is_empty() && !self.current.is_empty() {
            self.close_current();
        }
        let window_s = self.window_ns as f64 / 1e9;
        let mut rates: Vec<f64> = self
            .closed
            .iter()
            .map(|w| w.count as f64 / window_s)
            .collect();
        let busy = self.closed.iter().filter(|w| w.count > 0);
        let mut p50s: Vec<f64> = busy.clone().map(|w| w.p50_ns as f64 / 1e3).collect();
        let mut p90s: Vec<f64> = busy.clone().map(|w| w.p90_ns as f64 / 1e3).collect();
        let mut p99s: Vec<f64> = busy.map(|w| w.p99_ns as f64 / 1e3).collect();
        Summary {
            samples: self.samples,
            windows: self.closed.len(),
            ops_s: median(&mut rates),
            p50_us: median(&mut p50s),
            p90_us: median(&mut p90s),
            p99_us: median(&mut p99s),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&mut []), 0.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u32> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), 50);
        assert_eq!(percentile(&v, 99.0), 99);
        assert_eq!(percentile(&v, 100.0), 100);
        assert_eq!(percentile(&v, 0.0), 1);
        assert_eq!(percentile(&[7], 99.0), 7);
        assert_eq!(percentile::<u32>(&[], 99.0), 0);
        // Eight samples support no p99 of their own: it is the slowest.
        assert_eq!(percentile(&[1, 2, 3, 4, 5, 6, 7, 8], 99.0), 8);
    }

    /// Five 1 µs windows of 100 samples each, latencies 100..=199 ns,
    /// except that every sample of the windows in `slow` takes 900 ns.
    fn five_windows(slow: &[u64]) -> Summary {
        let mut w = Windows::new(1_000);
        for window in 0..5u64 {
            for i in 0..100u64 {
                let latency = if slow.contains(&window) { 900 } else { 100 + i };
                w.record(window * 1_000 + i * 10, latency);
            }
        }
        // A sample in window 5 closes window 4 and is itself discarded.
        w.record(5_000, 1);
        w.finish()
    }

    #[test]
    fn one_hiccup_does_not_move_the_p99() {
        let s = five_windows(&[1, 2]);
        assert_eq!(s.windows, 5);
        assert_eq!(s.samples, 501);
        // Per-window median of 100..=199 is 149, p90 189, p99 198.
        assert!((s.p50_us - 0.149).abs() < 1e-12, "{}", s.p50_us);
        assert!((s.p90_us - 0.189).abs() < 1e-12, "{}", s.p90_us);
        assert!((s.p99_us - 0.198).abs() < 1e-12, "{}", s.p99_us);
        assert_eq!(s.ops_s, 100.0 / 1e-6);
    }

    #[test]
    fn what_happens_in_half_of_the_windows_shows_in_full() {
        let s = five_windows(&[0, 2, 4]);
        assert!((s.p50_us - 0.9).abs() < 1e-12, "{}", s.p50_us);
        assert!((s.p99_us - 0.9).abs() < 1e-12, "{}", s.p99_us);
    }

    #[test]
    fn stalled_windows_count_as_no_throughput() {
        let mut w = Windows::new(1_000);
        w.record(10, 6);
        // Nothing completes in windows 1..=6.
        w.record(7_010, 6);
        w.record(8_000, 6);
        let s = w.finish();
        assert_eq!(s.windows, 8);
        // Six of eight windows are empty, so the median window is.
        assert_eq!(s.ops_s, 0.0);
        // Percentiles come from the two busy windows only.
        assert_eq!(s.p50_us, 0.006);
    }

    #[test]
    fn a_single_partial_window_is_kept() {
        let mut w = Windows::new(1_000_000);
        w.record(10, 2_000);
        w.record(20, 4_000);
        let s = w.finish();
        assert_eq!(s.windows, 1);
        assert_eq!(s.p50_us, 2.0);
        assert_eq!(s.p99_us, 4.0);
    }

    #[test]
    fn latencies_saturate_instead_of_wrapping() {
        let mut w = Windows::new(1_000);
        w.record(0, u64::MAX);
        assert_eq!(w.finish().p99_us, u32::MAX as f64 / 1e3);
    }
}
