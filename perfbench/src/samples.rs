//! Latency samples, summarized chunk by chunk.  Consecutive samples form
//! chunks of [`CHUNK`]; each chunk gives its median and its tail by the
//! rule of [`crate::report::tail`], which is p99 for a full chunk of 1 000
//! (ten samples beyond it), and a run reports the median over chunks of
//! each.  A stall or a slow phase of the host that covers less than half
//! the run therefore does not move the figures, while a regression that
//! slows more than 1% of the operations moves every chunk's p99.  Memory
//! stays a few bytes per chunk, so the work's peak RSS does not grow with
//! the number of operations a run manages to time.

use crate::report::{median, percentile, tail};

/// Samples per chunk.
pub const CHUNK: usize = 1000;

/// Latencies, in microseconds, summarized per chunk.
#[derive(Default)]
pub struct Samples {
    chunk: Vec<f64>,
    /// (median, tail, tail percentile) of every closed chunk.
    chunks: Vec<(f64, f64, f64)>,
    seen: u64,
}

/// Summary of a sample, in microseconds.
#[derive(Clone, Copy, Debug)]
pub struct Summary {
    /// Median over chunks of the chunk medians.
    pub p50_us: f64,
    /// Median over chunks of the chunk tails.
    pub tail_us: f64,
    /// The tail percentile of a typical chunk.
    pub tail_percentile: f64,
    /// Chunks the figures are medians of.
    pub chunks: usize,
    /// Latencies observed.
    pub seen: u64,
}

impl Summary {
    /// The notes line: both figures with the percentile and the counts
    /// behind them.
    pub fn note(&self, what: &str) -> String {
        format!(
            "{what} latency: p50 {:.3} us, tail p{} {:.3} us; medians over {} chunks of {CHUNK} of {} samples",
            self.p50_us, self.tail_percentile, self.tail_us, self.chunks, self.seen
        )
    }
}

impl Samples {
    /// Records one latency, measured while the host ran `slowdown` times
    /// slower than nominal (see [`crate::speed`]).
    pub fn push(&mut self, nanos: u128, slowdown: f64) {
        self.seen += 1;
        self.chunk.push(nanos as f64 / 1e3 / slowdown);
        if self.chunk.len() == CHUNK {
            self.close_chunk();
        }
    }

    fn close_chunk(&mut self) {
        self.chunk.sort_by(f64::total_cmp);
        if let (Some(p50), Some(t)) = (percentile(&self.chunk, 0.5), tail(&self.chunk)) {
            self.chunks.push((p50, t.value, t.percentile));
        }
        self.chunk.clear();
    }

    /// Median and tail, or `None` with too few samples for the tail rule.
    /// A trailing partial chunk counts only when it is the only one.
    pub fn summary(&mut self) -> Option<Summary> {
        if self.chunks.is_empty() {
            self.close_chunk();
        }
        let column = |pick: fn(&(f64, f64, f64)) -> f64| -> Vec<f64> {
            self.chunks.iter().map(pick).collect()
        };
        Some(Summary {
            p50_us: median(&column(|c| c.0))?,
            tail_us: median(&column(|c| c.1))?,
            tail_percentile: median(&column(|c| c.2))?,
            chunks: self.chunks.len(),
            seen: self.seen,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figures_are_medians_over_chunks() {
        // Three full chunks of 1..=1000 µs: each chunk's median is 500 µs
        // and its p99 is 990 µs.
        let mut s = Samples::default();
        for _ in 0..3 {
            for us in 1..=1000u128 {
                s.push(us * 1000, 1.0);
            }
        }
        // Two stalled chunks (a slow phase under half the run) move
        // neither figure.
        for _ in 0..2 * CHUNK {
            s.push(50_000_000, 1.0);
        }
        let summary = s.summary().unwrap();
        assert_eq!(
            (summary.p50_us, summary.tail_us, summary.tail_percentile),
            (500.0, 990.0, 99.0)
        );
        assert_eq!((summary.chunks, summary.seen), (5, 5000));
    }

    #[test]
    fn a_slow_tail_in_every_chunk_moves_the_tail() {
        // 2% of every chunk stalls: the median stays, p99 shows the stall.
        let mut s = Samples::default();
        for _ in 0..3 {
            for i in 0..CHUNK as u128 {
                s.push(if i % 50 == 0 { 5_000_000 } else { 100_000 }, 1.0);
            }
        }
        let summary = s.summary().unwrap();
        assert_eq!((summary.p50_us, summary.tail_us), (100.0, 5000.0));
    }

    #[test]
    fn samples_are_scaled_by_the_slowdown() {
        let mut s = Samples::default();
        for us in 1..=1000u128 {
            s.push(us * 2000, 2.0);
        }
        let summary = s.summary().unwrap();
        assert_eq!((summary.p50_us, summary.tail_us), (500.0, 990.0));
    }

    #[test]
    fn a_short_sample_uses_its_partial_chunk() {
        let mut s = Samples::default();
        for us in 1..=500u128 {
            s.push(us * 1000, 1.0);
        }
        let summary = s.summary().unwrap();
        // 500 samples: p90 leaves 50 beyond, p99 only 5.
        assert_eq!(
            (
                summary.p50_us,
                summary.tail_us,
                summary.tail_percentile,
                summary.chunks
            ),
            (250.0, 450.0, 90.0, 1)
        );
        assert!(Samples::default().summary().is_none());
        let mut few = Samples::default();
        few.push(1000, 1.0);
        assert!(few.summary().is_none());
    }
}
