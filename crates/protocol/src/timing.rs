//! Per-frame delivery timing: latency, jitter, and playout lateness.
//!
//! The paper's abstract faults classical error handling for "introducing
//! timing variations, which is unacceptable for isochronous traffic".
//! This module quantifies that: for every frame that completed reassembly
//! we record its completion time, compare it against its ideal playout
//! instant (one buffer window of start-up delay, §4.1), and aggregate
//! latency, jitter and late-delivery counts. Error spreading adds **no**
//! per-frame delay variation (the whole window is buffered anyway), while
//! retransmission-based recovery visibly does.

use espread_netsim::{SimDuration, SimTime};

/// Aggregated delivery-timing statistics of a session.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct TimingStats {
    /// Frames that completed reassembly (had a measurable completion).
    pub frames_measured: usize,
    /// Mean completion latency relative to the frame's window start, in
    /// microseconds.
    pub mean_latency_us: f64,
    /// Largest completion latency observed, in microseconds.
    pub max_latency_us: u64,
    /// Standard deviation of the completion latency (the "timing
    /// variation" of the abstract), in microseconds.
    pub jitter_us: f64,
    /// Frames that completed *after* their ideal playout instant and are
    /// therefore perceptually lost despite being delivered.
    pub late_frames: usize,
}

/// Accumulates per-frame completion times across windows.
#[derive(Debug, Clone, Default)]
pub struct TimingAccumulator {
    latencies_us: Vec<u64>,
    /// Running sum and maximum of `latencies_us`.
    sum_us: u64,
    max_us: u64,
    late_frames: usize,
}

impl TimingAccumulator {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty accumulator with room for `frames` completions, so
    /// recording a stream of that many frames never grows it.
    pub fn with_capacity(frames: usize) -> Self {
        TimingAccumulator {
            latencies_us: Vec::with_capacity(frames),
            ..Self::default()
        }
    }

    /// Records one window's completions.
    ///
    /// * `window_start` — when the window's data became available at the
    ///   server;
    /// * `cycle` — the buffer cycle duration (start-up delay is one
    ///   cycle, so frame `f` of the window ideally appears at
    ///   `window_start + cycle + f·frame_duration`);
    /// * `frame_duration` — one LDU slot;
    /// * `completions[f]` — when frame `f` finished reassembly, if ever.
    pub fn record_window(
        &mut self,
        window_start: SimTime,
        cycle: SimDuration,
        frame_duration: SimDuration,
        completions: &[Option<SimTime>],
    ) {
        for (f, completed) in completions.iter().enumerate() {
            let Some(done) = completed else { continue };
            let latency = done.saturating_since(window_start).as_micros();
            self.latencies_us.push(latency);
            self.sum_us += latency;
            self.max_us = self.max_us.max(latency);
            let playout = window_start
                + cycle
                + SimDuration::from_micros(frame_duration.as_micros() * f as u64);
            if *done > playout {
                self.late_frames += 1;
            }
        }
    }

    /// Finalises the statistics. The variance takes a second pass over
    /// the latencies around their mean, not a running sum of squares: the
    /// artifacts print `jitter_us` at full precision, and the two forms
    /// round differently.
    pub fn stats(&self) -> TimingStats {
        let n = self.latencies_us.len();
        if n == 0 {
            return TimingStats::default();
        }
        let nf = n as f64;
        let mean = self.sum_us as f64 / nf;
        let var = self
            .latencies_us
            .iter()
            .map(|&l| {
                let d = l as f64 - mean;
                d * d
            })
            .sum::<f64>()
            / nf;
        TimingStats {
            frames_measured: n,
            mean_latency_us: mean,
            max_latency_us: self.max_us,
            jitter_us: var.sqrt(),
            late_frames: self.late_frames,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_accumulator_is_zeroed() {
        let acc = TimingAccumulator::new();
        let s = acc.stats();
        assert_eq!(s.frames_measured, 0);
        assert_eq!(s.mean_latency_us, 0.0);
        assert_eq!(s.late_frames, 0);
    }

    #[test]
    fn latency_and_jitter() {
        let mut acc = TimingAccumulator::new();
        let start = SimTime::from_micros(1_000_000);
        let cycle = SimDuration::from_secs(1);
        let frame_dur = SimDuration::from_micros(41_667);
        let completions = vec![
            Some(SimTime::from_micros(1_100_000)), // latency 100 ms
            Some(SimTime::from_micros(1_300_000)), // latency 300 ms
            None,                                  // lost
        ];
        acc.record_window(start, cycle, frame_dur, &completions);
        let s = acc.stats();
        assert_eq!(s.frames_measured, 2);
        assert!((s.mean_latency_us - 200_000.0).abs() < 1e-9);
        assert_eq!(s.max_latency_us, 300_000);
        assert!((s.jitter_us - 100_000.0).abs() < 1e-9);
        assert_eq!(s.late_frames, 0); // both well before playout
    }

    #[test]
    fn late_frames_counted() {
        let mut acc = TimingAccumulator::new();
        let start = SimTime::ZERO;
        let cycle = SimDuration::from_millis(100);
        let frame_dur = SimDuration::from_millis(10);
        // Frame 0 plays at 100 ms; completing at 150 ms is late.
        // Frame 1 plays at 110 ms; completing at 105 ms is on time.
        let completions = vec![
            Some(SimTime::from_micros(150_000)),
            Some(SimTime::from_micros(105_000)),
        ];
        acc.record_window(start, cycle, frame_dur, &completions);
        assert_eq!(acc.stats().late_frames, 1);
    }

    #[test]
    fn windows_accumulate() {
        let mut acc = TimingAccumulator::new();
        let cycle = SimDuration::from_secs(1);
        let fd = SimDuration::from_millis(40);
        acc.record_window(SimTime::ZERO, cycle, fd, &[Some(SimTime::from_micros(10))]);
        acc.record_window(
            SimTime::from_micros(1_000_000),
            cycle,
            fd,
            &[Some(SimTime::from_micros(1_000_020))],
        );
        let s = acc.stats();
        assert_eq!(s.frames_measured, 2);
        assert!((s.mean_latency_us - 15.0).abs() < 1e-9);
    }
}
