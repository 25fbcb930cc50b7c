//! Assembled CMT-style pipelines: FileSegment → PriorityBuffer → PktSrc.
//!
//! The paper validated its scheme by implementing it inside the Berkeley
//! Continuous Media Toolkit; [`Pipeline`] mirrors that wiring and lets the
//! B-frame ordering be swapped (IBO ↔ k-CPO) while everything else stays
//! identical — the §4.4 experiment in miniature.

use espread_netsim::{GilbertModel, Link, SimDuration, SimTime};
use espread_qos::WindowSeries;
use espread_trace::MpegTrace;

use crate::file_segment::FileSegment;
use crate::ordering::BFrameOrdering;
use crate::pkt_src::{PktSrc, SendStrategy};

/// Configuration of a CMT pipeline run.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// GOPs per buffer cycle (CMT's LTS cycle-time handle).
    pub gops_per_cycle: usize,
    /// Number of buffer cycles to stream.
    pub cycles: usize,
    /// Link bandwidth in bits per second.
    pub bandwidth_bps: u64,
    /// One-way propagation delay.
    pub propagation: SimDuration,
    /// Gilbert GOOD→GOOD stay probability.
    pub p_good: f64,
    /// Gilbert BAD→BAD stay probability.
    pub p_bad: f64,
    /// Channel seed.
    pub seed: u64,
    /// Packet payload size in bytes.
    pub packet_bytes: u32,
    /// Per-packet header overhead in bytes.
    pub header_bytes: u32,
    /// Transport strategy (single-shot or Cyclic-UDP resending).
    pub strategy: SendStrategy,
}

impl Default for PipelineConfig {
    /// The paper's §5.1 setting (with `P_bad = 0.6`).
    fn default() -> Self {
        PipelineConfig {
            gops_per_cycle: 2,
            cycles: 50,
            bandwidth_bps: 1_200_000,
            propagation: SimDuration::from_millis(11),
            p_good: 0.92,
            p_bad: 0.6,
            seed: 1,
            packet_bytes: 2048,
            header_bytes: 28,
            strategy: SendStrategy::Single,
        }
    }
}

/// A complete pipeline over one trace with one B-frame ordering.
#[derive(Debug)]
pub struct Pipeline {
    file_segment: FileSegment,
    pkt_src: PktSrc,
    cycle_us: u64,
    strategy: SendStrategy,
}

impl Pipeline {
    /// Wires a pipeline for `trace` under `config`, with the given
    /// B-frame ordering plug-in.
    pub fn new(trace: MpegTrace, config: &PipelineConfig, ordering: BFrameOrdering) -> Self {
        let file_segment = FileSegment::new(trace, config.gops_per_cycle, config.cycles);
        let link = Link::new(
            config.bandwidth_bps,
            config.propagation,
            GilbertModel::new(config.p_good, config.p_bad, config.seed),
        );
        let cycle_us = file_segment.cycle_us();
        Pipeline {
            file_segment,
            pkt_src: PktSrc::new(link, ordering, config.packet_bytes, config.header_bytes),
            cycle_us,
            strategy: config.strategy,
        }
    }

    /// Streams every cycle and collects per-cycle continuity metrics.
    pub fn run(mut self) -> WindowSeries {
        let _span = espread_telemetry::span("cmt.pipeline.run_ns");
        let mut series = WindowSeries::new();
        let mut cycle_index = 0u64;
        while let Some(mut buffer) = self.file_segment.next_cycle() {
            let now = SimTime::from_micros(cycle_index * self.cycle_us);
            let deadline = SimTime::from_micros((cycle_index + 1) * self.cycle_us);
            buffer.expire(now.as_micros());
            let outcome = self
                .pkt_src
                .send_cycle_with(&mut buffer, now, deadline, self.strategy);
            espread_telemetry::count("cmt.pipeline.cycles", 1);
            series.push(outcome.metrics);
            cycle_index += 1;
        }
        series
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use espread_trace::Movie;

    #[test]
    fn cyclic_udp_strategy_improves_delivery() {
        let base = PipelineConfig {
            cycles: 25,
            p_bad: 0.6,
            seed: 3,
            ..PipelineConfig::default()
        };
        let cyclic = PipelineConfig {
            strategy: SendStrategy::CyclicUdp { max_rounds: 4 },
            ..base.clone()
        };
        let trace = MpegTrace::new(Movie::JurassicPark, 3);
        let single = Pipeline::new(trace.clone(), &base, BFrameOrdering::Cpo { burst: 4 }).run();
        let resent = Pipeline::new(trace, &cyclic, BFrameOrdering::Cpo { burst: 4 }).run();
        assert!(resent.summary().mean_alf <= single.summary().mean_alf);
    }

    #[test]
    fn pipeline_streams_all_cycles() {
        let config = PipelineConfig {
            cycles: 10,
            ..PipelineConfig::default()
        };
        let trace = MpegTrace::new(Movie::JurassicPark, 3);
        let series = Pipeline::new(trace, &config, BFrameOrdering::Ibo).run();
        assert_eq!(series.len(), 10);
    }

    #[test]
    fn lossless_pipeline_is_clean() {
        let config = PipelineConfig {
            p_good: 1.0,
            p_bad: 0.0,
            cycles: 5,
            ..PipelineConfig::default()
        };
        let trace = MpegTrace::new(Movie::JurassicPark, 3);
        let series = Pipeline::new(trace, &config, BFrameOrdering::Cpo { burst: 4 }).run();
        assert_eq!(series.summary().mean_clf, 0.0);
    }

    #[test]
    fn interleaved_plugins_beat_in_order_and_track_each_other() {
        // §4.4: against the single-burst adversary CPO provably dominates
        // IBO at every burst size (see `ordering::tests`). On a stochastic
        // multi-burst Gilbert channel the two interleavers are
        // statistically equivalent; what matters is that both crush the
        // unscrambled order and CPO is never meaningfully worse than IBO.
        let run = |ordering: BFrameOrdering| {
            let mut total = 0.0;
            for seed in 0..10 {
                let config = PipelineConfig {
                    cycles: 30,
                    p_bad: 0.7,
                    seed,
                    ..PipelineConfig::default()
                };
                let trace = MpegTrace::new(Movie::JurassicPark, 3);
                total += Pipeline::new(trace, &config, ordering)
                    .run()
                    .summary()
                    .mean_clf;
            }
            total / 10.0
        };
        let in_order = run(BFrameOrdering::InOrder);
        let ibo = run(BFrameOrdering::Ibo);
        let cpo = run(BFrameOrdering::Cpo { burst: 4 });
        assert!(cpo < in_order, "CPO {cpo} must beat in-order {in_order}");
        assert!(ibo < in_order, "IBO {ibo} must beat in-order {in_order}");
        assert!(
            cpo <= ibo * 1.15,
            "CPO {cpo} must not be meaningfully worse than IBO {ibo}"
        );
    }
}
