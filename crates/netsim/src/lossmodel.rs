//! Unified per-packet loss processes for links.
//!
//! Two interchangeable models of bursty loss:
//!
//! * [`GilbertModel`] — the paper's two-state Markov abstraction (Fig. 7),
//!   stepped once per packet regardless of timing;
//! * [`DropTailQueue`] — the *mechanism* the paper blames for burstiness
//!   (§1): a finite router buffer shared with cross traffic, where drops
//!   depend on packet size and timing.

use crate::droptail::DropTailQueue;
use crate::gilbert::GilbertModel;
use crate::time::SimTime;

/// A per-packet loss decision process.
#[derive(Debug, Clone)]
pub enum LossProcess {
    /// Two-state Markov loss (Fig. 7).
    Gilbert(GilbertModel),
    /// Drop-tail bottleneck queue with cross traffic.
    DropTail(DropTailQueue),
}

impl LossProcess {
    /// Decides whether a packet of `size_bytes` entering the path at
    /// `now` is delivered.
    pub fn step_delivers(&mut self, now: SimTime, size_bytes: u32) -> bool {
        match self {
            LossProcess::Gilbert(g) => g.step_delivers(),
            LossProcess::DropTail(q) => q.offer(now, size_bytes),
        }
    }
}

impl From<GilbertModel> for LossProcess {
    fn from(g: GilbertModel) -> Self {
        LossProcess::Gilbert(g)
    }
}

impl From<DropTailQueue> for LossProcess {
    fn from(q: DropTailQueue) -> Self {
        LossProcess::DropTail(q)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::droptail::DropTailConfig;

    #[test]
    fn gilbert_conversion_and_stepping() {
        let mut p: LossProcess = GilbertModel::new(1.0, 0.0, 1).into();
        assert!(p.step_delivers(SimTime::ZERO, 1000));
    }

    #[test]
    fn droptail_conversion_and_stepping() {
        let mut p: LossProcess = DropTailQueue::new(
            DropTailConfig {
                capacity_bytes: 100,
                drain_bps: 8,
                cross_bps: 0,
                p_stay_on: 0.0,
                p_stay_off: 1.0,
            },
            0,
        )
        .into();
        assert!(p.step_delivers(SimTime::ZERO, 100)); // fits exactly
        assert!(!p.step_delivers(SimTime::ZERO, 100)); // queue full
    }
}
