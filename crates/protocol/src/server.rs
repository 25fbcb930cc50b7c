//! Server-side protocol state: adaptive per-layer estimators and window
//! planning.
//!
//! At the start of each buffer window the server folds the freshest ACK
//! (highest sequence number, §4.2) into its per-layer exponential-averaging
//! estimators (eq. 1) and generates the window's transmission plan.

use espread_core::BurstEstimator;
use espread_poset::Poset;

use crate::config::{Ordering, ProtocolConfig};
use crate::feedback::{AckTracker, WindowFeedback};
use crate::layers::WindowPlan;

/// One applied adaptation step: the feedback that triggered it and how the
/// per-layer estimates moved. Plain data, so callers can observe
/// adaptation without reading the telemetry event log.
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptationRecord {
    /// The window the triggering feedback described.
    pub feedback_window: u64,
    /// Per-layer burst observations carried by the feedback.
    pub observed_bursts: Vec<usize>,
    /// Raw per-layer estimates before folding the feedback in.
    pub old_estimates: Vec<f64>,
    /// Raw per-layer estimates after folding the feedback in.
    pub new_estimates: Vec<f64>,
}

/// Server state across buffer windows.
#[derive(Debug, Clone)]
pub struct Server {
    ordering: Ordering,
    estimators: Vec<BurstEstimator>,
    layer_sizes: Vec<usize>,
    acks: AckTracker,
    last_applied_window: Option<u64>,
    last_adaptation: Option<AdaptationRecord>,
}

impl Server {
    /// Creates the server for a stream whose per-window dependency poset is
    /// `poset` (constant across windows, as with a fixed GOP pattern).
    ///
    /// Initial estimates follow the config's "average case" prior:
    /// `initial_estimate_fraction × layer length` per layer.
    pub fn new(config: &ProtocolConfig, poset: &Poset) -> Self {
        let layer_sizes: Vec<usize> = poset
            .depth_decomposition()
            .iter()
            .map(|l| l.len())
            .collect();
        let estimators = layer_sizes
            .iter()
            .map(|&len| {
                BurstEstimator::new(
                    config.alpha,
                    (len as f64 * config.initial_estimate_fraction).max(1.0),
                )
            })
            .collect();
        Server {
            ordering: config.ordering,
            estimators,
            layer_sizes,
            acks: AckTracker::new(),
            last_applied_window: None,
            last_adaptation: None,
        }
    }

    /// Offers an arrived window-ACK (with its channel sequence number);
    /// out-of-order ACKs are ignored per §4.2.
    pub fn offer_ack(&mut self, seq: u64, feedback: WindowFeedback) -> bool {
        self.acks.offer(seq, feedback)
    }

    /// Current per-layer burst-bound estimates, rounded for use by
    /// `calculatePermutation` and clamped to each layer's length — after a
    /// run of full-window losses the raw estimate can exceed the layer
    /// size, and spreading against `b > n` is meaningless.
    pub fn estimates(&self) -> Vec<usize> {
        self.estimators
            .iter()
            .zip(&self.layer_sizes)
            .map(|(e, &len)| e.bounded(len))
            .collect()
    }

    /// Raw (un-rounded) estimator values, for reporting.
    pub fn raw_estimates(&self) -> Vec<f64> {
        self.estimators.iter().map(|e| e.value()).collect()
    }

    /// Starts a new buffer window: folds in the freshest unapplied ACK and
    /// returns the transmission plan.
    pub fn plan_window(&mut self, poset: &Poset) -> WindowPlan {
        self.last_adaptation = None;
        if let Some(fb) = self.acks.latest() {
            let newer = self
                .last_applied_window
                .is_none_or(|applied| fb.window > applied);
            if newer {
                self.last_applied_window = Some(fb.window);
                let feedback_window = fb.window;
                let bursts = fb.per_layer_burst.clone();
                let old_estimates = self.raw_estimates();
                for (est, observed) in self.estimators.iter_mut().zip(&bursts) {
                    // Feedback arrives off the network: an out-of-range
                    // observation is skipped, never a panic. (The wire's
                    // u16 burst field can't produce one today, but this
                    // path must stay safe under any future feedback
                    // source.)
                    let _ = est.try_observe(*observed as f64);
                }
                self.last_adaptation = Some(AdaptationRecord {
                    feedback_window,
                    observed_bursts: bursts,
                    old_estimates,
                    new_estimates: self.raw_estimates(),
                });
            }
        }
        WindowPlan::build(self.ordering, poset, &self.estimates())
    }

    /// The adaptation performed by the most recent [`Self::plan_window`]
    /// call, if that call applied fresh feedback. Consumes the record, so a
    /// planning round without new feedback reads as `None`.
    pub fn take_last_adaptation(&mut self) -> Option<AdaptationRecord> {
        self.last_adaptation.take()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use espread_trace::GopPattern;

    fn setup() -> (ProtocolConfig, Poset) {
        (
            ProtocolConfig::paper(0.6, 1),
            GopPattern::gop12().dependency_poset(2, false),
        )
    }

    #[test]
    fn initial_estimates_are_half_layer_length() {
        let (config, poset) = setup();
        let server = Server::new(&config, &poset);
        // Layers: 2, 2, 2, 2, 16 → priors 1, 1, 1, 1, 8.
        assert_eq!(server.estimates(), vec![1, 1, 1, 1, 8]);
    }

    #[test]
    fn ack_updates_estimates_via_exponential_averaging() {
        let (config, poset) = setup();
        let mut server = Server::new(&config, &poset);
        server.offer_ack(
            1,
            WindowFeedback {
                window: 0,
                per_layer_burst: vec![1, 1, 1, 1, 2],
            },
        );
        let _ = server.plan_window(&poset);
        // B layer: (8 + 2) / 2 = 5.
        assert_eq!(server.estimates()[4], 5);
        assert!((server.raw_estimates()[4] - 5.0).abs() < 1e-12);
    }

    #[test]
    fn same_ack_not_applied_twice() {
        let (config, poset) = setup();
        let mut server = Server::new(&config, &poset);
        server.offer_ack(
            1,
            WindowFeedback {
                window: 0,
                per_layer_burst: vec![1, 1, 1, 1, 2],
            },
        );
        let _ = server.plan_window(&poset);
        let once = server.raw_estimates();
        let _ = server.plan_window(&poset);
        assert_eq!(server.raw_estimates(), once);
    }

    #[test]
    fn out_of_order_acks_ignored() {
        let (config, poset) = setup();
        let mut server = Server::new(&config, &poset);
        assert!(server.offer_ack(
            5,
            WindowFeedback {
                window: 3,
                per_layer_burst: vec![1, 1, 1, 1, 4],
            }
        ));
        assert!(!server.offer_ack(
            2,
            WindowFeedback {
                window: 1,
                per_layer_burst: vec![1, 1, 1, 1, 16],
            }
        ));
        let _ = server.plan_window(&poset);
        assert_eq!(server.estimates()[4], 6); // (8+4)/2, not (8+16)/2
    }

    #[test]
    fn estimates_clamped_to_layer_sizes() {
        let (config, poset) = setup();
        let mut server = Server::new(&config, &poset);
        // Repeated full-window losses drive the raw B-layer estimate past
        // the 16-frame layer (ceil rounds up, ACKs report the whole layer
        // and then some after retransmission accounting).
        for seq in 1..=6 {
            server.offer_ack(
                seq,
                WindowFeedback {
                    window: seq - 1,
                    per_layer_burst: vec![9, 9, 9, 9, 40],
                },
            );
            let _ = server.plan_window(&poset);
        }
        assert!(server.raw_estimates()[4] > 16.0);
        let estimates = server.estimates();
        assert_eq!(estimates[4], 16, "B layer clamped to its length");
        assert!(estimates[..4].iter().all(|&e| e <= 2), "anchor layers too");
    }

    #[test]
    fn plan_uses_current_estimates() {
        let (config, poset) = setup();
        let mut server = Server::new(&config, &poset);
        let plan = server.plan_window(&poset);
        assert_eq!(plan.layers[4].burst_bound, 8);
        server.offer_ack(
            1,
            WindowFeedback {
                window: 0,
                per_layer_burst: vec![1, 1, 1, 1, 0],
            },
        );
        let plan = server.plan_window(&poset);
        assert_eq!(plan.layers[4].burst_bound, 4); // (8+0)/2
    }
}
