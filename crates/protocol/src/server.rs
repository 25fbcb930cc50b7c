//! Server-side protocol state: adaptive per-layer estimators and window
//! planning.
//!
//! At the start of each buffer window the server folds the freshest ACK
//! (highest sequence number, §4.2) into its per-layer exponential-averaging
//! estimators (eq. 1) and generates the window's transmission plan.
//!
//! The rounded estimates revisit the same handful of values constantly,
//! so the server memoizes its plans by the estimate vector they were
//! built from: a window whose estimates match an earlier window's reuses
//! that window's [`WindowPlan`] instead of rebuilding it.

use std::collections::HashMap;
use std::sync::Arc;

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

/// Plans one [`Server`] memoizes before it starts over. Distinct
/// estimate vectors are few (each entry is bounded by its layer's
/// length), so the bound only stops a pathological feedback stream from
/// growing the memo without limit; clearing it when full is enough.
const PLAN_MEMO_CAP: usize = 64;

/// Server state across buffer windows.
#[derive(Debug, Clone)]
pub struct Server {
    ordering: Ordering,
    estimators: Vec<BurstEstimator>,
    layer_sizes: Vec<usize>,
    acks: AckTracker,
    last_applied_window: Option<u64>,
    last_adaptation: Option<AdaptationRecord>,
    /// Fingerprint of the poset given to [`Server::new`], which every
    /// [`Server::plan_window`] call must pass again.
    poset_fingerprint: u64,
    /// The memo key of the window being planned (reused buffer).
    key: Vec<usize>,
    /// Plans by the estimates they were built from; empty keys for
    /// orderings that ignore the estimates.
    plans: HashMap<Vec<usize>, Arc<WindowPlan>>,
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
            poset_fingerprint: poset.fingerprint(),
            key: Vec::new(),
            plans: HashMap::new(),
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
        bounded(&self.estimators, &self.layer_sizes).collect()
    }

    /// Raw (un-rounded) estimator values, for reporting.
    pub fn raw_estimates(&self) -> Vec<f64> {
        self.estimators.iter().map(|e| e.value()).collect()
    }

    /// Starts a new buffer window: folds in the freshest unapplied ACK and
    /// returns the transmission plan.
    ///
    /// `poset` must be the poset given to [`Server::new`] (checked in
    /// debug builds): plans are memoized by their estimates alone. The
    /// returned plan equals `WindowPlan::build(ordering, poset,
    /// &self.estimates())`; on a repeat of earlier estimates it is the
    /// earlier plan, shared, and planning without fresh feedback then
    /// allocates nothing.
    pub fn plan_window(&mut self, poset: &Poset) -> Arc<WindowPlan> {
        debug_assert_eq!(
            poset.fingerprint(),
            self.poset_fingerprint,
            "plan_window needs the poset the server was created with"
        );
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
        self.key.clear();
        if self.ordering.is_adaptive() {
            self.key
                .extend(bounded(&self.estimators, &self.layer_sizes));
        }
        if let Some(plan) = self.plans.get(self.key.as_slice()) {
            return Arc::clone(plan);
        }
        // The key is all `build` reads of the estimates: orderings that
        // ignore them build from the empty key alike.
        let plan = Arc::new(WindowPlan::build(self.ordering, poset, &self.key));
        if self.plans.len() >= PLAN_MEMO_CAP {
            self.plans.clear();
        }
        self.plans.insert(self.key.clone(), Arc::clone(&plan));
        plan
    }

    /// The adaptation performed by the most recent [`Self::plan_window`]
    /// call, if that call applied fresh feedback. Consumes the record, so a
    /// planning round without new feedback reads as `None`.
    pub fn take_last_adaptation(&mut self) -> Option<AdaptationRecord> {
        self.last_adaptation.take()
    }
}

/// Each estimator's value rounded and clamped to its layer's length.
fn bounded<'a>(
    estimators: &'a [BurstEstimator],
    layer_sizes: &'a [usize],
) -> impl Iterator<Item = usize> + 'a {
    estimators
        .iter()
        .zip(layer_sizes)
        .map(|(e, &len)| e.bounded(len))
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
    fn repeated_estimates_reuse_the_memoized_plan() {
        let (config, poset) = setup();
        let mut server = Server::new(&config, &poset);
        let ack = |server: &mut Server, seq: u64, b: usize| {
            server.offer_ack(
                seq,
                WindowFeedback {
                    window: seq - 1,
                    per_layer_burst: vec![1, 1, 1, 1, b],
                },
            );
        };
        let prior = server.plan_window(&poset);
        assert!(Arc::ptr_eq(&prior, &server.plan_window(&poset)));
        ack(&mut server, 1, 0); // B estimate 8 → 4: a new plan
        let moved = server.plan_window(&poset);
        assert!(!Arc::ptr_eq(&prior, &moved));
        assert_eq!(moved.layers[4].burst_bound, 4);
        ack(&mut server, 2, 12); // 4 → 8: the prior's plan again
        assert!(Arc::ptr_eq(&prior, &server.plan_window(&poset)));
    }

    #[test]
    fn orderings_that_ignore_estimates_plan_once() {
        let (config, poset) = setup();
        for ordering in [
            Ordering::InOrder,
            Ordering::Ibo,
            Ordering::Spread { adaptive: false },
        ] {
            let mut server = Server::new(&config.clone().with_ordering(ordering), &poset);
            let first = server.plan_window(&poset);
            for seq in 1..=4 {
                server.offer_ack(
                    seq,
                    WindowFeedback {
                        window: seq - 1,
                        per_layer_burst: vec![2, 0, 2, 0, 3 * seq as usize],
                    },
                );
                assert!(
                    Arc::ptr_eq(&first, &server.plan_window(&poset)),
                    "{ordering}"
                );
            }
        }
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "plan_window needs the poset the server was created with")]
    fn planning_with_another_poset_is_caught_in_debug_builds() {
        let (config, poset) = setup();
        let mut server = Server::new(&config, &poset);
        let _ = server.plan_window(&GopPattern::gop12().dependency_poset(1, false));
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
